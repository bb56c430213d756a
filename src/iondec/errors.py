"""Exception types shared across the library, its input rules and its float-range rule.

The CLI maps these onto distinct exit codes, so user input problems
(ValidationError, DomainError) stay distinguishable from numerical
failures (SolverError, AccuracyError).

check_integer, check_positive, check_nonnegative, check_finite,
check_reals and check_instance own the six input rules, "a count is an
integer in a range", "a parameter is a positive finite real", "a
parameter is a non-negative finite real", "a parameter is a finite
real", "an array is 1-D, of finite reals" and "an object argument (a
species, trap, chain, model, drive, ...) is an instance of its class";
a refusal shows the value it refused in about SHOWN_MAX characters at
most (_shown).  in_float_range owns the rule for computed values, "a
result that leaves the float range is refused with DomainError".
"""
from __future__ import annotations

import contextlib
import math
import numbers
import sys


class ValidationError(ValueError):
    """A parameter failed validation; carries the offending field name."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


class DomainError(ValueError):
    """An input lies outside the mathematical domain of an operation."""


class SolverError(RuntimeError):
    """An iterative solve did not converge; carries the best residual seen."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (best residual {residual:.3e})")
        self.residual = residual


class AccuracyError(RuntimeError):
    """An integration exceeded its accuracy budget and was aborted."""


#: longest repr a refusal shows whole; a longer one is cut to its head
SHOWN_MAX = 80


def _shown(value) -> str:
    """repr(value) if it is at most SHOWN_MAX characters long; a longer
    repr is cut to its head and its length, so every refusal is bounded.
    An int beyond the float range is shown by its digit count: from 4300
    digits on Python refuses to write its repr at all."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        size = abs(int(value))
        if size > sys.float_info.max:
            digits = int(math.log10(size)) + 1  # log10 may round across a power of ten
            digits += (size >= 10**digits) - (size < 10**(digits - 1))
            return f"{'a negative' if value < 0 else 'an'} integer of {digits} digits"
    text = repr(value)
    if len(text) <= SHOWN_MAX:
        return text
    return f"{text[:SHOWN_MAX - 20]}... ({len(text)} characters)"


def check_integer(field: str, value, least: int, most: int | None = None) -> int:
    """value as a Python int, if it is an integer (Python or numpy, not a
    bool) with least <= value <= most; ValidationError naming field if not."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < least or (most is not None and value > most)):
        bound = f">= {least}" if most is None else f"in [{least}, {most}]"
        raise ValidationError(field, f"need an integer {bound}, got {_shown(value)}")
    return int(value)


def _is_finite_real(value) -> bool:
    """A real number (Python or numpy, not a bool) within the float range;
    an int too large for a float counts as infinite.  math.isfinite reads
    the value as a float, so a numpy scalar is never compared with a
    float maximum cast to its own, narrower type."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def check_positive(field: str, value) -> float:
    """value as given, if it is a finite real > 0; ValidationError naming
    field if not."""
    if not (_is_finite_real(value) and value > 0):
        raise ValidationError(field, f"must be a positive finite number, got {_shown(value)}")
    return value


def check_nonnegative(field: str, value) -> float:
    """value as given, if it is a finite real >= 0; ValidationError naming
    field if not."""
    if not (_is_finite_real(value) and value >= 0):
        raise ValidationError(field, "must be a non-negative finite number, "
                              f"got {_shown(value)}")
    return value


def check_finite(field: str, value) -> float:
    """value as given, if it is a finite real; ValidationError naming field
    if not."""
    if not _is_finite_real(value):
        raise ValidationError(field, f"must be a finite number, got {_shown(value)}")
    return value


def check_reals(field: str, values, least: int = 1, dtype=float):
    """values as a new 1-D array of dtype with at least least entries, all
    finite, if it is an array of integer or float dtype, or an iterable,
    read once, of values that each pass check_finite; ValidationError
    naming field if not.  Each iterated value converts to dtype as given,
    so an int reaches a wider dtype exactly."""
    import numpy as np

    if isinstance(values, np.ndarray):
        if values.dtype.kind not in "iuf":
            raise ValidationError(field, f"must be real numbers, got dtype {values.dtype}")
    elif isinstance(values, (str, bytes, bytearray)) or not np.iterable(values):
        raise ValidationError(field, f"need a 1-D array of real numbers, got {_shown(values)}")
    else:
        values = list(values)
        for value in values:
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValidationError(field, f"must be real numbers, got {_shown(value)}")
            check_finite(field, value)
    array = np.array(values, dtype=dtype)
    if array.ndim != 1 or array.size < least:
        raise ValidationError(
            field, f"need a 1-D array of at least {least} numbers, got shape {array.shape}")
    if not np.all(np.isfinite(array)):
        raise ValidationError(field, "must be finite")
    return array


def check_instance(field: str, value, cls):
    """value as given, if it is an instance of cls; ValidationError naming
    field if not, so a wrong object is refused before any of its
    attributes is read."""
    if not isinstance(value, cls):
        raise ValidationError(field, f"expected {cls.__name__}, got {_shown(value)}")
    return value


def in_float_range(message: str, compute, allow_zero: bool = False):
    """compute(), if it raises no OverflowError or ZeroDivisionError and
    every number of its result (a float, an ndarray, or a tuple of them) is
    finite and > 0, or >= 0 with allow_zero; DomainError(message) if not.
    Where numpy is loaded, its floating-point warnings are off for compute:
    this check reports what they would have said."""
    np = sys.modules.get("numpy")
    try:
        with np.errstate(all="ignore") if np else contextlib.nullcontext():
            result = compute()
    except (OverflowError, ZeroDivisionError):
        raise DomainError(message) from None
    for value in result if isinstance(result, tuple) else (result,):
        low = high = value
        if np and isinstance(value, np.ndarray):  # NaN propagates; empty passes
            low, high = value.min(initial=1.0), value.max(initial=0.0)
        if not ((low >= 0 if allow_zero else low > 0) and high < math.inf):
            raise DomainError(message)
    return result
