"""Exception types shared across the library, and the five input rules.

The CLI maps these onto distinct exit codes, so user input problems
(ValidationError, DomainError) stay distinguishable from numerical
failures (SolverError, AccuracyError).

check_integer, check_positive, check_nonnegative, check_finite and
check_reals own the five input rules, "a count is an integer in a range",
"a parameter is a positive finite real", "a parameter is a non-negative
finite real", "a parameter is a finite real" and "an array is 1-D, of
finite reals".  Every module imports this one, and it loads no numpy at
import, so a check made here costs no import.
"""
from __future__ import annotations

import math
import numbers


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


def check_integer(field: str, value, least: int, most: int | None = None) -> int:
    """value as a Python int, if it is an integer (Python or numpy, not a
    bool) with least <= value <= most; ValidationError naming field if not."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < least or (most is not None and value > most)):
        bound = f">= {least}" if most is None else f"in [{least}, {most}]"
        raise ValidationError(field, f"need an integer {bound}, got {value!r}")
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
        raise ValidationError(field, f"must be a positive finite number, got {value!r}")
    return value


def check_nonnegative(field: str, value) -> float:
    """value as given, if it is a finite real >= 0; ValidationError naming
    field if not."""
    if not (_is_finite_real(value) and value >= 0):
        raise ValidationError(field, f"must be a non-negative finite number, got {value!r}")
    return value


def check_finite(field: str, value) -> float:
    """value as given, if it is a finite real; ValidationError naming field
    if not."""
    if not _is_finite_real(value):
        raise ValidationError(field, f"must be a finite number, got {value!r}")
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
        raise ValidationError(field, f"need a 1-D array of real numbers, got {values!r}")
    else:
        values = list(values)
        for value in values:
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValidationError(field, f"must be real numbers, got {value!r}")
            check_finite(field, value)
    array = np.array(values, dtype=dtype)
    if array.ndim != 1 or array.size < least:
        raise ValidationError(
            field, f"need a 1-D array of at least {least} numbers, got shape {array.shape}")
    if not np.all(np.isfinite(array)):
        raise ValidationError(field, "must be finite")
    return array
