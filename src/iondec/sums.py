"""Inverse-power lattice sums over the ion chain.

S_n(i) = sum_{j != i} |u_i - u_j|^-n has the useful shortcut
2 zeta(n)/s^n in terms of the local spacing s, and the chain total
T_n = sum_i s^-n(z_i) has an integral asymptotic (L/s0^(n+1)) *
sqrt(4 pi/(4n+7)).  Everything here stays in dimensionless d0 units;
dimensional prefactors belong to the decoherence module (s0^-16 in
meters would underflow/overflow long before physics entered).

The exact pair sums of every ion (pair_sum_exact_all) evaluate |d|^-n
with _inverse_power: one extended-precision reciprocal, then
square-and-multiply on the integer n, so no term goes through libm powl.
Each term's relative error is at most 2n * 2^-64, below half a float64
ulp for n < 512; the float64 sums may differ from a powl evaluation in
their last bit.

They run on the chain module's mirrored pairwise kernel:
|u_i - u_j|^-n is symmetric, so each pair's power is evaluated once
rather than twice, with the same bits as a direct evaluation (|d| is
exact under negation, and every row is still summed over its full
length in the same order).  An IonChain is immutable, so the sums are
memoized on the chain per exponent; callers get a copy and may modify
it freely.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .chain import IonChain, _row_sums
from .continuum import (ContinuumModel, chain_length, invert_cubic_count,
                         min_spacing)
from .errors import DomainError, ValidationError

_ZETA_JMAX = 1_000_000
_ZETA_LEAF = 1 << 15  # terms per array: 256 KB of float64


@functools.lru_cache(maxsize=None)
def zeta(n: int) -> float:
    """Riemann zeta(n) for integer n >= 2, relative error <= 4e-16.

    Direct summation of j^-n up to j = 1e6 plus the midpoint of the
    two integral tail bounds; the bracket half-width is ~1e6^-n.  The
    bound is tested against mpmath for n = 2...64.
    """
    if not isinstance(n, int) or n < 2:
        raise DomainError(f"zeta is summed for integer n >= 2 only, got {n!r}")
    head = float(_pairwise_power_sum(1, _ZETA_JMAX + 1, -float(n)))
    tail = 0.5 * (_ZETA_JMAX ** (1.0 - n) + (_ZETA_JMAX + 1.0) ** (1.0 - n)) / (n - 1.0)
    return head + tail


def _pairwise_power_sum(lo: int, hi: int, exponent: float) -> np.float64:
    """sum of j**exponent over j = lo...hi-1, never holding over _ZETA_LEAF terms.

    np.sum of a contiguous float64 array of m > 128 terms adds the sums
    of its first h = m//2 - (m//2) % 8 terms and of the rest, each split
    the same way, so splitting here as numpy does and summing the leaves
    with np.sum gives the bits of one np.sum over all the terms
    (tests/test_sums.py::test_zeta_bits_match_one_array_sum).
    """
    m = hi - lo
    if m <= _ZETA_LEAF:
        j = np.arange(lo, hi, dtype=float)
        return np.sum(np.power(j, exponent, out=j))
    h = m // 2
    h -= h % 8
    return (_pairwise_power_sum(lo, lo + h, exponent)
            + _pairwise_power_sum(lo + h, hi, exponent))


def pair_sum_exact_all(chain: IonChain, n: int) -> np.ndarray:
    """S_n(i) for every ion in one mirrored pass, memoized on the chain."""
    _check_exponent(n)
    if chain.n_ions < 2:
        raise ValidationError("n_ions", "pair sums need N >= 2")
    sums = chain._pair_sums.get(n)
    if sums is None:
        with np.errstate(over="ignore"):
            sums = _row_sums(chain.positions, lambda d: _inverse_power(d, n),
                             odd=False).astype(float)
        if not np.all(np.isfinite(sums)):
            raise DomainError(f"S_{n} overflows a float on this chain")
        chain._pair_sums[n] = sums
    return sums.copy()


def _inverse_power(d: np.ndarray, n: int) -> np.ndarray:
    """|d|^-n for integer n >= 1, computed in d's own buffer and returned.

    One reciprocal, then left-to-right square-and-multiply over the bits
    of n; only an n that is not a power of two needs a second buffer, for
    the base.  +-inf gives 0.
    """
    np.abs(d, out=d)
    np.reciprocal(d, out=d)
    bits = bin(n)[3:]
    base = d.copy() if "1" in bits else None
    for bit in bits:
        np.multiply(d, d, out=d)
        if bit == "1":
            np.multiply(d, base, out=d)
    return d


def pair_sum_approx(s_local: float, n: int) -> float:
    """Zeta shortcut 2 zeta(n)/s^n for a locally uniform chain."""
    _check_exponent(n)
    if not s_local > 0:
        raise ValidationError("s_local", f"spacing must be positive, got {s_local!r}")
    try:
        return 2.0 * zeta(n) / s_local ** float(n)
    except (OverflowError, ZeroDivisionError):
        raise DomainError(f"s^{n} at s = {s_local!r} leaves the float range") from None


@dataclass(frozen=True)
class ContinuumSites:
    """Ion sites predicted by a continuum model, with the model spacing there.

    Sites come from inverting the cumulative count n(z) = (z - z^3/3L^2)/s0
    at the centered indices m = i - (N+1)/2; the spacing at each site is the
    profile value s0/(1 - z^2/L^2).  All in d0 units.
    """

    sites: np.ndarray
    spacings: np.ndarray


def continuum_sites(n_ions: int, model: ContinuumModel) -> ContinuumSites:
    """Predict all N ion sites from a continuum model.

    For DubinFluid the count inversion covers every ion (the density
    integrates to exactly N).  The NearestNeighbor normalization
    integrates to N/3 (4L/(3 s0) with L^3 = pi^2 N/2), so its cubic has no
    solution for the outer ions and it is rejected here rather than
    silently placing only the inner third of the chain.
    """
    L = chain_length(n_ions, model)
    s0 = min_spacing(n_ions, model)
    z = invert_cubic_count(np.arange(n_ions) - (n_ions - 1) / 2.0, L, s0)
    s = s0 / (1.0 - (z / L) ** 2)
    return ContinuumSites(sites=z, spacings=s)


def chain_total_exact(sites: ContinuumSites, n: int) -> float:
    """T_n = sum_i s_i^-n over predicted ion sites, in d0 units.

    s_i is the model spacing at each site: the form whose integral
    approximation is chain_total_asymptotic.
    """
    _check_exponent(n)
    if not isinstance(sites, ContinuumSites):
        raise ValidationError(
            "sites", f"expected ContinuumSites, got {type(sites).__name__}")
    return float(np.sum(sites.spacings ** -float(n)))


def chain_total_asymptotic(n_ions: int, n: int, model: ContinuumModel) -> float:
    """T_n from the continuum integral (L/s0^(n+1)) sqrt(4 pi/(4n+7)).

    L and s0 are the model's half-length and central spacing at N ions.
    """
    length, s0 = chain_length(n_ions, model), min_spacing(n_ions, model)
    _check_exponent(n)
    return (length / s0 ** (n + 1.0)) * float(np.sqrt(4.0 * np.pi / (4.0 * n + 7.0)))


def _check_exponent(n: int) -> None:
    if not isinstance(n, int) or n < 2:
        raise DomainError(f"lattice sums need integer n >= 2, got {n!r}")
