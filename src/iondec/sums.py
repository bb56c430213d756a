"""Inverse-power lattice sums over the ion chain.

S_n(i) = sum_{j != i} |u_i - u_j|^-n has the useful shortcut
2 zeta(n)/s^n in terms of the local spacing s, and the chain total
T_n = sum_i s^-n(z_i) has an integral asymptotic (L/s0^(n+1)) *
sqrt(4 pi/(4n+7)).  Everything here stays in dimensionless d0 units;
dimensional prefactors belong to the decoherence module (s0^-16 in
meters would underflow/overflow long before physics entered).

pair_sum_exact_all runs on the chain module's mirrored pairwise kernel:
|u_i - u_j|^-n is symmetric, so each pair's power is evaluated once
rather than twice, bit-identically (|d| is exact under negation, and
every row is still summed over its full length in the same order).
An IonChain is immutable, so the sums are memoized on the chain per
exponent; callers get a copy and may modify it freely.
"""
from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

import numpy as np

from .chain import IonChain, _row_sums, local_spacings
from .continuum import ContinuumModel, chain_length, min_spacing
from .errors import DomainError, ValidationError

_ZETA_JMAX = 1_000_000


class SumSource(enum.Enum):
    DISCRETE_CHAIN = "discrete_chain"
    CONTINUUM_PROFILE = "continuum_profile"


@dataclass(frozen=True)
class SumSpec:
    """Which sum to take: exponent n and the site source."""

    n: int
    source: SumSource = SumSource.DISCRETE_CHAIN

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 2:
            raise DomainError(f"lattice sums need integer n >= 2, got {self.n!r}")


@functools.lru_cache(maxsize=None)
def zeta(n: int) -> float:
    """Riemann zeta(n) for integer n >= 2, |error| <= 1e-12.

    Direct summation of j^-n up to j = 1e6 plus the midpoint of the
    two integral tail bounds; the bracket half-width is ~1e6^-n.
    """
    if not isinstance(n, int) or n < 2:
        raise DomainError(f"zeta is summed for integer n >= 2 only, got {n!r}")
    j = np.arange(1, _ZETA_JMAX + 1, dtype=float)
    head = float(np.sum(j ** -float(n)))
    tail = 0.5 * (_ZETA_JMAX ** (1.0 - n) + (_ZETA_JMAX + 1.0) ** (1.0 - n)) / (n - 1.0)
    return head + tail


def pair_sum_exact(chain: IonChain, i: int, n: int) -> float:
    """Brute-force S_n(i) = sum_{j != i} |u_i - u_j|^-n in d0 units."""
    _check_exponent(n)
    if chain.n_ions < 2:
        raise ValidationError("n_ions", "pair sums need N >= 2")
    if not 0 <= i < chain.n_ions:
        raise IndexError(f"ion index {i} out of range for N = {chain.n_ions}")
    d = np.abs(chain.positions - chain.positions[i])
    d[i] = np.inf
    return float(np.sum(d ** -float(n)))


def pair_sum_exact_all(chain: IonChain, n: int) -> np.ndarray:
    """S_n(i) for every ion in one mirrored pass, memoized on the chain."""
    _check_exponent(n)
    if chain.n_ions < 2:
        raise ValidationError("n_ions", "pair sums need N >= 2")
    sums = chain._pair_sums.get(n)
    if sums is None:
        sums = _row_sums(chain.positions, lambda d: np.abs(d) ** -float(n),
                         odd=False).astype(float)
        chain._pair_sums[n] = sums
    return sums.copy()


def pair_sum_approx(s_local: float, n: int) -> float:
    """Zeta shortcut 2 zeta(n)/s^n for a locally uniform chain."""
    _check_exponent(n)
    if not s_local > 0:
        raise ValidationError("s_local", f"spacing must be positive, got {s_local!r}")
    return 2.0 * zeta(n) / s_local ** float(n)


@dataclass(frozen=True)
class ContinuumSites:
    """Ion sites predicted by a continuum model, with the model spacing there.

    Sites come from inverting the cumulative count n(z) = (z - z^3/3L^2)/s0
    at the centered indices m = i - (N+1)/2; the spacing at each site is the
    profile value s0/(1 - z^2/L^2).  All in d0 units.
    """

    n_ions: int
    model: ContinuumModel
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
    m = np.arange(n_ions) - (n_ions - 1) / 2.0
    arg = 3.0 * s0 * m / (2.0 * L)
    if np.any(np.abs(arg) > 1.0):
        raise DomainError(
            f"{model.value} density integrates to less than N; "
            "cannot place all ions from its cumulative count")
    z = 2.0 * L * np.sin(np.arcsin(arg) / 3.0)
    s = s0 / (1.0 - (z / L) ** 2)
    return ContinuumSites(n_ions=n_ions, model=model, sites=z, spacings=s)


def chain_total_exact(chain_or_profile, n: int) -> float:
    """T_n = sum_i s_i^-n over ion sites, in d0 units.

    For an IonChain, s_i is the discrete local spacing (edge ions use
    their single gap).  For ContinuumSites, s_i is the model spacing at
    the predicted sites — the form whose integral approximation is
    chain_total_asymptotic.
    """
    _check_exponent(n)
    if isinstance(chain_or_profile, IonChain):
        if chain_or_profile.n_ions < 2:
            raise ValidationError("n_ions", "chain totals need N >= 2")
        s = local_spacings(chain_or_profile)
    elif isinstance(chain_or_profile, ContinuumSites):
        s = chain_or_profile.spacings
    else:
        raise ValidationError(
            "chain_or_profile",
            f"expected IonChain or ContinuumSites, got {type(chain_or_profile).__name__}")
    return float(np.sum(s ** -float(n)))


def asymptotic_total(length: float, s0: float, n: int) -> float:
    """Integral asymptotic (L/s0^(n+1)) sqrt(4 pi/(4n+7)) from geometry."""
    _check_exponent(n)
    if not (length > 0 and s0 > 0):
        raise ValidationError("length", "geometry must be positive")
    return (length / s0 ** (n + 1.0)) * float(np.sqrt(4.0 * np.pi / (4.0 * n + 7.0)))


def chain_total_asymptotic(n_ions: int, n: int, model: ContinuumModel) -> float:
    """T_n from the continuum integral with the model's L and s0."""
    return asymptotic_total(chain_length(n_ions, model), min_spacing(n_ions, model), n)


def _check_exponent(n: int) -> None:
    if not isinstance(n, int) or n < 2:
        raise DomainError(f"lattice sums need integer n >= 2, got {n!r}")
