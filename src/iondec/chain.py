"""Exact discrete equilibrium of N ions in a harmonic axial well.

Positions are dimensionless, u_i = z_i/d0, and satisfy the force balance

    u_i = sum_{j<i} (u_i - u_j)^-2  -  sum_{j>i} (u_j - u_i)^-2.

The solver is a damped Newton iteration on this system.  Positions and
forces are kept in the working precision _WIDE, numpy's longdouble: the
Jacobian diagonal grows like s0^-3 (~5e4 at N = 1000), so plain
double-precision position rounding alone would floor the force residual
near 1e-11, above the 1e-12 certificate this module promises.  The
certificate is sized for x87's 64-bit significand (63 stored mantissa
bits); where longdouble is plain float64, a solve from N ~ 200 up
stalls, and the SolverError says so.

All O(N^2) pairwise work (the force, the Jacobian and the lattice sums
of ``sums``) goes through one kernel, ``_pair_rows``.  Each pairwise
entry is a function of the distance |u_i - u_j|, and the kernel alone
knows the pair geometry: it evaluates the upper triangle of each
diagonal row-block tile, mirrors it, and gives the force its sign.  The
mirrored values are the bits a direct evaluation gives: IEEE subtraction
is sign-symmetric (u_j - u_i == -(u_i - u_j) exactly), and |d| and
negation are exact.  Rows keep their full length, so row sums reduce in
the same order as before.

An ``IonChain`` is its positions, frozen and read-only; the ion count,
the residual certificate and the pair sums are pure functions of them.
The residual is evaluated on first read and cached (``solve_equilibrium``
fills the cache with the max |F| its last Newton step already measured at
those positions), and ``sums.pair_sum_exact_all`` memoizes the pair sums
per exponent on the chain itself.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .continuum import (ContinuumModel, chain_length, invert_cubic_count,
                         min_spacing)
from .errors import SolverError, ValidationError, check_integer, check_positive
from .physmodel import DEFAULT_MAX_ITER, DEFAULT_TOL, MAX_IONS  # re-exported

# working precision of positions and forces; see the module docstring
_WIDE = np.longdouble

# row-block size for O(N^2) pairwise work, keeps peak memory ~tens of MB
_BLOCK = 4_000_000
# rows per strip of a mirrored diagonal tile
_STRIP = 32


@dataclass(frozen=True, eq=False)
class IonChain:
    """N ions at ordered dimensionless positions; everything else is derived.

    ``positions`` must be a non-empty 1-D array of finite, strictly
    increasing values; the chain keeps a read-only copy in the working
    precision _WIDE.
    Finiteness is checked before the ordering, so an infinity is refused
    without the NaN its difference would produce.  Equality is identity,
    as an array has no single truth value to compare by.
    """

    positions: np.ndarray
    # exponent n -> S_n(i) for every ion, filled by sums.pair_sum_exact_all
    _pair_sums: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        pos = np.array(self.positions, dtype=_WIDE)
        if pos.ndim != 1 or pos.size == 0:
            raise ValidationError("positions", "expected a non-empty 1-D array")
        if not np.all(np.isfinite(pos)):
            raise ValidationError("positions", "must be finite")
        if not np.all(np.diff(pos) > 0):
            raise ValidationError("positions", "must be strictly increasing")
        pos.flags.writeable = False
        object.__setattr__(self, "positions", pos)

    @property
    def n_ions(self) -> int:
        """The ion count, ``positions.size``."""
        return self.positions.size

    @functools.cached_property
    def residual(self) -> float:
        """Max-norm force imbalance at the positions: the solution certificate.

        Evaluated on first read, an O(N^2) pass, and cached on the chain.
        Gaps so small that 1/d^2 leaves the extended range read inf, never
        NaN, although an ion pulled infinitely both ways gets a NaN force.
        """
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            res = float(np.max(np.abs(_force(self.positions))))
        return math.inf if math.isnan(res) else res


def _pair_rows(u: np.ndarray, entry, odd: bool, lo: int, hi: int) -> np.ndarray:
    """Rows [lo, hi) of M[i, j] = entry(|u_i - u_j|), entry(inf) on the
    diagonal, times sign(u_i - u_j) off it when ``odd`` (M[i, j] = -M[j, i]).

    ``u`` must be strictly increasing, so ``entry`` sees distances d > 0
    only.  The diagonal tile [lo, hi)^2 is evaluated in row strips, on and
    above the diagonal only, at u_j - u_i, so a strip's transpose fills the
    rows below it as is.  Columns left of the tile are evaluated directly.
    Every row keeps its full length, so row sums reduce in the same order
    as over a directly evaluated matrix.
    """
    rows = None
    for a in range(lo, hi, _STRIP):
        b = min(a + _STRIP, hi)
        # flip[k, c] = entry(u_(a+c) - u_(a+k)) = |M[a+c, a+k]|: the
        # differences are distances except in the strip's own square
        d = u[None, a:] - u[a:b, None]
        square = d[:, :b - a]
        np.abs(square, out=square)
        square[np.arange(b - a), np.arange(b - a)] = np.inf
        flip = entry(d)
        if rows is None:
            rows = np.empty((hi - lo, u.size), dtype=flip.dtype)
        rows[b - lo:, a:b] = flip[:, b - a:hi - a].T
        if odd:
            np.negative(flip, out=rows[a - lo:b - lo, a:])
            # M[i, j] >= 0 on and below the diagonal, where u_i >= u_j
            square = rows[a - lo:b - lo, a:b]
            np.abs(square, out=square, where=np.tri(b - a, dtype=bool))
        else:
            rows[a - lo:b - lo, a:] = flip
        if lo > 0:
            rows[a - lo:b - lo, :lo] = entry(u[a:b, None] - u[None, :lo])
    return rows


def _row_sums(u: np.ndarray, entry, odd: bool) -> np.ndarray:
    """sum_j M[i, j] for every row of the _pair_rows matrix, in row blocks."""
    n = u.size
    block = max(1, _BLOCK // n)
    return np.concatenate([_pair_rows(u, entry, odd, lo, min(lo + block, n)).sum(axis=1)
                           for lo in range(0, n, block)])


def _coulomb(d):
    return 1.0 / d**2


def _stiffness(d):
    return -2.0 / d.astype(float) ** 3


def _force(u: np.ndarray) -> np.ndarray:
    """F_i = u_i - sum_j sign(u_i - u_j)/(u_i - u_j)^2, in blocks."""
    return np.asarray(u, dtype=_WIDE) - _row_sums(u, _coulomb, odd=True)


def _jacobian(u: np.ndarray) -> np.ndarray:
    jac = _pair_rows(u, _stiffness, False, 0, u.size)
    # the kernel's diagonal is -2/inf = -0, which the row sum ignores
    np.fill_diagonal(jac, 1.0 - jac.sum(axis=1))
    return jac


def _initial_guess(n: int) -> np.ndarray:
    centered = np.arange(n, dtype=_WIDE) - (n - 1) / 2.0
    if n < 10:
        return 1.3 * centered
    # the fluid model's sites: with s0 = 4L/3N the inverse's argument is
    # 2m/N, so |m| <= (N-1)/2 keeps every index inside the cubic's range
    L = chain_length(n, ContinuumModel.DUBIN_FLUID)
    s0 = min_spacing(n, ContinuumModel.DUBIN_FLUID)
    return invert_cubic_count(centered.astype(float), L, s0).astype(_WIDE)


def solve_equilibrium(n_ions: int, tol: float = DEFAULT_TOL,
                      max_iter: int = DEFAULT_MAX_ITER) -> IonChain:
    """Solve the N-ion force balance to max-norm residual <= tol.

    Damped Newton with a backtracking line search that preserves the
    ion ordering.  Initialized from the continuum cubic-count inverse
    for N >= 10 and from a uniform lattice below that.
    """
    n_ions = check_integer("n_ions", n_ions, 1, MAX_IONS)
    check_positive("tol", tol)
    max_iter = check_integer("max_iter", max_iter, 1)

    u = _initial_guess(n_ions)
    f = _force(u)
    best = float(np.max(np.abs(f)))
    for _ in range(max_iter):
        res = float(np.max(np.abs(f)))
        best = min(best, res)
        if res <= tol:
            chain = IonChain(u)
            # res is max|F| at exactly these positions: fill the cache with it
            chain.__dict__["residual"] = res
            return chain
        step = np.linalg.solve(_jacobian(u), f.astype(float)).astype(_WIDE)
        lam = 1.0
        while lam >= 1e-8:
            trial = u - lam * step
            if np.all(np.diff(trial) > 0):
                f_trial = _force(trial)
                if np.max(np.abs(f_trial)) < max(res * (1.0 - 0.25 * lam), 0.5 * tol):
                    u, f = trial, f_trial
                    break
            lam *= 0.5
        else:
            message = "equilibrium line search stalled"
            nmant = np.finfo(_WIDE).nmant
            if nmant < 63:
                message += (f"; the working precision has {nmant} mantissa bits, "
                            "and the certificate is sized for x87's 63")
            raise SolverError(message, best)
    raise SolverError(f"no convergence in {max_iter} Newton iterations", best)


def local_spacings(chain: IonChain) -> np.ndarray:
    """Local spacing of every ion: the mean of its two gaps, or the single
    gap of an edge ion."""
    check_integer("n_ions", chain.n_ions, 2)
    gaps = np.diff(chain.positions.astype(float))
    out = np.empty(chain.n_ions)
    out[0], out[-1] = gaps[0], gaps[-1]
    out[1:-1] = 0.5 * (gaps[:-1] + gaps[1:])
    return out
