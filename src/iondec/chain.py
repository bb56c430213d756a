"""Exact discrete equilibrium of N ions in a harmonic axial well.

Positions are dimensionless, u_i = z_i/d0, and satisfy the force balance

    u_i = sum_{j<i} (u_i - u_j)^-2  -  sum_{j>i} (u_j - u_i)^-2.

The solver is a damped Newton iteration on this system.  Positions are
kept in 80-bit extended precision: the Jacobian diagonal grows like
s0^-3 (~5e4 at N = 1000), so plain double-precision position rounding
alone would floor the force residual near 1e-11, above the 1e-12
certificate this module promises.

All O(N^2) pairwise work (the force, the Jacobian and the lattice sums
of ``sums``) goes through one kernel, ``_pair_rows``.  Each pairwise
matrix is symmetric or antisymmetric, so the kernel evaluates the upper
triangle of each diagonal row-block tile and mirrors it.  The mirrored
values are the bits a direct evaluation gives: IEEE subtraction is
sign-symmetric (u_j - u_i == -(u_i - u_j) exactly), and |d|, d^2 and
sign(d) are exact under negation.  Rows keep their full length, so row
sums reduce in the same order as before.

``IonChain`` is frozen and its positions are read-only, so its pair sums
are a pure function of the chain; ``sums.pair_sum_exact_all`` memoizes
them per exponent on the chain itself.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .continuum import ContinuumModel, chain_length, min_spacing
from .errors import SolverError, ValidationError

MAX_IONS = 10_000
DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 200

# row-block size for O(N^2) pairwise work, keeps peak memory ~tens of MB
_BLOCK = 4_000_000
# rows per strip of a mirrored diagonal tile
_STRIP = 32


@dataclass(frozen=True)
class IonChain:
    """Solved (or synthetic) chain: ordered dimensionless positions.

    ``residual`` is the max-norm force imbalance at the stored positions —
    the solution certificate.  Synthetic chains (e.g. uniform test
    lattices) carry whatever residual their positions actually have.
    """

    n_ions: int
    positions: np.ndarray = field(repr=False)
    residual: float
    # exponent n -> S_n(i) for every ion, filled by sums.pair_sum_exact_all
    _pair_sums: dict = field(default_factory=dict, init=False, repr=False,
                             compare=False)

    def __post_init__(self):
        pos = np.array(self.positions, dtype=np.longdouble)  # private copy
        if pos.ndim != 1 or pos.size != self.n_ions:
            raise ValidationError("positions", f"expected {self.n_ions} coordinates")
        if self.n_ions >= 2 and not np.all(np.diff(pos) > 0):
            raise ValidationError("positions", "must be strictly increasing")
        pos.flags.writeable = False
        object.__setattr__(self, "positions", pos)

    @classmethod
    def from_positions(cls, positions) -> "IonChain":
        """Wrap explicit positions, computing their residual certificate."""
        pos = np.asarray(positions, dtype=np.longdouble)
        if pos.ndim != 1 or pos.size == 0:
            raise ValidationError("positions", "expected a non-empty 1-D array")
        if pos.size >= 2 and not np.all(np.diff(pos) > 0):
            # checked again in __post_init__, but the residual evaluation
            # below would divide by zero on coincident ions
            raise ValidationError("positions", "must be strictly increasing")
        res = 0.0 if pos.size == 1 else float(np.max(np.abs(_force(pos))))
        return cls(n_ions=pos.size, positions=pos, residual=res)


def _pair_rows(u: np.ndarray, entry, odd: bool, lo: int, hi: int) -> np.ndarray:
    """Rows [lo, hi) of M[i, j] = entry(u_i - u_j), entry(inf) on the diagonal.

    The diagonal tile [lo, hi)^2 is evaluated in row strips, on and above
    the diagonal only.  Each strip is evaluated at the negated differences,
    so its transpose fills the rows below it as is, and the strip's own
    rows are those values, negated when ``odd`` (M[i, j] = -M[j, i]).
    Columns left of the tile are evaluated directly.  Every row keeps its
    full length, so row sums reduce in the same order as over a directly
    evaluated matrix.
    """
    rows = None
    for a in range(lo, hi, _STRIP):
        b = min(a + _STRIP, hi)
        # flipped strip: flip[k, c] = entry(u_(a+c) - u_(a+k)) = M[a+c, a+k],
        # so the rows below the strip are its plain transpose
        d = u[None, a:] - u[a:b, None]
        d[np.arange(b - a), np.arange(b - a)] = -np.inf
        flip = entry(d)
        if rows is None:
            rows = np.empty((hi - lo, u.size), dtype=flip.dtype)
        rows[b - lo:, a:b] = flip[:, b - a:hi - a].T
        if odd:
            np.negative(flip, out=rows[a - lo:b - lo, a:])
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
    return np.sign(d) / d**2


def _stiffness(d):
    return -2.0 / np.abs(d.astype(float)) ** 3


def _force(u: np.ndarray) -> np.ndarray:
    """F_i = u_i - sum_j sign(u_i - u_j)/(u_i - u_j)^2, in blocks."""
    return np.asarray(u, dtype=np.longdouble) - _row_sums(u, _coulomb, odd=True)


def _jacobian(u: np.ndarray) -> np.ndarray:
    jac = _pair_rows(u, _stiffness, False, 0, u.size)
    np.fill_diagonal(jac, 0.0)
    np.fill_diagonal(jac, 1.0 - jac.sum(axis=1))
    return jac


def _initial_guess(n: int) -> np.ndarray:
    centered = np.arange(n, dtype=np.longdouble) - (n - 1) / 2.0
    if n < 10:
        return 1.3 * centered
    # invert the cubic cumulative count of the fluid model: with
    # n(z) = (z - z^3/3L^2)/s0 and s0 = 4L/3N this reduces to
    # z_m = 2 L sin(arcsin(2m/N)/3)
    L = chain_length(n, ContinuumModel.DUBIN_FLUID)
    s0 = min_spacing(n, ContinuumModel.DUBIN_FLUID)
    arg = np.clip(3.0 * s0 * centered.astype(float) / (2.0 * L), -1.0, 1.0)
    return (2.0 * L * np.sin(np.arcsin(arg) / 3.0)).astype(np.longdouble)


def solve_equilibrium(n_ions: int, tol: float = DEFAULT_TOL,
                      max_iter: int = DEFAULT_MAX_ITER) -> IonChain:
    """Solve the N-ion force balance to max-norm residual <= tol.

    Damped Newton with a backtracking line search that preserves the
    ion ordering.  Initialized from the continuum cubic-count inverse
    for N >= 10 and from a uniform lattice below that.
    """
    if not isinstance(n_ions, (int, np.integer)) or not 1 <= n_ions <= MAX_IONS:
        raise ValidationError("n_ions", f"need an integer in [1, {MAX_IONS}], got {n_ions!r}")
    if not isinstance(tol, (int, float, np.integer, np.floating)) or not 0 < tol < math.inf:
        raise ValidationError("tol", f"need a finite tolerance > 0, got {tol!r}")
    if not isinstance(max_iter, (int, np.integer)) or max_iter < 1:
        raise ValidationError("max_iter", f"need an integer >= 1, got {max_iter!r}")
    if n_ions == 1:
        return IonChain(n_ions=1, positions=np.zeros(1, dtype=np.longdouble), residual=0.0)

    u = _initial_guess(int(n_ions))
    f = _force(u)
    best = float(np.max(np.abs(f)))
    for _ in range(max_iter):
        res = float(np.max(np.abs(f)))
        best = min(best, res)
        if res <= tol:
            return IonChain(n_ions=int(n_ions), positions=u, residual=res)
        step = np.linalg.solve(_jacobian(u), f.astype(float)).astype(np.longdouble)
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
            raise SolverError("equilibrium line search stalled", best)
    raise SolverError(f"no convergence in {max_iter} Newton iterations", best)


def local_spacing(chain: IonChain, i: int) -> float:
    """Local spacing of ion i: mean of its two gaps, or the single edge gap."""
    n = chain.n_ions
    if not 0 <= i < n:
        raise IndexError(f"ion index {i} out of range for N = {n}")
    if n < 2:
        raise ValidationError("n_ions", "local spacing needs N >= 2")
    u = chain.positions
    if i == 0:
        return float(u[1] - u[0])
    if i == n - 1:
        return float(u[n - 1] - u[n - 2])
    return float(0.5 * (u[i + 1] - u[i - 1]))


def local_spacings(chain: IonChain) -> np.ndarray:
    """Vector of local_spacing over all ions."""
    if chain.n_ions < 2:
        raise ValidationError("n_ions", "local spacing needs N >= 2")
    gaps = np.diff(chain.positions.astype(float))
    out = np.empty(chain.n_ions)
    out[0], out[-1] = gaps[0], gaps[-1]
    out[1:-1] = 0.5 * (gaps[:-1] + gaps[1:])
    return out
