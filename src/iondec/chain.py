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

The force is the gradient of the energy E(u) = sum_i u_i^2/2 +
sum_{i<j} 1/(u_j - u_i), and E is 1-strongly convex on the ordered cone
u_0 < ... < u_{N-1}: each 1/(u_j - u_i) is a convex function of a linear
form there.  So the Jacobian is J = I + C, where C (off-diagonal entries
-2/|u_i - u_j|^3, each row summing to zero) is positive semidefinite
with C·1 = 0.  Hence lambda_min(J) = 1 at every ordered u, not only at
the equilibrium, and every Newton system is symmetric positive definite;
J is exactly symmetric, as the kernel mirrors each pair.  At the
equilibrium the two lowest eigenvalues are 1 and 3, the centre-of-mass
and breathing modes of a harmonic well.

All O(N^2) pairwise work (the force, the Jacobian and the lattice sums
of ``sums``) goes through one kernel, _pair_rows, which alone knows the
pair geometry, evaluates each pair once and mirrors it, and writes into
a work area its caller allocates (_work_area, sized by _area).  The dense
LU of np.linalg.solve runs on as many BLAS threads as the caller's BLAS
pool has, and its bits depend on that count; the CLI pins it to one.

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

from ._threads import _in_two, _usable_cpus
from .continuum import ContinuumModel, _length_and_spacing, invert_cubic_count
from .errors import SolverError, ValidationError, check_instance, check_integer, check_reals
from .physmodel import MAX_IONS  # re-exported

#: Every solve's certificate: max-norm force residual <= DEFAULT_TOL within
#: DEFAULT_MAX_ITER Newton iterations, read when solve_equilibrium runs.
DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 200

# working precision of positions and forces; see the module docstring
_WIDE = np.longdouble

# rows per strip of a mirrored diagonal tile
_STRIP = 32
# a strip square's lower triangle, sliced for a short strip
_LOWER = np.tri(_STRIP, dtype=bool)
# bytes of _WIDE rows up to which a pass runs in one row block (_area):
# all n rows up to n = 256 under x87
_ONE_BLOCK = 1 << 20
# ions from which a pairwise pass runs every other tile, strip and row
# sum on a worker thread when two CPUs are usable (_work_area,
# _pair_rows).  Below it the GIL handoffs around each strip's small numpy
# calls cost about what the second core saves.  Threaded over serial time
# of solve_equilibrium plus one S_8 (2-core x86-64, one BLAS thread, in
# process, median of 31 alternating pairs):
#   N       331   400   484   550   600   650   708   850   1036  1500
#   ratio   1.24  1.05  0.99  0.94  1.00  0.93  0.89  0.82  0.80  0.85
_THREAD_MIN_IONS = 700


@dataclass(frozen=True, eq=False)
class IonChain:
    """N ions at ordered dimensionless positions; everything else is derived.

    ``positions`` must pass errors.check_reals (the one array rule) and be
    strictly increasing, checked in that order, so an infinity is refused
    without the NaN its difference would produce; the chain keeps a
    read-only copy in the working precision _WIDE.  Equality is identity,
    as an array has no single truth value to compare by.
    """

    positions: np.ndarray
    # exponent n -> S_n(i) for every ion, filled by sums.pair_sum_exact_all
    _pair_sums: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        pos = check_reals("positions", self.positions, dtype=_WIDE)
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
            res = float(np.max(np.abs(_force(self.positions, _area(self.n_ions)))))
        return math.inf if math.isnan(res) else res


def _work_area(n: int, rows: int) -> tuple:
    """A work area of ``rows`` pairwise rows of n ions, in one _WIDE
    allocation: (rows, strips).

    ``rows`` is a (rows, n) _WIDE array: the row blocks of _row_sums, or
    the float64 Jacobian read from its words.  ``strips`` holds the strip
    pairs of _pair_rows, each two _WIDE buffers of _STRIP rows of n: one
    pair, or, from _THREAD_MIN_IONS ions up with two CPUs usable, a second
    pair for the lane that runs on a worker thread.

    The kernels write every row block and strip into an area their caller
    allocates, and allocate nothing of that size themselves: fresh arrays
    would grow the heap past glibc's trim threshold, which stays at 128 KiB
    once the mmap threshold is fixed (as the benchmark fixes it), and be
    page-faulted back in at every call.  ``adiabatic``'s integrator keeps
    the same rule for the same reason.
    """
    pairs = 2 if n >= _THREAD_MIN_IONS and _usable_cpus() > 1 else 1
    area = np.empty((rows + 2 * pairs * _STRIP) * n, dtype=_WIDE)
    return area[:rows * n].reshape(rows, n), area[rows * n:].reshape(pairs, 2, _STRIP * n)


def _area(n: int) -> tuple:
    """The work area of every pairwise pass over n ions: all n _WIDE rows
    while they fit in _ONE_BLOCK bytes, so the force runs in one block,
    else as many as hold the n x n float64 Jacobian, ⌈8n/itemsize⌉ (⌈n/2⌉
    under x87), in whose blocks the force runs.  A solve hands one area to
    every force and Jacobian call; the force never runs while the Jacobian
    in its words is in use.  It is no larger because np.linalg.solve makes
    its own 8 n^2-byte LU copy of the Jacobian on top of it.  Above
    MAX_IONS ions (a chain no solve gives) it has fewer rows, so that with
    its strips it takes no more bytes than a MAX_IONS solve's area, though
    never fewer than one row."""
    itemsize = np.dtype(_WIDE).itemsize
    if itemsize * n * n <= _ONE_BLOCK:
        return _work_area(n, n)
    m, strips = min(n, MAX_IONS), 4 * _STRIP  # the rows of two strip pairs
    # at n <= MAX_IONS, m = n and this is the Jacobian's ⌈8n/itemsize⌉ rows
    rows = (-(-8 * m // itemsize) + strips) * m // n - strips
    return _work_area(n, max(1, rows))


@functools.cache
def _sign_byte(dtype: np.dtype) -> int | None:
    """The byte of a ``dtype`` value whose top bit is its sign, so that
    flipping that bit negates the value, or None where no one bit does (a
    double-double longdouble has two signs)."""
    values = np.array([1, 0, np.inf], dtype=dtype) / 3
    negated = np.negative(values)
    for byte in range(dtype.itemsize):
        flipped = values.copy()
        flipped.view(np.uint8).reshape(len(values), -1)[:, byte] ^= 0x80
        if (np.array_equal(flipped, negated)
                and np.array_equal(np.signbit(flipped), np.signbit(negated))):
            return byte
    return None


def _negate(a: np.ndarray) -> None:
    """np.negative(a, out=a) for a contiguous ``a``, by flipping the sign
    bit in a byte view where the format has one.  IEEE negation flips that
    bit alone, so the bits are np.negative's, at a quarter to a fifth of
    the cost of numpy's x87 negation loop (x86-64)."""
    byte = _sign_byte(a.dtype)
    if byte is None:
        np.negative(a, out=a)
        return
    signs = a.reshape(-1).view(np.uint8).reshape(a.size, -1)[:, byte]
    np.bitwise_xor(signs, 0x80, out=signs)


def _pair_rows(u: np.ndarray, entry, odd: bool, lo: int, rows: np.ndarray,
               strips: np.ndarray, above: np.ndarray | None = None,
               sums: np.ndarray | None = None) -> np.ndarray:
    """Fill ``rows`` with rows [lo, lo + len(rows)) of M[i, j] =
    entry(|u_i - u_j|), entry(inf) on the diagonal, times sign(u_i - u_j)
    off it when ``odd`` (M[i, j] = -M[j, i]), and return it.  ``rows`` has
    u.size columns and the dtype of entry's result; ``strips`` are the
    strip pairs of a _work_area of u.size ions.

    ``u`` must be strictly increasing, so ``entry`` sees distances d > 0
    only.  The block's diagonal tile is evaluated in row strips, on and
    above the diagonal only, at u_j - u_i, so a strip's transpose fills
    the rows below it as is; a mirrored value has the bits of a direct
    evaluation, as IEEE subtraction is sign-symmetric and |d| and negation
    are exact.  Columns left of the tile are evaluated directly, except
    those of ``above``: the block of rows just above this one, [lo -
    len(above), lo), as an earlier call left them, in memory it may share
    with ``rows``.  Before any strip writes, those columns are filled from
    above's columns [lo, lo + len(rows)), transposed (and negated when
    ``odd``) in tiles of _STRIP rows, each copied through a strip buffer
    so that no ufunc runs on a strided 2-D view; so a pass in two blocks
    evaluates each pair once, as one block does.  Every row keeps its full
    length, so row sums reduce in the same order as over a directly
    evaluated matrix.  With ``sums``, each row's sum goes there once every
    entry is in place.

    Each strip's differences d are formed in one of its strip pair's two
    buffers, and ``entry(d, spare)`` may work in d and return it: the
    kernel copies what it needs before the next strip.  ``spare``, the
    other buffer, flat and at least d.size values of u's dtype, is the
    entry's to use.  Both operands of a strip's differences are spelled
    out in full and the odd rows negated in place: a broadcast operand, or
    rows written through a strided view, would make numpy allocate an
    iterator buffer.

    In the schedule of ``_threads``, lane k takes every other mirrored
    tile, every other strip and half the row sums from the k-th, in strip
    pair k % len(strips); with a second strip pair and more than one strip
    in the block, lane 1 runs on a worker thread.  A tile writes only its
    own columns, a strip only its own rows from its diagonal on, the rows
    below it in its own columns and its own rows left of the tile, and a
    row sum only its row's slot, so no two of them write one entry;
    entry(d, spare) must be safe to call from two threads at once.
    """
    n, hi = u.size, lo + len(rows)
    edge = lo if above is None else lo - len(above)

    def mirror(k):
        """Columns [edge, lo): every other tile of ``above`` from the k-th."""
        buffer = strips[k % len(strips)][0]
        for r in range(k * _STRIP, lo - edge, 2 * _STRIP):
            t = min(r + _STRIP, lo - edge)
            tile = buffer[:(t - r) * (hi - lo)].reshape(t - r, hi - lo)
            tile[...] = above[r:t, lo:hi]
            if odd:
                _negate(tile)
            rows[:, edge + r:edge + t] = tile.T

    def run(k):
        """Every other strip from the k-th, in strip pair k % len(strips)."""
        pair = strips[k % len(strips)]

        def differences(first, second, shape):
            """first - second, both broadcast to ``shape``, in pair[0]."""
            diff, other = (strip[:math.prod(shape)].reshape(shape) for strip in pair)
            diff[...] = first
            other[...] = second
            return np.subtract(diff, other, out=diff)

        for a in range(lo + k * _STRIP, hi, 2 * _STRIP):
            b = min(a + _STRIP, hi)
            # flip[r, c] = entry(u_(a+c) - u_(a+r)) = |M[a+c, a+r]|: the
            # differences are distances except in the strip's own square
            d = differences(u[None, a:], u[a:b, None], (b - a, n - a))
            square = d[:, :b - a]
            np.abs(square, out=square)
            d.reshape(-1)[:(b - a) * (n - a):n - a + 1] = np.inf  # its diagonal
            flip = entry(d, pair[1])
            rows[b - lo:, a:b] = flip[:, b - a:hi - a].T
            if odd:
                _negate(flip)
                rows[a - lo:b - lo, a:] = flip
                # M[i, j] >= 0 on and below the diagonal, where u_i >= u_j
                square = rows[a - lo:b - lo, a:b]
                np.abs(square, out=square, where=_LOWER[:b - a, :b - a])
            else:
                rows[a - lo:b - lo, a:] = flip
            if edge > 0:
                left = differences(u[a:b, None], u[None, :edge], (b - a, edge))
                rows[a - lo:b - lo, :edge] = entry(left, pair[1])

    def add(k):
        """Row sums of the k-th half of the rows."""
        r0, r1 = len(rows) * k // 2, len(rows) * (k + 1) // 2
        rows[r0:r1].sum(axis=1, out=sums[r0:r1])

    steps = [mirror] if edge < lo else []
    steps.append(run)
    if sums is not None:
        steps.append(add)
    _in_two(*steps, threaded=len(strips) > 1 and hi - lo > _STRIP)
    return rows


def _row_sums(u: np.ndarray, entry, odd: bool, work: tuple) -> np.ndarray:
    """sum_j M[i, j] for every row of the _pair_rows matrix, in blocks of
    as many rows as ``work`` (a _work_area) holds; each block after the
    first mirrors the columns of the block before from the rows that block
    left in the area."""
    n, (area, strips) = u.size, work
    sums = np.empty(n, dtype=area.dtype)
    for lo in range(0, n, len(area)):
        rows = area[:n - lo]
        _pair_rows(u, entry, odd, lo, rows, strips, above=area if lo else None,
                   sums=sums[lo:lo + len(rows)])
    return sums


def _coulomb(d, spare):
    """1/d^2, in d's own buffer."""
    np.square(d, out=d)
    return np.divide(1.0, d, out=d)


def _stiffness(d, spare):
    """-2/d^3 in float64, in the bytes of ``spare``."""
    x = spare.view(float)[:d.size].reshape(d.shape)
    x[...] = d
    np.power(x, 3, out=x)
    return np.divide(-2.0, x, out=x)


def _force(u: np.ndarray, work: tuple) -> np.ndarray:
    """F_i = u_i - sum_j sign(u_i - u_j)/(u_i - u_j)^2, in row blocks in
    ``work`` (a _work_area)."""
    return np.asarray(u, dtype=_WIDE) - _row_sums(u, _coulomb, odd=True, work=work)


def _jacobian(u: np.ndarray, work: tuple) -> np.ndarray:
    """dF_i/du_j as float64: the words of ``work``'s rows (at least 8 N^2
    bytes) read as an (N, N) array, which the next call on them overwrites."""
    n, (area, strips) = u.size, work
    jac = area.reshape(-1).view(float)[:n * n].reshape(n, n)
    sums = np.empty(n)
    _pair_rows(u, _stiffness, False, 0, jac, strips, sums=sums)
    # the kernel's diagonal is -2/inf = -0, which the row sum ignores
    np.fill_diagonal(jac, 1.0 - sums)
    return jac


def _initial_guess(n: int) -> np.ndarray:
    centered = np.arange(n, dtype=_WIDE) - (n - 1) / 2.0
    if n < 10:
        return 1.3 * centered
    # the fluid model's sites: with s0 = 4L/3N the inverse's argument is
    # 2m/N, so |m| <= (N-1)/2 keeps every index inside the cubic's range
    L, s0 = _length_and_spacing(n, ContinuumModel.DUBIN_FLUID)
    return invert_cubic_count(centered.astype(float), L, s0).astype(_WIDE)


def solve_equilibrium(n_ions: int) -> IonChain:
    """Solve the N-ion force balance to max-norm residual <= DEFAULT_TOL
    within DEFAULT_MAX_ITER Newton iterations.

    Damped Newton with a backtracking line search that preserves the
    ion ordering.  Initialized from the continuum cubic-count inverse
    for N >= 10 and from a uniform lattice below that.
    """
    n_ions = check_integer("n_ions", n_ions, 1, MAX_IONS)

    u = _initial_guess(n_ions)
    work = _area(n_ions)
    f = _force(u, work)
    best = math.inf
    for _ in range(DEFAULT_MAX_ITER):
        res = float(np.max(np.abs(f)))
        best = min(best, res)
        if res <= DEFAULT_TOL:
            chain = IonChain(u)
            # res is max|F| at exactly these positions: fill the cache with it
            chain.__dict__["residual"] = res
            return chain
        # J is exactly symmetric, so its transpose is the same matrix, and
        # numpy copies that column-ordered view for LAPACK without the
        # transposing gather a row-ordered J takes: the same bits, cheaper
        step = np.linalg.solve(_jacobian(u, work).T, f.astype(float)).astype(_WIDE)
        lam = 1.0
        while lam >= 1e-8:
            trial = u - lam * step
            if np.all(np.diff(trial) > 0):
                f_trial = _force(trial, work)
                if np.max(np.abs(f_trial)) < max(res * (1.0 - 0.25 * lam), 0.5 * DEFAULT_TOL):
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
    raise SolverError(f"no convergence in {DEFAULT_MAX_ITER} Newton iterations", best)


def local_spacings(chain: IonChain) -> np.ndarray:
    """Local spacing of every ion: the mean of its two gaps, or the single
    gap of an edge ion."""
    check_integer("n_ions", check_instance("chain", chain, IonChain).n_ions, 2)
    gaps = np.diff(chain.positions.astype(float))
    out = np.empty(chain.n_ions)
    out[0], out[-1] = gaps[0], gaps[-1]
    out[1:-1] = 0.5 * (gaps[:-1] + gaps[1:])
    return out
