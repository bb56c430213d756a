import os
import platform
import subprocess
import sys
import textwrap
import threading
import time
import tracemalloc
import types
import warnings

import numpy as np
import pytest

from iondec import _threads as _threads_module
from iondec import chain as chain_module
from iondec.chain import (IonChain, _area, _force, _initial_guess, _jacobian, _row_sums,
                          _work_area, local_spacings, solve_equilibrium)
from iondec.continuum import ContinuumModel, min_spacing
from iondec.errors import DomainError, SolverError, ValidationError
from iondec.sums import _inverse_power, pair_sum_exact_all

U2 = 0.25 ** (1.0 / 3.0)       # two-ion half-separation, u^3 = 1/4
U3 = 1.25 ** (1.0 / 3.0)       # three-ion outer position, u^3 = 1 + 1/4


def test_single_ion():
    chain = solve_equilibrium(1)
    assert chain.n_ions == 1
    assert float(chain.positions[0]) == pytest.approx(0.0, abs=1e-15)
    assert IonChain(chain.positions).residual == 0.0


def test_two_ions_analytic():
    chain = solve_equilibrium(2)
    assert float(chain.positions[0]) == pytest.approx(-U2, rel=1e-10)
    assert float(chain.positions[1]) == pytest.approx(U2, rel=1e-10)


def test_three_ions_analytic():
    chain = solve_equilibrium(3)
    u = chain.positions.astype(float)
    assert u[0] == pytest.approx(-U3, rel=1e-10)
    assert abs(u[1]) < 1e-14
    assert u[2] == pytest.approx(U3, rel=1e-10)


@pytest.mark.parametrize("n", [2, 5, 11, 100, 101])
def test_mirror_symmetry(n, chains):
    u = chains(n).positions.astype(float)
    assert np.max(np.abs(u + u[::-1])) < 1e-10


@pytest.mark.parametrize("n", [2, 7, 50, 500])
def test_residual_below_tolerance(n, chains):
    chain = chains(n)
    assert chain.residual <= 1e-12
    assert IonChain(chain.positions).residual == chain.residual


def test_positions_strictly_increasing(chains):
    u = chains(200).positions
    assert np.all(np.diff(u) > 0)


def test_local_spacing_small_chains(chains):
    assert local_spacings(chains(2))[0] == pytest.approx(2 * U2, rel=1e-10)
    assert local_spacings(chains(2))[1] == pytest.approx(2 * U2, rel=1e-10)
    assert local_spacings(chains(3))[1] == pytest.approx(U3, rel=1e-10)


def test_local_spacing_uniform_chain():
    h = 0.37
    u = h * (np.arange(9) - 4.0)
    chain = IonChain(u)
    spacings = local_spacings(chain)
    for i in range(1, 8):
        assert spacings[i] == pytest.approx(h, rel=1e-14)
    assert spacings[0] == pytest.approx(h, rel=1e-14)
    assert np.allclose(spacings, h)


def test_residual_of_exact_two_ion_positions():
    chain = IonChain(np.array([-U2, U2]))
    assert chain.residual <= 1e-12


def test_residual_detects_perturbation():
    u = np.array([-U3, 0.0, U3])
    u[1] += 0.1
    chain = IonChain(u)
    assert chain.residual > 0.01


def test_energy_minimum_certificate(chains):
    """Nudging any single ion by +-1e-3 must raise the potential."""

    def energy(u):
        # (1/2) sum u^2 + sum_{i<j} 1/(u_j - u_i), in d0 units
        u = np.asarray(u, dtype=np.longdouble)
        d = u[None, :] - u[:, None]
        return float(0.5 * np.sum(u**2) + np.sum(1.0 / d[np.triu_indices(u.size, k=1)]))

    chain = chains(5)
    u = chain.positions.astype(float)
    base = energy(u)
    for i in range(5):
        for sign in (+1.0, -1.0):
            bumped = u.copy()
            bumped[i] += sign * 1e-3
            assert energy(bumped) > base


@pytest.mark.parametrize("n", [4, 5, 8, 13, 100])
def test_minimum_gap_at_center(n, chains):
    gaps = np.diff(chains(n).positions.astype(float))
    center = (n - 1) // 2
    assert np.argmin(gaps) in {center, n - 2 - center}
    assert gaps.min() == pytest.approx(gaps[center], rel=1e-12)


def test_center_gap_tracks_fluid_spacing(chains):
    """Cross-check against the continuum central spacing at N = 100."""
    chain = chains(100)
    gap = float(np.diff(chain.positions.astype(float))[49])
    s0 = min_spacing(100, ContinuumModel.DUBIN_FLUID)
    assert gap == pytest.approx(s0, rel=0.10)


def test_solver_reports_best_residual(monkeypatch):
    monkeypatch.setattr(chain_module, "DEFAULT_MAX_ITER", 2)
    with pytest.raises(SolverError, match="no convergence in 2 Newton") as err:
        solve_equilibrium(60)
    assert err.value.residual is not None
    assert err.value.residual > 0


def test_double_working_precision_stalls_and_says_so(monkeypatch):
    """Where longdouble is plain float64 (Windows, macOS arm64), small chains
    still certify, and a stalled solve names the precision it worked in."""
    monkeypatch.setattr(chain_module, "_WIDE", np.float64)
    small = solve_equilibrium(50)
    assert small.positions.dtype == np.float64
    assert small.residual <= 1e-12
    with pytest.raises(SolverError, match="has 52 mantissa bits") as err:
        solve_equilibrium(300)
    assert "line search stalled" in str(err.value)
    assert 1e-12 < err.value.residual < 1e-10


@pytest.mark.parametrize("bad", [0, -3, 10_001, chain_module.MAX_IONS + 1])
def test_solver_input_validation(bad):
    with pytest.raises(ValidationError):
        solve_equilibrium(bad)


def _fresh_python(code, **env):
    """The stdout of ``python -c code`` in a fresh interpreter that imports
    this checkout's iondec, with ``env`` added to the environment."""
    src = os.path.dirname(os.path.dirname(chain_module.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path, **env), check=True).stdout


def test_solve_at_max_ions_certifies():
    """The largest count the solver takes certifies, here and in a fresh
    python at two BLAS threads, whose LU rounds otherwise: 6.1e-13 and
    5.9e-13 on x86-64, where N ~ 3750 and up stall above 1e-12."""
    n = chain_module.MAX_IONS
    assert solve_equilibrium(n).residual <= chain_module.DEFAULT_TOL
    residual = _fresh_python(
        f"from iondec.chain import solve_equilibrium; print(solve_equilibrium({n}).residual)",
        **dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "2"))
    assert float(residual) <= chain_module.DEFAULT_TOL


def test_from_positions_requires_sorted():
    with pytest.raises(ValidationError):
        IonChain(np.array([0.5, -0.5]))
    with pytest.raises(ValidationError):
        IonChain(np.array([0.0, 0.0]))


@pytest.mark.parametrize("positions", [[0.0, 1.0, np.inf], [-np.inf, 0.0, 1.0],
                                       [0.0, np.nan, 1.0]])
def test_non_finite_positions_refused(positions):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="finite"):
            IonChain(positions)


def test_constructor_refuses_empty_or_non_vector_positions():
    for positions in ([], [[0.0, 1.0]], [[0.0, 1.0], [2.0]]):
        with pytest.raises(ValidationError):
            IonChain(positions)


@pytest.mark.parametrize("positions", [[0.0, 1.0 + 2.0j], ["0", "1"], [False, True],
                                       np.array([0.0, 1.0], dtype=object)],
                         ids=["complex", "string", "bool", "object"])
def test_constructor_refuses_non_real_positions(positions):
    with pytest.raises(ValidationError, match="positions: must be real numbers"):
        IonChain(positions)


@pytest.mark.parametrize("positions", [[1, 2**60 + 1, 2**61], [0, 2**60 + 1, 2.5 * 2**60],
                                       np.array([1, 2, 5], dtype=np.uint8),
                                       np.array([0.1, 0.7], dtype=np.float32)],
                         ids=["int", "int-and-float", "uint8", "float32"])
def test_real_positions_convert_as_given(positions):
    """Integer and float positions convert to longdouble from the values as
    given: a list mixing ints and floats is not rounded to float64 first,
    so 2^60 + 1 stays exact under x87."""
    expected = np.array(positions, dtype=np.longdouble)
    assert _value_bytes(IonChain(positions).positions) == _value_bytes(expected)


def test_count_and_certificate_are_derived_not_given():
    """The positions are the chain's one input: a count or a residual
    cannot be passed, so neither can disagree with the positions."""
    with pytest.raises(TypeError):
        IonChain([0.0, 1.0, 2.0], residual=0.0)
    with pytest.raises(TypeError):
        IonChain([0.0, 1.0, 2.0], residual=float("nan"))
    with pytest.raises(TypeError):
        IonChain(n_ions=3, positions=[0.0, 1.0, 2.0])
    chain = IonChain([0.0, 1.0, 2.0])
    assert chain.n_ions == 3
    assert chain.residual == 1.25
    with pytest.raises(AttributeError):
        chain.n_ions = 4
    with pytest.raises(AttributeError):
        chain.residual = 0.0


@pytest.mark.parametrize("gap", ["1e-3000", "1e-2470"])
def test_residual_of_overflowing_forces_is_infinite_not_nan(gap, recwarn):
    """Gaps whose 1/d^2 leaves even the extended range pull the middle
    ion infinitely both ways; the certificate reads inf, never NaN."""
    d = np.longdouble(gap)
    chain = IonChain(np.array([0.0, d, 2 * d], dtype=np.longdouble))
    assert chain.residual == np.inf
    assert not recwarn.list


def _counting_force(monkeypatch):
    calls = []
    real = chain_module._force

    def counted(u, *work):
        calls.append(u.size)
        return real(u, *work)

    monkeypatch.setattr(chain_module, "_force", counted)
    return calls


def test_residual_is_evaluated_on_first_read_only(monkeypatch):
    calls = _counting_force(monkeypatch)
    big = IonChain(np.arange(chain_module.MAX_IONS, dtype=float))
    assert big.n_ions == chain_module.MAX_IONS
    assert calls == []
    chain = IonChain(np.linspace(-2.0, 2.0, 7))
    first = chain.residual
    assert chain.residual == first
    assert calls == [7]


def test_solver_hands_its_residual_to_the_chain(monkeypatch):
    """The solve's last max|F| is the certificate: reading it evaluates
    no further force, and it equals a fresh evaluation bit for bit."""
    calls = _counting_force(monkeypatch)
    chain = solve_equilibrium(40)
    solved_calls = len(calls)
    assert chain.residual <= 1e-12
    assert len(calls) == solved_calls
    assert IonChain(chain.positions).residual == chain.residual
    assert len(calls) == solved_calls + 1


def test_equality_is_identity(chains):
    chain = chains(5)
    twin = IonChain(chain.positions)
    assert chain == chain
    assert chain != twin
    assert len({chain, twin}) == 2


def test_positions_are_immutable(chains):
    chain = chains(5)
    with pytest.raises(ValueError):
        chain.positions[0] = 99.0


def test_larger_chain_contains_smaller_extent(chains):
    # outermost ion moves outward with N, central density grows
    assert chains(101).positions[-1] > chains(11).positions[-1]
    inner_11 = np.diff(chains(11).positions.astype(float)).min()
    inner_101 = np.diff(chains(101).positions.astype(float)).min()
    assert inner_101 < inner_11


# ------------------------------------------- mirrored pairwise kernel
# References: the full-matrix formulas the mirrored kernel replaced.  Every
# entry is evaluated directly and every row summed over its full length.


def _force_full(u):
    d = u[:, None] - u[None, :]
    np.fill_diagonal(d, np.inf)
    return u - (np.sign(d) / d**2).sum(axis=1)


def _jacobian_full(u):
    d = (u[:, None] - u[None, :]).astype(float)
    np.fill_diagonal(d, np.inf)
    jac = -2.0 / np.abs(d) ** 3
    np.fill_diagonal(jac, 0.0)
    np.fill_diagonal(jac, 1.0 - jac.sum(axis=1))
    return jac


def _pair_sums_full(u, n):
    d = u[:, None] - u[None, :]
    np.fill_diagonal(d, np.inf)
    d = np.abs(d)
    return _inverse_power(d, n, np.empty_like(d)).sum(axis=1).astype(float)


def _fixed_positions(n):
    """Irregular, strictly increasing, off-centre positions (no solve, so
    no dependence on the BLAS thread count)."""
    gaps = np.random.default_rng(n).uniform(0.3, 1.7, n)
    return IonChain(np.cumsum(gaps.astype(np.longdouble)) - 0.4 * n)


def _pair_sums(u, n, work):
    """pair_sum_exact_all's pass, in row blocks of the rows ``work`` holds."""
    return _row_sums(u, lambda d, spare: _inverse_power(d, n, spare), False,
                     work).astype(float)


def _assert_kernels_match_full(n, rows=None):
    """The force and the pair sums in row blocks of ``rows`` rows (the
    area of every pass when None), and the Jacobian in that area."""
    chain = _fixed_positions(n)
    u = chain.positions
    work = _area(n) if rows is None else _work_area(n, rows)
    force = _force(u, work)
    ref = _force_full(u)
    assert force.dtype == ref.dtype
    assert np.array_equal(force, ref)
    assert np.array_equal(np.signbit(force), np.signbit(ref))
    assert np.array_equal(_jacobian(u, _area(n)), _jacobian_full(u))
    for p in (2, 6, 8, 16):
        ref = _pair_sums_full(u, p)
        assert np.array_equal(pair_sum_exact_all(chain, p), ref)
        assert np.array_equal(_pair_sums(u, p, work), ref)


@pytest.mark.parametrize("n", [2, 3, 63, 64, 65, 129, 500])
def test_mirrored_kernel_is_bit_identical_to_full_matrix(n):
    _assert_kernels_match_full(n)


@pytest.mark.parametrize("rows_per_block", [1, 45])
def test_mirrored_kernel_is_bit_identical_across_row_blocks(rows_per_block):
    """Several row blocks: off-tile columns evaluated directly, and (45
    rows) a strip boundary in the middle of each block."""
    n = 129
    assert chain_module._STRIP < 45 < n
    _assert_kernels_match_full(n, rows_per_block)


@pytest.mark.parametrize("rows_per_block", [None, 1, 45])
@pytest.mark.parametrize("n", [2, 3, 33, 65, 129])
def test_pair_entries_see_only_positive_distances(n, rows_per_block, monkeypatch):
    """The kernel alone knows pair geometry: every entry it calls, for the
    force, the Jacobian and the pair sums, gets distances d > 0 (+inf on
    the diagonal), in one row block or several."""
    pair_rows, seen = chain_module._pair_rows, []

    def checked_pair_rows(u, entry, odd, lo, rows, strips, **given):
        def checked_entry(d, spare):
            seen.append(d.size)
            assert np.all(d > 0)
            return entry(d, spare)
        return pair_rows(u, checked_entry, odd, lo, rows, strips, **given)

    monkeypatch.setattr(chain_module, "_pair_rows", checked_pair_rows)
    chain = _fixed_positions(n)
    u = chain.positions
    work = _area(n) if rows_per_block is None else _work_area(n, rows_per_block)
    _force(u, work)
    _jacobian(u, _area(n))
    for p in (2, 3, 8):
        if rows_per_block is None:
            pair_sum_exact_all(chain, p)
        else:
            _pair_sums(u, p, work)
    # every pair (and each diagonal) went through an entry in each of the 5 passes
    assert sum(seen) >= 5 * n * (n + 1) // 2


def _values_handed(u, entry, odd, work):
    """The values a row-sum pass in ``work`` hands its entry."""
    seen = []

    def counted(d, spare):
        seen.append(d.size)
        return entry(d, spare)

    _row_sums(u, counted, odd, work)
    return sum(seen)


@pytest.mark.parametrize("n, rows", [(257, None), (331, None), (500, None), (129, 45)])
def test_later_blocks_mirror_the_block_above(n, rows):
    """From the second row block on, a pass fills the columns of the block
    above from the rows that block left in the area, so a force and an S_8
    in a solve's two-block area (None) hand their entries no more values
    than in one block of all N rows.  In an area of 45 rows the third block
    still evaluates the columns left of the second directly, and only
    those go beyond the one-block count."""
    u = _fixed_positions(n).positions
    work = _area(n) if rows is None else _work_area(n, rows)
    m = len(work[0])
    assert m < n or np.dtype(np.longdouble).itemsize != 16
    beyond = sum(min(m, n - lo) * max(lo - m, 0) for lo in range(0, n, m))
    for entry, odd in ((chain_module._coulomb, True),
                       (lambda d, spare: _inverse_power(d, 8, spare), False)):
        one_block = _values_handed(u, entry, odd, _work_area(n, n))
        assert _values_handed(u, entry, odd, work) <= one_block + beyond


def _homogeneity_gap(jac, u, force):
    """max|A u - (3u - 2F)| over max|A| max|u|, in extended precision."""
    u = np.asarray(u, dtype=np.longdouble)
    gap = jac.astype(np.longdouble) @ u - (3 * u - 2 * force)
    return float(np.max(np.abs(gap)) / (np.max(np.abs(jac)) * np.max(np.abs(u))))


@pytest.mark.parametrize("threaded", [False, True], ids=["serial", "two-thread"])
@pytest.mark.parametrize("scale", ["1", "1.01", "0.97"])
@pytest.mark.parametrize("n", [5, 50, 500, 1500])
def test_jacobian_and_force_keep_the_homogeneity_identity(n, scale, threaded, chains,
                                                          monkeypatch):
    """The Coulomb sum is homogeneous of degree -2 in the positions, so
    Euler's theorem gives A(u) u = 3u - 2F(u) for the Jacobian A and the
    force F at any positions: a check that needs no second kernel.  At the
    solved chain and off it, on one thread and two (measured <= 1.5e-16 on
    x86-64)."""
    u = chains(n).positions * np.longdouble(scale)
    _threads(monkeypatch, threaded)
    jac = _jacobian(u, _area(n))
    assert _homogeneity_gap(jac, u, _force(u, _area(n))) <= 1e-14


@pytest.mark.parametrize("n", [5, 500])
def test_homogeneity_identity_catches_a_wrong_jacobian(n, chains):
    """Off-diagonal entries scaled by 1.5, with the diagonal rebuilt from
    the row sums as _jacobian builds it, break the identity."""
    u = chains(n).positions * np.longdouble("1.01")
    jac = _jacobian(u, _area(n)).copy()
    np.fill_diagonal(jac, 0.0)
    jac *= 1.5
    np.fill_diagonal(jac, 1.0 - jac.sum(axis=1))
    assert _homogeneity_gap(jac, u, _force(u, _area(n))) > 1e-14


SPECTRUM_N = [2, 3, 10, 100, 1000]


def _random_ordered(n):
    """Seeded ordered positions, centred, with gaps drawn from [0.2, 2)."""
    u = np.concatenate(([0.0], np.cumsum(np.random.default_rng(n).uniform(0.2, 2.0, n - 1))))
    return (u - u.mean()).astype(np.longdouble)


@pytest.mark.parametrize("where", ["initial-guess", "random-ordered"])
@pytest.mark.parametrize("n", SPECTRUM_N)
def test_jacobian_is_symmetric_with_least_eigenvalue_one(n, where):
    """E(u) is 1-strongly convex on the ordered cone: J = I + C with C
    positive semidefinite and C·1 = 0, so lambda_min(J) = 1 at every
    ordered u, not only at the equilibrium (measured within 0.51 eps
    lambda_max on x86-64, with numpy's AVX-512 kernels on and off; the
    bound allows 4 eps lambda_max, as eigvalsh's rounding depends on the
    LAPACK build)."""
    u = _initial_guess(n) if where == "initial-guess" else _random_ordered(n)
    jac = _jacobian(u, _area(n))
    assert np.array_equal(jac, jac.T)
    eig = np.linalg.eigvalsh(jac)
    assert abs(eig[0] - 1.0) <= 4 * np.finfo(float).eps * eig[-1]


@pytest.mark.parametrize("n", SPECTRUM_N)
def test_solved_spectrum_starts_with_centre_of_mass_and_breathing_modes(n, chains):
    """At the equilibrium of a harmonic well the two lowest eigenvalues of
    J are 1 and 3, for every N (measured within 0.52 eps lambda_max on
    x86-64; the bound allows 4 eps lambda_max)."""
    eig = np.linalg.eigvalsh(_jacobian(chains(n).positions, _area(n)))
    tol = 4 * np.finfo(float).eps * eig[-1]
    assert abs(eig[0] - 1.0) <= tol and abs(eig[1] - 3.0) <= tol


@pytest.mark.parametrize("one_byte", [True, False], ids=["sign-byte", "np.negative"])
@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
def test_negate_gives_the_bits_of_np_negative(dtype, one_byte, monkeypatch):
    """Signed zeros, infinities, NaN, subnormals and ordinary values, by
    the sign byte or, where no one byte holds the sign, by np.negative."""
    if not one_byte:
        monkeypatch.setattr(chain_module, "_sign_byte", lambda dtype: None)
    tiny = np.finfo(dtype).smallest_subnormal
    values = np.concatenate([np.array([0.0, -0.0, np.inf, -np.inf, np.nan, tiny, -tiny],
                                      dtype=dtype),
                             np.array([1.0, -2.0, 1e300], dtype=dtype) / 3])
    negated = values.copy()
    chain_module._negate(negated)
    assert _value_bytes(negated) == _value_bytes(np.negative(values))


# ------------------------------------------------------- solve work area


def _value_bytes(a):
    """The bytes that hold a's values: x87's 80-bit format leaves 6 bytes
    of padding per element, which hold whatever the memory held before."""
    a = np.ascontiguousarray(a)
    width = 10 if np.finfo(a.dtype).nmant == 63 else a.itemsize
    return a.view(np.uint8).reshape(-1, a.itemsize)[:, :width].tobytes()


@pytest.mark.parametrize("rows_per_block", [None, 1, 45])
@pytest.mark.parametrize("n", [2, 3, 20, 33, 65, 129, 256, 257])
def test_reused_work_area_keeps_the_bits(n, rows_per_block):
    """A force and a Jacobian written into an area that already holds an
    earlier call's values at other positions (in a solve's area, the other
    kernel's) equal calls on fresh areas bit for bit (signed zeros
    included).  The force runs in a solve's area (None) or in an area of
    1 or 45 rows."""
    u1 = _fixed_positions(n).positions
    u2 = u1 * np.longdouble(0.9) + np.longdouble(0.1)
    work = _area(n)
    force_work = work if rows_per_block is None else _work_area(n, rows_per_block)
    for u in (u1, u2):
        force = _force(u, force_work)
        assert force.dtype == np.longdouble
        assert _value_bytes(force) == _value_bytes(_force(u, _area(n)))
        jac = _jacobian(u, work)
        assert jac.dtype == np.float64
        assert _value_bytes(jac) == _value_bytes(_jacobian(u, _area(n)))


@pytest.mark.parametrize("n, rows", [(256, 256), (257, 129)])
def test_small_solves_run_the_force_in_one_block(n, rows):
    """A solve's area holds all N longdouble rows while they fit in 1 MiB
    (N <= 256 at 16 bytes a value), so the force runs in one block: half
    the entries and strip calls of two blocks.  Above that it holds the
    rows that hold the N x N float64 Jacobian."""
    itemsize = np.dtype(np.longdouble).itemsize
    assert len(_area(n)[0]) == (rows if itemsize == 16 else n)


def _traced_peak(call):
    """Peak bytes traced while call() runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_kernels_write_into_the_area_they_are_handed():
    """With a warm area, the row blocks and the Jacobian are views into it,
    and a call allocates less than 96 KiB, below glibc's 128 KiB trim
    threshold.  Measured at N = 500: _force 41 KB (its N-vector result and
    row sums), _jacobian 34 KB, against a 2 MB Jacobian.  The force is the
    one fresh array: the solve holds it across the next Jacobian call."""
    n = 500
    u = _fixed_positions(n).positions
    work = _area(n)
    rows = chain_module._pair_rows(u, chain_module._coulomb, True, 0, *work)
    assert np.shares_memory(rows, work[0])
    assert np.shares_memory(_jacobian(u, work), work[0])
    assert not np.shares_memory(_force(u, work), work[0])
    for kernel in (_force, _jacobian):
        assert _traced_peak(lambda: kernel(u, work)) < 96 * 1024


def test_solve_stays_within_its_memory_budget():
    """A solve holds one work area of N^2 float64 words, and the force
    runs in row blocks inside it; a force block of all N longdouble rows
    (16 N^2 bytes) would take the peak to ~2.3 x 8 N^2."""
    n = 484
    solve_equilibrium(n)
    tracemalloc.start()
    try:
        solve_equilibrium(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.8 * 8 * n * n


@pytest.mark.parametrize("lone_pass", ["pair_sum", "residual"])
def test_lone_pass_takes_a_solves_area(lone_pass):
    """A fresh chain's pair sums and residual run in the area a solve over
    its ions takes (⌈N/2⌉ longdouble rows under x87), not in a fresh
    N x N longdouble block: at N = 1500 either traced 19.6-21.2 MB, 1.09-1.18
    x 8 N^2 on one CPU and on two, against 37.6-39.2 MB in that block
    (x86-64)."""
    n = 1500
    positions = _fixed_positions(n).positions
    chain = IonChain(positions)
    if lone_pass == "pair_sum":
        peak = _traced_peak(lambda: pair_sum_exact_all(chain, 8))
    else:
        peak = _traced_peak(lambda: IonChain(positions).residual)
    assert peak <= 1.2 * 8 * n * n


@pytest.mark.parametrize("cpus", [{0}, {0, 1}], ids=["one-cpu", "two-cpu"])
def test_area_above_max_ions_is_capped_at_a_max_ions_solves(cpus, monkeypatch):
    """A chain above MAX_IONS, which only a library caller can build, gets
    an area of no more bytes, strips included, than a MAX_IONS solve's,
    while up to MAX_IONS the rows still hold the N x N float64 Jacobian.
    np.empty leaves the pages untouched, so this only allocates."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    most, itemsize = chain_module.MAX_IONS, np.dtype(np.longdouble).itemsize

    def nbytes(work):
        return sum(part.nbytes for part in work)

    for n in (most + 1, 10**4):
        rows = len(_area(n)[0])
        assert 1 <= rows < -(-8 * n // itemsize)
        assert nbytes(_area(n)) <= nbytes(_area(most))
    for n in (2, 256, 257, 700, 1500, most - 1, most):
        assert len(_area(n)[0]) * n * itemsize >= 8 * n * n


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="counts page faults under glibc's allocator")
def test_solve_does_not_fault_its_kernel_temporaries_back_in():
    """With glibc's mmap threshold fixed, as the benchmark fixes it, the
    trim threshold stays at 128 KiB, so a kernel's temporaries that grow
    the heap by more are handed back at every free and faulted in again
    at the next call.  Row blocks and strip buffers in one work area per
    solve touch their pages once per solve: a solve
    at N = 484 took 13,000-15,700 minor faults with fresh arrays per call
    and takes ~2,900 with the area, most of them in the LU copy of
    np.linalg.solve; a force call at N = 1500 took ~1,400 and takes ~0
    with a warm area."""
    code = textwrap.dedent("""
        import resource
        from iondec.chain import _area, _force, _initial_guess, solve_equilibrium

        def faults():
            return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

        solve_equilibrium(484)
        before = faults()
        solve_equilibrium(484)
        solve = faults() - before
        u, work = _initial_guess(1500), _area(1500)
        _force(u, work)
        _force(u, work)
        before = faults()
        _force(u, work)
        print(solve, faults() - before)
    """)
    out = _fresh_python(code, MALLOC_MMAP_THRESHOLD_="1048576", OPENBLAS_NUM_THREADS="1")
    solve, force = map(int, out.split())
    assert solve < 6000
    assert force < 100


# -------------------------------------------------------- threaded passes


def _threads(monkeypatch, threaded):
    """Passes at every N run on two threads (threaded), or none do; either
    way two CPUs are usable, whatever the host offers."""
    monkeypatch.setattr(chain_module, "_THREAD_MIN_IONS", 0 if threaded else 10**9)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


def _all_kernel_bytes(n):
    """The value bytes of the force (in the area of every pass and in a
    45-row area, whose second block has lo > 0), the Jacobian and the pair
    sums S_2, S_3 and S_8 of a fresh chain."""
    chain = _fixed_positions(n)
    u = chain.positions
    out = [_value_bytes(_force(u, area)) for area in (_area(n), _work_area(n, 45))]
    out.append(_value_bytes(_jacobian(u, _area(n))))
    out += [_value_bytes(pair_sum_exact_all(chain, p)) for p in (2, 3, 8)]
    return out


@pytest.mark.parametrize("n", [2, 31, 33, 64, 65, 150, 257, 300, 331, 500])
def test_threaded_pass_gives_the_serial_bits(n, monkeypatch):
    """Odd and even strip counts, a block of one strip (no thread) and
    blocks with lo > 0, mirrored from the block above (a solve's area from
    N = 257 on, and the 45-row area), give the serial pass's bytes on two
    threads, also when the interpreter switches threads every
    microsecond."""
    _threads(monkeypatch, False)
    serial = _all_kernel_bytes(n)
    _threads(monkeypatch, True)
    in_two, calls = chain_module._in_two, []
    monkeypatch.setattr(chain_module, "_in_two", lambda *run: calls.append(1) or in_two(*run))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = _all_kernel_bytes(n)
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial
    assert bool(calls) == (n > chain_module._STRIP)


def test_pass_below_the_threshold_has_one_strip_pair(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    least = chain_module._THREAD_MIN_IONS
    assert len(_area(least - 1)[1]) == 1
    assert len(_area(least)[1]) == 2


def test_pair_sum_overflowing_on_the_worker_is_a_domain_error(monkeypatch):
    """The worker runs in a copy of the caller's context, so it keeps the
    caller's np.errstate: ions 40 and 41 (strip 32-63, the worker's) 1e-300
    apart overflow S_20 in extended precision without a RuntimeWarning."""
    _threads(monkeypatch, True)
    u = np.arange(65, dtype=np.longdouble) - 40
    u[41] = np.longdouble("1e-300")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            pair_sum_exact_all(IonChain(u), 20)


def test_entry_error_on_either_thread_is_raised_after_the_join(monkeypatch):
    _threads(monkeypatch, True)
    u = _fixed_positions(150).positions
    main, done, running = threading.get_ident(), [], threading.active_count()

    def worker_fails(d, spare):
        if threading.get_ident() != main:
            raise ValueError("worker")
        return chain_module._coulomb(d, spare)

    with pytest.raises(ValueError, match="worker"):
        chain_module._pair_rows(u, worker_fails, True, 0, *_area(150))
    assert threading.active_count() == running

    def caller_fails(d, spare):
        if threading.get_ident() == main:
            raise ValueError("caller")
        time.sleep(0.02)
        done.append(d.shape)
        return chain_module._coulomb(d, spare)

    with pytest.raises(ValueError, match="caller"):
        chain_module._pair_rows(u, caller_fails, True, 0, *_area(150))
    # the worker ran its strips at rows 32 and 96 before the error surfaced
    assert done == [(32, 118), (32, 54)]
    assert threading.active_count() == running


@pytest.mark.parametrize("failing", ["worker", "caller"])
def test_entry_error_before_a_barrier_ends_the_pass(failing, monkeypatch):
    """A block of a two-block pass mirrors, runs its strips and sums its
    rows on both threads, with a barrier between the steps: an entry that
    fails on either thread breaks the barrier, so the other thread does not
    wait there, and the entry's own error is raised after the join."""
    _threads(monkeypatch, True)
    u = _fixed_positions(150).positions
    running, raised = threading.active_count(), []

    def fails(d, spare):
        if (threading.current_thread() is caller) == (failing == "caller"):
            raise ValueError(failing)
        return chain_module._coulomb(d, spare)

    def call():
        try:
            _row_sums(u, fails, True, _work_area(150, 75))
        except ValueError as exc:
            raised.append(str(exc))

    caller = threading.Thread(target=call, daemon=True)
    caller.start()
    caller.join(timeout=60)
    assert not caller.is_alive()
    assert raised == [failing]
    assert threading.active_count() == running


def test_usable_cpus_fall_back_to_the_cpu_count(monkeypatch):
    """Without an affinity call (macOS, Windows) the machine's count is
    taken, and one CPU where the OS reports none."""
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert chain_module._usable_cpus() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert chain_module._usable_cpus() == 1


def test_one_usable_cpu_starts_no_thread(monkeypatch):
    def no_thread(*args, **kwargs):
        raise AssertionError("a pass started a thread")

    monkeypatch.setattr(chain_module, "_THREAD_MIN_IONS", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(_threads_module, "threading", types.SimpleNamespace(Thread=no_thread))
    chain = _fixed_positions(150)
    assert len(_area(150)[1]) == 1
    _force(chain.positions, _area(150))
    _jacobian(chain.positions, _area(150))
    pair_sum_exact_all(chain, 8)
