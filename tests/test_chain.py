import numpy as np
import pytest

from iondec import chain as chain_module
from iondec.chain import (IonChain, _force, _jacobian, local_spacing,
                          local_spacings, solve_equilibrium)
from iondec.continuum import ContinuumModel, min_spacing
from iondec.errors import SolverError, ValidationError
from iondec.sums import pair_sum_exact_all

U2 = 0.25 ** (1.0 / 3.0)       # two-ion half-separation, u^3 = 1/4
U3 = 1.25 ** (1.0 / 3.0)       # three-ion outer position, u^3 = 1 + 1/4


def test_single_ion():
    chain = solve_equilibrium(1)
    assert chain.n_ions == 1
    assert float(chain.positions[0]) == pytest.approx(0.0, abs=1e-15)
    assert IonChain.from_positions(chain.positions).residual == 0.0


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
    recomputed = IonChain.from_positions(chain.positions).residual
    assert recomputed == pytest.approx(chain.residual, abs=1e-15)


def test_positions_strictly_increasing(chains):
    u = chains(200).positions
    assert np.all(np.diff(u) > 0)


def test_local_spacing_small_chains(chains):
    assert local_spacing(chains(2), 0) == pytest.approx(2 * U2, rel=1e-10)
    assert local_spacing(chains(2), 1) == pytest.approx(2 * U2, rel=1e-10)
    assert local_spacing(chains(3), 1) == pytest.approx(U3, rel=1e-10)


def test_local_spacing_uniform_chain():
    h = 0.37
    u = h * (np.arange(9) - 4.0)
    chain = IonChain.from_positions(u)
    for i in range(1, 8):
        assert local_spacing(chain, i) == pytest.approx(h, rel=1e-14)
    assert local_spacing(chain, 0) == pytest.approx(h, rel=1e-14)
    assert np.allclose(local_spacings(chain), h)


def test_local_spacing_index_error(chains):
    with pytest.raises(IndexError):
        local_spacing(chains(3), 3)
    with pytest.raises(IndexError):
        local_spacing(chains(3), -4)


def test_residual_of_exact_two_ion_positions():
    chain = IonChain.from_positions(np.array([-U2, U2]))
    assert chain.residual <= 1e-12


def test_residual_detects_perturbation():
    u = np.array([-U3, 0.0, U3])
    u[1] += 0.1
    chain = IonChain.from_positions(u)
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


def test_solver_reports_best_residual():
    with pytest.raises(SolverError) as err:
        solve_equilibrium(60, max_iter=2)
    assert err.value.residual is not None
    assert err.value.residual > 0


@pytest.mark.parametrize("bad", [0, -3, 10_001])
def test_solver_input_validation(bad):
    with pytest.raises(ValidationError):
        solve_equilibrium(bad)


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0, 0.0, "1e-12", None])
def test_solver_refuses_bad_tolerance(tol):
    with pytest.raises(ValidationError) as err:
        solve_equilibrium(20, tol=tol)
    assert err.value.field == "tol"


@pytest.mark.parametrize("max_iter", [0, -1, 2.5, 200.0, float("inf"), float("nan"), None])
def test_solver_refuses_bad_iteration_limit(max_iter):
    with pytest.raises(ValidationError) as err:
        solve_equilibrium(20, max_iter=max_iter)
    assert err.value.field == "max_iter"


def test_valid_solver_settings_keep_their_bits(chains):
    chain = solve_equilibrium(60, tol=np.float64(1e-12), max_iter=np.int64(200))
    assert np.array_equal(chain.positions, chains(60).positions)
    assert chain.residual == chains(60).residual


def test_from_positions_requires_sorted():
    with pytest.raises(ValidationError):
        IonChain.from_positions(np.array([0.5, -0.5]))
    with pytest.raises(ValidationError):
        IonChain.from_positions(np.array([0.0, 0.0]))


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
    d = np.abs(u[:, None] - u[None, :])
    np.fill_diagonal(d, np.inf)
    return (d ** -float(n)).sum(axis=1).astype(float)


def _fixed_positions(n):
    """Irregular, strictly increasing, off-centre positions (no solve, so
    no dependence on the BLAS thread count)."""
    gaps = np.random.default_rng(n).uniform(0.3, 1.7, n)
    return IonChain.from_positions(np.cumsum(gaps.astype(np.longdouble)) - 0.4 * n)


def _assert_kernels_match_full(n):
    chain = _fixed_positions(n)
    u = chain.positions
    force = _force(u)
    ref = _force_full(u)
    assert force.dtype == ref.dtype
    assert np.array_equal(force, ref)
    assert np.array_equal(np.signbit(force), np.signbit(ref))
    assert np.array_equal(_jacobian(u), _jacobian_full(u))
    for p in (2, 6, 8, 16):
        assert np.array_equal(pair_sum_exact_all(chain, p), _pair_sums_full(u, p))


@pytest.mark.parametrize("n", [2, 3, 63, 64, 65, 129, 500])
def test_mirrored_kernel_is_bit_identical_to_full_matrix(n):
    _assert_kernels_match_full(n)


@pytest.mark.parametrize("rows_per_block", [1, 45])
def test_mirrored_kernel_is_bit_identical_across_row_blocks(rows_per_block, monkeypatch):
    """Several row blocks: off-tile columns evaluated directly, and (45
    rows) a strip boundary in the middle of each block."""
    n = 129
    monkeypatch.setattr(chain_module, "_BLOCK", rows_per_block * n)
    assert chain_module._STRIP < 45 < n
    _assert_kernels_match_full(n)
