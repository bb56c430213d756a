import dataclasses
import math
import warnings

import numpy as np
import pytest

from iondec import continuum, decoherence, physmodel, scaling
from iondec.continuum import C0_DUBIN, ContinuumModel, min_spacing
from iondec.decoherence import closed_form_rate
from iondec.errors import SolverError, ValidationError
from iondec.physmodel import TrapConfig
from iondec.scaling import (LOG_POWERS, POINTS_PER_DECADE,
                            REFERENCE_EXPONENTS, ExponentFit, _brentq,
                            default_n_grid, fit_exponent, scan)

S0_TARGET = 0.5e-6  # meters

# omega_z that holds a 0.5 um central spacing at N = 1000 (Ba+, Dubin)
OMEGA_Z_1000 = 619896.9282429456


@pytest.fixture(scope="module")
def grid():
    return default_n_grid(100, 1000)


@pytest.fixture(scope="module")
def e2_series(grid, ba, trap1000):
    return scan(grid, ba, trap1000)


def test_policy_validation(grid, ba, trap1000):
    for bad in (-1e-6, 0.0, math.inf, math.nan):
        with pytest.raises(ValidationError, match="s0_target"):
            scan(grid, ba, trap1000, s0_target=bad)


# The CLI catalog's scaling ranges, the CLI default, and the narrowest
# grids, where rounding the geometric grid repeats integers.
DEDUP_RANGES = [(10, 100), (100, 1000), (1000, 10000), (300, 30000), (2, 3),
                (2, 10), (2, 40), (2**53 // 10, 2**53), (2, 4)]


def test_default_grid_density():
    grid = default_n_grid(100, 1000)
    assert grid.size == POINTS_PER_DECADE + 1
    assert grid[0] == 100 and grid[-1] == 1000
    assert np.all(np.diff(grid) > 0)
    small = default_n_grid(2, 4)
    assert small[0] == 2 and small[-1] == 4
    # the same integers, in the same dtype, as deduplicating with np.unique
    for n_min, n_max in DEDUP_RANGES:
        count = max(2, int(round(POINTS_PER_DECADE * math.log10(n_max / n_min))) + 1)
        expected = np.unique(np.rint(np.geomspace(n_min, n_max, count)).astype(int))
        expected = expected[expected >= 2]
        got = default_n_grid(n_min, n_max)
        assert got.dtype == expected.dtype and np.array_equal(got, expected)
    with pytest.raises(ValidationError):
        default_n_grid(1000, 100)
    with pytest.raises(ValidationError):
        default_n_grid(1, 100)
    assert default_n_grid(2**53 // 10, 2**53)[-1] == 2**53
    with pytest.raises(ValidationError, match="n_max"):
        default_n_grid(10, 2**53 + 1)
    with pytest.raises(ValidationError, match="n_max"):
        default_n_grid(10, 10**20)


def test_synthetic_power_law_recovery(e2_series):
    n = e2_series.n_ions.astype(float)
    fit = fit_exponent(dataclasses.replace(e2_series, rate_vib=n**3))
    assert fit.slope == pytest.approx(3.0, abs=1e-12)
    assert fit.width < 1e-12
    # with a log factor present, the corrected fit recovers the power
    rates = n**3 * np.log(C0_DUBIN * n) ** (-8.0 / 3.0)
    fit = fit_exponent(dataclasses.replace(e2_series, rate_vib=rates),
                       log_power=-8.0 / 3.0)
    assert fit.slope == pytest.approx(3.0, abs=1e-12)


def test_e2_fixed_voltage_exponent(e2_series):
    """rate ~ N^(35/6) (ln c0 N)^(-8/3) at fixed voltage: dividing out
    the log factor leaves a pure power law to machine precision."""
    fit = fit_exponent(e2_series, log_power=LOG_POWERS["fixed_voltage_e2"])
    assert fit.slope == pytest.approx(35.0 / 6.0, abs=1e-9)
    assert fit.width < 1e-12
    raw = fit_exponent(e2_series)
    assert 5.0 < raw.slope < 35.0 / 6.0  # log factor drags the raw slope down
    assert raw.slope == pytest.approx(5.3458, abs=5e-3)


def test_e1_fixed_voltage_exponent(grid, ba_e1, trap1000):
    series = scan(grid, ba_e1, trap1000)
    fit = fit_exponent(series, log_power=LOG_POWERS["fixed_voltage_e1"])
    assert fit.slope == pytest.approx(9.0 / 2.0, abs=1e-9)
    assert fit.width < 1e-12
    raw = fit_exponent(series)
    assert raw.slope == pytest.approx(4.1344, abs=5e-3)


def test_radiative_rate_is_linear(e2_series, ba):
    fit = fit_exponent(dataclasses.replace(e2_series, rate_vib=e2_series.rate_rad))
    assert fit.slope == pytest.approx(1.0, abs=1e-12)
    expected = e2_series.n_ions / (2.0 * ba.tau_s)
    assert np.allclose(e2_series.rate_rad, expected, rtol=1e-15)


def test_fixed_voltage_rows_match_closed_form(e2_series, ba, trap1000):
    k = int(np.where(e2_series.n_ions == 1000)[0][0])
    direct = closed_form_rate(1000, ba, trap1000).full
    assert e2_series.rate_vib[k] == pytest.approx(direct, rel=1e-15)
    assert e2_series.omega_z[k] == trap1000.omega_z
    assert e2_series.s0_m[k] == pytest.approx(
        e2_series.d0_m[k] * 0.03621043721, rel=1e-9)


def test_fixed_spacing_certificate(grid, ba, trap1000):
    """The solved omega_z must actually hold the spacing: the residual
    |s0 - target|/target stays at rounding level for every N."""
    series = scan(grid, ba, trap1000, s0_target=S0_TARGET)
    cert = np.max(np.abs(series.s0_m - S0_TARGET)) / S0_TARGET
    assert cert <= 1e-6
    assert cert <= 1e-12  # in practice it is exact to the last bit
    k = int(np.where(series.n_ions == 1000)[0][0])
    assert series.omega_z[k] == pytest.approx(OMEGA_Z_1000, rel=1e-9)
    assert series.omega_z[k] / (2 * math.pi) == pytest.approx(98659.66, abs=0.01)


def test_fixed_spacing_frequency_law(grid, ba, trap1000):
    """Holding s0 forces omega_z^2 proportional to ln(c0 N)/N^2."""
    series = scan(grid, ba, trap1000, s0_target=S0_TARGET)
    n = series.n_ions.astype(float)
    invariant = series.omega_z**2 * n**2 / np.log(C0_DUBIN * n)
    assert invariant.max() / invariant.min() - 1.0 <= 1e-12
    assert np.all(np.diff(series.omega_z) < 0)


def test_fixed_spacing_rate_slope(grid, ba, trap1000):
    """With the spacing held, L*d0 = (3/4) s0 N exactly, so the log
    factors cancel and the aggregate rate is a pure sqrt(N) — far from
    the quoted 5/2, which assumes a different normalization; the quoted
    figure stays available as reference metadata only."""
    series = scan(grid, ba, trap1000, s0_target=S0_TARGET)
    fit = fit_exponent(series)
    assert fit.slope == pytest.approx(0.5, abs=1e-9)
    assert fit.width < 1e-12


def test_reference_metadata():
    assert REFERENCE_EXPONENTS["fixed_voltage_e2"] == pytest.approx(35.0 / 6.0)
    assert REFERENCE_EXPONENTS["fixed_voltage_e1"] == pytest.approx(4.5)
    assert REFERENCE_EXPONENTS["fixed_spacing_quoted"] == 2.5


def test_scan_validation(ba, trap1000):
    with pytest.raises(ValidationError):
        scan([100], ba, trap1000)
    with pytest.raises(ValidationError):
        scan([1, 100], ba, trap1000)
    series = scan([100, 100, 200], ba, trap1000)
    assert series.n_ions.tolist() == [100, 200]
    # unsorted, repeated and two-dimensional: sorted and flattened as np.unique does
    n_values = [[300, 20, 300], [7, 20, 5000]]
    series = scan(n_values, ba, trap1000)
    expected = np.unique(np.asarray(n_values, dtype=int))
    assert series.n_ions.dtype == expected.dtype
    assert np.array_equal(series.n_ions, expected)
    with pytest.raises(ValidationError, match="distinct"):
        scan([], ba, trap1000)


@pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0])
def test_fit_refuses_a_rate_without_a_log(bad, e2_series):
    """One rate_vib that is NaN, infinite, zero or negative is refused
    before np.log runs, so numpy warns of nothing."""
    rates = e2_series.rate_vib.copy()
    rates[len(rates) // 2] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="series"):
            fit_exponent(dataclasses.replace(e2_series, rate_vib=rates))


def test_fit_preconditions(ba, trap1000):
    three = scan([100, 300, 1000], ba, trap1000)
    with pytest.raises(ValidationError):
        fit_exponent(three)
    narrow = scan([100, 120, 150, 200], ba, trap1000)
    with pytest.raises(ValidationError):
        fit_exponent(narrow)


def test_exponent_fit_record():
    fit = ExponentFit(slope=2.0, width=0.1)
    assert (fit.slope, fit.width) == (2.0, 0.1)


# omega_z holding a 5 um spacing on the Dubin fluid model (which the ids
# name), recorded as exact floats from the scipy.optimize.brentq solve;
# omega_z does not depend on the multipole order.
PINNED_N = [2, 10, 1000, 30000]
PINNED_OMEGA_Z = [2578612.2299008644, 1091908.7491660195, 19602.862077896665,
                  802.7899561105827]


@pytest.mark.parametrize("species", ["ba", "ba_e1"], ids=lambda s: f"{s}-DUBIN_FLUID")
def test_fixed_spacing_omega_z_is_bit_identical_to_pinned(species, request, trap1000):
    series = scan(PINNED_N, request.getfixturevalue(species), trap1000, s0_target=5e-6)
    assert series.omega_z.tolist() == PINNED_OMEGA_Z


@pytest.mark.parametrize("species", ["ba", "ba_e1"])
def test_fixed_spacing_omega_z_matches_the_closed_form(species, request, trap1000):
    """The pin's truth twin: omega_z holding a 5 um spacing is
    sqrt(q^2/(m (s0/s0_dim)^3)), s0_dim the Dubin fluid's dimensionless
    central spacing, to 2e-15 relative (the Brent solve lands within 5 ulps)."""
    sp = request.getfixturevalue(species)
    series = scan(PINNED_N, sp, trap1000, s0_target=5e-6)
    q2 = physmodel.derive_scales(sp, trap1000).q2_coul
    want = [math.sqrt(q2 / (sp.mass * (5e-6 / min_spacing(n, ContinuumModel.DUBIN_FLUID))**3))
            for n in PINNED_N]
    assert series.omega_z.tolist() == pytest.approx(want, rel=2e-15, abs=0.0)


@pytest.mark.parametrize("s0_target", [None, S0_TARGET])
def test_scan_derives_each_n_once(s0_target, monkeypatch, grid, ba, trap1000):
    """Each N takes the Dubin half-length L once and its scales once: the
    central spacing, the fixed-spacing solve and the closed form share
    them."""
    lengths, scales = [], []
    chain_length = continuum.chain_length
    monkeypatch.setattr(continuum, "chain_length",
                        lambda n, model: lengths.append(n) or chain_length(n, model))
    derive_scales = physmodel.derive_scales
    monkeypatch.setattr(decoherence, "derive_scales", lambda species, trap:
                        scales.append(trap.n_ions) or derive_scales(species, trap))
    series = scan(grid, ba, trap1000, s0_target=s0_target)
    assert sorted(lengths) == sorted(scales) == series.n_ions.tolist()


def test_retuning_past_the_transverse_trap_names_n_and_the_spacing(ba):
    """Holding 0.118 um at N = 2 takes omega_z above omega_t: refused
    before the trap is built, naming N, the held spacing and both
    frequencies."""
    trap = TrapConfig.from_lab_units(fz_hz=1e5, ft_hz=2e7, n_ions=10000)
    with pytest.raises(ValidationError) as info:
        scan([2, 20], ba, trap, s0_target=1.1783913480047522e-07)
    assert str(info.value) == (
        "n_values: holding s0 = 1.1783913480047522e-07 m at N = 2 takes omega_z = "
        "712699947.6067758 rad/s, not below omega_t = 125663706.14359173 rad/s; a "
        "shorter chain needs a stiffer axial trap, so raise the smallest N or omega_t")
    series = scan([100, 1000], ba, trap, s0_target=1.1783913480047522e-07)
    assert series.omega_z[0] < trap.omega_t


def test_brentq_port_matches_scipy(monkeypatch, ba):
    """The in-module Brent iteration returns scipy's bits on every case."""
    brentq = pytest.importorskip("scipy.optimize").brentq
    ns = np.unique(np.rint(np.geomspace(2, 1e6, 40)).astype(int)).tolist()
    targets = np.geomspace(1e-7, 1e-3, 8).tolist()
    cases = [(n, t, min_spacing(n, ContinuumModel.DUBIN_FLUID)) for n in ns for t in targets]
    assert len(cases) >= 300

    def solve_all():
        return [scaling._solve_omega_z(n, ba, t, s0_dim) for n, t, s0_dim in cases]

    ported = solve_all()
    monkeypatch.setattr(scaling, "_brentq", brentq)
    assert ported == solve_all()


@pytest.mark.parametrize("xtol, rtol", [(1e-30, 1e-14), (2e-12, 8.9e-16), (1e-3, 1e-6)])
def test_brentq_port_matches_scipy_on_other_functions(xtol, rtol):
    """Coarse tolerances make the delta test and the +-delta step decide
    more of the iterates than the smooth spacing gap does."""
    brentq = pytest.importorskip("scipy.optimize").brentq
    funcs = [lambda x: x**3 - 2 * x - 5, lambda x: math.cos(x) - x,
             lambda x: math.exp(x) - 10.0, lambda x: math.atan(1e6 * (x - 0.7))]
    rng = np.random.default_rng(5)
    brackets = list(zip(rng.uniform(-3.0, 0.0, 25).tolist(),
                        rng.uniform(2.5, 5.0, 25).tolist()))
    for f in funcs:
        for a, b in brackets:
            assert _brentq(f, a, b, xtol, rtol) == brentq(f, a, b, xtol=xtol, rtol=rtol)


@pytest.mark.parametrize("a, b", [(2.0, 5.0), (-1.0, 2.0)])
def test_brentq_returns_an_endpoint_that_is_a_root(a, b):
    """x^2 - 4 is 0 at the bracket's first end or at its second."""
    def f(x):
        return x * x - 4.0

    assert _brentq(f, a, b, xtol=1e-12, rtol=1e-14) == 2.0
    scipy_optimize = pytest.importorskip("scipy.optimize")
    assert scipy_optimize.brentq(f, a, b, xtol=1e-12, rtol=1e-14) == 2.0


def test_brentq_refuses_without_sign_change_or_convergence():
    with pytest.raises(SolverError, match="sign"):
        _brentq(lambda x: x * x + 1.0, -1.0, 1.0, xtol=1e-12, rtol=1e-14)
    with pytest.raises(SolverError, match="converge"):
        _brentq(lambda x: x**3 - 2 * x - 5, 0.0, 10.0, xtol=1e-12, rtol=1e-14,
                maxiter=3)
    root = _brentq(lambda x: x * x - 2.0, 0.0, 2.0, xtol=1e-30, rtol=1e-14)
    assert root == pytest.approx(math.sqrt(2.0), rel=1e-14)
