import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iondec.continuum import ContinuumModel
from iondec.decoherence import (DecoherenceMode, aggregate_tau_vib,
                                build_report, closed_form_rate,
                                combined_window, fidelity_curve,
                                _prefactor, per_ion_rates)
from iondec.errors import DomainError, ValidationError
from iondec.physmodel import (CONSTANTS, Multipole, TrapConfig, derive_scales,
                              radiative_time)
from iondec.scaling import scan
from iondec.sums import chain_total_asymptotic, pair_sum_exact_all, zeta

DU = ContinuumModel.DUBIN_FLUID

# frozen Ba+ E2 values at f_z = 100 kHz, f_t = 20 MHz
PREFACTOR = 4.1784837307298795e-62      # m^8/s
RATE_3_CENTER = 3.7478957739226476e-23  # 1/s
TAU_VIB_1000 = 2767609116.765952        # s, discrete route
CLOSED_FULL_1000 = 4.1004332043445373e-10
FULL_OVER_BARE = 1.128017089383138
RATE_3_CENTER_E1 = 1.0338772528185409e-19

# discrete over closed-form aggregate rate: N -> (E2, E1)
DISCRETE_OVER_CLOSED = {200: (0.84478, 0.88728), 500: (0.86784, 0.90437),
                        1000: (0.88118, 0.91419)}


def trap_for(n):
    return TrapConfig.from_lab_units(fz_hz=1e5, ft_hz=2e7, n_ions=n)


def test_prefactor_value_and_identity(ba, trap1000):
    pref, d0 = _prefactor(ba, trap1000)
    assert pref == pytest.approx(PREFACTOR, rel=1e-12)
    scales = derive_scales(ba, trap1000)
    assert d0 == scales.d0
    manual = (scales.q2_coul * scales.q_sq
              / (2 * math.pi * CONSTANTS.hbar * ba.mass * ba.omega0
                 * trap1000.omega_t))
    assert pref == pytest.approx(manual, rel=1e-15)


def test_three_ion_center_rate(ba, chains):
    trap = trap_for(3)
    rate = per_ion_rates(chains(3), ba, trap)[1]
    assert rate == pytest.approx(RATE_3_CENTER, rel=1e-12)
    scales = derive_scales(ba, trap)
    manual = (_prefactor(ba, trap)[0]
              * pair_sum_exact_all(chains(3), 8)[1] / scales.d0**8)
    assert rate == pytest.approx(manual, rel=1e-14)


def test_single_ion_has_no_neighbors(ba, chains):
    rates = per_ion_rates(chains(1), ba, trap_for(1))
    assert rates.shape == (1,)
    assert rates[0] == 0.0


def test_rates_mirror_symmetric(ba, chains):
    rates = per_ion_rates(chains(10), ba, trap_for(10))
    assert np.allclose(rates, rates[::-1], rtol=1e-9)
    assert np.argmax(rates) in (4, 5)


def test_chain_trap_mismatch(ba, chains):
    with pytest.raises(ValidationError):
        per_ion_rates(chains(10), ba, trap_for(3))


def test_aggregate_single_rate():
    assert aggregate_tau_vib([0.25]) == pytest.approx(4.0, rel=1e-15)


def test_aggregate_equal_rates_sqrt_law():
    """N equal rates give tau_1/sqrt(N); a naive linear sum of rates
    would give tau_1/N, overcounting by exactly sqrt(N)."""
    r, n = 0.3, 16
    tau = aggregate_tau_vib([r] * n)
    assert tau == pytest.approx(1.0 / (r * math.sqrt(n)), rel=1e-12)
    linear = 1.0 / (n * r)
    assert tau == pytest.approx(math.sqrt(n) * linear, rel=1e-12)


def test_aggregate_properties():
    rates = [0.1, 0.7, 0.3]
    tau = aggregate_tau_vib(rates)
    assert aggregate_tau_vib(rates[::-1]) == pytest.approx(tau, rel=1e-14)
    assert aggregate_tau_vib(rates + [0.2]) < tau
    assert aggregate_tau_vib([0.0, 0.0]) == math.inf
    with pytest.raises(ValidationError):
        aggregate_tau_vib([])
    with pytest.raises(ValidationError):
        aggregate_tau_vib([0.1, -0.2])


def test_aggregate_refuses_nan_rate():
    with pytest.raises(ValidationError):
        aggregate_tau_vib([1.0, math.nan])


def test_fidelity_refuses_nan_rate_and_time():
    with pytest.raises(ValidationError):
        fidelity_curve([math.nan], [0.0, 1.0])
    with pytest.raises(ValidationError):
        fidelity_curve([0.1], [0.0, math.nan])


def test_aggregate_and_fidelity_refuse_infinite_inputs():
    for bad in (math.inf, -math.inf):
        with pytest.raises(ValidationError):
            aggregate_tau_vib([1.0, bad])
        with pytest.raises(ValidationError):
            fidelity_curve([bad], [0.0, 1.0])
        with pytest.raises(ValidationError):
            fidelity_curve([1.0], [0.0, bad])


def test_aggregate_outside_the_float_range_of_squares(recwarn):
    """Squares that underflow or overflow fall back to a max-scaled sum;
    rates whose squares stay normal keep the direct sum's bits."""
    assert aggregate_tau_vib([1e-170]) == pytest.approx(1e170, rel=1e-15)
    assert aggregate_tau_vib([1e200, 1e200]) == pytest.approx(
        1e-200 / math.sqrt(2.0), rel=1e-15)
    assert aggregate_tau_vib([3e-160, 4e-160]) == pytest.approx(2e159, rel=1e-15)
    rates = [0.1, 0.7, 0.3]
    assert aggregate_tau_vib(rates) == (0.1**2 + 0.7**2 + 0.3**2) ** -0.5
    assert not recwarn.list


def test_fidelity_at_zero_time():
    fc = fidelity_curve([0.4, 0.9], [0.0])
    assert fc.product[0] == 1.0
    assert fc.gaussian[0] == 1.0


def test_fidelity_single_ion_quarter_phase():
    fc = fidelity_curve([1.0], [0.0, math.pi / 4])
    assert fc.product[1] == pytest.approx(0.5, rel=1e-15)
    assert fc.gaussian[1] == pytest.approx(math.exp(-math.pi**2 / 16), rel=1e-15)
    assert fc.gaussian[1] == pytest.approx(0.539641, abs=1e-6)


def test_fidelity_product_below_gaussian():
    """ln cos^2 x = -x^2 - x^4/6 - ..., so the exact product can only
    undershoot its Gaussian envelope; they agree to ~1e-3 inside the
    quarter-period window."""
    rng = np.random.default_rng(7)
    rates = rng.uniform(0.2, 1.0, size=100)
    times = np.linspace(0.0, 0.4 / rates.max(), 200)
    fc = fidelity_curve(rates, times)
    diff = np.max(np.abs(fc.product - fc.gaussian))
    assert diff <= 1e-2
    assert diff == pytest.approx(0.0013518846387267913, rel=1e-9)
    assert np.all(fc.product[1:] < fc.gaussian[1:])


def test_fidelity_zero_rates():
    fc = fidelity_curve([0.0], [0.0, 5.0, 50.0])
    assert np.all(fc.product == 1.0)
    assert np.all(fc.gaussian == 1.0)


def test_fidelity_validation():
    with pytest.raises(ValidationError):
        fidelity_curve([0.1], [-1.0, 0.0])
    with pytest.raises(ValidationError):
        fidelity_curve([], [0.0])
    with pytest.raises(ValidationError):
        fidelity_curve([-0.1], [0.0])


@pytest.mark.parametrize("times", [0.5, [[0.0, 1.0], [2.0, 3.0]]], ids=["scalar", "2-D"])
def test_fidelity_refuses_times_that_are_not_1d(times):
    """One row per time: a scalar or a 2-D ``times`` would give the two
    columns different shapes."""
    with pytest.raises(ValidationError, match="times"):
        fidelity_curve([0.1, 0.2], times)


def test_closed_form_rate_outside_the_float_range_is_refused(ba):
    """s0^(n+1) underflowing at N = 1e30, and a rate underflowing to zero
    in a 1e-60 Hz trap, are refused instead of dividing by zero."""
    with pytest.raises(DomainError):
        closed_form_rate(10**30, ba, trap_for(10**30))
    soft = TrapConfig.from_lab_units(fz_hz=1e-60, ft_hz=2e7, n_ions=10)
    with pytest.raises(DomainError):
        closed_form_rate(10, ba, soft)
    with pytest.raises(DomainError):
        build_report(ba, soft, DecoherenceMode.CONTINUUM_CLOSED_FORM)


@pytest.mark.parametrize("fz_hz", [1e-60, 1e-70])
def test_discrete_rates_outside_the_float_range_are_refused(fz_hz, ba, chains):
    """At 1e-60 Hz every per-ion rate underflows to zero, and at 1e-70 Hz
    d0^2p overflows; both are refused rather than reported as tau = inf."""
    soft = TrapConfig.from_lab_units(fz_hz=fz_hz, ft_hz=2e7, n_ions=10)
    with pytest.raises(DomainError, match="per-ion rate"):
        per_ion_rates(chains(10), ba, soft)
    with pytest.raises(DomainError):
        build_report(ba, soft, DecoherenceMode.DISCRETE_SUM, chain=chains(10))


def test_discrete_tau_vib_frozen(ba, trap1000, chains):
    rates = per_ion_rates(chains(1000), ba, trap1000)
    tau = aggregate_tau_vib(rates)
    assert tau == pytest.approx(TAU_VIB_1000, rel=1e-9)
    assert tau**-2 == pytest.approx(float(np.sum(rates**2)), rel=1e-12)


def test_closed_form_frozen_and_identity(ba, trap1000):
    cf = closed_form_rate(1000, ba, trap1000)
    assert cf.full == pytest.approx(CLOSED_FULL_1000, rel=1e-12)
    assert cf.full / cf.bare == pytest.approx(FULL_OVER_BARE, rel=1e-9)
    scales = derive_scales(ba, trap1000)
    manual = (_prefactor(ba, trap1000)[0] * 2.0 * zeta(8)
              * math.sqrt(chain_total_asymptotic(1000, 16, DU)) / scales.d0**8)
    assert cf.full == pytest.approx(manual, rel=1e-14)
    with pytest.raises(ValidationError):
        closed_form_rate(1, ba, trap1000)


@pytest.mark.parametrize("n_ions", sorted(DISCRETE_OVER_CLOSED))
def test_discrete_vs_closed_routes(n_ions, ba, ba_e1, chains):
    """The two routes to the aggregate rate must agree to O(1), for both
    multipoles: the closed form, on the Dubin fluid model, uses continuum
    sites, which undercount the central crowding of the real chain by
    10-30% at these sizes."""
    trap = trap_for(n_ions)
    for species, pinned in zip((ba, ba_e1), DISCRETE_OVER_CLOSED[n_ions]):
        discrete = 1.0 / aggregate_tau_vib(per_ion_rates(chains(n_ions), species, trap))
        closed = closed_form_rate(n_ions, species, trap).full
        ratio = discrete / closed
        assert 0.7 < ratio < 1.4
        assert ratio == pytest.approx(pinned, abs=5e-4)


def test_e1_multipole_switch(ba_e1, chains):
    trap = trap_for(3)
    rates = per_ion_rates(chains(3), ba_e1, trap)
    assert rates[1] == pytest.approx(RATE_3_CENTER_E1, rel=1e-12)
    scales = derive_scales(ba_e1, trap)
    manual = (_prefactor(ba_e1, trap)[0]
              * pair_sum_exact_all(chains(3), 6)[1] / scales.d0**6)
    assert rates[1] == pytest.approx(manual, rel=1e-14)


def test_combined_window_identities():
    assert combined_window(3.0, 3.0) == pytest.approx(1.5, rel=1e-15)
    assert combined_window(0.1, math.inf) == pytest.approx(0.1, rel=1e-15)
    tau = combined_window(0.2, 5.0)
    assert 1.0 / tau == pytest.approx(1.0 / 0.2 + 1.0 / 5.0, rel=1e-15)


def test_report_discrete(ba, trap1000, chains):
    rep = build_report(ba, trap1000, DecoherenceMode.DISCRETE_SUM,
                       chain=chains(1000))
    assert rep.tau_rad == pytest.approx(0.1, rel=1e-15)
    assert rep.tau_rad == radiative_time(ba, 1000)
    assert rep.tau_vib == pytest.approx(TAU_VIB_1000, rel=1e-9)
    rates = 1.0 / rep.per_ion_tau
    assert rep.tau_vib**-2 == pytest.approx(float(np.sum(rates**2)), rel=1e-10)
    assert 1.0 / rep.t_d == pytest.approx(1.0 / rep.tau_rad + 1.0 / rep.tau_vib,
                                          rel=1e-15)
    assert "E2 lifetime convention" in rep.notes
    assert "tau_vib = 5.53522e+07 tau_s" in rep.notes


def test_report_closed(ba, trap1000):
    rep = build_report(ba, trap1000, DecoherenceMode.CONTINUUM_CLOSED_FORM)
    assert rep.per_ion_tau is None
    assert rep.tau_vib == pytest.approx(1.0 / CLOSED_FULL_1000, rel=1e-12)
    assert rep.t_d == combined_window(rep.tau_rad, rep.tau_vib)


def test_report_single_ion(ba, chains):
    rep = build_report(ba, trap_for(1), DecoherenceMode.DISCRETE_SUM,
                       chain=chains(1))
    assert math.isinf(rep.tau_vib)
    assert rep.tau_rad == pytest.approx(100.0, rel=1e-15)
    assert rep.t_d == pytest.approx(rep.tau_rad, rel=1e-15)
    assert np.all(np.isinf(rep.per_ion_tau))
    assert "tau_vib = inf tau_s" in rep.notes


def test_report_single_ion_checks_the_chain(ba, chains):
    with pytest.raises(ValidationError):
        build_report(ba, trap_for(1), DecoherenceMode.DISCRETE_SUM, chain=chains(3))


def test_report_discrete_needs_a_chain(ba, trap1000):
    """The discrete report reads the caller's solved chain; it never solves one."""
    with pytest.raises(ValidationError) as info:
        build_report(ba, trap1000, DecoherenceMode.DISCRETE_SUM)
    assert info.value.field == "chain"


def test_report_mode_validation(ba, trap1000):
    with pytest.raises(ValidationError):
        build_report(ba, trap1000, "discrete")


def test_report_closed_form_refuses_a_chain(ba, chains):
    """The closed form reports from the model; a chain it would not read
    (here one of 5 ions for a 10-ion trap) is refused, not ignored."""
    with pytest.raises(ValidationError) as info:
        build_report(ba, trap_for(10), DecoherenceMode.CONTINUUM_CLOSED_FORM,
                     chain=chains(5))
    assert info.value.field == "chain"


def test_rates_reports_and_scans_take_no_model(ba, chains):
    """They run on the Dubin fluid model only: a model passed where one
    used to go is a TypeError, never read as a chain or as another
    argument."""
    trap = trap_for(10)
    for call in (lambda: closed_form_rate(10, ba, trap, DU),
                 lambda: build_report(ba, trap, DecoherenceMode.CONTINUUM_CLOSED_FORM, DU),
                 lambda: build_report(ba, trap, DecoherenceMode.DISCRETE_SUM, DU,
                                      chain=chains(10)),
                 lambda: scan([10, 100], ba, trap, DU)):
        with pytest.raises(TypeError):
            call()


def test_vibrational_dephasing_is_subdominant(ba, trap1000, chains):
    """At the 1000-ion design point the radiative window (0.1 s)
    dominates: vibrational dephasing alone would allow ~10^10 longer."""
    rates = per_ion_rates(chains(1000), ba, trap1000)
    tau_vib = aggregate_tau_vib(rates)
    tau_rad = radiative_time(ba, 1000)
    assert tau_vib / tau_rad > 1e4
    assert tau_vib / tau_rad == pytest.approx(2.7676e10, rel=1e-4)


# ------------------------------------------------ SI covariance of the rates
# Every rate is one monomial in the seven SI inputs times a function of N:
#     c q2^(1-2p/3) m^(2p/3-1) w_z^(4p/3) / (w_t w0^(2p-2) tau_s),
# with q2 = q^2/(4 pi eps0), c = qsq_constant and 2p = 6 (E1) or 8 (E2).

LOG_FACTOR = st.floats(min_value=-2.0, max_value=2.0)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(logs=st.tuples(*[LOG_FACTOR] * 7), multipole=st.sampled_from(list(Multipole)))
def test_rates_follow_one_si_monomial(logs, multipole, ba, chains):
    """Rescaling mass, charge, omega0, tau_s, qsq_constant, omega_z and
    omega_t by factors up to e^2 rescales the closed-form and per-ion rates
    by the monomial above, and build_report's times accordingly."""
    n = 10
    chain, trap = chains(n), trap_for(n)
    species = dataclasses.replace(ba, multipole=multipole)
    f_m, f_q, f_w0, f_tau, f_c, f_z, f_t = map(math.exp, logs)
    scaled_species = dataclasses.replace(
        species, mass=species.mass * f_m, charge=species.charge * f_q,
        omega0=species.omega0 * f_w0, tau_s=species.tau_s * f_tau,
        qsq_constant=species.qsq_constant * f_c)
    scaled_trap = TrapConfig(omega_z=trap.omega_z * f_z, omega_t=trap.omega_t * f_t,
                             n_ions=n)
    p = multipole.pair_exponent
    rate_factor = (f_c * (f_q * f_q) ** (1 - 2 * p / 3) * f_m ** (2 * p / 3 - 1)
                   * f_z ** (4 * p / 3) / (f_t * f_w0 ** (2 * p - 2) * f_tau))

    def rescaled(value, factor):
        return pytest.approx(np.asarray(value) * factor, rel=1e-13, abs=0.0)

    closed = closed_form_rate(n, species, trap)
    scaled_closed = closed_form_rate(n, scaled_species, scaled_trap)
    assert scaled_closed.full == rescaled(closed.full, rate_factor)
    assert scaled_closed.bare == rescaled(closed.bare, rate_factor)
    assert per_ion_rates(chain, scaled_species, scaled_trap) == rescaled(
        per_ion_rates(chain, species, trap), rate_factor)
    for mode in DecoherenceMode:
        given = chain if mode is DecoherenceMode.DISCRETE_SUM else None
        report = build_report(species, trap, mode, chain=given)
        scaled = build_report(scaled_species, scaled_trap, mode, chain=given)
        tau_vib, tau_rad = report.tau_vib / rate_factor, report.tau_rad * f_tau
        assert scaled.tau_vib == rescaled(report.tau_vib, 1 / rate_factor)
        assert scaled.tau_rad == rescaled(report.tau_rad, f_tau)
        assert scaled.t_d == rescaled(combined_window(tau_rad, tau_vib), 1.0)
        if mode is DecoherenceMode.DISCRETE_SUM:
            assert scaled.per_ion_tau == rescaled(report.per_ion_tau, 1 / rate_factor)
