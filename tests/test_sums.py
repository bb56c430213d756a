import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iondec import sums as sums_module
from iondec.chain import IonChain
from iondec.continuum import ContinuumModel, chain_length, min_spacing
from iondec.decoherence import per_ion_rate, per_ion_rates
from iondec.errors import DomainError, ValidationError
from iondec.physmodel import TrapConfig
from iondec.sums import (SumSource, SumSpec, asymptotic_total,
                         chain_total_asymptotic, chain_total_exact,
                         continuum_sites, pair_sum_approx, pair_sum_exact,
                         pair_sum_exact_all, zeta)

DU = ContinuumModel.DUBIN_FLUID
NN = ContinuumModel.NEAREST_NEIGHBOR

# central-ion relative error of the zeta shortcut, by chain size
SHORTCUT_ERRORS = {11: 3.79e-4, 51: 2.00e-5, 101: 5.24e-6, 201: 1.35e-6}


def test_zeta_reference_values():
    assert zeta(4) == pytest.approx(1.0823232337111381, abs=1e-12)
    assert zeta(8) == pytest.approx(1.0040773561979441, abs=1e-12)
    assert zeta(2) == pytest.approx(np.pi**2 / 6.0, abs=1e-12)


def test_zeta_against_independent_implementation():
    mpmath = pytest.importorskip("mpmath")
    for n in range(2, 21):
        assert zeta(n) == pytest.approx(float(mpmath.zeta(n)), abs=1e-12)


def test_zeta_tends_to_one():
    assert zeta(30) == pytest.approx(1.0, abs=1e-9)
    assert zeta(64) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("bad", [1, 0, -2, 2.5])
def test_zeta_domain(bad):
    with pytest.raises(DomainError):
        zeta(bad)


@given(st.integers(min_value=2, max_value=45))
def test_zeta_monotone_decreasing(n):
    # past n ~ 52 the value is 1.0 to the last float bit, so stop at 45
    assert zeta(n + 1) < zeta(n)
    assert zeta(n) > 1.0


def test_pair_sum_two_ions(chains):
    # gap is 2^(1/3), so S_8 = (2^(1/3))^-8 = 2^(-8/3)
    assert pair_sum_exact(chains(2), 0, 8) == pytest.approx(2.0 ** (-8.0 / 3.0),
                                                            rel=1e-10)
    assert pair_sum_exact(chains(2), 0, 8) == pytest.approx(0.157490, abs=1e-6)


def test_pair_sum_three_ions_center(chains):
    u = float(chains(3).positions[2])
    expected = 2.0 * u**-8
    assert pair_sum_exact(chains(3), 1, 8) == pytest.approx(expected, rel=1e-12)
    assert pair_sum_exact(chains(3), 1, 8) == pytest.approx(1.103074, abs=1e-5)


def test_pair_sum_uniform_midpoint_matches_zeta():
    """A long unit-spaced chain looks infinite from the middle."""
    u = np.arange(10_000, dtype=float)
    chain = IonChain.from_positions(u - u.mean())
    assert pair_sum_exact(chain, 5000, 8) == pytest.approx(2.0 * zeta(8),
                                                           abs=1e-6)


def test_pair_sum_approx_values():
    assert pair_sum_approx(1.0, 8) == pytest.approx(2.0081547123958882, rel=1e-12)
    assert pair_sum_approx(2.0, 8) == pytest.approx(2.0081547123958882 / 256.0,
                                                    rel=1e-12)


@given(st.floats(min_value=0.1, max_value=10.0),
       st.integers(min_value=2, max_value=20))
def test_pair_sum_approx_power_scaling(s, n):
    assert pair_sum_approx(s, n) == pytest.approx(
        pair_sum_approx(1.0, n) / s**n, rel=1e-12)


def test_center_shortcut_agreement(chains):
    chain = chains(101)
    s = 0.5 * float(chain.positions[51] - chain.positions[49])
    exact = pair_sum_exact(chain, 50, 8)
    assert pair_sum_approx(s, 8) == pytest.approx(exact, rel=0.02)


def test_shortcut_error_decreases_with_n(chains):
    errors = []
    for n in (11, 51, 101, 201):
        chain = chains(n)
        mid = n // 2
        s = 0.5 * float(chain.positions[mid + 1] - chain.positions[mid - 1])
        exact = pair_sum_exact(chain, mid, 8)
        rel = abs(pair_sum_approx(s, 8) - exact) / exact
        assert rel == pytest.approx(SHORTCUT_ERRORS[n], rel=0.05)
        errors.append(rel)
    assert errors == sorted(errors, reverse=True)


@pytest.mark.parametrize("n_exp", [2, 8])
def test_pair_sum_mirror_symmetry(n_exp, chains):
    sums = pair_sum_exact_all(chains(101), n_exp)
    assert np.allclose(sums, sums[::-1], rtol=1e-9)


@pytest.mark.parametrize("n_ions", [4, 9, 40])
def test_pair_sum_maximal_at_center(n_ions, chains):
    sums = pair_sum_exact_all(chains(n_ions), 8)
    mid = (n_ions - 1) / 2.0
    assert abs(int(np.argmax(sums)) - mid) <= 0.5


def test_pair_sum_all_matches_single(chains):
    chain = chains(11)
    sums = pair_sum_exact_all(chain, 6)
    for i in range(11):
        assert sums[i] == pytest.approx(pair_sum_exact(chain, i, 6), rel=1e-13)


# ----------------------------------------------- per-chain pair-sum cache


def _counting_kernel(monkeypatch):
    """Log each call pair_sum_exact_all makes into the pairwise kernel."""
    calls = []
    real = sums_module._row_sums

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(sums_module, "_row_sums", counted)
    return calls


def _fresh_chain(n=40):
    return IonChain.from_positions(np.linspace(-3.0, 3.0, n) ** 3 + np.linspace(-3.0, 3.0, n))


def test_pair_sum_cache_returns_private_copies():
    chain = _fresh_chain()
    first = pair_sum_exact_all(chain, 8)
    expected = first.copy()
    first[:] = -1.0
    assert np.array_equal(pair_sum_exact_all(chain, 8), expected)


def test_pair_sum_cache_skips_the_kernel_on_repeat(monkeypatch):
    calls = _counting_kernel(monkeypatch)
    chain = _fresh_chain()
    s8 = pair_sum_exact_all(chain, 8)
    assert np.array_equal(pair_sum_exact_all(chain, 8), s8)
    assert len(calls) == 1
    pair_sum_exact_all(chain, 6)  # another exponent is another entry
    assert len(calls) == 2
    pair_sum_exact_all(_fresh_chain(), 8)  # an equal but distinct chain
    assert len(calls) == 3


def test_pair_sum_cache_leaves_repr_and_equality_alone():
    chain = _fresh_chain(3)
    before = repr(chain)
    pair_sum_exact_all(chain, 8)
    assert repr(chain) == before
    assert before.startswith("IonChain(n_ions=3, residual=") and "_pair_sums" not in before
    assert chain == chain
    assert [f.name for f in dataclasses.fields(IonChain) if f.compare] == [
        "n_ions", "positions", "residual"]
    single = IonChain.from_positions([0.0])
    assert single == IonChain.from_positions([0.0])


def test_replaced_chain_starts_with_an_empty_cache(monkeypatch):
    calls = _counting_kernel(monkeypatch)
    chain = _fresh_chain()
    pair_sum_exact_all(chain, 8)
    other = dataclasses.replace(chain, residual=0.0)
    assert other._pair_sums == {}
    assert np.array_equal(pair_sum_exact_all(other, 8), pair_sum_exact_all(chain, 8))
    assert len(calls) == 2


def test_per_ion_rate_reuses_the_sums_of_per_ion_rates(monkeypatch, ba):
    calls = _counting_kernel(monkeypatch)
    chain = _fresh_chain()
    trap = TrapConfig.from_lab_units(fz_hz=1e5, ft_hz=2e7, n_ions=chain.n_ions)
    rates = per_ion_rates(chain, ba, trap)
    assert per_ion_rate(chain, 7, ba, trap) == rates[7]
    assert len(calls) == 1


def test_pair_sum_validation(chains):
    with pytest.raises(IndexError):
        pair_sum_exact(chains(3), 5, 8)
    with pytest.raises(DomainError):
        pair_sum_exact(chains(3), 0, 1)
    with pytest.raises(ValidationError):
        pair_sum_approx(-1.0, 8)


def test_chain_total_uniform_gap():
    u = np.arange(40, dtype=float)
    chain = IonChain.from_positions(u - u.mean())
    assert chain_total_exact(chain, 8) == pytest.approx(40.0, rel=1e-12)


def test_chain_total_three_ions(chains):
    gap = float(chains(3).positions[2])
    assert chain_total_exact(chains(3), 16) == pytest.approx(3.0 * gap**-16,
                                                             rel=1e-12)
    assert chain_total_exact(chains(3), 16) == pytest.approx(0.91266, rel=2e-4)


def test_asymptotic_factors():
    n200 = chain_total_asymptotic(200, 8, DU)
    L, s0 = chain_length(200, DU), min_spacing(200, DU)
    assert n200 == pytest.approx((L / s0**9) * np.sqrt(4 * np.pi / 39), rel=1e-14)
    assert np.sqrt(4 * np.pi / 39) == pytest.approx(0.567640, abs=5e-6)
    assert np.sqrt(4 * np.pi / 71) == pytest.approx(0.420703, abs=5e-6)


def test_asymptotic_spacing_power():
    for n_exp in (6, 16):
        assert asymptotic_total(10.0, 0.2, n_exp) == pytest.approx(
            asymptotic_total(10.0, 0.1, n_exp) / 2 ** (n_exp + 1), rel=1e-12)


def test_continuum_sites_cover_all_ions():
    sites = continuum_sites(500, DU)
    assert sites.sites.shape == (500,)
    assert np.all(np.diff(sites.sites) > 0)
    assert np.max(np.abs(sites.sites + sites.sites[::-1])) < 1e-12
    # spacing at the predicted sites follows the profile
    L = chain_length(500, DU)
    assert np.all(sites.spacings >= min_spacing(500, DU) - 1e-15)
    assert np.all(np.abs(sites.sites) < L)


def test_continuum_sites_reject_short_normalization():
    """The nearest-neighbor density integrates to N/3, so its cumulative
    count cannot be inverted for the outer two thirds of the ions."""
    with pytest.raises(DomainError):
        continuum_sites(100, NN)


@pytest.mark.parametrize("n_exp", [6, 8, 12, 16])
@pytest.mark.parametrize("n_ions", [200, 500, 1000])
def test_site_totals_match_asymptotic(n_exp, n_ions):
    total = chain_total_exact(continuum_sites(n_ions, DU), n_exp)
    asym = chain_total_asymptotic(n_ions, n_exp, DU)
    assert 0.85 < total / asym < 1.15
    assert total / asym == pytest.approx(1.0, abs=5e-4)


# Ratio of the solved-chain total to the integral asymptotic.  The true
# central gap sits ~2% above the fluid s0, and s^-n amplifies that to
# (1.02)^n, so large exponents fall visibly below the integral while
# n <= 8 stays within 15%.
DISCRETE_RATIOS = {
    (6, 200): 0.9089, (6, 1000): 0.9306,
    (8, 200): 0.8671, (8, 1000): 0.8985,
    (12, 200): 0.7872, (12, 1000): 0.8357,
    (16, 200): 0.7136, (16, 1000): 0.7765,
}


@pytest.mark.parametrize("n_exp,n_ions", sorted(DISCRETE_RATIOS))
def test_discrete_totals_vs_asymptotic(n_exp, n_ions, chains):
    ratio = (chain_total_exact(chains(n_ions), n_exp)
             / chain_total_asymptotic(n_ions, n_exp, DU))
    assert ratio == pytest.approx(DISCRETE_RATIOS[(n_exp, n_ions)], abs=5e-3)
    if n_exp <= 8:
        assert 0.85 < ratio < 1.15


def test_edge_spacing_contribution_negligible(chains):
    """Edge ions use their single gap; for n >= 6 they contribute under
    1e-3 of the total, so the convention cannot matter."""
    from iondec.chain import local_spacings
    for n_ions in (50, 200):
        s = local_spacings(chains(n_ions))
        for n_exp in (6, 16):
            total = np.sum(s ** -float(n_exp))
            edges = s[0] ** -float(n_exp) + s[-1] ** -float(n_exp)
            assert edges / total < 1e-3


def test_chain_total_rejects_other_types():
    with pytest.raises(ValidationError):
        chain_total_exact([1.0, 2.0], 8)


def test_sum_spec_validation():
    spec = SumSpec(n=8)
    assert spec.source is SumSource.DISCRETE_CHAIN
    with pytest.raises(DomainError):
        SumSpec(n=1)
    with pytest.raises(DomainError):
        SumSpec(n=3.0)


@settings(max_examples=30)
@given(st.integers(min_value=2, max_value=24))
def test_site_total_sandwich(n_exp):
    """Raising the exponent divides each term by its spacing, so the
    total is bracketed by total/s_max and total/s_min."""
    sites = continuum_sites(60, DU)
    total = chain_total_exact(sites, n_exp)
    bumped = chain_total_exact(sites, n_exp + 1)
    s_min, s_max = float(sites.spacings.min()), float(sites.spacings.max())
    assert total > 0
    assert total / s_max * (1 - 1e-12) <= bumped <= total / s_min * (1 + 1e-12)
