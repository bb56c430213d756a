import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iondec import chain as chain_module
from iondec import sums as sums_module
from iondec.chain import IonChain, local_spacings
from iondec.continuum import ContinuumModel, chain_length, min_spacing
from iondec.errors import DomainError, ValidationError
from iondec.sums import (ContinuumSites, chain_total_asymptotic,
                         chain_total_exact, continuum_sites, pair_sum_approx,
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
    # the bound zeta's docstring states, against zeta(n) at 40 digits (not
    # rounded to a float first); the worst case is 3.46e-16 at n = 9
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        for n in range(2, 65):
            exact = mpmath.zeta(n)
            assert abs(mpmath.mpf(zeta(n)) / exact - 1) <= 4e-16, n


def test_zeta_bits_match_one_array_sum():
    """zeta's table holds the bits of one np.sum over the 10^6 terms plus
    the tail midpoint, and 1.0 where that sum rounds to 1.0 (n >= 53).

    numpy's float64 power differs between hosts (the AVX-512 kernel and
    libm round some terms differently), so a host without AVX-512 may
    compute other bits here; the table was recorded on one with it."""
    jmax = 10**6
    j = np.arange(1, jmax + 1, dtype=float)
    for n in range(2, 81):
        tail = 0.5 * (jmax ** (1.0 - n) + (jmax + 1.0) ** (1.0 - n)) / (n - 1.0)
        assert zeta(n) == float(np.sum(j ** -float(n))) + tail, n


def test_zeta_tends_to_one():
    assert zeta(30) == pytest.approx(1.0, abs=1e-9)
    assert zeta(64) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("bad", [1, 0, -2, 2.5, np.int64(1), np.float64(4.0)])
def test_zeta_domain(bad):
    with pytest.raises(DomainError):
        zeta(bad)


@pytest.mark.parametrize("n", [np.int64(4), np.int32(8), np.uint8(16)])
def test_numpy_integer_exponents_accepted(n):
    """Exponents, like ion counts, may be numpy integers: same values as
    the Python int, and the pair-sum memo is keyed by the int."""
    k = int(n)
    assert zeta(n) == zeta(k) and type(zeta(n)) is float
    assert pair_sum_approx(1.3, n) == pair_sum_approx(1.3, k)
    assert (chain_total_asymptotic(100, n, DU)
            == chain_total_asymptotic(100, k, DU))
    sites = continuum_sites(50, DU)
    assert chain_total_exact(sites, n) == chain_total_exact(sites, k)
    chain = _fresh_chain(12)
    assert np.array_equal(pair_sum_exact_all(chain, n), pair_sum_exact_all(chain, k))
    assert list(chain._pair_sums) == [k] and type(next(iter(chain._pair_sums))) is int


@given(st.integers(min_value=2, max_value=45))
def test_zeta_monotone_decreasing(n):
    # past n ~ 52 the value is 1.0 to the last float bit, so stop at 45
    assert zeta(n + 1) < zeta(n)
    assert zeta(n) > 1.0


def _direct_row_sum(chain, i, n):
    """S_n(i) as sum_j |u_i - u_j| ** -n in longdouble (libm powl): a
    reference for one row that does not go through _inverse_power."""
    d = np.delete(chain.positions, i) - chain.positions[i]
    return float(np.sum(np.abs(d) ** -n))


def test_pair_sum_two_ions(chains):
    # gap is 2^(1/3), so S_8 = (2^(1/3))^-8 = 2^(-8/3)
    s8 = pair_sum_exact_all(chains(2), 8)
    assert s8[0] == pytest.approx(2.0 ** (-8.0 / 3.0), rel=1e-10)
    assert s8[0] == pytest.approx(0.157490, abs=1e-6)


def test_pair_sum_three_ions_center(chains):
    u = float(chains(3).positions[2])
    expected = 2.0 * u**-8
    s8 = pair_sum_exact_all(chains(3), 8)
    assert s8[1] == pytest.approx(expected, rel=1e-12)
    assert s8[1] == pytest.approx(1.103074, abs=1e-5)


def test_pair_sum_uniform_midpoint_matches_zeta():
    """A long unit-spaced chain looks infinite from the middle."""
    u = np.arange(10_000, dtype=float)
    chain = IonChain(u - u.mean())
    assert _direct_row_sum(chain, 5000, 8) == pytest.approx(2.0 * zeta(8),
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
    exact = _direct_row_sum(chain, 50, 8)
    assert pair_sum_approx(s, 8) == pytest.approx(exact, rel=0.02)


def test_shortcut_error_decreases_with_n(chains):
    errors = []
    for n in (11, 51, 101, 201):
        chain = chains(n)
        mid = n // 2
        s = 0.5 * float(chain.positions[mid + 1] - chain.positions[mid - 1])
        exact = _direct_row_sum(chain, mid, 8)
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


def _exact(x):
    """A longdouble as an exact mpmath number (mpmath cannot read it directly)."""
    import mpmath
    mant, exp = np.frexp(x)
    return mpmath.ldexp(int(np.ldexp(mant, 64)), int(exp) - 64)


@pytest.mark.parametrize("n", [2, 3, 6, 8, 16, 100])
def test_inverse_power_accuracy(n):
    """Each term within 2n * 2^-64 of d^-n, taken at 40 digits, for the
    distances d > 0 the pairwise kernel passes; +inf gives 0."""
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(n)
    d = np.longdouble(10.0) ** rng.uniform(-3.0, 3.0, 400).astype(np.longdouble)
    d = np.append(d, np.inf)
    got = sums_module._inverse_power(d.copy(), n, np.empty_like(d))
    assert got.dtype == np.longdouble
    assert got[-1] == 0.0
    with mpmath.workdps(40):
        worst = max(abs(_exact(g) / _exact(x) ** -n - 1)
                    for x, g in zip(d[:-1], got[:-1]))
    assert worst <= 2 * n * mpmath.mpf(2) ** -64


@pytest.mark.parametrize("n", [2, 6, 8, 16])
def test_pair_sums_within_one_ulp_of_powl(n, chains):
    """The reciprocal-and-squaring sums stay within one float64 ulp of the
    libm powl evaluation |d| ** -n they replace."""
    chain = chains(500)
    u = chain.positions
    d = np.abs(u[:, None] - u[None, :])
    np.fill_diagonal(d, np.inf)
    powl = (d ** -float(n)).sum(axis=1).astype(float)
    got = pair_sum_exact_all(chain, n)
    assert np.all(np.abs(got - powl) <= np.spacing(powl))


# ----------------------------------------------- per-chain pair-sum cache


def _counting_kernel(monkeypatch):
    """Log each call pair_sum_exact_all makes into the pairwise kernel."""
    calls = []
    real = chain_module._row_sums

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(chain_module, "_row_sums", counted)
    return calls


def _fresh_chain(n=40):
    return IonChain(np.linspace(-3.0, 3.0, n) ** 3 + np.linspace(-3.0, 3.0, n))


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
    pair_sum_exact_all(_fresh_chain(), 8)  # another chain at the same positions
    assert len(calls) == 3


def test_pair_sum_cache_leaves_repr_and_equality_alone():
    chain = _fresh_chain(3)
    before = repr(chain)
    pair_sum_exact_all(chain, 8)
    assert chain.residual > 0  # the cached certificate stays out of the repr too
    assert repr(chain) == before
    assert before.startswith("IonChain(positions=") and "_pair_sums" not in before
    assert chain == chain


def test_replaced_chain_starts_with_an_empty_cache(monkeypatch):
    calls = _counting_kernel(monkeypatch)
    chain = _fresh_chain()
    pair_sum_exact_all(chain, 8)
    other = dataclasses.replace(chain)
    assert other._pair_sums == {}
    assert np.array_equal(pair_sum_exact_all(other, 8), pair_sum_exact_all(chain, 8))
    assert len(calls) == 2


def test_sums_beyond_the_float_range_are_refused(recwarn):
    """A sum that leaves the float range is refused, without a warning,
    and an overflowing exact sum is not memoized on the chain."""
    chain = IonChain([-0.5, 0.0, 0.5])
    with pytest.raises(DomainError):
        pair_sum_exact_all(chain, 5000)
    with pytest.raises(DomainError):
        pair_sum_exact_all(chain, 20000)  # overflows the extended range too
    assert chain._pair_sums == {}
    with pytest.raises(DomainError):
        pair_sum_approx(0.5, 5000)  # s^n underflows to zero
    with pytest.raises(DomainError):
        pair_sum_approx(2.0, 100000)  # s^n overflows
    assert not recwarn.list


def test_pair_sum_validation(chains):
    with pytest.raises(DomainError):
        pair_sum_exact_all(chains(3), 1)
    with pytest.raises(ValidationError):
        pair_sum_approx(-1.0, 8)


def test_chain_total_uniform_gap():
    u = np.arange(40, dtype=float)
    sites = ContinuumSites(sites=u - u.mean(), spacings=np.full(40, 2.0))
    assert chain_total_exact(sites, 8) == pytest.approx(40.0 / 256.0, rel=1e-12)


def test_chain_total_three_ions(chains):
    """A solved chain's total sums its local spacings; the edge ions use
    their single gap, so all three terms are equal."""
    gap = float(chains(3).positions[2])
    total = np.sum(local_spacings(chains(3)) ** -16.0)
    assert total == pytest.approx(3.0 * gap**-16, rel=1e-12)
    assert total == pytest.approx(0.91266, rel=2e-4)


def test_asymptotic_factors():
    n200 = chain_total_asymptotic(200, 8, DU)
    L, s0 = chain_length(200, DU), min_spacing(200, DU)
    assert n200 == pytest.approx((L / s0**9) * np.sqrt(4 * np.pi / 39), rel=1e-14)
    assert np.sqrt(4 * np.pi / 39) == pytest.approx(0.567640, abs=5e-6)
    assert np.sqrt(4 * np.pi / 71) == pytest.approx(0.420703, abs=5e-6)


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
    total = float(np.sum(local_spacings(chains(n_ions)) ** -float(n_exp)))
    ratio = total / chain_total_asymptotic(n_ions, n_exp, DU)
    assert ratio == pytest.approx(DISCRETE_RATIOS[(n_exp, n_ions)], abs=5e-3)
    if n_exp <= 8:
        assert 0.85 < ratio < 1.15


def test_edge_spacing_contribution_negligible(chains):
    """Edge ions use their single gap; for n >= 6 they contribute under
    1e-3 of the total, so the convention cannot matter."""
    for n_ions in (50, 200):
        s = local_spacings(chains(n_ions))
        for n_exp in (6, 16):
            total = np.sum(s ** -float(n_exp))
            edges = s[0] ** -float(n_exp) + s[-1] ** -float(n_exp)
            assert edges / total < 1e-3


def test_chain_total_rejects_other_types(chains):
    """Only predicted sites are summed; a solved chain's total is the sum
    of its local spacings."""
    for other in ([1.0, 2.0], chains(3)):
        with pytest.raises(ValidationError):
            chain_total_exact(other, 8)


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
