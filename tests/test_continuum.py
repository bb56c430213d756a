import numpy as np
import pytest

from iondec.continuum import (C0_DUBIN, ContinuumModel, _invert_cubic_count,
                              _length_and_spacing, _profile, chain_length, min_spacing)
from iondec.errors import ValidationError
from iondec.sums import continuum_sites

NN = ContinuumModel.NEAREST_NEIGHBOR
DU = ContinuumModel.DUBIN_FLUID


def test_c0_closed_form():
    assert C0_DUBIN == pytest.approx(6.0 * np.exp(0.5772156649015329 - 2.6),
                                     rel=1e-15)
    assert C0_DUBIN == pytest.approx(0.7937197292579262, rel=1e-15)


def test_chain_length_frozen_values():
    assert chain_length(1000, NN) == pytest.approx(17.02510961, rel=1e-9)
    assert chain_length(1000, DU) == pytest.approx(27.1578279, rel=1e-9)
    # the same number quoted with c0 rounded to 0.8 is 27.168; exact c0
    # lands 0.04% below that
    assert chain_length(1000, DU) == pytest.approx(27.168, rel=1e-3)


def test_chain_length_closed_forms():
    n = 345
    assert chain_length(n, NN) == pytest.approx((np.pi**2 * n / 2) ** (1 / 3),
                                                rel=1e-14)
    assert chain_length(n, DU) == pytest.approx(
        (3 * n * np.log(C0_DUBIN * n)) ** (1 / 3), rel=1e-14)


def test_min_spacing_frozen_values():
    assert min_spacing(1000, NN) == pytest.approx(0.06810043843, rel=1e-9)
    assert min_spacing(1000, DU) == pytest.approx(0.03621043721, rel=1e-9)


def test_min_spacing_equivalent_forms():
    for n in (10, 100, 1000):
        L = chain_length(n, NN)
        assert min_spacing(n, NN) == pytest.approx(2 * np.pi**2 / L**2, rel=1e-14)
        assert min_spacing(n, NN) == pytest.approx(6.81 * n ** (-2 / 3), rel=1e-3)
        assert min_spacing(n, DU) == pytest.approx(
            4 * chain_length(n, DU) / (3 * n), rel=1e-14)


def test_length_monotone_in_n():
    for model in (NN, DU):
        lengths = [chain_length(n, model) for n in range(2, 400, 7)]
        assert np.all(np.diff(lengths) > 0)


@pytest.mark.parametrize("n", [np.int64(1000), np.int32(1000), np.uint16(1000)],
                         ids=lambda n: type(n).__name__)
def test_numpy_integer_ion_counts_accepted(n):
    for model in (NN, DU):
        assert chain_length(n, model) == chain_length(1000, model)


@pytest.mark.parametrize("bad", [1, 0, -5, True, False, 1000.0, np.float64(1000.0),
                                 np.bool_(True), "1000"])
def test_model_needs_two_ions(bad):
    with pytest.raises(ValidationError):
        chain_length(bad, DU)
    with pytest.raises(ValidationError):
        min_spacing(bad, NN)


def test_profile_center_and_shape():
    n = 200
    s0 = min_spacing(n, DU)
    assert _profile(s0, np.array([0.0, 0.5])) == pytest.approx(
        [s0, 4 * s0 / 3], rel=1e-14)
    x = np.linspace(-0.95, 0.95, 191)
    prof = _profile(s0, x)
    assert np.allclose(prof, prof[::-1], rtol=1e-13)       # even in z
    assert np.argmin(prof) == 95                           # minimal at center


def test_profile_vs_discrete_mid_gap(chains):
    """The fluid spacing evaluated at the central mid-gap of the solved
    N = 100 chain agrees with that gap to a few percent."""
    u = chains(100).positions.astype(float)
    gap = u[50] - u[49]
    mid = 0.5 * (u[50] + u[49])
    prof = _profile(min_spacing(100, DU), mid / chain_length(100, DU))
    assert prof == pytest.approx(gap, rel=0.10)
    assert abs(prof / gap - 1.0) == pytest.approx(0.029, abs=0.01)


def test_two_ion_gap_factor(chains):
    """Only the fluid model lands within a factor two of the true N = 2
    gap; the nearest-neighbor normalization overshoots by ~3.4x."""
    gap = float(np.diff(chains(2).positions.astype(float))[0])
    assert gap == pytest.approx(2.0 ** (1 / 3), rel=1e-10)
    dubin = min_spacing(2, DU)
    assert 0.5 < dubin / gap < 2.0
    assert min_spacing(2, NN) / gap == pytest.approx(3.405, abs=0.01)


def test_count_integral():
    """The fluid density integrates to exactly N; the nearest-neighbor
    profile with the 6.81 normalization integrates to N/3."""
    for n in (100, 1000):
        x = np.linspace(-1.0, 1.0, 200_001)
        for model, expected in ((DU, float(n)), (NN, n / 3.0)):
            L = chain_length(n, model)
            dens = (1.0 - x**2) / min_spacing(n, model)
            integral = np.trapezoid(dens, x) * L
            assert integral == pytest.approx(expected, rel=1e-8)
            # closed form of the same integral
            assert 4 * L / (3 * min_spacing(n, model)) == pytest.approx(
                expected, rel=1e-12)


def test_s0_ratio_is_logarithmic():
    for n in (100, 1000, 10000):
        ratio = min_spacing(n, NN) / min_spacing(n, DU)
        predicted = (6.81 / 1.92) * np.log(0.8 * n) ** (-1 / 3)
        assert ratio == pytest.approx(predicted, rel=5e-3)


def test_invert_roundtrip_and_range():
    """n = 2z - z^3 is the count (z - z^3/(3 L^2))/s0 at s0 = 1/2, L^2 = 2/3.
    On the Dubin fluid's (L, s0) for N ions, the centred counts |m| <=
    (N - 1)/2 that both callers pass each have a site, in order, inside
    (-L, L)."""
    length, s0 = np.sqrt(2.0 / 3.0), 0.5
    for z in (-0.7, 0.0, 0.4, 0.77):
        assert _invert_cubic_count(2.0 * z - z**3, length, s0) == pytest.approx(z, abs=1e-12)
    for n in (2, 10, 11, 300, 1500):
        length, s0 = _length_and_spacing(n, DU)
        z = _invert_cubic_count(np.arange(n) - (n - 1) / 2.0, length, s0)
        assert np.all(np.abs(z) < length) and np.all(np.diff(z) > 0)


def test_inverted_cubic_reproduces_positions(chains):
    """The fluid count function, inverted at half-integer indices, lands on
    the solved N = 100 positions to about 5%."""
    u = chains(100).positions.astype(float)
    predicted = continuum_sites(100, DU).sites
    mask = np.abs(u) > 0.1
    rel = np.max(np.abs(predicted[mask] - u[mask]) / np.abs(u[mask]))
    assert rel < 0.05
    assert rel == pytest.approx(0.0486, abs=0.003)
