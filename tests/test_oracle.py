"""A truth oracle for the equilibrium chain and its pair sums.

The chain solved by the library is compared with the true chain, a
40-digit mpmath Newton solve (dense mp.lu_solve) of the same force
balance started from the library's positions.  The force's Jacobian is
1 plus a positive semi-definite matrix, so its smallest eigenvalue is at
least 1 and a position is off by no more than the force residual allows:
max|du| <= ||F||_2 <= sqrt(N) * residual.  A pair sum S_n is then off, in
relative terms, by at most n * 2 max|du| / (smallest gap) to first order.
Both bounds get 1e-15 of room for the float64 rounding of what is
compared.  Moving one ion by 1e-12 must break the position bound of the
unperturbed solve's certificate, so the oracle is shown to see an error
of that size.

The per-ion rates are held to the same bound plus RATE_SLACK: the
reference assembles q2 Q^2/(2 pi hbar m w0 w_t) S_2p(i)/d0^2p in mp from
the float fields of the species, the trap and the constants, with the
true S_2p, so only the library's float64 assembly adds to the sums'
error.  A prefactor moved by 1e-12 must break that bound.
"""
import math

import numpy as np
import pytest

from iondec.decoherence import per_ion_rates
from iondec.physmodel import CONSTANTS, QSQ_CONSTANT, TrapConfig
from iondec.sums import pair_sum_exact_all

mpmath = pytest.importorskip("mpmath")
mp = mpmath.mp

DIGITS = 40
SIZES = (2, 3, 5, 10, 11, 20, 38)
EXPONENTS = (6, 8, 16)
SLACK = 1e-15
RATE_SIZES = (2, 3, 5, 10)
RATE_SLACK = 1e-14


def _exact(x):
    """A longdouble as an exact mpmath number (mpmath cannot read it directly)."""
    mant, exp = np.frexp(x)
    return mpmath.ldexp(int(np.ldexp(mant, 64)), int(exp) - 64)


def _force(u):
    """F_i = u_i - sum_j sign(u_i - u_j)/(u_i - u_j)^2, in mp."""
    return [u[i] - sum(mpmath.sign(u[i] - u[j]) / (u[i] - u[j]) ** 2
                       for j in range(len(u)) if j != i)
            for i in range(len(u))]


def _jacobian(u):
    """dF_i/du_j: -2/|u_i - u_j|^3 off the diagonal, 1 minus the row's
    other entries on it."""
    n = len(u)
    jac = mpmath.matrix(n, n)
    for i in range(n):
        for j in range(n):
            if j != i:
                jac[i, j] = -2 / abs(u[i] - u[j]) ** 3
        jac[i, i] = 1 - sum(jac[i, j] for j in range(n) if j != i)
    return jac


def _true_chain(start):
    """The chain's positions to DIGITS digits, by Newton from ``start``."""
    u = [_exact(x) for x in start]
    for _ in range(6):
        f = _force(u)
        if max(abs(x) for x in f) < mpmath.mpf(10) ** (5 - DIGITS):
            return u
        step = mpmath.lu_solve(_jacobian(u), mpmath.matrix(f))
        u = [x - step[i] for i, x in enumerate(u)]
    raise AssertionError("the mp Newton solve did not reach its digits")


def _pair_sums(u, n):
    return [sum(abs(u[i] - u[j]) ** -n for j in range(len(u)) if j != i)
            for i in range(len(u))]


@pytest.fixture(scope="module")
def oracle(chains):
    """N -> (the library's chain, the true positions), solved on first use."""
    cache = {}

    def get(n_ions):
        if n_ions not in cache:
            chain = chains(n_ions)
            with mp.workdps(DIGITS):
                cache[n_ions] = chain, _true_chain(chain.positions)
        return cache[n_ions]
    return get


def _position_error(positions, truth):
    with mp.workdps(DIGITS):
        return float(max(abs(_exact(x) - t) for x, t in zip(positions, truth)))


@pytest.mark.parametrize("n_ions", SIZES)
def test_positions_are_within_the_certificate_of_the_truth(n_ions, oracle):
    chain, truth = oracle(n_ions)
    error = _position_error(chain.positions, truth)
    assert error <= math.sqrt(n_ions) * chain.residual + SLACK


@pytest.mark.parametrize("n_ions", SIZES)
def test_pair_sums_are_within_the_position_error_of_the_truth(n_ions, oracle):
    chain, truth = oracle(n_ions)
    error = _position_error(chain.positions, truth)
    gap = float(np.min(np.diff(chain.positions)))
    for n in EXPONENTS:
        got = pair_sum_exact_all(chain, n)
        with mp.workdps(DIGITS):
            relative = max(abs(mpmath.mpf(float(g)) / t - 1)
                           for g, t in zip(got, _pair_sums(truth, n)))
        assert float(relative) <= 2 * n * error / gap + SLACK, n


def test_an_ion_moved_by_1e_12_breaks_the_position_bound(oracle):
    chain, truth = oracle(10)
    moved = chain.positions.copy()
    moved[0] -= np.longdouble(1e-12)
    error = _position_error(moved, truth)
    assert error > math.sqrt(10) * chain.residual + SLACK


def _true_rates(truth, species, trap):
    """Each ion's q2 Q^2/(2 pi hbar m w0 w_t) S_2p(i)/d0^2p, in mp from the
    float fields of the species, the trap and the constants and from the
    true positions."""
    mass, omega0, hbar = (mpmath.mpf(x) for x in (species.mass, species.omega0,
                                                  CONSTANTS.hbar))
    q2 = mpmath.mpf(species.charge) ** 2 / (4 * mp.pi * mpmath.mpf(CONSTANTS.epsilon0))
    d0 = mpmath.cbrt(q2 / (mass * mpmath.mpf(trap.omega_z) ** 2))
    k0 = omega0 / mpmath.mpf(CONSTANTS.c_light)
    p = species.multipole.pair_exponent
    q_sq = mpmath.mpf(QSQ_CONSTANT) * hbar / (mpmath.mpf(species.tau_s) * k0 ** (2 * p - 3))
    prefactor = q2 * q_sq / (2 * mp.pi * hbar * mass * omega0 * mpmath.mpf(trap.omega_t))
    return [prefactor * s / d0 ** (2 * p) for s in _pair_sums(truth, 2 * p)]


def _rate_error_and_bound(n_ions, species, oracle, scale=1.0):
    """(max relative error of scale * per_ion_rates against the truth, the
    bound it must keep): the pair sums' bound for S_2p plus RATE_SLACK."""
    chain, truth = oracle(n_ions)
    trap = TrapConfig.from_lab_units(fz_hz=1e5, ft_hz=2e7, n_ions=n_ions)
    got = scale * per_ion_rates(chain, species, trap)
    error = _position_error(chain.positions, truth)
    gap = float(np.min(np.diff(chain.positions)))
    bound = 2 * 2 * species.multipole.pair_exponent * error / gap + SLACK + RATE_SLACK
    with mp.workdps(DIGITS):
        relative = max(abs(mpmath.mpf(float(g)) / t - 1)
                       for g, t in zip(got, _true_rates(truth, species, trap)))
    return float(relative), bound


@pytest.mark.parametrize("multipole", ["ba", "ba_e1"])
@pytest.mark.parametrize("n_ions", RATE_SIZES)
def test_per_ion_rates_are_within_the_pair_sum_bound_of_the_truth(n_ions, multipole,
                                                                   oracle, request):
    error, bound = _rate_error_and_bound(n_ions, request.getfixturevalue(multipole), oracle)
    assert error <= bound


@pytest.mark.parametrize("multipole", ["ba", "ba_e1"])
def test_a_prefactor_moved_by_1e_12_breaks_the_rate_bound(multipole, oracle, request):
    error, bound = _rate_error_and_bound(10, request.getfixturevalue(multipole), oracle,
                                         scale=1.0 + 1e-12)
    assert error > bound
