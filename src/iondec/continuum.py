"""Closed-form continuum models of the ion chain.

Two models share the spacing profile s(z) = s0/(1 - z^2/L^2) and differ
only in how L and s0 depend on N:

* NearestNeighbor — force balance against nearest neighbours only,
  L = (pi^2 N / 2)^(1/3), s0 = 2 pi^2 / L^2 = 6.81 N^(-2/3).
* DubinFluid — charged-fluid model with a discreteness correction,
  L = (3 N ln(c0 N))^(1/3) with c0 = 6 e^(gamma - 13/5), s0 = 4L/3N.

All lengths are dimensionless (units of the trap scale d0).  DubinFluid
is the one model of the rates, reports and scans downstream: at N = 1000
it reproduces the known ~0.5 um central spacing for a Ba+ trap (0.496 um
on the ba_example preset), the nearest-neighbour normalization does not
(0.932 um).  Its density 1/s(z) integrates over [-L, L] to 4L/(3 s0) =
2L^3/(3 pi^2) = N/3, so it describes a third of the ions and puts the
centre gap ~1.9x too wide; it is kept as a comparison only (the profile
functions here, chain_total_asymptotic and the ``continuum`` subcommand),
and continuum_sites refuses it.

invert_cubic_count inverts the cumulative count n(z) = (z - z^3/3L^2)/s0
of this profile in closed form.  It is the one site inversion of the
package: sums.continuum_sites places ion sites with it, and the
equilibrium solver starts from those sites for N >= 10.
"""
from __future__ import annotations

import enum
import math

from .errors import DomainError, check_instance, check_integer, in_float_range

EULER_GAMMA = 0.5772156649015329
#: discreteness constant of the fluid model, 6 e^(gamma - 13/5) ~= 0.794
C0_DUBIN = 6.0 * math.exp(EULER_GAMMA - 13.0 / 5.0)


class ContinuumModel(enum.Enum):
    NEAREST_NEIGHBOR = "nearest_neighbor"
    DUBIN_FLUID = "dubin_fluid"


def chain_length(n_ions: int, model: ContinuumModel) -> float:
    """Half-length L of the chain in units of d0, for N >= 2 ions.  Every
    function that takes a model reaches it here, where anything but a
    ContinuumModel is refused."""
    n_ions = check_integer("n_ions", n_ions, 2)
    check_instance("model", model, ContinuumModel)
    return in_float_range(
        "the ion count puts the chain half-length L outside the float range",
        lambda: (math.pi**2 * n_ions / 2.0 if model is ContinuumModel.NEAREST_NEIGHBOR
                 else 3.0 * n_ions * math.log(C0_DUBIN * n_ions)) ** (1.0 / 3.0))


def min_spacing(n_ions: int, model: ContinuumModel) -> float:
    """Central (minimum) ion spacing s0 in units of d0, for N >= 2 ions."""
    return _length_and_spacing(n_ions, model)[1]


def _length_and_spacing(n_ions: int, model: ContinuumModel) -> tuple[float, float]:
    """(L, s0) from one chain_length, for the callers that need both."""
    n_ions = check_integer("n_ions", n_ions, 2)
    L = chain_length(n_ions, model)
    if model is ContinuumModel.NEAREST_NEIGHBOR:
        return L, 2.0 * math.pi**2 / L**2
    return L, 4.0 * L / (3.0 * n_ions)


def _profile(s0, x):
    """Local spacing s(z)/d0 = s0/(1 - x^2) at x = z/L in (-1, 1), a float or
    an array, for either model's central spacing s0.

    The density vanishes at |z| = L, so the profile is a bulk result:
    within ~5% of the edge it should not be taken quantitatively.  x * x
    is how numpy evaluates x**2, so float and array rows round alike.
    """
    return s0 / (1.0 - x * x)


def invert_cubic_count(counts, length: float, s0: float):
    """Sites z whose cumulative count (z - z^3/(3 L^2))/s0 equals ``counts``.

    The trigonometric root z = 2 L sin(arcsin(3 s0 n/(2 L))/3) of the
    depressed cubic, the one on the physical branch |z| <= L.  A count
    with |3 s0 n/(2 L)| > 1 lies beyond what the density holds up to the
    edge and raises DomainError.
    """
    import numpy as np

    arg = 3.0 * s0 * counts / (2.0 * length)
    if np.any(np.abs(arg) > 1.0):
        raise DomainError("cumulative count exceeds what the density holds on "
                          "|z| <= L; the cubic has no site for it")
    return 2.0 * length * np.sin(np.arcsin(arg) / 3.0)
