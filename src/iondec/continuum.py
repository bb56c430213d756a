"""Closed-form continuum models of the ion chain.

Two models share the spacing profile s(z) = s0/(1 - z^2/L^2) and differ
only in how L and s0 depend on N:

* NearestNeighbor — force balance against nearest neighbours only,
  L = (pi^2 N / 2)^(1/3), s0 = 2 pi^2 / L^2 = 6.81 N^(-2/3).
* DubinFluid — charged-fluid model with a discreteness correction,
  L = (3 N ln(c0 N))^(1/3) with c0 = 6 e^(gamma - 13/5), s0 = 4L/3N.

All lengths are dimensionless (units of the trap scale d0).  DubinFluid
is the default everywhere downstream: at N = 1000 it reproduces the
known ~0.5 um central spacing for a Ba+ trap (0.496 um on the ba_example
preset), the nearest-neighbour normalization does not (0.932 um).  Its
density 1/s(z) integrates over [-L, L] to 4L/(3 s0) = 2L^3/(3 pi^2) = N/3,
so it describes a third of the ions and puts the centre gap ~1.9x too wide.

invert_cubic_count inverts the cumulative count n(z) = (z - z^3/3L^2)/s0
of this profile in closed form.  It is the one site inversion of the
package: sums.continuum_sites places ion sites with it, and the
equilibrium solver starts from those sites for N >= 10.

Only spacing_profile and invert_cubic_count take arrays; they import numpy
when called, so the scalar functions (and the CLI calls that use only them,
``continuum`` among them, through _profile) never load it.
"""
from __future__ import annotations

import enum
import math
import numbers

from .errors import DomainError, ValidationError

EULER_GAMMA = 0.5772156649015329
#: discreteness constant of the fluid model, 6 e^(gamma - 13/5) ~= 0.794
C0_DUBIN = 6.0 * math.exp(EULER_GAMMA - 13.0 / 5.0)


class ContinuumModel(enum.Enum):
    NEAREST_NEIGHBOR = "nearest_neighbor"
    DUBIN_FLUID = "dubin_fluid"


def chain_length(n_ions: int, model: ContinuumModel) -> float:
    """Half-length L of the chain in units of d0."""
    if not isinstance(n_ions, numbers.Integral) or n_ions < 2:
        raise ValidationError("n_ions", f"continuum models need N >= 2, got {n_ions!r}")
    if model is ContinuumModel.NEAREST_NEIGHBOR:
        return (math.pi**2 * n_ions / 2.0) ** (1.0 / 3.0)
    return (3.0 * n_ions * math.log(C0_DUBIN * n_ions)) ** (1.0 / 3.0)


def min_spacing(n_ions: int, model: ContinuumModel) -> float:
    """Central (minimum) ion spacing s0 in units of d0."""
    L = chain_length(n_ions, model)
    if model is ContinuumModel.NEAREST_NEIGHBOR:
        return 2.0 * math.pi**2 / L**2
    return 4.0 * L / (3.0 * n_ions)


def spacing_profile(z_over_L, n_ions: int, model: ContinuumModel):
    """Local spacing s(z)/d0 at fractional positions z/L in (-1, 1), as an array.

    Both models share the shape s(z) = s0/(1 - z^2/L^2); the density
    vanishes at |z| = L, so positions at or beyond the edge are rejected.
    The profile is a bulk result; within ~5% of the edge it should not
    be taken quantitatively.
    """
    import numpy as np

    x = np.asarray(z_over_L, dtype=float)
    if np.any(np.abs(x) >= 1.0):
        raise DomainError("spacing profile requires |z/L| < 1 (density vanishes at the edge)")
    return _profile(min_spacing(n_ions, model), x)


def _profile(s0, x):
    """s0/(1 - x^2) at a float or an array x = z/L: the one formula of the
    profile, so the CLI's float rows get spacing_profile's bits (numpy
    evaluates x**2 as x * x)."""
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
