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
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ValidationError

EULER_GAMMA = 0.5772156649015329
#: discreteness constant of the fluid model, 6 e^(gamma - 13/5) ~= 0.794
C0_DUBIN = 6.0 * math.exp(EULER_GAMMA - 13.0 / 5.0)


class ContinuumModel(enum.Enum):
    NEAREST_NEIGHBOR = "nearest_neighbor"
    DUBIN_FLUID = "dubin_fluid"


def _check_n(n_ions: int, model: ContinuumModel) -> None:
    if not isinstance(n_ions, (int, np.integer)) or n_ions < 2:
        raise ValidationError("n_ions", f"continuum models need N >= 2, got {n_ions!r}")
    if model is ContinuumModel.DUBIN_FLUID and C0_DUBIN * n_ions <= 1.0:
        raise DomainError(f"DubinFluid needs ln(c0 N) > 0; got N = {n_ions}")


def chain_length(n_ions: int, model: ContinuumModel) -> float:
    """Half-length L of the chain in units of d0."""
    _check_n(n_ions, model)
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
    """Local spacing s(z)/d0 at fractional position z/L in (-1, 1).

    Both models share the shape s(z) = s0/(1 - z^2/L^2); the density
    vanishes at |z| = L, so positions at or beyond the edge are rejected.
    The profile is a bulk result; within ~5% of the edge it should not
    be taken quantitatively.
    """
    x = np.asarray(z_over_L, dtype=float)
    if np.any(np.abs(x) >= 1.0):
        raise DomainError("spacing profile requires |z/L| < 1 (density vanishes at the edge)")
    s0 = min_spacing(n_ions, model)
    out = s0 / (1.0 - x**2)
    return float(out) if np.isscalar(z_over_L) else out


@dataclass(frozen=True)
class MJFit:
    """Cubic fit n(z) = a z - b z^3 to the cumulative ion count.

    a has units 1/d0 (the central line density) and b units 1/d0^3.
    """

    a: float
    b: float

    def __post_init__(self):
        if not (self.a > 0 and self.b > 0):
            raise ValidationError("a", f"fit requires a, b > 0, got a={self.a}, b={self.b}")

    @property
    def edge(self) -> float:
        """Position where the fitted density a - 3 b z^2 would vanish."""
        return math.sqrt(self.a / (3.0 * self.b))

    def invert(self, counts):
        """Solve a z - b z^3 = n for z given cumulative counts |n| <= n(edge).

        Uses the trigonometric root of the depressed cubic that lies on
        the physical branch |z| <= edge.
        """
        n = np.asarray(counts, dtype=float)
        ze = self.edge
        arg = n / (2.0 * self.b * ze**3)
        if np.any(np.abs(arg) > 1.0):
            raise DomainError("cumulative count outside the invertible range of the cubic")
        z = 2.0 * ze * np.sin(np.arcsin(arg) / 3.0)
        return float(z) if np.isscalar(counts) else z


def fit_cubic_counts(z_samples, count_samples) -> MJFit:
    """Least-squares fit of a, b in n(z) = a z - b z^3 to given samples."""
    z = np.asarray(z_samples, dtype=float)
    n = np.asarray(count_samples, dtype=float)
    if z.size < 4:
        raise ValidationError("z_samples", "need at least 4 samples to fit two coefficients")
    design = np.column_stack([z, -z**3])
    gram = design.T @ design
    if np.linalg.cond(gram) > 1e12:
        raise DomainError("singular normal equations in cubic count fit")
    coeffs, *_ = np.linalg.lstsq(design, n, rcond=None)
    return MJFit(a=float(coeffs[0]), b=float(coeffs[1]))


def fit_mj(n_ions: int, model: ContinuumModel, samples: int = 401) -> MJFit:
    """Fit the cubic count model to a continuum model's cumulative count.

    The count n(z) = integral_0^z dz'/s(z') = (1/s0)(z - z^3/(3 L^2)) is
    sampled on |z| <= 0.95 L, inside the profile's validity region.  The
    fit is over the model class that contains the target, so it recovers
    a = 1/s0 and b = 1/(3 s0 L^2) up to round-off; the operation exists
    to mirror the fit-then-invert workflow used for discrete chains.
    """
    if n_ions < 25:
        raise ValidationError("n_ions", f"cubic count fit is meaningful for N >= 25, got {n_ions}")
    L = chain_length(n_ions, model)
    s0 = min_spacing(n_ions, model)
    z = np.linspace(-0.95 * L, 0.95 * L, samples)
    counts = (z - z**3 / (3.0 * L**2)) / s0
    return fit_cubic_counts(z, counts)
