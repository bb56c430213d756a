"""Physical constants, ion species and trap parameters, and derived scales.

Everything downstream works in SI internally.  The literature's
Gaussian-units charge squared is represented as ``q2_coul = q^2/(4 pi
eps0)`` (joule meters), which keeps the micrometre-scale cross-checks
free of unit ambiguity.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import (ValidationError, check_instance, check_integer, check_positive,
                     in_float_range)


@dataclass(frozen=True)
class PhysicalConstants:
    """CODATA 2018 values, the single source of truth for the package."""

    hbar: float = 1.054571817e-34        # J s
    c_light: float = 299792458.0         # m / s (defined)
    epsilon0: float = 8.8541878128e-12   # F / m
    atomic_mass: float = 1.66053906660e-27  # kg
    elementary_charge: float = 1.602176634e-19  # C (defined)


CONSTANTS = PhysicalConstants()

#: Largest ion count of chain.solve_equilibrium, which re-exports it; it
#: lives here so that the CLI reads it without loading numpy.  It is the
#: largest count that certifies with room to spare: the dense Newton solve
#: certifies at N = 3000 (~6e-13) and 3500 (~8e-13), but from N ~ 3750 its
#: line search stalls above chain.DEFAULT_TOL.
MAX_IONS = 3000


class Multipole(enum.Enum):
    """Transition type; sets the exponent p of the 1/r^p perturbing coupling."""

    E1 = "E1"
    E2 = "E2"

    @property
    def pair_exponent(self) -> int:
        return 3 if self is Multipole.E1 else 4


@dataclass(frozen=True)
class IonSpecies:
    """One ion type: charge, mass, and optical-transition data.

    Parameters
    ----------
    name : str
        Label only; not interpreted.
    mass : float
        Ion mass in kilograms.
    charge : float
        Ion charge in coulombs.
    omega0 : float
        Optical transition angular frequency, rad/s.
    tau_s : float
        Spontaneous lifetime of the upper level, seconds.
    multipole : Multipole
        E1 or E2; selects the coupling exponent p = 3 or 4.
    qsq_constant : float
        Constant c of the lifetime convention Q^2 = c hbar/(tau_s k0^(2p-3))
        for the squared multipole moment (default 1).
    """

    name: str
    mass: float
    charge: float
    omega0: float
    tau_s: float
    multipole: Multipole
    qsq_constant: float = 1.0

    def __post_init__(self):
        check_positive("mass", self.mass)
        check_positive("charge", self.charge)
        check_positive("omega0", self.omega0)
        check_positive("tau_s", self.tau_s)
        check_positive("qsq_constant", self.qsq_constant)
        check_instance("multipole", self.multipole, Multipole)

    @classmethod
    def from_lab_units(cls, name: str, mass_amu: float, charge_e: float,
                       f0_hz: float, tau_s_s: float,
                       multipole: Multipole,
                       qsq_constant: float = 1.0) -> "IonSpecies":
        """Build from laboratory units: amu, elementary charges, and hertz.

        Frequencies are quoted as ordinary frequencies (omega/2pi), matching
        the usual \"omega_z/2pi = 100 kHz\" style of lab reporting.
        """
        check_positive("mass_amu", mass_amu)
        check_positive("charge_e", charge_e)
        check_positive("f0_hz", f0_hz)
        check_positive("tau_s_s", tau_s_s)
        return cls(
            name=name,
            mass=mass_amu * CONSTANTS.atomic_mass,
            charge=charge_e * CONSTANTS.elementary_charge,
            omega0=2.0 * math.pi * f0_hz,
            tau_s=tau_s_s,
            multipole=multipole,
            qsq_constant=qsq_constant,
        )


@dataclass(frozen=True)
class TrapConfig:
    """Axial/transverse secular frequencies (rad/s) and the ion count, an
    integer >= 1 kept as a Python int."""

    omega_z: float
    omega_t: float
    n_ions: int

    def __post_init__(self):
        check_positive("omega_z", self.omega_z)
        check_positive("omega_t", self.omega_t)
        if not self.omega_t > self.omega_z:
            raise ValidationError(
                "omega_t",
                f"omega_t must exceed omega_z, the linear-chain bound at "
                f"N = 2; longer chains need a stiffer transverse trap "
                f"(got {self.omega_t} <= {self.omega_z})")
        object.__setattr__(self, "n_ions", check_integer("n_ions", self.n_ions, 1))

    @classmethod
    def from_lab_units(cls, fz_hz: float, ft_hz: float, n_ions: int) -> "TrapConfig":
        check_positive("fz_hz", fz_hz)
        check_positive("ft_hz", ft_hz)
        return cls(omega_z=2.0 * math.pi * fz_hz,
                   omega_t=2.0 * math.pi * ft_hz,
                   n_ions=n_ions)


@dataclass(frozen=True)
class DerivedScales:
    """Length/wavenumber scales derived from a species and a trap.

    d0 : trap length scale, meters; d0^3 * m * omega_z^2 = q2_coul exactly.
    k0 : transition wavenumber omega0/c, 1/m.
    q2_coul : charge^2/(4 pi eps0), joule meters.
    q_sq : squared multipole matrix element under the lifetime convention,
           joule meters^5 for E2 (quadrupole) or joule meters^3 for E1.
    """

    d0: float
    k0: float
    q2_coul: float
    q_sq: float


def derive_scales(species: IonSpecies, trap: TrapConfig) -> DerivedScales:
    """Compute DerivedScales for a species in a trap.

    The squared multipole moment is tied to the spontaneous lifetime by
    Q^2 = c * hbar / (tau_s * k0^(2p-3)), i.e. c hbar/(tau_s k0^5) for a
    quadrupole (p = 4) and c hbar/(tau_s k0^3) for a dipole (p = 3).  The
    proportionality constant c is an order-of-magnitude convention, the
    species' ``qsq_constant`` (default 1).  Inputs that put any of the
    four scales outside the positive float range raise DomainError.
    """
    check_instance("species", species, IonSpecies)
    check_instance("trap", trap, TrapConfig)

    def scales():
        q2_coul = species.charge**2 / (4.0 * math.pi * CONSTANTS.epsilon0)
        d0 = (q2_coul / (species.mass * trap.omega_z**2)) ** (1.0 / 3.0)
        k0 = species.omega0 / CONSTANTS.c_light
        p = species.multipole.pair_exponent
        q_sq = species.qsq_constant * CONSTANTS.hbar / (species.tau_s * k0 ** (2 * p - 3))
        return d0, k0, q2_coul, q_sq
    return DerivedScales(*in_float_range("the species and trap put a derived scale (d0, k0, "
                                         "q2_coul or q_sq) outside the float range", scales))


def radiative_time(species: IonSpecies, n_ions: int) -> float:
    """Radiative decoherence window of an N-ion register: 2 tau_s / N."""
    check_instance("species", species, IonSpecies)
    n_ions = check_integer("n_ions", n_ions, 1)
    return in_float_range("the ion count puts tau_rad = 2 tau_s / N outside the "
                          "float range", lambda: 2.0 * species.tau_s / n_ions)


def qsq_convention_stamp(species: IonSpecies) -> str:
    """Human-readable record of the species' Q^2 convention."""
    p = species.multipole.pair_exponent
    symbol = "Q^2" if species.multipole is Multipole.E2 else "D^2"
    return (f"{symbol} = {species.qsq_constant:g} * hbar/(tau_s * k0^{2 * p - 3}) "
            f"({species.multipole.value} lifetime convention)")
