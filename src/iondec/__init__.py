"""Decoherence of a trapped-ion chain, from trap scales to scaling laws.

The modules build on each other roughly in this order: physmodel (species,
trap, derived scales) -> chain (discrete equilibrium) / continuum (fluid
spacing profiles) -> sums (inverse-power lattice sums) -> decoherence
(per-ion and aggregate rates, computational window) -> scaling (N scans
and exponent fits).  adiabatic stands alone: it integrates the driven
two-level system that motivates treating dephasing through the
accumulated phase.  The cli module wraps everything in deterministic
CSV-emitting subcommands.
"""

from .chain import IonChain, local_spacings, solve_equilibrium
from .continuum import ContinuumModel, chain_length, min_spacing, spacing_profile
from .decoherence import (ClosedFormRate, DecoherenceMode, DecoherenceReport,
                          aggregate_tau_vib, build_report, closed_form_rate,
                          fidelity_curve, per_ion_rates)
from .errors import AccuracyError, DomainError, SolverError, ValidationError
from .physmodel import (CONSTANTS, DerivedScales, IonSpecies, Multipole,
                        TrapConfig, derive_scales, radiative_time)
from .scaling import ScalingSeries, fit_exponent, scan
from .sums import (chain_total_asymptotic, chain_total_exact, continuum_sites,
                   pair_sum_approx, pair_sum_exact, zeta)

__version__ = "0.1.0"

__all__ = [
    "AccuracyError", "CONSTANTS", "ClosedFormRate", "ContinuumModel",
    "DecoherenceMode", "DecoherenceReport", "DerivedScales", "DomainError",
    "IonChain", "IonSpecies", "Multipole", "ScalingSeries",
    "SolverError", "TrapConfig", "ValidationError", "aggregate_tau_vib",
    "build_report", "chain_length", "chain_total_asymptotic",
    "chain_total_exact", "closed_form_rate", "continuum_sites",
    "derive_scales", "fidelity_curve", "fit_exponent",
    "local_spacings", "min_spacing", "pair_sum_approx", "pair_sum_exact",
    "per_ion_rates", "radiative_time", "scan",
    "solve_equilibrium", "spacing_profile", "zeta",
]
