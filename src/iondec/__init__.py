"""Decoherence of a trapped-ion chain, from trap scales to scaling laws.

The modules build on each other roughly in this order: physmodel (species,
trap, derived scales) -> chain (discrete equilibrium) / continuum (fluid
spacing profiles) -> sums (inverse-power lattice sums) -> decoherence
(per-ion and aggregate rates, computational window) -> scaling (N scans
and exponent fits).  adiabatic stands alone: it integrates the driven
two-level system that motivates treating dephasing through the
accumulated phase.  The cli module wraps everything in deterministic
CSV-emitting subcommands.

``import iondec`` loads no submodule and not numpy: each name in
``__all__`` is imported from the module that owns it on first access
(PEP 562), so ``iondec.solve_equilibrium`` loads chain and what chain
needs, and nothing else.  Submodules import as usual
(``from iondec import chain``).
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "chain": ("IonChain", "local_spacings", "solve_equilibrium"),
    "continuum": ("ContinuumModel", "chain_length", "min_spacing", "spacing_profile"),
    "decoherence": ("ClosedFormRate", "DecoherenceMode", "DecoherenceReport",
                    "aggregate_tau_vib", "build_report", "closed_form_rate",
                    "fidelity_curve", "per_ion_rates"),
    "errors": ("AccuracyError", "DomainError", "SolverError", "ValidationError"),
    "physmodel": ("CONSTANTS", "DerivedScales", "IonSpecies", "Multipole",
                  "TrapConfig", "derive_scales", "radiative_time"),
    "scaling": ("ScalingSeries", "fit_exponent", "scan"),
    "sums": ("chain_total_asymptotic", "chain_total_exact", "continuum_sites",
             "pair_sum_approx", "zeta"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER)


def __getattr__(name):
    module = _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
