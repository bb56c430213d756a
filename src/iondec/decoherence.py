"""Per-ion and aggregate vibrational decoherence, and the combined window.

A displaced neighbor shifts an ion's transition frequency through the
1/r^p coupling; averaging the squared shift over uncorrelated zero-point
transverse motion gives the per-ion dephasing rate

    tau_i^-1 = [q2_coul * Q_sq / (2 pi hbar m w0 w_t)] * S_2p(i) / d0^2p,

and the chain dephases with tau_vib^-2 = sum_i tau_i^-2.  Radiative
decay contributes tau_rad = 2 tau_s / N, and the computational window
adds the two as rates.  The closed-form route replaces the per-ion sum
by its continuum evaluation 2 zeta(2p) sqrt(T_4p) on the Dubin fluid
model, the one model the rates use.  It is scalar
arithmetic: only the functions that take or return arrays import numpy,
when called, so closed_form_rate and the closed-form report load none.
"""
from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .continuum import ContinuumModel, _length_and_spacing
from .errors import (ValidationError, check_instance, check_integer, check_reals,
                     in_float_range)
from .physmodel import (CONSTANTS, IonSpecies, TrapConfig, derive_scales,
                        qsq_convention_stamp, radiative_time)
from .sums import _total_asymptotic, pair_sum_exact_all, zeta

if TYPE_CHECKING:
    import numpy as np

    from .chain import IonChain


class DecoherenceMode(enum.Enum):
    DISCRETE_SUM = "discrete_sum"
    CONTINUUM_CLOSED_FORM = "continuum_closed_form"


def _prefactor(species: IonSpecies, trap: TrapConfig) -> tuple[float, float]:
    """(q2_coul*Q_sq/(2 pi hbar m w0 w_t) in m^2p/s, d0 in m), from one
    derive_scales.

    The prefactor times a pair sum in SI units (S_2p/d0^2p, units m^-2p)
    is a rate in 1/s.  A species and trap that put it outside the
    positive float range are refused with DomainError.
    """
    scales = derive_scales(species, trap)
    prefactor = in_float_range(
        "the species and trap put the vibrational prefactor outside the float range",
        lambda: (scales.q2_coul * scales.q_sq
                 / (2.0 * math.pi * CONSTANTS.hbar * species.mass
                    * species.omega0 * trap.omega_t)))
    return prefactor, scales.d0


def per_ion_rates(chain: IonChain, species: IonSpecies, trap: TrapConfig) -> np.ndarray:
    """All per-ion rates at once (the pair sums share one O(N^2) pass).

    A chain of N >= 2 ions whose trap puts any rate outside the float
    range (zero after underflow, or not finite) is refused with
    DomainError, as closed_form_rate refuses its aggregate.
    """
    from .chain import IonChain

    check_instance("chain", chain, IonChain)
    check_instance("species", species, IonSpecies)
    check_instance("trap", trap, TrapConfig)
    if chain.n_ions != trap.n_ions:
        raise ValidationError(
            "chain", f"chain has {chain.n_ions} ions but the trap is configured "
            f"for {trap.n_ions}")
    import numpy as np

    if chain.n_ions == 1:
        return np.zeros(1)
    pref, d0 = _prefactor(species, trap)
    two_p = 2 * species.multipole.pair_exponent
    sums = pair_sum_exact_all(chain, two_p)
    return in_float_range(f"N = {chain.n_ions}, d0 = {d0!r} m put a per-ion "
                          "rate outside the float range",
                          lambda: pref * sums / d0 ** two_p)


def aggregate_tau_vib(per_ion: np.ndarray | list) -> float:
    """tau_vib from tau_vib^-2 = sum of squared rates; +inf if all vanish.

    The rates pass errors.check_reals and are >= 0.  A sum of squares
    outside the normal float range (rates below ~1e-154 or above ~1e154)
    is taken again on rates scaled by their maximum; every other input
    keeps the direct sum's bits.
    """
    import numpy as np

    rates = check_reals("per_ion", per_ion)
    if np.any(rates < 0):
        raise ValidationError("per_ion", "rates must be >= 0")
    with np.errstate(over="ignore"):
        total_sq = float(np.sum(rates**2))
    if sys.float_info.min <= total_sq < math.inf:
        return total_sq ** -0.5
    scale = float(np.max(rates))
    if scale == 0.0:
        return math.inf
    return 1.0 / (scale * math.sqrt(float(np.sum((rates / scale) ** 2))))


@dataclass(frozen=True)
class FidelityCurve:
    """Exact product fidelity next to its Gaussian approximation.

    Row k of each column is the value at the caller's k-th time.
    """

    product: np.ndarray
    gaussian: np.ndarray


def fidelity_curve(per_ion: np.ndarray | list, times: np.ndarray | list) -> FidelityCurve:
    """prod_i cos^2(t/tau_i) and exp(-t^2/tau_vib^2) at each time of
    ``times`` (errors.check_reals, may be empty, >= 0), one row per time.
    A time whose product with a rate overflows raises DomainError."""
    import numpy as np

    rates = check_reals("per_ion", per_ion)
    t = check_reals("times", times, least=0)
    if np.any(t < 0):
        raise ValidationError("times", "must be >= 0")
    tau_vib = aggregate_tau_vib(rates)
    product, gaussian = in_float_range(
        "a time times a per-ion rate leaves the float range",
        lambda: (np.prod(np.cos(np.outer(t, rates)) ** 2, axis=1),
                 np.ones_like(t) if math.isinf(tau_vib) else np.exp(-(t / tau_vib) ** 2)),
        allow_zero=True)
    return FidelityCurve(product=product, gaussian=gaussian)


@dataclass(frozen=True)
class ClosedFormRate:
    """Continuum evaluation of the aggregate rate, 1/s.

    full keeps every constant (2 zeta(2p) and the chain-total integral);
    bare is the order-of-magnitude form sqrt(N) * prefactor / s0^2p that
    drops them.  Both are reported side by side on purpose: the gap
    between them is exactly the O(1)-factor bookkeeping.
    """

    full: float
    bare: float


def closed_form_rate(n_ions: int, species: IonSpecies, trap: TrapConfig) -> ClosedFormRate:
    """Aggregate vibrational rate from the Dubin fluid's chain totals, N >= 2."""
    n_ions = check_integer("n_ions", n_ions, 2)
    pref, d0 = _prefactor(species, trap)
    return _closed_form_rate(n_ions, species, pref, d0,
                             *_length_and_spacing(n_ions, ContinuumModel.DUBIN_FLUID))


def _closed_form_rate(n_ions, species, pref, d0, length, s0) -> ClosedFormRate:
    """closed_form_rate from the prefactor, d0 and the Dubin fluid's (L, s0)
    at n_ions, for a caller (scaling.scan) that holds them already."""
    two_p = 2 * species.multipole.pair_exponent
    s0_m = s0 * d0
    total = _total_asymptotic(n_ions, 2 * two_p, length, s0)
    return ClosedFormRate(*in_float_range(
        f"N = {n_ions}, d0 = {d0!r} m put the closed-form rate outside the float range",
        lambda: (pref * 2.0 * zeta(two_p) * math.sqrt(total) / d0 ** two_p,
                 math.sqrt(n_ions) * pref / s0_m ** two_p)))


@dataclass(frozen=True)
class DecoherenceReport:
    """Every timescale of the N-ion computer, in seconds (per_ion_tau is
    None on the closed-form route, which has no per-ion times)."""

    per_ion_tau: np.ndarray | None
    tau_vib: float
    tau_rad: float
    t_d: float
    notes: str


def combined_window(tau_rad: float, tau_vib: float) -> float:
    """t_d from adding the two decoherence rates."""
    return 1.0 / (1.0 / tau_rad + 1.0 / tau_vib)


def build_report(species: IonSpecies, trap: TrapConfig, mode: DecoherenceMode, *,
                 chain: IonChain | None = None) -> DecoherenceReport:
    """Assemble per-ion rates (or the closed form), tau_rad, and t_d.

    DISCRETE_SUM reports on the chain the caller solved, which must match
    trap.n_ions; without one it raises ValidationError.  The closed form
    reports from the Dubin fluid model and refuses a chain.  For N >= 2 every
    reported time is finite: a rate so small that its reciprocal, or
    tau_vib/tau_s, leaves the float range is refused with DomainError.
    """
    n = check_instance("trap", trap, TrapConfig).n_ions
    check_instance("mode", mode, DecoherenceMode)

    def in_range(times):
        return in_float_range(f"N = {n}: a vibrational time or tau_vib/tau_s is "
                              "outside the float range", times)
    if mode is DecoherenceMode.DISCRETE_SUM:
        if chain is None:
            raise ValidationError("chain", "DISCRETE_SUM needs the solved "
                                  "equilibrium chain")
        rates = per_ion_rates(chain, species, trap)
        tau_vib = aggregate_tau_vib(rates)
        if n == 1:  # no pair: the one rate is 0 and its time infinite
            per_tau = rates + math.inf
        else:
            per_tau, _ = in_range(lambda: (1.0 / rates, tau_vib / species.tau_s))
    else:
        if chain is not None:
            raise ValidationError("chain", "CONTINUUM_CLOSED_FORM reports from the "
                                  "model and takes no chain")
        tau_vib = 1.0 / closed_form_rate(n, species, trap).full
        per_tau = None
        in_range(lambda: tau_vib / species.tau_s)
    tau_rad = radiative_time(species, n)
    t_d = combined_window(tau_rad, tau_vib)
    ratio = "inf" if math.isinf(tau_vib) else f"{tau_vib / species.tau_s:.6g}"
    notes = (f"{qsq_convention_stamp(species)}; "
             f"tau_vib = {ratio} tau_s")
    return DecoherenceReport(per_ion_tau=per_tau, tau_vib=tau_vib,
                             tau_rad=tau_rad, t_d=t_d, notes=notes)
