"""Per-ion and aggregate vibrational decoherence, and the combined window.

A displaced neighbor shifts an ion's transition frequency through the
1/r^p coupling; averaging the squared shift over uncorrelated zero-point
transverse motion gives the per-ion dephasing rate

    tau_i^-1 = [q2_coul * Q_sq / (2 pi hbar m w0 w_t)] * S_2p(i) / d0^2p,

and the chain dephases with tau_vib^-2 = sum_i tau_i^-2.  Radiative
decay contributes tau_rad = 2 tau_s / N, and the computational window
adds the two as rates.  The closed-form route replaces the per-ion sum
by its continuum evaluation 2 zeta(2p) sqrt(T_4p).  It is scalar
arithmetic: only the functions that take or return arrays import numpy,
when called, so closed_form_rate and the closed-form report load none.
"""
from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .continuum import ContinuumModel, min_spacing
from .errors import DomainError, ValidationError, check_integer, check_reals
from .physmodel import (CONSTANTS, IonSpecies, TrapConfig, derive_scales,
                        qsq_convention_stamp, radiative_time)
from .sums import chain_total_asymptotic, pair_sum_exact_all, zeta

if TYPE_CHECKING:
    import numpy as np

    from .chain import IonChain


class DecoherenceMode(enum.Enum):
    DISCRETE_SUM = "discrete_sum"
    CONTINUUM_CLOSED_FORM = "continuum_closed_form"


def vibrational_prefactor(species: IonSpecies, trap: TrapConfig) -> float:
    """q2_coul*Q_sq/(2 pi hbar m w0 w_t), in m^2p/s.

    Multiplying by a pair sum in SI units (S_2p/d0^2p, units m^-2p)
    yields a rate in 1/s.  A species and trap that put it outside the
    positive float range are refused with DomainError.
    """
    scales = derive_scales(species, trap)
    try:
        pref = (scales.q2_coul * scales.q_sq
                / (2.0 * math.pi * CONSTANTS.hbar * species.mass
                   * species.omega0 * trap.omega_t))
    except ZeroDivisionError:  # the denominator underflowed
        pref = math.inf
    if not 0 < pref < math.inf:
        raise DomainError("the species and trap put the vibrational prefactor "
                          "outside the float range")
    return pref


def per_ion_rates(chain: IonChain, species: IonSpecies, trap: TrapConfig) -> np.ndarray:
    """All per-ion rates at once (the pair sums share one O(N^2) pass).

    A chain of N >= 2 ions whose trap puts any rate outside the float
    range (zero after underflow, or not finite) is refused with
    DomainError, as closed_form_rate refuses its aggregate.
    """
    if chain.n_ions != trap.n_ions:
        raise ValidationError(
            "chain", f"chain has {chain.n_ions} ions but the trap is configured "
            f"for {trap.n_ions}")
    import numpy as np

    if chain.n_ions == 1:
        return np.zeros(1)
    scales = derive_scales(species, trap)
    two_p = 2 * species.multipole.pair_exponent
    sums = pair_sum_exact_all(chain, two_p)
    pref = vibrational_prefactor(species, trap)
    try:
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            rates = pref * sums / scales.d0 ** two_p
        if np.all((rates > 0) & (rates < math.inf)):
            return rates
    except OverflowError:
        pass
    raise DomainError(f"N = {chain.n_ions}, d0 = {scales.d0!r} m put a per-ion "
                      "rate outside the float range")


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
    ``times`` (errors.check_reals, may be empty, >= 0), one row per time."""
    import numpy as np

    rates = check_reals("per_ion", per_ion)
    t = check_reals("times", times, least=0)
    if np.any(t < 0):
        raise ValidationError("times", "must be >= 0")
    tau_vib = aggregate_tau_vib(rates)
    product = np.prod(np.cos(np.outer(t, rates)) ** 2, axis=1)
    if math.isinf(tau_vib):
        gaussian = np.ones_like(t)
    else:
        gaussian = np.exp(-(t / tau_vib) ** 2)
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


def closed_form_rate(n_ions: int, species: IonSpecies, trap: TrapConfig,
                     model: ContinuumModel = ContinuumModel.DUBIN_FLUID) -> ClosedFormRate:
    """Aggregate vibrational rate from the continuum chain totals, N >= 2."""
    n_ions = check_integer("n_ions", n_ions, 2)
    scales = derive_scales(species, trap)
    pref = vibrational_prefactor(species, trap)
    two_p = 2 * species.multipole.pair_exponent
    s0_m = min_spacing(n_ions, model) * scales.d0
    try:
        total = chain_total_asymptotic(n_ions, 2 * two_p, model)
        full = pref * 2.0 * zeta(two_p) * math.sqrt(total) / scales.d0 ** two_p
        bare = math.sqrt(n_ions) * pref / s0_m ** two_p
        if 0 < full < math.inf:
            return ClosedFormRate(full=full, bare=bare)
    except (OverflowError, ZeroDivisionError):
        pass
    raise DomainError(f"N = {n_ions}, d0 = {scales.d0!r} m put the closed-form "
                      "rate outside the float range")


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


def build_report(species: IonSpecies, trap: TrapConfig, mode: DecoherenceMode,
                 model: ContinuumModel = ContinuumModel.DUBIN_FLUID,
                 chain: IonChain | None = None) -> DecoherenceReport:
    """Assemble per-ion rates (or the closed form), tau_rad, and t_d.

    DISCRETE_SUM reports on the chain the caller solved, which must match
    trap.n_ions; without one it raises ValidationError.  The closed form
    needs no chain.  For N >= 2 every reported time is finite: a rate so
    small that its reciprocal, or tau_vib/tau_s, leaves the float range
    is refused with DomainError.
    """
    n = trap.n_ions
    if mode is DecoherenceMode.DISCRETE_SUM:
        if chain is None:
            raise ValidationError("chain", "DISCRETE_SUM needs the solved "
                                  "equilibrium chain")
        import numpy as np

        rates = per_ion_rates(chain, species, trap)
        tau_vib = aggregate_tau_vib(rates)
        with np.errstate(divide="ignore", over="ignore"):
            per_tau = 1.0 / rates  # inf where the rate vanishes (N = 1)
        per_tau_finite = bool(np.all(per_tau < math.inf))
    elif mode is DecoherenceMode.CONTINUUM_CLOSED_FORM:
        tau_vib = 1.0 / closed_form_rate(n, species, trap, model).full
        per_tau, per_tau_finite = None, True
    else:
        raise ValidationError("mode", f"unknown mode {mode!r}")
    if n > 1 and not (tau_vib / species.tau_s < math.inf and per_tau_finite):
        raise DomainError(f"N = {n}: a vibrational time or tau_vib/tau_s is "
                          "outside the float range")
    tau_rad = radiative_time(species, n)
    t_d = combined_window(tau_rad, tau_vib)
    ratio = "inf" if math.isinf(tau_vib) else f"{tau_vib / species.tau_s:.6g}"
    notes = (f"{qsq_convention_stamp(species)}; "
             f"tau_vib = {ratio} tau_s")
    return DecoherenceReport(per_ion_tau=per_tau, tau_vib=tau_vib,
                             tau_rad=tau_rad, t_d=t_d, notes=notes)
