"""How the decoherence rates run with ion number under two trap policies.

Holding the trap voltages (so omega_z, omega_t) fixed while adding ions
lets the chain lengthen and the central spacing shrink; holding the
central spacing fixed instead requires relaxing omega_z with N.  scan
takes the trap it scans and one policy value, s0_target: None holds the
voltages, a spacing in meters holds that spacing.  Both scans push
every N through the closed-form rate pipeline on the Dubin fluid model
and fit effective log-log exponents afterwards — quoted asymptotic
exponents are carried as reference metadata only, never substituted for
the computation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .continuum import C0_DUBIN, ContinuumModel, _length_and_spacing
from .decoherence import _closed_form_rate, _prefactor
from .errors import (SolverError, ValidationError, check_instance, check_integer,
                     check_positive, in_float_range)
from .physmodel import CONSTANTS, IonSpecies, TrapConfig

if TYPE_CHECKING:
    import numpy as np

# Quoted large-N exponents, for comparison against fitted values: the
# fixed-voltage rates grow as N^(35/6) (ln c0 N)^(-8/3) for E2 and
# N^(9/2) (ln c0 N)^(-2) for E1; 5/2 is the quoted fixed-spacing figure,
# which disagrees with the self-consistent pipeline (the scan reports
# what it actually computes).
REFERENCE_EXPONENTS = {
    "fixed_voltage_e2": 35.0 / 6.0,
    "fixed_voltage_e1": 9.0 / 2.0,
    "fixed_spacing_quoted": 5.0 / 2.0,
}
LOG_POWERS = {"fixed_voltage_e2": -8.0 / 3.0, "fixed_voltage_e1": -2.0}

POINTS_PER_DECADE = 16


@dataclass(frozen=True)
class ExponentFit:
    """Least-squares slope of ln(rate) vs ln(N), with 1-sigma width."""

    slope: float
    width: float


@dataclass(frozen=True)
class ScalingSeries:
    """One scan: per-N trap state and rates, sorted by N."""

    n_ions: np.ndarray
    omega_z: np.ndarray
    d0_m: np.ndarray
    s0_m: np.ndarray
    rate_vib: np.ndarray
    rate_rad: np.ndarray


def default_n_grid(n_min: int, n_max: int) -> np.ndarray:
    """Logarithmic N grid at 16 points per decade, deduplicated integers.

    n_max is capped at 2**53, the largest N that every float in the
    pipeline still holds exactly.
    """
    n_min, n_max = check_n_range(n_min, n_max)
    import numpy as np

    count = max(2, int(round(POINTS_PER_DECADE * math.log10(n_max / n_min))) + 1)
    grid = np.rint(np.geomspace(n_min, n_max, count)).astype(int)
    # deduplicated in Python: np.unique would load numpy.ma, which costs more
    # than a whole CLI scaling call's own work
    return np.array(sorted(set(grid.tolist())), dtype=int)


def check_n_range(n_min: int, n_max: int) -> tuple[int, int]:
    """(n_min, n_max) as ints, if they are integers with
    2 <= n_min < n_max <= 2**53: the N range of default_n_grid."""
    n_max = check_integer("n_max", n_max, 3, 2**53)
    return check_integer("n_min", n_min, 2, n_max - 1), n_max


def _brentq(f, xa, xb, xtol, rtol, maxiter=100):
    """Root of f in [xa, xb] by Brent's method (Brent 1973, ch. 4).

    A statement-for-statement port of scipy's C ``brentq``: the same
    block/interpolate/extrapolate step, the same ``delta`` test and the
    same minimum step of +-delta, in the same floating-point order, so it
    returns the same bits.  Raises SolverError when f(xa), f(xb) share a
    sign or when maxiter iterations do not converge.
    """
    xpre, xcur = xa, xb
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise SolverError(f"no sign change on [{xa!r}, {xb!r}]",
                          min(abs(fpre), abs(fcur)))
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and \
                math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:  # C gets an inf or NaN step here: bisect
                stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis  # bisect
        else:
            spre = scur = sbis  # bisect

        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    raise SolverError(f"Brent iteration did not converge in {maxiter} steps",
                      min(abs(fpre), abs(fcur)))


def _solve_omega_z(n_ions, species, s0_target, s0_dim):
    """omega_z making the central spacing s0_dim * d0 equal the target;
    s0_dim is min_spacing(n_ions, DUBIN_FLUID), which scan has already.

    The spacing is monotone decreasing in omega_z (stiffer axial trap,
    shorter chain), so a sign-change bracket plus Brent's method
    (``_brentq``, an in-module port of scipy's ``brentq``) is certified;
    the bracket is [guess/2, 2 guess] around the guess from the scale
    relation d0 = s0_target/s0_dim.  A target or a charge so large or
    small that q^2, omega_z or the spacing leaves the float range raises
    DomainError.
    """
    def gap(omega_z, q2):
        d0 = (q2 / (species.mass * omega_z**2)) ** (1.0 / 3.0)
        return s0_dim * d0 - s0_target

    def bracket():
        q2 = species.charge**2 / (4.0 * math.pi * CONSTANTS.epsilon0)
        guess = math.sqrt(q2 / (species.mass * (s0_target / s0_dim)**3))
        lo, hi = 0.5 * guess, 2.0 * guess
        return q2, lo, hi, gap(lo, q2), -gap(hi, q2)  # gap(lo) > 0 > gap(hi)
    q2, lo, hi, _, _ = in_float_range(f"s0 target {s0_target!r} m gives no finite "
                                      f"omega_z at N = {n_ions}", bracket)
    return _brentq(lambda omega_z: gap(omega_z, q2), lo, hi, xtol=1e-30, rtol=1e-14)


def scan(n_values, species: IonSpecies, trap: TrapConfig, *,
         s0_target: float | None = None) -> ScalingSeries:
    """Walk N over n_values and evaluate the closed-form pipeline, on the
    Dubin fluid model, at each.

    n_values holds at least two distinct integers (Python or numpy) from 2
    to 2**53; a float, bool or string count is refused, never truncated.
    s0_target None holds the trap voltages: every N sees trap.omega_z.  A
    finite positive s0_target (meters) holds the central spacing instead,
    retuning omega_z per N; an N whose retuned omega_z is not below
    trap.omega_t, which is held either way, is refused with
    ValidationError.  Each N takes one derive_scales and one Dubin
    half-length.  Every rate takes Q^2 by physmodel.QSQ_CONSTANT.
    """
    check_instance("species", species, IonSpecies)
    check_instance("trap", trap, TrapConfig)
    if s0_target is not None:
        s0_target = float(check_positive("s0_target", s0_target))
    import numpy as np

    ns = np.array(sorted({check_integer("n_values", n, 2, 2**53)
                          for n in np.ravel(n_values).tolist()}), dtype=int)
    if ns.size < 2:
        raise ValidationError("n_values", "need at least two distinct N")

    omega_z = np.empty(ns.size)
    d0 = np.empty(ns.size)
    s0 = np.empty(ns.size)
    vib = np.empty(ns.size)
    rad = np.empty(ns.size)
    for k, n in enumerate(ns.tolist()):
        length, s0_dim = _length_and_spacing(n, ContinuumModel.DUBIN_FLUID)
        wz = trap.omega_z
        if s0_target is not None:
            wz = _solve_omega_z(n, species, s0_target, s0_dim)
            if not trap.omega_t > wz:
                raise ValidationError(
                    "n_values", f"holding s0 = {s0_target!r} m at N = {n} takes "
                    f"omega_z = {wz!r} rad/s, not below omega_t = {trap.omega_t!r} "
                    "rad/s; a shorter chain needs a stiffer axial trap, so raise the "
                    "smallest N or omega_t")
        trap_n = TrapConfig(omega_z=wz, omega_t=trap.omega_t, n_ions=n)
        pref, d0_n = _prefactor(species, trap_n)
        omega_z[k] = wz
        d0[k] = d0_n
        s0[k] = s0_dim * d0_n
        vib[k] = _closed_form_rate(n, species, pref, d0_n, length, s0_dim).full
        rad[k] = n / (2.0 * species.tau_s)
    return ScalingSeries(n_ions=ns, omega_z=omega_z, d0_m=d0, s0_m=s0,
                         rate_vib=vib, rate_rad=rad)


def fit_exponent(series: ScalingSeries, log_power: float | None = None) -> ExponentFit:
    """Effective exponent of rate_vib against N.

    log_power = c divides out a (ln c0 N)^c factor before fitting, so a
    rate following N^a (ln c0 N)^c comes back with slope exactly a.  A
    rate_vib that is not finite and positive everywhere has no log and is
    refused.
    """
    import numpy as np

    n = check_instance("series", series, ScalingSeries).n_ions.astype(float)
    if n.size < 4:
        raise ValidationError("series", "need at least 4 rows to fit")
    if n.max() / n.min() < 10.0 - 1e-9:
        raise ValidationError("series", "rows must span at least a decade in N")
    rate = np.asarray(series.rate_vib)
    if not np.all((rate > 0) & (rate < math.inf)):
        raise ValidationError("series", "rate_vib must be finite and positive to fit its log")
    y = np.log(rate)
    if log_power is not None:
        y = y - log_power * np.log(np.log(C0_DUBIN * n))
    coeffs, cov = np.polyfit(np.log(n), y, 1, cov=True)
    return ExponentFit(slope=float(coeffs[0]), width=float(math.sqrt(cov[0, 0])))
