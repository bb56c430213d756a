"""tls_circular and tls_sampled: the driven two-level integrator, in process.

Each operation integrates from the equal superposition, takes the overlap
with the undriven state (overlap_fidelity) and compares it with cos(Phi)
from adiabatic_phase, which is what the ``adiabatic`` subcommand prints.

tls_circular mixes short windows (theta_end <= 1e4: the ~4000 fixed chunks
dominate) with long ones (theta_end = 1e5: per-step RK4 work dominates), and
a share of constant drives (the zero-rotation case).  Each round holds the
same window lengths, so its cost does not depend on the seed: two cheap
windows (2e3, 3e3), three of middle cost (5e3 circular and constant, 7e3)
and two dear ones (1e4, 1e5), so that the median latency falls inside the
middle group, not on the jump between two kinds.  Long windows use the
drive range where cos(Phi) is still a good prediction: the tracking error of
the adiabatic phase grows about as eps^2 theta (rot + eps^2), so
eps/omega0 <= 7e-3 and rot/omega0 <= 2e-3 keep it below the 3e-2 of
acceptance criterion 7.

tls_sampled drives the same integrator with piecewise-linear tables of a few
hundred knots: a slowly rotating, amplitude-modulated drive, which a closed
form for structured drives cannot take.  A round holds one table for the
shortest and the longest of three window lengths and two for the middle one.
"""
from __future__ import annotations

import math
import random

from common import (NORM_DRIFT_BUDGET, TRACKING_TOL, Op, bounded, compare,
                    cycle_distinct, rng_for, shuffled)

SHORT_THETA = (2e3, 3e3, 5e3, 7e3, 1e4)
CONSTANT_THETA = 5e3
LONG_THETA = 1e5
SAMPLED_THETA = (2e3, 1e4, 2e4)
# Tables per window length and round: the middle length twice, so that a
# run's median and tail latencies both fall among its middle-length tables.
SAMPLED_DRAWS = (1, 2, 1)
PHASE_CHECKS = 65


def _key(entry: dict) -> str:
    return " ".join(f"{k}={v}" for k, v in sorted(entry.items()))


def make_op(entry: dict) -> Op:
    return Op(kind=f"tls.{entry['kind']}", key=_key(entry), params=entry)


CIRCULAR_SHORT = {
    t: [{"kind": "circular", "theta_end": t, "eps": e, "rot": r}
        for e in (3e-3, 6e-3, 1e-2, 2e-2) for r in (5e-4, 1e-3, 2e-3, 3e-3)]
    for t in SHORT_THETA}
CONSTANT_SHORT = [
    {"kind": "constant", "theta_end": CONSTANT_THETA, "eps": e, "angle": a}
    for e in (3e-3, 6e-3, 1e-2, 2e-2) for a in (0.3, 2.0)]
LONG = [
    {"kind": "circular", "theta_end": LONG_THETA, "eps": e, "rot": r} if r else
    {"kind": "constant", "theta_end": LONG_THETA, "eps": e, "angle": 0.7}
    for e in (3e-3, 5e-3, 7e-3) for r in (0.0, 1e-3, 2e-3)]
SAMPLED = {
    t: [{"kind": "sampled", "theta_end": t, "eps": e, "rot": r, "mod": m,
         "knots": k, "table": i}
        for i, (k, e, r, m) in enumerate(
            (k, e, r, m) for k in (200, 300, 400) for e in (5e-3, 1e-2)
            for r in (2e-4, 1e-3) for m in (0.2, 0.4))]
    for t in SAMPLED_THETA}


def circular_rounds(seed: int):
    """Per round: a short circular window of each length, one short constant
    window and one long window."""
    rng = rng_for("tls_circular", seed)
    shorts = [cycle_distinct(rng, CIRCULAR_SHORT[t]) for t in SHORT_THETA]
    const = cycle_distinct(rng, CONSTANT_SHORT)
    long_ = cycle_distinct(rng, LONG)
    while True:
        entries = [next(s) for s in shorts] + [next(const), next(long_)]
        yield shuffled(rng, [make_op(e) for e in entries])


def sampled_rounds(seed: int):
    """Per round, SAMPLED_DRAWS tables of each window length."""
    rng = rng_for("tls_sampled", seed)
    streams = [cycle_distinct(rng, SAMPLED[t]) for t in SAMPLED_THETA]
    while True:
        yield shuffled(rng, [make_op(next(s)) for s, k in zip(streams, SAMPLED_DRAWS)
                             for _ in range(k)])


def all_entries() -> list:
    return ([e for t in SHORT_THETA for e in CIRCULAR_SHORT[t]] + CONSTANT_SHORT + LONG
            + [e for t in SAMPLED_THETA for e in SAMPLED[t]])


class Integrator:
    """Runs operations through ``iondec.adiabatic``'s module attributes."""

    def __init__(self):
        import numpy as np
        from iondec import adiabatic, physmodel

        self.np, self.adiabatic = np, adiabatic
        self.omega0 = physmodel.IonSpecies.from_lab_units(
            "Ba+", mass_amu=137.33, charge_e=1.0, f0_hz=1.7e14, tau_s_s=50.0,
            multipole=physmodel.Multipole.E2).omega0

    def warm_up(self) -> None:
        self.run(make_op({"kind": "circular", "theta_end": 50.0, "eps": 1e-2, "rot": 1e-3}))
        self.run(make_op({"kind": "sampled", "theta_end": 50.0, "eps": 1e-2, "rot": 1e-3,
                      "mod": 0.2, "knots": 20, "table": 0}))

    def drive(self, entry: dict):
        np, w0 = self.np, self.omega0
        field = self.adiabatic.DriveField
        eps = entry["eps"] * w0
        if entry["kind"] == "circular":
            return field.circular(eps, entry["rot"] * w0)
        if entry["kind"] == "constant":
            return field.constant(eps * math.cos(entry["angle"]),
                                  eps * math.sin(entry["angle"]))
        table = random.Random(entry["table"])
        s = np.linspace(0.0, 1.0, entry["knots"])
        wobble = np.array([table.uniform(-0.02, 0.02) for _ in range(s.size)])
        cycles, phase = table.choice((2, 3, 5)), table.uniform(0.0, 2.0 * math.pi)
        amp = eps * (1.0 + entry["mod"] * np.sin(2.0 * math.pi * cycles * s + phase))
        amp *= 1.0 + wobble
        angle = entry["rot"] * entry["theta_end"] * s + table.uniform(0.0, 2.0 * math.pi)
        return field.sampled(s * entry["theta_end"] / w0,
                             amp * np.cos(angle), amp * np.sin(angle))

    def run(self, op: Op) -> dict:
        np, ad, w0 = self.np, self.adiabatic, self.omega0
        entry = op.params
        drive = self.drive(entry)
        half = 1.0 / math.sqrt(2.0)
        traj = ad.integrate_tls(w0, drive, (half, half), entry["theta_end"] / w0)
        overlap = ad.overlap_fidelity(traj)
        if entry["kind"] == "sampled":
            idx = np.unique(np.linspace(0, traj.theta.size - 1, PHASE_CHECKS).round()
                            .astype(int))
            phi = np.array([ad.adiabatic_phase(drive, w0, traj.theta[i] / w0)
                            for i in idx])
        else:
            idx = np.arange(traj.theta.size)
            phi = ad.adiabatic_phase(drive, w0, 1.0) * traj.theta / w0
        return {
            "stored": int(traj.theta.size),
            "up_re": float(traj.u_plus[-1].real), "up_im": float(traj.u_plus[-1].imag),
            "um_re": float(traj.u_minus[-1].real), "um_im": float(traj.u_minus[-1].imag),
            "norm_drift": float(traj.norm_drift),
            "tracking_err": float(np.max(np.abs(overlap[idx] - np.cos(phi)))),
        }


def check(op: Op, out: dict, ref: dict | None) -> list:
    errors = []
    bounded(errors, "norm_drift", out["norm_drift"], NORM_DRIFT_BUDGET)
    bounded(errors, "tracking_err", out["tracking_err"], TRACKING_TOL)
    if ref is None:
        return errors + ["no reference recorded for this input"]
    if out["stored"] != ref["stored"]:
        errors.append(f"stored {out['stored']} points, reference {ref['stored']}")
    for name in ("up_re", "up_im", "um_re", "um_im"):
        compare(errors, name, out[name], ref[name], abs_=1e-9)
    return errors


def counters(out: dict) -> dict:
    """Per-operation maxima the trace reports for this layer."""
    return {"adiabatic.overlap_err_max": out["tracking_err"]}
