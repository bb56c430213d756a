"""chain_pipeline: the library user's heavy path, in process.

One operation takes a seeded, distinct N and runs solve_equilibrium ->
local_spacings -> per_ion_rates -> build_report(DISCRETE_SUM, chain=...) ->
fidelity_curve -> closed_form_rate, plus the continuum site prediction it is
compared with.  The multipole (E1 or E2) is seeded per operation, so the
pair sums run at 2p = 6 or 8.

N is stratified: a round draws N from each of ten bands of 16 consecutive
ion counts around log-spaced centres from 50 to 1500.  The cost of an
operation grows as N^2, so the round keeps the mix of cheap and dear
operations the same in every run, and the narrow top band keeps the peak
memory, which the largest N sets, steady.  The bands around N = 331 and
N = 484 are drawn three times per round: a run's median latency then falls
among the nine operations of the first and its tail percentile among the
nine of the second, rather than on a single operation or on the jump
between two bands.
"""
from __future__ import annotations

from common import (RESIDUAL_BOUND, Op, bounded, compare, cycle_distinct,
                    rng_for, shuffled)

NAME = "chain_pipeline"
CENTRES = [round(50 * 30 ** (k / 9)) for k in range(10)]
DRAWS = (1, 1, 1, 1, 1, 3, 3, 1, 1, 1)  # per band and round
PER_BAND = 16
MULTIPOLES = ("E1", "E2")
# Above N ~ 4000 the solver cannot meet its certificate; only the defects
# probe draws from here.
DEFECT_RANGE = (4000, 4500)
FIDELITY_POINTS = 64
_COMPARED = ("center_gap", "half_length", "min_spacing", "rate_sum", "rate_max",
             "tau_vib", "tau_rad", "t_d", "closed_full", "closed_bare", "site_edge")
_FIDELITY = ("fid_product_16", "fid_product_32", "fid_product_63",
             "fid_gauss_32", "fid_gauss_63")


def band(centre: int) -> list:
    return list(range(centre - PER_BAND // 2, centre + PER_BAND // 2))


BANDS = [band(c) for c in CENTRES]


def make_op(n: int, multipole: str) -> Op:
    return Op(kind="chain", key=f"N={n} {multipole}",
              params={"n": n, "multipole": multipole})


def rounds(seed: int):
    rng = rng_for(NAME, seed)
    streams = [cycle_distinct(rng, ns) for ns in BANDS]
    while True:
        yield shuffled(rng, [make_op(next(s), rng.choice(MULTIPOLES))
                             for s, k in zip(streams, DRAWS) for _ in range(k)])


def defect_op(seed: int) -> Op:
    return make_op(rng_for("defects", seed).randint(*DEFECT_RANGE), "E2")


class Pipeline:
    """Runs operations through the library's module attributes, so a
    tracer that wraps those attributes sees every call."""

    def __init__(self):
        import numpy as np
        from iondec import (chain, continuum, decoherence, physmodel, sums)

        self.np, self.chain, self.continuum = np, chain, continuum
        self.decoherence, self.physmodel, self.sums = decoherence, physmodel, sums
        self.species = {
            m: physmodel.IonSpecies.from_lab_units(
                "Ba+", mass_amu=137.33, charge_e=1.0, f0_hz=1.7e14, tau_s_s=50.0,
                multipole=physmodel.Multipole[m])
            for m in MULTIPOLES}

    def warm_up(self) -> None:
        """First calls: numpy/LAPACK paths and the zeta caches."""
        for m in MULTIPOLES:
            self.run(make_op(12, m))

    def run(self, op: Op) -> dict:
        np, dec = self.np, self.decoherence
        n = op.params["n"]
        species = self.species[op.params["multipole"]]
        trap = self.physmodel.TrapConfig.from_lab_units(fz_hz=1e5, ft_hz=2e7, n_ions=n)
        solved = self.chain.solve_equilibrium(n)
        spacings = self.chain.local_spacings(solved)
        rates = dec.per_ion_rates(solved, species, trap)
        report = dec.build_report(species, trap, dec.DecoherenceMode.DISCRETE_SUM,
                                  chain=solved)
        curve = dec.fidelity_curve(
            rates, np.linspace(0.0, 1.0, FIDELITY_POINTS) * report.tau_vib)
        closed = dec.closed_form_rate(n, species, trap)
        sites = self.sums.continuum_sites(n, self.continuum.ContinuumModel.DUBIN_FLUID)
        u = solved.positions
        return {
            "residual": float(solved.residual),
            "center_gap": float(u[n // 2] - u[n // 2 - 1]),
            "half_length": float(u[-1]),
            "min_spacing": float(spacings.min()),
            "rate_sum": float(rates.sum()),
            "rate_max": float(rates.max()),
            "tau_vib": float(report.tau_vib),
            "tau_rad": float(report.tau_rad),
            "t_d": float(report.t_d),
            "fid_product_16": float(curve.product[16]),
            "fid_product_32": float(curve.product[32]),
            "fid_product_63": float(curve.product[63]),
            "fid_gauss_32": float(curve.gaussian[32]),
            "fid_gauss_63": float(curve.gaussian[63]),
            "closed_full": float(closed.full),
            "closed_bare": float(closed.bare),
            "site_edge": float(sites.sites[-1]),
        }


def certificate(out: dict) -> list:
    errors = []
    bounded(errors, "residual", out["residual"], RESIDUAL_BOUND)
    return errors


def check(op: Op, out: dict, ref: dict | None) -> list:
    """Certificate, then every recorded quantity against the seed's values."""
    errors = certificate(out)
    if ref is None:
        return errors + ["no reference recorded for this input"]
    for name in _COMPARED:
        compare(errors, name, out[name], ref[name], rel=1e-9)
    for name in _FIDELITY:
        compare(errors, name, out[name], ref[name], abs_=1e-9)
    return errors
