"""Pieces shared by the workloads: operations, rounds, reference data, checks.

An operation is one closed-loop request: the harness issues it, waits for
the result, times it and checks it before issuing the next.  Operations are
grouped into rounds; a round holds a fixed, balanced mix of operation kinds,
so the latency distribution of a run does not depend on where the clock
happened to stop.  Runs always end on a round boundary.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_DIR = HERE / "reference"

# Certificate and tracking bounds the program promises (see the package
# README and tests/test_acceptance.py): the equilibrium force residual, the
# integrator's default norm-drift budget, and acceptance criterion 7.
RESIDUAL_BOUND = 1e-12
NORM_DRIFT_BUDGET = 1e-6
TRACKING_TOL = 3e-2


@dataclass(frozen=True)
class Op:
    """One generated input.  ``key`` names the reference it is checked
    against and decides whether the input repeats an earlier one."""

    kind: str
    key: str
    params: dict = field(default_factory=dict, compare=False)


@dataclass
class Outcome:
    op: Op
    latency_s: float
    errors: list
    # wall seconds -> reference seconds (see calibrate.py); 1 when uncalibrated
    scale: float = 1.0

    @property
    def ok(self) -> bool:
        return not self.errors

    @property
    def ref_latency_s(self) -> float:
        return self.latency_s * self.scale


def rng_for(workload: str, seed: int) -> random.Random:
    """Private generator for one workload and seed (stable across Pythons)."""
    return random.Random(f"{workload}:{seed}")


def shuffled(rng: random.Random, items) -> list:
    out = list(items)
    rng.shuffle(out)
    return out


def cycle_distinct(rng: random.Random, items):
    """Endless stream over ``items``: each seeded permutation is used up
    before any item repeats."""
    while True:
        yield from shuffled(rng, items)


def load_reference(name: str) -> dict:
    with open(REFERENCE_DIR / f"{name}.json", encoding="utf-8") as handle:
        return json.load(handle)


def compare(errors: list, label: str, got: float, want: float, *,
            rel: float = 0.0, abs_: float = 0.0) -> None:
    """Append a message to ``errors`` unless got matches want within tolerance."""
    if not math.isfinite(got):
        errors.append(f"{label} is not finite: {got!r}")
    elif abs(got - want) > max(abs_, rel * abs(want)):
        errors.append(f"{label} = {got!r}, reference {want!r}")


def bounded(errors: list, label: str, value: float, bound: float) -> None:
    """Append a message unless value is finite and <= bound (NaN fails)."""
    if not (math.isfinite(value) and value <= bound):
        errors.append(f"{label} = {value!r} exceeds {bound!r}")
