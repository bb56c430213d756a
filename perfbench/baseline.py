"""Write perfbench/baseline.json: machine, workloads, seed baseline, steadiness.

    python3 perfbench/steadiness.py --runs 10     # first: the spread evidence
    python3 perfbench/baseline.py [--seed 0]

Runs every workload once untraced and once traced at ``--seed``, and the
defects probe, then records with the results: the machine (cores, CPU, RAM,
Python/numpy/scipy/OpenBLAS versions, pinned BLAS threads), each workload's
why-sentence, seed, rounds and repeated-input share, every operation's
latency with its N, pair-sum exponent or RK4 step count, the per-layer
metrics, the run-to-run spreads from steadiness.py, and the held-out seed
that later performance claims are re-checked on.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import subprocess
import sys

import run  # pins BLAS threads before numpy loads
import tracing
from common import HERE, ROOT

# Not used while the benchmark was written or tuned; re-check claims here.
HELD_OUT_SEED = 9001
DEFAULT_DTHETA = 0.05  # integrate_tls's default step, in units of 1/omega0


def machine() -> dict:
    import numpy
    import scipy

    def first(path, prefix):
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                if line.startswith(prefix):
                    return line.split(":", 1)[1].strip()
        return "unknown"

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": first("/proc/cpuinfo", "model name"),
        "mem_total": first("/proc/meminfo", "MemTotal"),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_pinned": run.BLAS_THREADS,
    }


def annotate(op: dict) -> dict:
    """One operation's record with its size: N, pair-sum exponent, RK4 steps."""
    params = op["params"]
    out = {"kind": op["kind"], "latency_s": op["latency_s"], "ok": op["ok"]}
    if "argv" in params:
        out["argv"] = " ".join(params["argv"])
    if "n" in params:
        out["n"] = params["n"]
        out["pair_exponent"] = 6 if params["multipole"] == "E1" else 8
    if "theta_end" in params:
        out["drive"] = {k: v for k, v in params.items() if k != "kind"}
        out["steps"] = math.ceil(params["theta_end"] / DEFAULT_DTHETA - 1e-9)
    if op["errors"]:
        out["errors"] = op["errors"]
    return out


def invoke(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def read_out(kind: str, workload: str, seed: int) -> dict:
    return json.loads((run.OUT_DIR / f"{kind}-{workload}-seed{seed}.json").read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    run.use_checkout_sources()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    workloads = {}
    for entry in bench["workloads"]:
        name = entry["name"]
        result = invoke(name, args.seed, seconds, 0)
        ops = read_out("ops", name, args.seed)
        traced = invoke(name, args.seed, seconds, 1)
        workloads[name] = {
            "why": entry["why"],
            "seed": args.seed,
            "rounds": run.rounds_for(name, seconds),
            "operations": len(ops["ops"]),
            "repeated_share": ops["repeated_share"],
            "fail_ratio": result["failed"] / result["attempted"],
            "tail": ops["latency"],
            "end_to_end": result["metrics"],
            "per_layer": traced["metrics"],
            "ops": [annotate(op) for op in ops["ops"]],
        }
    defects = invoke("defects", args.seed, seconds, 0)
    steadiness = {path.stem: json.loads(path.read_text())
                  for path in sorted(run.OUT_DIR.glob("steadiness*.json"))}
    baseline = {
        "held_out_seed": HELD_OUT_SEED,
        "machine": machine(),
        "bounds": {m["name"]: m["bound"] for m in bench["end_to_end"]},
        "layer_targets": {name: {"unit": unit, "moves": moves}
                          for name, (unit, moves) in tracing.LAYER_METRICS.items()},
        "workloads": workloads,
        "defects": {"fail_ratio": defects["failed"] / defects["attempted"],
                    "ops": [annotate(op) for op in read_out("ops", "defects", args.seed)["ops"]]},
        "steadiness": steadiness,
    }
    (HERE / "baseline.json").write_text(json.dumps(baseline, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
