"""Run-to-run spread of the end-to-end metrics, over several seeds.

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 100] [--out NAME] [WORKLOAD ...]

Runs each workload ``--runs`` times, each with its own seed, and reports
for every end-to-end metric the median and the distance between the first
and third quartiles (statistics.quantiles, n=4) as a share of the median.
The benchmark's bounds in BENCHMARK.json are set from these spreads.
Results are also written to .perfbench_out/NAME (default steadiness.json);
a second set under another name, taken later with other seeds, shows how far
the medians of two sets of the same code move.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from common import ROOT

RUN = ROOT / "perfbench" / "run.py"


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "iqr_share": (q3 - q1) / statistics.median(values),
            "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--out", default="steadiness.json")
    args = parser.parse_args(argv)
    bench = load_benchmark()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    report = {}
    for name in names:
        results = [one_run(name, args.first_seed + k, bench["run_seconds"])
                   for k in range(args.runs)]
        failed = sum(r["failed"] for r in results)
        report[name] = {"seeds": [args.first_seed + k for k in range(args.runs)],
                        "failed": failed,
                        "attempted": sum(r["attempted"] for r in results),
                        "metrics": {m: spread([r["metrics"][m]["value"] for r in results])
                                    for m in bounds}}
        for metric, s in report[name]["metrics"].items():
            flag = "" if s["iqr_share"] < bounds[metric] / 3 else "  <-- above bound/3"
            print(f"{name:15} {metric:12} median {s['median']:.6g}  "
                  f"IQR/median {s['iqr_share']:.4f}  bound {bounds[metric]}{flag}")
        print(f"{name:15} failed {failed} of {report[name]['attempted']}", flush=True)
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    (out / args.out).write_text(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
