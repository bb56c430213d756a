"""iondec benchmark: closed-loop workloads with checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N]     # every workload, one table

Workloads (see BENCHMARK.json for why each exists):

* cli_presets    - a fresh ``python -m iondec.cli`` process per call
* chain_pipeline - equilibrium -> lattice sums -> rates -> report, in process
* tls_circular   - integrate_tls with circular and constant drives
* tls_sampled    - integrate_tls with sampled drive tables
* defects        - probe of known defects; not a benchmark workload

One client drives each workload in a closed loop from this process.  Inputs
come from ``--seed`` alone and every output is checked against the values
recorded from the seed commit (perfbench/reference/).  A round is a fixed,
balanced mix of operation kinds and input sizes.  A run measures a fixed
number of whole rounds: ``--seconds`` divided by the round's duration on the
reference machine (2-core x86-64, one BLAS thread).  So every run, on every
commit, measures the same operations, and the percentile a latency falls at
does not move when the program gets faster or slower.  Only on a host more
than twice as slow as the reference does a run stop early.

With ``--trace 0`` the last stdout line holds the end-to-end metrics.  Every
time among them is in reference seconds: each operation, and each set-up
probe, is bracketed by two host-speed calibration samples and its wall time
scaled by their ratio to the samples' time on the reference machine, which
takes the shared host's drifting speed out of the comparison (calibrate.py
says how and why; stderr and ``.perfbench_out/`` keep the wall-clock times).
``setup_s`` is the median, over three fresh interpreters, of the time from
process start until the first operation could be issued (import, input
generation, warm-up).  ``op_p50_s`` and ``op_tail_s`` are the median and the
highest percentile with ten samples beyond it (stderr names the percentile
and the sample count); ``ops_per_s`` is the operations of one round divided
by the sum of their latencies, median over the rounds; ``peak_rss_mb`` is
this process's peak, or for cli_presets the largest CLI child's.
``fail_ratio`` is the result line's failed/attempted.  With
``--trace 1`` the run first measures untraced, then replays the same
operations with the tracer installed, and reports the per-layer metrics
plus the ratio of the two wall times.  Details go to stderr and to
``.perfbench_out/`` in the checkout.
"""
from __future__ import annotations

import ctypes
import os

# Pin BLAS/OpenMP pools before anything can load numpy, so timings do not
# depend on how many cores the machine happens to offer.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

# Fix glibc's mmap threshold, which otherwise grows with the allocation
# history: large numpy temporaries then go back to the system when freed,
# and the peak resident memory follows what the program holds rather than
# the order the operations happened to run in.  Children inherit it.
MMAP_THRESHOLD = 1 << 20
os.environ["MALLOC_MMAP_THRESHOLD_"] = str(MMAP_THRESHOLD)
try:
    _mallopt = ctypes.CDLL(None).mallopt
    _mallopt.argtypes, _mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    _mallopt(-3, MMAP_THRESHOLD)  # M_MMAP_THRESHOLD
except AttributeError:
    pass  # not glibc: its allocator keeps its own policy

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext

import calibrate
from common import ROOT, Outcome, load_reference

OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("cli_presets", "chain_pipeline", "tls_circular", "tls_sampled")
MAX_ROUNDS = 64
# Seconds one round takes, calibration samples included, on the reference
# machine at the seed commit.
ROUND_S = {"cli_presets": 6.5, "chain_pipeline": 6.5, "tls_circular": 7.0,
           "tls_sampled": 3.3}
# A run on a host this many times slower than the reference stops early, on
# a round boundary, so that it still ends within the time it is allowed.
OVERRUN = 2.0
PROBE_TIMEOUT_S = 120.0


class SourceMissing(RuntimeError):
    """The checkout does not hold the package sources."""


def use_checkout_sources() -> None:
    """Import iondec from this checkout's src/ and from nowhere else."""
    src = ROOT / "src"
    if not (src / "iondec" / "__init__.py").is_file():
        raise SourceMissing(f"no iondec sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    os.environ["PYTHONPATH"] = str(src)


def take(rounds, count: int) -> list:
    return [next(rounds) for _ in range(count)]


class CliWorkload:
    name = "cli_presets"

    def __init__(self, seed: int):
        import wl_cli

        self.wl = wl_cli
        self.ref = load_reference("cli")
        self.rounds = take(wl_cli.rounds(seed), MAX_ROUNDS)
        self.env = wl_cli.child_env()
        self.peak_kb = 0
        self.reference_s = calibrate.REFERENCE_SPAWN_S

    def calibrate(self) -> float:
        return calibrate.spawn_sample(self.env, ROOT)

    def warm_up(self) -> None:
        op = self.wl.make_op(("scales",), 0)
        errors = self.check(op, self.execute(op))
        if errors:
            raise RuntimeError(f"warm-up call failed: {errors}")

    def execute(self, op):
        rc, out, err, rss_kb = self.wl.spawn(op.params["argv"], self.env)
        self.peak_kb = max(self.peak_kb, rss_kb)
        return rc, out, err

    def execute_inprocess(self, op):
        return self.wl.run_inprocess(op.params["argv"])

    def check(self, op, result) -> list:
        return self.wl.check(op, *result, self.ref.get(op.key))

    def counters(self, op, result) -> dict:
        rc, out, _ = result
        if op.params["argv"][0] == "adiabatic" and rc == 0:
            return {"adiabatic.overlap_err_max": self.wl.max_abs_error(out)}
        return {}

    def peak_rss_mb(self) -> float:
        return self.peak_kb / 1024.0


class LibraryWorkload:
    """An in-process workload: an engine that runs operations, a checker."""

    def __init__(self, name: str, seed: int):
        if name == "chain_pipeline":
            import wl_chain as wl
            self.engine, rounds, ref = wl.Pipeline(), wl.rounds(seed), "chain"
        else:
            import wl_tls as wl
            rounds = (wl.circular_rounds if name == "tls_circular" else wl.sampled_rounds)(seed)
            self.engine, ref = wl.Integrator(), "tls"
        self.name, self.wl = name, wl
        self.ref = load_reference(ref)
        self.rounds = take(rounds, MAX_ROUNDS)
        self.calibrate = (calibrate.DensePairwise() if name == "chain_pipeline"
                          else calibrate.SmallArrays())
        self.reference_s = self.calibrate.reference_s

    def warm_up(self) -> None:
        self.engine.warm_up()
        self.calibrate()

    def execute(self, op):
        return self.engine.run(op)

    def check(self, op, result) -> list:
        return self.wl.check(op, result, self.ref.get(op.key))

    def counters(self, op, result) -> dict:
        return getattr(self.wl, "counters", lambda _: {})(result)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def make_workload(name: str, seed: int):
    if name == "cli_presets":
        return CliWorkload(seed)
    return LibraryWorkload(name, seed)


def timed(wl, op, execute, tracer=None) -> Outcome:
    """Issue one operation, time it, then check its output (untimed)."""
    scope = tracer.span(f"op.{op.kind}") if tracer else nullcontext()
    t0 = time.perf_counter()
    try:
        with scope:
            result = execute(op)
    except Exception as exc:  # a failed operation is counted, the run goes on
        return Outcome(op, time.perf_counter() - t0, [f"{type(exc).__name__}: {exc}"])
    latency = time.perf_counter() - t0
    if tracer:
        for name, value in wl.counters(op, result).items():
            tracer.note_max(name, value)
    return Outcome(op, latency, wl.check(op, result))


def rounds_for(name: str, seconds: float) -> int:
    return min(MAX_ROUNDS, max(2, round(seconds / ROUND_S[name])))


def run_rounds(wl, count: int):
    """The first ``count`` rounds: (outcomes, wall seconds of each round)."""
    outcomes, walls = [], []
    for rnd in wl.rounds[:count]:
        done, wall = replay(wl, rnd, wl.execute)
        outcomes += done
        walls.append(wall)
    return outcomes, walls


def measured(wl, ops) -> list:
    """Each operation bracketed by host-speed calibration samples, which set
    its factor to reference seconds (see calibrate.py)."""
    outcomes, before = [], wl.calibrate()
    for op in ops:
        outcome = timed(wl, op, wl.execute)
        after = wl.calibrate()
        outcome.scale = calibrate.scale(wl.reference_s, before, after)
        outcomes.append(outcome)
        before = after
    return outcomes


def replay(wl, ops, execute, tracer=None):
    start = time.perf_counter()
    outcomes = [timed(wl, op, execute, tracer) for op in ops]
    return outcomes, time.perf_counter() - start


def latency_stats(latencies: list) -> dict:
    """Median, and the highest percentile with at least ten samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n >= 11:
        tail, pct = ordered[n - 11], 100.0 * (n - 10) / n
    else:  # too few samples for a tail: report the maximum and say so
        tail, pct = ordered[-1], 100.0
    return {"p50": statistics.median(ordered), "tail": tail,
            "tail_percentile": pct, "samples": n}


def repeated_share(outcomes: list) -> float:
    seen, repeats = set(), 0
    for o in outcomes:
        repeats += o.op.key in seen
        seen.add(o.op.key)
    return repeats / len(outcomes)


def measure_setup(name: str, seed: int) -> tuple:
    """Set-up time of a fresh interpreter, spawn until it reports ready:
    (reference seconds, wall seconds), bracketed by spawn calibrations."""
    env = dict(os.environ)
    before = calibrate.spawn_sample(env, ROOT)
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, __file__, "--workload", name, "--seed", str(seed),
         "--setup-probe"], cwd=ROOT, stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        rc = proc.wait(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or rc != 0:
        raise RuntimeError(f"set-up probe for {name} failed (exit {rc})")
    after = calibrate.spawn_sample(env, ROOT)
    return elapsed * calibrate.scale(calibrate.REFERENCE_SPAWN_S, before, after), elapsed


def write_out(kind: str, name: str, seed: int, payload: dict) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"{kind}-{name}-seed{seed}.json", "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, default=str)


def op_records(outcomes: list) -> list:
    return [{"kind": o.op.kind, "params": o.op.params, "latency_s": o.latency_s,
             "ref_latency_s": o.ref_latency_s, "ok": o.ok, "errors": o.errors}
            for o in outcomes]


def result_line(outcomes: list, metrics: dict) -> str:
    failed = sum(not o.ok for o in outcomes)
    return json.dumps({"correct": failed == 0, "attempted": len(outcomes),
                       "failed": failed, "metrics": metrics})


def report_failures(outcomes: list) -> None:
    for o in outcomes:
        if not o.ok:
            print(f"FAILED {o.op.kind} [{o.op.key}]: {'; '.join(o.errors)}",
                  file=sys.stderr)


def untraced(name: str, seed: int, seconds: float) -> tuple:
    count = rounds_for(name, seconds)
    wl = make_workload(name, seed)
    wl.warm_up()
    # set-up probes before the first round, mid-run and after the last, so a
    # slow spell of the host does not land on all of them
    setup, outcomes, rounds = [measure_setup(name, seed)], [], []
    start = time.perf_counter()
    for i in range(count):
        if i == count // 2:
            setup.append(measure_setup(name, seed))
        rounds.append(measured(wl, wl.rounds[i]))
        outcomes += rounds[-1]
        if time.perf_counter() - start > OVERRUN * seconds and i + 1 < count:
            print(f"{name}: host too slow, stopping after {i + 1} of {count} rounds",
                  file=sys.stderr)
            break
    setup.append(measure_setup(name, seed))
    wall = time.perf_counter() - start
    stats = latency_stats([o.ref_latency_s for o in outcomes])
    raw = latency_stats([o.latency_s for o in outcomes])
    metrics = {
        "setup_s": {"value": statistics.median(s for s, _ in setup), "unit": "s"},
        "op_p50_s": {"value": stats["p50"], "unit": "s"},
        "op_tail_s": {"value": stats["tail"], "unit": "s"},
        # the median round's rate: a host stall during one round does not count
        "ops_per_s": {"value": statistics.median(
            len(r) / sum(o.ref_latency_s for o in r) for r in rounds), "unit": "1/s"},
        "peak_rss_mb": {"value": wl.peak_rss_mb(), "unit": "MB"},
    }
    scales = [o.scale for o in outcomes]
    share = repeated_share(outcomes)
    failed = sum(not o.ok for o in outcomes)
    print(f"{name} seed={seed}: {len(outcomes)} ops in {count} rounds, {wall:.2f} s, "
          f"fail_ratio={failed / len(outcomes):.4g}, repeated_share={share:.3f}, "
          f"tail=p{stats['tail_percentile']:.1f} of {stats['samples']}, "
          f"blas_threads={BLAS_THREADS}", file=sys.stderr)
    print(f"  wall clock: setup {statistics.median(w for _, w in setup):.4g} s, "
          f"op p50 {raw['p50']:.4g} s, tail {raw['tail']:.4g} s; host speed factor "
          f"median {statistics.median(scales):.3f}, range "
          f"{min(scales):.3f}-{max(scales):.3f}", file=sys.stderr)
    for key, m in metrics.items():
        print(f"  {key} = {m['value']:.6g} {m['unit']}", file=sys.stderr)
    report_failures(outcomes)
    write_out("ops", name, seed, {
        "workload": name, "seed": seed, "wall_s": wall, "setup_samples_s": setup,
        "repeated_share": share, "latency": stats, "wall_latency": raw,
        "blas_threads": BLAS_THREADS,
        "metrics": metrics, "ops": op_records(outcomes)})
    return outcomes, metrics


def traced(name: str, seed: int, seconds: float) -> tuple:
    """Each operation run untraced and then traced, back to back.

    Pairing the two runs of an operation keeps a slow spell of the host
    out of the overhead ratio.  cli_presets first times fresh processes for
    the per-subcommand latencies, then pairs in-process replays of the same
    argv lists through ``iondec.cli.main``.
    """
    from tracing import Tracer, import_times, layer_metrics

    tracer = Tracer()
    wl = make_workload(name, seed)
    count = rounds_for(name, seconds)
    cli_calls = {}
    outcomes = []
    tracer.phase = "setup"  # warm-up under the tracer: first calls, zeta caches
    if isinstance(wl, CliWorkload):
        wl.warm_up()
        outcomes, _ = run_rounds(wl, max(1, count // 2))
        for sub in wl.wl.SUBCOMMANDS:
            good = [o.latency_s for o in outcomes
                    if o.op.params["argv"][0] == sub and o.op.params["expect_rc"] == 0]
            cli_calls[sub] = statistics.median(good) if good else 0.0
        execute = wl.execute_inprocess
        tracer.install()
        outcomes += replay(wl, wl.rounds[0], execute, tracer)[0]
    else:
        count = max(1, count // 2)
        execute = wl.execute
        tracer.install()
        wl.warm_up()
    tracer.uninstall()
    tracer.phase = "ops"
    base_wall = traced_wall = 0.0
    ops = [op for rnd in wl.rounds[:count] for op in rnd]
    for op in ops:
        done, wall = replay(wl, [op], execute)
        base_wall += wall
        tracer.install()
        try:
            again, wall = replay(wl, [op], execute, tracer)
        finally:
            tracer.uninstall()
        traced_wall += wall
        outcomes += done + again
    imports = import_times(dict(os.environ))
    metrics = layer_metrics(tracer, cli_calls=cli_calls, imports=imports,
                            overhead_ratio=traced_wall / base_wall)
    print(f"{name} seed={seed} traced: {len(ops)} ops paired, untraced "
          f"{base_wall:.3f} s, traced {traced_wall:.3f} s, "
          f"{len(tracer.spans)} spans, absent kernels: {tracer.absent or 'none'}",
          file=sys.stderr)
    for key, m in metrics.items():
        print(f"  {key} = {m['value']:.6g} {m['unit']}", file=sys.stderr)
    report_failures(outcomes)
    write_out("trace", name, seed, {"workload": name, "seed": seed,
                                    "metrics": metrics, **tracer.dump()})
    return outcomes, metrics


def defects(seed: int) -> tuple:
    """Known defects, each expected to pass once fixed; one attempt each."""
    import wl_chain
    import wl_cli

    cli = CliWorkload(seed)
    ops = [wl_cli.make_op(argv, 1) for argv in wl_cli.DEFECTS]
    outcomes = [timed(cli, op, cli.execute) for op in ops]
    # no seed reference exists above N ~ 4000, so only the certificate is checked
    chain = LibraryWorkload("chain_pipeline", seed)
    chain.check = lambda op, out: wl_chain.certificate(out)
    outcomes.append(timed(chain, wl_chain.defect_op(seed), chain.execute))
    report_failures(outcomes)
    failed = sum(not o.ok for o in outcomes)
    metrics = {"fail_ratio": {"value": failed / len(outcomes), "unit": "ratio"}}
    write_out("ops", "defects", seed, {"workload": "defects", "seed": seed,
                                       "metrics": metrics, "ops": op_records(outcomes)})
    return outcomes, metrics


def run_all(seed: int, seconds: float) -> int:
    """Every workload in its own process; one table of metrics and failures."""
    rows = []
    for name in WORKLOADS + ("defects",):
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not proc.stdout.strip():
            print(f"{name}: run failed with exit {proc.returncode}")
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["metrics"]["fail_ratio"] = {
            "value": result["failed"] / result["attempted"], "unit": "ratio"}
        rows += [(name, key, m["value"], m["unit"]) for key, m in result["metrics"].items()]
    print(f"{'workload':16} {'metric':12} {'value':>14} unit")
    for name, key, value, unit in rows:
        print(f"{name:16} {key:12} {value:14.6g} {unit}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("defects",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.all and args.workload is None:
        parser.error("give --workload or --all")
    try:
        use_checkout_sources()
    except SourceMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.all:
        return run_all(args.seed, args.seconds)
    if args.setup_probe:
        make_workload(args.workload, args.seed).warm_up()
        print("ready", flush=True)
        return 0
    if args.workload == "defects":
        outcomes, metrics = defects(args.seed)
    elif args.trace:
        outcomes, metrics = traced(args.workload, args.seed, args.seconds)
    else:
        outcomes, metrics = untraced(args.workload, args.seed, args.seconds)
    print(result_line(outcomes, metrics), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
