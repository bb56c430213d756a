"""Spans around the calls into iondec's modules, recorded from outside.

The tracer replaces each public function of the package's modules (and the
private kernels named in PRIVATE_KERNELS, while they exist) with a wrapper
that records a span: name, start, end, parent, the operation it belongs to,
and a few quantities computed from the arguments (N^2 force pairs, 8 N^2
Jacobian bytes, RK4 steps).  Every module namespace that binds the function
is patched, so calls between modules are seen too.  Spans stay in memory
and are written out when the run ends.  Nothing inside the package changes.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import math
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

MODULES = ("physmodel", "chain", "continuum", "sums", "decoherence", "scaling",
           "adiabatic", "cli")
PRIVATE_KERNELS = {"chain": ("_force", "_jacobian"), "adiabatic": ("_chunk_operator",)}

# Per-layer metrics: name -> (unit, the end-to-end metric and workload it
# should move).  This order is the order of BENCHMARK.json's per_layer list.
LAYER_METRICS = {
    "import.iondec_s": ("s", "setup_s on every workload; op_p50_s on cli_presets"),
    "import.scipy_s": ("s", "setup_s on every workload; op_p50_s on cli_presets"),
    **{f"cli.call_s.{sub}": ("s", "op_p50_s and op_tail_s on cli_presets")
       for sub in ("scales", "equilibrium", "continuum", "sums", "adiabatic",
                   "decohere", "scaling")},
    "scaling.scan.busy_s": ("s", "op_p50_s on cli_presets"),
    "scaling.fit_exponent.busy_s": ("s", "op_p50_s on cli_presets"),
    "physmodel.derive_scales.calls": ("count", "op_p50_s on cli_presets"),
    "chain.solve_equilibrium.calls": ("count", "op_p50_s on chain_pipeline"),
    "chain.solve_equilibrium.busy_s": ("s", "op_p50_s, op_tail_s, ops_per_s on chain_pipeline"),
    "chain.solve_equilibrium.self_s": ("s", "op_p50_s on chain_pipeline"),
    "chain.solve_equilibrium.fail": ("count", "failed on chain_pipeline"),
    "chain.newton_iters": ("count", "op_p50_s, op_tail_s on chain_pipeline"),
    "chain.backtracks": ("count", "op_p50_s on chain_pipeline"),
    "chain.residual_max": ("dimensionless", "correctness on chain_pipeline"),
    "chain._force.calls": ("count", "op_p50_s on chain_pipeline"),
    "chain._force.busy_s": ("s", "op_p50_s, op_tail_s on chain_pipeline"),
    "chain._jacobian.busy_s": ("s", "op_p50_s, op_tail_s on chain_pipeline"),
    "chain.force_pairs_per_s": ("1/s", "ops_per_s on chain_pipeline"),
    "chain.jacobian_bytes": ("B", "peak_rss_mb on chain_pipeline"),
    "sums.pair_sum_exact_all.calls": ("count", "op_p50_s on chain_pipeline"),
    "sums.pair_sum_exact_all.busy_s": ("s", "op_p50_s on chain_pipeline"),
    "sums.pair_sum_exact_all.pairs_per_s": ("1/s", "op_p50_s on chain_pipeline"),
    "sums.continuum_sites.busy_s": ("s", "op_p50_s on chain_pipeline"),
    "sums.zeta.busy_s": ("s", "setup_s on chain_pipeline and cli_presets"),
    "decoherence.per_ion_rates.self_s": ("s", "op_p50_s on chain_pipeline"),
    "decoherence.build_report.self_s": ("s", "op_p50_s on chain_pipeline"),
    "decoherence.fidelity_curve.busy_s": ("s", "op_p50_s on chain_pipeline"),
    "adiabatic.integrate_tls.calls": ("count", "ops_per_s on tls_circular and tls_sampled"),
    "adiabatic.integrate_tls.busy_s": ("s", "op_p50_s, op_tail_s on tls_circular and tls_sampled"),
    "adiabatic.integrate_tls.steps": ("count", "op_tail_s on tls_circular"),
    "adiabatic.integrate_tls.steps_per_s": ("1/s", "op_tail_s on tls_circular and tls_sampled"),
    "adiabatic.integrate_tls.chunks": ("count", "op_p50_s on tls_circular and tls_sampled"),
    "adiabatic._chunk_operator.busy_s": ("s", "op_p50_s, op_tail_s on tls_circular and tls_sampled"),
    "adiabatic._chunk_operator.share": ("ratio", "op_p50_s on tls_circular and tls_sampled"),
    "adiabatic.norm_drift_max": ("dimensionless", "correctness on tls_circular and tls_sampled"),
    "adiabatic.overlap_err_max": ("dimensionless", "correctness on tls_circular and tls_sampled"),
    "trace.overhead_ratio": ("ratio", "none: traced wall time over untraced, same operations"),
}


@dataclass
class Span:
    sid: int
    parent: int | None
    root: int
    name: str
    phase: str
    start: float
    end: float = math.nan
    failed: bool = False
    info: dict = field(default_factory=dict)


def _integrate_steps(args: dict) -> dict:
    """RK4 steps integrate_tls is asked for (its own step rule), and chunks."""
    from iondec import adiabatic

    omega0, t_end = args["omega0"], args["t_end"]
    dt = args["dt"] if args["dt"] is not None else adiabatic.DEFAULT_DTHETA / omega0
    theta_end = omega0 * t_end
    steps = max(1, math.ceil(theta_end / (omega0 * dt) - 1e-9)) if theta_end > 0 else 0
    return {"steps": steps}


# name -> function(bound arguments, result) -> span info
HOOKS = {
    "chain.solve_equilibrium": lambda a, r: {"n": int(a["n_ions"]),
                                             "residual": float(r.residual)},
    "chain._force": lambda a, r: {"pairs": a["u"].size ** 2},
    "chain._jacobian": lambda a, r: {"bytes": 8 * a["u"].size ** 2},
    "sums.pair_sum_exact_all": lambda a, r: {"pairs": a["chain"].n_ions * (a["chain"].n_ions - 1)},
    "adiabatic.integrate_tls": lambda a, r: {**_integrate_steps(a),
                                             "chunks": r.theta.size - 1,
                                             "norm_drift": float(r.norm_drift)},
}


class Tracer:
    """Collects spans while installed; ``phase`` tags the spans opened."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.maxima: dict[str, float] = {}
        self.phase = "ops"
        self.absent: list[str] = []
        self._stack: list[Span] = []
        self._patches: list = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        sid = len(self.spans)
        rec = Span(sid=sid, parent=parent.sid if parent else None,
                   root=parent.root if parent else sid, name=name,
                   phase=self.phase, start=self.clock())
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield rec
        except BaseException:
            rec.failed = True
            raise
        finally:
            rec.end = self.clock()
            self._stack.pop()

    def note_max(self, name: str, value: float) -> None:
        self.maxima[name] = max(self.maxima.get(name, -math.inf), value)

    def wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        sig = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
            if hook:
                try:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    rec.info = hook(bound.arguments, result)
                except (KeyError, AttributeError, TypeError) as exc:
                    # the function changed shape: keep the span, drop its counts
                    rec.info = {"hook_error": f"{type(exc).__name__}: {exc}"}
            return result
        return traced

    def install(self) -> None:
        """Wrap every target in every iondec module namespace that binds it."""
        if self._patches:
            return
        targets = {}
        self.absent = []
        for short in MODULES:
            mod = importlib.import_module(f"iondec.{short}")
            for attr, obj in vars(mod).items():
                if _is_public_function(mod, attr, obj):
                    targets[id(obj)] = (obj, self.wrap(f"{short}.{attr}", obj))
            for attr in PRIVATE_KERNELS.get(short, ()):
                obj = getattr(mod, attr, None)
                if obj is None:
                    self.absent.append(f"{short}.{attr}")
                else:
                    targets[id(obj)] = (obj, self.wrap(f"{short}.{attr}", obj))
        for mod in [m for n, m in sys.modules.items() if n.split(".")[0] == "iondec"]:
            for attr, obj in list(vars(mod).items()):
                hit = targets.get(id(obj))
                if hit and hit[0] is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patches):
            setattr(mod, attr, obj)
        self._patches = []

    def dump(self) -> dict:
        return {"spans": [asdict(s) for s in self.spans], "maxima": self.maxima,
                "absent": self.absent}


def _is_public_function(mod, attr: str, obj) -> bool:
    return (not attr.startswith("_") and callable(obj) and not isinstance(obj, type)
            and getattr(obj, "__module__", None) == mod.__name__)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for lo, hi in sorted(children[s.sid]):
            lo, hi = max(lo, reach), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.sid] = (s.end - s.start) - covered
    return out


class SpanIndex:
    """Aggregates over the spans of one phase."""

    def __init__(self, spans: list[Span], phase: str = "ops"):
        self.spans = [s for s in spans if s.phase == phase]
        self.by_sid = {s.sid: s for s in spans}
        self.self_s = self_times(spans)

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def _outermost(self, name: str) -> list[Span]:
        out = []
        for s in self.named(name):
            p = s.parent
            while p is not None and self.by_sid[p].name != name:
                p = self.by_sid[p].parent
            if p is None:
                out.append(s)
        return out

    def calls(self, name: str) -> int:
        return len(self.named(name))

    def busy(self, name: str) -> float:
        return sum(s.end - s.start for s in self._outermost(name))

    def self_time(self, name: str) -> float:
        return sum(self.self_s[s.sid] for s in self.named(name))

    def fails(self, name: str) -> int:
        return sum(s.failed for s in self.named(name))

    def info_sum(self, name: str, key: str) -> float:
        return sum(s.info.get(key, 0) for s in self.named(name))

    def info_max(self, name: str, key: str) -> float:
        return max((s.info[key] for s in self.named(name) if key in s.info), default=0.0)

    def descendants(self, span: Span, name: str) -> int:
        count = 0
        for s in self.spans:
            p = s.parent
            while p is not None and p != span.sid:
                p = self.by_sid[p].parent
            count += p == span.sid and s.name == name
        return count


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(tracer: Tracer, *, cli_calls: dict, imports: dict,
                  overhead_ratio: float) -> dict:
    """Every per-layer metric; a layer the workload does not run reads 0."""
    ix = SpanIndex(tracer.spans)
    setup = SpanIndex(tracer.spans, "setup")
    solves = ix.named("chain.solve_equilibrium")
    iters = sum(ix.descendants(s, "chain._jacobian") for s in solves)
    forces = sum(ix.descendants(s, "chain._force") for s in solves)
    integrate_busy = ix.busy("adiabatic.integrate_tls")
    values = {
        "import.iondec_s": imports.get("iondec", 0.0),
        "import.scipy_s": imports.get("scipy", 0.0),
        **{f"cli.call_s.{sub}": v for sub, v in cli_calls.items()},
        "scaling.scan.busy_s": ix.busy("scaling.scan"),
        "scaling.fit_exponent.busy_s": ix.busy("scaling.fit_exponent"),
        "physmodel.derive_scales.calls": ix.calls("physmodel.derive_scales"),
        "chain.solve_equilibrium.calls": len(solves),
        "chain.solve_equilibrium.busy_s": ix.busy("chain.solve_equilibrium"),
        "chain.solve_equilibrium.self_s": ix.self_time("chain.solve_equilibrium"),
        "chain.solve_equilibrium.fail": ix.fails("chain.solve_equilibrium"),
        "chain.newton_iters": iters,
        "chain.backtracks": max(0, forces - len(solves) - iters),
        "chain.residual_max": ix.info_max("chain.solve_equilibrium", "residual"),
        "chain._force.calls": ix.calls("chain._force"),
        "chain._force.busy_s": ix.busy("chain._force"),
        "chain._jacobian.busy_s": ix.busy("chain._jacobian"),
        "chain.force_pairs_per_s": _ratio(ix.info_sum("chain._force", "pairs"),
                                          ix.busy("chain._force")),
        "chain.jacobian_bytes": ix.info_max("chain._jacobian", "bytes"),
        "sums.pair_sum_exact_all.calls": ix.calls("sums.pair_sum_exact_all"),
        "sums.pair_sum_exact_all.busy_s": ix.busy("sums.pair_sum_exact_all"),
        "sums.pair_sum_exact_all.pairs_per_s": _ratio(
            ix.info_sum("sums.pair_sum_exact_all", "pairs"),
            ix.busy("sums.pair_sum_exact_all")),
        "sums.continuum_sites.busy_s": ix.busy("sums.continuum_sites"),
        # the zeta cache fills during set-up, so its cost is counted there too
        "sums.zeta.busy_s": ix.busy("sums.zeta") + setup.busy("sums.zeta"),
        "decoherence.per_ion_rates.self_s": ix.self_time("decoherence.per_ion_rates"),
        "decoherence.build_report.self_s": ix.self_time("decoherence.build_report"),
        "decoherence.fidelity_curve.busy_s": ix.busy("decoherence.fidelity_curve"),
        "adiabatic.integrate_tls.calls": ix.calls("adiabatic.integrate_tls"),
        "adiabatic.integrate_tls.busy_s": integrate_busy,
        "adiabatic.integrate_tls.steps": ix.info_sum("adiabatic.integrate_tls", "steps"),
        "adiabatic.integrate_tls.steps_per_s": _ratio(
            ix.info_sum("adiabatic.integrate_tls", "steps"), integrate_busy),
        "adiabatic.integrate_tls.chunks": ix.info_sum("adiabatic.integrate_tls", "chunks"),
        "adiabatic._chunk_operator.busy_s": ix.busy("adiabatic._chunk_operator"),
        "adiabatic._chunk_operator.share": _ratio(ix.busy("adiabatic._chunk_operator"),
                                                  integrate_busy),
        "adiabatic.norm_drift_max": ix.info_max("adiabatic.integrate_tls", "norm_drift"),
        "adiabatic.overlap_err_max": max(tracer.maxima.get("adiabatic.overlap_err_max", 0.0), 0.0),
        "trace.overhead_ratio": overhead_ratio,
    }
    missing = set(LAYER_METRICS) - set(values)
    values.update({name: 0.0 for name in missing})
    return {name: {"value": values[name], "unit": LAYER_METRICS[name][0]}
            for name in LAYER_METRICS}


def import_times(env: dict, repeats: int = 3) -> dict:
    """Median cumulative import time of ``iondec`` and of the scipy modules
    it pulls in, from ``-X importtime`` in fresh interpreters."""
    samples = defaultdict(list)
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import iondec"],
                              env=env, capture_output=True, text=True, timeout=120,
                              check=True)
        for name, value in parse_importtime(proc.stderr).items():
            samples[name].append(value)
    return {name: statistics.median(v) for name, v in samples.items()}


def parse_importtime(text: str) -> dict:
    """{'iondec': s, 'scipy': s}: iondec's cumulative time, and the summed
    cumulative time of scipy imports not nested in another scipy import."""
    rows = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|", 2)
        if not cumulative.strip().isdigit():
            continue  # the header line
        depth = (len(name) - len(name.lstrip(" "))) // 2
        rows.append((depth, int(cumulative) * 1e-6, name.strip()))
    out = {"iondec": 0.0, "scipy": 0.0}
    stack = []  # ancestors, walking the post-order listing backwards
    for depth, cumulative, name in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        parent = stack[-1][1] if stack else ""
        if name == "iondec":
            out["iondec"] = cumulative
        if name.split(".")[0] == "scipy" and parent.split(".")[0] != "scipy":
            out["scipy"] += cumulative
        stack.append((depth, name))
    return out
