"""Tests of the benchmark harness itself (not part of the package's suite).

    python3 -m pytest perfbench/selftest.py -q
"""
from __future__ import annotations

import json

import pytest

import run
import tracing
import wl_chain
import wl_cli
import wl_tls
from common import ROOT, load_reference

run.use_checkout_sources()
SMALL_N = wl_chain.BANDS[0][0]

ROUNDS = {
    "cli_presets": wl_cli.rounds,
    "chain_pipeline": wl_chain.rounds,
    "tls_circular": wl_tls.circular_rounds,
    "tls_sampled": wl_tls.sampled_rounds,
}
REFERENCE = {"cli_presets": "cli", "chain_pipeline": "chain",
             "tls_circular": "tls", "tls_sampled": "tls"}


def keys(name, seed, count=8):
    return [[op.key for op in rnd] for rnd in run.take(ROUNDS[name](seed), count)]


@pytest.mark.parametrize("name", sorted(ROUNDS))
def test_same_seed_same_inputs_other_seed_other_inputs(name):
    assert keys(name, 7) == keys(name, 7)
    assert keys(name, 7) != keys(name, 8)


@pytest.mark.parametrize("name", sorted(ROUNDS))
def test_every_generated_input_has_a_reference(name):
    ref = load_reference(REFERENCE[name])
    for seed in range(3):
        for rnd in keys(name, seed, run.MAX_ROUNDS):
            assert all(key in ref for key in rnd)


def test_a_cli_run_holds_each_adiabatic_window_equally_often():
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    count = run.rounds_for("cli_presets", seconds)
    for seed in range(3):
        good = {" ".join(argv) for argv in wl_cli.CATALOG["adiabatic"]}
        windows = [k.split()[2] for rnd in keys("cli_presets", seed, count) for k in rnd
                   if k in good]
        assert sorted(windows) == sorted(wl_cli.ADIABATIC_THETA * (count // 3))


def test_chain_inputs_are_distinct_within_a_run():
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    count = run.rounds_for("chain_pipeline", seconds)
    flat = [k.split()[0] for rnd in keys("chain_pipeline", 1, count) for k in rnd]
    assert len(flat) == len(set(flat))


class Stub:
    """A workload whose program returns whatever the test hands it."""

    def __init__(self, result, check):
        self.result, self._check = result, check

    def execute(self, op):
        return self.result

    def check(self, op, result):
        return self._check(op, result)

    def counters(self, op, result):
        return {}


def test_calibration_samples_bracket_each_operation():
    samples = iter([0.02, 0.04, 0.03])

    class Calibrated(Stub):
        reference_s = 0.03

        def calibrate(self):
            return next(samples)

    ops = [wl_chain.make_op(SMALL_N, "E1"), wl_chain.make_op(SMALL_N + 1, "E2")]
    out = run.measured(Calibrated({}, lambda o, r: []), ops)
    assert [o.scale for o in out] == pytest.approx([1.0, 0.03 / 0.035])
    assert out[1].ref_latency_s == pytest.approx(out[1].latency_s * 0.03 / 0.035)


def test_wrong_library_output_counts_as_failed():
    op = wl_chain.make_op(SMALL_N, "E2")
    ref = load_reference("chain")[op.key]
    wrong = dict(ref, tau_vib=ref["tau_vib"] * (1 + 1e-6))
    good = run.timed(Stub(ref, lambda o, r: wl_chain.check(o, r, ref)), op,
                     lambda o: ref)
    bad = run.timed(Stub(wrong, lambda o, r: wl_chain.check(o, r, ref)), op,
                    lambda o: wrong)
    line = json.loads(run.result_line([good, bad], {}))
    assert (line["attempted"], line["failed"], line["correct"]) == (2, 1, False)
    assert any("tau_vib" in e for e in bad.errors)


def test_nan_certificate_counts_as_failed():
    op = wl_chain.make_op(SMALL_N, "E2")
    ref = load_reference("chain")[op.key]
    assert wl_chain.check(op, dict(ref, residual=float("nan")), ref)


def test_exception_counts_as_failed():
    def boom(op):
        raise ZeroDivisionError("x")
    out = run.timed(Stub(None, lambda o, r: []), wl_chain.make_op(SMALL_N, "E1"), boom)
    assert not out.ok and "ZeroDivisionError" in out.errors[0]


def test_wrong_exit_code_or_output_counts_as_failed():
    argv = ("scales",)
    op = wl_cli.make_op(argv, 0)
    ref = load_reference("cli")[op.key]
    rc, out, err = wl_cli.run_inprocess(argv)
    assert wl_cli.check(op, rc, out, err, ref) == []
    assert wl_cli.check(op, 1, out, err, ref)
    assert wl_cli.check(op, rc, out.replace("d0,", "d0,9"), err, ref)
    refused = wl_cli.make_op(("equilibrium", "--n-ions", "0"), 1)
    assert wl_cli.check(refused, 0, "", "", None)
    assert wl_cli.check(refused, 1, "", "Traceback\n  boom\nValueError: x\n", None)
    assert wl_cli.check(refused, 1, "", "error: n_ions: must be >= 1\n", None) == []


def test_certificate_values_are_masked_but_bounded():
    argv = ("equilibrium", "--n-ions", "5")
    op = wl_cli.make_op(argv, 0)
    ref = load_reference("cli")[op.key]
    rc, out, err = wl_cli.run_inprocess(argv)
    assert wl_cli.check(op, rc, out, err, ref) == []
    first, rest = out.split("\n", 1)
    worse = first.split("residual = ")[0] + "residual = nan, d0_m" + first.split(", d0_m")[1]
    assert wl_cli.check(op, rc, worse + "\n" + rest, err, ref)


def test_self_time_subtracts_child_intervals():
    S = tracing.Span
    spans = [S(0, None, 0, "op", "ops", 0.0, 10.0),
             S(1, 0, 0, "a", "ops", 1.0, 4.0),
             S(2, 1, 0, "b", "ops", 2.0, 3.0),
             S(3, 0, 0, "c", "ops", 5.0, 9.0),
             S(4, 3, 0, "b", "ops", 5.0, 6.0),
             S(5, 3, 0, "b", "ops", 8.0, 9.5)]  # runs past its parent's end
    self_s = tracing.self_times(spans)
    assert self_s == {0: 3.0, 1: 2.0, 2: 1.0, 3: 2.0, 4: 1.0, 5: 1.5}
    ix = tracing.SpanIndex(spans)
    assert ix.busy("b") == pytest.approx(3.5)
    assert ix.self_time("c") == pytest.approx(2.0)
    assert ix.descendants(spans[0], "b") == 3


def test_busy_time_counts_nested_calls_of_one_name_once():
    S = tracing.Span
    spans = [S(0, None, 0, "f", "ops", 0.0, 4.0), S(1, 0, 0, "f", "ops", 1.0, 2.0)]
    assert tracing.SpanIndex(spans).busy("f") == 4.0


def test_parse_importtime():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy.core",
        "import time:        50 |        150 |   numpy",
        "import time:        20 |         20 |       scipy._lib",
        "import time:        30 |         50 |     scipy",
        "import time:        40 |         90 |   scipy.optimize",
        "import time:        10 |        250 | iondec",
    ])
    assert tracing.parse_importtime(text) == pytest.approx({"iondec": 250e-6,
                                                            "scipy": 90e-6})


def test_tail_has_ten_samples_beyond_it():
    stats = run.latency_stats([float(i) for i in range(40)])
    assert stats["tail"] == 29.0 and stats["tail_percentile"] == 75.0
    assert stats["p50"] == 19.5


def test_tracer_wraps_and_restores():
    from iondec import chain, decoherence

    original = chain.solve_equilibrium
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert decoherence.solve_equilibrium is not original
        chain.solve_equilibrium(6)
    finally:
        tracer.uninstall()
    assert chain.solve_equilibrium is original
    assert decoherence.solve_equilibrium is original
    names = {s.name for s in tracer.spans}
    assert {"chain.solve_equilibrium", "chain._force", "chain._jacobian"} <= names
    metrics = tracing.layer_metrics(tracer, cli_calls={}, imports={},
                                    overhead_ratio=1.0)
    assert metrics["chain.solve_equilibrium.calls"]["value"] == 1
    assert metrics["chain.newton_iters"]["value"] >= 1


def test_benchmark_file_matches_the_harness():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert [m["name"] for m in bench["per_layer"]] == list(tracing.LAYER_METRICS)
    assert [m["unit"] for m in bench["per_layer"]] == [
        u for u, _ in tracing.LAYER_METRICS.values()]
    assert {m["name"] for m in bench["end_to_end"]} == {
        "setup_s", "op_p50_s", "op_tail_s", "ops_per_s", "peak_rss_mb"}
