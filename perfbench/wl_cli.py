"""cli_presets: one fresh ``python -m iondec.cli`` process per call.

Every call runs on the ``ba_example`` preset with light overrides, so the
interpreter start and ``import iondec`` dominate and the kernels do little
work.  A round calls each subcommand once (``decohere`` and ``scaling`` in
both of their modes) plus one bad input that must be refused with exit 1
and a one-line message.

The check compares stdout with the output recorded from the seed: the
non-comment lines byte for byte (by hash), the comment lines exactly except
the certificate values ``residual`` and ``norm_drift``, which must instead be
finite and within their bounds.
"""
from __future__ import annotations

import hashlib
import io
import math
import os
import re
import selectors
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

from common import (NORM_DRIFT_BUDGET, RESIDUAL_BOUND, ROOT, TRACKING_TOL, Op,
                    bounded, cycle_distinct, rng_for, shuffled)

NAME = "cli_presets"
CALL_TIMEOUT_S = 120.0

_E = ("E1", "E2")
# An adiabatic call's cost grows with theta_end (1e4 takes about three times
# as long as 1e3), so rounds take the windows in turn, each once in every
# three rounds, rather than at random.
ADIABATIC_THETA = ("1e3", "3e3", "1e4")
CATALOG = {
    "scales": [("scales",)] + [
        ("scales", "--n-ions", str(n), "--multipole", m)
        for n in (1, 2, 10, 100, 1000, 10000) for m in _E],
    "equilibrium": [
        ("equilibrium", "--n-ions", str(n))
        for n in (2, 3, 5, 8, 13, 21, 34, 55, 89, 120, 150, 180, 210, 240, 270, 300)],
    "continuum": [("continuum",)] + [
        ("continuum", "--points", str(p), "--n-ions", str(n))
        for p in (2, 11, 101, 301) for n in (10, 1000, 10000)],
    "sums": [
        ("sums", "--n-ions", str(n), "--exponent", str(e))
        for n in (10, 60, 150, 300) for e in (2, 6, 8, 16)],
    "adiabatic": [
        ("adiabatic", "--theta-end", t, "--eps-ratio", e, "--rot-ratio", r)
        for t in ADIABATIC_THETA for e in ("0.005", "0.01", "0.02")
        for r in ("0", "1e-3", "3e-3")],
    "decohere_discrete": [
        ("decohere", "--mode", "discrete", "--n-ions", str(n), "--multipole", m)
        for n in (2, 10, 50, 100, 200, 300) for m in _E],
    "decohere_closed": [("decohere", "--mode", "closed")] + [
        ("decohere", "--mode", "closed", "--n-ions", str(n), "--multipole", m)
        for n in (2, 100, 1000, 10000) for m in _E],
    "scaling_fixed_voltage": [
        ("scaling", "--policy", "fixed_voltage", "--n-min", a, "--n-max", b,
         "--multipole", m)
        for a, b in (("10", "100"), ("100", "1000"), ("1000", "10000"),
                     ("300", "30000")) for m in _E],
    "scaling_fixed_spacing": [
        ("scaling", "--policy", "fixed_spacing", "--n-min", a, "--n-max", b,
         "--multipole", m)
        for a, b in (("10", "100"), ("100", "1000"), ("1000", "10000"),
                     ("300", "30000")) for m in _E],
}
# Bad inputs the program already refuses correctly (exit 1, one line).
BAD = [
    ("equilibrium", "--n-ions", "0"),
    ("equilibrium", "--n-ions", "20000"),
    ("scales", "--n-ions", "-3"),
    ("scales", "--config", "no-such-config.ini"),
    ("sums", "--n-ions", "50", "--exponent", "1"),
    ("sums", "--n-ions", "1"),
    ("continuum", "--n-ions", "1"),
    ("adiabatic", "--theta-end", "-5"),
    ("adiabatic", "--eps-ratio", "-0.01"),
    ("decohere", "--mode", "closed", "--n-ions", "1"),
    ("scaling", "--n-min", "1", "--n-max", "10"),
    ("scaling", "--n-min", "100", "--n-max", "50"),
    ("scaling", "--policy", "fixed_spacing", "--s0-target=-1e-6"),
]
BAD_PER_ROUND = 1
# Known defects: these should be refused the same way but are not.  They
# run only in the ``defects`` probe, never in a benchmark workload.
DEFECTS = [
    ("adiabatic", "--eps-ratio", "nan"),
    ("continuum", "--points", "-1"),
    ("continuum", "--points", "0"),
]
SUBCOMMANDS = ("scales", "equilibrium", "continuum", "sums", "adiabatic",
               "decohere", "scaling")

_CERT = re.compile(r"\b(residual|norm_drift) = ([^,\s]+)")
_CERT_BOUNDS = {"residual": RESIDUAL_BOUND, "norm_drift": NORM_DRIFT_BUDGET}


def make_op(argv, expect_rc: int) -> Op:
    return Op(kind=f"cli.{argv[0]}", key=" ".join(argv),
              params={"argv": list(argv), "expect_rc": expect_rc})


def rounds(seed: int):
    """Endless seeded rounds: one call per catalog kind plus the bad inputs.

    Every three consecutive rounds hold each adiabatic window once."""
    rng = rng_for(NAME, seed)
    thetas = cycle_distinct(rng, ADIABATIC_THETA)
    while True:
        theta = next(thetas)
        choices = {kind: [argv for argv in CATALOG[kind]
                          if kind != "adiabatic" or argv[2] == theta]
                   for kind in CATALOG}
        ops = [make_op(rng.choice(choices[kind]), 0) for kind in CATALOG]
        ops += [make_op(argv, 1) for argv in rng.sample(BAD, BAD_PER_ROUND)]
        yield shuffled(rng, ops)


def child_env() -> dict:
    """Environment for CLI children: the checkout's own sources, nothing else."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("PYTHONSTARTUP", None)
    return env


def spawn(argv, env, timeout: float = CALL_TIMEOUT_S):
    """Run one CLI process; returns (rc, stdout, stderr, peak_rss_kb)."""
    proc = subprocess.Popen([sys.executable, "-m", "iondec.cli", *argv],
                            cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    chunks = {proc.stdout: [], proc.stderr: []}
    deadline = time.monotonic() + timeout
    with selectors.DefaultSelector() as sel:
        for pipe in chunks:
            sel.register(pipe, selectors.EVENT_READ)
        while sel.get_map():
            if time.monotonic() > deadline:
                proc.kill()
                deadline = float("inf")
            for key, _ in sel.select(timeout=1.0):
                data = os.read(key.fd, 65536)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    out = b"".join(chunks[proc.stdout]).decode("utf-8", "replace")
    err = b"".join(chunks[proc.stderr]).decode("utf-8", "replace")
    return proc.returncode, out, err, usage.ru_maxrss


def run_inprocess(argv):
    """Replay one call through ``iondec.cli.main`` in this process."""
    from iondec import cli

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli.main(list(argv))
    return rc, out.getvalue(), err.getvalue()


def digest(stdout: str) -> dict:
    """What the reference records of a successful call's stdout."""
    lines = stdout.split("\n")
    data = [line for line in lines if not line.startswith("#")]
    comments = [_CERT.sub(r"\1 = *", line) for line in lines if line.startswith("#")]
    return {"data_sha256": hashlib.sha256("\n".join(data).encode()).hexdigest(),
            "data_lines": len(data), "comments": comments}


def check(op: Op, rc: int, stdout: str, stderr: str, ref: dict | None) -> list:
    """Errors of one call against the exit-code contract and the reference."""
    errors = []
    expect = op.params["expect_rc"]
    if rc != expect:
        errors.append(f"exit code {rc}, expected {expect}: {_last_line(stderr)!r}")
        return errors
    if expect != 0:
        message = stderr.rstrip("\n")
        if stdout:
            errors.append("a refused call wrote to stdout")
        if "\n" in message or not message.startswith("error: "):
            errors.append(f"refusal is not a one-line 'error:' message: "
                          f"{len(message.splitlines())} lines ending {_last_line(message)!r}")
        return errors
    if stderr:
        errors.append(f"unexpected stderr: {_last_line(stderr)!r}")
    if ref is None:
        errors.append("no reference recorded for this call")
        return errors
    got = digest(stdout)
    if got["data_lines"] != ref["data_lines"] or got["data_sha256"] != ref["data_sha256"]:
        errors.append("data lines differ from the reference output")
    if got["comments"] != ref["comments"]:
        errors.append(f"comment lines differ: {got['comments']!r}")
    for name, value in _CERT.findall(stdout):
        try:
            number = float(value)
        except ValueError:
            number = float("nan")
        bounded(errors, name, number, _CERT_BOUNDS[name])
    if op.params["argv"][0] == "adiabatic":
        bounded(errors, "max abs_error", max_abs_error(stdout), TRACKING_TOL)
    return errors


def _last_line(text: str) -> str:
    """The last line of stderr: the message, without traceback file paths."""
    lines = text.strip().splitlines()
    return lines[-1][-200:] if lines else ""


def max_abs_error(stdout: str) -> float:
    """Largest |overlap - cos(Phi)| in an ``adiabatic`` table (NaN if any is)."""
    errors = [float(line.split(",")[3]) for line in stdout.split("\n")
              if line and not line.startswith(("#", "omega0_t"))]
    return math.nan if any(map(math.isnan, errors)) else max(errors)
