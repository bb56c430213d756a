"""Host-speed calibration: fixed work that no change to iondec can speed up.

The benchmark runs on a few cores of a shared host whose speed drifts by
15-40% over minutes: a fixed pure-Python loop's median over 30 s windows
spread 0.17 of its median (IQR) over five minutes on a 2-vCPU x86-64 VM,
and the process's CPU time drifted with its wall time, so the slowdown is
not stolen time that CPU clocks would leave out.  No run length removes
such a drift from a wall-clock latency.  What does is a calibration sample
taken right before and right after each operation: the ratio of the two
follows the program, while the host's speed, shared by both, cancels out.

Each operation's latency is therefore also reported in reference seconds:
its wall time times ``reference / calibration``, where ``calibration`` is
the mean of the samples that bracket it and ``reference`` is the sample's
median on the reference machine (the constants below).  On that machine,
at its usual speed, reference seconds are about wall seconds.

A slow spell does not slow all code alike, so each workload has a sample
made of the same kinds of work as its operations:

* ``SmallArrays`` (tls_*): a Python loop, numpy calls on small complex
  arrays (batched 2x2 products, as an RK4 chunk makes) and a small dense
  solve.
* ``DensePairwise`` (chain_pipeline): N x N pairwise float64 arrays like a
  Coulomb force and Jacobian, a dense LAPACK solve, and a longdouble pair
  sum.  Against a solve-and-sum operation at N ~ 330, its log-log slope was
  0.92 and the per-operation ratio's IQR 0.06 of its median, where the
  small-array sample gave 0.56 and 0.15.
* ``spawn_sample`` (cli_presets, and every workload's set-up time): a
  fresh interpreter that imports numpy and exits.
"""
from __future__ import annotations

import os
import subprocess
import sys
import threading
import time

# Median of one spawn sample on the reference machine (2-vCPU x86-64 VM,
# Intel Xeon, Python 3.11, numpy 2.4 with one OpenBLAS thread).
REFERENCE_SPAWN_S = 0.130
SPAWN_TIMEOUT_S = 60.0


class _Sample:
    """An in-process sample; its arrays are built once, outside the timing."""

    reference_s: float  # median of one sample on the reference machine

    def __init__(self):
        import numpy as np

        self.np = np
        self.rng = np.random.default_rng(12345)

    def work(self) -> float:
        raise NotImplementedError

    def __call__(self) -> float:
        t0 = time.perf_counter()
        self.work()
        return time.perf_counter() - t0


class SmallArrays(_Sample):
    reference_s = 0.070
    LOOP = 320_000
    BATCH = 512
    ROUNDS = 120
    SOLVE_N = 400

    def __init__(self):
        super().__init__()
        np, rng, n = self.np, self.rng, self.SOLVE_N
        self.theta = rng.uniform(0.0, 6.0, self.BATCH)
        self.dense = rng.standard_normal((n, n)) + n * np.eye(n)
        self.rhs = rng.standard_normal(n)

    def work(self) -> float:
        np = self.np
        acc = 0
        for i in range(self.LOOP):
            acc += (i * i) % 7
        g = np.exp(1j * self.theta) * 1e-2
        zeros = np.zeros_like(g)
        for _ in range(self.ROUNDS):
            mats = np.stack([np.stack([zeros, -1j * g], axis=-1),
                             np.stack([-1j * np.conj(g), zeros], axis=-1)], axis=-2)
            prod = mats @ (np.eye(2) + 0.5 * mats)
            while prod.shape[0] > 1:
                prod = prod[1::2] @ prod[0::2]
            g = g * (1.0 + 1e-3 * prod[0, 0, 0])
        x = np.linalg.solve(self.dense, self.rhs)
        return float(acc) + float(abs(g[0])) + float(x[0])


class DensePairwise(_Sample):
    reference_s = 0.035
    N = 400
    LONG_N = 220
    REPEATS = 2

    def __init__(self):
        super().__init__()
        np, rng, n = self.np, self.rng, self.N
        self.x = np.sort(rng.uniform(-1.0, 1.0, n))
        self.matrix = rng.standard_normal((n, n)) + n * np.eye(n)
        self.rhs = rng.standard_normal(n)
        self.xl = np.sort(rng.uniform(-1.0, 1.0, self.LONG_N)).astype(np.longdouble)

    def work(self) -> float:
        np = self.np
        total = 0.0
        for _ in range(self.REPEATS):
            d = self.x[:, None] - self.x[None, :]
            np.fill_diagonal(d, 1.0)
            force = np.sign(d) / d**2
            np.fill_diagonal(force, 0.0)
            jac = 2.0 / np.abs(d) ** 3
            np.fill_diagonal(jac, 0.0)
            jac[np.diag_indices_from(jac)] = -jac.sum(axis=1)
            step = np.linalg.solve(self.matrix + 1e-3 * jac, self.rhs + force.sum(axis=1))
            total += float(step[0])
        dl = np.abs(self.xl[:, None] - self.xl[None, :])
        np.fill_diagonal(dl, 1)
        return total + float((dl ** -8).sum())


def spawn_sample(env: dict, cwd) -> float:
    """Seconds for a fresh interpreter to import numpy and exit.

    The wait blocks in waitpid and a timer kills a hung child: a wait with
    a timeout polls with sleeps of up to 50 ms, which would quantize the
    sample.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", "import numpy"], cwd=cwd, env=env,
                            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    timer = threading.Timer(SPAWN_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        rc = proc.wait()
    finally:
        timer.cancel()
    elapsed = time.perf_counter() - t0
    if rc != 0:
        raise RuntimeError(f"calibration interpreter failed (exit {rc})")
    return elapsed


def scale(reference: float, before: float, after: float) -> float:
    """Factor from wall seconds to reference seconds for a bracketed span."""
    return reference / (0.5 * (before + after))


if __name__ == "__main__":
    # Print the median of many samples of each kind, for the constants above.
    import statistics

    import run  # pins BLAS threads before numpy loads

    for kind in (SmallArrays, DensePairwise):
        sample = kind()
        sample()
        print(f"{kind.__name__} {statistics.median(sample() for _ in range(200)):.5f} s")
    spawned = [spawn_sample(dict(os.environ), os.getcwd()) for _ in range(100)]
    print(f"spawn {statistics.median(spawned):.5f} s")
