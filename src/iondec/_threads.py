"""The second CPU: how many CPUs a process may use, and the two-lane
lockstep schedule that ``chain``'s pairwise passes and ``adiabatic``'s
integrator run on.

A kernel splits each step of its work into two lanes, 0 and 1, that
write disjoint memory, and runs its steps in lockstep: both lanes finish
step i before either starts step i + 1.  With a worker, lane 1 runs on
it and lane 0 on the calling thread, with a barrier between steps;
without one, the caller runs lane 0, then lane 1, and starts no thread.
Each lane computes the same bits wherever it runs, so the output does
not depend on the schedule.  Each kernel decides from _usable_cpus(),
and from whether it has enough numpy work per step to release the GIL
for, whether to start the worker at all.
"""
from __future__ import annotations

import contextvars
import os
import threading


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the OS
    reports one, else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _in_two(*steps, threaded):
    """Run ``steps`` in the lockstep schedule (module docstring), step(k)
    being lane k of a step: on a joined worker when ``threaded``, else on
    this thread alone.  The worker runs in a copy of this thread's
    context, as numpy's errstate is a context variable from numpy 2.0 on.
    An exception of either thread breaks the barrier, so the other stops
    at its next wait, and is raised after the join, this thread's first."""
    if not threaded:
        for step in steps:
            step(0)
            step(1)
        return
    barrier, failed = threading.Barrier(2), [None, None]

    def run(k):
        try:
            for i, step in enumerate(steps):
                if i:
                    barrier.wait()
                step(k)
        except threading.BrokenBarrierError:
            pass  # the other thread failed, and its exception is raised
        except BaseException as exc:  # re-raised on the caller's thread
            barrier.abort()
            failed[k] = exc

    thread = threading.Thread(target=contextvars.copy_context().run, args=(run, 1))
    thread.start()
    try:
        run(0)
    finally:
        thread.join()
    for exc in failed:
        if exc is not None:
            raise exc
