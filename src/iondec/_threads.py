"""The second CPU: how many CPUs a process may use, and a lockstep runner
of a kernel's two lanes, on this thread and one worker or both on this one.

``chain``'s pairwise passes and ``adiabatic``'s integrator both use it;
each decides from _usable_cpus() whether to start the worker at all.
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
    """Each of ``steps`` as two lanes in lockstep: step(0) then step(1) on
    this thread unless ``threaded``, and no thread started; else step(1)
    on a worker thread and step(0) on this one, with a barrier between
    consecutive steps, and the worker joined.  The worker runs in a copy of
    this thread's context (numpy's errstate is a context variable).  An
    exception of either thread breaks the barrier, so the other stops at
    its next wait, and is raised after the join, this thread's first."""
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
