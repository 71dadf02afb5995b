"""Jobs on the CPUs this process may use, results in job order.

One rule sets the worker count from the work the jobs hold, counted in
subject loads: one load is reading one default-preset subject file into a
segment graph (about 1.3-1.7 ms), and growing one generated subject with its
census costs about as much (20-30 ms a group of 16). The rule gives one
worker per LOADS_PER_WORKER loads, at most one per usable CPU. On a 2-CPU VM
a fork pool of two costs about 11 ms to start and stop (30-40 ms the first
time in a process), so work under twice LOADS_PER_WORKER loads stays
in-process. A caller whose jobs cost more counts each as several loads
(`cli.BUILD_FILE_LOADS`). Results and errors come back in job order, so what
a caller makes does not depend on the worker count.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

#: Subject loads of work each pool worker is given at least.
LOADS_PER_WORKER = 32


class WorkerDied(RuntimeError):
    """A pool worker ended without handing back its results."""


def workers(loads: int) -> int:
    """One process per LOADS_PER_WORKER subject loads, at most one per CPU this
    process may use; 1 where a forked pool cannot start (no fork start method,
    or a daemonic caller)."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    count = min(cpus, loads // LOADS_PER_WORKER)
    if count > 1:
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods() or multiprocessing.current_process().daemon:
            return 1
    return max(count, 1)


@contextmanager
def ordered_map(fn, jobs: list, loads: int):
    """fn over jobs, which hold `loads` subject loads of work, results in job
    order: in a fork pool of `workers(loads)` processes, or in-process through
    map when that is one. When the block exits, jobs not yet started are
    dropped and no worker is left running; a worker that dies raises WorkerDied."""
    count = workers(loads)
    if count == 1:
        yield map(fn, jobs)
        return
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    # not multiprocessing.Pool: its terminate() can hang while results fill its pipe
    pool = ProcessPoolExecutor(count, mp_context=multiprocessing.get_context("fork"))
    try:
        yield pool.map(fn, jobs, chunksize=-(-len(jobs) // (4 * count)))
    except BrokenProcessPool:
        raise WorkerDied("a worker process ended without a result") from None
    finally:
        pool.shutdown(cancel_futures=True)
