"""Process-based map helper honouring the ENVDIAG_THREADS cap, and the
allocator setting of the processes envdiag owns."""

from __future__ import annotations

import itertools
import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor

from .errors import ParameterError

ENV_THREADS = "ENVDIAG_THREADS"

# pool tasks per worker: few enough that the parent pickles a handful of
# tasks rather than one per item, enough that a worker held up by its CPU
# leaves its remaining tasks to the others instead of delaying the whole map
TASKS_PER_WORKER = 4

# workers are forked on Linux, where Python 3.14 made forkserver the default:
# they then start with the parent's imports, numpy.fft and numpy.random among
# them, instead of importing them again in every fresh pool
POOL_CONTEXT = multiprocessing.get_context("fork") if sys.platform == "linux" else None

# glibc's mallopt parameters, and the largest mmap threshold it accepts:
# 4 MiB * sizeof(long), 32 MiB on 64-bit
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
TRIM_THRESHOLD = 64 << 20


def keep_heap() -> bool:
    """Keep freed FFT-sized buffers mapped in this process; glibc only.

    glibc serves blocks above its mmap threshold (128 KiB to start) with
    their own mappings and unmaps them on free, and trims the heap top
    above 128 KiB, so every megabyte-sized FFT buffer is page-faulted in
    afresh on each call.  Raising the mmap threshold to its maximum and the
    trim threshold to 64 MiB keeps such buffers on the heap, and a process
    pays its page faults once.  This is process-wide, so it runs only in
    processes envdiag owns: the pool workers and the CLI, never on import.
    Returns whether both thresholds were set; off glibc it does nothing.
    """
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return False
    except (AttributeError, ValueError, OSError):
        return False
    import ctypes

    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mmap_set = mallopt(M_MMAP_THRESHOLD, 4 * 1024 * 1024 * ctypes.sizeof(ctypes.c_long))
    trim_set = mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)
    return mmap_set == 1 and trim_set == 1


def worker_count() -> int:
    """Number of worker processes allowed by the environment (default 1)."""
    raw = os.environ.get(ENV_THREADS, "1")
    try:
        n = int(raw)
    except ValueError:
        raise ParameterError(f"{ENV_THREADS} must be an integer, got {raw!r}") from None
    return max(1, n)


def run_lengths(n_items: int, workers: int) -> list[int]:
    """Lengths of the runs of consecutive items ``parallel_map`` sends out.

    About ``TASKS_PER_WORKER`` runs per worker, rounded up to a whole number
    of runs per worker (but never more runs than items), of near-equal length
    with the longer runs first.  Workers taking the runs in turn then get
    the same number of items to within one.
    """
    longest = -(-n_items // (TASKS_PER_WORKER * workers))
    runs = -(-n_items // longest)
    runs = min(n_items, -(-runs // workers) * workers)
    short, extra = divmod(n_items, runs)
    return [short + 1] * extra + [short] * (runs - extra)


def _map_run(fn, run):
    return [fn(item) for item in run]


def parallel_map(fn, items):
    """Map ``fn`` over ``items`` preserving order.

    Runs serially unless ENVDIAG_THREADS > 1; the serial path draws each
    item only after the previous result is back, so a generator of large
    items, such as the segments of a recording, has one in memory at a
    time.  With workers, all items are drawn first.  ``fn`` and the items
    must be picklable when workers are used; results are independent of
    the worker count because every item carries its own seed.  The items go
    out in the runs of consecutive items that ``run_lengths`` gives, and
    every worker, forked on Linux (``POOL_CONTEXT``), starts with
    ``keep_heap``.
    """
    n = worker_count()
    if n > 1:
        items = list(items)
    if n <= 1 or len(items) < 2:
        return [fn(item) for item in items]
    workers = min(n, len(items))
    ends = list(itertools.accumulate(run_lengths(len(items), workers)))
    runs = [items[a:b] for a, b in zip([0] + ends, ends)]
    with ProcessPoolExecutor(max_workers=workers, initializer=keep_heap,
                             mp_context=POOL_CONTEXT) as pool:
        return [y for ys in pool.map(_map_run, itertools.repeat(fn), runs) for y in ys]
