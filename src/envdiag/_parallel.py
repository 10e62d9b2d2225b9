"""Process-based map helper honouring the ENVDIAG_THREADS cap."""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor

from .errors import ParameterError

ENV_THREADS = "ENVDIAG_THREADS"

# pool tasks per worker: few enough that the parent pickles a handful of
# tasks rather than one per item, enough that a worker held up by its CPU
# leaves its remaining tasks to the others instead of delaying the whole map
TASKS_PER_WORKER = 4


def worker_count() -> int:
    """Number of worker processes allowed by the environment (default 1)."""
    raw = os.environ.get(ENV_THREADS, "1")
    try:
        n = int(raw)
    except ValueError:
        raise ParameterError(f"{ENV_THREADS} must be an integer, got {raw!r}") from None
    return max(1, n)


def parallel_map(fn, items):
    """Map ``fn`` over ``items`` preserving order.

    Runs serially unless ENVDIAG_THREADS > 1.  ``fn`` and the items must be
    picklable when workers are used; results are independent of the worker
    count because every item carries its own seed.  The items go out in at
    most ``TASKS_PER_WORKER`` runs of consecutive items per worker.
    """
    items = list(items)
    n = worker_count()
    if n <= 1 or len(items) < 2:
        return [fn(item) for item in items]
    workers = min(n, len(items))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        chunk = -(-len(items) // (TASKS_PER_WORKER * workers))
        return list(pool.map(fn, items, chunksize=chunk))
