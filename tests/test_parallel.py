"""Process-pool map helper: order, serial fallback and the worker cap."""

import operator
import os
import textwrap

import pytest

from envdiag import DistributionSpec, ParameterError, build_table, simulate_and_classify
from envdiag import _parallel
from envdiag._parallel import (
    ENV_THREADS,
    TASKS_PER_WORKER,
    parallel_map,
    run_lengths,
    worker_count,
)


def on_glibc():
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


def test_order_is_preserved(monkeypatch):
    monkeypatch.setenv(ENV_THREADS, "2")
    assert parallel_map(operator.neg, range(50)) == [-i for i in range(50)]


@pytest.mark.parametrize("threads,items", [("2", [0]), ("1", [0, 1, 2])])
def test_serial_path_runs_in_process(monkeypatch, threads, items):
    # a lambda cannot be pickled, so it only runs if no pool is started
    monkeypatch.setenv(ENV_THREADS, threads)
    assert parallel_map(lambda _: os.getpid(), items) == [os.getpid()] * len(items)


def test_non_integer_thread_count_rejected(monkeypatch):
    monkeypatch.setenv(ENV_THREADS, "abc")
    with pytest.raises(ParameterError, match="abc"):
        parallel_map(operator.neg, [1, 2])


def test_zero_threads_means_one_worker(monkeypatch):
    monkeypatch.setenv(ENV_THREADS, "0")
    assert worker_count() == 1


def test_simulate_and_classify_independent_of_worker_count(monkeypatch):
    table = build_table((2.0, 3.0), (0.5,), n=4, master_seed=7)
    reports = []
    for threads in ("1", "2"):
        monkeypatch.setenv(ENV_THREADS, threads)
        reports.append(simulate_and_classify(DistributionSpec.normal(30.0, 0.33), 2.0, 0.5,
                                             6, table, 13))
    assert reports[0] == reports[1]


@pytest.mark.parametrize("threads,n_items", [("2", 7), ("3", 7), ("2", 30), ("3", 31)])
def test_chunked_map_keeps_the_order(monkeypatch, threads, n_items):
    # runs of 1; of 4 (last two 3); of 3 (last five 2)
    monkeypatch.setenv(ENV_THREADS, threads)
    assert parallel_map(operator.neg, range(n_items)) == [-i for i in range(n_items)]


@pytest.mark.parametrize("n_items,workers,lengths", [
    (2, 2, [1, 1]),
    (3, 3, [1, 1, 1]),
    (7, 2, [1] * 7),
    (7, 3, [1] * 7),
    # a calibration cell of 10 signals: 5:5 where runs of 2 split 6:4
    (10, 2, [2, 2, 2, 2, 1, 1]),
    # a sweep setup and a sweep call: 10:10 and 15:15 where 11:9 and 16:14
    (20, 2, [3, 3, 3, 3, 2, 2, 2, 2]),
    (30, 2, [4, 4, 4, 4, 4, 4, 3, 3]),
    (31, 3, [3] * 7 + [2] * 5),
    (100, 3, [9] * 4 + [8] * 8),
    (1000, 2, [125] * 8),
])
def test_run_lengths_share_items_equally(n_items, workers, lengths):
    assert run_lengths(n_items, workers) == lengths
    # workers taking the runs in turn get the same number of items to within one
    shares = [sum(lengths[w::workers]) for w in range(workers)]
    assert max(shares) - min(shares) <= 1
    # at most workers - 1 runs more than runs of the longest length would make
    longest = -(-n_items // (TASKS_PER_WORKER * workers))
    assert len(lengths) <= -(-n_items // longest) + workers - 1


@pytest.mark.parametrize("threads,n_items,pool_shape",
                         [("4", 3, (3, (1, 1, 1))), ("2", 7, (2, (1,) * 7)),
                          ("2", 30, (2, (4,) * 6 + (3, 3))), ("3", 100, (3, (9,) * 4 + (8,) * 8))])
def test_a_few_tasks_per_worker_and_no_more_workers_than_items(monkeypatch, threads, n_items,
                                                               pool_shape):
    # the fake pool forks nothing; it records its worker count and the lengths
    # of the runs it is sent, and checks that every worker would start by
    # keeping its heap mapped
    seen = []

    class FakePool:
        def __init__(self, max_workers, initializer):
            assert initializer is _parallel.keep_heap
            self.max_workers = max_workers

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, fns, runs):
            seen.append((self.max_workers, tuple(len(run) for run in runs)))
            return map(fn, fns, runs)

    monkeypatch.setattr(_parallel, "ProcessPoolExecutor", FakePool)
    monkeypatch.setenv(ENV_THREADS, threads)
    assert parallel_map(operator.neg, range(n_items)) == [-i for i in range(n_items)]
    assert seen == [pool_shape]


# minor page faults of each envelope call on a 10 s signal after the first,
# in a fresh process that imports the CLI and, if asked, keeps its heap
FAULTS_PER_ENVELOPE = textwrap.dedent("""
    import resource, sys
    import numpy as np
    import envdiag.cli
    from envdiag import envelope
    from envdiag._parallel import keep_heap

    kept = keep_heap() if sys.argv[1] == "keep" else None
    x = np.random.default_rng(0).standard_normal(250_000)
    envelope(x)
    faults = []
    for _ in range(4):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        envelope(x)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    print(kept, max(faults))
""")


def test_keep_heap_is_a_no_op_off_glibc(monkeypatch):
    monkeypatch.setattr(_parallel.os, "confstr", lambda name: None)
    assert _parallel.keep_heap() is False


@pytest.mark.skipif(not on_glibc(), reason="keep_heap sets glibc's malloc thresholds")
def test_keep_heap_keeps_fft_buffers_mapped(run_python):
    kept, faults = run_python(FAULTS_PER_ENVELOPE, "keep").split()
    assert kept == "True"  # both mallopt calls returned 1
    assert int(faults) < 50
    # importing envdiag leaves the allocator alone: glibc unmaps the buffers
    kept, faults = run_python(FAULTS_PER_ENVELOPE, "import").split()
    assert kept == "None" and int(faults) > 500
