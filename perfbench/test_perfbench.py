"""Checks of the benchmark itself: span counts, restored bindings, metric names.

Run from the root of a checkout with ``python3 -m pytest perfbench``.  The
workloads here are shrunk copies of the real ones, so the whole file takes a
few seconds.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import envdiag  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


class SmallCalibrate(workloads.Calibrate):
    aci_list = (1.0, 2.0)
    seg_lens = (0.5, 1.0)
    n = 3


class SmallClassify(workloads.Classify):
    n_segments = 6
    seg_lens = (0.5, 1.0)
    table_acis = "1.5,2.5"
    table_n = 3


class SmallSweep(workloads.Sweep):
    dists = ("constant:30", "normal:30,0.33")
    acis = (2.0,)
    seg_lens = (0.5,)
    repeats = 2
    n_segments = 10
    table_n = 4


def originals() -> dict:
    """Every binding of every traced function, keyed by (module, attribute)."""
    found = {}
    for mod in tracing.envdiag_modules():
        for attr, value in vars(mod).items():
            if callable(value):
                found[(mod.__name__, attr)] = value
    return found


@pytest.fixture
def small(tmp_path, monkeypatch):
    def make(cls, seed=3):
        workload = cls(seed, str(tmp_path))
        monkeypatch.setenv(run.THREADS_ENV, str(workload.threads))
        workload.setup()
        return workload

    return make


def test_calibrate_counts_at_one_and_two_workers(small):
    workload = small(SmallCalibrate)
    before = originals()
    cells = len(workload.aci_list) * len(workload.seg_lens)

    one, res1, _, restored1 = run.traced_pass(workload, 1, parent_only=False)
    assert restored1 and originals() == before
    assert run.count_problems(one, workload.expected_counts(two_workers=False), "1w") == []
    assert one.summary()["faultfreq.estimate_fault_frequency"]["calls"] == workload.n * cells
    assert one.counts["_parallel.pool_starts"] == 0

    two, res2, _, restored2 = run.traced_pass(workload, 2, parent_only=True)
    assert restored2 and originals() == before
    assert two.counts["_parallel.pool_starts"] == cells
    assert "faultfreq.estimate_fault_frequency" not in two.summary()
    # results do not depend on the worker count
    assert res1.outputs == res2.outputs
    assert workload.spot_check(res1.outputs) == []


def test_classify_counts_include_the_emit_recompute(small):
    workload = small(SmallClassify)
    before = originals()
    traced, result, _, restored = run.traced_pass(workload, 1, parent_only=False)
    assert restored and originals() == before
    assert run.count_problems(traced, workload.expected_counts(two_workers=False), "1w") == []
    # 12 + 6 segments classified, the 12 of the first length estimated again
    assert traced.summary()["faultfreq.estimate_fault_frequency"]["calls"] == 30
    assert result.attempted == 18 and result.failed == 0
    assert workload.spot_check(result.outputs) == []


def test_sweep_counts_and_behaviour(small):
    workload = small(SmallSweep)
    traced, result, _, restored = run.traced_pass(workload, 1, parent_only=False)
    assert restored
    assert run.count_problems(traced, workload.expected_counts(two_workers=False), "1w") == []
    two, _, _, _ = run.traced_pass(workload, 2, parent_only=True)
    assert two.counts["_parallel.pool_starts"] == len(workload.calls)
    behaviour = workload.behaviour(result.outputs)
    assert behaviour["false_alarm_rate"]["n"] == 2
    assert behaviour["miss_rate"]["n"] == 2
    assert sum(sum(row.values()) for row in behaviour["counts"].values()) == 4


def test_full_size_expected_counts():
    cal = workloads.Calibrate(0, "")
    assert cal.expected_counts(two_workers=False)["faultfreq.estimate_fault_frequency"] == cal.n * 15
    assert cal.expected_counts(two_workers=False)["_parallel.pool_starts"] == 0
    assert cal.expected_counts(two_workers=True)["_parallel.pool_starts"] == 15
    sweep = workloads.Sweep(0, "")
    assert len(sweep.calls) == 36
    assert sweep.expected_counts(two_workers=True)["_parallel.pool_starts"] == 36
    classify = workloads.Classify(0, "")
    assert classify.expected_counts(two_workers=False)["faultfreq.estimate_fault_frequency"] == 148 + 80


def test_wrappers_are_restored_when_the_unit_raises(tmp_path):
    tracer = tracing.Tracer()
    before = originals()
    tracing.instrument(tracer)
    assert envdiag.calibrate.simulate_signal is not before[("envdiag.calibrate", "simulate_signal")]
    with pytest.raises(envdiag.ParameterError):
        envdiag.build_table((1.0,), (0.5,), n=1)
    tracer.restore()
    assert originals() == before
    assert tracer.summary()["calibrate.build_table"]["calls"] == 1


def test_estimate_failures_are_counted_by_harmonic():
    tracer = tracing.Tracer()
    tracing.instrument(tracer)
    try:
        spec = envdiag.EnvelopeSpectrum([0.0, 10.0, 20.0, 30.0, 40.0], [1.0] * 5, 10.0)
        with pytest.raises(envdiag.EstimationError):
            envdiag.estimate_fault_frequency(spec, envdiag.EstimatorConfig(f_theoretical=30.0))
    finally:
        tracer.restore()
    assert tracer.counts["faultfreq.estimate_fault_frequency.failed"] == 1
    assert tracer.counts["faultfreq.estimate_fault_frequency.failed.h1"] == 1


def test_self_time_excludes_child_spans():
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda: time.sleep(0.02))

    def body():
        inner()
        time.sleep(0.01)

    tracer.wrap("outer", body)()
    summ = tracer.summary()
    assert summ["outer"]["busy_s"] >= summ["inner"]["busy_s"] + 0.01
    assert summ["outer"]["self_s"] == pytest.approx(summ["outer"]["busy_s"] - summ["inner"]["busy_s"])


def test_wilson_interval():
    lo, hi = workloads.wilson(0, 10)
    assert lo == 0.0 and hi == pytest.approx(0.2775, abs=1e-4)
    lo, hi = workloads.wilson(5, 10)
    assert lo == pytest.approx(1 - hi)


def test_metric_names_match_benchmark_json():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]] == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == metrics.per_layer_specs()
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
