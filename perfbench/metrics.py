"""Names, units and sources of every metric the benchmark reports.

``BENCHMARK.json`` lists the same names; ``test_perfbench.py`` keeps the two
in step.
"""

from __future__ import annotations

import resource
import statistics

from tracer import STAGE_SEG_LENS, STAGES

# (name, unit, better) of the end-to-end metrics, measured untraced
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("segments_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)

# spans reported as .calls and .busy_s; those with wrapped children add .self_s
SPANS = (
    ("sigmodel.simulate_signal", False),
    ("envspec.bandpass", False),
    ("envspec.envelope", False),
    ("envspec.welch_psd", False),
    ("envspec.envelope_spectrum", True),
    ("faultfreq.estimate_fault_frequency", False),
    ("calibrate.calibrate_entry", True),
    ("calibrate.build_table", True),
    ("classify.classify_signal", True),
    ("classify.simulate_and_classify", True),
    ("stats.chi_squared_variance_test", False),
    ("stats.shape_distance", True),
    ("stats.kde", False),
    ("sigio.read_signal", False),
    ("sigio.write_estimates_csv", False),
    ("sigio.write_kde_csv", False),
    ("_parallel.parallel_map", True),
    ("cli.classify", True),
)

COUNTS = (
    "sigmodel.samples",
    "envspec.fft_points",
    "envspec.welch_psd.bins_out",
    "faultfreq.estimate_fault_frequency.failed",
    "faultfreq.estimate_fault_frequency.failed.h1",
    "faultfreq.estimate_fault_frequency.failed.h2",
    "faultfreq.estimate_fault_frequency.failed.h3",
    "faultfreq.estimate_fault_frequency.failed.other",
    "calibrate.signals_dropped",
    "classify.snr_out_of_range",
    "_parallel.items",
    "_parallel.pool_starts",
)


def seg_tag(seg_len: float) -> str:
    return f"{seg_len:g}s"


def per_layer_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = []
    for span, with_self in SPANS:
        specs.append((f"{span}.calls", "count", "lower"))
        specs.append((f"{span}.busy_s", "s", "lower"))
        if with_self:
            specs.append((f"{span}.self_s", "s", "lower"))
    specs += [
        ("classify.match_aci.calls", "count", "lower"),
        ("calibrate.table_load.calls", "count", "lower"),
        ("calibrate.table_load_s", "s", "lower"),
    ]
    specs += [(name, "count", "lower") for name in COUNTS]
    specs += [
        ("envspec.welch_psd.bins_used_frac", "frac", "higher"),
        ("_parallel.pool_starts_2w", "count", "lower"),
        ("_parallel.parallel_map.busy_s_2w", "s", "lower"),
        ("_parallel.pool_overhead_s", "s", "lower"),
        ("trace.wall_untraced_s", "s", "lower"),
        ("trace.wall_traced_s", "s", "lower"),
        ("trace.overhead_frac", "frac", "lower"),
    ]
    for stage in (*STAGES, "estimate"):
        for seg_len in STAGE_SEG_LENS:
            specs.append((f"stage.{stage}.ms_at_{seg_tag(seg_len)}", "ms", "lower"))
    for seg_len in STAGE_SEG_LENS:
        specs.append((f"stage.welch_share_at_{seg_tag(seg_len)}", "frac", "lower"))
    return specs


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest child, MB.

    The kernel reports only the largest waited-for child.  The workers are
    forked, so they share the parent's pages, and a sum of their peaks would
    count those pages once per worker.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def end_to_end(setup_s, unit_s, ok_segments) -> dict:
    """End-to-end values from the untraced repetitions of one workload.

    ``wall_s`` is the mean time of one unit over the whole run.  A shared
    host can switch between a fast and a slow state for tens of seconds at a
    time; a median then lands in whichever state held most of a run, while
    the mean moves smoothly with the mix.
    """
    return {
        "setup_s": statistics.median(setup_s),
        "wall_s": statistics.fmean(unit_s),
        "segments_per_s": sum(ok_segments) / sum(unit_s),
        "peak_rss_mb": peak_rss_mb(),
    }


def call_latency(call_s) -> dict:
    """Median and p90 time of the public calls a workload makes, reported, not gated.

    ``calibrate`` and ``classify`` make one call per unit, so a run holds a
    few dozen at most; only ``sweep`` makes the hundred-odd calls that put
    ten samples beyond p90.
    """
    return {
        "call_p50_ms": 1e3 * statistics.median(call_s),
        "call_p90_ms": 1e3 * statistics.quantiles(call_s, n=10, method="inclusive")[8],
        "calls": len(call_s),
    }


def per_layer(traced, two_worker, wall_untraced, wall_traced) -> dict:
    """Per-layer values from the traced one-worker pass and the two-worker pass.

    ``two_worker`` is None for a single-threaded workload; its two-worker
    metrics then read 0.
    """
    summ = traced.summary()
    empty = {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
    values = {}
    for span, with_self in SPANS:
        agg = summ.get(span, empty)
        values[f"{span}.calls"] = agg["calls"]
        values[f"{span}.busy_s"] = agg["busy_s"]
        if with_self:
            values[f"{span}.self_s"] = agg["self_s"]
    values["classify.match_aci.calls"] = summ.get("classify.match_aci", empty)["calls"]
    load = summ.get("calibrate.table_load", empty)
    values["calibrate.table_load.calls"] = load["calls"]
    values["calibrate.table_load_s"] = load["busy_s"]
    for name in COUNTS:
        values[name] = traced.counts.get(name, 0)
    bins_out = traced.counts.get("envspec.welch_psd.bins_out", 0)
    values["envspec.welch_psd.bins_used_frac"] = (
        traced.counts.get("envspec.welch_psd.bins_used", 0) / bins_out if bins_out else 0.0
    )
    if two_worker is None:
        values["_parallel.pool_starts_2w"] = 0
        values["_parallel.parallel_map.busy_s_2w"] = 0.0
        values["_parallel.pool_overhead_s"] = 0.0
    else:
        busy_2w = two_worker.summary().get("_parallel.parallel_map", empty)["busy_s"]
        serial = summ.get("_parallel.parallel_map", empty)["busy_s"]
        values["_parallel.pool_starts_2w"] = two_worker.counts.get("_parallel.pool_starts", 0)
        values["_parallel.parallel_map.busy_s_2w"] = busy_2w
        # time beyond an ideal two-way split of the serial task time
        values["_parallel.pool_overhead_s"] = busy_2w - serial / 2.0
    values["trace.wall_untraced_s"] = wall_untraced
    values["trace.wall_traced_s"] = wall_traced
    values["trace.overhead_frac"] = wall_traced / wall_untraced - 1.0
    table = traced.stage_table()
    for stage in (*STAGES, "estimate"):
        for seg_len in STAGE_SEG_LENS:
            values[f"stage.{stage}.ms_at_{seg_tag(seg_len)}"] = table[seg_len][stage]
    for seg_len in STAGE_SEG_LENS:
        values[f"stage.welch_share_at_{seg_tag(seg_len)}"] = table[seg_len]["welch_share"]
    return values
