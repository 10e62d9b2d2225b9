"""envdiag benchmark: one workload per run, end to end or traced per layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload {calibrate,classify,sweep} \
        --seed N --seconds S --trace {0,1}

``--trace 0`` repeats the workload's unit of work untraced for ``--seconds``,
sets it up three times over that span, and reports the end-to-end metrics.
``--trace 1`` sets up once and runs the unit three ways: untraced at one
worker, traced at one worker (every span lands in this process) and, for the
two-worker workloads, at two workers with only the parent-side pool spans
traced.  The first two alternate for ``--seconds`` to measure the tracing
overhead.  Both modes check the outputs against a plain recomputation
through envdiag's public functions and across repetitions, and, for seeds 0
to 31, against the values recorded in ``reference.json``; for any other
seed the report says ``reference: not recorded`` and that check is skipped.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full report,
with run metadata, the behaviour block and the stage table, goes to
``.perfbench_out/`` in the checkout.  The exit code is 0 when every check
passes, 1 when one fails and 2 when the program cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import metrics
import tracer as tracing

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
THREADS_ENV = "ENVDIAG_THREADS"
SETUP_REPEATS = 3
MIN_REPS = 3

# per-estimate cost and Welch share measured single-process when the
# roadmap was written; the stage table is set beside them
BASELINE_ESTIMATE_MS = {0.5: 5.4, 1.0: 11.0, 10.0: 74.0}
BASELINE_WELCH_SHARE = (0.60, 0.76)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("calibrate", "classify", "sweep"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_program():
    """Import envdiag from this checkout's ``src``; exit 2 when it is not there."""
    src = ROOT / "src"
    if not (src / "envdiag" / "__init__.py").is_file():
        print(f"perfbench: no envdiag package under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import envdiag

    if not Path(envdiag.__file__).resolve().is_relative_to(src):
        print(f"perfbench: imported envdiag from {envdiag.__file__}, not from {src}", file=sys.stderr)
        sys.exit(2)
    return envdiag


def git_commit() -> str | None:
    """Commit of the checkout when it is a git work tree, else None."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                             timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def metadata(envdiag, args, threads) -> dict:
    import numpy
    import scipy

    return {
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "envdiag": envdiag.__version__,
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ENVDIAG_THREADS": threads,
    }


def reference_problems(workload, outputs) -> tuple[str, list[str]]:
    import workloads

    with open(REFERENCE, encoding="utf-8") as fh:
        recorded = json.load(fh).get(workload.name, {})
    want = recorded.get(str(workload.seed))
    if want is None:
        return "not recorded", []
    return "compared", workloads.compare(workload.reference_view(outputs), want, workload.name)


def check_outputs(workload, outputs) -> tuple[dict, list[str]]:
    """Reference and spot checks of one unit's outputs."""
    if outputs is None:
        return {"reference": "no outputs", "spot_check": "no outputs"}, ["the unit failed"]
    status, problems = reference_problems(workload, outputs)
    spot = workload.spot_check(outputs)
    return {"reference": status, "spot_check": "compared"}, problems + spot


def timed_setup(workload, setup_s: list) -> None:
    t0 = time.perf_counter()
    workload.setup()
    setup_s.append(time.perf_counter() - t0)


def timed_run(workload, seconds) -> dict:
    """Repeat the unit for ``seconds``; set up before, midway and after.

    Spreading the three set-ups over the run keeps one slow spell of the
    host from deciding their median.  Set-up is deterministic, so the later
    ones rewrite the same inputs.
    """
    setup_s = []
    timed_setup(workload, setup_s)
    unit_s, ok_segments, call_s = [], [], []
    attempted = failed = 0
    first = None
    problems = []
    start = time.perf_counter()
    deadline = start + seconds
    while len(unit_s) < MIN_REPS or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        result = workload.run()
        unit_s.append(time.perf_counter() - t0)
        attempted += result.attempted
        failed += result.failed
        ok_segments.append(result.attempted - result.failed)
        call_s += result.call_s
        if len(unit_s) == 1:
            first = result.outputs
        elif result.outputs != first:
            problems.append(f"repetition {len(unit_s)} gave other outputs than the first")
        if len(setup_s) == 1 and time.perf_counter() >= start + seconds / 2:
            timed_setup(workload, setup_s)
    while len(setup_s) < SETUP_REPEATS:
        timed_setup(workload, setup_s)

    # before the checks, so that their memory is not taken for the program's
    measured = metrics.end_to_end(setup_s, unit_s, ok_segments)
    checks, found = check_outputs(workload, first)
    problems += found
    return {
        "metrics": measured,
        "call_latency": metrics.call_latency(call_s),
        "attempted": attempted,
        "failed": failed,
        "checks": checks,
        "problems": problems,
        "samples": {"setup_s": setup_s, "unit_s": unit_s},
        "behaviour": workload.behaviour(first),
    }


def count_problems(tracer, expected, label) -> list[str]:
    """Mismatches between expected and traced counts: counters by name, spans by calls."""
    summ = tracer.summary()
    problems = []
    for name, want in expected.items():
        if name in metrics.COUNTS:
            got = tracer.counts.get(name, 0)
        else:
            got = summ.get(name, {"calls": 0})["calls"]
        if got != want:
            problems.append(f"{label}: {name} counted {got}, expected {want}")
    return problems


def traced_pass(workload, threads, parent_only) -> tuple:
    os.environ[THREADS_ENV] = str(threads)
    tracer = tracing.Tracer()
    tracing.instrument(tracer, parent_only=parent_only)
    patched = tracer.patched
    t0 = time.perf_counter()
    try:
        result = workload.run()
    finally:
        wall = time.perf_counter() - t0
        tracer.restore()
    return tracer, result, wall, tracing.all_restored(patched)


def untraced_pass(workload) -> tuple:
    os.environ[THREADS_ENV] = "1"
    t0 = time.perf_counter()
    result = workload.run()
    return result, time.perf_counter() - t0


def traced_run(workload, seconds) -> dict:
    """Per-layer spans from one traced unit, and the tracing overhead.

    The overhead compares the medians of alternating untraced and traced
    one-worker units, repeated for ``seconds``; only the first traced unit's
    spans are kept.
    """
    workload.setup()
    # set-up may run in pool workers; warm this process before timing it here
    untraced_pass(workload)
    problems = []
    deadline = time.perf_counter() + seconds
    untraced, wall = untraced_pass(workload)
    untraced_s = [wall]
    tracer, traced, wall, restored = traced_pass(workload, 1, parent_only=False)
    traced_s = [wall]
    if traced.outputs != untraced.outputs:
        problems.append("tracing changed the outputs")
    problems += count_problems(tracer, workload.expected_counts(two_workers=False), "1 worker")
    while time.perf_counter() < deadline:
        untraced_s.append(untraced_pass(workload)[1])
        _, _, wall, ok = traced_pass(workload, 1, parent_only=False)
        traced_s.append(wall)
        restored = restored and ok
    if not restored:
        problems.append("a traced pass left wrapped functions behind")

    two_worker = None
    if workload.threads > 1:
        two_worker, parallel, _, restored = traced_pass(workload, workload.threads, parent_only=True)
        if not restored:
            problems.append("two-worker pass left wrapped functions behind")
        if parallel.outputs != traced.outputs:
            problems.append(f"outputs at {workload.threads} workers differ from those at 1 worker")
        problems += count_problems(two_worker, workload.expected_counts(two_workers=True),
                                   f"{workload.threads} workers")
    os.environ[THREADS_ENV] = str(workload.threads)

    checks, found = check_outputs(workload, traced.outputs)
    problems += found
    return {
        "metrics": metrics.per_layer(tracer, two_worker, statistics.median(untraced_s),
                                     statistics.median(traced_s)),
        "samples": {"untraced_s": untraced_s, "traced_s": traced_s},
        "attempted": traced.attempted,
        "failed": traced.failed,
        "checks": checks,
        "problems": problems,
        "stage_table": stage_table(tracer),
        "behaviour": workload.behaviour(traced.outputs),
        "spans": tracer.dump(),
    }


def stage_table(tracer) -> dict:
    """Per-segment-length stage costs beside the roadmap baselines."""
    rows = {}
    notes = []
    for seg_len, row in tracer.stage_table().items():
        if not row["n_estimates"]:
            continue
        base = BASELINE_ESTIMATE_MS.get(seg_len)
        row = dict(row, baseline_estimate_ms=base)
        if base is not None and abs(row["estimate"] / base - 1.0) > 0.25:
            notes.append(f"{seg_len:g} s: {row['estimate']:.1f} ms per estimate against "
                         f"the {base:g} ms baseline")
        lo, hi = BASELINE_WELCH_SHARE
        if not lo <= row["welch_share"] <= hi:
            notes.append(f"{seg_len:g} s: Welch is {100 * row['welch_share']:.0f} % of an "
                         f"estimate, outside the {100 * lo:.0f}-{100 * hi:.0f} % baseline")
        rows[f"{seg_len:g}"] = row
    return {"rows": rows, "disagreements": notes}


def print_report(report, units) -> None:
    meta = report["metadata"]
    print(f"perfbench {meta['workload']} seed={meta['seed']} trace={meta['trace']} "
          f"{THREADS_ENV}={meta['ENVDIAG_THREADS']}")
    print(f"  {meta['cpu_model']}, nproc={meta['nproc']}, python {meta['python']}, "
          f"numpy {meta['numpy']}, scipy {meta['scipy']}, commit {meta['git_commit']}")
    for name, value in report["metrics"].items():
        print(f"  {name:<48} {value:>14.6g} {units[name]}")
    att, fail = report["attempted"], report["failed"]
    print(f"  {'failed_frac':<48} {fail / att:>14.6g} ({fail}/{att})")
    calls = report.get("call_latency")
    if calls:
        for name in ("call_p50_ms", "call_p90_ms"):
            print(f"  {name:<48} {calls[name]:>14.6g} ms (of {calls['calls']} calls)")
    behaviour = report.get("behaviour")
    if behaviour:
        print("  behaviour (calls per verdict):")
        for key, row in behaviour["counts"].items():
            print(f"    {key:<28} " + " ".join(f"{v}={c}" for v, c in row.items() if c))
        for name in ("false_alarm_rate", "miss_rate", "shape_accuracy"):
            r = behaviour[name]
            print(f"    {name:<16} {r['value']:.3f} ({r['k']}/{r['n']}, "
                  f"Wilson 95% [{r['wilson95'][0]:.3f}, {r['wilson95'][1]:.3f}])")
    table = report.get("stage_table")
    if table:
        print("  stage ms per call (estimate = envelope spectrum + peaks; baseline from ROADMAP):")
        for seg, row in table["rows"].items():
            print(f"    {seg:>4} s  simulate {row['simulate']:7.2f}  bandpass {row['bandpass']:6.2f}  "
                  f"envelope {row['envelope']:6.2f}  welch {row['welch']:6.2f}  "
                  f"peaks {row['peaks']:5.2f}  estimate {row['estimate']:7.2f} "
                  f"(baseline {row['baseline_estimate_ms']})  welch share {row['welch_share']:.2f}")
        for note in table["disagreements"]:
            print(f"    disagrees: {note}")
    print(f"  checks: {report['checks']}")
    for problem in report["problems"][:20]:
        print(f"  FAILED CHECK: {problem}")


def main(argv=None) -> int:
    args = parse_args(argv)
    envdiag = import_program()
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    os.environ[THREADS_ENV] = str(cls.threads)
    workdir = OUT_DIR / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = cls(args.seed, str(workdir))
        result = timed_run(workload, args.seconds) if args.trace == 0 else traced_run(workload, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    specs = metrics.END_TO_END if args.trace == 0 else metrics.per_layer_specs()
    units = {name: unit for name, unit, _ in specs}
    report = {"metadata": metadata(envdiag, args, cls.threads), **result}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = report.pop("spans", None)
    with open(OUT_DIR / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    if spans is not None:
        with open(OUT_DIR / f"{stem}-spans.json", "w", encoding="utf-8") as fh:
            json.dump(spans, fh)
    print_report(report, units)

    correct = not report["problems"]
    line = {
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": report["metrics"][name], "unit": unit}
                    for name, unit, _ in specs},
    }
    print(json.dumps(line))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
