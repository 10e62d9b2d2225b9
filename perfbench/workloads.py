"""The three benchmark workloads and the checks on their outputs.

Every workload derives all of its inputs from the benchmark seed, so the
same seed gives the same inputs and the same outputs.  ``setup`` makes the
inputs, ``run`` performs one measured unit of work and returns its outputs,
``spot_check`` recomputes part of those outputs through a plain loop over
envdiag's public per-signal functions, and ``expected_counts`` gives the
span counts a traced unit must show.

- ``calibrate``: one ``build_table`` over the five paper ACIs and segment
  lengths 0.5, 2 and 10 s at two workers.  The batch job: simulation plus
  Welch/Hilbert in 15 cells, with one worker pool per cell.  The 10 s column
  is where the Hilbert FFT costs as much as Welch; no bandpass.
- ``classify``: one ``envdiag classify`` CLI call, in process, on a 40 s
  recording at one worker.  The analyst's path: bandpass, file I/O, table
  load and the ``--emit-*`` recomputation, with no simulation and no pool.
- ``sweep``: 36 ``simulate_and_classify`` calls of 30 segments at two
  workers.  The grading protocol: many short calls, each starting a pool
  and running the decision stage once; every segment draws its own
  frequency, so work cannot be shared across the ACI rows of a column.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import time
from dataclasses import dataclass

import numpy as np

import envdiag
import envdiag.cli

FS = 25_000.0
F_SIMUL = 30.0


@dataclass
class UnitResult:
    """Outputs of one measured unit and the work it attempted."""

    outputs: object
    attempted: int
    failed: int
    call_s: list[float]


def derive_seeds(seed: int, count: int) -> list[int]:
    """``count`` independent 64-bit seeds from the benchmark seed."""
    state = np.random.SeedSequence([int(seed), 0x5EED]).generate_state(count, np.uint64)
    return [int(s) for s in state]


def run_cli(argv: list[str]) -> str:
    """Run one ``envdiag`` command in this process; returns what it printed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            envdiag.cli.main(argv, standalone_mode=False)
        except SystemExit as exc:
            if exc.code:
                raise envdiag.EnvDiagError(
                    f"envdiag {argv[0]} exited with {exc.code}: {err.getvalue().strip()}"
                ) from None
    return out.getvalue()


def estimate_plain(signals, spec_cfg) -> tuple[list[float], list[float], int]:
    """f_hat and SNR of each segment through the public per-signal functions.

    Segments whose estimate fails are left out, as the program leaves them
    out; the third value counts them.
    """
    est_cfg = envdiag.EstimatorConfig(f_theoretical=F_SIMUL)
    f_hats, snrs = [], []
    for signal in signals:
        try:
            est = envdiag.estimate_fault_frequency(envdiag.envelope_spectrum(signal, spec_cfg), est_cfg)
        except envdiag.EstimationError:
            continue
        f_hats.append(est.f_hat)
        snrs.append(est.snr)
    return f_hats, snrs, len(signals) - len(f_hats)


def decide_plain(f_hats, snrs, table, seg_len: float, alpha: float = 0.05) -> tuple[str, float]:
    """Verdict and rescaled variance from the public decision primitives."""
    f_hats = np.asarray(f_hats, dtype=np.float64)
    _, entry = envdiag.match_aci(float(np.mean(snrs)), table, seg_len)
    scaled = envdiag.rescale_variance(
        float(np.var(f_hats, ddof=1)), float(f_hats.mean()), entry.mean_f_hat
    )
    if scaled <= entry.threshold:
        return "constant", scaled
    if entry.threshold > 0:
        test = envdiag.chi_squared_variance_test(scaled, entry.threshold, f_hats.size, alpha)
        if not test.rejected:
            return "constant", scaled
    try:
        shape = envdiag.shape_distance(f_hats).verdict
    except envdiag.EnvDiagError:
        shape = "inconclusive"
    return {"uniform": "uniform", "normal": "normal"}.get(shape, "not-constant-inconclusive"), scaled


def close(a: float, b: float, rel: float = 1e-9) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=1e-12)


def compare(got, want, path: str = "", rel: float = 1e-9) -> list[str]:
    """Differences between two JSON-like values: floats within ``rel``, the rest exact."""
    if isinstance(want, float) or isinstance(got, float):
        if isinstance(got, (int, float)) and isinstance(want, (int, float)) and close(got, want, rel):
            return []
        return [f"{path}: {got!r} != {want!r}"]
    if isinstance(want, dict) and isinstance(got, dict):
        if set(got) != set(want):
            return [f"{path}: keys {sorted(got)} != {sorted(want)}"]
        return [d for k in want for d in compare(got[k], want[k], f"{path}.{k}", rel)]
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [f"{path}: length {len(got)} != {len(want)}"]
        return [d for i, (g, w) in enumerate(zip(got, want)) for d in compare(g, w, f"{path}[{i}]", rel)]
    return [] if got == want else [f"{path}: {got!r} != {want!r}"]


class Calibrate:
    name = "calibrate"
    threads = 2
    aci_list = (1.0, 1.5, 2.0, 2.5, 3.0)
    seg_lens = (0.5, 2.0, 10.0)
    n = 10
    # the warm-up table starts every pool and touches every FFT size
    warmup_n = 2

    def __init__(self, seed: int, workdir: str):
        self.seed = int(seed)

    def setup(self) -> None:
        envdiag.build_table(self.aci_list, self.seg_lens, n=self.warmup_n, master_seed=self.seed)

    def run(self) -> UnitResult:
        attempted = self.n * len(self.aci_list) * len(self.seg_lens)
        t0 = time.perf_counter()
        try:
            table = envdiag.build_table(self.aci_list, self.seg_lens, n=self.n, master_seed=self.seed)
        except envdiag.EnvDiagError:
            return UnitResult(None, attempted, attempted, [time.perf_counter() - t0])
        call_s = [time.perf_counter() - t0]
        outputs = [
            {"aci": e.aci, "seg_len_s": e.seg_len, "threshold": e.threshold,
             "mean_f_hat": e.mean_f_hat, "mean_snr": e.mean_snr, "n_signals": e.n_signals}
            for e in table.entries
        ]
        failed = sum(self.n - e.n_signals for e in table.entries)
        return UnitResult(outputs, attempted, failed, call_s)

    def reference_view(self, outputs):
        return [[e["aci"], e["seg_len_s"], e["threshold"], e["mean_f_hat"], e["mean_snr"],
                 e["n_signals"]] for e in outputs]

    def spot_check(self, outputs) -> list[str]:
        """Recompute one ACI row of every column, signal by signal."""
        aci = self.aci_list[self.seed % len(self.aci_list)]
        spec_cfg = envdiag.SpectrumConfig()
        dist = envdiag.DistributionSpec.constant(F_SIMUL)
        problems = []
        for seg_idx, seg_len in enumerate(self.seg_lens):
            # build_table's documented seeding: column seed from (master, column),
            # signal seed from (column seed, signal index)
            col_seed = int(np.random.SeedSequence([self.seed, seg_idx]).generate_state(1, np.uint64)[0])
            signals = [
                envdiag.simulate_signal(seg_len, FS, dist, envdiag.PulseParams(aci=aci),
                                        np.random.SeedSequence([col_seed, i]))[0]
                for i in range(self.n)
            ]
            f_hats, snrs, _ = estimate_plain(signals, spec_cfg)
            entry = next(e for e in outputs if e["aci"] == aci and e["seg_len_s"] == seg_len)
            want = {"threshold": float(np.var(f_hats, ddof=1)), "mean_f_hat": float(np.mean(f_hats)),
                    "mean_snr": float(np.mean(snrs))}
            for key, value in want.items():
                if not close(entry[key], value):
                    problems.append(f"calibrate aci={aci} seg={seg_len}: {key} {entry[key]!r} != {value!r}")
        return problems

    def expected_counts(self, two_workers: bool) -> dict:
        cells = len(self.aci_list) * len(self.seg_lens)
        if two_workers:
            return {"_parallel.parallel_map": cells, "_parallel.pool_starts": cells}
        signals = cells * self.n
        return {
            "calibrate.build_table": 1,
            "calibrate.calibrate_entry": cells,
            "_parallel.parallel_map": cells,
            "_parallel.items": signals,
            "_parallel.pool_starts": 0,
            "sigmodel.simulate_signal": signals,
            "envspec.envelope_spectrum": signals,
            "envspec.bandpass": 0,
            "envspec.envelope": signals,
            "envspec.welch_psd": signals,
            "faultfreq.estimate_fault_frequency": signals,
            "classify.match_aci": 0,
        }

    def behaviour(self, outputs):
        return None


class Classify:
    name = "classify"
    threads = 1
    n_segments = 40  # 1 s segments in the recording
    seg_lens = (0.5, 1.0, 2.0, 5.0)
    band = (1500.0, 3500.0)
    table_acis = "1.5,2,2.5"
    table_n = 6

    def __init__(self, seed: int, workdir: str):
        self.seed = int(seed)
        self.rec_seed, self.table_seed = derive_seeds(seed, 2)
        self.recording = os.path.join(workdir, "recording.f64")
        self.table_path = os.path.join(workdir, "table.json")
        self.report = os.path.join(workdir, "report.json")
        self.est_csv = os.path.join(workdir, "estimates.csv")
        self.kde_csv = os.path.join(workdir, "kde.csv")

    def setup(self) -> None:
        run_cli(["simulate", "--dist", "normal:30,0.33", "--aci", "2", "--seg-len", "1",
                 "--n-segments", str(self.n_segments), "--seed", str(self.rec_seed),
                 "-o", self.recording])
        run_cli(["calibrate", "--aci-grid", self.table_acis,
                 "--seg-grid", ",".join(f"{s:g}" for s in self.seg_lens),
                 "--n", str(self.table_n), "--seed", str(self.table_seed), "-o", self.table_path])

    def segments_at(self, seg_len: float) -> int:
        return int(self.n_segments // seg_len)

    def run(self) -> UnitResult:
        attempted = sum(self.segments_at(s) for s in self.seg_lens)
        t0 = time.perf_counter()
        try:
            run_cli(["classify", "-i", self.recording, "--table", self.table_path,
                     "--f-theoretical", "30", "--seg-lens", ",".join(f"{s:g}" for s in self.seg_lens),
                     "--band", ",".join(f"{b:g}" for b in self.band), "-o", self.report,
                     "--emit-estimates", self.est_csv, "--emit-kde", self.kde_csv])
        except envdiag.EnvDiagError:
            return UnitResult(None, attempted, attempted, [time.perf_counter() - t0])
        call_s = [time.perf_counter() - t0]
        with open(self.report, encoding="utf-8") as fh:
            reports = json.load(fh)
        with open(self.est_csv, encoding="ascii") as fh:
            csv_f_hats = [float(line.split(",")[2]) for line in fh.readlines()[1:]]
        with open(self.kde_csv, encoding="ascii") as fh:
            kde_rows = len(fh.readlines()) - 1
        outputs = {
            "reports": [
                {key: r[key] for key in ("seg_len_s", "n_segments", "estimates_hz", "snrs",
                                         "avg_snr_real", "matched_aci", "threshold",
                                         "rescaled_variance", "verdict")}
                for r in reports
            ],
            "csv_f_hats": csv_f_hats,
            "kde_rows": kde_rows,
        }
        failed = attempted - sum(r["n_segments"] for r in reports)
        return UnitResult(outputs, attempted, failed, call_s)

    def reference_view(self, outputs):
        return [[r["seg_len_s"], r["n_segments"], r["verdict"], r["matched_aci"], r["threshold"],
                 r["rescaled_variance"], r["avg_snr_real"], r["estimates_hz"]]
                for r in outputs["reports"]]

    def spot_check(self, outputs) -> list[str]:
        """Re-estimate every segment and re-decide every length with public primitives."""
        samples = np.fromfile(self.recording, dtype="<f8")
        table = envdiag.ThresholdTable.load(self.table_path)
        spec_cfg = envdiag.SpectrumConfig(bandpass=self.band)
        problems = []
        for rep, seg_len in zip(outputs["reports"], self.seg_lens):
            width = int(round(seg_len * FS))
            signals = [envdiag.Signal(samples[i * width:(i + 1) * width], FS)
                       for i in range(self.segments_at(seg_len))]
            f_hats, snrs, _ = estimate_plain(signals, spec_cfg)
            problems += compare(rep["estimates_hz"], f_hats, f"classify {seg_len:g}s estimates")
            problems += compare(rep["snrs"], snrs, f"classify {seg_len:g}s snrs")
            verdict, scaled = decide_plain(f_hats, snrs, table, seg_len)
            if rep["verdict"] != verdict:
                problems.append(f"classify {seg_len:g}s: verdict {rep['verdict']} != {verdict}")
            if not close(rep["rescaled_variance"], scaled):
                problems.append(f"classify {seg_len:g}s: rescaled variance differs")
        # the emitted estimates are those of the first length, written to 10 digits
        problems += compare(outputs["csv_f_hats"], outputs["reports"][0]["estimates_hz"],
                            "classify emitted estimates")
        if outputs["kde_rows"] != envdiag.stats.KDE_GRID_POINTS:
            problems.append(f"classify KDE has {outputs['kde_rows']} rows")
        return problems

    def expected_counts(self, two_workers: bool) -> dict:
        segments = sum(self.segments_at(s) for s in self.seg_lens)
        # the --emit-* options estimate the first length a second time
        estimates = segments + self.segments_at(self.seg_lens[0])
        return {
            "cli.classify": 1,
            "calibrate.table_load": 1,
            "sigio.read_signal": 1,
            "sigio.write_estimates_csv": 1,
            "sigio.write_kde_csv": 1,
            "classify.classify_signal": len(self.seg_lens),
            "classify.match_aci": len(self.seg_lens),
            "_parallel.parallel_map": len(self.seg_lens),
            "_parallel.items": segments,
            "_parallel.pool_starts": 0,
            "sigmodel.simulate_signal": 0,
            "envspec.envelope_spectrum": estimates,
            "envspec.bandpass": estimates,
            "envspec.welch_psd": estimates,
            "faultfreq.estimate_fault_frequency": estimates,
        }

    def behaviour(self, outputs):
        return None


class Sweep:
    name = "sweep"
    threads = 2
    dists = ("constant:30", "uniform:29,31", "normal:30,0.33")
    acis = (2.0, 3.0)
    seg_lens = (0.5, 1.0)
    repeats = 3  # seeds per (law, aci, segment length)
    n_segments = 30
    table_n = 20

    def __init__(self, seed: int, workdir: str):
        self.seed = int(seed)
        self.table_seed, call_root = derive_seeds(seed, 2)
        self.calls = []
        for dist in self.dists:
            for aci in self.acis:
                for seg_len in self.seg_lens:
                    for _ in range(self.repeats):
                        index = len(self.calls)
                        call_seed = int(np.random.SeedSequence([call_root, index]).generate_state(1, np.uint64)[0])
                        self.calls.append((dist, aci, seg_len, call_seed))
        self.table = None

    def setup(self) -> None:
        self.table = envdiag.build_table(envdiag.calibrate.DEFAULT_ACI_GRID, self.seg_lens,
                                         n=self.table_n, master_seed=self.table_seed)

    def run(self) -> UnitResult:
        outputs, call_s, failed = [], [], 0
        for dist, aci, seg_len, call_seed in self.calls:
            t0 = time.perf_counter()
            try:
                rep = envdiag.simulate_and_classify(envdiag.DistributionSpec.parse(dist), aci,
                                                    seg_len, self.n_segments, self.table, call_seed)
            except envdiag.EnvDiagError:
                call_s.append(time.perf_counter() - t0)
                failed += self.n_segments
                outputs.append(None)
                continue
            call_s.append(time.perf_counter() - t0)
            outputs.append({"dist": dist, "aci": aci, "seg_len_s": seg_len, "verdict": rep.verdict,
                            "matched_aci": rep.matched_aci, "mean_f_hat": rep.mean_f_hat_real,
                            "rescaled_variance": rep.rescaled_variance})
        return UnitResult(outputs, self.n_segments * len(self.calls), failed, call_s)

    def reference_view(self, outputs):
        calls = [out and [out["verdict"], out["matched_aci"], out["mean_f_hat"],
                          out["rescaled_variance"]] for out in outputs]
        return {"calls": calls, "verdict_counts": self.behaviour(outputs)["by_law"]}

    def spot_check(self, outputs) -> list[str]:
        """Recompute one constant and one normal call segment by segment."""
        per_law = len(self.calls) // len(self.dists)
        picks = [self.seed % per_law, 2 * per_law + (self.seed // per_law) % per_law]
        spec_cfg = envdiag.SpectrumConfig()
        problems = []
        for idx in picks:
            dist, aci, seg_len, call_seed = self.calls[idx]
            law = envdiag.DistributionSpec.parse(dist)
            signals = [
                envdiag.simulate_signal(seg_len, FS, law, envdiag.PulseParams(aci=aci),
                                        np.random.SeedSequence([call_seed, i]))[0]
                for i in range(self.n_segments)
            ]
            f_hats, snrs, n_failed = estimate_plain(signals, spec_cfg)
            got = outputs[idx]
            if n_failed:
                # simulate_and_classify fails the whole call on one failed segment
                if got is not None:
                    problems.append(f"sweep call {idx}: {n_failed} segments fail, the call did not")
                continue
            verdict, scaled = decide_plain(f_hats, snrs, self.table, seg_len)
            if got is None or got["verdict"] != verdict or not close(got["rescaled_variance"], scaled):
                problems.append(f"sweep call {idx} ({dist}, aci={aci:g}, {seg_len:g}s): "
                                f"{got and got['verdict']} != {verdict}")
        return problems

    def expected_counts(self, two_workers: bool) -> dict:
        calls = len(self.calls)
        if two_workers:
            return {"_parallel.parallel_map": calls, "_parallel.pool_starts": calls}
        segments = calls * self.n_segments
        return {
            "classify.simulate_and_classify": calls,
            "classify.match_aci": calls,
            "_parallel.parallel_map": calls,
            "_parallel.items": segments,
            "_parallel.pool_starts": 0,
            "sigmodel.simulate_signal": segments,
            "envspec.envelope_spectrum": segments,
            "envspec.bandpass": 0,
            "faultfreq.estimate_fault_frequency": segments,
            "calibrate.calibrate_entry": 0,
        }

    def behaviour(self, outputs) -> dict:
        """Confusion matrix of true law against verdict, with error rates."""
        verdicts = ("constant", "uniform", "normal", "not-constant-inconclusive", "failed")
        counts = {}
        for (dist, aci, seg_len, _), out in zip(self.calls, outputs):
            key = f"{dist.split(':')[0]}|aci={aci:g}|seg={seg_len:g}s"
            row = counts.setdefault(key, dict.fromkeys(verdicts, 0))
            row[out["verdict"] if out else "failed"] += 1
        by_law = {law: dict.fromkeys(verdicts, 0) for law in ("constant", "uniform", "normal")}
        for key, row in counts.items():
            for v, c in row.items():
                by_law[key.split("|")[0]][v] += c
        n_const = sum(by_law["constant"].values())
        false_alarms = n_const - by_law["constant"]["constant"]
        n_varying = sum(sum(by_law[law].values()) for law in ("uniform", "normal"))
        misses = by_law["uniform"]["constant"] + by_law["normal"]["constant"]
        shape_hits = by_law["uniform"]["uniform"] + by_law["normal"]["normal"]
        return {
            "counts": counts,
            "by_law": by_law,
            "false_alarm_rate": rate(false_alarms, n_const),
            "miss_rate": rate(misses, n_varying),
            "shape_accuracy": rate(shape_hits, n_varying),
        }


def wilson(k: int, n: int, z: float = 1.959963984540054) -> tuple[float, float]:
    """Wilson score interval for k successes in n trials (95 % by default)."""
    if n == 0:
        return (0.0, 1.0)
    p = k / n
    denom = 1.0 + z * z / n
    centre = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return (max(0.0, centre - half), min(1.0, centre + half))


def rate(k: int, n: int) -> dict:
    lo, hi = wilson(k, n)
    return {"value": k / n if n else None, "k": k, "n": n, "wilson95": [lo, hi]}


WORKLOADS = {w.name: w for w in (Calibrate, Classify, Sweep)}
