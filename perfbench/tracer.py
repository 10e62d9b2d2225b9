"""In-memory spans and counters around envdiag's public functions.

The tracer works from outside the package: it replaces every module-level
binding of a function with a timing wrapper for the length of one run and
puts the originals back afterwards.  A function imported by several modules
(``calibrate.simulate_signal`` and ``sigmodel.simulate_signal``, say) has one
binding per module, and each of them is replaced, so a call is recorded
whichever module makes it.

Spans are kept in a flat list; each one knows its parent, so a layer's self
time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import re
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# segment lengths of the per-stage table, seconds
STAGE_SEG_LENS = (0.5, 1.0, 2.0, 5.0, 10.0)
# stage -> span whose per-call time it reports, per segment length
STAGES = {
    "simulate": "sigmodel.simulate_signal",
    "bandpass": "envspec.bandpass",
    "envelope": "envspec.envelope",
    "welch": "envspec.welch_psd",
    "peaks": "faultfreq.estimate_fault_frequency",
}


class Tracer:
    """Records spans (name, start, end, parent, segment length) and counts."""

    def __init__(self):
        # each span: [name, start, end, parent index or None, seg_len, child seconds]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.last_seg: float | None = None
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def wrap(self, name, fn, seg=None, after=None, on_error=None):
        """Timing wrapper around ``fn``.

        ``seg(tracer, args, kwargs)`` gives the segment length a call works
        on; without it a span inherits its parent's.  ``after`` and
        ``on_error`` run outside the span, so they add nothing to its time.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            seg_len = seg(self, args, kwargs) if seg else None
            if seg_len is None and parent is not None:
                seg_len = self.spans[parent][4]
            rec = [name, 0.0, 0.0, parent, seg_len, 0.0]
            self.spans.append(rec)
            self._stack.append(len(self.spans) - 1)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                rec[2] = time.perf_counter()
                self._close(rec, parent)
                if on_error is not None:
                    on_error(self, exc)
                raise
            rec[2] = time.perf_counter()
            self._close(rec, parent)
            if after is not None:
                after(self, result, args, kwargs)
            return result

        return traced

    def _close(self, rec, parent):
        self._stack.pop()
        if parent is not None:
            self.spans[parent][5] += rec[2] - rec[1]

    def patch(self, owner, attr, replacement):
        """Set ``owner.attr`` and remember the original for ``restore``."""
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def patch_everywhere(self, modules, original, replacement) -> int:
        """Replace every binding of ``original`` in ``modules``; returns the count."""
        hits = 0
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self.patch(mod, attr, replacement)
                    hits += 1
        return hits

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    @property
    def patched(self) -> list[tuple]:
        return list(self._patched)

    # --- aggregation -------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, busy seconds, self seconds, and per-segment-length busy."""
        out: dict = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "by_seg": {}})
        for name, t0, t1, _parent, seg_len, child_s in self.spans:
            agg = out[name]
            dur = t1 - t0
            agg["calls"] += 1
            agg["busy_s"] += dur
            agg["self_s"] += dur - child_s
            if seg_len is not None:
                calls, busy = agg["by_seg"].get(seg_len, (0, 0.0))
                agg["by_seg"][seg_len] = (calls + 1, busy + dur)
        return dict(out)

    def stage_table(self) -> dict:
        """ms per call of each stage per segment length, plus the per-estimate cost.

        ``estimate`` is the whole cost of one estimate from one segment: the
        envelope spectrum (bandpass, envelope, Welch) plus the peak search.
        ``welch_share`` is Welch's part of that cost.
        """
        summ = self.summary()

        def seg_stat(span, seg_len):
            return summ.get(span, {"by_seg": {}})["by_seg"].get(seg_len, (0, 0.0))

        table = {}
        for seg_len in STAGE_SEG_LENS:
            row = {}
            for stage, span in STAGES.items():
                calls, busy = seg_stat(span, seg_len)
                row[stage] = 1e3 * busy / calls if calls else 0.0
            n_est, peaks_s = seg_stat("faultfreq.estimate_fault_frequency", seg_len)
            _, spec_s = seg_stat("envspec.envelope_spectrum", seg_len)
            _, welch_s = seg_stat("envspec.welch_psd", seg_len)
            per_est = spec_s + peaks_s
            row["estimate"] = 1e3 * per_est / n_est if n_est else 0.0
            row["welch_share"] = welch_s / per_est if per_est else 0.0
            row["n_estimates"] = n_est
            table[seg_len] = row
        return table

    def dump(self) -> dict:
        return {
            "spans": [
                {"name": n, "start": t0, "end": t1, "parent": p, "seg_len_s": s}
                for n, t0, t1, p, s, _ in self.spans
            ],
            "counts": dict(self.counts),
        }


def _seg_of_signal(tracer, args, kwargs):
    x = args[0] if args else kwargs["x"]
    return round(len(x) / x.fs, 6)


def _seg_of_spectrum_input(tracer, args, kwargs):
    tracer.last_seg = _seg_of_signal(tracer, args, kwargs)
    return tracer.last_seg


def _seg_of_last_spectrum(tracer, args, kwargs):
    return tracer.last_seg


def _count_samples(tracer, result, args, kwargs):
    tracer.counts["sigmodel.samples"] += len(result[0])


def _count_fft_points(tracer, result, args, kwargs):
    # one forward and one inverse FFT of the full input
    tracer.counts["envspec.fft_points"] += 2 * len(result)


def _count_bins_out(tracer, result, args, kwargs):
    tracer.counts["envspec.welch_psd.bins_out"] += len(result)


def _count_bins_used(tracer, result, args, kwargs):
    # highest frequency the estimator reads: the last harmonic window or the
    # top of the SNR noise band, whichever lies higher
    spec, cfg = args[0], args[1] if len(args) > 1 else kwargs["cfg"]
    f_max = max(cfg.n_harmonics * cfg.f_theoretical * (1.0 + cfg.search_frac), 3.5 * result.f_hat)
    tracer.counts["envspec.welch_psd.bins_used"] += int(np.searchsorted(spec.freqs, f_max, "right"))


_HARMONIC = re.compile(r"^harmonic (\d+):")


def _count_estimate_failure(tracer, exc):
    from envdiag.errors import EstimationError

    if not isinstance(exc, EstimationError):
        return
    match = _HARMONIC.match(str(exc))
    reason = f"h{match.group(1)}" if match else "other"
    tracer.counts["faultfreq.estimate_fault_frequency.failed"] += 1
    tracer.counts[f"faultfreq.estimate_fault_frequency.failed.{reason}"] += 1


def _count_dropped(tracer, result, args, kwargs):
    n = args[2] if len(args) > 2 else kwargs["n"]
    tracer.counts["calibrate.signals_dropped"] += n - result.n_signals


def _count_snr_out_of_range(tracer, result, args, kwargs):
    if any("outside the calibrated range" in w for w in result.warnings):
        tracer.counts["classify.snr_out_of_range"] += 1


def _count_items(tracer, result, args, kwargs):
    tracer.counts["_parallel.items"] += len(result)


# (module, function, span name, seg, after, on_error)
FUNCTIONS = (
    ("sigmodel", "simulate_signal", "sigmodel.simulate_signal",
     lambda t, a, k: float(a[0]), _count_samples, None),
    ("envspec", "bandpass", "envspec.bandpass", _seg_of_signal, None, None),
    ("envspec", "envelope", "envspec.envelope", None, _count_fft_points, None),
    ("envspec", "welch_psd", "envspec.welch_psd", None, _count_bins_out, None),
    ("envspec", "envelope_spectrum", "envspec.envelope_spectrum", _seg_of_spectrum_input,
     None, None),
    ("faultfreq", "estimate_fault_frequency", "faultfreq.estimate_fault_frequency",
     _seg_of_last_spectrum, _count_bins_used, _count_estimate_failure),
    ("calibrate", "calibrate_entry", "calibrate.calibrate_entry",
     lambda t, a, k: float(a[1]), _count_dropped, None),
    ("calibrate", "build_table", "calibrate.build_table", None, None, None),
    ("classify", "classify_signal", "classify.classify_signal",
     lambda t, a, k: float(a[1].seg_len), _count_snr_out_of_range, None),
    ("classify", "simulate_and_classify", "classify.simulate_and_classify",
     lambda t, a, k: float(a[2]), _count_snr_out_of_range, None),
    ("classify", "match_aci", "classify.match_aci", None, None, None),
    ("stats", "chi_squared_variance_test", "stats.chi_squared_variance_test", None, None, None),
    ("stats", "shape_distance", "stats.shape_distance", None, None, None),
    ("stats", "kde", "stats.kde", None, None, None),
    ("sigio", "read_signal", "sigio.read_signal", None, None, None),
    ("sigio", "write_estimates_csv", "sigio.write_estimates_csv", None, None, None),
    ("sigio", "write_kde_csv", "sigio.write_kde_csv", None, None, None),
    ("_parallel", "parallel_map", "_parallel.parallel_map", None, _count_items, None),
)


def envdiag_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if name == "envdiag" or name.startswith("envdiag.")]


def _patch_pool(tracer, parallel_mod):
    real = parallel_mod.ProcessPoolExecutor

    def counting_pool(*args, **kwargs):
        tracer.counts["_parallel.pool_starts"] += 1
        return real(*args, **kwargs)

    tracer.patch(parallel_mod, "ProcessPoolExecutor", counting_pool)


def instrument(tracer: Tracer, parent_only: bool = False) -> None:
    """Wrap envdiag's public functions in every module that binds them.

    ``parent_only`` wraps just ``parallel_map`` and the pool constructor:
    with worker processes the other wrappers would run in the workers,
    whose spans never reach this process.
    """
    import envdiag
    from envdiag import _parallel, cli

    modules = envdiag_modules()
    for mod_name, fn_name, span, seg, after, on_error in FUNCTIONS:
        if parent_only and mod_name != "_parallel":
            continue
        original = getattr(getattr(envdiag, mod_name), fn_name)
        wrapped = tracer.wrap(span, original, seg, after, on_error)
        if tracer.patch_everywhere(modules, original, wrapped) == 0:
            raise RuntimeError(f"no binding of {mod_name}.{fn_name} found")
    _patch_pool(tracer, _parallel)
    if parent_only:
        return
    table_cls = envdiag.calibrate.ThresholdTable
    load = vars(table_cls)["load"]
    tracer.patch(table_cls, "load", classmethod(tracer.wrap("calibrate.table_load", load.__func__)))
    command = cli.cmd_classify
    tracer.patch(command, "callback", tracer.wrap("cli.classify", command.callback))


def all_restored(patched: list[tuple]) -> bool:
    """True when every binding in ``patched`` holds its original object again."""
    return all(vars(owner)[attr] is original for owner, attr, original in patched)
