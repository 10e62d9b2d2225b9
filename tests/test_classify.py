"""Decision-procedure tests: the shared segment estimate and its failure policies."""

import json
import math
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from envdiag import (
    ClassifyConfig,
    DistributionSpec,
    EstimationError,
    EstimatorConfig,
    ParameterError,
    PulseParams,
    SeedSpec,
    Signal,
    ShapeDistanceResult,
    SpectrumConfig,
    TableMismatchError,
    ThresholdEntry,
    ThresholdTable,
    VarianceTestResult,
    build_table,
    classify_signal,
    match_aci,
    simulate_and_classify,
    simulate_signal,
)
from envdiag import classify
from envdiag.calibrate import analysis_settings
from envdiag._parallel import ENV_THREADS
from envdiag.classify import VERDICT_CONSTANT, VERDICT_INCONCLUSIVE, VERDICT_NORMAL, VERDICT_UNIFORM
from envdiag.faultfreq import estimate_or_error, iter_segments
from envdiag.sigio import read_signal, write_signal_arrays

FS = 25_000.0
SEG = 0.5
VERDICTS = {VERDICT_CONSTANT, VERDICT_UNIFORM, VERDICT_NORMAL, VERDICT_INCONCLUSIVE}
COMMON_PROVENANCE = {"analysis", "table_seed", "alpha", "f_theoretical", "rescale_direction"}
# harmonic 3's window around 15 kHz crosses fs/2, so every estimate fails on it
UNREACHABLE = 5000.0


@pytest.fixture(scope="module")
def table():
    return build_table((2.0, 3.0), (SEG,), n=4, master_seed=1)


@pytest.fixture(scope="module")
def recording():
    """Four 0.5 s segments at a constant 30 Hz."""
    segments = [
        simulate_signal(SEG, FS, DistributionSpec.constant(30.0), PulseParams(aci=2.5),
                        SeedSpec(3).sequence(i))[0].samples
        for i in range(4)
    ]
    return Signal(np.concatenate(segments), FS)


def config(f_theoretical=30.0, **kwargs):
    return ClassifyConfig(f_theoretical, SEG, **kwargs)


def plain_estimates(x, spec_cfg, est_cfg=EstimatorConfig(f_theoretical=30.0)):
    """Each segment's estimate, one segment at a time, in time order."""
    return [estimate_or_error(seg, spec_cfg, est_cfg) for seg in iter_segments(x, SEG)]


class TestClassifyConfig:
    @pytest.mark.parametrize("kwargs", [{"alpha": 0.0}, {"alpha": 1.0}])
    def test_invalid_alpha(self, kwargs):
        with pytest.raises(ParameterError):
            config(**kwargs)

    def test_invalid_segment_length(self):
        with pytest.raises(ParameterError):
            ClassifyConfig(30.0, 0.0)

    @pytest.mark.parametrize("kwargs", [{"f_theoretical": 0.0}, {"f_theoretical": float("inf")},
                                        {"band": (3500.0, 1500.0)}, {"band": (1500.0,)}])
    def test_invalid_frequency_or_band(self, kwargs):
        with pytest.raises(ParameterError):
            config(**kwargs)

    def test_analysis_takes_the_table_settings_and_the_run_values(self):
        table = build_table((2.0,), (SEG,), n=2, master_seed=1,
                            spec_cfg=SpectrumConfig(window="hamming", piece_len_s=0.25),
                            est_cfg=EstimatorConfig(f_theoretical=30.0, n_harmonics=2))
        cfg = ClassifyConfig(97.0, SEG, band=(1000, 4000))
        spec_cfg, est_cfg = analysis_settings(table, cfg.band, cfg.f_theoretical)
        assert spec_cfg == SpectrumConfig(bandpass=(1000.0, 4000.0), window="hamming",
                                          piece_len_s=0.25)
        assert est_cfg == EstimatorConfig(f_theoretical=97.0, n_harmonics=2)


class TestClassifySignal:
    def test_estimates_match_per_segment_loop(self, recording, table):
        report = classify_signal(recording, config(), table)
        plain = plain_estimates(recording, SpectrumConfig())
        assert report.estimates == tuple(e.f_hat for e in plain)
        assert report.snrs == tuple(e.snr for e in plain)
        assert report.n_segments == 4
        assert report.verdict in VERDICTS

    def test_provenance_keys(self, recording, table):
        report = classify_signal(recording, config(), table)
        assert set(report.provenance) == COMMON_PROVENANCE | {"bandpass"}
        assert report.provenance["f_theoretical"] == 30.0
        assert report.provenance["bandpass"] is None
        assert report.provenance["analysis"] == table.to_json_dict()["meta"]["analysis"]

    def test_provenance_names_the_table_by_its_analysis_settings(self, recording):
        table = build_table((2.0,), (SEG,), n=2, master_seed=1,
                            spec_cfg=SpectrumConfig(bandpass=(1500.0, 3500.0), piece_len_s=0.25),
                            est_cfg=EstimatorConfig(f_theoretical=30.0, n_harmonics=2))
        analysis = table.to_json_dict()["meta"]["analysis"]
        # the run's band is the recording's; the table's own stays in its analysis
        report = classify_signal(recording, config(), table)
        assert report.provenance["analysis"] == analysis
        assert report.provenance["analysis"]["bandpass"] == (1500.0, 3500.0)
        assert report.provenance["bandpass"] is None
        simulated = simulate_and_classify(DistributionSpec.constant(30.0), 2.0, SEG, 4, table, 5)
        assert simulated.provenance["analysis"] == analysis

    def test_all_segments_failing_is_an_estimation_error(self, recording, table):
        with pytest.raises(EstimationError, match="4/4 segment estimates failed"):
            classify_signal(recording, config(UNREACHABLE), table)

    def test_table_piece_length_is_used_without_configuration(self, recording):
        spec_cfg = SpectrumConfig(piece_len_s=0.25)
        table = build_table((2.0, 3.0), (SEG,), n=4, master_seed=1, spec_cfg=spec_cfg)
        report = classify_signal(recording, config(), table)
        quarter = plain_estimates(recording, spec_cfg)
        half = plain_estimates(recording, SpectrumConfig())
        assert report.snrs == tuple(e.snr for e in quarter)
        assert report.estimates == tuple(e.f_hat for e in quarter)
        # 0.25 s pieces are another analysis than the default 0.5 s ones
        assert report.snrs != tuple(e.snr for e in half)

    def test_band_other_than_the_table_s_is_analysed_with_a_warning(self, recording, table):
        band = (1500.0, 3500.0)
        report = classify_signal(recording, config(band=band), table)
        banded = plain_estimates(recording, SpectrumConfig(bandpass=band))
        assert report.estimates == tuple(e.f_hat for e in banded)
        assert report.warnings[0] == ("band (1500.0, 3500.0) is not the table's band None; "
                                      "its SNRs and thresholds may not apply")
        # the table's own band gives no warning, and neither does a band-less run
        banded_table = replace(table, spectrum=SpectrumConfig(bandpass=band))
        assert not any("band" in w for w in
                       classify_signal(recording, config(band=band), banded_table).warnings)
        assert not any("band" in w for w in classify_signal(recording, config(), table).warnings)

    def test_sample_rate_other_than_the_table_s_is_analysed_with_a_warning(self, recording,
                                                                         table):
        # the SNR a recording is matched on moves with its sample rate
        fast = Signal(np.concatenate([
            simulate_signal(SEG, 2 * FS, DistributionSpec.constant(30.0), PulseParams(aci=2.5),
                            SeedSpec(3).sequence(i))[0].samples
            for i in range(4)
        ]), 2 * FS)
        report = classify_signal(fast, config(), table)
        assert report.warnings[0] == ("sample rate 50000 Hz is not the table's sample rate "
                                      "25000 Hz; its SNRs and thresholds may not apply")
        # the table's own rate gives no warning
        assert not any("sample rate" in w for w in
                       classify_signal(recording, config(), table).warnings)

    def test_silent_segment_is_skipped_alike_at_one_and_two_workers(self, recording, table,
                                                                    monkeypatch):
        # segment 2 of 5 is zeros: its SNR is undefined
        samples = np.concatenate([recording.samples, recording.samples[: int(SEG * FS)]])
        samples[2 * int(SEG * FS):3 * int(SEG * FS)] = 0.0
        silent = Signal(samples, FS)
        reports = []
        for threads in ("1", "2"):
            monkeypatch.setenv(ENV_THREADS, threads)
            reports.append(classify_signal(silent, config(), table))
        assert reports[0] == reports[1]
        assert reports[0].n_segments == 4
        assert reports[0].warnings[0] == "1/5 segment estimates failed and were skipped"
        kept = [e for e in plain_estimates(silent, SpectrumConfig())
                if not isinstance(e, EstimationError)]
        assert reports[0].estimates == tuple(e.f_hat for e in kept)

    def test_too_short_signal_rejected(self, recording, table):
        short = Signal(recording.samples[: int(1.5 * SEG * FS)], FS)
        with pytest.raises(EstimationError, match="fewer than 2 segments"):
            classify_signal(short, config(), table)

    def test_length_without_a_cell_fails_before_any_estimate(self, recording, table,
                                                             monkeypatch):
        calls = []
        monkeypatch.setattr(classify, "estimate_or_error", lambda *a, **k: calls.append(a))
        with pytest.raises(TableMismatchError, match="no entries for seg_len=1 s"):
            classify_signal(recording, ClassifyConfig(30.0, 1.0), table)
        assert calls == []

    def test_raw_recording_is_classified_in_little_more_than_a_segment(self, tmp_path,
                                                                        monkeypatch):
        # 40 s of raw samples are 8 MB on disk; one 1 s segment is 200 kB
        monkeypatch.setenv(ENV_THREADS, "1")
        path = tmp_path / "rec.f64"
        law, pulse = DistributionSpec.normal(30.0, 0.33), PulseParams(aci=2.0)
        write_signal_arrays(path, (simulate_signal(1.0, FS, law, pulse, SeedSpec(8).sequence(i))
                                   [0].samples for i in range(40)), FS)
        table = build_table((2.0,), (1.0,), n=2, master_seed=1)
        cfg = ClassifyConfig(30.0, 1.0)
        want = classify_signal(read_signal(path)[0], cfg, table)  # first-call imports and caches
        tracemalloc.start()
        try:
            recording, _ = read_signal(path)
            report = classify_signal(recording, cfg, table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report == want and report.n_segments == 40
        assert peak < 2_000_000


class TestSimulateAndClassify:
    def test_report(self, table):
        report = simulate_and_classify(DistributionSpec.constant(30.0), 2.0, SEG, 4, table, 5)
        assert report.n_segments == 4
        assert report.verdict in VERDICTS
        assert set(report.provenance) == COMMON_PROVENANCE | {"simulated"}
        assert report.provenance["simulated"] == {"dist": "constant:30", "aci": 2.0, "seed": 5}
        assert report.provenance["analysis"] == table.to_json_dict()["meta"]["analysis"]

    def test_reproducible(self, table):
        dist = DistributionSpec.normal(30.0, 0.33)
        first = simulate_and_classify(dist, 3.0, SEG, 4, table, 11)
        assert simulate_and_classify(dist, 3.0, SEG, 4, table, 11) == first

    def test_failed_segment_raises_its_error(self, table):
        with pytest.raises(EstimationError, match=r"^harmonic 3:"):
            simulate_and_classify(DistributionSpec.constant(30.0), 2.0, SEG, 4, table, 5,
                                  cfg=config(UNREACHABLE))

    def test_segment_length_mismatch_rejected(self, table):
        with pytest.raises(ParameterError):
            simulate_and_classify(DistributionSpec.constant(30.0), 2.0, 1.0, 4, table, 5,
                                  cfg=config())

    def test_infinite_aci_is_refused_before_any_simulation(self, table, monkeypatch):
        monkeypatch.setenv(ENV_THREADS, "1")
        calls = []
        monkeypatch.setattr("envdiag.calibrate.simulate_signal",
                            lambda *a, **k: calls.append(a))
        with pytest.raises(ParameterError, match="ACI must be positive and finite, got inf"):
            simulate_and_classify(DistributionSpec.constant(30.0), math.inf, SEG, 4, table, 5)
        assert calls == []

    def test_pool_workers_inherit_numpy_random(self, monkeypatch, run_python):
        # a fresh process that has drawn no random number yet; its pool workers
        # are forked from it when the map starts, after the batch's seeds are made
        monkeypatch.setenv(ENV_THREADS, "2")
        code = """
import sys
from envdiag import (DistributionSpec, ThresholdTable, calibrate_entry, faultfreq,
                     simulate_and_classify)
table = ThresholdTable.load(sys.argv[1])
seen = ["numpy.random" in sys.modules]
real = faultfreq.parallel_map
def checking(fn, items):
    seen.append("numpy.random" in sys.modules)
    return real(fn, items)
faultfreq.parallel_map = checking
CALL
print(seen)
"""
        table = Path(__file__).parent / "golden" / "table.json"
        for call in ("simulate_and_classify(DistributionSpec.constant(30.0), 2.0, 0.5, 2, table, 5)",
                     "calibrate_entry(2.0, 0.5, 2, table.fs, 5)"):
            assert run_python(code.replace("CALL", call), str(table)) == "[False, True]\n", call

    def test_needs_two_segments(self, table):
        for n_segments in (1, 2.5):
            with pytest.raises(ParameterError, match="need at least 2 segments"):
                simulate_and_classify(DistributionSpec.constant(30.0), 2.0, SEG, n_segments,
                                      table, 5)

    def test_whole_float_count_classifies_as_its_int(self, table):
        dist = DistributionSpec.normal(30.0, 0.33)
        report = simulate_and_classify(dist, 2.0, SEG, 4.0, table, 5)
        assert report == simulate_and_classify(dist, 2.0, SEG, 4, table, 5)
        assert type(report.n_segments) is int

    def test_rejected_test_on_few_segments_leaves_the_shape_unknown(self, table):
        # the shape comparison needs 10 estimates; 6 spread over 25-35 Hz
        # reject the chi-squared test, and the verdict falls back
        report = simulate_and_classify(DistributionSpec.uniform(25.0, 35.0), 3.0, SEG, 6,
                                       table, 0)
        assert report.test.rejected
        assert report.verdict == VERDICT_INCONCLUSIVE
        assert report.shape is None
        assert report.warnings[-1].startswith("shape comparison unavailable")

    def test_zero_threshold_rejects_with_an_infinite_statistic(self, table):
        # a cell whose calibrated variance is 0.0, which a table allows
        zero = replace(table, entries=(replace(table.entries[0], threshold=0.0),))
        rep = simulate_and_classify(DistributionSpec.normal(30.0, 0.33), 2.0, SEG, 12, zero, 5)
        assert (rep.gate, rep.test.statistic, rep.test.decision, rep.verdict) == (
            classify.GATE_ABOVE, math.inf, "reject", VERDICT_NORMAL)
        assert "calibrated threshold is zero; chi-squared test degenerate" in rep.warnings
        assert '"statistic": Infinity' in json.dumps(rep.to_json_dict())

    def test_paper_rescale_uses_the_literal_factor(self, table):
        dist = DistributionSpec.normal(30.0, 0.33)
        report = simulate_and_classify(dist, 2.0, SEG, 4, table, 5, cfg=config(paper_rescale=True))
        assert report.provenance["rescale_direction"] == "paper"
        (entry,) = [e for e in table.entries_at(SEG) if e.aci == report.matched_aci]
        ratio = report.mean_f_hat_real / entry.mean_f_hat
        assert report.rescaled_variance == pytest.approx(report.variance_raw * ratio**2,
                                                         rel=1e-12)
        # same estimates as the default direction, which divides by the ratio instead
        default = simulate_and_classify(dist, 2.0, SEG, 4, table, 5)
        assert default.provenance["rescale_direction"] == "normalized"
        assert default.estimates == report.estimates
        assert default.rescaled_variance == pytest.approx(report.variance_raw / ratio**2,
                                                          rel=1e-12)


REPORT_KEYS = {"seg_len_s", "n_segments", "estimates_hz", "snrs", "mean_f_hat_real",
               "avg_snr_real", "matched_aci", "threshold", "variance_raw", "rescaled_variance",
               "gate", "test", "verdict", "shape", "warnings", "provenance"}


class TestReportJson:
    @pytest.fixture(scope="class")
    def report(self, table):
        report = simulate_and_classify(DistributionSpec.constant(30.0), 2.0, SEG, 4, table, 5)
        return replace(report, test=None, shape=None, warnings=("w1", "w2"))

    def test_keys_without_test_and_shape(self, report):
        out = report.to_json_dict()
        assert set(out) == REPORT_KEYS
        assert out["test"] is None and out["shape"] is None
        assert out["seg_len_s"] == SEG
        assert out["estimates_hz"] == list(report.estimates)
        for key in ("estimates_hz", "snrs", "warnings"):
            assert type(out[key]) is list
        assert out["warnings"] == ["w1", "w2"]
        assert out["provenance"] == report.provenance

    def test_test_and_shape_blocks(self, report):
        test = VarianceTestResult(statistic=12.5, dof=3, critical=7.8, alpha=0.05,
                                  decision="reject")
        shape = ShapeDistanceResult(dist_uniform=0.1, dist_normal=0.2, verdict="uniform")
        out = replace(report, test=test, shape=shape).to_json_dict()
        assert set(out) == REPORT_KEYS
        assert out["test"] == {"statistic": 12.5, "dof": 3, "critical": 7.8, "alpha": 0.05,
                               "decision": "reject"}
        assert out["shape"] == {"dist_uniform": 0.1, "dist_normal": 0.2, "verdict": "uniform"}


def _table_at(cells):
    """One-length table with an entry per ``(aci, mean_snr)`` pair."""
    entries = tuple(
        ThresholdEntry(aci=aci, seg_len=SEG, threshold=0.1, mean_f_hat=30.0, mean_snr=snr,
                       n_signals=2, master_seed=0)
        for aci, snr in cells
    )
    return ThresholdTable(fs=FS, f_simul=30.0, n_signals=2, master_seed=0, noise_std=1.0,
                          pulse_base=PulseParams(aci=1.0), spectrum=SpectrumConfig(),
                          estimator=EstimatorConfig(f_theoretical=30.0), entries=entries)


# quarter steps keep every SNR distance exact, so ties are real ties
_QUARTERS = st.integers(min_value=0, max_value=40).map(lambda k: k / 4)


@settings(max_examples=200, deadline=None)
@given(cells=st.lists(st.tuples(st.integers(min_value=1, max_value=20).map(lambda k: k / 4),
                                _QUARTERS),
                      min_size=1, max_size=8, unique_by=lambda cell: cell[0]),
       avg=_QUARTERS)
def test_match_aci_takes_the_closest_snr_and_the_larger_aci_on_ties(cells, avg):
    aci, entry = match_aci(avg, _table_at(cells), SEG)
    best = min(abs(snr - avg) for _, snr in cells)
    assert abs(entry.mean_snr - avg) == best
    assert aci == entry.aci == max(a for a, snr in cells if abs(snr - avg) == best)
