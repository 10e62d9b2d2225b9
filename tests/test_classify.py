"""Decision-procedure tests: the shared segment estimate and its failure policies."""

from dataclasses import replace

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
    estimate_per_segment,
    match_aci,
    simulate_and_classify,
    simulate_signal,
)
from envdiag.classify import VERDICT_CONSTANT, VERDICT_INCONCLUSIVE, VERDICT_NORMAL, VERDICT_UNIFORM

FS = 25_000.0
SEG = 0.5
VERDICTS = {VERDICT_CONSTANT, VERDICT_UNIFORM, VERDICT_NORMAL, VERDICT_INCONCLUSIVE}
COMMON_PROVENANCE = {"table_digest", "table_seed", "alpha", "f_theoretical",
                     "rescale_direction", "search_frac", "n_harmonics"}
# harmonic 3's window around 15 kHz crosses fs/2, so every estimate fails on it
UNREACHABLE = EstimatorConfig(f_theoretical=5000.0)


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


def config(estimator=EstimatorConfig(f_theoretical=30.0), **kwargs):
    return ClassifyConfig(estimator, SEG, **kwargs)


class TestClassifyConfig:
    @pytest.mark.parametrize("kwargs", [{"alpha": 0.0}, {"alpha": 1.0}])
    def test_invalid_alpha(self, kwargs):
        with pytest.raises(ParameterError):
            config(**kwargs)

    def test_invalid_segment_length(self):
        with pytest.raises(ParameterError):
            ClassifyConfig(EstimatorConfig(f_theoretical=30.0), 0.0)


class TestClassifySignal:
    def test_estimates_match_per_segment_loop(self, recording, table):
        report = classify_signal(recording, config(), table)
        _, plain, _ = estimate_per_segment(recording, SEG, SpectrumConfig(),
                                           EstimatorConfig(f_theoretical=30.0))
        assert report.estimates == tuple(e.f_hat for e in plain)
        assert report.snrs == tuple(e.snr for e in plain)
        assert report.n_segments == 4
        assert report.verdict in VERDICTS

    def test_provenance_keys(self, recording, table):
        report = classify_signal(recording, config(), table)
        assert set(report.provenance) == COMMON_PROVENANCE | {"bandpass"}
        assert report.provenance["f_theoretical"] == 30.0
        assert report.provenance["bandpass"] is None

    def test_all_segments_failing_is_an_estimation_error(self, recording, table):
        with pytest.raises(EstimationError, match="4/4 segment estimates failed"):
            classify_signal(recording, config(UNREACHABLE), table)

    def test_other_configuration_rejected(self, recording, table):
        cfg = config(spectrum=SpectrumConfig(piece_len_s=0.25))
        with pytest.raises(TableMismatchError):
            classify_signal(recording, cfg, table)

    def test_too_short_signal_rejected(self, recording, table):
        short = Signal(recording.samples[: int(1.5 * SEG * FS)], FS)
        with pytest.raises(EstimationError, match="fewer than 2 segments"):
            classify_signal(short, config(), table)


class TestSimulateAndClassify:
    def test_report(self, table):
        report = simulate_and_classify(DistributionSpec.constant(30.0), 2.0, SEG, 4, table, 5)
        assert report.n_segments == 4
        assert report.verdict in VERDICTS
        assert set(report.provenance) == COMMON_PROVENANCE | {"simulated"}
        assert report.provenance["simulated"] == {"dist": "constant:30", "aci": 2.0, "seed": 5}

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

    def test_needs_two_segments(self, table):
        with pytest.raises(ParameterError):
            simulate_and_classify(DistributionSpec.constant(30.0), 2.0, SEG, 1, table, 5)

    def test_rejected_test_on_few_segments_leaves_the_shape_unknown(self, table):
        # the shape comparison needs 10 estimates; 6 spread over 25-35 Hz
        # reject the chi-squared test, and the verdict falls back
        report = simulate_and_classify(DistributionSpec.uniform(25.0, 35.0), 3.0, SEG, 6,
                                       table, 0)
        assert report.test.rejected
        assert report.verdict == VERDICT_INCONCLUSIVE
        assert report.shape is None
        assert report.warnings[-1].startswith("shape comparison unavailable")

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
                          pulse_base=PulseParams(aci=1.0), config_digest="d", entries=entries)


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
