"""Monte-Carlo calibration tests: seeding, failure policy, table files."""

import numpy as np
import pytest

from envdiag import (
    CalibrationError,
    DistributionSpec,
    EstimationError,
    EstimatorConfig,
    FaultFrequencyEstimate,
    ParameterError,
    PulseParams,
    SeedSpec,
    SpectrumConfig,
    ThresholdTable,
    build_table,
    calibrate_entry,
    config_digest,
    envelope_spectrum,
    estimate_fault_frequency,
    simulate_signal,
)
from envdiag.calibrate import estimate_batch

FS = 25_000.0


def fake_estimate(i):
    """An estimate for item ``i``, or an EstimationError for every third item."""
    if i % 3 == 1:
        return EstimationError(f"item {i}")
    return FaultFrequencyEstimate(f_hat=30.0 + i, peaks=(), snr=0.5 * i)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_estimate_batch_splits_estimates_from_errors_in_item_order(monkeypatch, threads):
    monkeypatch.setenv("ENVDIAG_THREADS", threads)
    f_hats, snrs, errors = estimate_batch(fake_estimate, range(8))
    np.testing.assert_array_equal(f_hats, [30.0, 32.0, 33.0, 35.0, 36.0])
    np.testing.assert_array_equal(snrs, [0.0, 1.0, 1.5, 2.5, 3.0])
    assert [str(e) for e in errors] == ["item 1", "item 4", "item 7"]


def test_estimate_batch_of_only_errors_gives_empty_arrays():
    f_hats, snrs, errors = estimate_batch(fake_estimate, [1, 4])
    assert f_hats.shape == snrs.shape == (0,)
    assert len(errors) == 2


class TestCalibrateEntry:
    def test_matches_plain_loop_over_indexed_seeds(self):
        # signal i of a cell is simulated from SeedSpec(master_seed).sequence(i)
        n, seed, aci = 4, 21, 2.0
        f_hats, snrs = [], []
        for i in range(n):
            signal, _ = simulate_signal(0.5, FS, DistributionSpec.constant(30.0),
                                        PulseParams(aci=aci), SeedSpec(seed).sequence(i))
            est = estimate_fault_frequency(envelope_spectrum(signal, SpectrumConfig()),
                                           EstimatorConfig(f_theoretical=30.0))
            f_hats.append(est.f_hat)
            snrs.append(est.snr)
        entry = calibrate_entry(aci, 0.5, n, FS, seed)
        assert entry.n_signals == n
        assert entry.threshold == pytest.approx(np.var(f_hats, ddof=1), rel=1e-12)
        assert entry.mean_f_hat == pytest.approx(np.mean(f_hats), rel=1e-12)
        assert entry.mean_snr == pytest.approx(np.mean(snrs), rel=1e-12)

    def test_pulse_amplitude_follows_aci(self):
        # a base pulse with another amplitude is rescaled to the cell's aci
        base = calibrate_entry(2.0, 0.5, 3, FS, 8, pulse=PulseParams(aci=1.0))
        assert base == calibrate_entry(2.0, 0.5, 3, FS, 8)

    def test_needs_two_signals(self):
        with pytest.raises(ParameterError):
            calibrate_entry(2.0, 0.5, 1, FS, 0)

    def test_failed_estimates_abort_the_cell(self):
        # harmonic 3's window around 15 kHz crosses fs/2, so every estimate fails
        with pytest.raises(CalibrationError, match="3/3 estimates failed"):
            calibrate_entry(2.0, 0.5, 3, FS, 0, est_cfg=EstimatorConfig(f_theoretical=5000.0))


class TestBuildTable:
    def test_independent_of_worker_count(self, monkeypatch):
        tables = []
        for threads in ("1", "2"):
            monkeypatch.setenv("ENVDIAG_THREADS", threads)
            tables.append(build_table((1.5, 2.5), (0.5,), n=3, master_seed=5))
        assert tables[0] == tables[1]

    def test_grid_and_metadata(self):
        table = build_table((1.0, 2.0), (0.5, 1.0), n=2, master_seed=3)
        assert table.aci_values() == [1.0, 2.0]
        assert table.seg_lengths() == [0.5, 1.0]
        assert table.pulse_base == PulseParams(aci=1.0)
        assert table.config_digest == config_digest(SpectrumConfig(),
                                                    EstimatorConfig(f_theoretical=30.0))

    def test_empty_grid_rejected(self):
        with pytest.raises(ParameterError):
            build_table((), (0.5,), n=2)


class TestConfigDigest:
    def test_default_digest_is_stable(self):
        # value saved tables carry; it must not change while the settings do not
        digest = config_digest(SpectrumConfig(), EstimatorConfig(f_theoretical=30.0))
        assert digest == "2caa3ff4ce576fea"

    def test_ignores_band_and_theoretical_frequency(self):
        a = config_digest(SpectrumConfig(), EstimatorConfig(f_theoretical=30.0))
        b = config_digest(SpectrumConfig(bandpass=(1000.0, 4000.0)),
                          EstimatorConfig(f_theoretical=97.0))
        assert a == b

    def test_tracks_piece_length(self):
        a = config_digest(SpectrumConfig(), EstimatorConfig(f_theoretical=30.0))
        b = config_digest(SpectrumConfig(piece_len_s=0.25), EstimatorConfig(f_theoretical=30.0))
        assert a != b


class TestThresholdTableFile:
    @pytest.fixture(scope="class")
    def table(self):
        return build_table((1.5, 2.5), (0.5,), n=2, master_seed=9)

    def test_save_load_roundtrip(self, table, tmp_path):
        path = tmp_path / "table.json"
        table.save(path)
        assert ThresholdTable.load(path) == table

    @pytest.mark.parametrize("content", ['{"meta": {}}', "not json", '[1, 2]',
                                         '{"meta": {"config_digest": "x"}, "entries": [1]}'])
    def test_malformed_file_names_the_path(self, tmp_path, content):
        path = tmp_path / "bad.json"
        path.write_text(content, encoding="utf-8")
        with pytest.raises(ParameterError, match="bad.json"):
            ThresholdTable.load(path)

    def test_csv_matrix(self, table):
        lines = table.to_csv_matrix().splitlines()
        assert lines[0] == "aci,0.5s"
        assert [line.split(",")[0] for line in lines[1:]] == ["1.5", "2.5"]
