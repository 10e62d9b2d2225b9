"""Monte-Carlo calibration tests: seeding, failure policy, table files."""

import json

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
    ThresholdEntry,
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
        # column by column, the ACI rows in grid order
        assert [(e.aci, e.seg_len) for e in table.entries] == [(1.0, 0.5), (2.0, 0.5),
                                                                (1.0, 1.0), (2.0, 1.0)]
        lines = table.to_csv_matrix().splitlines()
        assert [line.split(",", 1)[0] for line in lines] == ["aci", "1", "2"]
        assert lines[0] == "aci,0.5s,1s"
        assert table.pulse_base == PulseParams(aci=1.0)
        assert table.config_digest == config_digest(SpectrumConfig(),
                                                    EstimatorConfig(f_theoretical=30.0))

    def test_empty_grid_rejected(self):
        with pytest.raises(ParameterError):
            build_table((), (0.5,), n=2)

    def test_negative_seed_rejected(self):
        with pytest.raises(ParameterError, match="unsigned 64-bit"):
            build_table((1.0,), (0.5,), n=2, master_seed=-1)


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


def hand_table():
    """A two-cell table of fixed numbers, built without simulation."""
    entries = tuple(
        ThresholdEntry(aci=aci, seg_len=0.5, threshold=thr, mean_f_hat=f, mean_snr=snr,
                       n_signals=1000, master_seed=12345678901234567890)
        for aci, thr, f, snr in ((1.5, 0.0125, 30.0625, 2.5), (2.5, 0.00390625, 30.03125, 4.75))
    )
    return ThresholdTable(fs=25000.0, f_simul=30.0, n_signals=1000, master_seed=3,
                          noise_std=1.0, pulse_base=PulseParams(aci=1.0),
                          config_digest="2caa3ff4ce576fea", entries=entries)


HAND_TABLE_TEXT = """\
{
  "entries": [
    {
      "aci": 1.5,
      "master_seed": 12345678901234567890,
      "mean_f_hat": 30.0625,
      "mean_snr": 2.5,
      "n_signals": 1000,
      "seg_len_s": 0.5,
      "threshold": 0.0125
    },
    {
      "aci": 2.5,
      "master_seed": 12345678901234567890,
      "mean_f_hat": 30.03125,
      "mean_snr": 4.75,
      "n_signals": 1000,
      "seg_len_s": 0.5,
      "threshold": 0.00390625
    }
  ],
  "meta": {
    "config_digest": "2caa3ff4ce576fea",
    "f_simul": 30.0,
    "fs": 25000.0,
    "n": 1000,
    "noise_std": 1.0,
    "pulse": {
      "bw_hi": 0.5,
      "bw_lo": 0.4,
      "bwr": -6.0,
      "fc": 2500.0
    },
    "seed": 3
  }
}
"""


def hand_table_with(record, key, value):
    """The hand table's JSON text with one value of ``meta`` or the first entry replaced."""
    data = hand_table().to_json_dict()
    (data["meta"] if record == "meta" else data["entries"][0])[key] = value
    return json.dumps(data)


class TestThresholdTableFile:
    @pytest.fixture(scope="class")
    def table(self):
        return build_table((1.5, 2.5), (0.5,), n=2, master_seed=9)

    def test_save_load_roundtrip(self, table, tmp_path):
        path = tmp_path / "table.json"
        table.save(path)
        assert ThresholdTable.load(path) == table

    def test_saved_text_is_pinned(self, tmp_path):
        path = tmp_path / "table.json"
        hand_table().save(path)
        assert path.read_text(encoding="utf-8") == HAND_TABLE_TEXT
        assert ThresholdTable.load(path) == hand_table()

    def test_table_without_noise_std_loads_with_one(self, tmp_path):
        data = json.loads(HAND_TABLE_TEXT)
        del data["meta"]["noise_std"]
        path = tmp_path / "old.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        table = ThresholdTable.load(path)
        assert table.noise_std == 1.0
        assert table == hand_table()

    @pytest.mark.parametrize("content", [
        '{"meta": {}}', "not json", '[1, 2]',
        '{"meta": {"config_digest": "x"}, "entries": [1]}',
        pytest.param(hand_table_with("entries", "threshold", None), id="threshold-null"),
        pytest.param(hand_table_with("entries", "mean_snr", "x"), id="mean_snr-text"),
        pytest.param(hand_table_with("entries", "aci", "2"), id="aci-text"),
        pytest.param(hand_table_with("entries", "n_signals", 2.5), id="n_signals-fraction"),
        pytest.param(hand_table_with("meta", "fs", "abc"), id="fs-text"),
        pytest.param(hand_table_with("entries", "threshold", -1.0), id="threshold-negative"),
        pytest.param(hand_table_with("entries", "n_signals", 1), id="n_signals-one"),
        pytest.param(hand_table_with("meta", "n", -5), id="meta-n-negative"),
        pytest.param(hand_table_with("meta", "fs", 0.0), id="fs-zero"),
        pytest.param(hand_table_with("meta", "f_simul", -30.0), id="f_simul-negative"),
        pytest.param(hand_table_with("entries", "mean_snr", -0.5), id="mean_snr-negative"),
    ])
    def test_malformed_file_names_the_path(self, tmp_path, content):
        path = tmp_path / "bad.json"
        path.write_text(content, encoding="utf-8")
        with pytest.raises(ParameterError, match="bad.json: not a valid threshold table"):
            ThresholdTable.load(path)

    def test_zero_threshold_and_snr_load(self):
        data = hand_table().to_json_dict()
        data["entries"][0].update(threshold=0.0, mean_snr=0.0, n_signals=2)
        entry = ThresholdTable.from_json_dict(data).entries[0]
        assert (entry.threshold, entry.mean_snr, entry.n_signals) == (0.0, 0.0, 2)

    def test_pulse_with_other_aci_round_trips(self):
        table = build_table((1.5,), (0.5,), n=2, master_seed=9, pulse=PulseParams(aci=2.0))
        assert table.pulse_base == PulseParams(aci=1.0)
        assert ThresholdTable.from_json_dict(table.to_json_dict()) == table

    def test_csv_matrix(self):
        assert hand_table().to_csv_matrix() == "aci,0.5s\n1.5,0.0125\n2.5,0.00390625\n"
