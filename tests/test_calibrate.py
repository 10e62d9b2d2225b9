"""Monte-Carlo calibration tests: seeding, failure policy, table files."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from envdiag import (
    CalibrationError,
    DistributionSpec,
    EstimatorConfig,
    ParameterError,
    PulseParams,
    SeedSpec,
    SpectrumConfig,
    TableMismatchError,
    ThresholdEntry,
    ThresholdTable,
    build_table,
    calibrate_entry,
    envelope_spectrum,
    estimate_fault_frequency,
    simulate_signal,
)
from envdiag import calibrate

FS = 25_000.0


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

    @pytest.mark.parametrize("seg_len,fs", [(1e300, FS), (0.5, 1e300)])
    def test_length_of_more_samples_than_an_array_holds_rejected(self, monkeypatch, seg_len, fs):
        monkeypatch.setenv("ENVDIAG_THREADS", "1")
        with pytest.raises(ParameterError, match="more samples than a float64 array holds"):
            calibrate_entry(2.0, seg_len, 2, fs, 0)

    def test_needs_two_signals(self):
        for n in (1, 2.5):
            with pytest.raises(ParameterError, match="at least 2 signals per cell"):
                calibrate_entry(2.0, 0.5, n, FS, 0)

    def test_whole_float_count_calibrates_as_its_int(self):
        assert calibrate_entry(2.0, 0.5, 3.0, FS, 8) == calibrate_entry(2.0, 0.5, 3, FS, 8)

    def test_failed_estimates_abort_the_cell(self):
        # a search window narrower than 3 bins fails every estimate
        with pytest.raises(CalibrationError, match="3/3 estimates failed"):
            calibrate_entry(2.0, 0.5, 3, FS, 0,
                            est_cfg=EstimatorConfig(f_theoretical=30.0, search_frac=0.001))

    def test_searched_around_the_frequency_it_simulates(self):
        # a centre of 34 Hz would find the 30 Hz harmonics at a window's edge
        entry = calibrate_entry(2.0, 0.5, 8, FS, 3, est_cfg=EstimatorConfig(f_theoretical=34.0))
        assert entry == calibrate_entry(2.0, 0.5, 8, FS, 3)
        assert entry.mean_f_hat == pytest.approx(30.0, abs=1.0)


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
        assert table.spectrum == SpectrumConfig()
        assert table.estimator == EstimatorConfig(f_theoretical=30.0)

    def test_cells_are_searched_around_the_centre_the_table_records(self):
        # the table records f_simul as its estimator's centre, whatever the caller's was
        tables = [build_table((2.0,), (0.5,), n=8, master_seed=3,
                              est_cfg=EstimatorConfig(f_theoretical=f)) for f in (34.0, 30.0)]
        assert tables[0].estimator.f_theoretical == 30.0
        assert tables[0] == tables[1]

    def test_table_keeps_the_analysis_settings_and_the_band(self, tmp_path):
        spec_cfg = SpectrumConfig(bandpass=(1000.0, 4000.0), zero_pad_factor=2,
                                  piece_len_s=0.25)
        est_cfg = EstimatorConfig(f_theoretical=30.0, n_harmonics=2, search_frac=0.2,
                                  peak_excl_bins=1)
        table = build_table((2.0,), (0.5,), n=2, master_seed=3, spec_cfg=spec_cfg,
                            est_cfg=est_cfg)
        assert table.spectrum == spec_cfg
        assert table.estimator == est_cfg
        assert ThresholdTable.from_json_dict(table.to_json_dict()) == table
        path = tmp_path / "banded.json"
        table.save(path)
        assert json.loads(path.read_text(encoding="utf-8"))["meta"]["analysis"]["bandpass"] \
            == [1000.0, 4000.0]
        assert ThresholdTable.load(path) == table

    def test_band_changes_the_table(self):
        # the band filters every simulated signal, so the SNRs and thresholds move
        plain = build_table((2.0,), (0.5,), n=3, master_seed=3)
        banded = build_table((2.0,), (0.5,), n=3, master_seed=3,
                             spec_cfg=SpectrumConfig(bandpass=(1500.0, 3500.0)))
        assert banded.entries[0].mean_snr != plain.entries[0].mean_snr
        assert banded.to_json_dict()["meta"] != plain.to_json_dict()["meta"]

    def test_empty_grid_rejected(self):
        with pytest.raises(ParameterError):
            build_table((), (0.5,), n=2)

    def test_negative_seed_rejected(self):
        with pytest.raises(ParameterError, match="unsigned 64-bit"):
            build_table((1.0,), (0.5,), n=2, master_seed=-1)

    @pytest.fixture
    def simulations(self, monkeypatch):
        """The simulate_signal calls build_table makes, run in this process."""
        monkeypatch.setenv("ENVDIAG_THREADS", "1")
        calls = []
        monkeypatch.setattr(calibrate, "simulate_signal",
                            lambda *a, **k: calls.append(a) or simulate_signal(*a, **k))
        return calls

    # each bad value comes last in its grid, after cells that would simulate
    @pytest.mark.parametrize("aci_grid,seg_grid", [
        ((2.0, 1.0, 2.0), (0.5,)),
        ((2.0,), (0.5, 1.0, 0.5)),
        # lengths within 1e-9 s are one column
        ((2.0,), (0.5, 0.5 + 1e-13)),
    ])
    def test_repeated_grid_value_rejected_before_any_simulation(self, simulations,
                                                                aci_grid, seg_grid):
        with pytest.raises(ParameterError, match=r"duplicate \(aci, seg_len\) keys"):
            build_table(aci_grid, seg_grid, n=2)
        assert simulations == []

    @pytest.mark.parametrize("aci", [0.0, -1.0, math.inf, math.nan])
    def test_aci_not_positive_and_finite_rejected_before_any_simulation(self, simulations,
                                                                        aci):
        with pytest.raises(ParameterError, match="ACI must be positive and finite"):
            build_table((2.0, aci), (0.5,), n=2)
        assert simulations == []

    @pytest.mark.parametrize("seg_len", [0.05, 0.0, -1.0, math.inf, math.nan])
    def test_length_under_two_cycles_rejected_before_any_simulation(self, simulations,
                                                                    seg_len):
        # a length that is no positive, finite number is refused as such first
        message = ("at least two cycles of 30 Hz" if 0 < seg_len < math.inf
                   else "segment length must be positive and finite")
        with pytest.raises(ParameterError, match=message):
            build_table((2.0,), (0.5, seg_len), n=2)
        assert simulations == []

    @pytest.mark.parametrize("seg_len,fs", [(1e300, FS), (0.5, 1e300)])
    def test_length_of_more_samples_than_an_array_holds_rejected_before_any_simulation(
            self, simulations, seg_len, fs):
        with pytest.raises(ParameterError, match="more samples than a float64 array holds"):
            build_table((2.0,), (1.0, seg_len), n=2, fs=fs)
        assert simulations == []

    def test_zero_padded_piece_past_an_array_rejected_before_any_simulation(self,
                                                                             simulations):
        with pytest.raises(ParameterError, match="zero padded by zero_pad_factor is more samples"):
            build_table((2.0,), (0.5, 1.0), n=2,
                        spec_cfg=SpectrumConfig(zero_pad_factor=10**400))
        assert simulations == []

    @pytest.mark.parametrize("band,fs", [((1500.0, 20_000.0), FS), ((1500.0, 3500.0), 5000.0),
                                         ((12_500.0, 12_501.0), FS)])
    def test_band_above_nyquist_rejected_before_any_simulation(self, simulations, band, fs):
        message = (rf"^band \[{band[0]:g}, {band[1]:g}\] Hz must satisfy "
                   r"0 <= f_lo < f_hi <= fs/2$")
        with pytest.raises(ParameterError, match=message):
            build_table((2.0,), (0.5, 1.0), n=2, fs=fs, spec_cfg=SpectrumConfig(bandpass=band))
        assert simulations == []

    @pytest.mark.parametrize("piece_len_s", [0.0002, 0.00028])
    def test_piece_under_eight_samples_rejected_before_any_simulation(self, simulations,
                                                                      piece_len_s):
        # 5 and 7 samples at 25 kHz; the PSD needs 8
        with pytest.raises(ParameterError, match="fewer than the 8 the PSD needs"):
            build_table((2.0,), (0.5,), n=2, spec_cfg=SpectrumConfig(piece_len_s=piece_len_s))
        assert simulations == []

    def test_two_cycles_is_the_shortest_length(self, simulations):
        # 2/30 s is the least span simulate_signal accepts at 30 Hz
        table = build_table((2.0,), (2.0 / 30.0,), n=2)
        assert len(simulations) == 2 and table.entries[0].n_signals == 2


def hand_table():
    """A two-cell table of fixed numbers, built without simulation."""
    entries = tuple(
        ThresholdEntry(aci=aci, seg_len=0.5, threshold=thr, mean_f_hat=f, mean_snr=snr,
                       n_signals=1000, master_seed=12345678901234567890)
        for aci, thr, f, snr in ((1.5, 0.0125, 30.0625, 2.5), (2.5, 0.00390625, 30.03125, 4.75))
    )
    return ThresholdTable(fs=25000.0, n_signals=1000, master_seed=3,
                          noise_std=1.0, pulse_base=PulseParams(aci=1.0),
                          spectrum=SpectrumConfig(),
                          estimator=EstimatorConfig(f_theoretical=30.0), entries=entries)


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
    "analysis": {
      "bandpass": null,
      "n_harmonics": 3,
      "peak_excl_bins": 2,
      "piece_len_s": 0.5,
      "search_frac": 0.18,
      "window": "hann",
      "zero_pad_factor": 4
    },
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
    "schema_version": 2,
    "seed": 3
  }
}
"""


def table_records(data):
    """The records of a saved table: itself, its ``meta``, the ``analysis`` and
    ``pulse`` in that, and its first entry."""
    return {"table": data, "meta": data["meta"], "analysis": data["meta"]["analysis"],
            "pulse": data["meta"]["pulse"], "entries": data["entries"][0]}


def hand_table_with(record, key, value):
    """The hand table's JSON text with one value of ``meta``, its ``analysis`` or the
    first entry replaced."""
    data = hand_table().to_json_dict()
    table_records(data)[record][key] = value
    return json.dumps(data)


def hand_table_without(record, key):
    """The hand table's JSON text with one key of a ``table_records`` record removed."""
    data = hand_table().to_json_dict()
    del table_records(data)[record][key]
    return json.dumps(data)


# every key a saved table holds, as (record, key)
WRITTEN_KEYS = [(record, key)
                for record, keys in table_records(hand_table().to_json_dict()).items()
                for key in keys]


def legacy_table_json(digest):
    """The hand table as a table from before schema_version 2 saved it."""
    data = hand_table().to_json_dict()
    del data["meta"]["schema_version"], data["meta"]["analysis"]
    data["meta"]["config_digest"] = digest
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

    @pytest.mark.parametrize("content", [
        '{"meta": {}}', "not json", '[1, 2]',
        '{"meta": {"config_digest": "x"}, "entries": [1]}', '{"meta": [1], "entries": []}',
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
        pytest.param(hand_table_with("entries", "aci", -1.0), id="aci-negative"),
        pytest.param(hand_table_with("entries", "seg_len_s", -0.5), id="seg_len-negative"),
        pytest.param(hand_table_with("entries", "mean_f_hat", -30.0), id="mean_f_hat-negative"),
        pytest.param(hand_table_with("entries", "mean_f_hat", 0), id="mean_f_hat-zero"),
        pytest.param(hand_table_with("meta", "noise_std", -1.0), id="noise_std-negative"),
        pytest.param(hand_table_with("analysis", "window", "hanning"), id="window-unknown"),
        # thresholds calibrated under another taper do not apply to the Hann one
        pytest.param(hand_table_with("analysis", "window", "hamming"), id="window-hamming"),
        pytest.param(hand_table_with("analysis", "window", "blackman"), id="window-blackman"),
        pytest.param(hand_table_with("analysis", "window", "blackmanharris"),
                     id="window-blackmanharris"),
        pytest.param(hand_table_with("analysis", "window", "boxcar"), id="window-boxcar"),
        pytest.param(hand_table_with("analysis", "window", "flattop"), id="window-flattop"),
        pytest.param(hand_table_with("analysis", "window", "nuttall"), id="window-nuttall"),
        pytest.param(hand_table_with("analysis", "window", "Hann"), id="window-capitalised"),
        pytest.param(hand_table_with("analysis", "bandpass", "1500,3500"), id="bandpass-text"),
        pytest.param(hand_table_with("analysis", "bandpass", [1500.0]), id="bandpass-one"),
        pytest.param(hand_table_with("analysis", "bandpass", [3500.0, 1500.0]),
                     id="bandpass-reversed"),
        pytest.param(hand_table_with("analysis", "zero_pad_factor", 0), id="zero_pad-zero"),
        pytest.param(hand_table_with("analysis", "zero_pad_factor", 4.0), id="zero_pad-float"),
        pytest.param(hand_table_with("analysis", "piece_len_s", "0.5"), id="piece_len-text"),
        pytest.param(hand_table_with("analysis", "n_harmonics", 0), id="n_harmonics-zero"),
        pytest.param(hand_table_with("analysis", "search_frac", 0.3), id="search_frac-overlap"),
        pytest.param(hand_table_with("analysis", "peak_excl_bins", -1), id="peak_excl-negative"),
        pytest.param(hand_table_with("meta", "analysis", {}), id="analysis-empty"),
        # seeds follow SeedSpec's rule: a whole number in [0, 2**64)
        pytest.param(hand_table_with("meta", "seed", -1), id="meta-seed-negative"),
        pytest.param(hand_table_with("meta", "seed", 2**64), id="meta-seed-past-64-bits"),
        pytest.param(hand_table_with("entries", "master_seed", -7), id="master_seed-negative"),
        pytest.param(hand_table_with("entries", "master_seed", 2**70),
                     id="master_seed-past-64-bits"),
        # values of the wrong kind, which the records refuse themselves
        pytest.param(hand_table_with("entries", "threshold", math.inf), id="threshold-inf"),
        pytest.param(hand_table_with("entries", "mean_snr", math.nan), id="mean_snr-nan"),
        pytest.param(hand_table_with("pulse", "bwr", -math.inf), id="bwr-minus-inf"),
        pytest.param(hand_table_with("pulse", "bw_hi", True), id="bw_hi-bool"),
        # thresholds calibrated on pulses of another bandwidth law do not apply
        pytest.param(hand_table_with("pulse", "bw_lo", 0.3), id="bw_lo-other"),
        pytest.param(hand_table_with("pulse", "bw_hi", 0.6), id="bw_hi-other"),
        pytest.param(hand_table_with("pulse", "bwr", -3.0), id="bwr-other"),
        pytest.param(hand_table_with("meta", "noise_std", True), id="noise_std-bool"),
        pytest.param(hand_table_with("analysis", "search_frac", "0.1"), id="search_frac-text"),
        pytest.param(hand_table_with("analysis", "window", 1), id="window-number"),
        pytest.param(hand_table_with("analysis", "bandpass", [True, 3500.0]), id="bandpass-bool"),
        pytest.param(hand_table_with("analysis", "bandpass", [1500.0, math.inf]),
                     id="bandpass-inf"),
        pytest.param(hand_table_with("analysis", "n_harmonics", True), id="n_harmonics-bool"),
        pytest.param(hand_table_with("meta", "schema_version", 3), id="schema-3"),
        pytest.param(hand_table_with("meta", "schema_version", "2"), id="schema-text"),
        pytest.param(legacy_table_json("0123456789abcdef"), id="legacy-other-digest"),
        # a table loads only as it is saved: every key it writes is required
        *(pytest.param(hand_table_without(record, key), id=f"{key}-missing")
          for record, key in WRITTEN_KEYS),
        # the first entry moved onto the second's ACI, 1e-13 s away: one cell
        pytest.param(hand_table_with("entries", "seg_len_s", 0.5 + 1e-13)
                     .replace('"aci": 1.5', '"aci": 2.5'), id="cells-within-1e-9"),
    ])
    def test_malformed_file_names_the_path(self, tmp_path, content):
        path = tmp_path / "bad.json"
        path.write_text(content, encoding="utf-8")
        with pytest.raises(ParameterError, match="bad.json: not a valid threshold table"):
            ThresholdTable.load(path)

    def test_legacy_table_with_the_default_digest_is_refused(self):
        legacy = json.loads(legacy_table_json("2caa3ff4ce576fea"))
        with pytest.raises(ParameterError, match="schema_version None is not 2; recalibrate"):
            ThresholdTable.from_json_dict(legacy)

    @pytest.mark.parametrize("content,message", [
        pytest.param(legacy_table_json("0123456789abcdef"),
                     "schema_version None is not 2; recalibrate", id="legacy-other-digest"),
        pytest.param(hand_table_with("meta", "schema_version", 1),
                     "schema_version 1 is not 2; recalibrate", id="schema-1"),
    ])
    def test_other_legacy_or_version_asks_for_a_recalibration(self, tmp_path, content,
                                                              message):
        path = tmp_path / "old.json"
        path.write_text(content, encoding="utf-8")
        with pytest.raises(ParameterError, match=f"old.json: .*{message}"):
            ThresholdTable.load(path)

    def test_zero_threshold_and_snr_load(self):
        data = hand_table().to_json_dict()
        data["entries"][0].update(threshold=0.0, mean_snr=0.0, n_signals=2)
        entry = ThresholdTable.from_json_dict(data).entries[0]
        assert (entry.threshold, entry.mean_snr, entry.n_signals) == (0.0, 0.0, 2)

    @pytest.mark.parametrize("field,value", [
        ("threshold", -1.0), ("n_signals", 1), ("mean_snr", math.nan),
    ])
    def test_entry_out_of_range_is_refused_on_construction(self, field, value):
        # an entry built in code is held to the rules of a loaded one
        with pytest.raises(ParameterError, match="a cell needs threshold >= 0"):
            replace(hand_table().entries[0], **{field: value})

    @pytest.mark.parametrize("field,value,message", [
        ("aci", -1.0, "a cell's aci must be positive and finite, got -1"),
        ("seg_len", 0.0, "a cell's seg_len must be positive and finite, got 0 s"),
        ("mean_f_hat", math.nan, "a cell's mean_f_hat must be positive and finite, got nan Hz"),
    ], ids=["aci", "seg_len", "mean_f_hat"])
    def test_entry_not_positive_and_finite_is_refused_on_construction(self, field, value,
                                                                       message):
        with pytest.raises(ParameterError, match=f"^{message}$"):
            replace(hand_table().entries[0], **{field: value})

    @pytest.mark.parametrize("noise_std", [-1.0, math.nan, math.inf, "1"])
    def test_table_noise_std_is_checked_as_simulate_signal_checks_it(self, noise_std):
        with pytest.raises(ParameterError, match="noise_std must be non-negative and finite"):
            replace(hand_table(), noise_std=noise_std)
        with pytest.raises(ParameterError, match="noise_std must be non-negative and finite"):
            simulate_signal(0.5, FS, DistributionSpec.constant(30.0), PulseParams(aci=2.0), 0,
                            noise_std)

    def test_pulse_with_other_aci_round_trips(self):
        table = build_table((1.5,), (0.5,), n=2, master_seed=9, pulse=PulseParams(aci=2.0))
        assert table.pulse_base == PulseParams(aci=1.0)
        assert ThresholdTable.from_json_dict(table.to_json_dict()) == table

    def test_csv_matrix(self):
        assert hand_table().to_csv_matrix() == "aci,0.5s\n1.5,0.0125\n2.5,0.00390625\n"

    def test_csv_matrix_leaves_a_cell_the_table_lacks_empty(self):
        # a 2 x 2 grid without its (2.5, 1 s) cell
        table = hand_table()
        table = replace(table, entries=table.entries + (replace(table.entries[0], seg_len=1.0),))
        assert table.to_csv_matrix() == "aci,0.5s,1s\n1.5,0.0125,0.0125\n2.5,0.00390625,\n"

    def test_csv_matrix_writes_lengths_within_1e_9_s_as_one_column(self):
        # as entries_at reads them (same_length); the column is headed by the smaller
        e = hand_table().entries
        for moved in (0, 1):
            table = replace(hand_table(), entries=tuple(
                replace(c, seg_len=0.5 + 1e-10) if i == moved else c for i, c in enumerate(e)))
            assert len(table.entries_at(0.5)) == 2
            assert table.to_csv_matrix() == "aci,0.5s\n1.5,0.0125\n2.5,0.00390625\n"

    @pytest.mark.parametrize("lengths,want", [
        ((0.5, 0.5 - 1e-10), "aci,0.5s\n1.5,0.0125\n2.5,0.00390625\n"),
        ((0.5, 0.5 + 1e-10, 1.0 - 1e-10, 1.0),
         "aci,0.5s,1s\n1.5,0.0125,0.0125\n2.5,0.00390625,0.00390625\n"),
        # 2e-9 s apart are two lengths, so two columns
        ((0.5, 0.5 + 2e-9), "aci,0.5s,0.5s\n1.5,0.0125,\n2.5,,0.00390625\n"),
    ], ids=["shorter-second", "two-columns-each-split", "two-columns-2e-9-apart"])
    def test_csv_matrix_columns_are_the_lengths_entries_at_reads(self, lengths, want):
        e = hand_table().entries
        table = replace(hand_table(), entries=tuple(
            replace(e[i % 2], seg_len=seg_len) for i, seg_len in enumerate(lengths)))
        assert table.to_csv_matrix() == want
        heads = {min(t for t in lengths if calibrate.same_length(s, t)) for s in lengths}
        assert sum(len(table.entries_at(head)) for head in heads) == len(lengths)

    def test_search_centre_is_the_estimator_s_and_round_trips(self, tmp_path):
        table = replace(hand_table(), estimator=EstimatorConfig(f_theoretical=34.0))
        assert table.f_simul == 34.0
        path = tmp_path / "table.json"
        table.save(path)
        assert json.loads(path.read_text(encoding="utf-8"))["meta"]["f_simul"] == 34.0
        assert ThresholdTable.load(path) == table

    def test_cells_at_a_length_or_a_mismatch(self):
        table = hand_table()
        assert sorted(e.aci for e in table.entries_at(0.5 + 1e-10)) == [1.5, 2.5]
        with pytest.raises(TableMismatchError,
                           match=r"^threshold table has no entries for seg_len=1 s$"):
            table.entries_at(1.0)
