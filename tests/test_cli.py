"""Command-line round trip and the documented exit codes."""

import json
import shutil
import tracemalloc

import numpy as np
import pytest
from click.testing import CliRunner

from envdiag import (
    DistributionSpec,
    PulseParams,
    SeedSpec,
    Signal,
    SpectrumConfig,
    envelope_spectrum,
    simulate_signal,
)
from envdiag.faultfreq import iter_segments
from envdiag.sigio import read_signal, write_signal, write_spectrum_csv
from envdiag.cli import EXIT_ANALYSIS, EXIT_USAGE_IO, main
from envdiag.stats import KDE_GRID_POINTS


def invoke(*args):
    return CliRunner().invoke(main, [str(a) for a in args])


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A 3 s constant-frequency recording and a one-cell threshold table."""
    root = tmp_path_factory.mktemp("cli")
    rec, table = root / "rec.f64", root / "table.json"
    result = invoke("simulate", "--dist", "constant:30", "--aci", 2, "--seg-len", 0.5,
                    "--n-segments", 6, "--seed", 1, "-o", rec)
    assert result.exit_code == 0, result.output
    result = invoke("calibrate", "--aci-grid", 2, "--seg-grid", 0.5, "--n", 3, "--seed", 2,
                    "-o", table)
    assert result.exit_code == 0, result.output
    return root, rec, table


def assert_usage_error(result):
    assert result.exit_code == EXIT_USAGE_IO, result.output
    # a clean exit, not an escaped exception
    assert isinstance(result.exception, SystemExit)


def assert_analysis_error(result):
    assert result.exit_code == EXIT_ANALYSIS, result.output
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output


def test_simulate_calibrate_classify_round_trip(files):
    root, rec, table = files
    report, text = root / "report.json", root / "report.txt"
    result = invoke("classify", "-i", rec, "--table", table, "--f-theoretical", 30,
                    "--seg-lens", 0.5, "-o", report, "--text-out", text)
    assert result.exit_code == 0, result.output
    (rep,) = json.loads(report.read_text(encoding="utf-8"))
    assert rep["n_segments"] == 6
    assert rep["provenance"]["f_theoretical"] == 30.0
    assert text.read_text(encoding="utf-8").splitlines()[1].startswith("0.5 s |")


@pytest.mark.parametrize("args", [
    "spectrum --piece-len 0 -i {rec}",
    "spectrum --piece-len inf -i {rec}",
    "spectrum --fs inf -i {rec}",
    "classify --seg-lens inf -i {rec} --table {table} --f-theoretical 30",
    "kde --seg-len inf -i {rec} --f-theoretical 30",
    "kde --f-theoretical inf -i {rec} --seg-len 0.5",
    "calibrate --seg-grid inf --aci-grid 2 --n 2",
    "calibrate --seed -1 --aci-grid 2 --seg-grid 0.5 --n 2",
    "calibrate --fs inf --aci-grid 2 --seg-grid 0.5 --n 2",
    "simulate --fs inf --dist constant:30 --aci 2 --seg-len 0.5",
    "simulate --dist constant:inf --aci 2 --seg-len 0.5",
])
def test_out_of_range_value_is_a_usage_error(files, args):
    root, rec, table = files
    argv = args.format(rec=rec, table=table).split()
    assert_usage_error(invoke(*argv, "-o", root / "out"))


def test_removed_welch_split_option_is_a_usage_error(files):
    root, _, _ = files
    assert_usage_error(invoke("calibrate", "--aci-grid", 2, "--seg-grid", 0.5, "--n", 2,
                              "--welch-segments", 2, "-o", root / "t.json"))


def test_unknown_window_is_a_usage_error(files):
    root, rec, _ = files
    result = invoke("spectrum", "-i", rec, "--window", "nosuch", "-o", root / "s.csv")
    assert_usage_error(result)
    assert "nosuch" in result.output


@pytest.mark.parametrize("window", ["bartlett", "hanning"])
def test_scipy_window_outside_the_seven_is_a_usage_error(files, window):
    root, rec, _ = files
    result = invoke("spectrum", "-i", rec, "--window", window, "-o", root / "s.csv")
    assert_usage_error(result)
    assert "blackmanharris" in result.output


def test_help_lists_the_windows():
    result = invoke("spectrum", "--help")
    assert result.exit_code == 0
    assert "boxcar|hann|hamming|blackman|nuttall|blackmanharris|flattop" in result.output


ONE_ENTRY_TABLE = (
    '{"meta": {"config_digest": "2caa3ff4ce576fea", "f_simul": 30.0, "fs": 25000.0, "n": 3,'
    ' "seed": 2, "pulse": {"bw_hi": 0.5, "bw_lo": 0.4, "bwr": -6.0, "fc": 2500.0}},'
    ' "entries": [{"aci": 2.0, "master_seed": 1, "mean_f_hat": 30.0, "mean_snr": 3.0,'
    ' "n_signals": 3, "seg_len_s": 0.5, "threshold": THRESHOLD}]}')


@pytest.mark.parametrize("content", [
    '{"meta": {}}', "not json",
    pytest.param(ONE_ENTRY_TABLE.replace("THRESHOLD", '"0.01"'), id="threshold-text"),
    pytest.param(ONE_ENTRY_TABLE.replace("THRESHOLD", "-1.0"), id="threshold-negative"),
])
def test_malformed_table_is_a_usage_error(files, content):
    root, rec, _ = files
    bad = root / "bad_table.json"
    bad.write_text(content, encoding="utf-8")
    result = invoke("classify", "-i", rec, "--table", bad, "--f-theoretical", 30,
                    "--seg-lens", 0.5, "-o", root / "r.json")
    assert_usage_error(result)
    assert "bad_table.json" in result.output
    assert "not a valid threshold table" in result.output


def csv_rows(path):
    header, *lines = path.read_text(encoding="ascii").splitlines()
    return header, [line.split(",") for line in lines]


def test_classify_emits_estimates_kde_and_spectra(files):
    root, rec, table = files
    report, est, kde, spectra = (root / "emit.json", root / "est.csv", root / "kde.csv",
                                 root / "spectra")
    result = invoke("classify", "-i", rec, "--table", table, "--f-theoretical", 30,
                    "--seg-lens", 0.5, "-o", report, "--emit-estimates", est,
                    "--emit-kde", kde, "--emit-spectra", spectra)
    assert result.exit_code == 0, result.output
    first = json.loads(report.read_text(encoding="utf-8"))[0]
    header, rows = csv_rows(est)
    assert header.startswith("segment_index,t_start_s,f_hat_hz,snr")
    # the emitted estimates are the first length's, written to 10 digits
    assert [row[2] for row in rows] == [f"{f:.10g}" for f in first["estimates_hz"]]
    header, rows = csv_rows(kde)
    assert header == "grid,density,uniform_pdf,normal_pdf"
    assert len(rows) == KDE_GRID_POINTS
    names = sorted(p.name for p in spectra.iterdir())
    assert names == [f"segment_{i:04d}.csv" for i in range(first["n_segments"])]
    header, rows = csv_rows(spectra / names[0])
    assert header == "freq_hz,amplitude"
    assert rows[0][0] == "0" and rows[1][0] == "0.5"


def test_commands_run_with_scipy_unimportable(tmp_path, run_python):
    # a None entry in sys.modules makes any import of scipy or of a submodule
    # raise ImportError, so a lazy import anywhere on these paths would fail
    code = """
import sys
sys.modules["scipy"] = None
from envdiag.cli import main
d = sys.argv[1]
commands = [
    ["simulate", "--dist", "uniform:28,32", "--aci", "2", "--seg-len", "0.5",
     "--n-segments", "12", "--seed", "1", "-o", d + "/rec.f64"],
    ["calibrate", "--aci-grid", "2", "--seg-grid", "0.5", "--n", "4", "--seed", "2",
     "-o", d + "/table.json", "--csv", d + "/table.csv"],
    ["classify", "-i", d + "/rec.f64", "--table", d + "/table.json", "--f-theoretical", "30",
     "--seg-lens", "0.5", "-o", d + "/report.json", "--emit-estimates", d + "/est.csv",
     "--emit-kde", d + "/kde.csv", "--emit-spectra", d + "/spectra"],
]
codes = []
for args in commands:
    try:
        main(args)
    except SystemExit as exc:
        codes.append(exc.code)
print(codes, sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    out = run_python(code, str(tmp_path))
    assert out.splitlines()[-1] == "[0, 0, 0] ['scipy']"
    (rep,) = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    assert rep["n_segments"] == 12
    assert len(list((tmp_path / "spectra").iterdir())) == 12
    # the spread passes the gate, so the chi-squared quantile was computed
    assert rep["test"]["dof"] == 11
    assert rep["test"]["critical"] == pytest.approx(19.67513757268249, rel=1e-12)


def classify_reports(rec, table, out, *extra):
    result = invoke("classify", "-i", rec, "--table", table, "--f-theoretical", 30,
                    "--seg-lens", 0.5, "-o", out, *extra)
    assert result.exit_code == 0, result.output
    return json.loads(out.read_text(encoding="utf-8"))


def test_loud_recording_classifies_like_the_quiet_one(files):
    # PSD peaks near 1e240: squaring them as they are would overflow
    root, rec, table = files
    signal, _ = read_signal(rec)
    loud = root / "loud.f64"
    write_signal(loud, Signal(2.0**400 * signal.samples, signal.fs))
    (quiet_rep,) = classify_reports(rec, table, root / "quiet.json")
    (loud_rep,) = classify_reports(loud, table, root / "loud.json")
    assert loud_rep["estimates_hz"] == quiet_rep["estimates_hz"]
    assert loud_rep["verdict"] == quiet_rep["verdict"]


def gap_recording(path, gap_segment):
    """5 s at 30 Hz with 0.5 s of zeros put in as segment ``gap_segment``.

    That segment's SNR is undefined, so 1 of the 11 segment estimates fails.
    """
    result = invoke("simulate", "--dist", "constant:30", "--aci", 2, "--seg-len", 0.5,
                    "--n-segments", 10, "--seed", 4, "-o", path)
    assert result.exit_code == 0, result.output
    signal, _ = read_signal(path)
    cut = gap_segment * 12_500
    samples = np.concatenate([signal.samples[:cut], np.zeros(12_500), signal.samples[cut:]])
    write_signal(path, Signal(samples, signal.fs))
    return path


@pytest.mark.parametrize("gap_segment", [10, 5])
def test_emitted_estimates_skip_the_segments_classify_skips(tmp_path, files, gap_segment):
    _, _, table = files
    rec = gap_recording(tmp_path / "rec.f64", gap_segment)
    est, spectra = tmp_path / "est.csv", tmp_path / "spectra"
    (rep,) = classify_reports(rec, table, tmp_path / "rep.json", "--emit-estimates", est,
                              "--emit-spectra", spectra)
    assert rep["warnings"][0] == "1/11 segment estimates failed and were skipped"
    _, rows = csv_rows(est)
    assert [row[2] for row in rows] == [f"{f:.10g}" for f in rep["estimates_hz"]]
    assert [int(row[0]) for row in rows] == [i for i in range(11) if i != gap_segment]
    # every segment gets its full spectrum, the skipped one included
    names = sorted(p.name for p in spectra.iterdir())
    assert names == [f"segment_{i:04d}.csv" for i in range(11)]
    signal, _ = read_signal(rec)
    for name, seg in zip(names, iter_segments(signal, 0.5)):
        want = tmp_path / "want.csv"
        write_spectrum_csv(want, envelope_spectrum(seg, SpectrumConfig()))
        assert (spectra / name).read_bytes() == want.read_bytes(), name


def test_kde_skips_a_failed_segment_as_classify_does(tmp_path, files):
    _, _, table = files
    rec = gap_recording(tmp_path / "rec.f64", 5)
    emitted, out = tmp_path / "emitted.csv", tmp_path / "kde.csv"
    classify_reports(rec, table, tmp_path / "rep.json", "--emit-kde", emitted)
    result = invoke("kde", "-i", rec, "--f-theoretical", 30, "--seg-len", 0.5, "-o", out)
    assert result.exit_code == 0, result.output
    assert "warning: 1/11 segment estimates failed and were skipped" in result.stderr
    assert "KDE of 10 estimates" in result.output
    assert out.read_bytes() == emitted.read_bytes()


def test_spectrum_writes_the_whole_recording(files):
    root, rec, _ = files
    out = root / "spectrum.csv"
    result = invoke("spectrum", "-i", rec, "-o", out)
    assert result.exit_code == 0, result.output
    header, rows = csv_rows(out)
    assert header == "freq_hz,amplitude"
    # 0.5 s pieces zero-padded 4x: 0.5 Hz bins from 0 to fs/2 = 12.5 kHz
    assert len(rows) == 25_001
    assert rows[1][0] == "0.5" and rows[-1][0] == "12500"


def test_kde_writes_the_curve_of_the_estimates(files):
    root, rec, _ = files
    out = root / "kde_cmd.csv"
    result = invoke("kde", "-i", rec, "--f-theoretical", 30, "--seg-len", 0.5, "-o", out)
    assert result.exit_code == 0, result.output
    header, rows = csv_rows(out)
    assert header == "grid,density,uniform_pdf,normal_pdf"
    assert len(rows) == KDE_GRID_POINTS
    assert all(len(row) == 4 for row in rows)
    assert "KDE of 6 estimates" in result.output


def test_sidecar_with_a_text_sample_rate_is_a_usage_error(files):
    root, rec, _ = files
    bad = root / "bad_sidecar.f64"
    shutil.copyfile(rec, bad)
    (root / "bad_sidecar.f64.json").write_text('{"fs": "25000"}', encoding="utf-8")
    result = invoke("spectrum", "-i", bad, "--fs", 25000, "-o", root / "s.csv")
    assert_usage_error(result)
    assert "bad_sidecar.f64.json" in result.output


def test_kde_of_a_point_mass_is_an_analysis_error(tmp_path):
    # a noiseless constant recording gives the same estimate in every segment
    rec = tmp_path / "rec.f64"
    result = invoke("simulate", "--dist", "constant:30", "--aci", 2, "--seg-len", 0.5,
                    "--n-segments", 4, "--noise-std", 0, "-o", rec)
    assert result.exit_code == 0, result.output
    result = invoke("kde", "-i", rec, "--f-theoretical", 30, "--seg-len", 0.5,
                    "-o", tmp_path / "kde.csv")
    assert_analysis_error(result)
    assert "point mass" in result.output


def test_classify_with_too_many_failed_segments_is_an_analysis_error(tmp_path, files):
    # 1 s of zeros after the 3 s recording: 2 of 8 segments fail, over the 20 % allowed
    _, rec, table = files
    signal, _ = read_signal(rec)
    padded = tmp_path / "padded.f64"
    write_signal(padded, Signal(np.concatenate([signal.samples, np.zeros(25_000)]), signal.fs))
    result = invoke("classify", "-i", padded, "--table", table, "--f-theoretical", 30,
                    "--seg-lens", 0.5, "-o", tmp_path / "r.json")
    assert_analysis_error(result)
    assert "2/8 segment estimates failed" in result.output


def test_kde_with_too_many_failed_segments_is_an_analysis_error(tmp_path, files):
    _, rec, _ = files
    signal, _ = read_signal(rec)
    padded = tmp_path / "padded.f64"
    write_signal(padded, Signal(np.concatenate([signal.samples, np.zeros(25_000)]), signal.fs))
    result = invoke("kde", "-i", padded, "--f-theoretical", 30, "--seg-len", 0.5,
                    "-o", tmp_path / "kde.csv")
    assert_analysis_error(result)
    assert "2/8 segment estimates failed" in result.output


def test_kde_of_one_segment_is_an_analysis_error(tmp_path):
    rec = tmp_path / "rec.f64"
    result = invoke("simulate", "--dist", "constant:30", "--aci", 2, "--seg-len", 0.5,
                    "-o", rec)
    assert result.exit_code == 0, result.output
    result = invoke("kde", "-i", rec, "--f-theoretical", 30, "--seg-len", 0.5,
                    "-o", tmp_path / "kde.csv")
    assert_analysis_error(result)
    assert "signal of 0.5 s yields fewer than 2 segments of 0.5 s" in result.output


def test_simulate_shorter_than_a_fault_cycle_is_an_analysis_error(tmp_path):
    result = invoke("simulate", "--dist", "constant:30", "--aci", 2, "--seg-len", 0.05,
                    "-o", tmp_path / "rec.f64")
    assert_analysis_error(result)
    assert "holds less than one full cycle" in result.output


def test_calibrate_shorter_than_a_fault_cycle_is_an_analysis_error(tmp_path):
    result = invoke("calibrate", "--aci-grid", 2, "--seg-grid", 0.05, "--n", 2,
                    "-o", tmp_path / "t.json")
    assert_analysis_error(result)
    assert "holds less than one full cycle" in result.output


def simulate_args(out, *extra):
    return ("simulate", "--dist", "normal:30,0.33", "--aci", 2, "--seg-len", 1, "--seed", 3,
            "-o", out, *extra)


def traced_peak(*args):
    tracemalloc.start()
    try:
        result = invoke(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.exit_code == 0, result.output
    return peak


def test_simulate_memory_does_not_grow_with_the_segments(tmp_path):
    segment_bytes = 25_000 * 8
    invoke(*simulate_args(tmp_path / "warm.f64"))  # first-call imports and caches
    peak_10 = traced_peak(*simulate_args(tmp_path / "r10.f64", "--n-segments", 10))
    peak_40 = traced_peak(*simulate_args(tmp_path / "r40.f64", "--n-segments", 40))
    # the recording is 8 MB; holding it, or a copy, would be far above this
    assert peak_40 < 2_000_000
    assert peak_40 - peak_10 < segment_bytes


@pytest.mark.parametrize("fmt,name", [("csv", "rec.csv"), ("raw-f64le", "rec.f64")])
def test_simulate_writes_the_concatenated_segments(tmp_path, fmt, name):
    out, ref = tmp_path / name, tmp_path / ("ref-" + name)
    result = invoke("simulate", "--dist", "uniform:28,32", "--aci", 2.5, "--seg-len", 0.5,
                    "--n-segments", 3, "--seed", 5, "--format", fmt, "-o", out)
    assert result.exit_code == 0, result.output
    assert result.output == f"wrote 3 segment(s), 1.5 s at 25000 Hz -> {out}\n"
    dist, pulse, seeds = DistributionSpec.uniform(28.0, 32.0), PulseParams(aci=2.5), SeedSpec(5)
    segments = [simulate_signal(0.5, 25_000.0, dist, pulse, seeds.sequence(i))
                for i in range(3)]
    sidecar = {"seed": 5, "dist": dist.spec_string(),
               "pulse": {"aci": 2.5, "fc": 2500.0, "bw_lo": pulse.bw_lo, "bw_hi": pulse.bw_hi,
                         "bwr": pulse.bwr},
               "noise_std": 1.0, "seg_len_s": 0.5, "n_segments": 3,
               "f_true_hz": [f for _, f in segments]}
    write_signal(ref, Signal(np.concatenate([s.samples for s, _ in segments]), 25_000.0), fmt,
                 sidecar)
    assert out.read_bytes() == ref.read_bytes()
    assert (tmp_path / (name + ".json")).read_bytes() == \
        (tmp_path / ("ref-" + name + ".json")).read_bytes()


def test_simulate_failing_on_a_later_segment_leaves_no_output(tmp_path):
    # with seed 1, segments 0-2 draw 6.1, 4.6 and 5.6 Hz; segment 3 draws
    # 2.1 Hz, less than one full cycle in 0.5 s
    args = ("simulate", "--dist", "uniform:2,10", "--aci", 2, "--seg-len", 0.5,
            "--n-segments", 6, "--seed", 1, "-o")
    result = invoke(*args, tmp_path / "new.f64")
    assert_analysis_error(result)
    assert "less than one full cycle of 2.11255 Hz" in result.output
    assert list(tmp_path.iterdir()) == []
    # an existing recording and its sidecar stay as they were
    old = tmp_path / "old.f64"
    write_signal(old, Signal(np.arange(5.0), 25_000.0))
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert_analysis_error(invoke(*args, old))
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
