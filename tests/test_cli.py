"""Command-line round trip and the documented exit codes."""

import json
import shutil
import tracemalloc
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from envdiag import (
    DistributionSpec,
    EstimatorConfig,
    PulseParams,
    SeedSpec,
    SpectrumConfig,
    envelope_spectrum,
    simulate_signal,
)
from envdiag import calibrate, classify, cli, faultfreq
from envdiag.calibrate import DEFAULT_ESTIMATOR, DEFAULT_SPECTRUM, ThresholdTable, analysis_json
from envdiag.faultfreq import estimate_or_error, iter_segments
from envdiag.sigio import read_signal, write_signal_arrays, write_spectrum_csv
from envdiag.cli import EXIT_ANALYSIS, EXIT_USAGE_IO, cmd_classify, main
from envdiag.sigmodel import DEFAULT_FS, DEFAULT_NOISE_STD, PULSE_LAW
from envdiag.stats import DEFAULT_ALPHA, KDE_GRID_POINTS

# made by `envdiag calibrate --aci-grid 2 --seg-grid 0.5 --n 4 --seed 2` before
# schema_version 2, when a table kept only a digest of its analysis settings
TABLE_V1 = Path(__file__).parent / "data" / "table_v1.json"


def invoke(*args):
    return CliRunner().invoke(main, [str(a) for a in args])


def read_whole(path):
    """The samples of a recording file, as one Signal."""
    recording, _ = read_signal(path)
    return recording.read(0, len(recording))


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


@pytest.fixture(scope="module")
def table_h2(files):
    """A table of 0.25 s pieces and 2 harmonics, other than calibrate's defaults."""
    root, _, _ = files
    table = root / "table_h2.json"
    result = invoke("calibrate", "--aci-grid", 2, "--seg-grid", 0.5, "--n", 3, "--seed", 2,
                    "--piece-len", 0.25, "--n-harmonics", 2, "-o", table)
    assert result.exit_code == 0, result.output
    return table


def assert_usage_error(result):
    assert result.exit_code == EXIT_USAGE_IO, result.output
    # a clean exit, not an escaped exception
    assert isinstance(result.exception, SystemExit)


def assert_analysis_error(result):
    assert result.exit_code == EXIT_ANALYSIS, result.output
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output


@pytest.fixture(scope="module")
def short_rec(files):
    """A recording of one 0.5 s segment, too short for a variance test."""
    root, _, _ = files
    rec = root / "short.f64"
    result = invoke("simulate", "--dist", "constant:30", "--aci", 2, "--seg-len", 0.5,
                    "--seed", 1, "-o", rec)
    assert result.exit_code == 0, result.output
    return rec


# Each command with each exit code the module docstring documents.
EXIT_CODE_CASES = [
    ("simulate --dist constant:30 --aci 2 --seg-len 0.5", 0),
    # under two cycles of 30 Hz per segment
    ("simulate --dist constant:30 --aci 2 --seg-len 0.05", EXIT_ANALYSIS),
    ("simulate --dist constant:30 --aci 2 --seg-len 0.5 --n-segments 0", EXIT_USAGE_IO),
    ("calibrate --aci-grid 2 --seg-grid 0.5 --n 2", 0),
    # a search window narrower than 3 bins fails every estimate of the cell
    ("calibrate --aci-grid 2 --seg-grid 0.5 --n 2 --search-frac 0.001", EXIT_ANALYSIS),
    ("calibrate --aci-grid 2,2 --seg-grid 0.5 --n 2", EXIT_USAGE_IO),
    ("classify -i {rec} --table {table} --f-theoretical 30 --seg-lens 0.5", 0),
    ("classify -i {short} --table {table} --f-theoretical 30 --seg-lens 0.5", EXIT_ANALYSIS),
    ("classify -i {rec} --table {table} --f-theoretical 30 --seg-lens 1", EXIT_USAGE_IO),
    # one length named twice
    ("classify -i {rec} --table {table} --f-theoretical 30 --seg-lens 0.5,0.5", EXIT_USAGE_IO),
]
# command-code, with the ordinal of a repeated pair from its second case on
_EXIT_IDS = [f"{args.split()[0]}-{code}" for args, code in EXIT_CODE_CASES]
_EXIT_IDS = [i if i not in _EXIT_IDS[:k] else f"{i}-{_EXIT_IDS[:k].count(i) + 1}"
             for k, i in enumerate(_EXIT_IDS)]


@pytest.mark.parametrize("args,code", EXIT_CODE_CASES, ids=_EXIT_IDS)
def test_documented_exit_code(files, short_rec, tmp_path, args, code):
    root, rec, table = files
    argv = args.format(rec=rec, table=table, short=short_rec,
                       missing=root / "missing.f64").split()
    out = tmp_path / "out"
    result = invoke(*argv, "-o", out)
    if code == EXIT_ANALYSIS:
        assert_analysis_error(result)
    elif code == EXIT_USAGE_IO:
        assert_usage_error(result)
    else:
        assert result.exit_code == 0, result.output
    # a failing command writes no output
    assert out.exists() == (code == 0)


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
    "calibrate --piece-len 0 --aci-grid 2 --seg-grid 0.5 --n 2",
    "calibrate --piece-len inf --aci-grid 2 --seg-grid 0.5 --n 2",
    "classify --fs inf -i {rec} --table {table} --f-theoretical 30 --seg-lens 0.5",
    "classify --seg-lens inf -i {rec} --table {table} --f-theoretical 30",
    "classify --f-theoretical inf -i {rec} --table {table} --seg-lens 0.5",
    "calibrate --seg-grid inf --aci-grid 2 --n 2",
    "calibrate --seed -1 --aci-grid 2 --seg-grid 0.5 --n 2",
    "calibrate --fs inf --aci-grid 2 --seg-grid 0.5 --n 2",
    "simulate --fs inf --dist constant:30 --aci 2 --seg-len 0.5",
    "simulate --dist constant:inf --aci 2 --seg-len 0.5",
    "simulate --aci inf --dist constant:30 --seg-len 0.5",
    "simulate --fc inf --dist constant:30 --aci 2 --seg-len 0.5",
    "classify --alpha nan -i {rec} --table {table} --f-theoretical 30 --seg-lens 0.5",
    "classify --alpha 1 -i {rec} --table {table} --f-theoretical 30 --seg-lens 0.5",
])
def test_out_of_range_value_is_a_usage_error(files, args):
    root, rec, table = files
    argv = args.format(rec=rec, table=table).split()
    result = invoke(*argv, "-o", root / "out")
    assert_usage_error(result)
    if argv[1] == "--alpha":
        assert result.output == f"error: alpha must lie in (0, 1), got {argv[2]}\n"


@pytest.mark.parametrize("args,message", [
    ("calibrate --band 1500 --aci-grid 2 --seg-grid 0.5 --n 2",
     "malformed band '1500'; expected LO,HI or 'none'"),
    ("calibrate --aci-grid 2,x --seg-grid 0.5 --n 2", "malformed list '2,x'"),
    ("simulate --dist uniform:29 --aci 2 --seg-len 0.5", "uniform law needs 2 parameter(s): a, b"),
])
def test_malformed_value_is_named_before_any_work(tmp_path, args, message):
    result = invoke(*args.split(), "-o", tmp_path / "out")
    assert_usage_error(result)
    assert result.output == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("option,message", [
    ("--aci", "ACI must be positive and finite, got inf"),
    ("--fc", "fc must be positive and finite, got inf Hz"),
])
def test_simulate_names_an_infinite_pulse_value(tmp_path, option, message):
    args = {"--dist": "constant:30", "--aci": 2, "--seg-len": 0.5, option: "inf"}
    result = invoke("simulate", *[a for kv in args.items() for a in kv],
                    "-o", tmp_path / "inf.f64")
    assert_usage_error(result)
    assert result.output == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("args", [
    "simulate --dist constant:30 --aci 2 --seg-len nan",
    "classify -i {rec} --table {table} --f-theoretical 30 --seg-lens nan",
])
def test_segment_length_not_positive_and_finite_is_named(files, tmp_path, args):
    _, rec, table = files
    result = invoke(*args.format(rec=rec, table=table).split(), "-o", tmp_path / "out")
    assert_usage_error(result)
    assert result.output == "error: segment length must be positive and finite, got nan s\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("args", [
    "simulate --dist constant:30 --aci 2 --seg-len 1e300",
    "simulate --dist constant:30 --aci 2 --seg-len 0.5 --fs 1e300",
    "calibrate --aci-grid 2 --seg-grid 1e300 --n 2",
    "calibrate --aci-grid 2 --seg-grid 0.5 --n 2 --fs 1e300",
])
def test_span_of_more_samples_than_an_array_holds_is_a_usage_error(tmp_path, args):
    result = invoke(*args.split(), "-o", tmp_path / "out")
    assert_usage_error(result)
    assert result.output.startswith("error: ")
    assert result.output.endswith(" is more samples than a float64 array holds\n")
    assert result.output.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


# Each option default and its home: the field default of the type that owns it.
OPTION_HOMES = [
    ("simulate", "--fs", DEFAULT_FS),
    ("simulate", "--fc", PulseParams(aci=1.0).fc),
    ("simulate", "--noise-std", DEFAULT_NOISE_STD),
    ("calibrate", "--fs", DEFAULT_FS),
    ("calibrate", "--fc", PulseParams(aci=1.0).fc),
    ("calibrate", "--noise-std", DEFAULT_NOISE_STD),
    ("calibrate", "--zero-pad", DEFAULT_SPECTRUM.zero_pad_factor),
    ("calibrate", "--piece-len", DEFAULT_SPECTRUM.piece_len_s),
    ("calibrate", "--n-harmonics", DEFAULT_ESTIMATOR.n_harmonics),
    ("calibrate", "--search-frac", DEFAULT_ESTIMATOR.search_frac),
    ("calibrate", "--peak-excl-bins", DEFAULT_ESTIMATOR.peak_excl_bins),
    ("classify", "--alpha", DEFAULT_ALPHA),
]


@pytest.mark.parametrize("command,option,home", OPTION_HOMES,
                         ids=[f"{command}{option}" for command, option, _ in OPTION_HOMES])
def test_option_default_is_read_from_its_home(command, option, home):
    (param,) = [p for p in main.commands[command].params if option in p.opts]
    assert param.default == home


def test_calibrate_without_settings_records_the_defaults(files):
    _, _, table = files  # made without a settings option
    meta = json.loads(table.read_text(encoding="utf-8"))["meta"]
    assert meta["analysis"] == analysis_json(DEFAULT_SPECTRUM, DEFAULT_ESTIMATOR)
    assert {"aci": 1.0, **meta["pulse"]} == {**asdict(PulseParams(aci=1.0)), **PULSE_LAW}
    assert (meta["fs"], meta["noise_std"]) == (DEFAULT_FS, DEFAULT_NOISE_STD)


@pytest.mark.parametrize("option,value", [
    ("--window", "hann"), ("--zero-pad", 4), ("--piece-len", 0.5), ("--n-harmonics", 3),
    ("--search-frac", 0.18), ("--peak-excl-bins", 2),
])
def test_classify_takes_no_analysis_setting(files, option, value):
    # the table carries them; only calibrate sets them
    root, rec, table = files
    result = invoke("classify", "-i", rec, "--table", table, "--f-theoretical", 30,
                    "--seg-lens", 0.5, option, value, "-o", root / "r.json")
    assert_usage_error(result)
    assert "No such option" in result.output and option in result.output
    assert not (root / "r.json").exists()


def test_classify_has_thirteen_options():
    names = sorted(opt for param in cmd_classify.params for opt in param.opts)
    assert len(cmd_classify.params) == 13
    assert "--band" in names and "--f-theoretical" in names


def test_envdiag_has_three_commands_and_37_options(files, tmp_path):
    assert set(main.commands) == {"simulate", "calibrate", "classify"}
    assert sum(len(cmd.params) for cmd in main.commands.values()) == 37
    # kde and spectrum are gone: classify --emit-kde and --emit-spectra write their curves
    _, rec, table = files
    for command in ("kde", "spectrum"):
        result = invoke(command, "-i", rec, "--table", table, "-o", tmp_path / "out.csv")
        assert_usage_error(result)
        assert "No such command" in result.output
    assert list(tmp_path.iterdir()) == []


def test_emitted_spectra_use_the_table_pieces(files, table_h2, tmp_path):
    _, rec, _ = files
    spectra = tmp_path / "spectra"
    classify_reports(rec, table_h2, tmp_path / "h2.json", "--emit-spectra", spectra)
    _, rows = csv_rows(spectra / "segment_0000.csv")
    # 0.25 s pieces zero-padded 4x: 1 Hz bins from 0 to fs/2 = 12.5 kHz
    assert len(rows) == 12_501
    assert rows[1][0] == "1" and rows[-1][0] == "12500"


def test_classify_analyses_as_the_table_was_calibrated(files, table_h2):
    root, rec, _ = files
    assert json.loads(table_h2.read_text(encoding="utf-8"))["meta"]["schema_version"] == 2
    (rep,) = classify_reports(rec, table_h2, root / "h2.json")
    spec_cfg = SpectrumConfig(piece_len_s=0.25)
    est_cfg = EstimatorConfig(f_theoretical=30.0, n_harmonics=2)
    assert rep["provenance"]["analysis"]["n_harmonics"] == 2
    assert rep["provenance"]["analysis"] == \
        json.loads(table_h2.read_text(encoding="utf-8"))["meta"]["analysis"]
    signal, _ = read_signal(rec)
    estimates = [estimate_or_error(seg, spec_cfg, est_cfg) for _, seg in iter_segments(signal, 0.5)]
    assert rep["estimates_hz"] == [e.f_hat for e in estimates]


def test_reports_against_tables_of_other_bands_name_them_apart(files, tmp_path):
    # the same calibration with and without a band, and one run band for both
    _, rec, _ = files
    reports = []
    for name, band in (("plain", ()), ("banded", ("--band", "1500,3500"))):
        table = tmp_path / f"{name}.json"
        result = invoke("calibrate", "--aci-grid", 2, "--seg-grid", 0.5, "--n", 3, "--seed", 2,
                        *band, "-o", table)
        assert result.exit_code == 0, result.output
        (rep,) = classify_reports(rec, table, tmp_path / f"{name}_report.json",
                                  "--band", "1500,3500")
        assert rep["provenance"]["analysis"] == \
            json.loads(table.read_text(encoding="utf-8"))["meta"]["analysis"]
        reports.append(rep)
    plain, banded = (rep["provenance"] for rep in reports)
    assert plain != banded
    assert plain["analysis"]["bandpass"] is None
    assert banded["analysis"]["bandpass"] == [1500.0, 3500.0]
    assert plain["bandpass"] == banded["bandpass"] == [1500.0, 3500.0]


def test_version_1_table_is_refused_by_the_console_command(files, tmp_path, run_python):
    # the version 1 table in a real process, as `python -m envdiag.cli` runs it, with
    # stderr and then the exit code on stdout: it holds calibrate's defaults, and is
    # refused all the same
    _, rec, _ = files
    code = ("import runpy, sys\nsys.stderr = sys.stdout\ntry:\n"
            "    runpy.run_module('envdiag.cli', run_name='__main__', alter_sys=True)\n"
            "except SystemExit as exc:\n    print(exc.code)")
    out = tmp_path / "out"
    out.mkdir()
    *error, exit_code = run_python(
        code, "classify", "-i", str(rec), "--table", str(TABLE_V1), "--f-theoretical", "30",
        "--seg-lens", "0.5", "-o", str(out / "v1.json"), "--text-out", str(out / "v1.txt"),
    ).splitlines()
    assert int(exit_code) == EXIT_USAGE_IO
    assert len(error) == 1 and error[0].startswith(f"error: {TABLE_V1}: not a valid")
    assert "schema_version None is not 2; recalibrate" in error[0]
    assert list(out.iterdir()) == []


def test_version_1_table_of_other_settings_asks_for_a_recalibration(files, tmp_path):
    _, rec, _ = files
    data = json.loads(TABLE_V1.read_text(encoding="utf-8"))
    data["meta"]["config_digest"] = "0123456789abcdef"
    bad = tmp_path / "old_table.json"
    bad.write_text(json.dumps(data), encoding="utf-8")
    result = invoke("classify", "-i", rec, "--table", bad, "--f-theoretical", 30,
                    "--seg-lens", 0.5, "-o", tmp_path / "r.json")
    assert_usage_error(result)
    assert "old_table.json" in result.output
    assert "recalibrate" in result.output
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("command", [
    "simulate --dist constant:30 --aci 2 --seg-len 0.5",
    "calibrate --aci-grid 2 --seg-grid 0.5 --n 2",
])
@pytest.mark.parametrize("noise", ["nan", "inf", "-1"])
def test_noise_std_must_be_finite_and_non_negative(tmp_path, command, noise):
    result = invoke(*command.split(), "--noise-std", noise, "-o", tmp_path / "out")
    assert_usage_error(result)
    assert "noise_std" in result.output
    assert list(tmp_path.iterdir()) == []


def test_removed_welch_split_option_is_a_usage_error(files):
    root, _, _ = files
    assert_usage_error(invoke("calibrate", "--aci-grid", 2, "--seg-grid", 0.5, "--n", 2,
                              "--welch-segments", 2, "-o", root / "t.json"))


# the seven tapers calibrate --window once offered
FORMER_WINDOWS = ["boxcar", "hann", "hamming", "blackman", "nuttall", "blackmanharris",
                  "flattop"]


@pytest.mark.parametrize("window", FORMER_WINDOWS)
def test_removed_window_option_is_a_usage_error(tmp_path, window):
    # every Welch piece is Hann-tapered; the taper is no option, whatever its value
    result = invoke("calibrate", "--aci-grid", 2, "--seg-grid", 0.5, "--n", 2,
                    "--window", window, "-o", tmp_path / "t.json")
    assert_usage_error(result)
    assert "No such option" in result.output and "--window" in result.output
    assert list(tmp_path.iterdir()) == []


ONE_ENTRY_TABLE = (
    '{"meta": {"schema_version": 2, "f_simul": 30.0, "fs": 25000.0, "n": 3, "seed": 2,'
    ' "noise_std": 1.0, "analysis": {"bandpass": null, "n_harmonics": 3, "peak_excl_bins": 2,'
    ' "piece_len_s": 0.5, "search_frac": 0.18, "window": "hann", "zero_pad_factor": 4},'
    ' "pulse": {"bw_hi": 0.5, "bw_lo": 0.4, "bwr": -6.0, "fc": 2500.0}},'
    ' "entries": [{"aci": 2.0, "master_seed": 1, "mean_f_hat": 30.0, "mean_snr": 3.0,'
    ' "n_signals": 3, "seg_len_s": 0.5, "threshold": THRESHOLD}]}')


def one_entry_table_without(record, key):
    """The one-entry table, at a valid threshold, with one key of its ``meta``,
    ``analysis``, ``pulse`` or entry removed."""
    data = json.loads(ONE_ENTRY_TABLE.replace("THRESHOLD", "0.01"))
    records = {"meta": data["meta"], "analysis": data["meta"]["analysis"],
               "pulse": data["meta"]["pulse"], "entry": data["entries"][0]}
    del records[record][key]
    return json.dumps(data)


def test_one_entry_table_loads_with_a_valid_threshold(tmp_path):
    path = tmp_path / "table.json"
    path.write_text(ONE_ENTRY_TABLE.replace("THRESHOLD", "0.01"), encoding="utf-8")
    assert ThresholdTable.load(path).entries[0].threshold == 0.01


@pytest.mark.parametrize("content", [
    '{"meta": {}}', "not json",
    pytest.param(ONE_ENTRY_TABLE.replace("THRESHOLD", '"0.01"'), id="threshold-text"),
    pytest.param(ONE_ENTRY_TABLE.replace("THRESHOLD", "-1.0"), id="threshold-negative"),
    *(pytest.param(one_entry_table_without(record, key), id=f"no-{record}-{key}")
      for record, key in [("meta", "schema_version"), ("meta", "noise_std"),
                          ("analysis", "bandpass"), ("pulse", "fc"), ("entry", "threshold")]),
])
def test_malformed_table_is_a_usage_error(files, tmp_path, content):
    root, rec, _ = files
    bad = root / "bad_table.json"
    bad.write_text(content, encoding="utf-8")
    result = invoke("classify", "-i", rec, "--table", bad, "--f-theoretical", 30,
                    "--seg-lens", 0.5, "-o", tmp_path / "r.json")
    assert_usage_error(result)
    assert "bad_table.json" in result.output
    assert "not a valid threshold table" in result.output
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("record,key,value", [
    ("entry", "aci", -1.0), ("entry", "mean_f_hat", -30.0), ("entry", "seg_len_s", -0.5),
    ("meta", "noise_std", -1.0), ("meta", "seed", -1), ("entry", "master_seed", -7),
    ("entry", "master_seed", 2**70),
])
def test_table_cell_out_of_range_is_refused_before_the_recording_is_read(
        files, tmp_path, monkeypatch, record, key, value):
    _, rec, _ = files
    data = json.loads(ONE_ENTRY_TABLE.replace("THRESHOLD", "0.01"))
    {"meta": data["meta"], "entry": data["entries"][0]}[record][key] = value
    bad = tmp_path / "bad_table.json"
    bad.write_text(json.dumps(data), encoding="utf-8")
    calls = []
    monkeypatch.setattr(cli, "read_signal", lambda *a, **k: calls.append(a))
    result = invoke("classify", "-i", rec, "--table", bad, "--f-theoretical", 30,
                    "--seg-lens", 0.5, "-o", tmp_path / "r.json")
    assert_usage_error(result)
    assert "not a valid threshold table" in result.output
    assert result.output.count("\n") == 1
    assert calls == []
    assert list(tmp_path.iterdir()) == [bad]


@pytest.fixture
def spied(monkeypatch):
    """The names of the work functions the CLI reached: reading a recording,
    building a table and simulating a signal."""
    monkeypatch.setenv("ENVDIAG_THREADS", "1")
    calls = []
    for module, name in [(cli, "read_signal"), (cli, "build_table"),
                         (calibrate, "simulate_signal"), (cli, "simulate_signal")]:
        real = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *a, _n=name, _f=real, **k: calls.append(_n) or _f(*a, **k))
    return calls


MISSING_OUTPUT_CASES = {
    "simulate-o": "simulate --dist constant:30 --aci 2 --seg-len 0.5 -o {missing}",
    "calibrate-o": "calibrate --aci-grid 2 --seg-grid 0.5 --n 2 -o {missing}",
    "calibrate-csv": "calibrate --aci-grid 2 --seg-grid 0.5 --n 2 -o {out} --csv {missing}",
    "classify-o": "classify {classify} -o {missing}",
    "classify-text-out": "classify {classify} -o {out} --text-out {missing}",
    "classify-emit-estimates": "classify {classify} -o {out} --emit-estimates {missing}",
    # --emit-spectra makes its own directory, but not before the others are checked
    "classify-emit-kde": "classify {classify} -o {out} --emit-kde {missing} "
                         "--emit-spectra {spectra}",
}


@pytest.mark.parametrize("args,is_dir", [
    *(pytest.param(args, False, id=name) for name, args in MISSING_OUTPUT_CASES.items()),
    # the same output paths, each an existing directory
    *(pytest.param(args, True, id=f"{name}-a-directory")
      for name, args in MISSING_OUTPUT_CASES.items()),
])
def test_output_in_a_missing_directory_is_refused_before_any_work(files, tmp_path, spied,
                                                                  args, is_dir):
    _, rec, table = files
    classify_args = f"-i {rec} --table {table} --f-theoretical 30 --seg-lens 0.5"
    if is_dir:
        target = tmp_path / "outdir"
        target.mkdir()
        message = f"error: {target}: is a directory\n"
    else:
        target = tmp_path / "missing" / "file.out"
        message = f"error: {target}: directory '{target.parent}' does not exist\n"
    result = invoke(*args.format(classify=classify_args, missing=target, out=tmp_path / "out",
                                 spectra=tmp_path / "spectra").split())
    assert_usage_error(result)
    assert result.output == message
    assert spied == []
    assert list(tmp_path.iterdir()) == ([target] if is_dir else [])
    assert not is_dir or list(target.iterdir()) == []


def test_simulate_sidecar_that_is_a_directory_is_refused_before_any_work(tmp_path, spied):
    # else the samples would replace their file and only then the sidecar fail
    sidecar = tmp_path / "rec.f64.json"
    sidecar.mkdir()
    result = invoke("simulate", "--dist", "constant:30", "--aci", 2, "--seg-len", 0.5,
                    "-o", tmp_path / "rec.f64")
    assert_usage_error(result)
    assert result.output == f"error: {sidecar}: is a directory\n"
    assert spied == []
    assert list(tmp_path.iterdir()) == [sidecar]


@pytest.mark.parametrize("below", ["", "sub"], ids=["file", "under-a-file"])
def test_emit_spectra_path_that_is_or_is_under_a_file_is_refused_before_any_work(
        files, tmp_path, spied, monkeypatch, below):
    _, rec, table = files
    blocker = tmp_path / "spec"
    blocker.write_text("", encoding="ascii")
    spectra = blocker / below if below else blocker
    monkeypatch.setattr(ThresholdTable, "load", lambda *a: spied.append("load"))
    result = invoke("classify", "-i", rec, "--table", table, "--f-theoretical", 30,
                    "--seg-lens", 0.5, "-o", tmp_path / "r.json", "--emit-spectra", spectra)
    assert_usage_error(result)
    assert result.output == f"error: {spectra}: '{blocker}' is not a directory\n"
    assert spied == []
    assert list(tmp_path.iterdir()) == [blocker]


def test_calibrate_piece_under_eight_samples_is_refused_before_any_simulation(tmp_path,
                                                                             spied):
    result = invoke("calibrate", "--aci-grid", 2, "--seg-grid", 0.5, "--n", 2,
                    "--piece-len", 0.0002, "-o", tmp_path / "t.json")
    assert_usage_error(result)
    assert result.output == ("error: a Welch piece of 0.0002 s at 25000 Hz on 12500 samples "
                             "holds 5, fewer than the 8 the PSD needs\n")
    assert spied == ["build_table"]
    assert list(tmp_path.iterdir()) == []


BAND_ABOVE_NYQUIST = "error: band [1500, 20000] Hz must satisfy 0 <= f_lo < f_hi <= fs/2\n"
TOO_MANY_DIGITS = "1" + "0" * 400  # 401 digits, past the float range


@pytest.mark.parametrize("args,message,reached", [
    ("--band 1500,20000", BAND_ABOVE_NYQUIST, ["build_table"]),
    (f"--n-harmonics {TOO_MANY_DIGITS}", "error: the harmonic search passes the float range; "
     "lower f_theoretical (30 Hz) or n_harmonics\n", []),
    (f"--zero-pad {TOO_MANY_DIGITS}", "error: a Welch piece of 12500 samples zero padded by "
     "zero_pad_factor is more samples than a float64 array holds\n", ["build_table"]),
], ids=["band-above-nyquist", "n_harmonics-401-digits", "zero_pad-401-digits"])
def test_calibrate_setting_out_of_range_is_refused_before_any_simulation(tmp_path, spied,
                                                                         args, message, reached):
    result = invoke("calibrate", "--aci-grid", 2, "--seg-grid", 0.5, "--n", 2, *args.split(),
                    "-o", tmp_path / "t.json")
    assert_usage_error(result)
    assert result.output == message
    assert spied == reached
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("band", ["1500,20000", "12500,12501"])
def test_classify_band_above_nyquist_is_refused_before_any_segment(files, tmp_path,
                                                                   monkeypatch, band):
    _, rec, table = files
    monkeypatch.setattr(classify, "iter_segments", lambda *a: pytest.fail("segment read"))
    result = invoke("classify", "-i", rec, "--table", table, "--f-theoretical", 30,
                    "--seg-lens", 0.5, "--band", band, "-o", tmp_path / "r.json")
    assert_usage_error(result)
    lo, hi = band.split(",")
    assert result.output == f"error: band [{lo}, {hi}] Hz must satisfy 0 <= f_lo < f_hi <= fs/2\n"
    assert list(tmp_path.iterdir()) == []


def test_classify_search_past_the_float_range_is_refused_before_the_recording_is_read(
        files, tmp_path, spied):
    # 3.5 harmonics of 1e308 Hz, the SNR's reach, are no float
    _, rec, table = files
    result = invoke("classify", "-i", rec, "--table", table, "--f-theoretical", 1e308,
                    "--seg-lens", 0.5, "-o", tmp_path / "r.json")
    assert_usage_error(result)
    assert result.output == ("error: the harmonic search passes the float range; "
                             "lower f_theoretical (1e+308 Hz) or n_harmonics\n")
    assert spied == []
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("window", [w for w in FORMER_WINDOWS if w != "hann"])
def test_table_of_another_taper_is_refused_before_the_recording_is_read(files, tmp_path,
                                                                        spied, window):
    # its thresholds were calibrated on pieces tapered otherwise than Hann
    _, rec, table = files
    text = table.read_text(encoding="utf-8")
    assert text.count('"window": "hann"') == 1
    bad = tmp_path / f"{window}.json"
    bad.write_text(text.replace('"window": "hann"', f'"window": "{window}"'), encoding="utf-8")
    result = invoke("classify", "-i", rec, "--table", bad, "--f-theoretical", 30,
                    "--seg-lens", 0.5, "-o", tmp_path / "r.json")
    assert_usage_error(result)
    assert result.output == (f"error: {bad}: not a valid threshold table "
                             f"(ValueError(\"window '{window}' is not 'hann'\"))\n")
    assert spied == []
    assert list(tmp_path.iterdir()) == [bad]


@pytest.mark.parametrize("key,value", [("bw_lo", 0.3), ("bw_hi", 0.6), ("bwr", -3.0)])
def test_table_of_another_pulse_law_is_refused_before_the_recording_is_read(files, tmp_path,
                                                                            spied, key, value):
    # its thresholds were calibrated on pulses of other bandwidths
    _, rec, table = files
    data = json.loads(table.read_text(encoding="utf-8"))
    data["meta"]["pulse"][key] = value
    bad = tmp_path / f"{key}.json"
    bad.write_text(json.dumps(data), encoding="utf-8")
    result = invoke("classify", "-i", rec, "--table", bad, "--f-theoretical", 30,
                    "--seg-lens", 0.5, "-o", tmp_path / "r.json")
    assert_usage_error(result)
    assert result.output == (f"error: {bad}: not a valid threshold table (ValueError("
                             f"'pulse {key} {value!r} is not {PULSE_LAW[key]!r}'))\n")
    assert spied == []
    assert list(tmp_path.iterdir()) == [bad]


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


def test_emitted_kde_is_built_from_the_report_estimates(files, tmp_path, monkeypatch):
    # --emit-kde alone estimates no segment again: its samples are the first
    # report's estimates, and it writes what it writes beside --emit-estimates
    _, rec, table = files
    args = ["classify", "-i", rec, "--table", table, "--f-theoretical", 30,
            "--seg-lens", 0.5, "-o", tmp_path / "r.json"]
    result = invoke(*args, "--emit-estimates", tmp_path / "est.csv",
                    "--emit-kde", tmp_path / "both.csv")
    assert result.exit_code == 0, result.output
    monkeypatch.setattr(cli, "estimate_or_error",
                        lambda *a: pytest.fail("--emit-kde estimated a segment again"))
    result = invoke(*args, "--emit-kde", tmp_path / "alone.csv")
    assert result.exit_code == 0, result.output
    assert (tmp_path / "alone.csv").read_bytes() == (tmp_path / "both.csv").read_bytes()


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


@pytest.mark.parametrize("fs,warned", [(24_000, True), (25_000, False)])
def test_sample_rate_override_other_than_the_table_s_is_warned(files, tmp_path, fs, warned):
    # the recording's sidecar and the table both say 25 kHz
    _, rec, table = files
    (report,) = classify_reports(rec, table, tmp_path / "report.json", "--fs", fs)
    warning = (f"sample rate {fs:g} Hz is not the table's sample rate 25000 Hz; "
               "its SNRs and thresholds may not apply")
    assert (warning in report["warnings"]) is warned


def test_length_missing_from_the_table_is_a_usage_error_before_any_read(files, monkeypatch):
    # the table is calibrated at 0.5 s only
    root, rec, table = files
    calls = []

    def counting(module, name):
        real = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *a, **k: calls.append(name) or real(*a, **k))

    counting(classify, "estimate_or_error")
    counting(faultfreq, "estimate_or_error")
    counting(cli, "read_signal")
    result = invoke("classify", "-i", rec, "--table", table, "--f-theoretical", 30,
                    "--seg-lens", "0.5,1", "-o", root / "mismatch.json")
    assert_usage_error(result)
    assert "threshold table has no entries for seg_len=1 s" in result.output
    assert calls == []
    assert not (root / "mismatch.json").exists()


@pytest.mark.parametrize("seg_lens,named", [("0.5,0.5", "0.5"),
                                             ("0.5,0.5000000001", "0.5000000001")])
def test_repeated_length_is_a_usage_error_before_any_read(files, monkeypatch, seg_lens, named):
    # lengths within 1e-9 s are one table column, as calibrate's --seg-grid has it
    root, rec, table = files
    calls = []
    monkeypatch.setattr(cli, "read_signal", lambda *a, **k: calls.append(a))
    result = invoke("classify", "-i", rec, "--table", table, "--f-theoretical", 30,
                    "--seg-lens", seg_lens, "-o", root / "repeated.json")
    assert_usage_error(result)
    assert result.output == f"error: --seg-lens names the segment length {named} s twice\n"
    assert calls == []
    assert not (root / "repeated.json").exists()


@pytest.mark.parametrize("n_harmonics,extra", [(1, ()), (4, ("--search-frac", 0.1))])
def test_emitted_estimates_have_a_peak_column_per_harmonic(files, tmp_path, n_harmonics, extra):
    _, rec, _ = files
    table, est = tmp_path / "table.json", tmp_path / "est.csv"
    result = invoke("calibrate", "--aci-grid", 2, "--seg-grid", 0.5, "--n", 3, "--seed", 2,
                    "--n-harmonics", n_harmonics, *extra, "-o", table)
    assert result.exit_code == 0, result.output
    (rep,) = classify_reports(rec, table, tmp_path / "rep.json", "--emit-estimates", est)
    header, rows = csv_rows(est)
    assert header.split(",")[4:] == [f"peak{k}_hz" for k in range(1, n_harmonics + 1)]
    assert [row[2] for row in rows] == [f"{f:.10g}" for f in rep["estimates_hz"]]
    for row in rows:
        peaks = [float(v) for v in row[4:]]
        assert len(peaks) == n_harmonics
        # f_hat is the mean of the order-normalized peaks
        assert float(row[2]) == pytest.approx(np.mean([f / k for k, f in enumerate(peaks, 1)]),
                                              rel=1e-9)


def test_emitted_start_times_are_the_first_sample_of_each_cut_segment(tmp_path):
    # 0.33333 s is 8333 samples at 25 kHz, so segment 15 starts at sample 124995,
    # 4.9998 s, not at 15 * 0.33333 = 4.99995 s
    rec, table, est = tmp_path / "rec.f64", tmp_path / "table.json", tmp_path / "est.csv"
    for args in (("simulate", "--dist", "constant:30", "--aci", 2, "--seg-len", 6, "--seed", 1,
                  "-o", rec),
                 ("calibrate", "--aci-grid", 2, "--seg-grid", 0.33333, "--n", 2, "--seed", 2,
                  "-o", table),
                 ("classify", "-i", rec, "--table", table, "--f-theoretical", 30, "--seg-lens",
                  0.33333, "-o", tmp_path / "rep.json", "--emit-estimates", est)):
        result = invoke(*args)
        assert result.exit_code == 0, result.output
    _, rows = csv_rows(est)
    assert rows[15][:2] == ["15", "4.9998"]
    assert [row[1] for row in rows] == [f"{int(row[0]) * 8333 / 25000:.10g}" for row in rows]


def test_input_too_large_for_memory_is_a_usage_error(monkeypatch, tmp_path):
    def too_large(*args, **kwargs):
        raise MemoryError("Unable to allocate 3.64 TiB for an array with shape "
                          "(500000000000,) and data type float64")

    monkeypatch.setattr(cli, "simulate_signal", too_large)
    result = invoke("simulate", "--dist", "constant:30", "--aci", 2, "--seg-len", 0.5,
                    "--fs", 1e12, "-o", tmp_path / "rec.f64")
    assert_usage_error(result)
    assert result.output == ("error: Unable to allocate 3.64 TiB for an array with shape "
                             "(500000000000,) and data type float64\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", [
    "classify --seg-lens 0.5 --table {table} --f-theoretical 30",
])
@pytest.mark.parametrize("source", ["raw-read-as-csv", "byte-ff"])
def test_csv_recording_with_a_non_ascii_byte_is_a_usage_error(files, tmp_path, command, source):
    _, rec, table = files
    if source == "raw-read-as-csv":
        # raw samples under a CSV name, with no sidecar to name their format
        path = tmp_path / "raw.csv"
        shutil.copyfile(rec, path)
        fs = ("--fs", 25_000)
    else:
        path, fs = tmp_path / "rec.csv", ()
        path.write_bytes(b"0.5\n1.5\n\xff\n")
        (tmp_path / "rec.csv.json").write_text('{"fs": 25000.0}', encoding="utf-8")
    out = tmp_path / "out"
    result = invoke(*command.format(table=table).split(), "-i", path, *fs, "-o", out)
    assert_usage_error(result)
    # one line, which says how to have raw samples read as raw
    assert result.output == (f"error: {path}: not a CSV recording, it holds a byte outside "
                             "ASCII; for raw samples, name the file other than .csv or .txt, "
                             'or set "format": "raw-f64le" in its sidecar\n')
    assert not out.exists()


@pytest.mark.parametrize("where", ["segment", "tail"])
@pytest.mark.parametrize("command", [
    "classify --seg-lens 0.5 --table {table} --f-theoretical 30",
])
def test_non_finite_sample_in_a_raw_file_is_a_usage_error(files, tmp_path, command, where):
    # 3.2 s: the last 0.2 s are in no 0.5 s segment
    _, rec, table = files
    samples = np.concatenate([read_whole(rec).samples, np.ones(5_000)])
    samples[40_000 if where == "segment" else 77_500] = np.nan
    bad = tmp_path / "nan.f64"
    write_signal_arrays(bad, [samples], 25_000.0)
    out = tmp_path / "out"
    result = invoke(*command.format(table=table).split(), "-i", bad, "-o", out)
    assert_usage_error(result)
    assert "non-finite samples" in result.output
    assert not out.exists()


def test_loud_recording_classifies_like_the_quiet_one(files):
    # PSD peaks near 1e240: squaring them as they are would overflow
    root, rec, table = files
    signal = read_whole(rec)
    loud = root / "loud.f64"
    write_signal_arrays(loud, [2.0**400 * signal.samples], signal.fs)
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
    signal = read_whole(path)
    cut = gap_segment * 12_500
    samples = np.concatenate([signal.samples[:cut], np.zeros(12_500), signal.samples[cut:]])
    write_signal_arrays(path, [samples], signal.fs)
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
    for name, (_, seg) in zip(names, iter_segments(signal, 0.5)):
        want = tmp_path / "want.csv"
        write_spectrum_csv(want, envelope_spectrum(seg, SpectrumConfig()))
        assert (spectra / name).read_bytes() == want.read_bytes(), name


def test_sidecar_with_a_text_sample_rate_is_a_usage_error(files):
    root, rec, table = files
    bad = root / "bad_sidecar.f64"
    shutil.copyfile(rec, bad)
    (root / "bad_sidecar.f64.json").write_text('{"fs": "25000"}', encoding="utf-8")
    result = invoke("classify", "-i", bad, "--fs", 25000, "--table", table,
                    "--f-theoretical", 30, "--seg-lens", 0.5, "-o", root / "s.json")
    assert_usage_error(result)
    assert "bad_sidecar.f64.json" in result.output


READ_COMMANDS = [
    ("classify", "--table {table} --f-theoretical 30 --seg-lens 0.5"),
]


@pytest.mark.parametrize("command,args", READ_COMMANDS, ids=[c for c, _ in READ_COMMANDS])
def test_recording_is_read_in_the_format_its_sidecar_records(files, tmp_path, command, args):
    # the CSV recording's extension names no format; its sidecar does
    _, rec, table = files
    csv, dat = tmp_path / "rec.csv", tmp_path / "rec.dat"
    result = invoke("simulate", "--dist", "constant:30", "--aci", 2, "--seg-len", 0.5,
                    "--n-segments", 6, "--seed", 1, "-o", csv)
    assert result.exit_code == 0, result.output
    shutil.copyfile(csv, dat)
    shutil.copyfile(f"{csv}.json", f"{dat}.json")
    outputs = []
    for path in (dat, rec):
        out = tmp_path / f"{path.name}.out"
        result = invoke(command, "-i", path, *args.format(table=table).split(), "-o", out)
        assert result.exit_code == 0, result.output
        outputs.append(out.read_bytes())
    # CSV holds every sample to the bit, so the raw recording gives the same output
    assert outputs[0] == outputs[1]


def test_simulate_writes_csv_text_to_a_csv_name(files, tmp_path):
    _, rec, _ = files
    csv = tmp_path / "rec.csv"
    result = invoke("simulate", "--dist", "constant:30", "--aci", 2, "--seg-len", 0.5,
                    "--n-segments", 6, "--seed", 1, "-o", csv)
    assert result.exit_code == 0, result.output
    text = csv.read_bytes()
    assert text.isascii() and text.decode("ascii").replace("\n", "").isprintable()
    assert json.loads(Path(f"{csv}.json").read_text(encoding="utf-8"))["format"] == "csv"
    # the raw recording of the same seed, to the bit
    np.testing.assert_array_equal(read_whole(csv).samples, read_whole(rec).samples)


@pytest.mark.parametrize("command", ["simulate", "classify"])
def test_format_option_is_refused(tmp_path, command):
    # a file's format comes from its sidecar or its name
    result = invoke(command, "--format", "csv", "-o", tmp_path / "out")
    assert_usage_error(result)
    assert "No such option" in result.output and "--format" in result.output
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command,args", READ_COMMANDS, ids=[c for c, _ in READ_COMMANDS])
def test_sidecar_with_an_unknown_format_is_a_usage_error(files, tmp_path, command, args):
    _, rec, table = files
    bad = tmp_path / "bad.f64"
    shutil.copyfile(rec, bad)
    sidecar = json.loads(Path(f"{rec}.json").read_text(encoding="utf-8"))
    Path(f"{bad}.json").write_text(json.dumps({**sidecar, "format": "f32"}), encoding="utf-8")
    out = tmp_path / "out"
    result = invoke(command, "-i", bad, *args.format(table=table).split(), "-o", out)
    assert_usage_error(result)
    assert "bad.f64.json: unknown signal format 'f32'" in result.output
    assert not out.exists()


def test_classify_with_too_many_failed_segments_is_an_analysis_error(tmp_path, files):
    # 1 s of zeros after the 3 s recording: 2 of 8 segments fail, over the 20 % allowed
    _, rec, table = files
    signal = read_whole(rec)
    padded = tmp_path / "padded.f64"
    write_signal_arrays(padded, [signal.samples, np.zeros(25_000)], signal.fs)
    result = invoke("classify", "-i", padded, "--table", table, "--f-theoretical", 30,
                    "--seg-lens", 0.5, "-o", tmp_path / "r.json")
    assert_analysis_error(result)
    assert "2/8 segment estimates failed" in result.output


def test_classify_emits_no_kde_of_a_point_mass(files, tmp_path):
    # a noiseless constant recording gives the same estimate in every segment
    _, _, table = files
    rec, report, kde = tmp_path / "rec.f64", tmp_path / "rep.json", tmp_path / "kde.csv"
    result = invoke("simulate", "--dist", "constant:30", "--aci", 2, "--seg-len", 0.5,
                    "--n-segments", 4, "--noise-std", 0, "-o", rec)
    assert result.exit_code == 0, result.output
    result = invoke("classify", "-i", rec, "--table", table, "--f-theoretical", 30,
                    "--seg-lens", 0.5, "-o", report, "--emit-kde", kde)
    assert result.exit_code == 0, result.output
    assert "estimates are a point mass; writing no KDE curve" in result.stderr
    assert report.exists() and not kde.exists()


def test_simulate_shorter_than_two_fault_cycles_is_an_analysis_error(tmp_path):
    result = invoke("simulate", "--dist", "constant:30", "--aci", 2, "--seg-len", 0.05,
                    "-o", tmp_path / "rec.f64")
    assert_analysis_error(result)
    assert "holds fewer than two cycles of 30 Hz" in result.output


def test_calibrate_shorter_than_two_fault_cycles_is_a_usage_error(tmp_path):
    # checked with the rest of the grid, before the 0.5 s column is simulated
    result = invoke("calibrate", "--aci-grid", 2, "--seg-grid", "0.5,0.05", "--n", 2,
                    "-o", tmp_path / "t.json")
    assert_usage_error(result)
    assert "at least two cycles of 30 Hz" in result.output
    assert list(tmp_path.iterdir()) == []


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
                    "--n-segments", 3, "--seed", 5, "-o", out)
    assert result.exit_code == 0, result.output
    assert result.output == f"wrote 3 segment(s), 1.5 s at 25000 Hz -> {out}\n"
    dist, pulse, seeds = DistributionSpec.uniform(28.0, 32.0), PulseParams(aci=2.5), SeedSpec(5)
    segments = [simulate_signal(0.5, 25_000.0, dist, pulse, seeds.sequence(i))
                for i in range(3)]
    sidecar = {"seed": 5, "dist": dist.spec_string(),
               "pulse": {"aci": 2.5, "fc": 2500.0, **PULSE_LAW},
               "noise_std": 1.0, "seg_len_s": 0.5, "n_segments": 3,
               "f_true_hz": [f for _, f in segments]}
    write_signal_arrays(ref, [s.samples for s, _ in segments], 25_000.0, sidecar)
    assert out.read_bytes() == ref.read_bytes()
    written = tmp_path / (name + ".json")
    assert written.read_bytes() == (tmp_path / ("ref-" + name + ".json")).read_bytes()
    # the output's name names its format, and its sidecar records it
    assert json.loads(written.read_text(encoding="utf-8"))["format"] == fmt


def test_simulate_failing_on_a_later_segment_leaves_no_output(tmp_path):
    # with seed 1, segments 0-2 draw 6.1, 4.6 and 5.6 Hz; segment 3 draws
    # 2.1 Hz, 1.06 cycles in 0.5 s, fewer than the two a segment needs
    args = ("simulate", "--dist", "uniform:2,10", "--aci", 2, "--seg-len", 0.5,
            "--n-segments", 6, "--seed", 1, "-o")
    result = invoke(*args, tmp_path / "new.f64")
    assert_analysis_error(result)
    assert "fewer than two cycles of 2.11255 Hz" in result.output
    assert list(tmp_path.iterdir()) == []
    # an existing recording and its sidecar stay as they were
    old = tmp_path / "old.f64"
    write_signal_arrays(old, [np.arange(5.0)], 25_000.0)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert_analysis_error(invoke(*args, old))
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
