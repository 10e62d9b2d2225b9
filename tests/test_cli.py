"""Command-line round trip and the documented exit codes."""

import json

import pytest
from click.testing import CliRunner

from envdiag.cli import EXIT_USAGE_IO, main


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


def test_zero_piece_length_is_a_usage_error(files):
    root, rec, _ = files
    assert_usage_error(invoke("spectrum", "-i", rec, "--piece-len", 0, "-o", root / "s.csv"))


def test_removed_welch_split_option_is_a_usage_error(files):
    root, _, _ = files
    assert_usage_error(invoke("calibrate", "--aci-grid", 2, "--seg-grid", 0.5, "--n", 2,
                              "--welch-segments", 2, "-o", root / "t.json"))


def test_unknown_window_is_a_usage_error(files):
    root, rec, _ = files
    result = invoke("spectrum", "-i", rec, "--window", "nosuch", "-o", root / "s.csv")
    assert_usage_error(result)
    assert "nosuch" in result.output


@pytest.mark.parametrize("content", ['{"meta": {}}', "not json"])
def test_malformed_table_is_a_usage_error(files, content):
    root, rec, _ = files
    bad = root / "bad_table.json"
    bad.write_text(content, encoding="utf-8")
    result = invoke("classify", "-i", rec, "--table", bad, "--f-theoretical", 30,
                    "--seg-lens", 0.5, "-o", root / "r.json")
    assert_usage_error(result)
    assert "bad_table.json" in result.output
