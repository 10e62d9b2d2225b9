"""Every command's output files against the committed golden corpus.

Keys, verdicts, integers and other strings must match exactly; floats match
within ``REL_TOL``, so that platforms whose last bits differ agree.  See
``golden_corpus.py`` for the commands and how to regenerate the corpus.
"""

import json
import math

import pytest
from golden_corpus import GOLDEN, SAMPLES, make

REL_TOL = 1e-9


def _files(root):
    return sorted(str(p.relative_to(root)) for p in root.rglob("*") if p.is_file())


def _json_diffs(got, want, where):
    if type(got) is not type(want):
        return [f"{where}: {got!r} != {want!r}"]
    if isinstance(want, dict):
        if sorted(got) != sorted(want):
            return [f"{where}: keys {sorted(got)} != {sorted(want)}"]
        return [d for key in want for d in _json_diffs(got[key], want[key], f"{where}.{key}")]
    if isinstance(want, list):
        if len(got) != len(want):
            return [f"{where}: {len(got)} items != {len(want)}"]
        return [d for i, (g, w) in enumerate(zip(got, want)) for d in
                _json_diffs(g, w, f"{where}[{i}]")]
    if isinstance(want, float):
        same = got == want or math.isclose(got, want, rel_tol=REL_TOL)
    else:
        same = got == want
    return [] if same else [f"{where}: {got!r} != {want!r}"]


def _cells_same(got, want):
    """Integers and text exactly; a number either side writes as a float, within REL_TOL."""
    try:
        g, w = float(got), float(want)
    except ValueError:
        return got == want
    if not any(c in (got + want).lower() for c in ".en"):
        return got == want
    return math.isclose(g, w, rel_tol=REL_TOL)


def _csv_diffs(got, want, where):
    got_rows, want_rows = got.splitlines(), want.splitlines()
    if len(got_rows) != len(want_rows):
        return [f"{where}: {len(got_rows)} lines != {len(want_rows)}"]
    diffs = []
    for i, (g_row, w_row) in enumerate(zip(got_rows, want_rows), 1):
        g_cells, w_cells = g_row.split(","), w_row.split(",")
        if len(g_cells) != len(w_cells):
            diffs.append(f"{where}:{i}: {g_row!r} != {w_row!r}")
            continue
        diffs += [f"{where}:{i}: {g!r} != {w!r}"
                  for g, w in zip(g_cells, w_cells) if not _cells_same(g, w)]
    return diffs


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """A fresh run of the corpus, made once for this module."""
    outdir = tmp_path_factory.mktemp("golden")
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("ENVDIAG_THREADS", "1")
        make(outdir)
    return outdir


def test_every_output_matches_the_golden_corpus(corpus):
    names = _files(GOLDEN)
    assert _files(corpus) == names
    diffs = []
    for name in names:
        got = (corpus / name).read_text(encoding="utf-8")
        want = (GOLDEN / name).read_text(encoding="utf-8")
        if name.endswith(".json"):
            diffs += _json_diffs(json.loads(got), json.loads(want), name)
        elif name.endswith(".csv"):
            diffs += _csv_diffs(got, want, name)
        elif got != want:
            diffs.append(f"{name}: text differs")
    assert diffs == []


def test_csv_recording_gives_the_raw_recording_s_estimates(corpus):
    def estimates(name):
        return [r["estimates_hz"] for r in json.loads((corpus / name).read_text(encoding="utf-8"))]

    assert estimates("report_csv.json") == estimates("report.json")


def test_csv_recording_holds_the_raw_recording_s_samples(corpus):
    raw, csv = ((corpus / name).read_text(encoding="ascii") for name in SAMPLES.values())
    assert raw.count("\n") == 151
    assert csv == raw
