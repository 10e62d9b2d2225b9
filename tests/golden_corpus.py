"""The golden-output corpus: a fixed list of ``envdiag`` runs and the files they write.

``make(outdir)`` runs every command of ``COMMANDS`` in this process, in
``outdir``, and leaves their files there.  The raw samples of the recording
(1.2 MB) are then removed; their sidecar stays, and every report is made
from them.  ``tests/test_golden.py`` runs ``make`` afresh and compares each
file with the committed copy in ``tests/golden/``.

After a change meant to alter an output, regenerate the corpus from the
root of a checkout, and record the regeneration in CHANGES.md:

    PYTHONPATH=src python tests/golden_corpus.py
"""

from __future__ import annotations

import os
import shlex
import shutil
import sys
from pathlib import Path

from click.testing import CliRunner

from envdiag.cli import main

GOLDEN = Path(__file__).parent / "golden"
RECORDING = "rec.f64"

_CLASSIFY = f"classify -i {RECORDING} --f-theoretical 30"
COMMANDS = (
    # twelve 0.5 s segments whose frequencies vary: the test rejects and the
    # shape comparison runs
    f"simulate --dist normal:30,0.33 --aci 2.5 --seg-len 0.5 --n-segments 12 --seed 11 "
    f"-o {RECORDING}",
    "calibrate --aci-grid 2,3 --seg-grid 0.5,1 --n 4 --seed 2 -o table.json --csv table.csv",
    "calibrate --aci-grid 2,3 --seg-grid 0.5,1 --n 4 --seed 2 --band 1500,3500 "
    "-o table_band.json --csv table_band.csv",
    # 5 Hz bins, so each emitted spectrum has 2,501 rows
    "calibrate --aci-grid 2,3 --seg-grid 1 --n 4 --seed 3 --piece-len 0.2 --zero-pad 1 "
    "-o table_short.json",
    # noiseless signals give equal estimates: the cell's threshold is 0
    "calibrate --aci-grid 2 --seg-grid 0.5 --n 3 --noise-std 0 -o table_zero.json "
    "--csv table_zero.csv",
    f"{_CLASSIFY} --table table.json --seg-lens 0.5,1 -o report.json --text-out report.txt "
    "--emit-estimates estimates.csv --emit-kde kde.csv",
    f"{_CLASSIFY} --table table_band.json --band 1500,3500 --seg-lens 0.5,1 "
    "-o report_band.json --text-out report_band.txt "
    "--emit-estimates estimates_band.csv --emit-kde kde_band.csv",
    f"{_CLASSIFY} --table table_short.json --seg-lens 1 -o report_short.json "
    "--emit-estimates estimates_short.csv --emit-kde kde_short.csv --emit-spectra spectra",
    f"{_CLASSIFY} --table table_zero.json --seg-lens 0.5 -o report_zero.json "
    "--text-out report_zero.txt",
)


def make(outdir) -> None:
    """Run ``COMMANDS`` in ``outdir``; raises on the first command that fails."""
    here = os.getcwd()
    os.chdir(outdir)
    try:
        for command in COMMANDS:
            result = CliRunner().invoke(main, shlex.split(command))
            if result.exit_code != 0:
                raise RuntimeError(f"envdiag {command} exited with {result.exit_code}: "
                                   f"{result.output}")
        os.remove(RECORDING)
    finally:
        os.chdir(here)


if __name__ == "__main__":
    shutil.rmtree(GOLDEN, ignore_errors=True)
    GOLDEN.mkdir()
    make(GOLDEN)
    print(f"wrote {sum(1 for p in GOLDEN.rglob('*') if p.is_file())} files -> {GOLDEN}",
          file=sys.stderr)
