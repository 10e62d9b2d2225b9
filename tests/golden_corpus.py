"""The golden-output corpus: a fixed list of ``envdiag`` runs and the files they write.

``make(outdir)`` runs every command of ``COMMANDS``, which exit 0, and of
``FAILING``, which exit 2, in this process, in ``outdir``, and leaves their
files there.  ``RUNS`` logs each run's command, exit code, stdout and
stderr.  The samples of the recording, written raw (1.2 MB) and as CSV,
are then removed; their sidecars stay, every report is made from them,
and every ``SAMPLE_STEP``-th sample of each, as ``read_signal`` reads it,
stays in the CSV that ``SAMPLES`` names.  ``tests/test_golden.py`` runs
``make`` afresh and compares each file with the committed copy in
``tests/golden/``.

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
from envdiag.sigio import read_signal

GOLDEN = Path(__file__).parent / "golden"
RECORDING = "rec.f64"
CSV_RECORDING = "rec.csv"
RUNS = "runs.txt"
SAMPLE_STEP = 1000
# recording -> the CSV of every SAMPLE_STEP-th sample that stays in its place
SAMPLES = {RECORDING: "samples_f64.csv", CSV_RECORDING: "samples_csv.csv"}

_CLASSIFY = f"classify -i {RECORDING} --f-theoretical 30"
# twelve 0.5 s segments whose frequencies vary: the test rejects and the
# shape comparison runs
_SIMULATE = "simulate --dist normal:30,0.33 --aci 2.5 --seg-len 0.5 --n-segments 12 --seed 11"
COMMANDS = (
    f"{_SIMULATE} -o {RECORDING}",
    # the same samples as CSV text, which classifies to the same estimates
    f"{_SIMULATE} -o {CSV_RECORDING}",
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
    f"classify -i {CSV_RECORDING} --f-theoretical 30 --table table.json --seg-lens 0.5,1 "
    "-o report_csv.json",
    f"{_CLASSIFY} --table table.json --seg-lens 0.5,1 --paper-rescale --alpha 0.1 "
    "-o report_paper.json --text-out report_paper.txt",
)
# usage errors: each exits 2 with its message and writes nothing
FAILING = (
    f"{_CLASSIFY} --table table.json --seg-lens 0.5,2 -o report_missing.json",
    "calibrate --aci-grid 2 --seg-grid 0.5 --n 1 -o table_n1.json",
)


def make(outdir) -> None:
    """Run ``COMMANDS`` and ``FAILING`` in ``outdir``; raises on the first run
    whose exit code is not the expected one."""
    here = os.getcwd()
    os.chdir(outdir)
    try:
        log = []
        for command, code in [(c, 0) for c in COMMANDS] + [(c, 2) for c in FAILING]:
            result = CliRunner().invoke(main, shlex.split(command))
            if result.exit_code != code:
                raise RuntimeError(f"envdiag {command} exited with {result.exit_code}, "
                                   f"not {code}: {result.output}")
            log.append(f"$ envdiag {command}\nexit {result.exit_code}\n"
                       f"--- stdout\n{result.stdout}--- stderr\n{result.stderr}\n")
        with open(RUNS, "w", encoding="utf-8") as fh:
            fh.write("".join(log))
        for recording, name in SAMPLES.items():
            signal, _ = read_signal(recording)
            samples = signal.read(0, len(signal)).samples[::SAMPLE_STEP]
            with open(name, "w", encoding="ascii") as fh:
                fh.write("index,sample\n")
                fh.writelines(f"{i * SAMPLE_STEP},{x:.17g}\n" for i, x in enumerate(samples))
            os.remove(recording)
    finally:
        os.chdir(here)


if __name__ == "__main__":
    shutil.rmtree(GOLDEN, ignore_errors=True)
    GOLDEN.mkdir()
    make(GOLDEN)
    print(f"wrote {sum(1 for p in GOLDEN.rglob('*') if p.is_file())} files -> {GOLDEN}",
          file=sys.stderr)
