"""Command-line front end.

Exit codes:

- 0 on success;
- 1 when the analysis itself fails;
- 2 for usage or I/O problems, among them a threshold table without a
  cell at a segment length ``classify`` was asked for, a length asked for
  twice (within ``calibrate.same_length``), a recording with a non-finite
  sample, a CSV recording that is not ASCII text, an output file in a
  directory that does not exist, an output path that is a directory or an
  --emit-spectra path that is or lies under a file (found before any work),
  and an input too large for memory (``MemoryError``, reported with the
  allocation that failed).

A recording is read in the format its sidecar's ``format`` records, else
in the one its file name names: ``.csv`` and ``.txt`` are CSV text, one
sample per line, and any other name raw little-endian float64.
``simulate`` writes the format its ``-o`` name names, and its sidecar
records it.

Only ``calibrate`` sets the envelope-spectrum and peak-search settings;
``classify`` reads them from the threshold table it is given.

Every randomized command accepts ``--seed`` and is fully reproducible
under it; ENVDIAG_THREADS caps internal parallelism.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import sys

import click

from . import stats
from ._parallel import keep_heap
from .calibrate import (
    DEFAULT_ACI_GRID,
    DEFAULT_ESTIMATOR,
    DEFAULT_N_SIGNALS,
    DEFAULT_SEG_GRID,
    DEFAULT_SPECTRUM,
    ThresholdTable,
    build_table,
    same_length,
)
from .classify import ClassifyConfig, analysis_settings, classify_signal, decision_table
from .envspec import SpectrumConfig, envelope_spectrum
from .errors import (
    EnvDiagError,
    EstimationError,
    ParameterError,
    SignalFormatError,
    TableMismatchError,
    whole_number,
)
from .faultfreq import EstimatorConfig, estimate_or_error, iter_segments
from .sigio import (
    read_signal,
    sidecar_path,
    write_estimates_csv,
    write_json,
    write_kde_csv,
    write_signal_arrays,
    write_spectrum_csv,
)
from .sigmodel import (
    DEFAULT_FAULT_FREQ,
    DEFAULT_FS,
    DEFAULT_NOISE_STD,
    PULSE_LAW,
    DistributionSpec,
    PulseParams,
    SeedSpec,
    simulate_signal,
)

EXIT_ANALYSIS = 1
EXIT_USAGE_IO = 2


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def handle_errors(fn):
    """Map library exceptions onto the documented exit codes."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (ParameterError, SignalFormatError, TableMismatchError, OSError) as exc:
            _fail(EXIT_USAGE_IO, str(exc))
        except MemoryError as exc:
            _fail(EXIT_USAGE_IO, str(exc) or "out of memory")
        except EnvDiagError as exc:
            _fail(EXIT_ANALYSIS, str(exc))

    return wrapper


def _parse_band(text: str | None):
    if text is None or text.lower() == "none":
        return None
    try:
        lo, hi = (float(tok) for tok in text.split(","))
    except ValueError:
        raise ParameterError(f"malformed band {text!r}; expected LO,HI or 'none'") from None
    return (lo, hi)


def _parse_grid(text: str):
    try:
        return tuple(float(tok) for tok in text.split(","))
    except ValueError:
        raise ParameterError(f"malformed list {text!r}") from None


def _check_output_dirs(*paths) -> None:
    """Raise ParameterError naming the first of ``paths`` whose directory does
    not exist or that is a directory; a None path, an output not asked for, is
    passed over."""
    for path in filter(None, paths):
        if not os.path.isdir(os.path.dirname(path) or "."):
            raise ParameterError(f"{path}: directory {os.path.dirname(path)!r} does not exist")
        if os.path.isdir(path):
            raise ParameterError(f"{path}: is a directory")


def _check_makeable_dir(path) -> None:
    """Raise ParameterError unless the directory ``path`` exists or can be made:
    the nearest of it and its parents that exists must be a directory."""
    existing = path
    while existing and not os.path.exists(existing):
        existing = os.path.dirname(existing)
    if existing and not os.path.isdir(existing):
        raise ParameterError(f"{path}: {existing!r} is not a directory")


band_option = click.option("--band", default=None,
                           help="Bandpass LO,HI in Hz before demodulation, or 'none'.")


@click.group()
def main():
    """Fault-frequency variation diagnosis in envelope spectra."""
    keep_heap()


@main.command("simulate")
@handle_errors
@click.option("--dist", "dist_text", required=True,
              help="Fault-frequency law, e.g. constant:30, uniform:29,31 or normal:30,0.33.")
@click.option("--aci", required=True, type=float, help="Amplitude of the cyclic impulses.")
@click.option("--seg-len", required=True, type=float, help="Segment duration in seconds.")
@click.option("--n-segments", default=1, show_default=True, type=int,
              help="Independent segments, each with its own frequency draw; each is "
                   "written as it is made, so memory does not grow with their number.")
@click.option("--fs", default=DEFAULT_FS, show_default=True, type=float)
@click.option("--fc", default=PulseParams.fc, show_default=True, type=float)
@click.option("--noise-std", default=DEFAULT_NOISE_STD, show_default=True, type=float)
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("-o", "--out", required=True, type=click.Path(),
              help="Recording output: CSV text if named .csv or .txt, else raw float64.")
def cmd_simulate(dist_text, aci, seg_len, n_segments, fs, fc, noise_std, seed, out):
    """Synthesize a segmented test signal with a ground-truth sidecar.

    Each segment is written to the output as soon as it is made and only
    its true frequency is kept, so memory holds one segment whatever
    --n-segments is.  A failed segment leaves no output behind.
    """
    _check_output_dirs(out, sidecar_path(out))
    dist = DistributionSpec.parse(dist_text)
    pulse = PulseParams(aci=aci, fc=fc)
    n_segments = whole_number(n_segments, 1, "--n-segments must be >= 1")
    seeds = SeedSpec(seed)
    truth = []

    def segments():
        for i in range(n_segments):
            sig, f_true = simulate_signal(seg_len, fs, dist, pulse, seeds.sequence(i), noise_std)
            truth.append(f_true)
            yield sig.samples

    sidecar = {
        "seed": seed,
        "dist": dist.spec_string(),
        "pulse": {**dataclasses.asdict(pulse), **PULSE_LAW},
        "noise_std": noise_std,
        "seg_len_s": seg_len,
        "n_segments": n_segments,
        # filled while the segments are written, and serialized after the last
        "f_true_hz": truth,
    }
    n = write_signal_arrays(out, segments(), fs, sidecar)
    click.echo(f"wrote {n_segments} segment(s), {n / fs:g} s at {fs:g} Hz -> {out}")


@main.command("calibrate")
@handle_errors
@click.option("--aci-grid", default=",".join(str(a) for a in DEFAULT_ACI_GRID),
              show_default=True, help="Comma-separated impulse amplitudes.")
@click.option("--seg-grid", default=",".join(str(s) for s in DEFAULT_SEG_GRID),
              show_default=True, help="Comma-separated segment lengths in seconds.")
@click.option("--n", default=DEFAULT_N_SIGNALS, show_default=True, type=int,
              help="Simulated signals per cell.")
@click.option("--fs", default=DEFAULT_FS, show_default=True, type=float)
@click.option("--fc", default=PulseParams.fc, show_default=True, type=float)
@click.option("--noise-std", default=DEFAULT_NOISE_STD, show_default=True, type=float)
@click.option("--seed", default=0, show_default=True, type=int)
@band_option
@click.option("--zero-pad", default=DEFAULT_SPECTRUM.zero_pad_factor, show_default=True, type=int,
              help="Zero-padding factor of the Hann-tapered PSD pieces.")
@click.option("--piece-len", default=DEFAULT_SPECTRUM.piece_len_s, show_default=True, type=float,
              help="Welch piece duration in seconds; fixed across segment lengths so that "
                   "calibrated thresholds stay comparable.")
@click.option("--n-harmonics", default=DEFAULT_ESTIMATOR.n_harmonics, show_default=True, type=int)
@click.option("--search-frac", default=DEFAULT_ESTIMATOR.search_frac, show_default=True,
              type=float, help="Half-width of the harmonic search window, relative.")
@click.option("--peak-excl-bins", default=DEFAULT_ESTIMATOR.peak_excl_bins, show_default=True,
              type=int, help="Bins excluded around each peak in the SNR noise average.")
@click.option("-o", "--out", required=True, type=click.Path(),
              help="Threshold table JSON output.")
@click.option("--csv", "csv_out", default=None, type=click.Path(),
              help="Also write the threshold matrix as CSV.")
def cmd_calibrate(aci_grid, seg_grid, n, fs, fc, noise_std, seed, band, zero_pad, piece_len,
                  n_harmonics, search_frac, peak_excl_bins, out, csv_out):
    """Build the Monte-Carlo threshold table; it stores the analysis settings."""
    _check_output_dirs(out, csv_out)
    table = build_table(
        aci_list=_parse_grid(aci_grid),
        seg_len_list=_parse_grid(seg_grid),
        n=n,
        fs=fs,
        master_seed=seed,
        spec_cfg=SpectrumConfig(bandpass=_parse_band(band), zero_pad_factor=zero_pad,
                                piece_len_s=piece_len),
        est_cfg=EstimatorConfig(f_theoretical=DEFAULT_FAULT_FREQ, n_harmonics=n_harmonics,
                                search_frac=search_frac, peak_excl_bins=peak_excl_bins),
        pulse=PulseParams(aci=1.0, fc=fc),
        noise_std=noise_std,
    )
    table.save(out)
    if csv_out:
        with open(csv_out, "w", encoding="ascii") as fh:
            fh.write(table.to_csv_matrix())
    click.echo(f"calibrated {len(table.entries)} cells (n={n} each) -> {out}")


@main.command("classify")
@handle_errors
@click.option("-i", "--input", "in_path", required=True, type=click.Path())
@click.option("--table", "table_path", required=True, type=click.Path(),
              help="Threshold table JSON from 'envdiag calibrate'.")
@click.option("--f-theoretical", required=True, type=float,
              help="Theoretical fault frequency of the recording, Hz.")
@click.option("--seg-lens", required=True,
              help="Comma-separated segment lengths (s); one report per length.")
@click.option("--alpha", default=stats.DEFAULT_ALPHA, show_default=True, type=float)
@click.option("--fs", default=None, type=float, help="Override the sidecar sample rate.")
@click.option("--paper-rescale", is_flag=True,
              help="Apply the literal (f_real/f_simul)^2 variance factor instead of "
                   "normalizing onto the simulated scale.")
@band_option
@click.option("-o", "--out", required=True, type=click.Path(), help="Report JSON output.")
@click.option("--text-out", default=None, type=click.Path(),
              help="Also write the human-readable decision table.")
@click.option("--emit-spectra", default=None, type=click.Path(),
              help="Directory for per-segment envelope-spectrum CSVs (first length only).")
@click.option("--emit-kde", default=None, type=click.Path(),
              help="CSV with the KDE of the estimates (first length only).")
@click.option("--emit-estimates", default=None, type=click.Path(),
              help="CSV with per-segment estimates (first length only).")
def cmd_classify(in_path, table_path, f_theoretical, seg_lens, alpha, fs, paper_rescale, band,
                 out, text_out, emit_spectra, emit_kde, emit_estimates):
    """Classify the fault-frequency behaviour of a recorded signal.

    The envelope-spectrum and peak-search settings (zero padding, piece
    length, harmonics, search width and peak exclusion) are read from
    the threshold table, so the recording is analysed as the table was
    calibrated; set them with 'envdiag calibrate'.  --band and
    --f-theoretical belong to the recording and are given here; a --band
    other than the table's puts a warning in each report.  A table
    without a cell at one of the --seg-lens exits 2 before the recording
    is read.

    A raw recording is read one segment at a time, in one pass per segment
    length, so memory does not grow with its length; a CSV recording is
    parsed whole.  With ENVDIAG_THREADS > 1 the worker pool still holds the
    samples of one segment length while it runs.
    """
    _check_output_dirs(out, text_out, emit_estimates, emit_kde)
    _check_makeable_dir(emit_spectra)
    band = _parse_band(band)
    table = ThresholdTable.load(table_path)
    cfgs = [ClassifyConfig(f_theoretical, seg_len, alpha, band, paper_rescale)
            for seg_len in _parse_grid(seg_lens)]
    for i, cfg in enumerate(cfgs):
        if any(same_length(c.seg_len, cfg.seg_len) for c in cfgs[:i]):
            raise ParameterError(f"--seg-lens names the segment length {cfg.seg_len!r} s twice")
        table.entries_at(cfg.seg_len)  # raises before the recording is read
    recording, meta = read_signal(in_path, fs=fs)
    if fs is not None and meta.get("fs") not in (None, fs):
        click.echo(f"warning: overriding sidecar fs={meta['fs']:g} Hz with --fs {fs:g} Hz",
                   err=True)
    reports = [classify_signal(recording, cfg, table) for cfg in cfgs]
    write_json(out, [r.to_json_dict() for r in reports])
    text = decision_table(reports)
    if text_out:
        with open(text_out, "w", encoding="utf-8") as fh:
            fh.write(text)
    click.echo(text, nl=False)

    first_len = reports[0].seg_len
    spec_cfg, est_cfg = analysis_settings(table, cfgs[0])
    if emit_estimates:
        # the segments the first report kept: classify_signal applied the
        # skip policy to these same estimates
        rows = ((i, start / recording.fs, estimate_or_error(seg, spec_cfg, est_cfg))
                for i, (start, seg) in enumerate(iter_segments(recording, first_len)))
        write_estimates_csv(emit_estimates,
                            [r for r in rows if not isinstance(r[2], EstimationError)])
    if emit_kde:
        f_hats = reports[0].estimates
        try:
            curve = stats.kde(f_hats)
        except EnvDiagError:
            click.echo("estimates are a point mass; writing no KDE curve", err=True)
        else:
            write_kde_csv(emit_kde, curve, f_hats)
    if emit_spectra:
        os.makedirs(emit_spectra, exist_ok=True)
        for idx, (_, seg) in enumerate(iter_segments(recording, first_len)):
            write_spectrum_csv(os.path.join(emit_spectra, f"segment_{idx:04d}.csv"),
                               envelope_spectrum(seg, spec_cfg))


if __name__ == "__main__":
    main()
