"""Command-line front end.

Exit codes: 0 on success, 1 when the analysis itself fails, 2 for usage or
I/O problems.  Every randomized command accepts ``--seed`` and is fully
reproducible under it; ENVDIAG_THREADS caps internal parallelism.
"""

from __future__ import annotations

import functools
import json
import os
import sys

import click

from . import stats
from ._parallel import keep_heap
from .calibrate import (
    DEFAULT_ACI_GRID,
    DEFAULT_N_SIGNALS,
    DEFAULT_SEG_GRID,
    ThresholdTable,
    build_table,
)
from .classify import ClassificationReport, ClassifyConfig, classify_signal
from .envspec import WINDOWS, SpectrumConfig, envelope_spectrum
from .errors import EnvDiagError, ParameterError, SignalFormatError
from .faultfreq import EstimatorConfig, estimate_per_segment, iter_segments
from .sigio import (
    FORMATS,
    read_signal,
    write_estimates_csv,
    write_kde_csv,
    write_signal_arrays,
    write_spectrum_csv,
)
from .sigmodel import (
    DEFAULT_FAULT_FREQ,
    DEFAULT_FS,
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
        except (ParameterError, SignalFormatError) as exc:
            _fail(EXIT_USAGE_IO, str(exc))
        except OSError as exc:
            _fail(EXIT_USAGE_IO, str(exc))
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


# The two option groups below hand the command one built config in place of
# their raw values.  Their configs are built outside the command function, so
# each command puts handle_errors directly under @main.command: a bad value
# then still exits 2.


def spectrum_options(fn):
    """Add the envelope-spectrum options; the command receives ``spec_cfg``."""

    @functools.wraps(fn)
    def wrapper(*args, band, window, zero_pad, piece_len, **kwargs):
        spec_cfg = SpectrumConfig(bandpass=_parse_band(band), window=window,
                                  zero_pad_factor=zero_pad, piece_len_s=piece_len)
        return fn(*args, spec_cfg=spec_cfg, **kwargs)

    wrapper = click.option("--band", default=None,
                           help="Bandpass LO,HI in Hz before demodulation, or 'none'.")(wrapper)
    wrapper = click.option("--window", default="hann", show_default=True,
                           type=click.Choice(tuple(WINDOWS)),
                           help="Taper for the Welch pieces.")(wrapper)
    wrapper = click.option("--zero-pad", default=4, show_default=True, type=int,
                           help="Zero-padding factor of the PSD pieces.")(wrapper)
    wrapper = click.option("--piece-len", default=0.5, show_default=True, type=float,
                           help="Welch piece duration in seconds; fixed across segment "
                                "lengths so that calibrated thresholds stay comparable.")(wrapper)
    return wrapper


def estimator_options(fn):
    """Add the peak-search options; the command receives ``est_cfg``.

    The search centres on the command's ``--f-theoretical`` when it has
    one, and on the simulated fault frequency otherwise.
    """

    @functools.wraps(fn)
    def wrapper(*args, n_harmonics, search_frac, peak_excl_bins,
                f_theoretical=DEFAULT_FAULT_FREQ, **kwargs):
        est_cfg = EstimatorConfig(f_theoretical=f_theoretical, n_harmonics=n_harmonics,
                                  search_frac=search_frac, peak_excl_bins=peak_excl_bins)
        return fn(*args, est_cfg=est_cfg, **kwargs)

    wrapper = click.option("--n-harmonics", default=3, show_default=True, type=int)(wrapper)
    wrapper = click.option("--search-frac", default=0.18, show_default=True, type=float,
                           help="Half-width of the harmonic search window, relative.")(wrapper)
    wrapper = click.option("--peak-excl-bins", default=2, show_default=True, type=int,
                           help="Bins excluded around each peak in the SNR noise "
                                "average.")(wrapper)
    return wrapper


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
@click.option("--fc", default=2500.0, show_default=True, type=float)
@click.option("--noise-std", default=1.0, show_default=True, type=float)
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--format", "fmt", default="raw-f64le", show_default=True,
              type=click.Choice(FORMATS))
@click.option("-o", "--out", required=True, type=click.Path())
def cmd_simulate(dist_text, aci, seg_len, n_segments, fs, fc, noise_std, seed, fmt, out):
    """Synthesize a segmented test signal with a ground-truth sidecar.

    Each segment is written to the output as soon as it is made and only
    its true frequency is kept, so memory holds one segment whatever
    --n-segments is.  A failed segment leaves no output behind.
    """
    dist = DistributionSpec.parse(dist_text)
    pulse = PulseParams(aci=aci, fc=fc)
    if n_segments < 1:
        raise ParameterError("--n-segments must be >= 1")
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
        "pulse": {"aci": aci, "fc": fc, "bw_lo": pulse.bw_lo, "bw_hi": pulse.bw_hi,
                  "bwr": pulse.bwr},
        "noise_std": noise_std,
        "seg_len_s": seg_len,
        "n_segments": n_segments,
        # filled while the segments are written, and serialized after the last
        "f_true_hz": truth,
    }
    n = write_signal_arrays(out, segments(), fs, fmt, sidecar)
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
@click.option("--fc", default=2500.0, show_default=True, type=float)
@click.option("--noise-std", default=1.0, show_default=True, type=float)
@click.option("--seed", default=0, show_default=True, type=int)
@spectrum_options
@estimator_options
@click.option("-o", "--out", required=True, type=click.Path(),
              help="Threshold table JSON output.")
@click.option("--csv", "csv_out", default=None, type=click.Path(),
              help="Also write the threshold matrix as CSV.")
def cmd_calibrate(aci_grid, seg_grid, n, fs, fc, noise_std, seed, spec_cfg, est_cfg, out,
                  csv_out):
    """Build the Monte-Carlo threshold table."""
    table = build_table(
        aci_list=_parse_grid(aci_grid),
        seg_len_list=_parse_grid(seg_grid),
        n=n,
        fs=fs,
        master_seed=seed,
        spec_cfg=spec_cfg,
        est_cfg=est_cfg,
        pulse=PulseParams(aci=1.0, fc=fc),
        noise_std=noise_std,
    )
    table.save(out)
    if csv_out:
        with open(csv_out, "w", encoding="ascii") as fh:
            fh.write(table.to_csv_matrix())
    click.echo(f"calibrated {len(table.entries)} cells (n={n} each) -> {out}")


def _load_input_signal(path, fmt, fs):
    signal, meta = read_signal(path, fmt=fmt, fs=fs)
    if fs is not None and meta.get("fs") not in (None, fs):
        click.echo(
            f"warning: overriding sidecar fs={meta['fs']:g} Hz with --fs {fs:g} Hz",
            err=True,
        )
    return signal, meta


def _report_text(reports: list[ClassificationReport]) -> str:
    lines = ["segment length | below threshold -> constant | chi-squared | classification"]
    for rep in reports:
        lines.append(rep.summary_line())
    return "\n".join(lines) + "\n"


@main.command("classify")
@handle_errors
@click.option("-i", "--input", "in_path", required=True, type=click.Path())
@click.option("--table", "table_path", required=True, type=click.Path(),
              help="Threshold table JSON from 'envdiag calibrate'.")
@click.option("--f-theoretical", required=True, type=float,
              help="Theoretical fault frequency of the recording, Hz.")
@click.option("--seg-lens", required=True,
              help="Comma-separated segment lengths (s); one report per length.")
@click.option("--alpha", default=0.05, show_default=True, type=float)
@click.option("--fs", default=None, type=float, help="Override the sidecar sample rate.")
@click.option("--format", "fmt", default=None, type=click.Choice(FORMATS))
@click.option("--paper-rescale", is_flag=True,
              help="Apply the literal (f_real/f_simul)^2 variance factor instead of "
                   "normalizing onto the simulated scale.")
@spectrum_options
@estimator_options
@click.option("-o", "--out", required=True, type=click.Path(), help="Report JSON output.")
@click.option("--text-out", default=None, type=click.Path(),
              help="Also write the human-readable decision table.")
@click.option("--emit-spectra", default=None, type=click.Path(),
              help="Directory for per-segment envelope-spectrum CSVs (first length only).")
@click.option("--emit-kde", default=None, type=click.Path(),
              help="CSV with the KDE of the estimates (first length only).")
@click.option("--emit-estimates", default=None, type=click.Path(),
              help="CSV with per-segment estimates (first length only).")
def cmd_classify(in_path, table_path, seg_lens, alpha, fs, fmt, paper_rescale, spec_cfg,
                 est_cfg, out, text_out, emit_spectra, emit_kde, emit_estimates):
    """Classify the fault-frequency behaviour of a recorded signal."""
    table = ThresholdTable.load(table_path)
    signal, _ = _load_input_signal(in_path, fmt, fs)
    reports = []
    for seg_len in _parse_grid(seg_lens):
        cfg = ClassifyConfig(estimator=est_cfg, seg_len=seg_len, alpha=alpha,
                             spectrum=spec_cfg, paper_rescale=paper_rescale)
        reports.append(classify_signal(signal, cfg, table))
    with open(out, "w", encoding="utf-8") as fh:
        json.dump([r.to_json_dict() for r in reports], fh, indent=2, sort_keys=True)
        fh.write("\n")
    text = _report_text(reports)
    if text_out:
        with open(text_out, "w", encoding="utf-8") as fh:
            fh.write(text)
    click.echo(text, nl=False)

    first_len = reports[0].seg_len
    if emit_estimates or emit_kde:
        # the same segments as the first report, which skipped the same failures
        indices, estimates, _ = estimate_per_segment(signal, first_len, spec_cfg, est_cfg)
        if emit_estimates:
            write_estimates_csv(emit_estimates, estimates, first_len, indices)
        if emit_kde:
            f_hats = [e.f_hat for e in estimates]
            try:
                curve = stats.kde(f_hats)
            except EnvDiagError:
                click.echo("estimates are a point mass; writing no KDE curve", err=True)
            else:
                write_kde_csv(emit_kde, curve, f_hats)
    if emit_spectra:
        os.makedirs(emit_spectra, exist_ok=True)
        for idx, seg in enumerate(iter_segments(signal, first_len)):
            write_spectrum_csv(os.path.join(emit_spectra, f"segment_{idx:04d}.csv"),
                               envelope_spectrum(seg, spec_cfg))


@main.command("spectrum")
@handle_errors
@click.option("-i", "--input", "in_path", required=True, type=click.Path())
@click.option("--fs", default=None, type=float)
@click.option("--format", "fmt", default=None, type=click.Choice(FORMATS))
@spectrum_options
@click.option("-o", "--out", required=True, type=click.Path())
def cmd_spectrum(in_path, fs, fmt, spec_cfg, out):
    """Write the envelope spectrum of a whole recording as CSV."""
    signal, _ = _load_input_signal(in_path, fmt, fs)
    write_spectrum_csv(out, envelope_spectrum(signal, spec_cfg))
    click.echo(f"wrote envelope spectrum -> {out}")


@main.command("kde")
@handle_errors
@click.option("-i", "--input", "in_path", required=True, type=click.Path())
@click.option("--f-theoretical", required=True, type=float)
@click.option("--seg-len", required=True, type=float)
@click.option("--fs", default=None, type=float)
@click.option("--format", "fmt", default=None, type=click.Choice(FORMATS))
@spectrum_options
@estimator_options
@click.option("-o", "--out", required=True, type=click.Path())
def cmd_kde(in_path, seg_len, fs, fmt, spec_cfg, est_cfg, out):
    """Estimate per segment and write the KDE of the estimates as CSV.

    Failed segments are skipped with a warning as in classify, up to 20 % of
    them; with more, or with fewer than 2 segments, the command exits 1.
    """
    signal, _ = _load_input_signal(in_path, fmt, fs)
    _, estimates, warnings = estimate_per_segment(signal, seg_len, spec_cfg, est_cfg)
    for warning in warnings:
        click.echo(f"warning: {warning}", err=True)
    f_hats = [e.f_hat for e in estimates]
    try:
        curve = stats.kde(f_hats)
    except EnvDiagError:
        click.echo(
            f"all {len(f_hats)} estimates equal {f_hats[0]:g} Hz (point mass); no curve",
            err=True,
        )
        sys.exit(EXIT_ANALYSIS)
    write_kde_csv(out, curve, f_hats)
    click.echo(f"wrote KDE of {len(f_hats)} estimates -> {out}")


if __name__ == "__main__":
    main()
