"""Signal and result file I/O.

Signals travel either as CSV (one float per line) or as raw little-endian
64-bit floats; both carry a JSON sidecar (``<file>.json``) recording the
sample rate, the sample count ``n`` and, for simulated data, the generation
parameters and the ground-truth frequency of every segment.  A signal is
written one array at a time, so a long recording never has to sit in
memory whole; on read, a sidecar's ``n`` must match the samples found, so
a cut file or a stale sidecar is an error rather than a shorter signal.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from .envspec import EnvelopeSpectrum
from .errors import ParameterError, SignalFormatError
from .faultfreq import FaultFrequencyEstimate
from .sigmodel import Signal
from .stats import KdeCurve, normal_pdf, uniform_pdf

FORMAT_CSV = "csv"
FORMAT_RAW = "raw-f64le"
FORMATS = (FORMAT_CSV, FORMAT_RAW)


def sidecar_path(path: str) -> str:
    return str(path) + ".json"


def infer_format(path: str) -> str:
    ext = os.path.splitext(str(path))[1].lower()
    if ext in (".csv", ".txt"):
        return FORMAT_CSV
    return FORMAT_RAW


def write_signal(path, signal: Signal, fmt: str | None = None, sidecar: dict | None = None) -> None:
    """Write samples plus a JSON sidecar with at least the sample rate."""
    write_signal_arrays(path, [signal.samples], signal.fs, fmt, sidecar)


def write_signal_arrays(path, arrays, fs: float, fmt: str | None = None,
                        sidecar: dict | None = None) -> int:
    """Write the samples of ``arrays``, in order, as one signal; return their count.

    ``arrays`` may be a generator: each array is written as soon as it is
    drawn, and ``sidecar`` is serialized only after the last one, so values
    the generator fills in along the way reach the sidecar.  Samples and
    sidecar go to temporary files beside ``path`` and replace the outputs,
    samples first, only once both are complete: an error on any array leaves
    no output behind and an existing one untouched.
    """
    fmt = fmt or infer_format(path)
    if fmt not in FORMATS:
        raise ParameterError(f"unknown signal format {fmt!r}")
    outputs = (str(path), sidecar_path(path))
    # the process id keeps concurrent writers of one path apart; mode "x"
    # creates the files with the umask's permissions, as a plain open would
    temps = [f"{out}.{os.getpid()}.tmp" for out in outputs]
    try:
        n = 0
        with open(temps[0], "xb") as fh:
            for samples in arrays:
                if fmt == FORMAT_CSV:
                    # 17 significant digits round-trip any float64
                    np.savetxt(fh, samples, fmt="%.17g")
                else:
                    samples.astype("<f8", copy=False).tofile(fh)
                n += len(samples)
        meta = {"fs": fs, "n": n, "format": fmt}
        if sidecar:
            meta.update(sidecar)
        with open(temps[1], "x", encoding="utf-8") as fh:
            json.dump(meta, fh, indent=2, sort_keys=True)
            fh.write("\n")
        for temp, out in zip(temps, outputs):
            os.replace(temp, out)
    except BaseException:
        for temp in temps:
            if os.path.exists(temp):
                os.remove(temp)
        raise
    return n


def _read_csv_samples(path) -> np.ndarray:
    values = []
    with open(path, encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text:
                continue
            try:
                values.append(float(text))
            except ValueError:
                raise SignalFormatError(
                    f"{path}: line {lineno} is not a number: {text!r}"
                ) from None
    if not values:
        raise SignalFormatError(f"{path}: no samples found")
    return np.asarray(values)


def read_signal(path, fmt: str | None = None, fs: float | None = None) -> tuple[Signal, dict]:
    """Read a signal file; the sample rate comes from the sidecar unless given.

    Returns the signal and the sidecar dictionary (empty when absent).  An
    explicit ``fs`` overrides the sidecar value; the caller is expected to
    warn the user about the override.
    """
    fmt = fmt or infer_format(path)
    meta: dict = {}
    sc = sidecar_path(path)
    if os.path.exists(sc):
        with open(sc, encoding="utf-8") as fh:
            try:
                meta = json.load(fh)
            except ValueError as exc:  # bad JSON or bad UTF-8
                raise SignalFormatError(f"{sc}: malformed sidecar: {exc}") from None
        if not isinstance(meta, dict):
            raise SignalFormatError(f"{sc}: sidecar is not a JSON object")
        side_fs = meta.get("fs")
        # checked even when the caller passes fs, since callers print this value
        if side_fs is not None and (
            type(side_fs) not in (int, float) or not math.isfinite(side_fs)
        ):
            raise SignalFormatError(f"{sc}: fs is not a finite number: {side_fs!r}")
    if fs is None:
        fs = meta.get("fs")
    if fs is None:
        raise SignalFormatError(f"{path}: sample rate unknown; pass fs or provide a sidecar")
    if fmt == FORMAT_CSV:
        samples = _read_csv_samples(path)
    elif fmt == FORMAT_RAW:
        size = os.path.getsize(path)
        if size == 0:
            raise SignalFormatError(f"{path}: empty raw signal file")
        if size % 8:
            raise SignalFormatError(
                f"{path}: {size} bytes is not a whole number of 8-byte samples"
            )
        samples = np.fromfile(path, dtype="<f8")
    else:
        raise ParameterError(f"unknown signal format {fmt!r}")
    side_n = meta.get("n")
    if side_n is not None and (type(side_n) is not int or side_n != samples.size):
        raise SignalFormatError(
            f"{path}: {samples.size} samples read, but its sidecar says n = {side_n!r}"
        )
    return Signal(samples, float(fs)), meta


def _write_columns(path, header: str, columns) -> None:
    np.savetxt(path, np.column_stack(columns), fmt="%.10g", delimiter=",", header=header,
               comments="")


def write_spectrum_csv(path, spec: EnvelopeSpectrum) -> None:
    _write_columns(path, "freq_hz,amplitude", (spec.freqs, spec.amps))


def write_estimates_csv(path, estimates: list[FaultFrequencyEstimate], seg_len: float,
                        indices: list[int]) -> None:
    """One row per estimate; ``indices`` are their segment numbers."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("segment_index,t_start_s,f_hat_hz,snr,peak1_hz,peak2_hz,peak3_hz\n")
        for i, est in zip(indices, estimates, strict=True):
            peaks = {p.order: p.freq for p in est.peaks}
            cols = [
                str(i),
                f"{i * seg_len:.10g}",
                f"{est.f_hat:.10g}",
                f"{est.snr:.10g}",
            ] + [f"{peaks[k]:.10g}" if k in peaks else "" for k in (1, 2, 3)]
            fh.write(",".join(cols) + "\n")


def write_kde_csv(path, curve: KdeCurve, samples) -> None:
    """KDE curve plus fitted uniform/normal overlays for plotting."""
    samples = np.asarray(samples, dtype=np.float64)
    uniform = uniform_pdf(curve.grid, samples.min(), samples.max())
    normal = normal_pdf(curve.grid, samples.mean(), np.std(samples, ddof=1))
    _write_columns(path, "grid,density,uniform_pdf,normal_pdf",
                   (curve.grid, curve.density, uniform, normal))
