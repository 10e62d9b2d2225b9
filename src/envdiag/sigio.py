"""Signal and result file I/O.

Signals travel either as CSV (one float per line) or as raw little-endian
64-bit floats; both carry a JSON sidecar (``<file>.json``) recording the
sample rate, the sample count ``n``, the format and, for simulated data,
the generation parameters and the ground-truth frequency of every
segment.  The format rule has its one home here: a signal is written in
the format its file name names (``infer_format``: ``.csv`` and ``.txt``
are CSV, any other name raw), and read in the format its sidecar
records, else in the one its name names.  Tables, reports and sidecars
share one JSON layout, ``write_json``.

A signal is written one array at a time, so a long recording never has
to sit in memory whole; on read, a sidecar's ``n`` must match the
samples found, so a cut file or a stale sidecar is an error rather than
a shorter signal.

Raw input is read one segment at a time: ``read_signal`` checks the file
and returns a ``RawRecording``, whose ``read(start, count)`` opens the file
and reads just that span, so memory does not grow with the recording's
length.  CSV input is parsed whole into a ``Signal``.
"""

from __future__ import annotations

import array
import json
import math
import os

import numpy as np

from .envspec import EnvelopeSpectrum
from .errors import SignalFormatError, positive_finite
from .faultfreq import FaultFrequencyEstimate
from .sigmodel import (
    Recording,
    Signal,
    check_finite_samples,
    check_span,
)
from .stats import KdeCurve, fitted_overlays

FORMAT_CSV = "csv"
FORMAT_RAW = "raw-f64le"
FORMATS = (FORMAT_CSV, FORMAT_RAW)

# samples per block of the finite-value scan of a raw file: 512 kB
SCAN_BLOCK = 1 << 16


def sidecar_path(path: str) -> str:
    return str(path) + ".json"


def infer_format(path: str) -> str:
    """The format a signal file's name names: CSV for ``.csv`` and ``.txt``, else raw."""
    ext = os.path.splitext(str(path))[1].lower()
    if ext in (".csv", ".txt"):
        return FORMAT_CSV
    return FORMAT_RAW


def write_json(path, data, mode: str = "w") -> None:
    """Write ``data`` in the JSON layout of tables, reports and sidecars:
    2-space indent, sorted keys and a trailing newline.  Mode ``"x"``
    refuses an existing file."""
    with open(path, mode, encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_signal_arrays(path, arrays, fs: float, sidecar: dict | None = None) -> int:
    """Write the samples of ``arrays``, in order, as one signal; return their count.

    The format is the one ``path`` names (``infer_format``), and the JSON
    sidecar records it, whatever ``sidecar`` says, beside ``fs``, ``n`` and
    the entries of ``sidecar``.  ``arrays`` may be a generator: each array
    is written as soon as it is drawn, and ``sidecar`` is serialized only
    after the last one, so values the generator fills in along the way
    reach the sidecar.  Samples and sidecar go to temporary files beside
    ``path`` and replace the outputs, samples first, only once both are
    complete: an error on any array leaves no output behind and an existing
    one untouched.
    """
    fmt = infer_format(path)
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
        write_json(temps[1], {"fs": fs, "n": n, **(sidecar or {}), "format": fmt}, mode="x")
        for temp, out in zip(temps, outputs):
            os.replace(temp, out)
    except BaseException:
        for temp in temps:
            if os.path.exists(temp):
                os.remove(temp)
        raise
    return n


def _read_csv_samples(path) -> np.ndarray:
    # a typed array holds 8 bytes per sample, a list of floats about 32
    values = array.array("d")
    with open(path, encoding="ascii") as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                text = line.strip()
                if text:
                    values.append(float(text))
        except UnicodeDecodeError:  # raised by the read, and a ValueError too
            raise SignalFormatError(
                f"{path}: not a CSV recording, it holds a byte outside ASCII; for raw samples, "
                f'name the file other than .csv or .txt, or set "format": "{FORMAT_RAW}" in '
                "its sidecar") from None
        except ValueError:
            raise SignalFormatError(f"{path}: line {lineno} is not a number: {text!r}") from None
    if not values:
        raise SignalFormatError(f"{path}: no samples found")
    return np.frombuffer(values, dtype=np.float64)


class RawRecording:
    """A raw-f64le recording whose samples stay in its file until read.

    A segment source (``sigmodel.Recording``): it has ``fs``, a length and a
    ``duration``, and ``read(start, count)`` opens the file and returns the
    ``count`` samples from ``start`` on as a Signal, read into a new array
    from their offset.  Building one checks the sample rate, then scans the
    file's ``n`` samples in blocks of ``SCAN_BLOCK``, raising as a Signal
    would, so the segments read later are not scanned again; the file must
    not change while the recording is in use.
    """

    def __init__(self, path, fs: float, n: int):
        positive_finite(fs, "sample rate", " Hz")
        self.path = str(path)
        self.fs = fs
        self._n = n
        for start in range(0, n, SCAN_BLOCK):
            check_finite_samples(self._samples(start, min(SCAN_BLOCK, n - start)))

    def __len__(self) -> int:
        return self._n

    @property
    def duration(self) -> float:
        """Record length in seconds."""
        return self._n / self.fs

    def _samples(self, start: int, count: int) -> np.ndarray:
        check_span(start, count, self._n)
        samples = np.empty(count, dtype="<f8")
        with open(self.path, "rb") as fh:
            fh.seek(8 * start)
            if fh.readinto(samples) != samples.nbytes:
                raise SignalFormatError(f"{self.path}: ends before sample {start + count}; "
                                        "it changed while it was read")
        return samples.astype(np.float64, copy=False)

    def read(self, start: int, count: int) -> Signal:
        """The ``count`` samples from ``start`` on, as a Signal."""
        return Signal._from_checked(self._samples(start, count), self.fs)


def read_signal(path, fs: float | None = None) -> tuple[Recording, dict]:
    """Read a signal file in the format its sidecar records, else in the one its name names.

    A name names its format as ``infer_format`` says; the sample rate is
    the sidecar's unless ``fs`` is given.  Returns the recording and the
    sidecar dictionary (empty when absent).  CSV is parsed whole into a
    ``Signal``.  Raw input is not loaded: its size is checked against the
    sidecar's ``n`` and its samples are checked to be finite, a block at a
    time, and a ``RawRecording`` is returned whose segments are read from
    the file one at a time.  Both are segment sources
    (``sigmodel.Recording``).  An explicit ``fs`` overrides the sidecar
    value; the caller is expected to warn the user about the override.
    """
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
        if "format" in meta and meta["format"] not in FORMATS:
            raise SignalFormatError(f"{sc}: unknown signal format {meta['format']!r}")
    fmt = meta.get("format") or infer_format(path)
    if fs is None:
        fs = meta.get("fs")
    if fs is None:
        raise SignalFormatError(f"{path}: sample rate unknown; pass fs or provide a sidecar")
    if fmt == FORMAT_CSV:
        samples = _read_csv_samples(path)
        n = samples.size
    else:
        size = os.path.getsize(path)
        if size == 0:
            raise SignalFormatError(f"{path}: empty raw signal file")
        if size % 8:
            raise SignalFormatError(
                f"{path}: {size} bytes is not a whole number of 8-byte samples; for CSV text, "
                f'name the file .csv or .txt, or set "format": "{FORMAT_CSV}" in its sidecar'
            )
        n = size // 8
    side_n = meta.get("n")
    if side_n is not None and (type(side_n) is not int or side_n != n):
        raise SignalFormatError(
            f"{path}: {n} samples read, but its sidecar says n = {side_n!r}"
        )
    if fmt == FORMAT_CSV:
        return Signal(samples, float(fs)), meta
    return RawRecording(path, float(fs), n), meta


def _write_columns(path, header: str, columns) -> None:
    np.savetxt(path, np.column_stack(columns), fmt="%.10g", delimiter=",", header=header,
               comments="")


def write_spectrum_csv(path, spec: EnvelopeSpectrum) -> None:
    _write_columns(path, "freq_hz,amplitude", (spec.freqs, spec.amps))


def write_estimates_csv(path, rows: list[tuple[int, float, FaultFrequencyEstimate]]) -> None:
    """One line per ``(index, t_start, estimate)`` row: the segment's number,
    its start time in seconds and its estimate.  The caller gives the start
    as the recording was cut, the segment's first sample over the sample
    rate (``faultfreq.iter_segments``).  There is a ``peakK_hz`` column for
    every harmonic order K up to the estimates' highest."""
    orders = range(1, max((p.order for *_, est in rows for p in est.peaks), default=0) + 1)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(",".join(["segment_index,t_start_s,f_hat_hz,snr"]
                          + [f"peak{k}_hz" for k in orders]) + "\n")
        for i, t_start, est in rows:
            peaks = {p.order: p.freq for p in est.peaks}
            cols = [
                str(i),
                f"{t_start:.10g}",
                f"{est.f_hat:.10g}",
                f"{est.snr:.10g}",
            ] + [f"{peaks[k]:.10g}" if k in peaks else "" for k in orders]
            fh.write(",".join(cols) + "\n")


def write_kde_csv(path, curve: KdeCurve, samples) -> None:
    """KDE curve plus fitted uniform/normal overlays for plotting."""
    _write_columns(path, "grid,density,uniform_pdf,normal_pdf",
                   (curve.grid, curve.density, *fitted_overlays(samples, curve.grid)))
