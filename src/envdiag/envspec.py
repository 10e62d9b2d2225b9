"""Envelope spectrum pipeline: bandpass, Hilbert demodulation, Welch PSD.

Every transform is a real FFT from ``numpy.fft``, and the Welch PSD and its
Hann taper are computed here, so no envdiag process imports scipy: its
``scipy.fft`` and ``scipy.signal`` imports alone would double a process's
resident memory.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
# numpy 2 imports numpy.fft on first use; importing it here, before any pool
# forks, spares every worker that import on its first segment
import numpy.fft  # noqa: F401

from .errors import ParameterError, positive_finite, real, shown, whole_number
from .sigmodel import MAX_SAMPLES, Signal, sample_count

# the Welch taper, as a table's meta.analysis records it
WINDOW = "hann"

# the fewest samples of a Welch piece
MIN_PIECE_SAMPLES = 8

# Raised-cosine transition of the FFT bandpass mask, in units of the
# signal's own bin width fs/len(x).
BANDPASS_TRANSITION_BINS = 8


@dataclass(frozen=True)
class SpectrumConfig:
    """Envelope-spectrum settings.

    The PSD is averaged over non-overlapping pieces of fixed duration
    ``piece_len_s`` (clipped to the segment length), each tapered by the
    periodic Hann window (``WINDOW``) and zero padded by ``zero_pad_factor``.
    A fixed piece duration keeps the frequency grid and the per-piece
    detectability identical across segment lengths, so calibrated
    thresholds remain comparable between 0.5 s and 10 s segments.  ``bandpass`` is (f_lo, f_hi) in Hz, 0 <= f_lo < f_hi < inf.
    """

    bandpass: tuple[float, float] | None = None
    zero_pad_factor: int = 4
    piece_len_s: float = 0.5

    def __post_init__(self):
        if self.bandpass is not None:
            try:
                lo, hi = map(real, self.bandpass)
            except (TypeError, ValueError):
                lo = hi = math.nan
            if math.isnan(lo) or math.isnan(hi):
                raise ParameterError(f"bandpass must be two numbers, got {self.bandpass!r}")
            if not 0 <= lo < hi < math.inf:
                raise ParameterError("bandpass needs 0 <= f_lo < f_hi")
            object.__setattr__(self, "bandpass", (lo, hi))
        object.__setattr__(self, "zero_pad_factor", whole_number(
            self.zero_pad_factor, 1, "zero_pad_factor must be an integer >= 1"))
        positive_finite(self.piece_len_s, "piece_len_s", " s")


@dataclass(frozen=True)
class EnvelopeSpectrum:
    """One-sided PSD of a (demodulated) signal on a uniform frequency grid."""

    freqs: np.ndarray
    amps: np.ndarray
    df: float

    def __post_init__(self):
        freqs = np.asarray(self.freqs, dtype=np.float64)
        amps = np.asarray(self.amps, dtype=np.float64)
        if freqs.ndim != 1 or freqs.shape != amps.shape or freqs.size < 2:
            raise ParameterError("freqs and amps must be matching 1-D vectors")
        if not np.all(np.isfinite(amps)) or np.any(amps < 0):
            raise ParameterError("spectrum amplitudes must be finite and non-negative")
        positive_finite(self.df, "df", " Hz")
        object.__setattr__(self, "freqs", freqs)
        object.__setattr__(self, "amps", amps)
        object.__setattr__(self, "df", float(self.df))

    def __len__(self) -> int:
        return self.freqs.size


def check_band(band: tuple[float, float] | None, fs: float) -> None:
    """Raise ParameterError unless ``band`` is None or an ``(f_lo, f_hi)`` that
    ``bandpass`` can pass at the sample rate ``fs``: 0 <= f_lo < f_hi <= fs/2."""
    if band is not None and not 0 <= real(band[0]) < real(band[1]) <= fs / 2 + 1e-12:
        raise ParameterError(f"band [{shown(band[0])}, {shown(band[1])}] Hz must satisfy "
                             "0 <= f_lo < f_hi <= fs/2")


def bandpass(x: Signal, f_lo: float, f_hi: float) -> Signal:
    """Zero-phase FFT bandpass with a raised-cosine transition.

    Bins outside [f_lo, f_hi] are masked to zero; each band edge is softened
    by a half-cosine ramp spanning 8 signal bins to avoid ringing.  Edges at
    0 or fs/2 are left open, so ``bandpass(x, 0, fs/2)`` is the identity.
    """
    fs = x.fs
    check_band((f_lo, f_hi), fs)
    n = len(x)
    spec = np.fft.rfft(x.samples)
    freqs = np.fft.rfftfreq(n, 1.0 / fs)
    width = BANDPASS_TRANSITION_BINS * fs / n
    # each bin is scaled once, in place: zeroed outside the band, ramped at
    # each edge; where narrow-band ramps overlap the upper ramp wins
    upper_ramp = freqs.size
    if f_hi < fs / 2:
        a, b = f_hi - width / 2, f_hi + width / 2
        upper_ramp, stop = np.searchsorted(freqs, (a, b), side="right")
        spec[stop:] = 0.0
        ramp = freqs[upper_ramp:stop]
        spec[upper_ramp:stop] *= 0.5 * (1.0 + np.cos(np.pi * (ramp - a) / width))
    if f_lo > 0:
        a, b = f_lo - width / 2, f_lo + width / 2
        start, ramp_end = np.searchsorted(freqs, (a, b), side="left")
        ramp_end = min(ramp_end, upper_ramp)
        spec[:start] = 0.0
        ramp = freqs[start:ramp_end]
        spec[start:ramp_end] *= 0.5 * (1.0 - np.cos(np.pi * (ramp - a) / width))
    filtered = np.fft.irfft(spec, n=n)
    return Signal(filtered, fs)


def _hilbert(x) -> tuple[np.ndarray, np.ndarray]:
    """The input as a float vector, and its Hilbert transform.

    ``-j sign(f)`` is applied to the rfft; DC and (for even length) Nyquist
    carry no quadrature part and are zeroed.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size < 2:
        raise ParameterError("analytic signal needs a 1-D input of length >= 2")
    spec = np.fft.rfft(x)
    spec *= -1j
    spec[0] = 0.0
    if x.size % 2 == 0:
        spec[-1] = 0.0
    return x, np.fft.irfft(spec, n=x.size)


def envelope(x) -> np.ndarray:
    """Magnitude of the analytic signal, ``sqrt(x^2 + H{x}^2)``.

    Computed as written, in the Hilbert output's buffer: SIMD loops where
    ``np.hypot`` calls libm one element at a time; within about 1 ulp of it.
    ``x * x`` overflows above about 1e154, a few times below the input level
    at which the envelope's Welch PSD itself passes the float range.
    """
    x, h = _hilbert(x)
    h *= h
    h += x * x
    return np.sqrt(h, out=h)


@functools.lru_cache(maxsize=32)
def _taper(piece: int) -> tuple[np.ndarray, float]:
    """Periodic Hann window of ``piece`` samples and its energy ``sum(w**2)``;
    a piece holds ``MIN_PIECE_SAMPLES`` or more (``welch_piece``).

    ``0.5 + 0.5 cos`` over ``piece + 1`` points from -pi to pi, last point
    dropped, evaluated as ``scipy.signal.get_window("hann", piece)`` does,
    so the two agree bit for bit.  The array is cached and shared, so it is
    made read-only.  The energy is an elementwise sum, not ``np.dot``: a BLAS
    call would initialise BLAS in every freshly forked pool worker.
    """
    w = 0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, piece + 1)[:-1])
    w.setflags(write=False)
    return w, float((w * w).sum())


# shortest sub-transform of the polyphase split; below it the per-transform
# overhead outweighs what the shorter FFTs save
MIN_POLYPHASE_LEN = 2000


@functools.lru_cache(maxsize=32)
def _polyphase_split(nfft: int, n_bins: int) -> tuple[int, np.ndarray | None]:
    """Phase count ``D`` for the first ``n_bins`` bins of an ``nfft``-point rfft.

    ``D`` is the largest divisor of ``nfft`` whose sub-transform length
    ``L = nfft / D`` is at least ``max(2 * n_bins, 2000)``, so that every
    output bin is a non-aliased bin of the length-``L`` rfft; ``D = 1``
    (the plain rfft) when there is none.  The second value is the read-only
    ``(n_bins, D)`` phase table ``exp(-2j pi b q / nfft)``, or None for
    ``D = 1``.
    """
    need = max(2 * n_bins, MIN_POLYPHASE_LEN)
    d = max((d for d in range(1, nfft // need + 1) if nfft % d == 0), default=1)
    if d == 1:
        return 1, None
    # the product b*q is reduced mod nfft before it becomes an angle, so every
    # phase is as accurate as exp of an argument in [0, 2 pi)
    bq = np.outer(np.arange(n_bins), np.arange(d)) % nfft
    table = np.exp((-2j * np.pi / nfft) * bq)
    table.setflags(write=False)
    return d, table


def _welch_bins(x: np.ndarray, piece: int, nfft: int, n_bins: int, fs: float) -> np.ndarray:
    """First ``n_bins`` bins of the one-sided Welch PSD of ``x`` (see ``welch_psd``).

    One loop over the pieces: each, mean removed and tapered, is zero padded
    to a multiple of ``D``, its sample ``m*D + q`` goes to row ``q`` of a
    ``(D, nfft/D)`` block, and ``_polyphase_split``'s table sums the rows'
    rffts to the bins (for ``D = 1``, the row's rfft is the bins).
    """
    taper, energy = _taper(piece)
    d, table = _polyphase_split(nfft, n_bins)
    scratch = np.zeros(-(-piece // d) * d)
    phases = scratch.reshape(-1, d).T
    # every piece reuses the block and its sub-spectra; the batched rfft runs
    # about 1.4 times as fast on one contiguous block as on the strided phases
    block = np.zeros((d, nfft // d))
    sub = np.empty((d, nfft // d // 2 + 1), dtype=np.complex128)
    re2, im2 = np.zeros((2, n_bins))
    for start in range(0, x.size - piece + 1, piece):
        raw = x[start : start + piece]
        np.subtract(raw, raw.mean(), out=scratch[:piece])
        scratch[:piece] *= taper
        block[:, : phases.shape[1]] = phases
        np.fft.rfft(block, axis=1, out=sub)
        bins = sub[0, :n_bins] if table is None else np.einsum("qb,bq->b", sub[:, :n_bins], table)
        re2 += bins.real * bins.real
        im2 += bins.imag * bins.imag
    psd = (re2 + im2) * (1.0 / (x.size // piece * fs * energy))
    # every bin but DC and an even nfft's Nyquist bin stands for two
    top = n_bins - 1 if nfft % 2 == 0 and n_bins == nfft // 2 + 1 else n_bins
    psd[1:top] *= 2.0
    return psd


def welch_piece(cfg: SpectrumConfig, fs: float, n: int) -> int:
    """Samples in a Welch piece of an ``n``-sample input: ``cfg.piece_len_s`` at
    ``fs``, clipped to ``n``.  ParameterError below ``MIN_PIECE_SAMPLES``, or
    when the piece zero padded by ``cfg.zero_pad_factor`` is more samples than
    a float64 array holds."""
    piece = min(sample_count(cfg.piece_len_s, fs), n)
    if piece < MIN_PIECE_SAMPLES:
        raise ParameterError(
            f"a Welch piece of {cfg.piece_len_s:g} s at {fs:g} Hz on {n} samples holds {piece}, "
            f"fewer than the {MIN_PIECE_SAMPLES} the PSD needs")
    if piece * cfg.zero_pad_factor > MAX_SAMPLES:
        raise ParameterError(f"a Welch piece of {piece} samples zero padded by zero_pad_factor "
                             "is more samples than a float64 array holds")
    return piece


def welch_psd(x, fs: float, cfg: SpectrumConfig = SpectrumConfig(),
              f_max: float | None = None) -> EnvelopeSpectrum:
    """One-sided Welch PSD with zero-padded pieces.

    Non-overlapping pieces of ``welch_piece`` samples (``piece_len_s``
    clipped to the input, ``MIN_PIECE_SAMPLES`` at least; a remainder
    shorter than a piece is dropped) each have their mean removed,
    are tapered and zero padded to ``piece * zero_pad_factor`` points; the
    density is the mean of their squared rfft magnitudes, as with
    ``scipy.signal.welch(noverlap=0, detrend="constant", scaling="density")``.
    The grid spacing is exactly ``fs / (piece_len * zero_pad_factor)``.

    ``f_max`` limits the output to the bins a caller reads: with it, the
    spectrum holds bins ``0 .. b`` only, where bin ``b`` is the first one at
    least one bin above ``f_max`` (or the Nyquist bin, if that comes first).
    Those bins equal the leading bins of the full spectrum, which ``None``
    returns, to within rounding; only they are computed.

    A PSD that overflows the float range is recomputed from the input scaled
    by a power of two, which is exact, and scaled back; if the true PSD
    passes the float range a ParameterError says so.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ParameterError("welch_psd expects a 1-D vector")
    piece = welch_piece(cfg, fs, x.size)
    nfft = piece * cfg.zero_pad_factor
    n_bins = nfft // 2 + 1
    if f_max is not None:
        positive_finite(f_max, "f_max", " Hz")
        n_bins = min(int(min(f_max, fs) * nfft / fs) + 3, n_bins)  # f_max > fs: every bin
    with np.errstate(over="ignore", invalid="ignore"):
        psd = _welch_bins(x, piece, nfft, n_bins, fs)
        if not np.isfinite(psd).all():
            # the squares overflowed: recompute on x / 2**e, with 2**e just above
            # the largest sample, and scale back; both scalings are exact
            e = math.frexp(float(np.abs(x).max()))[1]
            psd = np.ldexp(_welch_bins(np.ldexp(x, -e), piece, nfft, n_bins, fs), 2 * e)
    if not np.isfinite(psd).all():
        raise _overflow_error("PSD", x)
    # the grid as np.fft.rfftfreq(nfft, 1/fs) computes it, bit for bit
    freqs = np.arange(n_bins) * (1.0 / (nfft * (1.0 / fs)))
    return EnvelopeSpectrum(freqs, psd, fs / nfft)


def _overflow_error(stage: str, x: np.ndarray) -> ParameterError:
    """The error for a ``stage`` that overflowed the float range on input ``x``."""
    amax = float(np.abs(x).max())
    if not math.isfinite(amax):
        return ParameterError(f"{stage} input has non-finite samples")
    return ParameterError(
        f"{stage} overflows the float range on samples up to {amax:.3g}; "
        "scale the recording down"
    )


def envelope_spectrum(x: Signal, cfg: SpectrumConfig = SpectrumConfig(),
                      f_max: float | None = None) -> EnvelopeSpectrum:
    """Full pipeline: optional bandpass, envelope, mean removal, Welch PSD.

    The envelope mean (a large DC term) is subtracted before the PSD so it
    cannot leak into the low-frequency bins searched for fault harmonics.
    ``f_max`` is passed on to ``welch_psd``: the spectrum then ends one bin
    above it; ``None`` gives the full spectrum up to fs/2.
    """
    if cfg.bandpass is not None:
        x = bandpass(x, cfg.bandpass[0], cfg.bandpass[1])
    with np.errstate(over="ignore"):
        env = envelope(x.samples)
    mean = env.mean()
    if not math.isfinite(mean):
        raise _overflow_error("envelope", x.samples)
    env -= mean
    return welch_psd(env, x.fs, cfg, f_max)
