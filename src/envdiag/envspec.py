"""Envelope spectrum pipeline: bandpass, Hilbert demodulation, Welch PSD.

Every transform is a real FFT from ``numpy.fft``, and the Welch PSD and its
tapers are computed here, so no envdiag process imports scipy: its
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

from .errors import ParameterError, whole_number
from .sigmodel import Signal

# Coefficients a_k of the cosine-sum tapers w[n] = sum_k a_k cos(k fac[n]),
# as scipy.signal.windows writes them; hann and hamming are its
# general_hamming(alpha), whose second term is computed as 1 - alpha
WINDOWS = {
    "boxcar": (1.0,),
    "hann": (0.5, 1.0 - 0.5),
    "hamming": (0.54, 1.0 - 0.54),
    "blackman": (0.42, 0.50, 0.08),
    "nuttall": (0.3635819, 0.4891775, 0.1365995, 0.0106411),
    "blackmanharris": (0.35875, 0.48829, 0.14128, 0.01168),
    "flattop": (0.21557895, 0.41663158, 0.277263158, 0.083578947, 0.006947368),
}

# Raised-cosine transition of the FFT bandpass mask, in units of the
# signal's own bin width fs/len(x).
BANDPASS_TRANSITION_BINS = 8


@dataclass(frozen=True)
class SpectrumConfig:
    """Envelope-spectrum settings.

    The PSD is averaged over non-overlapping pieces of fixed duration
    ``piece_len_s`` (clipped to the segment length), tapered by ``window``
    and zero padded by ``zero_pad_factor``.  ``window`` is one of the
    parameter-free cosine-sum tapers: boxcar, hann, hamming, blackman,
    nuttall, blackmanharris or flattop.  A fixed piece duration keeps
    the frequency grid and the per-piece detectability identical across
    segment lengths, so calibrated thresholds remain comparable between
    0.5 s and 10 s segments.
    """

    bandpass: tuple[float, float] | None = None
    window: str = "hann"
    zero_pad_factor: int = 4
    piece_len_s: float = 0.5

    def __post_init__(self):
        if self.bandpass is not None:
            try:
                lo, hi = self.bandpass
                ordered = 0 <= lo < hi
            except (TypeError, ValueError):
                raise ParameterError(f"bandpass must be two numbers, got {self.bandpass!r}") from None
            if not ordered:
                raise ParameterError("bandpass needs 0 <= f_lo < f_hi")
            object.__setattr__(self, "bandpass", (float(lo), float(hi)))
        object.__setattr__(self, "zero_pad_factor", whole_number(
            self.zero_pad_factor, 1, "zero_pad_factor must be an integer >= 1"))
        if not 0 < self.piece_len_s < math.inf:
            raise ParameterError("piece_len_s must be positive and finite")
        if self.window not in WINDOWS:
            raise ParameterError(
                f"unknown window {self.window!r}; choose one of {', '.join(WINDOWS)}"
            )


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
        if not self.df > 0:
            raise ParameterError("df must be positive")
        object.__setattr__(self, "freqs", freqs)
        object.__setattr__(self, "amps", amps)
        object.__setattr__(self, "df", float(self.df))

    def __len__(self) -> int:
        return self.freqs.size


def bandpass(x: Signal, f_lo: float, f_hi: float) -> Signal:
    """Zero-phase FFT bandpass with a raised-cosine transition.

    Bins outside [f_lo, f_hi] are masked to zero; each band edge is softened
    by a half-cosine ramp spanning 8 signal bins to avoid ringing.  Edges at
    0 or fs/2 are left open, so ``bandpass(x, 0, fs/2)`` is the identity.
    """
    fs = x.fs
    if not 0 <= f_lo < f_hi <= fs / 2 + 1e-12:
        raise ParameterError(
            f"band [{f_lo:g}, {f_hi:g}] Hz must satisfy 0 <= f_lo < f_hi <= fs/2"
        )
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
def _taper(window: str, piece: int) -> tuple[np.ndarray, float]:
    """Periodic window of ``piece`` samples and its energy ``sum(w**2)``.

    The cosine sum of ``WINDOWS[window]`` over ``piece + 1`` points from -pi
    to pi, last point dropped, evaluated as ``scipy.signal.get_window`` does,
    so the two agree bit for bit.  The array is cached and shared, so it is
    made read-only.  The energy is an elementwise sum, not ``np.dot``: a BLAS
    call would initialise BLAS in every freshly forked pool worker.
    """
    if piece <= 1:
        w = np.ones(piece)
    else:
        fac = np.linspace(-np.pi, np.pi, piece + 1)
        w = np.zeros(piece + 1)
        for k, a in enumerate(WINDOWS[window]):
            w += a * np.cos(k * fac)
        w = w[:-1]
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


def _low_bin_rfft(pieces: np.ndarray, nfft: int, n_bins: int) -> np.ndarray:
    """The first ``n_bins`` bins of ``rfft(pieces, n=nfft, axis=1)``.

    Output pruning of the zero-padded DFT by a polyphase split: sample
    ``m*D + q`` of a piece goes to phase ``q``, each phase gets a
    length-``nfft/D`` rfft, and bin ``b`` is the phase-weighted sum
    ``sum_q exp(-2j pi b q / nfft) Y_q[b]``.  ``pieces`` must already be
    zero padded to a multiple of ``D`` (see ``_polyphase_split``).
    """
    d, table = _polyphase_split(nfft, n_bins)
    if table is None:
        return np.fft.rfft(pieces, n=nfft, axis=1)[:, :n_bins]
    k, n = pieces.shape
    phases = pieces.reshape(k, n // d, d).transpose(0, 2, 1)
    out = np.empty((k, n_bins), dtype=np.complex128)
    # one piece at a time, so that its (D, L/2 + 1) sub-spectra stay in cache;
    # its phases are copied into one contiguous zero-padded (D, L) block, on
    # which the batched rfft runs about 1.4 times as fast as on the strided view
    block = np.zeros((d, nfft // d))
    for i in range(k):
        block[:, : n // d] = phases[i]
        sub = np.fft.rfft(block, axis=1)[:, :n_bins]
        np.einsum("qb,bq->b", sub, table, out=out[i])
    return out


def _welch_bins(x: np.ndarray, piece: int, nfft: int, n_bins: int, window: str,
                fs: float) -> np.ndarray:
    """First ``n_bins`` bins of the one-sided Welch PSD of ``x`` (see ``welch_psd``)."""
    taper, energy = _taper(window, piece)
    d = _polyphase_split(nfft, n_bins)[0]
    k = x.size // piece
    raw = x[: k * piece].reshape(k, piece)
    # each piece is written into a buffer zero padded to a multiple of D
    buf = np.zeros((k, -(-piece // d) * d))
    pieces = buf[:, :piece]
    np.subtract(raw, raw.mean(axis=1, keepdims=True), out=pieces)
    pieces *= taper
    spec = _low_bin_rfft(buf, nfft, n_bins)
    re, im = spec.real, spec.imag
    # sum of |X|^2 over the pieces, with no temporary the size of the spectrum
    psd = np.einsum("ij,ij->j", re, re) + np.einsum("ij,ij->j", im, im)
    psd *= 1.0 / (k * fs * energy)
    # every bin but DC and an even nfft's Nyquist bin stands for two
    top = n_bins - 1 if nfft % 2 == 0 and n_bins == nfft // 2 + 1 else n_bins
    psd[1:top] *= 2.0
    return psd


def welch_psd(x, fs: float, cfg: SpectrumConfig = SpectrumConfig(),
              f_max: float | None = None) -> EnvelopeSpectrum:
    """One-sided Welch PSD with zero-padded pieces.

    Non-overlapping pieces of ``piece_len_s`` (clipped to the input; a
    remainder shorter than a piece is dropped) each have their mean removed,
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
    piece = min(int(round(cfg.piece_len_s * fs)), x.size)
    if piece < 8:
        raise ParameterError(
            f"input of {x.size} samples is too short for the requested segmentation"
        )
    nfft = piece * cfg.zero_pad_factor
    n_bins = nfft // 2 + 1
    if f_max is not None:
        if not f_max > 0:
            raise ParameterError("f_max must be positive")
        n_bins = min(int(f_max * nfft / fs) + 3, n_bins)
    with np.errstate(over="ignore", invalid="ignore"):
        psd = _welch_bins(x, piece, nfft, n_bins, cfg.window, fs)
        if not np.isfinite(psd).all():
            # the squares overflowed: recompute on x / 2**e, with 2**e just above
            # the largest sample, and scale back; both scalings are exact
            e = math.frexp(float(np.abs(x).max()))[1]
            psd = np.ldexp(_welch_bins(np.ldexp(x, -e), piece, nfft, n_bins, cfg.window, fs),
                           2 * e)
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
