"""Envelope spectrum pipeline: bandpass, Hilbert demodulation, Welch PSD.

Every transform is a real FFT from ``scipy.fft``; the Welch PSD is computed
directly rather than through ``scipy.signal.welch``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.fft as sfft
from scipy import signal as sps

from .errors import ParameterError
from .sigmodel import Signal

# Raised-cosine transition of the FFT bandpass mask, in units of the
# signal's own bin width fs/len(x).
BANDPASS_TRANSITION_BINS = 8


@dataclass(frozen=True)
class SpectrumConfig:
    """Envelope-spectrum settings.

    The PSD is averaged over non-overlapping pieces of fixed duration
    ``piece_len_s`` (clipped to the segment length), tapered by ``window``
    and zero padded by ``zero_pad_factor``.  A fixed piece duration keeps
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
            lo, hi = self.bandpass
            if not 0 <= lo < hi:
                raise ParameterError("bandpass needs 0 <= f_lo < f_hi")
            object.__setattr__(self, "bandpass", (float(lo), float(hi)))
        if int(self.zero_pad_factor) != self.zero_pad_factor or self.zero_pad_factor < 1:
            raise ParameterError("zero_pad_factor must be an integer >= 1")
        if not self.piece_len_s > 0:
            raise ParameterError("piece_len_s must be positive")
        try:
            sps.get_window(self.window, 8)
        except (ValueError, TypeError):
            raise ParameterError(f"unknown window {self.window!r}") from None


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
    spec = sfft.rfft(x.samples)
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
    filtered = sfft.irfft(spec, n=n)
    return Signal(filtered, fs)


def _hilbert(x) -> tuple[np.ndarray, np.ndarray]:
    """The input as a float vector, and its Hilbert transform.

    ``-j sign(f)`` is applied to the rfft; DC and (for even length) Nyquist
    carry no quadrature part and are zeroed.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size < 2:
        raise ParameterError("analytic signal needs a 1-D input of length >= 2")
    spec = sfft.rfft(x)
    spec *= -1j
    spec[0] = 0.0
    if x.size % 2 == 0:
        spec[-1] = 0.0
    return x, sfft.irfft(spec, n=x.size)


def analytic_signal(x) -> np.ndarray:
    """Analytic signal ``x + j H{x}`` via the frequency-domain method.

    The real part of the result equals the input exactly.
    """
    x, h = _hilbert(x)
    return x + 1j * h


def envelope(x) -> np.ndarray:
    """Magnitude of the analytic signal, ``sqrt(x^2 + H{x}^2)``.

    Computed as written, in the Hilbert output's buffer: SIMD loops where
    ``np.hypot`` calls libm one element at a time; within about 1 ulp of it.
    ``x * x`` overflows only above about 1e154, where the Welch PSD of the
    envelope has already overflowed.
    """
    x, h = _hilbert(x)
    h *= h
    h += x * x
    return np.sqrt(h, out=h)


@functools.lru_cache(maxsize=32)
def _taper(window: str, piece: int) -> tuple[np.ndarray, float]:
    """Periodic window of ``piece`` samples and its energy ``sum(w**2)``.

    The array is cached and shared, so it is made read-only.  The energy is
    an elementwise sum, not ``np.dot``: a BLAS call would initialise BLAS in
    every freshly forked pool worker.
    """
    w = sps.get_window(window, piece)
    w.setflags(write=False)
    return w, float((w * w).sum())


def welch_psd(x, fs: float, cfg: SpectrumConfig = SpectrumConfig()) -> EnvelopeSpectrum:
    """One-sided Welch PSD with zero-padded pieces.

    Non-overlapping pieces of ``piece_len_s`` (clipped to the input; a
    remainder shorter than a piece is dropped) each have their mean removed,
    are tapered and zero padded to ``piece * zero_pad_factor`` points; the
    density is the mean of their squared rfft magnitudes, as with
    ``scipy.signal.welch(noverlap=0, detrend="constant", scaling="density")``.
    The grid spacing is exactly ``fs / (piece_len * zero_pad_factor)``.
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
    taper, energy = _taper(cfg.window, piece)
    k = x.size // piece
    pieces = x[: k * piece].reshape(k, piece)
    pieces = pieces - pieces.mean(axis=1, keepdims=True)
    pieces *= taper
    spec = sfft.rfft(pieces, n=nfft, axis=1)
    re, im = spec.real, spec.imag
    # sum of |X|^2 over the pieces, with no temporary the size of the spectrum
    psd = np.einsum("ij,ij->j", re, re) + np.einsum("ij,ij->j", im, im)
    psd *= 1.0 / (k * fs * energy)
    psd[1 : -1 if nfft % 2 == 0 else None] *= 2.0
    return EnvelopeSpectrum(np.fft.rfftfreq(nfft, 1.0 / fs), psd, fs / nfft)


def envelope_spectrum(x: Signal, cfg: SpectrumConfig = SpectrumConfig()) -> EnvelopeSpectrum:
    """Full pipeline: optional bandpass, envelope, mean removal, Welch PSD.

    The envelope mean (a large DC term) is subtracted before the PSD so it
    cannot leak into the low-frequency bins searched for fault harmonics.
    """
    if cfg.bandpass is not None:
        x = bandpass(x, cfg.bandpass[0], cfg.bandpass[1])
    env = envelope(x.samples)
    env -= env.mean()
    return welch_psd(env, x.fs, cfg)
