"""Fault-frequency estimation from envelope spectra.

The estimator searches a window around each expected harmonic for the
amplitude maximum, normalizes every detected peak by its harmonic order
and averages the results.  A spectral signal-to-noise ratio accompanies
every estimate: mean squared peak amplitude over mean squared amplitude of
the surrounding spectrum up to the third harmonic.

This module is the one home of segment estimation.  ``estimate_or_error``
is the one place where an EstimationError is caught: it returns the error
of a failed segment in place of its estimate.  ``estimate_batch`` maps it,
or any function like it, over a batch of segments with one
``parallel_map``, and ``check_segment_failures`` is the skip policy for
the segments of a recording.  A recording is a segment source
(``sigmodel.Recording``): ``iter_segments`` cuts it and reads its segments
one at a time, so a file-backed recording is never held in memory whole.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._parallel import parallel_map
from .envspec import EnvelopeSpectrum, SpectrumConfig, envelope_spectrum
from .errors import EstimationError, ParameterError, positive_finite, real, whole_number
from .sigmodel import Recording, Signal, sample_count

MAX_SEGMENT_FAILURE_FRAC = 0.20
# the SNR's noise band, in multiples of f_hat
SNR_NOISE_BAND = (0.5, 3.5)


@dataclass(frozen=True)
class EstimatorConfig:
    """Peak-search settings around a theoretical fault frequency."""

    f_theoretical: float
    n_harmonics: int = 3
    search_frac: float = 0.18
    peak_excl_bins: int = 2

    def __post_init__(self):
        positive_finite(self.f_theoretical, "f_theoretical", " Hz")
        object.__setattr__(self, "n_harmonics", whole_number(
            self.n_harmonics, 1, "n_harmonics must be an integer >= 1"))
        if not 0 < real(self.search_frac) < 0.5:
            raise ParameterError("search_frac must lie in (0, 0.5)")
        if not self.max_freq < math.inf:  # NaN for an n_harmonics past the float range
            raise ParameterError(f"the harmonic search passes the float range; lower "
                                 f"f_theoretical ({self.f_theoretical:g} Hz) or n_harmonics")
        # adjacent harmonic windows k and k+1 stay disjoint up to n_harmonics
        limit = 1.0 / (2.0 * max(self.n_harmonics - 1, 1) + 1.0)
        if self.n_harmonics > 1 and self.search_frac >= limit:
            raise ParameterError(
                f"search_frac {self.search_frac} makes harmonic windows overlap; "
                f"need < {limit:g} for {self.n_harmonics} harmonics"
            )
        object.__setattr__(self, "peak_excl_bins", whole_number(
            self.peak_excl_bins, 0, "peak_excl_bins must be a non-negative integer"))

    @property
    def max_freq(self) -> float:
        """Highest frequency the peak search and the SNR read, Hz.

        The last harmonic window ends at ``n_harmonics * f_theoretical *
        (1 + search_frac)`` and the SNR noise band (``SNR_NOISE_BAND``) at
        ``3.5 f_hat``, with ``f_hat <= f_theoretical * (1 + search_frac)``; an
        envelope spectrum cut just above this frequency gives the same
        estimate as the full one.
        """
        reach = max(real(self.n_harmonics), SNR_NOISE_BAND[1])
        return reach * self.f_theoretical * (1.0 + self.search_frac)


@dataclass(frozen=True)
class HarmonicPeak:
    """Location of the amplitude maximum near one harmonic order."""

    order: int
    freq: float
    amp: float
    bin: int


@dataclass(frozen=True)
class FaultFrequencyEstimate:
    """Order-normalized average of the detected harmonic peaks."""

    f_hat: float
    peaks: tuple[HarmonicPeak, ...]
    snr: float


def detect_harmonic_peak(spec: EnvelopeSpectrum, cfg: EstimatorConfig, k: int = 1) -> HarmonicPeak:
    """Find the amplitude maximum near the k-th harmonic.

    The search window is ``k * f_theoretical * (1 +- search_frac)``, read
    from ``cfg``.  Exact amplitude ties resolve toward the bin closest to the
    expected harmonic location (and to the lower frequency if still tied).
    """
    k = whole_number(k, 1, "harmonic order must be an integer >= 1")
    target = k * cfg.f_theoretical
    lo = target * (1.0 - cfg.search_frac)
    hi = target * (1.0 + cfg.search_frac)
    if hi > spec.freqs[-1]:
        raise EstimationError(
            f"harmonic {k}: window [{lo:g}, {hi:g}] Hz exceeds the spectrum range"
        )
    i0 = int(np.searchsorted(spec.freqs, lo, side="left"))
    i1 = int(np.searchsorted(spec.freqs, hi, side="right")) - 1
    if i1 - i0 + 1 < 3:
        raise EstimationError(
            f"harmonic {k}: window [{lo:g}, {hi:g}] Hz covers fewer than 3 bins"
        )
    window = spec.amps[i0 : i1 + 1]
    peak_val = window.max()
    candidates = i0 + np.flatnonzero(window == peak_val)
    best = candidates[np.argmin(np.abs(spec.freqs[candidates] - target))]
    return HarmonicPeak(order=k, freq=float(spec.freqs[best]), amp=float(peak_val), bin=int(best))


def snr(
    spec: EnvelopeSpectrum,
    peaks: list[HarmonicPeak] | tuple[HarmonicPeak, ...],
    cfg: EstimatorConfig,
) -> float:
    """Spectral SNR: mean squared peak amplitude over the non-peak mean.

    The noise set covers the band ``SNR_NOISE_BAND`` times f_hat, [0.5 f_hat,
    3.5 f_hat], minus ``peak_excl_bins`` bins on each side of every detected
    peak; the lower cut keeps residual DC leakage out of the average.
    """
    if not peaks:
        raise ParameterError("snr needs at least one detected peak")
    f_hat = float(np.mean([p.freq / p.order for p in peaks]))
    lo, hi = (k * f_hat for k in SNR_NOISE_BAND)
    i0 = int(np.searchsorted(spec.freqs, lo, side="left"))
    i1 = int(np.searchsorted(spec.freqs, hi, side="right")) - 1
    keep = np.ones(i1 - i0 + 1, dtype=bool)
    for p in peaks:
        a = max(i0, p.bin - cfg.peak_excl_bins)
        b = min(i1, p.bin + cfg.peak_excl_bins)
        if b >= a:
            keep[a - i0 : b - i0 + 1] = False
    noise = spec.amps[i0 : i1 + 1][keep]
    if noise.size == 0:
        raise EstimationError("no noise bins remain after excluding the peaks")
    # amplitudes are divided by a power of two near the largest peak before
    # squaring, which is exact and keeps a loud recording's squares finite
    scale = math.ldexp(1.0, math.frexp(max(p.amp for p in peaks))[1])
    numerator = float(np.mean([(p.amp / scale) ** 2 for p in peaks]))
    denominator = float(np.mean((noise / scale) ** 2))
    if denominator == 0.0:
        raise EstimationError("noise bins are identically zero; SNR undefined")
    return numerator / denominator


def estimate_fault_frequency(
    spec: EnvelopeSpectrum, cfg: EstimatorConfig
) -> FaultFrequencyEstimate:
    """Estimate the fault frequency from ``cfg.n_harmonics`` harmonic peaks."""
    peaks = tuple(detect_harmonic_peak(spec, cfg, k) for k in range(1, cfg.n_harmonics + 1))
    f_hat = float(np.mean([p.freq / p.order for p in peaks]))
    return FaultFrequencyEstimate(f_hat=f_hat, peaks=peaks, snr=snr(spec, peaks, cfg))


def iter_segments(x: Recording, seg_len: float):
    """Yield ``(start, segment)`` for consecutive non-overlapping segments,
    ``start`` being the segment's first sample in ``x``; the remainder is
    dropped.

    Each segment is read from ``x`` with ``x.read`` as it is drawn; a
    recording's samples were checked when it was opened or built, so they
    are not scanned again.  Raises, at the first draw, if a segment holds
    fewer than 2 samples; a recording shorter than one segment yields none,
    which ``check_segment_failures`` refuses.
    """
    positive_finite(seg_len, "segment length", " s")
    n_seg = sample_count(seg_len, x.fs)
    if n_seg < 2:
        raise ParameterError(f"segment of {seg_len:g} s holds fewer than 2 samples")
    for start in range(0, len(x) - n_seg + 1, n_seg):
        yield start, x.read(start, n_seg)


def estimate_or_error(
    signal: Signal, spec_cfg: SpectrumConfig, est_cfg: EstimatorConfig
) -> FaultFrequencyEstimate | EstimationError:
    """The estimate of one segment, or the EstimationError that stopped it.

    Worker-safe; callers apply ``check_segment_failures`` or their own
    failure policy to the errors.
    """
    try:
        spec = envelope_spectrum(signal, spec_cfg, est_cfg.max_freq)
        return estimate_fault_frequency(spec, est_cfg)
    except EstimationError as exc:
        return exc


def estimate_batch(fn, items):
    """Map the per-item estimate ``fn`` over ``items`` with one ``parallel_map``.

    ``fn`` returns an estimate or an EstimationError, as
    ``estimate_or_error`` does.  Returns ``(f_hats, snrs, errors)``: arrays of
    the estimates that succeeded and a list of the errors, each in item
    order.  Callers apply their own failure policy to ``errors``.
    """
    good, errors = [], []
    for r in parallel_map(fn, items):
        if isinstance(r, EstimationError):
            errors.append(r)
        else:
            good.append(r)
    f_hats = np.array([g.f_hat for g in good], dtype=np.float64)
    snrs = np.array([g.snr for g in good], dtype=np.float64)
    return f_hats, snrs, errors


def check_segment_failures(x: Recording, seg_len: float, failures: int, total: int) -> list[str]:
    """Skip policy for the segments of a recording; returns its warnings.

    A recording needs at least 2 segments, and at most
    ``MAX_SEGMENT_FAILURE_FRAC`` of their estimates may fail; the failed
    ones are then skipped with a warning.
    """
    if total < 2:
        raise EstimationError(
            f"signal of {x.duration:g} s yields fewer than 2 segments of {seg_len:g} s"
        )
    if failures > MAX_SEGMENT_FAILURE_FRAC * total:
        raise EstimationError(
            f"{failures}/{total} segment estimates failed; check the frequency band "
            "and the theoretical fault frequency"
        )
    return [f"{failures}/{total} segment estimates failed and were skipped"] if failures else []
