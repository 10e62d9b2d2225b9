"""Envelope-spectrum pipeline tests: bandpass, Hilbert, tapers, Welch PSD."""

import math
import re

import numpy as np
import pytest
import scipy.fft as sfft
from scipy.signal import get_window
from scipy.signal import hilbert as scipy_hilbert
from scipy.signal import welch as scipy_welch

from envdiag import (
    DistributionSpec,
    ParameterError,
    PulseParams,
    Signal,
    SpectrumConfig,
    bandpass,
    envelope,
    envelope_spectrum,
    simulate_signal,
    welch_psd,
)
from envdiag.envspec import BANDPASS_TRANSITION_BINS, WINDOWS, _hilbert, _taper

FS = 25_000.0


def tone(freq, duration=1.0, amp=1.0, fs=FS):
    t = np.arange(int(duration * fs)) / fs
    return Signal(amp * np.cos(2 * np.pi * freq * t), fs)


def bandpass_by_mask(x, f_lo, f_hi):
    """The full-length mask formula ``bandpass`` replaced; its bit-exact oracle."""
    fs, n = x.fs, len(x)
    freqs = np.fft.rfftfreq(n, 1.0 / fs)
    width = BANDPASS_TRANSITION_BINS * fs / n
    mask = np.ones_like(freqs)
    if f_lo > 0:
        a, b = f_lo - width / 2, f_lo + width / 2
        mask[freqs < a] = 0.0
        ramp = (freqs >= a) & (freqs < b)
        mask[ramp] = 0.5 * (1.0 - np.cos(np.pi * (freqs[ramp] - a) / width))
    if f_hi < fs / 2:
        a, b = f_hi - width / 2, f_hi + width / 2
        mask[freqs > b] = 0.0
        ramp = (freqs > a) & (freqs <= b)
        mask[ramp] = 0.5 * (1.0 + np.cos(np.pi * (freqs[ramp] - a) / width))
    return sfft.irfft(sfft.rfft(x.samples) * mask, n=n)


class TestBandpass:
    # ramps span 8 bins, 16 Hz at 0.5 s: the last two bands are narrower, so
    # their ramps overlap and the upper one overrides the lower
    @pytest.mark.parametrize("lo,hi", [(1500.0, 3500.0), (0.0, 3500.0), (1500.0, FS / 2),
                                       (0.0, FS / 2), (2000.0, 2010.0), (2000.0, 2000.5)])
    @pytest.mark.parametrize("n", [12500, 12501])
    def test_matches_full_mask_formula(self, lo, hi, n):
        x = Signal(np.random.default_rng(n).standard_normal(n), FS)
        np.testing.assert_array_equal(bandpass(x, lo, hi).samples, bandpass_by_mask(x, lo, hi))

    def test_in_band_tone_preserved(self):
        x = tone(2500.0)
        y = bandpass(x, 2000.0, 3000.0)
        ratio = np.sqrt(np.mean(y.samples**2) / np.mean(x.samples**2))
        assert ratio >= 0.99

    def test_out_of_band_tone_attenuated(self):
        x = tone(100.0)
        y = bandpass(x, 2000.0, 3000.0)
        assert np.sqrt(np.mean(y.samples**2)) < 0.01 * np.sqrt(np.mean(x.samples**2))

    def test_full_band_is_identity(self):
        rng = np.random.default_rng(3)
        x = Signal(rng.standard_normal(4096), FS)
        y = bandpass(x, 0.0, FS / 2)
        rms = np.sqrt(np.mean((y.samples - x.samples) ** 2))
        assert rms < 1e-10

    def test_linearity(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(4096)
        a = 3.7
        y1 = bandpass(Signal(a * x, FS), 1000.0, 4000.0).samples
        y2 = a * bandpass(Signal(x, FS), 1000.0, 4000.0).samples
        assert np.max(np.abs(y1 - y2)) <= 1e-12 * np.max(np.abs(y2))

    @pytest.mark.parametrize("lo,hi", [(3000.0, 2000.0), (-1.0, 2000.0), (1000.0, 13000.0)])
    def test_band_outside_nyquist_rejected(self, lo, hi):
        with pytest.raises(ParameterError):
            bandpass(tone(2500.0), lo, hi)


class TestAnalyticSignal:
    """``_hilbert``: the input and its Hilbert transform, which ``envelope`` combines."""

    def test_cosine_gives_sine_quadrature(self):
        # 50 Hz over exactly 1 s: the closed-form Hilbert pair is sin
        t = np.arange(int(FS)) / FS
        x = np.cos(2 * np.pi * 50.0 * t)
        _, h = _hilbert(x)
        expected = np.sin(2 * np.pi * 50.0 * t)
        interior = slice(int(0.01 * FS), int(0.99 * FS))
        assert np.max(np.abs(h[interior] - expected[interior])) < 1e-6

    def test_real_part_is_input_exactly(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(1000)
        real, _ = _hilbert(list(x))
        np.testing.assert_array_equal(real, x)

    def test_constant_vector_passes_through(self):
        real, h = _hilbert(np.full(256, 2.5))
        np.testing.assert_allclose(h, 0.0, atol=1e-12)
        np.testing.assert_array_equal(real, np.full(256, 2.5))

    def test_matches_scipy_reference(self):
        rng = np.random.default_rng(6)
        for n in (255, 256, 12500, 12501):  # odd and even lengths
            x = rng.standard_normal(n)
            real, h = _hilbert(x)
            np.testing.assert_allclose(real + 1j * h, scipy_hilbert(x), atol=1e-9)

    def test_linearity(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(512)
        _, h1 = _hilbert(4.2 * x)
        h2 = 4.2 * _hilbert(x)[1]
        assert np.max(np.abs(h1 - h2)) <= 1e-12 * np.max(np.abs(h2))

    def test_too_short_input_rejected(self):
        with pytest.raises(ParameterError):
            _hilbert(np.array([1.0]))


class TestEnvelope:
    def test_tone_envelope_is_flat(self):
        amp = 3.0
        x = tone(50.0, amp=amp)
        env = envelope(x.samples)
        interior = slice(int(0.01 * FS), int(0.99 * FS))
        np.testing.assert_allclose(env[interior], amp, atol=1e-4 * amp)

    def test_envelope_squared_identity(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal(1024)
        _, h = _hilbert(x)
        np.testing.assert_allclose(envelope(x) ** 2, x**2 + h**2, rtol=1e-12)

    def test_zero_vector(self):
        np.testing.assert_array_equal(envelope(np.zeros(64)), np.zeros(64))

    @pytest.mark.parametrize("n", [12500, 12501])
    def test_within_two_ulp_of_hypot(self, n):
        x = 3.0 * np.random.default_rng(n).standard_normal(n)
        want = np.hypot(*_hilbert(x))
        assert np.all(np.abs(envelope(x) - want) <= 2 * np.spacing(want))

    def test_peaks_at_impulse_centres(self):
        sig, f = simulate_signal(0.6, FS, DistributionSpec.constant(30),
                                 PulseParams(aci=3.0), seed=17, noise_std=0.0)
        env = envelope(sig.samples)
        # strongest local maxima must be spaced by the cycle length
        top = np.flatnonzero(env > 0.6 * env.max())
        groups = np.split(top, np.flatnonzero(np.diff(top) > 10) + 1)
        centres = np.array([g[np.argmax(env[g])] for g in groups]) / FS
        np.testing.assert_allclose(np.diff(centres), 1.0 / f, atol=2.0 / FS)


class TestTaper:
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 1000, 12_497, 12_500, 25_000, 250_000])
    @pytest.mark.parametrize("window", sorted(WINDOWS))
    def test_bit_identical_to_scipy_get_window(self, window, n):
        w, energy = _taper.__wrapped__(window, n)  # uncached: 70 arrays up to 2 MB
        want = get_window(window, n)
        assert w.dtype == want.dtype and np.array_equal(w, want)
        assert energy == float((want * want).sum())
        assert not w.flags.writeable

    def test_envdiag_leaves_scipy_signal_unimported(self, run_python):
        # scipy.signal pulls in scipy.stats, linalg and sparse: ~50 MB per
        # process; scipy.fft and scipy.special alone load another ~29 MB
        out = run_python("import sys, envdiag, envdiag.cli; "
                         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        assert out.strip() == "[]"

    def test_envdiag_imports_numpy_fft(self, run_python):
        # numpy loads numpy.fft lazily; a pool parent that never transforms
        # would leave every forked worker to import it on its first segment
        out = run_python("import sys, envdiag; print('numpy.fft' in sys.modules)")
        assert out.strip() == "True"


class TestSpectrumConfig:
    def test_unknown_window_rejected(self):
        with pytest.raises(ParameterError, match="nosuch"):
            SpectrumConfig(window="nosuch")

    @pytest.mark.parametrize("window", ["hanning", "bartlett", "kaiser", "hann_periodic"])
    def test_other_scipy_window_names_rejected(self, window):
        with pytest.raises(ParameterError, match="choose one of boxcar, hann"):
            SpectrumConfig(window=window)

    @pytest.mark.parametrize("piece_len_s", [0.0, -0.5, math.inf])
    def test_nonpositive_piece_length_rejected(self, piece_len_s):
        with pytest.raises(ParameterError):
            SpectrumConfig(piece_len_s=piece_len_s)

    @pytest.mark.parametrize("band", [(1.0, 2.0, 3.0), (1500.0,), 5, ("a", "b")])
    def test_malformed_band_rejected_by_name(self, band):
        with pytest.raises(ParameterError, match=f"got {re.escape(repr(band))}$"):
            SpectrumConfig(bandpass=band)

    @pytest.mark.parametrize("zero_pad_factor", [0, 2.5, math.inf, math.nan])
    def test_zero_pad_factor_not_a_whole_number_from_1_rejected(self, zero_pad_factor):
        with pytest.raises(ParameterError, match="zero_pad_factor must be an integer >= 1"):
            SpectrumConfig(zero_pad_factor=zero_pad_factor)

    def test_whole_float_zero_pad_factor_is_stored_as_an_int(self):
        cfg = SpectrumConfig(zero_pad_factor=4.0)
        assert type(cfg.zero_pad_factor) is int
        x = Signal(np.random.default_rng(13).standard_normal(int(FS)), FS)
        np.testing.assert_array_equal(envelope_spectrum(x, cfg).amps,
                                      envelope_spectrum(x, SpectrumConfig()).amps)


class TestWelchPsd:
    def test_flat_for_white_noise(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal(int(2 * FS))
        cfg = SpectrumConfig(piece_len_s=0.25)
        spec = welch_psd(x, FS, cfg)
        band = spec.amps[(spec.freqs > 0) & (spec.freqs < FS / 4)]
        assert band.max() / np.median(band) < 10.0

    def test_tone_peak_lands_on_nearest_bin(self):
        x = tone(30.0, duration=2.0)
        spec = welch_psd(x.samples, FS, SpectrumConfig(piece_len_s=0.5))
        peak_freq = spec.freqs[np.argmax(spec.amps)]
        assert abs(peak_freq - 30.0) <= spec.df / 2

    def test_zero_input_gives_zero_spectrum(self):
        spec = welch_psd(np.zeros(int(FS)), FS, SpectrumConfig())
        assert np.all(spec.amps == 0.0)

    def test_df_exact(self):
        cfg = SpectrumConfig(piece_len_s=0.5, zero_pad_factor=4)
        spec = welch_psd(np.ones(int(FS)), FS, cfg)
        piece = int(0.5 * FS)
        assert spec.df == FS / (piece * 4)
        np.testing.assert_allclose(spec.freqs, np.arange(len(spec)) * spec.df)

    def test_parseval_single_full_piece(self):
        # no zero padding, one full-length piece: PSD integrates to the variance
        rng = np.random.default_rng(10)
        x = rng.standard_normal(int(FS)) + 0.5
        cfg = SpectrumConfig(piece_len_s=1.0, zero_pad_factor=1)
        spec = welch_psd(x, FS, cfg)
        assert np.sum(spec.amps) * spec.df == pytest.approx(np.var(x), rel=0.05)

    def test_too_short_input_rejected(self):
        with pytest.raises(ParameterError):
            welch_psd(np.ones(4), FS, SpectrumConfig())

    @pytest.mark.parametrize("duration,cfg", [
        (0.5, SpectrumConfig()),  # one piece
        (10.0, SpectrumConfig()),  # 20 pieces
        (1.3, SpectrumConfig()),  # 0.3 s remainder dropped
        (0.3, SpectrumConfig()),  # piece clipped to the input
        (0.5, SpectrumConfig(piece_len_s=2501 / FS, zero_pad_factor=1)),  # odd nfft
        (1.0, SpectrumConfig(window="hamming")),
        (1.0, SpectrumConfig(window="boxcar")),
    ])
    def test_matches_scipy_reference(self, duration, cfg):
        rng = np.random.default_rng(11)
        n = int(round(duration * FS))
        t = np.arange(n) / FS
        x = rng.standard_normal(n) + 0.7 + 2.0 * np.cos(2 * np.pi * 30.0 * t)
        piece = min(int(round(cfg.piece_len_s * FS)), n)
        freqs, psd = scipy_welch(x, fs=FS, window=cfg.window, nperseg=piece, noverlap=0,
                                 nfft=piece * cfg.zero_pad_factor, detrend="constant",
                                 scaling="density")
        spec = welch_psd(x, FS, cfg)
        np.testing.assert_array_equal(spec.freqs, freqs)
        assert np.max(np.abs(spec.amps - psd)) <= 1e-12 * psd.max()


class TestBandLimitedWelch:
    F_MAX = 123.9  # the default estimator's reach at 30 Hz

    @pytest.mark.parametrize("n,cfg", [
        (12_500, SpectrumConfig()),  # one piece
        (250_000, SpectrumConfig()),  # 20 pieces
        (12_500, SpectrumConfig(piece_len_s=2501 / FS, zero_pad_factor=1)),  # odd nfft
        (25_000, SpectrumConfig(zero_pad_factor=1)),
        (12_497, SpectrumConfig()),  # piece length not divisible by D
        (25_000, SpectrumConfig(window="hamming")),
        (25_000, SpectrumConfig(window="boxcar")),
    ])
    def test_leading_bins_of_the_full_spectrum(self, n, cfg):
        rng = np.random.default_rng(n)
        t = np.arange(n) / FS
        x = rng.standard_normal(n) + 0.7 + 2.0 * np.cos(2 * np.pi * 30.0 * t)
        full = welch_psd(x, FS, cfg)
        part = welch_psd(x, FS, cfg, f_max=self.F_MAX)
        b = len(part) - 1
        assert part.freqs[b] >= self.F_MAX + part.df
        assert part.df == full.df
        np.testing.assert_array_equal(part.freqs, full.freqs[: b + 1])
        assert np.max(np.abs(part.amps - full.amps[: b + 1])) <= 1e-12 * full.amps.max()

    def test_grid_is_rfftfreq_bit_for_bit(self):
        x = np.random.default_rng(1).standard_normal(12_500)
        for f_max in (None, self.F_MAX):
            spec = welch_psd(x, FS, SpectrumConfig(), f_max=f_max)
            np.testing.assert_array_equal(
                spec.freqs, np.fft.rfftfreq(50_000, 1.0 / FS)[: len(spec)])

    @pytest.mark.parametrize("nfft", [2500, 2501])
    def test_nyquist_bin_is_doubled_only_for_odd_nfft(self, nfft):
        # an f_max past fs/2 clips to the whole spectrum, Nyquist bin included
        cfg = SpectrumConfig(piece_len_s=nfft / FS, zero_pad_factor=1)
        x = np.random.default_rng(nfft).standard_normal(nfft)
        spec = welch_psd(x, FS, cfg, f_max=FS)
        freqs, psd = scipy_welch(x, fs=FS, window="hann", nperseg=nfft, noverlap=0,
                                 detrend="constant", scaling="density")
        np.testing.assert_array_equal(spec.freqs, freqs)
        assert np.max(np.abs(spec.amps - psd)) <= 1e-12 * psd.max()

    def test_nonpositive_f_max_rejected(self):
        with pytest.raises(ParameterError, match="f_max"):
            welch_psd(np.ones(12_500), FS, SpectrumConfig(), f_max=0.0)

    @pytest.mark.parametrize("f_max", [None, F_MAX])
    def test_overflowing_squares_are_recomputed_exactly(self, f_max):
        # at 2**510 the rfft's squares pass the float range; the PSD does not
        x = np.random.default_rng(2).standard_normal(25_000)
        base = welch_psd(x, FS, SpectrumConfig(), f_max)
        loud = welch_psd(2.0**510 * x, FS, SpectrumConfig(), f_max)
        np.testing.assert_array_equal(loud.amps, np.ldexp(base.amps, 1020))

    def test_psd_beyond_the_float_range_names_its_cause(self):
        x = 1e160 * np.random.default_rng(3).standard_normal(12_500)
        with pytest.raises(ParameterError,
                           match=r"^PSD overflows the float range on samples up to "):
            welch_psd(x, FS, SpectrumConfig())


class TestEnvelopeSpectrum:
    def test_harmonic_peaks_dominate_for_strong_impulses(self):
        sig, _ = simulate_signal(10.0, FS, DistributionSpec.constant(30),
                                 PulseParams(aci=3.0), seed=21)
        spec = envelope_spectrum(sig)
        # neighbourhood wider than the taper mainlobe (raw bin is 2 Hz)
        for k in (1, 2, 3):
            sel = (spec.freqs >= k * 30 - 10) & (spec.freqs <= k * 30 + 10)
            window = spec.amps[sel]
            freqs = spec.freqs[sel]
            assert window.max() >= 5 * np.median(window)
            assert abs(freqs[np.argmax(window)] - k * 30) <= 2 * spec.df

    def test_pure_noise_has_no_fault_peak(self):
        rng = np.random.default_rng(22)
        sig = Signal(rng.standard_normal(int(4 * FS)), FS)
        spec = envelope_spectrum(sig)
        sel = (spec.freqs >= 25) & (spec.freqs <= 35)
        band = (spec.freqs > 5) & (spec.freqs < 120)
        assert spec.amps[sel].max() < 5 * np.median(spec.amps[band])

    def test_amplitudes_nonnegative(self):
        sig, _ = simulate_signal(1.0, FS, DistributionSpec.constant(30),
                                 PulseParams(aci=2.0), seed=23)
        spec = envelope_spectrum(sig)
        assert np.all(spec.amps >= 0.0)

    def test_bandpass_stage_is_applied(self):
        # a strong out-of-band tone disappears once a band is configured
        t = np.arange(int(FS)) / FS
        carrier = np.cos(2 * np.pi * 2500.0 * t) * (1 + np.cos(2 * np.pi * 30.0 * t))
        low_tone = 50.0 * np.cos(2 * np.pi * 200.0 * t)
        sig = Signal(carrier + low_tone, FS)
        cfg = SpectrumConfig(bandpass=(1250.0, 3750.0))
        spec = envelope_spectrum(sig, cfg)
        sel_30 = np.argmin(np.abs(spec.freqs - 30.0))
        sel_200 = np.argmin(np.abs(spec.freqs - 200.0))
        assert spec.amps[sel_30] > 10 * spec.amps[sel_200]
