"""Harmonic peak search, frequency estimation and SNR tests."""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from envdiag import (
    DistributionSpec,
    EstimationError,
    EstimatorConfig,
    ParameterError,
    PulseParams,
    Signal,
    SpectrumConfig,
    detect_harmonic_peak,
    envelope_spectrum,
    estimate_fault_frequency,
    estimate_per_segment,
    simulate_signal,
    snr,
)
from envdiag.faultfreq import estimate_or_error
from envdiag.envspec import EnvelopeSpectrum

FS = 25_000.0


class TestDetectHarmonicPeak:
    def test_recovers_single_spike(self, make_spectrum):
        spec = make_spectrum({30.0: 5.0})
        peak = detect_harmonic_peak(spec, 30.0, k=1)
        assert peak.freq == 30.0
        assert peak.amp == 5.0
        assert peak.order == 1

    def test_flat_spectrum_ties_toward_theoretical(self, make_spectrum):
        spec = make_spectrum({}, floor=1.0)
        peak = detect_harmonic_peak(spec, 30.0, k=1)
        assert peak.freq == 30.0

    def test_tie_break_is_symmetric(self, make_spectrum):
        # theoretical frequency off the grid: closest bin wins
        spec = make_spectrum({}, df=0.5, floor=1.0)
        peak = detect_harmonic_peak(spec, 30.2, k=1)
        assert peak.freq == 30.0

    def test_second_harmonic_window(self, make_spectrum):
        spec = make_spectrum({60.5: 3.0, 30.0: 1.0})
        peak = detect_harmonic_peak(spec, 30.0, k=2)
        assert peak.freq == 60.5
        assert peak.order == 2

    def test_window_outside_spectrum_rejected(self, make_spectrum):
        spec = make_spectrum({}, f_max=50.0, floor=1.0)
        with pytest.raises(EstimationError, match="harmonic 3"):
            detect_harmonic_peak(spec, 30.0, k=3)

    def test_window_crossing_nyquist_rejected(self):
        # harmonic 3 of 5 kHz searches [12300, 17700] Hz; fs/2 is 12500 Hz
        sig, _ = simulate_signal(0.5, FS, DistributionSpec.constant(30),
                                 PulseParams(aci=2.0), seed=29)
        cfg = EstimatorConfig(f_theoretical=5000.0)
        with pytest.raises(EstimationError,
                           match=r"^harmonic 3: .* exceeds the spectrum range$"):
            estimate_fault_frequency(envelope_spectrum(sig), cfg)

    def test_synthetic_signal_second_harmonic(self):
        sig, _ = simulate_signal(10.0, FS, DistributionSpec.constant(30),
                                 PulseParams(aci=3.0), seed=31)
        spec = envelope_spectrum(sig)
        peak = detect_harmonic_peak(spec, 30.0, k=2)
        assert abs(peak.freq - 60.0) <= spec.df


class TestEstimateFaultFrequency:
    def test_exact_harmonics_average_exactly(self, make_spectrum):
        spec = make_spectrum({30.0: 5.0, 60.0: 4.0, 90.0: 3.0}, floor=0.1)
        est = estimate_fault_frequency(spec, EstimatorConfig(f_theoretical=30.0))
        assert est.f_hat == 30.0

    def test_detuned_second_harmonic_arithmetic(self, make_spectrum):
        spec = make_spectrum({30.0: 5.0, 60.5: 4.0, 90.0: 3.0}, floor=0.1)
        est = estimate_fault_frequency(spec, EstimatorConfig(f_theoretical=30.0))
        assert est.f_hat == pytest.approx((30.0 + 30.25 + 30.0) / 3, abs=1e-12)

    def test_single_harmonic_equals_fundamental(self, make_spectrum):
        spec = make_spectrum({30.5: 5.0}, floor=0.1)
        cfg = EstimatorConfig(f_theoretical=30.0, n_harmonics=1)
        est = estimate_fault_frequency(spec, cfg)
        assert est.f_hat == 30.5
        assert len(est.peaks) == 1

    def test_error_names_failing_order(self, make_spectrum):
        # harmonic 2's window ends at 70.8 Hz, inside; harmonic 3's does not
        spec = make_spectrum({}, f_max=71.0, floor=1.0)
        with pytest.raises(EstimationError, match="harmonic 3"):
            estimate_fault_frequency(spec, EstimatorConfig(f_theoretical=30.0))

    def test_peaks_stay_inside_their_windows(self):
        sig, _ = simulate_signal(2.0, FS, DistributionSpec.uniform(29, 31),
                                 PulseParams(aci=2.0), seed=37)
        cfg = EstimatorConfig(f_theoretical=30.0)
        est = estimate_fault_frequency(envelope_spectrum(sig), cfg)
        for peak in est.peaks:
            target = peak.order * 30.0
            assert target * (1 - cfg.search_frac) <= peak.freq <= target * (1 + cfg.search_frac)

    @settings(max_examples=20, deadline=None)
    @given(scale=st.floats(min_value=1e-6, max_value=1e6))
    def test_amplitude_scaling_invariance(self, scale):
        freqs = np.arange(0, 401) * 0.5
        rng = np.random.default_rng(41)
        amps = rng.random(freqs.size) + 0.01
        cfg = EstimatorConfig(f_theoretical=30.0)
        base = estimate_fault_frequency(EnvelopeSpectrum(freqs, amps, 0.5), cfg)
        scaled = estimate_fault_frequency(EnvelopeSpectrum(freqs, scale * amps, 0.5), cfg)
        assert scaled.f_hat == base.f_hat
        assert scaled.snr == pytest.approx(base.snr, rel=1e-9)

    @settings(max_examples=20, deadline=None)
    @given(k=st.integers(min_value=-20, max_value=509))
    @example(k=505)
    @example(k=509)
    def test_signal_scaling_by_power_of_two_invariance(self, k):
        # a power-of-two gain is exact through every FFT step of the front end;
        # above 2**504 the PSD's squares overflow and are recomputed on a
        # scaled input, and the SNR must not overflow either
        sig, _ = simulate_signal(0.5, FS, DistributionSpec.constant(30),
                                 PulseParams(aci=2.0), seed=43)
        cfg = EstimatorConfig(f_theoretical=30.0)
        base = estimate_fault_frequency(envelope_spectrum(sig), cfg)
        scaled = estimate_fault_frequency(
            envelope_spectrum(Signal(2.0**k * sig.samples, FS)), cfg)
        assert scaled.f_hat == base.f_hat
        assert scaled.snr == pytest.approx(base.snr, rel=1e-12)

    def test_envelope_overflow_names_its_cause(self):
        # at 2**510 the samples pass 1e154 and their squares overflow
        sig, _ = simulate_signal(0.5, FS, DistributionSpec.constant(30),
                                 PulseParams(aci=2.0), seed=43)
        with pytest.raises(ParameterError,
                           match=r"^envelope overflows the float range on samples up to "):
            envelope_spectrum(Signal(2.0**510 * sig.samples, FS))

    def test_noiseless_estimate_within_one_bin(self):
        sig, _ = simulate_signal(5.0, FS, DistributionSpec.constant(30),
                                 PulseParams(aci=3.0), seed=43, noise_std=0.0)
        spec = envelope_spectrum(sig)
        est = estimate_fault_frequency(spec, EstimatorConfig(f_theoretical=30.0))
        assert abs(est.f_hat - 30.0) <= spec.df


class TestSnr:
    def test_flat_noise_with_equal_peaks(self, make_spectrum):
        spec = make_spectrum({30.0: 2.0, 60.0: 2.0, 90.0: 2.0}, floor=1.0)
        cfg = EstimatorConfig(f_theoretical=30.0)
        peaks = [detect_harmonic_peak(spec, 30.0, k) for k in (1, 2, 3)]
        assert snr(spec, peaks, cfg) == pytest.approx(4.0)

    def test_all_equal_amplitudes_give_unity(self, make_spectrum):
        spec = make_spectrum({}, floor=1.0)
        cfg = EstimatorConfig(f_theoretical=30.0)
        peaks = [detect_harmonic_peak(spec, 30.0, k) for k in (1, 2, 3)]
        assert snr(spec, peaks, cfg) == pytest.approx(1.0)

    def test_snr_grows_with_impulse_amplitude(self):
        # batch means must order by ACI; small batch keeps it cheap
        cfg = EstimatorConfig(f_theoretical=30.0)
        means = []
        for aci in (1.0, 3.0):
            vals = []
            for i in range(20):
                sig, _ = simulate_signal(0.5, FS, DistributionSpec.constant(30),
                                         PulseParams(aci=aci), seed=(47, i))
                est = estimate_fault_frequency(envelope_spectrum(sig), cfg)
                vals.append(est.snr)
            means.append(np.mean(vals))
        assert means[1] > means[0]

    def test_needs_at_least_one_peak(self, make_spectrum):
        spec = make_spectrum({}, floor=1.0)
        with pytest.raises(ParameterError):
            snr(spec, [], EstimatorConfig(f_theoretical=30.0))


class TestBandLimitedEstimate:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           seconds=st.sampled_from([0.5, 1.0, 1.3, 2.0]),
           aci=st.sampled_from([1.0, 2.0, 3.0]),
           n_harmonics=st.integers(min_value=1, max_value=3))
    def test_same_estimate_as_from_the_full_spectrum(self, seed, seconds, aci, n_harmonics):
        sig, _ = simulate_signal(seconds, FS, DistributionSpec.normal(30, 0.33),
                                 PulseParams(aci=aci), seed=seed)
        cfg = EstimatorConfig(f_theoretical=30.0, n_harmonics=n_harmonics)
        full = estimate_fault_frequency(envelope_spectrum(sig), cfg)
        part = estimate_fault_frequency(envelope_spectrum(sig, f_max=cfg.max_freq), cfg)
        assert part.f_hat == full.f_hat
        assert part.snr == pytest.approx(full.snr, rel=1e-12)

    @pytest.mark.parametrize("kwargs,reach", [
        ({}, 3.5 * 30.0 * 1.18),  # the SNR band reaches past the third harmonic
        ({"n_harmonics": 4, "search_frac": 0.1}, 4 * 30.0 * 1.1),
    ])
    def test_max_freq(self, kwargs, reach):
        assert EstimatorConfig(f_theoretical=30.0, **kwargs).max_freq == pytest.approx(reach)

    def test_window_crossing_nyquist_still_fails(self):
        # harmonic 3 of 5 kHz ends at 17.7 kHz: the cut spectrum ends at fs/2
        sig, _ = simulate_signal(0.5, FS, DistributionSpec.constant(30),
                                 PulseParams(aci=2.0), seed=29)
        err = estimate_or_error(sig, SpectrumConfig(), EstimatorConfig(f_theoretical=5000.0))
        assert isinstance(err, EstimationError)
        assert re.match(r"^harmonic 3: .* exceeds the spectrum range$", str(err))


class TestEstimatePerSegment:
    def test_segment_count(self):
        sig = Signal(np.random.default_rng(0).standard_normal(int(6 * FS)), FS)
        sig = Signal(sig.samples + _impulse_train(6.0), FS)
        indices, ests, warnings = estimate_per_segment(sig, 0.5, SpectrumConfig(),
                                                       EstimatorConfig(f_theoretical=30.0))
        assert indices == list(range(12))
        assert len(ests) == 12
        assert warnings == []

    def test_trailing_remainder_dropped(self):
        sig = Signal(_impulse_train(2.3), FS)
        _, ests, _ = estimate_per_segment(sig, 1.0, SpectrumConfig(),
                                          EstimatorConfig(f_theoretical=30.0))
        assert len(ests) == 2

    def test_constant_signal_gives_identical_estimates(self):
        sig = Signal(_impulse_train(4.0), FS)
        _, ests, _ = estimate_per_segment(sig, 1.0, SpectrumConfig(),
                                          EstimatorConfig(f_theoretical=30.0))
        f_hats = {e.f_hat for e in ests}
        assert len(f_hats) == 1

    def test_signal_shorter_than_segment_rejected(self):
        sig = Signal(np.ones(int(0.25 * FS)), FS)
        with pytest.raises(EstimationError):
            estimate_per_segment(sig, 1.0, SpectrumConfig(),
                                 EstimatorConfig(f_theoretical=30.0))

    def test_one_segment_rejected(self):
        sig = Signal(_impulse_train(1.5), FS)
        with pytest.raises(EstimationError,
                           match=r"^signal of 1.5 s yields fewer than 2 segments of 1 s$"):
            estimate_per_segment(sig, 1.0, SpectrumConfig(),
                                 EstimatorConfig(f_theoretical=30.0))

    def test_two_segments_cut_by_rounding_are_kept(self):
        # 0.50001 s rounds to 12,500 samples, so 1 s holds 2 segments
        indices, ests, _ = estimate_per_segment(Signal(_impulse_train(1.0), FS), 0.50001,
                                                SpectrumConfig(),
                                                EstimatorConfig(f_theoretical=30.0))
        assert indices == [0, 1]
        assert len(ests) == 2

    def test_one_segment_cut_by_rounding_rejected(self):
        # 0.49966 s rounds to 12,492 samples, so 24,983 samples hold only 1 segment
        sig = Signal(_impulse_train(1.0)[:24_983], FS)
        with pytest.raises(EstimationError, match="yields fewer than 2 segments of 0.49966 s"):
            estimate_per_segment(sig, 0.49966, SpectrumConfig(),
                                 EstimatorConfig(f_theoretical=30.0))

    def test_silent_segment_is_skipped_with_a_warning(self):
        # segment 2 of 5 is zeros: its SNR is undefined
        samples = _impulse_train(5.0)
        samples[2 * int(FS):3 * int(FS)] = 0.0
        indices, ests, warnings = estimate_per_segment(Signal(samples, FS), 1.0,
                                                       SpectrumConfig(),
                                                       EstimatorConfig(f_theoretical=30.0))
        assert indices == [0, 1, 3, 4]
        assert len(ests) == 4
        assert warnings == ["1/5 segment estimates failed and were skipped"]

    def test_more_than_a_fifth_failing_is_an_estimation_error(self):
        samples = _impulse_train(5.0)
        samples[2 * int(FS):4 * int(FS)] = 0.0
        with pytest.raises(EstimationError, match=r"^2/5 segment estimates failed; check "):
            estimate_per_segment(Signal(samples, FS), 1.0, SpectrumConfig(),
                                 EstimatorConfig(f_theoretical=30.0))


def _impulse_train(duration, f=30.0, aci=3.0):
    sig, _ = simulate_signal(duration, FS, DistributionSpec.constant(f),
                             PulseParams(aci=aci), seed=53, noise_std=0.0)
    return sig.samples


class TestEstimatorConfig:
    @pytest.mark.parametrize("kwargs", [
        {"f_theoretical": -1.0},
        {"f_theoretical": 30.0, "n_harmonics": 0},
        {"f_theoretical": 30.0, "search_frac": 0.0},
        {"f_theoretical": 30.0, "search_frac": 0.25},  # windows would overlap
        {"f_theoretical": 30.0, "peak_excl_bins": -1},
        {"f_theoretical": math.inf},
    ])
    def test_invalid_config(self, kwargs):
        with pytest.raises(ParameterError):
            EstimatorConfig(**kwargs)
