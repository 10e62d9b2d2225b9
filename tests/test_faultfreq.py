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
    FaultFrequencyEstimate,
    ParameterError,
    PulseParams,
    Signal,
    SpectrumConfig,
    detect_harmonic_peak,
    envelope_spectrum,
    estimate_fault_frequency,
    simulate_signal,
    snr,
)
from envdiag.faultfreq import (
    check_segment_failures,
    estimate_batch,
    estimate_or_error,
    iter_segments,
)
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


def fake_estimate(i):
    """An estimate for item ``i``, or an EstimationError for every third item."""
    if i % 3 == 1:
        return EstimationError(f"item {i}")
    return FaultFrequencyEstimate(f_hat=30.0 + i, peaks=(), snr=0.5 * i)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_estimate_batch_splits_estimates_from_errors_in_item_order(monkeypatch, threads):
    monkeypatch.setenv("ENVDIAG_THREADS", threads)
    f_hats, snrs, errors = estimate_batch(fake_estimate, range(8))
    np.testing.assert_array_equal(f_hats, [30.0, 32.0, 33.0, 35.0, 36.0])
    np.testing.assert_array_equal(snrs, [0.0, 1.0, 1.5, 2.5, 3.0])
    assert [str(e) for e in errors] == ["item 1", "item 4", "item 7"]


def test_estimate_batch_of_only_errors_gives_empty_arrays():
    f_hats, snrs, errors = estimate_batch(fake_estimate, [1, 4])
    assert f_hats.shape == snrs.shape == (0,)
    assert len(errors) == 2


def estimates(x, seg_len):
    """The estimate, or the error, of each segment of ``x`` in time order."""
    est_cfg = EstimatorConfig(f_theoretical=30.0)
    return [estimate_or_error(seg, SpectrumConfig(), est_cfg) for seg in iter_segments(x, seg_len)]


class TestEstimatePerSegment:
    """A recording estimated segment by segment: ``iter_segments`` cuts it,
    ``estimate_or_error`` estimates each segment and ``check_segment_failures``
    is the skip policy (``classify_signal`` runs all three)."""

    def test_segment_count(self):
        sig = Signal(np.random.default_rng(0).standard_normal(int(6 * FS)), FS)
        sig = Signal(sig.samples + _impulse_train(6.0), FS)
        assert [len(seg) for seg in iter_segments(sig, 0.5)] == [12_500] * 12
        ests = estimates(sig, 0.5)
        assert not any(isinstance(e, EstimationError) for e in ests)
        assert check_segment_failures(sig, 0.5, 0, len(ests)) == []

    def test_trailing_remainder_dropped(self):
        sig = Signal(_impulse_train(2.3), FS)
        assert [seg.samples.tolist() for seg in iter_segments(sig, 1.0)] == \
            [sig.samples[:25_000].tolist(), sig.samples[25_000:50_000].tolist()]

    def test_constant_signal_gives_identical_estimates(self):
        ests = estimates(Signal(_impulse_train(4.0), FS), 1.0)
        assert len(ests) == 4
        assert len({e.f_hat for e in ests}) == 1

    def test_signal_shorter_than_segment_rejected(self):
        sig = Signal(np.ones(int(0.25 * FS)), FS)
        with pytest.raises(EstimationError,
                           match=r"^signal of 0.25 s is shorter than one 1 s segment$"):
            next(iter_segments(sig, 1.0))

    def test_one_segment_rejected(self):
        sig = Signal(_impulse_train(1.5), FS)
        assert len(list(iter_segments(sig, 1.0))) == 1
        with pytest.raises(EstimationError,
                           match=r"^signal of 1.5 s yields fewer than 2 segments of 1 s$"):
            check_segment_failures(sig, 1.0, 0, 1)

    def test_two_segments_cut_by_rounding_are_kept(self):
        # 0.50001 s rounds to 12,500 samples, so 1 s holds 2 segments
        sig = Signal(_impulse_train(1.0), FS)
        assert [len(seg) for seg in iter_segments(sig, 0.50001)] == [12_500, 12_500]
        assert check_segment_failures(sig, 0.50001, 0, 2) == []

    def test_one_segment_cut_by_rounding_rejected(self):
        # 0.49966 s rounds to 12,492 samples, so 24,983 samples hold only 1 segment
        sig = Signal(_impulse_train(1.0)[:24_983], FS)
        assert [len(seg) for seg in iter_segments(sig, 0.49966)] == [12_492]
        with pytest.raises(EstimationError, match="yields fewer than 2 segments of 0.49966 s"):
            check_segment_failures(sig, 0.49966, 0, 1)

    def test_silent_segment_is_skipped_with_a_warning(self):
        # segment 2 of 5 is zeros: its SNR is undefined
        samples = _impulse_train(5.0)
        samples[2 * int(FS):3 * int(FS)] = 0.0
        sig = Signal(samples, FS)
        failed = [i for i, e in enumerate(estimates(sig, 1.0)) if isinstance(e, EstimationError)]
        assert failed == [2]
        assert check_segment_failures(sig, 1.0, 1, 5) == \
            ["1/5 segment estimates failed and were skipped"]

    def test_more_than_a_fifth_failing_is_an_estimation_error(self):
        samples = _impulse_train(5.0)
        samples[2 * int(FS):4 * int(FS)] = 0.0
        sig = Signal(samples, FS)
        failed = [i for i, e in enumerate(estimates(sig, 1.0)) if isinstance(e, EstimationError)]
        assert failed == [2, 3]
        with pytest.raises(EstimationError, match=r"^2/5 segment estimates failed; check "):
            check_segment_failures(sig, 1.0, 2, 5)


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
        {"f_theoretical": 30.0, "n_harmonics": math.inf},
        {"f_theoretical": 30.0, "n_harmonics": math.nan},
        {"f_theoretical": 30.0, "peak_excl_bins": math.inf},
        {"f_theoretical": 30.0, "peak_excl_bins": math.nan},
    ])
    def test_invalid_config(self, kwargs):
        with pytest.raises(ParameterError):
            EstimatorConfig(**kwargs)

    def test_whole_float_counts_are_stored_as_ints(self, make_spectrum):
        cfg = EstimatorConfig(f_theoretical=30.0, n_harmonics=3.0, peak_excl_bins=2.0)
        assert (type(cfg.n_harmonics), type(cfg.peak_excl_bins)) == (int, int)
        spec = make_spectrum({30.0: 5.0, 60.5: 4.0, 90.0: 3.0}, floor=0.1)
        want = estimate_fault_frequency(spec, EstimatorConfig(f_theoretical=30.0))
        assert estimate_fault_frequency(spec, cfg) == want
