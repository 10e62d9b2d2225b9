"""Signal-model tests: pulse shape, impulse train, noise statistics, seeding."""

import math
import tracemalloc

import numpy as np
import pytest

from envdiag import (
    DistributionSpec,
    ParameterError,
    PulseParams,
    SeedSpec,
    Signal,
    SimulationError,
    envelope,
    gaussian_pulse,
    simulate_signal,
)
from envdiag.sigmodel import PULSE_SUPPORT_SIGMAS

FS = 25_000.0


def dtft_mag(x, t, f):
    return abs(np.sum(x * np.exp(-2j * np.pi * f * t)))


class TestGaussianPulse:
    def test_unit_peak_at_zero(self):
        assert gaussian_pulse(np.array([0.0]), 2500.0, 0.45, -6.0)[0] == 1.0

    def test_even_symmetry(self):
        t = np.linspace(0, 2e-3, 401)
        np.testing.assert_array_equal(
            gaussian_pulse(t, 2500.0, 0.45), gaussian_pulse(-t, 2500.0, 0.45)
        )

    def test_envelope_bound(self):
        pulse = PulseParams(aci=1.0)
        tv = pulse.time_variance(0.45)
        t = np.linspace(-5e-3, 5e-3, 2001)
        g = gaussian_pulse(t, 2500.0, 0.45)
        assert np.all(np.abs(g) <= np.exp(-t * t / (2 * tv)) + 1e-15)

    @pytest.mark.parametrize("bw,bwr", [(0.45, -6.0), (0.4, -6.0), (0.5, -3.0)])
    def test_spectrum_attenuation_at_band_edges(self, bw, bwr):
        # sampled-pulse DTFT at fc*(1 +- bw/2) must sit bwr dB below the peak
        fc = 2500.0
        ref = 10.0 ** (bwr / 20.0)
        tv = -2.0 * math.log(ref) / (math.pi * bw * fc) ** 2
        n0 = int(10.0 * math.sqrt(tv) * FS)
        t = np.arange(-n0, n0 + 1) / FS
        g = gaussian_pulse(t, fc, bw, bwr)
        peak = dtft_mag(g, t, fc)
        for edge in (fc * (1 - bw / 2), fc * (1 + bw / 2)):
            assert dtft_mag(g, t, edge) / peak == pytest.approx(ref, abs=2e-3)

    def test_minus_six_db_reference_value(self):
        # 10^(-6/20) ~ 0.5012 of the peak
        assert 10.0 ** (-6.0 / 20.0) == pytest.approx(0.5012, abs=1e-4)

    @pytest.mark.parametrize("kwargs", [
        {"fc": -1.0, "bw": 0.45, "bwr": -6.0},
        {"fc": 2500.0, "bw": 0.0, "bwr": -6.0},
        {"fc": 2500.0, "bw": 2.5, "bwr": -6.0},
        {"fc": 2500.0, "bw": 0.45, "bwr": 0.0},
    ])
    def test_invalid_parameters(self, kwargs):
        with pytest.raises(ParameterError):
            gaussian_pulse(np.array([0.0]), **kwargs)


class TestPulseParams:
    @pytest.mark.parametrize("kwargs", [
        {"aci": 0.0}, {"aci": -1.0}, {"aci": math.inf}, {"aci": math.nan},
        {"aci": 1.0, "fc": 0.0}, {"aci": 1.0, "fc": math.inf},
    ])
    def test_aci_and_carrier_must_be_positive_and_finite(self, kwargs):
        with pytest.raises(ParameterError, match="must be positive and finite"):
            PulseParams(**kwargs)


class TestDistributionSpec:
    def test_parse_roundtrip(self):
        for text in ("constant:30", "uniform:29,31", "normal:30,0.33"):
            assert DistributionSpec.parse(text).spec_string() == text

    def test_sampling_ranges(self):
        rng = np.random.default_rng(0)
        uni = DistributionSpec.uniform(29, 31)
        draws = [uni.sample(rng) for _ in range(500)]
        assert all(29 <= f <= 31 for f in draws)
        assert DistributionSpec.constant(30).sample(rng) == 30.0

    @pytest.mark.parametrize("text", [
        "constant:-1", "uniform:31,29", "uniform:0,5", "normal:30,-1",
        "weird:1,2", "uniform:a,b", "constant",
        "constant:inf", "uniform:29,inf", "normal:inf,1", "normal:30,inf",
    ])
    def test_invalid_specs(self, text):
        with pytest.raises(ParameterError):
            DistributionSpec.parse(text)


class TestSignalType:
    def test_duration(self):
        sig = Signal(np.ones(25000), FS)
        assert sig.duration == pytest.approx(1.0)
        assert len(sig) == 25000

    @pytest.mark.parametrize("samples,fs", [
        (np.array([]), FS),
        (np.array([1.0, np.nan]), FS),
        (np.array([1.0, np.inf]), FS),
        (np.ones(10), 0.0),
        (np.ones((2, 5)), FS),
        (np.ones(10), math.inf),
    ])
    def test_invalid_signals(self, samples, fs):
        with pytest.raises(ParameterError):
            Signal(samples, fs)


class TestSimulateSignal:
    def test_impulse_spacing_matches_fault_frequency(self):
        # noiseless signal: envelope maxima sit 1/f apart to within one sample
        pulse = PulseParams(aci=3.0)
        sig, f_true = simulate_signal(
            1.0, FS, DistributionSpec.constant(30), pulse, seed=7, noise_std=0.0
        )
        assert f_true == 30.0
        env = envelope(sig.samples)
        above = np.flatnonzero(env > 0.5 * env.max())
        bursts = np.split(above, np.flatnonzero(np.diff(above) > 10) + 1)
        centres = np.array([b[np.argmax(env[b])] for b in bursts]) / FS
        spacings = np.diff(centres)
        assert np.all(np.abs(spacings - 1.0 / 30.0) <= 1.0 / FS)
        # about duration * f impulses fit into the record
        assert abs(len(centres) - 30) <= 1

    def test_noise_statistics(self):
        sig, _ = simulate_signal(
            8.0, FS, DistributionSpec.constant(30), PulseParams(aci=1e-9), seed=123
        )
        n = len(sig)
        assert abs(sig.samples.mean()) < 4.0 / math.sqrt(n)
        assert sig.samples.var() == pytest.approx(1.0, rel=0.05)

    def test_uniform_draw_lands_in_range(self):
        sig, f_true = simulate_signal(
            1.0, FS, DistributionSpec.uniform(29, 31), PulseParams(aci=2.0), seed=5
        )
        assert 29.0 <= f_true <= 31.0

    def test_too_short_duration_rejected(self):
        with pytest.raises(SimulationError):
            simulate_signal(0.05, FS, DistributionSpec.constant(30), PulseParams(aci=1.0), 0)

    def test_nyquist_margin_enforced(self):
        with pytest.raises(ParameterError):
            simulate_signal(1.0, 4000.0, DistributionSpec.constant(30), PulseParams(aci=1.0), 0)

    def test_reproducible_from_seed(self):
        args = (1.0, FS, DistributionSpec.uniform(29, 31), PulseParams(aci=2.0))
        a, fa = simulate_signal(*args, seed=99)
        b, fb = simulate_signal(*args, seed=99)
        assert fa == fb
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_negative_noise_std_rejected(self):
        with pytest.raises(ParameterError):
            simulate_signal(1.0, FS, DistributionSpec.constant(30), PulseParams(aci=1.0),
                            0, noise_std=-1.0)

    @pytest.mark.parametrize("noise_std", [float("nan"), float("inf")])
    def test_non_finite_noise_std_rejected(self, noise_std):
        # NaN compares false both ways, so it passes a plain "< 0" check
        with pytest.raises(ParameterError, match="noise_std must be non-negative and finite"):
            simulate_signal(1.0, FS, DistributionSpec.constant(30), PulseParams(aci=1.0),
                            0, noise_std=noise_std)


def simulate_by_pulse(duration, fs, dist, pulse, seed, noise_std=1.0):
    """The per-impulse loop ``simulate_signal`` replaced; its bit-exact oracle."""
    rng = np.random.default_rng(seed)  # a Generator passes through unchanged
    f_true = dist.sample(rng)
    n = int(round(duration * fs))
    x = noise_std * rng.standard_normal(n) if noise_std > 0 else np.zeros(n)
    period = 1.0 / f_true
    t0 = rng.uniform(0.0, period)
    tail = pulse.max_half_support()
    k_min = math.ceil((-tail - t0) * f_true)
    k_max = math.floor((duration + tail - t0) * f_true)
    for k in range(k_min, k_max + 1):
        centre = t0 + k * period
        bw = rng.uniform(pulse.bw_lo, pulse.bw_hi)
        half = PULSE_SUPPORT_SIGMAS * math.sqrt(pulse.time_variance(bw))
        i0 = max(0, math.ceil((centre - half) * fs))
        i1 = min(n - 1, math.floor((centre + half) * fs))
        if i1 < i0:
            continue
        t_rel = np.arange(i0, i1 + 1) / fs - centre
        x[i0 : i1 + 1] += pulse.aci * gaussian_pulse(t_rel, pulse.fc, bw, pulse.bwr)
    return x, f_true


class TestSimulateSignalMatchesPerPulseLoop:
    # above about 330 Hz neighbouring impulses overlap
    @pytest.mark.parametrize("f", [30.0, 400.0, 900.0])
    @pytest.mark.parametrize("noise_std", [1.0, 0.0])
    @pytest.mark.parametrize("duration", [0.5, 2.0])
    def test_constant_law(self, f, noise_std, duration):
        args = (duration, FS, DistributionSpec.constant(f), PulseParams(aci=2.0))
        for seed in range(4):
            sig, f_true = simulate_signal(*args, seed=seed, noise_std=noise_std)
            want, f_want = simulate_by_pulse(*args, seed=seed, noise_std=noise_std)
            assert f_true == f_want
            np.testing.assert_array_equal(sig.samples, want)

    @pytest.mark.parametrize("dist", [DistributionSpec.uniform(29, 31),
                                      DistributionSpec.normal(30, 0.33)])
    def test_random_laws_and_other_pulses(self, dist):
        pulse = PulseParams(aci=1.5, fc=4000.0, bw_lo=0.2, bw_hi=0.9, bwr=-3.0)
        for seed in range(4):
            sig, f_true = simulate_signal(1.0, FS, dist, pulse, seed=seed)
            want, f_want = simulate_by_pulse(1.0, FS, dist, pulse, seed=seed)
            assert f_true == f_want
            np.testing.assert_array_equal(sig.samples, want)

    def test_generator_seed(self):
        args = (1.0, FS, DistributionSpec.constant(30), PulseParams(aci=2.0))
        sig, _ = simulate_signal(*args, seed=np.random.default_rng(SeedSpec(8).sequence(3)))
        want, _ = simulate_by_pulse(*args, seed=np.random.default_rng(SeedSpec(8).sequence(3)))
        np.testing.assert_array_equal(sig.samples, want)

    def test_impulses_cut_at_both_record_edges(self):
        # at 900 Hz an impulse's half-support (>= 1.2 ms) exceeds the period
        # (1.1 ms), so impulses reach past both edges of the record
        args = (0.5, FS, DistributionSpec.constant(900), PulseParams(aci=2.0))
        sig, _ = simulate_signal(*args, seed=11, noise_std=0.0)
        want, _ = simulate_by_pulse(*args, seed=11, noise_std=0.0)
        assert sig.samples[0] != 0.0 and sig.samples[-1] != 0.0
        np.testing.assert_array_equal(sig.samples, want)

    def test_wide_pulses_in_blocks_of_bounded_memory(self):
        # a 250 Hz carrier widens every pulse to ~750 samples, so 900 Hz
        # impulses overlap ~27 deep and fill the grid in many blocks; a single
        # grid would hold ~27 record lengths per temporary
        args = (0.5, FS, DistributionSpec.constant(900), PulseParams(aci=2.0, fc=250.0))
        tracemalloc.start()
        try:
            sig, _ = simulate_signal(*args, seed=5, noise_std=0.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        want, _ = simulate_by_pulse(*args, seed=5, noise_std=0.0)
        np.testing.assert_array_equal(sig.samples, want)
        assert peak < 10 * sig.samples.nbytes


class TestSeedSpec:
    def test_negative_master_seed_rejected(self):
        with pytest.raises(ParameterError):
            SeedSpec(-1)

    @pytest.mark.parametrize("seed", [1.5, 2**64, math.inf, math.nan])
    def test_master_seed_not_a_64_bit_whole_number_rejected(self, seed):
        with pytest.raises(ParameterError, match="unsigned 64-bit integer"):
            SeedSpec(seed)

    @pytest.mark.parametrize("index", [-1, 1.5, math.inf, math.nan])
    def test_signal_index_not_a_whole_number_rejected(self, index):
        with pytest.raises(ParameterError, match="signal index must be a non-negative integer"):
            SeedSpec(42).sequence(index)

    def test_sequences_differ_by_index(self):
        spec = SeedSpec(42)
        a = spec.sequence(0).generate_state(2)
        b = spec.sequence(1).generate_state(2)
        assert not np.array_equal(a, b)
