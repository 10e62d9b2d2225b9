"""Statistics tests: bandwidth, KDE, distributions, chi-squared, shapes."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from envdiag import (
    DegenerateSampleError,
    ParameterError,
    chi2_critical,
    chi_squared_variance_test,
    kde,
    normal_pdf,
    scott_bandwidth,
    shape_distance,
    uniform_pdf,
)
from envdiag.stats import DECISION_FAIL_TO_REJECT, DECISION_REJECT, fitted_overlays

# frozen independent oracles: mpmath inversion of the regularized lower
# incomplete gamma (30 significant digits), see acceptance criterion 6
CHI2_95_99 = 123.225221453
CHI2_99_9 = 21.6659943335


class TestScottBandwidth:
    def test_known_value_n32(self):
        # sample std exactly 1 with n=32: h = 1.06 / 2
        rng = np.random.default_rng(1)
        x = rng.standard_normal(32)
        x = (x - x.mean()) / np.std(x, ddof=1)
        assert scott_bandwidth(x) == pytest.approx(0.53, abs=1e-12)

    def test_linear_in_std(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(32)
        x = (x - x.mean()) / np.std(x, ddof=1)
        assert scott_bandwidth(2.0 * x) == pytest.approx(1.06, abs=1e-12)

    def test_typical_range_for_standard_normal(self):
        rng = np.random.default_rng(3)
        h = scott_bandwidth(rng.standard_normal(100))
        assert 0.3 <= h <= 0.6

    def test_degenerate_sample_rejected(self):
        with pytest.raises(DegenerateSampleError):
            scott_bandwidth(np.full(20, 30.0))

    def test_needs_two_samples(self):
        with pytest.raises(ParameterError):
            scott_bandwidth([1.0])


class TestKde:
    def test_symmetry_about_centre(self):
        samples = np.array([29.0, 29.5, 30.5, 31.0])
        h = scott_bandwidth(samples)
        curve = kde(samples)
        np.testing.assert_allclose(curve.density, curve.density[::-1], atol=1e-12)
        assert curve.bandwidth == pytest.approx(h)
        # 512 points spanning the samples +-4 bandwidths
        np.testing.assert_array_equal(curve.grid, np.linspace(29.0 - 4 * h, 31.0 + 4 * h, 512))

    def test_unit_integral_on_default_grid(self):
        rng = np.random.default_rng(4)
        curve = kde(rng.standard_normal(200) + 30.0)
        integral = np.trapezoid(curve.density, curve.grid)
        assert 0.999 <= integral <= 1.001

    def test_uniform_sample_density_level(self):
        rng = np.random.default_rng(5)
        curve = kde(rng.uniform(29.0, 31.0, size=1000))
        sel = (curve.grid >= 29.3) & (curve.grid <= 30.7)
        mad = np.mean(np.abs(curve.density[sel] - 0.5))
        assert mad < 0.08

    def test_nonnegative(self):
        rng = np.random.default_rng(6)
        curve = kde(rng.standard_normal(64))
        assert np.all(curve.density >= 0.0)

    def test_point_mass_raises(self):
        with pytest.raises(DegenerateSampleError):
            kde(np.full(50, 30.0))

    @pytest.mark.parametrize("n", [10, 127, 128, 3000])
    def test_blocked_rows_give_the_whole_matrix_bits(self, n):
        samples = 30.0 + 0.5 * np.random.default_rng(n).standard_normal(n)
        curve = kde(samples)
        z = (curve.grid[:, None] - samples[None, :]) / curve.bandwidth
        whole = np.exp(-0.5 * z * z).sum(axis=1) / (n * curve.bandwidth * math.sqrt(2.0 * math.pi))
        np.testing.assert_array_equal(curve.density, whole)

    def test_memory_does_not_grow_with_the_samples(self):
        # the whole (512, 3000) kernel matrix is 12 MB per temporary
        samples = 30.0 + 0.5 * np.random.default_rng(1).standard_normal(3000)
        tracemalloc.start()
        try:
            kde(samples)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000


class TestDistributionFunctions:
    def test_uniform_pdf_level(self):
        assert uniform_pdf(30.0, 29.0, 31.0) == 0.5
        assert uniform_pdf(28.9, 29.0, 31.0) == 0.0

    def test_normal_pdf_peak(self):
        assert normal_pdf(30.0, 30.0, 2.0) == pytest.approx(1.0 / (2.0 * math.sqrt(2 * math.pi)))

    def test_invalid_parameters(self):
        with pytest.raises(ParameterError):
            uniform_pdf(0.0, 2.0, 1.0)
        with pytest.raises(ParameterError):
            normal_pdf(0.0, 0.0, -1.0)


class TestChi2Critical:
    def test_value_against_mpmath_oracle(self):
        assert chi2_critical(0.95, 99) == pytest.approx(CHI2_95_99, abs=1e-6)
        assert chi2_critical(0.99, 9) == pytest.approx(CHI2_99_9, abs=1e-6)

    def test_exponential_median(self):
        # chi-squared with 2 dof is Exp(1/2): median 2 ln 2
        assert chi2_critical(0.5, 2) == pytest.approx(2 * math.log(2), abs=1e-12)

    @pytest.mark.parametrize("p", [0.001, 0.01, 0.05, 0.5, 0.95, 0.99, 0.999])
    def test_matches_scipy_gammaincinv(self, p):
        # dense where recordings are, sparse up to 20000, then two very long ones
        dof = np.concatenate([np.arange(1, 2001), np.arange(2003, 20001, 97),
                              [20000, 10**5, 10**6]])
        want = 2.0 * special.gammaincinv(dof / 2.0, p)
        got = np.array([chi2_critical(p, int(d)) for d in dof])
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    @settings(max_examples=25, deadline=None)
    @given(st.floats(0.01, 0.98), st.integers(1, 200))
    def test_monotone_in_p(self, p, dof):
        assert chi2_critical(p + 0.01, dof) > chi2_critical(p, dof)

    @pytest.mark.parametrize("p,dof", [(0.0, 5), (1.0, 5), (0.5, 0), (0.5, 2.5),
                                       (0.5, math.nan), (0.5, math.inf)])
    def test_invalid_arguments(self, p, dof):
        with pytest.raises(ParameterError):
            chi2_critical(p, dof)


class TestVarianceTest:
    def test_equal_variance_not_rejected(self):
        res = chi_squared_variance_test(4.0, 4.0, 100, alpha=0.05)
        assert res.statistic == pytest.approx(99.0)
        assert res.critical == pytest.approx(CHI2_95_99, abs=1e-6)
        assert res.decision == DECISION_FAIL_TO_REJECT
        assert not res.rejected

    def test_zero_sample_variance(self):
        res = chi_squared_variance_test(0.0, 1.0, 50)
        assert res.statistic == 0.0
        assert not res.rejected

    def test_large_variance_rejected(self):
        res = chi_squared_variance_test(10.0, 1.0, 100)
        assert res.decision == DECISION_REJECT

    @settings(max_examples=25, deadline=None)
    @given(st.floats(1e-6, 1e6))
    def test_scale_invariance(self, c):
        a = chi_squared_variance_test(3.0, 2.0, 40)
        b = chi_squared_variance_test(3.0 * c, 2.0 * c, 40)
        assert b.statistic == pytest.approx(a.statistic, rel=1e-9)
        assert b.decision == a.decision

    def test_empirical_size_under_null(self):
        # 2000 samples of size 100 from N(0, sigma0): rejection rate ~ alpha
        rng = np.random.default_rng(7)
        sigma0_sq = 4.0
        data = rng.normal(0.0, math.sqrt(sigma0_sq), size=(2000, 100))
        variances = np.var(data, axis=1, ddof=1)
        crit = chi2_critical(0.95, 99)
        rate = np.mean(99 * variances / sigma0_sq > crit)
        assert rate == pytest.approx(0.05, abs=0.02)

    def test_zero_tested_variance(self):
        # a calibrated threshold of 0: any spread rejects, none fails to reject
        spread = chi_squared_variance_test(1e-12, 0.0, 10, alpha=0.1)
        assert (spread.statistic, spread.decision) == (math.inf, DECISION_REJECT)
        assert (spread.dof, spread.alpha) == (9, 0.1)
        assert spread.critical == chi2_critical(0.9, 9)
        none = chi_squared_variance_test(0.0, 0.0, 10)
        assert (none.statistic, none.decision) == (0.0, DECISION_FAIL_TO_REJECT)

    def test_invalid_arguments(self):
        for sigma0_sq in (-1.0, math.nan):
            with pytest.raises(ParameterError, match="tested variance must be non-negative"):
                chi_squared_variance_test(1.0, sigma0_sq, 10)
        for n in (1, 9.5, math.inf, math.nan):
            with pytest.raises(ParameterError, match="need an integer sample size n >= 2"):
                chi_squared_variance_test(1.0, 1.0, n)
        with pytest.raises(ParameterError):
            chi_squared_variance_test(1.0, 1.0, 10, alpha=1.5)

    def test_whole_float_sample_size_gives_integer_degrees_of_freedom(self):
        result = chi_squared_variance_test(1.0, 1.0, 10.0)
        assert type(result.dof) is int
        assert result == chi_squared_variance_test(1.0, 1.0, 10)


class TestShapeDistance:
    def test_uniform_sample_recognized(self):
        rng = np.random.default_rng(8)
        res = shape_distance(rng.uniform(29.0, 31.0, size=1000))
        assert res.verdict == "uniform"
        assert res.dist_uniform < res.dist_normal

    def test_normal_sample_recognized(self):
        rng = np.random.default_rng(9)
        res = shape_distance(rng.normal(30.0, 0.33, size=1000))
        assert res.verdict == "normal"
        assert res.dist_normal < res.dist_uniform

    def test_distances_are_to_the_fitted_overlays(self):
        samples = np.random.default_rng(10).normal(30.0, 0.33, size=50)
        curve = kde(samples)
        uniform, normal = fitted_overlays(samples, curve.grid)
        np.testing.assert_array_equal(uniform, uniform_pdf(curve.grid, samples.min(),
                                                           samples.max()))
        np.testing.assert_array_equal(normal, normal_pdf(curve.grid, samples.mean(),
                                                         np.std(samples, ddof=1)))
        res = shape_distance(samples)
        for got, overlay in ((res.dist_uniform, uniform), (res.dist_normal, normal)):
            assert got == float(np.sqrt(np.trapezoid((curve.density - overlay) ** 2, curve.grid)))

    def test_needs_ten_samples(self):
        with pytest.raises(ParameterError):
            shape_distance(np.arange(5, dtype=float))

    def test_degenerate_sample_rejected(self):
        with pytest.raises(DegenerateSampleError):
            shape_distance(np.full(100, 30.0))
