"""The shared input checks of ``envdiag.errors`` and the library calls that use them."""

import math
import sys
from dataclasses import replace

import numpy as np
import pytest

from envdiag import (
    ClassifyConfig,
    DistributionSpec,
    EnvelopeSpectrum,
    EstimatorConfig,
    ParameterError,
    PulseParams,
    Signal,
    SpectrumConfig,
    bandpass,
    build_table,
    chi2_critical,
    chi_squared_variance_test,
    detect_harmonic_peak,
    normal_pdf,
    rescale_variance,
    simulate_signal,
    uniform_pdf,
    welch_psd,
)
from envdiag.envspec import check_band, welch_piece
from envdiag.errors import positive_finite, real, shown
from envdiag.sigmodel import sample_count
from envdiag.stats import KdeCurve, scott_bandwidth
from test_calibrate import hand_table

FS = 25_000.0
X = np.ones(12_500)
SPECTRUM = EnvelopeSpectrum(np.arange(200.0), np.ones(200), 1.0)
GRID = np.linspace(29.0, 31.0, 5)


class TestReal:
    @pytest.mark.parametrize("value,number", [
        (1, 1.0), (-2.5, -2.5), (math.inf, math.inf), (-math.inf, -math.inf),
        (10**308, 1e308), (np.float64(2.5), 2.5), (np.int64(-3), -3.0),
    ])
    def test_real_numbers_are_their_float(self, value, number):
        assert type(real(value)) is float and real(value) == number

    # NaN itself, and everything that is no real number or does not fit a float
    @pytest.mark.parametrize("value", [math.nan, np.float64(math.nan), True, False, "30", None,
                                       [1.0], 1j, 10**400, -10**400])
    def test_anything_else_is_nan(self, value):
        number = real(value)
        assert type(number) is float and math.isnan(number)
        # which fails every range comparison
        assert not (number < math.inf or number > -math.inf or number == number)

    @pytest.mark.parametrize("value,unit,text", [
        (0.5, " s", "0.5 s"), (25000, " Hz", "25000 Hz"), (np.float64(2.5), "", "2.5"),
        (math.nan, " Hz", "nan Hz"), (np.float64(math.nan), "", "nan"), (math.inf, " s", "inf s"),
        (-math.inf, "", "-inf"), (True, " s", "True"), ("30", " Hz", "'30'"),
        (None, "", "None"), (10**400, " s", repr(10**400)),
    ])
    def test_shown_gives_a_number_with_its_unit_and_anything_else_as_repr(self, value, unit,
                                                                          text):
        assert shown(value, unit) == text


class TestPositiveFinite:
    @pytest.mark.parametrize("value", [1, 0.5, 1e300, 10**308, np.float64(2.5), np.int64(3),
                                       np.float32(0.25)])
    def test_positive_finite_numbers_pass(self, value):
        assert positive_finite(value, "x") is None

    @pytest.mark.parametrize("value,shown", [
        (0, "0 s"), (0.0, "0 s"), (-1.0, "-1 s"), (-math.inf, "-inf s"), (math.inf, "inf s"),
        (math.nan, "nan s"), (np.float64(-2.5), "-2.5 s"), (np.float64(math.nan), "nan s"),
    ])
    def test_other_numbers_are_shown_with_g_and_the_unit(self, value, shown):
        with pytest.raises(ParameterError,
                           match=f"^length must be positive and finite, got {shown}$"):
            positive_finite(value, "length", " s")

    # an int past the float range is no float, so no sample rate or length either
    @pytest.mark.parametrize("value", [True, False, "30", None, [1.0], 1j, 10**400, -10**400])
    def test_non_numbers_and_bools_are_shown_with_repr(self, value):
        with pytest.raises(ParameterError) as info:
            positive_finite(value, "length", " s")
        assert str(info.value) == f"length must be positive and finite, got {value!r}"


# each call gives a positive, finite quantity a value that is not one, most of
# them a value that is no number at all
NOT_POSITIVE_AND_FINITE = {
    "f_theoretical-text": lambda: EstimatorConfig(f_theoretical="30"),
    "aci-text": lambda: PulseParams(aci="2"),
    "aci-none": lambda: PulseParams(aci=None),
    "piece_len-text": lambda: SpectrumConfig(piece_len_s="0.5"),
    "signal-fs-text": lambda: Signal(X, "25000"),
    "signal-fs-none": lambda: Signal(X, None),
    "classify-seg_len-text": lambda: ClassifyConfig(30.0, "0.5"),
    "f_max-text": lambda: welch_psd(X, FS, f_max="100"),
    "simulate-duration-text": lambda: simulate_signal(
        "0.5", FS, DistributionSpec.constant(30.0), PulseParams(aci=2.0), 0),
    "build-seg_len-text": lambda: build_table(seg_len_list=("0.5",), n=2),
    "build-aci-text": lambda: build_table(aci_list=("2",), n=2),
    "build-fs-text": lambda: build_table(fs="25000", n=2),
    "law-params-not-a-list": lambda: DistributionSpec("constant", 30),
    "law-params-text": lambda: DistributionSpec("normal", ("a", 1)),
    "table-fs-inf": lambda: replace(hand_table(), fs=math.inf),
    "table-f_simul-inf": lambda: replace(hand_table().estimator, f_theoretical=math.inf),
}


@pytest.mark.parametrize("call", NOT_POSITIVE_AND_FINITE.values(),
                         ids=NOT_POSITIVE_AND_FINITE.keys())
def test_value_not_positive_and_finite_raises_parameter_error(call):
    with pytest.raises(ParameterError):
        call()


# each call gives a range check a value outside its range or no number at all,
# which must end in ParameterError, not in TypeError, a math error or a result
NOT_IN_RANGE = {
    "alpha-text": lambda: ClassifyConfig(30.0, 0.5, alpha="0.05"),
    "search_frac-text": lambda: EstimatorConfig(30.0, search_frac="0.1"),
    "n_harmonics-bool": lambda: EstimatorConfig(30.0, n_harmonics=True),
    "sample_var-text": lambda: chi_squared_variance_test("1", 1.0, 10),
    "sample_var-nan": lambda: chi_squared_variance_test(math.nan, 1.0, 10),
    "sigma0_sq-inf": lambda: chi_squared_variance_test(1.0, math.inf, 10),
    "quantile-text": lambda: chi2_critical("0.95", 5),
    "uniform_pdf-a-text": lambda: uniform_pdf(1.0, "0", 2.0),
    "normal_pdf-sigma-inf": lambda: normal_pdf(1.0, 0.0, math.inf),
    "rescale-mean-text": lambda: rescale_variance(1.0, "30", 30.0),
    "rescale-mean-inf": lambda: rescale_variance(1.0, math.inf, 30.0),
    "bandpass-edge-text": lambda: bandpass(Signal(X, FS), "1500", 3500.0),
    "band-upper-inf": lambda: SpectrumConfig(bandpass=(1500.0, math.inf)),
    "band-bools": lambda: SpectrumConfig(bandpass=(False, True)),
    "law-param-bool": lambda: DistributionSpec("constant", (True,)),
    "law-param-text": lambda: DistributionSpec("constant", ("30",)),
    "harmonic-order-fraction": lambda: detect_harmonic_peak(SPECTRUM, EstimatorConfig(30.0),
                                                            1.5),
    "entry-threshold-text": lambda: replace(hand_table().entries[0], threshold="0.1"),
    "entry-threshold-inf": lambda: replace(hand_table().entries[0], threshold=math.inf),
    "entry-mean_snr-inf": lambda: replace(hand_table().entries[0], mean_snr=math.inf),
    "entry-n_signals-fraction": lambda: replace(hand_table().entries[0], n_signals=2.5),
    "entry-master_seed-negative": lambda: replace(hand_table().entries[0], master_seed=-1),
    "sample_count-seconds-text": lambda: sample_count("0.5", FS),
    "normal_pdf-mu-text": lambda: normal_pdf(1.0, "0", 1.0),
    "uniform_pdf-both-infinite": lambda: uniform_pdf(1.0, -math.inf, math.inf),
    "uniform_pdf-b-inf": lambda: uniform_pdf(1.0, 0, math.inf),
    "rescale-variance-text": lambda: rescale_variance("1", 30.0, 30.0),
    "rescale-variance-negative": lambda: rescale_variance(-1.0, 30.0, 30.0),
    "kde-bandwidth-text": lambda: KdeCurve(GRID, np.ones(5), "1"),
    "kde-bandwidth-inf": lambda: KdeCurve(GRID, np.ones(5), math.inf),
    "spectrum-df-text": lambda: EnvelopeSpectrum(GRID, np.ones(5), "1"),
    "spectrum-df-inf": lambda: EnvelopeSpectrum(GRID, np.ones(5), math.inf),
    "scott-sample-inf": lambda: scott_bandwidth([1.0, math.inf]),
    # analysis settings that pass the float range: the search reach, the window-overlap
    # limit and the zero-padded Welch piece
    "f_theoretical-reach-inf": lambda: EstimatorConfig(1e308),
    "n_harmonics-past-float": lambda: EstimatorConfig(30.0, n_harmonics=10**400),
    "zero_pad-past-array": lambda: build_table(
        (2.0,), (0.5,), n=2, spec_cfg=SpectrumConfig(zero_pad_factor=10**400)),
    "n_harmonics-float-1e308": lambda: EstimatorConfig(30.0, n_harmonics=1e308),
    "f_theoretical-float-max": lambda: EstimatorConfig(sys.float_info.max, n_harmonics=1),
    "welch_piece-padded-1e15": lambda: welch_piece(SpectrumConfig(zero_pad_factor=10**15),
                                                   FS, 12_500),
    "band-above-nyquist": lambda: check_band((1500.0, 20_000.0), FS),
    "bandpass-above-nyquist": lambda: bandpass(Signal(X, FS), 1500.0, 20_000.0),
}


@pytest.mark.parametrize("call", NOT_IN_RANGE.values(), ids=NOT_IN_RANGE.keys())
def test_value_out_of_range_or_not_a_number_raises_parameter_error(call):
    with pytest.raises(ParameterError):
        call()
