"""The shared input checks of ``envdiag.errors`` and the library calls that use them."""

import math
from dataclasses import replace

import numpy as np
import pytest

from envdiag import (
    ClassifyConfig,
    DistributionSpec,
    EstimatorConfig,
    ParameterError,
    PulseParams,
    Signal,
    SpectrumConfig,
    build_table,
    simulate_signal,
    welch_psd,
)
from envdiag.errors import positive_finite
from test_calibrate import hand_table

FS = 25_000.0
X = np.ones(12_500)


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
    "table-f_simul-inf": lambda: replace(hand_table(), f_simul=math.inf),
}


@pytest.mark.parametrize("call", NOT_POSITIVE_AND_FINITE.values(),
                         ids=NOT_POSITIVE_AND_FINITE.keys())
def test_value_not_positive_and_finite_raises_parameter_error(call):
    with pytest.raises(ParameterError):
        call()
