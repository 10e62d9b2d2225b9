"""Signal file I/O: round trips, sidecars, malformed input and the estimates CSV."""

import numpy as np
import pytest

from envdiag import (
    FaultFrequencyEstimate,
    HarmonicPeak,
    ParameterError,
    Signal,
    SignalFormatError,
)
from envdiag.sigio import (
    FORMAT_CSV,
    FORMAT_RAW,
    read_signal,
    sidecar_path,
    write_estimates_csv,
    write_signal,
)

FS = 25_000.0


@pytest.fixture
def signal():
    rng = np.random.default_rng(12)
    return Signal(rng.standard_normal(257) * 1e3, FS)


@pytest.mark.parametrize("name,fmt", [("x.csv", FORMAT_CSV), ("x.f64", FORMAT_RAW)])
def test_round_trip_is_bit_exact(tmp_path, signal, name, fmt):
    path = tmp_path / name
    write_signal(path, signal, sidecar={"seed": 4})
    back, meta = read_signal(path)
    np.testing.assert_array_equal(back.samples, signal.samples)
    assert back.fs == FS
    assert meta == {"fs": FS, "n": 257, "format": fmt, "seed": 4}


def test_explicit_fs_overrides_sidecar(tmp_path, signal):
    path = tmp_path / "x.f64"
    write_signal(path, signal)
    back, meta = read_signal(path, fs=1000.0)
    assert back.fs == 1000.0
    assert meta["fs"] == FS


def test_missing_sample_rate_rejected(tmp_path, signal):
    path = tmp_path / "x.f64"
    signal.samples.tofile(path)
    with pytest.raises(SignalFormatError, match="sample rate unknown"):
        read_signal(path)


def test_malformed_sidecar_rejected(tmp_path, signal):
    path = tmp_path / "x.f64"
    write_signal(path, signal)
    with open(sidecar_path(path), "w") as fh:
        fh.write("{not json")
    with pytest.raises(SignalFormatError, match="malformed sidecar"):
        read_signal(path)


def test_csv_line_that_is_not_a_number_is_named(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("1.0\n2.5\n\nabc\n")
    with pytest.raises(SignalFormatError, match="line 4 is not a number: 'abc'"):
        read_signal(path, fs=FS)


def test_empty_raw_file_rejected(tmp_path):
    path = tmp_path / "x.f64"
    path.write_bytes(b"")
    with pytest.raises(SignalFormatError, match="empty raw signal file"):
        read_signal(path, fs=FS)


def test_unknown_format_rejected(tmp_path, signal):
    path = tmp_path / "x.wav"
    with pytest.raises(ParameterError, match="wav"):
        write_signal(path, signal, fmt="wav")
    signal.samples.tofile(path)
    with pytest.raises(ParameterError, match="wav"):
        read_signal(path, fmt="wav", fs=FS)


def test_estimates_csv_columns(tmp_path):
    peaks = (HarmonicPeak(1, 30.5, 2.0, 61), HarmonicPeak(3, 90.123456789012, 1.0, 180))
    est = FaultFrequencyEstimate(f_hat=30.1234567891234, peaks=peaks, snr=12.0 / 7.0)
    path = tmp_path / "est.csv"
    write_estimates_csv(path, [est, est], 0.5)
    assert path.read_text().splitlines() == [
        "segment_index,t_start_s,f_hat_hz,snr,peak1_hz,peak2_hz,peak3_hz",
        "0,0,30.12345679,1.714285714,30.5,,90.12345679",
        "1,0.5,30.12345679,1.714285714,30.5,,90.12345679",
    ]
