"""Signal file I/O: round trips, sidecars, malformed input and the result CSVs."""

import numpy as np
import pytest

from envdiag import (
    EnvelopeSpectrum,
    FaultFrequencyEstimate,
    HarmonicPeak,
    ParameterError,
    Signal,
    SignalFormatError,
    kde,
    normal_pdf,
    uniform_pdf,
)
from envdiag.sigio import (
    FORMAT_CSV,
    FORMAT_RAW,
    read_signal,
    sidecar_path,
    write_estimates_csv,
    write_kde_csv,
    write_signal,
    write_spectrum_csv,
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


@pytest.mark.parametrize("content,fs,match", [
    (b'[25000.0]', None, "not a JSON object"),
    (b'{"fs": "abc"}', None, "fs is not a finite number: 'abc'"),
    # checked even when the caller passes its own fs
    (b'{"fs": "25000"}', FS, "fs is not a finite number: '25000'"),
    (b'{"fs": NaN}', None, "fs is not a finite number: nan"),
    (b'{"fs": \xff}', None, "malformed sidecar"),
], ids=["list", "text-fs", "text-fs-and-explicit-fs", "nan-fs", "bad-utf8"])
def test_sidecar_of_wrong_shape_rejected(tmp_path, signal, content, fs, match):
    path = tmp_path / "x.f64"
    write_signal(path, signal)
    with open(sidecar_path(path), "wb") as fh:
        fh.write(content)
    with pytest.raises(SignalFormatError, match=match) as info:
        read_signal(path, fs=fs)
    assert "x.f64.json" in str(info.value)


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


def test_truncated_raw_file_rejected(tmp_path):
    path = tmp_path / "x.f64"
    path.write_bytes(np.arange(4.0).astype("<f8").tobytes() + b"\x00\x01\x02")
    with pytest.raises(SignalFormatError, match=r"x\.f64: 35 bytes is not a whole number"):
        read_signal(path, fs=FS)


@pytest.mark.parametrize("name", ["x.f64", "x.csv"])
def test_sample_count_must_match_the_sidecar(tmp_path, signal, name):
    # a raw file cut by a whole number of samples, or a csv missing lines,
    # reads as a shorter signal unless the sidecar's n is checked
    path = tmp_path / name
    write_signal(path, signal)
    data = path.read_bytes()
    path.write_bytes(data[:200 * 8] if name.endswith(".f64") else
                     b"".join(data.splitlines(keepends=True)[:200]))
    with pytest.raises(SignalFormatError,
                       match=rf"{name}: 200 samples read, but its sidecar says n = 257"):
        read_signal(path)


@pytest.mark.parametrize("n", ["257", 257.0, True])
def test_sidecar_count_must_be_an_integer(tmp_path, signal, n):
    path = tmp_path / "x.f64"
    write_signal(path, signal, sidecar={"n": n})
    with pytest.raises(SignalFormatError, match=f"sidecar says n = {n!r}"):
        read_signal(path)


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
    write_estimates_csv(path, [est, est], 0.5, [0, 1])
    assert path.read_text().splitlines() == [
        "segment_index,t_start_s,f_hat_hz,snr,peak1_hz,peak2_hz,peak3_hz",
        "0,0,30.12345679,1.714285714,30.5,,90.12345679",
        "1,0.5,30.12345679,1.714285714,30.5,,90.12345679",
    ]


def rows(path):
    header, *lines = path.read_text(encoding="ascii").splitlines()
    return header, [line.split(",") for line in lines]


def test_spectrum_csv_columns(tmp_path):
    freqs = np.arange(5) * 0.5
    amps = np.array([0.0, 1.0 / 3.0, 2.0e-7, 123456.789012345, 1.0])
    path = tmp_path / "spec.csv"
    write_spectrum_csv(path, EnvelopeSpectrum(freqs, amps, 0.5))
    header, body = rows(path)
    assert header == "freq_hz,amplitude"
    assert body == [[f"{f:.10g}", f"{a:.10g}"] for f, a in zip(freqs, amps)]
    assert body[1] == ["0.5", "0.3333333333"]
    assert body[3] == ["1.5", "123456.789"]


def test_kde_csv_columns_and_overlays(tmp_path):
    samples = np.array([29.5, 30.0, 30.0, 30.5, 31.0, 29.0, 30.25])
    curve = kde(samples)
    path = tmp_path / "kde.csv"
    write_kde_csv(path, curve, samples)
    header, body = rows(path)
    assert header == "grid,density,uniform_pdf,normal_pdf"
    assert len(body) == curve.grid.size
    assert all(len(row) == 4 for row in body)
    # the overlays are the uniform and normal laws fitted to the samples
    uniform = uniform_pdf(curve.grid, samples.min(), samples.max())
    normal = normal_pdf(curve.grid, samples.mean(), np.std(samples, ddof=1))
    want = np.column_stack([curve.grid, curve.density, uniform, normal])
    assert body == [[f"{v:.10g}" for v in row] for row in want]
