"""Synthetic vibration signals: Gaussian noise plus a train of cyclic impulses.

The test signal is ``x(t) = x1(t) + x2(t)`` where ``x1`` is white Gaussian
noise with zero mean and unit variance and ``x2`` is a train of
Gaussian-modulated tone bursts repeating at the fault frequency.  The fault
frequency is either a fixed value or drawn per signal from a uniform or
normal law, which is what the rest of the package tries to detect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from .errors import ParameterError, SimulationError, whole_number

DEFAULT_FS = 25_000.0
DEFAULT_NOISE_STD = 1.0
DEFAULT_FAULT_FREQ = 30.0
# the fewest cycles of its fault frequency ``simulate_signal`` accepts in a span
MIN_FAULT_CYCLES = 2.0

# Pulses are evaluated on +-PULSE_SUPPORT_SIGMAS standard deviations of the
# Gaussian envelope; beyond that the envelope is below exp(-8).
PULSE_SUPPORT_SIGMAS = 4.0


def check_finite_samples(samples: np.ndarray) -> None:
    """Raise ParameterError unless every sample is finite."""
    if not np.all(np.isfinite(samples)):
        raise ParameterError("signal contains non-finite samples")


def check_sample_rate(fs: float) -> None:
    """Raise ParameterError unless ``fs`` is positive and finite."""
    if not 0 < fs < math.inf:
        raise ParameterError(f"sample rate must be positive and finite, got {fs}")


def check_segment_length(seg_len: float) -> None:
    """Raise ParameterError unless the segment length ``seg_len`` (s) is positive and finite."""
    if not 0 < seg_len < math.inf:
        raise ParameterError(f"segment length must be positive and finite, got {seg_len:g} s")


def check_span(start: int, count: int, n: int) -> None:
    """Raise ParameterError unless samples ``[start, start + count)`` lie in ``n``."""
    if not (0 <= start and 0 < count and start + count <= n):
        raise ParameterError(
            f"samples [{start}, {start + count}) lie outside a record of {n} samples"
        )


class Recording(Protocol):
    """A uniformly sampled record read a span at a time: a segment source.

    It has ``fs``, a length in samples and a ``duration``, and
    ``read(start, count)`` returns the ``count`` samples from ``start`` on as
    a Signal.  A Signal is one, holding its samples in memory;
    ``sigio.RawRecording`` is another, reading them from its file.
    """

    fs: float

    def __len__(self) -> int: ...

    @property
    def duration(self) -> float: ...

    def read(self, start: int, count: int) -> "Signal": ...


@dataclass(frozen=True)
class Signal:
    """Uniformly sampled real-valued vibration record."""

    samples: np.ndarray
    fs: float

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1 or samples.size == 0:
            raise ParameterError("signal samples must form a non-empty 1-D array")
        check_finite_samples(samples)
        check_sample_rate(self.fs)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "fs", float(self.fs))

    @classmethod
    def _from_checked(cls, samples: np.ndarray, fs: float) -> "Signal":
        """A Signal over samples already validated, such as a slice of another.

        ``samples`` must be a non-empty 1-D float64 array of finite values and
        ``fs`` a positive float; the scan ``__post_init__`` makes is skipped.
        """
        sig = object.__new__(cls)
        object.__setattr__(sig, "samples", samples)
        object.__setattr__(sig, "fs", fs)
        return sig

    @property
    def duration(self) -> float:
        """Record length in seconds."""
        return self.samples.size / self.fs

    def __len__(self) -> int:
        return self.samples.size

    def read(self, start: int, count: int) -> "Signal":
        """The ``count`` samples from ``start`` on, as a Signal viewing this one's."""
        check_span(start, count, len(self))
        return Signal._from_checked(self.samples[start : start + count], self.fs)


@dataclass(frozen=True)
class DistributionSpec:
    """Fault-frequency law: ``constant`` f, ``uniform`` (a, b) or ``normal`` (mu, sigma)."""

    kind: str
    params: tuple[float, ...]

    def __post_init__(self):
        kind = str(self.kind).lower()
        params = tuple(float(p) for p in self.params)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "params", params)
        if kind == "constant":
            if len(params) != 1 or not 0 < params[0] < math.inf:
                raise ParameterError("constant law needs a single finite frequency f > 0")
        elif kind == "uniform":
            if len(params) != 2 or not 0 < params[0] < params[1] < math.inf:
                raise ParameterError("uniform law needs 0 < a < b, both finite")
        elif kind == "normal":
            if len(params) != 2 or not (0 < params[0] < math.inf and 0 < params[1] < math.inf):
                raise ParameterError("normal law needs finite mu > 0 and sigma > 0")
        else:
            raise ParameterError(f"unknown distribution kind {self.kind!r}")

    @classmethod
    def constant(cls, f: float) -> "DistributionSpec":
        return cls("constant", (f,))

    @classmethod
    def uniform(cls, a: float, b: float) -> "DistributionSpec":
        return cls("uniform", (a, b))

    @classmethod
    def normal(cls, mu: float, sigma: float) -> "DistributionSpec":
        return cls("normal", (mu, sigma))

    @classmethod
    def parse(cls, text: str) -> "DistributionSpec":
        """Parse ``constant:30``, ``uniform:29,31`` or ``normal:30,0.33``."""
        kind, sep, rest = text.partition(":")
        if not sep:
            raise ParameterError(f"malformed distribution spec {text!r}")
        try:
            params = tuple(float(tok) for tok in rest.split(","))
        except ValueError:
            raise ParameterError(f"malformed distribution parameters in {text!r}") from None
        return cls(kind.strip(), params)

    def sample(self, rng: np.random.Generator) -> float:
        if self.kind == "constant":
            return self.params[0]
        if self.kind == "uniform":
            return float(rng.uniform(self.params[0], self.params[1]))
        return float(self.params[0] + self.params[1] * rng.standard_normal())

    def spec_string(self) -> str:
        return f"{self.kind}:{','.join(format(p, 'g') for p in self.params)}"


@dataclass(frozen=True)
class PulseParams:
    """Cyclic-impulse component parameters.

    ``aci`` scales the unit-peak Gaussian pulse; the carrier sits at ``fc``
    with a fractional bandwidth drawn per impulse from [bw_lo, bw_hi],
    referenced at ``bwr`` dB below the spectral peak.  ``aci`` and ``fc``
    must be positive and finite; ``gaussian_pulse`` is checked by one of these.
    """

    aci: float
    fc: float = 2500.0
    bw_lo: float = 0.4
    bw_hi: float = 0.5
    bwr: float = -6.0

    def __post_init__(self):
        if not 0 < self.aci < math.inf:
            raise ParameterError(f"ACI must be positive and finite, got {self.aci:g}")
        if not 0 < self.fc < math.inf:
            raise ParameterError(f"fc must be positive and finite, got {self.fc:g} Hz")
        if not 0 < self.bw_lo <= self.bw_hi < 2:
            raise ParameterError("need 0 < bw_lo <= bw_hi < 2")
        if not self.bwr < 0:
            raise ParameterError("bwr must be negative (dB below peak)")

    def time_variance(self, bw: float) -> float:
        """Gaussian-envelope variance tv for a given fractional bandwidth."""
        ref = 10.0 ** (self.bwr / 20.0)
        return -2.0 * math.log(ref) / (math.pi * bw * self.fc) ** 2

    def max_half_support(self) -> float:
        # widest pulse comes from the smallest bandwidth
        return PULSE_SUPPORT_SIGMAS * math.sqrt(self.time_variance(self.bw_lo))


@dataclass(frozen=True)
class SeedSpec:
    """Deterministic derivation of per-signal seeds from one master seed.

    Signal ``i`` of a batch is generated from
    ``numpy.random.SeedSequence([master_seed, i])``, so the same
    (master_seed, index) pair yields a bit-identical signal regardless of
    generation order or worker scheduling.
    """

    master_seed: int

    def __post_init__(self):
        message = "master seed must fit in an unsigned 64-bit integer"
        seed = whole_number(self.master_seed, 0, message)
        if seed >= 2**64:
            raise ParameterError(message)
        object.__setattr__(self, "master_seed", seed)

    def sequence(self, index: int) -> np.random.SeedSequence:
        index = whole_number(index, 0, "signal index must be a non-negative integer")
        return np.random.SeedSequence([self.master_seed, index])


def gaussian_pulse(t, fc: float, bw: float, bwr: float = PulseParams.bwr) -> np.ndarray:
    """Unit-peak Gaussian-modulated cosine burst.

    ``g(t) = exp(-t^2 / (2 tv)) * cos(2 pi fc t)`` with ``tv`` chosen so the
    spectral envelope at ``fc * (1 +- bw/2)`` sits ``bwr`` dB below its peak:
    ``tv = -2 ln(10^(bwr/20)) / (pi bw fc)^2``, from ``PulseParams``, which checks them.
    """
    tv = PulseParams(aci=1.0, fc=fc, bw_lo=bw, bw_hi=bw, bwr=bwr).time_variance(bw)
    return _burst(np.asarray(t, dtype=np.float64), tv, fc)


def _burst(t: np.ndarray, tv, fc: float) -> np.ndarray:
    """``exp(-t^2 / (2 tv)) * cos(2 pi fc t)``; ``tv`` broadcasts against ``t``."""
    return np.exp(-t * t / (2.0 * tv)) * np.cos(2.0 * math.pi * fc * t)


def simulate_signal(
    duration: float,
    fs: float,
    dist: DistributionSpec,
    pulse: PulseParams,
    seed,
    noise_std: float = DEFAULT_NOISE_STD,
) -> tuple[Signal, float]:
    """Draw one fault frequency and synthesize the two-component signal.

    Parameters
    ----------
    duration : float
        Record length in seconds, ``MIN_FAULT_CYCLES`` of the drawn frequency at least.
    fs : float
        Sample rate in Hz, finite; must clear ``2 * fc * (1 + bw_hi / 2)``.
    dist : DistributionSpec
        Law the per-signal fault frequency is drawn from.
    pulse : PulseParams
        Impulse-train parameters.
    seed : int, SeedSequence or Generator
        Source of randomness; fixed seeds give bit-identical signals.
    noise_std : float
        Standard deviation of the additive noise, finite and non-negative
        (0 disables it; used by the noiseless test oracles).

    Returns
    -------
    (Signal, float)
        The synthesized record and the fault frequency actually used.

    Notes
    -----
    Draw order is fixed: fault frequency, noise vector, first-impulse
    offset ``t0 ~ U[0, 1/f)``, then one bandwidth per impulse in time
    order.  Impulse centres are ``t0 + k/f``; each pulse is added over
    +-4 envelope standard deviations.
    """
    check_segment_length(duration)
    check_sample_rate(fs)
    nyquist_needed = 2.0 * pulse.fc * (1.0 + pulse.bw_hi / 2.0)
    if not fs > nyquist_needed:
        raise ParameterError(
            f"fs={fs:g} Hz leaves no Nyquist margin; need fs > {nyquist_needed:g} Hz"
        )
    # written so that NaN fails it too
    if not 0 <= noise_std < math.inf:
        raise ParameterError(f"noise_std must be non-negative and finite, got {noise_std!r}")

    rng = np.random.default_rng(seed)
    f_true = dist.sample(rng)
    if f_true <= 0:
        raise SimulationError(f"drawn fault frequency {f_true:g} Hz is not positive")
    if duration < MIN_FAULT_CYCLES / f_true:
        raise SimulationError(
            f"duration {duration:g} s holds fewer than two cycles of {f_true:g} Hz"
        )

    n = int(round(duration * fs))
    if noise_std > 0:
        x = rng.standard_normal(n)
        x *= noise_std
    else:
        x = np.zeros(n)

    period = 1.0 / f_true
    t0 = rng.uniform(0.0, period)
    tail = pulse.max_half_support()
    k_min = math.ceil((-tail - t0) * f_true)
    k_max = math.floor((duration + tail - t0) * f_true)
    centre = t0 + np.arange(k_min, k_max + 1) * period
    # bandwidth is drawn for every impulse, even off-grid ones, so the stream
    # layout does not depend on rounding; one vector draw is the same stream
    # as one scalar draw per impulse
    bw = rng.uniform(pulse.bw_lo, pulse.bw_hi, size=centre.size)
    # scalar tv: numpy squares with a multiply where Python's ** calls pow,
    # and the two can differ in the last bit
    tv = np.array([pulse.time_variance(b) for b in bw.tolist()])
    half = PULSE_SUPPORT_SIGMAS * np.sqrt(tv)
    i0 = np.maximum(0, np.ceil((centre - half) * fs)).astype(np.intp)
    i1 = np.minimum(n - 1, np.floor((centre + half) * fs)).astype(np.intp)
    # one row per impulse on a common grid, masked to its own [i0, i1]; rows
    # go in blocks so that no temporary outgrows the record, however wide
    # the pulses are
    width = int((i1 - i0).max()) + 1
    rows = max(1, n // width)
    for b in range(0, centre.size, rows):
        blk = slice(b, b + rows)
        idx = i0[blk, None] + np.arange(width)
        inside = idx <= i1[blk, None]
        t_rel = idx / fs - centre[blk, None]
        vals = pulse.aci * _burst(t_rel, tv[blk, None], pulse.fc)
        # add.at sums overlapping impulses one at a time in impulse order
        np.add.at(x, idx[inside], vals[inside])

    return Signal(x, fs), f_true

