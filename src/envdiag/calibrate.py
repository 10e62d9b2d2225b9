"""Monte-Carlo calibration of variance thresholds.

For every (impulse amplitude, segment length) pair a batch of
constant-frequency signals is simulated and estimated; the unbiased sample
variance of the estimates becomes the decision threshold for that cell,
stored next to the batch's mean estimate and mean SNR.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import dataclass, fields, replace

import numpy as np

from ._parallel import parallel_map
from .envspec import SpectrumConfig
from .errors import CalibrationError, EstimationError, ParameterError
from .faultfreq import EstimatorConfig, estimate_or_error
from .sigmodel import (
    DEFAULT_FAULT_FREQ,
    DistributionSpec,
    PulseParams,
    SeedSpec,
    simulate_signal,
)

DEFAULT_ACI_GRID = (1.0, 1.5, 2.0, 2.5, 3.0)
DEFAULT_SEG_GRID = (0.5, 1.0, 2.0, 5.0, 10.0)
DEFAULT_N_SIGNALS = 1000
MAX_FAILURE_FRAC = 0.01


def config_digest(spec_cfg: SpectrumConfig, est_cfg: EstimatorConfig) -> str:
    """Digest of the analysis settings a threshold table depends on.

    Covers the spectral estimator shape and the peak-search geometry.  The
    bandpass band, the sample rate and the theoretical frequency are
    excluded on purpose: the envelope grid spacing depends only on the
    piece duration and zero padding, and variance rescaling maps any real
    fault frequency onto the simulated 30 Hz scale.
    """
    payload = {
        "window": spec_cfg.window,
        "zero_pad_factor": spec_cfg.zero_pad_factor,
        "piece_len_s": spec_cfg.piece_len_s,
        # no longer settable; kept at their only remaining values so that
        # tables saved with these fields in the digest still load
        "welch_segments": 1,
        "welch_overlap": 0.0,
        "n_harmonics": est_cfg.n_harmonics,
        "search_frac": est_cfg.search_frac,
        "peak_excl_bins": est_cfg.peak_excl_bins,
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


@dataclass(frozen=True)
class ThresholdEntry:
    """Calibration result for one (aci, segment length) cell."""

    aci: float
    seg_len: float
    threshold: float
    mean_f_hat: float
    mean_snr: float
    n_signals: int
    master_seed: int


# Field -> JSON key of each saved record; one map drives both save and load.
_META_KEYS = {"fs": "fs", "f_simul": "f_simul", "n_signals": "n", "master_seed": "seed",
              "noise_std": "noise_std", "config_digest": "config_digest"}
_PULSE_KEYS = {"fc": "fc", "bw_lo": "bw_lo", "bw_hi": "bw_hi", "bwr": "bwr"}
_ENTRY_KEYS = {"aci": "aci", "seg_len": "seg_len_s", "threshold": "threshold",
               "mean_f_hat": "mean_f_hat", "mean_snr": "mean_snr", "n_signals": "n_signals",
               "master_seed": "master_seed"}

# One check per annotated field type; both modules that define the records
# keep their annotations as strings.
_VALID = {
    "float": lambda v: type(v) is int or type(v) is float and math.isfinite(v),
    "int": lambda v: type(v) is int,
    "str": lambda v: type(v) is str,
}
# The range of each field that has one, by field name; ``n_signals`` is both
# the table's requested count and an entry's count of estimates kept.
_IN_RANGE = {
    "fs": lambda v: v > 0,
    "f_simul": lambda v: v > 0,
    "n_signals": lambda v: v >= 2,
    "threshold": lambda v: v >= 0,
    "mean_snr": lambda v: v >= 0,
}


def _dump(record, keys: dict) -> dict:
    return {key: getattr(record, name) for name, key in keys.items()}


def _load(cls, data: dict, keys: dict, **extra):
    """Build ``cls`` from the JSON object ``data``; a value of the wrong kind
    or out of its field's range raises ValueError."""
    kinds = {f.name: f.type for f in fields(cls)}
    for name, key in keys.items():
        value = data[key]
        if not _VALID[kinds[name]](value):
            raise ValueError(f"{key} is not a valid {kinds[name]}: {value!r}")
        if name in _IN_RANGE and not _IN_RANGE[name](value):
            raise ValueError(f"{key} is out of range: {value!r}")
    return cls(**{name: data[key] for name, key in keys.items()}, **extra)


@dataclass(frozen=True)
class ThresholdTable:
    """Threshold entries plus the generation metadata they depend on.

    Saved as a JSON object with two members.  ``meta`` holds ``fs``,
    ``f_simul``, ``n``, ``seed``, ``noise_std``, ``config_digest`` and
    ``pulse``, the base pulse's ``fc``, ``bw_lo``, ``bw_hi`` and ``bwr``; its
    ACI is 1.0, as each entry carries its own.
    ``entries`` is a list of cells, each with ``aci``, ``seg_len_s``,
    ``threshold``, ``mean_f_hat``, ``mean_snr``, ``n_signals`` and
    ``master_seed``.  Tables saved without ``noise_std`` load with 1.0.  A
    loaded table needs ``fs`` and ``f_simul`` above 0, every ``n`` and
    ``n_signals`` at least 2, and no negative ``threshold`` or ``mean_snr``.
    """

    fs: float
    f_simul: float
    n_signals: int
    master_seed: int
    noise_std: float
    pulse_base: PulseParams
    config_digest: str
    entries: tuple[ThresholdEntry, ...]

    def __post_init__(self):
        keys = [(e.aci, e.seg_len) for e in self.entries]
        if len(set(keys)) != len(keys):
            raise ParameterError("threshold table has duplicate (aci, seg_len) keys")

    def entries_at(self, seg_len: float) -> list[ThresholdEntry]:
        return [e for e in self.entries if abs(e.seg_len - seg_len) < 1e-9]

    def to_json_dict(self) -> dict:
        meta = _dump(self, _META_KEYS)
        meta["pulse"] = _dump(self.pulse_base, _PULSE_KEYS)
        return {"meta": meta, "entries": [_dump(e, _ENTRY_KEYS) for e in self.entries]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "ThresholdTable":
        meta = {"noise_std": 1.0, **data["meta"]}
        return _load(
            cls, meta, _META_KEYS,
            pulse_base=_load(PulseParams, meta["pulse"], _PULSE_KEYS, aci=1.0),
            entries=tuple(_load(ThresholdEntry, e, _ENTRY_KEYS) for e in data["entries"]),
        )

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "ThresholdTable":
        with open(path, encoding="utf-8") as fh:
            try:
                return cls.from_json_dict(json.load(fh))
            except (KeyError, TypeError, ValueError) as exc:
                raise ParameterError(f"{path}: not a valid threshold table ({exc!r})") from None

    def to_csv_matrix(self) -> str:
        """Threshold matrix with ACI rows and segment-length columns."""
        cells = {(e.aci, e.seg_len): e.threshold for e in self.entries}
        segs = sorted({s for _, s in cells})
        lines = ["aci," + ",".join(f"{s:g}s" for s in segs)]
        for aci in sorted({a for a, _ in cells}):
            lines.append(f"{aci:g}," + ",".join(f"{cells[aci, s]:.6g}" for s in segs))
        return "\n".join(lines) + "\n"


def simulate_and_estimate(index, seed, seg_len, fs, dist, pulse, noise_std, spec_cfg, est_cfg):
    """Simulate signal ``index`` of a seeded batch and estimate it (worker-safe).

    The signal comes from ``SeedSpec(seed).sequence(index)``; callers bind
    every argument but ``index`` with ``functools.partial``.
    """
    signal, _ = simulate_signal(
        seg_len, fs, dist, pulse, SeedSpec(seed).sequence(index), noise_std
    )
    return estimate_or_error(signal, spec_cfg, est_cfg)


def estimate_batch(fn, items):
    """Map the per-item estimate ``fn`` over ``items`` with one ``parallel_map``.

    ``fn`` returns an estimate or an EstimationError, as
    ``estimate_or_error`` does.  Returns ``(f_hats, snrs, errors)``: arrays of
    the estimates that succeeded and a list of the errors, each in item
    order.  Callers apply their own failure policy to ``errors``.
    """
    good, errors = [], []
    for r in parallel_map(fn, items):
        if isinstance(r, EstimationError):
            errors.append(r)
        else:
            good.append(r)
    f_hats = np.array([g.f_hat for g in good], dtype=np.float64)
    snrs = np.array([g.snr for g in good], dtype=np.float64)
    return f_hats, snrs, errors


def calibrate_entry(
    aci: float,
    seg_len: float,
    n: int,
    fs: float,
    master_seed: int,
    spec_cfg: SpectrumConfig = SpectrumConfig(),
    est_cfg: EstimatorConfig = EstimatorConfig(f_theoretical=DEFAULT_FAULT_FREQ),
    pulse: PulseParams = PulseParams(aci=1.0),
    noise_std: float = 1.0,
) -> ThresholdEntry:
    """Calibrate one cell from ``n`` constant-frequency simulations.

    The threshold is the unbiased sample variance of the estimates.  Failed
    estimates are excluded up to 1% of the batch; beyond that the
    calibration aborts, since silent exclusion at scale would bias the
    variance.
    """
    if n < 2:
        raise ParameterError("calibration needs at least 2 signals per cell")
    simulate = functools.partial(
        simulate_and_estimate, seed=master_seed, seg_len=seg_len, fs=fs,
        dist=DistributionSpec.constant(DEFAULT_FAULT_FREQ),
        pulse=replace(pulse, aci=aci),
        noise_std=noise_std, spec_cfg=spec_cfg, est_cfg=est_cfg,
    )
    f_hats, snrs, errors = estimate_batch(simulate, range(n))
    if len(errors) > MAX_FAILURE_FRAC * n:
        raise CalibrationError(
            f"{len(errors)}/{n} estimates failed at aci={aci}, seg_len={seg_len}"
        )
    return ThresholdEntry(
        aci=float(aci),
        seg_len=float(seg_len),
        threshold=float(np.var(f_hats, ddof=1)),
        mean_f_hat=float(f_hats.mean()),
        mean_snr=float(snrs.mean()),
        n_signals=len(f_hats),
        master_seed=int(master_seed),
    )


def build_table(
    aci_list=DEFAULT_ACI_GRID,
    seg_len_list=DEFAULT_SEG_GRID,
    n: int = DEFAULT_N_SIGNALS,
    fs: float = 25_000.0,
    master_seed: int = 0,
    spec_cfg: SpectrumConfig = SpectrumConfig(),
    est_cfg: EstimatorConfig = EstimatorConfig(f_theoretical=DEFAULT_FAULT_FREQ),
    pulse: PulseParams = PulseParams(aci=1.0),
    noise_std: float = 1.0,
) -> ThresholdTable:
    """Calibrate the full ACI x segment-length grid.

    Per-signal seeds derive from (master_seed, segment-length index, signal
    index) and are shared across the ACI rows of a column: the rows see the
    same noise draws, which makes the monotone ordering of thresholds and
    SNRs along the ACI axis directly estimable instead of being buried in
    Monte-Carlo noise.  Results are reproducible and independent of worker
    scheduling.
    """
    aci_list = list(aci_list)
    seg_len_list = list(seg_len_list)
    if not aci_list or not seg_len_list:
        raise ParameterError("calibration grids must be non-empty")
    seeds = SeedSpec(master_seed)

    entries = []
    for seg_idx, seg_len in enumerate(seg_len_list):
        col_seed = int(seeds.sequence(seg_idx).generate_state(1, np.uint64)[0])
        for aci in aci_list:
            entries.append(
                calibrate_entry(
                    aci,
                    seg_len,
                    n,
                    fs,
                    col_seed,
                    spec_cfg=spec_cfg,
                    est_cfg=est_cfg,
                    pulse=pulse,
                    noise_std=noise_std,
                )
            )
    return ThresholdTable(
        fs=float(fs),
        f_simul=DEFAULT_FAULT_FREQ,
        n_signals=int(n),
        master_seed=seeds.master_seed,
        noise_std=float(noise_std),
        pulse_base=replace(pulse, aci=1.0),
        config_digest=config_digest(spec_cfg, est_cfg),
        entries=tuple(entries),
    )
