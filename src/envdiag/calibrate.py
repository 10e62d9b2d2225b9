"""Monte-Carlo calibration of variance thresholds.

For every (impulse amplitude, segment length) pair a batch of
constant-frequency signals is simulated and estimated; the unbiased sample
variance of the estimates becomes the decision threshold for that cell,
stored next to the batch's mean estimate and mean SNR.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .envspec import SpectrumConfig
from .errors import CalibrationError, ParameterError, TableMismatchError, whole_number
from .faultfreq import EstimatorConfig, estimate_batch, estimate_or_error
from .sigmodel import (
    DEFAULT_FAULT_FREQ,
    DEFAULT_FS,
    DEFAULT_NOISE_STD,
    MIN_FAULT_CYCLES,
    DistributionSpec,
    PulseParams,
    SeedSpec,
    simulate_signal,
)
from .sigio import write_json

DEFAULT_ACI_GRID = (1.0, 1.5, 2.0, 2.5, 3.0)
DEFAULT_SEG_GRID = (0.5, 1.0, 2.0, 5.0, 10.0)
DEFAULT_N_SIGNALS = 1000
MAX_FAILURE_FRAC = 0.01
DEFAULT_SPECTRUM = SpectrumConfig()
DEFAULT_ESTIMATOR = EstimatorConfig(f_theoretical=DEFAULT_FAULT_FREQ)
SCHEMA_VERSION = 2
# the ``config_digest`` of calibrate's defaults, the one v1 table that loads
LEGACY_DEFAULTS_DIGEST = "2caa3ff4ce576fea"


def same_length(a: float, b: float) -> bool:
    """Whether two segment lengths name one table column: they are within 1e-9 s."""
    return abs(a - b) < 1e-9


def check_unique_cells(cells) -> None:
    """Raise ParameterError if two (aci, seg_len) ``cells`` share an ACI at ``same_length``s."""
    cells = list(cells)
    for i, (aci, seg_len) in enumerate(cells):
        if any(a == aci and same_length(s, seg_len) for a, s in cells[:i]):
            raise ParameterError(f"duplicate (aci, seg_len) keys: ACI {aci:g} at {seg_len!r} s")


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

    def __post_init__(self):
        if not (self.threshold >= 0 and self.mean_snr >= 0 and self.n_signals >= 2):
            raise ParameterError(
                "a cell needs threshold >= 0, mean_snr >= 0 and n_signals >= 2, got "
                f"{self.threshold!r}, {self.mean_snr!r} and {self.n_signals!r}")


# Field -> JSON key of each saved record; one map drives both save and load.
_META_KEYS = {"fs": "fs", "f_simul": "f_simul", "n_signals": "n", "master_seed": "seed",
              "noise_std": "noise_std"}
_SPECTRUM_KEYS = {"bandpass": "bandpass", "window": "window",
                  "zero_pad_factor": "zero_pad_factor", "piece_len_s": "piece_len_s"}
_ESTIMATOR_KEYS = {"n_harmonics": "n_harmonics", "search_frac": "search_frac",
                   "peak_excl_bins": "peak_excl_bins"}
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
    "tuple[float, float] | None": lambda v: v is None or (
        type(v) in (list, tuple) and len(v) == 2 and all(_VALID["float"](b) for b in v)),
}


def _dump(record, keys: dict) -> dict:
    return {key: getattr(record, name) for name, key in keys.items()}


def analysis_json(spec_cfg: SpectrumConfig, est_cfg: EstimatorConfig) -> dict:
    """The ``meta.analysis`` map a table calibrated under these settings saves:
    every envelope-spectrum and peak-search setting, its band included."""
    return {**_dump(spec_cfg, _SPECTRUM_KEYS), **_dump(est_cfg, _ESTIMATOR_KEYS)}


def _load(cls, data: dict, keys: dict, **extra):
    """Build ``cls`` from the JSON object ``data``; a value of the wrong kind raises ValueError."""
    kinds = {f.name: f.type for f in fields(cls)}
    for name, key in keys.items():
        value = data[key]
        if not _VALID[kinds[name]](value):
            raise ValueError(f"{key} is not a valid {kinds[name]}: {value!r}")
    return cls(**{name: data[key] for name, key in keys.items()}, **extra)


@dataclass(frozen=True)
class ThresholdTable:
    """Threshold entries plus the generation metadata they depend on.

    ``spectrum`` and ``estimator`` are the envelope-spectrum and peak-search
    settings the table was calibrated under, its band included.  A recording
    compared against it is analysed with the same ones, in its own band and
    around its own theoretical frequency (``analysis_settings``).

    Saved as a JSON object with two members.  ``meta`` holds ``fs``,
    ``f_simul``, ``n``, ``seed``, ``noise_std``, ``schema_version`` (2),
    ``analysis`` (``analysis_json``), the settings' ``bandpass`` (null or
    ``[lo, hi]``), ``window``, ``zero_pad_factor``, ``piece_len_s``,
    ``n_harmonics``, ``search_frac`` and ``peak_excl_bins``, which also
    name the table in a report's provenance, and ``pulse``, the base pulse's
    ``fc``, ``bw_lo``, ``bw_hi`` and ``bwr``; its ACI is 1.0, as each entry
    carries its own.  ``entries`` is a list of cells, each with ``aci``,
    ``seg_len_s``, ``threshold``, ``mean_f_hat``, ``mean_snr``,
    ``n_signals`` and ``master_seed``.  Tables saved without ``noise_std``
    load with 1.0, and without ``bandpass`` with no band.  Ranges are checked
    on construction, built or loaded: ``fs`` and ``f_simul`` above 0, ``n`` at
    least 2, and records their own classes accept.  Lengths within 1e-9 s are
    one column (``same_length``), holding one entry per ACI.

    A table saved without ``schema_version`` has no ``analysis``, only a
    ``config_digest`` hash of its settings.  It loads with calibrate's
    default settings when that hash is ``LEGACY_DEFAULTS_DIGEST``, the
    defaults' own; any other hash, or any other ``schema_version``, is an
    error that asks for a recalibration.
    """

    fs: float
    f_simul: float
    n_signals: int
    master_seed: int
    noise_std: float
    pulse_base: PulseParams
    spectrum: SpectrumConfig
    estimator: EstimatorConfig
    entries: tuple[ThresholdEntry, ...]

    def __post_init__(self):
        if not (self.fs > 0 and self.f_simul > 0 and self.n_signals >= 2):
            raise ParameterError("a table needs fs > 0, f_simul > 0 and n >= 2, got "
                                 f"{self.fs!r}, {self.f_simul!r} and {self.n_signals!r}")
        check_unique_cells((e.aci, e.seg_len) for e in self.entries)

    def entries_at(self, seg_len: float) -> list[ThresholdEntry]:
        """The cells at ``seg_len``; TableMismatchError when there are none."""
        cells = [e for e in self.entries if same_length(e.seg_len, seg_len)]
        if not cells:
            raise TableMismatchError(f"threshold table has no entries for seg_len={seg_len:g} s")
        return cells

    def to_json_dict(self) -> dict:
        meta = _dump(self, _META_KEYS)
        meta["schema_version"] = SCHEMA_VERSION
        meta["analysis"] = analysis_json(self.spectrum, self.estimator)
        meta["pulse"] = _dump(self.pulse_base, _PULSE_KEYS)
        return {"meta": meta, "entries": [_dump(e, _ENTRY_KEYS) for e in self.entries]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "ThresholdTable":
        meta = {"noise_std": 1.0, **data["meta"]}
        version = meta.get("schema_version")
        if version is None:
            if meta["config_digest"] != LEGACY_DEFAULTS_DIGEST:
                raise ParameterError(
                    "a table from before schema_version 2 keeps only a digest of its "
                    f"analysis settings, and {meta['config_digest']!r} is not the defaults'; "
                    "recalibrate it with 'envdiag calibrate'"
                )
            analysis = analysis_json(DEFAULT_SPECTRUM, DEFAULT_ESTIMATOR)
        elif version == SCHEMA_VERSION:
            # v2 tables saved before the band was stored record none, and load with none
            analysis = {"bandpass": None, **meta["analysis"]}
        else:
            raise ParameterError(
                f"schema_version {version!r} is not {SCHEMA_VERSION}; "
                "recalibrate with this version of 'envdiag calibrate'"
            )
        return _load(
            cls, meta, _META_KEYS,
            pulse_base=_load(PulseParams, meta["pulse"], _PULSE_KEYS, aci=1.0),
            spectrum=_load(SpectrumConfig, analysis, _SPECTRUM_KEYS),
            estimator=_load(EstimatorConfig, analysis, _ESTIMATOR_KEYS,
                            f_theoretical=meta["f_simul"]),
            entries=tuple(_load(ThresholdEntry, e, _ENTRY_KEYS) for e in data["entries"]),
        )

    def save(self, path) -> None:
        write_json(path, self.to_json_dict())

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


def analysis_settings(table: ThresholdTable, band: tuple[float, float] | None,
                      f_theoretical: float):
    """The envelope-spectrum and peak-search settings a recording is analysed
    with: those ``table`` was calibrated under, with the recording's ``band``
    and ``f_theoretical``."""
    return (replace(table.spectrum, bandpass=band),
            replace(table.estimator, f_theoretical=f_theoretical))


def simulate_and_estimate(seq, seg_len, fs, dist, pulse, noise_std, spec_cfg, est_cfg):
    """Simulate the signal the SeedSequence ``seq`` seeds and estimate it (worker-safe).

    Callers bind every argument but ``seq`` with ``functools.partial`` and
    map it over their batch's seed list, ``[SeedSpec(seed).sequence(i) for
    i in range(n)]``, built in the calling process before the map starts.
    """
    signal, _ = simulate_signal(seg_len, fs, dist, pulse, seq, noise_std)
    return estimate_or_error(signal, spec_cfg, est_cfg)


def calibrate_entry(
    aci: float,
    seg_len: float,
    n: int,
    fs: float,
    master_seed: int,
    spec_cfg: SpectrumConfig = DEFAULT_SPECTRUM,
    est_cfg: EstimatorConfig = DEFAULT_ESTIMATOR,
    pulse: PulseParams = PulseParams(aci=1.0),
    noise_std: float = DEFAULT_NOISE_STD,
) -> ThresholdEntry:
    """Calibrate one cell from ``n`` simulations at ``DEFAULT_FAULT_FREQ``.

    Each is searched around that frequency, whatever
    ``est_cfg.f_theoretical`` is.  The threshold is the unbiased sample
    variance of the estimates.  Failed estimates are excluded up to 1% of
    the batch; beyond that the calibration aborts, since silent exclusion
    at scale would bias the variance.
    """
    n = whole_number(n, 2, "calibration needs at least 2 signals per cell")
    est_cfg = replace(est_cfg, f_theoretical=DEFAULT_FAULT_FREQ)
    simulate = functools.partial(
        simulate_and_estimate, seg_len=seg_len, fs=fs,
        dist=DistributionSpec.constant(DEFAULT_FAULT_FREQ),
        pulse=replace(pulse, aci=aci),
        noise_std=noise_std, spec_cfg=spec_cfg, est_cfg=est_cfg,
    )
    seqs = [SeedSpec(master_seed).sequence(i) for i in range(n)]
    f_hats, snrs, errors = estimate_batch(simulate, seqs)
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
    fs: float = DEFAULT_FS,
    master_seed: int = 0,
    spec_cfg: SpectrumConfig = DEFAULT_SPECTRUM,
    est_cfg: EstimatorConfig = DEFAULT_ESTIMATOR,
    pulse: PulseParams = PulseParams(aci=1.0),
    noise_std: float = DEFAULT_NOISE_STD,
) -> ThresholdTable:
    """Calibrate the full ACI x segment-length grid.

    Per-signal seeds derive from (master_seed, segment-length index, signal
    index) and are shared across the ACI rows of a column: the rows see the
    same noise draws, which makes the monotone ordering of thresholds and
    SNRs along the ACI axis directly estimable instead of being buried in
    Monte-Carlo noise.  Results are reproducible and independent of worker
    scheduling.

    The grids are checked before any cell is simulated: each must be
    non-empty, no two cells may be one (``check_unique_cells``, lengths
    within 1e-9 s being one column), every ACI must make a ``PulseParams``,
    and every length must be finite and at least two cycles of ``f_simul``,
    the least span ``simulate_signal`` accepts.

    Every cell is searched around ``f_simul``, the centre the table
    records, whatever ``est_cfg.f_theoretical`` is (``calibrate_entry``).
    """
    aci_list = list(aci_list)
    seg_len_list = list(seg_len_list)
    if not aci_list or not seg_len_list:
        raise ParameterError("calibration grids must be non-empty")
    check_unique_cells((aci, seg_len) for seg_len in seg_len_list for aci in aci_list)
    for aci in aci_list:
        replace(pulse, aci=aci)
    min_len = MIN_FAULT_CYCLES / DEFAULT_FAULT_FREQ
    for seg_len in seg_len_list:
        if not min_len <= seg_len < math.inf:
            raise ParameterError(
                f"segment length must be finite and at least two cycles of "
                f"{DEFAULT_FAULT_FREQ:g} Hz ({min_len:g} s), got {seg_len:g} s"
            )
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
        spectrum=spec_cfg,
        estimator=replace(est_cfg, f_theoretical=DEFAULT_FAULT_FREQ),
        entries=tuple(entries),
    )
