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

from .envspec import WINDOW, SpectrumConfig, check_band, welch_piece
from .errors import (CalibrationError, ParameterError, TableMismatchError, positive_finite, real,
                     whole_number)
from .faultfreq import EstimatorConfig, estimate_batch, estimate_or_error
from .sigmodel import (
    DEFAULT_FAULT_FREQ,
    DEFAULT_FS,
    DEFAULT_NOISE_STD,
    MIN_FAULT_CYCLES,
    PULSE_LAW,
    DistributionSpec,
    PulseParams,
    SeedSpec,
    check_noise_std,
    sample_count,
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
        positive_finite(self.aci, "a cell's aci")
        positive_finite(self.seg_len, "a cell's seg_len", " s")
        positive_finite(self.mean_f_hat, "a cell's mean_f_hat", " Hz")
        message = ("a cell needs threshold >= 0 and mean_snr >= 0, both finite, and n_signals "
                   f">= 2, got {self.threshold!r}, {self.mean_snr!r} and {self.n_signals!r}")
        if not (0 <= real(self.threshold) < math.inf and 0 <= real(self.mean_snr) < math.inf):
            raise ParameterError(message)
        object.__setattr__(self, "n_signals", whole_number(self.n_signals, 2, message))
        object.__setattr__(self, "master_seed", SeedSpec(self.master_seed).master_seed)


# Field -> JSON key of each saved record; one map drives both save and load.
_META_KEYS = {"fs": "fs", "n_signals": "n", "master_seed": "seed", "noise_std": "noise_std"}
_SPECTRUM_KEYS = {"bandpass": "bandpass", "zero_pad_factor": "zero_pad_factor",
                  "piece_len_s": "piece_len_s"}
_ESTIMATOR_KEYS = {"n_harmonics": "n_harmonics", "search_frac": "search_frac",
                   "peak_excl_bins": "peak_excl_bins"}
_PULSE_KEYS = {"fc": "fc"}
_ENTRY_KEYS = {"aci": "aci", "seg_len": "seg_len_s", "threshold": "threshold",
               "mean_f_hat": "mean_f_hat", "mean_snr": "mean_snr", "n_signals": "n_signals",
               "master_seed": "master_seed"}

def _dump(record, keys: dict) -> dict:
    return {key: getattr(record, name) for name, key in keys.items()}


def analysis_json(spec_cfg: SpectrumConfig, est_cfg: EstimatorConfig) -> dict:
    """The ``meta.analysis`` map a table calibrated under these settings saves:
    every envelope-spectrum and peak-search setting, its band and the taper's
    name (``envspec.WINDOW``) included."""
    return {**_dump(spec_cfg, _SPECTRUM_KEYS), "window": WINDOW,
            **_dump(est_cfg, _ESTIMATOR_KEYS)}


def _load(cls, data: dict, keys: dict, **extra):
    """Build ``cls`` from the JSON object ``data``, which checks its values; an ``int``
    field (annotations are strings) must hold a JSON int, not ``4.0``, else ValueError."""
    ints = {f.name for f in fields(cls) if f.type == "int"}
    for name, key in keys.items():
        if name in ints and type(data[key]) is not int:
            raise ValueError(f"{key} is not a valid int: {data[key]!r}")
    return cls(**{name: data[key] for name, key in keys.items()}, **extra)


@dataclass(frozen=True)
class ThresholdTable:
    """Threshold entries plus the generation metadata they depend on.

    ``spectrum`` and ``estimator`` are the envelope-spectrum and peak-search
    settings the table was calibrated under, its band included.  A recording
    compared against it is analysed with the same ones, in its own band and
    around its own theoretical frequency (``classify.analysis_settings``).
    The table's search centre ``f_simul`` is ``estimator.f_theoretical``,
    which ``meta.f_simul`` holds in the file.

    Saved as a JSON object with two members, and loaded only in this one layout,
    every key present.  ``meta`` holds ``fs``, ``f_simul``, ``n``, ``seed``,
    ``noise_std``, ``schema_version`` (2), ``analysis`` (``analysis_json``), the
    settings' ``bandpass`` (null or ``[lo, hi]``), ``window`` (``"hann"``, the
    one taper; any other is refused), ``zero_pad_factor``, ``piece_len_s``,
    ``n_harmonics``, ``search_frac`` and ``peak_excl_bins``, which also name the
    table in a report's provenance, and ``pulse``, the base pulse's ``fc`` and
    the bandwidth law, ``PULSE_LAW``'s ``bw_lo``, ``bw_hi`` and ``bwr`` (any
    other law is refused, its thresholds coming from other pulses); its ACI is
    1.0, as each entry carries its own.  ``entries`` is a list of cells, each
    with ``aci``, ``seg_len_s``, ``threshold``, ``mean_f_hat``, ``mean_snr``,
    ``n_signals`` and ``master_seed``.  Any other ``schema_version``, or none,
    is an error that asks for a recalibration.  Ranges are checked on
    construction, built or loaded: ``fs`` positive and finite, ``noise_std`` as
    ``simulate_signal`` takes it, ``n`` a whole number of at least 2, ``seed``
    as ``SeedSpec`` takes it, and records, ``f_simul`` among them, as their own
    classes accept.  Lengths within 1e-9 s are one column (``same_length``),
    holding one entry per ACI.
    """

    fs: float
    n_signals: int
    master_seed: int
    noise_std: float
    pulse_base: PulseParams
    spectrum: SpectrumConfig
    estimator: EstimatorConfig
    entries: tuple[ThresholdEntry, ...]

    def __post_init__(self):
        positive_finite(self.fs, "a table's fs", " Hz")
        check_noise_std(self.noise_std)
        object.__setattr__(self, "n_signals", whole_number(
            self.n_signals, 2, f"a table needs n >= 2, got {self.n_signals!r}"))
        object.__setattr__(self, "master_seed", SeedSpec(self.master_seed).master_seed)
        check_unique_cells((e.aci, e.seg_len) for e in self.entries)

    @property
    def f_simul(self) -> float:
        """The centre every cell was searched around, Hz."""
        return self.estimator.f_theoretical

    def entries_at(self, seg_len: float) -> list[ThresholdEntry]:
        """The cells at ``seg_len``; TableMismatchError when there are none."""
        cells = [e for e in self.entries if same_length(e.seg_len, seg_len)]
        if not cells:
            raise TableMismatchError(f"threshold table has no entries for seg_len={seg_len:g} s")
        return cells

    def to_json_dict(self) -> dict:
        meta = _dump(self, _META_KEYS)
        meta["f_simul"] = self.f_simul
        meta["schema_version"] = SCHEMA_VERSION
        meta["analysis"] = analysis_json(self.spectrum, self.estimator)
        meta["pulse"] = {**_dump(self.pulse_base, _PULSE_KEYS), **PULSE_LAW}
        return {"meta": meta, "entries": [_dump(e, _ENTRY_KEYS) for e in self.entries]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "ThresholdTable":
        meta = data["meta"]
        version = meta["schema_version"] if "schema_version" in meta else None
        if version != SCHEMA_VERSION:
            raise ParameterError(
                f"schema_version {version!r} is not {SCHEMA_VERSION}; "
                "recalibrate with this version of 'envdiag calibrate'"
            )
        if meta["analysis"]["window"] != WINDOW:
            raise ValueError(f"window {meta['analysis']['window']!r} is not {WINDOW!r}")
        for key, value in PULSE_LAW.items():
            if meta["pulse"][key] != value:
                raise ValueError(f"pulse {key} {meta['pulse'][key]!r} is not {value!r}")
        return _load(
            cls, meta, _META_KEYS,
            pulse_base=_load(PulseParams, meta["pulse"], _PULSE_KEYS, aci=1.0),
            spectrum=_load(SpectrumConfig, meta["analysis"], _SPECTRUM_KEYS),
            estimator=_load(EstimatorConfig, meta["analysis"], _ESTIMATOR_KEYS,
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
        """Threshold matrix with ACI rows and segment-length columns; a cell
        the table lacks is an empty field.  Lengths within 1e-9 s are one
        column (``same_length``), headed by the smallest of them."""
        lens = {e.seg_len for e in self.entries}
        head = {s: min(t for t in lens if same_length(s, t)) for s in lens}
        cells = {(e.aci, head[e.seg_len]): f"{e.threshold:.6g}" for e in self.entries}
        segs = sorted(set(head.values()))
        lines = ["aci," + ",".join(f"{s:g}s" for s in segs)]
        for aci in sorted({a for a, _ in cells}):
            lines.append(f"{aci:g}," + ",".join(cells.get((aci, s), "") for s in segs))
        return "\n".join(lines) + "\n"


def simulate_and_estimate(seq, seg_len, fs, dist, pulse, noise_std, spec_cfg, est_cfg):
    """Simulate the signal the SeedSequence ``seq`` seeds and estimate it
    (worker-safe); ``simulate_batch`` maps it over a batch."""
    signal, _ = simulate_signal(seg_len, fs, dist, pulse, seq, noise_std)
    return estimate_or_error(signal, spec_cfg, est_cfg)


def simulate_batch(n, seed, seg_len, fs, dist, pulse, noise_std, spec_cfg, est_cfg):
    """``estimate_batch``'s ``(f_hats, snrs, errors)`` for ``n`` simulated signals, signal
    ``i`` seeded by ``SeedSpec(seed).sequence(i)``, made here before the one map starts."""
    simulate = functools.partial(simulate_and_estimate, seg_len=seg_len, fs=fs, dist=dist,
                                 pulse=pulse, noise_std=noise_std, spec_cfg=spec_cfg,
                                 est_cfg=est_cfg)
    seeds = SeedSpec(seed)
    return estimate_batch(simulate, [seeds.sequence(i) for i in range(n)])


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
    f_hats, snrs, errors = simulate_batch(
        n, master_seed, seg_len, fs, DistributionSpec.constant(DEFAULT_FAULT_FREQ),
        replace(pulse, aci=aci), noise_std, spec_cfg,
        replace(est_cfg, f_theoretical=DEFAULT_FAULT_FREQ))
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
        master_seed=master_seed,
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

    The grids are checked before any cell is simulated: each must be non-empty,
    every ACI must make a ``PulseParams``, every length must be positive and
    finite, at least two cycles of ``f_simul`` (the least span
    ``simulate_signal`` accepts) and have a ``sample_count`` at ``fs`` that
    holds a ``welch_piece``, the band must pass at ``fs`` (``check_band``), and
    no two cells may be one (``check_unique_cells``, lengths within 1e-9 s being
    one column).

    Every cell is searched around ``f_simul``, the centre the table
    records, whatever ``est_cfg.f_theoretical`` is (``calibrate_entry``).
    """
    aci_list = list(aci_list)
    seg_len_list = list(seg_len_list)
    if not aci_list or not seg_len_list:
        raise ParameterError("calibration grids must be non-empty")
    for aci in aci_list:
        replace(pulse, aci=aci)
    min_len = MIN_FAULT_CYCLES / DEFAULT_FAULT_FREQ
    for seg_len in seg_len_list:
        positive_finite(seg_len, "segment length", " s")
        if seg_len < min_len:
            raise ParameterError(
                f"segment length must be at least two cycles of "
                f"{DEFAULT_FAULT_FREQ:g} Hz ({min_len:g} s), got {seg_len:g} s"
            )
        welch_piece(spec_cfg, fs, sample_count(seg_len, fs))
    check_band(spec_cfg.bandpass, fs)
    check_unique_cells((aci, seg_len) for seg_len in seg_len_list for aci in aci_list)
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
        n_signals=n,
        master_seed=seeds.master_seed,
        noise_std=float(noise_std),
        pulse_base=replace(pulse, aci=1.0),
        spectrum=spec_cfg,
        estimator=replace(est_cfg, f_theoretical=DEFAULT_FAULT_FREQ),
        entries=tuple(entries),
    )
