"""Decision procedure: is the fault frequency constant, and if not, how is
it distributed?

The chain runs per segment length: estimate the fault frequency on every
non-overlapping segment, match the signal's average spectral SNR to a
calibrated impulse amplitude, rescale the estimate variance onto the
simulated 30 Hz scale, gate it against the calibrated threshold, and when
the gate trips confirm with the one-tailed chi-squared variance test.  A
rejected test ends in a uniform-vs-normal shape comparison of the
estimates.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import stats
from .calibrate import (
    ThresholdEntry,
    ThresholdTable,
    config_digest,
    estimate_batch,
    simulate_and_estimate,
)
from .envspec import SpectrumConfig
from .errors import (
    DegenerateSampleError,
    EstimationError,
    ParameterError,
    TableMismatchError,
)
from .faultfreq import (
    EstimatorConfig,
    check_segment_failures,
    estimate_or_error,
    iter_segments,
)
from .sigmodel import DistributionSpec, Signal

VERDICT_CONSTANT = "constant"
VERDICT_UNIFORM = "uniform"
VERDICT_NORMAL = "normal"
VERDICT_INCONCLUSIVE = "not-constant-inconclusive"

GATE_BELOW = "below"
GATE_ABOVE = "above"

MIN_SEGMENTS_FOR_TEST = 10


@dataclass(frozen=True)
class ClassifyConfig:
    """Settings for one classification run."""

    estimator: EstimatorConfig
    seg_len: float
    alpha: float = 0.05
    spectrum: SpectrumConfig = field(default_factory=SpectrumConfig)
    paper_rescale: bool = False

    def __post_init__(self):
        if not 0 < self.alpha < 1:
            raise ParameterError("alpha must lie in (0, 1)")
        if not 0 < self.seg_len < math.inf:
            raise ParameterError("segment length must be positive and finite")


@dataclass(frozen=True)
class ClassificationReport:
    """Full decision trail for one signal at one segment length."""

    seg_len: float
    n_segments: int
    estimates: tuple[float, ...]
    snrs: tuple[float, ...]
    mean_f_hat_real: float
    avg_snr_real: float
    matched_aci: float
    threshold: float
    variance_raw: float
    rescaled_variance: float
    gate: str
    test: stats.VarianceTestResult | None
    verdict: str
    shape: stats.ShapeDistanceResult | None
    warnings: tuple[str, ...]
    provenance: dict

    @property
    def is_constant(self) -> bool:
        return self.verdict == VERDICT_CONSTANT

    def to_json_dict(self) -> dict:
        out = {
            key: list(value) if isinstance(value, tuple) else value
            for key, value in asdict(self).items()
        }
        out["seg_len_s"] = out.pop("seg_len")
        out["estimates_hz"] = out.pop("estimates")
        return out

    def summary_line(self) -> str:
        """One row in the style of the final-decision tables."""
        gate_ans = "Yes" if self.gate == GATE_BELOW else "No"
        if self.test is None:
            test_ans = "None"
        elif self.test.rejected:
            test_ans = "Rejected"
        else:
            test_ans = "Fail to reject"
        if self.is_constant:
            final = "Constant value"
        else:
            final = "Different than a constant value"
            if self.shape is not None and self.shape.verdict != stats.VERDICT_INCONCLUSIVE:
                final += f" ({self.shape.verdict})"
        return f"{self.seg_len:g} s | {gate_ans} | {test_ans} | {final}"


def match_aci(avg_snr_real: float, table: ThresholdTable, seg_len: float) -> tuple[float, ThresholdEntry]:
    """Pick the calibrated cell whose mean SNR is closest to the signal's.

    Ties resolve toward the larger impulse amplitude, whose smaller
    threshold is the conservative choice (more likely to flag variation).
    """
    candidates = table.entries_at(seg_len)
    if not candidates:
        raise TableMismatchError(f"threshold table has no entries for seg_len={seg_len:g} s")
    best = min(candidates, key=lambda e: (abs(e.mean_snr - avg_snr_real), -e.aci))
    return best.aci, best


def rescale_variance(
    var_real: float,
    mean_f_hat_real: float,
    mean_f_hat_simul: float,
    paper_direction: bool = False,
) -> float:
    """Express the real-signal variance on the simulated frequency scale.

    The default multiplies by ``(f_simul / f_real)^2`` so that relative
    variability is preserved when comparing against thresholds calibrated
    at 30 Hz; ``paper_direction=True`` applies the reciprocal factor
    instead, as literally printed in the source procedure.
    """
    if not (mean_f_hat_real > 0 and mean_f_hat_simul > 0):
        raise ParameterError("mean estimates must be positive for rescaling")
    ratio = mean_f_hat_real / mean_f_hat_simul if paper_direction else mean_f_hat_simul / mean_f_hat_real
    return var_real * ratio * ratio


def _decide(
    f_hats: np.ndarray,
    snrs: np.ndarray,
    table: ThresholdTable,
    seg_len: float,
    alpha: float,
    paper_rescale: bool,
    warnings: list[str],
    provenance: dict,
) -> ClassificationReport:
    """Decision chain on an estimates vector; pure given its inputs."""
    n = len(f_hats)
    if n < 2:
        raise EstimationError("need at least 2 segment estimates to test variance")
    if n < MIN_SEGMENTS_FOR_TEST:
        warnings.append(
            f"only {n} segments; the chi-squared test has low power below "
            f"{MIN_SEGMENTS_FOR_TEST}"
        )
    avg_snr = float(np.mean(snrs))
    mean_f = float(f_hats.mean())
    var_raw = float(np.var(f_hats, ddof=1))

    matched, entry = match_aci(avg_snr, table, seg_len)
    snr_lo = min(e.mean_snr for e in table.entries_at(seg_len))
    snr_hi = max(e.mean_snr for e in table.entries_at(seg_len))
    if not snr_lo <= avg_snr <= snr_hi:
        warnings.append(
            f"signal SNR {avg_snr:.3g} lies outside the calibrated range "
            f"[{snr_lo:.3g}, {snr_hi:.3g}]; matched the boundary aci={matched:g}"
        )

    var_scaled = rescale_variance(var_raw, mean_f, entry.mean_f_hat, paper_rescale)

    test = None
    shape = None
    if var_scaled <= entry.threshold:
        gate = GATE_BELOW
        verdict = VERDICT_CONSTANT
    else:
        gate = GATE_ABOVE
        if entry.threshold > 0:
            test = stats.chi_squared_variance_test(var_scaled, entry.threshold, n, alpha)
        else:
            # calibrated variance of zero: any positive variance is infinitely
            # significant, so the test degenerates to an immediate rejection
            warnings.append("calibrated threshold is zero; chi-squared test degenerate")
            test = stats.VarianceTestResult(
                statistic=math.inf,
                dof=n - 1,
                critical=stats.chi2_critical(1.0 - alpha, n - 1),
                alpha=alpha,
                decision=stats.DECISION_REJECT,
            )
        if not test.rejected:
            verdict = VERDICT_CONSTANT
        else:
            try:
                shape = stats.shape_distance(f_hats)
            except (ParameterError, DegenerateSampleError) as exc:
                warnings.append(f"shape comparison unavailable: {exc}")
                verdict = VERDICT_INCONCLUSIVE
            else:
                verdict = {
                    stats.VERDICT_UNIFORM: VERDICT_UNIFORM,
                    stats.VERDICT_NORMAL: VERDICT_NORMAL,
                    stats.VERDICT_INCONCLUSIVE: VERDICT_INCONCLUSIVE,
                }[shape.verdict]

    return ClassificationReport(
        seg_len=float(seg_len),
        n_segments=n,
        estimates=tuple(f_hats.tolist()),
        snrs=tuple(snrs.tolist()),
        mean_f_hat_real=mean_f,
        avg_snr_real=avg_snr,
        matched_aci=float(matched),
        threshold=float(entry.threshold),
        variance_raw=var_raw,
        rescaled_variance=float(var_scaled),
        gate=gate,
        test=test,
        verdict=verdict,
        shape=shape,
        warnings=tuple(warnings),
        provenance=provenance,
    )


def _check_digest(cfg: ClassifyConfig, table: ThresholdTable) -> None:
    expected = config_digest(cfg.spectrum, cfg.estimator)
    if expected != table.config_digest:
        raise TableMismatchError(
            "threshold table was calibrated under a different spectral/estimator "
            f"configuration (table {table.config_digest}, current {expected}); "
            "recalibrate or adjust the configuration"
        )


def _provenance(cfg: ClassifyConfig, table: ThresholdTable, **extra) -> dict:
    """Settings and table identity a report was made under."""
    return {
        "table_digest": table.config_digest,
        "table_seed": table.master_seed,
        "alpha": cfg.alpha,
        "f_theoretical": cfg.estimator.f_theoretical,
        "rescale_direction": "paper" if cfg.paper_rescale else "normalized",
        "search_frac": cfg.estimator.search_frac,
        "n_harmonics": cfg.estimator.n_harmonics,
        **extra,
    }


def classify_signal(
    x: Signal, cfg: ClassifyConfig, table: ThresholdTable
) -> ClassificationReport:
    """Run the full decision procedure on a recorded signal."""
    _check_digest(cfg, table)
    estimate = functools.partial(estimate_or_error, spec_cfg=cfg.spectrum, est_cfg=cfg.estimator)
    f_hats, snrs, errors = estimate_batch(estimate, iter_segments(x, cfg.seg_len))
    warnings = check_segment_failures(x, cfg.seg_len, len(errors), len(f_hats) + len(errors))
    provenance = _provenance(
        cfg, table, bandpass=list(cfg.spectrum.bandpass) if cfg.spectrum.bandpass else None
    )
    return _decide(
        f_hats, snrs, table, cfg.seg_len, cfg.alpha, cfg.paper_rescale, warnings, provenance
    )


def simulate_and_classify(
    dist: DistributionSpec,
    aci: float,
    seg_len: float,
    n_segments: int,
    table: ThresholdTable,
    seed: int,
    cfg: ClassifyConfig | None = None,
) -> ClassificationReport:
    """Simulate ``n_segments`` independent segments under ``dist`` and classify.

    Each segment draws its own fault frequency, mirroring the simulation
    protocol used to grade the procedure's misclassification rates.  A
    failed estimate on any segment fails the whole call with its error.
    """
    if n_segments < 2:
        raise ParameterError("need at least 2 segments")
    cfg = cfg or ClassifyConfig(EstimatorConfig(f_theoretical=table.f_simul), seg_len)
    if abs(cfg.seg_len - seg_len) > 1e-12:
        raise ParameterError("cfg.seg_len disagrees with seg_len")
    _check_digest(cfg, table)
    simulate = functools.partial(
        simulate_and_estimate, seed=seed, seg_len=seg_len, fs=table.fs, dist=dist,
        pulse=replace(table.pulse_base, aci=aci), noise_std=table.noise_std,
        spec_cfg=cfg.spectrum, est_cfg=cfg.estimator,
    )
    f_hats, snrs, errors = estimate_batch(simulate, range(n_segments))
    if errors:
        raise errors[0]
    provenance = _provenance(
        cfg, table, simulated={"dist": dist.spec_string(), "aci": aci, "seed": seed}
    )
    return _decide(
        f_hats, snrs, table, seg_len, cfg.alpha, cfg.paper_rescale, [], provenance
    )
