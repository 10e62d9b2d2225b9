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
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import stats
from .calibrate import (
    ThresholdEntry,
    ThresholdTable,
    analysis_json,
    analysis_settings,
    same_length,
    simulate_and_estimate,
)
from .envspec import SpectrumConfig
from .errors import DegenerateSampleError, ParameterError, whole_number
from .faultfreq import (
    EstimatorConfig,
    check_segment_failures,
    estimate_batch,
    estimate_or_error,
    iter_segments,
)
from .sigmodel import DistributionSpec, Recording, SeedSpec, check_segment_length

VERDICT_CONSTANT = "constant"
# a shape comparison that names a family gives its verdict
VERDICT_UNIFORM = stats.VERDICT_UNIFORM
VERDICT_NORMAL = stats.VERDICT_NORMAL
VERDICT_INCONCLUSIVE = "not-constant-inconclusive"

GATE_BELOW = "below"
GATE_ABOVE = "above"

MIN_SEGMENTS_FOR_TEST = 10


@dataclass(frozen=True)
class ClassifyConfig:
    """Settings for one classification run.

    Only the recording's own values: its theoretical fault frequency, the
    segment length, the test level, an optional bandpass ``band`` (LO, HI)
    in Hz and the rescale direction.  The envelope-spectrum and peak-search
    settings come from the threshold table, see ``analysis_settings``.
    """

    f_theoretical: float
    seg_len: float
    alpha: float = stats.DEFAULT_ALPHA
    band: tuple[float, float] | None = None
    paper_rescale: bool = False

    def __post_init__(self):
        stats.check_alpha(self.alpha)
        check_segment_length(self.seg_len)
        # the band and the search centre are checked by the configs they go into
        SpectrumConfig(bandpass=self.band)
        EstimatorConfig(f_theoretical=self.f_theoretical)


@dataclass(frozen=True)
class ClassificationReport:
    """Full decision trail for one signal at one segment length.

    ``provenance`` names what the decision was made under.  ``analysis`` is
    the table's ``meta.analysis``, the settings it was calibrated with, its
    band included, and ``table_seed`` its master seed; ``alpha``,
    ``f_theoretical`` and ``rescale_direction`` ("normalized" or "paper")
    are the run's.  A classified recording adds ``bandpass``, the band it
    was analysed in, which may differ from the table's
    ``analysis.bandpass``; a simulated one adds ``simulated``, its ``dist``,
    ``aci`` and ``seed``.
    """

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


def decision_table(reports) -> str:
    """The reports as a final-decision table: its header, then one row per report."""
    lines = ["segment length | below threshold -> constant | chi-squared | classification"]
    for rep in reports:
        gate_ans = "Yes" if rep.gate == GATE_BELOW else "No"
        test_ans = ("None" if rep.test is None
                    else "Rejected" if rep.test.rejected else "Fail to reject")
        if rep.is_constant:
            final = "Constant value"
        else:
            final = "Different than a constant value"
            if rep.shape is not None and rep.shape.verdict != stats.VERDICT_INCONCLUSIVE:
                final += f" ({rep.shape.verdict})"
        lines.append(f"{rep.seg_len:g} s | {gate_ans} | {test_ans} | {final}")
    return "\n".join(lines) + "\n"


def match_aci(avg_snr_real: float, table: ThresholdTable, seg_len: float) -> tuple[float, ThresholdEntry]:
    """Pick the calibrated cell whose mean SNR is closest to the signal's.

    Ties resolve toward the larger impulse amplitude, whose smaller
    threshold is the conservative choice (more likely to flag variation).
    """
    best = min(table.entries_at(seg_len), key=lambda e: (abs(e.mean_snr - avg_snr_real), -e.aci))
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
    cfg: ClassifyConfig,
    warnings: list[str],
    **provenance_extra,
) -> ClassificationReport:
    """Decision chain on an estimates vector; pure given its inputs.

    The report's provenance (see ClassificationReport) comes from ``cfg``
    and ``table``, followed by ``provenance_extra``.
    """
    n = len(f_hats)
    if n < MIN_SEGMENTS_FOR_TEST:
        warnings.append(
            f"only {n} segments; the chi-squared test has low power below "
            f"{MIN_SEGMENTS_FOR_TEST}"
        )
    avg_snr = float(np.mean(snrs))
    mean_f = float(f_hats.mean())
    var_raw = float(np.var(f_hats, ddof=1))

    matched, entry = match_aci(avg_snr, table, cfg.seg_len)
    cell_snrs = [e.mean_snr for e in table.entries_at(cfg.seg_len)]
    snr_lo, snr_hi = min(cell_snrs), max(cell_snrs)
    if not snr_lo <= avg_snr <= snr_hi:
        warnings.append(
            f"signal SNR {avg_snr:.3g} lies outside the calibrated range "
            f"[{snr_lo:.3g}, {snr_hi:.3g}]; matched the boundary aci={matched:g}"
        )

    var_scaled = rescale_variance(var_raw, mean_f, entry.mean_f_hat, cfg.paper_rescale)

    test = None
    shape = None
    if var_scaled <= entry.threshold:
        gate = GATE_BELOW
        verdict = VERDICT_CONSTANT
    else:
        gate = GATE_ABOVE
        if entry.threshold == 0:
            warnings.append("calibrated threshold is zero; chi-squared test degenerate")
        test = stats.chi_squared_variance_test(var_scaled, entry.threshold, n, cfg.alpha)
        if not test.rejected:
            verdict = VERDICT_CONSTANT
        else:
            verdict = VERDICT_INCONCLUSIVE
            try:
                shape = stats.shape_distance(f_hats)
            except (ParameterError, DegenerateSampleError) as exc:
                warnings.append(f"shape comparison unavailable: {exc}")
            else:
                if shape.verdict != stats.VERDICT_INCONCLUSIVE:
                    verdict = shape.verdict

    return ClassificationReport(
        seg_len=float(cfg.seg_len),
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
        provenance={
            "analysis": analysis_json(table.spectrum, table.estimator),
            "table_seed": table.master_seed,
            "alpha": cfg.alpha,
            "f_theoretical": cfg.f_theoretical,
            "rescale_direction": "paper" if cfg.paper_rescale else "normalized",
            **provenance_extra,
        },
    )


def classify_signal(
    x: Recording, cfg: ClassifyConfig, table: ThresholdTable
) -> ClassificationReport:
    """Run the full decision procedure on a recording, analysed with the
    table's settings.

    ``x`` is a segment source, such as a Signal or the recording
    ``sigio.read_signal`` returns.  At one worker its segments are read and
    estimated one at a time; with ENVDIAG_THREADS > 1 all are read first,
    and the worker pool holds their samples while it runs.  A table without
    a cell at ``cfg.seg_len`` raises TableMismatchError before any segment
    is read.  A ``cfg.band`` other than the table's band is used, with a
    warning in the report, and so is a recording whose sample rate is not
    the table's ``fs``.
    """
    table.entries_at(cfg.seg_len)  # raises before any segment is read
    spec_cfg, est_cfg = analysis_settings(table, cfg.band, cfg.f_theoretical)
    estimate = functools.partial(estimate_or_error, spec_cfg=spec_cfg, est_cfg=est_cfg)
    f_hats, snrs, errors = estimate_batch(estimate, iter_segments(x, cfg.seg_len))
    warnings = check_segment_failures(x, cfg.seg_len, len(errors), len(f_hats) + len(errors))
    if spec_cfg.bandpass != table.spectrum.bandpass:
        warnings.append(f"band {spec_cfg.bandpass} is not the table's band "
                        f"{table.spectrum.bandpass}; its SNRs and thresholds may not apply")
    if x.fs != table.fs:
        warnings.append(f"sample rate {x.fs:g} Hz is not the table's sample rate "
                        f"{table.fs:g} Hz; its SNRs and thresholds may not apply")
    return _decide(f_hats, snrs, table, cfg, warnings,
                   bandpass=list(spec_cfg.bandpass) if spec_cfg.bandpass else None)


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
    n_segments = whole_number(n_segments, 2, "need at least 2 segments")
    cfg = cfg or ClassifyConfig(table.f_simul, seg_len)
    if not same_length(cfg.seg_len, seg_len):
        raise ParameterError("cfg.seg_len disagrees with seg_len")
    # the report carries seg_len, not a cfg.seg_len that differs from it below 1e-9 s
    cfg = replace(cfg, seg_len=seg_len)
    spec_cfg, est_cfg = analysis_settings(table, cfg.band, cfg.f_theoretical)
    simulate = functools.partial(
        simulate_and_estimate, seg_len=seg_len, fs=table.fs, dist=dist,
        pulse=replace(table.pulse_base, aci=aci), noise_std=table.noise_std,
        spec_cfg=spec_cfg, est_cfg=est_cfg,
    )
    seqs = [SeedSpec(seed).sequence(i) for i in range(n_segments)]
    f_hats, snrs, errors = estimate_batch(simulate, seqs)
    if errors:
        raise errors[0]
    return _decide(f_hats, snrs, table, cfg, [],
                   simulated={"dist": dist.spec_string(), "aci": aci, "seed": seed})
