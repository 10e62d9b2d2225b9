"""Statistical primitives: kernel density estimate, distribution
densities, the one-tailed chi-squared variance test and a quantitative
uniform-vs-normal shape comparison."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import DegenerateSampleError, ParameterError

DECISION_REJECT = "reject"
DECISION_FAIL_TO_REJECT = "fail-to-reject"

VERDICT_UNIFORM = "uniform"
VERDICT_NORMAL = "normal"
VERDICT_INCONCLUSIVE = "inconclusive"

KDE_GRID_POINTS = 512
# relative gap below which the two fitted-shape distances are a wash
SHAPE_INCONCLUSIVE_FRAC = 0.10


@dataclass(frozen=True)
class KdeCurve:
    """Kernel density estimate evaluated on an ordered grid."""

    grid: np.ndarray
    density: np.ndarray
    bandwidth: float

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=np.float64)
        density = np.asarray(self.density, dtype=np.float64)
        if grid.ndim != 1 or grid.shape != density.shape or grid.size < 2:
            raise ParameterError("grid and density must be matching 1-D vectors")
        if np.any(np.diff(grid) <= 0):
            raise ParameterError("grid must be strictly increasing")
        if np.any(density < 0):
            raise ParameterError("density must be non-negative")
        if not self.bandwidth > 0:
            raise ParameterError("bandwidth must be positive")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "density", density)


@dataclass(frozen=True)
class VarianceTestResult:
    """Outcome of the upper one-tailed chi-squared variance test."""

    statistic: float
    dof: int
    critical: float
    alpha: float
    decision: str

    @property
    def rejected(self) -> bool:
        return self.decision == DECISION_REJECT


@dataclass(frozen=True)
class ShapeDistanceResult:
    """L2 distances between a KDE and its fitted uniform/normal overlays."""

    dist_uniform: float
    dist_normal: float
    verdict: str


def scott_bandwidth(samples) -> float:
    """Kernel bandwidth ``h = 1.06 * std(samples) * n^(-1/5)``.

    Uses the sample (ddof=1) standard deviation; constant samples are
    rejected so callers can fall back to a point-mass report.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.size < 2:
        raise ParameterError("bandwidth needs at least 2 samples")
    sd = float(np.std(samples, ddof=1))
    if sd == 0.0:
        raise DegenerateSampleError("sample standard deviation is zero")
    return 1.06 * sd * samples.size ** (-0.2)


def kde(samples) -> KdeCurve:
    """Gaussian-kernel density estimate with the Scott-style bandwidth.

    ``p(f) = 1/(n h) * sum_i phi((f - f_i) / h)``, evaluated on 512 points
    spanning the samples +-4 bandwidths, on which the density integrates to
    1 within 1e-3.
    """
    samples = np.asarray(samples, dtype=np.float64)
    h = scott_bandwidth(samples)
    grid = np.linspace(samples.min() - 4.0 * h, samples.max() + 4.0 * h, KDE_GRID_POINTS)
    z = (grid[:, None] - samples[None, :]) / h
    density = np.exp(-0.5 * z * z).sum(axis=1) / (samples.size * h * math.sqrt(2.0 * math.pi))
    return KdeCurve(grid=grid, density=density, bandwidth=h)


def uniform_pdf(f, a: float, b: float):
    if not a < b:
        raise ParameterError("uniform law needs a < b")
    f = np.asarray(f, dtype=np.float64)
    out = np.where((f >= a) & (f <= b), 1.0 / (b - a), 0.0)
    return out if out.ndim else float(out)


def normal_pdf(f, mu: float, sigma: float):
    if not sigma > 0:
        raise ParameterError("sigma must be positive")
    f = np.asarray(f, dtype=np.float64)
    z = (f - mu) / sigma
    out = np.exp(-0.5 * z * z) / (sigma * math.sqrt(2.0 * math.pi))
    return out if out.ndim else float(out)


def chi2_critical(p: float, dof: int) -> float:
    """Chi-squared quantile by inverting the regularized lower incomplete gamma."""
    if not 0 < p < 1:
        raise ParameterError("quantile probability must lie in (0, 1)")
    if int(dof) != dof or dof < 1:
        raise ParameterError("degrees of freedom must be a positive integer")
    value = 2.0 * special.gammaincinv(dof / 2.0, p)
    if not np.isfinite(value):
        raise ParameterError(f"chi-squared quantile did not converge for p={p}, dof={dof}")
    return float(value)


def chi_squared_variance_test(
    sample_var: float, sigma0_sq: float, n: int, alpha: float = 0.05
) -> VarianceTestResult:
    """Upper one-tailed test of H0: variance equals ``sigma0_sq``.

    ``T = (n-1) sample_var / sigma0_sq`` is compared against the
    ``1 - alpha`` quantile of chi-squared with ``n - 1`` degrees of freedom.
    """
    if int(n) != n or n < 2:
        raise ParameterError("need an integer sample size n >= 2")
    if not sigma0_sq > 0:
        raise ParameterError("tested variance must be positive")
    if sample_var < 0:
        raise ParameterError("sample variance cannot be negative")
    if not 0 < alpha < 1:
        raise ParameterError("alpha must lie in (0, 1)")
    statistic = (n - 1) * sample_var / sigma0_sq
    critical = chi2_critical(1.0 - alpha, n - 1)
    decision = DECISION_REJECT if statistic > critical else DECISION_FAIL_TO_REJECT
    return VarianceTestResult(
        statistic=float(statistic),
        dof=n - 1,
        critical=critical,
        alpha=float(alpha),
        decision=decision,
    )


def _l2_distance(grid: np.ndarray, f1: np.ndarray, f2: np.ndarray) -> float:
    return float(np.sqrt(np.trapezoid((f1 - f2) ** 2, grid)))


def shape_distance(samples) -> ShapeDistanceResult:
    """Compare a sample's KDE against fitted uniform and normal overlays.

    The uniform candidate is fitted on (min, max), the normal one on
    (mean, sample std); distances are L2 norms on the KDE grid.  The verdict
    names the closer family, or ``inconclusive`` when the two distances
    differ by less than 10% of the larger.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.size < 10:
        raise ParameterError("shape comparison needs at least 10 samples")
    curve = kde(samples)
    a, b = float(samples.min()), float(samples.max())
    mu, sd = float(samples.mean()), float(np.std(samples, ddof=1))
    d_uniform = _l2_distance(curve.grid, curve.density, uniform_pdf(curve.grid, a, b))
    d_normal = _l2_distance(curve.grid, curve.density, normal_pdf(curve.grid, mu, sd))
    if abs(d_uniform - d_normal) < SHAPE_INCONCLUSIVE_FRAC * max(d_uniform, d_normal):
        verdict = VERDICT_INCONCLUSIVE
    elif d_uniform < d_normal:
        verdict = VERDICT_UNIFORM
    else:
        verdict = VERDICT_NORMAL
    return ShapeDistanceResult(dist_uniform=d_uniform, dist_normal=d_normal, verdict=verdict)
