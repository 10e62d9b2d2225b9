"""Statistical primitives: kernel density estimate, distribution
densities, the one-tailed chi-squared variance test and a quantitative
uniform-vs-normal shape comparison.

The chi-squared quantile is computed here, with ``math`` alone, so that
no envdiag process needs scipy.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSampleError, ParameterError, whole_number

# level of the chi-squared variance test unless a caller sets one
DEFAULT_ALPHA = 0.05


def check_alpha(alpha: float) -> None:
    """Raise ParameterError unless the test level ``alpha`` lies in (0, 1)."""
    if not 0 < alpha < 1:
        raise ParameterError(f"alpha must lie in (0, 1), got {alpha:g}")


DECISION_REJECT = "reject"
DECISION_FAIL_TO_REJECT = "fail-to-reject"

VERDICT_UNIFORM = "uniform"
VERDICT_NORMAL = "normal"
VERDICT_INCONCLUSIVE = "inconclusive"

KDE_GRID_POINTS = 512
# kernel values the KDE holds at once: grid rows are evaluated in blocks of
# about this many elements (512 kB), so its memory does not grow with the
# number of estimates, as it would with the whole (grid, samples) matrix
KDE_BLOCK_ELEMENTS = 1 << 16
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
    1 within 1e-3.  Each grid point's sum runs over all samples in one row,
    as in the whole matrix, so the blocks of rows give the same bits.
    """
    samples = np.asarray(samples, dtype=np.float64)
    h = scott_bandwidth(samples)
    grid = np.linspace(samples.min() - 4.0 * h, samples.max() + 4.0 * h, KDE_GRID_POINTS)
    rows = max(1, KDE_BLOCK_ELEMENTS // samples.size)
    density = np.empty_like(grid)
    for i in range(0, grid.size, rows):
        z = (grid[i : i + rows, None] - samples[None, :]) / h
        density[i : i + rows] = np.exp(-0.5 * z * z).sum(axis=1)
    density /= samples.size * h * math.sqrt(2.0 * math.pi)
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


_EPS = 2.0**-52
# Stirling series of lgamma(a) - ((a - 1/2) log a - a + log(2 pi) / 2), used
# from a = 10 on, where the first omitted term is below 2e-14
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188)


def _log_gamma_density(a: float, x: float) -> float:
    """``log(x**a exp(-x) / Gamma(a))``, x times the Gamma(a) density at x.

    For large ``a`` the terms of the plain sum are near ``a log a`` each and
    cancel; the form ``-a (t - log1p(t))`` with ``t = x/a - 1``, plus the
    Stirling series, keeps the error near one ulp of the result instead.
    """
    if a < 10.0:
        return a * math.log(x) - x - math.lgamma(a)
    t = (x - a) / a
    inv = 1.0 / (a * a)
    corr = 0.0
    for c in reversed(_STIRLING):
        corr = corr * inv + c
    return -a * (t - math.log1p(t)) + 0.5 * math.log(a / (2.0 * math.pi)) - corr / a


def _gamma_excess(a: float, x: float, p: float) -> tuple[float, float]:
    """``P(a, x) - p`` for the regularized lower incomplete gamma, and ``P``'s
    derivative in ``x``, the Gamma(a) density at ``x``.

    A power series for ``P`` below ``x = a + 1``.  Above it ``Q = 1 - P``
    comes from its continued fraction by the modified Lentz method and the
    excess is ``(1 - p) - Q``: ``1 - p`` is exact for ``p >= 1/2``, so the
    excess keeps the relative accuracy of ``Q`` in the upper tail.
    """
    scale = math.exp(_log_gamma_density(a, x))
    if x < a + 1.0:
        term = total = 1.0 / a
        n = a
        while term > total * _EPS:
            n += 1.0
            term *= x / n
            total += term
        return scale * total - p, scale / x
    tiny = 1e-300
    b = x + 1.0 - a
    c, d = 1.0 / tiny, 1.0 / b
    h = d
    i = 0
    while True:
        i += 1
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        d = 1.0 / (d if abs(d) > tiny else tiny)
        c = b + an / c
        c = c if abs(c) > tiny else tiny
        h *= d * c
        if abs(d * c - 1.0) <= _EPS:
            break
    return (1.0 - p) - scale * h, scale / x


def chi2_critical(p: float, dof: int) -> float:
    """Chi-squared quantile by inverting the regularized lower incomplete gamma.

    ``x`` with ``P(dof/2, x) = p`` is found by Halley steps from the larger
    of the Wilson-Hilferty start and ``(p Gamma(a + 1))**(1/a)``, which is
    below the root because ``P(a, x) < x**a / Gamma(a + 1)``.  The steps
    stop once one moves ``x`` by at most 4 ulp, or, below a relative 1e-9,
    by no less than the step before: then rounding in ``P`` sets the step.
    Returns ``2 x``.
    """
    if not 0 < p < 1:
        raise ParameterError("quantile probability must lie in (0, 1)")
    dof = whole_number(dof, 1, "degrees of freedom must be a positive integer")
    a = dof / 2.0
    h = 2.0 / (9.0 * dof)
    z = statistics.NormalDist().inv_cdf(p)
    wilson_hilferty = a * max(1.0 - h + z * math.sqrt(h), 0.0) ** 3
    x = max(wilson_hilferty, math.exp((math.log(p) + math.lgamma(a + 1.0)) / a))
    last = math.inf
    for _ in range(100):
        excess, density = _gamma_excess(a, x, p)
        if density == 0.0:
            break
        u = excess / density
        # Halley's correction, (log density)' = (a - 1)/x - 1, capped as in
        # Numerical Recipes so that a step never more than doubles Newton's
        step = u / (1.0 - 0.5 * min(1.0, u * ((a - 1.0) / x - 1.0)))
        x = x - step if step < x else 0.5 * x
        size = abs(step)
        if size <= 4.0 * _EPS * x or last <= size <= 1e-9 * x:
            return 2.0 * x
        last = size
    raise ParameterError(f"chi-squared quantile did not converge for p={p}, dof={dof}")


def chi_squared_variance_test(
    sample_var: float, sigma0_sq: float, n: int, alpha: float = DEFAULT_ALPHA
) -> VarianceTestResult:
    """Upper one-tailed test of H0: variance equals ``sigma0_sq``.

    ``T = (n-1) sample_var / sigma0_sq`` is compared against the
    ``1 - alpha`` quantile of chi-squared with ``n - 1`` degrees of freedom.
    A ``sigma0_sq`` of 0 makes ``T`` infinite, a rejection, when
    ``sample_var`` is positive, and 0 when it is 0 too.
    """
    n = whole_number(n, 2, "need an integer sample size n >= 2")
    if not sigma0_sq >= 0:
        raise ParameterError(f"tested variance must be non-negative, got {sigma0_sq!r}")
    if sample_var < 0:
        raise ParameterError("sample variance cannot be negative")
    check_alpha(alpha)
    if sigma0_sq == 0:
        statistic = math.inf if sample_var > 0 else 0.0
    else:
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


def fitted_overlays(samples, grid) -> tuple[np.ndarray, np.ndarray]:
    """The uniform density fitted on the samples' (min, max) and the normal
    one on their (mean, ddof=1 std), each evaluated on ``grid``."""
    samples = np.asarray(samples, dtype=np.float64)
    return (uniform_pdf(grid, float(samples.min()), float(samples.max())),
            normal_pdf(grid, float(samples.mean()), float(np.std(samples, ddof=1))))


def _l2_distance(grid: np.ndarray, f1: np.ndarray, f2: np.ndarray) -> float:
    return float(np.sqrt(np.trapezoid((f1 - f2) ** 2, grid)))


def shape_distance(samples) -> ShapeDistanceResult:
    """Compare a sample's KDE against fitted uniform and normal overlays.

    The candidates are ``fitted_overlays``; distances are L2 norms on the
    KDE grid.  The verdict names the closer family, or ``inconclusive`` when
    the two distances differ by less than 10% of the larger.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.size < 10:
        raise ParameterError("shape comparison needs at least 10 samples")
    curve = kde(samples)
    d_uniform, d_normal = (_l2_distance(curve.grid, curve.density, pdf)
                           for pdf in fitted_overlays(samples, curve.grid))
    if abs(d_uniform - d_normal) < SHAPE_INCONCLUSIVE_FRAC * max(d_uniform, d_normal):
        verdict = VERDICT_INCONCLUSIVE
    elif d_uniform < d_normal:
        verdict = VERDICT_UNIFORM
    else:
        verdict = VERDICT_NORMAL
    return ShapeDistanceResult(dist_uniform=d_uniform, dist_normal=d_normal, verdict=verdict)
