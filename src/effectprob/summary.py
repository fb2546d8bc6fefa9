"""Posterior summaries built on pooled draws.

The central quantities are exceedance probabilities: the share of draws
strictly beyond a threshold. Evaluating them over a grid of thresholds
gives the two branches of a complementary cumulative curve, one for
positive effect sizes and one for negative. Conventional summaries (mean,
equal-tailed credible interval, one-sided probabilities at zero) and a
Gaussian kernel density estimate are provided for comparison plots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .draws import ParameterView
from .errors import (
    DegenerateDraws,
    EmptyDraws,
    InvalidArgument,
    InvalidLevel,
    InvalidRange,
)


@dataclass(frozen=True, eq=False)
class CcdfCurve:
    """Empirical complementary cumulative curve, split into sign branches.

    The positive branch holds P(theta > x) on an ascending grid from 0 to
    the pooled maximum; the negative branch holds P(theta < x) on an
    ascending grid from the pooled minimum to 0. A branch is empty when
    no draws fall on that side of zero. Probabilities are exact draw
    fractions, so each is a multiple of ``1 / n_draws``.
    """

    positive_thresholds: np.ndarray
    positive_probabilities: np.ndarray
    negative_thresholds: np.ndarray
    negative_probabilities: np.ndarray
    n_draws: int

    @property
    def positive_branch(self) -> list[tuple[float, float]]:
        return list(zip(self.positive_thresholds.tolist(), self.positive_probabilities.tolist()))

    @property
    def negative_branch(self) -> list[tuple[float, float]]:
        return list(zip(self.negative_thresholds.tolist(), self.negative_probabilities.tolist()))


@dataclass(frozen=True)
class PosteriorSummary:
    """Mean, equal-tailed credible interval, and one-sided probabilities."""

    mean: float
    ci_low: float
    ci_high: float
    level: float
    p_greater_zero: float
    p_less_zero: float


@dataclass(frozen=True, eq=False)
class DensityEstimate:
    """Gaussian-kernel density on a uniform grid."""

    grid: np.ndarray
    density: np.ndarray
    bandwidth: float


def _pooled(v: ParameterView) -> np.ndarray:
    pooled = v.pooled
    if pooled.size == 0:
        raise EmptyDraws(v.name)
    return pooled


def _check_threshold(x: float) -> float:
    x = float(x)
    if not math.isfinite(x):
        raise InvalidArgument(f"threshold must be finite, got {x!r}")
    return x


def prob_exceeds(v: ParameterView, x: float) -> float:
    """Probability that the effect is strictly greater than ``x``.

    Returns the exact fraction of pooled draws above the threshold,
    ``(#draws > x) / n``. Strict inequality is the fixed convention;
    with continuous posteriors ties have measure zero, but exact tests
    rely on the choice being pinned down.
    """
    pooled = _pooled(v)
    x = _check_threshold(x)
    return int(np.count_nonzero(pooled > x)) / pooled.size


def prob_below(v: ParameterView, x: float) -> float:
    """Probability that the effect is strictly less than ``x``.

    Mirror of :func:`prob_exceeds`: ``(#draws < x) / n``.
    """
    pooled = _pooled(v)
    x = _check_threshold(x)
    return int(np.count_nonzero(pooled < x)) / pooled.size


def prob_between(v: ParameterView, a: float, b: float) -> float:
    """Probability that the effect lies in ``(a, b]``.

    Computed in one pass as the exact count of draws in the half-open
    interval over ``n``, which equals the difference of the two
    exceedance probabilities P(theta > a) - P(theta > b).

    Raises :class:`InvalidRange` unless ``a < b``.
    """
    pooled = _pooled(v)
    a = _check_threshold(a)
    b = _check_threshold(b)
    if not a < b:
        raise InvalidRange(f"need a < b, got a={a!r}, b={b!r}")
    return int(np.count_nonzero((a < pooled) & (pooled <= b))) / pooled.size


def ccdf(v: ParameterView, points_per_branch: int = 512) -> CcdfCurve:
    """Evaluate both complementary cumulative branches on uniform grids.

    The positive branch runs from 0 to the pooled maximum inclusive (empty
    when the maximum is not positive); the negative branch runs from the
    pooled minimum to 0 inclusive (empty when the minimum is not
    negative). Grids are uniform with ``points_per_branch`` points, which
    bounds the output size for plotting; the exact step function remains
    available through :func:`prob_exceeds` at any threshold.

    The pooled draws are sorted once and each grid point is counted by
    binary search, so the cost is O(N log N + P log N) for N draws and
    P grid points. The counts are the same strict-inequality counts
    :func:`prob_exceeds` and :func:`prob_below` make.
    """
    pooled = _pooled(v)
    points_per_branch = int(points_per_branch)
    if points_per_branch < 2:
        raise InvalidArgument(f"points_per_branch must be >= 2, got {points_per_branch}")

    ordered = np.sort(pooled)
    n = ordered.size
    lo = float(ordered[0])
    hi = float(ordered[-1])
    empty = np.empty(0)

    if hi > 0:
        pos_x = np.linspace(0.0, hi, points_per_branch)
        # Draws > x are those after the last draw <= x.
        pos_p = (n - np.searchsorted(ordered, pos_x, side="right")) / n
    else:
        pos_x, pos_p = empty, empty
    if lo < 0:
        neg_x = np.linspace(lo, 0.0, points_per_branch)
        # Draws < x are those before the first draw >= x.
        neg_p = np.searchsorted(ordered, neg_x, side="left") / n
    else:
        neg_x, neg_p = empty, empty

    return CcdfCurve(
        positive_thresholds=pos_x,
        positive_probabilities=pos_p,
        negative_thresholds=neg_x,
        negative_probabilities=neg_p,
        n_draws=int(pooled.size),
    )


def summarize(v: ParameterView, level: float = 0.95) -> PosteriorSummary:
    """Mean, equal-tailed credible interval, and one-sided probabilities.

    The interval bounds are the ``(1 - level) / 2`` and
    ``1 - (1 - level) / 2`` quantiles with linear interpolation between
    order statistics. One-sided probabilities are evaluated at zero.

    Raises :class:`InvalidLevel` unless ``0 < level < 1``.
    """
    pooled = _pooled(v)
    level = float(level)
    if not 0.0 < level < 1.0:
        raise InvalidLevel(f"level must be in (0, 1), got {level!r}")
    alpha = (1.0 - level) / 2.0
    ci_low, ci_high = np.quantile(pooled, [alpha, 1.0 - alpha])
    return PosteriorSummary(
        mean=float(pooled.mean()),
        ci_low=float(ci_low),
        ci_high=float(ci_high),
        level=level,
        p_greater_zero=prob_exceeds(v, 0.0),
        p_less_zero=prob_below(v, 0.0),
    )


def kde(v: ParameterView, grid_points: int = 512) -> DensityEstimate:
    """Gaussian-kernel density estimate with Silverman's rule bandwidth.

    Bandwidth is ``h = 0.9 * min(sd, IQR / 1.34) * n**(-1/5)`` (falling
    back to the standard deviation alone when the IQR is zero), evaluated
    on a uniform grid spanning ``[min - 3h, max + 3h]`` so the trapezoidal
    integral of the density stays within 1% of one.

    Raises :class:`DegenerateDraws` when the pooled draws have zero
    variance.
    """
    pooled = _pooled(v)
    grid_points = int(grid_points)
    if grid_points < 16:
        raise InvalidArgument(f"grid_points must be >= 16, got {grid_points}")
    sd = float(pooled.std(ddof=1)) if pooled.size > 1 else 0.0
    if sd == 0.0:
        raise DegenerateDraws(v.name)
    q25, q75 = np.quantile(pooled, [0.25, 0.75])
    iqr = float(q75 - q25)
    spread = min(sd, iqr / 1.34) if iqr > 0 else sd
    h = 0.9 * spread * pooled.size ** (-0.2)

    grid = np.linspace(float(pooled.min()) - 3.0 * h, float(pooled.max()) + 3.0 * h, grid_points)
    density = np.empty(grid_points)
    norm = 1.0 / (pooled.size * h * math.sqrt(2.0 * math.pi))
    # Chunked so the (grid, draws) kernel matrix never gets large.
    step = max(1, 2_000_000 // max(pooled.size, 1))
    for start in range(0, grid_points, step):
        z = (grid[start : start + step, None] - pooled[None, :]) / h
        density[start : start + step] = norm * np.exp(-0.5 * z * z).sum(axis=1)
    return DensityEstimate(grid=grid, density=density, bandwidth=h)
