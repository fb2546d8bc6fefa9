"""Posterior summaries built on pooled draws.

The central quantities are exceedance probabilities: the share of draws
strictly beyond a threshold. Evaluating them over a grid of thresholds
gives the two branches of a complementary cumulative curve, one for
positive effect sizes and one for negative. Conventional summaries (mean,
equal-tailed credible interval, one-sided probabilities at zero) and a
Gaussian kernel density estimate are provided for comparison plots.

Every function takes a :class:`~effectprob.draws.ParameterView`, which
holds at least two finite draws, and checks only its other arguments.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .draws import ParameterView, _unit_scaled
from .errors import DegenerateDraws, InvalidArgument, InvalidLevel, InvalidRange

# The figures' resolution: points per CCDF branch and on the KDE's grid.
# The exact probability at any threshold is prob_exceeds / prob_below.
_GRID_POINTS = 512

# KDE: bins at most h / _KDE_BINS_PER_BANDWIDTH wide, and on both paths
# the kernel cut at +-_KDE_TRUNCATE bandwidths (exp(-32) ~ 1e-14 of the
# peak). Output points over 2 * _KDE_TRUNCATE bandwidths apart are summed
# directly, so there are at most 128 * (G - 1) + 1 bins.
_KDE_BINS_PER_BANDWIDTH = 8
_KDE_TRUNCATE = 8.0


@dataclass(frozen=True, eq=False)
class CcdfCurve:
    """Empirical complementary cumulative curve, split into sign branches.

    The positive branch holds P(theta > x) on an ascending grid from 0 to
    the pooled maximum; the negative branch holds P(theta < x) on an
    ascending grid from the pooled minimum to 0. A branch is empty when
    no draws fall on that side of zero. Probabilities are exact draw
    fractions, so each is a multiple of one over the number of draws.
    """

    positive_thresholds: np.ndarray
    positive_probabilities: np.ndarray
    negative_thresholds: np.ndarray
    negative_probabilities: np.ndarray


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
    x = _check_threshold(x)
    return int(np.count_nonzero(v.pooled > x)) / v.pooled.size


def prob_below(v: ParameterView, x: float) -> float:
    """Probability that the effect is strictly less than ``x``.

    Mirror of :func:`prob_exceeds`: ``(#draws < x) / n``.
    """
    x = _check_threshold(x)
    return int(np.count_nonzero(v.pooled < x)) / v.pooled.size


def prob_between(v: ParameterView, a: float, b: float) -> float:
    """Probability that the effect lies in ``(a, b]``.

    Computed in one pass as the exact count of draws in the half-open
    interval over ``n``, which equals the difference of the two
    exceedance probabilities P(theta > a) - P(theta > b).

    Raises :class:`InvalidRange` unless ``a < b``.
    """
    pooled = v.pooled
    a = _check_threshold(a)
    b = _check_threshold(b)
    if not a < b:
        raise InvalidRange(f"need a < b, got a={a!r}, b={b!r}")
    return int(np.count_nonzero((a < pooled) & (pooled <= b))) / pooled.size


def ccdf(v: ParameterView) -> CcdfCurve:
    """Evaluate both complementary cumulative branches on uniform grids.

    The positive branch runs from 0 to the pooled maximum inclusive (empty
    when the maximum is not positive); the negative branch runs from the
    pooled minimum to 0 inclusive (empty when the minimum is not
    negative). Each grid has the figures' ``_GRID_POINTS`` points; the
    exact step function remains available through :func:`prob_exceeds`
    at any threshold.

    The pooled draws are sorted once and each grid point is counted by
    binary search, so the cost is O(N log N + P log N) for N draws and
    P grid points. The counts are the same strict-inequality counts
    :func:`prob_exceeds` and :func:`prob_below` make.
    """
    ordered = np.sort(v.pooled)
    n = ordered.size
    lo = float(ordered[0])
    hi = float(ordered[-1])
    empty = np.empty(0)

    # Over a span near the largest double, linspace's step * (P - 1) can
    # overflow. numpy then writes the endpoint itself, so every point is
    # right, but it warns.
    with np.errstate(over="ignore"):
        pos_x = np.linspace(0.0, hi, _GRID_POINTS) if hi > 0 else empty
        neg_x = np.linspace(lo, 0.0, _GRID_POINTS) if lo < 0 else empty
    # Draws > x are those after the last draw <= x, and draws < x those
    # before the first draw >= x.
    pos_p = (n - np.searchsorted(ordered, pos_x, side="right")) / n
    neg_p = np.searchsorted(ordered, neg_x, side="left") / n

    return CcdfCurve(
        positive_thresholds=pos_x,
        positive_probabilities=pos_p,
        negative_thresholds=neg_x,
        negative_probabilities=neg_p,
    )


def _check_level(level: float) -> float:
    """``level`` as a float; raises :class:`InvalidLevel` unless ``0 < level < 1``."""
    level = float(level)
    if not 0.0 < level < 1.0:
        raise InvalidLevel(f"level must be in (0, 1), got {level!r}")
    return level


def summarize(v: ParameterView, level: float = 0.95) -> PosteriorSummary:
    """Mean, equal-tailed credible interval, and one-sided probabilities.

    The interval bounds are the ``(1 - level) / 2`` and
    ``1 - (1 - level) / 2`` quantiles with linear interpolation between
    order statistics, ``np.quantile`` of the draws themselves. Where two
    order statistics are so far apart that their interpolation overflows,
    that bound, and the mean always, come from draws scaled to |x| <= 1 by
    a power of two, then scaled back, so they are finite and ordered for
    any draws. The scaled draws are not used for a finite bound: scaling
    rounds draws far below the largest one to 0. The mean is clipped to
    the range of the draws. One-sided probabilities are evaluated at zero.

    Raises :class:`InvalidLevel` unless ``0 < level < 1``.
    """
    level = _check_level(level)
    probabilities = [(1.0 - level) / 2.0, 1.0 - (1.0 - level) / 2.0]
    with np.errstate(over="ignore", invalid="ignore"):
        bounds = np.quantile(v.pooled, probabilities)
    scaled, exponent = _unit_scaled(v.pooled)
    # numpy's pairwise sum can leave the mean of constant draws outside them.
    mean = float(np.ldexp(np.clip(scaled.mean(), scaled.min(), scaled.max()), exponent))
    finite = np.isfinite(bounds)
    if not finite.all():
        bounds = np.where(finite, bounds, np.ldexp(np.quantile(scaled, probabilities), exponent))
    ci_low, ci_high = bounds.tolist()
    return PosteriorSummary(
        mean=mean,
        ci_low=ci_low,
        ci_high=ci_high,
        level=level,
        p_greater_zero=prob_exceeds(v, 0.0),
        p_less_zero=prob_below(v, 0.0),
    )


def kde(v: ParameterView) -> DensityEstimate:
    """Gaussian-kernel density estimate with Silverman's rule bandwidth.

    Bandwidth is ``h = 0.9 * min(sd, IQR / 1.34) * n**(-1/5)`` (falling
    back to the standard deviation alone when the IQR is zero), evaluated
    on the figures' uniform grid of G = ``_GRID_POINTS`` points spanning
    ``[min - 3h, max + 3h]``. The trapezoidal integral of the density
    stays within 1% of one while the grid spacing is at most about 3h;
    past that, the direct sum's integral strays too.

    The estimate is binned, not a direct sum over draws (Silverman 1982,
    AS 176; Wand 1994). The output grid is refined r-fold into
    M = r * (G - 1) + 1 bins, with r the smallest factor that makes the
    bins at most h / 8 wide, so every r-th bin is an output point. Each
    draw splits its weight linearly between its two nearest bins, and each
    output point sums the R bins within the kernel's cut at +-8h, weighted
    by the Gaussian. The cost is O(N + M + G * R) for N draws, against
    O(G * N) for the direct sum, and the result is within about 2e-3 of
    the peak density of the direct sum. Every density is a sum of
    non-negative terms, and a point more than 8h plus one bin from every
    draw reads exactly 0. Every kernel value comes from ``math.exp``, so
    the density has the same bits whatever CPU features numpy uses.

    When the output points are more than 16h apart, every point but a
    draw's nearest is beyond the kernel's cut, and the estimate is the
    direct sum over the draws within the cut, each added to its nearest
    point in O(N); here too a point over 8h from every draw reads
    exactly 0. A far outlier can make the range millions of bandwidths
    wide, which no number of h / 8 bins could cover; coarser bins would
    put a draw's whole weight on a point 3h or more away. So the binned
    path never has more than 128 * (G - 1) + 1 bins.

    Raises :class:`DegenerateDraws` when the pooled draws are all one
    value, or a spread so small or so large that the bandwidth, the
    grid or the kernel's normalisation does not fit in a double. Draws
    that differ only far below 1, such as 1e-300 and 2e-300, are
    estimated like any others: the bandwidth comes from draws scaled by a
    power of two, so their squared deviations do not underflow.
    """
    # The bandwidth and the binning are scale-equivariant, so they are
    # computed on the scaled draws, whose squared deviations neither
    # underflow nor overflow. For draws whose bandwidth and grid are
    # normal doubles, that changes no bit of the result.
    scaled, exponent = _unit_scaled(v.pooled)
    if (scaled == scaled[0]).all():
        raise DegenerateDraws(
            f"{v.name}: every draw is {float(v.pooled[0])!r}; a density needs draws that differ"
        )
    sd = float(scaled.std(ddof=1))
    q25, q75 = np.quantile(scaled, [0.25, 0.75])
    iqr = float(q75 - q25)
    spread = min(sd, iqr / 1.34) if iqr > 0 else sd
    h = 0.9 * spread * scaled.size ** (-0.2)
    lo = float(scaled.min()) - 3.0 * h
    hi = float(scaled.max()) + 3.0 * h
    with np.errstate(over="ignore"):
        bandwidth, grid_lo, grid_hi = np.ldexp([h, lo, hi], exponent).tolist()
    # A normal bandwidth keeps the normalisation 1 / (n h sqrt(2 pi)), and
    # so every density, finite; a bandwidth near the largest double can
    # round it to 0 or to a subnormal.
    norm = 0.0
    if bandwidth >= sys.float_info.min:
        norm = 1.0 / (scaled.size * bandwidth * math.sqrt(2.0 * math.pi))
    if not (norm >= sys.float_info.min and math.isfinite(grid_hi - grid_lo)):
        raise DegenerateDraws(
            f"{v.name}: bandwidth {bandwidth!r} over [{grid_lo!r}, {grid_hi!r}] leaves no"
            " finite density grid or normalisation"
        )
    with np.errstate(over="ignore"):  # as in ccdf
        grid = np.linspace(grid_lo, grid_hi, _GRID_POINTS)

    spacing = (hi - lo) / (_GRID_POINTS - 1)
    if spacing > 2.0 * _KDE_TRUNCATE * h:
        # Every point but its nearest is beyond a draw's 8h cut, and so is
        # the nearest for the draws left out (z may overflow to inf).
        nearest = np.clip(np.rint((scaled - lo) / spacing), 0, _GRID_POINTS - 1).astype(np.int64)
        with np.errstate(over="ignore"):
            z = (np.linspace(lo, hi, _GRID_POINTS)[nearest] - scaled) / h
        near = np.abs(z) <= _KDE_TRUNCATE
        density = norm * np.bincount(nearest[near], _gaussian(z[near]), _GRID_POINTS)
        return DensityEstimate(grid=grid, density=density, bandwidth=bandwidth)
    refine = math.ceil(_KDE_BINS_PER_BANDWIDTH * spacing / h)
    bins = refine * (_GRID_POINTS - 1) + 1
    width = (hi - lo) / (bins - 1)
    # Bins within the kernel's cut, either side of its centre.
    reach = int(_KDE_TRUNCATE * h / width)

    position = (scaled - lo) / width
    left = np.minimum(position.astype(np.int64), bins - 2)
    right_share = position - left
    weights = np.bincount(left, 1.0 - right_share, bins) + np.bincount(
        left + 1, right_share, bins
    )

    # Row i of the windows is the 2 * reach + 1 bins centred on output
    # point i. einsum, unlike BLAS, sums the same way on any thread count.
    kernel = _gaussian(np.arange(-reach, reach + 1) * (width / h))
    windows = np.lib.stride_tricks.sliding_window_view(np.pad(weights, reach), 2 * reach + 1)
    density = norm * np.einsum("ij,j->i", windows[::refine], kernel)
    return DensityEstimate(grid=grid, density=density, bandwidth=bandwidth)


def _gaussian(z: np.ndarray) -> np.ndarray:
    """``exp(-z * z / 2)`` by ``math.exp``, which, unlike numpy's exp,
    rounds the same way whatever CPU features numpy dispatches to."""
    return np.fromiter(map(math.exp, (-0.5 * z * z).tolist()), float, len(z))
