from __future__ import annotations

import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from effectprob.draws import ParameterView
from effectprob.errors import (
    DegenerateDraws,
    InvalidArgument,
    InvalidDraws,
    InvalidLevel,
    InvalidRange,
)
from effectprob.summary import (
    ccdf,
    kde,
    prob_below,
    prob_between,
    prob_exceeds,
    summarize,
)

from conftest import make_view, run_without_simd_dispatch

# Independent oracles, kept deliberately dumb.


def normal_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def brute_count_above(values, x) -> int:
    return sum(1 for v in values if v > x)


def brute_count_below(values, x) -> int:
    return sum(1 for v in values if v < x)


def brute_counts(values: np.ndarray, grid: np.ndarray, side: str) -> np.ndarray:
    """Draws strictly above (or below) each grid point, one full scan per point."""
    beyond = values[None, :] > grid[:, None] if side == "above" else values[None, :] < grid[:, None]
    return beyond.sum(axis=1)


def brute_quantile(values, q: float) -> float:
    """Linear interpolation between order statistics, from first principles."""
    ordered = sorted(values)
    h = (len(ordered) - 1) * q
    lo = math.floor(h)
    if lo >= len(ordered) - 1:
        return ordered[-1]
    return ordered[lo] + (h - lo) * (ordered[lo + 1] - ordered[lo])


def direct_kde(values: np.ndarray, grid: np.ndarray, h: float) -> np.ndarray:
    """Gaussian kernel density by the direct O(G * N) sum over draws."""
    norm = 1.0 / (values.size * h * math.sqrt(2.0 * math.pi))
    density = np.empty(grid.size)
    step = max(1, 2_000_000 // values.size)
    for start in range(0, grid.size, step):
        z = (grid[start : start + step, None] - values[None, :]) / h
        density[start : start + step] = norm * np.exp(-0.5 * z * z).sum(axis=1)
    return density


def family_draws(family: str, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if family == "normal":
        return rng.normal(1.0, 2.0, size=n)
    if family == "bimodal":
        return np.where(rng.random(n) < 0.3, rng.normal(-3.0, 0.5, n), rng.normal(2.0, 1.0, n))
    if family == "heavy":
        return rng.standard_t(2, size=n)
    return rng.exponential(size=n)  # skewed


MAX = 1.7976931348623157e308

# Analytic values for Normal(1, 1), frozen from the erf-based oracle.
P_ABOVE_0 = 0.8413447460685429          # normal_cdf(1)
P_ABOVE_3 = 0.022750131948179195        # 1 - normal_cdf(2)
P_BETWEEN_1_3 = 0.4772498680518208      # normal_cdf(2) - normal_cdf(0)
Z_975 = 1.959963984540054


class TestProbabilities:
    def test_exceeds_direct_count(self):
        v = make_view([[1.0, 2.0, 3.0, 4.0]])
        assert prob_exceeds(v, 2.5) == 0.5

    def test_exceeds_all_positive_at_zero(self):
        v = make_view([[0.5, 1.5, 2.5]])
        assert prob_exceeds(v, 0.0) == 1.0

    def test_below_direct_count(self):
        v = make_view([[1.0, 2.0, 3.0, 4.0]])
        assert prob_below(v, 2.5) == 0.5

    def test_below_under_minimum_is_zero(self):
        v = make_view([[1.0, 2.0, 3.0, 4.0]])
        assert prob_below(v, 0.99) == 0.0

    def test_between_direct_count(self):
        v = make_view([[1.0, 2.0, 3.0, 4.0]])
        assert prob_between(v, 1.0, 3.0) == 0.5  # draws 2 and 3 qualify

    def test_between_empty_gap(self):
        v = make_view([[1.0, 10.0]])
        assert prob_between(v, 4.0, 4.001) == 0.0

    def test_between_rejects_bad_range(self):
        v = make_view([[1.0, 2.0]])
        with pytest.raises(InvalidRange):
            prob_between(v, 3.0, 3.0)
        with pytest.raises(InvalidRange):
            prob_between(v, 4.0, 3.0)

    @pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
    def test_non_finite_threshold_rejected(self, x):
        v = make_view([[1.0, 2.0]])
        with pytest.raises(InvalidArgument, match="threshold must be finite"):
            prob_exceeds(v, x)
        with pytest.raises(InvalidArgument, match="threshold must be finite"):
            prob_below(v, x)
        with pytest.raises(InvalidArgument, match="threshold must be finite"):
            prob_between(v, x, 3.0)
        with pytest.raises(InvalidArgument, match="threshold must be finite"):
            prob_between(v, 0.0, x)

    def test_empty_view_rejected(self):
        with pytest.raises(InvalidDraws):
            ParameterView(name="x", per_chain=np.empty((1, 0)))

    def test_seeded_normal_matches_analytic(self, normal_draws):
        assert prob_exceeds(normal_draws, 0.0) == pytest.approx(P_ABOVE_0, abs=0.011)
        assert prob_below(normal_draws, 0.0) == pytest.approx(1 - P_ABOVE_0, abs=0.011)
        assert prob_between(normal_draws, 1.0, 3.0) == pytest.approx(P_BETWEEN_1_3, abs=0.015)


class TestExactProperties:
    """Randomized checks against the brute-force counting oracle."""

    def test_counts_exact(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(1, 400))
            # Integer-heavy values make ties common.
            values = rng.integers(-5, 6, size=n).astype(float)
            v = make_view(values.reshape(1, -1)) if n > 1 else None
            if v is None:
                continue
            x = float(rng.choice(values)) if rng.random() < 0.5 else float(rng.normal())
            assert prob_exceeds(v, x) == brute_count_above(values, x) / n
            assert prob_below(v, x) == brute_count_below(values, x) / n
            a, b = sorted(rng.normal(size=2))
            if a < b:
                expected = (brute_count_above(values, a) - brute_count_above(values, b)) / n
                assert prob_between(v, a, b) == expected

    def test_complementarity(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            values = rng.integers(-3, 4, size=50).astype(float)
            v = make_view(values.reshape(1, -1))
            x = float(rng.choice(values))
            above = brute_count_above(values, x)
            below = brute_count_below(values, x)
            ties = sum(1 for u in values if u == x)
            assert above + below + ties == 50
            total = prob_exceeds(v, x) + prob_below(v, x) + ties / 50
            assert total == pytest.approx(1.0, abs=1e-15)

    def test_decomposition(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            values = rng.normal(size=80)
            v = make_view(values.reshape(1, -1))
            a, b = sorted(rng.normal(size=2).tolist())
            if a == b:
                continue
            ca = brute_count_above(values, a)
            cb = brute_count_above(values, b)
            assert prob_between(v, a, b) == (ca - cb) / 80
            assert prob_between(v, a, b) + prob_exceeds(v, b) == pytest.approx(
                prob_exceeds(v, a), abs=1e-15
            )

    def test_positive_affine_invariance_exact(self):
        rng = np.random.default_rng(10)
        values = rng.normal(size=300)
        v = make_view(values.reshape(1, -1))
        for scale in (0.5, 2.0, 3.25, 10.0):
            for shift in (-5.0, 0.0, 1.25, 100.0):
                transformed = make_view((scale * values + shift).reshape(1, -1))
                for x in (-1.0, 0.0, 0.37, float(values[17])):
                    assert prob_exceeds(transformed, scale * x + shift) == prob_exceeds(v, x)


class TestCcdf:
    def test_two_point_branches(self):
        v = make_view([[-1.0, 1.0]])
        curve = ccdf(v)
        assert np.array_equal(curve.positive_thresholds, np.linspace(0.0, 1.0, 512))
        assert curve.positive_probabilities.tolist() == [0.5] * 511 + [0.0]
        assert np.array_equal(curve.negative_thresholds, np.linspace(-1.0, 0.0, 512))
        assert curve.negative_probabilities.tolist() == [0.0] + [0.5] * 511

    @pytest.mark.parametrize("values", [[0.0, MAX], [-MAX, 0.0]])
    def test_branch_spanning_the_largest_double(self, values):
        # linspace's last step overflows here: numpy wrote the endpoint
        # itself, but warned, and under -W error the CLI exited 1.
        curve = ccdf(make_view([values]))
        thresholds = np.concatenate([curve.negative_thresholds, curve.positive_thresholds])
        assert thresholds.size == 512 and np.isfinite(thresholds).all()
        assert (thresholds[[0, -1]] == values).all()

    def test_all_positive_gives_empty_negative_branch(self):
        curve = ccdf(make_view([[1.0, 2.0, 3.0]]))
        assert curve.negative_thresholds.size == 0
        assert curve.positive_thresholds.size == 512

    def test_all_negative_gives_empty_positive_branch(self):
        curve = ccdf(make_view([[-1.0, -2.0]]))
        assert curve.positive_thresholds.size == 0

    def test_normal_curve_matches_analytic_ccdf(self, normal_draws):
        curve = ccdf(normal_draws)

        def at(x):
            idx = int(np.argmin(np.abs(curve.positive_thresholds - x)))
            return curve.positive_probabilities[idx]

        assert at(0.0) == pytest.approx(P_ABOVE_0, abs=0.011)
        assert at(1.0) == pytest.approx(0.5, abs=0.011)
        assert at(3.0) == pytest.approx(P_ABOVE_3, abs=0.011)

    def test_monotonicity_randomized(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            values = rng.normal(loc=rng.normal(), size=int(rng.integers(2, 200)))
            curve = ccdf(make_view(values.reshape(1, -1)))
            assert (np.diff(curve.positive_probabilities) <= 0).all()
            assert (np.diff(curve.negative_probabilities) >= 0).all()

    def test_points_equal_per_threshold_counts(self):
        # Reference: one strict-inequality scan of all draws per grid point.
        # Draws taken from the grids themselves, with ties and -0.0, make
        # the grids hit draw values and exercise both sides of every
        # binary search.
        rng = np.random.default_rng(12)
        for case in range(200):
            n = int(rng.integers(2, 300))
            if case % 2:
                lo, hi = -float(rng.integers(1, 5)), float(rng.integers(1, 5))
                grids = np.concatenate([np.linspace(lo, 0.0, 512), np.linspace(0.0, hi, 512)])
                values = np.append(rng.choice(grids, size=n - 2), [lo, hi])
                values[values == 0] = -0.0
            else:
                values = rng.standard_t(2, size=n)
            v = make_view(values.reshape(1, -1))
            curve = ccdf(v)
            pos_x, neg_x = curve.positive_thresholds, curve.negative_thresholds
            assert (curve.positive_probabilities == brute_counts(values, pos_x, "above") / n).all()
            assert (curve.negative_probabilities == brute_counts(values, neg_x, "below") / n).all()
            assert curve.positive_probabilities.tolist() == [prob_exceeds(v, x) for x in pos_x]
            assert curve.negative_probabilities.tolist() == [prob_below(v, x) for x in neg_x]

    def test_probabilities_are_draw_fractions(self):
        v = make_view([[-2.0, -1.0, 0.5, 1.5, 2.5]])
        curve = ccdf(v)
        n = v.pooled.size
        for p in np.concatenate([curve.positive_probabilities, curve.negative_probabilities]):
            assert (p * n) == pytest.approx(round(p * n), abs=1e-12)

    def test_draws_tied_to_grid_points(self):
        # Every grid point on both branches is a draw, many of them repeated,
        # so each binary search meets ties: a count that took <= for > or
        # >= for < on either branch differs here.
        pos_grid, neg_grid = np.linspace(0.0, 4.0, 512), np.linspace(-4.0, 0.0, 512)
        values = np.concatenate([neg_grid, neg_grid[::2], pos_grid, pos_grid[::3]])
        curve = ccdf(make_view(values.reshape(1, -1)))
        assert np.array_equal(curve.positive_thresholds, pos_grid)
        assert np.array_equal(curve.negative_thresholds, neg_grid)
        n = values.size
        for x, p in zip(curve.positive_thresholds, curve.positive_probabilities):
            assert p == brute_count_above(values, x) / n
        for x, p in zip(curve.negative_thresholds, curve.negative_probabilities):
            assert p == brute_count_below(values, x) / n

    def test_branch_values_at_zero(self):
        # Sum of the two branch probabilities at x=0 is 1 minus the share
        # of draws exactly at zero.
        values = np.array([-2.0, -1.0, 0.0, 1.0])
        curve = ccdf(make_view(values.reshape(1, -1)))
        p_pos = curve.positive_probabilities[0]       # threshold 0 opens the branch
        p_neg = curve.negative_probabilities[-1]      # threshold 0 closes the branch
        assert p_pos == 0.25
        assert p_neg == 0.5
        assert p_pos + p_neg == 0.75  # one draw sits exactly at zero

        no_ties = ccdf(make_view([[-1.0, -0.5, 2.0]]))
        assert no_ties.positive_probabilities[0] + no_ties.negative_probabilities[-1] == 1.0


class TestSummarize:
    def test_seeded_normal_table(self, normal_draws):
        s = summarize(normal_draws, 0.95)
        assert s.mean == pytest.approx(1.0, abs=0.04)
        assert s.ci_low == pytest.approx(-Z_975 + 1.0, abs=0.08)
        assert s.ci_high == pytest.approx(Z_975 + 1.0, abs=0.08)
        assert s.p_greater_zero == pytest.approx(P_ABOVE_0, abs=0.011)
        assert s.p_less_zero == pytest.approx(1.0 - P_ABOVE_0, abs=0.011)
        assert s.p_greater_zero + s.p_less_zero <= 1.0

    def test_constant_draws_degenerate_interval(self):
        s = summarize(make_view([[4.0, 4.0, 4.0]]), 0.95)
        assert s.mean == 4.0
        assert (s.ci_low, s.ci_high) == (4.0, 4.0)
        assert s.p_greater_zero in (0.0, 1.0)

    def test_interpolated_quantiles_match_brute_force(self):
        values = np.arange(1.0, 101.0)
        s = summarize(make_view(values.reshape(1, -1)), 0.90)
        assert s.ci_low == pytest.approx(brute_quantile(values, 0.05), abs=1e-12)
        assert s.ci_high == pytest.approx(brute_quantile(values, 0.95), abs=1e-12)
        # Frozen values from the order-statistic rule: h = 99 * q.
        assert s.ci_low == pytest.approx(5.95, abs=1e-9)
        assert s.ci_high == pytest.approx(95.05, abs=1e-9)

    def test_quantile_sandwich(self, normal_draws):
        s = summarize(normal_draws, 0.90)
        for q in np.linspace(0.06, 0.94, 23):
            inner = float(np.quantile(normal_draws.pooled, q))
            assert s.ci_low <= inner <= s.ci_high

    def test_invalid_level(self):
        v = make_view([[1.0, 2.0]])
        for level in (0.0, 1.0, 1.5, -0.2):
            with pytest.raises(InvalidLevel):
                summarize(v, level)

    @settings(max_examples=200, deadline=None)
    @given(
        family=st.sampled_from(["normal", "bimodal", "heavy", "skewed"]),
        n=st.integers(2, 300),
        seed=st.integers(0, 2**32 - 1),
        power=st.integers(-900, 900),
        level=st.floats(0.01, 0.99),
    )
    def test_scaling_changes_no_bit(self, family, n, seed, power, level):
        # In the normal range, the mean and bounds are those of the draws
        # themselves, bit for bit, and scale exactly with them by 2^power.
        values = np.ldexp(family_draws(family, n, seed), power)
        s = summarize(make_view(values.reshape(1, -1)), level)
        alpha = (1.0 - level) / 2.0
        assert s.mean == float(values.mean())
        assert (s.ci_low, s.ci_high) == tuple(np.quantile(values, [alpha, 1.0 - alpha]))
        unscaled = summarize(make_view(np.ldexp(values, -power).reshape(1, -1)), level)
        assert (s.mean, s.ci_low, s.ci_high) == tuple(
            np.ldexp([unscaled.mean, unscaled.ci_low, unscaled.ci_high], power)
        )

    @pytest.mark.parametrize(
        "draws, level, expected",
        [
            # The span overflowed the interpolation: ci_low=inf, ci_high=-inf.
            ([-1.7e308, 1.7e308], 0.5, (0.0, -8.5e307, 8.5e307)),
            # The sum overflowed: mean=inf.
            ([1.7e308, 1.6e308, 1.5e308, 1.7e308], 0.95, (1.625e308, 1.5075e308, 1.7e308)),
        ],
    )
    def test_draws_near_the_largest_double(self, draws, level, expected):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = summarize(make_view([draws]), level)
        assert (s.mean, s.ci_low, s.ci_high) == pytest.approx(expected, rel=1e-15)
        assert s.ci_low <= s.ci_high

    @pytest.mark.parametrize(
        "chains, level, expected",
        [
            # Scaling by 2^-1024 rounded the subnormal draws to 0: [0.0, 0.0].
            ([[5e-324] * 40 + [1e308]], 0.95, (5e-324, 5e-324)),
            # Scaled, 1e-300 to 4e-300 all rounded to 0: [0.0, 0.0], below every draw.
            (
                [[1e-300, 2e-300, 1e-300, 2e-300], [1e300, 3e-300, 4e-300, 3e-300]],
                0.5,
                (1.75e-300, 3.25e-300),
            ),
        ],
    )
    def test_interval_of_draws_far_below_the_largest(self, chains, level, expected):
        s = summarize(make_view(chains), level)
        assert (s.ci_low, s.ci_high) == pytest.approx(expected, rel=1e-15)
        pooled = np.ravel(chains)
        alpha = (1.0 - level) / 2.0
        assert (s.ci_low, s.ci_high) == tuple(np.quantile(pooled, [alpha, 1.0 - alpha]))

    @settings(max_examples=300, deadline=None)
    @given(
        values=arrays(
            np.float64,
            st.tuples(st.integers(1, 4), st.integers(2, 120)),
            elements=st.floats(allow_nan=False, allow_infinity=False),
        )
    )
    @example(values=np.full((4, 100), 0.3))
    @example(values=np.full((4, 100), 3002399751580331.0))
    def test_mean_lies_within_the_draws(self, values):
        # numpy's pairwise sum rounds: 400 draws of 0.3 once gave a mean
        # of 0.29999999999999993, below every draw.
        s = summarize(make_view(values))
        assert values.min() <= s.mean <= values.max()

    @settings(max_examples=200, deadline=None)
    @given(
        value=st.floats(allow_nan=False, allow_infinity=False),
        chains=st.integers(1, 4),
        iterations=st.integers(2, 200),
    )
    @example(value=0.3, chains=4, iterations=100)
    @example(value=0.1, chains=4, iterations=100)
    @example(value=3002399751580331.0, chains=4, iterations=100)
    def test_constant_draws_have_their_value_as_mean(self, value, chains, iterations):
        assert summarize(make_view(np.full((chains, iterations), value))).mean == value


class TestKde:
    def test_peak_near_normal_mode(self, normal_draws):
        est = kde(normal_draws)
        peak = est.grid[int(np.argmax(est.density))]
        assert peak == pytest.approx(1.0, abs=0.1)

    def test_integral_close_to_one(self, normal_draws):
        est = kde(normal_draws)
        integral = float(np.trapezoid(est.density, est.grid))
        assert 0.99 <= integral <= 1.01

    def test_symmetric_draws_give_symmetric_density(self):
        rng = np.random.default_rng(3)
        half = rng.normal(size=2000)
        values = np.concatenate([half, -half])  # exactly symmetric about 0
        est = kde(make_view(values.reshape(1, -1)))
        assert np.allclose(est.density, est.density[::-1], atol=1e-6)

    def test_zero_variance_rejected(self):
        with pytest.raises(DegenerateDraws):
            kde(make_view([[2.0, 2.0, 2.0]]))

    @pytest.mark.parametrize("value", [0.3, 0.1, 3002399751580331.0, 1e-300])
    def test_constant_draws_rejected(self, value):
        # The rounding of numpy's mean can leave their sd nonzero: 0.3 once
        # gave bandwidth 1.5e-17 and a density peaking at 2.6e16.
        with pytest.raises(DegenerateDraws):
            kde(make_view(np.full((4, 100), value)))

    def test_normalisation_that_overflows_rejected(self):
        # The bandwidth, 6.7e306, is normal and the grid finite, but
        # n h sqrt(2 pi) overflows: the density was 0 everywhere.
        with pytest.raises(DegenerateDraws, match="normalisation"):
            kde(make_view([[0.0] * 40 + [1e308]]))
        # With 1e300 in place of 1e308 it fits, and integrates to 1.
        est = kde(make_view([[0.0] * 40 + [1e300]]))
        assert 0.99 <= float(np.trapezoid(est.density, est.grid)) <= 1.01

    def test_bandwidth_is_silverman(self, normal_draws):
        pooled = normal_draws.pooled
        sd = pooled.std(ddof=1)
        iqr = np.quantile(pooled, 0.75) - np.quantile(pooled, 0.25)
        expected = 0.9 * min(sd, iqr / 1.34) * pooled.size ** (-0.2)
        assert kde(normal_draws).bandwidth == pytest.approx(expected, rel=1e-12)

    @staticmethod
    def density_hashes() -> list[str]:
        """The SHA-256 of kde's densities over ten draw sets of 4 x 2,500:
        normal draws at random locations and scales, and on odd seeds one
        far draw that spaces the output points over 16h apart."""
        hashes = []
        for seed in range(10):
            rng = np.random.default_rng(seed)
            loc, scale = rng.uniform(-1e3, 1e3), 10.0 ** rng.uniform(-3.0, 3.0)
            values = rng.normal(loc, scale, size=(4, 2_500))
            if seed % 2:
                values[0, 0] += 200.0 * np.ptp(values)
            hashes.append(hashlib.sha256(kde(make_view(values)).density.tobytes()).hexdigest())
        return hashes

    def test_density_does_not_depend_on_simd_dispatch(self):
        # numpy's exp rounds differently with the CPU features it
        # dispatches to, so kde forms every kernel value with math.exp. A
        # process with numpy's SIMD dispatch off must give the same bits.
        code = "from test_summary import TestKde\nprint(*TestKde.density_hashes())\n"
        assert run_without_simd_dispatch(code).split() == self.density_hashes()


class TestBinnedKde:
    """The binned windowed estimate against the direct Gaussian sum."""

    @settings(max_examples=40, deadline=None)
    @given(
        family=st.sampled_from(["normal", "bimodal", "heavy", "skewed"]),
        n=st.integers(2, 3_000),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_direct_sum(self, family, n, seed):
        # Deviations are bounded by 2e-3 of the estimate's peak, which is
        # found at the draws: the grid over a heavy-tailed range can miss
        # every bump, and its own maximum then scales nothing.
        values = family_draws(family, n, seed)
        est = kde(make_view(values.reshape(1, -1)))
        h = est.bandwidth
        expected_grid = np.linspace(values.min() - 3.0 * h, values.max() + 3.0 * h, 512)
        assert np.array_equal(est.grid, expected_grid)
        direct = direct_kde(values, est.grid, h)
        peak = max(direct.max(), direct_kde(values, values, h).max())
        assert np.max(np.abs(est.density - direct)) <= 2e-3 * peak

    def test_points_out_of_reach_are_exactly_zero(self):
        # Two clusters 100 apart leave 435 of the 512 points more than 9h
        # from every draw, beyond the kernel's 8h cut plus a bin. Through
        # an FFT, 212 of them read up to 2.5e-17 instead of 0.
        rng = np.random.default_rng(3)
        values = np.concatenate([rng.normal(size=1_000), rng.normal(100.0, 1.0, size=10)])
        est = kde(make_view(values.reshape(1, -1)))
        distance = np.min(np.abs(est.grid[:, None] - values[None, :]), axis=1)
        far = distance > 9.0 * est.bandwidth
        assert far.sum() == 435
        assert (est.density[far] == 0.0).all()
        assert (est.density >= 0.0).all()

        # One draw that spaces the points 40h apart sends every draw to its
        # nearest point. Point 1 is nearest to draws 8h to 20h away, and
        # read 1.2e-20 while the far path cut the kernel at 38.7h, not 8h.
        values = np.append(rng.normal(size=1_000), 100.0)
        h = kde(make_view(values.reshape(1, -1))).bandwidth
        values[-1] = values.min() - 6.0 * h + 40.0 * h * 511
        est = kde(make_view(values.reshape(1, -1)))
        assert est.bandwidth == h
        distance = np.min(np.abs(est.grid[:, None] - values[None, :]), axis=1)
        far = distance > 8.0 * h
        assert np.flatnonzero(far & (distance < 38.7 * h)).tolist() == [1, 510]
        assert (est.density[far] == 0.0).all()
        assert (est.density >= 0.0).all()

    def test_far_apart_points_take_no_bins(self, monkeypatch):
        # One draw 2e4 from 100,000 N(0, 1) draws would need 1.8M bins at
        # h / 8 each; with output points over 16h apart the estimate is the
        # direct sum to each draw's nearest point, with no bins. A draw at
        # 1e6 would leave bins 42 bandwidths wide if their number were
        # capped at 2**18: that binned estimate was 0.117 at grid[0], where
        # the direct sum is 4.9e-7, and it integrated to 114.5. Points
        # 16.1h and 20h apart, binned into 2**18 bins, were 1.5e-5 and
        # 6.9e-6 of the peak off the direct sum. The far draw moves neither
        # quartile, so neither the bandwidth.
        rng = np.random.default_rng(4)
        values = np.append(rng.normal(size=100_000), 2e4)
        h = kde(make_view(values.reshape(1, -1))).bandwidth
        sizes = []
        windows = np.lib.stride_tricks.sliding_window_view

        def spy(x, window_shape, *args, **kwargs):
            sizes.append(np.shape(x)[-1])
            return windows(x, window_shape, *args, **kwargs)

        monkeypatch.setattr(np.lib.stride_tricks, "sliding_window_view", spy)
        spaced = [values.min() - 6.0 * h + rho * h * 511 for rho in (16.1, 20.0)]
        for far in (2e4, 1e6, *spaced):
            values[-1] = far
            est = kde(make_view(values.reshape(1, -1)))
            assert not sizes
            assert est.bandwidth == h
            direct = direct_kde(values, est.grid, est.bandwidth)
            assert np.max(np.abs(est.density - direct)) <= 1e-12 * direct.max()

    @pytest.mark.parametrize("grid_points", [512])
    @pytest.mark.parametrize("reach", [0, 1, 2, 3, 4, 8])
    def test_far_draw_at_each_reach_matches_direct_sum(self, reach, grid_points):
        # 1,000 N(0, 1) draws and one far draw, placed so that 2**18 bins
        # would leave the kernel, cut at +-8h, `reach` bins either side of
        # its centre. The far draw moves neither quartile, so neither the
        # bandwidth. Were the bins capped at 2**18, the estimate would
        # stray 3.2e-3 of the peak from the direct sum at reach 1 and up to
        # 0.16 at reach 0; these points are over 16h apart, so kde sums
        # directly, and refuses none of them.
        rng = np.random.default_rng(5)
        values = np.append(rng.normal(size=1_000), 100.0)
        h = kde(make_view(values.reshape(1, -1))).bandwidth
        bins = (2**18 - 1) // (grid_points - 1) * (grid_points - 1) + 1
        values[-1] = values.min() - 6.0 * h + 8.0 * h * (bins - 1) / (reach + 0.5)
        v = make_view(values.reshape(1, -1))
        est = kde(v)
        assert est.bandwidth == h
        direct = direct_kde(values, est.grid, h)
        peak = max(direct.max(), direct_kde(values, values, h).max())
        assert np.max(np.abs(est.density - direct)) <= 2e-3 * peak

    def test_unrepresentable_grid_rejected(self):
        with pytest.raises(DegenerateDraws):
            kde(make_view([[-1.7e308, 1.7e308, 0.0, 1.0]]))

    def test_grid_spanning_the_largest_double(self):
        # Two draws near +-MAX / 2 beside eight with a small spread: the
        # grid spans the largest double to within rounding, and linspace's
        # last step overflowed and warned.
        a, spread = 8.973773400972836e307, MAX / 2000
        values = np.concatenate([[-a], np.linspace(-1.0, 1.0, 8) * spread, [a]])
        est = kde(make_view([values]))
        assert np.isfinite(est.grid).all() and est.grid[0] == -est.grid[-1]
        assert np.isfinite(est.density).all()

    def test_tiny_distinct_draws(self):
        # Their deviations square to 0, so an sd taken in their own units
        # underflows to 0 although the draws differ.
        est = kde(make_view([[1e-300, 2e-300, 3e-300, 5e-324]]))
        assert np.isfinite(est.density).all()
        assert (est.density >= 0.0).all()
        assert 0.99 <= float(np.trapezoid(est.density, est.grid)) <= 1.01

    @settings(max_examples=40, deadline=None)
    @given(
        family=st.sampled_from(["normal", "bimodal", "heavy", "skewed"]),
        n=st.integers(2, 500),
        seed=st.integers(0, 2**32 - 1),
        power=st.integers(-400, 400),
    )
    def test_scaling_changes_no_bit(self, family, n, seed, power):
        # Silverman's bandwidth and the grid equal their formulas in the
        # draws' own units bit for bit, and the densities of draws scaled
        # by 2^power are the unscaled densities divided by 2^power.
        values = np.ldexp(family_draws(family, n, seed), power)
        est = kde(make_view(values.reshape(1, -1)))
        sd = values.std(ddof=1)
        q25, q75 = np.quantile(values, [0.25, 0.75])
        spread = min(sd, (q75 - q25) / 1.34) if q75 > q25 else sd
        h = 0.9 * spread * n ** (-0.2)
        assert est.bandwidth == h
        assert np.array_equal(est.grid, np.linspace(values.min() - 3.0 * h, values.max() + 3.0 * h, 512))
        unscaled = kde(make_view(np.ldexp(values, -power).reshape(1, -1)))
        assert np.array_equal(est.density, np.ldexp(unscaled.density, -power))
