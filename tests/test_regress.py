from __future__ import annotations

import dataclasses
import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from effectprob.diagnostics import ess, split_rhat
from effectprob.draws import Draws, view
from effectprob.errors import (
    DegenerateDesign,
    InvalidArgument,
    NonBinaryTreatment,
    NonFiniteData,
)
from effectprob.regress import (
    Dataset,
    ModelSpec,
    PriorSpec,
    _mh_sigma,
    _slice_log_sigma,
    _slice_width,
    _uniforms,
    fit,
    simulate_experiment,
)
from effectprob.summary import prob_below

from conftest import make_view, peak_bytes
from posterior_oracle import exact_posterior, standard_errors_off

# Every prior sd and rate must lie within this factor of 1; sds may be larger.
MAX_SCALE = 1e140


def brute_log_posterior(data, priors, beta0, beta1, sigma):
    """Joint log density of data and parameters, constants included, by a plain loop."""
    total = 0.0
    for y, d in zip(data.outcome, data.treatment):
        mu = beta0 + beta1 * d
        total += -0.5 * math.log(2 * math.pi) - math.log(sigma) - (y - mu) ** 2 / (2 * sigma**2)
    for value, mean, sd in (
        (beta0, priors.beta0_mean, priors.beta0_sd),
        (beta1, priors.beta1_mean, priors.beta1_sd),
    ):
        total += -0.5 * math.log(2 * math.pi) - math.log(sd) - (value - mean) ** 2 / (2 * sd**2)
    total += math.log(priors.sigma_rate) - priors.sigma_rate * sigma
    return total


@pytest.fixture(scope="module")
def small_data() -> Dataset:
    rng = np.random.default_rng(2024)
    d = np.zeros(60, dtype=int)
    d[:30] = 1
    d = rng.permutation(d)
    y = 1.0 + 2.0 * d + rng.normal(0.0, 1.5, size=60)
    return Dataset(outcome=y, treatment=d)


class TestDataset:
    def test_rejects_nonbinary_treatment(self):
        with pytest.raises(NonBinaryTreatment):
            Dataset(outcome=[1.0, 2.0, 3.0], treatment=[0, 1, 2])

    def test_rejects_nonfinite_outcome(self):
        with pytest.raises(NonFiniteData):
            Dataset(outcome=[1.0, np.nan, 3.0], treatment=[0, 1, 0])

    def test_rejects_short_data(self):
        with pytest.raises(InvalidArgument):
            Dataset(outcome=[1.0, 2.0], treatment=[0, 1])

    def test_rejects_length_mismatch(self):
        with pytest.raises(InvalidArgument):
            Dataset(outcome=[1.0, 2.0, 3.0], treatment=[0, 1])


class TestSpecs:
    def test_prior_spec_rejects_nonpositive_scales(self):
        for kwargs in ({"beta0_sd": 0.0}, {"beta1_sd": -1.0}, {"sigma_rate": 0.0}):
            with pytest.raises(InvalidArgument):
                PriorSpec(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"sigma_rate": math.inf},  # the start draw is sigma = 0, forever
            {"beta0_mean": math.nan},
            {"beta1_mean": -math.inf},
            {"beta1_sd": math.inf},
            {"beta0_sd": 1e-200},  # 1 / sd^2 divides by zero
            {"beta1_sd": np.nextafter(1.0 / MAX_SCALE, 0.0)},
            {"sigma_rate": 1e160},  # the start draw's sigma^2 underflows
            {"sigma_rate": np.nextafter(MAX_SCALE, math.inf)},
            {"sigma_rate": 1e-320},  # the start draw is infinite
            {"sigma_rate": 1e-160},  # the start draw's sigma^2 overflows
            {"sigma_rate": np.nextafter(1.0 / MAX_SCALE, 0.0)},
        ],
    )
    def test_prior_spec_rejects_what_the_kernel_cannot_form(self, kwargs):
        with pytest.raises(InvalidArgument):
            PriorSpec(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"sigma_rate": 1e100},
            {"beta0_sd": 1e300},
            {"beta0_sd": 1e300, "beta1_sd": 1e300},
            {"sigma_rate": 1.0 / MAX_SCALE},
            {"sigma_rate": MAX_SCALE},
        ],
    )
    def test_extreme_priors_in_range_fit(self, small_data, kwargs):
        result = fit(small_data, ModelSpec(PriorSpec(**kwargs), chains=2, iterations=200, warmup=50))
        assert result.draws.values.shape[2] == 150

    @pytest.mark.parametrize(
        "name, kwargs",
        [
            ("beta1", {"beta1_mean": 1.8e68, "beta1_sd": 1e-120}),
            ("beta0", {"beta0_mean": -1e300, "beta0_sd": 1e-10}),
        ],
    )
    def test_prior_mean_beyond_its_sds_reach_is_refused(self, name, kwargs):
        # (mean - estimate) / sd^2 overflows. Unchecked, every iteration
        # ran on NaN and the fit failed only at the end, naming beta0.
        data = simulate_experiment(60, 52.0, -2.49, 24.0, seed=3)
        spec = ModelSpec(PriorSpec(**kwargs), chains=2, iterations=100, warmup=10)
        with pytest.raises(InvalidArgument, match=f"^the {name} prior's mean"):
            fit(data, spec)

    def test_prior_means_whose_residual_sum_overflows_are_refused(self):
        # k is finite, but the posterior lies beyond the double range.
        # Unchecked, both chains ran and Draws then refused beta0's
        # infinite draws with NonFiniteValue.
        data = Dataset(outcome=np.arange(7.0), treatment=[0, 0, 0, 0, 0, 0, 1])
        priors = PriorSpec(1.7976931348623157e308, 243.0, 0.0, 1.0, 1e-11)
        spec = ModelSpec(priors, chains=2, iterations=200, warmup=100, seed=0)
        with pytest.raises(InvalidArgument, match="^the prior means .* residual sum there overflows$"):
            fit(data, spec)

    def test_prior_mean_within_its_sd_of_the_data_fits(self):
        # The prior's sd makes it flat (its precision underflows to 0), so
        # however far its mean lies, it does not pull the posterior there.
        # Counted in the residual sum, it was refused.
        data = simulate_experiment(996, 52.0, -2.49, 24.0, seed=3)
        priors = PriorSpec(beta0_mean=1e152, beta0_sd=1e300)
        result = fit(data, ModelSpec(priors, chains=2, iterations=2000, warmup=500))
        assert view(result.draws, "beta0").pooled.mean() == pytest.approx(52.4, abs=0.5)
        assert result.diagnostics["beta0"].rhat < 1.01

    @pytest.mark.parametrize("mean, sd", [(1.7e308, 1e300), (1e160, 1e154)])
    def test_prior_mean_beyond_its_sd_whose_residual_sum_overflows_is_refused(self, mean, sd):
        # The prior's penalty at the data, (mean / sd)^2 / 2, outweighs the
        # likelihood's cost of moving there. Unrefused, (1e160, 1e154)
        # reported a beta0 near 52 from a chain stuck in a negligible mode.
        data = simulate_experiment(996, 52.0, -2.49, 24.0, seed=3)
        spec = ModelSpec(PriorSpec(beta0_mean=mean, beta0_sd=sd), chains=2, iterations=200,
                         warmup=50)
        with pytest.raises(InvalidArgument, match="residual sum there overflows$"):
            fit(data, spec)

    def test_model_spec_rejects_bad_protocol(self):
        with pytest.raises(InvalidArgument):
            ModelSpec(chains=0)
        with pytest.raises(InvalidArgument):
            ModelSpec(iterations=100, warmup=100)

    @pytest.mark.parametrize(
        "iterations, warmup", [(100, 97), (100, 99), (100, 100), (3, 0), (100, -1)]
    )
    def test_model_spec_needs_four_kept_iterations(self, iterations, warmup):
        # Split R-hat needs 4. Unchecked, 3 kept iterations ran the whole
        # fit and then raised TooFewIterations, and 1 raised InvalidDraws.
        with pytest.raises(InvalidArgument, match="at least 4 iterations after it"):
            ModelSpec(iterations=iterations, warmup=warmup)

    def test_four_kept_iterations_fit(self, small_data):
        result = fit(small_data, ModelSpec(chains=2, iterations=100, warmup=96))
        assert result.draws.values.shape[2] == 4
        assert all(math.isfinite(d.rhat) for d in result.diagnostics.values())

    def test_model_spec_rejects_negative_seed(self):
        with pytest.raises(InvalidArgument, match="seed must be >= 0"):
            ModelSpec(seed=-1)

    def test_defaults_match_documented_protocol(self):
        spec = ModelSpec()
        assert (spec.chains, spec.iterations, spec.warmup) == (4, 10_000, 1_000)
        p = spec.priors
        assert (p.beta0_mean, p.beta0_sd) == (50.0, 20.0)
        assert (p.beta1_mean, p.beta1_sd) == (0.0, 5.0)
        assert p.sigma_rate == 0.5


class TestSimulateExperiment:
    def test_balanced_assignment(self):
        data = simulate_experiment(996, 52.0, -2.49, 24.0, seed=3)
        assert int(data.treatment.sum()) == 498
        assert data.n == 996

    def test_tiny_noise_recovers_group_means(self):
        data = simulate_experiment(4, 10.0, 0.0, 1e-9, seed=1)
        assert data.outcome == pytest.approx(np.full(4, 10.0), abs=1e-6)

    def test_group_difference_within_sampling_error(self):
        data = simulate_experiment(996, 52.0, -2.49, 24.0, seed=12)
        diff = (
            data.outcome[data.treatment == 1].mean()
            - data.outcome[data.treatment == 0].mean()
        )
        se = 24.0 * math.sqrt(1 / 498 + 1 / 498)
        assert abs(diff - (-2.49)) < 3 * se

    def test_deterministic_given_seed(self):
        a = simulate_experiment(50, 1.0, 2.0, 3.0, seed=9)
        b = simulate_experiment(50, 1.0, 2.0, 3.0, seed=9)
        assert np.array_equal(a.outcome, b.outcome)
        assert np.array_equal(a.treatment, b.treatment)

    def test_rejects_bad_arguments(self):
        with pytest.raises(InvalidArgument):
            simulate_experiment(2, 0.0, 0.0, 1.0, seed=0)
        with pytest.raises(InvalidArgument):
            simulate_experiment(10, 0.0, 0.0, 0.0, seed=0)

    def test_rejects_negative_seed(self):
        with pytest.raises(InvalidArgument, match="seed must be >= 0"):
            simulate_experiment(10, 0.0, 0.0, 1.0, seed=-1)


class TestFit:
    def test_degenerate_design_refused(self):
        data = Dataset(outcome=[1.0, 2.0, 3.0], treatment=[0, 0, 0])
        with pytest.raises(DegenerateDesign):
            fit(data, ModelSpec(iterations=10, warmup=2))
        # Constant within each arm: sigma's posterior is improper.
        data = Dataset(outcome=[1.0, 1.0, 2.0, 2.0], treatment=[0, 0, 1, 1])
        with pytest.raises(DegenerateDesign):
            fit(data, ModelSpec(iterations=10, warmup=2))
        # Constant, though fsum / 6 rounds the control mean to ...330.5 and
        # leaves a sum of squares of 1.5. Judged by that sum, it once fit.
        data = Dataset(outcome=[3002399751580331.0] * 7, treatment=[0] * 6 + [1])
        with pytest.raises(DegenerateDesign, match="constant within each arm"):
            fit(data, ModelSpec(iterations=10, warmup=2))

    def test_constant_parameter_gets_nan_rhat(self, small_data):
        # A prior so narrow that every beta1 draw is one double. Its R-hat
        # is undefined; the fit once failed here with ZeroWithinVariance.
        priors = PriorSpec(beta1_mean=1.0, beta1_sd=1e-140)
        result = fit(small_data, ModelSpec(priors, chains=2, iterations=400, warmup=100))
        assert np.unique(view(result.draws, "beta1").pooled).size == 1
        beta1 = result.diagnostics["beta1"]
        assert math.isnan(beta1.rhat) and beta1.ess == 1.0
        for name in ("beta0", "sigma"):
            assert result.diagnostics[name].rhat < 1.05

    def test_sigma_draws_positive_and_posterior_finite(self, small_data):
        spec = ModelSpec(chains=2, iterations=400, warmup=100, seed=5)
        result = fit(small_data, spec)
        sigma = view(result.draws, "sigma").pooled
        assert (sigma > 0).all()
        b0 = view(result.draws, "beta0").pooled
        b1 = view(result.draws, "beta1").pooled
        for i in range(0, len(sigma), 97):
            assert math.isfinite(
                brute_log_posterior(small_data, spec.priors, b0[i], b1[i], sigma[i])
            )

    def test_shape_and_diagnostics_present(self, small_data):
        spec = ModelSpec(chains=2, iterations=300, warmup=50, seed=1)
        result = fit(small_data, spec)
        assert result.draws.parameter_names == ("beta0", "beta1", "sigma")
        assert result.draws.values.shape == (3, 2, 250)
        assert set(result.diagnostics) == {"beta0", "beta1", "sigma"}
        assert len(result.chain_stats) == 2
        assert result.chain_stats[0].slice_evals_per_iteration > 0

    def test_deterministic_and_exchangeable(self, small_data):
        spec = ModelSpec(chains=2, iterations=200, warmup=50, seed=21)
        first = fit(small_data, spec)
        again = fit(small_data, spec)
        assert np.array_equal(first.draws.values, again.draws.values)

        rng = np.random.default_rng(0)
        order = rng.permutation(small_data.n)
        shuffled = Dataset(
            outcome=small_data.outcome[order], treatment=small_data.treatment[order]
        )
        permuted = fit(shuffled, spec)
        assert np.array_equal(first.draws.values, permuted.draws.values)

    def test_posterior_mean_stable_across_sampler_seeds(self, small_data):
        spec_a = ModelSpec(chains=2, iterations=3000, warmup=500, seed=1)
        spec_b = ModelSpec(chains=2, iterations=3000, warmup=500, seed=2)
        mean_a = view(fit(small_data, spec_a).draws, "beta1").pooled.mean()
        mean_b = view(fit(small_data, spec_b).draws, "beta1").pooled.mean()
        assert mean_a == pytest.approx(mean_b, abs=0.1)

    def test_application_scale_posterior(self):
        # Synthetic stand-in at the published scale: the posterior must
        # track the realized group difference with se ~ 1.52.
        data = simulate_experiment(996, 52.0, -2.49, 24.0, seed=109)
        result = fit(data, ModelSpec(chains=2, iterations=3000, warmup=500, seed=42))
        v = view(result.draws, "beta1")
        assert v.pooled.mean() == pytest.approx(-2.49, abs=0.5)
        assert prob_below(v, 0.0) == pytest.approx(0.95, abs=0.03)


def sigma_conditional_moments(n, ssr, rate):
    """Mean, sd and kurtosis of sigma given (n, ssr, rate), by quadrature.

    Trapezoid rule over u = log(sigma) for the log density
    -(n-1) u - ssr / (2 e^(2u)) - rate e^u, on a grid of 200,001 points
    spanning 40 Laplace sds on each side of the mode (the prior's whole
    support when ssr = 0). The mode is e^u = s, the root of
    rate s^3 + (n-1) s^2 = ssr, where the density's curvature is
    2 (n-1) + 3 rate s. Where the prior dominates, s lies far below the
    likelihood's mode sqrt(ssr / (n-1)).
    """
    if ssr > 0:
        # The root lies in [hi / 2, hi]: at hi / 2 the cubic is at most 3 ssr / 8.
        hi = min(math.sqrt(ssr / (n - 1)), (ssr / rate) ** (1.0 / 3.0))
        lo = hi / 2.0
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            if rate * mid**3 + (n - 1) * mid**2 < ssr:
                lo = mid
            else:
                hi = mid
        mode = 0.5 * (lo + hi)
        half = 40.0 / math.sqrt(2.0 * (n - 1) + 3.0 * rate * mode)
        u = np.linspace(math.log(mode) - half, math.log(mode) + half, 200_001)
    else:
        u = np.linspace(-40.0, 4.0, 200_001)
    log_p = -(n - 1.0) * u - rate * np.exp(u)
    if ssr > 0:
        log_p -= 0.5 * ssr * np.exp(-2.0 * u)
    p = np.exp(log_p - log_p.max())
    sigma = np.exp(u)

    def integral(values):
        return float(np.sum((values[1:] + values[:-1]) * np.diff(u)) / 2.0)

    total = integral(p)
    mean = integral(sigma * p) / total
    var = integral((sigma - mean) ** 2 * p) / total
    kurtosis = integral((sigma - mean) ** 4 * p) / total / var**2
    return mean, math.sqrt(var), kurtosis


def log_sigma_target(u, n, ssr, rate):
    """The sigma conditional's log density on u = log(sigma), in a form
    independent of the kernel's inline one: -(n-1) u - exp(log(ssr / 2)
    - 2u) - rate e^u, -inf above u = 354 or where the middle term's
    exponent passes 709."""
    log_half_ssr = math.log(ssr) - math.log(2.0) if ssr != 0.0 else -math.inf
    x = log_half_ssr - 2.0 * u
    if u > 354.0 or x > 709.0:
        return -math.inf
    return -(n - 1.0) * u - math.exp(x) - rate * math.exp(u)


def reference_slice_update(u0, height, n, ssr, rate, width, uniform):
    """The slice update with one call of :func:`log_sigma_target` per
    evaluation: the reference for the kernel's inline evaluations, drawing
    the same variates."""
    left = u0 - width * uniform()
    right = left + width
    budget_left = int(50 * uniform())
    budget_right = 49 - budget_left
    evals, stepouts = 1, 0
    while budget_left > 0:
        evals += 1
        if log_sigma_target(left, n, ssr, rate) <= height:
            break
        left -= width
        budget_left -= 1
        stepouts += 1
    while budget_right > 0:
        evals += 1
        if log_sigma_target(right, n, ssr, rate) <= height:
            break
        right += width
        budget_right -= 1
        stepouts += 1
    while right - left >= 1e-15 * (abs(u0) + 1.0):
        u1 = left + (right - left) * uniform()
        evals += 1
        if log_sigma_target(u1, n, ssr, rate) > height:
            return u1, evals, stepouts, False
        if u1 < u0:
            left = u1
        else:
            right = u1
    return u0, evals, stepouts, True


class TestSliceUpdate:
    """The log(sigma) slice update alone, against quadrature of its target."""

    @pytest.mark.parametrize(
        "u0, n, ssr, rate",
        [
            (math.log(24.0), 996, 995 * 24.0**2, 0.5),  # the application scale
            (math.log(24.0), 200_000, 199_999 * 24.0**2, 0.5),  # large n
            (math.log(24.0), 996, 995 * 24e8**2, 0.5),  # the prior dominates
            (-380.0, 0, 0.0, 0.5),  # ssr = 0 where e * e underflows: the middle term is 0
            # The mode near u = 352, so steps cross u = 354, where the target is -inf.
            (352.0, 4, 4e306, 1e-300),
            (-300.0, 996, 1e-300, 1e140),  # sigma near 1e-130
            (0.0, 5, math.nan, 0.5),  # a NaN residual sum: every comparison is false
        ],
    )
    def test_inline_target_matches_the_reference_update(self, u0, n, ssr, rate):
        # The sampler sees its target only through comparisons with the
        # slice height, so the inline target must take every branch the
        # per-call one took: the same points, counts and collapses.
        width = _slice_width(n) if n > 1 else 1.0
        drops = np.random.default_rng(10).standard_exponential(500).tolist()
        uniforms = [_uniforms(np.random.default_rng(11), 2_000).__next__ for _ in range(2)]
        u = u0
        for drop in drops:
            height = log_sigma_target(u, n, ssr, rate) - drop
            want = reference_slice_update(u, height, n, ssr, rate, width, uniforms[0])
            got_u, sigma, *got = _slice_log_sigma(u, height, n, ssr / 2, rate, width, uniforms[1])
            assert (got_u, *got) == want
            assert sigma == math.exp(got_u)
            u = got_u

    def test_underflowing_square_is_outside_every_slice(self):
        # Below u = -372.5, e * e underflows to 0. With ssr > 0 the target
        # is -inf there, not a ZeroDivisionError; the step-out stops at the
        # first such point and the shrink accepts a point above it.
        uniform = _uniforms(np.random.default_rng(3), 100).__next__
        u, sigma, _, stepouts, collapsed = _slice_log_sigma(-371.0, -1e300, 5, 1e-300, 0.5, 1.0, uniform)
        assert -372.5 < u and sigma == math.exp(u) and not collapsed
        # Every point right of u0 within the budget is inside the slice, so
        # only the left step-out can have stopped short of it.
        assert stepouts < 49

    @pytest.mark.parametrize(
        "n, ssr, rate, seed",
        [
            (0, 0.0, 0.5, 1),  # prior-only: sigma ~ Exponential(0.5)
            (996, 995 * 24.0**2, 0.5, 2),  # the application scale, sigma near 24
            (200_000, 199_999 * 24.0**2, 0.5, 3),  # large n, sigma near 24
            # Where fit takes the slice: rate * sigma_hat > (n - 1) / 4, so
            # the prior pulls sigma far below sigma_hat.
            (996, 995 * 1e6**2, 0.5, 4),  # sigma near 1.25e5
            (996, 995 * 1e8**2, 0.5, 5),  # sigma near 2.7e6
            (10, 9 * 100.0**2, 0.5, 6),  # sigma near 52
        ],
    )
    def test_matches_quadrature(self, n, ssr, rate, seed):
        mean, sd, kurtosis = sigma_conditional_moments(n, ssr, rate)
        rng = np.random.default_rng(seed)
        iterations = 20_000
        drops = rng.standard_exponential(iterations).tolist()
        uniform = _uniforms(rng, 4 * iterations).__next__
        width = _slice_width(n) if n else 1.0
        u = math.log(mean)
        chain = np.empty(iterations)
        collapses = 0
        for i, drop in enumerate(drops):
            height = log_sigma_target(u, n, ssr, rate) - drop
            u, chain[i], _, _, collapsed = _slice_log_sigma(u, height, n, ssr / 2, rate, width, uniform)
            collapses += collapsed
        assert collapses == 0
        n_eff = ess(make_view(chain.reshape(1, -1)))
        se_mean = sd / math.sqrt(n_eff)
        se_sd = sd * math.sqrt((kurtosis - 1.0) / (4.0 * n_eff))
        assert abs(chain.mean() - mean) < 3.0 * se_mean
        assert abs(chain.std(ddof=1) - sd) < 3.0 * se_sd

    @pytest.mark.parametrize(
        "n, resid_sd",
        [
            (200_000, 1e-4),  # far below the prior's scale
            (996, 1e8),  # far above it, where the exponential prior dominates
        ],
    )
    def test_converges_from_prior_start_within_default_warmup(self, n, resid_sd):
        data = simulate_experiment(n, 0.0, 0.0, resid_sd, seed=4)
        result = fit(data, ModelSpec(chains=4, iterations=2_000, warmup=1_000, seed=6))
        for name, diag in result.diagnostics.items():
            assert diag.rhat < 1.01, name

    def test_effort_per_iteration(self):
        # At sd 24 every iteration takes the Metropolis-Hastings step: one
        # target evaluation and no step-out. Where the prior dominates, the
        # slice update made 7.42-7.46 evaluations per iteration at sd 1e6
        # and 9.96-9.98 at 1e8, and no update fell back to keeping its
        # start point; the bounds guard those figures.
        spec = ModelSpec(chains=2, iterations=3_000, warmup=500, seed=42)
        for n, resid_sd, budget in ((996, 24.0, 1.0), (200_000, 24.0, 1.0), (996, 1e6, 8.0),
                                    (996, 1e8, 10.5)):
            result = fit(simulate_experiment(n, 52.0, -2.49, resid_sd, seed=109), spec)
            for stats in result.chain_stats:
                if budget == 1.0:
                    assert stats.slice_evals_per_iteration == 1.0, (n, resid_sd, stats)
                    assert stats.stepouts_per_iteration == 0.0, (n, resid_sd, stats)
                assert stats.slice_evals_per_iteration <= budget, (n, resid_sd, stats)
                assert stats.collapses_per_iteration == 0.0, (n, resid_sd, stats)


class TestIndependenceUpdate:
    """The sigma Metropolis-Hastings step alone, at fixed (n, ssr, rate), against quadrature."""

    @pytest.mark.parametrize(
        "n, ssr, rate, min_acceptance, seed",
        [
            (996, 995 * 24.0**2, 0.5, 0.98, 1),  # the application scale
            (200_000, 199_999 * 24.0**2, 0.5, 0.98, 2),  # large n
            (60, 59 * 1.5**2, 0.5, 0.98, 3),  # the n = 60 regime
            # rate * sigma_hat just under (n - 1) / 4, where the slice takes over.
            (996, 995 * (0.999999 * 995 / 2.0) ** 2, 0.5, 0.85, 4),
        ],
    )
    def test_matches_quadrature(self, n, ssr, rate, min_acceptance, seed):
        mean, sd, kurtosis = sigma_conditional_moments(n, ssr, rate)
        sigma_hat = math.sqrt(ssr / (n - 1))
        assert rate * sigma_hat <= (n - 1) / 4
        rng = np.random.default_rng(seed)
        iterations = 20_000
        gammas = rng.standard_gamma((n - 1) / 2, iterations).tolist()
        drops = rng.standard_exponential(iterations).tolist()
        sigma = mean
        chain = np.empty(iterations)
        accepted = 0
        for i, (gamma, drop) in enumerate(zip(gammas, drops)):
            proposal = _mh_sigma(sigma, ssr / 2, sigma_hat, n, rate, gamma, drop)
            if proposal is not None:
                sigma = proposal
                accepted += 1
            chain[i] = sigma
        assert accepted / iterations >= min_acceptance
        n_eff = ess(make_view(chain.reshape(1, -1)))
        se_mean = sd / math.sqrt(n_eff)
        se_sd = sd * math.sqrt((kurtosis - 1.0) / (4.0 * n_eff))
        assert abs(chain.mean() - mean) < 3.0 * se_mean
        assert abs(chain.std(ddof=1) - sd) < 3.0 * se_sd

    def test_unrepresentable_proposal_is_rejected(self):
        # With an infinite drop every finite weight ratio is accepted, so
        # only the guards reject: a gamma of 0 would divide by zero, and
        # 2e-303 proposes sigma near 1.2e154, above e^354 ~ 5.5e153, where
        # sigma^2 overflows. 1e-302, proposing 5.3e153, is accepted.
        def step(gamma):
            return _mh_sigma(24.0, 995 * 24.0**2 / 2, 24.0, 996.0, 0.5, gamma, math.inf)

        assert step(0.0) is None
        assert step(2e-303) is None
        assert step(1e-302) == pytest.approx(5.3e153, rel=0.01)


class TestExactPosterior:
    """The full kernel against the exact posterior of tests/posterior_oracle.py."""

    def test_alternating_sigma_updates(self):
        # The outcome is scaled so that rate * sqrt(ssr / (n - 1)) lies
        # within the draws' spread of (n - 1) / 4: sigma's update switches
        # between the Metropolis-Hastings step and the slice from one
        # iteration to the next, as the coefficients move ssr.
        data = simulate_experiment(60, 0.0, 0.0, 1.0, seed=109)
        arms = (data.outcome[data.treatment == arm] for arm in (0, 1))
        ss_within = sum(((y - y.mean()) ** 2).sum() for y in arms)
        scale = 0.995 * 59 / (4 * 0.5) / math.sqrt(ss_within / 59)
        scaled = Dataset(outcome=data.outcome * scale, treatment=data.treatment)
        priors = PriorSpec(0.0, 1e4, 0.0, 1e3)
        spec = ModelSpec(priors=priors, chains=4, iterations=5_000, warmup=500, seed=8)
        result = fit(scaled, spec)
        for stats in result.chain_stats:
            assert stats.rejections_per_iteration > 0.0 and stats.stepouts_per_iteration > 0.0
        for statistic, z in standard_errors_off(result, exact_posterior(scaled, priors)).items():
            assert abs(z) < 4.0, (statistic, z)

    @pytest.mark.parametrize("shift", [1e4, 1e8])
    def test_shift_changes_neither_posterior_nor_fit(self, shift):
        # Shifting the outcome and the b0 prior mean by c shifts b0 by c
        # and leaves b1 and sigma alone. The shifted outcome is rounded to
        # the spacing of doubles near c (1.5e-8 at 1e8), so the oracle's
        # marginals may move by about that much.
        data = simulate_experiment(996, 52.0, -2.49, 24.0, seed=109)
        exact = exact_posterior(data, PriorSpec())
        shifted = Dataset(outcome=data.outcome + shift, treatment=data.treatment)
        priors = PriorSpec(beta0_mean=50.0 + shift)
        exact_shifted = exact_posterior(shifted, priors)
        assert exact_shifted.p_beta1_below_zero == pytest.approx(exact.p_beta1_below_zero, abs=1e-7)
        for name in ("beta1", "sigma"):
            a, b = getattr(exact, name), getattr(exact_shifted, name)
            assert b.mean == pytest.approx(a.mean, abs=1e-6 * a.sd), name
            assert b.sd == pytest.approx(a.sd, rel=1e-6), name
        assert exact_shifted.beta0.mean - shift == pytest.approx(exact.beta0.mean, abs=1e-6)

        result = fit(shifted, ModelSpec(priors=priors, chains=4, iterations=3_000, warmup=500, seed=8))
        for statistic, z in standard_errors_off(result, exact_shifted).items():
            assert abs(z) < 4.0, (statistic, z)

    def test_probability_of_one(self):
        # At n = 200,000 the exact P(beta1 < 0) rounds to 1.0, and every
        # draw lies below 0. The MCSE is then 0, and the oracle raised
        # ZeroDivisionError.
        data = simulate_experiment(200_000, 52.0, -2.49, 24.0, seed=109)
        exact = exact_posterior(data, PriorSpec())
        assert exact.p_beta1_below_zero == 1.0
        result = fit(data, ModelSpec(chains=4, iterations=5_000, warmup=500, seed=8))
        for statistic, z in standard_errors_off(result, exact).items():
            assert abs(z) < 4.0, (statistic, z)
        # One draw above 0 is infinitely many standard errors off.
        values = result.draws.values.copy()
        values[1, 0, 0] = 1.0
        flipped = dataclasses.replace(result, draws=Draws(result.draws.parameter_names, values))
        assert standard_errors_off(flipped, exact)["P(beta1 < 0)"] == -math.inf

    def test_probability_coverage_over_short_fits(self):
        # Over 40 pinned fits of 4 x 1,000 kept draws, z = (p_hat - p) / MCSE
        # for P(beta1 < 0) should lie within +-1.96 about 95% of the time.
        data = simulate_experiment(996, 52.0, -2.49, 24.0, seed=109)
        exact = exact_posterior(data, PriorSpec())
        inside = 0
        for seed in range(40):
            result = fit(data, ModelSpec(chains=4, iterations=1_250, warmup=250, seed=seed))
            inside += abs(standard_errors_off(result, exact)["P(beta1 < 0)"]) <= 1.96
        assert inside >= 34, inside


class TestPinnedDraws:
    """SHA-256 of the draws and of each chain's ChainStats, pinned in
    criterion 3's three regimes (4 chains x 2,000 iterations, seed 42).

    The slice update sees its target only through comparisons with the
    slice height, so a change in how the target is evaluated must leave
    every bit of every chain alone. The hashes were computed with the
    target evaluated as :func:`log_sigma_target` evaluates it. Sigma is
    updated by the Metropolis-Hastings step in the application and n = 60
    regimes and by the slice update throughout the outcome x 1e8 one,
    whose draws hash predates the step: its gamma variates come from a
    child stream and leave the slice's variates alone.
    """

    PINNED = {
        "application": (
            "c29bc7a61c5676c1ad20c02eedba090d5936be301343dfb833328cfdcdeda2d6",
            (
                "83202fc0d1f478cbf8279f572a378166bbfa71da4e874e07716024f78d4cb7f6",
                "d63eae3e8482597c9caae4b8e3c30df6fe34f540ef723ee6b0a2a1ed898b7d06",
                "24971f074ebafe12e0f83746fe33fa5e76d20d27fc6a6b90c48b43542140b01c",
                "474ebe5ed7750fcb89987b81d2394611a080a8759a8470c708e3ae6855724f9b",
            ),
        ),
        "outcome x 1e8": (
            "2f1848e6dadc2bddd1e86a6e31256fefdcfdb8b626590200bd90e64af40cbb1c",
            (
                "b146afa5558356b13aaf5875a0e7fd737d3433b6aa6350f2899be26c0b5266b7",
                "dcd3821f6f4f13d95d18103e11f2a6d5c940eb02602734204d4a7cef23d67ee9",
                "710755a73122e98ad5178867bc438d5fda547b5407a2f3cbb6a3a8d222af2a6e",
                "c6e3d8bf79ef1a5746c96e3c320b331813070183e95ee758e3fbb94809808558",
            ),
        ),
        "n = 60, prior sd 1e6": (
            "a3a247683ff7233449e84496711f3bdd981c76a973f9936d59045921384537f0",
            (
                "7da6ac4a2cbf81baaf2e1554e8c5b6dee580596711c952ddc4353e6e255014c2",
                "c06aec581a70b1023ffca0cd4539bffab990116fbdc5737d20d9b251e04e951a",
                "24971f074ebafe12e0f83746fe33fa5e76d20d27fc6a6b90c48b43542140b01c",
                "af5cc046ba4a21908ed8da06e6f658234d6daec384f9731727e243b52450e6cc",
            ),
        ),
    }

    @staticmethod
    def regimes() -> dict[str, tuple[Dataset, PriorSpec]]:
        application = simulate_experiment(996, 52.0, -2.49, 24.0, seed=109)
        rng = np.random.default_rng(2024)
        d = rng.permutation(np.repeat([1, 0], 30))
        small = Dataset(outcome=1.0 + 2.0 * d + rng.normal(0.0, 1.5, size=60), treatment=d)
        scaled = Dataset(outcome=application.outcome * 1e8, treatment=application.treatment)
        return {
            "application": (application, PriorSpec()),
            "outcome x 1e8": (scaled, PriorSpec()),
            "n = 60, prior sd 1e6": (small, PriorSpec(0.0, 1e6, 0.0, 1e6)),
        }

    @pytest.mark.parametrize("regime", list(PINNED))
    def test_draws_and_effort_are_unchanged(self, regime):
        data, priors = self.regimes()[regime]
        result = fit(data, ModelSpec(priors=priors, chains=4, iterations=2_000, seed=42))
        draws_sha, stats_sha = self.PINNED[regime]
        assert hashlib.sha256(result.draws.values.tobytes()).hexdigest() == draws_sha
        got = tuple(hashlib.sha256(repr(s).encode()).hexdigest() for s in result.chain_stats)
        assert got == stats_sha, result.chain_stats


class TestAllocationPeaks:
    """A chain holds its variates as arrays and Python floats for one block
    of iterations only, and a fit writes kept draws straight into one
    output array."""

    @pytest.mark.parametrize("resid_sd", [24.0, 24e8], ids=["metropolis-hastings", "slice"])
    def test_fit_peak_per_iteration(self, resid_sd):
        data = simulate_experiment(996, 52.0, -2.49, resid_sd, seed=109)
        spec = ModelSpec(chains=1, iterations=50_000, warmup=1_000, seed=3)
        peak = peak_bytes(lambda: fit(data, spec))
        assert peak <= 160 * spec.iterations, peak / spec.iterations

    @pytest.mark.parametrize("warmup", [1, 1_023, 1_024, 1_025, 2_500])
    def test_warmup_only_drops_the_first_iterations(self, small_data, warmup):
        # Blocks of 1,024 iterations, the warm-up ending inside one, on its
        # edge or in a later one, keep the same draws as a fit without it.
        spec = ModelSpec(chains=2, iterations=2_600, warmup=0, seed=5)
        whole = fit(small_data, spec).draws.values
        kept = fit(small_data, dataclasses.replace(spec, warmup=warmup)).draws.values
        assert np.array_equal(kept, whole[:, :, warmup:])


class TestNumericalRange:
    def test_far_shifted_outcome_matches_unshifted(self):
        # Raw sums of squares at a 1e8 offset cancel every digit of the
        # residual sum; centred statistics do not.
        data = simulate_experiment(1000, 0.0, 0.5, 1.0, seed=17)
        spec = ModelSpec(chains=2, iterations=3_000, warmup=500, seed=8)
        shift = 1e8
        shifted = Dataset(outcome=data.outcome + shift, treatment=data.treatment)
        shifted_spec = dataclasses.replace(spec, priors=PriorSpec(beta0_mean=50.0 + shift))
        fits = [fit(data, spec), fit(shifted, shifted_spec)]
        means, mcses = [], []
        for result in fits:
            sigma = view(result.draws, "sigma").pooled
            means.append(sigma.mean())
            mcses.append(sigma.std(ddof=1) / math.sqrt(result.diagnostics["sigma"].ess))
        assert abs(means[0] - 1.0) < 0.1
        assert abs(means[1] - means[0]) < 3.0 * math.hypot(*mcses)

    def test_tiny_scale_outcome_fits(self):
        # sigma ~ 1e-100: the coefficient draw must not form products of
        # the data precision n / sigma^2 with itself, which overflow.
        data = simulate_experiment(1000, 0.0, 0.5, 1.0, seed=17)
        scale = 1e-100
        tiny = Dataset(outcome=data.outcome * scale, treatment=data.treatment)
        result = fit(tiny, ModelSpec(chains=2, iterations=2_000, warmup=500, seed=8))
        assert abs(view(result.draws, "sigma").pooled.mean() / scale - 1.0) < 0.1
        for name, diag in result.diagnostics.items():
            assert diag.rhat < 1.01, name

    def test_overflowing_outcome_is_nonfinite_data(self):
        data = simulate_experiment(1000, 0.0, 0.0, 1.0, seed=7)
        huge = Dataset(outcome=data.outcome * 1e200, treatment=data.treatment)
        # The control arm's exact sum overflows inside math.fsum.
        summed = Dataset(outcome=[1e308, 1e308, 1e308, 1.0, 2.0], treatment=[0, 0, 0, 1, 1])
        for overflowing in (huge, summed):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(NonFiniteData):
                    fit(overflowing, ModelSpec(iterations=10, warmup=2))

    @pytest.mark.parametrize("scale", [1e-154, 1e-156, 1e-158, 1e-160, 1e-170, 1e-200])
    def test_vanishing_spread_is_degenerate_design(self, scale):
        # sigma ~ scale: the data precision n / sigma^2 would overflow. From
        # about 1e-165 the squared deviations underflow to 0 as well; the
        # outcome still varies, so it is not reported as constant.
        data = simulate_experiment(1000, 0.0, 0.0, 1.0, seed=7)
        tiny = Dataset(outcome=data.outcome * scale, treatment=data.treatment)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateDesign, match="spread"):
                fit(tiny, ModelSpec(chains=2, iterations=3_000, warmup=1_000))


finite = st.floats(allow_nan=False, allow_infinity=False)
# Extreme finite values as well as ordinary ones: powers of ten from 1e-300
# to 1e300, the largest double, subnormals.
magnitude = st.one_of(
    finite,
    st.integers(-300, 300).map(lambda e: 10.0**e),
    st.sampled_from([np.finfo(float).max, np.finfo(float).smallest_subnormal]),
)
signed = st.one_of(magnitude, magnitude.map(lambda x: -x))


@st.composite
def datasets(draw) -> tuple[np.ndarray, np.ndarray]:
    """Outcome and treatment of 3 to 12 units at any location and scale."""
    n = draw(st.integers(3, 12))
    treatment = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    if draw(st.booleans()):
        outcome = np.array(draw(st.lists(signed, min_size=n, max_size=n)))
    else:
        noise = np.array(draw(st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n)))
        with np.errstate(over="ignore", invalid="ignore"):
            outcome = draw(signed) + draw(magnitude) * noise
    return outcome, treatment


class TestFuzz:
    @settings(max_examples=300, deadline=None)
    @given(
        data=datasets(),
        prior=st.tuples(signed, magnitude, signed, magnitude, magnitude),
        chains=st.integers(1, 2),
        iterations=st.integers(2, 60),
        warmup_share=st.floats(0.0, 0.9),
        seed=st.integers(0, 2**32),
    )
    # Flat priors and a spread near 1e153: sigma^2 must not overflow, which
    # would leave the coefficients' conditional precision 0.
    @example(
        data=(np.array([0.0, 1e153, -1e153, 5e152]), np.array([0, 0, 1, 1])),
        prior=(0.0, 1e300, 0.0, 1e300, 1e-140),
        chains=1,
        iterations=60,
        warmup_share=0.0,
        seed=40,
    )
    # A prior mean beyond the reach of its sd. Before fit refused it, the
    # residual sum was NaN, which the slice update must not take for 0, or
    # sigma walks down to 0; a NaN sum is now pinned in TestSliceUpdate.
    @example(
        data=(np.array([0.0, 0.0, 1.0, 0.0]), np.array([0, 0, 0, 1])),
        prior=(0.0, 1.0, 1.7976931348623159e68, 1e-120, 1.0),
        chains=1,
        iterations=25,
        warmup_share=0.0,
        seed=0,
    )
    # A prior mean near the largest double on seven units: the posterior
    # lies beyond the double range. It sampled, then Draws refused beta0's
    # infinite draws with NonFiniteValue; fit now refuses it up front.
    @example(
        data=(np.arange(7.0), np.array([0, 0, 0, 0, 0, 0, 1])),
        prior=(1.7976931348623157e308, 243.0, 0.0, 1.0, 1e-11),
        chains=2,
        iterations=200,
        warmup_share=0.5,
        seed=0,
    )
    def test_fit_raises_only_package_errors(
        self, data, prior, chains, iterations, warmup_share, seed
    ):
        # Any input either fits, or fails with a typed error checked before
        # the first iteration: no error after sampling, no other exception,
        # no numpy warning (the suite makes those errors) and no hang.
        try:
            spec = ModelSpec(
                PriorSpec(*prior),
                chains=chains,
                iterations=iterations,
                warmup=int(warmup_share * iterations),
                seed=seed,
            )
            fit(Dataset(*data), spec)
        except (InvalidArgument, DegenerateDesign, NonFiniteData):
            pass
