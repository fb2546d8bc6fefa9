from __future__ import annotations

import dataclasses
import math
import warnings

import numpy as np
import pytest

from effectprob.diagnostics import ess, split_rhat
from effectprob.draws import view
from effectprob.errors import (
    DegenerateDesign,
    InvalidArgument,
    InvalidSigma,
    NonBinaryTreatment,
    NonFiniteData,
)
from effectprob.regress import (
    Dataset,
    ModelSpec,
    PriorSpec,
    _slice_log_sigma,
    _slice_width,
    _uniforms,
    fit,
    simulate_experiment,
)
from effectprob.summary import prob_below

from conftest import make_view


def conjugate_posterior(y, d, sigma, prior_sd):
    """Closed-form (b0, b1) posterior for known sigma, via dense algebra."""
    X = np.column_stack([np.ones(len(y)), d])
    precision = X.T @ X / sigma**2 + np.eye(2) / prior_sd**2
    cov = np.linalg.inv(precision)
    mean = cov @ (X.T @ np.asarray(y) / sigma**2)
    return mean, np.sqrt(np.diag(cov))


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

    def test_model_spec_rejects_bad_protocol(self):
        with pytest.raises(InvalidArgument):
            ModelSpec(chains=0)
        with pytest.raises(InvalidArgument):
            ModelSpec(iterations=100, warmup=100)

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

    def test_fixed_sigma_matches_conjugate_posterior(self, small_data):
        sigma = 1.5
        prior_sd = 1e6
        mean, sd = conjugate_posterior(small_data.outcome, small_data.treatment, sigma, prior_sd)
        priors = PriorSpec(
            beta0_mean=0.0, beta0_sd=prior_sd, beta1_mean=0.0, beta1_sd=prior_sd
        )
        spec = ModelSpec(priors=priors, chains=3, iterations=8000, warmup=500, seed=0)
        result = fit(small_data, spec, fixed_sigma=sigma)
        assert result.draws.parameter_names == ("beta0", "beta1")
        for i, name in enumerate(("beta0", "beta1")):
            pooled = view(result.draws, name).pooled
            assert abs(pooled.mean() - mean[i]) < 0.02 * sd[i]
            assert abs(pooled.std(ddof=1) - sd[i]) < 0.02 * sd[i]

    def test_prior_only_recovers_priors(self):
        spec = ModelSpec(chains=4, iterations=3000, warmup=500, seed=11)
        result = fit(None, spec, prior_only=True)
        targets = {"beta0": (50.0, 20.0, 3.0), "beta1": (0.0, 5.0, 3.0), "sigma": (2.0, 2.0, 9.0)}
        for name, (mean, sd, kurtosis) in targets.items():
            v = view(result.draws, name)
            n_eff = result.diagnostics[name].ess
            se_mean = sd / math.sqrt(n_eff)
            se_sd = sd * math.sqrt((kurtosis - 1.0) / (4.0 * n_eff))
            assert abs(v.pooled.mean() - mean) < 3 * se_mean
            assert abs(v.pooled.std(ddof=1) - sd) < 3 * se_sd

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
        assert result.draws.chains == 2
        assert result.draws.iterations_per_chain == 250
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

    def test_rejects_bad_fixed_sigma(self, small_data):
        with pytest.raises(InvalidSigma):
            fit(small_data, ModelSpec(iterations=10, warmup=2), fixed_sigma=0.0)

    def test_rejects_fixed_sigma_whose_square_underflows(self, small_data):
        # 1e-170 squared is 0, so n / sigma^2 cannot be formed.
        with pytest.raises(InvalidSigma):
            fit(small_data, ModelSpec(iterations=10, warmup=2), fixed_sigma=1e-170)
        with pytest.raises(InvalidSigma):
            fit(None, ModelSpec(iterations=10, warmup=2), fixed_sigma=1e-170, prior_only=True)

    def test_requires_data_without_prior_only(self):
        with pytest.raises(InvalidArgument):
            fit(None, ModelSpec(iterations=10, warmup=2))

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
    support when ssr = 0).
    """
    if ssr > 0:
        mode = 0.5 * math.log(ssr / (n - 1))
        half = 40.0 / math.sqrt(2.0 * (n - 1))
        u = np.linspace(mode - half, mode + half, 200_001)
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


class TestSliceUpdate:
    """The log(sigma) slice update alone, against quadrature of its target."""

    @pytest.mark.parametrize(
        "n, ssr, rate, seed",
        [
            (0, 0.0, 0.5, 1),  # prior-only: sigma ~ Exponential(0.5)
            (996, 995 * 24.0**2, 0.5, 2),  # the application scale, sigma near 24
            (200_000, 199_999 * 24.0**2, 0.5, 3),  # large n, sigma near 24
        ],
    )
    def test_matches_quadrature(self, n, ssr, rate, seed):
        mean, sd, kurtosis = sigma_conditional_moments(n, ssr, rate)
        rng = np.random.default_rng(seed)
        iterations = 20_000
        drops = rng.standard_exponential(iterations).tolist()
        uniform = _uniforms(rng, 4 * iterations).__next__
        width = _slice_width(n)
        u = math.log(mean)
        chain = np.empty(iterations)
        collapses = 0
        for i, drop in enumerate(drops):
            u, _, _, collapsed = _slice_log_sigma(u, n, ssr, rate, width, drop, uniform)
            collapses += collapsed
            chain[i] = math.exp(u)
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
        # Budget: about 6 target evaluations per update at any n, and no
        # update falls back to keeping its start point.
        for n in (996, 200_000):
            data = simulate_experiment(n, 52.0, -2.49, 24.0, seed=109)
            result = fit(data, ModelSpec(chains=2, iterations=3_000, warmup=500, seed=42))
            for stats in result.chain_stats:
                assert stats.slice_evals_per_iteration <= 6.5, (n, stats)
                assert stats.collapses_per_iteration == 0.0, (n, stats)


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
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteData):
                fit(huge, ModelSpec(iterations=10, warmup=2))

    @pytest.mark.parametrize("scale", [1e-154, 1e-156, 1e-158, 1e-160])
    def test_vanishing_spread_is_degenerate_design(self, scale):
        # sigma ~ scale: the data precision n / sigma^2 would overflow.
        data = simulate_experiment(1000, 0.0, 0.0, 1.0, seed=7)
        tiny = Dataset(outcome=data.outcome * scale, treatment=data.treatment)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateDesign, match="spread"):
                fit(tiny, ModelSpec(chains=2, iterations=3_000, warmup=1_000))
