from __future__ import annotations

import dataclasses
import hashlib
import math
import warnings
from typing import Callable

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from effectprob.diagnostics import diagnose, ess, split_rhat
from effectprob.draws import Draws, view
from effectprob.errors import (
    DegenerateDesign,
    InvalidArgument,
    NonBinaryTreatment,
    NonFiniteData,
)
from effectprob.regress import (
    Dataset,
    FitResult,
    ModelSpec,
    PriorSpec,
    _fit_constants,
    _log_marginal,
    _Proposal,
    fit,
    simulate_experiment,
)
from effectprob.summary import prob_below

from conftest import peak_bytes, run_without_simd_dispatch
from posterior_oracle import binomial_z, exact_posterior, standard_errors_off

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


def rhats(result: FitResult) -> dict[str, float]:
    """Each fitted parameter's split R-hat, by name."""
    return {name: split_rhat(view(result.draws, name)) for name in result.draws.parameter_names}


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
            {"sigma_rate": math.inf},  # rate * sigma is infinite for every sigma
            {"beta0_mean": math.nan},
            {"beta1_mean": -math.inf},
            {"beta1_sd": math.inf},
            {"beta0_sd": 1e-200},  # 1 / sd^2 divides by zero
            {"beta1_sd": np.nextafter(1.0 / MAX_SCALE, 0.0)},
            {"sigma_rate": 1e160},  # can pull sigma below where n / sigma^2 fits
            {"sigma_rate": np.nextafter(MAX_SCALE, math.inf)},
            {"sigma_rate": 1e-320},  # sigma's mass can reach past e^354
            {"sigma_rate": 1e-160},  # likewise
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
        assert split_rhat(view(result.draws, "beta0")) < 1.01

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
        assert all(math.isfinite(rhat) for rhat in rhats(result).values())

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
        beta1 = diagnose(view(result.draws, "beta1"))
        assert math.isnan(beta1.rhat) and beta1.ess == 1.0
        for name in ("beta0", "sigma"):
            assert split_rhat(view(result.draws, name)) < 1.05

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

    def test_result_holds_draws_and_chain_stats(self, small_data):
        spec = ModelSpec(chains=2, iterations=300, warmup=50, seed=1)
        result = fit(small_data, spec)
        assert [f.name for f in dataclasses.fields(result)] == ["draws", "chain_stats"]
        assert result.draws.parameter_names == ("beta0", "beta1", "sigma")
        assert result.draws.values.shape == (3, 2, 250)
        assert len(result.chain_stats) == 2
        stats = result.chain_stats[0]
        assert (stats.slice_evals_per_iteration, stats.stepouts_per_iteration) == (1.0, 0.0)
        assert 0.0 <= stats.rejections_per_iteration <= 0.05

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
        for name, rhat in rhats(result).items():
            assert rhat < 1.01, name

    def test_rejections_per_iteration(self):
        # Each iteration takes one independence step, so the effort is the
        # share of rejected proposals: about 0.012 per chain in each of these
        # regimes, most of them far uniform-tail proposals. sd 1e6 and 1e8
        # are where the exponential prior dominates sigma.
        spec = ModelSpec(chains=2, iterations=3_000, warmup=500, seed=42)
        for n, resid_sd in ((996, 24.0), (200_000, 24.0), (996, 1e6), (996, 1e8)):
            result = fit(simulate_experiment(n, 52.0, -2.49, resid_sd, seed=109), spec)
            for stats in result.chain_stats:
                assert stats.rejections_per_iteration <= 0.05, (n, resid_sd, stats)



def criterion_3_regimes() -> dict[str, tuple[Dataset, PriorSpec]]:
    """The application dataset, its outcome scaled by 1e8, and n = 60
    under nearly flat coefficient priors, as criterion 3 fits them."""
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


def example_regime(name: str) -> tuple[Dataset, PriorSpec]:
    """Named regimes for the random-regime test's ``@example``s."""
    regimes = criterion_3_regimes()
    if name in regimes:
        return regimes[name]
    if name == "n = 5":
        return simulate_experiment(5, 52.0, -2.49, 24.0, seed=3), PriorSpec()
    if name == "n = 200,000":
        return simulate_experiment(200_000, 52.0, -2.49, 24.0, seed=109), PriorSpec()
    if name == "bimodal":
        # The beta1 prior, sd 1, conflicts with an effect of 29: sigma's
        # marginal has two modes, at 0.94 and 9.63, of equal mass, with a
        # 35-nat dip between them.
        d = np.repeat([0, 1], 50)
        outcome = np.random.default_rng(5).normal(0.0, 1.0, 100) + 29.3194 * d
        return Dataset(outcome=outcome, treatment=d), PriorSpec(0.0, 0.01, 0.0, 1.0, 10.0)
    # rate * sqrt(ssr / (n - 1)) near (n - 1) / 4, where an earlier sampler
    # switched between two sigma updates.
    data = simulate_experiment(60, 0.0, 0.0, 1.0, seed=109)
    arms = (data.outcome[data.treatment == arm] for arm in (0, 1))
    ss_within = sum(((y - y.mean()) ** 2).sum() for y in arms)
    scale = 0.995 * 59 / (4 * 0.5) / math.sqrt(ss_within / 59)
    scaled = Dataset(outcome=data.outcome * scale, treatment=data.treatment)
    return scaled, PriorSpec(0.0, 1e4, 0.0, 1e3)


decades = st.floats(-3.0, 6.0).map(lambda e: 10.0**e)


@st.composite
def random_regimes(draw) -> tuple[Dataset, PriorSpec]:
    """n from 3 to 400, any arm split, the effect, noise, location and
    prior scales over decades, prior means near or far from the data."""
    n = draw(st.integers(3, 400))
    treated = draw(st.integers(1, n - 1))
    noise = draw(decades)
    effect = draw(st.floats(-1.0, 1.0)) * draw(decades)
    location = draw(st.floats(-1.0, 1.0)) * draw(decades)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    treatment = rng.permutation(np.repeat([1, 0], [treated, n - treated]))
    outcome = location + effect * treatment + rng.normal(0.0, noise, n)
    priors = PriorSpec(
        beta0_mean=location + draw(st.floats(-1.0, 1.0)) * draw(decades),
        beta0_sd=draw(decades),
        beta1_mean=draw(st.floats(-1.0, 1.0)) * draw(decades),
        beta1_sd=draw(decades),
        sigma_rate=draw(st.floats(-6.0, 1.0).map(lambda e: 10.0**e)),
    )
    return Dataset(outcome=outcome, treatment=treatment), priors


class TestExactPosterior:
    """The full kernel against the exact posterior of tests/posterior_oracle.py."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(case=random_regimes())
    @example(case=example_regime("application"))
    @example(case=example_regime("outcome x 1e8"))
    @example(case=example_regime("n = 60, prior sd 1e6"))
    @example(case=example_regime("n = 5"))
    @example(case=example_regime("n = 200,000"))
    @example(case=example_regime("bimodal"))
    @example(case=example_regime("sigma near the old update switch"))
    def test_matches_over_random_regimes(self, case):
        # 47 examples of 7 z values each: a two-sided Bonferroni bound at a
        # family-wise level of 0.001 is Phi^-1(1 - 0.001 / (2 * 329)) = 4.67.
        data, priors = case
        try:
            exact = exact_posterior(data, priors)
        except AssertionError:  # the oracle's grid does not cover the posterior
            assume(False)
        result = fit(data, ModelSpec(priors=priors, chains=4, iterations=1_250, warmup=250, seed=7))
        for statistic, z in standard_errors_off(result, exact).items():
            assert abs(z) < 4.67, (statistic, z)

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

    def test_binomial_z_near_zero_and_in_the_normal_regime(self):
        # At p = 1.07e-5 and ESS 4,500, one draw below 0 of 4,000 is a 5%
        # event; the normal approximation read it as z = 4.9. A share 5
        # MCSE off p = 0.3 at ESS 4,000 must still fail the 4.67 bound.
        assert 0.0 < binomial_z(1 / 4_000, 1.07e-5, 4_500) < 2.0
        mcse = math.sqrt(0.3 * 0.7 / 4_000)
        assert binomial_z(0.3 + 5.0 * mcse, 0.3, 4_000) > 4.67
        assert binomial_z(0.3 - 5.0 * mcse, 0.3, 4_000) < -4.67

    def test_probability_coverage_over_short_fits(self):
        # Over 40 pinned fits of 4 x 1,000 kept draws, the z of P(beta1 < 0)
        # should lie within +-1.96 about 95% of the time.
        data = simulate_experiment(996, 52.0, -2.49, 24.0, seed=109)
        exact = exact_posterior(data, PriorSpec())
        inside = 0
        for seed in range(40):
            result = fit(data, ModelSpec(chains=4, iterations=1_250, warmup=250, seed=seed))
            inside += abs(standard_errors_off(result, exact)["P(beta1 < 0)"]) <= 1.96
        assert inside >= 34, inside


def proposal_targets() -> dict[str, tuple[Callable[[np.ndarray], np.ndarray], int]]:
    """Log targets for u = log(sigma), each with the number of cells its
    proposal has: a flat one, where narrowing stops at once and the grid
    spans |u| <= 354; a narrow bump, where the grid stops short of both
    ends and an outer cell reaches each; and the bimodal regime's
    marginal."""
    data, priors = example_regime("bimodal")
    return {
        "flat": (np.zeros_like, 1_024),
        "narrow bump": (lambda u: -0.5 * ((u - 1.0) / 0.01) ** 2, 1_026),
        "bimodal": (_log_marginal(_fit_constants(data, priors), priors), 1_026),
    }


class TestProposal:
    """The sigma step's independence proposal: one piecewise-uniform
    density on cells that partition |log sigma| <= 354."""

    TARGETS = ("flat", "narrow bump", "bimodal")

    @staticmethod
    def build(target: str) -> _Proposal:
        log_p, cells = proposal_targets()[target]
        proposal = _Proposal(log_p)
        assert len(proposal.widths) == cells
        return proposal

    @pytest.mark.parametrize("target", TARGETS)
    def test_cells_partition_the_support(self, target):
        edges = self.build(target).edges
        assert (edges[0], edges[-1]) == (-354.0, 354.0)
        assert (np.diff(edges) > 0.0).all()

    @pytest.mark.parametrize("target", TARGETS)
    def test_masses_are_positive_and_sum_to_one(self, target):
        proposal = self.build(target)
        masses = np.exp(proposal.log_q) * proposal.widths
        assert (masses > 0.0).all()
        assert math.fsum(masses.tolist()) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("target", TARGETS)
    def test_positions_stay_in_their_cell(self, target):
        # A uniform midway through each cell's share of the mass picks it.
        proposal = self.build(target)
        cumulative = np.concatenate(([0.0], proposal.bounds, [1.0]))
        picks = 0.5 * (cumulative[:-1] + cumulative[1:])
        edges = proposal.edges
        for position in (0.0, math.nextafter(1.0, 0.0)):
            u, _ = proposal.draw(picks, np.full_like(picks, position))
            assert ((edges[:-1] <= u) & (u <= edges[1:])).all(), position
            assert (np.abs(u) <= 354.0).all(), position

    @pytest.mark.parametrize("target", TARGETS)
    def test_start_weight_is_minus_log_q_at_the_mode(self, target):
        # log p(mode) is the top, so the weight there is -log q alone.
        proposal = self.build(target)
        mode, weight = proposal.start
        assert mode in proposal.edges
        cell = int(np.searchsorted(proposal.edges, mode, side="right")) - 1
        assert weight == -proposal.log_q[min(cell, len(proposal.widths) - 1)]

    def test_both_modes_hold_mass(self):
        # The modes lie at sigma = 0.94 and 9.63, either side of sigma = 3.
        proposal = self.build("bimodal")
        masses = np.exp(proposal.log_q) * proposal.widths
        below = math.fsum(masses[proposal.edges[:-1] < math.log(3.0)].tolist())
        assert min(below, 1.0 - below) >= 0.4, below


class TestPinnedDraws:
    """SHA-256 of the draws and of each chain's ChainStats, pinned in
    criterion 3's three regimes (4 chains x 2,000 iterations, seed 42).

    sigma takes one independence Metropolis-Hastings step per iteration
    from its collapsed marginal, and the coefficients are drawn given it,
    so any change to the marginal, the proposal, the order in which a
    chain draws its variates, or the coefficient algebra changes these
    hashes. A refactor that leaves the sampler alone must keep them.
    """

    PINNED = {
        "application": (
            "35bdb42168a73e4f34e259765ef0d8f192817cc6fc61e7428df8b729fd46fcd5",
            (
                "dd35856eded7831f96a32087a94b203a56c2a31f31f15cfce876f47caef34f83",
                "8c109b806ff5629a16199039a690c41c943da802ca75ca392ca15cc347e92772",
                "b5951c95ef1c7bda3725aedc70f55c80a7cd5ef335d379ae659c80dc52319e6c",
                "f111c2decf32183fc52b96650f73d61c45a94dc983a4231d6e382784eef93b90",
            ),
        ),
        "outcome x 1e8": (
            "0da657e4cace77f6f0a9854c3c7c7b619e41bc5f5a225fd3fcda6e3797c6ff82",
            (
                "dd35856eded7831f96a32087a94b203a56c2a31f31f15cfce876f47caef34f83",
                "8c109b806ff5629a16199039a690c41c943da802ca75ca392ca15cc347e92772",
                "b1f54653fdce768d298f267b94983e69702a7cc0e50b9d313f00bad355411442",
                "fb19d08704efe53dfb8e1b65dd020bb61158c095d4894b12c351adaefc0a9555",
            ),
        ),
        "n = 60, prior sd 1e6": (
            "8a5887d820b1a24225496a12fea6dc0f6de5fc0bc229bc8f904620dd71aed6ea",
            (
                "dd35856eded7831f96a32087a94b203a56c2a31f31f15cfce876f47caef34f83",
                "8b4385f7ef0d51b7d9a54fccc6c4d642b07b374cbac88b1bbd2d1b6ae9d12f2e",
                "b1f54653fdce768d298f267b94983e69702a7cc0e50b9d313f00bad355411442",
                "fb19d08704efe53dfb8e1b65dd020bb61158c095d4894b12c351adaefc0a9555",
            ),
        ),
    }

    @staticmethod
    def draws_hashes() -> list[str]:
        """The draws' SHA-256 in each regime."""
        hashes = []
        for data, priors in criterion_3_regimes().values():
            spec = ModelSpec(priors=priors, chains=4, iterations=2_000, seed=42)
            hashes.append(hashlib.sha256(fit(data, spec).draws.values.tobytes()).hexdigest())
        return hashes

    @pytest.mark.parametrize("regime", list(PINNED))
    def test_draws_and_effort_are_unchanged(self, regime):
        data, priors = criterion_3_regimes()[regime]
        result = fit(data, ModelSpec(priors=priors, chains=4, iterations=2_000, seed=42))
        draws_sha, stats_sha = self.PINNED[regime]
        assert hashlib.sha256(result.draws.values.tobytes()).hexdigest() == draws_sha
        got = tuple(hashlib.sha256(repr(s).encode()).hexdigest() for s in result.chain_stats)
        assert got == stats_sha, result.chain_stats

    def test_draws_do_not_depend_on_simd_dispatch(self):
        # fit forms every drawn value without numpy's exp, log and tan, so
        # a process with numpy's SIMD dispatch off must draw the same bits.
        code = "from test_regress import TestPinnedDraws\nprint(*TestPinnedDraws.draws_hashes())\n"
        assert run_without_simd_dispatch(code).split() == self.draws_hashes()


class TestAllocationPeaks:
    """A chain holds its variates as arrays and Python floats for one block
    of iterations only, and a fit writes kept draws straight into one
    output array."""

    @pytest.mark.parametrize("resid_sd", [24.0, 24e8], ids=["likelihood-dominates", "prior-dominates"])
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
            mcses.append(sigma.std(ddof=1) / math.sqrt(ess(view(result.draws, "sigma"))))
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
        for name, rhat in rhats(result).items():
            assert rhat < 1.01, name

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
    # residual sum was NaN, which a sigma update must not take for 0, or
    # sigma walks down to 0.
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
