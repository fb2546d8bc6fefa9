"""Calibration of the fitted model over its own prior predictive.

Simulation-based calibration (Talts, Betancourt, Simpson, Vehtari &
Gelman 2018, arXiv:1804.06788): draw (beta0, beta1, sigma) from
``PriorSpec()``'s priors, simulate a dataset from them, fit it, and rank
each true value among its posterior draws. If the sampler draws from the
posterior and mixes well, each rank is uniform over 0..99 whatever n,
sigma and the prior's pull are, so the ranks of all replications, put
in 10 bins, pass a chi-squared test. The oracles of
tests/test_regress.py check the exact posterior at chosen datasets;
this checks the whole of ``fit`` where the prior reaches.

The paper reads P(beta1 > 0 | y) at face value, so the test quantity
that matters most is the indicator 1{beta1 > 0} (Modrak et al. 2023,
arXiv:2211.02383): among replications whose fit reported P near p, a
share near p must have a true beta1 above 0.

Every seed is fixed, so the test is deterministic. Measured with numpy
2.4.6: chi-squared 4.7 (beta0), 3.5 (beta1) and 7.9 (sigma) against the
gate 27.9, the 0.1% point with 9 degrees of freedom; every group's
binomial z within 1.4 of 0. Scaling the conditional noise of beta1's
draw by 0.8 in ``_run_chain`` (a posterior 20% too narrow) gives beta1
a chi-squared of 42.4.
"""

from __future__ import annotations

import numpy as np
import pytest

from effectprob.regress import ModelSpec, PriorSpec, fit, simulate_experiment

from posterior_oracle import binomial_z

REPLICATIONS = 1_000
SIZES = (3, 4, 10, 30, 200)  # units per dataset, in turn
WARMUP, RANKED = 20, 99  # so every draw is past the mode start; ranks 0..99
CHI2_9_AT_0_1_PERCENT = 27.877
Z_AT_0_1_PERCENT = 3.291  # two-sided
PARAMETERS = ("beta0", "beta1", "sigma")  # the rows of a fit's draws


@pytest.fixture(scope="module")
def replications() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The true (beta0, beta1, sigma) of each replication, their ranks
    among its fit's draws, and its fit's P(beta1 > 0 | y)."""
    priors = PriorSpec()
    rng = np.random.default_rng(20_201)
    truths = np.column_stack([
        rng.normal(priors.beta0_mean, priors.beta0_sd, REPLICATIONS),
        rng.normal(priors.beta1_mean, priors.beta1_sd, REPLICATIONS),
        rng.exponential(1.0 / priors.sigma_rate, REPLICATIONS),
    ])
    ranks = np.empty((REPLICATIONS, 3), np.int64)
    reported = np.empty(REPLICATIONS)
    for r, truth in enumerate(truths):
        data = simulate_experiment(SIZES[r % len(SIZES)], *truth, seed=r)
        spec = ModelSpec(chains=1, iterations=WARMUP + RANKED, warmup=WARMUP, seed=r)
        draws = fit(data, spec).draws.values[:, 0]
        ranks[r] = (draws < truth[:, None]).sum(axis=1)
        reported[r] = (draws[1] > 0.0).mean()
    return truths, ranks, reported


@pytest.mark.parametrize("name", PARAMETERS)
def test_ranks_are_uniform(replications, name):
    _, ranks, _ = replications
    counts = np.bincount(ranks[:, PARAMETERS.index(name)] // 10, minlength=10)
    expected = REPLICATIONS / 10
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    assert chi2 < CHI2_9_AT_0_1_PERCENT, counts.tolist()


def test_reported_probability_of_a_positive_effect_is_calibrated(replications):
    # Replications grouped by the fifth of [0, 1] their P(beta1 > 0 | y)
    # lies in. Given its dataset, a true beta1 > 0 is a Bernoulli draw
    # with the posterior P, so a group's count varies no more than a
    # binomial count at the mean P: binomial_z is conservative here.
    truths, _, reported = replications
    groups = np.minimum((reported * 5).astype(np.int64), 4)
    for group in range(5):
        members = groups == group
        size = int(members.sum())
        assert size >= 20, (group, size)
        share, mean = float((truths[members, 1] > 0.0).mean()), float(reported[members].mean())
        z = binomial_z(share, mean, size)
        assert abs(z) < Z_AT_0_1_PERCENT, (group, size, share, mean, z)
