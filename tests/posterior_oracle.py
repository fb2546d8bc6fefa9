"""Exact posterior of the regression model, by 1-D quadrature (a test oracle).

Given sigma, the coefficients are bivariate normal, so they integrate out
in closed form and leave sigma's marginal posterior. In the offset
coordinates of the sampler, d = (b0 - ybar_c, b1 - (ybar_t - ybar_c)),
the prior of d is Normal(m, L^-1) with

    m = (mu0 - ybar_c, mu1 - (ybar_t - ybar_c)),  L^-1 = diag(s0^2, s1^2),

and the likelihood of d is Normal(0, sigma^2 X^-1) up to the factor
sigma^-n exp(-SS_within / (2 sigma^2)), where X = X'X = [[n, n_t], [n_t,
n_t]] and X^-1 = [[1/n_c, -1/n_c], [-1/n_c, 1/n_c + 1/n_t]]. With
C(sigma) = L^-1 + sigma^2 X^-1 and u = log(sigma),

    log p(u | y) = -(n-1) u - SS_within / (2 sigma^2) - rate sigma
                   - 1/2 log det P(sigma) - 1/2 m' C(sigma)^-1 m,

    det P(sigma) = n_c n_t / sigma^4 + (n / s1^2 + n_t / s0^2) / sigma^2
                   + 1 / (s0^2 s1^2),

where P(sigma) = X / sigma^2 + L is the conditional precision of d.
Every term is a sum of non-negative parts, so nothing cancels when the
outcome sits far from zero. Written instead as +1/2 k' P^-1 k with
k = L m, the quadratic form is the difference of two huge numbers and
loses every digit at an outcome scaled by 1e8.

Given sigma, b_j is normal with mean mu_j - s_j^2 (C^-1 m)_j and
variance s_j^2 - s_j^4 (C^-1)_jj. The variance expands into a sum of
non-negative parts, and the mean never adds an offset to the arm means,
which would cancel at an outcome scaled by 1e8. So P(b1 < 0 | y) and
every moment are 1-D trapezoid integrals over u.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

import numpy as np

from effectprob.diagnostics import ess
from effectprob.draws import ParameterView, view
from effectprob.regress import Dataset, FitResult, PriorSpec

# Trapezoid points over u, and how far below its peak log p(u | y) may
# fall inside the grid.
_POINTS = 20_001
_SPAN = 60.0


@dataclass(frozen=True)
class Marginal:
    """Mean, sd and kurtosis of one parameter's marginal posterior."""

    mean: float
    sd: float
    kurtosis: float


@dataclass(frozen=True)
class ExactPosterior:
    p_beta1_below_zero: float
    beta0: Marginal
    beta1: Marginal
    sigma: Marginal


def _arms(data: Dataset) -> tuple[int, float, float, int, float, float]:
    """(n_c, mean_c, ss_c, n_t, mean_t, ss_t), each sum exact."""
    stats = []
    for arm in (0, 1):
        y = data.outcome[data.treatment == arm]
        mean = math.fsum(y.tolist()) / len(y)
        stats += [len(y), mean, math.fsum(((y - mean) ** 2).tolist())]
    return tuple(stats)


def exact_posterior(data: Dataset, priors: PriorSpec) -> ExactPosterior:
    """P(beta1 < 0 | y) and the marginal moments, by quadrature over log sigma."""
    n_c, mean_c, ss_c, n_t, mean_t, ss_t = _arms(data)
    n = n_c + n_t
    ss_within = ss_c + ss_t
    v0, v1 = priors.beta0_sd**2, priors.beta1_sd**2
    m0 = priors.beta0_mean - mean_c
    m1 = priors.beta1_mean - (mean_t - mean_c)
    rate = priors.sigma_rate

    def conditionals(u: np.ndarray):
        s2 = np.exp(2.0 * u)
        # C = L^-1 + sigma^2 X^-1: det C and m' C^-1 m expanded into
        # non-negative terms, and C^-1 m.
        det_c = v0 * v1 + s2 * (v0 * (1.0 / n_c + 1.0 / n_t) + v1 / n_c) + s2 * s2 / (n_c * n_t)
        inv_m0 = (v1 * m0 + s2 * ((m0 + m1) / n_c + m0 / n_t)) / det_c
        inv_m1 = (v0 * m1 + s2 * (m0 + m1) / n_c) / det_c
        quad = (v1 * m0**2 + v0 * m1**2 + s2 * ((m0 + m1) ** 2 / n_c + m0**2 / n_t)) / det_c
        det_p = n_c * n_t / (s2 * s2) + (n / v1 + n_t / v0) / s2 + 1.0 / (v0 * v1)
        log_p = (
            -(n - 1.0) * u
            - ss_within / (2.0 * s2)
            - rate * np.exp(u)
            - 0.5 * np.log(det_p)
            - 0.5 * quad
        )
        mean0 = priors.beta0_mean - v0 * inv_m0
        mean1 = priors.beta1_mean - v1 * inv_m1
        var0 = v0 * s2 * (v1 / n_c + s2 / (n_c * n_t)) / det_c
        var1 = v1 * s2 * (v0 * (1.0 / n_c + 1.0 / n_t) + s2 / (n_c * n_t)) / det_c
        return log_p, mean0, var0, mean1, var1

    # Start 30 log units either side of the data's scale, then narrow the
    # grid three times to where log p lies within _SPAN of its peak.
    centre = 0.5 * math.log(ss_within / n)
    u = np.linspace(centre - 30.0, centre + 30.0, _POINTS)
    for _ in range(3):
        log_p = conditionals(u)[0]
        inside = np.flatnonzero(log_p > log_p.max() - _SPAN)
        u = np.linspace(u[max(inside[0] - 1, 0)], u[min(inside[-1] + 1, _POINTS - 1)], _POINTS)
    log_p, mean0, var0, mean1, var1 = conditionals(u)
    weight = np.exp(log_p - log_p.max())
    assert max(weight[0], weight[-1]) < 1e-12, "the grid does not cover the posterior"
    weight /= np.trapezoid(weight, u)

    def expect(values: np.ndarray) -> float:
        return float(np.trapezoid(weight * values, u))

    def normal_mixture(means: np.ndarray, variances: np.ndarray) -> Marginal:
        mean = expect(means)
        offset = means - mean
        var = expect(variances + offset**2)
        fourth = expect(3.0 * variances**2 + 6.0 * variances * offset**2 + offset**4)
        return Marginal(mean, math.sqrt(var), fourth / var**2)

    sigma = np.exp(u)
    sigma_mean = expect(sigma)
    sigma_var = expect((sigma - sigma_mean) ** 2)
    p_below = np.array(
        [0.5 * math.erfc(m / math.sqrt(2.0 * v)) for m, v in zip(mean1.tolist(), var1.tolist())]
    )
    return ExactPosterior(
        # The trapezoid's rounding can leave a probability of one at 1 + 2e-16.
        p_beta1_below_zero=min(max(expect(p_below), 0.0), 1.0),
        beta0=normal_mixture(mean0, var0),
        beta1=normal_mixture(mean1, var1),
        sigma=Marginal(
            sigma_mean,
            math.sqrt(sigma_var),
            expect((sigma - sigma_mean) ** 4) / sigma_var**2,
        ),
    )


def binomial_z(p_hat: float, p: float, n_eff: float) -> float:
    """The z of a share ``p_hat`` of ``n = round(n_eff)`` Bernoulli(p) draws.

    The tail is the exact binomial probability of a count at least as far
    from n p as k = round(p_hat n), on the side of p that ``p_hat`` lies;
    z is its standard normal quantile, signed like ``p_hat - p``, and 0
    when the tail holds half the mass or more. Near p = 0 or 1 this stays
    right where (p_hat - p) / sqrt(p (1 - p) / n) does not: at p = 1e-5
    and n = 4,500 one draw below zero is a 5% event, not a 4-sigma one.
    Where p is 0 or 1, z is 0 if ``p_hat`` equals p and infinite
    otherwise, so that any bound fails.
    """
    if not 0.0 < p < 1.0:
        return math.copysign(math.inf, p_hat - p) if p_hat != p else 0.0
    n = round(n_eff)
    k = round(p_hat * n)
    counts = range(k, n + 1) if p_hat > p else range(k + 1)
    log_choose = math.lgamma(n + 1)
    tail = math.fsum(
        math.exp(log_choose - math.lgamma(j + 1) - math.lgamma(n - j + 1)
                 + j * math.log(p) + (n - j) * math.log1p(-p))
        for j in counts
    )
    if tail >= 0.5:
        return 0.0
    if tail == 0.0:
        return math.copysign(math.inf, p_hat - p)
    return math.copysign(statistics.NormalDist().inv_cdf(tail), p_hat - p)


def standard_errors_off(result: FitResult, exact: ExactPosterior) -> dict[str, float]:
    """How far a fit lies from the exact posterior, in Monte Carlo standard errors.

    P(beta1 < 0) is scored by :func:`binomial_z` with the ESS of the
    indicator 1{beta1 < 0}. For a mean the error is sd / sqrt(ESS), and
    for an sd, sd sqrt((kurtosis - 1) / (4 ESS)). Each ESS comes from
    ``ess``.
    """
    below = view(result.draws, "beta1").per_chain < 0.0
    n_eff = ess(ParameterView("below", below.astype(float)))
    off = {"P(beta1 < 0)": binomial_z(float(below.mean()), exact.p_beta1_below_zero, n_eff)}
    for name in ("beta0", "beta1", "sigma"):
        marginal = getattr(exact, name)
        v = view(result.draws, name)
        draws, n_eff = v.pooled, ess(v)
        off[f"mean {name}"] = (draws.mean() - marginal.mean) / (marginal.sd / math.sqrt(n_eff))
        se_sd = marginal.sd * math.sqrt((marginal.kurtosis - 1.0) / (4.0 * n_eff))
        off[f"sd {name}"] = (draws.std(ddof=1) - marginal.sd) / se_sd
    return off
