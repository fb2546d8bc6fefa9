"""Bayesian linear regression of an outcome on a binary treatment.

Model: y_i ~ Normal(b0 + b1 * d_i, sigma) with independent normal priors
on the intercept b0 and treatment effect b1 and an exponential prior on
the residual scale sigma.

The sampler is Gibbs-within-slice: (b0, b1) are drawn jointly from their
exact bivariate-normal full conditional given sigma (normal likelihood
times independent normal priors is conditionally conjugate), then sigma
is updated by slice sampling on u = log(sigma).

Both updates work from centred sufficient statistics: per arm, the
count, the mean and the sum of squared deviations from that mean, each
summed exactly (``math.fsum``) so that any row order gives the same
bits. The coefficients are drawn as offsets from the arm means, and the
sum of squared residuals is ``SS_within + n_c d0^2 + n_t (d0 + d1)^2``
with d0 = b0 - mean_c and d0 + d1 = b0 + b1 - mean_t. Nothing is
computed from raw totals, so nothing cancels when the outcome sits far
from zero (Chan, Golub & LeVeque 1983). Outcomes whose squared
deviations overflow are rejected with :class:`NonFiniteData`, and
outcomes whose spread is so small that n / sigma^2 would overflow (an sd
below about 1e-151 at n = 1000) with :class:`DegenerateDesign`.

Slice width. The sigma conditional on the log scale is
f(u) = -(n-1) u - ssr / (2 e^(2u)) - rate e^u. At its mode u*,
-f''(u*) = 2(n-1) + 3 rate e^(u*), so its standard deviation is about
1 / sqrt(2(n-1)) when the likelihood dominates. The step-out width is
w = 3 / sqrt(2(n-1)): three conditional sds when the likelihood
dominates, wider (never narrower) when the exponential prior does, and
1.0 in prior-only mode. The width must not depend on the current point,
or the update stops being reversible (Neal 2003, *Annals of
Statistics*, section 4.1). The step-out budget is 50.

Cost model. Computing the statistics is O(n), four exact sums over the
outcome. Each chain then costs O(iterations * E) scalar Python work,
E being the target evaluations per iteration: about 6 at n = 996 and at
n = 200,000 (one for the slice height, about three to step out, about
two to shrink), and up to about 13 where the prior dominates. A chain
draws its random variates in blocks, not one numpy call per scalar:
its standard normals (2 x iterations) in one call, its slice-height
exponentials in another, and its uniforms from a block of
4 x iterations that is refilled when used up. The draws are gathered
in Python lists and converted to one array at the end.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from .diagnostics import Diagnostics, diagnose
from .draws import Draws, view
from .errors import (
    DegenerateDesign,
    InvalidArgument,
    InvalidSigma,
    NonBinaryTreatment,
    NonFiniteData,
)

# Slice width in conditional standard deviations, and the step-out budget.
# The budget is what lets a chain started from the prior walk down to the
# mode: budgets of 1-4 with widths of 2-6 sds left n=200k chains short of
# it after 1,000 warm-up iterations.
_SLICE_SDS = 3.0
_SLICE_MAX_STEPOUTS = 50
_LOG_2 = math.log(2.0)
# The kernel forms the data precision n / sigma^2. Refusing outcomes whose
# n / (ss_within / n) exceeds this leaves sigma^2 a factor of 1024 to fall
# below ss_within / n, in warm-up or in the posterior's lower tail, before
# that precision overflows.
_MAX_DATA_PRECISION = sys.float_info.max / 1024.0


@dataclass(frozen=True)
class PriorSpec:
    """Prior hyperparameters: two normals and one exponential rate."""

    beta0_mean: float = 50.0
    beta0_sd: float = 20.0
    beta1_mean: float = 0.0
    beta1_sd: float = 5.0
    sigma_rate: float = 0.5

    def __post_init__(self) -> None:
        if not (self.beta0_sd > 0 and self.beta1_sd > 0 and self.sigma_rate > 0):
            raise InvalidArgument("prior sds and the exponential rate must be positive")


@dataclass(frozen=True)
class ModelSpec:
    """Sampler protocol: chains, iterations, warmup, seed, column names.

    Defaults are 4 chains of 10,000 iterations with the first 1,000
    discarded. Chain c draws from an independent stream derived from
    ``(seed, c)``, so a fit is bit-reproducible from the spec alone.
    """

    priors: PriorSpec = field(default_factory=PriorSpec)
    chains: int = 4
    iterations: int = 10_000
    warmup: int = 1_000
    seed: int = 0
    outcome_column: str = "outcome"
    treatment_column: str = "treatment"

    def __post_init__(self) -> None:
        _check_seed(self.seed)
        if self.chains < 1:
            raise InvalidArgument(f"chains must be >= 1, got {self.chains}")
        if self.warmup < 0 or self.warmup >= self.iterations:
            raise InvalidArgument(
                f"need 0 <= warmup < iterations, got warmup={self.warmup}, "
                f"iterations={self.iterations}"
            )


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise InvalidArgument(f"seed must be >= 0, got {seed}")


@dataclass(frozen=True, eq=False)
class Dataset:
    """Experimental data: a real outcome and a 0/1 treatment per unit.

    Construction copies both vectors into read-only arrays that the
    dataset owns.
    """

    outcome: np.ndarray
    treatment: np.ndarray

    def __post_init__(self) -> None:
        outcome = np.array(self.outcome, dtype=float)
        treatment = np.asarray(self.treatment)
        if outcome.ndim != 1 or treatment.ndim != 1 or len(outcome) != len(treatment):
            raise InvalidArgument("outcome and treatment must be equal-length vectors")
        if len(outcome) < 3:
            raise InvalidArgument(f"need at least 3 units, got {len(outcome)}")
        if not np.isin(treatment, (0, 1)).all():
            raise NonBinaryTreatment("treatment values must be 0 or 1")
        if not np.isfinite(outcome).all():
            raise NonFiniteData("outcome contains NaN or infinite values")
        treatment = treatment.astype(np.int64)
        outcome.setflags(write=False)
        treatment.setflags(write=False)
        object.__setattr__(self, "outcome", outcome)
        object.__setattr__(self, "treatment", treatment)

    @property
    def n(self) -> int:
        return len(self.outcome)


@dataclass(frozen=True)
class ChainStats:
    """Per-chain slice-sampler effort, averaged over iterations.

    ``collapses_per_iteration`` counts the updates whose shrinking
    interval collapsed onto the current point, which then keep it.
    """

    chain: int
    slice_evals_per_iteration: float
    stepouts_per_iteration: float
    collapses_per_iteration: float


@dataclass(frozen=True, eq=False)
class FitResult:
    """Posterior draws, per-parameter diagnostics, per-chain sampler stats."""

    draws: Draws
    diagnostics: dict[str, Diagnostics]
    chain_stats: tuple[ChainStats, ...]


@dataclass(frozen=True, slots=True)
class _SuffStats:
    """Per-arm count, mean and centred sum of squares of the outcome.

    Every sum is exact (``math.fsum``), so any permutation of the rows
    yields bit-identical statistics, hence bit-identical chains.
    """

    n_ctrl: int = 0
    mean_ctrl: float = 0.0
    ss_ctrl: float = 0.0
    n_trt: int = 0
    mean_trt: float = 0.0
    ss_trt: float = 0.0

    @classmethod
    def from_dataset(cls, data: Dataset) -> "_SuffStats":
        """Statistics of both arms; each arm must hold at least one unit.

        Raises :class:`NonFiniteData` when a sum or a squared deviation
        overflows, and :class:`DegenerateDesign` when every arm is
        constant, which leaves sigma's posterior improper, or when the
        spread is so small that the kernel's n / sigma^2 would overflow.
        """
        treated = data.treatment == 1
        stats = cls(
            *_arm_stats(data.outcome[~treated]),
            *_arm_stats(data.outcome[treated]),
        )
        ss_within = stats.ss_ctrl + stats.ss_trt
        if ss_within == 0.0:
            raise DegenerateDesign(
                "the outcome is constant within each arm; the residual scale's "
                "posterior is improper"
            )
        n = stats.n_ctrl + stats.n_trt
        if n * n / ss_within > _MAX_DATA_PRECISION:
            raise DegenerateDesign(
                f"the outcome's spread within arms is too small to fit (sd about "
                f"{math.sqrt(ss_within / n):.3g} over {n} units); rescale it"
            )
        return stats


def _arm_stats(y: np.ndarray) -> tuple[int, float, float]:
    """(count, mean, sum of squared deviations from the mean) of one arm."""
    with np.errstate(over="ignore"):
        try:
            mean = math.fsum(y.tolist()) / len(y)
            dev = y - mean
            ss = math.fsum((dev * dev).tolist())
        except OverflowError:  # fsum's intermediate overflow
            ss = math.inf
    if not math.isfinite(ss):
        raise NonFiniteData(
            "the outcome's squared deviations from its arm means overflow; rescale it"
        )
    return len(y), mean, ss


def simulate_experiment(
    n: int, beta0: float, beta1: float, resid_sd: float, seed: int
) -> Dataset:
    """Synthesize a balanced two-arm experiment.

    floor(n / 2) units are randomly assigned to treatment; outcomes are
    ``beta0 + beta1 * d + Normal(0, resid_sd)`` noise. Deterministic for
    a given seed.
    """
    n = int(n)
    if n < 3:
        raise InvalidArgument(f"need n >= 3 to form a dataset, got {n}")
    if not resid_sd > 0:
        raise InvalidArgument(f"resid_sd must be positive, got {resid_sd!r}")
    _check_seed(seed)
    rng = np.random.default_rng(seed)
    treatment = np.zeros(n, dtype=np.int64)
    treatment[: n // 2] = 1
    treatment = rng.permutation(treatment)
    outcome = beta0 + beta1 * treatment + rng.normal(0.0, resid_sd, size=n)
    return Dataset(outcome=outcome, treatment=treatment)


def fit(
    data: Dataset | None,
    spec: ModelSpec,
    *,
    fixed_sigma: float | None = None,
    prior_only: bool = False,
) -> FitResult:
    """Run the Gibbs-within-slice sampler and assemble post-warmup draws.

    Each chain is initialized from the priors and advanced for
    ``spec.iterations`` iterations; the first ``spec.warmup`` are
    discarded. Chains use independent RNG streams seeded from
    ``(spec.seed, chain_index)``, so identical inputs give bit-identical
    results.

    Two test modes bypass parts of the kernel:

    - ``fixed_sigma`` holds the residual scale constant, making each
      (b0, b1) draw an exact sample from the conjugate posterior; the
      constant scale is omitted from the emitted draws.
    - ``prior_only`` drops the likelihood entirely (``data`` may be
      None), so the kernel should reproduce the priors.

    Raises
    ------
    DegenerateDesign
        All units share one arm, leaving the effect unidentified; the
        outcome is constant within each arm, leaving sigma's posterior
        improper; or its spread within arms is too small for the data
        precision n / sigma^2 to fit in a double.
    NonFiniteData
        The outcome's squared deviations from its arm means, or their
        sum, overflow a double.
    InvalidSigma
        ``fixed_sigma`` is not a positive finite number, or so small that
        the data precision n / fixed_sigma^2 overflows.
    """
    if prior_only:
        stats = _SuffStats()
    else:
        if data is None:
            raise InvalidArgument("data is required unless prior_only=True")
        n_treated = int(np.count_nonzero(data.treatment))
        if n_treated in (0, data.n):
            raise DegenerateDesign(
                f"all {data.n} units are in arm {int(n_treated > 0)}; the effect is unidentified"
            )
        stats = _SuffStats.from_dataset(data)
    if fixed_sigma is not None and not (
        math.isfinite(fixed_sigma)
        and fixed_sigma > 0
        and math.isfinite(max(stats.n_ctrl + stats.n_trt, 1) / fixed_sigma / fixed_sigma)
    ):
        raise InvalidSigma(
            f"fixed_sigma must be positive, finite and large enough for n / fixed_sigma^2 "
            f"to be finite, got {fixed_sigma!r}"
        )

    names = ("beta0", "beta1") if fixed_sigma is not None else ("beta0", "beta1", "sigma")
    values = np.empty((len(names), spec.chains, spec.iterations - spec.warmup))
    chain_stats = []
    for c in range(spec.chains):
        rng = np.random.default_rng([spec.seed, c])
        out, effort = _run_chain(stats, spec, rng, fixed_sigma, c)
        values[:, c, :] = out[: len(names)]
        chain_stats.append(effort)

    draws = Draws(parameter_names=names, values=values)
    diagnostics = {name: diagnose(view(draws, name)) for name in names}
    return FitResult(draws=draws, diagnostics=diagnostics, chain_stats=tuple(chain_stats))


def _run_chain(
    stats: _SuffStats,
    spec: ModelSpec,
    rng: np.random.Generator,
    fixed_sigma: float | None,
    chain: int,
) -> tuple[np.ndarray, ChainStats]:
    """One chain: rows (beta0, beta1, sigma) of post-warmup draws, and its effort.

    The coefficients are drawn as offsets d = (d0, d1) from (mean_c,
    mean_t - mean_c). Their conditional precision is P = X'X / sigma^2
    plus the prior precision; with a binary treatment X'X is [[n, n_t],
    [n_t, n_t]], so the draw is scalar 2x2 algebra. With P = L L' and k
    the prior precision times the prior mean of d, the conditional mean
    is L'^-1 L^-1 k and the noise L'^-1 z for a standard normal pair z,
    so d = L'^-1 (L^-1 k + z): one forward and one back substitution,
    and no determinant to overflow.
    """
    priors = spec.priors
    prec0 = 1.0 / (priors.beta0_sd * priors.beta0_sd)
    prec1 = 1.0 / (priors.beta1_sd * priors.beta1_sd)
    rate = priors.sigma_rate
    n_ctrl, n_trt = stats.n_ctrl, stats.n_trt
    n = n_ctrl + n_trt
    ss_within = stats.ss_ctrl + stats.ss_trt
    base0 = stats.mean_ctrl
    base1 = stats.mean_trt - stats.mean_ctrl
    # Prior precision times prior mean, in the offset coordinates.
    k0 = (priors.beta0_mean - base0) * prec0
    k1 = (priors.beta1_mean - base1) * prec1
    sample_sigma = fixed_sigma is None

    if sample_sigma:
        sigma = rng.exponential(1.0 / rate)
        while sigma == 0.0:
            sigma = rng.exponential(1.0 / rate)
    else:
        sigma = fixed_sigma
    log_sigma = math.log(sigma)
    z0s, z1s = rng.standard_normal((2, spec.iterations)).tolist()
    drops = rng.standard_exponential(spec.iterations).tolist()
    uniform = _uniforms(rng, 4 * spec.iterations).__next__
    width = _slice_width(n)

    b0s, b1s, sigmas = [], [], []
    evals = stepouts = collapses = 0
    for z0, z1, drop in zip(z0s, z1s, drops):
        inv_s2 = 1.0 / (sigma * sigma)
        b = n_trt * inv_s2
        l11 = math.sqrt(n * inv_s2 + prec0)
        l21 = b / l11
        l22 = math.sqrt(b + prec1 - l21 * l21)
        w0 = k0 / l11
        d1 = ((k1 - l21 * w0) / l22 + z1) / l22
        d0 = (w0 + z0 - l21 * d1) / l11
        if sample_sigma:
            d_trt = d0 + d1
            ssr = ss_within + n_ctrl * d0 * d0 + n_trt * d_trt * d_trt
            log_sigma, e, s, collapsed = _slice_log_sigma(
                log_sigma, n, ssr, rate, width, drop, uniform
            )
            sigma = math.exp(log_sigma)
            evals += e
            stepouts += s
            collapses += collapsed
        b0s.append(base0 + d0)
        b1s.append(base1 + d1)
        sigmas.append(sigma)

    iterations = spec.iterations
    effort = ChainStats(
        chain=chain,
        slice_evals_per_iteration=evals / iterations,
        stepouts_per_iteration=stepouts / iterations,
        collapses_per_iteration=collapses / iterations,
    )
    return np.array((b0s, b1s, sigmas))[:, spec.warmup :], effort


def _uniforms(rng: np.random.Generator, block: int) -> Iterator[float]:
    """Standard uniforms, drawn ``block`` at a time."""
    while True:
        yield from rng.random(block).tolist()


def _log_sigma_target(u: float, n: int, log_half_ssr: float, rate: float) -> float:
    """Log density of u = log(sigma) under the conditional of sigma.

    p(sigma | rest) is proportional to sigma^(-n) * exp(-ssr / (2 sigma^2))
    * exp(-rate * sigma); the change of variables adds +u, giving
    -(n - 1) u - ssr / (2 e^(2u)) - rate e^u. The middle term is
    evaluated as exp(log(ssr / 2) - 2u), which is 0 when ssr = 0.
    """
    x = log_half_ssr - 2.0 * u
    if u > 709.0 or x > 709.0:
        return -math.inf
    return -(n - 1.0) * u - math.exp(x) - rate * math.exp(u)


def _slice_width(n: int) -> float:
    """Step-out width for the log(sigma) update given n units.

    At the conditional's mode u*, -f''(u*) = 2(n-1) + 3 rate e^(u*) >=
    2(n-1), so this is three conditional sds when the likelihood
    dominates, and wider, never narrower, when the prior does. It is
    1.0 in prior-only mode (n = 0).
    """
    return _SLICE_SDS / math.sqrt(2.0 * (n - 1.0)) if n > 1 else 1.0


def _slice_log_sigma(
    u0: float,
    n: int,
    ssr: float,
    rate: float,
    width: float,
    drop: float,
    uniform: Callable[[], float],
) -> tuple[float, int, int, bool]:
    """One slice-sampling update of u = log(sigma): step out, then shrink.

    ``width`` must not depend on ``u0`` (see :func:`_slice_width`). The
    slice sits ``drop`` (a standard exponential variate) below the
    target at ``u0``; ``uniform`` supplies standard uniforms. Returns the
    new point, the target evaluations, the step-outs, and whether the
    interval collapsed onto ``u0``, which is then kept.
    """
    log_half_ssr = math.log(ssr) - _LOG_2 if ssr > 0.0 else -math.inf
    log_height = _log_sigma_target(u0, n, log_half_ssr, rate) - drop
    evals = 1

    left = u0 - width * uniform()
    right = left + width
    # Randomly allocate the step-out budget between the two directions.
    budget_left = int(_SLICE_MAX_STEPOUTS * uniform())
    budget_right = (_SLICE_MAX_STEPOUTS - 1) - budget_left
    stepouts = 0
    while budget_left > 0:
        evals += 1
        if _log_sigma_target(left, n, log_half_ssr, rate) <= log_height:
            break
        left -= width
        budget_left -= 1
        stepouts += 1
    while budget_right > 0:
        evals += 1
        if _log_sigma_target(right, n, log_half_ssr, rate) <= log_height:
            break
        right += width
        budget_right -= 1
        stepouts += 1

    while right - left >= 1e-15 * (abs(u0) + 1.0):
        u1 = left + (right - left) * uniform()
        evals += 1
        if _log_sigma_target(u1, n, log_half_ssr, rate) > log_height:
            return u1, evals, stepouts, False
        if u1 < u0:
            left = u1
        else:
            right = u1
    return u0, evals, stepouts, True
