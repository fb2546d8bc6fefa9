"""Bayesian linear regression of an outcome on a binary treatment.

Model: y_i ~ Normal(b0 + b1 * d_i, sigma) with independent normal priors
on the intercept b0 and treatment effect b1 and an exponential prior on
the residual scale sigma.

The sampler is Gibbs sampling: (b0, b1) are drawn jointly from their
exact bivariate-normal full conditional given sigma (normal likelihood
times independent normal priors is conditionally conjugate), then sigma
is updated given them by one of two steps, chosen from (n, ssr, rate)
alone, ssr being the sum of squared residuals. Where rate * sigma_hat <=
(n - 1) / 4, with sigma_hat = sqrt(ssr / (n - 1)), the likelihood
dominates, and sigma takes an independence Metropolis-Hastings step whose
proposal is the likelihood's inverse gamma tilted toward the exponential
prior (:func:`_mh_sigma`); it accepts over 99% of proposals at the
application's scale and about 90% at the switch. Elsewhere, where the
prior dominates, sigma is updated by slice sampling on u = log(sigma)
(:func:`_slice_log_sigma`). Each step leaves sigma's conditional
invariant, and the choice depends only on what the step conditions on,
so the chain keeps the posterior whichever step each iteration takes.

The updates work from centred sufficient statistics: per arm, the
count, the mean and the sum of squared deviations from that mean, each
summed exactly (``math.fsum``) so that any row order gives the same
bits. The coefficients are drawn as offsets from the arm means, and the
sum of squared residuals is ``SS_within + n_c d0^2 + n_t (d0 + d1)^2``
with d0 = b0 - mean_c and d0 + d1 = b0 + b1 - mean_t. Nothing is
computed from raw totals, so nothing cancels when the outcome sits far
from zero (Chan, Golub & LeVeque 1983).

One setup per fit, before the first chain, forms these statistics and
the prior terms, and makes every refusal that needs both the data and
the priors, in the order :func:`fit` lists. Constancy within the arms is
read from the values, not from a rounded sum of squares; a spread whose
n / sigma^2 would overflow (an sd below about 1e-151 at n = 1000) is
refused, squared deviations that underflow to 0 included. The chains
then raise nothing.

Slice width. The sigma conditional on the log scale is
f(u) = -(n-1) u - ssr / (2 e^(2u)) - rate e^u. At its mode u*,
-f''(u*) = 2(n-1) + 3 rate e^(u*), so its standard deviation is about
1 / sqrt(2(n-1)) when the likelihood dominates. The step-out width is
w = 3 / sqrt(2(n-1)): three conditional sds when the likelihood
dominates, wider (never narrower) when the exponential prior does. The
width must not depend on the current point, or the update stops being
reversible (Neal 2003, *Annals of Statistics*, section 4.1). The
step-out budget is 50.

Cost model. The setup is O(n): four exact sums over the outcome, read
through memoryviews rather than list copies, and one equality pass.
Each chain then costs O(iterations * E) scalar Python work, E being the
sigma-target evaluations per iteration. The Metropolis-Hastings step
makes one, which costs two ``sqrt`` and about 15 flops and no ``exp``,
so E = 1 at the benchmark's scales (n = 996 and n = 200,000, outcome
sd 24). The slice update makes about 6 (one for the slice height, about
three to step out, about two to shrink), and up to about 13 where the
prior dominates. Its height costs no ``exp``: it is f(u0) - drop, formed
from the sigma and 1 / sigma^2 the coefficient step already has. Every
other slice evaluation costs one ``exp``, e = e^u, and is written inline
in the update, with no function call. A chain draws its random variates
in blocks, not one numpy call per scalar: its standard normals
(2 x iterations) in one call, its exponentials (the slice height's drop
or the Metropolis-Hastings acceptance threshold) in another, its
uniforms from blocks of 4,096, refilled when used up and handed out by a
C-level iterator, and its Gamma((n - 1) / 2) variates in one call on a
child stream, which leaves the other variates as they would be without
it. It keeps these as arrays, 32 B per iteration, and turns them into
Python floats one block of 1,024 iterations at a time. Each block's draws
are gathered in Python lists and written, warm-up left out, into the
fit's one ``(3, chains, kept iterations)`` array when the block ends. So
a chain's peak is about 40 B per iteration, and a fit's, with that array
and the copy :class:`~effectprob.draws.Draws` makes, about 100 B.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import asdict, astuple, dataclass, field
from typing import Callable, Iterator

import numpy as np

from .diagnostics import _MIN_ITERATIONS, Diagnostics, diagnose
from .draws import Draws, view
from .errors import DegenerateDesign, InvalidArgument, NonBinaryTreatment, NonFiniteData

# Slice width in conditional standard deviations, and the step-out budget.
# The budget is what lets a chain started from the prior walk down to the
# mode: budgets of 1-4 with widths of 2-6 sds left n=200k chains short of
# it after 1,000 warm-up iterations.
_SLICE_SDS = 3.0
_SLICE_MAX_STEPOUTS = 50
# Above this log sigma the kernel's sigma^2 would overflow; the sigma
# target is -inf there.
_MAX_LOG_SIGMA = 354.0
_MAX_SIGMA = math.exp(_MAX_LOG_SIGMA)
# sigma is updated by an independence Metropolis-Hastings step where
# rate * sigma_hat <= _MH_SWITCH * (n - 1), sigma_hat = sqrt(ssr / (n - 1)),
# and by the log(sigma) slice update elsewhere. At the switch the step
# still accepts about 90% of its proposals.
_MH_SWITCH = 0.25
# The kernel forms the data precision n / sigma^2. Refusing outcomes whose
# n / (ss_within / n) exceeds this leaves sigma^2 a factor of 1024 to fall
# below ss_within / n, in warm-up or in the posterior's lower tail, before
# that precision overflows.
_MAX_DATA_PRECISION = sys.float_info.max / 1024.0
# Prior sds must be at least 1 / _MAX_SCALE and the rate within a factor
# _MAX_SCALE of 1: the kernel forms 1 / sd^2, and sigma^2 and n / sigma^2 for
# a start sigma = E / rate (E standard exponential), finite unless E < 1e-14.
_MAX_SCALE = 1e140
# A chain turns its variates into Python floats, and gathers its draws in
# Python lists, this many iterations at a time, so that the Python objects
# it holds do not grow with its length. Generator.random fills its output
# in order, so the uniforms' block size changes none of them.
_CHAIN_BLOCK = 1_024
_UNIFORM_BLOCK = 4 * _CHAIN_BLOCK


@dataclass(frozen=True)
class PriorSpec:
    """Prior hyperparameters: two normals and one exponential rate."""

    beta0_mean: float = 50.0
    beta0_sd: float = 20.0
    beta1_mean: float = 0.0
    beta1_sd: float = 5.0
    sigma_rate: float = 0.5

    def __post_init__(self) -> None:
        for name, value in asdict(self).items():
            object.__setattr__(self, name, float(value))
        if not (
            all(math.isfinite(value) for value in astuple(self))
            and min(self.beta0_sd, self.beta1_sd) >= 1.0 / _MAX_SCALE
            and 1.0 / _MAX_SCALE <= self.sigma_rate <= _MAX_SCALE
        ):
            raise InvalidArgument(
                f"prior values must be finite, the sds at least {1.0 / _MAX_SCALE:g} and the "
                f"rate between {1.0 / _MAX_SCALE:g} and {_MAX_SCALE:g}; got {self}"
            )


@dataclass(frozen=True)
class ModelSpec:
    """Sampler protocol: priors, chains, iterations, warmup, seed.

    Defaults are 4 chains of 10,000 iterations with the first 1,000
    discarded. Chain c draws from an independent stream derived from
    ``(seed, c)``, so a fit is bit-reproducible from the spec alone.
    Construction raises :class:`InvalidArgument` for a negative seed or
    warmup, no chains, or fewer than 4 iterations kept after warmup,
    which split R-hat needs (two per split half).
    """

    priors: PriorSpec = field(default_factory=PriorSpec)
    chains: int = 4
    iterations: int = 10_000
    warmup: int = 1_000
    seed: int = 0

    def __post_init__(self) -> None:
        _check_seed(self.seed)
        if self.chains < 1:
            raise InvalidArgument(f"chains must be >= 1, got {self.chains}")
        if self.warmup < 0 or self.iterations - self.warmup < _MIN_ITERATIONS:
            raise InvalidArgument(
                f"need warmup >= 0 and at least {_MIN_ITERATIONS} iterations after it, got "
                f"warmup={self.warmup}, iterations={self.iterations}"
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
    """Per-chain effort of the sigma updates, averaged over iterations.

    ``slice_evals_per_iteration`` counts sigma-target evaluations by
    either update: one per Metropolis-Hastings step, and every one a
    slice update makes, its height's included. ``stepouts_per_iteration``
    and ``collapses_per_iteration`` count slice updates' step-outs, and
    the updates whose shrinking interval collapsed onto the current point,
    which then keep it. ``rejections_per_iteration`` counts the
    Metropolis-Hastings steps that kept sigma.
    """

    chain: int
    slice_evals_per_iteration: float
    stepouts_per_iteration: float
    collapses_per_iteration: float
    rejections_per_iteration: float


@dataclass(frozen=True, eq=False)
class FitResult:
    """Posterior draws, per-parameter diagnostics, per-chain sampler stats."""

    draws: Draws
    diagnostics: dict[str, Diagnostics]
    chain_stats: tuple[ChainStats, ...]


def _fit_constants(data: Dataset, priors: PriorSpec) -> tuple[float, ...]:
    """Make every refusal that needs both the data and the priors, then
    return the floats each chain's loop reads.

    The refusals, in order: an empty arm (:class:`DegenerateDesign`); an
    overflowing sum (:class:`NonFiniteData`); constant arms, then a spread
    too small for n / sigma^2, squared deviations that underflow to 0
    included (both :class:`DegenerateDesign`); a prior mean whose k
    overflows, then prior means whose residual sum n (|D0| + |D1|)^2,
    times 1024 for headroom, overflows, D being a prior mean minus its
    estimate and counted only where |D| exceeds its prior sd (both
    :class:`InvalidArgument`). Returns ``(n_ctrl, n_trt,
    ss_within, base0, base1, prec0, prec1, k0, k1)``, k being the prior
    precision times the prior mean of the offsets from (base0, base1) =
    (mean_c, mean_t - mean_c). Every sum is exact (``math.fsum``), so any
    row order gives the same bits, hence the same chains.
    """
    treated = data.treatment == 1
    n_trt = int(np.count_nonzero(treated))
    if n_trt in (0, data.n):
        raise DegenerateDesign(
            f"all {data.n} units are in arm {int(n_trt > 0)}; the effect is unidentified"
        )
    ctrl, trt = data.outcome[~treated], data.outcome[treated]
    mean_ctrl, ss_ctrl = _arm_stats(ctrl)
    mean_trt, ss_trt = _arm_stats(trt)
    # Decided from the values: a mean that fsum / n rounds leaves a
    # constant arm a nonzero sum of squares.
    if (ctrl == ctrl[0]).all() and (trt == trt[0]).all():
        raise DegenerateDesign(
            "the outcome is constant within each arm; the residual scale's "
            "posterior is improper"
        )
    ss_within = ss_ctrl + ss_trt
    if ss_within == 0.0 or data.n * data.n / ss_within > _MAX_DATA_PRECISION:
        raise DegenerateDesign(
            f"the outcome's spread within arms is too small to fit (sd about "
            f"{math.sqrt(ss_within / data.n):.3g} over {data.n} units); rescale it"
        )

    prec0 = 1.0 / (priors.beta0_sd * priors.beta0_sd)
    prec1 = 1.0 / (priors.beta1_sd * priors.beta1_sd)
    base0, base1 = mean_ctrl, mean_trt - mean_ctrl
    k0 = (priors.beta0_mean - base0) * prec0
    k1 = (priors.beta1_mean - base1) * prec1
    # The residual sum at the prior means, with headroom: past it, the
    # posterior can lie beyond the double range. An offset within its sd is
    # left out, as the prior's penalty at the data is then at most 1/2.
    far = 0.0
    for name, k, mean, sd, base in (
        ("beta0", k0, priors.beta0_mean, priors.beta0_sd, base0),
        ("beta1", k1, priors.beta1_mean, priors.beta1_sd, base1),
    ):
        if not math.isfinite(k):
            raise InvalidArgument(
                f"the {name} prior's mean {mean:g} is too far from the data's estimate "
                f"{base:g} for its sd {sd:g}: their difference over sd^2 overflows"
            )
        if abs(mean - base) > sd:
            far += abs(mean - base)
    if not math.isfinite(data.n * far * far * 1024.0):
        raise InvalidArgument(
            f"the prior means ({priors.beta0_mean:g}, {priors.beta1_mean:g}) are too far from "
            f"the data's estimates ({base0:g}, {base1:g}): the residual sum there overflows"
        )
    # Floats, so that no product in the loop converts an int.
    n_ctrl = float(data.n - n_trt)
    return n_ctrl, float(n_trt), ss_within, base0, base1, prec0, prec1, k0, k1


def _arm_stats(y: np.ndarray) -> tuple[float, float]:
    """(mean, sum of squared deviations from the mean) of one arm."""
    with np.errstate(over="ignore"):
        try:
            mean = math.fsum(memoryview(y)) / len(y)
            dev = y - mean
            ss = math.fsum(memoryview(dev * dev))
        except OverflowError:  # fsum's intermediate overflow
            ss = math.inf
    if not math.isfinite(ss):
        raise NonFiniteData(
            "the outcome's squared deviations from its arm means overflow; rescale it"
        )
    return mean, ss


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
    treatment = np.zeros(n, dtype=np.int8)
    treatment[: n // 2] = 1
    rng.shuffle(treatment)
    with np.errstate(over="ignore", invalid="ignore"):
        # An overflowing outcome is Dataset's NonFiniteData, not a warning.
        # (beta0 + beta1 * treatment) + noise, built in one buffer.
        outcome = np.multiply(beta1, treatment, dtype=np.float64)
        outcome += beta0
        outcome += rng.normal(0.0, resid_sd, size=n)
    return Dataset(outcome=outcome, treatment=treatment)


def fit(data: Dataset, spec: ModelSpec) -> FitResult:
    """Run the Gibbs sampler and assemble post-warmup draws.

    Each chain is initialized from the priors and advanced for
    ``spec.iterations`` iterations; the first ``spec.warmup`` are
    discarded. Chains use independent RNG streams seeded from
    ``(spec.seed, chain_index)``, so identical inputs give bit-identical
    results. A parameter whose split sequences are all constant, such as
    a coefficient held at one double by a very narrow prior, gets an
    R-hat of NaN (see :func:`~effectprob.diagnostics.split_rhat`). Every
    refusal below is made once, before the first iteration, in the order
    listed.

    Raises
    ------
    DegenerateDesign
        All units share one arm, leaving the effect unidentified.
    NonFiniteData
        An arm's sum, or its squared deviations from its mean, overflow
        a double.
    DegenerateDesign
        The outcome is constant within each arm, leaving sigma's
        posterior improper; or its spread within arms is too small for
        the data precision n / sigma^2 to fit in a double.
    InvalidArgument
        A prior mean is too far from the data's estimate for its sd:
        their difference over sd^2, or the residual sum at the prior
        means that lie more than their sds away, overflows.
    """
    constants = _fit_constants(data, spec.priors)
    kept = np.empty((3, spec.chains, spec.iterations - spec.warmup))
    efforts = tuple(_run_chain(constants, spec, c, kept[:, c]) for c in range(spec.chains))
    draws = Draws(parameter_names=("beta0", "beta1", "sigma"), values=kept)
    del kept  # Draws holds its own copy; the diagnostics run without this one.
    diagnostics = {name: diagnose(view(draws, name)) for name in draws.parameter_names}
    return FitResult(draws, diagnostics, efforts)


def _run_chain(
    constants: tuple[float, ...], spec: ModelSpec, chain: int, kept: np.ndarray
) -> ChainStats:
    """One chain: writes its post-warmup draws into the rows (beta0, beta1,
    sigma) of ``kept``, a ``(3, iterations - warmup)`` array, and returns
    its effort.

    The coefficients are drawn as offsets d = (d0, d1) from (mean_c,
    mean_t - mean_c). Their conditional precision is P = X'X / sigma^2
    plus the prior precision; with a binary treatment X'X is [[n, n_t],
    [n_t, n_t]], so the draw is scalar 2x2 algebra. With P = L L' and k
    the prior precision times the prior mean of d, the conditional mean
    is L'^-1 L^-1 k and the noise L'^-1 z for a standard normal pair z,
    so d = L'^-1 (L^-1 k + z): one forward and one back substitution,
    and no determinant to overflow.
    """
    n_ctrl, n_trt, ss_within, base0, base1, prec0, prec1, k0, k1 = constants
    n = n_ctrl + n_trt
    rate = spec.priors.sigma_rate

    rng = np.random.default_rng([spec.seed, chain])
    sigma = rng.exponential(1.0 / rate)
    while sigma == 0.0:
        sigma = rng.exponential(1.0 / rate)
    # log(sigma), formed only when the slice update needs it after sigma
    # came from elsewhere (the start draw or the Metropolis-Hastings step).
    log_sigma = None
    normals = rng.standard_normal((2, spec.iterations))
    drops = rng.standard_exponential(spec.iterations)
    uniform = _uniforms(rng, _UNIFORM_BLOCK).__next__
    shape = 0.5 * (n - 1.0)
    # A child stream leaves the parent's alone, so a chain that only ever
    # takes the slice update draws what it drew before the gamma block.
    gammas = rng.spawn(1)[0].standard_gamma(shape, spec.iterations)
    width = _slice_width(n)
    slope = 1.0 - n
    switch = _MH_SWITCH * (n - 1.0)

    iterations, warmup = spec.iterations, spec.warmup
    evals = stepouts = collapses = rejections = 0
    for start in range(0, iterations, _CHAIN_BLOCK):
        block = slice(start, start + _CHAIN_BLOCK)
        b0s, b1s, sigmas = [], [], []
        for z0, z1, drop, gamma in zip(
            normals[0, block].tolist(),
            normals[1, block].tolist(),
            drops[block].tolist(),
            gammas[block].tolist(),
        ):
            inv_s2 = 1.0 / (sigma * sigma)
            b = n_trt * inv_s2
            l11 = math.sqrt(n * inv_s2 + prec0)
            l21 = b / l11
            l22 = math.sqrt(b + prec1 - l21 * l21)
            w0 = k0 / l11
            d1 = ((k1 - l21 * w0) / l22 + z1) / l22
            d0 = (w0 + z0 - l21 * d1) / l11
            d_trt = d0 + d1
            half_ssr = 0.5 * (ss_within + n_ctrl * d0 * d0 + n_trt * d_trt * d_trt)
            sigma_hat = math.sqrt(half_ssr / shape)
            if rate * sigma_hat <= switch:
                evals += 1
                proposal = _mh_sigma(sigma, half_ssr, sigma_hat, n, rate, gamma, drop)
                if proposal is None:
                    rejections += 1
                else:
                    sigma, log_sigma = proposal, None
            else:
                if log_sigma is None:
                    log_sigma = math.log(sigma)
                # The slice sits `drop` below the target at log_sigma, whose
                # terms need no exp: sigma and 1 / sigma^2 are at hand.
                height = slope * log_sigma - half_ssr * inv_s2 - rate * sigma - drop
                log_sigma, sigma, e, s, collapsed = _slice_log_sigma(
                    log_sigma, height, n, half_ssr, rate, width, uniform
                )
                evals += e
                stepouts += s
                collapses += collapsed
            b0s.append(base0 + d0)
            b1s.append(base1 + d1)
            sigmas.append(sigma)
        # The block's kept iterations, from the first past warm-up on.
        skip = max(warmup - start, 0)
        if skip < len(b0s):
            kept[:, start + skip - warmup : start + len(b0s) - warmup] = (
                b0s[skip:],
                b1s[skip:],
                sigmas[skip:],
            )

    return ChainStats(
        chain=chain,
        slice_evals_per_iteration=evals / iterations,
        stepouts_per_iteration=stepouts / iterations,
        collapses_per_iteration=collapses / iterations,
        rejections_per_iteration=rejections / iterations,
    )


def _mh_sigma(
    sigma: float,
    half_ssr: float,
    sigma_hat: float,
    n: float,
    rate: float,
    gamma: float,
    drop: float,
) -> float | None:
    """One independence Metropolis-Hastings step for sigma; returns the
    accepted proposal, or None for a rejection, which keeps ``sigma``.

    On tau = 1 / sigma^2, sigma's conditional is proportional to
    tau^(a-1) exp(-h tau - rate / sqrt(tau)), with a = (n-1)/2 and
    h = ``half_ssr`` = ssr / 2. The proposal is Gamma(a, beta) on tau:
    the likelihood's gamma, with its rate beta = h - t tilted by the
    tangent of the prior term at s1, t = rate s1^3 / 2. The weight
    target / proposal is then exp(-t tau - rate sigma), which peaks at
    sigma = s1 and is flat near it (Tierney 1994, *Annals of Statistics*).
    s1 is one Newton step from ``sigma_hat`` = sqrt(ssr / (n-1)) toward
    the root of rate s^3 + (n-1) s^2 = ssr, the mode of log sigma's
    conditional.

    ``gamma`` is a Gamma(a, 1) variate, so the proposal is
    sqrt(beta / gamma), and ``drop`` a standard exponential: the
    proposal is accepted when its log weight ratio exceeds -drop. A
    gamma of 0 and a proposal above e^354, where the kernel's sigma^2
    would overflow, are rejected. Valid only where rate * sigma_hat <=
    (n-1) / 4 (see :data:`_MH_SWITCH`), where beta >= 0.81 h > 0. The
    proposal depends only on (n, ssr, rate), never on ``sigma``: an
    independence sampler, which leaves the conditional invariant.
    """
    r = rate * sigma_hat
    s1 = sigma_hat * (1.0 - r / (3.0 * r + 2.0 * (n - 1.0)))
    t = 0.5 * rate * s1 * s1 * s1
    beta = half_ssr - t
    if gamma > 0.0:
        proposal = math.sqrt(beta / gamma)
        if (
            proposal <= _MAX_SIGMA
            and t * (1.0 / (sigma * sigma) - gamma / beta) + rate * (sigma - proposal) > -drop
        ):
            return proposal
    return None


def _uniforms(rng: np.random.Generator, block: int) -> Iterator[float]:
    """Standard uniforms, drawn ``block`` at a time when the last block is used up."""
    blocks = map(rng.random, itertools.repeat(block))
    return itertools.chain.from_iterable(map(np.ndarray.tolist, blocks))


def _slice_width(n: float) -> float:
    """Step-out width for the log(sigma) update given n units.

    At the conditional's mode u*, -f''(u*) = 2(n-1) + 3 rate e^(u*) >=
    2(n-1), so this is three conditional sds when the likelihood
    dominates, and wider, never narrower, when the prior does.
    """
    return _SLICE_SDS / math.sqrt(2.0 * (n - 1.0))


def _slice_log_sigma(
    u0: float,
    height: float,
    n: float,
    half_ssr: float,
    rate: float,
    width: float,
    uniform: Callable[[], float],
) -> tuple[float, float, int, int, bool]:
    """One slice-sampling update of u = log(sigma): step out, then shrink.

    The target is the log density of u under sigma's conditional,
    p(sigma | rest) ~ sigma^(-n) exp(-ssr / (2 sigma^2)) exp(-rate sigma)
    times the Jacobian e^u:

        f(u) = -(n - 1) u - (ssr / 2) / e^(2u) - rate e^u,

    evaluated inline with one ``exp``, e = e^u, and ``half_ssr`` = ssr / 2.
    It is -inf above u = 354, where the kernel's sigma^2 would overflow,
    and where the middle term overflows, e * e underflowing to 0 included;
    the middle term is 0 when ssr = 0.

    ``height`` is the slice: f(u0) minus a standard exponential variate,
    which the caller forms from its own terms. ``u0`` must be at most
    354, as every point this update returns is. ``width`` must not depend
    on ``u0`` (see :func:`_slice_width`); ``uniform`` supplies standard
    uniforms. Returns the new point, sigma = e^u there, the target
    evaluations (the height's included), the step-outs, and whether the
    interval collapsed onto ``u0``, which is then kept.
    """
    slope = 1.0 - n
    exp, top = math.exp, _MAX_LOG_SIGMA  # locals: read once per update, not per evaluation
    # The middle term where e * e underflows to 0.
    at_zero = math.inf if half_ssr != 0.0 else 0.0
    evals = 1

    left = u0 - width * uniform()
    right = left + width
    # Randomly allocate the step-out budget between the two directions.
    budget_left = int(_SLICE_MAX_STEPOUTS * uniform())
    budget_right = (_SLICE_MAX_STEPOUTS - 1) - budget_left
    stepouts = 0
    # left <= u0 <= top, so the left end needs no guard.
    while budget_left > 0:
        evals += 1
        e = exp(left)
        ee = e * e
        if slope * left - (half_ssr / ee if ee else at_zero) - rate * e <= height:
            break
        left -= width
        budget_left -= 1
        stepouts += 1
    while budget_right > 0:
        evals += 1
        if right > top:
            f = -math.inf
        else:
            e = exp(right)
            ee = e * e
            f = slope * right - (half_ssr / ee if ee else at_zero) - rate * e
        if f <= height:
            break
        right += width
        budget_right -= 1
        stepouts += 1

    shortest = 1e-15 * (abs(u0) + 1.0)
    while right - left >= shortest:
        u1 = left + (right - left) * uniform()
        evals += 1
        # Above top, f = -inf lies below every height.
        if u1 <= top:
            e = exp(u1)
            ee = e * e
            if slope * u1 - (half_ssr / ee if ee else at_zero) - rate * e > height:
                return u1, e, evals, stepouts, False
        if u1 < u0:
            left = u1
        else:
            right = u1
    return u0, math.exp(u0), evals, stepouts, True
