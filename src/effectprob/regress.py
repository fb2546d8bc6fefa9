"""Bayesian linear regression of an outcome on a binary treatment.

Model: y_i ~ Normal(b0 + b1 * d_i, sigma) with independent normal priors
on the intercept b0 and treatment effect b1 and an exponential prior on
the residual scale sigma.

The sampler is collapsed: given sigma, (b0, b1) are bivariate normal
(normal likelihood times independent normal priors), so they integrate
out in closed form and leave sigma's 1-D marginal posterior. Each
iteration draws u = log(sigma) by one independence Metropolis-Hastings
step (Tierney 1994, *Annals of Statistics*) from that marginal, then
(b0, b1) exactly from their conditional given the new sigma. The
proposal is fixed for the fit, so every chain's sigma sequence is a
Markov chain with the marginal as its stationary law, and each (b0, b1)
draw completes it to the joint posterior. Two modes of the marginal,
which prior-data conflict can make, are both covered by the proposal.

The updates work from centred sufficient statistics: per arm, the
count, the mean and the sum of squared deviations from that mean, each
summed exactly (``math.fsum``) so that any row order gives the same
bits. The coefficients are drawn as offsets from the arm means, and the
marginal is written in those offsets: nothing is computed from raw
totals, so nothing cancels when the outcome sits far from zero (Chan,
Golub & LeVeque 1983).

One setup per fit, before the first chain, forms these statistics and
the prior terms, and makes every refusal that needs both the data and
the priors, in the order :func:`fit` lists. Constancy within the arms is
read from the values, not from a rounded sum of squares; a spread whose
n / sigma^2 would overflow (an sd below about 1e-151 at n = 1000) is
refused, squared deviations that underflow to 0 included. It then
builds the proposal (:class:`_Proposal`) from a grid of the log
marginal (:func:`_log_marginal`). The chains then raise nothing.

Reproducibility. Every value that reaches the draws is formed by
correctly rounded arithmetic (+, -, *, /, ``sqrt``), a proposal
included, or by ``math.exp`` on Python floats, never by numpy's exp or
log, whose results depend on the CPU features numpy dispatches to.
Those feed only comparisons: the grid's extent, the cell a uniform
picks and the accept-reject test.

Cost model. The statistics are O(n): four exact sums over the outcome,
read through memoryviews rather than list copies, and one equality pass.
The proposal costs O(G) numpy evaluations of the log marginal per fit,
G = 1,025 grid points in each of a few narrowing passes. Each chain then
works in blocks of 1,024 iterations: its variates, the proposals and
their log weights in numpy, one Python comparison per iteration to
accept or reject, and the coefficients in numpy. So it is
O(chains x iterations) numpy work with one scalar Python step per
iteration, whatever n is. Only a block's variates and Python floats are
held at once, and kept draws go into the fit's one
``(3, chains, kept iterations)`` array when their block ends, so a fit's
peak is that array and the copy :class:`~effectprob.draws.Draws` makes.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, astuple, dataclass, field
from typing import Callable, ClassVar

import numpy as np

from .diagnostics import _MIN_ITERATIONS
from .draws import Draws
from .errors import DegenerateDesign, InvalidArgument, NonBinaryTreatment, NonFiniteData

# sigma lies within e^-354 and e^354: above, sigma^2 would overflow. The
# marginal is -inf outside, and its mass lies far inside both ends.
_MAX_LOG_SIGMA = 354.0
# The kernel forms the data precision n / sigma^2. Refusing outcomes whose
# n / (ss_within / n) exceeds this leaves sigma^2 a factor of 1024 to fall
# below ss_within / n, in the posterior's lower tail, before that
# precision overflows.
_MAX_DATA_PRECISION = sys.float_info.max / 1024.0
# Prior sds must be at least 1 / _MAX_SCALE and the rate within a factor
# _MAX_SCALE of 1. The kernel forms 1 / sd^2, and rate * sigma for sigma up
# to e^354, which these bounds keep finite. The rate's bounds also keep
# sigma's marginal inside e^+-354: a large rate pulls sigma down only to
# about (ss_within / rate)^(1/3), where n / sigma^2 is still finite, and
# the smallest still costs rate * e^354 > 5e13 nats at the top.
_MAX_SCALE = 1e140
# The proposal: a grid of _CELLS equal cells over where the log marginal
# lies within _SPAN of its peak, found by up to _NARROWINGS passes from
# the whole range of log sigma, mixed with a uniform tail of share _TAIL
# over that whole range.
_CELLS = 1_024
_SPAN = 40.0
_NARROWINGS = 8
_TAIL = 0.01
# A chain draws its variates, and turns them into Python floats, this many
# iterations at a time, so that what it holds does not grow with its length.
_CHAIN_BLOCK = 1_024


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
    warmup, no chains, fewer than 4 iterations kept after warmup, which
    split R-hat needs (two per split half), or kept draws whose
    ``(3, chains, iterations - warmup)`` array of doubles would be larger
    than the address space.
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
        kept = self.iterations - self.warmup
        if self.warmup < 0 or kept < _MIN_ITERATIONS:
            raise InvalidArgument(
                f"need warmup >= 0 and at least {_MIN_ITERATIONS} iterations after it, got "
                f"warmup={self.warmup}, iterations={self.iterations}"
            )
        if 24 * self.chains * kept > sys.maxsize:
            raise InvalidArgument(
                f"{self.chains} chains of {kept} kept iterations need {24 * self.chains * kept} "
                f"bytes, more than the address space holds"
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
    """Per-chain effort of the sigma update: the share of iterations
    whose Metropolis-Hastings step kept sigma.

    Each step evaluates sigma's marginal once. The class constants
    ``slice_evals_per_iteration`` (1.0) and ``stepouts_per_iteration``
    (0.0) say so under the names of an earlier slice update's counts,
    which the benchmark's span counters (perfbench/spans.py) read.
    """

    chain: int
    rejections_per_iteration: float
    slice_evals_per_iteration: ClassVar[float] = 1.0
    stepouts_per_iteration: ClassVar[float] = 0.0


@dataclass(frozen=True, eq=False)
class FitResult:
    """Posterior draws and per-chain sampler stats."""

    draws: Draws
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
    a given seed. Raises :class:`InvalidArgument` for n below 3 or above
    ``sys.maxsize``, the most elements an array can index.
    """
    n = int(n)
    if n < 3:
        raise InvalidArgument(f"need n >= 3 to form a dataset, got {n}")
    if n > sys.maxsize:
        raise InvalidArgument(f"n = {n} units is more than the address space holds")
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
    """Run the collapsed sampler and assemble post-warmup draws.

    Each chain starts at the mode of sigma's marginal on the proposal's
    grid and is advanced for ``spec.iterations`` iterations; the first
    ``spec.warmup`` are discarded. Chains use independent RNG streams
    seeded from ``(spec.seed, chain_index)``, so identical inputs give
    bit-identical results. Every refusal below is made once, before the
    first iteration, in the order listed.

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
    proposal = _Proposal(_log_marginal(constants, spec.priors))
    kept = np.empty((3, spec.chains, spec.iterations - spec.warmup))
    efforts = tuple(
        _run_chain(constants, proposal, spec, c, kept[:, c]) for c in range(spec.chains)
    )
    return FitResult(Draws(parameter_names=("beta0", "beta1", "sigma"), values=kept), efforts)


def _log_abs(x: float) -> float:
    return math.log(abs(x)) if x else -math.inf


def _log_marginal(
    constants: tuple[float, ...], priors: PriorSpec
) -> Callable[[np.ndarray], np.ndarray]:
    """log p(u | y) up to a constant, u = log(sigma), with (b0, b1)
    integrated out; -inf where |u| > 354.

    With m the prior means of the offsets from (base0, base1), prec the
    prior precisions and SSW the sum of squares within arms,

        log p(u) = -(n-3) u - (SSW/2) e^(-2u) - rate e^u
                   - 1/2 log D - 1/2 (A + e^(2u) B) / D,

        D = 1 + e^(2u) (n prec1 + n_t prec0) / (n_c n_t)
              + e^(4u) prec0 prec1 / (n_c n_t),
        A = prec0 m0^2 + prec1 m1^2,
        B = prec0 prec1 ((m0 + m1)^2 / n_c + m0^2 / n_t).

    D is the conditional precision's determinant over its likelihood part
    n_c n_t / sigma^4, and the last term half the prior means' quadratic
    form under the offsets' marginal covariance. Every part is a sum of
    non-negative terms, so nothing cancels at any location or scale of
    the outcome. D, A and B are formed as logs from log prec = -2 log sd,
    so no sd^2 and no product of precisions over- or underflows.
    """
    n_ctrl, n_trt, ss_within, base0, base1 = constants[:5]
    n = n_ctrl + n_trt
    half_ss, rate = 0.5 * ss_within, priors.sigma_rate
    log_prec0 = -2.0 * math.log(priors.beta0_sd)
    log_prec1 = -2.0 * math.log(priors.beta1_sd)
    m0, m1 = priors.beta0_mean - base0, priors.beta1_mean - base1
    log_m0, log_m1 = _log_abs(m0), _log_abs(m1)
    # m0 + m1 by halves, which cannot overflow.
    log_sum = math.log(2.0) + _log_abs(0.5 * m0 + 0.5 * m1)
    log_nc, log_nt = math.log(n_ctrl), math.log(n_trt)
    log_d1 = np.logaddexp(math.log(n) + log_prec1, log_nt + log_prec0) - log_nc - log_nt
    log_d2 = log_prec0 + log_prec1 - log_nc - log_nt
    log_a = np.logaddexp(log_prec0 + 2.0 * log_m0, log_prec1 + 2.0 * log_m1)
    log_b = log_prec0 + log_prec1 + np.logaddexp(2.0 * log_sum - log_nc, 2.0 * log_m0 - log_nt)

    def log_p(u: np.ndarray) -> np.ndarray:
        # Terms past the double range are -inf, and no term is +inf, so the
        # sum is never NaN.
        with np.errstate(over="ignore"):
            two_u = 2.0 * u
            log_d = np.logaddexp(0.0, np.logaddexp(two_u + log_d1, 2.0 * two_u + log_d2))
            quad = np.exp(np.logaddexp(log_a, two_u + log_b) - log_d)
            value = (
                (3.0 - n) * u
                - half_ss * np.exp(-two_u)
                - rate * np.exp(u)
                - 0.5 * log_d
                - 0.5 * quad
            )
        return np.where(np.abs(u) <= _MAX_LOG_SIGMA, value, -np.inf)

    return log_p


class _Proposal:
    """The independence proposal for u = log(sigma), built once per fit:
    one piecewise-uniform density on cells that partition |u| <= 354.

    A grid of :data:`_CELLS` cells starts over that whole range and is
    narrowed, up to :data:`_NARROWINGS` times, to the cells around the
    points where the log marginal is at least its maximum there minus
    :data:`_SPAN` (``>=``: at extreme inputs the maximum is so large that
    subtracting the span leaves it unchanged). Narrowing stops early when
    it changes nothing or the narrowed grid's points would not strictly
    increase. Where the grid stops short of -354 or 354, one more cell
    reaches it. The grid's cells share 1 - :data:`_TAIL` of the mass by
    the trapezoid of the marginal at their ends, and share :data:`_TAIL`
    is spread evenly over the whole support, so the step stays exact
    wherever the grid misses mass.
    """

    def __init__(self, log_p: Callable[[np.ndarray], np.ndarray]) -> None:
        edges = np.linspace(-_MAX_LOG_SIGMA, _MAX_LOG_SIGMA, _CELLS + 1)
        values = log_p(edges)
        for _ in range(_NARROWINGS):
            inside = np.flatnonzero(values >= values.max() - _SPAN)
            narrowed = np.linspace(
                edges[max(inside[0] - 1, 0)], edges[min(inside[-1] + 1, _CELLS)], _CELLS + 1
            )
            if np.array_equal(narrowed, edges) or not (np.diff(narrowed) > 0.0).all():
                break
            edges, values = narrowed, log_p(narrowed)
        peak = int(np.argmax(values))
        self.log_p, self.top = log_p, float(values[peak])
        heights = np.exp(values - self.top)
        heights = heights[:-1] + heights[1:]
        grid = (1.0 - _TAIL) * heights / math.fsum((heights * np.diff(edges)).tolist())
        # Outer cells only where the grid stops short, so that none is empty.
        lower, upper = int(edges[0] > -_MAX_LOG_SIGMA), int(edges[-1] < _MAX_LOG_SIGMA)
        self.edges = np.concatenate(([-_MAX_LOG_SIGMA] * lower, edges, [_MAX_LOG_SIGMA] * upper))
        self.widths = np.diff(self.edges)
        density = np.concatenate(([0.0] * lower, grid, [0.0] * upper))
        density += _TAIL / (2.0 * _MAX_LOG_SIGMA)
        self.log_q = np.log(density)
        self.bounds = np.cumsum(density * self.widths)[:-1]
        # The mode's cell starts at it, or is the last when the mode is 354.
        cell = min(peak + lower, len(self.widths) - 1)
        self.start = float(edges[peak]), -float(self.log_q[cell])

    def draw(self, picks: np.ndarray, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Proposals from two rows of standard uniforms, and their log
        weights, log target minus log proposal density, each up to a
        constant of the fit."""
        cells = np.searchsorted(self.bounds, picks)
        proposals = self.edges[cells] + self.widths[cells] * positions
        return proposals, self.log_p(proposals) - self.top - self.log_q[cells]


def _run_chain(
    constants: tuple[float, ...], proposal: _Proposal, spec: ModelSpec, chain: int,
    kept: np.ndarray,
) -> ChainStats:
    """One chain: writes its post-warmup draws into the rows (beta0, beta1,
    sigma) of ``kept``, a ``(3, iterations - warmup)`` array, and returns
    its effort.

    A proposal u is accepted when its log weight plus a standard
    exponential exceeds the current point's log weight, and sigma is then
    ``math.exp(u)``. The coefficients are drawn as offsets d = (d0, d1)
    from (mean_c, mean_t - mean_c). Their conditional precision is
    P = X'X / sigma^2 plus the prior precision; with a binary treatment
    X'X is [[n, n_t], [n_t, n_t]], so the draw is 2x2 algebra, here on
    arrays of a block's sigmas. With P = L L' and k the prior precision
    times the prior mean of d, the conditional mean is L'^-1 L^-1 k and
    the noise L'^-1 z for a standard normal pair z, so d = L'^-1 (L^-1 k
    + z): one forward and one back substitution, and no determinant to
    overflow.
    """
    n_ctrl, n_trt, _, base0, base1, prec0, prec1, k0, k1 = constants
    n = n_ctrl + n_trt
    rng = np.random.default_rng([spec.seed, chain])
    u, weight = proposal.start
    sigma = math.exp(u)
    exp = math.exp
    iterations, warmup = spec.iterations, spec.warmup
    rejections = 0
    for start in range(0, iterations, _CHAIN_BLOCK):
        size = min(_CHAIN_BLOCK, iterations - start)
        picks, positions = rng.random((2, size))
        drops = rng.standard_exponential(size)
        normals = rng.standard_normal((2, size))
        proposals, weights = proposal.draw(picks, positions)
        sigmas = []
        for new_u, new_weight, bar in zip(
            proposals.tolist(), weights.tolist(), (weights + drops).tolist()
        ):
            if bar > weight:
                weight, sigma = new_weight, exp(new_u)
            else:
                rejections += 1
            sigmas.append(sigma)

        # The block's kept iterations, from the first past warm-up on.
        skip = max(warmup - start, 0)
        if skip < size:
            s = np.array(sigmas[skip:])
            z0, z1 = normals[:, skip:]
            inv_s2 = 1.0 / (s * s)
            b = n_trt * inv_s2
            l11 = np.sqrt(n * inv_s2 + prec0)
            l21 = b / l11
            l22 = np.sqrt(b + prec1 - l21 * l21)
            w0 = k0 / l11
            d1 = ((k1 - l21 * w0) / l22 + z1) / l22
            d0 = (w0 + z0 - l21 * d1) / l11
            kept[:, start + skip - warmup : start + size - warmup] = (base0 + d0, base1 + d1, s)

    return ChainStats(chain=chain, rejections_per_iteration=rejections / iterations)
