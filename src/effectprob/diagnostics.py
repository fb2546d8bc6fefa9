"""Convergence and efficiency diagnostics for chain-separated draws.

Both statistics work on split chains: each chain is halved, so m chains
of length N become 2m sequences of length n = floor(N / 2) (the middle
draw is dropped when N is odd). Splitting makes a trending single chain
show up as between-sequence disagreement.

Reductions across sequences are order-independent (exact summation for
R-hat, sorted summation of the power spectra for ESS), so relabeling
chains permutes intermediate terms without changing either statistic,
bit for bit. When every split sequence is constant, judged from the
draws, R-hat is NaN and ESS is 1: a value, not an error.
"""

from __future__ import annotations

import math

import numpy as np

from .draws import ParameterView, _unit_scaled
from .errors import TooFewIterations


# Each split half needs two draws for a within-sequence variance.
_MIN_ITERATIONS = 4


def _split_sequences(per_chain: np.ndarray) -> tuple[np.ndarray, bool]:
    """The 2m split sequences, scaled to |x| <= 1 (both statistics are
    scale-free), and whether every one is constant."""
    iterations = per_chain.shape[1]
    if iterations < _MIN_ITERATIONS:
        raise TooFewIterations(
            f"need >= {_MIN_ITERATIONS} iterations per chain so each split half has >= 2, "
            f"got {iterations}"
        )
    half = iterations // 2
    seqs = np.concatenate([per_chain[:, :half], per_chain[:, iterations - half :]], axis=0)
    return _unit_scaled(seqs)[0], bool((seqs == seqs[:, :1]).all())


def _fft_length(target: int) -> int:
    """The smallest 2^a * 3^b * 5^c at least ``target``.

    numpy's FFT is fast on such lengths, which lie much closer above a
    target than the next power of two does.
    """
    best = 1 << (target - 1).bit_length()
    power_of_5 = 1
    while power_of_5 < best:
        odd = power_of_5
        while odd < best:
            # The least odd * 2^a >= target, for odd = 3^b * 5^c.
            best = min(best, odd << (-(-target // odd) - 1).bit_length())
            odd *= 3
        power_of_5 *= 5
    return best


def split_rhat(v: ParameterView) -> float:
    """Potential scale reduction factor over split chains.

    With 2m split sequences of length n, let W be the mean of the
    per-sequence variances (denominator n - 1) and B = n * variance of
    the sequence means (denominator 2m - 1). The statistic is

        sqrt(((n - 1) / n * W + B / n) / W)

    which is exactly sqrt((n - 1) / n) when every sequence mean agrees,
    and grows past 1 as the sequences disagree. When every split
    sequence is constant, or W rounds to 0, the ratio is undefined and
    the result is NaN: a constant chain shows a stuck sampler or a pinned
    parameter, not perfect convergence.

    Raises :class:`TooFewIterations` for chains shorter than 4.
    """
    seqs, constant = _split_sequences(v.per_chain)
    n = seqs.shape[1]
    within = math.fsum(seqs.var(axis=1, ddof=1)) / len(seqs)
    if constant or within == 0.0:
        return math.nan
    means = seqs.mean(axis=1)
    grand = math.fsum(means) / len(means)
    between = n * math.fsum((m - grand) ** 2 for m in means) / (len(means) - 1)
    var_plus = (n - 1) / n * within + between / n
    return math.sqrt(var_plus / within)


def ess(v: ParameterView) -> float:
    """Effective sample size from averaged split-chain autocovariances.

    Autocovariances are computed per split sequence around that
    sequence's own mean, averaged across sequences, and normalized by
    the averaged lag-0 value. Lags are summed in adjacent pairs and the
    sum is truncated at the first negative pair (the initial-positive-
    sequence rule), giving

        ESS = (2m * n) / (1 + 2 * sum of retained correlations)

    clamped to [1, 2m * n]. Constant split sequences, or a lag-0
    autocovariance that rounds to 0, give the clamped minimum of 1.

    Each sequence's power spectrum comes from a real FFT, zero-padded to
    the smallest 2^a 3^b 5^c >= 2n - 1 points so that the circular
    correlation equals the linear one. The 2m powers are summed at each
    frequency in sorted order, so relabeling chains changes no bit, and
    one inverse FFT of the sum gives the summed autocovariances at every
    lag. The cost is O(m n log n), whatever the truncation lag, where a
    loop over lags costs O(m n^2) on a random walk. The sequences are
    transformed one at a time into one preallocated (2m, size // 2 + 1)
    array, so the working memory is about 2 + 2.5 / m times the draws.

    Raises :class:`TooFewIterations` for chains shorter than 4.
    """
    seqs, constant = _split_sequences(v.per_chain)
    n_seq, n = seqs.shape
    total = n_seq * n

    size = _fft_length(2 * n - 1)
    power = np.empty((n_seq, size // 2 + 1))
    for row, seq in zip(power, seqs):
        spectrum = np.fft.rfft(seq - seq.mean(), size)
        np.square(spectrum.real, out=row)
        row += spectrum.imag * spectrum.imag
        del spectrum
    power.sort(axis=0)
    gamma = np.fft.irfft(power.sum(axis=0), size)[:n] / n_seq / n

    gamma0 = gamma[0]
    if constant or gamma0 == 0.0:
        return 1.0

    # Pair lags (0,1), (2,3), ... (an odd n's last lag stands alone) and
    # stop at the first negative pair.
    pairs = np.add.reduceat(gamma / gamma0, np.arange(0, n, 2))
    negative = np.flatnonzero(pairs < 0.0)
    if negative.size:
        pairs = pairs[: negative[0]]
    tau = 2.0 * float(pairs.sum()) - 1.0

    if tau <= 0.0:
        return float(total)
    return float(min(max(total / tau, 1.0), total))
