from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from effectprob.diagnostics import _fft_length, ess, split_rhat
from effectprob.errors import TooFewIterations

from conftest import make_view, peak_bytes


def hand_rhat(chains: list[list[float]]) -> float:
    """Split R-hat from first principles with plain Python loops."""
    sequences = []
    for chain in chains:
        half = len(chain) // 2
        sequences.append(list(chain[:half]))
        sequences.append(list(chain[len(chain) - half :]))
    n = len(sequences[0])
    means = [sum(s) / n for s in sequences]
    variances = [sum((x - m) ** 2 for x in s) / (n - 1) for s, m in zip(sequences, means)]
    w = sum(variances) / len(variances)
    grand = sum(means) / len(means)
    b = n * sum((m - grand) ** 2 for m in means) / (len(means) - 1)
    return math.sqrt(((n - 1) / n * w + b / n) / w)


def lag_loop_ess(chains: np.ndarray) -> float:
    """ESS by direct autocovariance sums, one lag at a time.

    Same estimator as :func:`ess`: split sequences, per-lag covariance
    sums averaged across sequences, pairs of lags truncated at the first
    negative pair.
    """
    half = chains.shape[1] // 2
    seqs = np.concatenate([chains[:, :half], chains[:, chains.shape[1] - half :]], axis=0)
    n_seq, n = seqs.shape
    centered = seqs - seqs.mean(axis=1, keepdims=True)

    def gamma(lag: int) -> float:
        if lag >= n:
            return 0.0
        prod = centered[:, : n - lag] * centered[:, lag:]
        return math.fsum(prod.sum(axis=1)) / n_seq / n

    gamma0 = gamma(0)
    if gamma0 == 0.0:
        return 1.0
    tau = 0.0
    k = 0
    while 2 * k < n:
        pair = gamma(2 * k) / gamma0 + gamma(2 * k + 1) / gamma0
        if pair < 0.0:
            break
        tau += 2.0 * pair
        k += 1
    tau -= 1.0
    total = n_seq * n
    if tau <= 0.0:
        return float(total)
    return min(max(total / tau, 1.0), total)


class TestSplitRhat:
    def test_identical_split_sequences_hit_floor_exactly(self):
        # Chains whose two halves are identical (and equal across chains)
        # force B = 0, so rhat equals sqrt((n - 1) / n) with no slack.
        rng = np.random.default_rng(4)
        half = rng.normal(size=500)
        chain = np.concatenate([half, half])
        v = make_view(np.vstack([chain, chain]))
        assert split_rhat(v) == math.sqrt(499 / 500)

    def test_iid_chains_near_one(self):
        rng = np.random.default_rng(5)
        v = make_view(rng.standard_normal((4, 1000)))
        assert split_rhat(v) < 1.01

    def test_shifted_chain_detected(self):
        rng = np.random.default_rng(6)
        chains = rng.standard_normal((2, 1000))
        chains[1] += 5.0
        r = split_rhat(make_view(chains))
        assert r > 1.5
        assert r == pytest.approx(hand_rhat(chains.tolist()), abs=1e-12)

    def test_matches_hand_formula_on_random_chains(self):
        rng = np.random.default_rng(7)
        chains = rng.normal(size=(3, 40)) + rng.normal(size=(3, 1))
        assert split_rhat(make_view(chains)) == pytest.approx(
            hand_rhat(chains.tolist()), abs=1e-12
        )

    def test_never_below_algebraic_floor(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            iters = int(rng.integers(4, 60))
            chains = rng.normal(size=(int(rng.integers(1, 5)), iters))
            floor = math.sqrt((iters // 2 - 1) / (iters // 2))
            assert split_rhat(make_view(chains)) >= floor - 1e-12

    def test_odd_length_drops_middle_draw(self):
        chains = [[1.0, 2.0, 9.0, 3.0, 4.0]]  # halves [1, 2] and [3, 4]
        assert split_rhat(make_view(chains)) == pytest.approx(
            hand_rhat([[1.0, 2.0, 3.0, 4.0]]), abs=1e-15
        )

    def test_too_few_iterations(self):
        with pytest.raises(TooFewIterations):
            split_rhat(make_view([[1.0, 2.0, 3.0]]))

    def test_constant_sequences_rejected(self):
        # R-hat is undefined: NaN, not an error.
        assert math.isnan(split_rhat(make_view([[2.0, 2.0, 2.0, 2.0]])))

    @pytest.mark.parametrize(
        "chains",
        [
            # Their numpy means round, leaving variances near 1e-34: R-hat
            # and ESS read 0.99 and 8 when judged from them.
            [[0.1] * 100] * 4,
            [[52.43] * 9000] * 4,
            # Stuck at a different value in each chain.
            [[1.0] * 8, [2.0] * 8],
        ],
        ids=["0.1", "52.43", "two-values"],
    )
    def test_constant_sequences_judged_from_the_draws(self, chains):
        v = make_view(chains)
        assert math.isnan(split_rhat(v))
        assert ess(v) == 1.0

    def test_affine_invariance(self):
        rng = np.random.default_rng(8)
        chains = rng.normal(size=(4, 200))
        base = split_rhat(make_view(chains))
        assert split_rhat(make_view(3.5 * chains - 11.0)) == pytest.approx(base, abs=1e-12)

    def test_chain_permutation_exact(self):
        rng = np.random.default_rng(9)
        chains = rng.normal(size=(5, 100)) + np.arange(5).reshape(-1, 1)
        permuted = chains[[3, 1, 4, 0, 2]]
        assert split_rhat(make_view(chains)) == split_rhat(make_view(permuted))
        assert ess(make_view(chains)) == ess(make_view(permuted))


class TestEss:
    def test_iid_draws_near_total(self):
        rng = np.random.default_rng(10)
        v = make_view(rng.standard_normal((4, 2500)))
        assert ess(v) == pytest.approx(10_000, rel=0.10)

    def test_ar1_matches_analytic_efficiency(self):
        # Stationary AR(1) with coefficient 0.9 has integrated
        # autocorrelation (1 + phi) / (1 - phi) = 19.
        rng = np.random.default_rng(5)
        phi = 0.9
        n = 100_000
        x = np.empty(n)
        x[0] = rng.standard_normal()
        innovations = rng.standard_normal(n) * math.sqrt(1.0 - phi * phi)
        for i in range(1, n):
            x[i] = phi * x[i - 1] + innovations[i]
        target = n * (1.0 - phi) / (1.0 + phi)
        assert ess(make_view(x.reshape(1, -1))) == pytest.approx(target, rel=0.25)

    def test_constant_chain_clamps_to_one(self):
        assert ess(make_view([[3.0, 3.0, 3.0, 3.0]])) == 1.0

    def test_never_exceeds_total(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            chains = rng.normal(size=(2, int(rng.integers(4, 200))))
            total = chains.size - chains.size % 2  # odd lengths drop one draw per chain
            value = ess(make_view(chains))
            assert 1.0 <= value <= total + 1e-9
            assert math.isfinite(value)

    def test_too_few_iterations(self):
        with pytest.raises(TooFewIterations):
            ess(make_view([[1.0, 2.0, 3.0]]))

    @settings(max_examples=80, deadline=None)
    @given(
        chains=st.integers(1, 5),
        iterations=st.integers(4, 400),
        phi=st.floats(-0.9, 0.999),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(chains=4, iterations=4, phi=0.0, seed=1)
    @example(chains=3, iterations=5, phi=0.5, seed=2)
    @example(chains=2, iterations=399, phi=0.99, seed=3)
    # A padded length at replicate scale: n = 4,999 needs 9,997 points, padded to 10,000.
    @example(chains=4, iterations=9_998, phi=0.9, seed=4)
    def test_fft_matches_lag_loop(self, chains, iterations, phi, seed):
        # AR(1) chains from negative to near-unit correlation; odd lengths
        # drop each chain's middle draw.
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((chains, iterations))
        for i in range(1, iterations):
            x[:, i] += phi * x[:, i - 1]
        assert ess(make_view(x)) == pytest.approx(lag_loop_ess(x), rel=1e-12, abs=0.0)

    def test_bitwise_invariant_to_chain_order(self):
        rng = np.random.default_rng(15)
        for _ in range(200):
            chains = int(rng.integers(2, 9))
            x = np.cumsum(rng.normal(size=(chains, int(rng.integers(4, 300)))), axis=1)
            x += rng.normal(size=(chains, 1)) * 10.0
            assert ess(make_view(x)) == ess(make_view(x[rng.permutation(chains)]))

    def test_fft_length_is_the_least_5_smooth_number(self):
        def smooth(k: int) -> bool:
            for p in (2, 3, 5):
                while k % p == 0:
                    k //= p
            return k == 1

        least = 1
        for target in range(1, 5_000):
            least = max(least, target)
            while not smooth(least):
                least += 1
            assert _fft_length(target) == least
        assert _fft_length(2 * 4_500 - 1) == 9_000  # not 16,384

    def test_transforms_at_a_5_smooth_length(self, monkeypatch):
        sizes = []
        inverse_sizes = []
        rfft = np.fft.rfft
        irfft = np.fft.irfft

        def spy(a, n=None, *args, **kwargs):
            sizes.append(n)
            return rfft(a, n, *args, **kwargs)

        def inverse_spy(a, n=None, *args, **kwargs):
            inverse_sizes.append(n)
            return irfft(a, n, *args, **kwargs)

        monkeypatch.setattr(np.fft, "rfft", spy)
        monkeypatch.setattr(np.fft, "irfft", inverse_spy)
        ess(make_view(np.random.default_rng(16).normal(size=(4, 9_000))))
        # One transform per split sequence; sequences of 4,500 need 8,999 points.
        assert sizes == [9_000] * 8
        # One inverse transform of the summed power spectra.
        assert inverse_sizes == [9_000]

    def test_peak_is_at_most_four_times_the_draws(self):
        # The split sequences are transformed one at a time into one
        # preallocated array; one batched transform of all of them peaked
        # at 9 times the draws.
        v = make_view(np.random.default_rng(17).normal(size=(4, 250_000)))
        peak = peak_bytes(lambda: ess(v))
        assert peak <= 4 * v.per_chain.nbytes, peak / v.per_chain.nbytes

    def test_random_walk_matches_lag_loop(self):
        # The truncation lag runs to thousands here, where a loop over
        # lags is quadratic.
        rng = np.random.default_rng(14)
        x = np.cumsum(rng.standard_normal((4, 20_000)), axis=1)
        assert ess(make_view(x)) == pytest.approx(lag_loop_ess(x), rel=1e-12, abs=0.0)
