import hashlib
import math
import statistics

import pytest

from chgsets import RNG_NAME, RNG_VERSION, SplitMix64
from chgsets.rng import bernoulli_indices


def _digest(indices):
    return hashlib.sha256(",".join(map(str, indices)).encode()).hexdigest()[:16]


class _ZeroStream:
    """Every draw is exactly 0.0, the one value that would make log(U) = log(0)
    if U were uniform() itself rather than 1 - uniform()."""

    def uniform(self):
        return 0.0


class TestSplitMix64:
    def test_version(self):
        assert f"{RNG_NAME}-{RNG_VERSION}" == "splitmix64-2"

    def test_reference_outputs(self):
        # the published SplitMix64 outputs for seed 0
        s = SplitMix64(0)
        assert [s.next_uint64() for _ in range(3)] == [
            0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F,
        ]

    def test_uniform_range(self):
        s = SplitMix64(9)
        assert all(0.0 <= s.uniform() < 1.0 for _ in range(1000))


class TestBernoulliIndices:
    @pytest.mark.parametrize("n,p", [(1000, 0.3), (10000, 0.01)])
    def test_sizes_follow_binomial(self, n, p):
        # 300 seeds: |S| ~ Binomial(n, p), so the sample mean sits within
        # Z standard errors of np and the sample variance within Z of
        # np(1-p) (standard error of a variance ~ sigma^2 sqrt(2/(k-1)));
        # the two ends of the window are each kept with frequency p
        z, seeds = 4.0, range(300)
        k = len(seeds)
        samples = [bernoulli_indices(SplitMix64(s), n, p) for s in seeds]
        sizes = [len(x) for x in samples]
        mean, var = n * p, n * p * (1 - p)
        assert abs(statistics.fmean(sizes) - mean) <= z * math.sqrt(var / k)
        assert abs(statistics.variance(sizes) / var - 1) <= z * math.sqrt(2 / (k - 1))
        for end in (0, n - 1):
            hits = sum(end in set(x) for x in samples)
            assert abs(hits - k * p) <= z * math.sqrt(k * p * (1 - p))

    def test_pinned_digests(self):
        # a change to the stream, the skip formula or libm's log/log1p shows here
        pinned = {
            1: (323, "0f79252ef53510c8"),
            2024: (278, "ebb515d07c3646a4"),
            2**64 - 1: (298, "5fc2dd8f6209b3ab"),
        }
        for seed, (size, digest) in pinned.items():
            kept = bernoulli_indices(SplitMix64(seed), 100000, 0.003)
            assert (len(kept), _digest(kept)) == (size, digest)

    def test_zero_draw_keeps_next_index(self):
        assert bernoulli_indices(_ZeroStream(), 7, 0.5) == list(range(7))
        assert bernoulli_indices(_ZeroStream(), 5, 1e-300) == list(range(5))

    @pytest.mark.parametrize("p", [1e-300, 1e-6, 0.003, 0.5, 0.999999])
    def test_indices_in_window_and_increasing(self, p):
        for seed in range(20):
            for n in (1, 2, 97):
                kept = bernoulli_indices(SplitMix64(seed), n, p)
                assert all(0 <= i < n for i in kept)
                assert all(a < b for a, b in zip(kept, kept[1:]))

    def test_degenerate_densities(self):
        assert bernoulli_indices(SplitMix64(1), 5, 1.0) == [0, 1, 2, 3, 4]
        assert bernoulli_indices(SplitMix64(1), 5, 0.0) == []
        assert bernoulli_indices(SplitMix64(1), 0, 0.5) == []

    def test_draws_follow_kept_count(self):
        # one draw per kept index plus the one that overshoots the window
        class Counting(SplitMix64):
            draws = 0

            def uniform(self):
                Counting.draws += 1
                return super().uniform()

        kept = bernoulli_indices(Counting(3), 10**6, 5e-5)
        assert Counting.draws == len(kept) + 1
