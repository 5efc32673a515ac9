import math
from bisect import bisect_right

import pytest
from hypothesis import given, settings, strategies as st

from chgsets import (
    Interval,
    ParameterError,
    Product,
    ResourceCapError,
    RetryExhaustedError,
    constructions,
    detect_bad,
    embedded_c33,
    ext_field,
    freiman_embed,
    gset,
    is_prime,
    iter_elements,
    iter_field,
    largest_prime_cube_fit,
    norm,
    norm_set,
    quadratic_character,
    sphere_alpha,
    sphere_set,
    verify_chg,
    verify_weak_chg,
    weak_random_set,
)
from chgsets.fields import DEFAULT_FIELD_CAP, ext_mul, ext_pow
from oracles import naive_bad_elements, sidon_baseline

# every (q, h) with q prime, h >= 2 and q^h under the default field cap
FIELD_PAIRS = [
    (q, h) for q in range(2, 65) if is_prime(q)
    for h in range(2, 13) if q**h <= DEFAULT_FIELD_CAP
]


class TestSphereAlpha:
    def test_values(self):
        assert sphere_alpha(3) == 1
        assert sphere_alpha(5) == 2
        assert sphere_alpha(7) == 1

    def test_rule(self):
        for p in (3, 5, 7, 11, 13, 17, 19, 29):
            alpha = sphere_alpha(p)
            want = -1 if p % 4 == 1 else 1
            assert quadratic_character(p, alpha) == want
            # -alpha is always a non-square, which keeps 0 off the sphere
            assert quadratic_character(p, -alpha) == -1

    def test_two_rejected(self):
        with pytest.raises(ParameterError):
            sphere_alpha(2)


class TestSphereSet:
    def test_exact_count_p3(self):
        from itertools import product as iproduct

        s = sphere_set(3)
        assert len(s) == 6
        assert s.group == Product(3, 3)
        alpha = sphere_alpha(3)
        direct = {
            x for x in iproduct(range(3), repeat=3)
            if (x[0] ** 2 + x[1] ** 2 + x[2] ** 2) % 3 == alpha
        }
        assert set(s.elems) == direct

    @pytest.mark.parametrize("p", [3, 5, 7, 11])
    def test_lower_bound_and_membership(self, p):
        s = sphere_set(p)
        assert len(s) >= p * p - p
        alpha = sphere_alpha(p)
        for x in s.elems:
            assert (x[0] ** 2 + x[1] ** 2 + x[2] ** 2) % p == alpha

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_is_c33(self, p):
        s = sphere_set(p)
        assert verify_chg(s, 3, 3).holds

    def test_cap(self):
        with pytest.raises(ResourceCapError):
            sphere_set(101, max_order=10**5)


class TestNormSet:
    @pytest.mark.parametrize("q,h,size", [(2, 2, 3), (3, 2, 4), (2, 3, 7), (5, 2, 6)])
    def test_sizes(self, q, h, size):
        a, guarantee = norm_set(q, h)
        assert len(a) == size == (q**h - 1) // (q - 1)
        assert guarantee == math.factorial(h) + 1

    def test_verifies_with_guarantee(self):
        a, guarantee = norm_set(3, 2)
        assert guarantee == 3
        assert verify_chg(a, 2, guarantee).holds

    def test_full_multiplicative_group_when_exponent_is_order(self):
        a, _ = norm_set(2, 3)
        assert len(a) == 7  # exponent 1+2+4 is the whole group order

    @pytest.mark.parametrize("q,h", FIELD_PAIRS, ids=[f"{q}^{h}" for q, h in FIELD_PAIRS])
    def test_walk_matches_definition(self, q, h):
        # the subgroup walk against the norm map evaluated on every element
        field = ext_field(q, h)
        a, _ = norm_set(q, h)
        assert list(a.elems) == sorted(x for x in iter_field(field) if norm(field, x) == 1)


    @pytest.mark.parametrize("q,h", FIELD_PAIRS, ids=[f"{q}^{h}" for q, h in FIELD_PAIRS])
    def test_packed_walk_matches_field_walk(self, q, h):
        # the walk on packed keys against one ext_mul per norm-1 element,
        # from the first x^(q-1) whose ext_mul walk has full length
        field = ext_field(q, h)
        size = (q**h - 1) // (q - 1)
        for x in filter(any, iter_field(field)):  # 0 never walks back to 1
            step = ext_pow(field, x, q - 1)
            walk, y = [field.one()], step
            while y != field.one() and len(walk) <= size:
                walk.append(y)
                y = ext_mul(field, y, step)
            if len(walk) == size:
                break
        assert len(walk) == size
        assert list(norm_set(q, h)[0].elems) == sorted(walk)


class TestFreimanEmbed:
    def test_digit_examples(self):
        g = Product(3, 2)
        xs = gset(g, [(2, 1)])
        assert freiman_embed(xs).elems == (8,)
        assert freiman_embed(gset(g, [(0, 0)])).elems == (0,)

    def test_quadruple_example(self):
        phi = lambda x: x[0] + 6 * x[1]
        x, y, z, t = (1, 0), (2, 2), (2, 1), (1, 1)
        assert phi(x) + phi(y) == phi(z) + phi(t) == 15

    def test_non_product_rejected(self):
        with pytest.raises(ParameterError, match="expects a product-group set"):
            freiman_embed(gset(Interval(5), [0]))

    @pytest.mark.parametrize("q,d", [(2, 2), (3, 2), (2, 4), (5, 3)])
    def test_window_is_half_base_power(self, q, d):
        # the whole of Z_q^d fits the window (2q)^d / 2
        image = freiman_embed(gset(Product(q, d), iter_elements(Product(q, d))))
        assert image.group == Interval((2 * q) ** d // 2)
        assert len(image) == q**d

    def test_injective(self):
        g = Product(3, 3)
        xs = gset(g, [(a, b, c) for a in range(3) for b in range(3) for c in range(3)])
        assert len(freiman_embed(xs)) == 27

    @given(st.sampled_from([(3, 2), (5, 3), (7, 3)]), st.data())
    @settings(max_examples=40)
    def test_two_sums_transfer_exactly(self, pd, data):
        # adding two digit vectors never carries, so integer-coordinate sums
        # and embedded sums determine each other
        p, d = pd
        base = 2 * p
        coords = st.tuples(*[st.integers(0, p - 1)] * d)
        quad = [data.draw(coords) for _ in range(4)]
        phi = [sum(c * base**i for i, c in enumerate(x)) for x in quad]
        int_sum_eq = tuple(a + b for a, b in zip(quad[0], quad[1])) == tuple(
            a + b for a, b in zip(quad[2], quad[3])
        )
        assert int_sum_eq == (phi[0] + phi[1] == phi[2] + phi[3])
        if phi[0] + phi[1] == phi[2] + phi[3]:
            # embedded equality forces group equality as well
            assert tuple((a + b) % p for a, b in zip(quad[0], quad[1])) == tuple(
                (a + b) % p for a, b in zip(quad[2], quad[3])
            )

    @pytest.mark.parametrize("q,h", [(2, 2), (3, 2), (2, 3)])
    def test_embedded_norm_set_reverifies(self, q, h):
        a, guarantee = norm_set(q, h)
        image = freiman_embed(a)
        assert len(image) == len(a)
        assert verify_chg(image, h, guarantee).holds

    @pytest.mark.parametrize("p", [3, 5])
    def test_embedded_sphere_reverifies(self, p):
        image = freiman_embed(sphere_set(p))
        assert verify_chg(image, 3, 3).holds


class TestEmbeddedC33:
    def test_prime_selection(self):
        assert largest_prime_cube_fit(500) == 5
        assert largest_prime_cube_fit(108) == 3
        assert largest_prime_cube_fit(5488) == 11
        assert largest_prime_cube_fit(4 * 13**3) == 13

    @pytest.mark.parametrize("n,p", [(108, 3), (500, 5), (5488, 11)])
    def test_sizes_and_window(self, n, p):
        a = embedded_c33(n)
        assert a.group == Interval(n)
        assert len(a) >= p * p - p
        assert a.elems[-1] < n  # 1-based output stays within {1..n}

    def test_exact_size_108(self):
        assert len(embedded_c33(108)) == 6

    def test_too_small_rejected(self):
        with pytest.raises(ParameterError):
            embedded_c33(107)
        with pytest.raises(ParameterError, match="no odd prime p with 4p"):
            largest_prime_cube_fit(100)

    def test_result_verifies(self):
        a = embedded_c33(500)
        assert verify_chg(a, 3, 3).holds

    @pytest.mark.parametrize("n,p", [(108, 3), (200, 3), (500, 5), (5000, 7), (5488, 11)])
    def test_explicit_prime(self, n, p):
        want = gset(Interval(n), freiman_embed(sphere_set(p)).elems)
        assert embedded_c33(n, p) == want
        if largest_prime_cube_fit(n) == p:
            assert embedded_c33(n) == want

    @pytest.mark.parametrize("n,p", [(107, 3), (499, 5), (100, 7)])
    def test_explicit_prime_must_fit(self, n, p):
        with pytest.raises(ParameterError, match=rf"4\*{p}\^3 does not fit window {n}"):
            embedded_c33(n, p)


class TestSidonBaseline:
    def test_small_values(self):
        assert sidon_baseline(2).elems == (0, 5)
        assert sidon_baseline(3).elems == (0, 7, 13)

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
    def test_verifies_sidon(self, p):
        a = sidon_baseline(p)
        assert len(a) == p
        assert a.group == Interval(2 * p * p)
        assert verify_chg(a, 2, 2).holds


class TestDetectBad:
    def test_four_consecutive(self):
        s = gset(Interval(10), [1, 2, 3, 4])
        assert detect_bad(s, 2, 2).elems == (2, 3)

    def test_distinct_differences_all_good(self):
        s = gset(Interval(16), [1, 2, 4, 8])
        assert detect_bad(s, 2, 2).elems == ()

    def test_too_small_for_configuration(self):
        s = gset(Interval(10), [1, 2, 3])
        assert detect_bad(s, 2, 2).elems == ()
        with pytest.raises(ParameterError, match="expects an interval set"):
            detect_bad(gset(Product(3, 2), [(0, 1)]), 2, 2)
        with pytest.raises(ParameterError, match="need h >= 2 and g >= 2"):
            detect_bad(s, 1, 2)

    @given(st.lists(st.integers(0, 39), min_size=1, max_size=16, unique=True),
           st.sampled_from([(2, 2), (2, 3), (3, 2)]))
    @settings(max_examples=40)
    def test_matches_naive_definition(self, elems, hg):
        h, g = hg
        s = gset(Interval(40), elems)
        assert list(detect_bad(s, h, g).elems) == naive_bad_elements(elems, h, g)

    @given(st.lists(st.integers(0, 59), min_size=1, max_size=20, unique=True),
           st.sampled_from([(2, 2), (2, 3), (3, 3)]))
    @settings(max_examples=30)
    def test_survivors_are_weak(self, elems, hg):
        h, g = hg
        s = gset(Interval(60), elems)
        bad = set(detect_bad(s, h, g).elems)
        survivors = gset(Interval(60), sorted(set(elems) - bad))
        assert verify_weak_chg(survivors, h, g).holds


class TestMostUnderCap:
    def test_matches_linear_scan(self):
        # every C(m, h) up to 10^8 is a cap, as are one less and one more
        for h in range(2, 61):
            sizes = []  # sizes[k] = C(h + k, h)
            while not sizes or sizes[-1] <= 10**8:
                sizes.append(math.comb(h + len(sizes), h))
            caps = {1, 2, 10**8} | {c + i for c in sizes[:-1] for i in (-1, 0, 1)}
            for cap in sorted(c for c in caps if c >= 1):
                most = h + bisect_right(sizes, cap) - 1
                assert constructions._most_under_cap(h, cap) == most, (h, cap)

    def test_large_h_builds_no_large_binomial(self):
        # doubling from m = 2h would build C(400000, 200000) first
        assert constructions._most_under_cap(200_000, 10**8) == 200_001
        assert constructions._most_under_cap(10**8, 1) == 10**8


class TestWeakRandomSet:
    def test_deterministic(self):
        a1 = weak_random_set(20000, 2, 2, seed=7)
        a2 = weak_random_set(20000, 2, 2, seed=7)
        assert a1[0].elems == a2[0].elems
        assert a1[1] == a2[1]
        assert a1[2] == a2[2]

    def test_verified_and_sized(self):
        from chgsets import sample_density

        n = 50000
        result, attempts, (s_size, bad_size, out_size) = weak_random_set(n, 2, 2, seed=3)
        _, np_val = sample_density(n, 2, 2)
        assert out_size == len(result) == s_size - bad_size
        assert s_size >= np_val / 2
        assert bad_size <= np_val / 4
        assert out_size > np_val / 4
        assert verify_weak_chg(result, 2, 2).holds

    def test_different_seeds_differ(self):
        a1 = weak_random_set(20000, 2, 2, seed=1)[0]
        a2 = weak_random_set(20000, 2, 2, seed=2)[0]
        assert a1.elems != a2.elems

    def test_exhaustion_raises_with_stats(self):
        # find a seed whose first attempt fails, then cap attempts at 1
        n = 300
        failing_seed = None
        for seed in range(200):
            try:
                weak_random_set(n, 2, 2, seed=seed, max_attempts=1)
            except RetryExhaustedError:
                failing_seed = seed
                break
        if failing_seed is None:
            pytest.skip("no failing seed in range; acceptance covers success path")
        with pytest.raises(RetryExhaustedError) as err:
            weak_random_set(n, 2, 2, seed=failing_seed, max_attempts=1)
        assert len(err.value.attempts) == 1
        assert len(err.value.attempts[0]) == 3

    def test_bad_params(self):
        with pytest.raises(ParameterError):
            weak_random_set(100, 2, 2, seed=1, max_attempts=0)

    def test_cap_meets_a_rejected_attempt(self):
        # seed 5's only attempt fails the acceptance inequalities
        with pytest.raises(RetryExhaustedError):
            weak_random_set(2000, 2, 2, seed=5, max_attempts=1)
        with pytest.raises(ResourceCapError):
            weak_random_set(2000, 2, 2, seed=5, max_attempts=1, subset_cap=1)

    @pytest.mark.parametrize("cap, error", [(1, ResourceCapError), (0, ParameterError)])
    def test_cap_checked_before_detect_bad(self, monkeypatch, cap, error):
        def detect_bad(*args):
            raise AssertionError("bad elements detected before the cap was checked")

        monkeypatch.setattr(constructions, "detect_bad", detect_bad)
        with pytest.raises(error):
            weak_random_set(20000, 2, 2, seed=7, subset_cap=cap)

    def test_cap_stops_the_sampler(self, monkeypatch):
        # about 5·10^6 elements would be kept at n = 10^21; the default cap
        # of 10^8 subsets admits 14,142, so the sampler stops at the next one
        draws = []

        class Counting(constructions.SplitMix64):
            def uniform(self):
                draws.append(None)
                return super().uniform()

        monkeypatch.setattr(constructions, "SplitMix64", Counting)
        with pytest.raises(ResourceCapError,
                           match=r"^at least 100005153 subsets of size 2 exceed cap 100000000$"):
            weak_random_set(10**21, 2, 2, seed=1)
        assert len(draws) == 14_143

    def test_attempt_seeds_drawn_lazily(self, monkeypatch):
        # the master stream is the first one built; it should give one child
        # seed per attempt actually run, not one per allowed attempt
        draws = []

        class Counting(constructions.SplitMix64):
            def __init__(self, seed):
                super().__init__(seed)
                self.index = len(draws)
                draws.append(0)

            def next_uint64(self):
                draws[self.index] += 1
                return super().next_uint64()

        monkeypatch.setattr(constructions, "SplitMix64", Counting)
        result, attempts, _ = weak_random_set(20000, 2, 2, seed=7, max_attempts=1000)
        assert attempts == 1
        assert draws[0] == 1
        monkeypatch.undo()
        assert weak_random_set(20000, 2, 2, seed=7)[0].elems == result.elems
