import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from chgsets import (
    ParameterError,
    counting_ratio,
    group_bound,
    main_term_bound,
    main_term_error_order,
    sample_density,
    weak_lower_bound,
    zarankiewicz_bound,
)
from chgsets.bounds import _weak_exponent


class TestMainTerm:
    def test_values(self):
        assert main_term_bound(1000, 3, 3) == pytest.approx(2 ** (1 / 3) * 100)
        assert main_term_bound(49, 2, 2) == pytest.approx(7.0)
        assert main_term_bound(1000, 3, 2) == pytest.approx(100.0)

    def test_error_order_is_symbolic(self):
        assert main_term_error_order(2) == "O(n^0.25)"
        assert main_term_error_order(3) == f"O(n^{0.5 - 0.5 / 3:g})"

    def test_rejects_bad_params(self):
        with pytest.raises(ParameterError):
            main_term_bound(10, 1, 2)
        with pytest.raises(ParameterError):
            main_term_bound(0, 2, 2)


class TestZarankiewicz:
    def test_plug_in(self):
        assert zarankiewicz_bound(9, 9, 3, 2) == pytest.approx(63.0, abs=1e-9)
        assert zarankiewicz_bound(4, 4, 2, 2) == pytest.approx(16.0, abs=1e-9)

    def test_equal_s_t_kills_first_term(self):
        assert zarankiewicz_bound(10, 10, 3, 3) == pytest.approx(
            3 * 10 ** (2 - 2 / 3) + 30
        )

    def test_order_enforced(self):
        with pytest.raises(ParameterError):
            zarankiewicz_bound(3, 9, 2, 3)
        with pytest.raises(ParameterError):
            zarankiewicz_bound(9, 1, 3, 2)


class TestGroupBound:
    def test_values(self):
        assert group_bound(125, 3, 3) == pytest.approx(43.0, abs=1e-9)
        assert group_bound(100, 2, 2) == pytest.approx(14.0, abs=1e-9)
        assert group_bound(100, 2, 5) == pytest.approx(24.0, abs=1e-9)


class TestSampleDensity:
    def test_values(self):
        _, np_val = sample_density(10**6, 2, 2)
        assert np_val == pytest.approx(50.0, abs=1e-9)
        _, np_val = sample_density(10**4, 2, 3)
        assert np_val == pytest.approx(0.5 * 10 ** (8 / 5), abs=1e-9)
        _, np_val = sample_density(10**5, 2, 3)
        assert np_val == pytest.approx(50.0, abs=1e-9)

    @given(
        st.integers(2, 5).flatmap(lambda h: st.tuples(st.just(h), st.integers(h, 7))),
        st.integers(10, 10**7),
    )
    def test_defining_equation_residual(self, hg, n):
        h, g = hg
        p, np_val = sample_density(n, h, g)
        lhs = 2 * p * n
        rhs = n ** (g + h - 1) * (2 * p) ** (h * g)
        assert abs(lhs - rhs) <= 1e-9 * max(lhs, rhs)
        assert p == np_val / n

    @staticmethod
    def check_exponent(n, h, g):
        # with 2p = n^(e-1), 2pn = n^(g+h-1) (2p)^(hg) reads
        # e = (g+h-1) + (e-1)hg in the exponents: solve it exactly
        e = Fraction(g + h - 1 - h * g, 1 - h * g)
        assert (g + h - 1) + (e - 1) * h * g == e
        assert _weak_exponent(h, g) == float(e)
        np_val = n ** float(e) / 2
        assert sample_density(n, h, g) == (np_val / n, np_val)
        assert np_val / n <= 0.5

    @given(
        st.integers(2, 10**8).flatmap(lambda h: st.tuples(st.just(h), st.integers(h, 10**8))),
        st.integers(1, 10**9),
    )
    def test_exponent_solves_the_defining_equation(self, hg, n):
        self.check_exponent(n, *hg)

    @pytest.mark.parametrize("h, g", [(2, 2), (2, 10**7), (200_000, 200_000), (2, 10**8),
                                      (10**8, 10**8)])
    @pytest.mark.parametrize("n", [1, 2, 10**5, 10**9])
    def test_exponent_at_extreme_parameters(self, n, h, g):
        # (2, 10^7) and (200000, 200000) at n = 10^5 failed a float re-check
        # of the defining equation, which holds identically
        self.check_exponent(n, h, g)

    def test_density_never_above_one(self):
        for n in (1, 2, 5, 100):
            p, _ = sample_density(n, 2, 2)
            assert p <= 1.0
        with pytest.raises(ParameterError, match="n must be >= 1"):
            sample_density(0, 2, 2)


class TestWeakLower:
    def test_values(self):
        assert weak_lower_bound(10**6, 2, 2) == pytest.approx(12.5, abs=1e-9)
        assert weak_lower_bound(10**6, 3, 3) == pytest.approx(125.0, abs=1e-9)

    @given(
        st.integers(2, 5).flatmap(lambda h: st.tuples(st.just(h), st.integers(h, 7))),
        st.integers(2, 10**6),
    )
    def test_is_quarter_of_np(self, hg, n):
        h, g = hg
        _, np_val = sample_density(n, h, g)
        assert weak_lower_bound(n, h, g) == np_val / 4


class TestCountingRatio:
    def test_exact_power_counting(self):
        h = 3
        counts = [(n, n ** (1 - 1 / h)) for n in (10, 100, 1000)]
        ratios = counting_ratio(counts, h)
        values = [r for _, r in ratios]
        assert values == sorted(values)
        for (n, _), (_, r) in zip(counts, ratios):
            assert r == pytest.approx(math.log(n) ** (1 / h))

    def test_zero_counts(self):
        assert counting_ratio([(10, 0), (20, 0)], 2) == [(10, 0.0), (20, 0.0)]

    def test_small_n_skipped_with_warning(self):
        with pytest.warns(UserWarning):
            out = counting_ratio([(1, 1), (10, 2)], 2)
        assert [n for n, _ in out] == [10]

    def test_decreasing_counts_rejected(self):
        with pytest.raises(ParameterError):
            counting_ratio([(10, 5), (20, 4)], 2)
        with pytest.raises(ParameterError, match="h must be >= 2"):
            counting_ratio([(10, 5)], 1)


class TestBoundRespect:
    def test_group_constructions_within_group_bound(self):
        from chgsets import norm_set, order, sphere_set

        for p in (3, 5, 7):
            s = sphere_set(p)
            assert len(s) <= group_bound(order(s.group), 3, 3)
        for q, h in ((2, 2), (3, 2), (2, 3), (3, 3)):
            a, guarantee = norm_set(q, h)
            assert len(a) <= group_bound(order(a.group), h, guarantee)

    def test_interval_constructions_within_doubled_window_bound(self):
        from chgsets import embedded_c33
        from oracles import sidon_baseline

        for n in (108, 500):
            a = embedded_c33(n)
            assert len(a) <= group_bound(2 * n, 3, 3)
        for p in (3, 5, 7):
            a = sidon_baseline(p)
            assert len(a) <= group_bound(2 * a.group.n, 2, 2)
