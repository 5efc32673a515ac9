import pytest

from chgsets import (
    ParameterError,
    greedy_chg,
    group_bound,
    max_chg_exact,
    max_table,
    verify_chg,
)
from oracles import brute_force_max


class TestMaxExact:
    def test_window_seven(self):
        res = max_chg_exact(7, 2, 2)
        assert res.best_size == 4
        assert res.optimal
        assert verify_chg(res.best_set, 2, 2).holds

    def test_singleton_window(self):
        res = max_chg_exact(1, 2, 2)
        assert res.best_size == 1
        assert res.best_set.elems == (0,)

    def test_window_three(self):
        assert max_chg_exact(3, 2, 2).best_size == 2

    def test_matches_oracle_small(self):
        for n in range(1, 16):
            assert max_chg_exact(n, 2, 2).best_size == brute_force_max(n, 2, 2)
        for n in range(1, 13):
            assert max_chg_exact(n, 3, 3).best_size == brute_force_max(n, 3, 3)
        for n in range(1, 13):
            assert max_chg_exact(n, 2, 3).best_size == brute_force_max(n, 2, 3)

    def test_node_cap_returns_partial(self):
        res = max_chg_exact(20, 2, 2, node_cap=5)
        assert not res.optimal
        assert res.best_size >= 1
        assert verify_chg(res.best_set, 2, 2).holds

    def test_range_limit(self):
        with pytest.raises(ParameterError):
            max_chg_exact(41, 2, 2)
        with pytest.raises(ParameterError):
            max_chg_exact(25, 3, 3)
        # explicit limit overrides the default
        assert max_chg_exact(26, 3, 3, n_limit=30).optimal

    def test_bad_params(self):
        with pytest.raises(ParameterError):
            max_chg_exact(5, 2, 1)
        with pytest.raises(ParameterError):
            max_chg_exact(0, 2, 2)


class TestGreedy:
    def test_window_seven(self):
        # 1-based {1,2,4}: the next candidates all repeat a difference
        assert greedy_chg(7, 2, 2).elems == (0, 1, 3)

    def test_singleton(self):
        assert greedy_chg(1, 2, 2).elems == (0,)

    def test_never_beats_exact(self):
        for n in range(1, 20):
            assert len(greedy_chg(n, 2, 2)) <= max_chg_exact(n, 2, 2).best_size
        for n in range(1, 15):
            assert len(greedy_chg(n, 3, 3)) <= max_chg_exact(n, 3, 3).best_size

    def test_output_verifies(self):
        for n, h, g in [(30, 2, 2), (24, 3, 3), (30, 2, 4)]:
            a = greedy_chg(n, h, g)
            assert verify_chg(a, h, g).holds


class TestMaxTable:
    def test_first_eight_sidon(self):
        table = max_table(8, 2, 2)
        assert [r.best_size for r in table] == [1, 2, 2, 3, 3, 3, 4, 4]

    def test_monotone_unit_steps(self):
        table = max_table(16, 2, 2)
        sizes = [r.best_size for r in table]
        for a, b in zip(sizes, sizes[1:]):
            assert a <= b <= a + 1

    def test_all_optimal_and_bounded(self):
        table = max_table(14, 3, 3)
        for r in table:
            assert r.optimal
            assert r.best_size <= group_bound(2 * r.n, 3, 3)
            assert verify_chg(r.best_set, 3, 3).holds
