import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from chgsets import (
    Interval,
    ParameterError,
    SearchResult,
    greedy_chg,
    group_bound,
    max_chg_exact,
    max_table,
    gset,
    verify_chg,
)
from chgsets import search
from oracles import brute_force_max, naive_is_chg_interval


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
        # max_chg_exact bounds the rest of the window by its size, max_table
        # by the maxima of the smaller windows: both must match the oracle
        for h, g, n_max in ((2, 2, 15), (3, 3, 12), (2, 3, 12), (4, 4, 16), (4, 5, 16),
                            (5, 5, 16), (5, 6, 16)):
            expected = [brute_force_max(n, h, g) for n in range(1, n_max + 1)]
            assert [max_chg_exact(n, h, g).best_size for n in range(1, n_max + 1)] == expected
            table = max_table(n_max, h, g)
            assert [r.best_size for r in table] == expected
            assert all(r.optimal for r in table)

    def test_node_cap_returns_partial(self):
        res = max_chg_exact(20, 2, 2, node_cap=5)
        assert not res.optimal
        assert res.best_size >= 1
        assert verify_chg(res.best_set, 2, 2).holds

    def test_range_limit(self):
        with pytest.raises(ParameterError):
            max_chg_exact(49, 2, 2)
        with pytest.raises(ParameterError):
            max_chg_exact(29, 3, 3)
        # explicit limit overrides the default
        res = max_chg_exact(30, 3, 3, n_limit=30, node_cap=500)
        assert res.n == 30 and verify_chg(res.best_set, 3, 3).holds

    def test_bad_params(self):
        with pytest.raises(ParameterError):
            max_chg_exact(5, 2, 1)
        with pytest.raises(ParameterError):
            max_chg_exact(0, 2, 2)

    @pytest.mark.parametrize("node_cap", [0, -5])
    def test_node_cap_below_one_rejected(self, node_cap):
        with pytest.raises(ParameterError):
            max_chg_exact(5, 2, 2, node_cap=node_cap)
        with pytest.raises(ParameterError):
            max_table(5, 2, 2, node_cap=node_cap)


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

    def test_doll_bound_work(self):
        # the maxima of the smaller windows prune most of the tree: the
        # window-size bound alone explores 92,741 and 7,788 nodes here
        assert sum(r.nodes_explored for r in max_table(26, 2, 2)) < 40_000
        assert sum(r.nodes_explored for r in max_table(16, 3, 3)) < 2_500

    def test_node_capped_rows(self):
        # rows cut off by the cap keep a valid set, and the rows that finish
        # are exact whatever the rows before them fed into their bound
        expected = [brute_force_max(n, 2, 2) for n in range(1, 15)]
        cut = optimal = 0
        for node_cap in (1, 2, 3, 5, 8, 13, 21, 34, 55, 89):
            for r, best in zip(max_table(14, 2, 2, node_cap=node_cap), expected):
                assert verify_chg(r.best_set, 2, 2).holds
                assert len(r.best_set) == r.best_size <= best
                if r.optimal:
                    assert r.best_size == best
                    optimal += 1
                else:
                    cut += 1
        assert cut and optimal

    def test_cut_row_counts_as_its_window(self, monkeypatch):
        # row 3 cut off holding {0, 1} although M(3) = 3: if that 2 fed the
        # bound, row 4 would stop at 3 and call it optimal (M(4) = 4)
        search_window = search._search_window

        def cut_row_three(n, h, g, node_cap, seed, doll):
            res = search_window(n, h, g, node_cap, seed, doll)
            if n != 3:
                return res
            return SearchResult(n, h, g, 2, gset(Interval(3), [0, 1]), res.nodes_explored, False)

        monkeypatch.setattr(search, "_search_window", cut_row_three)
        table = max_table(8, 3, 3)
        assert [r.optimal for r in table[1:4]] == [True, False, True]
        assert [r.best_size for r in table[3:]] == [brute_force_max(n, 3, 3) for n in range(4, 9)]


class TestSameTree:
    """The counters change the cost of a node, never the tree."""

    @pytest.mark.parametrize(
        "n_max, h, nodes, last",
        [
            (32, 2, 158_362, (0, 1, 4, 10, 18, 23, 25)),
            (20, 3, 17_946, (0, 1, 2, 3, 6, 10, 11, 13, 15, 17, 18)),
        ],
    )
    def test_benchmark_tables_pinned(self, n_max, h, nodes, last):
        table = max_table(n_max, h, h)
        assert all(r.optimal for r in table)
        assert sum(r.nodes_explored for r in table) == nodes
        assert table[-1].best_set.elems == last


def _snapshot(counter):
    if isinstance(counter, search._PlaneCounter):
        return tuple(counter.levels), tuple(counter.ge), tuple(counter.elems)
    counts = {k: c for k, c in counter.counts.items() if c}
    return counts, [tuple(p) for p in counter.prefixes], tuple(counter.elems)


# one op per window element, in ascending order as the search and the
# greedy scan offer them: mostly plain offers, so that sets get dense
# enough for rejections at every h
_OPS = ("offer",) * 9 + ("skip", "undo first", "retract")


class TestCounters:
    @pytest.mark.parametrize("counter_type", [search._PlaneCounter, search._DictCounter])
    @pytest.mark.parametrize("h", range(2, 7))
    @given(
        st.integers(0, 2),
        st.sampled_from(range(14, 0, -1)),
        st.lists(st.sampled_from(_OPS), min_size=14, max_size=14),
    )
    @settings(max_examples=100)
    def test_add_and_undo_match_definition(self, counter_type, h, g_over_h, n, ops):
        g = h + g_over_h
        counter = counter_type(n, h, g)
        chosen, saved = [], []

        def undo():
            counter.undo()
            chosen.pop()
            assert _snapshot(counter) == saved.pop()

        for a, op in zip(range(n), ops):
            if op == "skip":
                continue
            if op == "undo first" and chosen:
                undo()
            before = _snapshot(counter)
            accepted = counter.add(a)
            assert accepted == naive_is_chg_interval(chosen + [a], h, g)
            if not accepted:
                assert _snapshot(counter) == before
                continue
            chosen.append(a)
            saved.append(before)
            assert list(counter.elems) == chosen
            if op == "retract":
                undo()

    def test_wide_key_space_stays_small(self):
        # 16^7 class keys: each bit-plane would be 2^29 bits wide, so the
        # peak is checked window by window and a regression fails early
        tracemalloc.start()
        try:
            for n in range(1, 17):
                max_table(n, 8, 8)
                assert tracemalloc.get_traced_memory()[1] < 4 * 2**20, n
        finally:
            tracemalloc.stop()
