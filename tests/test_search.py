import tracemalloc

import pytest
from hypothesis import assume, given, settings, strategies as st

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
        # with g > 2 a new mark's classes and its classes through the held
        # n-1 can meet: (2, 3), (2, 4), (3, 4), (4, 4) and (4, 6) check that;
        # h=2 with g = 2..5 checks the forward checks' full classes
        for h, g, n_max in ((2, 2, 15), (3, 3, 12), (2, 3, 16), (2, 4, 16), (2, 5, 16),
                            (3, 4, 16), (4, 4, 16), (4, 5, 16), (4, 6, 16), (5, 5, 16),
                            (5, 6, 16)):
            expected = [brute_force_max(n, h, g) for n in range(1, n_max + 1)]
            table = max_table(n_max, h, g)
            assert [r.best_size for r in table] == expected
            assert all(r.optimal for r in table)
            assert max_chg_exact(n_max, h, g) == table[-1]

    @pytest.mark.parametrize("n_max, g, sizes", [
        (30, 3, [1, 2, 3, 3, 4, 4, 5, 5, 5, 6, 6, 6, 6, 7, 7, 7, 7, 7, 8, 8, 8, 8, 8, 9, 9, 9,
                 9, 9, 9, 10]),
        (24, 4, [1, 2, 3, 4, 4, 5, 5, 6, 6, 6, 7, 7, 7, 8, 8, 8, 9, 9, 9, 9, 10, 10, 10, 10]),
        (20, 5, [1, 2, 3, 4, 5, 5, 6, 6, 7, 7, 8, 8, 8, 9, 9, 9, 10, 10, 10, 10]),
    ])
    def test_pair_maxima_pinned(self, n_max, g, sizes):
        # h=2 with g > 2, past the oracle's reach: a full class has g-1 members
        table = max_table(n_max, 2, g)
        assert [r.best_size for r in table] == sizes
        assert all(r.optimal for r in table)

    def test_sidon_rows_are_golomb_rulers(self):
        # a Sidon set of k elements fits window n exactly when the optimal
        # Golomb ruler of k marks has length G(k) <= n - 1 (published values)
        golomb = (0, 1, 3, 6, 11, 17, 25, 34, 44, 55)
        n_max = search.DEFAULT_N_LIMITS[2]
        assert n_max - 1 <= golomb[-1]  # then G(11) > G(10) >= n - 1
        table = max_table(n_max, 2, 2)
        assert [r.best_size for r in table] == [
            max(k for k, length in enumerate(golomb, 1) if length <= n - 1)
            for n in range(1, n_max + 1)]
        assert all(r.optimal for r in table)

    @pytest.mark.parametrize("h, g, sizes", [
        (6, 6, [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 10, 11, 12, 13, 14, 15]),
        (7, 9, [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 14, 15]),
    ])
    def test_dict_counter_maxima_pinned(self, h, g, sizes):
        # the windows from 11 (h=6) and from 8 (h=7) on search with _DictCounter
        assert isinstance(search._counter(16, h, g), search._DictCounter)
        table = max_table(16, h, g)
        assert [r.best_size for r in table] == sizes
        assert all(r.optimal for r in table)

    @pytest.mark.parametrize("h, g, n_max", [(2, 2, 32), (3, 3, 20), (2, 4, 16), (3, 4, 16),
                                             (4, 6, 16), (6, 6, 16)])
    def test_improving_rows_hold_both_ends(self, h, g, n_max):
        # a set that beats window n-1 spans window n, and of it and its mirror
        # image x -> n-1-x the search keeps one with a_1 <= n-1-a_(k-1)
        table = max_table(n_max, h, g)
        for before, row in zip(table, table[1:]):
            if row.best_size > before.best_size:
                elems = row.best_set.elems
                assert (elems[0], elems[-1]) == (0, row.n - 1)
                if len(elems) > 2:
                    assert elems[1] <= row.n - 1 - elems[-2]

    @pytest.mark.parametrize("n, h, g, node_cap", [
        (1, 2, 2, 10**9), (20, 2, 2, 10**9), (12, 3, 3, 10**9), (16, 4, 5, 10**9),
        (20, 2, 2, 5),
    ])
    def test_is_last_table_row(self, n, h, g, node_cap):
        assert max_chg_exact(n, h, g, node_cap) == max_table(n, h, g, node_cap)[-1]

    def test_node_cap_returns_partial(self):
        res = max_chg_exact(20, 2, 2, node_cap=5)
        assert not res.optimal
        assert res.best_size >= 1
        assert verify_chg(res.best_set, 2, 2).holds

    def test_range_limit(self, monkeypatch):
        with pytest.raises(ParameterError):
            max_chg_exact(search.DEFAULT_N_LIMITS[2] + 1, 2, 2)
        with pytest.raises(ParameterError):
            max_chg_exact(29, 3, 3)
        # the configured limit is the only one
        monkeypatch.setitem(search.DEFAULT_N_LIMITS, 3, 30)
        res = max_chg_exact(30, 3, 3, node_cap=500)
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
        with pytest.raises(ParameterError, match="n must be >= 1"):
            greedy_chg(0, 2, 2)

    def test_never_beats_exact(self):
        for n_max, h in ((19, 2), (14, 3)):
            for r in max_table(n_max, h, h):
                assert len(greedy_chg(r.n, h, h)) <= r.best_size

    @pytest.mark.parametrize("h, g, n_max", [(2, 2, 48), (3, 3, 28), (4, 6, 16), (6, 6, 16),
                                             (7, 9, 16)])
    def test_window_is_prefix_of_largest(self, h, g, n_max):
        # `search` reads every row's greedy size off the largest window's set;
        # (6, 6) and (7, 9) switch from the planes to the dict counter below n_max
        largest = greedy_chg(n_max, h, g).elems
        for n in range(1, n_max + 1):
            assert greedy_chg(n, h, g).elems == tuple(e for e in largest if e < n)

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
        # the maxima of the smaller windows prune most of the tree
        assert sum(r.nodes_explored for r in max_table(26, 2, 2)) < 40_000
        assert sum(r.nodes_explored for r in max_table(16, 3, 3)) < 2_500

    def test_forward_check_work(self):
        # at h=2 blocked positions are never visited, and the free gaps cut
        # off most of the rest
        assert sum(r.nodes_explored for r in max_table(48, 2, 2)) < 100_000

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
            (32, 2, 2_396, (0, 1, 4, 10, 18, 23, 25)),
            (20, 3, 10_648, (0, 1, 2, 3, 6, 10, 11, 13, 15, 17, 18)),
        ],
    )
    def test_benchmark_tables_pinned(self, n_max, h, nodes, last):
        table = max_table(n_max, h, h)
        assert all(r.optimal for r in table)
        assert sum(r.nodes_explored for r in table) == nodes
        assert table[-1].best_set.elems == last

    @staticmethod
    def rows(n_max, h, g):
        return ([(r.best_size, r.best_set.elems, r.nodes_explored, r.optimal)
                 for r in max_table(n_max, h, g)], greedy_chg(n_max, h, g).elems)

    @pytest.mark.parametrize("h", [8, 50, 10**8])
    def test_h_above_the_window_acts_as_window_plus_one(self, h):
        # a window of n <= 6 holds no h-subset for any h >= 7, so every
        # window is its own maximum
        table, greedy = self.rows(6, h, h)
        assert (table, greedy) == self.rows(6, 7, 7)
        assert [size for size, *_ in table] == list(range(1, 7))
        assert greedy == tuple(range(6))

    @pytest.mark.parametrize("h", [2, 3])
    @pytest.mark.parametrize("g", [50, 10**7])
    def test_g_above_the_window_acts_as_window_plus_one(self, h, g):
        # no class in a window of n <= 6 has 6 members
        assert self.rows(6, h, g) == self.rows(6, h, 7)


def _snapshot(counter):
    if isinstance(counter, search._PlaneCounter):
        return tuple(counter.levels), tuple(counter.ge), tuple(counter.elems)
    counts = {k: c for k, c in counter.counts.items() if c}
    return counts, [tuple(p) for p in counter.prefixes], tuple(counter.elems)


# one op per window element, in ascending order as the search and the
# greedy scan offer them: mostly plain offers, so that sets get dense
# enough for rejections at every h
_OPS = ("offer",) * 9 + ("skip", "undo first", "retract")


def _replay_matches_definition(counter, h, g, offers, top):
    # offers: (element, op) in ascending order, all below the held top if
    # any; every verdict is the definition's, and undo restores the counter
    chosen, saved = [], []

    def undo():
        counter.undo()
        chosen.pop()
        assert _snapshot(counter) == saved.pop()

    for a, op in offers:
        if op == "skip":
            continue
        if op == "undo first" and chosen:
            undo()
        before = _snapshot(counter)
        accepted = counter.add(a)
        assert accepted == naive_is_chg_interval(chosen + [a] + top, h, g)
        if not accepted:
            assert _snapshot(counter) == before
            continue
        chosen.append(a)
        saved.append(before)
        assert list(counter.elems) == chosen
        if op == "retract":
            undo()


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
        _replay_matches_definition(counter_type(n, h, g), h, g, zip(range(n), ops), [])

    @pytest.mark.parametrize("counter_type", [search._PlaneCounter, search._DictCounter])
    @pytest.mark.parametrize("h", range(2, 7))
    @given(
        st.integers(0, 2),
        st.sampled_from(range(14, 1, -1)),
        st.lists(st.sampled_from(_OPS), min_size=13, max_size=13),
    )
    @settings(max_examples=100)
    def test_held_top_matches_definition(self, counter_type, h, g_over_h, n, ops):
        # the counter holds n-1 from the start and is offered 0..n-2, as in
        # the search of a window after an optimal row; both counters match
        # the definition, so they accept the same marks
        g = h + g_over_h
        _replay_matches_definition(counter_type(n, h, g, n - 1), h, g, zip(range(n - 1), ops),
                                   [n - 1])

    @pytest.mark.parametrize("held", [False, True])
    @given(st.integers(2, 4), st.integers(3, 24), st.lists(st.booleans(), min_size=23,
                                                           max_size=23))
    @settings(max_examples=200)
    def test_blocked_positions_are_refused(self, held, g, n, offers):
        # every position above the set that the forward check blocks is one
        # add refuses, and the refusal leaves the counter as it was
        top = [n - 1] if held else []
        counter = search._PlaneCounter(n, 2, g, *top)
        for a, offer in zip(range(n - held), offers):
            if offer:
                counter.add(a)
        chosen = list(counter.elems)
        blocked = search._blocked(counter.full(), chosen)
        for x in range(chosen[-1] + 1 if chosen else 0, n - held):
            if blocked >> x & 1:
                assert not naive_is_chg_interval(chosen + [x] + top, 2, g)
                before = _snapshot(counter)
                assert not counter.add(x)
                assert _snapshot(counter) == before

    @pytest.mark.parametrize("held", [False, True])
    @given(st.integers(2, 4), st.integers(3, 24), st.lists(st.booleans(), min_size=23,
                                                           max_size=23), st.data())
    @settings(max_examples=200)
    def test_free_gaps_bound_every_completion(self, held, g, n, offers, data):
        # split a valid set after its k-th element, with one element or more
        # left: the gaps from the k-th element on (to the held n-1, if held)
        # are at least the least free gaps, and the first of them leaves room
        # for the least of the others
        top = [n - 1] if held else []
        counter = search._PlaneCounter(n, 2, g, *top)
        for a, offer in zip(range(n - held), offers):
            if offer or a == 0:
                counter.add(a)
        elems = list(counter.elems)
        assume(len(elems) >= 2)
        k = data.draw(st.integers(1, len(elems) - 1))
        while len(counter.elems) > k:
            counter.undo()
        end = (elems + top)[-1]
        room = end - elems[k - 1]
        fewer = search._least_gaps(counter.full(), len(elems) - k + held, g - 1, room)
        assert fewer is not None
        assert (elems[k:] + top)[0] - elems[k - 1] + fewer <= room

    @pytest.mark.parametrize("full, gaps, reps, room, least", [
        (0b0100000, 3, 1, 12, 3),    # 1 + 2 + 3 fits, the least two sum 3
        (0b0100000, 3, 1, 5, None),
        (0b0100000, 3, 2, 4, 2),     # 1 + 1 + 2, each value twice at most
        (0b0001100, 2, 1, 5, 1),     # 2 and 3 are full: 1 + 4
        (0b0001100, 2, 1, 4, None),
        (0b1111100, 2, 1, 6, None),  # 1 is the only free value up to room
        (0b1111100, 2, 2, 6, 1),
    ])
    def test_least_gaps(self, full, gaps, reps, room, least):
        assert search._least_gaps(full, gaps, reps, room) == least

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
