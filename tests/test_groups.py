import math
import random

import pytest
from hypothesis import assume, example, given, strategies as st

from chgsets import (
    Cyclic,
    Interval,
    ParameterError,
    Product,
    elem_from_key,
    elem_key,
    enumerate_pattern_classes,
    gset,
    iter_elements,
    order,
    sub,
)
from chgsets.groups import diff_rows
from oracles import add, stabilizer, translate


def groups_strategy():
    return st.one_of(
        st.integers(2, 12).map(Cyclic),
        st.tuples(st.sampled_from([2, 3, 4, 5, 6]), st.integers(1, 3)).map(lambda t: Product(*t)),
        st.integers(2, 30).map(Interval),
    )


def elem_strategy(group):
    if isinstance(group, Product):
        return st.tuples(*[st.integers(0, group.q - 1)] * group.d)
    if isinstance(group, Cyclic):
        return st.integers(0, group.n - 1)
    return st.integers(0, group.n - 1)


def group_and_set():
    def build(group):
        return st.tuples(
            st.just(group),
            st.lists(elem_strategy(group), min_size=1, max_size=8, unique=True),
        )

    return groups_strategy().flatmap(build)


# whole groups whose level-1 differences are all dense: every d = -d in
# Z_2^4, and in both every difference has 16 offsets
WHOLE_PRODUCT_2_4 = (Product(2, 4), list(iter_elements(Product(2, 4))))
WHOLE_CYCLIC_16 = (Cyclic(16), list(range(16)))


class TestAdd:
    # the oracles' addition, which every definition-level check relies on
    def test_cyclic(self):
        assert add(Cyclic(7), 5, 4) == 2

    def test_product_componentwise(self):
        assert add(Product(3, 3), (1, 2, 0), (2, 2, 1)) == (0, 1, 1)

    def test_interval_unreduced(self):
        assert add(Interval(10), 7, 6) == 13

    @given(group_and_set(), st.data())
    def test_commutative_associative(self, gs, data):
        group, elems = gs
        a = data.draw(elem_strategy(group))
        b = data.draw(elem_strategy(group))
        c = data.draw(elem_strategy(group))
        assert add(group, a, b) == add(group, b, a)
        assert add(group, add(group, a, b), c) == add(group, a, add(group, b, c))

    @given(group_and_set(), st.data())
    def test_sub_inverts_add(self, gs, data):
        group, _ = gs
        a = data.draw(elem_strategy(group))
        b = data.draw(elem_strategy(group))
        if isinstance(group, Interval):
            assert sub(group, add(group, a, b), b) == a
        else:
            assert sub(group, add(group, a, b), b) == a
            assert add(group, sub(group, a, b), b) == a


class TestTranslate:
    def test_cyclic_example(self):
        g = Cyclic(5)
        assert translate(gset(g, [0, 1]), 3).elems == (3, 4)

    def test_identity(self):
        g = Product(3, 2)
        xs = gset(g, [(0, 0), (1, 2)])
        assert translate(xs, (0, 0)) == xs

    def test_product_example(self):
        g = Product(3, 2)
        xs = gset(g, [(0, 0), (1, 2)])
        assert translate(xs, (2, 1)).elems == ((0, 0), (2, 1))

    @given(group_and_set(), st.data())
    def test_preserves_cardinality(self, gs, data):
        group, elems = gs
        k = data.draw(elem_strategy(group))
        xs = gset(group, elems)
        assert len(translate(xs, k)) == len(xs)


def whole_class(xs):
    """The class of X among the |X|-subsets of X: the kernel's canonical
    pattern of X, and its offsets, the shifts x with X - x that pattern."""
    [pc] = enumerate_pattern_classes(xs, len(xs))
    return pc.pattern, pc.bases


class TestCanonicalize:
    # the canonical rule of the kernel's emit, on the whole set
    def test_interval_subtracts_min(self):
        g = Interval(20)
        pat, shifts = whole_class(gset(g, [4, 7, 9]))
        assert pat.elems == (0, 3, 5)
        assert shifts == (4,)

    def test_cyclic_translates_agree(self):
        g = Cyclic(7)
        p1, _ = whole_class(gset(g, [1, 3]))
        p2, _ = whole_class(gset(g, [4, 6]))
        assert p1.elems == p2.elems == (0, 2)

    def test_cyclic_min_over_shifts(self):
        # independently minimize over all |X| candidate shifts
        g = Cyclic(5)
        xs = (0, 1, 2)
        cands = [tuple(sorted((x - s) % 5 for x in xs)) for s in xs]
        pat, _ = whole_class(gset(g, list(xs)))
        assert pat.elems == min(cands) == (0, 1, 2)

    @given(group_and_set(), st.data())
    def test_translation_invariance(self, gs, data):
        group, elems = gs
        assume(len(elems) >= 2)
        k = data.draw(elem_strategy(group))
        xs = gset(group, elems)
        moved = translate(xs, k)
        assert whole_class(xs)[0] == whole_class(moved)[0]

    @given(group_and_set())
    def test_matches_brute_force_minimum(self, gs):
        # every x in X is a candidate shift; in Z only those leaving the
        # pattern in the non-negative window (x = min X) are admissible
        group, elems = gs
        assume(len(elems) >= 2)
        xs = gset(group, elems)
        cands = [(tuple(sorted(sub(group, y, x) for y in xs.elems)), x) for x in xs.elems]
        if isinstance(group, Interval):
            cands = [(pat, x) for pat, x in cands if pat[0] >= 0]
        best = min(cands)[0]
        pat, shifts = whole_class(xs)
        assert pat.elems == best
        assert shifts == tuple(x for cand, x in sorted(cands) if cand == best)

    @given(group_and_set())
    def test_pattern_contains_zero_and_reconstructs(self, gs):
        group, elems = gs
        assume(len(elems) >= 2)
        xs = gset(group, elems)
        pat, shifts = whole_class(xs)
        assert elem_from_key(group, 0) in pat.elems
        for shift in shifts:
            rebuilt = sorted(add(group, x, shift) for x in pat.elems)
            assert tuple(rebuilt) == xs.elems


class TestKeys:
    @given(group_and_set(), st.data())
    def test_round_trip_and_order(self, gs, data):
        group, _ = gs
        a = data.draw(elem_strategy(group))
        b = data.draw(elem_strategy(group))
        ka, kb = elem_key(group, a), elem_key(group, b)
        assert elem_from_key(group, ka) == a
        assert (ka < kb) == (a < b)

    @pytest.mark.parametrize("q", [2, 3, 4, 6, 13, 19, 32, 97])
    @pytest.mark.parametrize("d", [1, 2, 3, 12])
    def test_packed_keys_order_and_round_trip(self, q, d):
        group = Product(q, d)
        rng = random.Random(q * 100 + d)
        elems = {(0,) * d, (q - 1,) * d}
        elems.update(tuple(rng.randrange(q) for _ in range(d)) for _ in range(300))
        elems = sorted(elems)
        keys = [elem_key(group, e) for e in elems]
        assert keys == sorted(set(keys))
        assert [elem_from_key(group, k) for k in keys] == elems

    @given(group_and_set(), st.data())
    def test_diff_rows_match_sub(self, gs, data):
        group, ys = gs
        xs = data.draw(st.lists(elem_strategy(group), min_size=1, max_size=4))
        rows = diff_rows(group, [elem_key(group, x) for x in xs], [elem_key(group, y) for y in ys])
        assert rows == [[elem_key(group, sub(group, y, x)) for y in ys] for x in xs]

    @pytest.mark.parametrize("q,d", [(2, 12), (6, 3), (13, 3), (32, 2), (97, 3)])
    def test_diff_rows_match_sub_on_wide_digits(self, q, d):
        group = Product(q, d)
        rng = random.Random(q + d)
        elems = [tuple(rng.randrange(q) for _ in range(d)) for _ in range(40)]
        elems += [(0,) * d, (q - 1,) * d]
        keys = [elem_key(group, e) for e in elems]
        assert diff_rows(group, keys, keys) == [
            [elem_key(group, sub(group, y, x)) for y in elems] for x in elems]

    def test_iter_elements_sorted(self):
        for group in (Cyclic(6), Product(3, 2), Interval(5)):
            elems = list(iter_elements(group))
            assert elems == sorted(elems)
            assert len(elems) == order(group)


class TestPatternClasses:
    def test_integers_pair_classes(self):
        g = Interval(10)
        classes = enumerate_pattern_classes(gset(g, [1, 2, 3]), 2)
        by_pattern = {pc.pattern.elems: pc.bases for pc in classes}
        assert by_pattern == {(0, 1): (1, 2), (0, 2): (1,)}

    def test_progression_class_count(self):
        g = Interval(10)
        classes = enumerate_pattern_classes(gset(g, [1, 2, 3, 4, 5]), 2)
        by_pattern = {pc.pattern.elems: pc.bases for pc in classes}
        assert by_pattern[(0, 1)] == (1, 2, 3, 4)

    def test_full_cyclic_orbit(self):
        # brute force: every 2-subset class of all of Z_5 has all 5 offsets
        g = Cyclic(5)
        host = gset(g, range(5))
        classes = enumerate_pattern_classes(host, 2)
        assert len(classes) == 2
        for pc in classes:
            assert len(pc.bases) == 5
            for k in pc.bases:
                assert all(add(g, x, k) in host.elems for x in pc.pattern.elems)

    def test_h_above_size_is_empty(self):
        g = Interval(10)
        assert enumerate_pattern_classes(gset(g, [1, 2]), 3) == []

    def test_h_below_two_rejected(self):
        g = Interval(10)
        with pytest.raises(ParameterError):
            enumerate_pattern_classes(gset(g, [1, 2]), 1)

    def test_periodic_pattern_offsets(self):
        # {0,3} in Z_6 is its own translate by 3: one member subset, two offsets
        g = Cyclic(6)
        classes = enumerate_pattern_classes(gset(g, [0, 3]), 2)
        (pc,) = classes
        assert pc.pattern.elems == (0, 3)
        assert pc.bases == (0, 3)
        assert stabilizer(g, pc.pattern.elems) == [0, 3]
        # the threshold counts offsets, so two offsets reach 2
        assert enumerate_pattern_classes(gset(g, [0, 3]), 2, 2) == classes

    @given(group_and_set(), st.integers(2, 5))
    @example(WHOLE_PRODUCT_2_4, 2)
    @example(WHOLE_CYCLIC_16, 2)
    def test_member_count_identity(self, gs, h):
        group, elems = gs
        host = gset(group, elems)
        if h > len(host):
            return
        classes = enumerate_pattern_classes(host, h)

        def member_count(pc):
            return len(pc.bases) // len(stabilizer(group, pc.pattern.elems))

        assert sum(member_count(pc) for pc in classes) == math.comb(len(host), h)
        # the offset filter only drops classes, it never changes one
        for least in (2, 3):
            kept = [pc for pc in classes if len(pc.bases) >= least]
            assert enumerate_pattern_classes(host, h, least) == kept
        if isinstance(group, Interval):
            # in Z no pattern is periodic, so offsets == member subsets
            assert sum(len(pc.bases) for pc in classes) == math.comb(len(host), h)

    @given(group_and_set(), st.integers(2, 5))
    @example(WHOLE_PRODUCT_2_4, 2)
    @example(WHOLE_CYCLIC_16, 2)
    def test_bases_are_exhaustive(self, gs, h):
        group, elems = gs
        host = gset(group, elems)
        if h > len(host):
            return
        members = set(host.elems)
        # in Z an offset k puts k = 0 + k in the host, so the host holds them all
        ambient = host.elems if isinstance(group, Interval) else list(iter_elements(group))
        for pc in enumerate_pattern_classes(host, h):
            expected = [
                k for k in ambient if all(add(group, x, k) in members for x in pc.pattern.elems)
            ]
            assert list(pc.bases) == expected


class TestValidation:
    def test_bad_descriptors(self):
        with pytest.raises(ParameterError):
            Cyclic(0)
        with pytest.raises(ParameterError):
            Product(1, 2)
        with pytest.raises(ParameterError):
            Interval(0)

    def test_gset_rejects_invalid(self):
        with pytest.raises(ParameterError):
            gset(Cyclic(5), [5])
        with pytest.raises(ParameterError):
            gset(Product(3, 2), [(1, 2, 0)])
        with pytest.raises(ParameterError):
            gset(Interval(5), [-1])
        with pytest.raises(ParameterError, match="out of range for"):
            gset(Product(3, 2), [(1, 3)])
        with pytest.raises(ParameterError, match="expected an int element"):
            gset(Cyclic(5), ["1"])

    def test_gset_sorts_and_dedupes(self):
        xs = gset(Interval(10), [5, 2, 5, 9])
        assert xs.elems == (2, 5, 9)
