import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from chgsets import (
    Cyclic,
    Interval,
    ParameterError,
    Product,
    ResourceCapError,
    build_zmatrix,
    check_kgh_free,
    enumerate_pattern_classes,
    gset,
    iter_elements,
    norm_set,
    order,
    sphere_set,
    sub,
    verify_chg,
    verify_weak_chg,
    write_set,
)
from chgsets.verify import Witness, ZMatrix, check_kgh_params, find_disjoint_translates
from oracles import (
    add,
    naive_first_block,
    naive_is_chg_group,
    naive_is_chg_interval,
    naive_is_weak_chg_group,
    naive_is_weak_chg_interval,
)

SRC = Path(__file__).parents[1] / "src"


def small_group_set():
    """A random subset of a small Cyclic or Product group, composite moduli
    included."""
    group = st.one_of(
        st.integers(2, 12).map(Cyclic),
        st.sampled_from([Product(2, 2), Product(3, 2), Product(2, 3),
                         Product(4, 1), Product(4, 2), Product(6, 1)]),
    )
    return group.flatmap(lambda g: st.lists(st.sampled_from(list(iter_elements(g))),
                                            max_size=8, unique=True)
                         .map(lambda elems: gset(g, elems)))


def interval_set(elems, n=None):
    n = n if n is not None else max(elems) + 1
    return gset(Interval(n), elems)


def assert_valid_witness(target, verdict, h, g, weak=False):
    group = target.group
    assert not verdict.holds
    w = verdict.witness
    assert w is not None
    assert len(w.pattern.elems) == h
    assert len(w.bases) == g
    assert len(set(w.bases)) == g
    members = set(target.elems)
    translates = []
    for k in w.bases:
        t = {add(group, x, k) for x in w.pattern.elems}
        assert t <= members
        translates.append(t)
    if weak:
        for i in range(len(translates)):
            for j in range(i):
                assert not (translates[i] & translates[j])


def assert_same_verdicts(variants, h, g):
    """Plain and weak verdicts agree on every variant, and every witness is
    valid in its own variant."""
    for check, weak in ((verify_chg, False), (verify_weak_chg, True)):
        verdicts = [check(a, h, g) for a in variants]
        assert len({v.holds for v in verdicts}) == 1
        for a, verdict in zip(variants, verdicts):
            if not verdict.holds:
                assert_valid_witness(a, verdict, h, g, weak=weak)


class TestVerifyChg:
    def test_progression_fails_with_witness(self):
        a = interval_set([1, 2, 3, 4, 5], 10)
        verdict = verify_chg(a, 2, 2)
        assert not verdict.holds
        assert verdict.witness.pattern.elems == (0, 1)
        assert verdict.witness.bases == (1, 2)
        assert_valid_witness(a, verdict, 2, 2)

    def test_sidon_example_holds(self):
        a = interval_set([1, 2, 5, 11], 12)
        assert verify_chg(a, 2, 2).holds

    def test_sphere_three_is_c33(self):
        s = sphere_set(3)
        assert verify_chg(s, 3, 3).holds

    def test_small_sets_vacuous(self):
        a = interval_set([4], 10)
        assert verify_chg(a, 2, 2).holds
        assert verify_chg(a, 3, 3).holds

    def test_bad_params(self):
        a = interval_set([1, 2], 5)
        with pytest.raises(ParameterError):
            verify_chg(a, 2, 1)
        with pytest.raises(ParameterError):
            verify_chg(a, 1, 2)

    def test_cap_respected(self):
        a = interval_set(list(range(30)), 30)
        with pytest.raises(ResourceCapError):
            verify_chg(a, 3, 3, subset_cap=10)

    @pytest.mark.parametrize("cap", [0, -5])
    def test_cap_below_one_rejected(self, cap):
        # rejected even where no subset would be enumerated
        a = interval_set([1, 2], 5)
        for check in (verify_chg, verify_weak_chg):
            with pytest.raises(ParameterError):
                check(a, 2, 2, subset_cap=cap)

    def test_periodic_pattern_counts_offsets(self):
        # {0,3} in Z_6 is fixed by adding 3: two distinct offsets reuse one
        # translate, which already violates C_2[2]
        g = Cyclic(6)
        a = gset(g, [0, 3])
        verdict = verify_chg(a, 2, 2)
        assert not verdict.holds
        assert not naive_is_chg_group(g, a.elems, 2, 2)

    @given(st.lists(st.integers(0, 20), min_size=1, max_size=10, unique=True),
           st.sampled_from([(2, 2), (2, 3), (3, 3), (3, 4)]))
    def test_matches_naive_on_intervals(self, elems, hg):
        h, g = hg
        a = interval_set(elems, 21)
        assert verify_chg(a, h, g).holds == naive_is_chg_interval(elems, h, g)

    @given(st.data())
    def test_matches_naive_on_groups(self, data):
        group = data.draw(st.one_of(
            st.integers(2, 9).map(Cyclic),
            st.sampled_from([Product(2, 2), Product(3, 2), Product(2, 3),
                             Product(4, 1), Product(4, 2), Product(6, 1)]),
        ))
        ambient = list(iter_elements(group))
        elems = data.draw(st.lists(st.sampled_from(ambient), min_size=1,
                                   max_size=min(8, len(ambient)), unique=True))
        h, g = data.draw(st.sampled_from([(2, 2), (2, 3), (3, 3)]))
        a = gset(group, elems)
        assert verify_chg(a, h, g).holds == naive_is_chg_group(group, elems, h, g)

    @given(st.lists(st.integers(0, 25), min_size=2, max_size=9, unique=True))
    def test_monotone_in_g(self, elems):
        a = interval_set(elems, 26)
        for h in (2, 3):
            held = False
            for g in range(h, h + 4):
                now = verify_chg(a, h, g).holds
                if held:
                    assert now
                held = now

    @given(st.lists(st.integers(0, 25), min_size=1, max_size=9, unique=True),
           st.sampled_from([(2, 2), (2, 3), (3, 3)]))
    def test_plain_implies_weak(self, elems, hg):
        h, g = hg
        a = interval_set(elems, 26)
        if verify_chg(a, h, g).holds:
            assert verify_weak_chg(a, h, g).holds

    def test_fast_and_generic_paths_agree(self):
        # the generic path runs whenever periodic patterns are possible;
        # compare its verdict with class counts on both kinds of input
        for group, elems in [
            (Cyclic(12), [0, 3, 6, 7]),
            (Cyclic(9), [0, 3, 6, 1]),
            (Product(3, 2), [(0, 0), (1, 0), (2, 0), (0, 1)]),
            (Product(5, 2), [(0, 0), (1, 2), (2, 4), (3, 1)]),
            (Cyclic(7), [0, 1, 3, 5]),
            # composite moduli: periodic patterns although q does not divide h
            (Product(4, 1), [(0,), (2,)]),
            (Product(4, 2), [(0, 0), (2, 2), (1, 3)]),
            (Product(6, 1), [(1,), (3,), (5,)]),
        ]:
            a = gset(group, elems)
            for h, g in [(2, 2), (2, 3), (3, 3)]:
                expected = naive_is_chg_group(group, elems, h, g)
                assert verify_chg(a, h, g).holds == expected


    # 1, 5, 7 and 11 are units modulo every n whose prime factors are 2 and 3
    @given(st.sampled_from([4, 6, 8, 9, 12]),
           st.lists(st.integers(0, 11), min_size=1, max_size=8),
           st.integers(0, 11),
           st.sampled_from([1, 5, 7, 11]),
           st.sampled_from([(2, 2), (2, 3), (3, 3), (3, 4)]))
    @example(4, [0, 2], 1, 1, (2, 2))
    @example(6, [1, 3, 5], 2, 5, (3, 3))
    def test_verdict_invariant_under_relabelling(self, n, elems, k, u, hg):
        # Z_n written as Cyclic(n) or Product(n, 1), translated, or scaled by
        # a unit is the same set up to a group automorphism
        h, g = hg
        elems = sorted({x % n for x in elems})
        variants = [
            gset(Cyclic(n), elems),
            gset(Product(n, 1), [(x,) for x in elems]),
            gset(Cyclic(n), [(x + k) % n for x in elems]),
            gset(Cyclic(n), [u * x % n for x in elems]),
        ]
        assert_same_verdicts(variants, h, g)

    @given(st.data(), st.sampled_from([2, 3, 4, 5, 6]), st.sampled_from([2, 3]),
           st.sampled_from([(2, 2), (2, 3), (3, 3), (3, 4)]))
    def test_verdict_invariant_under_linear_maps(self, data, q, d, hg):
        # x -> Mx + t with M invertible mod q is an automorphism of Z_q^d
        # followed by a translation: it maps each class onto a class with as
        # many offsets, periodic patterns of composite q included
        h, g = hg
        group = Product(q, d)
        coord = st.integers(0, q - 1)
        unit = st.sampled_from([u for u in range(1, q) if math.gcd(u, q) == 1])
        lower = [[data.draw(coord) if j < i else int(i == j) for j in range(d)]
                 for i in range(d)]
        upper = [[data.draw(coord) if j > i else data.draw(unit) if i == j else 0
                  for j in range(d)] for i in range(d)]
        perm = data.draw(st.permutations(range(d)))
        # M = PLU is invertible: L and U are triangular with unit diagonals
        matrix = [[sum(lower[perm[i]][k] * upper[k][j] for k in range(d)) for j in range(d)]
                  for i in range(d)]
        shift = [data.draw(coord) for _ in range(d)]
        elems = data.draw(st.lists(st.sampled_from(list(iter_elements(group))),
                                   min_size=1, max_size=8, unique=True))
        image = [tuple((sum(map(int.__mul__, row, x)) + t) % q for row, t in zip(matrix, shift))
                 for x in elems]
        variants = [gset(group, elems), gset(group, image)]
        assert_same_verdicts(variants, h, g)

    @given(st.integers(1, 20),
           st.lists(st.integers(0, 19), min_size=1, max_size=9),
           st.sampled_from([(2, 2), (2, 3), (3, 3), (3, 4)]))
    @example(6, [0, 1, 2, 4], (2, 2))
    def test_verdict_invariant_under_reflection(self, n, elems, hg):
        # x -> n-1-x maps the window onto itself and every translation
        # class of h-subsets onto a class of the same size
        h, g = hg
        elems = sorted({x % n for x in elems})
        variants = [interval_set(elems, n), interval_set([n - 1 - x for x in elems], n)]
        assert_same_verdicts(variants, h, g)

    @given(st.integers(1, 12),
           st.lists(st.integers(0, 11), min_size=1, max_size=7),
           st.integers(0, 12),
           st.integers(0, 6),
           st.sampled_from([(2, 2), (2, 3), (3, 3), (3, 4)]))
    @example(4, [0, 1, 2, 3], 5, 2, (2, 2))
    def test_shift_into_larger_window(self, n, elems, s, extra, hg):
        # A + s inside a window of n + s + extra: every integer translate of
        # a subset of A is one of A + s, so the classes, their patterns and
        # their offset counts are the same, and every offset moves by s
        h, g = hg
        elems = sorted({x % n for x in elems})
        a = interval_set(elems, n)
        moved = interval_set([x + s for x in elems], n + s + extra)
        for check in (verify_chg, verify_weak_chg):
            verdict, shifted = check(a, h, g), check(moved, h, g)
            assert shifted.holds == verdict.holds
            if not verdict.holds:
                assert_valid_witness(moved, shifted, h, g, weak=check is verify_weak_chg)
                assert shifted.witness.pattern.elems == verdict.witness.pattern.elems
                assert shifted.witness.bases == tuple(b + s for b in verdict.witness.bases)


def structured_hosts():
    """Hosts whose classes repeat, so the class kernel's member filter
    prunes: progressions, unions of subgroup cosets (periodic patterns
    included) and small sphere and norm sets."""
    c12, p42, p24 = Cyclic(12), Product(4, 2), Product(2, 4)
    return {
        "progression-interval": gset(Interval(40), range(1, 40, 3)),
        "two-progressions-interval": gset(Interval(30), [*range(0, 16, 2), *range(19, 27)]),
        "progression-cyclic12": gset(c12, range(1, 12, 2)),
        "cosets-cyclic12-mod4": gset(c12, [x for x in range(12) if x % 4 in (0, 1)]),
        "cosets-cyclic12-mod3": gset(c12, [x for x in range(12) if x % 3 != 2]),
        "cosets-cyclic12-mod6": gset(c12, [0, 6, 1, 7, 3, 9, 5]),
        "cosets-product42": gset(p42, [(a, b) for a in range(4) for b in range(4)
                                       if a % 2 == 0 and b in (0, 1, 2)]),
        "progression-product42": gset(p42, [(i, 3 * i % 4) for i in range(4)] + [(1, 0)]),
        "cosets-product24": gset(p24, [x for x in iter_elements(p24) if x[0] == x[1] or x[3] == 1]),
        "sphere3": sphere_set(3),
        "sphere5": sphere_set(5),
        "norm-2-3": norm_set(2, 3)[0],
        "norm-3-3": norm_set(3, 3)[0],
        "norm-2-4": norm_set(2, 4)[0],
    }


STRUCTURED = structured_hosts()


def _oracle_cost(host, h):
    # the group oracles scan C(|G|, h) patterns at |G| offsets each
    if isinstance(host.group, Interval):
        return 0
    return math.comb(order(host.group), h) * order(host.group)


# C(20, 4) subsets of sphere5, each class scanning a 125-element ambient, take too long
CLASS_CASES = [(name, h) for name in sorted(STRUCTURED) for h in (2, 3, 4)
               if (name, h) != ("sphere5", 4)]
ORACLE_CASES = [(name, h) for name in sorted(STRUCTURED) for h in (2, 3, 4)
                if _oracle_cost(STRUCTURED[name], h) < 10**5]


def classes_by_definition(host, h):
    """(pattern, offsets) of every class of h-subsets, sorted by pattern: a
    subset's pattern is its smallest S - s (S - min S in Z), its offsets
    every k of the ambient (of the host, in Z) with pattern + k inside the
    host."""
    group = host.group
    interval = isinstance(group, Interval)
    patterns = set()
    for subset in combinations(host.elems, h):
        shifts = subset[:1] if interval else subset
        patterns.add(min(tuple(sorted(sub(group, y, x) for y in subset)) for x in shifts))
    inside = set(host.elems)
    ambient = host.elems if interval else list(iter_elements(group))
    return [
        (pattern, tuple(k for k in ambient if all(add(group, x, k) in inside for x in pattern)))
        for pattern in sorted(patterns)
    ]


class TestStructuredHosts:
    @pytest.mark.parametrize("name, h", CLASS_CASES)
    def test_classes_match_definition(self, name, h):
        host = STRUCTURED[name]
        table = classes_by_definition(host, h)
        for least in (1, 2, 3, 4):
            expected = [(pattern, bases) for pattern, bases in table if len(bases) >= least]
            got = [(pc.pattern.elems, pc.bases)
                   for pc in enumerate_pattern_classes(host, h, least)]
            assert got == expected

    @pytest.mark.parametrize("name, h", ORACLE_CASES)
    def test_verdicts_match_oracles(self, name, h):
        host = STRUCTURED[name]
        group, elems = host.group, host.elems
        if isinstance(group, Interval):
            plain, weak = naive_is_chg_interval, naive_is_weak_chg_interval
            expected = {g: (plain(elems, h, g), weak(elems, h, g)) for g in (h, h + 1)}
        else:
            expected = {g: (naive_is_chg_group(group, elems, h, g),
                            naive_is_weak_chg_group(group, elems, h, g)) for g in (h, h + 1)}
        for g, (holds, weak_holds) in expected.items():
            for check, want, weak in ((verify_chg, holds, False),
                                      (verify_weak_chg, weak_holds, True)):
                verdict = check(host, h, g)
                assert verdict.holds == want
                if not want:
                    assert_valid_witness(host, verdict, h, g, weak=weak)

    @pytest.mark.parametrize("group", [Interval(10**9), Cyclic(10**12)])
    def test_memory_follows_differences_not_ambient(self, group):
        # 300 random points of a huge ambient are a C_3[3]-set with
        # overwhelming likelihood; the kernel must hold neither C(300, 3)
        # subsets nor masks as wide as the ambient
        rng = random.Random(300)
        host = gset(group, rng.sample(range(order(group)), 300))
        tracemalloc.start()
        try:
            verdict = verify_chg(host, 3, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert verdict.holds
        assert peak < 32 * 2**20


class TestFirstWitness:
    @given(st.one_of(small_group_set(),
                     st.lists(st.integers(0, 20), max_size=9, unique=True)
                     .map(lambda elems: gset(Interval(21), elems))),
           st.integers(2, 4), st.integers(0, 2))
    def test_witness_is_first_class_with_g_offsets(self, a, h, extra):
        g = h + extra
        first = next((pc for pc in enumerate_pattern_classes(a, h) if len(pc.bases) >= g), None)
        verdict = verify_chg(a, h, g)
        assert verdict.holds == (first is None)
        if first is not None:
            assert verdict.witness == Witness(first.pattern, first.bases[:g])

    @given(small_group_set(), st.integers(2, 4), st.integers(1, 3), st.integers(1, 6))
    def test_stop_ends_the_list_at_the_first_hit(self, a, h, least, stop):
        full = enumerate_pattern_classes(a, h, least)
        hits = [i for i, pc in enumerate(full) if len(pc.bases) >= stop]
        expected = full[: hits[0] + 1] if hits else full
        assert enumerate_pattern_classes(a, h, least, stop=stop) == expected

    def test_failing_dense_verify_builds_one_class(self):
        # C(100, 3) > 2 C(299, 2), so some 3-class has 3 members; the
        # verdict needs only the first, not the ~26,000 classes behind it
        rng = random.Random(300)
        host = gset(Interval(300), rng.sample(range(300), 100))
        tracemalloc.start()
        try:
            verdict = verify_chg(host, 3, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not verdict.holds
        assert_valid_witness(host, verdict, 3, 3)
        assert peak < 2**20

    @pytest.mark.parametrize("host, h, g", [
        # gcd(2, |G|) = 2, yet a class needs 2 offsets, not 1 member
        (gset(Cyclic(10**12), random.Random(300).sample(range(10**12), 300)), 2, 2),
        # the additive group of GF(16) is Z_2^4 and gcd(4, 16) = 4
        (norm_set(2, 4)[0], 4, 25),
    ], ids=["cyclic-random-300", "norm-2-4"])
    def test_holding_verdict_gets_no_class(self, monkeypatch, host, h, g):
        import chgsets.verify

        returned = []

        def counted(*args, **kwargs):
            classes = enumerate_pattern_classes(*args, **kwargs)
            returned.append(len(classes))
            return classes

        monkeypatch.setattr(chgsets.verify, "enumerate_pattern_classes", counted)
        assert verify_chg(host, h, g).holds
        assert returned == [0]


class TestVerifyWeak:
    def test_disjoint_pair_found(self):
        a = interval_set([1, 2, 3, 4], 5)
        verdict = verify_weak_chg(a, 2, 2)
        assert not verdict.holds
        assert verdict.witness.pattern.elems == (0, 1)
        assert set(verdict.witness.bases) == {1, 3}
        assert_valid_witness(a, verdict, 2, 2, weak=True)

    def test_overlapping_translates_ok(self):
        a = interval_set([1, 2, 3], 4)
        assert verify_weak_chg(a, 2, 2).holds

    def test_disjoint_translates_read_the_pattern_group(self):
        # {0, 1} + 4 wraps onto 0 in Z_5, not in the window of size 5
        shifts = (0, 1, 2, 3, 4)
        assert find_disjoint_translates(gset(Interval(5), (0, 1)), shifts, 3) == (0, 2, 4)
        assert find_disjoint_translates(gset(Cyclic(5), (0, 1)), shifts, 3) is None
        assert find_disjoint_translates(gset(Cyclic(5), (0, 1)), shifts, 2) == (0, 2)

    @given(st.lists(st.integers(0, 18), min_size=1, max_size=9, unique=True),
           st.sampled_from([(2, 2), (2, 3), (3, 3)]))
    def test_matches_naive(self, elems, hg):
        h, g = hg
        a = interval_set(elems, 19)
        expected = naive_is_weak_chg_interval(elems, h, g)
        assert verify_weak_chg(a, h, g).holds == expected

    @given(st.data())
    def test_matches_naive_on_groups(self, data):
        group = data.draw(st.sampled_from([Cyclic(6), Cyclic(8), Product(2, 2), Product(3, 2),
                                           Product(4, 1), Product(4, 2), Product(6, 1)]))
        ambient = list(iter_elements(group))
        elems = data.draw(st.lists(st.sampled_from(ambient), min_size=1,
                                   max_size=len(ambient), unique=True))
        a = gset(group, elems)
        expected = naive_is_weak_chg_group(group, elems, 2, 2)
        assert verify_weak_chg(a, 2, 2).holds == expected


COSET_GROUPS = [Product(2, 4), Product(4, 2), Cyclic(16)]


@st.composite
def coset_unions(draw):
    """A union of cosets of the subgroup that one or two drawn elements
    generate: sets whose translates overlap in whole cosets, where the weak
    search's greedy bound prunes."""
    group = draw(st.sampled_from(COSET_GROUPS))
    ambient = list(iter_elements(group))
    gens = draw(st.lists(st.sampled_from(ambient), min_size=1, max_size=2))
    subgroup = {ambient[0]}
    for _ in ambient:  # each round grows the subgroup or leaves it closed
        subgroup |= {add(group, s, t) for s in subgroup for t in gens}
    reps = draw(st.lists(st.sampled_from(ambient), min_size=1, max_size=4))
    return gset(group, {add(group, r, s) for r in reps for s in subgroup})


def first_disjoint_by_scan(pattern, shifts, g):
    """The first of ``combinations(shifts, g)`` whose translates are
    pairwise disjoint, or None."""
    translates = [{add(pattern.group, x, k) for x in pattern.elems} for k in shifts]
    for combo in combinations(range(len(shifts)), g):
        if all(translates[i].isdisjoint(translates[j]) for i, j in combinations(combo, 2)):
            return tuple(shifts[i] for i in combo)
    return None


class TestWeakOnCosetUnions:
    @given(coset_unions(), st.sampled_from([(2, 3), (3, 3), (3, 4), (3, 5)]))
    def test_disjoint_translates_match_scan(self, a, hg):
        h, g = hg
        for pc in enumerate_pattern_classes(a, h, g):
            assert (find_disjoint_translates(pc.pattern, pc.bases, g)
                    == first_disjoint_by_scan(pc.pattern, pc.bases, g))

    @given(coset_unions(), st.integers(3, 5))
    def test_weak_verdict_matches_naive(self, a, g):
        assert verify_weak_chg(a, 3, g).holds == naive_is_weak_chg_group(a.group, a.elems, 3, g)

    def test_whole_group_from_the_cli(self, tmp_path):
        # every 3-pattern of Z_2^5 has all 32 offsets, and translates overlap
        # exactly within a coset of the order-4 subgroup the pattern spans,
        # so at most 8 are disjoint; the greedy bound answers at once
        group = Product(2, 5)
        path = tmp_path / "z2_5.txt"
        write_set(path, gset(group, iter_elements(group)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "chgsets", "verify", "--set", str(path), "--h", "3", "--g", "9",
             "--weak"], env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["verdict"]["holds"] is True


class TestZMatrix:
    def test_singleton_gives_permutation(self):
        g = Cyclic(3)
        zm = build_zmatrix(gset(g, [0]))
        assert all(row.bit_count() == 1 for row in zm.rows)
        cols = [sum(row >> j & 1 for row in zm.rows) for j in range(3)]
        assert cols == [1, 1, 1]

    def test_full_set_all_ones(self):
        g = Cyclic(2)
        zm = build_zmatrix(gset(g, [0, 1]))
        assert zm.rows == (0b11, 0b11)

    def test_norm_set_row_sums(self):
        a, _ = norm_set(3, 2)
        zm = build_zmatrix(a)
        assert zm.n == 9
        assert all(row.bit_count() == 4 for row in zm.rows)

    def test_interval_rejected(self):
        a = interval_set([1, 2], 5)
        with pytest.raises(ParameterError):
            build_zmatrix(a)

    def test_order_cap(self):
        g = Cyclic(100)
        with pytest.raises(ResourceCapError):
            build_zmatrix(gset(g, [0]), order_cap=50)

    @pytest.mark.parametrize("cap", [0, -5])
    def test_caps_below_one_rejected(self, cap):
        a = gset(Cyclic(5), [0, 1])
        with pytest.raises(ParameterError):
            build_zmatrix(a, order_cap=cap)
        with pytest.raises(ParameterError):
            check_kgh_params(a, 2, 2, subset_cap=cap)
        with pytest.raises(ParameterError):
            check_kgh_free(build_zmatrix(a), 2, 2, subset_cap=cap)

    @given(small_group_set())
    @example(gset(Product(2, 2), [(0, 1), (1, 0)]))
    def test_entry_definition(self, a):
        g = a.group
        zm = build_zmatrix(a)
        for i, b in enumerate(zm.elements):
            for j, c in enumerate(zm.elements):
                assert (zm.rows[i] >> j & 1) == (add(g, b, c) in a.elems)


class TestKghFree:
    def test_all_ones_two_by_two(self):
        g = Cyclic(2)
        zm = build_zmatrix(gset(g, [0, 1]))
        verdict = check_kgh_free(zm, 2, 2)
        assert not verdict.holds

    def test_zero_matrix(self):
        g = Cyclic(3)
        zm = build_zmatrix(gset(g, []))
        assert check_kgh_free(zm, 2, 2).holds

    def test_norm_matrix_k32_free(self):
        a, _ = norm_set(3, 2)
        zm = build_zmatrix(a)
        assert check_kgh_free(zm, 2, 3).holds
        # independent exhaustive column-pair check
        cols = []
        for j in range(zm.n):
            cols.append(sum(1 << i for i, row in enumerate(zm.rows) if row >> j & 1))
        for j1, j2 in combinations(range(zm.n), 2):
            assert (cols[j1] & cols[j2]).bit_count() <= 2

    def test_witness_is_all_ones_block(self):
        g = Cyclic(4)
        zm = build_zmatrix(gset(g, [0, 1, 2, 3]))
        verdict = check_kgh_free(zm, 2, 2)
        assert not verdict.holds
        w = verdict.witness
        for k in w.bases:
            for x in w.pattern.elems:
                assert add(g, k, x) in (0, 1, 2, 3)

    def test_old_argument_order_rejected(self):
        # (h, g) as in verify_chg: a stale (g, h) call has g < h
        a, _ = norm_set(3, 2)
        with pytest.raises(ParameterError, match="need g >= h"):
            check_kgh_free(build_zmatrix(a), 3, 2)
        with pytest.raises(ParameterError, match="need g >= h"):
            check_kgh_params(a, 3, 2)

    def test_walk_is_anchored_at_the_zero_column(self):
        # every violating column set has a translate through column 0, so on
        # a K_{3,2}-free matrix the walk tries column 0 with each other
        # column once: n - 1 intersections, not the C(n, 2) + n - 1 of a
        # walk over every pair
        class Column(int):
            ands = 0

            def __and__(self, other):
                Column.ands += 1
                return int.__and__(self, other)

            __rand__ = __and__

        zm = build_zmatrix(norm_set(19, 2)[0])
        counted = ZMatrix(zm.n, tuple(map(Column, zm.rows)), zm.elements, zm.source)
        assert check_kgh_free(counted, 2, 3).holds
        assert Column.ands <= zm.n - 1 == 360


    @given(small_group_set(), st.sampled_from([(2, 2), (2, 3), (3, 3), (3, 4)]))
    def test_witness_is_first_block(self, a, hg):
        h, g = hg
        block = naive_first_block(a.group, a.elems, h, g)
        verdict = check_kgh_free(build_zmatrix(a), h, g)
        assert verdict.holds == (block is None)
        if block is not None:
            assert (verdict.witness.pattern.elems, verdict.witness.bases) == block

    @pytest.mark.parametrize("group", [Cyclic(10), Product(4, 2), Product(2, 4), Product(3, 2)])
    def test_witness_is_first_block_on_dense_sets(self, group):
        # dense random sets, most of whose matrices hold a block
        rng = random.Random(order(group))
        ambient = list(iter_elements(group))
        for size in range(2, len(ambient) + 1):
            a = gset(group, rng.sample(ambient, size))
            for h, g in ((2, 2), (2, 3), (3, 3), (3, 4)):
                block = naive_first_block(group, a.elems, h, g)
                verdict = check_kgh_free(build_zmatrix(a), h, g)
                assert verdict.holds == (block is None)
                if block is not None:
                    assert (verdict.witness.pattern.elems, verdict.witness.bases) == block


class TestIntervalToCyclic:
    @given(st.lists(st.integers(0, 11), min_size=1, max_size=6, unique=True),
           st.sampled_from([(2, 2), (2, 3), (3, 3)]))
    def test_property_transfers_empirically(self, elems, hg):
        # A read via its 1-based values lies in [1, 12] of Z_24: two of its
        # elements are closer than 12, so a translate that stays in [1, 12]
        # wraps none of them and is an integer translate; both verdicts
        # agree in both directions
        h, g = hg
        a = interval_set(elems, 12)
        img = gset(Cyclic(24), [x + 1 for x in elems])
        for check in (verify_chg, verify_weak_chg):
            assert check(a, h, g).holds == check(img, h, g).holds

    @given(st.integers(1, 12),
           st.lists(st.integers(0, 11), min_size=1, max_size=7),
           st.sampled_from([(2, 2), (2, 3), (3, 3), (3, 4)]))
    @example(3, [0, 1, 2], (2, 2))
    def test_read_in_cyclic_of_odd_order(self, n, elems, hg):
        # A in [1, n] read in Z_m for m = 2n - 1 and 2n + 1: two elements of
        # A differ by less than n, and a difference changes only by a
        # multiple of m >= 2n - 1, so no translate that stays in A wraps one
        # element of a pattern and not another; both verdicts agree both ways
        h, g = hg
        elems = sorted({x % n for x in elems})
        a = interval_set(elems, n)
        variants = [a, *(gset(Cyclic(m), [(x + 1) % m for x in elems])
                         for m in (2 * n - 1, 2 * n + 1))]
        assert_same_verdicts(variants, h, g)


class TestClassConsistency:
    @given(st.lists(st.integers(0, 20), min_size=2, max_size=8, unique=True),
           st.sampled_from([(2, 2), (2, 3), (3, 3)]))
    def test_verdict_matches_class_enumeration(self, elems, hg):
        h, g = hg
        a = interval_set(elems, 21)
        classes = enumerate_pattern_classes(a, h)
        max_count = max((len(pc.bases) for pc in classes), default=0)
        assert verify_chg(a, h, g).holds == (max_count <= g - 1)

    @given(st.lists(st.integers(0, 20), min_size=2, max_size=9, unique=True),
           st.sampled_from([(2, 2), (2, 3), (3, 3)]))
    def test_failed_verdicts_carry_valid_witnesses(self, elems, hg):
        h, g = hg
        a = interval_set(elems, 21)
        verdict = verify_chg(a, h, g)
        if not verdict.holds:
            assert_valid_witness(a, verdict, h, g)
        weak = verify_weak_chg(a, h, g)
        if not weak.holds:
            assert_valid_witness(a, weak, h, g, weak=True)


class TestMatrixConsistency:
    def test_verified_constructions_give_kgh_free_matrices(self):
        # the matrix of any verified (group, set) pair is K_{g,h}-free and
        # holds exactly |group| * |set| ones
        cases = [(sphere_set(3), 3, 3)]
        for q, h in ((2, 2), (3, 2), (2, 3)):
            a, guarantee = norm_set(q, h)
            cases.append((a, h, guarantee))
        for a, h, g in cases:
            assert verify_chg(a, h, g).holds
            zm = build_zmatrix(a)
            assert check_kgh_free(zm, h, g).holds
            ones = sum(row.bit_count() for row in zm.rows)
            assert ones == zm.n * len(a)

    @given(small_group_set(), st.sampled_from([(2, 2), (2, 3), (3, 3), (3, 4)]))
    def test_kgh_free_matches_verdict(self, a, hg):
        # g rows b and h columns c with every b + c in A are g offsets of
        # the h-set of columns; the lexicographically first such column set
        # contains 0, so it is the least canonical pattern with g offsets
        h, g = hg
        assert check_kgh_free(build_zmatrix(a), h, g) == verify_chg(a, h, g)
