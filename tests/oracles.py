"""Definition-level reference implementations used only by the tests.

Everything here works straight from the definitions (enumerate candidate
patterns and offsets, check containment directly) and stays independent of
the class-based production code it cross-checks.  Interval sets use
bitmask containment; a pattern is normalized to minimum 0, which any
violating configuration permits, and offsets then range over the value
window of the set.
"""

from itertools import combinations

from chgsets import Cyclic, GSet, Interval, Product, gset, iter_elements


def add(group, a, b):
    """a + b: coordinatewise mod q in Z_q^d, mod n in Z_n, plain in Z."""
    if isinstance(group, Product):
        return tuple((x + y) % group.q for x, y in zip(a, b))
    if isinstance(group, Cyclic):
        return (a + b) % group.n
    return a + b


def translate(xs, k):
    """The translate {x + k : x in X} in the ambient of X.

    Interval translates may leave the window, so the result is not range
    checked; translation never collapses elements.
    """
    shifted = sorted(add(xs.group, x, k) for x in xs.elems)
    assert len(set(shifted)) == len(shifted)
    return GSet(xs.group, tuple(shifted))


def stabilizer(group, pattern):
    """All t with pattern + t = pattern (the pattern must contain zero)."""
    pset = set(pattern)
    return [t for t in pattern if all(add(group, x, t) in pset for x in pattern)]


def _interval_mask(elems):
    lo = min(elems)
    mask = 0
    for e in elems:
        mask |= 1 << (e - lo)
    return mask, max(elems) - lo


def naive_is_chg_interval(elems, h, g):
    """Direct containment check over all min-0 patterns and all offsets.

    ~mask has ones everywhere outside the set (Python ints are two's
    complement with infinite sign bits), so a shifted pattern is contained
    exactly when the AND comes out zero.
    """
    elems = sorted(elems)
    if len(elems) < h:
        return True
    mask, width = _interval_mask(elems)
    notmask = ~mask
    for rest in combinations(range(1, width + 1), h - 1):
        xmask = 1
        for ell in rest:
            xmask |= 1 << ell
        count = 0
        for k in range(width + 1):
            if (xmask << k) & notmask == 0:
                count += 1
                if count >= g:
                    return False
    return True


def naive_is_weak_chg_interval(elems, h, g):
    elems = sorted(elems)
    if len(elems) < h:
        return True
    mask, width = _interval_mask(elems)
    notmask = ~mask
    for rest in combinations(range(1, width + 1), h - 1):
        xmask = 1
        for ell in rest:
            xmask |= 1 << ell
        offsets = [k for k in range(width + 1) if (xmask << k) & notmask == 0]
        if len(offsets) >= g and _exists_disjoint(xmask, offsets, g):
            return False
    return True


def _exists_disjoint(xmask, offsets, g, chosen=()):
    if len(chosen) == g:
        return True
    for i, k in enumerate(offsets):
        if all((xmask << k) & (xmask << c) == 0 for c in chosen):
            if _exists_disjoint(xmask, offsets[i + 1 :], g, chosen + (k,)):
                return True
    return False


def naive_pattern_classes(group, elems, h, least):
    """(pattern, offsets) of each translation class of h-subsets of the set
    with at least ``least`` offsets, in pattern order: the h-subsets of the
    ambient (of the window, for an interval) that hold its zero, in
    lexicographic order, each with every k that puts pattern + k inside
    the set.  A group class is kept at the first of its patterns met, its
    least; in Z each class has one pattern holding 0 as its minimum."""
    members = set(elems)
    ambient = list(iter_elements(group))
    seen = set()
    classes = []
    for tail in combinations(ambient[1:], h - 1):
        pattern = (ambient[0], *tail)
        if frozenset(pattern) in seen:
            continue
        if not isinstance(group, Interval):
            seen.update(frozenset(add(group, x, k) for x in pattern) for k in ambient)
        offsets = tuple(k for k in ambient if all(add(group, x, k) in members for x in pattern))
        if len(offsets) >= least:
            classes.append((pattern, offsets))
    return classes


def naive_is_chg_group(group, elems, h, g):
    """Full enumeration over the finite ambient: every h-pattern, every offset."""
    members = set(elems)
    ambient = list(iter_elements(group))
    for pattern in combinations(ambient, h):
        count = 0
        for k in ambient:
            if all(add(group, x, k) in members for x in pattern):
                count += 1
                if count >= g:
                    return False
    return True


def naive_is_weak_chg_group(group, elems, h, g):
    members = set(elems)
    ambient = list(iter_elements(group))
    for pattern in combinations(ambient, h):
        offsets = [k for k in ambient if all(add(group, x, k) in members for x in pattern)]
        if len(offsets) < g:
            continue
        translates = [frozenset(add(group, x, k) for x in pattern) for k in offsets]
        if _exists_disjoint_sets(translates, g):
            return False
    return True


def _exists_disjoint_sets(translates, g, chosen=()):
    if len(chosen) == g:
        return True
    for i, t in enumerate(translates):
        if all(not (t & c) for c in chosen):
            if _exists_disjoint_sets(translates[i + 1 :], g, chosen + (t,)):
                return True
    return False


def naive_bad_elements(elems, h, g):
    """Bad elements straight from the definition: smaller offsets, positive
    pattern gaps, all g*h sums distinct and inside the set."""
    elems = sorted(elems)
    members = set(elems)
    top = max(elems) if elems else 0
    bad = []
    for m in elems:
        if _is_bad(m, elems, members, top, h, g):
            bad.append(m)
    return bad


def _is_bad(m, elems, members, top, h, g):
    smaller = [x for x in elems if x < m]
    for ms in combinations(smaller, g - 1):
        offs = list(ms) + [m]
        for ls in combinations(range(1, top - min(offs) + 1), h - 1):
            sums = [a + b for a in offs for b in (0,) + ls]
            if len(set(sums)) == g * h and all(s in members for s in sums):
                return True
    return False


def _class_count_start_bound(n, h, g):
    """Largest s with C(s, h) <= (g-1) C(n-1, h-1): every h-subset lands in
    one of C(n-1, h-1) min-0 pattern classes, each holding at most g-1."""
    from math import comb

    budget = (g - 1) * comb(n - 1, h - 1) if n > 1 else 0
    s = h
    while comb(s + 1, h) <= budget:
        s += 1
    return max(s, 1)


def _is_sidon(combo):
    seen = 0
    for i in range(1, len(combo)):
        ci = combo[i]
        for j in range(i):
            b = 1 << (ci - combo[j])
            if seen & b:
                return False
            seen |= b
    return True


def brute_force_max(n, h, g):
    """Maximum C_h[g]-set size in {1..n} by testing subsets in decreasing
    size order, starting from the counting upper bound."""
    if n <= 0:
        return 0
    start = min(n, _class_count_start_bound(n, h, g))
    fast_sidon = h == 2 and g == 2
    for size in range(start, 0, -1):
        for combo in combinations(range(1, n + 1), size):
            if fast_sidon:
                if _is_sidon(combo):
                    return size
            elif naive_is_chg_interval(combo, h, g):
                return size
    return 0


def as_interval_set(elems, n=None):
    n = n if n is not None else (max(elems) + 1 if elems else 1)
    return gset(Interval(n), elems)


def naive_first_block(group, elems, h, g):
    """The first all-ones g x h block of the sum matrix, from its entries:
    the lexicographically first h columns (in ``iter_elements`` order) that
    g rows b meet with every b + c in the set, and the first g such rows.
    None when the matrix is K_{g,h}-free."""
    members = set(elems)
    ambient = list(iter_elements(group))
    for cols in combinations(ambient, h):
        rows = [b for b in ambient if all(add(group, b, c) in members for c in cols)]
        if len(rows) >= g:
            return cols, tuple(rows[:g])
    return None


def sidon_baseline(p):
    """The p-point quadratic Sidon set {2pi + (i^2 mod p)} in a window of
    size 2p^2, for p prime: a known C_2[2] set for h = 2 checks."""
    return gset(Interval(2 * p * p), [2 * p * i + (i * i) % p for i in range(p)])
