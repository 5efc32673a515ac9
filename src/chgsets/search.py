"""Exact maximum C_h[g]-set search in an integer window, plus a greedy
lower-bound baseline.

The exact search is a depth-first branch and bound over elements in
ascending order, include-branch first, with incremental translation-class
counts: adding an element is rejected as soon as any class would reach g
members.  Since translating a valid set downward keeps it valid, the
search fixes the window's first element into the set, which only discards
translates of solutions found elsewhere.

A node whose next element is e prunes when the chosen elements plus the
most that the rest of the window could add cannot beat the best set so
far.  The rest of the window is a window of w = n - e positions, so it
adds at most M(w), the maximum for window size w.  ``max_chg_exact`` alone
only knows M(w) <= w.  ``max_table`` solves the windows in increasing size
and passes the maxima of its optimal rows to the next window (Russian
Doll Search, Verfaillie, Lemaître & Schiex, AAAI 1996); a row cut off by
the node cap counts as w.  Since M(n) <= M(n-1) + 1, the search of window
n stops as soon as it finds a set of that size, and the row stays optimal.
"""

from __future__ import annotations

from collections import defaultdict

from .errors import DEFAULT_NODE_CAP, ParameterError, Value, check_cap, check_hg
from .groups import GSet, Interval, gset
from .verify import verify_chg

DEFAULT_N_LIMITS = {2: 40, 3: 24}
_FALLBACK_N_LIMIT = 16


class _NodeCapHit(Exception):
    pass


class _CeilingReached(Exception):
    pass


class SearchResult(Value):
    """The best set found for one window, the nodes explored, and whether
    the search ran to completion."""

    __slots__ = ("n", "h", "g", "best_size", "best_set", "nodes_explored", "optimal")


def _check_params(n: int, h: int, g: int, n_limit, node_cap: int) -> None:
    check_hg(h, g)
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    check_cap("node cap", node_cap)
    limit = n_limit if n_limit is not None else DEFAULT_N_LIMITS.get(h, _FALLBACK_N_LIMIT)
    if n > limit:
        raise ParameterError(f"n={n} above configured search range {limit} for h={h}")


class _ClassCounter:
    """Incremental per-class member counts for a growing set in the window
    {0..n-1}, keyed on offsets from each subset's minimum, as in the
    zero-anchored patterns of ``groups.enumerate_pattern_classes``.  The
    search adds one element at a time and undoes it, so counts are kept
    per class rather than re-derived from the set.

    Elements arrive in ascending order, so every new h-subset containing
    the newcomer a has its minimum b among the old elements, and its class
    is the tuple of offsets from b, packed in radix n into one int: a - b
    for h=2, (y - b)·n + (a - b) for h=3.  For every j-subset S of the set
    (j < h) with minimum b the counter keeps the prefix
    P(S) = (packed offsets of S)·n - b, so the key of S ∪ {a} is P(S) + a
    and the prefix of S ∪ {a} is (P(S) + a)·n - b.
    """

    __slots__ = ("n", "limit", "counts", "prefixes", "bases", "elems", "_undo")

    def __init__(self, n: int, h: int, g: int):
        self.n = n
        self.limit = g - 1
        self.counts = defaultdict(int)
        # prefixes[j] and bases[j]: P(S) and min(S) over the (j+1)-subsets S
        self.prefixes = [[] for _ in range(h - 1)]
        self.bases = [[] for _ in range(h - 1)]
        self.elems = self.bases[0]
        self._undo = []

    def add(self, a: int) -> bool:
        """Add a unless a class would reach g members; report whether added."""
        counts = self.counts
        keys = [p + a for p in self.prefixes[-1]]
        if max(map(counts.__getitem__, keys), default=0) >= self.limit:
            return False
        for k in keys:
            counts[k] += 1
        n = self.n
        prefixes, bases = self.prefixes, self.bases
        self._undo.append((keys, [len(level) for level in prefixes]))
        for j in range(len(prefixes) - 1, 0, -1):
            below = bases[j - 1]
            prefixes[j] += [(p + a) * n - b for p, b in zip(prefixes[j - 1], below)]
            bases[j] += below
        prefixes[0].append(-a)
        bases[0].append(a)
        return True

    def undo(self) -> None:
        """Remove the element added last."""
        keys, marks = self._undo.pop()
        counts = self.counts
        for k in keys:
            counts[k] -= 1
        for prefix, base, mark in zip(self.prefixes, self.bases, marks):
            del prefix[mark:]
            del base[mark:]


def greedy_chg(n: int, h: int, g: int) -> GSet:
    """Scan the window upward, keeping every element that leaves all class
    counts below g.  Always verifies; never beats the exact search."""
    check_hg(h, g)
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    counter = _ClassCounter(n, h, g)
    for a in range(n):
        counter.add(a)
    result = gset(Interval(n), counter.elems)
    if not verify_chg(result, h, g).holds:
        raise RuntimeError("greedy produced an invalid set (broken counter)")
    return result


def _search_window(n: int, h: int, g: int, node_cap: int, seed: GSet, doll) -> SearchResult:
    """Branch and bound over the window of size n from the valid set
    ``seed``; ``doll[w]`` is an upper bound on the maximum for window size
    w, for every w < n."""
    best_size = len(seed)
    best_elems = seed.elems
    ceiling = doll[n - 1] + 1
    counter = _ClassCounter(n, h, g)
    chosen = counter.elems
    add, undo = counter.add, counter.undo
    nodes = 0

    def rec(next_elem: int) -> None:
        nonlocal nodes, best_size, best_elems
        nodes += 1
        if nodes > node_cap:
            raise _NodeCapHit
        if len(chosen) + doll[n - next_elem] <= best_size:
            return
        if add(next_elem):
            if len(chosen) > best_size:
                best_size = len(chosen)
                best_elems = tuple(chosen)
                if best_size >= ceiling:
                    raise _CeilingReached
            rec(next_elem + 1)
            undo()
        rec(next_elem + 1)

    optimal = True
    try:
        # fix element 0 into the set: any valid set translates down to one
        # of the same size whose minimum is the window's first element
        add(0)
        if best_size < 1:
            best_size = 1
            best_elems = (0,)
        if best_size < ceiling:
            rec(1)
    except _NodeCapHit:
        optimal = False
    except _CeilingReached:
        pass
    result_set = gset(Interval(n), best_elems)
    verdict = verify_chg(result_set, h, g)
    if not verdict.holds:
        raise RuntimeError("search returned an invalid set (broken counter)")
    return SearchResult(n, h, g, best_size, result_set, nodes, optimal)


def max_chg_exact(
    n: int,
    h: int,
    g: int,
    node_cap: int = DEFAULT_NODE_CAP,
    n_limit: int | None = None,
    incumbent: GSet | None = None,
) -> SearchResult:
    """Maximum C_h[g]-set in the window of size n by branch and bound.

    ``optimal`` is True exactly when the search ran to completion under
    ``node_cap``; otherwise the best set found so far is returned, flagged.
    An optional incumbent (any valid set in the window) seeds the pruning
    bound.  The rest of the window bounds what it can add by its size.
    """
    _check_params(n, h, g, n_limit, node_cap)
    seed = incumbent if incumbent is not None else greedy_chg(n, h, g)
    return _search_window(n, h, g, node_cap, seed, range(n))


def max_table(
    n_max: int,
    h: int,
    g: int,
    node_cap: int = DEFAULT_NODE_CAP,
    n_limit: int | None = None,
) -> list:
    """Exact maxima for every window size 1..n_max.

    Each row reuses the previous best set as incumbent, so the sequence is
    nondecreasing by construction; the unit step after an optimal row is
    asserted.  The maxima of the optimal rows bound the rest of the window
    in the next rows' searches (Russian Doll Search).
    """
    _check_params(n_max, h, g, n_limit, node_cap)
    results = []
    doll = [0]  # doll[w]: M(w) if row w is optimal, else w
    seed = greedy_chg(1, h, g)
    for n in range(1, n_max + 1):
        res = _search_window(n, h, g, node_cap, seed, doll)
        # M(n) <= M(n-1) + 1 bounds the step only after an optimal row
        if not len(seed) <= res.best_size <= doll[n - 1] + 1:
            raise RuntimeError(f"table step {len(seed)} -> {res.best_size} at n={n}")
        results.append(res)
        doll.append(res.best_size if res.optimal else n)
        seed = res.best_set
    return results
