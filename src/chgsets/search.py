"""Exact maximum C_h[g]-set search in an integer window, plus a greedy
lower-bound baseline.

The exact search is a depth-first branch and bound over elements in
ascending order, include-branch first, with incremental translation-class
counts: adding an element is rejected as soon as any class would reach g
members.  Since translating a valid set downward keeps it valid, the
search fixes the window's first element into the set, which only discards
translates of solutions found elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import ParameterError
from .groups import GSet, Interval, gset
from .verify import verify_chg

DEFAULT_NODE_CAP = 10**9
DEFAULT_N_LIMITS = {2: 40, 3: 24}
_FALLBACK_N_LIMIT = 16


class _NodeCapHit(Exception):
    pass


@dataclass(frozen=True)
class SearchResult:
    n: int
    h: int
    g: int
    best_size: int
    best_set: GSet
    nodes_explored: int
    optimal: bool


def _check_params(n: int, h: int, g: int, n_limit) -> None:
    if h < 2 or g < h:
        raise ParameterError(f"need g >= h >= 2, got h={h}, g={g}")
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    limit = n_limit if n_limit is not None else DEFAULT_N_LIMITS.get(h, _FALLBACK_N_LIMIT)
    if n > limit:
        raise ParameterError(f"n={n} above configured search range {limit} for h={h}")


class _ClassCounter:
    """Incremental per-class member counts for a growing set in Z.

    Elements arrive in ascending order, so every new h-subset containing
    the newcomer has its smallest element among the old ones and the class
    key is just the offset tuple from that minimum.
    """

    __slots__ = ("h", "g", "counts")

    def __init__(self, h: int, g: int):
        self.h = h
        self.g = g
        self.counts: dict = {}

    def try_add(self, chosen: list, a: int):
        """Count all new classes; None and no change if one would hit g."""
        counts = self.counts
        touched = []
        for combo in combinations(chosen, self.h - 1):
            base = combo[0]
            key = tuple(x - base for x in combo[1:]) + (a - base,)
            c = counts.get(key, 0) + 1
            if c >= self.g:
                for k in touched:
                    counts[k] -= 1
                return None
            counts[key] = c
            touched.append(key)
        return touched

    def undo(self, touched) -> None:
        for k in touched:
            self.counts[k] -= 1


def greedy_chg(n: int, h: int, g: int) -> GSet:
    """Scan the window upward, keeping every element that leaves all class
    counts below g.  Always verifies; never beats the exact search."""
    if h < 2 or g < h:
        raise ParameterError(f"need g >= h >= 2, got h={h}, g={g}")
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    counter = _ClassCounter(h, g)
    chosen: list = []
    for a in range(n):
        if counter.try_add(chosen, a) is not None:
            chosen.append(a)
    result = gset(Interval(n), chosen)
    if not verify_chg(result, h, g).holds:
        raise RuntimeError("greedy produced an invalid set (broken counter)")
    return result


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
    bound.
    """
    _check_params(n, h, g, n_limit)
    seed = incumbent if incumbent is not None else greedy_chg(n, h, g)
    best_size = len(seed)
    best_elems = seed.elems
    counter = _ClassCounter(h, g)
    chosen: list = []
    nodes = 0

    def rec(next_elem: int) -> None:
        nonlocal nodes, best_size, best_elems
        nodes += 1
        if nodes > node_cap:
            raise _NodeCapHit
        if len(chosen) + (n - next_elem) <= best_size:
            return
        a = next_elem
        touched = counter.try_add(chosen, a)
        if touched is not None:
            chosen.append(a)
            if len(chosen) > best_size:
                best_size = len(chosen)
                best_elems = tuple(chosen)
            rec(a + 1)
            chosen.pop()
            counter.undo(touched)
        rec(a + 1)

    optimal = True
    try:
        # fix element 0 into the set: any valid set translates down to one
        # of the same size whose minimum is the window's first element
        counter.try_add(chosen, 0)
        chosen.append(0)
        if best_size < 1:
            best_size = 1
            best_elems = (0,)
        rec(1)
    except _NodeCapHit:
        optimal = False
    result_set = gset(Interval(n), best_elems)
    verdict = verify_chg(result_set, h, g)
    if not verdict.holds:
        raise RuntimeError("search returned an invalid set (broken counter)")
    return SearchResult(n, h, g, best_size, result_set, nodes, optimal)


def max_table(
    n_max: int,
    h: int,
    g: int,
    node_cap: int = DEFAULT_NODE_CAP,
    n_limit: int | None = None,
) -> list:
    """Exact maxima for every window size 1..n_max.

    Each row reuses the previous best set as incumbent, so the sequence is
    nondecreasing by construction; the unit-step property is asserted.
    """
    _check_params(n_max, h, g, n_limit)
    results = []
    prev: GSet | None = None
    for n in range(1, n_max + 1):
        res = max_chg_exact(n, h, g, node_cap=node_cap, n_limit=n_limit, incumbent=prev)
        if results:
            before = results[-1].best_size
            if not before <= res.best_size <= before + 1:
                raise RuntimeError(f"table step {before} -> {res.best_size} at n={n}")
        results.append(res)
        prev = res.best_set
    return results
