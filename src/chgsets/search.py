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
adds at most M(w), the maximum for window size w.  ``max_table`` solves
the windows in increasing size (``max_chg_exact`` is its last row) and
passes the maxima of its optimal rows to the next window (Russian Doll
Search, Verfaillie, Lemaître & Schiex, AAAI 1996); a row cut off by the
node cap counts as w.  Since M(n) <= M(n-1) + 1, the search of window n
stops as soon as it finds a set of that size, and the row stays optimal.

After an optimal row the search of window n starts from a set of M(n-1)
elements, so only a set of M(n-1) + 1 can raise the row, and every such
set holds both ends of the window: a set without n-1 would already fit
window n-1 (and every set holds 0 by translation).  So the search puts
n-1 into the set from the start and offers only 1..n-2, and each add of a
also counts the h-subsets holding both a and n-1 (a forward check).  The
reflection x -> n-1-x maps a set holding 0 and n-1 to another of the same
size, so of the two the search keeps the one with a_1 <= n-1-a_(k-1),
where a_1 and a_(k-1) are its second smallest and second largest elements:
a_1 <= (n-1)/2, and once a_1 is chosen no later element exceeds n-1-a_1.
A node's bound is then the smaller of the window from its next element to
n-1 and the window up to n-1-a_1 plus the held n-1.  After a row cut off
by the node cap M(n-1) is unknown, so that window searches without n-1.

At h=2 the search checks forward, as optimal Golomb ruler searches do
(Shearer, IEEE Trans. IT 1990; Dollas, Rankin & McCracken, IEEE Trans. IT
1998).  A difference class is full when it has g-1 members.  A node ORs
full << c over its chosen c: those positions x would give the class of
x - c a g-th member, so the node visits only the other, open, positions,
found by bit scan, and prunes once its chosen elements, the held n-1 and
the open positions left cannot beat the best set.  A set that beats it
needs need = best + 1 - k - held more elements after the largest chosen
one, leaving need + held gaps (the last to the held n-1).  Each gap is a
difference outside the full classes and no value serves more than g-1 of
them, so the gaps sum at least to the lowest free differences taken g-1
times each.  The node prunes when that sum exceeds the room up to n-1,
and it stops at the first open position that leaves too little room for
the least sum of the other gaps.  ``add`` still checks every visited
position in full.  The node cap, and ``nodes_explored``, count visited
positions only, so at h=2 the blocked ones no longer count.  For h >= 3
the mask would take a shift per chosen (h-1)-subset and cost more than
the nodes it saves, so those windows keep the loop over every position.

Class counts are keyed by the radix-n packed offsets from each subset's
minimum.  ``_PlaneCounter`` keeps one mask per subset size and carry-save
bit-planes of the counts, so a mark costs a shift, an AND and an OR per
level and per plane whatever the set's size: the distance bitmap of
optimal Golomb ruler searches (Shearer, IEEE Trans. IT 1990).  The masks
are about 2n^(h−1) bits wide, so above ``_PLANE_KEYS`` keys ``_counter``
picks ``_DictCounter``, a dict of counts, instead.  Both accept the same
marks, so the tree and its node counts do not depend on which one ran.
"""

from __future__ import annotations

from collections import defaultdict

from .errors import DEFAULT_NODE_CAP, ParameterError, Value, check_cap, check_hg
from .groups import GSet, Interval, gset
from .verify import verify_chg

DEFAULT_N_LIMITS = {2: 54, 3: 28}
_FALLBACK_N_LIMIT = 16
_PLANE_KEYS = 1 << 17


class _NodeCapHit(Exception):
    pass


class _CeilingReached(Exception):
    pass


class SearchResult(Value):
    """The best set found for one window, the nodes explored, and whether
    the search ran to completion."""

    __slots__ = ("n", "h", "g", "best_size", "best_set", "nodes_explored", "optimal")


class _PlaneCounter:
    """Per-class member counts as bit-planes over the packed class keys of
    ``_DictCounter``: the class of an h-subset with minimum b has key
    K = Σ (x_i − b)·n^(h−1−i) over its other members x_1 < … < x_(h−1).
    With σ_k = 1 + n + … + n^k and OFF = n·σ_(h−2), the counter holds plain
    ints:

    * ``levels[j]`` (0 ≤ j ≤ h−2) has one bit per (j+1)-subset S of the
      set, at Q(S)·n^k − min(S)·σ_k + OFF with k = h−2−j, where Q(S) is n
      times S's offsets from its minimum packed in radix n;
    * ``ge[t]`` (0 ≤ t ≤ g−2) has bit K + OFF set when class K has more
      than t members.

    Adding a is shifts, ANDs and ORs only.  ``levels[h−2] << a`` sets bit
    K + OFF for each new h-subset, one per class at most, so the mark is
    rejected when that mask meets ``ge[g−2]`` and otherwise enters the
    planes as carry-save counters, as in ``groups.enumerate_pattern_classes``.
    Then, highest level first, ``levels[j] |= levels[j−1] << a·n^(h−1−j)``
    extends every j-subset by a, and bit OFF − a·σ_(h−2) of level 0 records
    {a}.  Undo restores the planes saved by the add.  The masks are about
    2n^(h−1) bits wide, which is why ``_counter`` bounds the key space.

    A counter built with ``top`` holds that element from the start, and
    every element added lies below it.  The levels never hold the top, and
    adding a also counts the h-subsets holding both a and the top:
    ``levels[h−3] << a·n + top`` (for h=2 the one bit OFF + top − a).  That
    mask can meet the first in a class, so it is checked with the first one
    counted and enters the planes second.
    """

    __slots__ = ("levels", "ge", "elems", "top", "_n", "_pair", "_carries", "_extends",
                 "_singleton", "_undo")

    def __init__(self, n: int, h: int, g: int, top: int | None = None):
        sigma = sum(n**i for i in range(h - 1))
        self.levels = [0] * (h - 1)
        self.ge = [0] * (g - 1)
        self.elems = []
        self.top = top
        self._n = n
        # for h=2, {a, top} has key top − a: one bit of this mask shifted down by a
        self._pair = 1 << n * sigma + top if h == 2 and top is not None else 0
        self._carries = range(g - 2, 0, -1)
        self._extends = [(j, n ** (h - 1 - j)) for j in range(h - 2, 0, -1)]
        self._singleton = (n * sigma, sigma)  # {a} sits at OFF − a·σ_(h−2)
        self._undo = []

    def add(self, a: int) -> bool:
        """Add a unless a class would reach g members; report whether added."""
        levels, ge = self.levels, self.ge
        new = levels[-1] << a
        if new & ge[-1]:
            return False
        top = self.top
        if top is not None:
            # the h-subsets holding both a and the top
            pair = self._pair
            both = pair >> a if pair else levels[-2] << a * self._n + top
            if both & (ge[-1] | (ge[-2] & new if self._carries else new)):
                return False
        self._undo.append((tuple(levels), tuple(ge)))
        for t in self._carries:
            ge[t] |= ge[t - 1] & new
        ge[0] |= new
        if top is not None:
            for t in self._carries:
                ge[t] |= ge[t - 1] & both
            ge[0] |= both
        for j, step in self._extends:
            levels[j] |= levels[j - 1] << a * step
        off, sigma = self._singleton
        levels[0] |= 1 << (off - a * sigma)
        self.elems.append(a)
        return True

    def undo(self) -> None:
        """Remove the element added last."""
        self.levels[:], self.ge[:] = self._undo.pop()
        self.elems.pop()

    def full(self) -> int:
        """For h=2: bit d set when the difference class d already has g−1
        members, counting the pairs through the top."""
        return self.ge[-1] >> self._n


class _DictCounter:
    """Per-class member counts in a dict, for a growing set in the window
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

    A counter built with ``top`` holds that element from the start, below
    which every added element lies, and no prefix holds it: the h-subsets
    holding both a and the top have the keys P(S ∪ {a}) + top over the
    (h−2)-subsets S (top − a for h=2).
    """

    __slots__ = ("n", "limit", "counts", "prefixes", "bases", "elems", "top", "_undo")

    def __init__(self, n: int, h: int, g: int, top: int | None = None):
        self.n = n
        self.limit = g - 1
        self.counts = defaultdict(int)
        # prefixes[j] and bases[j]: P(S) and min(S) over the (j+1)-subsets S
        self.prefixes = [[] for _ in range(h - 1)]
        self.bases = [[] for _ in range(h - 1)]
        self.elems = self.bases[0]
        self.top = top
        self._undo = []

    def add(self, a: int) -> bool:
        """Add a unless a class would reach g members; report whether added."""
        n = self.n
        prefixes, bases = self.prefixes, self.bases
        keys = [p + a for p in prefixes[-1]]
        top = self.top
        if top is not None:
            if len(prefixes) == 1:
                keys.append(top - a)
            else:
                keys += [(p + a) * n - b + top for p, b in zip(prefixes[-2], bases[-2])]
        # a class through the top may also be one of a's own, so each key is
        # checked with the ones before it counted
        counts, limit = self.counts, self.limit
        for i, k in enumerate(keys):
            if counts[k] >= limit:
                for k in keys[:i]:
                    counts[k] -= 1
                return False
            counts[k] += 1
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


def _counter(n: int, h: int, g: int, top: int | None = None):
    """The class counter for window n, holding ``top`` if given (see
    ``_PlaneCounter``): bit-planes while the key space
    n^(h−1) is at most ``_PLANE_KEYS``, the dict above it.  Measured per
    window, the planes win every window at h ≤ 4 (up to 10×) and at h=5 up
    to n=26 (2^18.8 keys); at h=6 they lose from 2^15 keys, under a
    millisecond a window below the cut but 6× at n=16 (2^20 keys).

    Both are built for h and g at most n + 1: the window holds no
    (n+1)-subset and no class with n members, so a larger h or g refuses
    no add either, and would only cost levels and planes."""
    h, g = min(h, n + 1), min(g, n + 1)
    return (_PlaneCounter if n ** (h - 1) <= _PLANE_KEYS else _DictCounter)(n, h, g, top)


def greedy_chg(n: int, h: int, g: int) -> GSet:
    """Scan the window upward, keeping every element that leaves all class
    counts below g.  Always verifies; never beats the exact search.  Whether
    a is kept depends only on the kept elements below a, so the set of
    window n is the set of any larger window cut at n."""
    check_hg(h, g)
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    counter = _counter(n, h, g)
    for a in range(n):
        counter.add(a)
    result = gset(Interval(n), counter.elems)
    if not verify_chg(result, h, g).holds:
        raise RuntimeError("greedy produced an invalid set (broken counter)")
    return result


def _blocked(full: int, chosen) -> int:
    """For h=2: bit x set when x − c is a full class (a bit of ``full``)
    for some chosen c, so adding x would give that class a g-th member."""
    blocked = 0
    for c in chosen:
        blocked |= full << c
    return blocked


def _least_gaps(full: int, gaps: int, reps: int, room: int):
    """For h=2: the least sums of ``gaps`` - 1 and of ``gaps`` gaps that
    are differences 1..room outside the full classes (the bits of ``full``)
    with no value used more than ``reps`` times, found by taking the lowest
    such values ``reps`` times each; None when the larger exceeds room."""
    free = ~full & (2 << room) - 2
    total = d = 0
    while gaps > 0:
        if not free:
            return None
        d = (free & -free).bit_length() - 1
        free &= free - 1
        take = reps if gaps > reps else gaps
        total += take * d
        if total > room:
            return None
        gaps -= take
    return total - d


def _search_window(n: int, h: int, g: int, node_cap: int, seed: GSet, doll) -> SearchResult:
    """Branch and bound over the window of size n from the non-empty valid
    set ``seed``; ``doll[w]`` is an upper bound on the maximum for window
    size w, for every w < n."""
    best_size = len(seed)
    best_elems = seed.elems
    ceiling = doll[n - 1] + 1
    # a seed of doll[n-1] >= M(n-1) elements is a maximum of window n-1, so
    # only a set of the ceiling beats it, and it holds 0 and n-1 (for n = 2,
    # {0, 1} is the whole window and nothing is left to search)
    held = int(n > 2 and best_size == doll[n - 1])
    counter = _counter(n, h, g, n - 1 if held else None)
    chosen = counter.elems
    add, undo = counter.add, counter.undo
    pairs = h == 2  # max_table keeps h = 2 windows on the planes (see _counter)
    nodes = 0

    def bound(last):
        """bound(last)[e]: the most elements that e..last(e) and the held
        n-1 can add, by the maxima of the windows they lie in."""
        return [n] + [min(doll[n - e], held + doll[max(last(e) + 1 - e, 0)])
                      for e in range(1, n + 1)]

    def improve():
        # keep the chosen set and the held n-1 if they beat the best set
        nonlocal best_size, best_elems
        if len(chosen) + held > best_size:
            best_size = len(chosen) + held
            best_elems = (*chosen, n - 1) if held else tuple(chosen)
            if best_size >= ceiling:
                raise _CeilingReached

    def rec(next_elem: int, rest: list, reflect: bool) -> None:
        # the include branch recurses, the exclude branch is the next turn
        nonlocal nodes
        while True:
            nodes += 1
            if nodes > node_cap:
                raise _NodeCapHit
            if len(chosen) + rest[next_elem] <= best_size:
                return
            if add(next_elem):
                improve()
                if reflect:  # a_1 = next_elem: its mirror image n-1-a_1 caps the rest
                    last = n - 1 - next_elem
                    rec(next_elem + 1, bound(lambda e: last), False)
                else:
                    rec(next_elem + 1, rest, False)
                undo()
            next_elem += 1

    def rec_pairs(next_elem: int, last: int, rest: list, reflect: bool) -> None:
        # rec for h=2 on the planes: the loop visits only the open positions
        # in next_elem..last, and their count and the free gaps bound the rest
        nonlocal nodes
        k = len(chosen)
        full = counter.full()
        # need = best_size + 1 - k - held more elements leave need + held =
        # best_size + 1 - k gaps after max(chosen), the last to the held n-1
        room = n - 1 - chosen[-1]
        fewer = _least_gaps(full, best_size + 1 - k, g - 1, room)
        if fewer is None:
            return
        stop = n - 1 - fewer  # the first new element leaves room for the rest
        opened = ~_blocked(full, chosen) & (2 << last) - 1 >> next_elem << next_elem
        count = opened.bit_count()
        while opened:
            x = (opened & -opened).bit_length() - 1
            if x > stop:
                return
            nodes += 1
            if nodes > node_cap:
                raise _NodeCapHit
            if k + min(rest[x], held + count) <= best_size:
                return
            opened &= opened - 1
            count -= 1
            if add(x):
                improve()
                if reflect:
                    rec_pairs(x + 1, n - 1 - x, bound(lambda e: n - 1 - x), False)
                else:
                    rec_pairs(x + 1, last, rest, False)
                undo()

    optimal = True
    try:
        # fix element 0 into the set: any valid set translates down to one
        # of the same size whose minimum is the window's first element
        add(0)  # {0, n-1} is valid for every h, g >= 2
        if held or best_size < ceiling:
            # with n-1 held, of a set and its mirror image keep one with
            # a_1 <= n-1-a_(k-1): while a_1 is open, the rest lies in e..n-1-e
            rest = bound(lambda e: n - 1 - held * e)
            if pairs:
                rec_pairs(1, n - 1 - held, rest, bool(held))
            else:
                rec(1, rest, bool(held))
    except _NodeCapHit:
        optimal = False
    except _CeilingReached:
        pass
    # rec reaches itself through its closure: break that cycle so the
    # counter's planes are freed here, not at the next garbage collection
    del rec, rec_pairs
    result_set = gset(Interval(n), best_elems)
    verdict = verify_chg(result_set, h, g)
    if not verdict.holds:
        raise RuntimeError("search returned an invalid set (broken counter)")
    return SearchResult(n, h, g, best_size, result_set, nodes, optimal)


def max_chg_exact(n: int, h: int, g: int, node_cap: int = DEFAULT_NODE_CAP) -> SearchResult:
    """Maximum C_h[g]-set in the window of size n: the last row of
    ``max_table``.  ``node_cap`` bounds the search of each window 1..n, and
    ``nodes_explored`` counts window n only; ``optimal`` is False when that
    search was cut off, and the best set found so far is returned.
    """
    return max_table(n, h, g, node_cap)[-1]


def max_table(n_max: int, h: int, g: int, node_cap: int = DEFAULT_NODE_CAP) -> list:
    """Exact maxima for every window size 1..n_max.

    Each row starts from the previous row's best set, so the sequence is
    nondecreasing by construction; the unit step after an optimal row is
    asserted.  The maxima of the optimal rows bound the rest of the window
    in the next rows' searches (Russian Doll Search).
    """
    check_hg(h, g)
    if n_max < 1:
        raise ParameterError(f"n must be >= 1, got {n_max}")
    check_cap("node cap", node_cap)
    limit = DEFAULT_N_LIMITS.get(h, _FALLBACK_N_LIMIT)
    if n_max > limit:
        raise ParameterError(f"n={n_max} above configured search range {limit} for h={h}")
    results = []
    doll = [0]  # doll[w]: M(w) if row w is optimal, else w
    seed = gset(Interval(1), (0,))
    for n in range(1, n_max + 1):
        res = _search_window(n, h, g, node_cap, seed, doll)
        # M(n) <= M(n-1) + 1 bounds the step only after an optimal row
        if not len(seed) <= res.best_size <= doll[n - 1] + 1:
            raise RuntimeError(f"table step {len(seed)} -> {res.best_size} at n={n}")
        results.append(res)
        doll.append(res.best_size if res.optimal else n)
        seed = res.best_set
    return results
