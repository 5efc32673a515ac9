"""Ambient spaces, elements, element sets, and translation classes.

Three ambient kinds are supported: the cyclic group Z_n, the coordinate
product Z_q^d, and the integer interval of size n viewed as a subset of Z.
The interval is *not* a group under its addition: translation is plain
integer addition, sums may leave the window, and containment questions are
the business of whoever asked for the translate.

Elements are plain ints (cyclic / interval) or d-tuples of ints (product),
always reduced to canonical residues for the group kinds.  The natural
Python ordering (numeric, or lexicographic on tuples) is the canonical
element order, and ``elem_key`` provides an order-compatible mixed-radix
integer encoding.

``enumerate_pattern_classes`` is the one batch kernel that sorts h-subsets
into translation classes; every verifier and the bad-element detection read
their answers from it.  It searches the zero-anchored patterns depth-first
in key order and carries each prefix's offsets, the host elements k with
k + prefix inside the host.  Offsets only shrink as a pattern grows, so a
prefix with fewer offsets than the wanted member count is pruned.  The first
level comes from the difference table; deeper levels intersect offset rows
kept as int bitmasks over the surviving differences, so the work and the
memory follow the host's differences, never the size of the ambient.
``canonicalize`` takes its minimum over the |X| candidate shifts directly.

Interval sets are stored 0-based internally; file and CLI output shift
them to the 1-based window {1, ..., n}.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import chain, product as iter_product

from .errors import ParameterError

Elem = int | tuple


@dataclass(frozen=True)
class Cyclic:
    """The cyclic group Z_n, elements 0..n-1."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ParameterError(f"cyclic order must be >= 1, got {self.n}")


@dataclass(frozen=True)
class Product:
    """The direct product Z_q^d, elements are d-tuples of residues mod q."""

    q: int
    d: int

    def __post_init__(self):
        if self.q < 2:
            raise ParameterError(f"product modulus must be >= 2, got {self.q}")
        if self.d < 1:
            raise ParameterError(f"product dimension must be >= 1, got {self.d}")


@dataclass(frozen=True)
class Interval:
    """The integer window of size n inside Z, stored 0-based.

    Not a group: addition is ordinary integer addition and may leave the
    window.  Element validity only requires a non-negative integer; the
    operations that promise containment in [0, n) assert it themselves.
    """

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ParameterError(f"interval size must be >= 1, got {self.n}")


Group = Cyclic | Product | Interval


def order(group) -> int:
    """Ambient size: group order, or the interval window size."""
    if isinstance(group, Product):
        return group.q**group.d
    return group.n


def zero(group):
    if isinstance(group, Product):
        return (0,) * group.d
    return 0


def validate_elem(group, e):
    """Check canonical form for the group kind; return the element."""
    if isinstance(group, Product):
        if not isinstance(e, tuple) or len(e) != group.d:
            raise ParameterError(f"expected a {group.d}-tuple for {group}, got {e!r}")
        if not all(isinstance(c, int) and 0 <= c < group.q for c in e):
            raise ParameterError(f"coordinates of {e!r} out of range for {group}")
        return e
    if not isinstance(e, int) or isinstance(e, bool):
        raise ParameterError(f"expected an int element for {group}, got {e!r}")
    if isinstance(group, Cyclic):
        if not 0 <= e < group.n:
            raise ParameterError(f"element {e} out of range for {group}")
    elif e < 0:
        raise ParameterError(f"interval elements must be >= 0, got {e}")
    return e


def add(group, a, b):
    """Group addition; plain integer addition for intervals."""
    if isinstance(group, Product):
        if not (isinstance(a, tuple) and isinstance(b, tuple) and len(a) == len(b) == group.d):
            raise ParameterError(f"dimension mismatch adding {a!r} + {b!r} in {group}")
        q = group.q
        return tuple((x + y) % q for x, y in zip(a, b))
    if isinstance(a, tuple) or isinstance(b, tuple):
        raise ParameterError(f"dimension mismatch adding {a!r} + {b!r} in {group}")
    if isinstance(group, Cyclic):
        return (a + b) % group.n
    return a + b


def sub(group, a, b):
    """a - b.  For intervals this is signed integer subtraction."""
    if isinstance(group, Product):
        q = group.q
        return tuple((x - y) % q for x, y in zip(a, b))
    if isinstance(group, Cyclic):
        return (a - b) % group.n
    return a - b


def elem_key(group, e) -> int:
    """Order-compatible integer encoding (mixed radix, first coord most
    significant for products; the value itself otherwise)."""
    if isinstance(group, Product):
        k = 0
        for c in e:
            k = k * group.q + c
        return k
    return e


def elem_from_key(group, k: int):
    if isinstance(group, Product):
        coords = []
        for _ in range(group.d):
            k, r = divmod(k, group.q)
            coords.append(r)
        return tuple(reversed(coords))
    return k


def iter_elements(group):
    """All ambient elements in canonical (sorted) order."""
    if isinstance(group, Product):
        return iter_product(range(group.q), repeat=group.d)
    return iter(range(group.n))


@dataclass(frozen=True)
class GSet:
    """A finite, sorted, duplicate-free set of elements of one ambient space."""

    group: object
    elems: tuple

    def __len__(self):
        return len(self.elems)

    def __iter__(self):
        return iter(self.elems)

    def __contains__(self, e):
        return e in self.elems


def gset(group, elems) -> GSet:
    """Build a GSet: validates, deduplicates, sorts."""
    uniq = sorted({validate_elem(group, e) for e in elems})
    return GSet(group, tuple(uniq))


def _gset_unchecked(group, sorted_elems) -> GSet:
    return GSet(group, tuple(sorted_elems))


def translate(xs: GSet, k) -> GSet:
    """The translate {x + k : x in X}; cardinality is always preserved.

    Interval translates may leave the window, which is why the result skips
    range validation for that kind.
    """
    group = xs.group
    shifted = sorted(add(group, x, k) for x in xs.elems)
    if len(set(shifted)) != len(xs.elems):
        raise ParameterError(f"translation by {k!r} collapsed elements in {group}")
    return _gset_unchecked(group, shifted)


def canonicalize(xs: GSet):
    """Canonical representative of the translation class of X.

    Returns ``(pattern, shift)`` with ``pattern = X - shift``: the
    lexicographically smallest X - x over x in X (X - min X for intervals),
    compared as sorted element keys, and the smallest x that gives it.
    """
    group, elems = xs.group, xs.elems
    if not elems:
        raise ParameterError("cannot canonicalize an empty set")
    shifts = elems[:1] if isinstance(group, Interval) else elems
    keys, shift = min((sorted(elem_key(group, sub(group, y, x)) for y in elems), x) for x in shifts)
    return _gset_unchecked(group, tuple(elem_from_key(group, k) for k in keys)), shift


def stabilizer(group, pattern):
    """All t with pattern + t = pattern (pattern must contain zero).

    Trivial for intervals and for any aperiodic pattern; for group kinds a
    nontrivial stabilizer means the pattern is a union of cosets of the
    subgroup it generates.
    """
    pset = set(pattern)
    return [t for t in pattern if all(add(group, x, t) in pset for x in pattern)]


def stabilizer_bound(group, h: int) -> int:
    """Largest possible stabilizer of an h-element pattern: 1 in Z, and
    gcd(h, |G|) in a group, since a stabilizer is a subgroup whose cosets
    tile the pattern."""
    if isinstance(group, Interval):
        return 1
    return math.gcd(h, order(group))


@dataclass(frozen=True)
class PatternClass:
    """A translation class of h-subsets inside a host set.

    ``pattern`` is the canonical representative; ``bases`` is the full,
    sorted list of translation offsets k with pattern + k inside the host
    (offsets, not member subsets: a pattern with a nontrivial stabilizer
    has several offsets per member).
    """

    pattern: GSet
    bases: tuple


def enumerate_pattern_classes(host: GSet, h: int, min_members: int = 1) -> list:
    """Translation classes of h-subsets of ``host`` with at least
    ``min_members`` member subsets, sorted by canonical pattern.

    A depth-first search over the zero-anchored patterns (0, d1, ..., d_{h-1}),
    d1 < ... < d_{h-1} in element-key order, so patterns come out in pattern
    order.  A node carries its offsets: the host elements k with
    k + prefix inside the host.  A pattern's offsets are a subset of its
    prefix's offsets and it has at least as many offsets as member subsets,
    so a child that keeps fewer than ``min_members`` offsets is pruned
    exactly.

    Level 1 comes from the difference table: one count pass, then the
    offsets of only the differences d that reach ``min_members``.  At h = 2
    on group kinds the count pass keys each pair by its class, the smaller
    of d and -d, so level 1 holds the classes themselves.  Deeper,
    the row of an element k is an int bitmask over those differences (bit j
    set when k + d_j is in the host), built when a node first needs it;
    carry-save counters over a node's rows give the children with enough
    offsets.  Mask widths follow the differences, never the ambient.

    In Z a pattern's minimum is 0, so every pattern found is canonical.  On
    group kinds a class has one zero-anchored pattern per member up to the
    stabilizer: a leaf is kept only when no P - p sorts before P, and its
    member count is its offset count over the stabilizer's size.  ``bases``
    lists every offset in ascending order; a pattern with a nontrivial
    stabilizer has several per member subset.
    """
    if h < 2:
        raise ParameterError(f"pattern size h must be >= 2, got {h}")
    group, elems = host.group, host.elems
    m = len(elems)
    if h > m:
        return []
    least = max(min_members, 1)
    interval = isinstance(group, Interval)
    if interval:
        # in Z a pattern's minimum is 0, so only the later elements count

        def diffs(i):
            return map((-elems[i]).__add__, elems[i + 1 :])

        level = map(diffs, range(m))
    else:
        # table[i][j] is the key of elems[j] - elems[i]; table[i][i] is 0
        table = [[elem_key(group, sub(group, y, x)) for y in elems] for x in elems]
        diffs = table.__getitem__
        level = table
        if h == 2:
            # count pairs under their class key, the smaller of d and -d
            cols = list(zip(*table))
            level = (map(min, table[i][i + 1 :], cols[i][i + 1 :]) for i in range(m))
    counts = Counter(chain.from_iterable(level))
    level1 = sorted(d for d, c in counts.items() if c >= least and d)
    del counts
    offsets = {d: [] for d in level1}
    wanted = offsets.keys()
    for i in range(m):
        for d in wanted & diffs(i):
            offsets[d].append(i)
    origin = zero(group)
    out = []

    def emit(digits, offs):
        if isinstance(group, Product):
            pattern = (origin, *(elem_from_key(group, d) for d in digits))
        else:
            pattern = (origin, *digits)  # an int element is its own key
        if h > 2 and not interval:
            keys = [0, *digits]
            shifted = [sorted(elem_key(group, sub(group, x, p)) for x in pattern) for p in pattern]
            # P - p == P exactly when p is in the stabilizer
            if min(shifted) < keys or len(offs) // shifted.count(keys) < least:
                return
        out.append(PatternClass(_gset_unchecked(group, pattern), tuple(map(elems.__getitem__, offs))))

    index = {d: j for j, d in enumerate(level1)}
    rows = [None] * m

    def grow(digits, offs, last):
        # ge[t]: the bits set in more than t of the rows of offs
        ge = [0] * least
        for i in offs:
            row = rows[i]
            if row is None:
                hits = map(index.__getitem__, index.keys() & diffs(i))
                row = rows[i] = sum(map((1).__lshift__, hits))
            for t in range(least - 1, 0, -1):
                ge[t] |= ge[t - 1] & row
            ge[0] |= row
        above = ge[-1] >> (last + 1) << (last + 1)
        while above:
            low = above & -above
            above ^= low
            j = low.bit_length() - 1
            kids = [i for i in offs if rows[i] & low]
            if len(digits) + 2 == h:
                emit(digits + (level1[j],), kids)
            else:
                grow(digits + (level1[j],), kids, j)

    for j, d in enumerate(level1):
        if h == 2:
            emit((d,), offsets[d])
        else:
            grow((d,), offsets[d], j)
    return out
