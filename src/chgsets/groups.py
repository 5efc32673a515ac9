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
into translation classes; every verifier and the bad-element detection
read their verdicts from it.  It counts members under packed-integer
pattern keys (built from ``elem_key``), then collects offsets only for the
classes the caller asked for.

Interval sets are stored 0-based internally; file and CLI output shift
them to the 1-based window {1, ..., n}.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import chain, combinations, product as iter_product

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


def canonical_shift_tuple(group, subset):
    """Canonical (pattern, shift) for a tuple of distinct elements.

    The pattern is the lexicographically smallest sorted tuple among the
    |X| candidates X - x (x in X); for intervals the only sensible shift is
    min(X).  Patterns always contain the zero element, and two sets get the
    same pattern exactly when they are translates of one another.
    """
    if not subset:
        raise ParameterError("cannot canonicalize an empty set")
    if isinstance(group, Interval):
        m = min(subset)
        return tuple(sorted(x - m for x in subset)), m
    best = None
    best_shift = None
    for x in sorted(subset):
        cand = tuple(sorted(sub(group, y, x) for y in subset))
        if best is None or cand < best:
            best = cand
            best_shift = x
    return best, best_shift


def canonicalize(xs: GSet):
    """Canonical representative of the translation class of X.

    Returns ``(pattern, shift)`` with ``pattern = X - shift``.
    """
    pattern, shift = canonical_shift_tuple(xs.group, xs.elems)
    return _gset_unchecked(xs.group, pattern), shift


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


def _pack(digits, radix: int) -> int:
    key = 0
    for d in digits:
        key = key * radix + d
    return key


def _unpack(key: int, radix: int, count: int) -> list:
    digits = [0] * count
    for i in range(count - 1, -1, -1):
        key, digits[i] = divmod(key, radix)
    return digits


def _subset_keys(group, elems, h: int):
    """Packed class keys of the h-subsets of ``elems``, in ``combinations``
    order.

    A key packs the nonzero offsets of the canonical pattern, ascending, as
    base-``radix`` digits: for group kinds, element keys of the offsets from
    whichever member gives the smallest key (the lexicographically smallest
    pattern); for intervals, the offsets from the minimum.  Key order is
    thus pattern order.  Returns ``(keys, radix, shift_of)``: ``keys()``
    iterates over one key per subset; ``shift_of(idx, key)`` is an element
    x of the subset at indices ``idx`` with subset - x the pattern of
    ``key``.  The h = 2 and h = 3 cases are unrolled for speed.
    """
    m = len(elems)
    if isinstance(group, Interval):
        radix = elems[-1] - elems[0] + 1

        def keys():
            if h == 2:
                return chain.from_iterable(
                    map((-a).__add__, elems[i + 1 :]) for i, a in enumerate(elems)
                )
            if h == 3:
                return chain.from_iterable(
                    map(((elems[j] - a) * radix - a).__add__, elems[j + 1 :])
                    for i, a in enumerate(elems)
                    for j in range(i + 1, m - 1)
                )
            return (_pack([x - s[0] for x in s[1:]], radix) for s in combinations(elems, h))

        def shift_of(idx, key):
            return elems[idx[0]]

        return keys, radix, shift_of

    radix = order(group)
    # diff[i][j] is the key of elems[j] - elems[i]
    diff = [[elem_key(group, sub(group, y, x)) for y in elems] for x in elems]

    def key_from(idx, t):
        row = diff[t]
        return _pack(sorted(row[u] for u in idx if u != t), radix)

    def shift_of(idx, key):
        return next(elems[t] for t in idx if key_from(idx, t) == key)

    if h == 2:
        cols = list(zip(*diff))

        def keys():
            return chain.from_iterable(
                map(min, diff[i][i + 1 :], cols[i][i + 1 :]) for i in range(m)
            )
    elif h == 3:
        def keys():
            # the smallest of the three sorted offset pairs, one per member
            for i in range(m - 2):
                row_i = diff[i]
                for j in range(i + 1, m - 1):
                    row_j = diff[j]
                    dij = row_i[j]
                    dji = row_j[i]
                    for k in range(j + 1, m):
                        row_k = diff[k]
                        u1, v1 = dij, row_i[k]
                        if u1 > v1:
                            u1, v1 = v1, u1
                        u2, v2 = dji, row_j[k]
                        if u2 > v2:
                            u2, v2 = v2, u2
                        if u2 < u1 or (u2 == u1 and v2 < v1):
                            u1, v1 = u2, v2
                        u3, v3 = row_k[i], row_k[j]
                        if u3 > v3:
                            u3, v3 = v3, u3
                        if u3 < u1 or (u3 == u1 and v3 < v1):
                            u1, v1 = u3, v3
                        yield u1 * radix + v1
    else:
        def keys():
            return (min(key_from(idx, t) for t in idx) for idx in combinations(range(m), h))
    return keys, radix, shift_of


def enumerate_pattern_classes(host: GSet, h: int, min_members: int = 1) -> list:
    """Translation classes of h-subsets of ``host`` with at least
    ``min_members`` member subsets, sorted by canonical pattern.

    The count pass counts the member subsets of every class under packed
    keys.  The shift pass enumerates the subsets again and collects shifts
    only for the classes that passed the filter, so the full key set is
    never copied or sorted.  ``bases`` lists every offset, which differs
    from the member subsets only for a pattern with a nontrivial stabilizer
    (each member then accounts for |stabilizer| offsets).
    """
    if h < 2:
        raise ParameterError(f"pattern size h must be >= 2, got {h}")
    group, elems = host.group, host.elems
    if h > len(elems):
        return []
    keys, radix, shift_of = _subset_keys(group, elems, h)
    counts = Counter(keys())
    shifts = {key: [] for key, c in counts.items() if c >= min_members}
    del counts
    if shifts:
        for key, idx in zip(keys(), combinations(range(len(elems)), h)):
            members = shifts.get(key)
            if members is not None:
                members.append(shift_of(idx, key))
    periodic = stabilizer_bound(group, h) > 1
    out = []
    for key in sorted(shifts):
        digits = _unpack(key, radix, h - 1)
        pattern = (zero(group),) + tuple(elem_from_key(group, d) for d in digits)
        bases = shifts[key]
        if periodic:
            stab = stabilizer(group, pattern)
            bases = {add(group, s, t) for s in bases for t in stab}
        out.append(PatternClass(_gset_unchecked(group, pattern), tuple(sorted(bases))))
    return out
