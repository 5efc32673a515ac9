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
into translation classes; every verifier, the bad-element detection and
``canonicalize`` read their answers from it.  A class key packs the nonzero
elements of the canonical pattern, as ``elem_key`` digits, into one int.
One generator, ``_anchored_keys``, yields the keys of the (h-1)-subsets of
the offsets u - t from an anchor element t.  In Z, anchoring every element
over the later ones keys every h-subset by its minimum; on every kind, t
is an offset of a class exactly when the class key is anchored at t, so
the offsets are read off the same generator.  Group kinds count members
under the smallest key over a subset's members instead.

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


def canonicalize(xs: GSet):
    """Canonical representative of the translation class of X.

    Returns ``(pattern, shift)`` with ``pattern = X - shift``.  X is the only
    |X|-subset of itself, so this is the kernel's class of X: the pattern is
    the lexicographically smallest X - x (X - min X for intervals), and the
    shift the smallest x that gives it.
    """
    if len(xs) < 2:
        if not xs.elems:
            raise ParameterError("cannot canonicalize an empty set")
        return _gset_unchecked(xs.group, (zero(xs.group),)), xs.elems[0]
    pc = enumerate_pattern_classes(xs, len(xs))[0]
    return pc.pattern, pc.bases[0]


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


def _anchored_keys(tail, h: int, radix: int, anchor: int = 0):
    """Packed keys of the (h-1)-combinations of the offsets x - ``anchor``,
    x in ``tail`` (ascending keys), in ``combinations`` order.

    One lazy recursion over prefixes: a prefix packs the digits chosen so
    far, times ``radix``, and the last digit is added to it.
    """

    def rec(prefix, start, depth):
        if depth == 1:
            return map((prefix - anchor).__add__, tail[start:])
        return chain.from_iterable(
            rec((prefix + tail[i] - anchor) * radix, i + 1, depth - 1)
            for i in range(start, len(tail) - depth + 1)
        )

    return rec(0, 0, h - 1)


def _min_keys(diff, h: int, radix: int):
    """Packed class keys of the h-subsets of a group set, in
    ``combinations`` order, from its difference table ``diff`` (``diff[i][j]``
    is the key of element j minus element i).

    A subset's key is the smallest over its members x of the packed sorted
    offsets from x, which is the lexicographically smallest pattern.  The
    h = 2 and h = 3 cases are unrolled for speed.
    """
    m = len(diff)
    if h == 2:
        cols = list(zip(*diff))
        return chain.from_iterable(map(min, diff[i][i + 1 :], cols[i][i + 1 :]) for i in range(m))
    if h > 3:
        return (
            min(_pack(sorted(diff[t][u] for u in idx if u != t), radix) for t in idx)
            for idx in combinations(range(m), h)
        )

    def triples():
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

    return triples()


def enumerate_pattern_classes(host: GSet, h: int, min_members: int = 1) -> list:
    """Translation classes of h-subsets of ``host`` with at least
    ``min_members`` member subsets, sorted by canonical pattern.

    A class key packs the nonzero elements of its canonical pattern, as
    element keys in ascending order, into base-``radix`` digits, so key
    order is pattern order.  The count pass counts the member subsets of
    every class.  The offset pass then reads offsets by anchoring: k is an
    offset of the pattern with key K exactly when K is among the keys of
    the (h-1)-subsets of the offsets u - k, u in the host.  Only the keys
    that passed the filter are kept, so the full key set is never copied
    or sorted.  ``bases`` lists every offset; a pattern with a nontrivial
    stabilizer has several per member subset.
    """
    if h < 2:
        raise ParameterError(f"pattern size h must be >= 2, got {h}")
    group, elems = host.group, host.elems
    if h > len(elems):
        return []
    # anchored(i, t): the keys anchored at t = elems[i]
    if isinstance(group, Interval):
        # in Z a pattern's minimum is 0, so t anchors over the later elements
        radix = elems[-1] - elems[0] + 1

        def anchored(i, t):
            return _anchored_keys(elems[i + 1 :], h, radix, t)

        keys = chain.from_iterable(map(anchored, range(len(elems)), elems))
    else:
        radix = order(group)
        # diff[i][j] is the key of elems[j] - elems[i]; diff[i][i] is 0
        diff = [[elem_key(group, sub(group, y, x)) for y in elems] for x in elems]

        def anchored(i, t):
            return _anchored_keys(sorted(diff[i])[1:], h, radix)

        keys = _min_keys(diff, h, radix)
    counts = Counter(keys)
    shifts = {key: [] for key, c in counts.items() if c >= min_members}
    del counts
    if shifts:
        wanted = shifts.keys()
        for i, t in enumerate(elems):
            for key in wanted & anchored(i, t):
                shifts[key].append(t)
    out = []
    for key in sorted(shifts):
        digits = _unpack(key, radix, h - 1)
        pattern = (zero(group),) + tuple(elem_from_key(group, d) for d in digits)
        out.append(PatternClass(_gset_unchecked(group, pattern), tuple(shifts[key])))
    return out
