"""Ambient spaces, elements, element sets, and translation classes.

Three ambient kinds are supported: the cyclic group Z_n, the coordinate
product Z_q^d, and the integer interval of size n viewed as a subset of Z.
The interval is *not* a group under its addition: translation is plain
integer addition and a translate may leave the window, but a set's
elements may not: ``gset`` holds them to [0, n) as it holds Z_n's.

Elements are plain ints (cyclic / interval) or d-tuples of ints (product),
always reduced to canonical residues for the group kinds.  The natural
Python ordering (numeric, or lexicographic on tuples) is the canonical
element order, and ``elem_key`` provides an order-compatible integer
encoding: a product element packs into b-bit digits with 2^(b-1) >= q, so
``diff_rows`` and ``reduce_digits`` do digitwise arithmetic mod q on whole
keys and rows of keys, never on tuples.

``enumerate_pattern_classes`` is the one batch kernel that sorts h-subsets
into translation classes; every verifier, the sum-matrix check and the
bad-element detection read their answers from it.  It searches the
zero-anchored patterns depth first, in key order, on one stack with one
entry per depth: a prefix, its offsets (the host elements k with k +
prefix inside the host) and the mask of its children not yet taken; each
pop takes one child, the least.  A class is kept by its offset count,
the g of the C_h[g] definition; offsets only shrink as a pattern grows, so
a prefix with fewer offsets than wanted is pruned.  The first level comes
from the difference table; one pass over each element's differences lists
offsets and, for h > 2, builds the int bitmask rows that deeper levels
intersect, so the work and the memory follow the host's differences, never
the size of the ambient.  A node counts, bit by bit, the rows that hold
it or, when fewer can miss it, the rows that miss it.  A caller that needs
one witness (``stop``) ends the search at the first class with enough
offsets.

Interval sets are stored 0-based internally; file and CLI output shift
them to the 1-based window {1, ..., n}.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import chain, product as iter_product

from .errors import ParameterError, Value

_set = object.__setattr__


class Cyclic(Value):
    """The cyclic group Z_n, elements 0..n-1."""

    __slots__ = ("n",)

    def _validate(self):
        if self.n < 1:
            raise ParameterError(f"cyclic order must be >= 1, got {self.n}")


class Product(Value):
    """The direct product Z_q^d, elements are d-tuples of residues mod q."""

    __slots__ = ("q", "d")

    def _validate(self):
        if self.q < 2:
            raise ParameterError(f"product modulus must be >= 2, got {self.q}")
        if self.d < 1:
            raise ParameterError(f"product dimension must be >= 1, got {self.d}")


class Interval(Value):
    """The integer window of size n inside Z, stored 0-based.

    Not a group: addition is ordinary integer addition, and a translate
    may leave the window.  A set's elements lie in [0, n).
    """

    __slots__ = ("n",)

    def _validate(self):
        if self.n < 1:
            raise ParameterError(f"interval size must be >= 1, got {self.n}")


def order(group) -> int:
    """Ambient size: group order, or the interval window size."""
    if isinstance(group, Product):
        return group.q**group.d
    return group.n


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
    if not 0 <= e < group.n:
        raise ParameterError(f"element {e} out of range for {group}")
    return e


def sub(group, a, b):
    """a - b.  For intervals this is signed integer subtraction."""
    if isinstance(group, Product):
        q = group.q
        return tuple((x - y) % q for x, y in zip(a, b))
    if isinstance(group, Cyclic):
        return (a - b) % group.n
    return a - b


@lru_cache(maxsize=None)
def _packing(q: int, d: int) -> tuple:
    """Z_q^d packed: the digit width b, least with 2^(b-1) >= q so that a
    digit below 2q fits, and q, 2^(b-1) - q and the top bit in every digit."""
    b = (q - 1).bit_length() + 1
    ones = sum(1 << b * i for i in range(d))
    return b, q * ones, ((1 << b - 1) - q) * ones, ones << b - 1


def elem_key(group, e) -> int:
    """Order-compatible integer encoding: for products the coordinates
    packed into b-bit digits, first coordinate most significant (see
    ``_packing``); the value itself otherwise."""
    if isinstance(group, Product):
        b = _packing(group.q, group.d)[0]
        k = 0
        for c in e:
            k = k << b | c
        return k
    return e


def elem_from_key(group, k: int):
    if isinstance(group, Product):
        b = _packing(group.q, group.d)[0]
        mask = (1 << b) - 1
        return tuple(k >> b * i & mask for i in range(group.d - 1, -1, -1))
    return k


def reduce_digits(group):
    """The map from words of the Product ``group`` whose digits are below
    2q, such as digitwise sums of two keys, to the list of their keys mod q:
    adding 2^(b-1) - q to a digit sets its top bit exactly when it is >= q,
    so one masked add and one shift find every digit to take q off."""
    q = group.q
    b, _, lift, top = _packing(q, group.d)
    shift = b - 1
    return lambda words: [s - ((s + lift & top) >> shift) * q for s in words]


def diff_rows(group, xkeys, ykeys) -> list:
    """Row i holds the keys of y - x for the y keyed by ``ykeys``, x keyed
    by ``xkeys[i]`` (signed y - x for intervals).  On Z_q^d each digit of
    y + (q, ..., q) - x lies in [1, 2q), so the word needs no borrow and
    ``reduce_digits`` brings a whole row of them below q (SIMD within a
    register: Lamport, CACM 1975)."""
    if isinstance(group, Product):
        reduce, qs = reduce_digits(group), _packing(group.q, group.d)[1]
        return [reduce(map((qs - x).__add__, ykeys)) for x in xkeys]
    if isinstance(group, Cyclic):
        n = group.n
        return [[(y - x) % n for y in ykeys] for x in xkeys]
    return [[y - x for y in ykeys] for x in xkeys]


def iter_elements(group):
    """All ambient elements in canonical (sorted) order."""
    if isinstance(group, Product):
        return iter_product(range(group.q), repeat=group.d)
    return iter(range(group.n))


class GSet(Value):
    """A finite, sorted, duplicate-free set of elements of one ambient space."""

    __slots__ = ("group", "elems")

    def __init__(self, group, elems):
        # the class kernel builds two values per class: bind the fields
        # directly rather than through the generic constructor
        _set(self, "group", group)
        _set(self, "elems", elems)

    def __len__(self):
        return len(self.elems)

    def __iter__(self):
        return iter(self.elems)


def gset(group, elems) -> GSet:
    """Build a GSet: validates, deduplicates, sorts."""
    uniq = sorted({validate_elem(group, e) for e in elems})
    return GSet(group, tuple(uniq))


class PatternClass(Value):
    """A translation class of h-subsets inside a host set.

    ``pattern`` is the canonical representative; ``bases`` is the full,
    sorted list of translation offsets k with pattern + k inside the host.
    These are the offsets that the C_h[g] definition counts, not member
    subsets: a pattern with a nontrivial stabilizer has several offsets per
    member.
    """

    __slots__ = ("pattern", "bases")

    def __init__(self, pattern, bases):
        _set(self, "pattern", pattern)
        _set(self, "bases", bases)


def enumerate_pattern_classes(host: GSet, h: int, min_offsets: int = 1,
                              stop: int | None = None) -> list:
    """Translation classes of h-subsets of ``host`` with at least
    ``min_offsets`` offsets, sorted by canonical pattern.

    With ``stop``, the search ends at the first class with at least
    ``stop`` offsets, which is then the last in the list: a caller that
    wants one witness builds no class after it.
    """
    if h < 2:
        raise ParameterError(f"pattern size h must be >= 2, got {h}")
    classes = []
    for pc in _pattern_classes(host, h, max(min_offsets, 1)):
        classes.append(pc)
        if stop is not None and len(pc.bases) >= stop:
            break
    return classes


def _pattern_classes(host: GSet, h: int, least: int):
    """The classes of ``enumerate_pattern_classes``, yielded in pattern
    order as the search finds them, each with at least ``least`` offsets.

    A search over the zero-anchored patterns (0, d1, ..., d_{h-1}),
    d1 < ... < d_{h-1} in element-key order, depth first on one stack, so
    patterns come out in pattern order and h sets no depth limit.  A stack
    entry is a prefix, its offsets (the host elements k with k + prefix
    inside the host) and a mask over level 1 of its children not yet taken;
    the first entry is the empty prefix with the walked roots as children.
    A pop takes the least child, pushes the rest back if any remain, and
    filters the prefix's offsets down to the child's; a child that is not a
    leaf is pushed with its own children on top.  So the stack holds at most
    one entry per depth, h - 1 in all, and a search that ends at a witness
    builds no sibling after it.  A pattern's offsets are a subset of its
    prefix's offsets, so a child that keeps fewer than ``least`` offsets is
    pruned exactly.

    Level 1 comes from the difference table (``diff_rows``): one pass
    counts each difference d, the offset count of {0, d}, and keeps those
    reaching ``least``.  A second pass, one loop for every h, looks each
    of element k's differences up in level 1 once and lists k among the
    offsets of each walked root it hits; for h > 2 it also sets the hits'
    bits in k's row, an int bitmask over level 1, bit j set when k + d_j
    is in the host.  Carry-save counters over a node's rows give the
    children with enough offsets, counting the rarer side: a bit set in at
    least ``least`` of r rows is clear in fewer than miss = r - least + 1,
    so when miss < least, miss counters run over the complemented rows and
    the top one is complemented back.  A dense host at large g costs a few
    counters per row, not g.  Mask widths follow the differences, never
    the ambient.

    In Z a pattern's minimum is 0, so every pattern found is canonical.  On
    group kinds a class has one zero-anchored pattern P - p for each p in P,
    all with the same offset count: a leaf is kept only when no P - p sorts
    before P.  sorted(P - d1) starts (0, x) with x <= -d1, so a root d1
    whose negation sorts before it is neither walked nor given an offset
    list: its leaves would all be dropped.  An element of order 2 is its
    own negation and is walked.
    ``bases`` lists every offset in ascending order.
    """
    group, elems = host.group, host.elems
    m = len(elems)
    if h > m:
        return
    interval = isinstance(group, Interval)
    if interval:
        # in Z a pattern's minimum is 0, so only the later elements count

        def diffs(i):
            return map((-elems[i]).__add__, elems[i + 1 :])

        level = map(diffs, range(m))
    else:
        # table[i][j] is the key of elems[j] - elems[i]; table[i][i] is 0
        keys = [elem_key(group, x) for x in elems]
        table = diff_rows(group, keys, keys)
        diffs = table.__getitem__
        level = table
    level1 = sorted(d for d, c in Counter(chain.from_iterable(level)).items() if c >= least and d)
    # the key of -d for each root d; in Z every root is walked
    neg = level1 if interval else [row[0] for row in diff_rows(group, level1, [0])]
    index = {d: j for j, d in enumerate(level1)}
    # offset lists for the walked roots only; a skipped root's is None
    offsets = [[] if n >= d else None for d, n in zip(level1, neg)]
    width = (len(level1) + 7) // 8
    full = (1 << len(level1)) - 1
    rows = []
    for i in range(m):
        hits = [j for j in map(index.get, diffs(i)) if j is not None]
        if h > 2:
            bits = bytearray(width)
            for j in hits:
                bits[j >> 3] |= 1 << (j & 7)
            rows.append(int.from_bytes(bits, "little"))
        for j in hits:
            if offsets[j] is not None:
                offsets[j].append(i)

    # one stack of (prefix digits, prefix offsets, mask of the children not
    # yet taken); the empty prefix's offsets are None, for its children are
    # the walked roots, whose offsets come listed from level 1
    roots = sum(1 << j for j, offs in enumerate(offsets) if offs is not None)
    stack = [((), None, roots)] if roots else []
    while stack:
        digits, offs, kids = stack.pop()
        # take the least child; its siblings wait below its own children
        bit = kids & -kids
        if rest := kids ^ bit:
            stack.append((digits, offs, rest))
        j = bit.bit_length() - 1
        offs = offsets[j] if offs is None else [i for i in offs if rows[i] & bit]
        digits += (level1[j],)
        if len(digits) == h - 1:
            anchored = [0, *digits]
            if interval or min(map(sorted, diff_rows(group, anchored, anchored))) == anchored:
                pattern = tuple(elem_from_key(group, k) for k in anchored)
                yield PatternClass(GSet(group, pattern), tuple(map(elems.__getitem__, offs)))
            continue
        # the rarer side: set in >= least rows is clear in < miss rows
        need, flip, picked = least, 0, map(rows.__getitem__, offs)
        miss = len(offs) - least + 1
        if miss < least:
            need, flip, picked = miss, full, map(full.__xor__, picked)
        # ge[t]: the bits set in more than t of the picked rows
        ge = [0] * need
        for row in picked:
            for t in range(need - 1, 0, -1):
                ge[t] |= ge[t - 1] & row
            ge[0] |= row
        above = (ge[-1] ^ flip) >> (j + 1) << (j + 1)
        if above:
            stack.append((digits, offs, above))
