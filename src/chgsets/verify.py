"""Exact decision procedures for the C_h[g] and weak C_h[g] properties.

A set A is C_h[g] exactly when no translation class of h-subsets of A
admits g distinct offsets (pattern + k inside A for g different k); the
weak variant additionally requires the g translates to be pairwise
disjoint.  Both verdicts read the classes from the one class kernel,
``groups.enumerate_pattern_classes``, asking only for classes with at least
g offsets.  The subset cap bounds C(|A|, h) before any work, so a verdict is
either exact or a ``ResourceCapError``, never approximate; a cap below 1 is
a ``ParameterError``.
"""

from __future__ import annotations

import math

from .errors import (
    DEFAULT_ORDER_CAP,
    DEFAULT_SUBSET_CAP,
    ParameterError,
    ResourceCapError,
    Value,
    check_cap,
    check_hg,
)
from .groups import (
    GSet,
    Interval,
    diff_rows,
    elem_key,
    enumerate_pattern_classes,
    iter_elements,
    order,
    sub,
)


class Witness(Value):
    """A concrete violation: pattern plus g offsets whose translates all
    land inside the verified set (pairwise disjoint for the weak check)."""

    __slots__ = ("pattern", "bases")


class Verdict(Value):
    """Whether the property holds, and a ``Witness`` when it does not."""

    __slots__ = ("holds", "witness")
    _defaults = {"witness": None}


def _cap_check(size: int, h: int, subset_cap: int) -> None:
    if math.comb(size, h) > subset_cap:
        raise ResourceCapError(
            f"{math.comb(size, h)} subsets of size {h} exceed cap {subset_cap}"
        )


def verify_chg(target: GSet, h: int, g: int, subset_cap: int = DEFAULT_SUBSET_CAP) -> Verdict:
    """Exact C_h[g] verdict for ``target`` in its ambient space.

    Interval sets are verified in Z (all integer translates considered).
    On failure the witness is the violating class with the smallest
    canonical pattern, its offsets truncated to g.  The kernel returns only
    classes with g offsets and stops at the first, so it builds at most one.
    """
    check_hg(h, g)
    check_cap("subset cap", subset_cap)
    if len(target) < h:
        return Verdict(True)
    _cap_check(len(target), h, subset_cap)
    for pc in enumerate_pattern_classes(target, h, g, stop=g):
        return Verdict(False, Witness(pc.pattern, pc.bases[:g]))
    return Verdict(True)


def find_disjoint_translates(pattern: GSet, shifts, g: int):
    """Lexicographically first g shifts whose translates of ``pattern`` are
    pairwise disjoint, or None.  Translates at offsets b, c are disjoint
    exactly when b - c avoids the pattern's difference set.

    Before the search, a greedy pass covers the shifts with groups whose
    translates overlap pairwise; each group holds at most one of the g, so
    fewer than g groups means there is no answer.  Shifts with the same
    translate always join one group, so a class with fewer than g distinct
    translates, such as a periodic one, never reaches the search."""
    group = pattern.group
    diffs = {sub(group, x, y) for x in pattern for y in pattern}
    cover: list = []
    for b in shifts:
        if len(cover) == g:
            break
        for overlapping in cover:
            if all(sub(group, b, c) in diffs for c in overlapping):
                overlapping.append(b)
                break
        else:
            cover.append([b])
    if len(cover) < g:
        return None
    chosen: list = []

    def rec(start: int) -> bool:
        if len(chosen) == g:
            return True
        for i in range(start, len(shifts)):
            if len(shifts) - i < g - len(chosen):
                return False
            b = shifts[i]
            if all(sub(group, b, c) not in diffs for c in chosen):
                chosen.append(b)
                if rec(i + 1):
                    return True
                chosen.pop()
        return False

    return tuple(chosen) if rec(0) else None


def verify_weak_chg(target: GSet, h: int, g: int, subset_cap: int = DEFAULT_SUBSET_CAP) -> Verdict:
    """Exact weak-C_h[g] verdict: no class may contain g pairwise-disjoint
    translates.  Implied by the plain C_h[g] property."""
    check_hg(h, g)
    check_cap("subset cap", subset_cap)
    if len(target) < h * g:
        # g disjoint translates of an h-set need hg distinct elements
        return Verdict(True)
    _cap_check(len(target), h, subset_cap)
    # g disjoint translates are g distinct offsets, so a class needs g
    for pc in enumerate_pattern_classes(target, h, g):
        picked = find_disjoint_translates(pc.pattern, pc.bases, g)
        if picked is not None:
            return Verdict(False, Witness(pc.pattern, picked))
    return Verdict(True)


# ---------------------------------------------------------------------------
# Zarankiewicz matrix correspondence


class ZMatrix(Value):
    """The n x n 0-1 matrix with a 1 at (i, j) iff b_i + b_j lies in the
    generating set; rows are stored as integer bitmasks (bit j = column j)."""

    __slots__ = ("n", "rows", "elements", "source")


def _require_group(group) -> None:
    if isinstance(group, Interval):
        raise ParameterError("interval windows are not groups; no sum matrix")


def build_zmatrix(target: GSet, order_cap: int = DEFAULT_ORDER_CAP) -> ZMatrix:
    """Sum matrix of A in its group; every row holds exactly |A| ones."""
    group = target.group
    _require_group(group)
    check_cap("order cap", order_cap)
    n = order(group)
    if n > order_cap:
        raise ResourceCapError(f"group order {n} exceeds cap {order_cap}")
    elements = tuple(iter_elements(group))
    keys = [elem_key(group, b) for b in elements]
    column = {k: j for j, k in enumerate(keys)}
    # b + c lies in A exactly when c = a - b for some a in A
    rows = []
    for row in diff_rows(group, keys, [elem_key(group, a) for a in target.elems]):
        # distinct columns sum to a mask with |A| bits; a repeat carries and loses one
        mask = sum(map((1).__lshift__, map(column.__getitem__, row)))
        if mask.bit_count() != len(target):
            raise RuntimeError("row sum differs from |A| (broken group arithmetic)")
        rows.append(mask)
    return ZMatrix(n, tuple(rows), elements, target)


def check_kgh_params(target: GSet, h: int, g: int, subset_cap: int = DEFAULT_SUBSET_CAP) -> None:
    """Reject a K_{g,h} check on the sum matrix of ``target`` before the
    matrix is built: parameter errors first, then the column cap.  Like
    ``verify_chg`` it takes h, then g >= h, so a (g, h) call is refused."""
    check_hg(h, g)
    check_cap("subset cap", subset_cap)
    _require_group(target.group)
    n = order(target.group)
    if math.comb(n, h) * n > subset_cap:
        raise ResourceCapError(f"column enumeration exceeds cap {subset_cap}")


def check_kgh_free(zm: ZMatrix, h: int, g: int, subset_cap: int = DEFAULT_SUBSET_CAP) -> Verdict:
    """Holds iff no g x h all-ones submatrix exists (g rows, h columns).

    Walks the h-subsets of columns (h <= g makes that the cheap side)
    depth-first in lexicographic order, carrying the intersection of the
    chosen columns as a bitset, and prunes a prefix whose intersection has
    fewer than g rows: adding columns only shrinks it.  Since b + c = c + b
    the matrix is symmetric, so the rows serve as the columns.  A witness
    is the lexicographically first such column set (pattern) and its first
    g all-ones rows (bases).  That set holds column 0, the zero: a column
    set C and its translate C - min C have equally many common rows, and
    C - min C holds column 0 and sorts no later than C.  So the walk starts
    at column 0 and visits C(n - 1, h - 1) column sets, not C(n, h).
    """
    check_kgh_params(zm.source, h, g, subset_cap)
    n = zm.n
    cols = zm.rows

    def first(chosen, inter, start):
        if len(chosen) == h:
            return chosen, inter
        for j in range(start, n - h + len(chosen) + 1):
            rows = inter & cols[j]
            if rows.bit_count() >= g and (found := first(chosen + (j,), rows, j + 1)):
                return found
        return None

    found = first((0,), cols[0], 1) if cols[0].bit_count() >= g else None
    if found is None:
        return Verdict(True)
    combo, inter = found
    rows = [i for i in range(n) if inter >> i & 1][:g]
    pattern = GSet(zm.source.group, tuple(zm.elements[j] for j in combo))
    return Verdict(False, Witness(pattern, tuple(zm.elements[i] for i in rows)))

