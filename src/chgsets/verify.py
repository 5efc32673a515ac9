"""Exact verdicts: C_h[g], weak C_h[g], and K_{g,h}-free sum matrices.

A set A is C_h[g] exactly when no translation class of h-subsets of A
admits g distinct offsets (pattern + k inside A for g different k); the
weak variant additionally requires the g translates to be pairwise
disjoint.  Rows R and columns C of A's sum matrix form a g x h all-ones
block exactly when C + r lies inside A for every r in R, so the matrix is
K_{g,h}-free exactly when A is C_h[g].  All three verdicts read the
classes from the one class kernel, ``groups.enumerate_pattern_classes``,
asking only for classes with at least g offsets.  The subset cap bounds
C(|A|, h) before any work, so a verdict is either exact or a
``ResourceCapError``, never approximate; a cap below 1 is a
``ParameterError``.
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
    # backtrack by a loop over the picked indices, so g sets no depth limit
    picked: list = []
    i = 0
    while len(picked) < g:
        if len(shifts) - i < g - len(picked):
            if not picked:
                return None
            i = picked.pop() + 1
            continue
        if all(sub(group, shifts[i], shifts[j]) not in diffs for j in picked):
            picked.append(i)
        i += 1
    return tuple(shifts[j] for j in picked)


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
    ``verify_chg`` it takes h, then g >= h, so a (g, h) call is refused.

    The cap C(n, h)·n, n = |G|, bounds no work that the check does.  It
    stays because ``perfbench/workloads.py`` runs ``zmatrix --set sphere7
    --g 3 --h 3`` and expects the exit 3 it gives.
    """
    check_hg(h, g)
    check_cap("subset cap", subset_cap)
    _require_group(target.group)
    n = order(target.group)
    if math.comb(n, h) * n > subset_cap:
        raise ResourceCapError(f"column enumeration exceeds cap {subset_cap}")


def check_kgh_free(zm: ZMatrix, h: int, g: int, subset_cap: int = DEFAULT_SUBSET_CAP) -> Verdict:
    """Holds iff no g x h all-ones submatrix exists (g rows, h columns).

    Rows R and columns C form such a block exactly when C + r lies in the
    set for every r in R, so this is the C_h[g] verdict of the matrix's
    source set, after the refusals of ``check_kgh_params``.  A witness is
    the lexicographically first such column set (pattern) and its first g
    all-ones rows (bases): the set's smallest violating class, which holds
    the zero column, and its first g offsets.

    It keeps its name and its argument names, though it needs only the
    set: ``perfbench/tracing.py`` wraps ``cli.check_kgh_free`` and reads
    its ``zm`` and ``h`` arguments.
    """
    check_kgh_params(zm.source, h, g, subset_cap)
    return verify_chg(zm.source, h, g, subset_cap)
