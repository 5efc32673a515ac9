"""Exact decision procedures for the C_h[g] and weak C_h[g] properties.

A set A is C_h[g] exactly when no translation class of h-subsets of A
admits g distinct offsets (pattern + k inside A for g different k); the
weak variant additionally requires the g translates to be pairwise
disjoint.  Both verdicts read the classes from the one class kernel,
``groups.enumerate_pattern_classes``, asking only for classes with enough
member subsets to matter.  The subset cap bounds C(|A|, h) before any
work, so a verdict is either exact or a ``ResourceCapError``, never
approximate; a cap below 1 is a ``ParameterError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

from .errors import ParameterError, ResourceCapError, check_cap, check_hg
from .groups import (
    Cyclic,
    GSet,
    Interval,
    _gset_unchecked,
    elem_key,
    enumerate_pattern_classes,
    gset,
    iter_elements,
    order,
    stabilizer_bound,
    sub,
)

DEFAULT_SUBSET_CAP = 10**8
DEFAULT_ORDER_CAP = 512


@dataclass(frozen=True)
class Witness:
    """A concrete violation: pattern plus g offsets whose translates all
    land inside the verified set (pairwise disjoint for the weak check)."""

    pattern: GSet
    bases: tuple


@dataclass(frozen=True)
class Verdict:
    holds: bool
    witness: Witness | None = None


def _cap_check(size: int, h: int, subset_cap: int) -> None:
    if math.comb(size, h) > subset_cap:
        raise ResourceCapError(
            f"{math.comb(size, h)} subsets of size {h} exceed cap {subset_cap}"
        )


def verify_chg(target: GSet, h: int, g: int, subset_cap: int = DEFAULT_SUBSET_CAP) -> Verdict:
    """Exact C_h[g] verdict for ``target`` in its ambient space.

    Interval sets are verified in Z (all integer translates considered).
    On failure the witness is the violating class with the smallest
    canonical pattern, its offsets truncated to g.  A member subset gives
    at most ``stabilizer_bound`` offsets, so classes with fewer than
    ceil(g / bound) members are never collected.
    """
    check_hg(h, g)
    check_cap("subset cap", subset_cap)
    if len(target) < h:
        return Verdict(True)
    _cap_check(len(target), h, subset_cap)
    min_members = -(-g // stabilizer_bound(target.group, h))
    for pc in enumerate_pattern_classes(target, h, min_members):
        if len(pc.bases) >= g:
            return Verdict(False, Witness(pc.pattern, pc.bases[:g]))
    return Verdict(True)


def find_disjoint_translates(group, pattern, shifts, g: int):
    """Lexicographically first g shifts whose pattern-translates are pairwise
    disjoint, or None.  Translates at offsets b, c are disjoint exactly when
    b - c avoids the pattern's difference set."""
    diffs = {sub(group, x, y) for x in pattern for y in pattern}
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
    # disjoint translates are distinct member subsets, so a class needs g
    for pc in enumerate_pattern_classes(target, h, g):
        picked = find_disjoint_translates(target.group, pc.pattern.elems, pc.bases, g)
        if picked is not None:
            return Verdict(False, Witness(pc.pattern, picked))
    return Verdict(True)


# ---------------------------------------------------------------------------
# Zarankiewicz matrix correspondence


@dataclass(frozen=True)
class ZMatrix:
    """The n x n 0-1 matrix with a 1 at (i, j) iff b_i + b_j lies in the
    generating set; rows are stored as integer bitmasks (bit j = column j)."""

    n: int
    rows: tuple
    elements: tuple
    source: GSet


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
    rows = []
    for b in elements:
        # b + c lies in A exactly when c = a - b for some a in A, and the
        # column of c is its element key
        mask = 0
        for a in target.elems:
            mask |= 1 << elem_key(group, sub(group, a, b))
        if mask.bit_count() != len(target):
            raise RuntimeError("row sum differs from |A| (broken group arithmetic)")
        rows.append(mask)
    return ZMatrix(n, tuple(rows), elements, target)


def check_kgh_params(group, g: int, h: int, subset_cap: int = DEFAULT_SUBSET_CAP) -> None:
    """Reject a K_{g,h} check on the sum matrix of ``group`` before the
    matrix is built: parameter errors first, then the column cap."""
    check_hg(h, g)
    check_cap("subset cap", subset_cap)
    _require_group(group)
    n = order(group)
    if math.comb(n, h) * n > subset_cap:
        raise ResourceCapError(f"column enumeration exceeds cap {subset_cap}")


def check_kgh_free(zm: ZMatrix, g: int, h: int, subset_cap: int = DEFAULT_SUBSET_CAP) -> Verdict:
    """Holds iff no g x h all-ones submatrix exists (g rows, h columns).

    Enumerates h-subsets of columns (h <= g makes that the cheap side) and
    counts all-ones rows by bitset intersection.  Since b + c = c + b the
    matrix is symmetric, so the rows serve as the columns.  A witness is
    reported as the column elements (pattern) and the first g row elements
    (bases).
    """
    check_kgh_params(zm.source.group, g, h, subset_cap)
    n = zm.n
    cols = zm.rows
    for combo in combinations(range(n), h):
        inter = cols[combo[0]]
        for j in combo[1:]:
            inter &= cols[j]
            if inter.bit_count() < g:
                break
        if inter.bit_count() >= g:
            rows = [i for i in range(n) if inter >> i & 1][:g]
            pattern = _gset_unchecked(zm.source.group, tuple(zm.elements[j] for j in combo))
            bases = tuple(zm.elements[i] for i in rows)
            return Verdict(False, Witness(pattern, bases))
    return Verdict(True)


def interval_to_cyclic(target: GSet) -> GSet:
    """Read an interval set A of window size n into Z_{2n}, via its 1-based
    values.  A C_h[g]-set in Z stays one here; that implication is tested
    empirically, never assumed by any verdict path."""
    if not isinstance(target.group, Interval):
        raise ParameterError("interval_to_cyclic needs an interval set")
    n = target.group.n
    return gset(Cyclic(2 * n), [(a + 1) % (2 * n) for a in target.elems])
