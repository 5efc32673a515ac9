"""Closed-form size bounds used as assertions and report columns.

Nothing here proves anything asymptotic: these are finite-size evaluations
of the bound expressions, used to sanity-check every constructed or
searched set and to populate reports.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .errors import ParameterError, check_hg


def main_term_bound(n: int, h: int, g: int) -> float:
    """Main term (g-1)^(1/h) * n^(1-1/h) of the interval upper bound.

    Pure arithmetic, defined for any h, g >= 2 (the g >= h convention is
    not needed to evaluate it).  The lower-order error term has no explicit
    constant, so it is never evaluated numerically; see
    ``main_term_error_order``.
    """
    if h < 2 or g < 2:
        raise ParameterError(f"need h >= 2 and g >= 2, got h={h}, g={g}")
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    return (g - 1) ** (1.0 / h) * n ** (1.0 - 1.0 / h)


def main_term_error_order(h: int) -> str:
    """Order of the neglected error term, reported symbolically."""
    return f"O(n^{0.5 - 0.5 / h:g})"


def zarankiewicz_bound(m: int, n: int, s: int, t: int) -> float:
    """Upper bound on z(m,n,s,t): most ones in an m x n 0-1 matrix with no
    s x t all-ones submatrix."""
    if not (m >= s >= t >= 1):
        raise ParameterError(f"need m >= s >= t >= 1, got m={m}, s={s}, t={t}")
    if n < t:
        raise ParameterError(f"need n >= t, got n={n}, t={t}")
    return math.sqrt(s - t) * n * m ** (1.0 - 1.0 / t) + t * m ** (2.0 - 2.0 / t) + t * n


def group_bound(n: int, h: int, g: int) -> float:
    """Size bound for a C_h[g]-set in a finite abelian group of order n."""
    check_hg(h, g)
    return (g - h + 1) ** (1.0 / h) * n ** (1.0 - 1.0 / h) + h * n ** (1.0 - 2.0 / h) + h


def _weak_exponent(h: int, g: int) -> float:
    # (1 - 1/h)(1 - 1/g)(1 + 1/(hg-1)) simplifies to (h-1)(g-1)/(hg-1)
    return (h - 1) * (g - 1) / (h * g - 1)


def sample_density(n: int, h: int, g: int) -> tuple:
    """Density for the random weak-set construction.

    Returns (p, np) where p solves 2pn = n^(g+h-1) (2p)^(hg); the closed
    form is np = n^((h-1)(g-1)/(hg-1)) / 2.  The defining equation is
    re-checked to relative 1e-9 on every call.
    """
    check_hg(h, g)
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    np_val = 0.5 * n ** _weak_exponent(h, g)
    p = np_val / n
    if p > 1.0:
        raise ParameterError(f"n={n} too small for (h,g)=({h},{g}): density {p} > 1")
    lhs = 2.0 * p * n
    rhs = math.exp((g + h - 1) * math.log(n) + h * g * math.log(2.0 * p))
    if abs(lhs - rhs) > 1e-9 * max(abs(lhs), abs(rhs)):
        raise RuntimeError(f"density equation residual too large: {lhs} vs {rhs}")
    return p, np_val


def weak_lower_bound(n: int, h: int, g: int) -> float:
    """Guaranteed weak-set size n^((h-1)(g-1)/(hg-1)) / 8; equals np/4."""
    check_hg(h, g)
    return 0.125 * n ** _weak_exponent(h, g)


def counting_ratio(counts, h: int) -> list:
    """Diagnostic ratios A(n) (ln n)^(1/h) / n^(1-1/h) for a counting function.

    Input is a list of (n, A_n) pairs with A_n nondecreasing; points with
    n < 2 are skipped with a warning (the log factor degenerates there).
    No asymptotic verdict is drawn from these numbers.
    """
    if h < 2:
        raise ParameterError(f"h must be >= 2, got {h}")
    last = None
    for n, a_n in counts:
        if last is not None and a_n < last:
            raise ParameterError("counting function must be nondecreasing")
        last = a_n
    out = []
    for n, a_n in counts:
        if n < 2:
            warnings.warn(f"skipping n={n}: ratio undefined for n < 2")
            continue
        out.append((n, a_n * math.log(n) ** (1.0 / h) / n ** (1.0 - 1.0 / h)))
    return out


@dataclass(frozen=True)
class BoundReport:
    """All bound columns for one (n, h, g), plus the optional matrix bound."""

    n: int
    h: int
    g: int
    main_term: float
    main_term_error_order: str
    group: float
    weak_lower: float
    density_p: float
    density_np: float
    zarankiewicz: float | None = None

    @classmethod
    def compute(cls, n, h, g, m=None, s=None, t=None) -> "BoundReport":
        p, np_val = sample_density(n, h, g)
        zb = None
        if m is not None or s is not None or t is not None:
            if m is None or s is None or t is None:
                raise ParameterError("matrix bound needs all of m, s, t")
            zb = zarankiewicz_bound(m, n, s, t)
        return cls(
            n=n,
            h=h,
            g=g,
            main_term=main_term_bound(n, h, g),
            main_term_error_order=main_term_error_order(h),
            group=group_bound(n, h, g),
            weak_lower=weak_lower_bound(n, h, g),
            density_p=p,
            density_np=np_val,
            zarankiewicz=zb,
        )
