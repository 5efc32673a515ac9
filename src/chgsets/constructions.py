"""Explicit and probabilistic C_h[g]-set constructions.

* sphere sets: solutions of x1^2 + x2^2 + x3^2 = alpha in F_p^3, with alpha
  picked so that -alpha is a non-square; these are C_3[3] with at least
  p^2 - p points.
* norm sets: norm-1 elements of F_{q^h}, read additively into Z_q^h; these
  are C_h[h!+1] with exactly (q^h - 1)/(q - 1) points.
* the carry-free digit map phi(x) = x1 + base*x2 + base^2*x3 + ... with
  base >= twice the digit modulus, which transports either family into an
  integer interval without disturbing any sum of two elements.
* a classic quadratic Sidon baseline for h = 2 sanity checks.
* the random sample-then-delete construction of weak C_h[g]-sets.
"""

from __future__ import annotations

import math

from .bounds import sample_density
from .errors import ParameterError, ResourceCapError, RetryExhaustedError
from .fields import DEFAULT_FIELD_CAP, ext_field, is_prime, iter_field, norm, quadratic_character
from .groups import GSet, Interval, Product, enumerate_pattern_classes, gset
from .rng import SplitMix64
from .verify import find_disjoint_translates, verify_weak_chg

DEFAULT_SPHERE_CAP = 2**20  # on p^3
DEFAULT_MAX_ATTEMPTS = 64


def sphere_alpha(p: int) -> int:
    """Right-hand side for the sphere equation: the smallest positive
    non-residue when p = 1 (mod 4), the smallest positive residue (always 1)
    otherwise.  Either way -alpha is a non-square, which keeps the sphere
    large and free of the zero vector."""
    if p == 2 or not is_prime(p):
        raise ParameterError(f"need an odd prime, got {p}")
    want = -1 if p % 4 == 1 else 1
    for a in range(1, p):
        if quadratic_character(p, a) == want:
            return a
    raise RuntimeError("no qualifying residue found (impossible for odd p)")


def sphere_set(p: int, max_order: int = DEFAULT_SPHERE_CAP) -> GSet:
    """All (x1, x2, x3) in F_p^3 with x1^2 + x2^2 + x3^2 = alpha.

    Exact enumeration via a square-root table; the result always has at
    least p^2 - p points (asserted).
    """
    if p == 2 or not is_prime(p):
        raise ParameterError(f"need an odd prime, got {p}")
    if p**3 > max_order:
        raise ResourceCapError(f"p^3 = {p ** 3} exceeds cap {max_order}")
    alpha = sphere_alpha(p)
    roots: dict = {}
    for x in range(p):
        roots.setdefault(x * x % p, []).append(x)
    elems = []
    for x1 in range(p):
        s1 = x1 * x1 % p
        for x2 in range(p):
            t = (alpha - s1 - x2 * x2) % p
            for x3 in roots.get(t, ()):
                elems.append((x1, x2, x3))
    result = gset(Product(p, 3), elems)
    if len(result) < p * p - p:
        raise RuntimeError(f"sphere mod {p} came out too small: {len(result)}")
    return result


def norm_set(q: int, h: int, max_order: int = DEFAULT_FIELD_CAP):
    """Norm-1 elements of F_{q^h} as a subset of Z_q^h.

    Returns (set, g) with g = h! + 1: no h-pattern admits more than h!
    offsets inside the set, so it is C_h[h!+1].  The size is exactly
    (q^h - 1)/(q - 1) (asserted).
    """
    field = ext_field(q, h, cap=max_order)
    # the polynomial-basis coefficient vector is the additive image in Z_q^h
    elems = [x for x in iter_field(field) if norm(field, x) == 1]
    result = gset(Product(q, h), elems)
    expected = (q**h - 1) // (q - 1)
    if len(result) != expected:
        raise RuntimeError(f"norm-1 count {len(result)} != {expected} in F_{q}^{h}")
    return result, math.factorial(h) + 1


def freiman_embed(base: int, xs: GSet) -> GSet:
    """Digit map x -> x1 + base*x2 + ... + base^(d-1)*xd into an interval.

    Requires base >= 2 * modulus so that adding two images never carries;
    that makes the map transport all two-element sums faithfully in both
    directions.  The image window is exactly large enough for the digit
    range.
    """
    if not isinstance(xs.group, Product):
        raise ParameterError("freiman_embed expects a product-group set")
    m, d = xs.group.q, xs.group.d
    if base < 2 * m:
        raise ParameterError(f"base {base} < 2*{m}: digit sums would carry")
    weights = [base**i for i in range(d)]
    values = [sum(c * w for c, w in zip(x, weights)) for x in xs.elems]
    if len(set(values)) != len(values):
        raise RuntimeError("digit map collided (impossible for base >= modulus)")
    window = (m - 1) * sum(weights) + 1
    return gset(Interval(window), values)


def rewindow(xs: GSet, n: int) -> GSet:
    """The same interval set inside a window of size n (must fit)."""
    if not isinstance(xs.group, Interval):
        raise ParameterError("rewindow expects an interval set")
    if xs.elems and xs.elems[-1] >= n:
        raise ParameterError(f"element {xs.elems[-1]} does not fit window {n}")
    return GSet(Interval(n), xs.elems)


def largest_prime_cube_fit(n: int) -> int:
    """Largest odd prime p with 4 p^3 <= n, by downward search."""
    p = round((n / 4) ** (1 / 3)) + 2
    while p >= 3:
        if 4 * p**3 <= n and is_prime(p):
            return p
        p -= 1
    raise ParameterError(f"no odd prime p with 4p^3 <= {n} (need n >= 108)")


def embedded_c33(n: int) -> GSet:
    """A C_3[3]-set inside the integer window of size n.

    Takes the sphere set for the largest odd prime with 4p^3 <= n and maps
    it through the carry-free digit map with base 2p; all values stay below
    4p^3 <= n, and the size is at least p^2 - p.
    """
    if n < 108:
        raise ParameterError(f"need n >= 108 (so p = 3 fits), got {n}")
    p = largest_prime_cube_fit(n)
    image = freiman_embed(2 * p, sphere_set(p))
    result = rewindow(image, n)
    if len(result) < p * p - p:
        raise RuntimeError("embedded sphere lost elements (impossible)")
    return result


def sidon_baseline(p: int) -> GSet:
    """The p-point quadratic Sidon set {2pi + (i^2 mod p)} in a window of
    size 2p^2 -- a C_2[2] baseline for h = 2 sanity checks."""
    if not is_prime(p):
        raise ParameterError(f"need a prime, got {p}")
    return gset(Interval(2 * p * p), [2 * p * i + (i * i) % p for i in range(p)])


# ---------------------------------------------------------------------------
# probabilistic construction


def detect_bad(sample: GSet, h: int, g: int) -> GSet:
    """The exact set of elements completing a forbidden configuration.

    m is bad when some h-pattern has g pairwise-disjoint translates inside
    the sample whose largest offset is m (disjoint translates = the g*h
    sums are all distinct).  Removing every bad element destroys every such
    configuration, because each configuration marks its own largest offset.
    """
    if not isinstance(sample.group, Interval):
        raise ParameterError("detect_bad expects an interval set")
    if h < 2 or g < 2:
        # unlike the verifiers, the bad-element definition does not need
        # the g >= h convention, and checks with g < h are meaningful
        raise ParameterError(f"need h >= 2 and g >= 2, got h={h}, g={g}")
    if len(sample) < g * h:
        return gset(sample.group, [])
    bad: set = set()
    for pc in enumerate_pattern_classes(sample, h, g):
        bases = pc.bases
        diffs = {x - y for x in pc.pattern.elems for y in pc.pattern.elems}
        for idx in range(g - 1, len(bases)):
            m = bases[idx]
            if m in bad:
                continue
            cands = [b for b in bases[:idx] if (m - b) not in diffs]
            if find_disjoint_translates(sample.group, pc.pattern.elems, cands, g - 1):
                bad.add(m)
    return gset(sample.group, sorted(bad))


def weak_random_set(
    n: int,
    h: int,
    g: int,
    seed: int,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
):
    """Sample-then-delete construction of a weak C_h[g]-set in a window of
    size n.

    Each attempt samples S by including every element independently with
    the density from ``sample_density``, removes the bad elements, and
    accepts when |S| >= np/2 and |bad| <= np/4 (so the survivor count
    exceeds np/4).  One child stream per attempt keeps results independent
    of scheduling.  Returns (set, attempts_used, (|S|, |bad|, |result|));
    raises RetryExhaustedError with per-attempt statistics if no attempt
    is accepted.
    """
    if max_attempts < 1:
        raise ParameterError(f"max_attempts must be >= 1, got {max_attempts}")
    p, np_target = sample_density(n, h, g)
    master = SplitMix64(seed)
    attempt_seeds = [master.next_uint64() for _ in range(max_attempts)]
    failures = []
    for attempt, child_seed in enumerate(attempt_seeds):
        stream = SplitMix64(child_seed)
        sample = gset(Interval(n), [i for i in range(n) if stream.uniform() < p])
        bad = detect_bad(sample, h, g)
        if len(sample) >= np_target / 2 and len(bad) <= np_target / 4:
            survivors = gset(Interval(n), sorted(set(sample.elems) - set(bad.elems)))
            verdict = verify_weak_chg(survivors, h, g)
            if not verdict.holds:
                raise RuntimeError("deletion left a weak violation (impossible)")
            return survivors, attempt + 1, (len(sample), len(bad), len(survivors))
        failures.append((attempt + 1, len(sample), len(bad)))
    raise RetryExhaustedError(
        f"all {max_attempts} attempts failed the acceptance inequalities", failures
    )
