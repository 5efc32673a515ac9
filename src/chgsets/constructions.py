"""Explicit and probabilistic C_h[g]-set constructions.

* sphere sets: solutions of x1^2 + x2^2 + x3^2 = alpha in F_p^3, with alpha
  picked so that -alpha is a non-square; these are C_3[3] with at least
  p^2 - p points.
* norm sets: norm-1 elements of F_{q^h}, read additively into Z_q^h; these
  are C_h[h!+1] with exactly (q^h - 1)/(q - 1) points.
* the carry-free digit map phi(x) = x1 + base*x2 + base^2*x3 + ... with
  base twice the digit modulus, which transports either family into an
  integer interval without disturbing any sum of two elements.
* the random sample-then-delete construction of weak C_h[g]-sets.
"""

from __future__ import annotations

import math
from itertools import product as iter_product

from .bounds import sample_density
from .errors import (
    DEFAULT_MAX_ATTEMPTS,
    DEFAULT_SUBSET_CAP,
    ParameterError,
    ResourceCapError,
    RetryExhaustedError,
    check_cap,
)
from .fields import (
    DEFAULT_FIELD_CAP,
    ext_field,
    ext_mul,
    ext_pow,
    is_prime,
    iter_field,
    norm,
    quadratic_character,
)
from .groups import (
    GSet,
    Interval,
    Product,
    elem_from_key,
    elem_key,
    enumerate_pattern_classes,
    gset,
    reduce_digits,
)
from .rng import SplitMix64, bernoulli_indices
from .verify import find_disjoint_translates, verify_weak_chg

DEFAULT_SPHERE_CAP = 2**20  # on p^3


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
    alpha = sphere_alpha(p)  # rejects p that is not an odd prime
    if p**3 > max_order:
        raise ResourceCapError(f"p^3 = {p ** 3} exceeds cap {max_order}")
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
    offsets inside the set, so it is C_h[h!+1].  The norm-1 elements are
    the cyclic subgroup H of order M = (q^h - 1)/(q - 1), and every
    step = x^(q-1) lies in H.  Steps are tried for x in ``iter_field``
    order, and each is walked by one multiplication on packed keys per
    element (``_packed_times``) until the walk returns to 1.  The first
    walk that returns after exactly M steps and meets M distinct elements
    is all of H (asserted), so no generator is needed in advance.
    """
    field = ext_field(q, h, cap=max_order)
    expected = (q**h - 1) // (q - 1)
    # the polynomial-basis coefficient vector is the additive image in Z_q^h
    group = Product(q, h)
    one = elem_key(group, field.one())
    for x in iter_field(field):
        # c * x gives the same step for every c in F_q*, so only the x whose
        # first nonzero coefficient is 1 are tried (0 never is)
        if next((c for c in x if c), 0) != 1:
            continue
        step = ext_pow(field, x, q - 1)
        if norm(field, step) != 1:
            raise RuntimeError(f"x^(q-1) has norm != 1 in F_{q}^{h} (broken modulus?)")
        times_step = _packed_times(field, group, step)
        keys, y = [one], times_step(one)
        while y != one:
            if len(keys) == expected:
                raise RuntimeError(
                    f"norm-1 walk in F_{q}^{h} did not return to 1 after {expected} steps")
            keys.append(y)
            y = times_step(y)
        if len(keys) == expected:
            if len(set(keys)) != expected:
                raise RuntimeError(f"norm-1 count {len(set(keys))} != {expected} in F_{q}^{h}")
            keys.sort()  # keys sort like their tuples (``elem_key``)
            return GSet(group, tuple(elem_from_key(group, k) for k in keys)), math.factorial(h) + 1
    raise RuntimeError(f"no step of order {expected} in F_{q}^{h} (broken modulus?)")


def _packed_times(field, group, y):
    """x -> x * y on the packed keys (``elem_key`` in ``group`` = Z_q^h) of
    coefficient vectors.  The map is F_q-linear, so x * y is the digitwise
    sum of the images of x's leading and trailing digits, each read from a
    table of at most q^ceil(h/2) products, brought back below q by
    ``reduce_digits``."""
    q, h = field.q, field.h
    tail = h // 2
    # the lowest leading digit's unit is 1 << split
    split = elem_key(group, (0,) * (h - tail - 1) + (1,) + (0,) * tail).bit_length() - 1

    def image(x):
        return elem_key(group, ext_mul(field, x, y))

    lead = {elem_key(group, x) >> split: image(x)
            for x in (v + (0,) * tail for v in iter_product(range(q), repeat=h - tail))}
    trail = {elem_key(group, x): image(x)
             for x in ((0,) * (h - tail) + v for v in iter_product(range(q), repeat=tail))}
    reduce = reduce_digits(group)
    low = (1 << split) - 1
    return lambda k: reduce([lead[k >> split] + trail[k & low]])[0]


def freiman_embed(xs: GSet) -> GSet:
    """Digit map x -> x1 + base*x2 + ... + base^(d-1)*xd into an interval,
    with base 2q for the modulus q of the set's group.

    With base 2q adding two images never carries; that makes the map
    transport all two-element sums faithfully in both directions.  The
    image window is exactly large enough for the digit range.
    """
    if not isinstance(xs.group, Product):
        raise ParameterError("freiman_embed expects a product-group set")
    m, d = xs.group.q, xs.group.d
    base = 2 * m
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


def embedded_c33(n: int, p: int | None = None) -> GSet:
    """A C_3[3]-set inside the integer window of size n.

    Takes the sphere set for the odd prime p, by default the largest with
    4p^3 <= n, and maps it through the carry-free digit map with base 2p;
    all values stay below 4p^3 <= n, and the size is at least p^2 - p.
    """
    if p is None:
        if n < 108:
            raise ParameterError(f"need n >= 108 (so p = 3 fits), got {n}")
        p = largest_prime_cube_fit(n)
    elif 4 * p**3 > n:
        raise ParameterError(f"4*{p}^3 does not fit window {n}")
    image = freiman_embed(sphere_set(p))
    result = rewindow(image, n)
    if len(result) < p * p - p:
        raise RuntimeError("embedded sphere lost elements (impossible)")
    return result


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
            if find_disjoint_translates(pc.pattern, cands, g - 1):
                bad.add(m)
    return gset(sample.group, sorted(bad))


def _most_under_cap(h: int, subset_cap: int) -> int:
    """The largest m with C(m, h) <= subset_cap, for subset_cap >= 1."""
    lo, hi = h, 2 * h  # C(lo, h) <= subset_cap < C(hi, h) once the doubling stops
    while math.comb(hi, h) <= subset_cap:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if math.comb(mid, h) <= subset_cap else (lo, mid)
    return lo


def weak_random_set(
    n: int,
    h: int,
    g: int,
    seed: int,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    subset_cap: int = DEFAULT_SUBSET_CAP,
):
    """Sample-then-delete construction of a weak C_h[g]-set in a window of
    size n.

    Each attempt samples S by including every element independently with
    the density p from ``sample_density`` (geometric skips between kept
    elements, about np draws), removes the bad elements, and accepts when
    |S| >= np/2 and |bad| <= np/4 (so the survivor count exceeds np/4).
    Attempt k samples from a child stream seeded by the master stream's
    k-th output, drawn as the attempt starts, so results are independent of
    scheduling and of ``max_attempts``.  ``subset_cap`` bounds C(|S|, h) of
    every sample, and so also the self-check of the survivors: the sampler
    stops at the first element past the largest size the cap admits, so a
    refused sample is never drawn in full.  Returns (set, attempts_used,
    (|S|, |bad|, |result|)) after verifying the set; raises
    RetryExhaustedError with per-attempt statistics if no attempt is
    accepted.
    """
    if max_attempts < 1:
        raise ParameterError(f"max_attempts must be >= 1, got {max_attempts}")
    check_cap("subset cap", subset_cap)
    p, np_target = sample_density(n, h, g)
    most = _most_under_cap(h, subset_cap)
    master = SplitMix64(seed)
    failures = []
    for attempt in range(max_attempts):
        stream = SplitMix64(master.next_uint64())
        sample = gset(Interval(n), bernoulli_indices(stream, n, p, stop=most + 1))
        if len(sample) > most:
            raise ResourceCapError(
                f"at least {math.comb(most + 1, h)} subsets of size {h} exceed cap {subset_cap}"
            )
        bad = detect_bad(sample, h, g)
        if len(sample) >= np_target / 2 and len(bad) <= np_target / 4:
            survivors = gset(Interval(n), sorted(set(sample.elems) - set(bad.elems)))
            verdict = verify_weak_chg(survivors, h, g, subset_cap=subset_cap)
            if not verdict.holds:
                raise RuntimeError("deletion left a weak violation (impossible)")
            return survivors, attempt + 1, (len(sample), len(bad), len(survivors))
        failures.append((attempt + 1, len(sample), len(bad)))
    raise RetryExhaustedError(
        f"all {max_attempts} attempts failed the acceptance inequalities", failures
    )
