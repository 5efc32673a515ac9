"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Every tolerance is written out explicitly next to its
assertion.
"""

import math
import time

from chgsets import (
    Interval,
    SplitMix64,
    build_zmatrix,
    check_kgh_free,
    detect_bad,
    embedded_c33,
    freiman_embed,
    group_bound,
    gset,
    max_table,
    norm_set,
    sample_density,
    sphere_set,
    verify_chg,
    verify_weak_chg,
    weak_lower_bound,
    weak_random_set,
    zarankiewicz_bound,
    counting_ratio,
)
from oracles import brute_force_max, naive_bad_elements, naive_is_chg_interval


def _announce(number, label, started):
    print(f"ACCEPTANCE {number} ({label}): PASS [{time.time() - started:.1f}s]")


def test_criterion_01_sphere_construction():
    started = time.time()
    for p in (3, 5, 7, 11, 13):
        s = sphere_set(p)
        assert len(s) >= p * p - p
        assert verify_chg(s, 3, 3).holds
    assert len(sphere_set(3)) == 6  # exact count over the 27 triples
    _announce(1, "sphere construction", started)


def test_criterion_02_embedded_pipeline():
    started = time.time()
    a = embedded_c33(500)
    assert a.group == Interval(500)
    assert len(a) >= 20
    assert verify_chg(a, 3, 3).holds
    ratio = len(a) / (500 / 4) ** (2 / 3)
    assert ratio >= 0.8 - 1e-9  # exact count 20 over exactly 25
    _announce(2, "embedded pipeline", started)


def test_criterion_03_norm_construction():
    started = time.time()
    for q, h in ((2, 2), (3, 2), (5, 2), (2, 3), (3, 3)):
        a, guarantee = norm_set(q, h)
        assert guarantee == math.factorial(h) + 1
        assert len(a) == (q**h - 1) // (q - 1)
        assert verify_chg(a, h, guarantee).holds
    _announce(3, "norm construction", started)


def test_criterion_04_digit_map_transfer():
    started = time.time()
    rng = SplitMix64(41)
    for p, d in ((3, 2), (5, 3), (7, 3)):
        base = 2 * p
        weights = [base**i for i in range(d)]
        violations = 0
        for _ in range(100_000):
            quad = [
                tuple(rng.next_uint64() % p for _ in range(d)) for _ in range(4)
            ]
            phi = [sum(c * w for c, w in zip(x, weights)) for x in quad]
            int_sums_equal = tuple(a + b for a, b in zip(quad[0], quad[1])) == tuple(
                a + b for a, b in zip(quad[2], quad[3])
            )
            if int_sums_equal != (phi[0] + phi[1] == phi[2] + phi[3]):
                violations += 1
        assert violations == 0
    # embedded sets re-pass full verification in Z
    for p in (3, 5, 7, 11, 13):
        image = freiman_embed(sphere_set(p))
        assert verify_chg(image, 3, 3).holds
    for q, h in ((2, 2), (3, 2), (5, 2), (2, 3), (3, 3)):
        a, guarantee = norm_set(q, h)
        image = freiman_embed(a)
        assert verify_chg(image, h, guarantee).holds
    _announce(4, "digit map transfer", started)


def test_criterion_05_verifier_oracle_equivalence():
    started = time.time()
    disagreements = 0
    for mask in range(1, 1 << 12):
        elems = [i for i in range(12) if mask >> i & 1]
        a = gset(Interval(12), elems)
        for h, g in ((2, 2), (2, 3), (3, 3)):
            if verify_chg(a, h, g).holds != naive_is_chg_interval(elems, h, g):
                disagreements += 1
    rng = SplitMix64(5)
    for _ in range(1000):
        size = 1 + rng.next_uint64() % 25
        pool = list(range(25))
        elems = []
        for _ in range(size):
            elems.append(pool.pop(rng.next_uint64() % len(pool)))
        elems.sort()
        a = gset(Interval(25), elems)
        for h, g in ((2, 2), (2, 3), (3, 3)):
            if verify_chg(a, h, g).holds != naive_is_chg_interval(elems, h, g):
                disagreements += 1
    assert disagreements == 0
    _announce(5, "verifier oracle equivalence", started)


def test_criterion_06_exact_search():
    started = time.time()
    table = max_table(25, 2, 2)
    sizes = [r.best_size for r in table]
    assert sizes[6] == 4  # window of 7
    assert sizes[11] == 5  # window of 12
    for r in table:
        assert r.optimal
        assert r.best_size == brute_force_max(r.n, 2, 2)
        assert r.best_size <= group_bound(2 * r.n, 2, 2)
    for a, b in zip(sizes, sizes[1:]):
        assert a <= b <= a + 1
    table3 = max_table(18, 3, 3)
    for r in table3:
        assert r.optimal
        assert r.best_size <= group_bound(2 * r.n, 3, 3)
    _announce(6, "exact search", started)


def test_criterion_07_probabilistic_construction():
    started = time.time()
    n = 100_000
    _, np_val = sample_density(n, 2, 2)
    successes = 0
    for seed in range(1, 21):
        try:
            result, attempts, (s_size, bad_size, out_size) = weak_random_set(
                n, 2, 2, seed=seed, max_attempts=64
            )
        except Exception:
            continue
        assert attempts <= 64
        assert out_size > np_val / 4  # about 5.8 here
        assert verify_weak_chg(result, 2, 2).holds
        successes += 1
    assert successes >= 18

    rng = SplitMix64(2024)
    for _ in range(200):
        density = 0.15 + 0.35 * rng.uniform()
        elems = [i for i in range(40) if rng.uniform() < density] or [0]
        s = gset(Interval(40), elems)
        for h, g in ((2, 2), (2, 3), (3, 2)):
            assert list(detect_bad(s, h, g).elems) == naive_bad_elements(elems, h, g)
    _announce(7, "probabilistic construction", started)


def test_criterion_08_zarankiewicz_correspondence():
    started = time.time()
    a, _ = norm_set(3, 2)
    zm = build_zmatrix(a)
    row_sums = {row.bit_count() for row in zm.rows}
    assert row_sums == {4}
    ones = sum(row.bit_count() for row in zm.rows)
    assert ones == 36  # n * |A|, the witness for the matrix inequality
    assert check_kgh_free(zm, 2, 3).holds
    assert ones <= zarankiewicz_bound(9, 9, 3, 2)
    assert abs(zarankiewicz_bound(9, 9, 3, 2) - 63.0) <= 1e-9
    _announce(8, "zarankiewicz correspondence", started)


def test_criterion_09_bound_formulas():
    started = time.time()
    assert abs(group_bound(125, 3, 3) - 43.0) <= 1e-9
    assert abs(zarankiewicz_bound(9, 9, 3, 2) - 63.0) <= 1e-9
    assert abs(sample_density(10**6, 2, 2)[1] - 50.0) <= 1e-9
    assert abs(weak_lower_bound(10**6, 2, 2) - 12.5) <= 1e-9
    # defining-equation residual on a 50-point grid
    points = 0
    for h in (2, 3, 4, 5):
        for g in range(h, h + 4):
            for n in (100, 10_000, 250_000, 10**6):
                if points >= 50:
                    break
                p, _ = sample_density(n, h, g)
                lhs = 2 * p * n
                rhs = n ** (g + h - 1) * (2 * p) ** (h * g)
                assert abs(lhs - rhs) <= 1e-9 * max(lhs, rhs)
                points += 1
    assert points == 50
    _announce(9, "bound formulas", started)


def test_criterion_10_asymptotics_out_of_scope():
    started = time.time()
    # The o(1) and liminf statements have no finite-size reproduction; the
    # finite evidence is the bound-respect assertions above plus these
    # diagnostic ratios, which are reported without any asymptotic verdict.
    counts = []
    for n in (108, 500, 5488):
        counts.append((n, len(embedded_c33(n))))
    ratios = counting_ratio(counts, 3)
    assert len(ratios) == 3
    assert all(math.isfinite(r) and r > 0 for _, r in ratios)
    _announce(10, "asymptotics exclusion documented", started)
