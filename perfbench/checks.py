"""Output checks for the benchmark, on meaning rather than bytes.

Each check reads one CLI report and compares the exit code, the verdict and
the set size against closed forms, re-checks violation witnesses by set
containment, and compares search tables against known maxima.  Random weak
sets are checked against the acceptance inequalities, not exact sizes, so a
sampler change does not read as a failure.  ``params`` (whose ``--threads``
default is the CPU count), ``elapsed_ms`` and ``versions`` are ignored.

Set files are read and written here without the package, so a check never
trusts the code it measures.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from itertools import combinations

# Optimal Golomb ruler lengths for m = 1..12 marks: a Sidon set of m elements
# fits the window {1..n} exactly when n - 1 >= length(m).
GOLOMB_LENGTHS = (0, 1, 3, 6, 11, 17, 25, 34, 44, 55, 72, 85)

# Maximum C_3[3]-set sizes in {1..n}, n = 1..22, from the exact search; the
# test suite checks them against brute force for n <= 12.
C33_MAXIMA = (1, 2, 3, 4, 4, 5, 6, 6, 7, 7, 8, 8, 8, 9, 9, 10, 10, 10, 11, 11, 11, 12)


class CheckFailed(Exception):
    pass


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def sidon_maximum(n: int) -> int:
    return max(m for m, length in enumerate(GOLOMB_LENGTHS, 1) if length <= n - 1)


def search_reference(h: int, g: int, n_max: int) -> list:
    if (h, g) == (2, 2) and n_max < GOLOMB_LENGTHS[-1] + 1:
        return [sidon_maximum(n) for n in range(1, n_max + 1)]
    if (h, g) == (3, 3) and n_max <= len(C33_MAXIMA):
        return list(C33_MAXIMA[:n_max])
    raise ValueError(f"no pinned search reference for h={h}, g={g}, n_max={n_max}")


# ---------------------------------------------------------------------------
# set files and group arithmetic (interval elements stay 1-based, as printed)


def parse_group(text: str) -> tuple:
    kind, _, rest = text.partition(":")
    if kind == "product":
        q, _, d = rest.partition("^")
        return ("product", int(q), int(d))
    if kind in ("cyclic", "interval"):
        return (kind, int(rest))
    raise ValueError(f"unknown group {text!r}")


def parse_elem(group: str, text: str):
    if group.startswith("product:"):
        return tuple(int(c) for c in text.split(","))
    return int(text)


def read_set_file(path) -> tuple:
    """(group descriptor, sorted elements) of a set file."""
    group = None
    elems = []
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if line.startswith("# group="):
                group = line[len("# group="):]
            elif line and not line.startswith("#"):
                elems.append(parse_elem(group, line))
    if group is None:
        raise CheckFailed(f"{path}: no group header")
    return group, elems


def write_set_file(path, group: str, elems) -> None:
    lines = [f"# group={group}"]
    for e in sorted(elems):
        lines.append(",".join(map(str, e)) if isinstance(e, tuple) else str(e))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _as_elem(x):
    return tuple(x) if isinstance(x, list) else x


def shifted(group: str, x, k):
    kind = parse_group(group)
    if kind[0] == "product":
        return tuple((a + b) % kind[1] for a, b in zip(x, k))
    if kind[0] == "cyclic":
        return (x + k) % kind[1]
    return x + k


def is_chg_window(elems, h: int, g: int) -> bool:
    """Definition-level C_h[g] test for a set of integers."""
    counts = Counter(tuple(x - s[0] for x in s[1:]) for s in combinations(sorted(elems), h))
    return max(counts.values(), default=0) < g


# ---------------------------------------------------------------------------
# report checks: each returns a function (exit code, stdout) -> None


def report(code: int, out: str, want_code: int) -> dict:
    expect(code == want_code, f"exit {code}, expected {want_code}")
    try:
        return json.loads(out)
    except json.JSONDecodeError:
        raise CheckFailed("stdout is not one JSON report") from None


def check_witness(group: str, elems, witness: dict, h: int, g: int, weak: bool) -> None:
    pattern = [_as_elem(x) for x in witness["pattern"]]
    bases = [_as_elem(b) for b in witness["bases"]]
    expect(len(set(pattern)) == h, f"witness pattern {pattern} has not {h} elements")
    expect(len(set(bases)) == g, f"witness has not {g} distinct bases: {bases}")
    members = set(elems)
    translates = [{shifted(group, x, b) for x in pattern} for b in bases]
    for b, t in zip(bases, translates):
        expect(t <= members, f"pattern + {b} is not inside the set")
    if weak:
        for s, t in combinations(translates, 2):
            expect(not s & t, "weak witness translates overlap")


def verify_check(group: str, elems, h: int, g: int, weak: bool, holds: bool):
    def check(code, out):
        rep = report(code, out, 0 if holds else 2)
        expect(rep["group"] == group, f"group {rep['group']} != {group}")
        expect(rep["set_size"] == len(elems), f"set_size {rep['set_size']} != {len(elems)}")
        verdict = rep["verdict"]
        expect(verdict["holds"] is holds, f"holds={verdict['holds']}, expected {holds}")
        if not holds:
            check_witness(group, elems, verdict["witness"], h, g, weak)
    return check


def search_check(n_max: int, h: int, g: int):
    reference = search_reference(h, g, n_max)

    def check(code, out):
        rep = report(code, out, 0)
        table = rep["data"]["table"]
        expect([row["n"] for row in table] == list(range(1, n_max + 1)), "table rows")
        sizes = [row["best_size"] for row in table]
        expect(sizes == reference, f"best_size column {sizes} != {reference}")
        for row in table:
            expect(row["optimal"] is True, f"n={row['n']} not optimal")
            expect(row["greedy_size"] <= row["best_size"], f"greedy beats exact at n={row['n']}")
        best = rep["data"]["best_set"]
        expect(len(set(best)) == reference[-1] == rep["set_size"], "best_set size")
        expect(all(1 <= x <= n_max for x in best), "best_set leaves the window")
        expect(is_chg_window(best, h, g), f"best_set {best} is not C_{h}[{g}]")
    return check


def _check_out_file(path, group: str, size: int) -> None:
    file_group, elems = read_set_file(path)
    expect(file_group == group, f"{path}: group {file_group} != {group}")
    expect(len(set(elems)) == len(elems) == size, f"{path}: {len(elems)} elements != {size}")


def sphere_check(p: int | None, embed: int | None, out: str | None, verified: bool):
    """Sphere sets have at least p^2 - p points; embedded ones fit {1..embed}."""
    if p is None:
        p = max(r for r in range(3, math.isqrt(embed)) if 4 * r**3 <= embed and _is_prime(r))
    group = f"interval:{embed}" if embed is not None else f"product:{p}^3"

    def check(code, out_text):
        rep = report(code, out_text, 0)
        expect(rep["group"] == group, f"group {rep['group']} != {group}")
        expect(rep["set_size"] >= p * p - p, f"sphere size {rep['set_size']} < p^2 - p")
        if verified:
            expect(rep["verdict"]["holds"] is True, "sphere set fails C_3[3]")
        else:
            expect(rep["verdict"] is None, "auto-verify ran above the subset cap")
        if out:
            _check_out_file(out, group, rep["set_size"])
    return check


def norm_check(q: int, h: int, out: str | None, verified: bool):
    """Norm sets have exactly (q^h - 1)/(q - 1) points and are C_h[h!+1]."""
    group = f"product:{q}^{h}"

    def check(code, out_text):
        rep = report(code, out_text, 0)
        expect(rep["group"] == group, f"group {rep['group']} != {group}")
        size = (q**h - 1) // (q - 1)
        expect(rep["set_size"] == size, f"norm set size {rep['set_size']} != {size}")
        if verified:
            expect(rep["verdict"]["holds"] is True, f"norm set fails C_{h}[{h}!+1]")
        else:
            expect(rep["verdict"] is None, "auto-verify ran above the subset cap")
        if out:
            _check_out_file(out, group, size)
    return check


def weak_check(n: int, h: int, g: int, seed: int):
    """The acceptance inequalities |S| >= np/2 and |bad| <= np/4."""
    np_target = 0.5 * n ** ((h - 1) * (g - 1) / (h * g - 1))

    def check(code, out):
        rep = report(code, out, 0)
        expect(rep["group"] == f"interval:{n}", f"group {rep['group']}")
        expect(rep["seed"] == seed, "seed not echoed")
        expect(rep["verdict"]["holds"] is True, "weak set fails its own verification")
        expect(rep["attempts"] >= 1, "no attempt recorded")
        data = rep["data"]
        expect(data["sample_size"] >= np_target / 2, f"|S|={data['sample_size']} < np/2")
        expect(data["bad_size"] <= np_target / 4, f"|bad|={data['bad_size']} > np/4")
        expect(data["result_size"] == data["sample_size"] - data["bad_size"] == rep["set_size"],
               "result size is not |S| - |bad|")
    return check


def zmatrix_check(order: int, set_size: int, pbm: str):
    """Every row of the sum matrix holds |A| ones; the PBM file agrees."""

    def check(code, out):
        rep = report(code, out, 0)
        expect(rep["verdict"]["holds"] is True, "matrix has a K_{g,h}")
        data = rep["data"]
        expect(data["n"] == order, f"matrix order {data['n']} != {order}")
        expect(data["ones"] == order * set_size, f"{data['ones']} ones != {order} * {set_size}")
        expect(data["row_sums_uniform"] is True, "row sums differ")
        with open(pbm, encoding="utf-8") as fh:
            lines = fh.read().split("\n")
        expect(lines[:2] == ["P1", f"{order} {order}"], "PBM header")
        rows = [line.split() for line in lines[2:2 + order]]
        expect(all(len(r) == order and set(r) <= {"0", "1"} for r in rows), "PBM rows")
        expect(sum(r.count("1") for r in rows) == order * set_size, "PBM ones")
    return check


def cap_exit_check(code, out):
    """A resource cap exits 3 and prints no report."""
    expect(code == 3, f"exit {code}, expected 3 (resource cap)")
    expect(out.strip() == "", "a report was printed despite the cap")


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))
