#!/usr/bin/env python3
"""Exact-maximum tables with bound columns and slack diagnostics.

Runs the branch-and-bound search for every window size up to --n-max,
prints one row per size (exact maximum, greedy baseline, bound values,
normalized size n^(1/h - 1) * best), and optionally writes the CSV the CLI
also produces.

Examples:
  python3 scripts/search_table_experiment.py --n-max 25 --h 2 --g 2
  python3 scripts/search_table_experiment.py --n-max 18 --h 3 --g 3 --csv c33.csv
"""

import argparse
import csv
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from chgsets import greedy_chg, group_bound, main_term_bound, max_table
from chgsets.errors import DEFAULT_NODE_CAP


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n-max", type=int, default=25)
    parser.add_argument("--h", type=int, default=2)
    parser.add_argument("--g", type=int, default=2)
    parser.add_argument("--node-cap", type=int, default=DEFAULT_NODE_CAP)
    parser.add_argument("--csv", default=None)
    args = parser.parse_args()

    t0 = time.time()
    table = max_table(args.n_max, args.h, args.g, node_cap=args.node_cap)
    elapsed = time.time() - t0

    header = f"{'n':>4} {'best':>5} {'opt':>4} {'greedy':>6} {'bound2n':>9} {'main':>8} {'best/n^(1-1/h)':>15}"
    print(header)
    print("-" * len(header))
    rows = []
    for res in table:
        greedy_size = len(greedy_chg(res.n, args.h, args.g))
        bound = group_bound(2 * res.n, args.h, args.g)
        main = main_term_bound(res.n, args.h, args.g)
        normalized = res.best_size / res.n ** (1 - 1 / args.h)
        print(
            f"{res.n:>4} {res.best_size:>5} {'y' if res.optimal else 'N':>4} "
            f"{greedy_size:>6} {bound:>9.3f} {main:>8.3f} {normalized:>15.4f}"
        )
        rows.append(
            {
                "n": res.n,
                "best_size": res.best_size,
                "optimal": res.optimal,
                "greedy_size": greedy_size,
                "bound_group": bound,
                "bound_main_term": main,
            }
        )
    print(f"\nlargest window: best={table[-1].best_size}, set (1-based) = "
          f"{[e + 1 for e in table[-1].best_set.elems]}")
    print(f"nodes explored at n={args.n_max}: {table[-1].nodes_explored}, {elapsed:.2f}s total")

    if args.csv:
        with open(args.csv, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            writer.writerows(rows)
        print(f"wrote {args.csv}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
