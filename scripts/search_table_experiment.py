#!/usr/bin/env python3
"""Exact-maximum tables next to the greedy baseline and the bound columns.

Runs ``chgsets search`` and prints its report as a table, one row per window
size up to --n-max (exact maximum, greedy baseline, bound values, normalized
size n^(1/h - 1) * best), then the largest window's best set.  Takes the
options of ``chgsets search``, so --csv writes the command's own CSV;
--n-max, --h and --g default to 25, 2 and 2.  Errors print one stderr line
and exit with the code ``chgsets search`` gives them.

Examples:
  python3 scripts/search_table_experiment.py --n-max 25 --h 2 --g 2
  python3 scripts/search_table_experiment.py --n-max 18 --h 3 --g 3 --csv c33.csv
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from chgsets.cli import FAILURES, build_parser, report_failure

DEFAULTS = ("--n-max", "25", "--h", "2", "--g", "2")  # a later option overrides these


def main() -> int:
    args = build_parser().parse_args(["search", *DEFAULTS, *sys.argv[1:]])

    t0 = time.time()
    try:
        report = args.func(args)
    except FAILURES as exc:  # one stderr line and the CLI's exit code
        return report_failure(exc)
    elapsed = time.time() - t0

    header = f"{'n':>4} {'best':>5} {'opt':>4} {'greedy':>6} {'bound2n':>9} {'main':>8} {'best/n^(1-1/h)':>15}"
    print(header)
    print("-" * len(header))
    table = report["data"]["table"]
    for row in table:
        normalized = row["best_size"] / row["n"] ** (1 - 1 / args.h)
        print(
            f"{row['n']:>4} {row['best_size']:>5} {'y' if row['optimal'] else 'N':>4} "
            f"{row['greedy_size']:>6} {row['bound_group']:>9.3f} {row['bound_main_term']:>8.3f} "
            f"{normalized:>15.4f}"
        )
    print(f"\nlargest window: best={table[-1]['best_size']}, set (1-based) = "
          f"{report['data']['best_set']}")
    print(f"nodes explored at n={args.n_max}: {table[-1]['nodes']}, {elapsed:.2f}s total")
    if args.csv:
        print(f"wrote {args.csv}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
