#!/usr/bin/env python3
"""Seed sweep for the probabilistic weak-set construction.

For each seed: sample, delete bad elements, report sizes against the
guaranteed lower bound np/4, and verify the result.  Also prints the
counting-ratio diagnostics for the embedded sphere pipeline as a finite
prefix table (no asymptotic claim attached).

Example:
  python3 scripts/weak_set_experiment.py --n 100000 --h 2 --g 2 --seeds 20
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from chgsets import (
    RetryExhaustedError,
    counting_ratio,
    embedded_c33,
    sample_density,
    weak_lower_bound,
    weak_random_set,
)
from chgsets.errors import DEFAULT_MAX_ATTEMPTS


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=100_000)
    parser.add_argument("--h", type=int, default=2)
    parser.add_argument("--g", type=int, default=2)
    parser.add_argument("--seeds", type=int, default=20)
    parser.add_argument("--max-attempts", type=int, default=DEFAULT_MAX_ATTEMPTS)
    args = parser.parse_args()

    p, np_val = sample_density(args.n, args.h, args.g)
    lower = weak_lower_bound(args.n, args.h, args.g)
    print(f"n={args.n} h={args.h} g={args.g}: p={p:.3e}, np={np_val:.2f}, "
          f"guaranteed > np/4 = {lower:.2f}")
    print(f"{'seed':>5} {'attempts':>8} {'|S|':>5} {'|bad|':>6} {'|A|':>5} {'|A|/(np/4)':>11}")

    t0 = time.time()
    successes = 0
    sizes = []
    for seed in range(1, args.seeds + 1):
        try:
            _, attempts, (s_size, bad_size, out_size) = weak_random_set(
                args.n, args.h, args.g, seed=seed, max_attempts=args.max_attempts
            )
        except RetryExhaustedError:
            print(f"{seed:>5} {'--':>8}  exhausted after {args.max_attempts} attempts")
            continue
        successes += 1
        sizes.append(out_size)
        print(f"{seed:>5} {attempts:>8} {s_size:>5} {bad_size:>6} {out_size:>5} "
              f"{out_size / lower:>11.2f}")
    print(f"\n{successes}/{args.seeds} seeds accepted, {time.time()-t0:.1f}s; "
          f"sizes min/median/max = {min(sizes)}/{sorted(sizes)[len(sizes)//2]}/{max(sizes)}"
          if sizes else "no successes")

    print("\nembedded sphere pipeline, finite prefix ratios (diagnostic only):")
    counts = [(n, len(embedded_c33(n))) for n in (108, 500, 5488)]
    for n, ratio in counting_ratio(counts, 3):
        print(f"  n={n:>5}: A(n)={dict(counts)[n]:>4}  A(n)(ln n)^(1/3)/n^(2/3) = {ratio:.4f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
