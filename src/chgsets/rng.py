"""SplitMix64: a fixed, documented 64-bit generator with splittable seeding.

All randomness in the package flows through this one stream type so that a
run is reproducible from a single 64-bit seed, independent of Python version
and platform.  Child streams (one per retry attempt, say) are seeded from
consecutive outputs of the parent stream, so results never depend on how
attempts are scheduled.

Version 2 samples Bernoulli subsets by geometric skips (``bernoulli_indices``)
instead of one draw per position, so version-1 seeds give other weak sets.
"""

from __future__ import annotations

import math

RNG_NAME = "splitmix64"
RNG_VERSION = "2"

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


class SplitMix64:
    __slots__ = ("_state",)

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK

    def next_uint64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def uniform(self) -> float:
        """Uniform float in [0, 1) with 53 random bits."""
        return (self.next_uint64() >> 11) * 2.0**-53


def bernoulli_indices(stream, n: int, p: float, stop: int | None = None) -> list:
    """The indices in [0, n) that an i.i.d. Bernoulli(p) process keeps,
    ascending, drawn from ``stream`` by geometric skips; with ``stop``, only
    the first ``stop`` of them.

    The gap before the next kept index is floor(log U / log(1 - p)) with
    U = 1 - uniform() in (0, 1], so a zero draw keeps the next index and
    never reaches log(0) (Devroye, *Non-Uniform Random Variate Generation*,
    ch. X.2).  That costs about np + 1 draws instead of n, and never more
    than ``stop``, so a caller that refuses large samples learns it before
    it pays for them.
    """
    if p >= 1.0:
        return list(range(n)[:stop])
    if p <= 0.0:
        return []
    log_q = math.log1p(-p)
    kept = []
    i = -1
    while len(kept) != stop:
        skip = math.log(1.0 - stream.uniform()) / log_q
        if skip >= n - 1 - i:  # compared as a float, so a huge skip never overflows int()
            break
        i += 1 + int(skip)
        kept.append(i)
    return kept
