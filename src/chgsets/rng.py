"""SplitMix64: a fixed, documented 64-bit generator with splittable seeding.

All randomness in the package flows through this one stream type so that a
run is reproducible from a single 64-bit seed, independent of Python version
and platform.  Child streams (one per retry attempt, say) are seeded from
consecutive outputs of the parent stream, so results never depend on how
attempts are scheduled.
"""

RNG_NAME = "splitmix64"
RNG_VERSION = "1"

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
