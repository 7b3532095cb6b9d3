"""Deterministic random number generation for the samplers.

The generator is splitmix64: a 64-bit counter scrambled by a fixed avalanche
mix.  It is seedable, platform-stable (pure integer arithmetic mod 2^64), and
more than adequate for the Monte Carlo work here.  Uniform doubles take the
form ((bits >> 12) + 0.5) * 2^-52 so they are strictly inside (0, 1), which
keeps logs and negative powers finite downstream.
"""

from __future__ import annotations

import math
from statistics import NormalDist

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


class SplitMix64:
    """Seedable 64-bit generator with a fixed cross-platform stream."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def uniform(self) -> float:
        """Uniform draw strictly inside (0, 1), 52-bit resolution."""
        return ((self.next_u64() >> 12) + 0.5) * 2.0 ** -52

    def normal(self) -> float:
        """Standard normal draw via the inverse CDF."""
        return normal_inverse_cdf(self.uniform())

    def exponential(self) -> float:
        """Standard exponential draw."""
        return -math.log(self.uniform())


_STANDARD_NORMAL = NormalDist()


def normal_inverse_cdf(p: float) -> float:
    """Inverse of the standard normal CDF for p in (0, 1) (Wichura's AS241)."""
    if not (0.0 < p < 1.0):
        raise ValueError("normal_inverse_cdf requires p in (0, 1)")
    return _STANDARD_NORMAL.inv_cdf(p)


def normal_cdf(x: float) -> float:
    """Standard normal CDF."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))
