"""Deterministic random-stream derivation.

Every stochastic component draws from its own numpy Generator derived
from (session seed, stream tag, entity ids). Streams never interleave,
so adding draws in one component cannot shift any other component's
sequence between runs.
"""

from __future__ import annotations

import numpy as np

NOISE = 1
OFFSETS = 2
DRIFT_AXIS = 3
INTERFERER = 4
PROTOCOL = 5
BLE = 6
FLOOR = 7

# Normal draws a NormalBlocks takes from its generator at a time.
NORMAL_BLOCK = 256


def stream(seed: int, tag: int, *ids: int) -> np.random.Generator:
    if seed < 0:
        raise ValueError("seed must be non-negative")
    return np.random.default_rng(np.random.SeedSequence([seed, tag, *ids]))


def _direction(v: np.ndarray) -> tuple[float, float, float] | None:
    """Three normal draws scaled to unit length; None when too short to scale.

    The norm is np.sqrt(v @ v), and numpy hands `v @ v` to BLAS. With
    numpy 2.4 and its bundled OpenBLAS on x86-64 it equals
    fma(z, z, fma(y, y, x*x)), which differs from the plain Python sum
    x*x + y*y + z*z on about a fifth of draws. So the noise bits, and the
    9-digit outputs built on them, depend on the numpy/BLAS build and the
    CPU it selects kernels for: byte identity holds per machine and build.
    The arithmetic stays as it is, because changing it would move every
    noisy output.
    """
    n = float(np.sqrt(v @ v))
    if n > 1e-12:
        return (float(v[0]) / n, float(v[1]) / n, float(v[2]) / n)
    return None


class NormalBlocks:
    """A generator's normal draws, taken NORMAL_BLOCK at a time and handed
    out in stream order.

    normal(sigma) returns the same bits as rng.normal(0.0, sigma) would at
    the same point of the stream, without a generator call per draw. The
    generator must not be used elsewhere: draws taken ahead are held here.
    """

    __slots__ = ("_rng", "_block", "_values", "_i")

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng
        self._block = np.empty(0)
        self._values: list[float] = []
        self._i = 0

    def _refill(self) -> None:
        # Unread draws move to the front, so three of them lie in one array.
        # Generator.normal returns loc + scale*z; with loc 0.0 and scale 1.0
        # that is z + 0.0, which only turns a -0.0 into 0.0.
        fresh = self._rng.standard_normal(NORMAL_BLOCK) + 0.0
        self._block = np.concatenate((self._block[self._i:], fresh))
        self._values = self._block.tolist()
        self._i = 0

    def normal(self, sigma: float) -> float:
        """The next draw of N(0, sigma^2)."""
        if self._i >= len(self._values):
            self._refill()
        z = self._values[self._i]
        self._i += 1
        return 0.0 + sigma * z

    def unit_vector(self) -> tuple[float, float, float]:
        """The next uniformly distributed direction on the unit sphere:
        three normal draws, scaled by _direction, drawn again while too short."""
        while True:
            i = self._i
            if i + 3 > len(self._values):
                self._refill()
                i = 0
            self._i = i + 3
            d = _direction(self._block[i:i + 3])
            if d is not None:
                return d
