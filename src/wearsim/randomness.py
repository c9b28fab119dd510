"""Deterministic random-stream derivation.

Every stochastic component draws from its own numpy Generator derived
from (session seed, stream tag, entity ids). Streams never interleave,
so adding draws in one component cannot shift any other component's
sequence between runs.

The sensor noise reads a generator's normal draws as a stream of Python
floats (normals) and scales three of them to a direction (unit_vector) in
plain float arithmetic. CPython does not fuse its multiply-adds, so those
bits depend on numpy's generators and not on a BLAS build.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

NOISE = 1
OFFSETS = 2
DRIFT_AXIS = 3
INTERFERER = 4
PROTOCOL = 5
BLE = 6
FLOOR = 7

# Normal draws normals takes from its generator at a time.
NORMAL_BLOCK = 256


def stream(seed: int, tag: int, *ids: int) -> np.random.Generator:
    if seed < 0:
        raise ValueError("seed must be non-negative")
    return np.random.default_rng(np.random.SeedSequence([seed, tag, *ids]))


def normals(rng: np.random.Generator) -> Iterator[float]:
    """rng's standard normal draws in stream order, as the bits
    rng.normal(0.0, 1.0) would give: the generator returns loc + scale*z,
    and z + 0.0 only turns a -0.0 into 0.0. The generator must not be used
    elsewhere: draws taken ahead are held here."""
    while True:
        yield from (rng.standard_normal(NORMAL_BLOCK) + 0.0).tolist()


def unit_vector(draws: Iterator[float]) -> tuple[float, float, float]:
    """The next uniformly distributed direction on the unit sphere: three
    normal draws over their norm, drawn again while the norm is 1e-12 or
    less."""
    while True:
        x, y, z = next(draws), next(draws), next(draws)
        n = math.sqrt(x * x + y * y + z * z)
        if n > 1e-12:
            return (x / n, y / n, z / n)
