"""Counter-based deterministic random numbers (splitmix-style).

Stream value i for seed s is mix64(s + (i+1)*GOLDEN) where mix64 is the
standard splitmix64 finalizer.  Values are a pure function of (seed, index),
so any chunked or parallel evaluation order reproduces the same stream.
A scalar reference implementation and a vectorized numpy one are both kept;
tests pin them against each other.
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
MIX1 = 0xBF58476D1CE4E5B9
MIX2 = 0x94D049BB133111EB

#: documented default seed for all randomized subcommands
DEFAULT_SEED = 0xD0F5EEDD


def mix64(z: int) -> int:
    z &= MASK64
    z = ((z ^ (z >> 30)) * MIX1) & MASK64
    z = ((z ^ (z >> 27)) * MIX2) & MASK64
    return z ^ (z >> 31)


def stream_value(seed: int, index: int) -> int:
    """Reference scalar implementation of the counter stream."""
    return mix64((seed + (index + 1) * GOLDEN) & MASK64)


def stream_uniform(seed: int, index: int) -> float:
    """Uniform in [0, 1) with 53 random bits, scalar reference."""
    return (stream_value(seed, index) >> 11) * 2.0**-53


def uniform_block(seed: int, start: int, count: int) -> np.ndarray:
    """Vectorized uniforms for stream indices start .. start+count-1."""
    idx = np.arange(start, start + count, dtype=np.uint64)
    z = (np.uint64(seed & MASK64) + (idx + np.uint64(1)) * np.uint64(GOLDEN)).astype(np.uint64)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(MIX2)
    z = z ^ (z >> np.uint64(31))
    return (z >> np.uint64(11)).astype(np.float64) * 2.0**-53


def normal_block(seed: int, start_pair: int, count: int) -> np.ndarray:
    """Standard normals via Box-Muller; pair j consumes stream slots 2j, 2j+1."""
    u = uniform_block(seed, 2 * start_pair, 2 * count).reshape(count, 2)
    radius = np.sqrt(-2.0 * np.log1p(-u[:, 0]))
    return radius * np.cos(2.0 * np.pi * u[:, 1])


def normal_points(seed: int, count: int, dim: int) -> np.ndarray:
    """Standard normal points in R^dim; axis k reads its own counter stream."""
    gauss = np.empty((count, dim))
    for axis in range(dim):
        gauss[:, axis] = normal_block(seed + 0x51A * (axis + 1), 0, count)
    return gauss


def unit_rows(points: np.ndarray) -> np.ndarray:
    """Each row scaled to unit length; zero rows stay zero."""
    norms = np.linalg.norm(points, axis=1)
    norms[norms == 0] = 1.0
    return points / norms[:, None]


def sphere_points(seed: int, count: int, ambient_dim: int) -> np.ndarray:
    """Deterministic uniform points on the unit sphere in R^ambient_dim."""
    return unit_rows(normal_points(seed, count, ambient_dim))
