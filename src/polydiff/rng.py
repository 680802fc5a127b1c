"""Counter-based deterministic random numbers (splitmix-style).

Stream value i for seed s is mix64(s + (i+1)*GOLDEN) where mix64 is the
standard splitmix64 finalizer.  Values are a pure function of (seed, index),
so any chunked or parallel evaluation order reproduces the same stream.
A scalar reference implementation and a vectorized numpy one are both kept;
tests pin them against each other.  The default seed is `catalog.DEFAULT_SEED`.
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
MIX1 = 0xBF58476D1CE4E5B9
MIX2 = 0x94D049BB133111EB


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
    """Vectorized uniforms for stream indices start .. start+count-1.

    splitmix runs in place on one uint64 buffer, with one more for the
    shifted copies, so the temporaries stay at twice the output size.
    """
    z = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    z *= np.uint64(GOLDEN)
    z += np.uint64(seed & MASK64)
    shifted = np.empty_like(z)
    for shift, multiplier in ((30, MIX1), (27, MIX2)):
        np.right_shift(z, np.uint64(shift), out=shifted)
        z ^= shifted
        z *= np.uint64(multiplier)
    np.right_shift(z, np.uint64(31), out=shifted)
    z ^= shifted
    del shifted
    z >>= np.uint64(11)
    out = z.astype(np.float64)
    out *= 2.0**-53
    return out


def normal_block(seed: int, start_pair: int, count: int) -> np.ndarray:
    """Standard normals via Box-Muller; pair j consumes stream slots 2j, 2j+1.

    Each transform runs in place on one contiguous buffer.
    """
    u = uniform_block(seed, 2 * start_pair, 2 * count).reshape(count, 2)
    radius = np.negative(u[:, 0])
    angle = np.multiply(u[:, 1], 2.0 * np.pi)
    del u
    np.log1p(radius, out=radius)
    radius *= -2.0
    np.sqrt(radius, out=radius)
    np.cos(angle, out=angle)
    radius *= angle
    return radius


def normal_points(seed: int, count: int, dim: int, start: int = 0) -> np.ndarray:
    """Standard normal points start .. start+count-1 in R^dim; axis k reads
    its own counter stream.  Each axis fills one contiguous row of a
    (dim, count) array, and the points are its transpose."""
    gauss = np.empty((dim, count))
    for axis in range(dim):
        gauss[axis] = normal_block(seed + 0x51A * (axis + 1), start, count)
    return gauss.T


def unit_rows(points: np.ndarray) -> np.ndarray:
    """Each row scaled to unit length; zero rows stay zero.  The squares
    are summed one axis at a time, in the order np.linalg.norm(points,
    axis=1) adds them."""
    norms = points[:, 0] * points[:, 0]
    for axis in range(1, points.shape[1]):
        norms += points[:, axis] * points[:, axis]
    np.sqrt(norms, out=norms)
    norms[norms == 0] = 1.0
    return points / norms[:, None]


def sphere_points(seed: int, count: int, ambient_dim: int, start: int = 0) -> np.ndarray:
    """Deterministic uniform points start .. start+count-1 on the unit
    sphere in R^ambient_dim."""
    return unit_rows(normal_points(seed, count, ambient_dim, start))
