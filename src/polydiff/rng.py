"""Counter-based deterministic random numbers (splitmix-style).

Stream value i for seed s is mix64(s + (i+1)*GOLDEN) where mix64 is the
standard splitmix64 finalizer.  Values are a pure function of (seed, index),
so any chunked or parallel evaluation order reproduces the same stream.
Normals come from the same stream by Box-Muller, two per pair of uniforms.
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


def normal_block(seed: int, start: int, count: int) -> np.ndarray:
    """Standard normals start .. start+count-1 of the stream for `seed`, by
    Box-Muller: pair j reads uniforms 2j and 2j+1 and gives normal 2j as
    r cos(theta) and normal 2j+1 as r sin(theta), with r = sqrt(-2 log(1 -
    u_2j)) and theta = 2 pi u_2j+1.  Each normal depends on its pair alone,
    so any start works, odd ones included, and any split of a range gives
    the same bytes.

    theta = pi + 2 phi with phi = pi u_2j+1 - pi/2, so with t = tan(phi)
    cos(theta) = (t - 1)(t + 1) / (1 + t^2) and sin(theta) = -2t / (1 + t^2):
    one numpy tan costs a tenth of a cos or a sin on AVX-512 x86, and the
    halves come within 4 eps r of the math module's.  log1p and tan run on
    contiguous buffers, so each value takes the same code path whatever
    block it is drawn in; the other steps are correctly rounded anywhere.
    """
    first = start // 2
    pairs = (start + count + 1) // 2 - first
    normals = uniform_block(seed, 2 * first, 2 * pairs).reshape(pairs, 2)
    # the steps write into buffers already held: with the temporaries of
    # plain expressions a seed-7 battery peaked 0.4-0.6 MB higher
    radius = np.log1p(np.negative(normals[:, 0]))
    np.sqrt(np.multiply(radius, -2.0, out=radius), out=radius)
    t = np.multiply(normals[:, 1], np.pi)
    np.tan(np.subtract(t, np.pi / 2, out=t), out=t)
    scale = t * t
    scale += 1.0
    radius /= scale
    np.add(t, 1.0, out=normals[:, 0])
    normals[:, 0] *= np.subtract(t, 1.0, out=scale)
    normals[:, 0] *= radius
    np.multiply(t, np.multiply(radius, -2.0, out=scale), out=normals[:, 1])
    return normals.reshape(-1)[start % 2 : start % 2 + count]


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
    sphere in R^ambient_dim: point j is normals ambient_dim*j ..
    ambient_dim*j + ambient_dim - 1 of the stream for `seed`, scaled to unit
    length, as the rows of one C-ordered (count, ambient_dim) array."""
    normals = normal_block(seed, ambient_dim * start, ambient_dim * count)
    return unit_rows(normals.reshape(count, ambient_dim))
