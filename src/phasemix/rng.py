"""Counter-based random streams for reproducible parallel Monte Carlo.

Every stochastic kernel in the package draws its randomness from the Philox
counter block keyed by (seed, stream, step): normals through
`stream_normals(seed, stream, step, shape)` (the mixture's spill kicks and
the Langevin initial sample), raw bits through
`stream_signs(seed, stream, step, n)` (the Langevin increments).  The noise
consumed by a given (stream, step) pair is therefore a pure function of
those integers: results do not depend on scheduling, on how many workers
touch the ensemble, or on what was drawn at other steps.  Within one call
of `stream_normals`, row i of the returned array is the noise for sample i.
"""

import numpy as np

__all__ = ["stream_normals", "stream_signs", "stream_generator",
           "LANGEVIN_STREAM"]

_MASK64 = (1 << 64) - 1

# Stream ids under one seed: mixture particle i spills on stream i, so the
# Langevin ensemble takes the top of the 64-bit range, which no particle
# index reaches.
LANGEVIN_STREAM = _MASK64


def stream_generator(seed: int, stream: int, step: int) -> np.random.Generator:
    """Generator positioned at the (seed, stream, step) counter block."""
    key = np.array([seed & _MASK64, (seed >> 64) & _MASK64], dtype=np.uint64)
    counter = np.array([0, 0, step & _MASK64, stream & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


def stream_normals(seed: int, stream: int, step: int, shape) -> np.ndarray:
    """Standard normals, a pure function of (seed, stream, step, shape)."""
    return stream_generator(seed, stream, step).standard_normal(shape)


def stream_signs(seed: int, stream: int, step: int, n: int) -> np.ndarray:
    """n fair bits (uint8, 0 or 1) from the (seed, stream, step) block.

    Bit i is bit i % 64 of raw 64-bit word i // 64, least significant
    first, so one word yields 64 bits whatever the host's byte order.
    """
    words = stream_generator(seed, stream, step).bit_generator.random_raw(
        -(-n // 64))
    return np.unpackbits(words.astype("<u8", copy=False).view(np.uint8),
                         count=n, bitorder="little")
