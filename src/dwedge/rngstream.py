"""Counter-based random streams.

Every random draw in the package flows from a 64-bit master seed through
a named stream: the (seed, purpose, index) triple is hashed to a 128-bit
Philox key. Streams are therefore independent of the order samples are
drawn in, and any stream can be reconstructed in isolation. draws is the
one place that hands sample j its stream.
"""

from __future__ import annotations

import hashlib

import numpy as np


def stream(seed: int, purpose: str, index: int = 0) -> np.random.Generator:
    """Derive the generator for one named stream of a master seed.

    Distinct (purpose, index) pairs give statistically independent
    generators; the same triple always gives the same bit stream.
    """
    token = f"{seed}:{purpose}:{index}".encode()
    key = int.from_bytes(hashlib.blake2b(token, digest_size=16).digest(), "little")
    return np.random.Generator(np.random.Philox(key=key))


def draws(seed: int, purpose: str, indices, fn) -> list:
    """fn of the stream (seed, purpose, j) for each j of indices, in order."""
    return [fn(stream(seed, purpose, j)) for j in indices]
