"""Counter-based random streams.

Every random draw in the package flows from a 64-bit master seed through
a named stream: the (seed, purpose, index) triple is hashed to a 128-bit
Philox key. Streams are therefore independent of scheduling order and of
worker count, and any stream can be reconstructed in isolation. draws is
the one place that hands sample j its stream and runs samples on threads.
"""

from __future__ import annotations

import hashlib
import numbers
from concurrent.futures import ThreadPoolExecutor

import numpy as np


def stream(seed: int, purpose: str, index: int = 0) -> np.random.Generator:
    """Derive the generator for one named stream of a master seed.

    Distinct (purpose, index) pairs give statistically independent
    generators; the same triple always gives the same bit stream.
    """
    token = f"{seed}:{purpose}:{index}".encode()
    key = int.from_bytes(hashlib.blake2b(token, digest_size=16).digest(), "little")
    return np.random.Generator(np.random.Philox(key=key))


def draws(seed: int, purpose: str, indices, fn, workers: int = 1) -> list:
    """[fn(stream(seed, purpose, j)) for j in indices], in index order, run on
    `workers` threads: each call reads only its own stream."""
    # a NaN worker count would start no thread and wait for ever
    if not (isinstance(workers, numbers.Integral) and workers >= 1):
        raise ValueError(f"need an integer number of parallel workers >= 1, got {workers!r}")
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda j: fn(stream(seed, purpose, j)), indices))
