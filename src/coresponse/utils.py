"""Seed derivation, bounded parallelism and small numeric helpers.

Every stochastic operation derives its random stream from a master seed and
a tuple of non-negative integers via ``numpy.random.SeedSequence`` spawn
keys, so results are reproducible regardless of execution order or worker
count.
"""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import ValidationError


def seed_sequence(master: int, *key: int) -> np.random.SeedSequence:
    if master < 0:
        raise ValidationError("seeds must be non-negative integers")
    return np.random.SeedSequence(master, spawn_key=tuple(key))


def generator(master: int, *key: int) -> np.random.Generator:
    """PCG64 generator on the stream identified by (master, *key)."""
    return np.random.Generator(np.random.PCG64(seed_sequence(master, *key)))


def child_int(master: int, *key: int) -> int:
    """A derived 32-bit integer seed (for libraries that take plain ints)."""
    return int(seed_sequence(master, *key).generate_state(1)[0])


def parallel_map(fn, items, threads: int = 1) -> list:
    """Map preserving item order; thread count never changes the result."""
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def exactly_symmetric(A: np.ndarray) -> bool:
    """Whether ``(A + A.T) / 2`` is ``A`` bit for bit, without forming it.

    True when the square matrix A equals its transpose bit for bit (so
    -0.0 and 0.0 differ) and no entry exceeds half the largest double in
    size: then ``x + x`` is exact and finite, and ``(x + x) / 2 == x``.  A
    NaN fails the size test.
    """
    limit = sys.float_info.max / 2
    if A.size == 0 or not (-limit <= A.min() and A.max() <= limit):
        return False
    bits = A.view(np.uint64)
    return bool(np.array_equal(bits, bits.T))


def pearson(a: np.ndarray, b: np.ndarray) -> float:
    """Definitional Pearson correlation of two equal-length vectors."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValidationError("pearson expects two equal-length vectors")
    a0 = a - a.mean()
    b0 = b - b.mean()
    denom = np.sqrt(a0 @ a0) * np.sqrt(b0 @ b0)
    if denom == 0.0:
        raise ValidationError("pearson undefined for zero-variance input")
    return float(a0 @ b0 / denom)
