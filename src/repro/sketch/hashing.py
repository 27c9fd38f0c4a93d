"""Stable 64-bit hashing and universal hash families.

Python's builtin ``hash`` is salted per process, so every sketch in this
package hashes through blake2b for run-to-run determinism, then mixes with a
universal family h(x) = (a*x + b) mod p.  A token's hash is the 8-byte
little-endian blake2b digest salted with the seed; one keyed state per seed
is built once and copied per token.

The family uses the Mersenne prime p = 2^31 - 1 so that a*x (a, x < p) fits
in uint64 and the whole family can be applied vectorized in numpy.  The
reduction mod p is the Mersenne fold rather than a uint64 division: since
2^31 = 1 (mod p), x = (x & p) + (x >> 31) (mod p).  With a*x + b < 2^62 + 2^31
one fold leaves a value below 2^32, a second leaves one of at most p + 1,
and ``min(x, x - p)`` (the subtraction wraps around when x < p) is then
exactly x mod p, the value a uint64 ``%`` would give.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np

MERSENNE_31 = (1 << 31) - 1
MAX_HASH = MERSENNE_31 - 1


@functools.lru_cache(maxsize=256)
def _keyed(seed: int):
    """The salted blake2b state for ``seed``; callers copy it, never update it."""
    return hashlib.blake2b(digest_size=8, salt=seed.to_bytes(8, "little"))


def stable_hash64(token: str, seed: int = 0) -> int:
    """Deterministic 64-bit hash of a string token."""
    h = _keyed(seed).copy()
    h.update(token.encode("utf-8"))
    return int.from_bytes(h.digest(), "little")


def hash_tokens(tokens, seed: int = 0) -> np.ndarray:
    """Vector of stable 64-bit hashes for an iterable of string tokens
    (``stable_hash64`` of each, decoded in one pass)."""
    base = _keyed(seed)
    digests = []
    for token in tokens:
        h = base.copy()
        h.update(token.encode("utf-8"))
        digests.append(h.digest())
    # astype: a writable native-order copy of the read-only buffer view.
    return np.frombuffer(b"".join(digests), dtype="<u8").astype(np.uint64)


class UniversalHashFamily:
    """A family of k pairwise-independent functions h_i(x) = (a_i x + b_i) mod p.

    Inputs are 64-bit token hashes (reduced mod p internally); outputs lie in
    [0, p) with p = 2^31 - 1.  ``apply`` is vectorized: (n,) inputs ->
    (k, n) outputs.
    """

    def __init__(self, k: int, seed: int = 0):
        rng = np.random.default_rng(seed)
        self.k = k
        self.a = rng.integers(1, MERSENNE_31, size=k, dtype=np.uint64)
        self.b = rng.integers(0, MERSENNE_31, size=k, dtype=np.uint64)

    def apply(self, values: np.ndarray) -> np.ndarray:
        """Map (n,) uint64 inputs -> (k, n) outputs in [0, 2^31 - 1)."""
        p = np.uint64(MERSENNE_31)
        shift = np.uint64(31)
        v = values.astype(np.uint64, copy=False) % p
        # Built as (n, k) so each pass runs along k; a*v + b < 2^62 + 2^31.
        x = v[:, None] * self.a
        x += self.b
        hi = np.empty_like(x)
        for _ in range(2):
            np.right_shift(x, shift, out=hi)
            x &= p
            x += hi
        np.subtract(x, p, out=hi)
        return np.minimum(x, hi, out=x).T

    def apply_one(self, value: int) -> np.ndarray:
        """Map a single pre-hashed input through all k functions."""
        return self.apply(np.array([value], dtype=np.uint64))[:, 0]
