"""Deterministic random-stream derivation.

Every stochastic draw in the library goes through derive_rng so that a run is
fully determined by one master seed plus a structural path (purpose string,
trial index, entity index). Streams for different paths are statistically
independent and insensitive to execution order, which keeps parallel sweeps
reproducible.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np

__all__ = ["derive_rng"]

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1


def _words(value: int) -> tuple[int, ...]:
    """The uint32 words SeedSequence makes of a 64-bit int: little-endian,
    at least one."""
    high = value >> 32
    return (value & _MASK32, high) if high else (value,)


@functools.lru_cache(maxsize=1024)
def _text_words(text: str) -> tuple[int, ...]:
    digest = hashlib.blake2s(text.encode("utf-8"), digest_size=8).digest()
    return _words(int.from_bytes(digest, "big"))


def _token_words(part) -> tuple[int, ...]:
    if isinstance(part, (bool, float)):
        part = str(part)
    if isinstance(part, (int, np.integer)):
        return _words(int(part) & _MASK64)
    return _text_words(str(part))


def derive_rng(master_seed: int, *path) -> np.random.Generator:
    """Generator keyed by (master_seed, *path); path items are ints or strings.

    Each item becomes a 64-bit token: an int (or NumPy integer) modulo
    2**64, anything else an 8-byte BLAKE2s digest of its str(). The seed
    sequence gets the tokens' uint32 words, which is what it would make of
    the list of tokens itself.
    """
    words = list(_words(int(master_seed) & _MASK64))
    for part in path:
        words += _token_words(part)
    return np.random.default_rng(np.random.SeedSequence(np.array(words, dtype=np.uint32)))
