"""Deterministic random-stream derivation.

All randomness in the package flows from a single user-supplied integer seed.
Independent streams are derived per purpose as

    PCG64(SeedSequence([seed, word(tag_1), word(tag_2), ...]))

where string tags are hashed to stable 64-bit words with BLAKE2b (Python's
builtin hash() is salted per process and must not be used here). The scheme
is documented in the README so externally produced files can be reproduced.
"""

import hashlib
import numbers

import numpy as np


def _tag_word(tag) -> int:
    if isinstance(tag, (int, np.integer)):
        return int(tag)
    if isinstance(tag, str):
        return int.from_bytes(hashlib.blake2b(tag.encode(), digest_size=8).digest(), "big")
    raise TypeError(f"stream tag must be int or str, got {type(tag).__name__}")


def substream(seed: int, *tags) -> np.random.Generator:
    """Derive an independent PCG64 generator from (seed, tags). The seed is
    a Python or numpy integer >= 0; anything else (1.5, "3", True) is
    refused, not truncated to another seed's stream."""
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValueError(f"seed must be an integer >= 0, got {seed!r}")
    entropy = [int(seed)] + [_tag_word(t) for t in tags]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))
