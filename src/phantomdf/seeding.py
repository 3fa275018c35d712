"""Deterministic seed derivation.

All randomness flows from one master seed.  Substreams are keyed by
(purpose, index) tags, so adding replicas or changing worker chunking
never reshuffles the draws an existing replica sees.
"""

from __future__ import annotations

import hashlib

from numpy.random import PCG64, Generator, SeedSequence

_MASK = (1 << 64) - 1


def _tag_int(tag) -> int:
    if isinstance(tag, str):
        digest = hashlib.sha256(tag.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big")
    return int(tag) & _MASK


def seed_sequence(master_seed: int, *tags) -> SeedSequence:
    entropy = (int(master_seed) & _MASK,) + tuple(_tag_int(t) for t in tags)
    return SeedSequence(entropy)


def rng_for(master_seed: int, *tags) -> Generator:
    return Generator(PCG64(seed_sequence(master_seed, *tags)))
