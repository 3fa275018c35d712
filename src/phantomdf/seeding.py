"""Deterministic seed derivation.

All randomness flows from one master seed.  Substreams are keyed by
(purpose, index) tags, so adding replicas or changing worker chunking
never reshuffles the draws an existing replica sees.

A substream is the PCG64 stream of ``SeedSequence((master, *tags))``, a
string tag entering as the first 8 bytes of its sha256.  The seed state is
derived here by SeedSequence's own uint32 hash mixing and
``generate_state(4, uint64)``, which NumPy keeps stream-compatible, so that
one vectorised pass seeds a whole chunk of replicas (``rngs_for``);
``seed_sequence`` is the SeedSequence it reproduces.
"""

from __future__ import annotations

import hashlib

import numpy as np
from numpy.random import PCG64, Generator, SeedSequence
from numpy.random.bit_generator import ISeedSequence

_MASK = (1 << 64) - 1
_M32 = (1 << 32) - 1
# SeedSequence's pool size and hash constants (numpy/random/bit_generator.pyx)
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _tag_int(tag) -> int:
    if isinstance(tag, str):
        digest = hashlib.sha256(tag.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big")
    return int(tag) & _MASK


def _entropy_words(master_seed: int, tags) -> list[int]:
    """The uint32 entropy words of (master, *tags), as SeedSequence reads a
    tuple of ints: each int's words, least significant first, [0] for 0."""
    words = []
    for n in (int(master_seed) & _MASK, *map(_tag_int, tags)):
        words.append(n & _M32)
        while n := n >> 32:
            words.append(n & _M32)
    return words


def _seed_states(entropy: list) -> np.ndarray:
    """SeedSequence(entropy).generate_state(4, uint64) per column, (columns, 4).

    Each entropy word is an int (the same in every column) or a uint64
    array holding one uint32 per column.  The steps are SeedSequence's,
    word for word; ``& _M32`` after each product and difference is the
    wrap-around of its uint32 arithmetic.
    """
    h = _INIT_A

    def hashmix(value):
        nonlocal h
        value = value ^ h
        h = h * _MULT_A & _M32
        value = value * h & _M32
        return value ^ value >> 16

    def mix(x, y):
        value = (_MIX_L * x - _MIX_R * y) & _M32
        return value ^ value >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))
    h, out = _INIT_B, []
    for i in range(2 * _POOL):  # 8 uint32 words, read pairwise little-endian
        value = pool[i % _POOL] ^ h
        h = h * _MULT_B & _M32
        value = value * h & _M32
        out.append(value ^ value >> 16)
    states = np.empty((np.broadcast(*pool).size, 4), dtype=np.uint64)
    for k in range(4):
        states[:, k] = out[2 * k] | out[2 * k + 1] << 32
    return states


class _SeedState(ISeedSequence):
    """A seed state already derived, handed to PCG64 as its seed sequence."""

    __slots__ = ("state",)

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("a derived seed state holds PCG64's 4 uint64 words only")
        return self.state


def _generators(entropy: list) -> list[Generator]:
    return [Generator(PCG64(_SeedState(state))) for state in _seed_states(entropy)]


def seed_sequence(master_seed: int, *tags) -> SeedSequence:
    entropy = (int(master_seed) & _MASK,) + tuple(_tag_int(t) for t in tags)
    return SeedSequence(entropy)


def rng_for(master_seed: int, *tags) -> Generator:
    """Generator(PCG64(seed_sequence(master_seed, *tags)))."""
    return _generators(_entropy_words(master_seed, tags))[0]


def rngs_for(master_seed: int, *tags, lo: int, hi: int) -> list[Generator]:
    """rng_for(master_seed, *tags, r) for each replica r in [lo, hi), in one
    vectorised pass (two if the range crosses 2**32, where r takes a second
    entropy word)."""
    head = _entropy_words(master_seed, tags)
    gens = []
    for a, b in ((lo, min(hi, 1 << 32)), (max(lo, 1 << 32), hi)):
        if a < b:
            r = np.arange(a, b, dtype=np.uint64)
            gens += _generators(head + ([r] if b <= 1 << 32 else [r & _M32, r >> 32]))
    return gens
