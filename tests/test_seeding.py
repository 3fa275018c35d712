"""Seed derivation against numpy's own SeedSequence, the stream it reproduces."""

import hashlib

import numpy as np
import pytest
from numpy.random import PCG64, Generator, SeedSequence

from phantomdf.seeding import rng_for, rngs_for, seed_sequence

SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]  # one and two entropy words
# a string tag (two words), the int tags 0 (one) and 2**40 (two), and two
# tags (four words)
TAGS = [("regen-verify",), (0,), (2**40,), ("bt", 2**40)]
CHUNKS = [(0, 1), (0, 300), (511, 1024)]


def oracle(master_seed, *tags):
    return Generator(PCG64(SeedSequence((master_seed, *tags))))


def assert_same_stream(got, want):
    assert got.bit_generator.state == want.bit_generator.state
    np.testing.assert_array_equal(got.random(3), want.random(3))
    np.testing.assert_array_equal(got.integers(2**63, size=2), want.integers(2**63, size=2))


def tag_ints(tags):
    """The README's tag ints: a string's as the first 8 bytes of its sha256."""
    return [int.from_bytes(hashlib.sha256(t.encode()).digest()[:8], "big")
            if isinstance(t, str) else t for t in tags]


def test_the_cases_run_every_mixing_loop():
    # fewer words than the pool of 4, exactly 4, and more (the loop that
    # mixes the remaining words into the pool)
    def words(n):  # uint32 words of an int, as SeedSequence splits it
        return max(1, -(-n.bit_length() // 32))

    sizes = {sum(map(words, (s, *tag_ints(t), 0))) for s in SEEDS for t in TAGS}
    assert {3, 4, 5, 6} <= sizes


@pytest.mark.parametrize("lo, hi", CHUNKS)
@pytest.mark.parametrize("tags", TAGS, ids=str)
@pytest.mark.parametrize("seed", SEEDS)
def test_chunk_generators_are_seed_sequence_streams(seed, tags, lo, hi):
    gens = rngs_for(seed, *tags, lo=lo, hi=hi)
    assert len(gens) == hi - lo
    for r, gen in zip(range(lo, hi), gens):
        assert_same_stream(gen, oracle(seed, *tag_ints(tags), r))


def test_chunk_across_two_to_the_32_takes_a_second_word():
    lo, hi = 2**32 - 2, 2**32 + 2
    for r, gen in zip(range(lo, hi), rngs_for(7, "maxima", lo=lo, hi=hi)):
        assert_same_stream(gen, oracle(7, *tag_ints(["maxima"]), r))


@pytest.mark.parametrize("last", ["maxima", "component", 5])
@pytest.mark.parametrize("seed", SEEDS)
def test_rng_for_is_the_seed_sequence_stream(seed, last):
    assert_same_stream(rng_for(seed, "fit", last), oracle(seed, *tag_ints(["fit", last])))
    assert_same_stream(rng_for(seed, "fit", last),
                       Generator(PCG64(seed_sequence(seed, "fit", last))))


@pytest.mark.parametrize("tags", [(), ("theta-marginal",)], ids=str)
def test_rng_for_with_fewer_tags(tags):
    assert_same_stream(rng_for(3, *tags), Generator(PCG64(seed_sequence(3, *tags))))


def test_a_derived_state_serves_pcg64_only():
    seed_seq = rng_for(1, "fit").bit_generator.seed_seq
    np.testing.assert_array_equal(seed_seq.generate_state(4, np.uint64),
                                  seed_sequence(1, "fit").generate_state(4, np.uint64))
    with pytest.raises(ValueError):
        seed_seq.generate_state(4)
