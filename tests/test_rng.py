"""The stream contract of rng.substream: one SFC64 generator per consumer,
seeded by the SeedSequence of spawn key (i,) under the run's seed."""

import numpy as np

from igeolab.rng import substream

SEED = 20260819


def test_substream_is_sfc64_of_its_spawn_key():
    stream = substream(SEED, 3)
    assert type(stream.bit_generator) is np.random.SFC64
    seq = np.random.SeedSequence(SEED, spawn_key=(3,))
    want = repr(np.random.SFC64(seq).state)
    assert repr(stream.bit_generator.state) == want
    assert repr(substream(SEED, 3).bit_generator.state) == want


def test_distinct_consumers_draw_distinct_streams():
    first = {substream(SEED, i).random() for i in range(256)}
    assert len(first) == 256
    assert substream(SEED + 1, 0).random() != substream(SEED, 0).random()


def test_spawned_children_differ_from_each_other_and_the_parent():
    parent = substream(SEED, 0)
    children = parent.spawn(2)
    assert all(type(c.bit_generator) is np.random.SFC64 for c in children)
    draws = {stream.random(8).tobytes() for stream in [parent, *children]}
    assert len(draws) == 3
    # the children are the parent's seed sequence's, so they reproduce
    again = substream(SEED, 0).spawn(2)
    assert [c.random(8).tobytes() for c in again] == \
        [c.random(8).tobytes() for c in substream(SEED, 0).spawn(2)]
