"""Deterministic random streams.

All randomness flows from a single integer seed through SFC64 streams,
whose uniform fills take about half the time of Philox's and whose normal
fills about 70%.  substream(seed, i) is the generator of the i-th
consumer, seeded by the SeedSequence of spawn key (i,), so a run is
bit-reproducible given the seed and independent of scheduling order.
"""

from __future__ import annotations

import numpy as np
# numpy loads it lazily
import numpy.random  # noqa: F401

__all__ = ["substream"]


def substream(seed: int, i: int) -> np.random.Generator:
    """Generator of the i-th consumer under the seed; distinct i never
    collide."""
    seq = np.random.SeedSequence(seed, spawn_key=(int(i),))
    return np.random.Generator(np.random.SFC64(seq))
