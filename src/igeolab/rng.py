"""Deterministic random streams.

All randomness flows from a single integer seed through counter-based
Philox streams.  substream(seed, i) is the generator of the i-th consumer,
derived with SeedSequence spawn key (i,), so a run is bit-reproducible
given the seed and independent of scheduling order.
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
    return np.random.Generator(np.random.Philox(seq))
