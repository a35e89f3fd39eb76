"""Deterministic random streams.

All randomness flows from a single integer seed through counter-based
Philox streams.  Substreams are derived with SeedSequence spawn keys, so a
run is bit-reproducible given (seed, substream layout) and independent of
scheduling order.
"""

from __future__ import annotations

import numpy as np
# numpy loads it lazily
import numpy.random  # noqa: F401

__all__ = ["master_rng", "substream"]


def master_rng(seed: int) -> np.random.Generator:
    """Top-level generator for a run."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def substream(seed: int, *key: int) -> np.random.Generator:
    """Independent generator addressed by an integer path under the seed.

    substream(seed, i, j) is the j-th stream of the i-th consumer; distinct
    key paths never collide.
    """
    if not key:
        return master_rng(seed)
    seq = np.random.SeedSequence(seed, spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(seq))
