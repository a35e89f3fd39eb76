"""Symmetric decreasing rearrangement of a density.

The rearrangement f* replaces each superlevel set {f > t} by the centered
open ball of the same volume and stacks the layers back up.  We discretize
the layer integral on a geometric grid of levels between sup*1e-6 and sup
and store the result as a radial step density.  The superlevel volumes
are the model's exact ones, and a density without them has no
rearrangement here.  Heights are assigned so that |{f* > t}| reproduces
the superlevel volume exactly at every grid level, which also keeps the
sup of the profile equal to sup f.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import unit_ball_volume
from .densities import DensityModel, RadialGridDensity

LEVEL_FLOOR = 1e-6       # bottom of the level grid, relative to sup f

__all__ = ["LevelProfile", "level_profile", "rearrangement"]


@dataclass(frozen=True)
class LevelProfile:
    """Superlevel volumes |{f > t}| on an increasing grid of levels."""

    thresholds: np.ndarray
    superlevel_volumes: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.thresholds, dtype=float)
        v = np.asarray(self.superlevel_volumes, dtype=float)
        if t.ndim != 1 or t.shape != v.shape or t.size < 2:
            raise ValueError("need matching threshold/volume vectors, length >= 2")
        if np.any(np.diff(t) <= 0) or t[0] <= 0:
            raise ValueError("thresholds must be positive and increasing")
        if np.any(np.diff(v) > 1e-12 * max(v[0], 1.0)):
            raise ValueError("superlevel volumes must be nonincreasing in t")
        object.__setattr__(self, "thresholds", t)
        object.__setattr__(self, "superlevel_volumes", np.maximum(v, 0.0))


def level_profile(f: DensityModel, levels: int = 1000) -> LevelProfile:
    """Exact |{f > t}| on a geometric level grid, from the model's
    superlevel_volumes; ValueError where it has no exact answer."""
    if levels < 2:
        raise ValueError("levels must be at least 2")
    sup = f.sup
    if sup <= 0:
        raise ValueError("cannot rearrange a zero density")
    ts = np.geomspace(LEVEL_FLOOR * sup, sup, levels)
    volumes = f.superlevel_volumes(ts)
    if volumes is None:
        raise ValueError(f"{type(f).__name__} has no exact superlevel "
                         "volumes")
    return LevelProfile(ts, volumes)


def rearrangement(f: DensityModel, levels: int = 1000) -> RadialGridDensity:
    """Symmetric decreasing rearrangement of f as a radial step density.

    Level j of the grid owns the shell between the ball radii of the
    adjacent superlevel sets; the shell inherits the upper level as its
    height, so superlevel volumes of the output match the profile exactly
    and the top shell carries sup f itself.
    """
    profile = level_profile(f, levels)
    ts = profile.thresholds
    radii = (profile.superlevel_volumes / unit_ball_volume(f.n)) ** (1.0 / f.n)
    # radii are nonincreasing in t; walk outward from the center.
    edges = np.concatenate([[0.0], radii[::-1]])
    heights = np.concatenate([[ts[-1]], ts[::-1][:-1]])
    keep = np.diff(edges) > 0
    if not np.any(keep):
        raise ValueError("degenerate profile: all superlevel sets are null")
    edges = np.concatenate([[0.0], edges[1:][keep]])
    return RadialGridDensity(f.n, edges, heights[keep])
