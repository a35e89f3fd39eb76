"""Symmetric decreasing rearrangement of a density.

The rearrangement f* replaces each superlevel set {f > t} by the centered
open ball of the same volume and stacks the layers back up.  We discretize
the layer integral on a geometric grid of levels between sup*1e-6 and sup
and store the result as a radial step density.  Heights are assigned so
that |{f* > t}| reproduces the measured superlevel volume exactly at every
grid level, which also keeps the sup of the profile equal to sup f.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import unit_ball_volume
from .densities import DensityModel, RadialGridDensity, _sorted_tail_volumes
from .grassmann import uniform_ball

LEVEL_FLOOR = 1e-6       # bottom of the level grid, relative to sup f

__all__ = ["LevelProfile", "level_profile", "rearrangement"]


@dataclass(frozen=True)
class LevelProfile:
    """Superlevel volumes |{f > t}| on an increasing grid of levels."""

    thresholds: np.ndarray
    superlevel_volumes: np.ndarray
    volume_stderr: np.ndarray | None = None

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


def level_profile(f: DensityModel, levels: int = 1000,
                  samples_per_level: int | None = None,
                  rng: np.random.Generator | None = None) -> LevelProfile:
    """Measure |{f > t}| on a geometric level grid.

    Uses the model's exact superlevel volumes when available.  Otherwise
    draws one shared uniform sample on the support ball and reads all
    levels off the sorted values, so the whole profile costs a single
    pass of levels * samples_per_level evaluations.
    """
    if levels < 2:
        raise ValueError("levels must be at least 2")
    sup = f.sup
    if sup <= 0:
        raise ValueError("cannot rearrange a zero density")
    ts = np.geomspace(LEVEL_FLOOR * sup, sup, levels)
    exact = f.superlevel_volumes(ts)
    if exact is not None:
        return LevelProfile(ts, exact)
    if samples_per_level is None or rng is None:
        raise ValueError("this family needs Monte Carlo levels: "
                         "pass samples_per_level and rng")
    radius = f.support_radius
    if math.isinf(radius):
        raise ValueError("unbounded support with no exact superlevel volumes")
    total = levels * samples_per_level
    box = unit_ball_volume(f.n) * radius ** f.n
    vals = f.eval_many(uniform_ball(f.n, total, rng) * radius)
    weights = np.full(total, box / total)
    vols = _sorted_tail_volumes(vals, weights, ts)
    frac = vols / box
    stderr = box * np.sqrt(frac * (1.0 - frac) / total)
    return LevelProfile(ts, vols, stderr)


def rearrangement(f: DensityModel, levels: int = 1000,
                  samples_per_level: int | None = None,
                  rng: np.random.Generator | None = None) -> RadialGridDensity:
    """Symmetric decreasing rearrangement of f as a radial step density.

    Level j of the grid owns the shell between the ball radii of the
    adjacent superlevel sets; the shell inherits the upper level as its
    height, so superlevel volumes of the output match the profile exactly
    and the top shell carries sup f itself.
    """
    profile = level_profile(f, levels, samples_per_level, rng)
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
