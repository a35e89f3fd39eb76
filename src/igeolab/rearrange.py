"""Symmetric decreasing rearrangement of a density.

The rearrangement f* replaces each superlevel set {f > t} by the centered
open ball of the same volume and stacks the layers back up.  Every family
here has f* in closed form (Lieb-Loss, Analysis, ch. 3), so f* is exact:
no level grid, and its mass and sup are f's to rounding.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import unit_ball_volume
from .densities import DensityModel, EllipsoidIndicator, GaussianDensity, \
    ProductDensity, PushforwardDensity, RadialGridDensity, TruncatedGaussian

__all__ = ["rearrangement"]


def rearrangement(f: DensityModel) -> DensityModel:
    """Symmetric decreasing rearrangement f* of f, in closed form.

    An ellipsoid becomes the centered ball of the same volume and
    amplitude, N(mu, Sigma) becomes N(0, det(Sigma)^(1/n) I), a truncated
    Gaussian is recentered, radial grids and products (box by box) become
    centered radial step densities, and a pushforward takes its base's f*
    (the map preserves volume).  ValueError naming the family otherwise.
    """
    if isinstance(f, PushforwardDensity):
        return rearrangement(f.base)
    if isinstance(f, EllipsoidIndicator):
        logdet = np.linalg.slogdet(f.shape_matrix)[1]
        return EllipsoidIndicator.ball(f.n, math.exp(-0.5 * logdet / f.n),
                                       amplitude=f.amplitude)
    if isinstance(f, GaussianDensity):
        scale = math.exp(np.linalg.slogdet(f.cov)[1] / f.n)
        return GaussianDensity(np.zeros(f.n), scale * np.eye(f.n),
                               f.amplitude)
    if isinstance(f, TruncatedGaussian):
        return TruncatedGaussian(np.zeros(f.n), f.tau, f.radius, f.amplitude)
    if isinstance(f, RadialGridDensity):
        return _shells(f.n, f.heights, f.shell_volumes())
    if isinstance(f, ProductDensity):
        return _shells(f.n, *f._box_values())
    raise ValueError(f"{type(f).__name__} has no closed-form rearrangement")


def _shells(n: int, values: np.ndarray, volumes: np.ndarray):
    """The centered radial step density with one shell per distinct
    positive value of a step density whose pieces have those values and
    volumes, heights decreasing outward: the shell of value v holds the
    volume of every piece at v, so |{f* > t}| = |{f > t}| at every t."""
    distinct, piece = np.unique(values, return_inverse=True)
    heights = distinct[::-1]
    shell = np.bincount(piece, weights=volumes)[::-1]
    live = heights > 0.0
    if not live.any():
        raise ValueError("cannot rearrange a zero density")
    radii = (np.cumsum(shell[live]) / unit_ball_volume(n)) ** (1.0 / n)
    return RadialGridDensity(n, np.concatenate([[0.0], radii]), heights[live])
