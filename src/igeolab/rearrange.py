"""Symmetric decreasing rearrangement of a density: f* replaces each
superlevel set {f > t} by the centered open ball of the same volume
(Lieb-Loss, Analysis, ch. 3).  Each family states its own f* in closed
form (DensityModel.rearrangement); this is the one public entry point."""

from __future__ import annotations

from .densities import DensityModel

__all__ = ["rearrangement"]


def rearrangement(f: DensityModel) -> DensityModel:
    """f* of f, in closed form, so no level grid: f.rearrangement(), or
    ValueError naming the family where it has none."""
    return f.rearrangement()
