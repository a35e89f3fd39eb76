"""Symmetric decreasing rearrangement."""

import numpy as np
import pytest

from igeolab.densities import (EllipsoidIndicator, ProductDensity,
                               RadialGridDensity, Step1D)
from igeolab.rearrange import LevelProfile, level_profile, rearrangement


def bimodal(n=2):
    # two unequal bumps per axis; nothing radial about it
    fx = Step1D.uniform(-0.5, 0.5, [2.0, 0.2, 1.4, 0.4])
    fy = Step1D.uniform(-0.5, 0.5, [0.5, 1.5])
    factors = [fx, fy] + [Step1D.uniform(-0.5, 0.5, [1.0])] * (n - 2)
    return ProductDensity(factors)


def test_radial_density_is_a_fixed_point():
    f = RadialGridDensity(2, np.array([0.0, 0.4, 1.0]), np.array([2.0, 0.5]))
    g = rearrangement(f, levels=400)
    r = np.linspace(0.01, 1.2, 50)
    pts = np.column_stack([r, np.zeros_like(r)])
    # away from the two shell edges the rearrangement reproduces f up to
    # the geometric level grid (one step is about 2.5 percent at 400 levels)
    off_edge = (np.abs(r - 0.4) > 0.02) & (np.abs(r - 1.0) > 0.02)
    assert np.allclose(g.eval_many(pts)[off_edge], f.eval_many(pts)[off_edge],
                       rtol=0.03)


def test_ball_is_a_fixed_point():
    b = EllipsoidIndicator.ball(2, radius=0.7, amplitude=1.0)
    g = rearrangement(b, levels=200)
    assert g.support_radius == pytest.approx(0.7, rel=1e-6)
    assert g.sup == pytest.approx(1.0)
    assert g.mass == pytest.approx(b.mass, rel=1e-6)


def test_rearrangement_preserves_mass_and_sup():
    f = bimodal()
    g = rearrangement(f, levels=1000)
    assert g.sup == pytest.approx(f.sup, rel=1e-12)   # top shell carries sup f
    assert g.mass == pytest.approx(f.mass, rel=0.01)  # layer cake at 1e3 levels
    # monotone decreasing profile
    r = np.linspace(0.0, g.support_radius * 0.999, 200)
    vals = g.eval_many(np.column_stack([r, np.zeros_like(r)]))
    assert np.all(np.diff(vals) <= 1e-12)


def test_rearrangement_equimeasurable():
    f = bimodal()
    g = rearrangement(f, levels=1000)
    ts = np.geomspace(0.05 * f.sup, 0.999 * f.sup, 37)
    vf = f.superlevel_volumes(ts)    # exact box enumeration
    vg = g.superlevel_volumes(ts)
    # grid snap: each level lands within one grid step of its target volume
    assert np.allclose(vf, vg, rtol=0.02, atol=1e-3)


def over_cap_product(rng):
    # enough bins that box enumeration refuses and Monte Carlo levels kick in
    h1 = 0.5 + rng.random(700)
    h2 = 0.5 + rng.random(600)
    f = ProductDensity([Step1D.uniform(-0.5, 0.5, h1),
                        Step1D.uniform(-0.5, 0.5, h2)])
    assert f.superlevel_volumes(np.array([0.5, 1.0])) is None
    return f, h1, h2


def test_mc_profile_matches_exact(rng):
    f, h1, h2 = over_cap_product(rng)
    prof = level_profile(f, levels=50, samples_per_level=4000, rng=rng)
    # ground truth by brute-force box enumeration done here instead
    vals = np.multiply.outer(h1, h2).ravel()
    box_vol = (1.0 / h1.size) * (1.0 / h2.size)
    order = np.argsort(vals)
    tail = box_vol * np.arange(vals.size, 0, -1)
    exact = np.array([tail[np.searchsorted(vals[order], t, side="right")]
                      if t < vals[order][-1] else 0.0
                      for t in prof.thresholds])
    dev = np.abs(prof.superlevel_volumes - exact)
    band = 3.0 * prof.volume_stderr + 1e-9
    frac_inside = float(np.mean(dev <= band))
    assert frac_inside > 0.9, f"only {frac_inside:.2f} of levels inside 3 sigma"


def test_level_profile_validation(rng):
    f = bimodal()
    with pytest.raises(ValueError):
        level_profile(f, levels=1)
    g, _, _ = over_cap_product(rng)
    with pytest.raises(ValueError):
        level_profile(g, levels=10)  # MC family without rng/samples


def test_level_profile_rejects_zero():
    z = EllipsoidIndicator.ball(2, amplitude=0.0)
    with pytest.raises(ValueError):
        level_profile(z, levels=10)


def test_levelprofile_constructor_guards():
    with pytest.raises(ValueError):
        LevelProfile(np.array([1.0, 0.5]), np.array([1.0, 2.0]))   # t not increasing
    with pytest.raises(ValueError):
        LevelProfile(np.array([0.5, 1.0]), np.array([1.0, 2.0]))   # vols increasing
    with pytest.raises(ValueError):
        LevelProfile(np.array([0.5]), np.array([1.0]))             # too short
