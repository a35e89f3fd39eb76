"""Symmetric decreasing rearrangement, in closed form for every family."""

import math

import numpy as np
import pytest

from igeolab.densities import (DensityModel, EllipsoidIndicator,
                               GaussianDensity, ProductDensity,
                               PushforwardDensity, RadialGridDensity, Step1D,
                               TruncatedGaussian)
from igeolab.geometry import unit_ball_volume
from igeolab.rearrange import rearrangement


def bimodal(n=2):
    # two unequal bumps per axis; nothing radial about it
    fx = Step1D.uniform(-0.5, 0.5, [2.0, 0.2, 1.4, 0.4])
    fy = Step1D.uniform(-0.5, 0.5, [0.5, 1.5])
    factors = [fx, fy] + [Step1D.uniform(-0.5, 0.5, [1.0])] * (n - 2)
    return ProductDensity(factors)


def shell_volumes_above(g, ts):
    """|{g > t}| of a centered radial step density with heights decreasing
    outward, read off its shell edges."""
    count = (g.heights[None, :] > np.asarray(ts)[:, None]).sum(axis=1)
    return unit_ball_volume(g.n) * g.edges[count] ** g.n


def test_radial_density_is_a_fixed_point():
    f = RadialGridDensity(3, np.array([0.0, 0.4, 0.7, 1.0]),
                          np.array([2.0, 0.5, 0.25]))
    g = rearrangement(f)
    assert isinstance(g, RadialGridDensity) and g.n == 3
    np.testing.assert_allclose(g.edges, f.edges, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(g.heights, f.heights, rtol=1e-12)


def test_ball_is_a_fixed_point():
    b = EllipsoidIndicator.ball(2, radius=0.7, amplitude=1.0)
    g = rearrangement(b)
    assert isinstance(g, EllipsoidIndicator)
    assert g.support_radius == pytest.approx(0.7, rel=1e-12)
    assert g.sup == 1.0
    assert g.mass == pytest.approx(b.mass, rel=1e-12)


def test_rearrangement_preserves_mass_and_sup():
    f = bimodal()
    g = rearrangement(f)
    assert g.sup == pytest.approx(f.sup, rel=1e-12)
    assert g.mass == pytest.approx(f.mass, rel=1e-12)
    # one shell per distinct box value, heights decreasing outward
    assert g.heights.size == 8 and g.edges[0] == 0.0
    assert np.all(np.diff(g.heights) < 0.0)


def test_rearrangement_equimeasurable():
    # box values 6, 2, 1.5 and 0.5, each of volume 1/4
    f = ProductDensity([Step1D.uniform(-0.5, 0.5, [1.0, 3.0]),
                        Step1D.uniform(-0.5, 0.5, [2.0, 0.5])])
    g = rearrangement(f)
    np.testing.assert_array_equal(g.heights, [6.0, 2.0, 1.5, 0.5])
    np.testing.assert_allclose(unit_ball_volume(2) * g.edges ** 2,
                               [0.0, 0.25, 0.5, 0.75, 1.0], rtol=1e-12,
                               atol=1e-15)
    ts = np.array([0.4, 0.9, 1.9, 2.5, 5.9, 6.1])
    np.testing.assert_allclose(shell_volumes_above(g, ts),
                               [1.0, 0.75, 0.5, 0.25, 0.25, 0.0], rtol=1e-12)


def test_ellipsoid_becomes_the_ball_of_its_volume():
    shape = np.array([[1.5, 0.2, 0.0], [0.2, 0.8, -0.1], [0.0, -0.1, 1.1]])
    f = EllipsoidIndicator(shape, [0.4, -0.2, 0.1], amplitude=0.6)
    g = rearrangement(f)
    radius = np.linalg.det(shape) ** (-1.0 / 6.0)
    np.testing.assert_allclose(g.shape_matrix, np.eye(3) / radius ** 2,
                               rtol=1e-12)
    np.testing.assert_array_equal(g.center, np.zeros(3))
    assert g.amplitude == 0.6
    assert g.mass == pytest.approx(f.mass, rel=1e-12)


def test_gaussian_becomes_isotropic_and_centered():
    cov = np.array([[1.5, 0.3], [0.3, 0.8]])
    f = GaussianDensity([0.5, -1.0], cov, amplitude=2.0)
    g = rearrangement(f)
    np.testing.assert_array_equal(g.mean, np.zeros(2))
    np.testing.assert_allclose(g.cov, math.sqrt(np.linalg.det(cov))
                               * np.eye(2), rtol=1e-12)
    assert g.amplitude == 2.0
    assert g.sup == pytest.approx(f.sup, rel=1e-12)


def test_truncated_gaussian_is_recentered():
    f = TruncatedGaussian([0.3, -0.2, 0.5], 0.7, 1.1, 1.5)
    g = rearrangement(f)
    np.testing.assert_array_equal(g.center, np.zeros(3))
    assert (g.tau, g.radius, g.amplitude) == (0.7, 1.1, 1.5)
    assert (g.mass, g.sup) == (f.mass, f.sup)


def test_radial_shells_are_sorted_by_height():
    # a hole in the middle and heights rising outward: f* puts the tallest
    # shell at the center and drops the empty one
    f = RadialGridDensity(2, np.array([0.2, 0.5, 0.8, 1.0]),
                          np.array([1.0, 0.0, 3.0]))
    g = rearrangement(f)
    np.testing.assert_array_equal(g.heights, [3.0, 1.0])
    vols = f.shell_volumes()
    np.testing.assert_allclose(g.shell_volumes(), [vols[2], vols[0]],
                               rtol=1e-12)
    assert g.mass == pytest.approx(f.mass, rel=1e-12)


def test_product_on_the_line_becomes_a_symmetric_step():
    # uneven bins: an interval of length 1 at height 2, one of length 2 at 1/2
    s = ProductDensity([Step1D(np.array([0.0, 1.0, 3.0]),
                               np.array([2.0, 0.5]))])
    g = rearrangement(s)
    np.testing.assert_array_equal(g.heights, [2.0, 0.5])
    # the centered intervals of lengths 1 and 1 + 2
    np.testing.assert_allclose(g.edges, [0.0, 0.5, 1.5], rtol=1e-12)


def test_pushforward_takes_its_base_rearrangement():
    base = RadialGridDensity.uniform(2, 1.0, [1.0, 2.0])
    f = PushforwardDensity(base, np.array([[2.0, 0.0], [0.0, 0.5]]),
                           np.array([0.3, 0.0]))
    g, h = rearrangement(f), rearrangement(base)
    np.testing.assert_array_equal(g.edges, h.edges)
    np.testing.assert_array_equal(g.heights, h.heights)


def test_level_profile_validation(rng):
    # f* is built from the level profile t -> |{f > t}|, which must be
    # computable: enough bins that box enumeration refuses
    over_cap = ProductDensity([Step1D.uniform(-0.5, 0.5, 0.5 + rng.random(m))
                               for m in (700, 600)])
    with pytest.raises(ValueError, match="ProductDensity has 420000 boxes"):
        rearrangement(over_cap)
    for other in (DensityModel(), Step1D.uniform(-0.5, 0.5, [1.0, 2.0])):
        with pytest.raises(ValueError, match=f"{type(other).__name__} has "
                           "no closed-form rearrangement"):
            rearrangement(other)


def test_level_profile_rejects_zero():
    zero = RadialGridDensity.uniform(2, 1.0, [0.0, 0.0])
    with pytest.raises(ValueError, match="zero density"):
        rearrangement(zero)
