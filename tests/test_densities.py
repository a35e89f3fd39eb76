"""Density families: sections, marginals, superlevel sets, samplers, text IO.

Closed-form oracles here were derived by hand (chord lengths, Gaussian
section formulas, disk areas) and Monte Carlo cross-checks run at fixed
seeds with 3-sigma bands.
"""

import io
import math

import numpy as np
import pytest
from scipy import stats

from igeolab.densities import (DensityModel, EllipsoidIndicator,
                               GaussianDensity, ParameterError, ProductDensity,
                               PushforwardDensity, RadialGridDensity, Step1D,
                               TruncatedGaussian, affine_image,
                               marginal_density, restriction_stats,
                               write_density_text)
from igeolab.config import read_density_text
from igeolab.geometry import unit_ball_volume
from igeolab.grassmann import Flat, Subspace, sample_subspace


def line(*direction):
    v = np.asarray(direction, dtype=float)
    return Subspace((v / np.linalg.norm(v))[:, None])


# ---------------------------------------------------------------------------
# sections


def test_ball_chord():
    b2 = EllipsoidIndicator.ball(2)
    for t in (0.0, 0.3, 0.99):
        F = Flat(line(1, 0), np.array([0.0, t]))
        l1, sup = restriction_stats(b2, F)
        assert l1.value == pytest.approx(2.0 * math.sqrt(1.0 - t * t), rel=1e-12)
        assert sup.value == pytest.approx(1.0)
    F = Flat(line(1, 0), np.array([0.0, 1.5]))
    assert restriction_stats(b2, F)[0].value == 0.0


def test_ellipsoid_mass_and_eval():
    a, b = 2.0, 0.5
    e = EllipsoidIndicator(np.diag([1 / a ** 2, 1 / b ** 2]), amplitude=0.7)
    assert e.mass == pytest.approx(0.7 * math.pi * a * b, rel=1e-12)
    assert e.sup == 0.7
    assert e.eval_many(np.array([[1.9, 0.0], [2.1, 0.0]])).tolist() \
        == [0.7, 0.0]
    assert e.support_radius == pytest.approx(2.0)


def test_gaussian_section_closed_form():
    g = GaussianDensity.standard(3)
    z = np.array([0.0, 0.8, -0.3])          # perpendicular to e1
    l1, sup = restriction_stats(g, Flat(line(1, 0, 0), z))
    d2 = float(z @ z)
    assert l1.value == pytest.approx(
        (2 * math.pi) ** -1.0 * math.exp(-0.5 * d2), rel=1e-12)
    assert sup.value == pytest.approx(
        (2 * math.pi) ** -1.5 * math.exp(-0.5 * d2), rel=1e-12)


def test_gaussian_section_correlated(rng):
    # section of a correlated Gaussian through a random flat agrees with
    # brute-force quadrature along the flat
    cov = np.array([[2.0, 0.6], [0.6, 1.0]])
    g = GaussianDensity(np.array([0.3, -0.2]), cov)
    E = sample_subspace(2, 1, rng)
    z = E.complement.point(np.array([0.7]))
    l1, sup = restriction_stats(g, Flat(E, z))
    ts = np.linspace(-12, 12, 20001)
    pts = z[None, :] + ts[:, None] * E.basis[:, 0][None, :]
    quad = np.trapezoid(g.eval_many(pts), ts)
    assert l1.value == pytest.approx(quad, rel=1e-8)
    assert sup.value == pytest.approx(g.eval_many(pts).max(), rel=1e-4)


def test_truncated_gaussian_section_vs_mc(rng):
    f = TruncatedGaussian(np.array([0.2, -0.1, 0.4]), tau=0.8, radius=2.0)
    E = sample_subspace(3, 2, rng)
    z = E.complement.point(np.array([0.5]))
    F = Flat(E, z)
    l1, sup = restriction_stats(f, F, method="exact")
    l1_mc, sup_mc = restriction_stats(f, F, method=("mc", 60_000), rng=rng)
    assert abs(l1.value - l1_mc.value) <= 3.0 * l1_mc.stderr
    assert sup_mc.value <= sup.value * (1 + 1e-9)  # sampled max is biased low
    assert sup_mc.value >= 0.9 * sup.value


def test_product_line_section_exact(rng):
    f = ProductDensity([Step1D.uniform(-0.5, 0.5, [1.0, 3.0, 0.5]),
                        Step1D.uniform(-1.0, 1.0, [0.2, 2.0]),
                        Step1D.uniform(-0.5, 0.5, [1.0])])
    E = sample_subspace(3, 1, rng)
    z = E.complement.point(np.array([0.05, -0.1]))
    l1, sup = restriction_stats(f, Flat(E, z))
    ts = np.linspace(-2.5, 2.5, 100_001)
    pts = z[None, :] + ts[:, None] * E.basis[:, 0][None, :]
    vals = f.eval_many(pts)
    riemann = vals.sum() * (ts[1] - ts[0])
    assert l1.value == pytest.approx(riemann, rel=2e-3)
    assert sup.value == pytest.approx(vals.max(), rel=1e-9)


def test_product_aligned_plane_section():
    fx = Step1D.uniform(-0.5, 0.5, [1.0, 2.0])
    fy = Step1D.uniform(-0.5, 0.5, [3.0, 1.0])
    fz = Step1D.uniform(-1.0, 1.0, [0.5, 1.5])
    f = ProductDensity([fx, fy, fz])
    E = Subspace(np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]]))
    z = np.array([0.0, 0.2, 0.0])
    l1, sup = restriction_stats(f, Flat(E, z))
    # the middle factor is frozen at y = 0.2, where fy = 1.0
    assert l1.value == pytest.approx(fx.mass * fz.mass * 1.0, rel=1e-12)
    assert sup.value == pytest.approx(fx.sup * fz.sup * 1.0, rel=1e-12)
    # plane sections in a generic direction have no closed form
    tilted = Subspace(np.linalg.qr(np.array([[1.0, 0.2], [0.4, 1.0], [0.1, 0.3]]))[0])
    assert f.slice_stats_batch(tilted.basis[None], np.zeros((1, 3))) is None


# ---------------------------------------------------------------------------
# marginals


def test_ball_marginal_is_disk_area(rng):
    b3 = EllipsoidIndicator.ball(3)
    E = line(1, 0, 0)
    for t in (0.0, 0.4, 0.9):
        est = marginal_density(b3, E, np.array([t, 0.0, 0.0]))
        assert est.value == pytest.approx(math.pi * (1 - t * t), rel=1e-12)
        assert est.stderr == 0.0


def test_gaussian_marginal_is_gaussian(rng):
    g = GaussianDensity.standard(4)
    E = sample_subspace(4, 2, rng)
    u = np.array([0.3, -1.1])
    x = E.point(u)
    est = marginal_density(g, E, x)
    assert est.value == pytest.approx(
        (2 * math.pi) ** -1.0 * math.exp(-0.5 * float(u @ u)), rel=1e-10)


def test_marginal_rejects_points_off_subspace():
    g = GaussianDensity.standard(3)
    E = line(1, 0, 0)
    with pytest.raises(ValueError):
        marginal_density(g, E, np.array([0.5, 0.2, 0.0]))


# ---------------------------------------------------------------------------
# superlevel sets


def test_gaussian_superlevel_volume():
    cov = np.array([[1.5, 0.3], [0.3, 0.8]])
    g = GaussianDensity(np.zeros(2), cov, amplitude=2.0)
    for frac in (0.9, 0.5, 0.1):
        t = frac * g.sup
        vol = g.superlevel_volumes(t)
        expected = (unit_ball_volume(2) * math.sqrt(np.linalg.det(cov))
                    * (2 * math.log(g.sup / t)))
        assert vol == pytest.approx(expected, rel=1e-12)
    assert g.superlevel_volumes(g.sup) == 0.0


def test_indicator_superlevel_volume():
    e = EllipsoidIndicator(np.diag([1.0, 4.0]), amplitude=0.5)
    assert e.superlevel_volumes(0.1) == pytest.approx(e.mass / 0.5)
    assert e.superlevel_volumes(0.5) == 0.0


def test_product_superlevel_volumes_match_boxes():
    f = ProductDensity([Step1D.uniform(-0.5, 0.5, [1.0, 3.0]),
                        Step1D.uniform(-0.5, 0.5, [2.0, 0.5])])
    ts = np.array([0.4, 0.9, 1.9, 2.5, 5.9, 6.1])
    vols = f.superlevel_volumes(ts)
    # box values: 2, .5, 6, 1.5 each of volume 1/4
    expected = [1.0, 0.75, 0.5, 0.25, 0.25, 0.0]
    assert np.allclose(vols, expected)


def test_step1d_superlevel():
    s = Step1D(np.array([0.0, 1.0, 3.0]), np.array([2.0, 0.5]))
    assert s.superlevel_volumes(1.0) == 1.0
    assert s.superlevel_volumes(0.4) == 3.0
    assert s.superlevel_volumes(2.5) == 0.0


SUPERLEVEL_FAMILIES = {
    "ellipsoid": lambda: EllipsoidIndicator(np.diag([1.0, 4.0]), [0.2, 0.0],
                                            0.5),
    "gaussian": lambda: GaussianDensity(
        np.zeros(2), np.array([[1.5, 0.3], [0.3, 0.8]]), 2.0),
    "truncated": lambda: TruncatedGaussian(np.zeros(2), 0.7, 1.1, 1.5),
    "step": lambda: Step1D(np.array([0.0, 1.0, 3.0]), np.array([2.0, 0.5])),
    "product": lambda: ProductDensity([Step1D.uniform(-0.5, 0.5, [1.0, 3.0]),
                                       Step1D.uniform(-0.5, 0.5, [2.0, 0.5])]),
    "radial": lambda: RadialGridDensity.uniform(2, 1.0, [2.0, 1.0]),
    "pushforward": lambda: PushforwardDensity(
        RadialGridDensity.uniform(2, 1.0, [2.0, 1.0]),
        np.array([[2.0, 0.0], [0.0, 0.5]]), np.array([0.3, 0.0])),
}


@pytest.mark.parametrize("family", SUPERLEVEL_FAMILIES)
def test_superlevel_volumes_batched(family):
    f = SUPERLEVEL_FAMILIES[family]()
    ts = f.sup * np.array([[0.05, 0.3, 0.5, 0.9, 0.999],
                           [0.2, 0.6, 1.0, 1.5, 3.0]])
    vols = f.superlevel_volumes(ts)
    assert isinstance(vols, np.ndarray) and vols.shape == ts.shape
    order = np.argsort(ts, axis=None)
    assert np.all(np.diff(vols.ravel()[order]) <= 0.0)
    assert np.all(vols[ts >= f.sup] == 0.0)
    assert np.all(vols[ts < f.sup] > 0.0)


def test_superlevel_volumes_closed_forms():
    ts = np.array([0.05, 0.3, 0.5, 0.9])
    g = SUPERLEVEL_FAMILIES["gaussian"]()
    # {g > t} is the ellipsoid x^T cov^-1 x < 2 log(sup / t)
    rho = 2.0 * np.log(1.0 / ts)
    expected = unit_ball_volume(2) * math.sqrt(np.linalg.det(g.cov)) * rho
    assert np.allclose(g.superlevel_volumes(ts * g.sup), expected,
                       rtol=1e-12)
    h = SUPERLEVEL_FAMILIES["truncated"]()
    # a disk of radius tau sqrt(rho), cut at the truncation radius
    expected = math.pi * np.minimum(0.7 ** 2 * rho, 1.1 ** 2)
    assert np.allclose(h.superlevel_volumes(ts * h.sup), expected,
                       rtol=1e-12)
    assert expected[0] == pytest.approx(math.pi * 1.1 ** 2)


def test_superlevel_volumes_default_is_none():
    assert DensityModel().superlevel_volumes(np.array([0.5, 1.0])) is None


# ---------------------------------------------------------------------------
# affine images


def test_affine_image_gaussian_closed_form(rng):
    g = GaussianDensity(np.array([0.5, -0.5]), np.array([[1.0, 0.2], [0.2, 0.7]]))
    a_mat = np.array([[1.2, 0.3], [0.0, 1.0 / 1.2]])  # det 1
    shift = np.array([0.4, -1.0])
    img = affine_image(g, (a_mat, shift))
    assert isinstance(img, GaussianDensity)
    pts = rng.standard_normal((50, 2))
    pre = (pts - shift) @ np.linalg.inv(a_mat).T
    assert np.allclose(img.eval_many(pts), g.eval_many(pre), rtol=1e-10)
    assert img.mass == pytest.approx(g.mass, rel=1e-12)


def test_affine_image_rejects_volume_change():
    g = GaussianDensity.standard(2)
    with pytest.raises(ValueError):
        affine_image(g, (np.diag([2.0, 1.0]), None))


def test_pushforward_rejects_volume_change():
    # a pushforward reports its base's mass, so |det A| = 1 is a rule of
    # its constructor, not only of affine_image
    with pytest.raises(ParameterError, match="matrix"):
        PushforwardDensity(EllipsoidIndicator.ball(2), 2.0 * np.eye(2),
                           np.zeros(2))


def test_affine_image_ellipsoid(rng):
    e = EllipsoidIndicator.ball(3, radius=0.8, amplitude=2.0)
    a_mat = rng.standard_normal((3, 3)) + 3.0 * np.eye(3)
    a_mat /= abs(np.linalg.det(a_mat)) ** (1.0 / 3.0)
    img = affine_image(e, (a_mat, np.array([1.0, 0.0, -0.5])))
    assert isinstance(img, EllipsoidIndicator)
    assert img.mass == pytest.approx(e.mass, rel=1e-10)
    # sections of the image are still exact: the chord through its centre
    # along (1, 1, 0) against trapezoid quadrature of eval_many, which
    # errs by at most a step at each of the two boundary jumps
    E = line(1, 1, 0)
    z = img.center - E.point(E.coords(img.center))
    l1, sup = restriction_stats(img, Flat(E, z))
    ts = np.linspace(-img.support_radius, img.support_radius, 200_001)
    pts = z[None, :] + ts[:, None] * E.basis[:, 0][None, :]
    vals = img.eval_many(pts)
    assert l1.value > 0.0
    assert l1.value == pytest.approx(np.trapezoid(vals, ts),
                                     abs=2.0 * (ts[1] - ts[0]) * 2.0)
    assert sup.value == vals.max() == 2.0


def test_affine_image_fallback_pushforward(rng):
    f = ProductDensity([Step1D.uniform(-0.5, 0.5, [1.0, 2.0]),
                        Step1D.uniform(-0.5, 0.5, [1.0])])
    theta = 0.7
    rot = np.array([[math.cos(theta), -math.sin(theta)],
                    [math.sin(theta), math.cos(theta)]])
    img = affine_image(f, (rot, None))
    assert isinstance(img, PushforwardDensity)
    pts = rng.uniform(-0.7, 0.7, size=(200, 2))
    assert np.allclose(img.eval_many(pts), f.eval_many(pts @ rot), atol=1e-12)
    assert img.mass == pytest.approx(f.mass, rel=1e-12)
    # no closed-form sections through a rotated box
    assert restriction_stats(f, line(1, 1), method="exact")[0].value >= 0  # line ok
    with pytest.raises(ValueError):
        restriction_stats(img, Subspace(np.eye(2)[:, :1]), method="exact")


# ---------------------------------------------------------------------------
# samplers


def test_gaussian_sampler_moments(rng):
    cov = np.array([[1.0, 0.4], [0.4, 0.5]])
    g = GaussianDensity(np.array([1.0, -2.0]), cov)
    x = g.sample(100_000, rng)
    assert np.allclose(x.mean(axis=0), g.mean, atol=0.02)
    assert np.allclose(np.cov(x.T), cov, atol=0.02)


def test_ball_sampler_radial_law(rng):
    b3 = EllipsoidIndicator.ball(3, radius=2.0)
    x = b3.sample(50_000, rng)
    r = np.linalg.norm(x, axis=1) / 2.0
    assert r.max() <= 1.0 + 1e-12
    assert stats.kstest(r ** 3, "uniform").pvalue > 1e-3


def test_truncated_gaussian_sampler(rng):
    f = TruncatedGaussian(np.array([1.0, 0.0]), tau=0.7, radius=1.2)
    x = f.sample(50_000, rng)
    r = np.linalg.norm(x - f.center, axis=1)
    assert r.max() <= 1.2 + 1e-12
    cut = stats.chi2.cdf((1.2 / 0.7) ** 2, df=2)

    def cdf(s):
        return stats.chi2.cdf(np.square(s / 0.7), df=2) / cut

    assert stats.kstest(r, cdf).pvalue > 1e-3


def test_product_sampler_marginal(rng):
    fac = Step1D.uniform(-0.5, 0.5, [1.0, 3.0])
    f = ProductDensity([fac, Step1D.uniform(-0.5, 0.5, [1.0])])
    x = f.sample(40_000, rng)
    assert np.all((x >= -0.5) & (x <= 0.5))
    # first coordinate lands in the right-hand bin with probability 3/4
    frac = float(np.mean(x[:, 0] > 0.0))
    assert abs(frac - 0.75) < 4.0 * math.sqrt(0.75 * 0.25 / 40_000)
    pt = f.sample(1, rng)[0]
    assert pt.shape == (2,)


def test_radial_grid_density(rng):
    f = RadialGridDensity.uniform(2, 1.0, np.array([2.0, 1.0]))
    # mass = 2 * pi (1/2)^2 + 1 * pi (1 - 1/4)
    assert f.mass == pytest.approx(2 * math.pi / 4 + math.pi * 0.75, rel=1e-12)
    assert f.sup == 2.0
    assert f.superlevel_volumes(1.5) == pytest.approx(math.pi / 4)
    x = f.sample(20_000, rng)
    inner = float(np.mean(np.linalg.norm(x, axis=1) <= 0.5))
    expected = (2 * math.pi / 4) / f.mass
    assert abs(inner - expected) < 4.0 * math.sqrt(expected * (1 - expected) / 20_000)


# ---------------------------------------------------------------------------
# power


def test_power_pointwise(rng):
    g = GaussianDensity(np.zeros(2), np.diag([2.0, 0.5]), amplitude=1.3)
    g2 = g.power(2.5)
    pts = rng.standard_normal((100, 2))
    assert np.allclose(g2.eval_many(pts), g.eval_many(pts) ** 2.5, rtol=1e-10)
    e = EllipsoidIndicator.ball(2, amplitude=0.6)
    e3 = e.power(3.0)
    assert np.allclose(e3.eval_many(pts), e.eval_many(pts) ** 3.0, rtol=1e-12)


def test_power_of_zero_amplitude():
    for f in (GaussianDensity(np.zeros(2), np.eye(2), 0.0),
              TruncatedGaussian(np.zeros(2), 1.0, 1.0, 0.0)):
        g = f.power(2.0)
        assert type(g) is type(f)
        assert g.amplitude == 0.0 and g.mass == 0.0 and g.sup == 0.0


# ---------------------------------------------------------------------------
# text interchange


def test_text_roundtrip_radial():
    f = RadialGridDensity(3, np.linspace(0.0, 1.5, 4), np.array([2.0, 1.0, 0.25]))
    g = read_density_text(write_density_text(f))
    assert isinstance(g, RadialGridDensity)
    assert g.n == f.n
    assert np.array_equal(g.edges, f.edges)
    assert np.array_equal(g.heights, f.heights)
    pts = np.array([[0.1, 0, 0], [0.7, 0, 0], [1.4, 0, 0], [2.0, 0, 0]])
    assert np.allclose(g.eval_many(pts), f.eval_many(pts))


def test_text_roundtrip_product():
    f = ProductDensity([Step1D.uniform(-0.5, 0.5, [1.0, 2.0, 1.0]),
                        Step1D.uniform(-0.5, 0.5, [0.5, 1.5])])
    g = read_density_text(write_density_text(f))
    assert isinstance(g, ProductDensity)
    pts = np.array([[0.1, -0.2], [-0.4, 0.3], [0.9, 0.0]])
    assert np.allclose(g.eval_many(pts), f.eval_many(pts))


def test_text_rejects_bad_input():
    with pytest.raises(ValueError):
        read_density_text("")
    with pytest.raises(ValueError):
        read_density_text("radial n=2 R=1 bins=2\n1.0 -0.5")
    with pytest.raises(ValueError):
        read_density_text("sphere n=2\n1.0")
    with pytest.raises(ValueError):
        read_density_text("radial n=2 R=1 bins=3\n1.0 0.5")  # bin count mismatch


# ---------------------------------------------------------------------------
# validation


def test_constructor_validation():
    with pytest.raises(ValueError):
        EllipsoidIndicator(np.array([[1.0, 0.5], [0.4, 1.0]]))  # asymmetric
    with pytest.raises(ParameterError, match="shape"):
        EllipsoidIndicator(np.diag([1.0, -1.0]))                # not pd
    with pytest.raises(ValueError):
        TruncatedGaussian(np.zeros(2), tau=-1.0, radius=1.0)
    with pytest.raises(ValueError):
        Step1D.uniform(0.0, 0.0, [1.0])
    with pytest.raises(ValueError):
        Step1D(np.array([0.0, 1.0]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        RadialGridDensity(2, np.array([0.0, 1.0]), np.array([-1.0]))
    # amplitudes must be finite and non-negative; zero stays legal
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="amplitude"):
            TruncatedGaussian(np.zeros(2), 1.0, 1.0, bad)
        with pytest.raises(ValueError, match="amplitude"):
            GaussianDensity(np.zeros(2), np.eye(2), bad)
        with pytest.raises(ValueError, match="amplitude"):
            EllipsoidIndicator(np.eye(2), None, bad)
        with pytest.raises(ValueError, match="amplitude"):
            ProductDensity([Step1D.uniform(-0.5, 0.5, [1.0, 2.0])], bad)
    # degenerate scales, edges, grids, centres and means
    for tau, radius, name in ((math.nan, 1.0, "tau"),
                              (1.0, math.nan, "radius"),
                              (math.inf, 1.0, "tau")):
        with pytest.raises(ValueError, match=name):
            TruncatedGaussian(np.zeros(2), tau, radius)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="edges"):
            Step1D([0.0, bad], [1.0])
        with pytest.raises(ValueError, match="edges"):
            RadialGridDensity(2, [0.0, bad], [1.0])
        with pytest.raises(ValueError, match="center"):
            TruncatedGaussian([bad, 0.0], 1.0, 1.0)
        with pytest.raises(ValueError, match="cov"):
            GaussianDensity(np.zeros(2), np.diag([bad, 1.0]))
    with pytest.raises(ValueError, match="heights"):
        RadialGridDensity(2, [0.0], [])
    with pytest.raises(ValueError, match="n must"):
        RadialGridDensity(0, [0.0, 1.0], [1.0])
    with pytest.raises(ValueError, match="center"):
        EllipsoidIndicator(np.eye(2), [0.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="mean"):
        GaussianDensity([math.nan, 0.0], np.eye(2))
    # an infinite truncation radius is the untruncated Gaussian
    assert TruncatedGaussian(np.zeros(2), 1.0, math.inf).mass == 1.0
    assert TruncatedGaussian(np.zeros(2), 1.0, 1.0, 0.0).mass == 0.0
    assert GaussianDensity(np.zeros(2), np.eye(2), 0.0).mass == 0.0
    assert EllipsoidIndicator(np.eye(2), None, 0.0).mass == 0.0
    assert ProductDensity([Step1D.uniform(-0.5, 0.5, [1.0, 2.0])], 0.0).mass == 0.0


def test_restriction_stats_method_validation(rng):
    b = EllipsoidIndicator.ball(2)
    with pytest.raises(ValueError):
        restriction_stats(b, line(1, 0), method=("mc", 1), rng=rng)
    with pytest.raises(ValueError):
        restriction_stats(b, line(1, 0), method=("mc", 100))  # rng missing


def _loaded_by_import(module):
    """Whether a fresh `import igeolab` loads module, in a subprocess."""
    import os
    import subprocess
    import sys

    import igeolab
    src = os.path.dirname(os.path.dirname(igeolab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c",
         f"import sys, igeolab; print({module!r} in sys.modules)"],
        capture_output=True, text=True, check=True, env=env)
    return {"True": True, "False": False}[out.stdout.strip()]


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats costs a third of a second at import and nothing in the
    # package needs it
    assert not _loaded_by_import("scipy.stats")


def test_import_leaves_scipy_integrate_unloaded():
    # scipy.integrate costs about 0.2 s at import and nothing in the
    # package needs it
    assert not _loaded_by_import("scipy.integrate")


def test_package_all_names_no_modules():
    # `from igeolab import *` must not bind submodules such as
    # igeolab.rng over the name every example gives its generator
    import types

    import igeolab
    assert not [name for name in igeolab.__all__
                if isinstance(getattr(igeolab, name), types.ModuleType)]
    assert "kplane_transform" not in igeolab.__all__
    scope = {}
    exec("from igeolab import *", scope)
    assert "rng" not in scope and "GaussianDensity" in scope
