"""Density families: sections, marginals, superlevel sets, samplers.

Closed-form oracles here were derived by hand (chord lengths, Gaussian
section formulas, disk areas) and Monte Carlo cross-checks run at fixed
seeds with 3-sigma bands.
"""

import ast
import io
import itertools
import math
import pathlib

import numpy as np
import pytest
from scipy import stats

from igeolab import densities
from igeolab.densities import (DensityModel, EllipsoidIndicator,
                               GaussianDensity, ProductDensity,
                               PushforwardDensity, RadialGridDensity, Step1D,
                               TruncatedGaussian, _uniform_ball, affine_image,
                               section_stats)
from igeolab.geometry import _row_norms, unit_ball_volume
from igeolab.grassmann import haar_bases
from igeolab.rearrange import rearrangement
from igeolab.report import ParameterError


def line(*direction):
    v = np.asarray(direction, dtype=float)
    return (v / np.linalg.norm(v))[:, None]


def complement(E):
    """A basis of the orthogonal complement of span(E), (n, n - k)."""
    return np.linalg.qr(E, mode="complete")[0][:, E.shape[1]:]


def one_section(f, E, z=None, method="exact", rng=None):
    """(mass, sup, mass_stderr) of f on the flat z + span(E) (z = 0 by
    default), the one-row stack of section_stats."""
    z = np.zeros(len(E)) if z is None else z
    return [a[0] for a in section_stats(f, E[None], z[None], method, rng)]


# ---------------------------------------------------------------------------
# sections


def test_ball_chord():
    b2 = EllipsoidIndicator.ball(2)
    for t in (0.0, 0.3, 0.99):
        l1, sup, _ = one_section(b2, line(1, 0), np.array([0.0, t]))
        assert l1 == pytest.approx(2.0 * math.sqrt(1.0 - t * t), rel=1e-12)
        assert sup == pytest.approx(1.0)
    assert one_section(b2, line(1, 0), np.array([0.0, 1.5]))[0] == 0.0


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
    l1, sup, _ = one_section(g, line(1, 0, 0), z)
    d2 = float(z @ z)
    assert l1 == pytest.approx(
        (2 * math.pi) ** -1.0 * math.exp(-0.5 * d2), rel=1e-12)
    assert sup == pytest.approx(
        (2 * math.pi) ** -1.5 * math.exp(-0.5 * d2), rel=1e-12)


def test_gaussian_section_correlated(rng):
    # section of a correlated Gaussian through a random flat agrees with
    # brute-force quadrature along the flat
    cov = np.array([[2.0, 0.6], [0.6, 1.0]])
    g = GaussianDensity(np.array([0.3, -0.2]), cov)
    E = haar_bases(2, 1, 1, rng)[0]
    z = complement(E) @ np.array([0.7])
    l1, sup, _ = one_section(g, E, z)
    ts = np.linspace(-12, 12, 20001)
    pts = z[None, :] + ts[:, None] * E[:, 0][None, :]
    quad = np.trapezoid(g.eval_many(pts), ts)
    assert l1 == pytest.approx(quad, rel=1e-8)
    assert sup == pytest.approx(g.eval_many(pts).max(), rel=1e-4)


def test_truncated_gaussian_section_vs_mc(rng):
    f = TruncatedGaussian(np.array([0.2, -0.1, 0.4]), tau=0.8, radius=2.0)
    E = haar_bases(3, 2, 1, rng)[0]
    z = complement(E) @ np.array([0.5])
    l1, sup, _ = one_section(f, E, z, method="exact")
    l1_mc, sup_mc, l1_mc_err = one_section(f, E, z, ("mc", 60_000), rng)
    assert abs(l1 - l1_mc) <= 3.0 * l1_mc_err
    assert sup_mc <= sup * (1 + 1e-9)  # sampled max is biased low
    assert sup_mc >= 0.9 * sup


def test_product_line_section_exact(rng):
    f = ProductDensity([Step1D.uniform(-0.5, 0.5, [1.0, 3.0, 0.5]),
                        Step1D.uniform(-1.0, 1.0, [0.2, 2.0]),
                        Step1D.uniform(-0.5, 0.5, [1.0])])
    E = haar_bases(3, 1, 1, rng)[0]
    z = complement(E) @ np.array([0.05, -0.1])
    l1, sup, _ = one_section(f, E, z)
    ts = np.linspace(-2.5, 2.5, 100_001)
    pts = z[None, :] + ts[:, None] * E[:, 0][None, :]
    vals = f.eval_many(pts)
    riemann = vals.sum() * (ts[1] - ts[0])
    assert l1 == pytest.approx(riemann, rel=2e-3)
    assert sup == pytest.approx(vals.max(), rel=1e-9)


def test_product_aligned_plane_section():
    # product sections are exact on lines only: a plane section raises,
    # coordinate-aligned or tilted, and names the family and dimension
    f = ProductDensity([Step1D.uniform(-0.5, 0.5, [1.0, 2.0]),
                        Step1D.uniform(-0.5, 0.5, [3.0, 1.0]),
                        Step1D.uniform(-1.0, 1.0, [0.5, 1.5])])
    aligned = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
    tilted = np.linalg.qr(np.array([[1.0, 0.2], [0.4, 1.0], [0.1, 0.3]]))[0]
    for E in (aligned, tilted):
        with pytest.raises(ValueError, match="ProductDensity has no exact "
                           "sections of dimension 2"):
            one_section(f, E)
        with pytest.raises(ValueError, match="dimension 2"):
            f.slice_stats_batch(E[None], np.zeros((1, 3)))


# ---------------------------------------------------------------------------
# marginals: the marginal of f on E at x is the mass of its fiber x + E-perp


def test_ball_marginal_is_disk_area(rng):
    b3 = EllipsoidIndicator.ball(3)
    E = line(1, 0, 0)
    for t in (0.0, 0.4, 0.9):
        x = np.array([t, 0.0, 0.0]) @ E @ E.T
        mass, _, stderr = one_section(b3, complement(E), x)
        assert mass == pytest.approx(math.pi * (1 - t * t), rel=1e-12)
        assert stderr == 0.0


def test_gaussian_marginal_is_gaussian(rng):
    g = GaussianDensity.standard(4)
    E = haar_bases(4, 2, 1, rng)[0]
    u = np.array([0.3, -1.1])
    x = u @ E.T
    foot = x @ E @ E.T
    assert one_section(g, complement(E), foot)[0] == pytest.approx(
        (2 * math.pi) ** -1.0 * math.exp(-0.5 * float(u @ u)), rel=1e-10)


# ---------------------------------------------------------------------------
# superlevel sets: |{f > t}| from the family's closed form, or summed over
# its pieces, against |{f* > t}| measured on the rearrangement alone


def star_volumes(f, ts):
    """|{f* > t}| at each level of ts, for f* = rearrangement(f).  f* is
    radial and decreasing, so {f* > t} is the centered ball whose radius
    100 bisection steps along the first axis find from f*.eval_many."""
    g = rearrangement(f)
    ts = np.asarray(ts, dtype=float)
    lo = np.zeros(ts.shape)
    hi = np.full(ts.shape, 2.0 * g.support_radius
                 if math.isfinite(g.support_radius) else 50.0)
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        pts = np.zeros((mid.size, g.n))
        pts[:, 0] = mid.ravel()
        above = g.eval_many(pts).reshape(ts.shape) > ts
        lo, hi = np.where(above, mid, lo), np.where(above, hi, mid)
    return unit_ball_volume(g.n) * lo ** g.n


def test_gaussian_superlevel_volume():
    cov = np.array([[1.5, 0.3], [0.3, 0.8]])
    g = GaussianDensity(np.zeros(2), cov, amplitude=2.0)
    for frac in (0.9, 0.5, 0.1):
        t = frac * g.sup
        expected = (unit_ball_volume(2) * math.sqrt(np.linalg.det(cov))
                    * (2 * math.log(g.sup / t)))
        assert star_volumes(g, t) == pytest.approx(expected, rel=1e-12)
    assert star_volumes(g, g.sup) == 0.0


def test_indicator_superlevel_volume():
    e = EllipsoidIndicator(np.diag([1.0, 4.0]), amplitude=0.5)
    assert star_volumes(e, 0.1) == pytest.approx(e.mass / 0.5, rel=1e-12)
    assert star_volumes(e, 0.5) == 0.0


def test_product_superlevel_volumes_match_boxes():
    heights = [[1.0, 3.0], [2.0, 0.5, 1.0], [0.5, 2.5]]
    f = ProductDensity([Step1D.uniform(-0.5, 0.5, h) for h in heights])
    boxes = [math.prod(c) for c in itertools.product(*heights)]
    ts = np.array([0.2, 0.4, 0.9, 1.2, 1.9, 2.6, 4.0, 7.4, 7.6])
    expected = [sum(v > t for v in boxes) / len(boxes) for t in ts]
    np.testing.assert_allclose(star_volumes(f, ts), expected, rtol=1e-12)


def test_step1d_superlevel():
    # a step on the line is the one-factor product
    s = ProductDensity([Step1D(np.array([0.0, 1.0, 3.0]),
                               np.array([2.0, 0.5]))])
    assert star_volumes(s, 1.0) == pytest.approx(1.0, rel=1e-12)
    assert star_volumes(s, 0.4) == pytest.approx(3.0, rel=1e-12)
    assert star_volumes(s, 2.5) == 0.0


SUPERLEVEL_FAMILIES = {
    "ellipsoid": lambda: EllipsoidIndicator(np.diag([1.0, 4.0]), [0.2, 0.0],
                                            0.5),
    "gaussian": lambda: GaussianDensity(
        np.zeros(2), np.array([[1.5, 0.3], [0.3, 0.8]]), 2.0),
    "truncated": lambda: TruncatedGaussian(np.zeros(2), 0.7, 1.1, 1.5),
    "step": lambda: ProductDensity([Step1D(np.array([0.0, 1.0, 3.0]),
                                           np.array([2.0, 0.5]))]),
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
    vols = star_volumes(f, ts)
    assert vols.shape == ts.shape
    order = np.argsort(ts, axis=None)
    assert np.all(np.diff(vols.ravel()[order]) <= 0.0)
    assert np.all(vols[ts >= f.sup] == 0.0)
    assert np.all(vols[ts < f.sup] > 0.0)
    # the layer cake of f* stacks up f's mass and sup
    g = rearrangement(f)
    assert g.mass == pytest.approx(f.mass, rel=1e-12)
    assert g.sup == pytest.approx(f.sup, rel=1e-12)


def test_superlevel_volumes_default_is_none():
    # the base model declares no superlevel volumes, so it has no f* to
    # read them from
    assert getattr(DensityModel(), "superlevel_volumes", None) is None
    with pytest.raises(ValueError, match="DensityModel has no closed-form"):
        star_volumes(DensityModel(), [0.5, 1.0])


def test_superlevel_volumes_closed_forms():
    ts = np.array([0.05, 0.3, 0.5, 0.9])
    g = SUPERLEVEL_FAMILIES["gaussian"]()
    # {g > t} is the ellipsoid x^T cov^-1 x < 2 log(sup / t)
    rho = 2.0 * np.log(1.0 / ts)
    expected = unit_ball_volume(2) * math.sqrt(np.linalg.det(g.cov)) * rho
    np.testing.assert_allclose(star_volumes(g, ts * g.sup), expected,
                               rtol=1e-12)
    h = SUPERLEVEL_FAMILIES["truncated"]()
    # a disk of radius tau sqrt(rho), cut at the truncation radius
    expected = math.pi * np.minimum(0.7 ** 2 * rho, 1.1 ** 2)
    np.testing.assert_allclose(star_volumes(h, ts * h.sup), expected,
                               rtol=1e-12)
    assert expected[0] == pytest.approx(math.pi * 1.1 ** 2)


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
    z = img.center - img.center @ E @ E.T
    l1, sup, _ = one_section(img, E, z)
    ts = np.linspace(-img.support_radius, img.support_radius, 200_001)
    pts = z[None, :] + ts[:, None] * E[:, 0][None, :]
    vals = img.eval_many(pts)
    assert l1 > 0.0
    assert l1 == pytest.approx(np.trapezoid(vals, ts),
                               abs=2.0 * (ts[1] - ts[0]) * 2.0)
    assert sup == vals.max() == 2.0


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
    assert one_section(f, line(1, 1), method="exact")[0] >= 0  # line ok
    with pytest.raises(ValueError):
        one_section(img, np.eye(2)[:, :1], method="exact")


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


def reference_uniform_ball(dim, size, rng):
    """The independent-point ball sampler, (size, dim), formula for
    formula."""
    g = rng.standard_normal((size, dim))
    norms = _row_norms(g)
    norms[norms == 0.0] = 1.0
    radii = rng.random(size) ** (1.0 / dim)
    g /= norms[:, None]
    g *= radii[:, None]
    return g


def reference_stratified_ball(dim, shape, rng):
    """The stratified ball sampler of Monte Carlo section stats, shape +
    (dim,), formula for formula."""
    g = rng.standard_normal(shape + (dim,))
    g /= _row_norms(g)[..., None]
    strata = (np.arange(shape[-1]) + rng.random(shape)) / shape[-1]
    return g * strata[..., None] ** (1.0 / dim)


@pytest.mark.parametrize("dim", [1, 2, 3, 6])
def test_one_ball_sampler_matches_both_formulas_bit_for_bit(dim):
    for size in (1, 5, 1000):
        ours, ref = np.random.default_rng(dim), np.random.default_rng(dim)
        got = _uniform_ball(dim, (size, 1), ours)
        assert got.shape == (size, 1, dim)
        assert np.array_equal(got[:, 0], reference_uniform_ball(dim, size,
                                                                ref))
        assert ours.bit_generator.state == ref.bit_generator.state
    for shape in ((1, 64), (7, 5), (2, 3, 4)):
        ours, ref = np.random.default_rng(dim), np.random.default_rng(dim)
        assert np.array_equal(_uniform_ball(dim, shape, ours),
                              reference_stratified_ball(dim, shape, ref))
        assert ours.bit_generator.state == ref.bit_generator.state


def test_ball_sampler_maps_a_zero_draw_to_the_centre():
    class Zeros:
        def standard_normal(self, shape):
            return np.zeros(shape)

        def random(self, shape):
            return np.full(shape, 0.5)

    assert np.array_equal(_uniform_ball(3, (4, 1), Zeros()),
                          np.zeros((4, 1, 3)))


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
    assert star_volumes(f, 1.5) == pytest.approx(math.pi / 4, rel=1e-12)
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
        one_section(b, line(1, 0), method=("mc", 1), rng=rng)
    with pytest.raises(ValueError):
        one_section(b, line(1, 0), method=("mc", 100))  # rng missing


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


def test_package_all_is_pinned():
    # the public surface, spelled out: a name added to or dropped from
    # igeolab.__all__ must be edited here as well
    import igeolab
    assert igeolab.__all__ == [
        "CheckJob", "CheckReport", "ConfigError", "DensityModel",
        "EllipsoidIndicator", "Estimate", "ExponentSpec", "GaussianDensity",
        "ProductDensity", "RadialGridDensity", "RunConfig", "Step1D",
        "TruncatedGaussian", "affine_average_I", "affine_image",
        "build_density", "check_affine_invariance", "check_bp_flat",
        "check_bp_subspace", "check_grinberg_functional",
        "check_linear_invariance", "check_names",
        "check_rearrangement_monotonicity", "check_schneider_functional",
        "flat_frames", "gaussian_sharpness_experiment",
        "grassmann_average_I", "haar_bases", "load_config",
        "marginal_bound_experiment", "mc_estimate", "perturb_subspace",
        "perturbation_experiment", "rearrangement", "run_suite",
        "simplex_moment", "subspace_frames", "unit_ball_volume",
        "unit_volume_radius"]


def test_package_all_names_no_modules():
    # `from igeolab import *` must not bind submodules such as
    # igeolab.rng over the name every example gives its generator
    import types

    import igeolab
    assert not [name for name in igeolab.__all__
                if isinstance(getattr(igeolab, name), types.ModuleType)]
    assert "kplane_transform" not in igeolab.__all__
    # the one-flat API beside section_stats is gone
    assert not {"Flat", "marginal_density", "restriction_stats",
                "section_norm", "simplex0_volume", "simplex_volume",
                "small_ball_probability"} & set(igeolab.__all__)
    # one simplex-moment function and the linear frame sampler replace
    # the two moment functions
    assert not {"delta0_p", "delta_p"} & set(igeolab.__all__)
    assert {"simplex_moment", "subspace_frames"} <= set(igeolab.__all__)
    scope = {}
    exec("from igeolab import *", scope)
    assert "rng" not in scope and "GaussianDensity" in scope


RADIAL = RadialGridDensity(3, [0.0, 0.4, 1.1, 1.7], [0.9, 1.6, 0.3])


@pytest.mark.parametrize("f, want", [
    (GaussianDensity(np.zeros(3), 1.7 * np.eye(3), 0.6),
     [2.0806283791440396, 5.1000000000000005, 0.6119495232776587,
      1.4082178580852052, 1.0]),
    (EllipsoidIndicator.ball(3, 1.3, amplitude=0.4),
     [0.9750000000000001, 1.014, 1.1538461538461537, 0.9772932215135468,
      1.0]),
    (TruncatedGaussian(np.zeros(3), 0.8, 1.5, 2.0),
     [0.9828518472012405, 1.068070818904799, 1.21156612077972, None, 1.0]),
    (RADIAL,
     [1.0423751345192123, 1.2051780717857818, 1.105273153130341,
      1.0060184376308363, 1.0]),
    (GaussianDensity(np.zeros(3), np.diag([1.0, 1.0, 2.0])), [None] * 5),
    (GaussianDensity([0.0, 0.0, 0.1], np.eye(3)), [None] * 5),
    (EllipsoidIndicator.ball(3, center=[0.1, 0.0, 0.0]), [None] * 5),
    (EllipsoidIndicator(np.diag([1.0, 2.0, 1.0])), [None] * 5),
    (TruncatedGaussian([0.0, 0.1, 0.0], 0.8, 1.5), [None] * 5),
    (ProductDensity([Step1D.uniform(-1.0, 1.0, [1.0])] * 3), [None] * 5),
    (Step1D.uniform(-1.0, 1.0, [1.0]), [None] * 5),
    (PushforwardDensity(RADIAL, np.eye(3), np.zeros(3)), [None] * 5),
    (RadialGridDensity(3, [0.0, 1.0], [0.0]), [None] * 5),
], ids=["gaussian", "ball", "truncated", "radial", "anisotropic-gaussian",
        "shifted-gaussian", "shifted-ball", "ellipsoid", "shifted-truncated",
        "product", "step", "pushforward", "zero-radial"])
def test_radial_moment_pins(f, want):
    # E|X|^p at p = 1, 2, -1, 1/2 and 0, bit for bit; a truncated Gaussian
    # needs n + p integer.  At p = 0 it is 1 for every law rotation
    # invariant about 0, and None for every other input: the symmetry
    # test of the section-norm averages.  Zero heights have no law.
    assert [f.radial_moment(p) for p in (1.0, 2.0, -1.0, 0.5, 0.0)] == want


def test_family_closed_forms_stay_in_densities():
    # outside densities.py no module asks which family a density is, and
    # none reaches into a family's private members
    families = {name for name, cls in vars(densities).items()
                if isinstance(cls, type) and issubclass(cls, DensityModel)}
    source = pathlib.Path(densities.__file__).read_text()
    private = {node.attr for node in ast.walk(ast.parse(source))
               if isinstance(node, ast.Attribute)
               and isinstance(node.value, ast.Name) and node.value.id == "self"
               and node.attr.startswith("_")
               and not node.attr.startswith("__")}
    private |= {attr for name in families
                for attr in vars(getattr(densities, name))
                if attr.startswith("_") and not attr.startswith("__")}
    found = []
    for path in pathlib.Path(densities.__file__).parent.glob("*.py"):
        if path.name == "densities.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) \
                    and getattr(node.func, "id", None) == "isinstance" \
                    and {getattr(n, "id", getattr(n, "attr", None))
                         for n in ast.walk(node.args[1])} & families:
                found.append(f"{path.name}:{node.lineno} isinstance")
            if isinstance(node, ast.Attribute) and node.attr in private:
                found.append(f"{path.name}:{node.lineno} .{node.attr}")
    assert not found
