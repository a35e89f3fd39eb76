"""Property tests of the batched section stats of every exact family.

Each example draws a density of one family, a dimension and a stack of
flats from a numpy generator seeded by hypothesis, then checks the batched
stats row by row against three references: the one-row section model
``slice(S)``, trapezoid quadrature of ``eval_many`` along a line, and
(Fubini) quadrature over the parallel lines inside a plane.  The Monte
Carlo route of ``section_stats`` is checked against the exact rows, and the
batched sampler ``section_points`` against draws of the section models.
The closed-form section algebra of ellipsoids and Gaussians is checked
against an einsum and LAPACK reference on ill-conditioned shapes.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from igeolab.densities import (EllipsoidIndicator, GaussianDensity,
                               ProductDensity, RadialGridDensity, Step1D,
                               TruncatedGaussian, restriction_stats,
                               section_points, section_stats)
from igeolab.geometry import unit_ball_volume
from igeolab.grassmann import Flat, Subspace, haar_bases

FAMILIES = ["ellipsoid", "gaussian", "truncated", "radial", "product"]
BOUNDED = [f for f in FAMILIES if f != "gaussian"]
PROPERTY = settings(max_examples=15, deadline=None, derandomize=True)


def random_spd(n, rng):
    a = rng.normal(size=(n, n))
    return a @ a.T / n + 0.3 * np.eye(n)


def build(family, n, rng):
    amp = float(rng.uniform(0.5, 2.0))
    if family == "ellipsoid":
        return EllipsoidIndicator(random_spd(n, rng), 0.3 * rng.normal(size=n),
                                  amp)
    if family == "gaussian":
        return GaussianDensity(0.3 * rng.normal(size=n), random_spd(n, rng),
                               amp)
    if family == "truncated":
        return TruncatedGaussian(0.3 * rng.normal(size=n),
                                 float(rng.uniform(0.5, 1.2)),
                                 float(rng.uniform(1.0, 2.0)), amp)
    if family == "radial":
        bins = int(rng.integers(1, 5))
        inner = float(rng.choice([0.0, rng.uniform(0.1, 0.5)]))
        edges = inner + np.concatenate([[0.0], np.cumsum(
            rng.uniform(0.2, 0.6, bins))])
        return RadialGridDensity(n, edges, rng.uniform(0.0, 2.0, bins))
    factors = []
    for _ in range(n):
        bins = int(rng.integers(1, 5))
        lo = float(rng.uniform(-0.8, 0.0))
        factors.append(Step1D.uniform(lo, lo + float(rng.uniform(0.6, 1.6)),
                                      rng.uniform(0.0, 2.0, bins)))
    return ProductDensity(factors, amp)


def full_frames(n, k, count, rng):
    """Full frames (count, n, n): columns [:k] a Haar basis, the rest its
    orthogonal complement, from a complete QR of the basis."""
    bases = haar_bases(n, k, count, rng)
    q = np.linalg.qr(bases, mode="complete")[0]
    return np.concatenate([bases, q[..., k:]], axis=-1)


def flats(n, k, count, rng, aligned=False):
    """Bases (count, n, k) and perpendicular offsets (count, n)."""
    if aligned:
        frames = np.stack([np.eye(n)[:, rng.permutation(n)]
                           * rng.choice([-1.0, 1.0], n) for _ in range(count)])
    else:
        frames = full_frames(n, k, count, rng)
    coords = 0.6 * rng.normal(size=(count, n - k))
    offsets = np.einsum("snj,sj->sn", frames[:, :, k:], coords)
    return np.ascontiguousarray(frames[:, :, :k]), offsets


def half_width(f):
    """Half-length of a line segment through any flat that holds the mass."""
    r = f.support_radius
    if np.isfinite(r):
        return r
    return float(np.linalg.norm(f.mean)
                 + 12.0 * np.sqrt(np.linalg.eigvalsh(f.cov).max()))


def jump_count(f, family):
    """Bound on the jumps of f along a line (and of its line masses
    along a plane); each costs the trapezoid rule at most step * height."""
    if family == "gaussian":
        return 0
    if family == "product":
        return 2 * sum(fac.heights.size + 1 for fac in f.factors)
    return 12       # shell, cutoff and boundary crossings


def case(draw_seed, family, n, k, aligned):
    rng = np.random.default_rng(draw_seed)
    f = build(family, n, rng)
    return f, flats(n, k, 6, rng, aligned)


@PROPERTY
@given(seed=st.integers(0, 2 ** 32 - 1), family=st.sampled_from(FAMILIES),
       n=st.integers(2, 4), k=st.integers(1, 3), aligned=st.booleans())
def test_batch_rows_match_section_models(seed, family, n, k, aligned):
    k = min(k, n - 1)
    f, (bases, offsets) = case(seed, family, n, k, aligned)
    stats = f.slice_stats_batch(bases, offsets)
    models = [f.slice(Flat(Subspace(b), z)) for b, z in zip(bases, offsets)]
    if family == "product" and k >= 2 and not aligned:
        # only coordinate-aligned product sections have a closed form
        assert stats is None and all(m is None for m in models)
        return
    masses, sups = stats
    assert masses.shape == sups.shape == (len(bases),)
    for mass, sup, model in zip(masses, sups, models):
        assert model.n == k
        assert mass == pytest.approx(model.mass, rel=1e-9, abs=1e-300)
        assert sup == pytest.approx(model.sup, rel=1e-9, abs=1e-300)


@PROPERTY
@given(seed=st.integers(0, 2 ** 32 - 1), family=st.sampled_from(FAMILIES),
       n=st.integers(2, 4), aligned=st.booleans())
def test_line_mass_matches_quadrature(seed, family, n, aligned):
    f, (bases, offsets) = case(seed, family, n, 1, aligned)
    masses, sups = f.slice_stats_batch(bases, offsets)
    width = half_width(f)
    ts = np.linspace(-width, width, 40_001)
    step = ts[1] - ts[0]
    for b, z, mass, sup in zip(bases, offsets, masses, sups):
        vals = f.eval_many(z[None, :] + ts[:, None] * b[:, 0][None, :])
        assert mass == pytest.approx(np.trapezoid(vals, ts), rel=1e-6,
                                     abs=jump_count(f, family) * step * f.sup)
        assert sup >= vals.max() * (1.0 - 1e-12)


@PROPERTY
@given(seed=st.integers(0, 2 ** 32 - 1), family=st.sampled_from(FAMILIES),
       n=st.integers(3, 4), aligned=st.booleans())
def test_plane_mass_is_integral_of_line_masses(seed, family, n, aligned):
    if family == "product" and not aligned:
        return      # no closed form for tilted product planes
    f, (bases, offsets) = case(seed, family, n, 2, aligned)
    masses, _ = f.slice_stats_batch(bases, offsets)
    width = half_width(f)
    ss = np.linspace(-width, width, 4_001)
    for b, z, mass in zip(bases, offsets, masses):
        # lines along b[:, 0], stacked along b[:, 1] inside the plane
        line_bases = np.broadcast_to(b[:, :1], (ss.size, n, 1))
        line_offsets = z[None, :] + ss[:, None] * b[:, 1][None, :]
        line_masses, _ = f.slice_stats_batch(line_bases, line_offsets)
        quad = np.trapezoid(line_masses, ss)
        assert mass == pytest.approx(quad, rel=1e-4, abs=jump_count(
            f, family) * (ss[1] - ss[0]) * line_masses.max())


@PROPERTY
@given(seed=st.integers(0, 2 ** 32 - 1), family=st.sampled_from(BOUNDED),
       n=st.integers(2, 4), k=st.integers(1, 3), aligned=st.booleans())
def test_mc_section_stats_agree_with_exact_rows(seed, family, n, k, aligned):
    k = min(k, n - 1)
    if family == "product" and k >= 2 and not aligned:
        return      # no exact reference for tilted product flats
    f, (bases, offsets) = case(seed, family, n, k, aligned)
    mass, sup, exact_err = section_stats(f, bases, offsets)
    assert not exact_err.any()
    method = ("mc", 4_000)
    mc_mass, mc_sup, mc_err = section_stats(f, bases, offsets, method,
                                            np.random.default_rng(seed))
    assert np.all(np.abs(mc_mass - mass) <= 4.0 * mc_err + 1e-9 * (1 + mass))
    assert np.all(mc_sup <= sup * (1 + 1e-9))
    # the one-row stack is restriction_stats, draw for draw
    l1, linf = restriction_stats(f, Flat(Subspace(bases[0]), offsets[0]),
                                 method, np.random.default_rng(seed))
    one = section_stats(f, bases[:1], offsets[:1], method,
                        np.random.default_rng(seed))
    assert (l1.value, l1.stderr, linf.value) == (one[0][0], one[2][0],
                                                 one[1][0])
    assert linf.biased_low and not l1.biased_low


@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=8, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 4),
       k=st.integers(1, 3), aligned=st.booleans())
def test_section_points_follow_section_models(family, seed, n, k, aligned):
    k = min(k, n - 1)
    f, (bases, offsets) = case(seed, family, n, k, aligned)
    rng = np.random.default_rng(seed)
    if family == "product" and k >= 2 and not aligned:
        with pytest.raises(ValueError, match="exact slice models"):
            section_points(f, bases, offsets, 10, rng)
        return
    size = 4_000
    masses, pts = section_points(f, bases, offsets, size, rng)
    assert pts.shape == (len(bases), size, k)
    assert np.all(np.isfinite(pts))
    for mass, row, b, z in zip(masses, pts, bases, offsets):
        model = f.slice(Flat(Subspace(b), z))
        assert mass == pytest.approx(model.mass, rel=1e-12, abs=1e-300)
        if model.mass <= 0.0:
            continue
        # every point lies in the section's support
        assert np.all(model.eval_many(row) > 0.0)
        # mass-weighted second moment against a large draw of the model
        ours = mass * np.einsum("si,si->s", row, row)
        ref_pts = model.sample(40_000, rng)
        ref = model.mass * np.einsum("si,si->s", ref_pts, ref_pts)
        stderr = math.hypot(ours.std() / math.sqrt(ours.size),
                            ref.std() / math.sqrt(ref.size))
        assert abs(ours.mean() - ref.mean()) <= 4.0 * stderr


def conditioned_spd(n, cond, rng):
    """Random symmetric positive definite n x n matrix of condition number
    cond, at a random overall scale."""
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    m = (q * np.geomspace(1.0, cond, n) * 10.0 ** rng.uniform(-2, 2)) @ q.T
    return 0.5 * (m + m.T)


def reference_sections(f, bases, offsets):
    """(mass, sup, centre) of ellipsoid or Gaussian sections from the
    three-operand einsum Gram matrix and LAPACK solve and slogdet."""
    k = bases.shape[-1]
    ellipsoid = isinstance(f, EllipsoidIndicator)
    m, c = (f.shape_matrix, f.center) if ellipsoid else (f._prec, f.mean)
    d = offsets - c
    md = d @ m
    g = np.einsum("sji,jl,slm->sim", bases, m, bases)
    rhs = np.einsum("sji,sj->si", bases, md)
    centre = -np.linalg.solve(g, rhs[..., None])[..., 0]
    # the least value of (x - c)^T m (x - c) on each flat
    least = np.einsum("si,si->s", d, md) + np.einsum("si,si->s", rhs, centre)
    logdet = np.linalg.slogdet(g)[1]
    if ellipsoid:
        rho = 1.0 - least
        mass = f.amplitude * unit_ball_volume(k) \
            * np.exp(0.5 * k * np.log(rho) - 0.5 * logdet)
        return mass, np.full(len(rho), f.amplitude), centre
    log_sup = math.log(f.amplitude) - 0.5 * (
        f.n * math.log(2 * math.pi) + np.linalg.slogdet(f.cov)[1] + least)
    return (np.exp(log_sup + 0.5 * (k * math.log(2 * math.pi) - logdet)),
            np.exp(log_sup), centre)


def conditioned_case(seed, family, n, k):
    """An ellipsoid or Gaussian of condition number up to 1e6, and flats
    through points of its bulk: half a draw about the centre keeps every
    ellipsoid section's rho >= 0.75 and Gaussian flats within about three
    standard deviations, where the sections are well conditioned."""
    rng = np.random.default_rng(seed)
    m = conditioned_spd(n, 10.0 ** rng.uniform(0, 6), rng)
    c = rng.normal(size=n)
    f = EllipsoidIndicator(m, c, 1.5) if family == "ellipsoid" \
        else GaussianDensity(c, m, 1.5)
    bases = full_frames(n, k, 40, rng)[..., :k]
    offsets = c + 0.5 * (f.sample(40, rng) - c)
    return f, bases, offsets


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1),
       family=st.sampled_from(["ellipsoid", "gaussian"]),
       n=st.integers(2, 5), k=st.integers(1, 3))
def test_closed_form_sections_match_lapack_reference(seed, family, n, k):
    k = min(k, n - 1)
    f, bases, offsets = conditioned_case(seed, family, n, k)
    mass, sup, centre = reference_sections(f, bases, offsets)
    sections = f._sections(bases, offsets)
    np.testing.assert_allclose(sections[0], mass, rtol=1e-10)
    np.testing.assert_allclose(sections[1], sup, rtol=1e-10)
    ours = sections[3] if family == "ellipsoid" else sections[2]
    assert np.all(np.linalg.norm(ours - centre, axis=1)
                  <= 1e-10 * np.linalg.norm(centre, axis=1))


@pytest.mark.parametrize("family", ["ellipsoid", "gaussian"])
@pytest.mark.parametrize("k", [1, 2])
def test_small_sections_skip_lapack(monkeypatch, family, k):
    # k <= 2 sections run on the closed-form kernel, never on a LAPACK
    # solve or determinant
    f, bases, offsets = conditioned_case(7, family, 4, k)
    mass, sup, _ = reference_sections(f, bases, offsets)

    def lapack(*args, **kwargs):
        raise AssertionError("LAPACK called on a k <= 2 section stack")

    monkeypatch.setattr(np.linalg, "solve", lapack)
    monkeypatch.setattr(np.linalg, "slogdet", lapack)
    ours = f.slice_stats_batch(bases, offsets)
    np.testing.assert_allclose(ours[0], mass, rtol=1e-10)
    np.testing.assert_allclose(ours[1], sup, rtol=1e-10)
