"""Property tests of the batched section stats of every exact family.

Each example draws a density of one family, a dimension and a stack of
flats from a numpy generator seeded by hypothesis, then checks the batched
stats row by row against references built only from ``eval_many``:
trapezoid quadrature along a line, and (Fubini) quadrature over the
parallel lines inside a plane.  Each family's ``exact_sections(k)`` is
checked to agree with its formula: every exact route returns finite rows
where it holds and raises, drawing nothing, where it does not.  The Monte Carlo route of ``section_stats``
is checked against the exact rows, and the batched sampler
``section_points`` against an importance estimate of each section's
moments from uniform window points weighted by f.  The closed-form section
algebra of ellipsoids and Gaussians is checked against an einsum and
LAPACK reference on ill-conditioned shapes.
"""

import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from igeolab.densities import (EllipsoidIndicator, GaussianDensity,
                               ProductDensity, RadialGridDensity, Step1D,
                               TruncatedGaussian, _per_row, _uniform_ball,
                               affine_image, section_points, section_stats)
from igeolab import functionals, verify
from igeolab.config import load_config
from igeolab.geometry import unit_ball_volume
from igeolab.grassmann import flat_frames, haar_bases
from igeolab.runner import run_suite

FAMILIES = ["ellipsoid", "gaussian", "truncated", "radial", "product"]
BOUNDED = [f for f in FAMILIES if f != "gaussian"]
# the families with exact sections of every dimension (products: lines only)
PLANES = [f for f in FAMILIES if f != "product"]
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
       n=st.integers(2, 4), aligned=st.booleans())
def test_line_mass_matches_quadrature(seed, family, n, aligned):
    f, (bases, offsets) = case(seed, family, n, 1, aligned)
    masses, sups = f.slice_stats_batch(bases, offsets)
    assert masses.shape == sups.shape == (len(bases),)
    width = half_width(f)
    ts = np.linspace(-width, width, 40_001)
    step = ts[1] - ts[0]
    for b, z, mass, sup in zip(bases, offsets, masses, sups):
        vals = f.eval_many(z[None, :] + ts[:, None] * b[:, 0][None, :])
        assert mass == pytest.approx(np.trapezoid(vals, ts), rel=1e-6,
                                     abs=jump_count(f, family) * step * f.sup)
        assert sup >= vals.max() * (1.0 - 1e-12)


@PROPERTY
@given(seed=st.integers(0, 2 ** 32 - 1), family=st.sampled_from(PLANES),
       n=st.integers(3, 4), aligned=st.booleans())
def test_plane_mass_is_integral_of_line_masses(seed, family, n, aligned):
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
    if family == "product" and k >= 2:
        return      # no exact reference for product flats beyond lines
    f, (bases, offsets) = case(seed, family, n, k, aligned)
    mass, sup, exact_err = section_stats(f, bases, offsets)
    assert not exact_err.any()
    method = ("mc", 4_000)
    mc_mass, mc_sup, mc_err = section_stats(f, bases, offsets, method,
                                            np.random.default_rng(seed))
    assert np.all(np.abs(mc_mass - mass) <= 4.0 * mc_err + 1e-9 * (1 + mass))
    assert np.all(mc_sup <= sup * (1 + 1e-9))


# uniform window points of the sampler oracle, shared by a stack's rows
WINDOW = 100_000


def section_moments(pts):
    """Each point's coordinates and squared norm, shape (..., k + 1)."""
    return np.concatenate([pts, np.einsum("...i,...i->...", pts, pts)[
        ..., None]], axis=-1)


def moment_z(f, bases, offsets, masses, pts, rng):
    """z-scores (s, k + 1) of the mass-weighted mean vector and second
    moment of each row's points against the importance estimate
    vol(W) * mean(g(u) f(z + B u)), u uniform in the k-ball W of radius
    half_width(f), 0 on rows of zero mass.  Section coordinates u sit at
    x = z + B u with z perpendicular to B, so |u| <= |x| and W covers
    every section.  Asserts that every point of a row of positive mass
    lies in the support of f, in ambient coordinates."""
    s, size, k = pts.shape
    width = half_width(f)
    u = _uniform_ball(k, (WINDOW, 1), rng)[:, 0] * width
    g = unit_ball_volume(k) * width ** k * section_moments(u)
    z = np.zeros((s, k + 1))
    for i, (mass, row, b, offset) in enumerate(zip(masses, pts, bases,
                                                    offsets)):
        if mass <= 0.0:
            continue
        assert np.all(f.eval_many(offset + row @ b.T) > 0.0)
        ours = mass * section_moments(row)
        # mean and variance of the window terms g(u) f(z + B u), from
        # two matrix-vector products over the window
        weights = f.eval_many(offset + u @ b.T)
        ref = g.T @ weights / WINDOW
        ref_var = (g * g).T @ (weights * weights) / WINDOW - ref * ref
        stderr = np.sqrt(ours.var(axis=0) / size + ref_var / WINDOW)
        z[i] = (ours.mean(axis=0) - ref) / stderr
    return z


@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=8, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 4),
       k=st.integers(1, 3), aligned=st.booleans())
def test_section_points_follow_section_models(family, seed, n, k, aligned):
    k = min(k, n - 1)
    f, (bases, offsets) = case(seed, family, n, k, aligned)
    rng = np.random.default_rng(seed)
    if family == "product" and k >= 2:
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="ProductDensity has no exact "
                           f"sections of dimension {k}"):
            section_points(f, bases, offsets, 10, rng)
        assert rng.bit_generator.state == state
        return
    masses, pts = section_points(f, bases, offsets, 4_000, rng)
    assert pts.shape == (len(bases), 4_000, k)
    assert np.all(np.isfinite(pts))
    assert np.array_equal(masses, section_stats(f, bases, offsets)[0])
    assert np.all(np.abs(moment_z(f, bases, offsets, masses, pts, rng))
                  <= 4.0)


@pytest.mark.parametrize("aligned", [False, True], ids=["haar", "aligned"])
@pytest.mark.parametrize("n, k", [(n, k) for n in (2, 3, 4)
                                  for k in range(1, n)])
@pytest.mark.parametrize("family", FAMILIES)
def test_predicate_and_formula_agree(family, n, k, aligned):
    # exact_sections(k) is the one answer: where it holds, every exact
    # section route returns finite rows; where it fails, each raises
    # ValueError naming the family and k, and section_points draws nothing
    f, (bases, offsets) = case(n * 10 + k, family, n, k, aligned)
    rng = np.random.default_rng(0)
    routes = [lambda: section_stats(f, bases, offsets),
              lambda: f.slice_stats_batch(bases, offsets),
              lambda: section_points(f, bases, offsets, 10, rng)]
    if f.exact_sections(k):
        for route in routes:
            arrays = route()
            assert all(np.isfinite(a).all() for a in arrays)
        return
    state = rng.bit_generator.state
    for route in routes:
        with pytest.raises(ValueError, match=f"{type(f).__name__} has no "
                           f"exact sections of dimension {k}"):
            route()
    assert rng.bit_generator.state == state


def test_pushforward_sections_raise_before_drawing():
    # a pushforward has no exact sections of any dimension
    f = affine_image(TruncatedGaussian(np.zeros(2), 1.0, 1.0),
                     (np.array([[1.0, 1.0], [0.0, 1.0]]), None))
    bases, offsets = flats(2, 1, 3, np.random.default_rng(1))
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    for route in (lambda: section_stats(f, bases, offsets),
                  lambda: section_points(f, bases, offsets, 10, rng)):
        with pytest.raises(ValueError, match="PushforwardDensity has no "
                           "exact sections of dimension 1"):
            route()
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("family", FAMILIES)
def test_power_one_reproduces_the_sections(family):
    # the section-norm averages read an L1 slot off f itself; f.power(1)
    # must give the same sections to rounding
    f, (bases, offsets) = case(3, family, 3, 1, aligned=False)
    mass, sup = f.slice_stats_batch(bases, offsets)
    mass1, sup1 = f.power(1.0).slice_stats_batch(bases, offsets)
    np.testing.assert_allclose(mass1, mass, rtol=1e-14, atol=1e-300)
    np.testing.assert_allclose(sup1, sup, rtol=1e-14, atol=1e-300)


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
@pytest.mark.parametrize("k", [1, 2, 3])
def test_sections_restrict_the_form_pointwise(family, k):
    # the section parameters reproduce the ambient quadratic form
    # (x - c)^T m (x - c) at points x = offset + B u of each flat: g (or h)
    # is B^T m B, and the form is (u - u0)^T g (u - u0) plus its least value
    rng = np.random.default_rng(30 + k)
    n = 5
    m, c = random_spd(n, rng), rng.normal(size=n)
    f = EllipsoidIndicator(m, c, 1.5) if family == "ellipsoid" \
        else GaussianDensity(c, np.linalg.inv(m), 1.5)
    form = f.shape_matrix if family == "ellipsoid" else f._prec
    bases = full_frames(n, k, 30, rng)[..., :k]
    offsets = c + rng.normal(size=(30, n))
    sections = f._sections(bases, offsets)
    if family == "ellipsoid":
        mass, sup, g, u0, rho = sections
        least = 1.0 - rho
        live = rho > 0.0
        want_mass = np.zeros(30)
        want_mass[live] = 1.5 * unit_ball_volume(k) * rho[live] ** (k / 2) \
            / np.sqrt(np.linalg.det(g[live]))
        assert np.all(sup == np.where(live, 1.5, 0.0))
    else:
        mass, sup, u0, g = sections
        least = -2.0 * np.log(sup / f.sup)
        want_mass = sup * (2 * math.pi) ** (k / 2) / np.sqrt(np.linalg.det(g))
    np.testing.assert_allclose(mass, want_mass, rtol=1e-12, atol=1e-300)
    for i in range(30):
        b = bases[i]
        np.testing.assert_allclose(g[i], b.T @ form @ b, rtol=1e-12,
                                   atol=1e-12)
        u = u0[i] + rng.normal(size=(8, k))
        x = offsets[i] + u @ b.T - c
        ambient = np.einsum("si,ij,sj->s", x, form, x)
        v = u - u0[i]
        restricted = np.einsum("si,ij,sj->s", v, g[i], v) + least[i]
        np.testing.assert_allclose(restricted, ambient, rtol=1e-12)


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


# ---------------------------------------------------------------------------
# foot points: radial sections and the Monte Carlo window read |offset| as
# the flat's distance from the origin, so every caller hands over offsets
# perpendicular to the bases they come with


@pytest.mark.parametrize("n,k", [(2, 1), (3, 1), (3, 2), (4, 2), (5, 3)])
def test_flat_frames_offsets_are_foot_points(n, k):
    bases, offsets, _ = flat_frames(n, k, 2.0, 2000,
                                    np.random.default_rng(10 * n + k))
    assert np.abs(np.einsum("snk,sn->sk", bases, offsets)).max() <= 1e-12


@pytest.mark.parametrize("n,k", [(2, 1), (3, 1), (3, 2), (4, 2)])
def test_fiber_feet_are_foot_points(monkeypatch, n, k):
    handed = []

    def recording(f, bases, offsets, *args):
        handed.append((bases, offsets))
        return section_stats(f, bases, offsets, *args)

    monkeypatch.setattr(verify, "section_stats", recording)
    f = RadialGridDensity.uniform(n, 2.0, [2.0, 1.0, 0.5])
    rng = np.random.default_rng(10 * n + k)
    bases = haar_bases(n, k, 6, rng)
    verify._fiber_statistics(f, bases, f.sample(6 * 40, rng).reshape(6, 40, n))
    (fiber_bases, offsets), = handed
    # the n_x + 1 fibers of a subspace share its complement's basis
    fiber_bases = _per_row(fiber_bases, len(offsets))
    assert np.abs(np.einsum("snk,sn->sk", fiber_bases, offsets)).max() \
        <= 1e-12


@pytest.mark.parametrize("method", ["exact", ("mc", 16)])
@pytest.mark.parametrize("n,k", [(2, 1), (3, 1), (3, 2), (4, 2)])
def test_shared_bases_read_as_repeated_ones_bit_for_bit(method, n, k):
    # m bases for r m offsets, basis i spanning offsets i r .. i r + r - 1,
    # give every stat of the stack of repeated bases, to the last bit, in
    # every family with those sections; the bases come as the
    # non-contiguous complement slices the marginal-bound fibers use
    rng = np.random.default_rng(10 * n + k)
    m, r = 5, 7
    full = np.linalg.qr(rng.standard_normal((m, n, n)), mode="complete")[0]
    bases = full[..., n - k:]
    offsets = np.einsum("mnj,mrj->mrn", full[..., :n - k],
                        rng.uniform(-0.8, 0.8, (m, r, n - k))).reshape(-1, n)
    shape = np.eye(n) + 0.2 * np.ones((n, n))
    families = [EllipsoidIndicator(shape, 0.1 * np.ones(n)),
                GaussianDensity(0.1 * np.ones(n), np.linalg.inv(shape)),
                TruncatedGaussian(0.1 * np.ones(n), 0.7, 1.5),
                RadialGridDensity.uniform(n, 1.5, [2.0, 1.0])]
    if k == 1:
        families.append(ProductDensity([Step1D.uniform(-1.0, 1.0,
                                                       [1.0, 2.0])] * n))
    for f in families:
        if method != "exact" and math.isinf(f.support_radius):
            continue
        shared = section_stats(f, bases, offsets, method,
                               np.random.default_rng(1))
        repeated = section_stats(f, np.repeat(bases, r, axis=0), offsets,
                                 method, np.random.default_rng(1))
        for a, b in zip(shared, repeated):
            assert np.array_equal(a, b), type(f).__name__


def test_shipped_suites_pass_foot_points(monkeypatch, tmp_path):
    # the Monte Carlo window and the radial sections read |offset| as the
    # flat's distance, so every offset a section route receives must be
    # perpendicular to its basis: |B^T o| <= 1e-12 max(1, |o|)
    flats_seen = {}
    suite = None

    def foot_points_only(route, where):
        def checked(f, bases, offsets, *args):
            rows = _per_row(bases, len(offsets))
            along = np.linalg.norm(np.einsum("snk,sn->sk", rows, offsets),
                                   axis=1)
            scale = np.maximum(1.0, np.linalg.norm(offsets, axis=1))
            assert np.all(along <= 1e-12 * scale), route.__name__
            key = suite, where
            flats_seen[key] = flats_seen.get(key, 0) + len(offsets)
            return route(f, bases, offsets, *args)
        return checked

    for module, name in [(functionals, "section_stats"),
                         (verify, "section_stats"),
                         (verify, "section_points")]:
        monkeypatch.setattr(module, name, foot_points_only(
            getattr(module, name), f"{module.__name__}.{name}"))
    root = pathlib.Path(__file__).resolve().parents[1]
    for path in sorted(root.glob("configs/*.ini")) \
            + [root / "bench" / "workloads" / "sections.ini"]:
        suite = path.stem
        cfg = load_config(str(path), output_override=str(tmp_path / path.stem))
        run_suite(cfg, echo=lambda line: None)
    # each route a suite takes saw flats there; sharpness takes none
    stats, points = "igeolab.functionals.section_stats", \
        "igeolab.verify.section_points"
    assert set(flats_seen) == {
        ("paper-core", stats), ("paper-core", "igeolab.verify.section_stats"),
        ("paper-core", points), ("negative-controls", stats),
        ("sections", stats), ("sections", points)}
    assert all(count > 0 for count in flats_seen.values())
