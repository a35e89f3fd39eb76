"""Section norms, simplex moments, invariant averages.

Oracle values used below, all derived independently of the code:
  E|x - y|, x, y uniform on [0,1]               = 1/3
  E|x|, x uniform on [0,1]                      = 1/2
  int_{[-1,1]^2} |x - y| dx dy                  = 8/3
  int_{B^2} |x| dx                              = 2 pi / 3
  E area(x0,x1,x2) uniform in the unit disk     = 35 / (48 pi)
  int int int area = pi^3 * 35/(48 pi)          = 35 pi^2 / 48
  int over lines of (chord of B^2)^3            = 8 * 3 pi / 8 = 3 pi
The first few are textbook integrals; the disk triangle constant is the
classical Blaschke value.
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from igeolab import functionals
from igeolab.config import build_density
from igeolab.densities import (EllipsoidIndicator, GaussianDensity,
                               ProductDensity, PushforwardDensity,
                               RadialGridDensity, Step1D, TruncatedGaussian,
                               section_stats)
from igeolab.functionals import (ExponentSpec, affine_average_I,
                                 grassmann_average_I, powz, simplex_moment,
                                 _lp_norms, _norm_products)
from igeolab.geometry import ROW_BLOCK, _tuple_volumes
from igeolab.grassmann import flat_frames, subspace_frames
from igeolab.rearrange import rearrangement
from igeolab.report import (CheckReport, Estimate, mc_estimate,
                            power_estimate, ratio_estimate)

INF = math.inf


def unit_interval():
    return Step1D(np.array([0.0, 1.0]), np.array([1.0]))


def segment():
    return Step1D(np.array([-1.0, 1.0]), np.array([1.0]))


# ---------------------------------------------------------------------------
# exponent bookkeeping


def test_exponent_spec_sum():
    spec = ExponentSpec((1.0, 2.0, INF), (1.0, 3.0, -4.0))
    assert spec.constraint_sum == pytest.approx(1.0 + 1.5)  # inf slot drops out
    with pytest.raises(ValueError):
        ExponentSpec((0.0,), (1.0,))
    with pytest.raises(ValueError):
        ExponentSpec((1.0, 2.0), (1.0,))
    assert len(spec) == 3


def test_powz_conventions():
    x = np.array([0.0, 0.5, 2.0])
    assert powz(x, -1.0).tolist() == [0.0, 2.0, 0.5]
    assert powz(x, 0.0).tolist() == [0.0, 1.0, 1.0]
    assert powz(x, 2.0).tolist() == [0.0, 0.25, 4.0]


@settings(max_examples=50, deadline=None)
@given(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
def test_powz_exponent_law(a, b):
    x = np.array([0.0, 0.3, 1.0, 4.7])
    lhs = powz(x, a) * powz(x, b)
    rhs = powz(x, a + b)
    assert np.allclose(lhs, rhs, rtol=1e-10)


# ---------------------------------------------------------------------------
# section norms


def _power_model(f, p):
    """Reference model of a slot: f**p, whose section masses are the p-th
    powers of the L_p norms of f; f itself for p = 1 and for a sup slot
    (p = inf)."""
    return f if p == 1.0 or math.isinf(p) else f.power(p)


def section_norm(f, E, p, z=None):
    """L_p norm of f on the flat z + E (z = 0 by default), as the averages
    read it: _lp_norms of the one-row section stats of _power_model(f, p)."""
    z = np.zeros(len(E)) if z is None else z
    masses, sups, _ = section_stats(_power_model(f, p), E[None], z[None])
    return float(_lp_norms(masses, sups, p)[0])


def test_section_norm_ball():
    b2 = EllipsoidIndicator.ball(2)
    axis = np.eye(2)[:, :1]
    assert section_norm(b2, axis, 1.0) == pytest.approx(2.0)
    assert section_norm(b2, axis, INF) == pytest.approx(1.0)
    assert section_norm(b2, axis, 2.0) == pytest.approx(math.sqrt(2.0))
    off = np.array([0.0, 0.6])
    assert section_norm(b2, axis, 1.0, off) == pytest.approx(
        2 * math.sqrt(1 - 0.36))


def test_section_norm_gaussian():
    g = GaussianDensity.standard(2)
    axis = np.eye(2)[:, :1]
    # on the axis f(t) = (2 pi)^{-1} e^{-t^2/2}; ||f||_2^2 = (2pi)^{-2} sqrt(pi)
    expected = ((2 * math.pi) ** -2 * math.sqrt(math.pi)) ** 0.5
    assert section_norm(g, axis, 2.0) == pytest.approx(expected, rel=1e-10)
    assert section_norm(g, axis, INF) == pytest.approx((2 * math.pi) ** -1)


def test_section_norm_needs_exact_family(rng):
    f = TruncatedGaussian(np.zeros(2), tau=1.0, radius=1.0)
    # powers of a truncated kernel stay in the family, so p=3 works
    axis = np.eye(2)[:, :1]
    assert section_norm(f, axis, 3.0) > 0.0


# ---------------------------------------------------------------------------
# simplex moments against the classic integrals


def cone_moment(f_list, p, n_samples, rng):
    """The simplex moment with the origin, scaled by the product of masses."""
    return simplex_moment(f_list, p, True, n_samples, rng).scaled(
        math.prod(f.mass for f in f_list))


def free_moment(f, k, p, n_samples, rng):
    """The simplex moment over k + 1 free vertices drawn from f, scaled by
    mass^(k+1)."""
    return simplex_moment([f] * (k + 1), p, False, n_samples, rng).scaled(
        f.mass ** (k + 1))


def test_cone_moment_unit_interval(rng):
    est = cone_moment([unit_interval()], 1.0, 40_000, rng)
    assert abs(est.value - 0.5) <= 3.0 * est.stderr


def test_pair_moment_unit_interval(rng):
    est = free_moment(unit_interval(), 1, 1.0, 60_000, rng)
    assert abs(est.value - 1.0 / 3.0) <= 3.0 * est.stderr


def test_pair_moment_segment(rng):
    est = free_moment(segment(), 1, 1.0, 60_000, rng)
    assert abs(est.value - 8.0 / 3.0) <= 3.0 * est.stderr


def test_cone_moment_disk(rng):
    b2 = EllipsoidIndicator.ball(2)
    est = cone_moment([b2], 1.0, 60_000, rng)
    assert abs(est.value - 2 * math.pi / 3) <= 3.0 * est.stderr


def test_triangle_moment_disk(rng):
    b2 = EllipsoidIndicator.ball(2)
    est = free_moment(b2, 2, 1.0, 200_000, rng)
    target = 35.0 * math.pi ** 2 / 48.0
    assert abs(est.value - target) <= 3.0 * est.stderr, (est.value, target)


def test_simplex_moment_draws_each_density_in_turn():
    # blocks of ROW_BLOCK tuples, the last one shorter, each one sample
    # call per density in list order; without the origin the volumes are
    # those of the edges from the first point
    f, g = EllipsoidIndicator.ball(2), GaussianDensity.standard(2)
    m = 2 * ROW_BLOCK + 5
    stream = np.random.default_rng(4)
    est = simplex_moment([f, g, f], 1.5, False, m, stream)
    ref = np.random.default_rng(4)
    vols = []
    for start in range(0, m, ROW_BLOCK):
        size = min(ROW_BLOCK, m - start)
        pts = np.stack([h.sample(size, ref) for h in (f, g, f)], axis=1)
        vols.append(_tuple_volumes(pts[:, 1:] - pts[:, :1]) ** 1.5)
    assert est.value == pytest.approx(np.concatenate(vols).mean(),
                                      rel=1e-12)
    assert est.samples == m and est.tail_share is None
    assert stream.random() == ref.random()


def test_moment_validation(rng):
    with pytest.raises(ValueError):
        cone_moment([unit_interval(), unit_interval()], 1.0, 100, rng)  # q > n
    with pytest.raises(ValueError):
        cone_moment([EllipsoidIndicator.ball(2)], -2.5, 100, rng)  # p too low
    with pytest.raises(ValueError):
        free_moment(EllipsoidIndicator.ball(2), 2, 0.5, 100, rng)  # p < 1
    with pytest.raises(ValueError, match="2 <= q"):
        # one free point spans no simplex
        simplex_moment([EllipsoidIndicator.ball(2)], 1.0, False, 100, rng)


# ---------------------------------------------------------------------------
# closed-form cone moments of rotation-invariant inputs

GAUSS_C = GaussianDensity(np.zeros(3), 0.6 * np.eye(3))
BALL_R = EllipsoidIndicator.ball(3, 1.4)
TRUNC3 = TruncatedGaussian(np.zeros(3), 0.8, 2.0)
# the shipped bimodal2 of configs/paper-core.ini
BIMODAL_STAR = rearrangement(build_density({
    "kind": "product", "normalize": True,
    "factors": [{"heights": [2.2, 0.3, 1.0, 0.3, 2.2]},
                {"heights": [0.5, 1.9, 0.3, 1.9, 0.4]}]}))
CONE_POWERS = (1.0, 2.0, 0.5, -0.5)


class RaisingGenerator:
    """A generator stand-in whose every draw raises."""

    def __getattr__(self, name):
        raise AssertionError(f"drew from the generator ({name})")


def cone_volumes(pts):
    """|conv{0, x_1, ..., x_q}| for a stack pts (m, q, n) with q = 1, q = n,
    or q = 2 and n = 3, by the elementary formula of each shape."""
    q, n = pts.shape[1:]
    if q == 1:
        return np.linalg.norm(pts[:, 0], axis=1)
    if q == n:
        return abs(np.linalg.det(pts)) / math.factorial(n)
    return np.linalg.norm(np.cross(pts[:, 0], pts[:, 1]), axis=1) / 2.0


def mc_cone_moments(f_list, qs, powers, rng, total=1_000_000,
                    block=250_000):
    """(mean, stderr) of |conv{0, x_1, ..., x_q}|^p, one row per q in qs
    and one column per p in powers, over total tuples drawn directly, one
    point from each f_i; the tuples of q points are the first q points of
    the tuples drawn for all of f_list."""
    sums = np.zeros((2, len(qs), len(powers)))
    for _ in range(total // block):
        pts = np.stack([f.sample(block, rng) for f in f_list], axis=1)
        for i, q in enumerate(qs):
            vols = cone_volumes(pts[:, :q])
            for j, p in enumerate(powers):
                v = vols ** p
                sums[:, i, j] += v.sum(), (v * v).sum()
    mean = sums[0] / total
    var = (sums[1] - total * mean ** 2) / (total - 1)
    return mean, np.sqrt(var / total)


@pytest.mark.parametrize("f_list, powers", [
    ([GAUSS_C] * 3, CONE_POWERS),
    ([BALL_R] * 3, CONE_POWERS),
    # n + p must be an integer for the truncated Gaussian
    ([TRUNC3] * 3, (1.0, 2.0)),
    ([BIMODAL_STAR] * 2, CONE_POWERS),
    ([GAUSS_C, BALL_R, TRUNC3], (1.0, 2.0)),
], ids=["gauss", "ball", "trunc", "bimodal_star", "mixed"])
def test_exact_cone_moment_matches_direct_draws(f_list, powers, rng):
    # q = 1, 2 and n, each against 1M direct draws
    qs = sorted({1, 2, len(f_list)})
    mean, stderr = mc_cone_moments(f_list, qs, powers, rng)
    for q, means, stderrs in zip(qs, mean, stderr):
        for p, m, se in zip(powers, means, stderrs):
            exact = simplex_moment(f_list[:q], p, True, 2,
                                   RaisingGenerator())
            assert exact.method == "exact" and exact.samples == 0
            assert abs(m - exact.value) <= 4.0 * se, \
                (q, p, m, exact.value, se)


def test_exact_cone_moment_pins():
    # E|G| = sqrt(pi / 2) for a standard Gaussian in the plane; the unit
    # ball of R^3 integrates |x| to pi
    gauss = simplex_moment([GaussianDensity.standard(2)], 1.0, True, 2,
                           RaisingGenerator())
    assert gauss.value == pytest.approx(math.sqrt(math.pi / 2), rel=1e-15)
    ball = EllipsoidIndicator.ball(3)
    est = simplex_moment([ball], 1.0, True, 2, RaisingGenerator())
    assert est.scaled(ball.mass).value == pytest.approx(math.pi, rel=1e-15)
    assert est == Estimate(0.75, 0.0, 0, "exact")


@pytest.mark.parametrize("f_list, p, origin", [
    ([EllipsoidIndicator.ball(3, center=[0.2, 0.0, 0.0])], 1.0, True),
    ([GaussianDensity(np.zeros(2), np.diag([1.0, 2.0]))] * 2, 1.0, True),
    ([ProductDensity([segment(), segment()])], 1.0, True),
    ([PushforwardDensity(EllipsoidIndicator.ball(2),
                         np.array([[1.0, 0.5], [0.0, 1.0]]), np.zeros(2))],
     -0.5, True),
    ([TRUNC3, TRUNC3], 0.5, True),
    ([EllipsoidIndicator.ball(2)] * 2, 1.0, False),
], ids=["shifted-ball", "anisotropic-gauss", "product", "pushforward",
        "trunc-p-half", "no-origin"])
def test_uncovered_cone_moments_draw_as_before(f_list, p, origin):
    # the Monte Carlo route, bit for bit: one slot-major stack, its
    # volumes' powers, one mc_estimate
    est = simplex_moment(f_list, p, origin, 3000, np.random.default_rng(9))

    def draw(stream, m):
        pts = np.stack([f.sample(m, stream) for f in f_list])
        return functionals._simplex_powers(pts, origin, p)

    ref = mc_estimate(draw, 3000, np.random.default_rng(9),
                      keep_values=p < 0)
    assert est.method == "mc" and est == ref


# ---------------------------------------------------------------------------
# invariant averages


def drawn_average(f_list, spec, frames, count, rng):
    """The frame mean of count drawn frames of an exact section-norm
    average, whichever route the average itself takes."""
    return functionals._frame_mean(frames, functools.partial(
        _norm_products, f_list, spec, "exact"), count, rng, count)


def test_grassmann_average_ball_is_exact(rng):
    # every central section of the ball looks the same, so the average
    # collapses to a single product of norms: with zero variance over
    # drawn subspaces, and read on one frame, drawing nothing
    b2 = EllipsoidIndicator.ball(2)
    spec = ExponentSpec((1.0, INF), (3.0, -2.0))
    drawn = drawn_average([b2, b2], spec,
                          functools.partial(subspace_frames, 2, 1), 500, rng)
    assert drawn.method == "mc" and drawn.samples == 500
    assert drawn.value == pytest.approx(2.0 ** 3 * 1.0, rel=1e-12)
    assert drawn.stderr <= 1e-12
    est = grassmann_average_I([b2, b2], spec, 1, 500, None)
    assert est == Estimate.exact(2.0 ** 3 * 1.0)


def symmetric_families(n):
    """name -> (a density rotation invariant about 0 in R^n, its near
    twins): its centre moved by 1e-3, or one axis stretched by 1.001,
    where the family has such a member (a radial grid has neither)."""
    shift, axis = np.eye(n)[0] * 1e-3, np.eye(n)[0] * 1e-3 + 1.0
    return {
        "ball": (EllipsoidIndicator.ball(n),
                 [EllipsoidIndicator.ball(n, center=shift),
                  EllipsoidIndicator(np.diag(axis ** -2.0))]),
        "gaussian": (GaussianDensity(np.zeros(n), 0.7 * np.eye(n)),
                     [GaussianDensity(shift, 0.7 * np.eye(n)),
                      GaussianDensity(np.zeros(n), 0.7 * np.diag(axis ** 2))]),
        "truncated": (TruncatedGaussian(np.zeros(n), 0.8, 1.5),
                      [TruncatedGaussian(shift, 0.8, 1.5)]),
        "radial": (RadialGridDensity.uniform(n, 1.5, [1.0, 0.8, 0.3]), []),
    }


@pytest.mark.parametrize("family", ["ball", "gaussian", "truncated",
                                    "radial"])
@pytest.mark.parametrize("n,k", [(2, 1), (3, 1), (3, 2)])
def test_rotation_invariant_averages_read_one_frame(family, n, k, rng):
    # every subspace meets a rotation-invariant density in the same
    # sections, so the exact average is its integrand on the first k axes,
    # and 20,000 drawn subspaces agree; the drawn integrand is one constant
    # to rounding, so 4 stderr is padded by the rounding of their sum.
    # Near twins keep their own route, a rule or drawn frames
    f, twins = symmetric_families(n)[family]
    spec = ExponentSpec((1.0, INF, 2.0), (1.5, -0.5, 1.0))
    est = grassmann_average_I([f] * 3, spec, k, 2, None)
    assert est == Estimate.exact(est.value) and est.value > 0.0
    drawn = drawn_average([f] * 3, spec,
                          functools.partial(subspace_frames, n, k), 20_000,
                          rng)
    assert abs(est.value - drawn.value) \
        <= 4.0 * drawn.stderr + 1e-14 * est.value
    for twin in twins:
        near = grassmann_average_I([twin] * 3, spec, k, 2_000, rng)
        assert near.method == ("rule" if functionals._rule_covers(
            [twin] * 3, k, "exact", False) else "mc")
        assert near.value == pytest.approx(est.value, rel=1e-2)


def test_affine_average_chord_cubed(rng):
    b2 = EllipsoidIndicator.ball(2)
    spec = ExponentSpec((1.0,), (3.0,))
    est = affine_average_I([b2], spec, 1, 1.5, 60_000, rng)
    assert abs(est.value - 3 * math.pi) <= 3.0 * est.stderr, est.value


def test_grassmann_average_mc_route_agrees(rng):
    box = ProductDensity([segment(), unit_interval(),
                          Step1D(np.array([-0.5, 0.0, 0.5]),
                                 np.array([1.0, 2.0]))])
    spec = ExponentSpec((1.0,), (3.0,))
    exact = grassmann_average_I([box], spec, 1, 4_000, rng)
    sampled = grassmann_average_I([box], spec, 1, 4_000, rng,
                                  method=("mc", 400))
    gap = abs(exact.value - sampled.value)
    assert gap <= 3.0 * math.hypot(exact.stderr, sampled.stderr) + 0.05 * exact.value


def test_mc_average_evaluates_each_density_once_per_draw(rng, monkeypatch):
    # a per-flat loop would evaluate each density once per subspace
    sizes = []
    original = ProductDensity.eval_many

    def counted(self, x):
        sizes.append(len(x))
        return original(self, x)

    monkeypatch.setattr(ProductDensity, "eval_many", counted)
    box = ProductDensity([segment(), unit_interval()])
    spec = ExponentSpec((1.0, INF), (2.0, -1.0))
    grassmann_average_I([box, box], spec, 1, 60, rng, method=("mc", 16))
    assert sizes == [60 * 16] * 2


def mixed_slots():
    """Slots [f, f, g, f] at powers [1, inf, 2, 1]: f's L1 and sup slots
    share f itself, and (f, 1) repeats."""
    f = EllipsoidIndicator(np.diag([1.0, 2.0, 0.5]), center=[0.3, -0.2, 0.1],
                           amplitude=0.8)
    g = TruncatedGaussian(np.array([0.1, 0.0, -0.2]), tau=0.7, radius=1.5)
    spec = ExponentSpec((1.0, INF, 2.0, 1.0), (1.5, -0.5, 2.0, 0.5))
    return [f, f, g, f], spec


def per_slot_products(f_list, spec, bases, offsets, method, rng):
    """Reference: one power model and one section_stats call per slot, in
    slot order, with no sharing between slots."""
    total = np.ones(len(bases))
    for f, p, a in zip(f_list, spec.p_list, spec.alpha_list):
        masses, sups, _ = section_stats(_power_model(f, p), bases, offsets,
                                        method, rng)
        norms = sups if math.isinf(p) else powz(masses, 1.0 / p)
        total *= powz(norms, a)
    return total


def counting_section_stats(monkeypatch):
    calls = []

    def spy(model, bases, offsets, method="exact", rng=None):
        calls.append(id(model))
        return section_stats(model, bases, offsets, method, rng)

    monkeypatch.setattr(functionals, "section_stats", spy)
    return calls


def test_exact_products_read_each_model_once(rng, monkeypatch):
    f_list, spec = mixed_slots()
    bases, offsets, _ = flat_frames(3, 1, 1.5, 300, rng)
    expected = per_slot_products(f_list, spec, bases, offsets, "exact", None)
    calls = counting_section_stats(monkeypatch)
    got = _norm_products(f_list, spec, "exact", bases, offsets, None)
    assert np.array_equal(got, expected)      # bit for bit
    assert len(calls) == len(set(calls)) == 2   # f (p = 1 and inf), g**2
    assert calls[0] == id(f_list[0])          # f itself, no power model
    assert np.count_nonzero(got) > 100
    # a repeated (g, 2) slot reads g**2 once; g at two powers reads twice
    g = f_list[2]
    for powers, reads in (((2.0, 2.0), 1), ((2.0, 3.0), 2)):
        pair = ExponentSpec(powers, (1.0, 1.0))
        expected = per_slot_products([g, g], pair, bases, offsets, "exact",
                                     None)
        calls.clear()
        got = _norm_products([g, g], pair, "exact", bases, offsets, None)
        assert np.array_equal(got, expected)
        assert len(calls) == reads and id(g) not in calls


def test_slot_count_must_match_the_densities():
    f_list, spec = mixed_slots()
    short = ExponentSpec((1.0,), (1.0,))
    rng = np.random.default_rng(3)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="slot"):
        grassmann_average_I(f_list, short, 1, 8, rng)
    with pytest.raises(ValueError, match="slot"):
        affine_average_I(f_list, short, 1, 3.0, 8, rng)
    assert rng.bit_generator.state == state   # refused before any draw


def test_mc_products_draw_every_slot_in_order(monkeypatch):
    f_list, spec = mixed_slots()
    bases, offsets, _ = flat_frames(3, 2, 1.5, 40,
                                    np.random.default_rng(7))
    method = ("mc", 32)
    reference = np.random.default_rng(11)
    expected = per_slot_products(f_list, spec, bases, offsets, method,
                                 reference)
    calls = counting_section_stats(monkeypatch)
    stream = np.random.default_rng(11)
    got = _norm_products(f_list, spec, method, bases, offsets, stream)
    assert np.array_equal(got, expected)
    assert len(calls) == len(f_list)           # one draw per slot
    # the stream ends where the per-slot reference left it
    assert stream.random() == reference.random()


def test_averages_share_section_evaluations(rng, monkeypatch):
    # Grinberg-type slots (f, 1), (f, inf) repeat one density: one
    # section_stats call per stack of subspaces, not two; in R^4 no rule
    # covers the off-centre ball, so the exact average draws its stack, in
    # R^2 each level of the rule is one stack, and the centred ball is read
    # on one frame
    b4 = EllipsoidIndicator.ball(4, center=[0.1, 0.0, 0.0, 0.0])
    b2 = EllipsoidIndicator.ball(2, center=[0.1, 0.0])
    spec = ExponentSpec((1.0, INF), (3.0, -2.0))
    calls = counting_section_stats(monkeypatch)
    grassmann_average_I([b4, b4], spec, 1, 500, rng)
    assert calls and set(calls) == {id(b4)}
    blocks = len(calls)
    calls.clear()
    grassmann_average_I([b4, b4], spec, 1, 500, rng, method=("mc", 8))
    assert len(calls) == 2 * blocks
    calls.clear()
    grassmann_average_I([b2, b2], spec, 1, 500, rng)
    assert calls == [id(b2)] * 2   # the first level and its check
    calls.clear()
    ball = EllipsoidIndicator.ball(4)
    grassmann_average_I([ball, ball], spec, 1, 500, rng)
    assert calls == [id(ball)]


def test_kplane_transform_gaussian(rng):
    g = GaussianDensity.standard(3)
    bases, offsets, _ = flat_frames(3, 1, 1.0, 1, rng)
    d2 = float(offsets[0] @ offsets[0])
    expected = (2 * math.pi) ** -1.0 * math.exp(-0.5 * d2)
    # the k-plane transform of f at F is the mass of its section through F
    masses, _, _ = section_stats(g, bases[0][None], offsets[0][None])
    assert masses[0] == pytest.approx(expected, rel=1e-10)


# ---------------------------------------------------------------------------
# estimator plumbing


def test_estimate_exact_and_scaled():
    e = Estimate.exact(4.0)
    assert e.stderr == 0.0 and e.rel_stderr == 0.0
    s = e.scaled(0.5)
    assert s.value == 2.0 and s.stderr == 0.0


def test_mc_estimate_draws_budget_once(rng):
    calls = []

    def draw(stream, m):
        calls.append((stream, m))
        return stream.random(m)

    est = mc_estimate(draw, 1000, rng, keep_values=True)
    assert len(calls) == 1
    assert calls[0][0] is rng and calls[0][1] == 1000
    assert est.samples == 1000 and est.tail_share is not None


def test_mc_estimate_is_numpys_mean_and_standard_error():
    # no pooling step re-rounds the one draw: value and stderr are numpy's
    # mean and ddof=1 standard deviation over sqrt(n), bit for bit
    rng = np.random.default_rng(11)
    for _ in range(300):
        n = int(10 ** rng.uniform(math.log10(2), 5))
        scale = 10.0 ** rng.uniform(-30, 30)
        v = scale * rng.standard_normal(n) + scale * rng.normal()
        est = mc_estimate(lambda stream, m: v, n, rng)
        assert (est.value, est.stderr, est.samples, est.method) == (
            float(v.mean()), float(v.std(ddof=1) / math.sqrt(n)), n, "mc")


def test_check_report_computes_ratio():
    report = CheckReport("c", {}, Estimate.exact(3.0), Estimate.exact(2.0),
                         "pass")
    assert report.ratio == 1.5
    # the key order of reports/<label>.json
    assert list(report.to_dict()) == ["name", "parameters", "lhs", "rhs",
                                      "ratio", "verdict", "diagnostics"]
    zero = CheckReport("c", {}, Estimate.exact(3.0), Estimate.exact(0.0),
                       "pass")
    assert zero.ratio == math.inf


def test_ratio_and_power_estimates():
    num = Estimate(6.0, 0.6, 50, "mc")
    den = Estimate(3.0, 0.0, 50, "mc")
    r = ratio_estimate(num, den)
    assert r.value == pytest.approx(2.0)
    assert r.stderr == pytest.approx(0.2)
    p = power_estimate(Estimate(4.0, 0.4, 50, "mc"), 0.5)
    assert p.value == pytest.approx(2.0)
    # delta method: d/dv sqrt(v) = 1/(2 sqrt(v)) -> 0.4 / 4 = 0.1... times value
    assert p.stderr == pytest.approx(abs(2.0 * 0.5) * 0.1)


def test_each_estimate_says_how_it_was_computed(rng):
    exact, rule = Estimate.exact(2.0), Estimate(3.0, 3e-12, 64, "rule")
    drawn = mc_estimate(lambda stream, m: stream.random(m), 100, rng)
    assert (exact.method, drawn.method) == ("exact", "mc")
    for est in (exact, rule, drawn):
        assert est.scaled(-2.0).method == est.method
        assert power_estimate(est, 0.5).method == est.method
    # a ratio is as exact as the less exact of its two sides
    for num, den, method in ((exact, exact, "exact"), (exact, rule, "rule"),
                             (rule, exact, "rule"), (rule, drawn, "mc"),
                             (drawn, exact, "mc"),
                             (rule, Estimate.exact(0.0), "rule")):
        assert ratio_estimate(num, den).method == method


def test_stderr_shrinks_with_budget(rng):
    # off-centre, so that the moment has no closed form and is drawn
    b2 = EllipsoidIndicator.ball(2, center=[0.1, 0.0])
    small = cone_moment([b2], 1.0, 10_000, rng)
    large = cone_moment([b2], 1.0, 160_000, rng)
    # 16x the samples should cut the standard error by about 4
    ratio = small.stderr / large.stderr
    assert 2.5 < ratio < 6.5, ratio


# ---------------------------------------------------------------------------
# the rule route of the section-norm averages

SHAPE3 = np.array([[1.5, 0.2, 0.0], [0.2, 0.8, -0.1], [0.0, -0.1, 1.1]])
GAUSS3 = GaussianDensity([0.1, 0.0, -0.2], [[1.0, 0.3, 0.0], [0.3, 0.8, 0.1],
                                            [0.0, 0.1, 1.2]])
ELLIPSE = EllipsoidIndicator([[1.2, 0.3], [0.3, 0.7]], [0.2, -0.1])


@pytest.mark.parametrize("f_list, k, method, flats, covered", [
    ([GAUSS3] * 3, 1, "exact", False, True),
    ([GAUSS3], 2, "exact", False, True),
    ([ELLIPSE, GaussianDensity.standard(2)], 1, "exact", False, True),
    ([EllipsoidIndicator(SHAPE3, [0.3, -0.2, 0.1])] * 2, 2, "exact", False,
     True),
    ([GAUSS3], 1, ("mc", 8), False, False),
    ([GaussianDensity.standard(4)], 1, "exact", False, False),
    ([GaussianDensity.standard(4)], 3, "exact", False, False),
    ([EllipsoidIndicator.ball(3, center=[0.0, 0.0, 1.0])], 1, "exact",
     False, False),                           # the origin on its boundary
    ([TruncatedGaussian(np.zeros(3), 0.8, 2.0)], 1, "exact", False, False),
    ([ELLIPSE, ELLIPSE], 1, "exact", True, True),
    ([ELLIPSE, ELLIPSE.scaled(1.0)], 1, "exact", True, False),
    ([GaussianDensity.standard(2)], 1, "exact", True, False),
    ([EllipsoidIndicator.ball(3)], 1, "exact", True, False),   # k < n - 1
    ([ELLIPSE], 1, ("mc", 8), True, False),
])
def test_rule_route_is_decided_by_family_dimension_and_method(
        f_list, k, method, flats, covered):
    assert functionals._rule_covers(f_list, k, method, flats) is covered


def test_rule_route_draws_nothing(monkeypatch):
    # no generator reaches a covered average, and the budget is unused:
    # both budgets give the same sides, frame counts included
    sides = []
    for budget in (2, 10_000):
        est = grassmann_average_I([GAUSS3] * 3, ExponentSpec(
            (1.0,) * 3, (1.0,) * 3), 1, budget, None)
        assert est.method == "rule" and est.tail_share is None
        flat = affine_average_I([ELLIPSE] * 2, ExponentSpec(
            (1.0, 1.0), (1.0, 1.0)), 1, 2.0, budget, None)
        assert flat.method == "rule" and flat.stderr > 0.0
        sides.append((est, flat))
    assert sides[0] == sides[1]


# (f_list, spec, k): one covered shape of each kind, and a flat rule off
# the polynomial case (k A / 2 = 3/2, offsets through rho = cos psi)
ROUTES = {
    "gauss-lines-3": ([GAUSS3] * 3, ExponentSpec((1.0,) * 3, (1.0,) * 3),
                      1, False),
    "gauss-planes-3": ([GAUSS3, GAUSS3], ExponentSpec((1.0, INF),
                                                      (2.0, -0.5)), 2,
                       False),
    "ellipse-lines-2": ([ELLIPSE, GaussianDensity.standard(2)],
                        ExponentSpec((1.0, 2.0), (1.0, 1.5)), 1, False),
    "ellipsoid-planes-3": ([EllipsoidIndicator(SHAPE3)] * 2,
                           ExponentSpec((1.0, INF), (1.5, -0.5)), 2, False),
    "ellipsoid-flats-3": ([EllipsoidIndicator(SHAPE3, [0.3, -0.2, 0.1])] * 4,
                          ExponentSpec((1.0,) * 4, (1.0,) * 4), 2, True),
    "ellipse-flats-2": ([ELLIPSE], ExponentSpec((1.0,), (3.0,)), 1, True),
}


@pytest.mark.parametrize("name", ROUTES)
def test_rule_route_agrees_with_the_monte_carlo_route(name, rng):
    f_list, spec, k, flats = ROUTES[name]
    n = f_list[0].n
    if flats:
        rule = affine_average_I(f_list, spec, k, 3.0, 2, None)
        frames = functools.partial(flat_frames, n, k,
                                   max(f.support_radius for f in f_list))
    else:
        rule = grassmann_average_I(f_list, spec, k, 2, None)
        frames = functools.partial(subspace_frames, n, k)
    drawn = drawn_average(f_list, spec, frames, 20_000, rng)
    assert drawn.method == "mc" and rule.method == "rule"
    assert rule.stderr <= 1e-9 * rule.value
    assert abs(rule.value - drawn.value) <= 4.0 * drawn.stderr
