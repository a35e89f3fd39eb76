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

from igeolab import functionals, grassmann
from igeolab.densities import (EllipsoidIndicator, GaussianDensity,
                               ProductDensity, Step1D, TruncatedGaussian,
                               section_stats)
from igeolab.functionals import (ExponentSpec, affine_average_I,
                                 grassmann_average_I, powz, simplex_moment,
                                 _lp_norms, _norm_products, _power_model,
                                 _slot_models)
from igeolab.geometry import _tuple_volumes
from igeolab.grassmann import flat_frames, subspace_frames
from igeolab.report import (CheckReport, Estimate, mc_estimate,
                            merge_estimates, power_estimate, ratio_estimate)

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
    # one sample call of n_samples per density, in list order; without the
    # origin the volumes are those of the edges from the first point
    f, g = EllipsoidIndicator.ball(2), GaussianDensity.standard(2)
    stream = np.random.default_rng(4)
    est = simplex_moment([f, g, f], 1.5, False, 500, stream)
    ref = np.random.default_rng(4)
    pts = np.stack([h.sample(500, ref) for h in (f, g, f)], axis=1)
    vols = _tuple_volumes(pts[:, 1:] - pts[:, :1]) ** 1.5
    assert est.value == pytest.approx(vols.mean(), rel=1e-12)
    assert est.samples == 500 and est.tail_share is None
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
# invariant averages


def test_grassmann_average_ball_is_exact(rng):
    # every central section of the ball looks the same, so the average
    # collapses to a single product of norms: with zero variance over
    # drawn subspaces, and at the rule's error floor over a rule's nodes,
    # which stops at its second level, the first it can compare
    b2 = EllipsoidIndicator.ball(2)
    spec = ExponentSpec((1.0, INF), (3.0, -2.0))
    drawn = functionals._average(
        _slot_models([b2, b2], spec), spec, "exact",
        functools.partial(subspace_frames, 2, 1), 500, rng, None)
    assert drawn.method == "mc" and drawn.samples == 500
    assert drawn.value == pytest.approx(2.0 ** 3 * 1.0, rel=1e-12)
    assert drawn.stderr <= 1e-12
    est = grassmann_average_I([b2, b2], spec, 1, 500, rng)
    assert est.value == pytest.approx(2.0 ** 3 * 1.0, rel=1e-15)
    assert est.stderr == grassmann.RULE_RTOL * est.value
    assert est.method == "rule" and est.tail_share is None
    assert est.samples == 2 * grassmann.RULE_START[2]


def test_affine_average_chord_cubed(rng):
    b2 = EllipsoidIndicator.ball(2)
    spec = ExponentSpec((1.0,), (3.0,))
    est = affine_average_I([b2], spec, 1, 1.5, 60_000, rng)
    assert abs(est.value - 3 * math.pi) <= 3.0 * est.stderr, est.value


def test_affine_average_mc_route_agrees(rng):
    b2 = EllipsoidIndicator.ball(2)
    spec = ExponentSpec((1.0,), (3.0,))
    exact = affine_average_I([b2], spec, 1, 1.5, 30_000, rng)
    sampled = affine_average_I([b2], spec, 1, 1.5, 4_000, rng,
                               method=("mc", 400))
    gap = abs(exact.value - sampled.value)
    assert gap <= 3.0 * math.hypot(exact.stderr, sampled.stderr) + 0.05 * exact.value


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


def test_power_model_of_power_one_is_the_density():
    f, _, g, _ = mixed_slots()[0]
    assert _power_model(f, 1.0) is f
    assert _power_model(g, INF) is g
    assert _power_model(g, 2.0) is not g


def test_slot_models_share_one_model_per_density_and_power():
    f_list, spec = mixed_slots()
    models = _slot_models(f_list, spec)
    f, g = f_list[0], f_list[2]
    assert models[0] is models[1] is models[3] is f
    assert models[2] is not g
    pair = _slot_models([g, g], ExponentSpec((2.0, 2.0), (1.0, 1.0)))
    assert pair[0] is pair[1]
    with pytest.raises(ValueError, match="slot"):
        _slot_models(f_list, ExponentSpec((1.0,), (1.0,)))


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
    got = _norm_products(_slot_models(f_list, spec), spec, "exact", bases,
                         offsets, None)
    assert np.array_equal(got, expected)      # bit for bit
    assert len(calls) == len(set(calls)) == 2   # f (p = 1 and inf), g**2
    assert np.count_nonzero(got) > 100


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
    got = _norm_products(_slot_models(f_list, spec), spec, method, bases,
                         offsets, stream)
    assert np.array_equal(got, expected)
    assert len(calls) == len(f_list)           # one draw per slot
    # the stream ends where the per-slot reference left it
    assert stream.random() == reference.random()


def test_averages_share_section_evaluations(rng, monkeypatch):
    # Grinberg-type slots (f, 1), (f, inf) repeat one density: one
    # section_stats call per stack of subspaces, not two; in R^4 no rule
    # covers the ball, so the exact average draws its stack, and in R^2
    # each level of the rule is one stack
    b4, b2 = EllipsoidIndicator.ball(4), EllipsoidIndicator.ball(2)
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


def test_merge_estimates():
    parts = [Estimate(1.0, 0.1, 100, "mc"), Estimate(2.0, 0.1, 100, "mc")]
    merged = merge_estimates(parts)
    assert merged.value == pytest.approx(1.5)
    assert merged.samples == 200
    assert merged.stderr > 0


def test_mc_estimate_draws_budget_once(rng):
    calls = []

    def draw(stream, m):
        calls.append((stream, m))
        return stream.random(m)

    est = mc_estimate(draw, 1000, rng, keep_values=True)
    assert len(calls) == 1
    assert calls[0][0] is rng and calls[0][1] == 1000
    assert est.samples == 1000 and est.tail_share is not None


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
    assert merge_estimates([drawn, drawn]).method == "mc"
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
    b2 = EllipsoidIndicator.ball(2)
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
    models = _slot_models(f_list, spec)
    if flats:
        rule = affine_average_I(f_list, spec, k, 3.0, 2, None)
        frames = functools.partial(flat_frames, n, k,
                                   max(f.support_radius for f in f_list))
    else:
        rule = grassmann_average_I(f_list, spec, k, 2, None)
        frames = functools.partial(subspace_frames, n, k)
    drawn = functionals._average(models, spec, "exact", frames, 20_000, rng,
                                 None)
    assert drawn.method == "mc" and rule.method == "rule"
    assert rule.stderr <= 1e-9 * rule.value
    assert abs(rule.value - drawn.value) <= 4.0 * drawn.stderr
