"""End-to-end checks: decomposition constants, invariance, functional
inequalities, the marginal-bound and sharpness experiments.

Budgets here are a fraction of the config-driven runs; seeds come from the
shared fixture.  Fitted constants are compared against the exact constants
they converge to, with bands wide enough for the reduced budgets.
"""

import csv
import functools
import json
import math
import pathlib
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from igeolab import densities, functionals, geometry, grassmann, runner, \
    sharpness, verify
from igeolab.config import CHECKS, ConfigError, load_config, report_name
from igeolab.densities import (EllipsoidIndicator, GaussianDensity,
                               ProductDensity, PushforwardDensity,
                               RadialGridDensity, Step1D, TruncatedGaussian,
                               affine_image)
from igeolab.functionals import ExponentSpec
from igeolab.densities import section_stats
from igeolab.geometry import unit_volume_radius, _row_norms
from igeolab.grassmann import haar_bases
from igeolab.report import FAIL, INCONCLUSIVE, PASS, Estimate, \
    ParameterError, mc_estimate, ratio_estimate
from igeolab.rng import substream
from igeolab.runner import run_suite
from igeolab.sharpness import gaussian_sharpness_experiment
from igeolab.verify import (check_affine_invariance, check_bp_flat,
                            check_bp_subspace, check_grinberg_functional,
                            check_linear_invariance,
                            check_rearrangement_monotonicity,
                            check_schneider_functional,
                            marginal_bound_experiment, perturbation_experiment)

INF = math.inf


def axis_subspace(n, cols):
    return np.eye(n)[:, list(cols)]


def untouched(rng):
    """What a check changes in rng when it draws from it (the bit generator
    state, whose four SFC64 words are an array) or spawns from it."""
    return (repr(rng.bit_generator.state),
            rng.bit_generator.seed_seq.n_children_spawned)


def normalized_box(shift=0.0):
    # mass one, sup below one, visibly off-center when shift > 0
    fx = Step1D.uniform(shift, shift + 1.5, [0.9, 0.7, 0.4])
    fy = Step1D.uniform(-0.75, 0.75, [0.3, 0.9, 0.8])
    return ProductDensity([fx, fy])


# ---------------------------------------------------------------------------
# decomposition constants


def assert_sits_on_exact_constant(rep, exact):
    """rep PASSes with rhs = route * exact, its ratio the fitted constant
    over exact, and the fit within 8% of it."""
    d = rep.diagnostics
    assert rep.verdict == PASS
    assert d["exact_constant"] == pytest.approx(exact, rel=1e-14)
    assert rep.ratio == pytest.approx(d["fitted_constant"] / exact,
                                      rel=1e-12)
    assert d["fitted_constant"] == pytest.approx(exact, rel=0.08)


def test_bp_subspace_pair_gaussian(rng):
    g = GaussianDensity.standard(2)
    rep = check_bp_subspace([g], k=1, p=1.0, n_direct=40_000,
                            n_subspaces=320, rng=rng)
    # at (2,1,1) the constant is omega_2 / omega_1 = pi
    assert_sits_on_exact_constant(rep, math.pi)


def test_bp_subspace_ball_three_two(rng):
    b3 = EllipsoidIndicator.ball(3)
    rep = check_bp_subspace([b3], k=2, p=1.0, n_direct=40_000,
                            n_subspaces=320, rng=rng)
    # at (3,2,1) it is omega_3 / omega_2 = 2
    assert_sits_on_exact_constant(rep, 2.0)


def test_bp_subspace_short_last_block(monkeypatch, rng):
    # DRAW_BLOCK = 7 with one density and inner = 2 leaves room for 3
    # sections a block, so the route's 20 sections run in blocks of
    # 3, ..., 3 and 2
    sizes = []

    def counted(n, k, size, stream):
        sizes.append(size)
        return haar_bases(n, k, size, stream)

    monkeypatch.setattr(verify, "DRAW_BLOCK", 7)
    monkeypatch.setattr(grassmann, "haar_bases", counted)
    rep = check_bp_subspace([GaussianDensity.standard(2)], k=1, p=1.0,
                            n_direct=200, n_subspaces=20, rng=rng, inner=2)
    assert sizes == [3] * 6 + [2]
    assert rep.rhs.samples == 20
    assert all(math.isfinite(v) for v in (rep.lhs.value, rep.rhs.value,
                                          rep.rhs.stderr, rep.ratio,
                                          rep.diagnostics["departure_z"]))


def test_bp_flat_disk_mass_squared(rng):
    b2 = EllipsoidIndicator.ball(2)
    rep = check_bp_flat(b2, k=1, n_flats=30_000, R=1.5, rng=rng)
    # the ambient side is just mass^2, computed exactly; the constant at
    # (2,1,1) is pi
    assert rep.lhs.value == pytest.approx(math.pi ** 2, rel=1e-12)
    assert rep.lhs.stderr == 0.0
    assert_sits_on_exact_constant(rep, math.pi)


EXACT_FAMILIES = {
    "ellipsoid": lambda: EllipsoidIndicator(
        np.array([[1.5, 0.2, 0.0], [0.2, 0.8, -0.1], [0.0, -0.1, 1.1]]),
        [0.1, -0.1, 0.0]),
    "gaussian": lambda: GaussianDensity(np.zeros(3), np.diag([1.0, 0.7, 1.3])),
    "truncated": lambda: TruncatedGaussian(np.zeros(3), 0.8, 1.5),
    "radial": lambda: RadialGridDensity.uniform(3, 1.2, [1.0, 0.6, 0.3]),
    "product": lambda: ProductDensity([
        Step1D.uniform(-0.5, 0.5, [1.0, 2.0, 1.0]),
        Step1D.uniform(-0.4, 0.6, [0.5, 1.5]),
        Step1D.uniform(-0.5, 0.5, [1.0, 0.2, 2.0])]),
}


@pytest.mark.parametrize("check,family", [
    ("subspace", family) for family in EXACT_FAMILIES] + [
    ("flat", family) for family in EXACT_FAMILIES if family != "gaussian"])
def test_bp_fit_matches_exact_constant(check, family, rng):
    # k = 1 sections in R^3: the batched section sampler must reproduce
    # the Blaschke-Petkantschin constant omega_3 / omega_1 = 2 pi to 4
    # stderr
    f = EXACT_FAMILIES[family]()
    if check == "subspace":
        rep = check_bp_subspace([f], k=1, p=1.0, n_direct=20_000,
                                n_subspaces=2_000, rng=rng, inner=100)
    else:
        rep = check_bp_flat(f, k=1, n_flats=4_000, R=f.support_radius,
                            rng=rng, inner=100)
    d = rep.diagnostics
    assert d["exact_constant"] == pytest.approx(2.0 * math.pi, rel=1e-14)
    assert abs(d["fitted_constant"] - d["exact_constant"]) \
        <= 4.0 * d["fitted_stderr"]
    assert d["departure_z"] == pytest.approx(
        (d["fitted_constant"] - d["exact_constant"]) / d["fitted_stderr"])
    assert rep.ratio == pytest.approx(
        d["fitted_constant"] / d["exact_constant"], rel=1e-12)
    # the stderr is small enough to tell the paper's printed constant,
    # with ball volumes kappa_j for the sphere areas, apart: 2 pi / 3
    assert abs(d["fitted_constant"] - 2.0 * math.pi / 3.0) \
        > 10.0 * d["fitted_stderr"]


def test_bp_checks_reject_sections_without_closed_form(rng):
    box = EXACT_FAMILIES["product"]()
    with pytest.raises(ValueError, match="exact sections"):
        check_bp_subspace([box], k=2, p=1.0, n_direct=100, n_subspaces=8,
                          rng=rng, inner=4)
    skew = PushforwardDensity(EllipsoidIndicator.ball(2),
                              np.array([[1.0, 0.5], [0.0, 1.0]]), np.zeros(2))
    with pytest.raises(ValueError, match="exact sections"):
        check_bp_flat(skew, k=1, n_flats=8, R=2.0, rng=rng, inner=4)


@pytest.mark.parametrize("check", ["subspace", "flat"])
def test_bp_checks_reject_zero_inner_before_drawing(check, rng):
    # inner = 0 points per section used to die in a ZeroDivisionError
    ball = EllipsoidIndicator.ball(2)
    before = untouched(rng)
    with pytest.raises(ParameterError) as err:
        if check == "subspace":
            check_bp_subspace([ball], k=1, p=1.0, n_direct=8, n_subspaces=8,
                              rng=rng, inner=0)
        else:
            check_bp_flat(ball, k=1, n_flats=8, R=1.0, rng=rng, inner=0)
    assert err.value.param == "inner"
    assert untouched(rng) == before


# ---------------------------------------------------------------------------
# invariance


def test_linear_invariance_shear(rng):
    g3 = GaussianDensity(np.zeros(3), np.diag([1.0, 0.7, 1.3]))
    spec = ExponentSpec((1.0, 2.0), (2.0, 2.0))  # 2/1 + 2/2 = 3 = n
    shear = np.array([[1.0, 0.8, 0.0], [0.0, 1.0, -0.6], [0.0, 0.0, 1.0]])
    rep = check_linear_invariance([g3, g3], spec, 1, shear, 6_000, rng)
    assert rep.verdict == PASS
    assert rep.diagnostics["sum_matches"] is True
    assert abs(rep.ratio - 1.0) < 0.1


def test_rotation_passes_even_with_wrong_sum(rng):
    # rotations preserve the Haar average for every exponent choice, so a
    # mismatched sum must not trip the check when the map is orthogonal
    g2 = GaussianDensity(np.zeros(2), np.diag([1.0, 0.4]))
    spec = ExponentSpec((1.0,), (5.0,))  # sum 5 != n
    theta = 0.9
    rot = np.array([[math.cos(theta), -math.sin(theta)],
                    [math.sin(theta), math.cos(theta)]])
    rep = check_linear_invariance([g2], spec, 1, rot, 6_000, rng)
    assert rep.verdict == PASS
    assert rep.diagnostics["sum_matches"] is False
    assert abs(rep.diagnostics["departure_z"]) < 3.0


def test_shear_with_wrong_sum_fails(rng):
    g2 = GaussianDensity(np.zeros(2), np.diag([1.0, 0.4]))
    spec = ExponentSpec((1.0,), (5.0,))
    shear = np.array([[1.0, 0.9], [0.0, 1.0]])
    rep = check_linear_invariance([g2], spec, 1, shear, 6_000, rng)
    assert rep.verdict == FAIL
    assert abs(rep.diagnostics["departure_z"]) > 5.0


def test_affine_invariance_shifted_ellipsoid(rng):
    e = EllipsoidIndicator(np.diag([1.0, 2.0, 0.5]), center=[0.3, -0.2, 0.1])
    spec = ExponentSpec((1.0, INF), (3.0, 1.0))  # 3/1 + 0 ... sum 3? need n+1=4
    spec = ExponentSpec((1.0,), (4.0,))          # 4 = n + 1
    shear = np.array([[1.0, 0.4, 0.0], [0.0, 1.0, 0.25], [0.0, 0.0, 1.0]])
    shift = np.array([0.4, -0.2, 0.1])
    rep = check_affine_invariance([e], spec, 2, shear, shift, R=3.0,
                                  n_flats=16_000, rng=rng)
    assert rep.verdict == PASS
    assert abs(rep.ratio - 1.0) < 0.12


def test_translation_alone_never_breaks_flat_averages(rng):
    # the flat measure is translation invariant outright, so even a wrong
    # exponent sum survives a pure shift; the negative control needs shear
    e = EllipsoidIndicator(np.diag([1.0, 2.0]), center=[0.2, 0.0])
    spec = ExponentSpec((1.0,), (2.0,))  # sum 2 != n + 1 = 3
    rep = check_affine_invariance([e], spec, 1, np.eye(2), np.array([0.7, -0.4]),
                                  R=2.5, n_flats=12_000, rng=rng)
    assert rep.verdict == PASS
    assert rep.diagnostics["sum_matches"] is False


def test_affine_anisotropy_wrong_sum_fails(rng):
    # a mild shear moves the mass-product functional by less than the
    # noise; the decisive control is a strong volume-preserving stretch
    e = EllipsoidIndicator(np.array([[1.2, 0.3], [0.3, 0.7]]))
    spec = ExponentSpec((1.0, 1.0), (1.0, 1.0))  # sum 2, needs 3
    stretch = np.array([[3.0, 0.3], [0.0, 1.0 / 3.0]])
    rep = check_affine_invariance([e, e], spec, 1,
                                  stretch, np.array([0.4, -0.2]),
                                  R=2.0, n_flats=12_000, rng=rng)
    assert rep.verdict == FAIL
    assert abs(rep.diagnostics["departure_z"]) > 5.0


@pytest.mark.parametrize("zero_side", ["after", "before"])
def test_invariance_fails_a_side_that_reads_zero(zero_side):
    # a zero after-side gives the ratio 0 with stderr 0, a zero before-side
    # the ratio inf: neither is a pass
    sides = {"before": Estimate(79.2, 7.9e-11, 8, "rule"),
             "after": Estimate(79.2, 7.9e-11, 8, "rule")}
    sides[zero_side] = Estimate.exact(0.0)
    rep = verify._identity_report("affine_invariance", {}, sides["after"],
                                  sides["before"])
    assert rep.verdict == FAIL


# ---------------------------------------------------------------------------
# the identity and ceiling drivers, on hand-built sides


def identity(lhs, rhs=Estimate.exact(1.0), **diagnostics):
    return verify._identity_report("identity", {}, lhs, rhs, **diagnostics)


@pytest.mark.parametrize("value,verdict", [
    (1.0301, FAIL), (0.9699, FAIL), (1.0299, PASS), (0.9701, PASS)])
def test_identity_report_fails_past_three_stderr(value, verdict):
    # against an exact rhs of 1 the ratio's stderr is lhs's, 1e-2, so the
    # departure is 100 (value - 1), on either side of 1
    rep = identity(Estimate(value, 1e-2, 100, "mc"))
    assert rep.verdict == verdict
    z = rep.diagnostics["departure_z"]
    assert z == pytest.approx(100.0 * (value - 1.0), rel=1e-9)
    assert math.copysign(1.0, z) == math.copysign(1.0, value - 1.0)


@pytest.mark.parametrize("zero_side,z", [("lhs", -INF), ("rhs", INF)])
def test_identity_report_fails_a_zero_side(zero_side, z):
    # a zero lhs is the ratio 0 with stderr 0, a zero rhs the ratio inf
    sides = {"lhs": Estimate(2.0, 0.1, 50, "mc"),
             "rhs": Estimate(2.0, 0.1, 50, "mc")}
    sides[zero_side] = Estimate.exact(0.0)
    rep = identity(sides["lhs"], sides["rhs"])
    assert rep.verdict == FAIL
    assert rep.diagnostics["departure_z"] == z


@pytest.mark.parametrize("lhs,verdict", [
    (Estimate(1.01, 1e-2, 100, "mc", tail_share=0.5), INCONCLUSIVE),
    (Estimate(1.01, 1e-2, 100, "mc", tail_share=0.49), PASS),
    # relative stderr 0.3 / 1.1 > NOISE_FLOOR, a departure of 1/3
    (Estimate(1.1, 0.3, 100, "mc"), INCONCLUSIVE),
    # a departure past 3 stderr is a FAIL however heavy the tail
    (Estimate(1.5, 1e-2, 100, "mc", tail_share=0.9), FAIL),
])
def test_identity_report_inconclusive_when_heavy_or_noisy(lhs, verdict):
    assert identity(lhs).verdict == verdict
    assert identity(Estimate.exact(1.0), lhs).verdict == verdict


def test_identity_report_departure_at_ratio_one():
    # exactly 1 is no departure even with stderr 0, and the check's own
    # diagnostics follow departure_z
    rep = identity(Estimate.exact(3.0), Estimate.exact(3.0), windows=[1.0])
    assert rep.verdict == PASS
    assert rep.diagnostics == {"departure_z": 0.0, "windows": [1.0]}
    assert identity(Estimate(1.0, 0.1, 9, "mc")).diagnostics[
        "departure_z"] == 0.0


def test_ceiling_report_sides():
    rep = verify._ceiling_report("ceiling", {"n": 2}, 2.5, 40, True,
                                 {"c1": 2.5})
    assert rep.lhs == Estimate(2.5, 0.0, 40, "mc")
    assert rep.rhs == Estimate.exact(verify.CONSTANT_CEILING)
    assert (rep.ratio, rep.verdict) == (0.25, PASS)
    assert rep.diagnostics == {"c1": 2.5}
    # the verdict is the check's, which tests more than this constant
    assert verify._ceiling_report("ceiling", {}, 2.5, 40, False,
                                  {}).verdict == FAIL


FAR_SHIFT = """
[run]
seed = 1
output_dir = "out"

[density ball3]
kind = "ellipsoid"
n = 3

[check far shift]
check = "affine_invariance"
densities = ["ball3", "ball3"]
spec_p = [1.0, 1.0]
spec_alpha = [2.0, 2.0]
k = 2
map = MAP
shift = [1e200, 0.0, 0.0]
R = 1.0
n_flats = 200
"""


@pytest.mark.parametrize("name", ["rotation", "shear"])
def test_far_shift_is_a_config_error_on_shift(tmp_path, name):
    # shifted by 1e200, the window about the image has no finite mass (and
    # every section of the mapped ball would read inf - inf): the shift is
    # refused at load, with no RuntimeWarning on the way, after a quarter
    # turn as after a drawn shear
    path = tmp_path / "suite.ini"
    path.write_text(FAR_SHIFT.replace("MAP", {
        "rotation": "[[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]",
        "shear": '"shear"'}[name]))
    with pytest.raises(ConfigError) as err:
        load_config(str(path))
    assert (err.value.section, err.value.field) == ("check far shift",
                                                    "shift")
    assert "flat window" in err.value.message


OVERFLOWING_MAP = """
[run]
seed = 1
output_dir = "out"

[density ball3]
kind = "ellipsoid"
n = 3

[check far map]
check = "CHECK"
densities = ["ball3", "ball3"]
spec_p = [1.0, 1.0]
k = 2
map = [[1eEXP, 0.0, 0.0], [0.0, 1e-EXP, 0.0], [0.0, 0.0, 1.0]]
"""


@pytest.mark.parametrize("check,extra", [
    ("linear_invariance", "spec_alpha = [1.5, 1.5]\nn_subspaces = 200\n"),
    ("linear_invariance", "spec_alpha = [1.5, 1.5]\nn_subspaces = 200\n"
                          'method = ["mc", 16]\n'),
    ("affine_invariance", "spec_alpha = [2.0, 2.0]\nR = 1.0\n"
                          "n_flats = 200\nshift = [0.0, 0.0, 0.0]\n")],
    ids=["linear_invariance", "linear_invariance_mc", "affine_invariance"])
def test_overflowing_map_is_a_config_error_on_map(tmp_path, check, extra):
    # at 1e200 the stand-in image's shape matrix overflows; affine_image
    # forms it without a warning and the rules name the map, not the
    # image's shape.  At 1e100 the image is finite, but its sections'
    # determinants overflow (the check once warned and failed a true
    # invariance): the map's condition number, 1e200, is refused
    path = tmp_path / "suite.ini"
    for exponent, why in (("200", "float range"),
                          ("100", "condition number can reach 1e+200")):
        path.write_text(OVERFLOWING_MAP.replace("CHECK", check).replace(
            "EXP", exponent) + extra)
        with pytest.raises(ConfigError) as err:
            load_config(str(path))
        assert (err.value.section, err.value.field) == ("check far map",
                                                        "map")
        assert "EllipsoidIndicator" in err.value.message
        assert why in err.value.message


@pytest.mark.parametrize("check", ["linear", "affine"])
def test_map_condition_cap_is_the_boundary(rng, check):
    # a diagonal map just under MAP_CONDITION_CAP loads and runs to a
    # verdict with no RuntimeWarning; just over it, it is refused.  The
    # verdict is not pinned: the cap guards against overflow and
    # cancellation only
    ball = EllipsoidIndicator(np.eye(3))
    run = {"linear": lambda g: check_linear_invariance(
               [ball, ball], ExponentSpec((1.0, 1.0), (1.5, 1.5)), 2, g, 200,
               rng),
           "affine": lambda g: check_affine_invariance(
               [ball, ball], ExponentSpec((1.0, 1.0), (2.0, 2.0)), 2, g,
               np.array([0.3, -0.2, 0.1]), 1.0, 200, rng)}[check]
    for scale, refused in ((1 - 1e-9, False), (1 + 1e-9, True)):
        s = math.sqrt(verify.MAP_CONDITION_CAP * scale)
        g = np.diag([s, 1 / s, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if refused:
                with pytest.raises(ParameterError) as err:
                    run(g)
                assert err.value.param == "g"
            else:
                assert run(g).verdict in (PASS, FAIL, INCONCLUSIVE)


@pytest.mark.parametrize("check", ["linear", "affine"])
def test_a_condition_1000_map_keeps_a_true_invariance(check):
    # a diagonal map of condition 1,000 on a ball pair at the invariant
    # exponent sum: the product rule read ratios 7.1 (linear) and 8.5
    # (affine) and FAILed; matched to each image's form the rule reads 1
    # to rounding, against the ball's one frame over subspaces
    ball = EllipsoidIndicator.ball(3)
    g = np.diag([10 ** 1.5, 10 ** -1.5, 1.0])
    rng = np.random.default_rng(1)
    if check == "linear":
        report = check_linear_invariance(
            [ball, ball], ExponentSpec((1.0, 1.0), (1.5, 1.5)), 2, g, 200,
            rng)
    else:
        report = check_affine_invariance(
            [ball, ball], ExponentSpec((1.0, 1.0), (2.0, 2.0)), 2, g,
            np.zeros(3), 1.0, 200, rng)
    assert report.verdict == PASS
    assert abs(report.ratio - 1.0) <= 1e-10
    assert report.lhs.method == "rule"
    assert report.rhs.method == ("exact" if check == "linear" else "rule")


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_shear_condition_bounds_every_drawn_shear(n):
    # the rules' bound on 'shear' is above the condition number of the
    # family's worst member (every entry above the diagonal at -1.5) and of
    # every shear drawn
    bound = verify._map_condition("shear", n)
    worst = np.eye(n) - np.triu(np.full((n, n), verify.SHEAR_ENTRIES[1]), 1)
    assert np.linalg.cond(worst) <= bound
    rng = np.random.default_rng(n)
    drawn = [verify._drawn_map("shear", n, rng) for _ in range(200)]
    assert max(np.linalg.cond(a) for a in drawn) <= bound


@pytest.mark.parametrize("n,refused", [(17, False), (18, True)])
def test_shear_is_refused_where_its_bound_passes_the_cap(n, refused):
    # from n = 18 some drawn shear could pass the cap, so 'shear' is refused
    # before anything is drawn
    ball = EllipsoidIndicator(np.eye(n))
    rules = functools.partial(verify._linear_invariance_rules, [ball],
                              ExponentSpec((1.0,), (float(n - 1),)), 1,
                              "shear", 16, "exact")
    if refused:
        with pytest.raises(ParameterError, match="condition number") as err:
            rules()
        assert err.value.param == "g"
    else:
        rules()


def counting_affine_image(monkeypatch):
    """ids of the densities that verify._images maps; the rules' stand-in
    probes of affine_image are not counted."""
    mapped = []

    def spy(f, g):
        if sys._getframe(1).f_code is verify._images.__code__:
            mapped.append(id(f))
        return affine_image(f, g)

    monkeypatch.setattr(verify, "affine_image", spy)
    return mapped


def test_invariance_checks_map_each_density_once(rng, monkeypatch):
    e = EllipsoidIndicator(np.diag([1.0, 2.0, 0.5]), center=[0.3, -0.2, 0.1])
    g = GaussianDensity(np.zeros(3), np.diag([1.0, 0.7, 1.3]))
    shear = np.array([[1.0, 0.4, 0.0], [0.0, 1.0, 0.25], [0.0, 0.0, 1.0]])
    mapped = counting_affine_image(monkeypatch)
    check_linear_invariance([g, e, g, g], ExponentSpec(
        (1.0, 1.0, 1.0, 1.0), (0.75,) * 4), 1, shear, 200, rng)
    assert sorted(mapped) == sorted([id(g), id(e)])
    mapped.clear()
    check_affine_invariance([e, e, e, e], ExponentSpec(
        (1.0, 1.0, 1.0, 1.0), (1.0,) * 4), 2, shear, np.array([0.4, 0.0, 0.1]),
        R=3.0, n_flats=200, rng=rng)
    assert mapped == [id(e)]


STAND_IN_FAMILIES = {**EXACT_FAMILIES,
                     "pushforward": lambda: PushforwardDensity(
                         EllipsoidIndicator.ball(3), np.triu(np.ones((3, 3))),
                         np.zeros(3))}


@pytest.mark.parametrize("family", STAND_IN_FAMILIES)
@pytest.mark.parametrize("a", [
    pytest.param(np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0],
                           [0.0, 0.0, 1.0]]), id="rotation"), "shear"])
@pytest.mark.parametrize("shift", [None, "random"])
def test_stand_in_image_is_of_the_drawn_image_family(family, a, shift, rng):
    # config asks a stand-in map whether an image has exact sections, and
    # the check maps by the drawn one: both must give the same family, with
    # no shift or with a shift vector drawn here.  A given matrix is its own
    # stand-in and draws nothing
    f = STAND_IN_FAMILIES[family]()
    if shift is not None:
        shift = rng.normal(size=f.n)
    family_at_load = type(affine_image(f, verify._stand_in((a, shift), f.n)))
    for _ in range(5):
        before = untouched(rng)
        drawn = verify._drawn_map(a, f.n, rng), shift
        assert type(affine_image(f, drawn)) is family_at_load
        if not isinstance(a, str):
            assert np.array_equal(drawn[0], a)
            assert untouched(rng) == before


# ---------------------------------------------------------------------------
# rearrangement chain


def test_rearrangement_ball_fixed_point(rng):
    ball = EllipsoidIndicator.ball(2, radius=unit_volume_radius(2))
    rep = check_rearrangement_monotonicity([ball], p=1.0, case="cone",
                                           n_samples=40_000, rng=rng)
    assert rep.verdict == PASS
    d = rep.diagnostics
    assert d["normalized_inputs"] is True
    assert d["value"] == pytest.approx(d["value_ball"], rel=0.05)


def test_rearrangement_strict_for_shifted_box(rng):
    f = normalized_box(shift=1.0)
    rep = check_rearrangement_monotonicity([f], p=1.0, case="cone",
                                           n_samples=60_000, rng=rng)
    assert rep.verdict == PASS
    d = rep.diagnostics
    # pushing mass away from the origin strictly inflates the cone moment
    assert d["value"] > 1.1 * d["value_rearranged"]
    assert d["value_rearranged"] >= d["value_ball"] * 0.97


def test_rearrangement_simplex_case(rng):
    f = normalized_box(shift=0.25)
    rep = check_rearrangement_monotonicity([f, f, f], p=1.0, case="simplex",
                                           n_samples=60_000, rng=rng)
    assert rep.verdict == PASS


def test_rearrangement_skips_second_leg_when_unnormalized(rng):
    big = EllipsoidIndicator.ball(2, radius=1.0, amplitude=2.0)
    rep = check_rearrangement_monotonicity([big], p=1.0, case="cone",
                                           n_samples=20_000, rng=rng)
    assert rep.diagnostics["second_step_skipped"]  # reason string
    assert rep.verdict == PASS


def test_rearrangement_validation(rng):
    f = normalized_box()
    with pytest.raises(ValueError):
        check_rearrangement_monotonicity([f], 0.5, "cone", 1000, rng)
    with pytest.raises(ValueError):
        check_rearrangement_monotonicity([f], 1.0, "pyramid", 1000, rng)
    with pytest.raises(ValueError):
        check_rearrangement_monotonicity([f, f, f], 1.0, "cone", 1000, rng)


# ---------------------------------------------------------------------------
# functional inequalities


def test_grinberg_ball_equality_is_exact(rng):
    b2 = EllipsoidIndicator.ball(2)
    rep = check_grinberg_functional([b2], k=1, p=1.0, n_subspaces=400,
                                    rng=rng, expect_equality=True)
    assert rep.verdict == PASS
    assert rep.lhs.value == pytest.approx(4.0, rel=1e-10)
    assert rep.rhs.value == pytest.approx(4.0, rel=1e-10)


def test_grinberg_strict_for_truncated_kernel(rng):
    f = TruncatedGaussian.normalized(np.zeros(3), tau=0.7, radius=1.4)
    rep = check_grinberg_functional([f, f], k=2, p=1.0, n_subspaces=1_500,
                                    rng=rng)
    assert rep.verdict == PASS
    assert rep.ratio < 0.95  # genuinely strict, not a near-equality


def test_grinberg_false_equality_claim_fails(rng):
    f = TruncatedGaussian.normalized(np.zeros(3), tau=0.7, radius=1.4)
    rep = check_grinberg_functional([f, f], k=2, p=1.0, n_subspaces=1_500,
                                    rng=rng, expect_equality=True)
    assert rep.verdict == FAIL


def test_schneider_disk_closed_form(rng):
    b2 = EllipsoidIndicator.ball(2)
    rep = check_schneider_functional(b2, k=1, n_flats=30_000, rng=rng,
                                     expect_equality=True)
    assert rep.verdict == PASS
    assert rep.rhs.value == pytest.approx(3 * math.pi, rel=1e-10)
    assert abs(rep.ratio - 1.0) <= 0.02


def test_schneider_shifted_ellipse_equality(rng):
    e = EllipsoidIndicator(np.diag([1.0, 3.0]), center=[0.4, -0.1])
    rep = check_schneider_functional(e, k=1, n_flats=30_000, rng=rng,
                                     expect_equality=True)
    assert rep.verdict == PASS
    assert abs(rep.ratio - 1.0) <= 0.02


# ---------------------------------------------------------------------------
# marginal bound experiment


def test_marginal_bound_round_ball(rng):
    ball = EllipsoidIndicator.ball(3, radius=unit_volume_radius(3))
    rep = marginal_bound_experiment(ball, k=1, s=2.0, t=2.0, n_subspaces=40,
                                    n_x=200, rng=rng)
    assert rep.verdict == PASS
    d = rep.diagnostics
    assert d["c1"] <= 10.0 and d["c2"] <= 10.0 and d["c3"] <= 10.0
    assert d["bad_fraction"] <= d["bad_envelope"]
    assert d["worst_point_bad_fraction"] <= 2.0 ** -3 + 1e-12
    # lhs is the largest constant, rhs the ceiling it must stay under
    assert rep.lhs == Estimate(max(d["c1"], d["c2"], d["c3"]), 0.0, 40, "mc")
    assert rep.rhs == Estimate.exact(10.0)
    assert rep.ratio <= 1.0
    assert d["c2"] == pytest.approx(d["threshold"] ** (1.0 / 3) / 2.0,
                                    rel=1e-12)


def test_marginal_bound_fails_a_nan_constant(monkeypatch, rng):
    # NaN fiber masses make c1 NaN; each constant is tested by itself, so
    # the verdict fails whatever max() makes of the NaN in lhs
    fibers = verify._fiber_statistics

    def poisoned(f, bases, ys):
        t, l1, r, t0 = fibers(f, bases, ys)
        return t, np.full_like(l1, np.nan), r, t0

    monkeypatch.setattr(verify, "_fiber_statistics", poisoned)
    ball = EllipsoidIndicator.ball(3, radius=unit_volume_radius(3))
    rep = marginal_bound_experiment(ball, k=1, s=2.0, t=2.0, n_subspaces=40,
                                    n_x=200, rng=rng)
    assert math.isnan(rep.diagnostics["c1"])
    assert rep.verdict == FAIL


def test_marginal_bound_flags_skewed_direction(rng):
    skew = GaussianDensity(np.zeros(3), np.diag([1e-4, 1.0, 1.0]))
    rep = marginal_bound_experiment(skew, k=1, s=2.0, t=2.0, n_subspaces=30,
                                    n_x=200, rng=rng,
                                    adversarial=axis_subspace(3, [0]))
    assert rep.diagnostics["adversarial_detected"] is True
    assert rep.diagnostics["adversarial_average"] > rep.diagnostics["threshold"]


@pytest.mark.filterwarnings("error")
def test_marginal_bound_point_threshold_past_float_range(rng):
    # every t > 1 is legal; a pointwise threshold (c2 s t)^(kn) past the
    # float range lets every point through instead of overflowing
    skew = GaussianDensity(np.zeros(3), np.diag([1e-4, 1.0, 1.0]))
    rep = marginal_bound_experiment(skew, k=1, s=2.0, t=1e120, n_subspaces=30,
                                    n_x=200, rng=rng)
    assert rep.verdict in (PASS, FAIL)
    assert rep.diagnostics["worst_point_bad_fraction"] == 0.0


def test_marginal_bound_rejects_adversarial_of_wrong_dimension(rng):
    # a plane planted where k = 1 asks for lines used to run to a verdict
    ball = EllipsoidIndicator.ball(3, radius=unit_volume_radius(3))
    before = untouched(rng)
    with pytest.raises(ParameterError) as err:
        marginal_bound_experiment(ball, k=1, s=2.0, t=2.0, n_subspaces=4,
                                  n_x=10, rng=rng,
                                  adversarial=axis_subspace(3, [0, 1]))
    assert err.value.param == "adversarial"
    assert untouched(rng) == before


def test_marginal_bound_requires_probability_density(rng):
    b = EllipsoidIndicator.ball(2, amplitude=2.0)
    with pytest.raises(ValueError):
        marginal_bound_experiment(b, k=1, s=2.0, t=2.0, n_subspaces=4,
                                  n_x=10, rng=rng)


ROTATION_INVARIANT = {
    "ball6": (EllipsoidIndicator.ball(6, radius=unit_volume_radius(6)), 3),
    "trunc6": (TruncatedGaussian.normalized(np.zeros(6), 1.0, 2.0), 3),
    "trunc4": (TruncatedGaussian.normalized(np.zeros(4), 0.8, 1.5), 2),
}


@pytest.mark.parametrize("law", ROTATION_INVARIANT)
def test_marginal_bound_passes_rotation_invariant_laws(rng, law):
    # every subspace has the same origin statistic up to rounding, often
    # bit for bit; a tie at the threshold must not count as an exceedance
    f, k = ROTATION_INVARIANT[law]
    rep = marginal_bound_experiment(f, k=k, s=2.0, t=2.0, n_subspaces=20,
                                    n_x=200, rng=rng)
    assert rep.verdict == PASS, rep.diagnostics
    assert rep.diagnostics["bad_fraction"] == 0.0


def test_marginal_bound_fails_every_frame_on_the_first_axes(monkeypatch):
    # the shipped row PASSes; with every Haar frame replaced by the first
    # k axes (the skewed Gaussian's thin one) it must FAIL
    cfg = load_config(str(ROOT / "configs" / "paper-core.ini"))
    (idx, job), = [(idx, job) for idx, job in enumerate(cfg.checks)
                   if job.label == "marginal bound skewed"]

    def run():
        return CHECKS[job.name].run(job.kwargs, substream(cfg.seed, idx))

    assert run().verdict == PASS
    monkeypatch.setattr(verify, "haar_bases", lambda n, k, size, rng:
                        np.repeat(np.eye(n)[None, :, :k], size, axis=0))
    report = run()
    assert report.verdict == FAIL
    assert report.diagnostics["c2"] > verify.CONSTANT_CEILING
    assert report.lhs.value >= report.diagnostics["c2"] and report.ratio > 1.0


def _fibers_one_subspace_at_a_time(f, rows):
    """The per-subspace loop the stacked fiber statistics replace: per
    (basis, points) row, one section_stats call over n_x + 1 fibers
    spanned by the broadcast complement."""
    n = f.n
    out = []
    for E, points in rows:
        k = E.shape[1]
        feet = points @ (E @ E.T).T
        complement = np.linalg.qr(E, mode="complete")[0][:, k:]
        l1, sup, _ = section_stats(
            f, np.broadcast_to(complement, (len(feet) + 1, n, n - k)),
            np.vstack([feet, np.zeros(n)]))
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where(sup > 0, l1 ** n / np.maximum(sup, 1e-300) ** k, 0.0)
        out.append((t[:-1], l1[:-1], np.linalg.norm(feet, axis=1), t[-1]))
    return [np.array(column) for column in zip(*out)]


FIBER_FAMILIES = {
    "gaussian": GaussianDensity([0.2, 0.0, -0.1], np.diag([1e-2, 1.0, 2.0])),
    "ellipsoid": EllipsoidIndicator(np.diag([1.0, 4.0, 0.5]),
                                    center=[0.1, 0.0, 0.2]),
    # a product in the plane: its fibers at k = 1 are lines
    "product": normalized_box(0.3),
}


@pytest.mark.parametrize("family", FIBER_FAMILIES)
@pytest.mark.parametrize("per_block", [3, None])
def test_fiber_blocks_match_one_subspace_at_a_time(monkeypatch, family,
                                                   per_block):
    f = FIBER_FAMILIES[family]
    n_x = 30
    if per_block:
        # 8 subspaces in blocks of 3, 3 and 2
        monkeypatch.setattr(verify, "ROW_BLOCK", per_block * (n_x + 1) + 2)
    # the stack marginal_bound_experiment builds from its one generator:
    # the Haar bases, then all their points in one draw, then the points
    # of the adversarial subspace, which is the last row
    gen = np.random.default_rng(5)
    bases = haar_bases(f.n, 1, 7, gen)
    points = f.sample(7 * n_x, gen).reshape(7, n_x, f.n)
    rows = list(zip(bases, points))
    rows.append((axis_subspace(f.n, [0]), f.sample(n_x, gen)))
    got = verify._fiber_statistics(f, *map(np.stack, zip(*rows)))
    want = _fibers_one_subspace_at_a_time(f, rows)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


def test_small_ball_fractions_count_like_a_sorted_search():
    coords = np.random.default_rng(3).standard_normal((1000, 2))
    coords[0] = [0.25, -0.5]
    # exactly on a radius: 0.5 from the origin, 1.0 from coords[0]
    coords[7] = [0.5, 0.0]
    coords[8] = [0.25, 0.5]
    radii = np.array([0.1, 0.5, 1.0, 3.0])
    norms = np.array([_row_norms(coords), _row_norms(coords - coords[0])])
    assert norms[0, 7] == 0.5 and norms[1, 8] == 1.0
    norms.sort()
    want = np.array([np.searchsorted(row, radii, side="right")
                     for row in norms]) / len(coords)
    assert np.array_equal(verify._small_ball_fractions(coords, radii), want)


# ---------------------------------------------------------------------------
# sharpness of the small-sup event


def sampler_share(n, k, s, m, rng):
    """Share of m sharpness draws that hit, through the sampler the Monte
    Carlo route uses, in its blocks."""
    return sharpness._hit_count(n, k, s, rng, m) / m


def assert_matches_sampler(exact, n, k, s, rng, m=1_000_000):
    # binomial z of m draws against the exact measure
    z = (sampler_share(n, k, s, m, rng) - exact) \
        / math.sqrt(exact * (1.0 - exact) / m)
    assert abs(z) <= 4.0


def test_sharpness_honest_shortfall(rng):
    rep = gaussian_sharpness_experiment(3, 1, 2.0, 40_000, rng)
    d = rep.diagnostics
    # closed form for this event: P = 1 - t with
    # t^2 = (1 - 1/(2 pi s^2)) / (1 - sigma^2), sigma^2 = (2 pi)^{-3}
    t = math.sqrt((1 - 1 / (8 * math.pi)) / (1 - (2 * math.pi) ** -3))
    target = 1.0 - t  # 0.0181151
    assert target == pytest.approx(0.0181151, abs=2e-7)
    assert rep.rhs.value == pytest.approx(target, rel=1e-12)
    assert rep.rhs.stderr == 0.0 and rep.rhs.samples == 0
    # the claimed lower bound (2s)^{-k(n-k)} = 1/16 overshoots by ~3.5x,
    # so the verdict is an honest fail
    assert rep.verdict == FAIL
    assert d["claimed_bound"] == pytest.approx(1.0 / 16.0)
    assert 3.3 <= d["fitted_factor"] <= 4.2


@pytest.mark.parametrize("n,k,s", [(3, 1, 1.5), (4, 2, 1.5), (6, 3, 1.0)])
def test_sharpness_blocks_match_one_shot_draw(n, k, s):
    # one substream of 2^16 + 3 subspaces spans block boundaries, the last
    # block short; the block-streamed hits must equal those of one
    # haar_bases call
    m = (1 << 16) + 3
    drawn = sampler_share(n, k, s, m, np.random.default_rng(3)) * m
    sigma2 = (2 * math.pi) ** (-n / k)
    diag = np.array([sigma2] * k + [1.0] * (n - k))
    b = haar_bases(n, k, m, np.random.default_rng(3))
    gram = np.einsum("sji,sjl->sil", b, b * diag[None, :, None])
    _, logdet = np.linalg.slogdet(gram)
    hits = int(np.count_nonzero(
        logdet <= -k * math.log(2 * math.pi) - 2 * k * math.log(s)))
    assert hits > 0
    assert round(drawn) == hits


def test_sharpness_draw_needs_no_orthonormal_basis(monkeypatch):
    # the event depends on the span alone, through det(G^T D G) / det(G^T G)
    def orthonormalize(*args):
        raise AssertionError("sharpness draw orthonormalized a basis")

    monkeypatch.setattr(grassmann, "haar_bases", orthonormalize)
    monkeypatch.setattr(grassmann, "_orthonormalize", orthonormalize)
    assert sharpness._sharpness_hits(4, 2, 1.5, np.random.default_rng(5),
                                  4000).any()
    rep = gaussian_sharpness_experiment(6, 3, 1.0, 4000,
                                        np.random.default_rng(5))
    assert rep.rhs.value > 0


def test_sharpness_small_blocks_match_default(monkeypatch):
    # hit tests on blocks of 7 subspaces, the last one short, draw from the
    # generator in turn as the default block does: the same report, bit for
    # bit, for a Monte Carlo row and for an exact row's cross-check
    rows = {"mc": (6, 3, 1.0, 4000), "rule": (4, 2, 1.5, 4000)}
    ref = {method: gaussian_sharpness_experiment(*args,
                                                 np.random.default_rng(5))
           for method, args in rows.items()}
    monkeypatch.setattr(sharpness, "ROW_BLOCK", 7)
    for method, args in rows.items():
        small = gaussian_sharpness_experiment(*args, np.random.default_rng(5))
        assert ref[method].rhs.method == method
        assert small.to_dict() == ref[method].to_dict()
    assert ref["mc"].rhs.value > 0
    assert ref["rule"].diagnostics["sampled_measure"] > 0


def test_sharpness_hit_blocks_bound_the_traced_peak():
    # a (4, 2) row cross-checks CROSS_CHECK subspaces and a (6, 3) row
    # draws a million, on the Monte Carlo route, but only one block of
    # them, and their Gram products, are live at once, and only the hit
    # count is kept; a block of ROW_BLOCK // k subspaces keeps its draw
    # and two Gram stacks near 0.75 MiB whatever k is, where a float64 per
    # hit took 15.3 MiB in all and ROW_BLOCK subspaces at (6, 3) 2.63
    for args, bound in (((4, 2, 1.5), 2 << 20), ((6, 3, 1.0), 2 << 20)):
        tracemalloc.start()
        try:
            gaussian_sharpness_experiment(*args, 1_000_000,
                                          np.random.default_rng(5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, args


def test_sharpness_hit_count_is_the_mc_estimate_of_its_hits():
    # the Estimate mc_estimate returns for the hits as 0/1 values: the
    # value bit for bit, the stderr to rounding
    report = gaussian_sharpness_experiment(6, 3, 1.0, 20_000,
                                           np.random.default_rng(5))
    want = mc_estimate(functools.partial(sharpness._sharpness_hits, 6, 3,
                                         1.0), 20_000,
                       np.random.default_rng(5))
    assert report.rhs.method == want.method == "mc"
    assert report.rhs.samples == want.samples
    assert report.rhs.value == want.value > 0
    assert report.rhs.stderr == pytest.approx(want.stderr, rel=1e-12)


@pytest.mark.parametrize("s,exact", [(1.5, 0.034067), (2.0, 0.018115),
                                     (3.0, 0.0068775)])
def test_sharpness_exact_measure_matches_mc(s, exact, rng):
    rep = gaussian_sharpness_experiment(3, 1, s, 100_000, rng)
    assert rep.rhs.value == pytest.approx(exact, rel=5e-5)
    assert rep.rhs.value == geometry.exact_event_measure(3, 1, s)
    assert rep.rhs.method == "exact"
    assert_matches_sampler(rep.rhs.value, 3, 1, s, rng)


@pytest.mark.parametrize("n,k,s", [(4, 2, 1.5), (4, 2, 2.0), (5, 2, 1.5),
                                   (5, 3, 1.3)])
def test_sharpness_two_plane_measure_matches_mc(n, k, s, rng):
    # min(k, n-k) = 2: the quadrature, through E itself for k <= n-k and
    # through its orthogonal complement for (5, 3)
    rep = gaussian_sharpness_experiment(n, k, s, 100_000, rng)
    d = rep.diagnostics
    assert rep.rhs.method == "rule" and rep.rhs.samples == 0
    assert rep.rhs.stderr == 0.0
    assert rep.rhs.value == geometry.exact_event_measure(n, k, s) > 0
    # the row's own one-block cross-check, and a million more draws
    assert abs(d["sampled_z"]) <= 4.0
    assert d["sampled_z"] == pytest.approx(
        (d["sampled_measure"] - rep.rhs.value)
        / math.sqrt(rep.rhs.value * (1 - rep.rhs.value)
                    / sharpness.CROSS_CHECK))
    assert_matches_sampler(rep.rhs.value, n, k, s, rng)


def test_sharpness_two_plane_measure_pins_the_shipped_rows():
    # (4, 2) at s = 1.5 and 2, and the verdict it gives: measure >= bound
    for s, value in ((1.5, 0.0050158586), (2.0, 0.00030741698)):
        rep = gaussian_sharpness_experiment(4, 2, s, 100,
                                            np.random.default_rng(0))
        assert rep.rhs.value == pytest.approx(value, rel=1e-8)
        assert rep.verdict == FAIL and rep.rhs.value < rep.lhs.value


def test_sharpness_no_exact_measure_between_lines_and_hyperplanes(rng):
    # min(k, n-k) <= 2 has one; (6, 3) has none, and its measure is the
    # share of the sampler's hits in the row's own stream
    state = rng.bit_generator.state
    rep = gaussian_sharpness_experiment(6, 3, 1.0, 1000, rng)
    assert geometry.exact_event_measure(6, 3, 1.0) is None
    assert rep.rhs.method == "mc" and rep.rhs.samples == 1000
    assert rep.diagnostics["sampled_z"] is None
    rng.bit_generator.state = state
    assert rep.rhs.value == sampler_share(6, 3, 1.0, 1000, rng) > 0


@pytest.mark.parametrize("n,k,s", [(3, 1, 1.5), (3, 1, 6.1),
                                   (4, 2, 1.5), (4, 2, 2.2),
                                   (5, 3, 1.2), (5, 3, 1.6),
                                   (3, 2, 1.2), (3, 2, 1.57)])
def test_sharpness_det_test_matches_slogdet_draw_for_draw(n, k, s):
    # the log-free det comparison flags the same draws as the log det ratio
    # of the same Gaussian draw; the second s of each pair sits just below
    # the empty bound (2 pi)^((n-k)/(2k)), where hits are rare
    m = 50_000
    seen = sharpness._sharpness_hits(n, k, s, np.random.default_rng(11), m)
    g = np.random.default_rng(11).standard_normal((m, n, k))
    diag = np.array([(2 * math.pi) ** (-n / k)] * k + [1.0] * (n - k))
    gram_d = np.einsum("sji,j,sjl->sil", g, diag, g)
    gram = np.einsum("sji,sjl->sil", g, g)
    log_ratio = np.linalg.slogdet(gram_d)[1] - np.linalg.slogdet(gram)[1]
    ref = log_ratio <= -k * math.log(2 * math.pi) - 2 * k * math.log(s)
    assert ref.any()
    np.testing.assert_array_equal(seen, ref)


class _NoDrawGenerator(np.random.Generator):
    def standard_normal(self, *args, **kwargs):
        raise AssertionError("an empty sharpness event drew subspaces")


@pytest.mark.parametrize("n,k,s", [(4, 2, 3.0), (5, 4, 1.3)])
def test_sharpness_empty_event_draws_nothing(n, k, s):
    # min det(B^T D B) = sigma^(2k): above (2 pi)^((n-k)/(2k)) no subspace
    # can hit, so the check reports an exact 0 without touching the stream
    gen = _NoDrawGenerator(np.random.PCG64(7))
    state = gen.bit_generator.state
    rep = gaussian_sharpness_experiment(n, k, s, 1000, gen)
    d = rep.diagnostics
    assert s > d["empty_above"] == (2 * math.pi) ** ((n - k) / (2 * k))
    assert rep.rhs.method == "exact"
    assert geometry.exact_event_measure(n, k, s) == 0.0
    assert d["sampled_measure"] is None and d["sampled_z"] is None
    assert rep.rhs.samples == 0 and rep.rhs.value == 0.0
    assert rep.verdict == FAIL
    assert gen.bit_generator.state == state
    with pytest.raises(ValueError):
        gaussian_sharpness_experiment(n, k, s, 1, gen)


@pytest.mark.parametrize("s", [1.0, 1.5, 2.0, 2.4])
def test_sharpness_hyperplane_form_matches_line_form_in_the_plane(s):
    # at n = 2 a line is a hyperplane: the measure read off the line's
    # direction equals the hyperplane form read off its normal u, where
    # det = det(D) u^T D^-1 u and the event is u_2^2 >= x
    line = geometry.exact_event_measure(2, 1, s)
    assert line > 0.0
    sigma2 = (2 * math.pi) ** -2
    x = (1.0 / sigma2 - 2 * math.pi * s ** -2) / (1.0 / sigma2 - 1.0)
    assert geometry._beta_half(0.5, 1.0 - min(max(x, 0.0), 1.0)) \
        == pytest.approx(line, rel=1e-14, abs=1e-16)


@pytest.mark.parametrize("n,s,exact", [(3, 1.2, 0.071365), (4, 1.1, 0.054181)])
def test_sharpness_hyperplane_exact_measure_matches_mc(n, s, exact, rng):
    rep = gaussian_sharpness_experiment(n, n - 1, s, 100_000, rng)
    assert rep.rhs.method == "exact"
    assert rep.rhs.value == geometry.exact_event_measure(n, n - 1, s)
    assert rep.rhs.value == pytest.approx(exact, rel=5e-5)
    assert_matches_sampler(rep.rhs.value, n, n - 1, s, rng)


@pytest.mark.parametrize("relpath", ["configs/sharpness.ini",
                                     "bench/workloads/sharpness.ini"])
def test_shipped_sharpness_rows_never_read_the_sampler(relpath, tmp_path,
                                                       monkeypatch):
    # every shipped sharpness row has an exact measure: the sampler feeds
    # only the cross-check of each non-empty row, so a sampler that hits
    # everywhere moves no measure and no verdict, and a row that went back
    # to drawing its whole budget would draw more than one cross-check
    drawn = []

    def every_hit(n, k, s, stream, size):
        drawn.append(size)
        return np.ones(size, dtype=bool)

    monkeypatch.setattr(sharpness, "_sharpness_hits", every_hit)
    root = pathlib.Path(__file__).resolve().parents[1]
    cfg = load_config(str(root / relpath), output_override=str(tmp_path))
    assert run_suite(cfg, echo=lambda line: None) == 2
    with open(tmp_path / "results.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert [row["verdict"] for row in rows] == [FAIL] * 6
    exact = [geometry.exact_event_measure(job.kwargs["n"], job.kwargs["k"],
                                          job.kwargs["s"])
             for job in cfg.checks]
    assert [float(row["rhs"]) for row in rows] == exact
    assert all(row["rhs_stderr"] == "0.0" for row in rows)
    budget = cfg.checks[0].kwargs["n_subspaces"]
    cross_check = min(budget, sharpness.CROSS_CHECK)
    assert sum(drawn) == 5 * cross_check
    # each non-empty row's cross-check in blocks of ROW_BLOCK // k
    blocks = [-(-cross_check // (sharpness.ROW_BLOCK // job.kwargs["k"]))
              for job, measure in zip(cfg.checks, exact) if measure > 0]
    assert max(drawn) <= sharpness.ROW_BLOCK
    assert len(blocks) == 5 and len(drawn) == sum(blocks)


def test_sharpness_validation(rng):
    with pytest.raises(ValueError):
        gaussian_sharpness_experiment(3, 1, 0.5, 100, rng)
    with pytest.raises(ValueError):
        gaussian_sharpness_experiment(3, 1, 16.0, 100, rng)  # above sigma^{-1}


# ---------------------------------------------------------------------------
# perturbation stability


def test_perturbation_finds_good_neighbors(rng):
    f = TruncatedGaussian.normalized(np.zeros(3), tau=0.7, radius=1.4)
    rep = perturbation_experiment(f, k=1, E=axis_subspace(3, [0]), eta=0.5,
                                  eps_grid=[0.05, 0.2, 0.5],
                                  n_samples=15_000, rng=rng)
    assert rep.verdict == PASS
    d = rep.diagnostics
    assert d["fitted_constant"] <= 10.0
    # the constant is read off the draws of f, and the side says so
    assert (rep.lhs.value, rep.lhs.method, rep.lhs.samples) \
        == (d["fitted_constant"], "mc", 15_000)
    assert 0.0 <= d["best_candidate_distance"] <= 0.5 + 1e-9
    assert d["success_fraction"] > 0.0


def test_perturbation_rejects_subspace_of_wrong_dimension(rng):
    # a line E where k = 2 asks for planes used to pass on numpy
    # broadcasting of its one coordinate against two
    ball = EllipsoidIndicator.ball(3, radius=unit_volume_radius(3))
    before = untouched(rng)
    with pytest.raises(ParameterError) as err:
        perturbation_experiment(ball, k=2, E=axis_subspace(3, [0]), eta=0.5,
                                eps_grid=[0.1], n_samples=100, rng=rng)
    assert err.value.param == "E"
    assert untouched(rng) == before


def test_perturbation_huge_ball_is_trivial(rng):
    f = TruncatedGaussian.normalized(np.zeros(2), tau=0.8, radius=1.6)
    rep = perturbation_experiment(f, k=1, E=axis_subspace(2, [0]), eta=0.3,
                                  eps_grid=[6.0], n_samples=4_000, rng=rng)
    # a ball that swallows the support captures all the mass at once
    assert rep.verdict == PASS
    assert max(rep.diagnostics["best_small_ball_fractions"]) >= 0.999


# ---------------------------------------------------------------------------
# the rule route of the shipped rows

ROOT = pathlib.Path(__file__).resolve().parents[1]
# the rows of the shipped configs with a side that a deterministic rule
# computes: section-norm averages, and the sharpness measure's two-plane
# quadrature, whose rows still draw their one-block cross-check
RULE_ROWS = {
    "paper-core": {"linear invariance shear", "affine invariance shear shift",
                   "section ratio ellipsoid equality",
                   "flat average ball",
                   "flat average shifted ellipsoid equality"},
    "negative-controls": {"wrong sum linear", "wrong sum affine"},
    "sharpness": {"sharpness 42 s15", "sharpness 42 s2"},
    "sections": set(),
}
# the rows whose every density is rotation invariant about 0: their
# subspace averages are read on one frame, exact, and draw nothing either
SYMMETRIC_ROWS = {
    "paper-core": {"section ratio equality ball",
                   "section ratio truncated pair"},
    "negative-controls": {"false equality claim"},
    "sections": {"section ratio radial", "planted equality radial"},
}
CONFIG_DIRS = {"sections": "bench/workloads"}


class FrameDrawsRaise(np.random.Generator):
    """A generator, and children, whose standard_normal and random raise:
    the draws every frame and section sampler makes.  A named shear is
    drawn by uniform and choice, which still work, so a row keeps its map."""

    def standard_normal(self, *args, **kwargs):
        raise AssertionError("a row that a rule or one frame covers drew")

    random = standard_normal


@pytest.mark.parametrize("name", RULE_ROWS)
def test_shipped_rule_rows_never_draw(name, tmp_path, monkeypatch):
    cfg = load_config(str(ROOT / CONFIG_DIRS.get(name, "configs")
                          / f"{name}.ini"), output_override=str(tmp_path))
    labels = [job.label for job in cfg.checks]
    symmetric = SYMMETRIC_ROWS.get(name, set())
    assert RULE_ROWS[name] | symmetric <= set(labels)
    averages = ({job.label for job in cfg.checks
                 if job.name != "gaussian_sharpness"} & RULE_ROWS[name]) \
        | symmetric

    def guarded(seed, i):
        stream = substream(seed, i)
        return FrameDrawsRaise(stream.bit_generator) \
            if labels[i] in averages else stream

    monkeypatch.setattr(runner, "substream", guarded)
    run_suite(cfg, echo=lambda line: None)
    with open(tmp_path / "results.csv", newline="") as handle:
        got = [row["verdict"] for row in csv.DictReader(handle)]
    with open(ROOT / "tests" / "data" / f"{name}-results.csv",
              newline="") as handle:
        want = [row["verdict"] for row in csv.DictReader(handle)]
    assert got == want
    # every side says how it was computed, the rows with a rule side are
    # exactly RULE_ROWS, no side of a guarded row is a Monte Carlo mean,
    # and both sides of a symmetric row are exact
    ruled = set()
    for label in labels:
        report = json.loads((tmp_path / "reports" / (
            report_name(label) + ".json")).read_text())
        methods = {report[side]["method"] for side in ("lhs", "rhs")}
        assert methods <= {"exact", "rule", "mc"}, label
        if "rule" in methods:
            ruled.add(label)
        assert label not in averages or "mc" not in methods, label
        assert label not in symmetric or methods == {"exact"}, label
    assert ruled == RULE_ROWS[name]


@pytest.fixture(scope="module")
def shipped_reports(tmp_path_factory):
    """(check name, report) of every row of configs/*.ini, keyed by
    (config, label)."""
    reports = {}
    for path in sorted(ROOT.glob("configs/*.ini")):
        out = tmp_path_factory.mktemp(path.stem)
        cfg = load_config(str(path), output_override=str(out))
        run_suite(cfg, echo=lambda line: None)
        for job in cfg.checks:
            reports[path.stem, job.label] = job.name, json.loads(
                (out / "reports" / (report_name(job.label) + ".json"))
                .read_text())
    return reports


def test_shipped_invariance_rows_meet_their_closed_forms(shipped_reports):
    # E_E det(B^T A B)^(-n/2) = det(A)^(-k/2) over k-subspaces: on the
    # lines of gauss3 and of its shear, (2 pi)^-3 / det;
    # the affine row's slots are mass powers of one ellipsoid, so it is
    # the Schneider closed form of ellipsoid3_shifted at k = 2
    cov = np.array([[1.0, 0.3, 0.0], [0.3, 0.8, 0.1], [0.0, 0.1, 1.2]])
    linear = 0.004787935634382347
    assert linear == pytest.approx((2 * math.pi) ** -3 / np.linalg.det(cov),
                                   rel=1e-14)
    for label, want in (("linear invariance shear", linear),
                        ("affine invariance shear shift",
                         55.90572352596342)):
        _, report = shipped_reports["paper-core", label]
        for side in ("lhs", "rhs"):
            assert report[side]["method"] == "rule", (label, side)
            assert report[side]["value"] == pytest.approx(want, rel=1e-13,
                                                          abs=0.0)


IDENTITIES = {"bp_subspace", "bp_flat", "linear_invariance",
              "affine_invariance"}


def test_shipped_identity_departures(shipped_reports):
    # departure_z is (ratio - 1) / stderr of the ratio wherever that stderr
    # is positive and finite, and the verdict reads it
    identities = 0
    for (config, label), (name, report) in shipped_reports.items():
        if name not in IDENTITIES:
            continue
        ratio = ratio_estimate(Estimate(**report["lhs"]),
                               Estimate(**report["rhs"]))
        z = report["diagnostics"]["departure_z"]
        if 0.0 < ratio.stderr < INF:
            identities += 1
            assert z == pytest.approx((ratio.value - 1.0) / ratio.stderr,
                                      rel=1e-12), (config, label)
        assert (abs(z) > 3.0) == (report["verdict"] == FAIL), (config, label)
    assert identities == 7


def test_shipped_rule_sides_stop_converged(shipped_reports):
    # every rule average of the shipped configs agrees with its level
    # before to RULE_RTOL below the frame cap; the sharpness measure's
    # rule is one fixed level and reports no frames
    averages = 0
    for (config, label), (name, report) in shipped_reports.items():
        for side in ("lhs", "rhs"):
            est = report[side]
            if est["method"] != "rule" or name == "gaussian_sharpness":
                continue
            averages += 1
            assert est["stderr"] == grassmann.RULE_RTOL * abs(est["value"]), \
                (config, label, side)
            assert est["samples"] < grassmann.RULE_MAX_FRAMES, \
                (config, label, side)
    assert averages == 10


def shipped_job(label, name="paper-core"):
    cfg = load_config(str(ROOT / "configs" / f"{name}.ini"))
    (job,) = [job for job in cfg.checks if job.label == label]
    return job


def test_a_rule_with_one_perturbed_weight_fails_an_equality(monkeypatch):
    job = shipped_job("section ratio ellipsoid equality")
    report = CHECKS[job.name].run(job.kwargs, None)
    assert report.verdict == PASS and abs(report.ratio - 1.0) <= 1e-10
    original = grassmann._sphere_rule

    def mutant(n, level):
        nodes, weights = original(n, level)
        weights = weights.copy()
        weights[0] += 0.1
        return nodes, weights

    monkeypatch.setattr(grassmann, "_sphere_rule", mutant)
    report = CHECKS[job.name].run(job.kwargs, None)
    assert report.verdict == FAIL


@pytest.mark.parametrize("center, rhs", [
    (None, None), ([0.3, -0.2, 0.1], 55.90572352596342)])
def test_flat_rule_meets_the_schneider_equality_cases(center, rhs):
    # the two k = 2 equality cases of the shipped suite: ball3 and
    # ellipsoid3_shifted, against the closed-form right-hand side; each
    # rule stops at its second level: the ball's rule in the offset
    # radius at two panels of OFFSET_NODES nodes, the shifted ellipsoid's,
    # matched to its form, at 2 m^2 directions (m = 16) times OFFSET_NODES
    # offsets
    f = EllipsoidIndicator.ball(3) if center is None else \
        EllipsoidIndicator([[1.5, 0.2, 0.0], [0.2, 0.8, -0.1],
                            [0.0, -0.1, 1.1]], center)
    report = check_schneider_functional(f, 2, 2, None, expect_equality=True)
    assert report.verdict == PASS
    assert abs(report.ratio - 1.0) <= 1e-10
    assert report.lhs.method == "rule"
    assert report.lhs.samples == (12 if center is None else 3072)
    assert report.rhs.method == "exact"
    if rhs is not None:
        assert report.rhs.value == pytest.approx(rhs, rel=1e-15)


ELLIPSOID_EQUALITIES = ("section ratio equality ball",
                        "section ratio ellipsoid equality",
                        "flat average ball",
                        "flat average shifted ellipsoid equality")


def test_ellipsoid_masses_one_percent_high_fail_each_equality(monkeypatch):
    # none of the four rows draws: the first is read on one frame and the
    # other three take a rule, so with every ellipsoid section mass scaled
    # by 1.01 their ratios read 1.0201, 1.0303, 1.0406 and 1.0406 at any
    # stream
    cfg = load_config(str(ROOT / "configs" / "paper-core.ini"))
    jobs = [(idx, job) for idx, job in enumerate(cfg.checks)
            if job.label in ELLIPSOID_EQUALITIES]
    assert len(jobs) == len(ELLIPSOID_EQUALITIES)
    original = EllipsoidIndicator._sections

    def mutant(self, bases, offsets):
        masses, *rest = original(self, bases, offsets)
        return (1.01 * masses, *rest)

    for verdict in (PASS, FAIL):
        for idx, job in jobs:
            report = CHECKS[job.name].run(job.kwargs,
                                          substream(cfg.seed, idx))
            assert report.verdict == verdict, (job.label, report.ratio)
        monkeypatch.setattr(EllipsoidIndicator, "_sections", mutant)


def test_flat_average_ball_is_exact_at_every_stream(monkeypatch):
    # the ball's flat average is the radial rule's: the same value, within
    # 1e-10 of the equality 16 pi / 3, whatever the stream, which the
    # check leaves untouched, and a one-sided PASS that its rule error
    # keeps from failing on the last bit; the 1% mass mutant FAILs it
    job = shipped_job("flat average ball")
    original = EllipsoidIndicator._sections

    def mutant(self, bases, offsets):
        masses, *rest = original(self, bases, offsets)
        return (1.01 * masses, *rest)

    for verdict in (PASS, FAIL):
        values = set()
        for seed in range(5):
            stream = substream(seed, 9)
            before = untouched(stream)
            report = CHECKS[job.name].run(job.kwargs, stream)
            assert untouched(stream) == before
            assert report.verdict == verdict, (seed, report.ratio)
            assert report.lhs.method == "rule"
            values.add(report.lhs.value)
        assert len(values) == 1
        if verdict == PASS:
            assert abs(report.ratio - 1.0) <= 1e-10
            assert report.rhs.value == pytest.approx(16.0 * math.pi / 3.0,
                                                     rel=1e-15)
        monkeypatch.setattr(EllipsoidIndicator, "_sections", mutant)


def test_bp_rows_fail_each_planted_constant_error(monkeypatch):
    # the five bp_* rows of the shipped suites PASS; each planted error
    # FAILs at least one of them: the paper's printed constant (ball
    # volumes kappa_j where the formulas have sphere areas j kappa_j) in
    # place of the exact one, the exact constant 10% high, and the chi
    # moments behind the exact cone moments or the simplex volumes 3% high
    jobs = []
    for path in ("configs/paper-core.ini", "bench/workloads/sections.ini"):
        cfg = load_config(str(ROOT / path))
        jobs += [(cfg.seed, idx, job) for idx, job in enumerate(cfg.checks)
                 if job.name in ("bp_subspace", "bp_flat")]
    assert len(jobs) == 5

    def verdicts():
        return [CHECKS[job.name].run(job.kwargs,
                                     substream(seed, idx)).verdict
                for seed, idx, job in jobs]

    assert verdicts() == [PASS] * 5
    exact = geometry.bp_exact_constant
    mutants = {
        "printed constant": [(verify, "bp_exact_constant", lambda n, k, q:
                              exact(n, k, q) / math.prod(
                                  (n - j) / (k - j) for j in range(q)))],
        "exact constant x 1.10": [(verify, "bp_exact_constant",
                                   lambda *dims: 1.10 * exact(*dims))],
        "chi moments x 1.03": [
            (module, "_chi_moment",
             lambda m, p: 1.03 * geometry._chi_moment(m, p))
            for module in (densities, functionals)],
        "simplex volumes x 1.03": [
            (functionals, "_tuple_volumes",
             lambda x: 1.03 * geometry._tuple_volumes(x))],
    }
    for label, patches in mutants.items():
        with monkeypatch.context() as patch:
            for module, name, mutant in patches:
                patch.setattr(module, name, mutant)
            assert FAIL in verdicts(), label
