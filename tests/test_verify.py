"""End-to-end checks: decomposition constants, invariance, functional
inequalities, the marginal-bound and sharpness experiments.

Budgets here are a fraction of the config-driven runs; seeds come from the
shared fixture.  Fitted constants are compared against the simple rational
ratios they converge to, with bands wide enough for the reduced budgets.
"""

import csv
import functools
import json
import math
import pathlib
import sys
import tracemalloc

import numpy as np
import pytest

from igeolab import geometry, grassmann, runner, verify
from igeolab.config import CHECKS, ConfigError, load_config, report_name
from igeolab.densities import (EllipsoidIndicator, GaussianDensity,
                               ParameterError, ProductDensity,
                               PushforwardDensity, RadialGridDensity, Step1D,
                               TruncatedGaussian, affine_image)
from igeolab.functionals import ExponentSpec
from igeolab.densities import section_stats
from igeolab.geometry import unit_volume_radius, _row_norms
from igeolab.grassmann import haar_bases
from igeolab.report import FAIL, INCONCLUSIVE, PASS, Estimate
from igeolab.rng import substream
from igeolab.runner import run_suite
from igeolab.verify import (check_affine_invariance, check_bp_flat,
                            check_bp_subspace, check_grinberg_functional,
                            check_linear_invariance,
                            check_rearrangement_monotonicity,
                            check_schneider_functional,
                            gaussian_sharpness_experiment,
                            marginal_bound_experiment, perturbation_experiment)

INF = math.inf


def axis_subspace(n, cols):
    return np.eye(n)[:, list(cols)]


def untouched(rng):
    """What a check changes in rng when it draws from it (the bit generator
    state, whose Philox counter is an array) or spawns from it."""
    return (repr(rng.bit_generator.state),
            rng.bit_generator.seed_seq.n_children_spawned)


def normalized_box(shift=0.0):
    # mass one, sup below one, visibly off-center when shift > 0
    fx = Step1D.uniform(shift, shift + 1.5, [0.9, 0.7, 0.4])
    fy = Step1D.uniform(-0.75, 0.75, [0.3, 0.9, 0.8])
    return ProductDensity([fx, fy])


# ---------------------------------------------------------------------------
# decomposition constants


def test_bp_subspace_pair_gaussian(rng):
    g = GaussianDensity.standard(2)
    rep = check_bp_subspace([g], k=1, p=1.0, n_direct=40_000,
                            n_subspaces=320, rng=rng)
    assert rep.verdict == PASS
    d = rep.diagnostics
    assert d["printed_constant"] == pytest.approx(math.pi / 2, rel=1e-12)
    # probability-measure sampling absorbs a factor 2 relative to the
    # printed constant at (2,1,1); the fit should sit on it
    assert d["fitted_over_printed"] == pytest.approx(2.0, rel=0.08)


def test_bp_subspace_ball_three_two(rng):
    b3 = EllipsoidIndicator.ball(3)
    rep = check_bp_subspace([b3], k=2, p=1.0, n_direct=40_000,
                            n_subspaces=320, rng=rng)
    assert rep.verdict == PASS
    assert rep.diagnostics["printed_constant"] == pytest.approx(4.0 / 3.0)
    assert rep.diagnostics["fitted_over_printed"] == pytest.approx(1.5, rel=0.08)


def test_bp_subspace_short_last_block(monkeypatch, rng):
    # DRAW_BLOCK = 7 with one density and inner = 2 leaves room for 3
    # sections a block, so each replica's 10 sections run in blocks of
    # 3, 3, 3 and 1
    sizes = []

    def counted(n, k, size, stream):
        sizes.append(size)
        return haar_bases(n, k, size, stream)

    monkeypatch.setattr(verify, "DRAW_BLOCK", 7)
    monkeypatch.setattr(grassmann, "haar_bases", counted)
    rep = check_bp_subspace([GaussianDensity.standard(2)], k=1, p=1.0,
                            n_direct=200, n_subspaces=20, rng=rng, inner=2)
    assert sizes == [3, 3, 3, 1] * 2
    assert rep.rhs.samples == 20
    assert all(math.isfinite(v) for v in (rep.lhs.value, rep.rhs.value,
                                          rep.rhs.stderr, rep.ratio))
    assert all(math.isfinite(v) for v in rep.diagnostics["replica_fits"])


def test_bp_flat_disk_mass_squared(rng):
    b2 = EllipsoidIndicator.ball(2)
    rep = check_bp_flat(b2, k=1, n_direct=10_000, n_flats=30_000, R=1.5,
                        rng=rng)
    assert rep.verdict == PASS
    # at p=0 the direct side is just mass^2, computed exactly
    assert rep.lhs.value == pytest.approx(math.pi ** 2, rel=1e-12)
    assert rep.lhs.stderr == 0.0
    assert rep.diagnostics["fitted_over_printed"] == pytest.approx(2.0, rel=0.08)


def test_bp_flat_positive_power(rng):
    b2 = EllipsoidIndicator.ball(2)
    rep = check_bp_flat(b2, k=1, n_direct=60_000, n_flats=30_000, R=1.5,
                        rng=rng, p=1.0)
    assert rep.verdict == PASS
    assert rep.diagnostics["fitted_constant"] > 0


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
    # the Blaschke-Petkantschin constant printed * C(3, 1) to 4 stderr
    f = EXACT_FAMILIES[family]()
    if check == "subspace":
        rep = check_bp_subspace([f], k=1, p=1.0, n_direct=20_000,
                                n_subspaces=2_000, rng=rng, inner=100)
    else:
        rep = check_bp_flat(f, k=1, n_direct=0, n_flats=4_000,
                            R=f.support_radius, rng=rng, inner=100)
    d = rep.diagnostics
    assert d["exact_constant"] == pytest.approx(3.0 * d["printed_constant"])
    assert abs(d["fitted_constant"] - d["exact_constant"]) \
        <= 4.0 * d["fitted_stderr"]
    assert d["exact_z"] == pytest.approx(
        (d["fitted_constant"] - d["exact_constant"]) / d["fitted_stderr"])
    # the stderr is small enough to tell the printed constant apart
    assert abs(d["fitted_constant"] - d["printed_constant"]) \
        > 10.0 * d["fitted_stderr"]


def test_bp_checks_reject_sections_without_closed_form(rng):
    box = EXACT_FAMILIES["product"]()
    with pytest.raises(ValueError, match="exact sections"):
        check_bp_subspace([box], k=2, p=1.0, n_direct=100, n_subspaces=8,
                          rng=rng, inner=4)
    skew = PushforwardDensity(EllipsoidIndicator.ball(2),
                              np.array([[1.0, 0.5], [0.0, 1.0]]), np.zeros(2))
    with pytest.raises(ValueError, match="exact sections"):
        check_bp_flat(skew, k=1, n_direct=100, n_flats=8, R=2.0, rng=rng,
                      inner=4)


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
            check_bp_flat(ball, k=1, n_direct=0, n_flats=8, R=1.0, rng=rng,
                          inner=0)
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
    assert rep.diagnostics["departure_sigma"] < 3.0


def test_shear_with_wrong_sum_fails(rng):
    g2 = GaussianDensity(np.zeros(2), np.diag([1.0, 0.4]))
    spec = ExponentSpec((1.0,), (5.0,))
    shear = np.array([[1.0, 0.9], [0.0, 1.0]])
    rep = check_linear_invariance([g2], spec, 1, shear, 6_000, rng)
    assert rep.verdict == FAIL
    assert rep.diagnostics["departure_sigma"] > 5.0


def test_affine_invariance_shifted_ellipsoid(rng):
    e = EllipsoidIndicator(np.diag([1.0, 2.0, 0.5]), center=[0.3, -0.2, 0.1])
    spec = ExponentSpec((1.0, INF), (3.0, 1.0))  # 3/1 + 0 ... sum 3? need n+1=4
    spec = ExponentSpec((1.0,), (4.0,))          # 4 = n + 1
    shear = np.array([[1.0, 0.4, 0.0], [0.0, 1.0, 0.25], [0.0, 0.0, 1.0]])
    shift = np.array([0.4, -0.2, 0.1])
    rep = check_affine_invariance([e], spec, 2, (shear, shift), R=3.0,
                                  n_flats=16_000, rng=rng)
    assert rep.verdict == PASS
    assert abs(rep.ratio - 1.0) < 0.12


def test_translation_alone_never_breaks_flat_averages(rng):
    # the flat measure is translation invariant outright, so even a wrong
    # exponent sum survives a pure shift; the negative control needs shear
    e = EllipsoidIndicator(np.diag([1.0, 2.0]), center=[0.2, 0.0])
    spec = ExponentSpec((1.0,), (2.0,))  # sum 2 != n + 1 = 3
    rep = check_affine_invariance([e], spec, 1, (np.eye(2), np.array([0.7, -0.4])),
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
                                  (stretch, np.array([0.4, -0.2])),
                                  R=2.0, n_flats=12_000, rng=rng)
    assert rep.verdict == FAIL
    assert rep.diagnostics["departure_sigma"] > 5.0


@pytest.mark.parametrize("zero_side", ["after", "before"])
def test_invariance_fails_a_side_that_reads_zero(zero_side):
    # a zero after-side gives the ratio 0 with stderr 0, a zero before-side
    # the ratio inf: neither is a pass
    sides = {"before": Estimate(79.2, 7.9e-11, 8, "rule"),
             "after": Estimate(79.2, 7.9e-11, 8, "rule")}
    sides[zero_side] = Estimate.exact(0.0)
    rep = verify._invariance_report("affine_invariance", {},
                                    ExponentSpec((1.0,), (4.0,)), 4.0,
                                    sides["before"], sides["after"])
    assert rep.verdict == FAIL


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
map = "MAP"
shift = [1e200, 0.0, 0.0]
R = 1.0
n_flats = 200
"""


@pytest.mark.parametrize("name", ["rotation", "shear"])
def test_far_shift_is_a_config_error_on_shift(tmp_path, name):
    # shifted by 1e200, the window about the image has no finite mass (and
    # every section of the mapped ball would read inf - inf): the shift is
    # refused at load, with no RuntimeWarning on the way
    path = tmp_path / "suite.ini"
    path.write_text(FAR_SHIFT.replace("MAP", name))
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
map = [[1e200, 0.0, 0.0], [0.0, 1e-200, 0.0], [0.0, 0.0, 1.0]]
"""


@pytest.mark.parametrize("check,extra", [
    ("linear_invariance", "spec_alpha = [1.5, 1.5]\nn_subspaces = 200\n"),
    ("linear_invariance", "spec_alpha = [1.5, 1.5]\nn_subspaces = 200\n"
                          'method = ["mc", 16]\n'),
    ("affine_invariance", "spec_alpha = [2.0, 2.0]\nR = 1.0\n"
                          "n_flats = 200\n")],
    ids=["linear_invariance", "linear_invariance_mc", "affine_invariance"])
def test_overflowing_map_is_a_config_error_on_map(tmp_path, check, extra):
    # the stand-in image's shape matrix overflows; affine_image forms it
    # without a warning and the rules name the map, not the image's shape
    path = tmp_path / "suite.ini"
    path.write_text(OVERFLOWING_MAP.replace("CHECK", check) + extra)
    with pytest.raises(ConfigError) as err:
        load_config(str(path))
    assert (err.value.section, err.value.field) == ("check far map", "map")
    assert "EllipsoidIndicator" in err.value.message


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
        (1.0, 1.0, 1.0, 1.0), (1.0,) * 4), 2, (shear, np.array([0.4, 0.0, 0.1])),
        R=3.0, n_flats=200, rng=rng)
    assert mapped == [id(e)]


STAND_IN_FAMILIES = {**EXACT_FAMILIES,
                     "pushforward": lambda: PushforwardDensity(
                         EllipsoidIndicator.ball(3), np.triu(np.ones((3, 3))),
                         np.zeros(3))}


@pytest.mark.parametrize("family", STAND_IN_FAMILIES)
@pytest.mark.parametrize("name", ["rotation", "shear"])
@pytest.mark.parametrize("shift", [None, "random"])
def test_stand_in_image_is_of_the_drawn_image_family(family, name, shift,
                                                     rng):
    # config asks a stand-in map whether an image has exact sections, and
    # the check maps by the drawn one: both must give the same family
    f = STAND_IN_FAMILIES[family]()
    g = (name, shift)
    family_at_load = type(affine_image(f, verify._stand_in(g, f.n)))
    for _ in range(5):
        drawn = verify._drawn_map(g, f.n, rng)
        assert type(affine_image(f, drawn)) is family_at_load


@pytest.mark.parametrize("n", [2, 3, 5])
def test_drawn_rotation_is_a_haar_rotation(n):
    rng = np.random.default_rng(n)
    a, shift = verify._drawn_map(("rotation", None), n, rng)
    assert shift is None
    assert np.abs(a.T @ a - np.eye(n)).max() <= 1e-12
    assert abs(np.linalg.det(a) - 1.0) <= 1e-12
    # one standard_normal((n, n)) draw, whose sign-fixed QR factor it is
    # (with the first column flipped when that has det -1)
    ref = np.random.default_rng(n)
    q, r = np.linalg.qr(ref.standard_normal((n, n)))
    q *= np.sign(np.diagonal(r))
    q[:, 0] *= np.sign(np.linalg.det(q))
    assert np.abs(a - q).max() <= 1e-12
    assert rng.bit_generator.state == ref.bit_generator.state


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


def test_marginal_bound_flags_skewed_direction(rng):
    skew = GaussianDensity(np.zeros(3), np.diag([1e-4, 1.0, 1.0]))
    rep = marginal_bound_experiment(skew, k=1, s=2.0, t=2.0, n_subspaces=30,
                                    n_x=200, rng=rng,
                                    adversarial=axis_subspace(3, [0]))
    assert rep.diagnostics["adversarial_detected"] is True
    assert rep.diagnostics["adversarial_average"] > rep.diagnostics["adversarial_threshold"]


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
    # the stack marginal_bound_experiment builds: per stream a Haar basis,
    # then its points; the adversarial subspace in the last row
    rows = [(haar_bases(f.n, 1, 1, stream)[0], f.sample(n_x, stream))
            for stream in np.random.default_rng(5).spawn(7)]
    rows.append((axis_subspace(f.n, [0]),
                 f.sample(n_x, np.random.default_rng(6))))
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


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


def test_quantiles_match_numpy_bit_for_bit():
    # ties, signed zeros, infinities and NaN; q at 0, 1, on the grid
    # (n - 1) q integer, and the marginal-bound levels 1 - s^-kn
    gen = np.random.default_rng(20261018)
    pools = [np.array([-0.0, 0.0]), np.array([-0.0, 0.0, 1.0, -2.5, 3.0]),
             np.array([0.0, 1.0, INF, -INF]), np.array([1.0, np.nan, -0.0])]
    for case in range(10_000):
        n = int(gen.integers(1, 4)) if case % 4 == 0 else \
            int(gen.integers(1, 60))
        kind = case % 5
        if kind < len(pools) and (kind < 3 or case % 20 == 3):
            values = gen.choice(pools[kind], size=n)
        else:
            values = gen.standard_normal(n) * 10.0 ** gen.integers(-3, 4)
        qs = [0.0, 1.0, float(gen.random()),
              float(gen.integers(0, n)) / max(n - 1, 1),
              1.0 - float(gen.choice([1.5, 2.0, 3.0])) ** -int(
                  gen.integers(1, 9))]
        with np.errstate(invalid="ignore"):  # inf - inf, as numpy's own
            ours = verify._quantiles(values, qs)
            theirs = np.quantile(values, qs)
            q = qs[case % len(qs)]
            one, scalar = verify._quantiles(values, [q])[0], \
                np.quantile(values, q)
        assert np.array_equal(_bits(ours), _bits(theirs)), (values, qs)
        assert _bits(one) == _bits(scalar), (values, q)
    values = np.array([3.0, 1.0, 2.0])
    verify._quantiles(values, [0.5])
    assert np.array_equal(values, [3.0, 1.0, 2.0])  # input left in place


# ---------------------------------------------------------------------------
# sharpness of the small-sup event


def sampler_share(n, k, s, m, rng):
    """Share of m sharpness draws that hit, through the sampler the Monte
    Carlo route uses, in its blocks."""
    hits = verify._blocked(m, verify.ROW_BLOCK, functools.partial(
        verify._sharpness_hits, n, k, s, rng))
    return float(np.mean(hits))


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
    assert verify._sharpness_hits(4, 2, 1.5, np.random.default_rng(5),
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
    monkeypatch.setattr(verify, "ROW_BLOCK", 7)
    for method, args in rows.items():
        small = gaussian_sharpness_experiment(*args, np.random.default_rng(5))
        assert ref[method].rhs.method == method
        assert small.to_dict() == ref[method].to_dict()
    assert ref["mc"].rhs.value > 0
    assert ref["rule"].diagnostics["sampled_measure"] > 0


def test_sharpness_hit_blocks_bound_the_traced_peak():
    # a (4, 2) row cross-checks DRAW_BLOCK subspaces, but only ROW_BLOCK of
    # them, and their Gram products, are live at once
    tracemalloc.start()
    try:
        gaussian_sharpness_experiment(4, 2, 1.5, 1_000_000,
                                      np.random.default_rng(5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20


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
        / math.sqrt(rep.rhs.value * (1 - rep.rhs.value) / verify.DRAW_BLOCK))
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
    seen = verify._sharpness_hits(n, k, s, np.random.default_rng(11), m)
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

    monkeypatch.setattr(verify, "_sharpness_hits", every_hit)
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
    cross_check = min(budget, verify.DRAW_BLOCK)
    assert sum(drawn) == 5 * cross_check
    assert max(drawn) <= verify.ROW_BLOCK
    assert len(drawn) == 5 * -(-cross_check // verify.ROW_BLOCK)


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
                   "section ratio equality ball",
                   "section ratio ellipsoid equality",
                   "flat average shifted ellipsoid equality"},
    "negative-controls": {"wrong sum linear", "wrong sum affine"},
    "sharpness": {"sharpness 42 s15", "sharpness 42 s2"},
}


class FrameDrawsRaise(np.random.Generator):
    """A generator, and children, whose standard_normal and random raise:
    the draws every frame and section sampler makes.  A named shear is
    drawn by uniform and choice, which still work, so a row keeps its map."""

    def standard_normal(self, *args, **kwargs):
        raise AssertionError("a row that a rule covers drew")

    random = standard_normal


@pytest.mark.parametrize("name", RULE_ROWS)
def test_shipped_rule_rows_never_draw(name, tmp_path, monkeypatch):
    cfg = load_config(str(ROOT / "configs" / f"{name}.ini"),
                      output_override=str(tmp_path))
    labels = [job.label for job in cfg.checks]
    assert RULE_ROWS[name] <= set(labels)
    averages = {job.label for job in cfg.checks
                if job.name != "gaussian_sharpness"} & RULE_ROWS[name]

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
    # exactly RULE_ROWS, and no side of a guarded row is a Monte Carlo mean
    ruled = set()
    for label in labels:
        report = json.loads((tmp_path / "reports" / (
            report_name(label) + ".json")).read_text())
        methods = {report[side]["method"] for side in ("lhs", "rhs")}
        assert methods <= {"exact", "rule", "mc"}, label
        if "rule" in methods:
            ruled.add(label)
        assert label not in averages or "mc" not in methods, label
    assert ruled == RULE_ROWS[name]


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
        frames, weights = original(n, level)
        weights = weights.copy()
        weights[0] += 0.1
        return frames, weights

    monkeypatch.setattr(grassmann, "_sphere_rule", mutant)
    report = CHECKS[job.name].run(job.kwargs, None)
    assert report.verdict == FAIL


@pytest.mark.parametrize("center, rhs", [
    (None, None), ([0.3, -0.2, 0.1], 55.90572352596342)])
def test_flat_rule_meets_the_schneider_equality_cases(center, rhs):
    # the two k = 2 equality cases of the shipped suite: ball3 and
    # ellipsoid3_shifted, against the closed-form right-hand side; the
    # rule stops at its second and third level, 2 m^2 directions (m = 16
    # and 32) times OFFSET_NODES offsets
    f = EllipsoidIndicator.ball(3) if center is None else \
        EllipsoidIndicator([[1.5, 0.2, 0.0], [0.2, 0.8, -0.1],
                            [0.0, -0.1, 1.1]], center)
    report = check_schneider_functional(f, 2, 2, None, expect_equality=True)
    assert report.verdict == PASS
    assert abs(report.ratio - 1.0) <= 1e-10
    assert report.lhs.method == "rule"
    assert report.lhs.samples == (3072 if center is None else 12288)
    assert report.rhs.method == "exact"
    if rhs is not None:
        assert report.rhs.value == pytest.approx(rhs, rel=1e-15)
