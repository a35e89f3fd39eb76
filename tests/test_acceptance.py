"""Acceptance suite: one test per stated guarantee, one summary line each.

Each test exercises a guarantee end to end at its stated tolerance and
appends a single pass/fail line to the log that the terminal summary
reprints after the run.  Budgets are sized so the whole file stays under
a minute while every statistical band keeps a comfortable margin; all
randomness is drawn from fixed streams, so verdicts are reproducible.

The sharpness test is expected to fail: the claimed lower-bound factor 2
does not hold at these sizes (the exact measures give fitted factors
between 2.5 and 4.1), and the suite records that honestly rather than
widening the band.
"""

import csv
import itertools
import math
import time

import numpy as np
import pytest

from igeolab.config import load_config
from igeolab.densities import (EllipsoidIndicator, GaussianDensity,
                               ProductDensity, Step1D, TruncatedGaussian)
from igeolab.functionals import ExponentSpec
from igeolab.geometry import unit_ball_volume
from igeolab.grassmann import flat_frames
from igeolab.rearrange import rearrangement
from igeolab.report import FAIL, PASS
from igeolab.rng import substream
from igeolab.runner import run_suite
from igeolab.sharpness import gaussian_sharpness_experiment
from igeolab.verify import (check_bp_subspace, check_grinberg_functional,
                            check_linear_invariance, check_affine_invariance,
                            check_rearrangement_monotonicity,
                            check_schneider_functional,
                            marginal_bound_experiment)

SEED_A = 20260819
SEED_B = 20260820

SHAPE3 = [[1.5, 0.2, 0.0], [0.2, 0.8, -0.1], [0.0, -0.1, 1.1]]


def log_line(acceptance_log, index, name, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    acceptance_log.append(f"criterion {index} ({name}): {verdict} — {detail}")


def axis_subspace(n, axes):
    basis = np.zeros((n, len(axes)))
    for j, a in enumerate(axes):
        basis[a, j] = 1.0
    return basis


def random_rotation(n, rng):
    q_mat, r_mat = np.linalg.qr(rng.normal(size=(n, n)))
    q_mat *= np.sign(np.diagonal(r_mat))
    if np.linalg.det(q_mat) < 0:
        q_mat[:, 0] = -q_mat[:, 0]
    return q_mat


def random_spd(n, rng):
    a = rng.normal(size=(n, n))
    return a @ a.T + 0.3 * np.eye(n)


def random_product(n, rng):
    factors = []
    for _ in range(n):
        bins = int(rng.integers(2, 5))
        heights = rng.uniform(0.2, 2.0, bins)
        lo = float(rng.uniform(-0.8, 0.0))
        width = float(rng.uniform(0.8, 1.6))
        factors.append(Step1D.uniform(lo, lo + width, list(heights)))
    return ProductDensity(factors)


def unit_product(n, rng):
    """Non-radial product with unit mass and sup below one."""
    factors = []
    for _ in range(n):
        bins = int(rng.integers(2, 5))
        heights = rng.uniform(0.2, 1.0, bins)
        heights[int(rng.integers(bins))] = 1.0
        width = 1.0 / heights.sum()
        lo = float(rng.uniform(-0.7, 0.1))
        factors.append(Step1D.uniform(lo, lo + bins * width, list(heights)))
    return ProductDensity(factors)


def test_flat_measure_normalization(acceptance_log):
    # windowed flats at R = 1: every sampled flat meets the unit ball, so
    # the importance estimate of the hitting mass is the window weight
    # itself and must reproduce the (n-k)-ball volume
    details = []
    ok = True
    for n, k in [(2, 1), (3, 1), (3, 2), (4, 2)]:
        rng = substream(SEED_A, 100 + 10 * n + k)
        started = time.perf_counter()
        bases, offsets, weight = flat_frames(n, k, 1.0, 100000, rng)
        hits = (np.linalg.norm(offsets, axis=1) <= 1.0).astype(float)
        frac = float(hits.mean())
        estimate = weight * frac
        stderr = weight * math.sqrt(frac * (1.0 - frac) / hits.size)
        elapsed = time.perf_counter() - started
        target = unit_ball_volume(n - k)
        good = abs(estimate - target) <= max(3.0 * stderr, 1e-12) \
            and elapsed < 5.0
        ok = ok and good
        details.append(f"({n},{k}) {estimate:.6f} vs {target:.6f} "
                       f"in {elapsed:.2f}s")
    log_line(acceptance_log, 1, "flat measure normalization", ok,
             "; ".join(details))
    assert ok


def test_section_identity_fitted_constant(acceptance_log):
    cases = [
        ("gaussian (2,1,1)", [GaussianDensity.standard(2)], 1),
        ("ball (2,1,1)", [EllipsoidIndicator.ball(2)], 1),
        ("gaussian (3,2,1)", [GaussianDensity.standard(3)], 2),
        ("ball (3,2,1)", [EllipsoidIndicator.ball(3)], 2),
    ]
    details = []
    ok = True
    for label, f_list, k in cases:
        fits = []
        for idx, seed in enumerate((SEED_A, SEED_B)):
            report = check_bp_subspace(f_list, k=k, p=1.0, n_direct=60000,
                                       n_subspaces=600,
                                       rng=substream(seed, 200 + k),
                                       inner=200)
            d = report.diagnostics
            fits.append((d["fitted_constant"], d["fitted_stderr"],
                         d["fitted_constant"] / d["exact_constant"]))
        gap = abs(fits[0][0] - fits[1][0])
        tol = 3.0 * math.hypot(fits[0][1], fits[1][1])
        stable = gap <= tol
        ok = ok and stable
        details.append(f"{label} fitted/exact {fits[0][2]:.3f} "
                       f"(seed gap {gap:.4f} <= {tol:.4f})")
    log_line(acceptance_log, 2, "section identity fitted constant", ok,
             "; ".join(details))
    assert ok


def test_section_ratio_inequality(acceptance_log, rng):
    started = time.perf_counter()
    held = 0
    for i in range(20):
        n = [2, 3, 4][i % 3]
        family = (["ellipsoid", "truncated", "product"][(i // 3) % 3]
                  if i < 18 else ["ellipsoid", "truncated"][i % 2])
        if family == "product":
            k, q = 1, 1
            f_list = [random_product(n, rng)]
        else:
            k = int(rng.integers(1, n))
            q = int(rng.integers(1, k + 1))
            if family == "ellipsoid":
                f_list = [EllipsoidIndicator(random_spd(n, rng),
                                             center=rng.normal(size=n) * 0.3)
                          for _ in range(q)]
            else:
                f_list = [TruncatedGaussian(np.zeros(n),
                                            tau=float(rng.uniform(0.5, 1.2)),
                                            radius=float(rng.uniform(1.0, 2.0)))
                          for _ in range(q)]
        p = float(rng.uniform(0.0, n - k))
        report = check_grinberg_functional(f_list, k=k, p=p,
                                           n_subspaces=2000, rng=rng)
        held += (report.lhs.value
                 <= report.rhs.value + 3.0 * report.lhs.stderr
                 and report.verdict != FAIL)

    # k = 1 ball tuples sit at equality with value 2^n, chords are exact
    ball_devs = []
    for n in (2, 3):
        report = check_grinberg_functional(
            [EllipsoidIndicator.ball(n)], k=1, p=float(n - 1),
            n_subspaces=64, rng=rng, expect_equality=True)
        ball_devs.append(max(abs(report.lhs.value - 2.0 ** n) / 2.0 ** n,
                             abs(report.ratio - 1.0)))
    balls_ok = max(ball_devs) <= 0.01

    # common origin-symmetric ellipsoid tuples at q = k, p = n - k
    eq_devs = []
    for shape in (SHAPE3, random_spd(3, rng)):
        e = EllipsoidIndicator(shape)
        report = check_grinberg_functional([e, e], k=2, p=1.0,
                                           n_subspaces=4000, rng=rng,
                                           expect_equality=True)
        eq_devs.append(abs(report.ratio - 1.0))
    equality_ok = max(eq_devs) <= 0.02

    elapsed = time.perf_counter() - started
    ok = held == 20 and balls_ok and equality_ok and elapsed < 300.0
    log_line(acceptance_log, 3, "section ratio inequality", ok,
             f"{held}/20 random tuples hold; ball equality dev "
             f"{max(ball_devs):.4f} <= 0.01; ellipsoid equality dev "
             f"{max(eq_devs):.4f} <= 0.02; {elapsed:.0f}s")
    assert ok


def test_flat_ratio_inequality(acceptance_log, rng):
    shifted3 = EllipsoidIndicator(SHAPE3, center=[0.3, -0.2, 0.1])
    equality_cases = [
        ("ball (2,1)", EllipsoidIndicator.ball(2), 1),
        ("ball (3,1)", EllipsoidIndicator.ball(3), 1),
        ("ball (3,2)", EllipsoidIndicator.ball(3), 2),
        ("shifted ellipse (2,1)",
         EllipsoidIndicator([[1.3, 0.4], [0.4, 0.6]], center=[0.4, -0.2]), 1),
        ("shifted ellipsoid (3,1)", shifted3, 1),
        ("shifted ellipsoid (3,2)", shifted3, 2),
    ]
    devs = []
    for label, f, k in equality_cases:
        report = check_schneider_functional(f, k=k, n_flats=60000, rng=rng,
                                            expect_equality=True)
        devs.append(abs(report.ratio - 1.0))
    equality_ok = max(devs) <= 0.02

    one_sided = [
        (EllipsoidIndicator(random_spd(2, rng), center=[0.5, 0.1]), 1),
        (EllipsoidIndicator(random_spd(3, rng)), 2),
        (TruncatedGaussian(np.zeros(2), tau=0.7, radius=1.5), 1),
        (TruncatedGaussian(np.zeros(3), tau=1.0, radius=2.0), 2),
        (random_product(2, rng), 1),
        (random_product(3, rng), 1),
    ]
    held = 0
    for f, k in one_sided:
        report = check_schneider_functional(f, k=k, n_flats=20000, rng=rng)
        held += (report.lhs.value
                 <= report.rhs.value + 3.0 * report.lhs.stderr
                 and report.verdict != FAIL)
    ok = equality_ok and held == 6
    log_line(acceptance_log, 4, "flat ratio inequality", ok,
             f"max equality dev {max(devs):.4f} <= 0.02 over 6 cases; "
             f"{held}/6 one-sided cases hold")
    assert ok


def test_invariance_and_detection(acceptance_log, rng):
    g2 = GaussianDensity([0.0, 0.0], [[1.5, 0.4], [0.4, 0.6]])
    e2 = EllipsoidIndicator([[1.2, 0.3], [0.3, 0.7]])
    e3 = EllipsoidIndicator(SHAPE3)
    jobs = [
        ("rotation", check_linear_invariance(
            [g2], ExponentSpec([1.0], [2.0]), k=1, g=random_rotation(2, rng),
            n_subspaces=6000, rng=rng)),
        ("shear", check_linear_invariance(
            [g2, e2], ExponentSpec([1.0, 2.0], [1.0, 2.0]), k=1,
            g=[[1.0, 0.7], [0.0, 1.0]], n_subspaces=6000, rng=rng)),
        ("shear sup slot", check_linear_invariance(
            [e3, e3], ExponentSpec([1.0, math.inf], [3.0, 2.0]), k=1,
            g=[[1.0, 0.4, 0.0], [0.0, 1.0, 0.3], [0.0, 0.0, 1.0]],
            n_subspaces=6000, rng=rng)),
        ("translation", check_affine_invariance(
            [e2], ExponentSpec([1.0], [3.0]), k=1,
            g=np.eye(2), shift=[0.5, -0.3], R=2.0, n_flats=12000, rng=rng)),
        ("shear shift", check_affine_invariance(
            [EllipsoidIndicator.ball(2), e2],
            ExponentSpec([1.0, 1.0], [2.0, 1.0]), k=1,
            g=[[1.0, 0.5], [0.0, 1.0]], shift=[0.3, 0.2], R=2.0,
            n_flats=12000, rng=rng)),
        ("rotation shift", check_affine_invariance(
            [e3], ExponentSpec([1.0], [4.0]), k=2,
            g=random_rotation(3, rng), shift=[0.2, -0.3, 0.25],
            R=2.0,
            n_flats=12000, rng=rng)),
    ]
    passed = sum(r.verdict == PASS for _, r in jobs)
    worst = max(abs(r.diagnostics["departure_z"]) for _, r in jobs)

    control_linear = check_linear_invariance(
        [GaussianDensity.standard(2)], ExponentSpec([1.0], [1.0]), k=1,
        g=[[2.0, 0.3], [0.0, 0.5]], n_subspaces=4000, rng=rng)
    control_affine = check_affine_invariance(
        [e2, e2], ExponentSpec([1.0, 1.0], [1.0, 1.0]), k=1,
        g=[[3.0, 0.3], [0.0, 1.0 / 3.0]], shift=[0.4, -0.2], R=2.0,
        n_flats=12000, rng=rng)
    sig_l = abs(control_linear.diagnostics["departure_z"])
    sig_a = abs(control_affine.diagnostics["departure_z"])
    detected = (control_linear.verdict == FAIL and sig_l > 5.0
                and control_affine.verdict == FAIL and sig_a > 5.0)
    ok = passed == 6 and detected
    log_line(acceptance_log, 5, "invariance and detection", ok,
             f"{passed}/6 invariant cases pass (worst departure "
             f"{worst:.2f} sigma); wrong-sum controls depart "
             f"{sig_l:.1f} and {sig_a:.1f} sigma > 5")
    assert ok


def continuity_levels(f, count=5):
    """Levels strictly between attained product values, where the
    superlevel volume is locally constant and MC comparison is fair."""
    per_factor = [list(factor.heights) for factor in f.factors]
    values = sorted({math.prod(combo)
                     for combo in itertools.product(*per_factor)})
    values = [v for v in values if v > 0]
    gaps = [(lo, hi) for lo, hi in zip(values, values[1:]) if hi / lo > 1.05]
    gaps.append((1e-3 * values[0], values[0]))
    mids = sorted(math.sqrt(lo * hi) for lo, hi in gaps)
    step = max(1, len(mids) // count)
    return mids[::step][:count]


def test_rearrangement_chain(acceptance_log, rng):
    chains = 0
    norms = 0
    equi = 0
    for i in range(10):
        n = 2 if i % 2 == 0 else 3
        f = unit_product(n, rng)
        report = check_rearrangement_monotonicity([f], p=1.0, case="cone",
                                                  n_samples=20000, rng=rng)
        chains += report.verdict == PASS

        # f* is exact: one shell per distinct box value, heights
        # decreasing outward
        g = rearrangement(f)
        norms += (abs(g.mass - f.mass) <= 1e-12 * f.mass
                  and abs(g.sup - f.sup) <= 1e-12 * f.sup)

        m = 30000
        radius = f.support_radius
        pts = rng.standard_normal((m, n))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        pts *= radius * rng.random(m)[:, None] ** (1.0 / n)
        vals = f.eval_many(pts)
        box = unit_ball_volume(n) * radius ** n
        good = True
        for t in continuity_levels(f):
            frac = float((vals > t).mean())
            mc = box * frac
            stderr = box * math.sqrt(frac * (1.0 - frac) / m)
            # {f* > t} is the ball out to the edge of the last shell above t
            star = unit_ball_volume(n) * g.edges[np.sum(g.heights > t)] ** n
            if abs(mc - star) > 3.0 * stderr:
                good = False
        equi += good
    ok = chains == 10 and norms == 10 and equi == 10
    log_line(acceptance_log, 6, "rearrangement chain", ok,
             f"{chains}/10 monotonicity chains hold at 3 stderr; "
             f"{norms}/10 preserve mass and sup to 1e-12; "
             f"{equi}/10 equimeasurable at 3 stderr")
    assert ok


@pytest.mark.xfail(reason="the claimed factor-2 bound is not met at these "
                          "sizes; the fitted factor is reported instead",
                   strict=True)
def test_projected_sup_lower_bound(acceptance_log):
    rows = []
    ok = True
    for n, k in [(3, 1), (4, 2)]:
        for j, s in enumerate((1.5, 2.0, 3.0)):
            report = gaussian_sharpness_experiment(
                n, k, s, 100000, substream(SEED_A, 700 + 10 * n + j))
            d, measure = report.diagnostics, report.rhs
            holds = (measure.value
                     >= d["claimed_bound"] - 3.0 * measure.stderr)
            ok = ok and holds
            rows.append(f"({n},{k},s={s:g}) measure {measure.value:.5f} "
                        f"vs bound {d['claimed_bound']:.5f} "
                        f"(fit {d['fitted_factor']:.2f})")
    log_line(acceptance_log, 7, "projected sup lower bound", ok,
             "; ".join(rows))
    assert ok


def test_marginal_bound_experiment(acceptance_log):
    def skewed_gaussian(n, k):
        variances = [1e-4] * k + [1.0] * (n - k)
        return GaussianDensity(np.zeros(n), np.diag(variances))

    def thin_box(n, k, eps=1e-3):
        factors = [Step1D.uniform(-eps / 2, eps / 2, [1.0 / eps])
                   for _ in range(k)]
        factors += [Step1D.uniform(-0.5, 0.5, [1.0]) for _ in range(n - k)]
        return ProductDensity(factors)

    jobs = [(n, k, skewed_gaussian(n, k), "gaussian")
            for n in (3, 4) for k in (1, 2)]
    jobs.append((3, 2, thin_box(3, 2), "uniform box"))
    details = []
    ok = True
    for n, k, f, family in jobs:
        s = 8.0 ** (1.0 / (k * n))
        report = marginal_bound_experiment(
            f, k=k, s=s, t=s, n_subspaces=80, n_x=400,
            rng=substream(SEED_A, 800 + 10 * n + k + (family == "uniform box")),
            adversarial=axis_subspace(n, list(range(k))))
        d = report.diagnostics
        envelope = d["bad_envelope"]
        slack = 3.0 * math.sqrt(envelope * (1 - envelope) / 80)
        good = (report.verdict == PASS and d["adversarial_detected"]
                and d["bad_fraction"] <= envelope + slack
                and d["c1"] <= 10.0 and d["c2"] <= 10.0)
        ok = ok and good
        details.append(f"{family} ({n},{k}) c1 {d['c1']:.2f} c2 {d['c2']:.2f} "
                       f"bad {d['bad_fraction']:.3f} <= {envelope:.3f}")
    log_line(acceptance_log, 8, "marginal bound experiment", ok,
             "; ".join(details))
    assert ok


def test_suite_determinism(acceptance_log, tmp_path):
    quiet = lambda *args, **kwargs: None
    outputs = {}
    # the second pass runs on this process and one forked worker
    for name, jobs in (("first", 1), ("second", 2)):
        config = load_config("configs/paper-core.ini",
                             output_override=str(tmp_path / name))
        run_suite(config, jobs=jobs, echo=quiet)
        outputs[name] = (tmp_path / name / "results.csv").read_bytes()
    identical = outputs["first"] == outputs["second"]

    config = load_config("configs/paper-core.ini",
                         seed_override=SEED_A + 7,
                         output_override=str(tmp_path / "reseeded"))
    run_suite(config, jobs=1, echo=quiet)

    def verdicts(path):
        with open(path, newline="") as handle:
            return [row["verdict"] for row in csv.DictReader(handle)]

    base = verdicts(tmp_path / "first" / "results.csv")
    reseeded = verdicts(tmp_path / "reseeded" / "results.csv")
    agree = base == reseeded
    ok = identical and agree
    log_line(acceptance_log, 9, "suite determinism", ok,
             f"rerun at jobs 2 byte-identical: {identical}; verdicts agree across "
             f"seeds: {agree} ({len(base)} checks)")
    assert ok
