"""Numerical experiments: identity, inequality, and invariance checks.

Each function turns one statement into a reproducible experiment with an
explicit decision rule and returns a CheckReport.  The statements come in
linear/affine pairs, and each pair shares one driver (_decomposition_report,
_invariance_report, _bound_report); a check states only its frame sampler,
its ambient side and its parameters.  Every rule on a check's parameters
lives in one rules function beside it, which raises ParameterError naming
the keyword; the check calls it before it draws anything, and load_config
calls it on each parsed check map.  Conventions, fixed across the module:

* one-sided inequalities pass at LHS <= RHS + 3 * stderr;
* equality cases pass inside a band of max(2%, 3 * relative stderr);
* identity checks (the two section decompositions) fit their unspecified
  normalization from the data and report its ratio to the printed closed
  form; the verdict asks only that two independent replicas agree on the
  fit (its distance to the exact Blaschke-Petkantschin constant rides along);
* unspecified O(1) constants are fitted and compared against a ceiling of 10;
* estimates whose top percentile carries half the total are flagged
  inconclusive rather than trusted.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy.special import betainc

from .geometry import Dimensions, bp_constant, bp_exact_constant, \
    unit_ball_volume, unit_volume_radius, _spd_solve, _tuple_volumes
from .grassmann import Subspace, flat_frames, haar_bases, \
    perturb_subspace, distances_to, sample_subspace
from .densities import DensityModel, EllipsoidIndicator, ParameterError, \
    affine_image, closed_form_image, section_points, section_stats
from .functionals import ExponentSpec, powz, grassmann_average_I, \
    affine_average_I, delta0_p, delta_p
from .rearrange import rearrangement
from .report import PASS, FAIL, INCONCLUSIVE, CheckReport, Estimate, \
    mc_estimate, merge_estimates, ratio_estimate, power_estimate

EQUALITY_BAND = 0.02
TAIL_LIMIT = 0.5
CONSTANT_CEILING = 10.0
NOISE_FLOOR = 0.25     # relative stderr above which a null result is no result
# Rows (sharpness subspaces, or bp_* section points) per block of a
# blocked draw: keeps the peak memory of a draw flat in its sample count.
DRAW_BLOCK = 1 << 16

__all__ = [
    "check_bp_subspace",
    "check_bp_flat",
    "check_linear_invariance",
    "check_affine_invariance",
    "check_rearrangement_monotonicity",
    "check_grinberg_functional",
    "check_schneider_functional",
    "marginal_bound_experiment",
    "gaussian_sharpness_experiment",
    "perturbation_experiment",
]


def _equality_verdict(lhs: Estimate, rhs: Estimate) -> tuple[str, float]:
    ratio = ratio_estimate(lhs, rhs)
    band = max(EQUALITY_BAND, 3.0 * ratio.rel_stderr)
    return (PASS if abs(ratio.value - 1.0) <= band else FAIL), band


def _one_sided_verdict(lhs: Estimate, rhs: Estimate) -> str:
    slack = 3.0 * math.hypot(lhs.stderr, rhs.stderr)
    return PASS if lhs.value <= rhs.value + slack else FAIL


def _spec_params(spec: ExponentSpec) -> dict:
    return {"spec_p": ["inf" if math.isinf(p) else p for p in spec.p_list],
            "spec_alpha": list(spec.alpha_list)}


def _heavy_tailed(*ests: Estimate) -> bool:
    return any(e.tail_share is not None and e.tail_share >= TAIL_LIMIT
               for e in ests)


def _need(ok: bool, param: str, message: str):
    """A rule of a check: ParameterError(param, message) unless ok."""
    if not ok:
        raise ParameterError(param, message)


def _at_least(lo: int, **counts):
    for param, count in counts.items():
        _need(count >= lo, param, f"must be >= {lo}, got {count}")


def _k_up_to(k: int, top: int):
    _need(1 <= k <= top, "k", f"must lie in [1, {top}], got {k}")


def _unit_mass(f: DensityModel):
    _need(abs(f.mass - 1.0) <= 1e-9, "f",
          "must be a probability density (unit mass); set normalize = true")


def _readable(f_list, dim: int, param: str, method="exact", g=None):
    """Rule: the check can read its sections of dimension dim.  Monte Carlo
    ones sample a window about a bounded support; exact ones need a closed
    form for every density and its image under g = (map, shift), if any."""
    hint = '; use method ["mc", N]' if param == "method" else ""
    for f in f_list:
        if method != "exact":
            _need(np.isfinite(f.support_radius), "method",
                  "Monte Carlo section stats need bounded supports")
            continue
        image = f if g is None else closed_form_image(f, _stand_in(g, f.n))
        for model, where in ((f, ""), (image, " under this map")):
            _need(model is not None and model.exact_sections(dim), param,
                  f"{type(f).__name__}{where} has no exact sections of "
                  f"dimension {dim}{hint}")


def _blocked(m: int, rows: int, fill) -> np.ndarray:
    """m values from fill(size) on consecutive blocks of at most rows rows;
    blocks drawing in turn consume a generator as one draw of all m would."""
    out = np.empty(m)
    for start in range(0, m, rows):
        out[start:start + rows] = fill(min(rows, m - start))
    return out


# ---------------------------------------------------------------------------
# Section decompositions of simplex moments (subspace and flat versions).
# ---------------------------------------------------------------------------

def _section_moments(f_list, bases, offsets, inner, exponent, origin,
                     rng) -> np.ndarray:
    """Per flat of the stack: the product of the section masses of f_list
    times the mean of |conv|^exponent over inner tuples, one point of each
    density's section law per tuple.  The tuple spans a simplex with the
    origin as extra vertex when origin is set, else by its points alone.
    """
    masses, pts = zip(*[section_points(f, bases, offsets, inner, rng)
                        for f in f_list])
    pts = np.stack(pts, axis=2)
    if not origin:
        pts = pts[..., 1:, :] - pts[..., :1, :]
    return np.prod(masses, axis=0) \
        * powz(_tuple_volumes(pts), exponent).mean(axis=1)


def _section_route(f_list, frames, count, inner, exponent, origin,
                   rng) -> Estimate:
    """Mean of weight * _section_moments over count flats drawn by
    frames(size, stream) -> (bases, offsets, weight), in blocks of about
    DRAW_BLOCK section points."""
    rows = max(1, DRAW_BLOCK // (len(f_list) * inner))

    def draw(stream, m):
        def fill(size):
            bases, offsets, weight = frames(size, stream)
            return weight * _section_moments(f_list, bases, offsets, inner,
                                             exponent, origin, stream)
        return _blocked(m, rows, fill)

    return mc_estimate(draw, count, rng, keep_values=True)


def _decomposition_report(name: str, parameters: dict, dims: Dimensions,
                          ambient, route, rng) -> CheckReport:
    """Replicas and verdict shared by the two section decompositions.

    Each half of rng runs one replica, ambient(half) and then
    route(half.spawn(1)[0]), and fits the constant as their ratio; the
    verdict asks the two fits to agree within 3 combined stderr unless a
    route is heavy-tailed.  Ambient sides are pooled unless exact.  The
    pooled fit's distance to the exact constant, in its stderr, rides
    along as exact_z (diagnostic only).
    """
    ambients, routes = zip(*[(ambient(half), route(half.spawn(1)[0]))
                             for half in rng.spawn(2)])
    lhs_all = ambients[0] if ambients[0].samples == 0 \
        else merge_estimates(ambients)
    printed = bp_constant(dims)
    exact = bp_exact_constant(dims)
    fits = [ratio_estimate(*side) for side in zip(ambients, routes)]
    gap = abs(fits[0].value - fits[1].value)
    tol = 3.0 * math.hypot(fits[0].stderr, fits[1].stderr)
    route_all = merge_estimates(routes)
    fitted = ratio_estimate(lhs_all, route_all)
    return CheckReport(
        name=name, parameters=parameters, lhs=lhs_all,
        rhs=route_all.scaled(printed),
        verdict=INCONCLUSIVE if _heavy_tailed(*routes)
        else (PASS if gap <= tol else FAIL),
        diagnostics={
            "printed_constant": printed,
            "fitted_constant": fitted.value,
            "fitted_stderr": fitted.stderr,
            "fitted_over_printed": fitted.value / printed,
            "exact_constant": exact,
            "exact_z": ((fitted.value - exact) / fitted.stderr
                        if fitted.stderr > 0 else math.inf),
            "replica_fits": [e.value for e in fits],
            "replica_gap": gap,
            "replica_tolerance": tol,
            "tail_shares": [r.tail_share for r in routes],
        })


def _bp_subspace_rules(f_list, k, p, n_direct, n_subspaces, inner):
    _k_up_to(k, f_list[0].n)
    _need(p >= 0.0, "p", f"must be >= 0, got {p}")
    # each budget splits into two replicas of at least 2 samples
    _at_least(4, n_direct=n_direct, n_subspaces=n_subspaces)
    _at_least(1, inner=inner)
    _need(len(f_list) <= k, "f_list", f"must hold at most k={k} densities")
    if k < f_list[0].n:     # the one section at k = n is never read
        _readable(f_list, k, "f_list")


def check_bp_subspace(f_list, k: int, p: float, n_direct: int,
                      n_subspaces: int, rng: np.random.Generator,
                      inner: int = 256) -> CheckReport:
    """Decomposition of a q-point simplex moment over k-dimensional sections.

    LHS integrates prod f_i(x_i) |conv{0, x}|^p over ambient tuples; RHS
    runs the two-stage route (random section, then points inside it) whose
    integrand carries the extra |conv|^(n-k) weight, scaled by the printed
    closed-form constant.  The measured constant is fitted as
    LHS / (section route) and reported against the printed value; the
    verdict requires two independent replicas to agree on the fit within
    3 combined stderr.
    """
    _bp_subspace_rules(f_list, k, p, n_direct, n_subspaces, inner)
    n = f_list[0].n
    q = len(f_list)
    count = n_subspaces // 2

    def subspaces(size, stream):
        return haar_bases(n, k, size, stream), np.zeros((size, n)), 1.0

    def route(stream):
        if k == n:
            # single degenerate section: the decomposition collapses to the
            # direct integral itself
            return delta0_p(f_list, p, count * inner, stream)
        return _section_route(f_list, subspaces, count, inner, p + (n - k),
                              True, stream)

    return _decomposition_report(
        "bp_subspace", {"n": n, "k": k, "q": q, "p": p, "n_direct": n_direct,
                        "n_subspaces": n_subspaces},
        Dimensions(n, k, q),
        lambda half: delta0_p(f_list, p, n_direct // 2, half.spawn(1)[0]),
        route, rng)


def _bp_flat_rules(f, k, n_direct, n_flats, R, p, inner):
    _k_up_to(k, f.n)
    _need(p == 0.0 or p >= 1.0, "p", f"must be 0 or >= 1, got {p}")
    _need(k < f.n or p == 0.0, "k", "offset exponents need k <= n-1")
    _need(0.0 <= R and f.support_radius <= R + 1e-9, "R", f"must cover "
          f"the support radius {f.support_radius:.4g}, got {R}")
    _need(n_direct >= (4 if p else 0), "n_direct", "must be >= 0, and >= 4 "
          f"(two replicas of >= 2) with an offset exponent; got {n_direct}")
    _at_least(4, n_flats=n_flats)
    _at_least(1, inner=inner)
    if k < f.n:             # the one flat at k = n is never read
        _readable([f], k, "f")


def check_bp_flat(f: DensityModel, k: int, n_direct: int, n_flats: int,
                  R: float, rng: np.random.Generator, p: float = 0.0,
                  inner: int = 256) -> CheckReport:
    """Flat-section decomposition with k+1 free vertices.

    With zero offset the ambient side is the exact power mass^(k+1) and
    the flat route must reproduce it through the |conv|^(n-k) weight and
    the invariant flat measure; positive offsets exercise the weighted
    version.  Constant handling as in check_bp_subspace.
    """
    _bp_flat_rules(f, k, n_direct, n_flats, R, p, inner)
    n = f.n
    dims = Dimensions(n, k, k)
    printed = bp_constant(dims)
    parameters = {"n": n, "k": k, "q": k, "p": p, "R": R,
                  "n_direct": n_direct, "n_flats": n_flats}
    if k == n and p == 0.0:
        # single degenerate flat (the whole space), zero exponent, unit
        # constant: both sides are the exact power of the mass
        lhs = Estimate.exact(f.mass ** (k + 1))
        return CheckReport(
            name="bp_flat", parameters=parameters, lhs=lhs, rhs=lhs,
            verdict=PASS,
            diagnostics={"printed_constant": printed,
                         "fitted_constant": 1.0,
                         "fitted_over_printed": 1.0 / printed,
                         "degenerate": True})

    def ambient(half):
        if p == 0.0:
            return Estimate.exact(f.mass ** (k + 1))
        return delta_p(f, k, p, n_direct // 2, half.spawn(1)[0])

    frames = functools.partial(flat_frames, n, k, R)
    return _decomposition_report(
        "bp_flat", parameters, dims, ambient,
        lambda stream: _section_route([f] * (k + 1), frames, n_flats // 2,
                                      inner, p + (n - k), False, stream),
        rng)


# ---------------------------------------------------------------------------
# Invariance of the section-norm averages.
# ---------------------------------------------------------------------------

def _invariance_report(name: str, parameters: dict, spec: ExponentSpec,
                       invariant_sum: float, before: Estimate,
                       after: Estimate, **extra) -> CheckReport:
    """Verdict shared by the two invariance checks: FAIL when after/before
    departs from 1 by more than 3 stderr, INCONCLUSIVE when a side is
    heavy-tailed or the ratio too noisy to see a departure, else PASS."""
    ratio = ratio_estimate(after, before)
    dev = abs(ratio.value - 1.0)
    if ratio.stderr > 0 and dev > 3.0 * ratio.stderr:
        verdict = FAIL
    elif _heavy_tailed(before, after) or ratio.rel_stderr > NOISE_FLOOR:
        verdict = INCONCLUSIVE
    else:
        verdict = PASS
    return CheckReport(
        name=name, parameters=parameters, lhs=after, rhs=before,
        verdict=verdict,
        diagnostics={"departure_sigma": (dev / ratio.stderr
                                         if ratio.stderr > 0 else math.inf),
                     "exponent_sum": spec.constraint_sum,
                     "invariant_sum": float(invariant_sum),
                     "sum_matches": abs(spec.constraint_sum - invariant_sum)
                     <= 1e-10,
                     **extra,
                     "tail_shares": [before.tail_share, after.tail_share]})


def _images(f_list, g) -> list:
    """The affine image of every density, mapped once per distinct density
    (by identity), so the images repeat objects as f_list does and the
    averages share their section evaluations alike."""
    mapped = {}
    for f in f_list:
        if id(f) not in mapped:
            mapped[id(f)] = affine_image(f, g)
    return [mapped[id(f)] for f in f_list]


def _drawn_map(g, n: int, rng: np.random.Generator):
    """The map (A, b) of g = (map, shift) drawn from rng: the map first, a
    matrix, 'rotation' (Haar on SO(n)) or 'shear' (unit upper triangular,
    off-diagonal entries of size 0.5 to 1.5, bounded away from zero so the
    non-invariance controls keep their power), then a 'random' shift."""
    a, shift = g
    name = a if isinstance(a, str) else None
    if name == "rotation":
        q_mat, r_mat = np.linalg.qr(rng.normal(size=(n, n)))
        q_mat *= np.sign(np.diagonal(r_mat))
        if np.linalg.det(q_mat) < 0:
            q_mat[:, 0] = -q_mat[:, 0]
        a = q_mat
    elif name == "shear":
        a = np.eye(n)
        iu = np.triu_indices(n, k=1)
        m = len(iu[0])
        a[iu] = rng.uniform(0.5, 1.5, size=m) * rng.choice([-1.0, 1.0], m)
    if isinstance(shift, str):
        shift = 0.5 * rng.normal(size=n)
    return np.asarray(a, dtype=float), shift


def _stand_in(g, n: int):
    """A map of the kind g names, whose images are of the families of
    _drawn_map's, drawing nothing: the identity for 'rotation', a unit upper
    triangular shear for 'shear', and a nonzero shift for 'random'."""
    a, shift = g
    if isinstance(a, str):
        a = np.eye(n) + np.triu(np.ones((n, n)), 1) * (a == "shear")
    return a, np.ones(n) if isinstance(shift, str) else shift


def _linear_invariance_rules(f_list, spec, k, g, n_subspaces, method):
    _k_up_to(k, f_list[0].n - 1)
    _need(len(spec) == len(f_list), "spec", "needs one slot per density")
    _at_least(2, n_subspaces=n_subspaces)
    _readable(f_list, k, "method", method, (g, None))


def check_linear_invariance(f_list, spec: ExponentSpec, k: int, g,
                            n_subspaces: int, rng: np.random.Generator,
                            method="exact") -> CheckReport:
    """Subspace average of section norms before and after a volume-preserving
    linear map.

    The average is invariant when sum(alpha_i / p_i) = n; with any other
    exponent sum a departure is expected and the verdict turns FAIL, which
    negative-control tests assert as detection power.  g is a matrix, or
    'shear' / 'rotation' drawn from child 0 of rng; the two averages draw
    from children 1 and 2.
    """
    _linear_invariance_rules(f_list, spec, k, g, n_subspaces, method)
    n = f_list[0].n
    maps, *streams = rng.spawn(3)
    g = _drawn_map((g, None), n, maps)
    before = grassmann_average_I(f_list, spec, k, n_subspaces, streams[0],
                                 method)
    images = _images(f_list, g)
    after = grassmann_average_I(images, spec, k, n_subspaces, streams[1],
                                method)
    return _invariance_report(
        "linear_invariance",
        {"n": n, "k": k, **_spec_params(spec), "n_subspaces": n_subspaces,
         "method": method},
        spec, n, before, after)


def _affine_invariance_rules(f_list, spec, k, g, R, n_flats, method):
    _k_up_to(k, f_list[0].n - 1)
    _need(len(spec) == len(f_list), "spec", "needs one slot per density")
    _need(R >= 0.0, "R", f"must be >= 0, got {R}")
    _at_least(2, n_flats=n_flats)
    _need(all(np.isfinite(f.support_radius) for f in f_list), "f_list",
          "flat averages need bounded supports")
    _readable(f_list, k, "method", method, g)


def check_affine_invariance(f_list, spec: ExponentSpec, k: int, g, R: float,
                            n_flats: int, rng: np.random.Generator,
                            method="exact") -> CheckReport:
    """Flat average of section norms before and after a volume-preserving
    affine map; invariance requires sum(alpha_i / p_i) = n + 1.

    Each side gets its own sampling window just covering its support, so
    translations do not force a common oversized window.  g = (map, shift):
    the map as in check_linear_invariance, the shift a vector or 'random'
    (normal with scale 1/2); child 0 of rng draws the map, then the
    shift, and the two averages draw from children 1 and 2.
    """
    _affine_invariance_rules(f_list, spec, k, g, R, n_flats, method)
    n = f_list[0].n
    maps, *streams = rng.spawn(3)
    g = _drawn_map(g, n, maps)
    r_before = max(R, max(f.support_radius for f in f_list))
    before = affine_average_I(f_list, spec, k, r_before, n_flats, streams[0],
                              method)
    images = _images(f_list, g)
    r_after = max(R, max(f.support_radius for f in images))
    after = affine_average_I(images, spec, k, r_after, n_flats, streams[1],
                             method)
    return _invariance_report(
        "affine_invariance",
        {"n": n, "k": k, **_spec_params(spec), "R": R, "n_flats": n_flats,
         "method": method},
        spec, n + 1, before, after, windows=[r_before, r_after])


# ---------------------------------------------------------------------------
# Rearrangement monotonicity of the normalized simplex functionals.
# ---------------------------------------------------------------------------

def _simplex_functional(f_list, p: float, origin: bool, n_samples: int,
                        rng: np.random.Generator) -> Estimate:
    """Normalized p-th-moment functional of the random simplex spanned by
    one draw from each density (with the origin as an extra vertex in the
    cone case), raised to 1/p."""

    def draw(stream, m):
        pts = np.stack([f.sample(m, stream) for f in f_list], axis=1)
        if not origin:
            pts = pts[:, 1:, :] - pts[:, :1, :]
        return _tuple_volumes(pts) ** p

    est = mc_estimate(draw, n_samples, rng)
    return power_estimate(est, 1.0 / p)


def _rearrangement_rules(f_list, p, case, n_samples, levels):
    _need(p >= 1.0, "p", f"must be >= 1, got {p}")
    _need(case in ("cone", "simplex"), "case",
          f"must be 'cone' or 'simplex', got {case!r}")
    _at_least(2, n_samples=n_samples, levels=levels)
    limit = f_list[0].n + (case == "simplex")
    _need(len(f_list) <= limit, "f_list",
          f"at most {limit} densities for case {case!r}")
    _need(all(f.superlevel_volumes([f.sup / 2]) is not None for f in f_list),
          "f_list", "rearrangement needs exact level profiles")


def check_rearrangement_monotonicity(f_list, p: float, case: str,
                                     n_samples: int,
                                     rng: np.random.Generator,
                                     levels: int = 1000) -> CheckReport:
    """The two-step monotonicity chain of the simplex functionals.

    The functional may only drop when every input is replaced by its
    symmetric decreasing rearrangement, and (for densities normalized to
    unit mass and sup at most one) drops further to the unit-volume-ball
    value.  case "cone" spans the simplex by q draws and the origin; case
    "simplex" uses the drawn points alone.
    """
    _rearrangement_rules(f_list, p, case, n_samples, levels)
    origin = case == "cone"
    n = f_list[0].n
    q = len(f_list)
    normalized = all(abs(f.mass - 1.0) <= 1e-9 and f.sup <= 1.0 + 1e-9
                     for f in f_list)
    streams = rng.spawn(3)
    value_f = _simplex_functional(f_list, p, origin, n_samples, streams[0])
    stars = [rearrangement(f, levels) for f in f_list]
    value_star = _simplex_functional(stars, p, origin, n_samples, streams[1])
    steps = [_one_sided_verdict(value_star, value_f)]
    diagnostics = {"value": value_f.value, "value_rearranged": value_star.value,
                   "normalized_inputs": normalized,
                   "stderr": [value_f.stderr, value_star.stderr]}
    rhs = value_star
    if normalized:
        ball = EllipsoidIndicator.ball(n, radius=unit_volume_radius(n))
        value_ball = _simplex_functional([ball] * q, p, origin, n_samples,
                                         streams[2])
        steps.append(_one_sided_verdict(value_ball, value_star))
        diagnostics["value_ball"] = value_ball.value
        diagnostics["stderr"].append(value_ball.stderr)
        rhs = value_ball
    else:
        diagnostics["second_step_skipped"] = \
            "inputs not normalized to mass 1 and sup <= 1"
    return CheckReport(
        name="rearrangement_chain",
        parameters={"n": n, "q": q, "p": p, "case": case,
                    "n_samples": n_samples, "levels": levels},
        lhs=value_f, rhs=rhs, verdict=FAIL if FAIL in steps else PASS,
        diagnostics=diagnostics)


# ---------------------------------------------------------------------------
# The two functional section inequalities.
# ---------------------------------------------------------------------------

def _bound_report(name: str, parameters: dict, lhs: Estimate, rhs: Estimate,
                  expect_equality: bool) -> CheckReport:
    """Verdict shared by the two functional section inequalities: one-sided,
    or the equality band in equality mode; a heavy-tailed LHS turns a
    non-failing verdict inconclusive."""
    if expect_equality:
        verdict, band = _equality_verdict(lhs, rhs)
    else:
        verdict, band = _one_sided_verdict(lhs, rhs), None
    if verdict != FAIL and _heavy_tailed(lhs):
        verdict = INCONCLUSIVE
    return CheckReport(
        name=name, parameters=parameters, lhs=lhs, rhs=rhs, verdict=verdict,
        diagnostics={"expect_equality": expect_equality,
                     "equality_band": band,
                     "tail_share": lhs.tail_share})


def _grinberg_rules(f_list, k, p, n_subspaces, method, expect_equality):
    n = f_list[0].n
    _k_up_to(k, n - 1)
    _need(0.0 <= p <= n - k, "p", f"must lie in [0, {n - k}], got {p}")
    _at_least(2, n_subspaces=n_subspaces)
    _need(len(f_list) <= k, "f_list", f"must hold at most k={k} densities")
    _readable(f_list, k, "method", method)


def check_grinberg_functional(f_list, k: int, p: float, n_subspaces: int,
                              rng: np.random.Generator, method="exact",
                              expect_equality: bool = False) -> CheckReport:
    """Subspace average of L1-over-sup section-norm ratios against its
    closed-form bound.

    The average of prod_i ||f_i|_E||_1^(1+p/k) / ||f_i|_E||_inf^(p/k) over
    k-dimensional sections is bounded by explicit ball-volume constants
    times the product of the global norms.  Equality mode tightens the
    verdict to the two-sided band (indicator-of-ball and common-ellipsoid
    tuples).
    """
    _grinberg_rules(f_list, k, p, n_subspaces, method, expect_equality)
    n = f_list[0].n
    q = len(f_list)
    doubled = [f for f in f_list for _ in range(2)]
    spec = ExponentSpec((1.0, math.inf) * q,
                        (1.0 + p / k, -p / k) * q)
    lhs = grassmann_average_I(doubled, spec, k, n_subspaces, rng, method)
    log_rhs = q * (k + p) / k * math.log(unit_ball_volume(k)) \
        - q * (k + p) / n * math.log(unit_ball_volume(n))
    for f in f_list:
        log_rhs += (k + p) / n * math.log(f.mass) \
            + (n - k - p) / n * math.log(f.sup)
    return _bound_report(
        "grinberg_functional", {"n": n, "k": k, "q": q, "p": p,
                                "n_subspaces": n_subspaces, "method": method},
        lhs, Estimate.exact(math.exp(log_rhs)), expect_equality)


def _schneider_rules(f, k, R, n_flats, method, expect_equality):
    _k_up_to(k, f.n - 1)
    _need(R >= 0.0, "R", f"must be >= 0, got {R}")
    _at_least(2, n_flats=n_flats)
    _need(np.isfinite(f.support_radius), "f", "needs a bounded support")
    _readable([f], k, "method", method)


def check_schneider_functional(f: DensityModel, k: int, R: float,
                               n_flats: int, rng: np.random.Generator,
                               method="exact",
                               expect_equality: bool = False) -> CheckReport:
    """Flat average of section mass powers over section sups against its
    closed-form bound.

    Integrates (integral of f over F)^(n+1) / ||f|_F||_inf^(n-k) over the
    invariant flat measure and compares with the ball-volume constant times
    mass^(k+1).  Ball and shifted-ellipsoid indicators sit in the equality
    case.
    """
    _schneider_rules(f, k, R, n_flats, method, expect_equality)
    n = f.n
    spec = ExponentSpec((1.0, math.inf), (float(n + 1), -float(n - k)))
    window = max(R, f.support_radius)
    lhs = affine_average_I([f, f], spec, k, window, n_flats, rng, method)
    log_c = (n + 1) * math.log(unit_ball_volume(k)) \
        + math.log(unit_ball_volume(n * (k + 1))) \
        - (k + 1) * math.log(unit_ball_volume(n)) \
        - math.log(unit_ball_volume(k * (n + 1)))
    return _bound_report(
        "schneider_functional", {"n": n, "k": k, "R": window,
                                 "n_flats": n_flats, "method": method},
        lhs, Estimate.exact(math.exp(log_c) * f.mass ** (k + 1)),
        expect_equality)


# ---------------------------------------------------------------------------
# Marginal bounds: Markov filtering, sharpness, perturbation.
# ---------------------------------------------------------------------------

def _fiber_statistics(f: DensityModel, E: Subspace, n_x: int,
                      rng: np.random.Generator):
    """Per-point fiber statistics for one subspace.

    Returns (T, L1, r, T0) over n_x draws x ~ projected law: the Markov
    statistic T = (fiber mass)^n / (fiber sup)^k, the fiber masses
    themselves (the marginal density at x), |x|, and T of the fiber
    through the origin, which rides along as one more row.
    """
    n, k = E.n, E.k
    ys = f.sample(n_x, rng)
    feet = ys @ E.projector.T
    comp = E.complement
    bases = np.broadcast_to(comp.basis, (n_x + 1, n, n - k))
    l1, sup, _ = section_stats(f, bases, np.vstack([feet, np.zeros(n)]))
    with np.errstate(divide="ignore", invalid="ignore"):
        t_vals = np.where(sup > 0, l1 ** n / np.maximum(sup, 1e-300) ** k, 0.0)
    return (t_vals[:-1], l1[:-1], np.linalg.norm(feet, axis=1),
            float(t_vals[-1]))


def _fit_quantile_constant(values: np.ndarray, s: float, kn: int) -> float:
    """Smallest c with empirical frac(values > (c s)^kn) <= s^-kn."""
    level = min(1.0 - s ** (-kn), 1.0)
    q = float(np.quantile(values, level))
    return max(q, 0.0) ** (1.0 / kn) / s


def _marginal_bound_rules(f, k, s, t, n_subspaces, n_x, adversarial):
    n = f.n
    _k_up_to(k, n - 1)
    _need(s > 1.0, "s", f"must be > 1, got {s}")
    _need(t > 1.0, "t", f"must be > 1, got {t}")
    _at_least(2, n_subspaces=n_subspaces, n_x=n_x)
    _unit_mass(f)
    if adversarial is not None:
        _need((adversarial.n, adversarial.k) == (n, k), "adversarial", f"is "
              f"{adversarial.k}-dimensional in R^{adversarial.n}, not k={k}")
    _readable([f], n - k, "f")


def marginal_bound_experiment(f: DensityModel, k: int, s: float, t: float,
                              n_subspaces: int, n_x: int,
                              rng: np.random.Generator,
                              adversarial: Subspace | None = None
                              ) -> CheckReport:
    """Markov-set experiment for the marginal density bound.

    Samples subspaces and projected points, computes the fiber statistic
    (fiber mass)^n / (fiber sup)^k, and fits the smallest constants making
    the two Markov filters work: c2 thresholds the per-subspace averages
    and the origin statistic at (c2 s)^(kn) with exceptional fraction at
    most 2 s^(-kn); off the bad sets the pointwise constant c1 and the
    origin small-ball constant c3 are fitted.  Verdict: all fitted
    constants at most 10 and the exceptional fractions inside their
    envelopes; an adversarial subspace, when supplied, must land in the
    exceptional set.
    """
    _marginal_bound_rules(f, k, s, t, n_subspaces, n_x, adversarial)
    n = f.n
    kn = k * n
    sup_root = f.sup ** (1.0 / n)
    streams = rng.spawn(n_subspaces + 1)
    t_all, l1_all, r_all, origin_stats = map(np.array, zip(*[
        _fiber_statistics(f, sample_subspace(n, k, stream), n_x, stream)
        for stream in streams[:-1]]))
    averages = t_all.mean(axis=1)

    c2 = max(_fit_quantile_constant(averages, s, kn),
             _fit_quantile_constant(origin_stats, s, kn))
    threshold = (c2 * s) ** kn
    bad = (averages > threshold) | (origin_stats > threshold)
    bad_frac = float(bad.mean())
    envelope = 2.0 * s ** (-kn)
    bad_slack = 3.0 * math.sqrt(envelope * (1 - envelope) / n_subspaces)

    # pointwise bound off the per-subspace Markov sets
    point_threshold = (c2 * s * t) ** kn
    # (powers are taken after each max: x -> x^(1/k) / C is monotone)
    off = t_all[~bad] < point_threshold
    worst_b_frac = float((1.0 - off.mean(axis=1)).max(initial=0.0))
    l1_off = l1_all[~bad][off]
    c1 = (float(l1_off.max()) ** (1.0 / k) / (s * t * sup_root)
          if l1_off.size else 0.0)

    # stronger small-ball at the origin on the subspaces passing the
    # origin-statistic filter, fitted over a data-driven radius grid
    radii = r_all[origin_stats <= threshold]
    c3 = 0.0
    eps_grid = []
    if radii.size:
        qs = np.quantile(radii[radii > 0], [0.001, 0.01, 0.05, 0.2])
        eps_grid = sorted(set(float(v) / math.sqrt(k) for v in qs if v > 0))
        fracs = (radii[..., None] <= np.array(eps_grid) * math.sqrt(k)) \
            .mean(axis=1).max(axis=0)
        c3 = max([c3] + [float(frac) ** (1.0 / k) / (eps * s * sup_root)
                         for frac, eps in zip(fracs, eps_grid) if frac > 0])

    diagnostics = {
        "c1": c1, "c2": c2, "c3": c3,
        "bad_fraction": bad_frac, "bad_envelope": envelope,
        "worst_point_bad_fraction": worst_b_frac,
        "point_envelope": t ** (-kn),
        "eps_grid": eps_grid,
        "mean_statistic": float(averages.mean()),
    }
    ok = (c2 <= CONSTANT_CEILING and c1 <= CONSTANT_CEILING
          and c3 <= CONSTANT_CEILING
          and bad_frac <= envelope + bad_slack
          and worst_b_frac <= t ** (-kn) + 1e-12)
    if adversarial is not None:
        t_vals, _, _, adv_origin = _fiber_statistics(f, adversarial, n_x,
                                                     streams[-1])
        adv_avg = float(t_vals.mean())
        detected = adv_avg > threshold or adv_origin > threshold
        diagnostics["adversarial_average"] = adv_avg
        diagnostics["adversarial_threshold"] = threshold
        diagnostics["adversarial_detected"] = detected
        ok = ok and detected
    lhs = Estimate(float(averages.mean()),
                   float(averages.std(ddof=1) / math.sqrt(n_subspaces)),
                   n_subspaces)
    rhs = Estimate.exact(threshold)
    return CheckReport(
        name="marginal_bound",
        parameters={"n": n, "k": k, "s": s, "t": t,
                    "n_subspaces": n_subspaces, "n_x": n_x},
        lhs=lhs, rhs=rhs, verdict=PASS if ok else FAIL,
        diagnostics=diagnostics)


def _axis_measure(n: int, k: int, s: float, normal: bool) -> float:
    """Exact sharpness event measure of a line (k = 1) or, with normal set,
    of a hyperplane (k = n - 1), read off one uniform unit vector u of R^n:
    the line's direction or the hyperplane's normal.  Let t be the square of
    u's coordinate along the axis alone in its variance (u_1^2 for a line,
    u_n^2 for a normal); t ~ Beta(1/2, (n-1)/2) and det(B^T D B) is affine
    in t:

    * line: det = 1 - t (1 - sigma^2), so the event is t >= x with
      x = (1 - 1/(2 pi s^2)) / (1 - sigma^2);
    * hyperplane: det = det(D) u^T D^-1 u = sigma^(2k) ((1 - t)/sigma^2 + t),
      so the event is t >= x with x = (1/sigma^2 - 2 pi s^(-2k)) /
      (1/sigma^2 - 1).

    The measure is P(t >= x) = I_{1-x}((n-1)/2, 1/2), x clipped to [0, 1];
    at n = 2 the two forms describe one event.
    """
    sigma2 = (2 * math.pi) ** (-n / k)
    if normal:
        x = (1.0 / sigma2 - 2 * math.pi * s ** (-2 * k)) / (1.0 / sigma2 - 1.0)
    else:
        x = (1.0 - 1.0 / (2 * math.pi * s * s)) / (1.0 - sigma2)
    return float(betainc((n - 1) / 2, 0.5, 1.0 - min(max(x, 0.0), 1.0)))


def _sharpness_rules(n, k, s, n_subspaces):
    _need(n >= 2, "n", f"must be >= 2, got {n}")
    _k_up_to(k, n - 1)
    top = (2 * math.pi) ** (n / (2.0 * k))   # sigma^-1
    _need(1.0 <= s <= top, "s", f"must lie in [1, {top:.6g}], got {s}")
    _at_least(2, n_subspaces=n_subspaces)


def gaussian_sharpness_experiment(n: int, k: int, s: float, n_subspaces: int,
                                  rng: np.random.Generator) -> CheckReport:
    """Measure of sections where the skewed Gaussian marginal sup is large.

    The law has k variances sigma^2 = (2pi)^(-n/k) and n-k unit variances,
    so the full density has sup exactly 1.  The event
    {||projected density sup||^(1/k) >= s} is evaluated in closed form per
    section from det of the projected covariance; the claimed lower bound
    is (2s)^(-k(n-k)).  The verdict states the claim as printed; the fitted
    scale factor that would make the bound tight is reported either way.
    The subspaces are drawn in blocks of DRAW_BLOCK (see _blocked).

    The event is det(B^T D B) <= cut = (2 pi s^2)^(-k), D = diag(variances),
    and needs no orthonormal basis: for the span of a Gaussian n x k draw G
    and any orthonormal basis B of it (B = G R^-1, R the QR factor),
    det(B^T D B) = det(G^T D G) / det(G^T G), so each draw is tested as
    det(G^T D G) <= cut det(G^T G) with no log: one quadratic form for
    k = 1, the 2 x 2 determinants a c - b^2 for k = 2, and the log dets of
    _spd_solve for k >= 3.  The subspaces are those haar_bases would return
    for the same stream.

    Since min det(B^T D B) = sigma^(2k) (the span of the first k axes), the
    event is empty exactly when s > (2 pi)^((n-k)/(2k)), reported as
    empty_above; such a check draws nothing and its measure is an exact 0
    (method "exact"; "mc" otherwise).  For lines and hyperplanes the
    diagnostics carry the exact measure as exact_measure (see
    _axis_measure; None for 1 < k < n-1 unless the event is empty).
    """
    _sharpness_rules(n, k, s, n_subspaces)
    sigma2 = (2 * math.pi) ** (-n / k)
    diag = np.concatenate([np.full(k, sigma2), np.ones(n - k)])
    # event: (2 pi)^(-1/2) det(B^T D B)^(-1/(2k)) >= s
    log_cut = -k * math.log(2 * math.pi) - 2 * k * math.log(s)
    cut = math.exp(log_cut)

    # column products of the draw against [1, diag] give both Grams at once;
    # G^T G is ill-conditioned only on rare draws, and the det ratio
    # matches det(B^T D B) to about 1e-11 relative
    w = np.stack([np.ones(n), diag], axis=1)

    def draw(stream, m):
        def hits(size):
            g = stream.standard_normal((size, n, k))
            if k == 1:
                return np.square(g[..., 0]) @ (diag - cut) <= 0.0
            if k == 2:
                a, b, c = ((g[..., i] * g[..., j]) @ w
                           for i, j in ((0, 0), (0, 1), (1, 1)))
                det = a * c - b * b
                return det[:, 1] <= cut * det[:, 0]
            grams = np.empty((size, 2, k, k))
            for i in range(k):
                for j in range(i, k):
                    np.matmul(g[..., i] * g[..., j], w, out=grams[:, :, i, j])
                    grams[:, :, j, i] = grams[:, :, i, j]
            return _spd_solve(grams[:, 1])[0] - _spd_solve(grams[:, 0])[0] \
                <= log_cut
        return _blocked(m, DRAW_BLOCK, hits)

    # cut < min det(B^T D B) = sigma^(2k): no subspace can hit
    empty = log_cut < k * math.log(sigma2)
    emp = Estimate.exact(0.0) if empty else mc_estimate(draw, n_subspaces, rng)
    bound = (2.0 * s) ** (-k * (n - k))
    passed = emp.value >= bound - 3.0 * emp.stderr
    fitted_factor = (emp.value ** (-1.0 / (k * (n - k))) / s
                     if emp.value > 0 else math.inf)
    exact = 0.0 if empty else _axis_measure(n, k, s, normal=k > 1) \
        if k in (1, n - 1) else None
    return CheckReport(
        name="gaussian_sharpness",
        parameters={"n": n, "k": k, "s": s, "n_subspaces": n_subspaces},
        lhs=Estimate.exact(bound), rhs=emp,
        verdict=PASS if passed else FAIL,
        diagnostics={
            "empirical_measure": emp.value,
            "exact_measure": exact,
            "claimed_bound": bound,
            "binomial_stderr": emp.stderr,
            "sigma": math.sqrt(sigma2),
            # the factor a for which empirical = (a s)^(-k(n-k)); the
            # claim corresponds to a = 2
            "fitted_factor": fitted_factor,
            "method": "exact" if empty else "mc",
            "empty_above": (2 * math.pi) ** ((n - k) / (2 * k)),
        })


def _perturbation_rules(f, k, E, eta, eps_grid, n_samples, n_candidates):
    n = f.n
    _k_up_to(k, n - 1)
    _need((E.n, E.k) == (n, k), "E",
          f"is {E.k}-dimensional in R^{E.n}, not k={k}")
    _need(0.0 < eta < 2.0, "eta", f"must lie in (0, 2), got {eta}")
    _need(len(eps_grid) > 0 and min(eps_grid) > 0, "eps_grid",
          "must be a nonempty list of positive radii")
    _at_least(2, n_samples=n_samples)
    _at_least(1, n_candidates=n_candidates)
    _unit_mass(f)


def perturbation_experiment(f: DensityModel, k: int, E: Subspace, eta: float,
                            eps_grid, n_samples: int,
                            rng: np.random.Generator,
                            n_candidates: int = 32) -> CheckReport:
    """Search for a nearby subspace with near-optimal small-ball behavior.

    Draws candidate subspaces within distance eta of E (E itself included)
    and fits, per candidate, the smallest c making the projected small-ball
    mass obey (c (eps/eta) sup^(1/n))^(kn/(n+1)) across the radius grid at
    the origin and at one sampled center.  Passes when the best candidate's
    fitted c is O(1), i.e. at most 10.
    """
    _perturbation_rules(f, k, E, eta, eps_grid, n_samples, n_candidates)
    n = f.n
    eps_grid = [float(e) for e in eps_grid]
    draws = f.sample(n_samples, rng)
    exponent = (n + 1) / (k * n)
    sup_root = f.sup ** (1.0 / n)
    candidates = [E]
    for _ in range(n_candidates - 1):
        candidates.append(perturb_subspace(E, eta, rng))
    needed = np.empty(len(candidates))
    tables = []
    for idx, cand in enumerate(candidates):
        coords = draws @ cand.basis
        centers = [np.zeros(k), coords[0]]
        worst = 0.0
        table = []
        for eps in eps_grid:
            fracs = []
            for z in centers:
                frac = float((np.linalg.norm(coords - z, axis=1)
                              <= eps * math.sqrt(k)).mean())
                c_here = frac ** exponent * eta / (eps * sup_root)
                worst = max(worst, c_here)
                fracs.append(frac)
            table.append(max(fracs))
        needed[idx] = worst
        tables.append(table)
    best = int(np.argmin(needed))
    fitted = float(needed[best])
    dists = distances_to(E, np.stack([c.basis for c in candidates]))
    success = float((needed <= CONSTANT_CEILING).mean())
    return CheckReport(
        name="perturbation",
        parameters={"n": n, "k": k, "eta": eta, "eps_grid": eps_grid,
                    "n_samples": n_samples, "n_candidates": n_candidates},
        lhs=Estimate.exact(fitted),
        rhs=Estimate.exact(CONSTANT_CEILING),
        verdict=PASS if fitted <= CONSTANT_CEILING else FAIL,
        diagnostics={
            "fitted_constant": fitted,
            "best_candidate_distance": float(dists[best]),
            "success_fraction": success,
            "candidate_constants": needed.tolist(),
            "best_small_ball_fractions": tables[best],
        })
