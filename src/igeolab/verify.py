"""Numerical experiments: identity, inequality, and invariance checks.

Each function turns one statement into a reproducible experiment with an
explicit decision rule and returns a CheckReport.  The statements come in
linear/affine pairs, and each pair shares one driver (_decomposition_report,
_invariance_report, _bound_report); a check states only its frame sampler,
its ambient side and its parameters, and draws through simplex_moment or
functionals' frame mean, unless a closed form covers its cone moment
(functionals._exact_cone_moment) or a rule its section-norm average
(functionals._rule_covers).  Every rule on a check's parameters lives in
one rules function beside it, which raises ParameterError naming the
keyword; the check calls it before it draws anything, and load_config
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

from .geometry import bp_constant, bp_exact_constant, \
    exact_event_measure, unit_ball_volume, unit_volume_radius, _row_norms, \
    _sharpness_cut, _spd_solve
from .grassmann import flat_frames, subspace_frames, perturb_subspace, \
    distances_to, haar_bases, _orthonormal, _orthonormalize
from .densities import ROW_BLOCK, DensityModel, EllipsoidIndicator, \
    ParameterError, affine_image, section_points, section_stats, \
    _volume_preserving
from .functionals import ExponentSpec, affine_average_I, \
    grassmann_average_I, simplex_moment, _blocked, _common_dim, \
    _frame_mean, _simplex_powers
from .rearrange import rearrangement
from .report import PASS, FAIL, INCONCLUSIVE, CheckReport, Estimate, \
    mc_estimate, merge_estimates, ratio_estimate, power_estimate

EQUALITY_BAND = 0.02
TAIL_LIMIT = 0.5
CONSTANT_CEILING = 10.0
NOISE_FLOOR = 0.25     # relative stderr above which a null result is no result
# bp_* section points per blocked draw (several draws a block, so their
# results depend on it: see functionals._blocked), and subspaces per sharpness
# cross-check.  Sharpness hit tests take blocks of ROW_BLOCK, one draw each.
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


def _positive_sup(f_list, param: str):
    """Rule: every sup is positive.  A tiny sup can underflow to 0 while the
    mass stays positive, and the bounds take a log or a root of it."""
    _need(all(f.sup > 0.0 for f in f_list), param,
          "must hold densities of positive sup" if param == "f_list"
          else "must have a positive sup")


def _finite_side(side, param: str, what="the check's closed-form side"):
    """Rule: side(), a check's closed-form side, is a finite float; returns
    it, so that a parameter that overflows the side, or that takes the log
    of a ball volume underflowed to 0, is refused, not a crash."""
    try:
        value = side()
    except (OverflowError, ValueError):
        value = math.inf
    _need(value < math.inf, param, f"puts {what} past the float range")
    return value


def _window(r: float, n: int, k: int, param: str):
    """Rule: the window of k-flats of R^n within r of the origin stays in
    the float range: r, r^2 and its mass kappa_{n-k} r^(n-k) are finite."""
    _finite_side(lambda: max(r * r, unit_ball_volume(n - k) * r ** (n - k)),
                 param, "the flat window")


def _subspace_rule(E, n: int, k: int, param: str):
    """Rule: E is a k-dimensional subspace of R^n, an (n, k) array of
    orthonormal columns."""
    _need(np.shape(E) == (n, k), param,
          f"must have shape ({n}, {k}), got {np.shape(E)}")
    _need(_orthonormal(E), param, "must be an array of orthonormal columns")


def _name_or_array(value, names: tuple, shape: tuple, param: str):
    """Rule: value is one of the names or a finite array of the shape."""
    ok = value in names if isinstance(value, str) \
        else np.shape(value) == shape and bool(np.isfinite(value).all())
    _need(ok, param, f"must be {' or '.join(map(repr, names))} or a finite "
          f"array of shape {shape}")


def _volume_map(a, n: int, param: str):
    """Rule: the map a is 'shear', 'rotation' or a volume-preserving
    n x n matrix."""
    _name_or_array(a, ("shear", "rotation"), (n, n), param)
    if not isinstance(a, str):
        _volume_preserving(a, param)


def _readable(f_list, dim: int, param: str, method="exact", g=None):
    """Rule: the check can read its sections of dimension dim, by method
    "exact" or ("mc", N) with an integer N >= 2.  Monte Carlo ones sample a
    window about a bounded support; exact ones need a closed form for every
    density and its image under g = (map, shift), if any.  Either way the
    map must not overflow the image."""
    mc = isinstance(method, tuple) and len(method) == 2 \
        and method[0] == "mc" and isinstance(method[1], (int, np.integer)) \
        and method[1] >= 2
    _need(mc or method == "exact", "method", 'must be "exact" or ("mc", N) '
          f"with an integer N >= 2, got {method!r}")
    hint = '; use method ["mc", N]' if param == "method" else ""
    for f in f_list:
        try:
            image = f if g is None else affine_image(f, _stand_in(g, f.n))
        except ParameterError as exc:
            # the map's keyword: g for the linear check, g[0] for the affine
            raise ParameterError("g" if g[1] is None else "g[0]",
                                 f"puts the image of {type(f).__name__} "
                                 f"past the float range: {exc}") from None
        if method != "exact":
            _need(np.isfinite(f.support_radius), "method",
                  "Monte Carlo section stats need bounded supports")
            continue
        for model, where in ((f, ""), (image, " under this map")):
            _need(model.exact_sections(dim), param,
                  f"{type(f).__name__}{where} has no exact sections of "
                  f"dimension {dim}{hint}")


# ---------------------------------------------------------------------------
# Section decompositions of simplex moments (subspace and flat versions).
# ---------------------------------------------------------------------------

def _section_moments(f_list, inner, exponent, origin, bases, offsets,
                     rng) -> np.ndarray:
    """Per flat of the stack: the product of the section masses of f_list
    times the mean of |conv|^exponent over inner tuples, one point of each
    density's section law per tuple.  The tuple spans a simplex with the
    origin as extra vertex when origin is set, else by its points alone.
    """
    masses, pts = zip(*[section_points(f, bases, offsets, inner, rng)
                        for f in f_list])
    # one (flats, inner, k) array of section points per slot
    return np.prod(masses, axis=0) \
        * _simplex_powers(pts, origin, exponent).mean(axis=1)


def _section_route(f_list, frames, count, inner, exponent, origin,
                   rng) -> Estimate:
    """_frame_mean of _section_moments over count frames, in blocks of
    about DRAW_BLOCK section points."""
    return _frame_mean(
        frames, functools.partial(_section_moments, f_list, inner, exponent,
                                  origin),
        count, rng, max(1, DRAW_BLOCK // (len(f_list) * inner)))


def _decomposition_report(name: str, parameters: dict, dims: tuple,
                          ambient, route, rng) -> CheckReport:
    """Replicas and verdict shared by the two section decompositions.

    Each half of rng runs one replica, ambient(half) and then
    route(half.spawn(1)[0]), and fits the constant as their ratio; the
    verdict asks the two fits to agree within 3 combined stderr unless a
    route is heavy-tailed.  Ambient sides are pooled unless exact.  The
    pooled fit's distance to the exact constant, in its stderr, rides
    along as exact_z (diagnostic only).  dims is (n, k, q).
    """
    ambients, routes = zip(*[(ambient(half), route(half.spawn(1)[0]))
                             for half in rng.spawn(2)])
    lhs_all = ambients[0] if ambients[0].method == "exact" \
        else merge_estimates(ambients)
    printed = bp_constant(*dims)
    exact = bp_exact_constant(*dims)
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
    _k_up_to(k, _common_dim(f_list) - 1)
    _need(p >= 0.0, "p", f"must be >= 0, got {p}")
    # each budget splits into two replicas of at least 2 samples
    _at_least(4, n_direct=n_direct, n_subspaces=n_subspaces)
    _at_least(1, inner=inner)
    _need(len(f_list) <= k, "f_list", f"must hold at most k={k} densities")
    _readable(f_list, k, "f_list")


def check_bp_subspace(f_list, k: int, p: float, n_direct: int,
                      n_subspaces: int, rng: np.random.Generator,
                      inner: int = 256) -> CheckReport:
    """Decomposition of a q-point simplex moment over k-dimensional sections.

    LHS integrates prod f_i(x_i) |conv{0, x}|^p over ambient tuples, exact
    (n_direct unused) for inputs rotation invariant about 0 (see
    functionals._exact_cone_moment); RHS runs the two-stage route (random
    section, then points inside it), its integrand weighted by |conv|^(n-k),
    scaled by the printed constant, which is fitted as LHS / route; two
    independent replicas must agree on the fit within 3 combined stderr.
    """
    _bp_subspace_rules(f_list, k, p, n_direct, n_subspaces, inner)
    n = f_list[0].n
    q = len(f_list)
    count = n_subspaces // 2
    mass = math.prod(f.mass for f in f_list)

    def direct(samples, stream):
        return simplex_moment(f_list, p, True, samples, stream).scaled(mass)

    def route(stream):
        return _section_route(f_list, functools.partial(subspace_frames, n, k),
                              count, inner, p + (n - k), True, stream)

    return _decomposition_report(
        "bp_subspace", {"n": n, "k": k, "q": q, "p": p, "n_direct": n_direct,
                        "n_subspaces": n_subspaces},
        (n, k, q),
        lambda half: direct(n_direct // 2, half.spawn(1)[0]), route, rng)


def _bp_flat_rules(f, k, n_direct, n_flats, R, p, inner):
    _k_up_to(k, f.n - 1)
    _need(p == 0.0 or p >= 1.0, "p", f"must be 0 or >= 1, got {p}")
    _need(0.0 <= R and f.support_radius <= R + 1e-9, "R", f"must cover "
          f"the support radius {f.support_radius:.4g}, got {R}")
    _window(R, f.n, k, "R")
    _need(n_direct >= (4 if p else 0), "n_direct", "must be >= 0, and >= 4 "
          f"(two replicas of >= 2) with an offset exponent; got {n_direct}")
    _at_least(4, n_flats=n_flats)
    _at_least(1, inner=inner)
    _finite_side(lambda: f.mass ** (k + 1), "f")
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

    def ambient(half):
        if p == 0.0:
            return Estimate.exact(f.mass ** (k + 1))
        return simplex_moment([f] * (k + 1), p, False, n_direct // 2,
                              half.spawn(1)[0]).scaled(f.mass ** (k + 1))

    frames = functools.partial(flat_frames, n, k, R)
    return _decomposition_report(
        "bp_flat", {"n": n, "k": k, "q": k, "p": p, "R": R,
                    "n_direct": n_direct, "n_flats": n_flats},
        (n, k, k), ambient,
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
    is not finite or departs from 1 by more than 3 stderr, which a side
    that reads 0 does, INCONCLUSIVE when a side is heavy-tailed or the
    ratio too noisy to see a departure, else PASS.  before and after are
    the averages before and after the map; each says how it was computed
    (Estimate.method) and carries its tail share."""
    ratio = ratio_estimate(after, before)
    dev = abs(ratio.value - 1.0)
    if not (math.isfinite(ratio.value) and dev <= 3.0 * ratio.stderr):
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
                     **extra})


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
        a = _orthonormalize(rng.standard_normal((1, n, n)))[0]
        if np.linalg.det(a) < 0:
            a[:, 0] = -a[:, 0]
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
    n = _common_dim(f_list)
    _k_up_to(k, n - 1)
    _need(len(spec) == len(f_list), "spec", "needs one slot per density")
    _at_least(2, n_subspaces=n_subspaces)
    _volume_map(g, n, "g")
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
    n = _common_dim(f_list)
    _k_up_to(k, n - 1)
    _need(len(spec) == len(f_list), "spec", "needs one slot per density")
    _need(R >= 0.0, "R", f"must be >= 0, got {R}")
    _window(R, n, k, "R")
    _at_least(2, n_flats=n_flats)
    _need(all(np.isfinite(f.support_radius) for f in f_list), "f_list",
          "flat averages need bounded supports")
    _window(max(f.support_radius for f in f_list), n, k, "f_list")
    # g[i] names the i-th entry of the pair: config's map and shift fields
    _volume_map(g[0], n, "g[0]")
    _name_or_array(g[1], ("random",), (n,), "g[1]")
    if not isinstance(g[1], str):     # the window about the shifted images
        _window(math.hypot(*g[1]) + max(f.support_radius for f in f_list),
                n, k, "g[1]")
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
    before = affine_average_I(f_list, spec, k, r_before, n_flats,
                              streams[0], method)
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

def _rearrangement_rules(f_list, p, case, n_samples):
    n = _common_dim(f_list)
    _need(p >= 1.0, "p", f"must be >= 1, got {p}")
    _need(case in ("cone", "simplex"), "case",
          f"must be 'cone' or 'simplex', got {case!r}")
    _at_least(2, n_samples=n_samples)
    low, top = (1, n) if case == "cone" else (2, n + 1)
    _need(low <= len(f_list) <= top, "f_list",
          f"{low} to {top} densities for case {case!r}")
    _positive_sup(f_list, "f_list")
    for f in f_list:
        try:
            rearrangement(f)
        except ValueError as exc:
            raise ParameterError("f_list", "must hold densities with an "
                                 f"exact rearrangement: {exc}") from None


def check_rearrangement_monotonicity(f_list, p: float, case: str,
                                     n_samples: int,
                                     rng: np.random.Generator) -> CheckReport:
    """The two-step monotonicity chain of the simplex functionals.

    The functional may only drop when every input becomes its symmetric
    decreasing rearrangement, and for inputs of unit mass and sup <= 1
    further to the unit-volume-ball value.  case "cone" adds the origin as
    a vertex; a side that functionals._exact_cone_moment covers (the ball's;
    f*'s unless a truncated Gaussian at fractional n + p) is exact, with
    n_samples unused.  case "simplex" spans the simplex by the drawn points.
    """
    _rearrangement_rules(f_list, p, case, n_samples)
    origin = case == "cone"
    n = f_list[0].n
    q = len(f_list)
    normalized = all(abs(f.mass - 1.0) <= 1e-9 and f.sup <= 1.0 + 1e-9
                     for f in f_list)
    streams = rng.spawn(3)

    def functional(densities, stream):
        return power_estimate(
            simplex_moment(densities, p, origin, n_samples, stream), 1.0 / p)

    value_f = functional(f_list, streams[0])
    stars = [rearrangement(f) for f in f_list]
    value_star = functional(stars, streams[1])
    steps = [_one_sided_verdict(value_star, value_f)]
    diagnostics = {"value": value_f.value, "value_rearranged": value_star.value,
                   "normalized_inputs": normalized,
                   "stderr": [value_f.stderr, value_star.stderr]}
    rhs = value_star
    if normalized:
        ball = EllipsoidIndicator.ball(n, radius=unit_volume_radius(n))
        value_ball = functional([ball] * q, streams[2])
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
                    "n_samples": n_samples},
        lhs=value_f, rhs=rhs, verdict=FAIL if FAIL in steps else PASS,
        diagnostics=diagnostics)


# ---------------------------------------------------------------------------
# The two functional section inequalities.
# ---------------------------------------------------------------------------

def _bound_report(name: str, parameters: dict, lhs: Estimate, rhs: Estimate,
                  expect_equality: bool) -> CheckReport:
    """Verdict shared by the two functional section inequalities: one-sided,
    or the equality band in equality mode; a heavy-tailed LHS turns a
    non-failing verdict inconclusive.  lhs is the section-norm average, and
    says how it was computed (Estimate.method) and its tail share."""
    if expect_equality:
        verdict, band = _equality_verdict(lhs, rhs)
    else:
        verdict, band = _one_sided_verdict(lhs, rhs), None
    if verdict != FAIL and _heavy_tailed(lhs):
        verdict = INCONCLUSIVE
    return CheckReport(
        name=name, parameters=parameters, lhs=lhs, rhs=rhs, verdict=verdict,
        diagnostics={"expect_equality": expect_equality,
                     "equality_band": band})


def _grinberg_rules(f_list, k, p, n_subspaces, method, expect_equality):
    n = _common_dim(f_list)
    _k_up_to(k, n - 1)
    _need(0.0 <= p <= n - k, "p", f"must lie in [0, {n - k}], got {p}")
    _at_least(2, n_subspaces=n_subspaces)
    _need(len(f_list) <= k, "f_list", f"must hold at most k={k} densities")
    _positive_sup(f_list, "f_list")
    _readable(f_list, k, "method", method)
    q = len(f_list)

    def side():
        log_rhs = q * (k + p) / k * math.log(unit_ball_volume(k)) \
            - q * (k + p) / n * math.log(unit_ball_volume(n))
        for f in f_list:
            log_rhs += (k + p) / n * math.log(f.mass) \
                + (n - k - p) / n * math.log(f.sup)
        return math.exp(log_rhs)
    return _finite_side(side, "f_list")


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
    rhs = _grinberg_rules(f_list, k, p, n_subspaces, method, expect_equality)
    n = f_list[0].n
    q = len(f_list)
    doubled = [f for f in f_list for _ in range(2)]
    spec = ExponentSpec((1.0, math.inf) * q,
                        (1.0 + p / k, -p / k) * q)
    lhs = grassmann_average_I(doubled, spec, k, n_subspaces, rng, method)
    return _bound_report(
        "grinberg_functional", {"n": n, "k": k, "q": q, "p": p,
                                "n_subspaces": n_subspaces, "method": method},
        lhs, Estimate.exact(rhs), expect_equality)


def _schneider_rules(f, k, n_flats, method, expect_equality):
    _k_up_to(k, f.n - 1)
    _at_least(2, n_flats=n_flats)
    _need(np.isfinite(f.support_radius), "f", "needs a bounded support")
    n = f.n
    _window(f.support_radius, n, k, "f")
    _readable([f], k, "method", method)
    return _finite_side(lambda: math.exp(
        (n + 1) * math.log(unit_ball_volume(k))
        + math.log(unit_ball_volume(n * (k + 1)))
        - (k + 1) * math.log(unit_ball_volume(n))
        - math.log(unit_ball_volume(k * (n + 1)))) * f.mass ** (k + 1), "f")


def check_schneider_functional(f: DensityModel, k: int, n_flats: int,
                               rng: np.random.Generator, method="exact",
                               expect_equality: bool = False) -> CheckReport:
    """Flat average of section mass powers over section sups against its
    closed-form bound.

    Integrates (integral of f over F)^(n+1) / ||f|_F||_inf^(n-k) over the
    invariant flat measure, drawn in a window of the support radius, and
    compares with the ball-volume constant times mass^(k+1).  Ball and
    shifted-ellipsoid indicators sit in the equality case.
    """
    rhs = _schneider_rules(f, k, n_flats, method, expect_equality)
    n = f.n
    spec = ExponentSpec((1.0, math.inf), (float(n + 1), -float(n - k)))
    lhs = affine_average_I([f, f], spec, k, f.support_radius, n_flats, rng,
                           method)
    return _bound_report(
        "schneider_functional", {"n": n, "k": k, "R": f.support_radius,
                                 "n_flats": n_flats, "method": method},
        lhs, Estimate.exact(rhs), expect_equality)


# ---------------------------------------------------------------------------
# Marginal bounds: Markov filtering, sharpness, perturbation.
# ---------------------------------------------------------------------------

def _fiber_statistics(f: DensityModel, bases: np.ndarray, ys: np.ndarray):
    """Per-point fiber statistics for a stack of subspaces, read by one
    section_stats call per block of ROW_BLOCK // (n_x + 1) subspaces, the
    last one shorter; no statistic depends on the blocks.

    bases (m, n, k) holds the subspaces' orthonormal bases and ys
    (m, n_x, n) draws of f for each.  The fibers of a subspace are the
    flats spanned by its complement through the feet (the projections of
    its draws) and through the origin, n_x + 1 rows.  Returns (T, L1, r,
    T0): the Markov statistic T = (fiber mass)^n / (fiber sup)^k and the
    fiber masses themselves (the marginal density at the feet), each
    (m, n_x), the feet's norms |x|, and T of the fiber through the origin,
    shape (m,).  The n_x + 1 fibers of a subspace share its complement's
    basis (section_stats).
    """
    m, n_x, n = ys.shape
    k = bases.shape[-1]
    feet = ys @ np.swapaxes(bases @ np.swapaxes(bases, 1, 2), 1, 2)
    comp = np.linalg.qr(bases, mode="complete")[0][..., k:]
    offsets = np.zeros((m, n_x + 1, n))
    offsets[:, :n_x] = feet
    offsets = offsets.reshape(-1, n)
    l1, sup = np.empty((2, len(offsets)))
    per_block = max(1, ROW_BLOCK // (n_x + 1))
    for start in range(0, m, per_block):
        rows = slice(start * (n_x + 1), (start + per_block) * (n_x + 1))
        l1[rows], sup[rows] = section_stats(
            f, comp[start:start + per_block], offsets[rows])[:2]
    with np.errstate(divide="ignore", invalid="ignore"):
        t_vals = np.where(sup > 0, l1 ** n / np.maximum(sup, 1e-300) ** k, 0.0)
    t_vals = t_vals.reshape(m, n_x + 1)
    return (t_vals[:, :-1], l1.reshape(m, n_x + 1)[:, :-1], _row_norms(feet),
            t_vals[:, -1])


def _quantiles(values: np.ndarray, qs) -> np.ndarray:
    """np.quantile(values, qs), method "linear", bit for bit, without the
    np.unique through which numpy's own version imports numpy.ma.

    Like numpy it partitions at the index set {0, n - 1, lo, hi} (which
    decides where tied -0.0 and 0.0 land), sends a virtual index
    h = (n - 1) q at or past n - 1 to the last element with weight h + 1,
    interpolates by numpy's lerp rule, and answers NaN for NaN input.
    """
    arr = np.asarray(values, dtype=float).ravel()
    n = arr.size
    h = (n - 1) * np.asarray(qs, dtype=float)
    lo = np.floor(h).astype(np.intp)
    hi = lo + 1
    top = h >= n - 1
    lo[top] = hi[top] = -1
    arr = np.partition(arr, sorted({0, n - 1, *lo, *hi} - {-1}))
    if np.isnan(arr[-1]):
        return np.full(h.shape, arr[-1])
    a, b, t = arr[lo], arr[hi], h - lo
    diff = b - a
    return np.where(t >= 0.5, b - diff * (1 - t), a + diff * t)


def _fit_quantile_constant(values: np.ndarray, s: float, kn: int) -> float:
    """Smallest c with empirical frac(values > (c s)^kn) <= s^-kn."""
    level = min(1.0 - s ** (-kn), 1.0)
    q = float(_quantiles(values, [level])[0])
    return max(q, 0.0) ** (1.0 / kn) / s


def _marginal_bound_rules(f, k, s, t, n_subspaces, n_x, adversarial):
    n = f.n
    _k_up_to(k, n - 1)
    _need(s > 1.0, "s", f"must be > 1, got {s}")
    _need(t > 1.0, "t", f"must be > 1, got {t}")
    _at_least(2, n_subspaces=n_subspaces, n_x=n_x)
    _unit_mass(f)
    _positive_sup([f], "f")
    if adversarial is not None:
        _subspace_rule(adversarial, n, k, "adversarial")
    _readable([f], n - k, "f")


def marginal_bound_experiment(f: DensityModel, k: int, s: float, t: float,
                              n_subspaces: int, n_x: int,
                              rng: np.random.Generator,
                              adversarial: np.ndarray | None = None
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

    rng spawns n_subspaces + 1 streams: one per sampled subspace, for its
    Haar draw and then its n_x points, and the last for the adversarial
    subspace's n_x points.  The adversarial subspace, when supplied, is the
    last row of the one stack whose fibers _fiber_statistics reads.
    """
    _marginal_bound_rules(f, k, s, t, n_subspaces, n_x, adversarial)
    n = f.n
    kn = k * n
    sup_root = f.sup ** (1.0 / n)
    streams = rng.spawn(n_subspaces + 1)
    rows = [(haar_bases(n, k, 1, stream)[0], f.sample(n_x, stream))
            for stream in streams[:-1]]
    if adversarial is not None:
        rows.append((adversarial, f.sample(n_x, streams[-1])))
    stats = _fiber_statistics(f, *map(np.stack, zip(*rows)))
    t_all, l1_all, r_all, origin_stats = (v[:n_subspaces] for v in stats)
    averages = t_all.mean(axis=1)

    c2 = max(_fit_quantile_constant(averages, s, kn),
             _fit_quantile_constant(origin_stats, s, kn))
    threshold = (c2 * s) ** kn
    bad = (averages > threshold) | (origin_stats > threshold)
    bad_frac = float(bad.mean())
    envelope = 2.0 * s ** (-kn)
    bad_slack = 3.0 * math.sqrt(envelope * (1 - envelope) / n_subspaces)

    # pointwise bound off the per-subspace Markov sets; a threshold past
    # the float range is inf, which every point passes
    with np.errstate(over="ignore"):
        point_threshold = np.float64(c2 * s * t) ** kn
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
        qs = _quantiles(radii[radii > 0], [0.001, 0.01, 0.05, 0.2])
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
        adv_avg = float(stats[0][-1].mean())
        detected = adv_avg > threshold or float(stats[3][-1]) > threshold
        diagnostics["adversarial_average"] = adv_avg
        diagnostics["adversarial_threshold"] = threshold
        diagnostics["adversarial_detected"] = detected
        ok = ok and detected
    lhs = Estimate(float(averages.mean()),
                   float(averages.std(ddof=1) / math.sqrt(n_subspaces)),
                   n_subspaces, "mc")
    rhs = Estimate.exact(threshold)
    return CheckReport(
        name="marginal_bound",
        parameters={"n": n, "k": k, "s": s, "t": t,
                    "n_subspaces": n_subspaces, "n_x": n_x},
        lhs=lhs, rhs=rhs, verdict=PASS if ok else FAIL,
        diagnostics=diagnostics)


def _sharpness_hits(n: int, k: int, s: float, stream: np.random.Generator,
                    size: int) -> np.ndarray:
    """Which of size subspaces drawn from stream hit the sharpness event.

    The event is det(B^T D B) <= cut, and the test needs no orthonormal
    basis: for the span of a Gaussian n x k draw G and any orthonormal
    basis B of it (B = G R^-1, R the QR factor), det(B^T D B) =
    det(G^T D G) / det(G^T G), so each draw is tested as det(G^T D G) <=
    cut det(G^T G) with no log: one quadratic form for k = 1, the 2 x 2
    determinants a c - b^2 for k = 2, and the log dets of _spd_solve for
    k >= 3.  The subspaces are those haar_bases would return for the same
    stream."""
    sigma2, log_cut = _sharpness_cut(n, k, s)
    diag = np.concatenate([np.full(k, sigma2), np.ones(n - k)])
    cut = math.exp(log_cut)
    g = stream.standard_normal((size, n, k))
    if k == 1:
        return np.square(g[..., 0]) @ (diag - cut) <= 0.0
    # column products of the draw against [1, diag] give both Grams at
    # once; G^T G is ill-conditioned only on rare draws, and the det ratio
    # matches det(B^T D B) to about 1e-11 relative
    w = np.stack([np.ones(n), diag], axis=1)
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
    return _spd_solve(grams[:, 1])[0] - _spd_solve(grams[:, 0])[0] <= log_cut


def _sharpness_rules(n, k, s, n_subspaces):
    _need(n >= 2, "n", f"must be >= 2, got {n}")
    _k_up_to(k, n - 1)
    # sigma^2 = (2 pi)^(-n/k) stays a normal float: (2 pi)^-385 > DBL_MIN
    _need(n <= 385 * k, "n", f"must be <= 385 k = {385 * k}, got {n}")
    top = (2 * math.pi) ** (n / (2.0 * k))   # sigma^-1
    _need(1.0 <= s <= top, "s", f"must lie in [1, {top:.6g}], got {s}")
    _at_least(2, n_subspaces=n_subspaces)


def gaussian_sharpness_experiment(n: int, k: int, s: float, n_subspaces: int,
                                  rng: np.random.Generator) -> CheckReport:
    """Measure of sections where the skewed Gaussian marginal sup is large.

    The law has k variances sigma^2 = (2pi)^(-n/k) and n-k unit variances,
    so the full density has sup exactly 1.  The event
    {||projected density sup||^(1/k) >= s} is det(B^T D B) <= cut =
    (2 pi s^2)^(-k) for an orthonormal basis B of the section; the claimed
    lower bound is (2s)^(-k(n-k)).  The verdict states the claim as
    printed; the fitted scale factor that would make the bound tight is
    reported either way.

    The measure is exact_event_measure where that has a value: min(k, n-k)
    <= 2, or an empty event, i.e. s above empty_above = (2 pi)^((n-k)/(2k))
    (min det(B^T D B) = sigma^(2k), the span of the first k axes).  The
    rhs method is then "exact" (a closed form, or the empty event's 0) or
    "rule" (the two-plane quadrature of min(k, n-k) = 2, stderr 0), and
    the verdict is measure >= bound.
    A non-empty exact row still draws min(n_subspaces, DRAW_BLOCK)
    subspaces as a cross-check of the exact form at these (n, k, s): their
    hit share and its binomial z against the exact measure are reported as
    sampled_measure and sampled_z, and neither enters the measure or the
    verdict.  Otherwise n_subspaces subspaces are drawn and the rhs method
    is "mc".  Either way _sharpness_hits tests blocks of ROW_BLOCK subspaces
    (see _blocked), one draw each, so the hits are those of one draw.
    """
    _sharpness_rules(n, k, s, n_subspaces)
    exact = exact_event_measure(n, k, s)
    sampled = sampled_z = None

    def hits(stream, m):
        return _blocked(m, ROW_BLOCK, functools.partial(
            _sharpness_hits, n, k, s, stream))
    if exact is None:
        rhs = mc_estimate(hits, n_subspaces, rng)
    else:
        rhs = Estimate(float(exact), 0.0, 0, "rule") \
            if min(k, n - k) == 2 and exact > 0 else Estimate.exact(exact)
        if exact > 0:
            m = min(n_subspaces, DRAW_BLOCK)
            sampled = float(np.mean(hits(rng, m)))
            sampled_z = (sampled - exact) / math.sqrt(exact * (1 - exact) / m)
    bound = (2.0 * s) ** (-k * (n - k))
    lhs = Estimate.exact(bound)
    fitted_factor = (rhs.value ** (-1.0 / (k * (n - k))) / s
                     if rhs.value > 0 else math.inf)
    return CheckReport(
        name="gaussian_sharpness",
        parameters={"n": n, "k": k, "s": s, "n_subspaces": n_subspaces},
        lhs=lhs, rhs=rhs, verdict=_one_sided_verdict(lhs, rhs),
        diagnostics={
            "claimed_bound": bound,
            "sigma": math.sqrt((2 * math.pi) ** (-n / k)),
            # the factor a for which measure = (a s)^(-k(n-k)); the claim
            # corresponds to a = 2
            "fitted_factor": fitted_factor,
            "empty_above": (2 * math.pi) ** ((n - k) / (2 * k)),
            "sampled_measure": sampled,
            "sampled_z": sampled_z,
        })


def _perturbation_rules(f, k, E, eta, eps_grid, n_samples, n_candidates):
    n = f.n
    _k_up_to(k, n - 1)
    _subspace_rule(E, n, k, "E")
    _need(0.0 < eta < 2.0, "eta", f"must lie in (0, 2), got {eta}")
    _need(len(eps_grid) > 0 and min(eps_grid) > 0, "eps_grid",
          "must be a nonempty list of positive radii")
    _at_least(2, n_samples=n_samples)
    _at_least(1, n_candidates=n_candidates)
    _unit_mass(f)
    _positive_sup([f], "f")


def _small_ball_fractions(coords: np.ndarray, radii) -> np.ndarray:
    """Share of the rows of coords in the closed balls of each radius about
    the two centres, the origin and the first row, shape (2, len(radii)).
    Counted radius by radius, exactly as a sort and a right-sided
    searchsorted would count them."""
    return np.array([[np.count_nonzero(dist <= r) for r in radii]
                     for dist in (_row_norms(coords),
                                  _row_norms(coords - coords[0]))]) \
        / len(coords)


def perturbation_experiment(f: DensityModel, k: int, E: np.ndarray, eta: float,
                            eps_grid, n_samples: int,
                            rng: np.random.Generator,
                            n_candidates: int = 32) -> CheckReport:
    """Search for a nearby subspace with near-optimal small-ball behavior.

    Draws candidate subspaces within distance eta of E (E itself included)
    and fits, per candidate, the smallest c making the projected small-ball
    mass obey (c (eps/eta) sup^(1/n))^(kn/(n+1)) across the radius grid at
    the origin and at one sampled center.  Passes when the best candidate's
    fitted c is O(1), i.e. at most 10.

    rng gives the n_samples draws of f, then perturb_subspace's proposal
    blocks of 64 (grassmann.PERTURB_BLOCK); the last block draws more than
    it uses, and nothing reads rng after it.
    """
    _perturbation_rules(f, k, E, eta, eps_grid, n_samples, n_candidates)
    n = f.n
    eps_grid = [float(e) for e in eps_grid]
    draws = f.sample(n_samples, rng)
    exponent = (n + 1) / (k * n)
    sup_root = f.sup ** (1.0 / n)
    candidates = np.concatenate(
        [E[None], perturb_subspace(E, eta, n_candidates - 1, rng)])
    radii = np.multiply(eps_grid, math.sqrt(k))
    needed = np.empty(len(candidates))
    tables = []
    for idx, basis in enumerate(candidates):
        fracs = _small_ball_fractions(draws @ basis, radii)
        # Python floats: numpy's array ** can differ from libm pow by 1 ulp
        needed[idx] = max(frac ** exponent * eta / (eps * sup_root)
                          for row in fracs.tolist()
                          for frac, eps in zip(row, eps_grid))
        tables.append(fracs.max(axis=0).tolist())
    best = int(np.argmin(needed))
    fitted = float(needed[best])
    dists = distances_to(E, candidates)
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
