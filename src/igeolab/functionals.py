"""Monte Carlo estimators for the integral functionals under study.

Covers the simplex moment (with and without the origin as a vertex) and
the frame mean behind the Grassmannian and affine-Grassmannian averages of
section norms and the section routes of the decomposition checks.
Every estimator returns an Estimate and is bit-reproducible given the
generator's seed path: its one mc_estimate draw fills the values block by
block (_in_blocks).  Where a cone moment has a closed form
(_exact_cone_moment, from each density's radial_moment), simplex_moment
returns it as Estimate.exact and draws nothing.  Neither does a
section-norm average of densities all rotation invariant about 0, read
over subspaces on one frame as Estimate.exact and over flats by a rule in
the flat's distance to the origin (grassmann.radial_average), nor one
that a rule covers (_rule_covers): a rule's Estimate has method "rule",
the rule's error as stderr and the frames of its last level as samples.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .geometry import ROW_BLOCK, _chi_moment, _tuple_volumes
from .grassmann import RULE_START, flat_frames, radial_average, \
    rule_average, subspace_frames
from .densities import section_stats
from .report import Estimate, ParameterError, mc_estimate

__all__ = [
    "ExponentSpec",
    "simplex_moment",
    "grassmann_average_I",
    "affine_average_I",
    "powz",
]


@dataclass(frozen=True)
class ExponentSpec:
    """Integrability powers p_i and outer exponents alpha_i, one per slot.

    p_i may be math.inf for a sup-norm slot (it contributes nothing to the
    constraint sum).  The averages are invariant under volume-preserving
    maps exactly when sum(alpha_i / p_i) equals the ambient dimension
    (linear averages) or dimension + 1 (affine averages).
    """

    p_list: tuple
    alpha_list: tuple

    def __post_init__(self):
        p = tuple(float(v) for v in self.p_list)
        a = tuple(float(v) for v in self.alpha_list)
        if len(p) != len(a) or not p:
            raise ValueError("p_list and alpha_list must match and be non-empty")
        for v in p:
            if not (v > 0.0):
                raise ValueError(f"powers must be positive (or inf), got {v}")
        object.__setattr__(self, "p_list", p)
        object.__setattr__(self, "alpha_list", a)

    @property
    def constraint_sum(self) -> float:
        return sum(a / p for p, a in zip(self.p_list, self.alpha_list)
                   if math.isfinite(p))

    def __len__(self):
        return len(self.p_list)


def powz(values: np.ndarray, alpha: float) -> np.ndarray:
    """values**alpha with the zero-support convention: 0 maps to 0.

    Treats the exponent as a limit from above, so alpha = 0 yields the
    indicator of {values > 0}; negative alpha never produces infinities
    from empty sections.
    """
    values = np.asarray(values, dtype=float)
    pos = values > 0.0
    out = np.zeros(values.shape)
    if alpha == 0.0:
        out[pos] = 1.0
    else:
        out[pos] = values[pos] ** alpha
    return out


def _lp_norms(masses: np.ndarray, sups: np.ndarray, p: float) -> np.ndarray:
    """L_p norms of f on a stack of flats from the section masses and sups
    of f**p (of f itself for a sup slot, p = inf); a Monte Carlo sup is
    biased low (conservative in a denominator)."""
    return sups if math.isinf(p) else powz(masses, 1.0 / p)


def _norm_products(f_list, spec: ExponentSpec, method, bases: np.ndarray,
                   offsets: np.ndarray, rng) -> np.ndarray:
    """prod_i ||f_i restricted||_{p_i}^{alpha_i} for a stack of flats.
    Slot i reads the sections of f_i**power, power p_i, or 1 for a sup
    slot.  Exact section stats are read once per distinct (f, power), f
    keyed by identity, and shared by every slot that holds it; Monte Carlo
    window points are drawn slot by slot, each for the whole stack, so the
    generator is consumed once per slot in slot order.  The flats may
    share bases, as in section_stats."""
    read = {}
    total = np.ones(len(offsets))
    for f, p, a in zip(f_list, spec.p_list, spec.alpha_list):
        power = 1.0 if math.isinf(p) else p
        key = id(f), power
        if method == "exact" and key in read:
            masses, sups, _ = read[key]
        else:
            masses, sups, _ = read[key] = section_stats(
                f if power == 1.0 else f.power(power), bases, offsets,
                method, rng)
        total *= powz(_lp_norms(masses, sups, p), a)
    return total


def _common_dim(f_list) -> int:
    """The one ambient dimension of f_list; ParameterError on "f_list"
    unless it is nonempty and in one dimension."""
    dims = {f.n for f in f_list}
    if len(dims) != 1:
        raise ParameterError("f_list", "must be nonempty, in one ambient "
                             f"dimension; got dimensions {sorted(dims)}")
    return dims.pop()


def simplex_moment(f_list, p: float, origin: bool, n_samples: int,
                   rng: np.random.Generator) -> Estimate:
    """Mean of |conv{0?, x_1, ..., x_q}|^p over one draw x_i from each f_i
    normalized; callers scale by the product of the masses.

    With origin set the origin is an extra vertex, 1 <= q <= n and
    p > -(n - q + 1) are required, and negative p attaches the tail share;
    without it the points span the simplex alone and 2 <= q <= n + 1,
    p >= 1 are required (one point spans no simplex; below p = 1 the
    rearrangement machinery breaks down).  The values are filled
    _in_blocks of ROW_BLOCK tuples, each block drawing its q slots in list
    order and measured by _simplex_powers, so only one block of points is
    live; with a budget above ROW_BLOCK the block size is part of the
    stream layout.
    With origin set and every f_i rotation invariant about 0 (see
    _exact_cone_moment) the mean is returned as Estimate.exact instead:
    nothing is drawn from rng and n_samples is unused.
    """
    q = len(f_list)
    n = _common_dim(f_list)
    low, top = (1, n) if origin else (2, n + 1)
    if not low <= q <= top:
        raise ValueError(f"need {low} <= q <= {top}, got q={q} n={n}")
    if origin and p <= -(n - q + 1):
        raise ValueError(f"p must exceed -(n - q + 1) = {-(n - q + 1)}")
    if not origin and p < 1.0:
        raise ValueError(f"need p >= 1, got {p}")
    if origin:
        exact = _exact_cone_moment(f_list, p)
        if exact is not None:
            return Estimate.exact(exact)

    def fill(stream, size):
        return _simplex_powers([f.sample(size, stream) for f in f_list],
                               origin, p)

    return mc_estimate(_in_blocks(fill, ROW_BLOCK), n_samples, rng,
                       keep_values=p < 0)


def _exact_cone_moment(f_list, p: float):
    """E|conv{0, X_1, ..., X_q}|^p for independent X_i ~ f_i / mass_i in
    closed form, or None unless every f_i.radial_moment(p) is known.

    A rotation-invariant X is |X| times an independent uniform direction,
    and for Gaussian points q! |conv| is a product of independent
    chi_{n-i}, i < q (Miles, Isotropic random simplices, 1971).  So
    E|conv|^p = (q!)^(-p) prod_i E|X_i|^p prod_{i<q} M(n - i, p) / M(n, p),
    M = _chi_moment; for q = 1 the last product is exactly 1.
    """
    moments = [f.radial_moment(p) for f in f_list]
    if None in moments:
        return None
    n, q = f_list[0].n, len(f_list)
    cone = math.prod(_chi_moment(n - i, p) / _chi_moment(n, p)
                     for i in range(q))
    return math.prod(moments) * cone / math.factorial(q) ** p


def _simplex_powers(slots, origin: bool, p: float) -> np.ndarray:
    """|conv|^p (powz) of every tuple of the q slot arrays slots[i]
    (..., d), one point of each slot per tuple, shape (...): the tuple
    spans a simplex with the origin as extra vertex when origin is set,
    else by its points alone, the first slot subtracted from the others.
    ROW_BLOCK tuples at a time are gathered into a (q, d, block) array,
    each coordinate of each slot a contiguous column, measured by
    _tuple_volumes on its (block, q, d) view and raised to p in one output
    array, so no stack of all the tuples is built."""
    rows = [np.reshape(x, (-1, x.shape[-1])) for x in slots]
    first = rows[0]
    if not origin:
        rows = rows[1:]
    out = np.empty(len(first))
    for start in range(0, len(first), ROW_BLOCK):
        block = slice(start, start + ROW_BLOCK)
        tuples = first[block]
        x = np.empty((len(rows), tuples.shape[1], len(tuples)))
        for i, row in enumerate(rows):
            if origin:
                x[i] = row[block].T
            else:
                np.subtract(row[block].T, tuples.T, out=x[i])
        out[block] = powz(_tuple_volumes(x.transpose(2, 0, 1)), p)
    return out.reshape(np.shape(slots[0])[:-1])


def _frame_mean(frames, integrand, count: int, rng: np.random.Generator,
                rows: int) -> Estimate:
    """Monte Carlo mean of weight * integrand(bases, offsets, stream) over
    count frames drawn by frames(size, stream) -> (bases, offsets, weight),
    _in_blocks of at most rows frames, with the tail share attached: the
    draws of frames and integrand (flat_frames, section_points) interleave
    block by block."""

    def fill(stream, size):
        bases, offsets, weight = frames(size, stream)
        return weight * integrand(bases, offsets, stream)

    return mc_estimate(_in_blocks(fill, rows), count, rng, keep_values=True)


def _in_blocks(fill, rows: int):
    """draw(stream, m) for mc_estimate: the (m,) values of fill(stream,
    size) over consecutive blocks of at most rows, so only one block of
    draws is live.  A single block is its fill itself, not a copy of it.
    Each block draws from the stream in turn, so with several blocks the
    block size is part of the stream layout."""

    def draw(stream, m):
        if m <= rows:
            return fill(stream, m)
        out = np.empty(m)
        for start in range(0, m, rows):
            out[start:start + rows] = fill(stream, min(rows, m - start))
        return out

    return draw


def _rule_covers(f_list, k: int, method, flats: bool) -> bool:
    """Whether a section-norm average takes grassmann.rule_average instead of
    drawing: exact sections on lines or hyperplanes of R^2 or R^3, over
    flats hyperplanes with one density in every slot, and every density
    within its family's rule reach, a section_form, so that the rule
    converges on the integrand spectrally."""
    n = f_list[0].n
    if method != "exact" or n not in RULE_START or k not in (1, n - 1) \
            or flats and (k < n - 1 or len({id(f) for f in f_list}) > 1):
        return False
    return all(f.section_form(flats or k > 1, flats) is not None
               for f in f_list)


def _average(f_list, spec: ExponentSpec, method, k: int, count: int, rng,
             R=None) -> Estimate:
    """The section-norm average of f_list over k-subspaces, or with R over
    k-flats in the R-window.  Where sections are exact and every density
    is rotation invariant about 0 (radial_moment(0) known), the integrand
    depends on a flat's distance to the origin alone: an average over
    subspaces is exact, on the first k axes, and one over flats is
    radial_average's rule in that distance.  Else rule_average where
    _rule_covers holds, matched to the first slot's section_form; else
    the frame mean."""
    n, flats = _common_dim(f_list), R is not None
    if len(spec) != len(f_list):
        raise ValueError("one (p, alpha) slot per density required")
    integrand = functools.partial(_norm_products, f_list, spec, method)
    if method == "exact" \
            and None not in [f.radial_moment(0.0) for f in f_list]:
        if not flats:
            return Estimate.exact(integrand(np.eye(n)[None, :, :k],
                                            np.zeros((1, n)), None)[0])
        # the integrand vanishes past the largest support
        value, error, nodes = radial_average(
            n, k, min(R, max(f.support_radius for f in f_list)),
            lambda bases, offsets: integrand(bases, offsets, None))
        return Estimate(value, error, nodes, "rule")
    if not _rule_covers(f_list, k, method, flats):
        frames = functools.partial(flat_frames, n, k, R) if flats \
            else functools.partial(subspace_frames, n, k)
        return _frame_mean(frames, integrand, count, rng, count)
    value, error, nodes = rule_average(
        n, k, lambda bases, offsets: integrand(bases, offsets, None),
        f_list[0].section_form, f_list[0].center if flats else None,
        0.5 * k * spec.constraint_sum)
    return Estimate(value, error, nodes, "rule")


def grassmann_average_I(f_list, spec: ExponentSpec, k: int, n_subspaces: int,
                        rng: np.random.Generator, method="exact") -> Estimate:
    """Average over random k-subspaces of prod_i ||f_i restricted||_{p_i}^{alpha_i}.

    method "exact" uses closed-form section norms (available for the
    ellipsoid, Gaussian, truncated-Gaussian and radial families everywhere
    and for products on lines), once per distinct
    (density, power) per stack of subspaces; ("mc", m) estimates each
    slot's section norm from its own m window samples instead.  Exact
    sections of densities all rotation invariant about 0, or _rule_covers,
    draw no subspace, and n_subspaces is unused (_average).
    """
    return _average(f_list, spec, method, k, n_subspaces, rng)


def affine_average_I(f_list, spec: ExponentSpec, k: int, R: float,
                     n_flats: int, rng: np.random.Generator, method="exact"
                     ) -> Estimate:
    """Invariant-measure average over k-flats of the section-norm product.

    Flats are drawn uniformly among those within distance R of the origin
    and reweighted by the window mass, so the estimate targets the infinite
    invariant measure directly.  All supports must fit in the R-window:
    flats outside it carry zero integrand only if every f_i vanishes there.
    Section norms are read as in grassmann_average_I: exact stats once per
    distinct (density, power) per stack of flats, MC draws slot by slot.
    Exact sections of densities all rotation invariant about 0 take the
    rule in the flats' distance rho to the origin (grassmann.radial_frames),
    and where _rule_covers holds the flats are a rule's nodes on the
    ellipsoid's support; either rule converges level by level, and
    n_flats is unused.  On an ellipsoid the integrand is a multiple of
    (1 - rho^2)^(k A / 2) along each normal, A the exponent sum
    (grassmann.rule_frames).
    """
    _common_dim(f_list)
    for f in f_list:
        if f.support_radius > R + 1e-9:
            raise ValueError(
                f"support radius {f.support_radius} exceeds the flat window R={R}")
    return _average(f_list, spec, method, k, n_flats, rng, R)
