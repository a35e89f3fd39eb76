"""Monte Carlo estimators for the integral functionals under study.

Covers the two simplex-moment functionals (with and without the origin as
a vertex) and the Grassmannian and affine-Grassmannian averages of section
norms.
Every estimator returns an Estimate and is bit-reproducible given the
generator's seed path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import _tuple_volumes
from .grassmann import flat_frames, haar_bases
from .densities import DensityModel, section_stats
from .report import Estimate, mc_estimate

__all__ = [
    "ExponentSpec",
    "delta0_p",
    "delta_p",
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


def _power_model(f: DensityModel, p: float) -> DensityModel:
    """f**p, whose section masses are the p-th powers of the L_p norms of
    f; f itself for p = 1 and for a sup slot (p = inf)."""
    return f if p == 1.0 or math.isinf(p) else f.power(p)


def _slot_models(f_list, spec: ExponentSpec) -> list:
    """The power model of every slot, built once per distinct (f, p), f
    keyed by identity, so that repeated slots share one model object."""
    if len(spec) != len(f_list):
        raise ValueError("one (p, alpha) slot per density required")
    built = {}
    for f, p in zip(f_list, spec.p_list):
        if (id(f), p) not in built:
            built[id(f), p] = _power_model(f, p)
    return [built[id(f), p] for f, p in zip(f_list, spec.p_list)]


def _lp_norms(masses: np.ndarray, sups: np.ndarray, p: float) -> np.ndarray:
    """L_p norms of f on a stack of flats from the section masses and sups
    of _power_model(f, p); a Monte Carlo sup is biased low (conservative in
    a denominator)."""
    return sups if math.isinf(p) else powz(masses, 1.0 / p)


def _norm_products(models, spec: ExponentSpec, bases: np.ndarray,
                   offsets: np.ndarray, method, rng) -> np.ndarray:
    """prod_i ||f_i restricted||_{p_i}^{alpha_i} for a stack of flats, from
    the slot models of _slot_models.  Exact section stats are read once per
    distinct model object and shared by every slot that holds it; Monte
    Carlo window points are drawn slot by slot, each for the whole stack,
    so the generator is consumed once per slot in slot order."""
    read = {}
    total = np.ones(len(bases))
    for model, p, a in zip(models, spec.p_list, spec.alpha_list):
        if method == "exact" and id(model) in read:
            masses, sups, _ = read[id(model)]
        else:
            masses, sups, _ = read[id(model)] = section_stats(
                model, bases, offsets, method, rng)
        total *= powz(_lp_norms(masses, sups, p), a)
    return total


def _common_dim(f_list) -> int:
    dims = {f.n for f in f_list}
    if len(dims) != 1:
        raise ValueError(f"models live in different dimensions: {sorted(dims)}")
    return dims.pop()


def delta0_p(f_list, p: float, n_samples: int,
             rng: np.random.Generator) -> Estimate:
    """Simplex moment with the origin as a vertex.

    Estimates the integral over q-tuples of |conv{0, x_1, ..., x_q}|^p
    weighted by the product density: each x_i is drawn from f_i normalized,
    and the mean is rescaled by the product of masses.  Requires
    p > -(n - q + 1); for negative p the heavy-tail share of the estimate
    is attached as a diagnostic.
    """
    q = len(f_list)
    n = _common_dim(f_list)
    if not 1 <= q <= n:
        raise ValueError(f"need 1 <= q <= n, got q={q} n={n}")
    if p <= -(n - q + 1):
        raise ValueError(f"p must exceed -(n - q + 1) = {-(n - q + 1)}")

    def draw(stream, m):
        pts = np.stack([f.sample(m, stream) for f in f_list], axis=1)
        return powz(_tuple_volumes(pts), p)

    est = mc_estimate(draw, n_samples, rng, keep_values=(p < 0))
    scale = math.prod(f.mass for f in f_list)
    return est.scaled(scale)


def delta_p(f: DensityModel, k: int, p: float, n_samples: int,
            rng: np.random.Generator) -> Estimate:
    """Simplex moment over k+1 free vertices, all drawn from the same f.

    Only p >= 1 is accepted: below that the rearrangement machinery the
    downstream inequalities rely on breaks down, so smaller exponents are
    rejected rather than silently extrapolated.
    """
    if p < 1.0:
        raise ValueError(f"need p >= 1, got {p}")
    if not 1 <= k <= f.n:
        raise ValueError(f"need 1 <= k <= n, got k={k} n={f.n}")

    def draw(stream, m):
        pts = f.sample(m * (k + 1), stream).reshape(m, k + 1, f.n)
        return _tuple_volumes(pts[:, 1:, :] - pts[:, :1, :]) ** p

    est = mc_estimate(draw, n_samples, rng)
    return est.scaled(f.mass ** (k + 1))


def grassmann_average_I(f_list, spec: ExponentSpec, k: int, n_subspaces: int,
                        rng: np.random.Generator, method="exact") -> Estimate:
    """Average over random k-subspaces of prod_i ||f_i restricted||_{p_i}^{alpha_i}.

    method "exact" uses closed-form section norms (available for the
    ellipsoid, Gaussian, truncated-Gaussian and radial families everywhere
    and for products on lines), once per distinct
    (density, power) per stack of subspaces; ("mc", m) estimates each
    slot's section norm from its own m window samples instead.
    """
    models = _slot_models(f_list, spec)
    n = _common_dim(f_list)

    def draw(stream, m):
        return _norm_products(models, spec, haar_bases(n, k, m, stream),
                              np.zeros((m, n)), method, stream)

    return mc_estimate(draw, n_subspaces, rng, keep_values=True)


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
    """
    models = _slot_models(f_list, spec)
    n = _common_dim(f_list)
    for f in f_list:
        if f.support_radius > R + 1e-9:
            raise ValueError(
                f"support radius {f.support_radius} exceeds the flat window R={R}")

    def draw(stream, m):
        bases, offsets, weight = flat_frames(n, k, R, m, stream)
        return weight * _norm_products(models, spec, bases, offsets, method,
                                       stream)

    return mc_estimate(draw, n_flats, rng, keep_values=True)
