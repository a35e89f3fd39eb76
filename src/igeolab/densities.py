"""Density models with exact section and marginal capabilities.

Every model knows its ambient dimension, total mass, sup, a support radius,
and how to sample its normalized law.  Families that admit closed forms
additionally expose three exact capabilities, and everything else in the
package is built from them:

* sections: each exact family has one batched formula, ``_sections(bases,
  offsets)``, giving the section parameters for a stack of flats, and no
  other section route.  ``slice_stats_batch`` reads the section masses and
  sups off it, and ``section_points`` samples every section of the stack
  from it at once; a single flat is a stack of one.  The mass of the
  section through the fiber E-perp + x is exactly the marginal density of
  f at x, so marginals come for free.  Ellipsoid and Gaussian sections
  solve one k x k system per flat, in closed form for k <= 2
  (``geometry._spd_solve``), and truncated-Gaussian sections sample their
  chi radius in closed form for k <= 2.
* ``power(p)``: the pointwise power f^p as a model, so that the Lp norms
  of a stack of sections are ``section_stats(f.power(p), bases,
  offsets)[0] ** (1/p)``.
* ``superlevel_volumes(ts)``: |{f > t}| at every level of an array, which
  drives the layer-cake rearrangement.

Monte Carlo fallbacks cover models without a closed form; sampled sup
estimates are flagged biased low.  ``exact_sections(k)`` says whether every
k-dimensional section of a family has a closed form.  Each constructor
checks every rule on its parameters and raises ParameterError naming the
one broken.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erfinv, gammainc, gammaincinv

from .geometry import _spd_solve, unit_ball_volume
from .grassmann import Flat, Subspace, uniform_ball
from .report import Estimate

# |det A| must match 1 to this tolerance for volume-preserving maps.
DET_TOL = 1e-10
# Basis entries below this are treated as exact zeros when recognizing
# coordinate-aligned sections of product densities.
AXIS_TOL = 1e-12
# Box-enumeration cap for exact product superlevel volumes.
PRODUCT_ENUM_CAP = 300_000

__all__ = [
    "ParameterError",
    "DensityModel",
    "EllipsoidIndicator",
    "GaussianDensity",
    "TruncatedGaussian",
    "ProductDensity",
    "RadialGridDensity",
    "Step1D",
    "affine_image",
    "closed_form_image",
    "section_stats",
    "section_points",
    "restriction_stats",
    "marginal_density",
    "write_density_text",
]


class DensityModel:
    """Base class; subclasses fill in the family specifics."""

    n: int

    # -- required family interface ------------------------------------
    def eval_many(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    @property
    def mass(self) -> float:
        raise NotImplementedError

    @property
    def sup(self) -> float:
        raise NotImplementedError

    @property
    def support_radius(self) -> float:
        """Smallest R with f = 0 outside the centered ball of radius R
        (inf for full support)."""
        raise NotImplementedError

    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        """Draw from the mass-normalized law of f, shape (size, n)."""
        raise NotImplementedError

    # -- optional exact capabilities -----------------------------------
    def slice_stats_batch(self, bases: np.ndarray, offsets: np.ndarray):
        """(mass, sup) arrays of the sections through the flats
        offsets[i] + span(bases[i]), or None when no closed form exists."""
        return None

    def exact_sections(self, k: int) -> bool:
        """Whether every section of dimension k has a closed form."""
        return False

    def power(self, p: float):
        """The pointwise power f**p as a model, or None."""
        return None

    def superlevel_volumes(self, ts):
        """|{f > t}| at each level t > 0 of ts, an array shaped like ts
        (0 for t >= sup), or None when no closed form exists."""
        return None


class ParameterError(ValueError):
    """A parameter, named as the caller passed it, that breaks a rule: of
    a density family (constructor parameters) or of a check (verify
    keywords); message says which."""

    def __init__(self, param: str, message: str):
        self.param, self.message = param, message
        super().__init__(f"{param} {message}")


def _amplitude(a) -> float:
    """a as a float, unless it is negative or not finite.  Zero is legal:
    empty sections and zero powers build zero-amplitude models."""
    a = float(a)
    if not 0.0 <= a < math.inf:
        raise ParameterError("amplitude", "must be finite and non-negative, "
                             f"got {a}")
    return a


def _scale(r, name: str, n: int, what: str = "") -> float:
    """r as a positive length whose powers r^2, r^-2, r^n and r^-n are
    positive and finite, so that a ball or kernel of width r in dimension n
    has a shape, volume and height that neither over- nor underflow."""
    r = float(r)
    with np.errstate(all="ignore"):
        powers = np.float64(r) ** np.array([2.0, -2.0, n, -n])
    if not (r > 0.0 and np.all((powers > 0.0) & (powers < math.inf))):
        raise ParameterError(name, f"{what}{r:g} must be positive, with "
                             f"powers +-2 and +-{n} finite and nonzero")
    return r


def _vector(x, name: str, n: int | None = None) -> np.ndarray:
    """x as a non-empty finite float vector, of length n when n is given."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.ndim != 1 or x.size == 0 or not np.isfinite(x).all() \
            or n is not None and x.size != n:
        raise ParameterError(name, "must be a non-empty finite vector of "
                             f"length {'n' if n is None else n}")
    return x


def _spd(m, name: str, power: float, n: int | None = None):
    """m as a symmetric positive definite float matrix, n x n when n is
    given, and its Cholesky factor; each principal axis length eigenvalue **
    power (1/2 for a covariance, -1/2 for a shape matrix) passes _scale."""
    m = np.atleast_2d(np.asarray(m, dtype=float))
    n = m.shape[0] if n is None else n
    try:
        if m.shape != (n, n) or not np.isfinite(m).all() \
                or np.abs(m - m.T).max() > 1e-12:
            raise np.linalg.LinAlgError
        chol = np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        raise ParameterError(name, "must be a finite symmetric positive "
                             "definite (n, n) matrix") from None
    with np.errstate(divide="ignore", invalid="ignore"):
        for length in np.linalg.eigvalsh(m) ** power:
            _scale(length, name, n, "principal axis length ")
    return m, chol


def _steps(edges, heights) -> tuple[np.ndarray, np.ndarray]:
    """Finite increasing edges and finite non-negative heights of a step
    function, one more edge than heights, as float arrays."""
    edges = np.asarray(edges, dtype=float)
    heights = np.asarray(heights, dtype=float)
    if heights.ndim != 1 or heights.size == 0 \
            or not np.isfinite(heights).all() or np.any(heights < 0):
        raise ParameterError("heights", "must be a non-empty vector of "
                             "finite non-negative numbers")
    if edges.ndim != 1 or edges.size != heights.size + 1 \
            or not np.isfinite(edges).all() or np.any(np.diff(edges) <= 0):
        raise ParameterError("edges", "must be finite and increasing, one "
                             "more than the heights")
    return edges, heights


def _as_section(S) -> tuple[Subspace, np.ndarray]:
    if isinstance(S, Subspace):
        return S, np.zeros(S.n)
    if isinstance(S, Flat):
        return S.subspace, np.asarray(S.offset)
    raise TypeError(f"expected Subspace or Flat, got {type(S).__name__}")


class _Sectioned(DensityModel):
    """A family with one section formula.

    ``_sections(bases, offsets)`` maps a stack of flats, bases (s, n, k)
    and offsets (s, n), to a tuple (mass, sup, *params) of per-flat arrays,
    or None when some flat has no closed-form section.  Section
    coordinates are u in x = offsets[i] + bases[i] @ u.  ``scaled(c)`` is
    c * f in the same family.
    ``_section_points(sections, k, size, rng)`` draws size points from
    every row's normalized law at once, shape (s, size, k); rows of zero
    mass get finite points.
    """

    def slice_stats_batch(self, bases, offsets):
        sections = self._sections(bases, offsets)
        return None if sections is None else sections[:2]

    def exact_sections(self, k):
        return True


class EllipsoidIndicator(_Sectioned):
    """a * indicator((x-c)^T M (x-c) <= 1) for symmetric positive M."""

    def __init__(self, shape: np.ndarray, center=None, amplitude: float = 1.0):
        m, self._chol = _spd(shape, "shape", -0.5)
        n = m.shape[0]
        self.n = n
        self.shape_matrix = m
        self.center = np.zeros(n) if center is None \
            else _vector(center, "center", n)
        self.amplitude = _amplitude(amplitude)
        eigvals = np.linalg.eigvalsh(m)
        self._semiaxis_max = 1.0 / math.sqrt(float(eigvals[0]))
        self._logdet = 2.0 * float(np.sum(np.log(np.diag(self._chol))))
        with np.errstate(over="ignore"):
            volume = unit_ball_volume(n) * np.exp(-0.5 * self._logdet)
        if not 0.0 < volume < math.inf:
            raise ParameterError("shape", f"gives volume {volume:g}; it must "
                                 "be positive and finite")

    @classmethod
    def ball(cls, n: int, radius: float = 1.0, center=None, amplitude: float = 1.0):
        return cls(np.eye(n) / _scale(radius, "radius", n) ** 2, center,
                   amplitude)

    def scaled(self, c):
        return EllipsoidIndicator(self.shape_matrix, self.center,
                                  self.amplitude * c)

    def eval_many(self, x):
        d = x - self.center
        quad = np.einsum("si,ij,sj->s", d, self.shape_matrix, d)
        return self.amplitude * (quad <= 1.0)

    @property
    def mass(self):
        return self.amplitude * unit_ball_volume(self.n) * math.exp(-0.5 * self._logdet)

    @property
    def sup(self):
        return self.amplitude

    @property
    def support_radius(self):
        if self.amplitude == 0.0:
            return 0.0
        return float(np.linalg.norm(self.center)) + self._semiaxis_max

    def sample(self, size, rng):
        u = uniform_ball(self.n, size, rng)
        y = np.linalg.solve(self._chol.T, u.T).T
        return self.center + y

    def power(self, p):
        return EllipsoidIndicator(self.shape_matrix, self.center, self.amplitude ** p)

    def _sections(self, bases, offsets):
        """Each section is {u : (u - u0)^T g (u - u0) <= rho}, empty unless
        rho > 0; params (g, u0, rho)."""
        k = bases.shape[-1]
        d = offsets - self.center
        md = d @ self.shape_matrix
        g = bases.transpose(0, 2, 1) @ (self.shape_matrix @ bases)
        rhs = np.einsum("sji,sj->si", bases, md)
        logdet, u0 = _spd_solve(g, -rhs)
        rho = 1.0 - np.einsum("si,si->s", d, md) - np.einsum("si,si->s", rhs, u0)
        live = rho > 0.0
        masses = np.zeros(len(bases))
        masses[live] = self.amplitude * unit_ball_volume(k) * np.exp(
            0.5 * k * np.log(rho[live]) - 0.5 * logdet[live])
        sups = np.where(live, self.amplitude, 0.0)
        return masses, sups, g, u0, rho

    def _section_points(self, sections, k, size, rng):
        _, _, g, u0, rho = sections
        y = uniform_ball(k, len(g) * size, rng).reshape(len(g), size, k)
        scale = np.sqrt(np.maximum(rho, 0.0))[:, None, None]
        return u0[:, None, :] + scale * _inverse_root(g, y)

    def superlevel_volumes(self, ts):
        vol = unit_ball_volume(self.n) * math.exp(-0.5 * self._logdet)
        return np.where(np.asarray(ts, dtype=float) < self.amplitude, vol, 0.0)


class GaussianDensity(_Sectioned):
    """a * N(mean, cov) density; full support, every section exact."""

    def __init__(self, mean, cov, amplitude: float = 1.0):
        self.mean = _vector(mean, "mean")
        self.n = self.mean.size
        self.cov, self._chol = _spd(cov, "cov", 0.5, self.n)
        self.amplitude = _amplitude(amplitude)
        self._prec = np.linalg.inv(self.cov)
        self._logdet = 2.0 * float(np.sum(np.log(np.diag(self._chol))))

    @classmethod
    def standard(cls, n: int):
        return cls(np.zeros(n), np.eye(n))

    def scaled(self, c):
        return GaussianDensity(self.mean, self.cov, self.amplitude * c)

    def eval_many(self, x):
        d = x - self.mean
        quad = np.einsum("si,ij,sj->s", d, self._prec, d)
        return self.sup * np.exp(-0.5 * quad)

    @property
    def mass(self):
        return self.amplitude

    @property
    def sup(self):
        return self.amplitude * math.exp(-0.5 * (self.n * math.log(2 * math.pi) + self._logdet))

    @property
    def support_radius(self):
        return math.inf

    def sample(self, size, rng):
        g = rng.standard_normal((size, self.n))
        return self.mean + g @ self._chol.T

    def power(self, p):
        if self.amplitude == 0.0:
            return GaussianDensity(self.mean, self.cov / p, 0.0)
        log_a = (p * math.log(self.amplitude) if self.amplitude != 1.0 else 0.0) \
            + 0.5 * (1.0 - p) * (self.n * math.log(2 * math.pi) + self._logdet) \
            - 0.5 * self.n * math.log(p)
        return GaussianDensity(self.mean, self.cov / p, math.exp(log_a))

    def _sections(self, bases, offsets):
        """Each section is a Gaussian kernel with mean u_star and precision
        h; params (u_star, h)."""
        k = bases.shape[-1]
        d = offsets - self.mean
        pd = d @ self._prec
        h = bases.transpose(0, 2, 1) @ (self._prec @ bases)
        g = np.einsum("sji,sj->si", bases, pd)
        logdet_h, u_star = _spd_solve(h, -g)
        m0 = np.einsum("si,si->s", d, pd) + np.einsum("si,si->s", g, u_star)
        log_sup = math.log(self.amplitude) - 0.5 * (
            self.n * math.log(2 * math.pi) + self._logdet + m0)
        log_mass = log_sup + 0.5 * (k * math.log(2 * math.pi) - logdet_h)
        return np.exp(log_mass), np.exp(log_sup), u_star, h

    def _section_points(self, sections, k, size, rng):
        _, _, u_star, h = sections
        z = rng.standard_normal((len(h), size, k))
        return u_star[:, None, :] + _inverse_root(h, z)

    def superlevel_volumes(self, ts):
        # {f > t} is the ellipsoid d^T cov^-1 d < rho, empty at rho = 0
        rho = 2.0 * _log_ratio(self.sup, ts)
        return unit_ball_volume(self.n) * rho ** (0.5 * self.n) \
            * math.exp(0.5 * self._logdet)


def _log_ratio(sup: float, ts) -> np.ndarray:
    """log(sup / t) at each level t > 0 below sup, 0 at the rest."""
    ratio = sup / np.asarray(ts, dtype=float)
    return np.log(ratio, where=ratio > 1.0, out=np.zeros(ratio.shape))


def _chi2_cdf(x, k: int):
    """CDF at x of the chi-square law with k degrees of freedom."""
    return gammainc(0.5 * k, 0.5 * x)


def _chi2_ppf(y, k: int):
    """Quantile at y of the chi-square law with k degrees of freedom, in
    closed form for k <= 2: 2 erfinv(y)^2 for k = 1 and -2 log(1 - y) for
    k = 2, the inverses of erf(sqrt(x/2)) and 1 - exp(-x/2)."""
    if k == 1:
        return 2.0 * erfinv(y) ** 2
    if k == 2:
        return -2.0 * np.log1p(-y)
    return 2.0 * gammaincinv(0.5 * k, y)


class TruncatedGaussian(_Sectioned):
    """a * isotropic Gaussian kernel about c, cut at radius R.

    eval = a * (2 pi tau^2)^(-n/2) exp(-|x-c|^2 / (2 tau^2)) on |x-c| <= R.
    Closed under sections, powers, and superlevel sets, which makes it the
    bounded-support stand-in for Gaussians in flat integrals.
    """

    def __init__(self, center, tau: float, radius: float, amplitude: float = 1.0):
        self.center = _vector(center, "center")
        self.n = self.center.size
        self.tau = _scale(tau, "tau", self.n)
        # an infinite radius is the untruncated kernel
        self.radius = math.inf if radius == math.inf \
            else _scale(radius, "radius", self.n)
        self.amplitude = _amplitude(amplitude)

    @classmethod
    def normalized(cls, center, tau, radius):
        """Mass exactly one (a truncated Gaussian probability density)."""
        f = cls(center, tau, radius)
        if f.mass == 0.0:
            raise ParameterError("radius", f"{radius:g} holds no mass of the "
                                 f"kernel of width tau = {tau:g}")
        return f.scaled(1.0 / f.mass)

    def scaled(self, c):
        return TruncatedGaussian(self.center, self.tau, self.radius,
                                 self.amplitude * c)

    def _kernel_height(self):
        return self.amplitude * (2 * math.pi * self.tau ** 2) ** (-0.5 * self.n)

    def eval_many(self, x):
        d = x - self.center
        r2 = np.einsum("si,si->s", d, d)
        vals = self._kernel_height() * np.exp(-0.5 * r2 / self.tau ** 2)
        return np.where(r2 <= self.radius ** 2, vals, 0.0)

    @property
    def mass(self):
        return self.amplitude * float(_chi2_cdf(self.radius ** 2 / self.tau ** 2, self.n))

    @property
    def sup(self):
        return self._kernel_height() if self.amplitude > 0 else 0.0

    @property
    def support_radius(self):
        if self.amplitude == 0.0:
            return 0.0
        return float(np.linalg.norm(self.center)) + self.radius

    def sample(self, size, rng):
        cut = _chi2_cdf(self.radius ** 2 / self.tau ** 2, self.n)
        r = self.tau * np.sqrt(2.0 * gammaincinv(0.5 * self.n, rng.random(size) * cut))
        return self.center + _directions((size,), self.n, rng) * r[:, None]

    def power(self, p):
        log_a = (p * math.log(self.amplitude) if self.amplitude > 0 else -math.inf) \
            + 0.5 * self.n * ((1.0 - p) * math.log(2 * math.pi * self.tau ** 2)
                              - math.log(p))
        amp = 0.0 if self.amplitude == 0.0 else math.exp(log_a)
        return TruncatedGaussian(self.center, self.tau / math.sqrt(p), self.radius, amp)

    def superlevel_volumes(self, ts):
        r = self.tau * np.sqrt(2.0 * _log_ratio(self.sup, ts))
        return unit_ball_volume(self.n) * np.minimum(r, self.radius) ** self.n

    def _sections(self, bases, offsets):
        """Each section is the kernel about -w cut at radius sqrt(rho2),
        empty unless rho2 > 0, with amplitude amp; params (w, rho2, amp)."""
        k = bases.shape[-1]
        d = offsets - self.center
        w = np.einsum("snk,sn->sk", bases, d)
        v2 = np.einsum("si,si->s", d, d) - np.einsum("si,si->s", w, w)
        rho2 = self.radius ** 2 - v2
        live = rho2 > 0.0
        damp = np.exp(-0.5 * v2 / self.tau ** 2)
        scale = (2 * math.pi * self.tau ** 2) ** (-0.5 * (self.n - k))
        amps = self.amplitude * scale * damp
        masses = np.zeros(len(bases))
        masses[live] = amps[live] * _chi2_cdf(rho2[live] / self.tau ** 2, k)
        sups = np.where(live, self._kernel_height() * damp, 0.0)
        return masses, sups, w, rho2, amps

    def _section_points(self, sections, k, size, rng):
        _, _, w, rho2, _ = sections
        cut = _chi2_cdf(np.maximum(rho2, 0.0) / self.tau ** 2, k)[:, None]
        u = rng.random((len(w), size))
        r = self.tau * np.sqrt(_chi2_ppf(u * cut, k))
        return _directions((len(w), size), k, rng) * r[..., None] \
            - w[:, None, :]


class Step1D(DensityModel):
    """Step function on the line with arbitrary increasing breakpoints.

    The one-dimensional sections of a product density land here: their
    breakpoints come from box crossings and are not equally spaced.
    """

    def __init__(self, edges, heights):
        self.n = 1
        self.edges, self.heights = _steps(edges, heights)
        self.lo, self.hi = float(self.edges[0]), float(self.edges[-1])

    @classmethod
    def uniform(cls, lo: float, hi: float, heights):
        """Equal-width bins on [lo, hi]: the factors of product densities."""
        heights = np.asarray(heights, dtype=float)
        return cls(np.linspace(lo, hi, heights.size + 1), heights)

    def eval_many(self, x):
        r = x[:, 0]
        idx = np.searchsorted(self.edges, r, side="right") - 1
        inside = (r >= self.edges[0]) & (r < self.edges[-1])
        idx = np.clip(idx, 0, self.heights.size - 1)
        return np.where(inside, self.heights[idx], 0.0)

    @property
    def mass(self):
        return float(self.heights @ np.diff(self.edges))

    @property
    def sup(self):
        return float(self.heights.max())

    @property
    def support_radius(self):
        return max(abs(self.lo), abs(self.hi))

    def sample(self, size, rng):
        weights = self.heights * np.diff(self.edges)
        total = weights.sum()
        if total <= 0:
            raise ValueError("cannot sample from a zero density")
        bins = rng.choice(self.heights.size, size=size, p=weights / total)
        lo = self.edges[bins]
        return (lo + rng.random(size) * (self.edges[bins + 1] - lo))[:, None]

    def power(self, p):
        return Step1D(self.edges, self.heights ** p)

    def superlevel_volumes(self, ts):
        return _sorted_tail_volumes(self.heights, np.diff(self.edges),
                                    np.asarray(ts))


class ProductDensity(_Sectioned):
    """Product of one-dimensional step factors (Step1D).

    Sections are exact along every line (box crossings) and on
    coordinate-aligned flats (factor selection).
    """

    def __init__(self, factors: list, amplitude: float = 1.0):
        if not factors:
            raise ParameterError("factors", "must hold at least one factor")
        self.n = len(factors)
        self.factors = list(factors)
        self.amplitude = _amplitude(amplitude)

    def scaled(self, c):
        return ProductDensity(self.factors, self.amplitude * c)

    def exact_sections(self, k):
        return k == 1       # and axis-aligned flats, for any k

    def eval_many(self, x):
        vals = np.full(x.shape[0], self.amplitude)
        for i, f in enumerate(self.factors):
            vals = vals * f.eval_many(x[:, i:i + 1])
        return vals

    @property
    def mass(self):
        return self.amplitude * math.prod(f.mass for f in self.factors)

    @property
    def sup(self):
        return self.amplitude * math.prod(f.sup for f in self.factors)

    @property
    def support_radius(self):
        return math.sqrt(sum(f.support_radius ** 2 for f in self.factors))

    def sample(self, size, rng):
        cols = [f.sample(size, rng) for f in self.factors]
        return np.column_stack(cols)

    def power(self, p):
        return ProductDensity([f.power(p) for f in self.factors], self.amplitude ** p)

    def _sections(self, bases, offsets):
        """Lines (k = 1) in any direction; flats with k >= 2 only when
        coordinate-aligned, else None."""
        if bases.shape[-1] == 1:
            return self._line_sections(bases[..., 0], offsets)
        return self._aligned_sections(bases, offsets)

    def _line_sections(self, dirs, offsets):
        """Restrictions to the lines t -> z + t * d as step functions;
        params (t, heights): every factor's bin-edge crossings t, clipped to
        the support box and sorted, so each line gets the same number of
        segments (zero-width ones carry no mass), and the product at each
        segment midpoint, exact since it is constant in between.  Factors
        along which a line does not move (|d_i| <= AXIS_TOL) are read at z_i.
        """
        moving = np.abs(dirs) > AXIS_TOL
        lo = np.full(len(dirs), -np.inf)
        hi = np.full(len(dirs), np.inf)
        cuts = []
        for i, f in enumerate(self.factors):
            step = np.where(moving[:, i], dirs[:, i], 1.0)[:, None]
            grid = (f.edges - offsets[:, i, None]) / step
            lo = np.where(moving[:, i],
                          np.maximum(lo, np.minimum(grid[:, 0], grid[:, -1])), lo)
            hi = np.where(moving[:, i],
                          np.minimum(hi, np.maximum(grid[:, 0], grid[:, -1])), hi)
            cuts.append(np.where(moving[:, i, None], grid, -np.inf))
        hi = np.maximum(lo, hi)
        t = np.sort(np.clip(np.concatenate(cuts, axis=1),
                            lo[:, None], hi[:, None]), axis=1)
        mids = 0.5 * (t[:, :-1] + t[:, 1:])
        pts = offsets[:, None, :] \
            + mids[..., None] * np.where(moving, dirs, 0.0)[:, None, :]
        heights = self.eval_many(pts.reshape(-1, self.n)).reshape(mids.shape)
        widths = np.diff(t, axis=1)
        masses = np.einsum("sj,sj->s", heights, widths)
        sups = np.where(widths > 0, heights, 0.0).max(axis=1)
        return masses, sups, t, heights

    def _aligned_sections(self, bases, offsets):
        """Coordinate-aligned flats: each section coordinate runs along
        one factor axis, in the sign's direction, and the other factors
        are frozen at the offset into amp; params (axes, signs, amp)."""
        axes = np.abs(bases).argmax(axis=1)
        signs = np.take_along_axis(bases, axes[:, None, :], axis=1)[:, 0]
        aligned = ((np.abs(bases) > AXIS_TOL).sum(axis=1) == 1).all(axis=1) \
            & (np.abs(np.abs(signs) - 1.0) <= AXIS_TOL).all(axis=1) \
            & (np.diff(np.sort(axes, axis=1), axis=1) > 0).all(axis=1)
        if not aligned.all():
            return None
        free = np.ones(offsets.shape, dtype=bool)
        np.put_along_axis(free, axes, False, axis=1)
        amps = np.full(len(bases), self.amplitude)
        for i, f in enumerate(self.factors):
            amps = amps * np.where(free[:, i], f.eval_many(offsets[:, i:i + 1]), 1.0)
        masses = np.array([f.mass for f in self.factors])[axes].prod(axis=1)
        sups = np.array([f.sup for f in self.factors])[axes].prod(axis=1)
        return amps * masses, amps * sups, axes, signs, amps

    def _section_points(self, sections, k, size, rng):
        if k == 1:
            _, _, t, heights = sections
            u = rng.random((len(t), size))
            return _step_quantiles(t, heights * np.diff(t, axis=1),
                                   u)[..., None]
        # aligned flats: coordinate j follows factor axes[:, j], times its
        # sign; factors are padded to one width with zero-weight bins
        _, _, axes, signs, _ = sections
        width = max(f.heights.size for f in self.factors)
        edges = np.array([np.pad(f.edges, (0, width - f.heights.size), "edge")
                          for f in self.factors])
        weights = np.array([np.pad(f.heights * np.diff(f.edges),
                                   (0, width - f.heights.size))
                            for f in self.factors])
        u = rng.random((len(axes), size, k))
        return np.stack([signs[:, j, None] * _step_quantiles(
            edges[axes[:, j]], weights[axes[:, j]], u[..., j])
            for j in range(k)], axis=-1)

    def _box_values(self):
        total = math.prod(f.heights.size for f in self.factors)
        if total > PRODUCT_ENUM_CAP:
            return None
        vals = np.array([self.amplitude])
        vols = np.array([1.0])
        for f in self.factors:
            vals = np.multiply.outer(vals, f.heights).ravel()
            vols = np.multiply.outer(vols, np.diff(f.edges)).ravel()
        return vals, vols

    def superlevel_volumes(self, ts):
        boxes = self._box_values()
        if boxes is None:
            return None
        vals, vols = boxes
        return _sorted_tail_volumes(vals, vols, np.asarray(ts))


def _sorted_tail_volumes(vals: np.ndarray, vols: np.ndarray, ts: np.ndarray):
    """Sum of vols over {vals > t} for each t, strict at equality."""
    order = np.argsort(vals)[::-1]
    cum = np.cumsum(vols[order])
    counts = np.searchsorted(-vals[order], -ts, side="left")
    return np.where(counts > 0, cum[np.maximum(counts - 1, 0)], 0.0)


class RadialGridDensity(_Sectioned):
    """Radial piecewise-constant density: f(x) = heights[shell(|x|)]."""

    def __init__(self, n: int, edges, heights):
        if n != int(n) or n < 1:
            raise ParameterError("n", f"must be a positive integer, got {n}")
        self.n = int(n)
        self.edges, self.heights = _steps(edges, heights)
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            vols = self.shell_volumes()
        if self.edges[0] < 0 or not np.all((vols > 0.0) & (vols < math.inf)):
            raise ParameterError("edges", "must be non-negative, with shell "
                                 "volumes positive and finite in dimension "
                                 f"n = {self.n}")

    @classmethod
    def uniform(cls, n: int, radius: float, heights):
        heights = np.asarray(heights, dtype=float)
        return cls(n, np.linspace(0.0, _scale(radius, "radius", n),
                                  heights.size + 1), heights)

    def scaled(self, c):
        return RadialGridDensity(self.n, self.edges, self.heights * c)

    def shell_volumes(self):
        return unit_ball_volume(self.n) * np.diff(self.edges ** self.n)

    def eval_many(self, x):
        r = np.linalg.norm(x, axis=1)
        idx = np.searchsorted(self.edges, r, side="right") - 1
        inside = (r >= self.edges[0]) & (r < self.edges[-1]) & (idx >= 0)
        idx = np.clip(idx, 0, self.heights.size - 1)
        return np.where(inside, self.heights[idx], 0.0)

    @property
    def mass(self):
        return float(self.heights @ self.shell_volumes())

    @property
    def sup(self):
        return float(self.heights.max())

    @property
    def support_radius(self):
        return float(self.edges[-1])

    def sample(self, size, rng):
        weights = self.heights * self.shell_volumes()
        total = weights.sum()
        if total <= 0:
            raise ValueError("cannot sample from a zero density")
        shells = rng.choice(self.heights.size, size=size, p=weights / total)
        lo = self.edges[shells] ** self.n
        hi = self.edges[shells + 1] ** self.n
        r = (lo + rng.random(size) * (hi - lo)) ** (1.0 / self.n)
        return _directions((size,), self.n, rng) * r[:, None]

    def power(self, p):
        return RadialGridDensity(self.n, self.edges, self.heights ** p)

    def _sections(self, bases, offsets):
        """Each section is radial about the foot point, with shell edges
        sqrt(edges^2 - |offset|^2) (0 inside the distance), and meets the
        shells marked in hit; params (edges, hit)."""
        k = bases.shape[-1]
        dist2 = np.einsum("si,si->s", offsets, offsets)[:, None]
        edges = np.sqrt(np.maximum(self.edges ** 2 - dist2, 0.0))
        hit = self.edges[1:] ** 2 > dist2
        masses = unit_ball_volume(k) * (np.diff(edges ** k, axis=1) @ self.heights)
        sups = np.where(hit, self.heights, 0.0).max(axis=1)
        return masses, sups, edges, hit

    def _section_points(self, sections, k, size, rng):
        # shells are uniform in r^k: invert the CDF of r^k, then take roots
        _, _, edges, _ = sections
        powers = edges ** k
        u = rng.random((len(edges), size))
        r = _step_quantiles(powers, self.heights * np.diff(powers, axis=1),
                            u) ** (1.0 / k)
        return _directions((len(edges), size), k, rng) * r[..., None]

    def superlevel_volumes(self, ts):
        return _sorted_tail_volumes(self.heights, self.shell_volumes(), np.asarray(ts))


def _inverse_root(matrix: np.ndarray, points: np.ndarray) -> np.ndarray:
    """points (s, size, k) mapped row by row by L^-T, L the Cholesky factor
    of matrix[i] (s, k, k): standard normal points become N(0, matrix^-1),
    unit-ball points fill the ellipsoid u^T matrix u <= 1.  Points are rows,
    so L^-T acts as a right product with L^-1."""
    return points @ np.linalg.inv(np.linalg.cholesky(matrix))


def _directions(shape: tuple, k: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform unit vectors of R^k, shape + (k,)."""
    g = rng.standard_normal(shape + (k,))
    g /= np.linalg.norm(g, axis=-1, keepdims=True)
    return g


def _step_quantiles(edges: np.ndarray, weights: np.ndarray,
                    u: np.ndarray) -> np.ndarray:
    """Quantiles at u (s, size) of per-row piecewise-uniform laws: row i
    spreads weights[i, j] evenly over [edges[i, j], edges[i, j + 1]].
    Zero-weight bins are never hit; a row of zero weight gives the finite
    point edges[i, -2]."""
    s, bins = weights.shape
    below = np.concatenate([np.zeros((s, 1)), np.cumsum(weights, axis=1)],
                           axis=1)
    target = u * below[:, -1:]
    # the bin is the count of inner cumulative weights at or below target:
    # the comparisons of a count over all of them, capped at bins - 1
    idx = np.zeros(target.shape, dtype=np.intp)
    for j in range(1, bins):
        idx += below[:, j, None] <= target
    rows = np.arange(s)[:, None]
    w = np.take(weights, idx + rows * bins)
    idx += rows * (bins + 1)
    frac = target - np.take(below, idx)
    # a zero-weight bin is only hit at its own start (frac = 0 already)
    np.divide(frac, w, out=frac, where=w > 0)
    lo = np.take(edges, idx)
    idx += 1
    span = np.take(edges, idx)
    span -= lo
    frac.clip(0.0, 1.0, out=frac)
    frac *= span
    frac += lo
    return frac


class PushforwardDensity(DensityModel):
    """Image of a base model under an invertible affine map x -> Ax + b."""

    def __init__(self, base: DensityModel, matrix: np.ndarray, shift: np.ndarray):
        self.n = base.n
        self.base = base
        self.matrix = _volume_preserving(matrix)
        self.shift = np.asarray(shift, dtype=float)
        self._inv = np.linalg.inv(self.matrix)
        self._op_norm = float(np.linalg.norm(self.matrix, 2))

    def eval_many(self, x):
        return self.base.eval_many((x - self.shift) @ self._inv.T)

    @property
    def mass(self):
        return self.base.mass          # |det A| = 1 by construction

    @property
    def sup(self):
        return self.base.sup

    @property
    def support_radius(self):
        r = self.base.support_radius
        if math.isinf(r):
            return math.inf
        return float(np.linalg.norm(self.shift)) + self._op_norm * r

    def sample(self, size, rng):
        return self.base.sample(size, rng) @ self.matrix.T + self.shift

    def power(self, p):
        base_p = self.base.power(p)
        return None if base_p is None else PushforwardDensity(base_p, self.matrix, self.shift)

    def superlevel_volumes(self, ts):
        return self.base.superlevel_volumes(ts)     # volume preserving


def affine_image(f: DensityModel, g) -> DensityModel:
    """Image density of f under the volume-preserving affine map (A, b).

    Requires |det A| = 1 within DET_TOL.  Families closed under the map are
    transformed in closed form (closed_form_image); everything else gets a
    pushforward wrapper with identical mass and sup and a pushforward sampler.
    """
    image = closed_form_image(f, g)
    return image if image is not None else PushforwardDensity(
        f, g[0], np.zeros(f.n) if g[1] is None else g[1])


def closed_form_image(f: DensityModel, g) -> DensityModel | None:
    """affine_image(f, g) when f's family is closed under g, else None."""
    a_mat, b_vec = g
    a_mat = _volume_preserving(a_mat)
    b_vec = np.zeros(f.n) if b_vec is None else np.asarray(b_vec, dtype=float)
    if isinstance(f, EllipsoidIndicator):
        inv = np.linalg.inv(a_mat)
        shape = inv.T @ f.shape_matrix @ inv
        return EllipsoidIndicator(0.5 * (shape + shape.T),
                                  a_mat @ f.center + b_vec, f.amplitude)
    if isinstance(f, GaussianDensity):
        cov = a_mat @ f.cov @ a_mat.T
        return GaussianDensity(a_mat @ f.mean + b_vec, 0.5 * (cov + cov.T), f.amplitude)
    if isinstance(f, TruncatedGaussian) and _is_orthogonal(a_mat):
        return TruncatedGaussian(a_mat @ f.center + b_vec, f.tau, f.radius, f.amplitude)
    if isinstance(f, RadialGridDensity) and _is_orthogonal(a_mat) \
            and np.allclose(b_vec, 0.0):
        return f
    return None


def _volume_preserving(matrix) -> np.ndarray:
    """matrix as a float array, unless |det| is off 1 by more than DET_TOL."""
    matrix = np.asarray(matrix, dtype=float)
    det = abs(np.linalg.det(matrix))
    if abs(det - 1.0) > DET_TOL:
        raise ParameterError("matrix", f"must preserve volume, |det| = {det}")
    return matrix


def _is_orthogonal(a_mat):
    return np.abs(a_mat.T @ a_mat - np.eye(a_mat.shape[0])).max() <= DET_TOL


def _stratified_ball(dim: int, shape: tuple, rng: np.random.Generator) -> np.ndarray:
    """Uniform unit-ball points, shape + (dim,), stratified along the last
    axis of shape into equal-volume radial shells."""
    g = _directions(shape, dim, rng)
    strata = (np.arange(shape[-1]) + rng.random(shape)) / shape[-1]
    return g * strata[..., None] ** (1.0 / dim)


def section_stats(f: DensityModel, bases: np.ndarray, offsets: np.ndarray,
                  method="exact", rng: np.random.Generator | None = None):
    """(mass, sup, mass_stderr) arrays of the sections of f through the
    flats offsets[i] + span(bases[i]).

    method "exact" reads the closed form (stderr 0); ("mc", N) averages f
    over N stratified points of each section's support window, one draw
    for the whole stack, and its sup is a sampled maximum, biased low.
    """
    if method == "exact":
        stats = f.slice_stats_batch(bases, offsets)
        if stats is None:
            raise ValueError("no exact restriction for this family/section")
        return stats[0], stats[1], np.zeros(len(stats[0]))
    tag, count = method
    if tag != "mc" or count < 2:
        raise ValueError(f"method must be 'exact' or ('mc', N >= 2), got {method!r}")
    if rng is None:
        raise ValueError("Monte Carlo restriction stats need an rng")
    if math.isinf(f.support_radius):
        raise ValueError("Monte Carlo section stats need a bounded support")
    s, n, k = bases.shape
    # each section vanishes outside its ball of radius w about the foot point
    gap = f.support_radius ** 2 - np.einsum("si,si->s", offsets, offsets)
    w = np.sqrt(np.maximum(gap, 0.0))
    u = _stratified_ball(k, (s, count), rng) * w[:, None, None]
    pts = offsets[:, None, :] + u @ np.swapaxes(bases, 1, 2)
    vals = f.eval_many(pts.reshape(-1, n)).reshape(s, count)
    vals[gap <= 0] = 0.0
    vol = unit_ball_volume(k) * w ** k
    return (vol * vals.mean(axis=1), vals.max(axis=1),
            vol * vals.std(axis=1, ddof=1) / math.sqrt(count))


def section_points(f: DensityModel, bases: np.ndarray, offsets: np.ndarray,
                   size: int, rng: np.random.Generator):
    """(mass, points) of the sections of f through the flats offsets[i] +
    span(bases[i]), the sampling twin of section_stats: mass[i] is the
    exact section mass and points[i], shape (size, k), holds size draws
    from the section's normalized law in its own coordinates, one draw per
    family for the whole stack.  Rows of zero mass carry finite points.
    Raises ValueError unless every section has a closed form.
    """
    sections = f._sections(bases, offsets) \
        if isinstance(f, _Sectioned) else None
    if sections is None:
        raise ValueError("section identity checks need exact sections")
    return sections[0], f._section_points(sections, bases.shape[-1], size,
                                          rng)


def restriction_stats(f: DensityModel, S, method="exact",
                      rng: np.random.Generator | None = None):
    """L1 and sup Estimates of f restricted to a subspace or flat: the
    one-row case of section_stats, the MC sup flagged biased low."""
    E, z = _as_section(S)
    mass, sup, stderr = section_stats(f, E.basis[None], z[None], method, rng)
    if method == "exact":
        return Estimate.exact(mass[0]), Estimate.exact(sup[0])
    count = method[1]
    return (Estimate(float(mass[0]), float(stderr[0]), count),
            Estimate(float(sup[0]), 0.0, count, biased_low=True))


def marginal_density(f: DensityModel, E: Subspace, x, method="exact",
                     rng: np.random.Generator | None = None) -> Estimate:
    """Marginal density of f on E at the point x of E.

    The marginal at x is the integral of f over the fiber x + E-perp, i.e.
    the mass of the restriction of f to that flat.
    """
    x = np.asarray(x, dtype=float)
    foot = E.point(E.coords(x))
    if np.linalg.norm(x - foot) > 1e-8 * max(1.0, np.linalg.norm(x)):
        raise ValueError("x must lie on E")
    fiber = Flat(E.complement, foot)
    return restriction_stats(f, fiber, method, rng)[0]


# ---------------------------------------------------------------------------
# Text interchange format (read back by config.read_density_text).
# ---------------------------------------------------------------------------

def write_density_text(f: DensityModel) -> str:
    if isinstance(f, RadialGridDensity):
        widths = np.diff(f.edges)
        if f.edges[0] != 0.0 or np.abs(widths - widths[0]).max() > 1e-12 * widths[0]:
            raise ValueError("only uniform radial grids have a text form")
        head = f"radial n={f.n} R={float(f.edges[-1])!r} bins={f.heights.size}"
        return head + "\n" + " ".join(repr(h) for h in f.heights.tolist()) + "\n"
    if isinstance(f, ProductDensity):
        if f.amplitude != 1.0:
            raise ValueError("fold the amplitude into a factor before writing")
        lines = [f"product n={f.n}"]
        for fac in f.factors:
            uniform = np.linspace(-0.5, 0.5, fac.heights.size + 1)
            if np.abs(fac.edges - uniform).max() > 1e-12:
                raise ValueError("text form fixes factors to uniform bins "
                                 "on [-1/2, 1/2]")
            lines.append(" ".join(repr(h) for h in fac.heights.tolist()))
        return "\n".join(lines) + "\n"
    raise ValueError(f"no text form for {type(f).__name__}")
