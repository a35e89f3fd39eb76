"""Density models with exact section and marginal capabilities.

Every model knows its ambient dimension, total mass, sup, a support radius,
its pointwise power, and how to sample its normalized law.  Families that
admit closed forms additionally expose exact capabilities, and everything
else in the package is built from them:

* sections: ``exact_sections(k)`` says whether every k-dimensional section
  of a family has a closed form, and is the only such test.  Each exact
  family has one batched formula, ``_sections(bases, offsets)``, giving
  the section parameters for a stack of flats.  ``slice_stats_batch``
  reads the section masses and sups off it, and ``section_points`` samples
  every section of the stack from it at once; a single flat is a stack of
  one.  Both, and ``section_stats``, ask the predicate first and raise
  ValueError naming the family and k, before any formula or draw.  The
  mass of the section through the fiber E-perp + x is exactly the
  marginal density of f at x, so marginals come for free.  Ellipsoid and
  Gaussian sections solve one k x k system per flat, in closed form for
  k <= 2 (``geometry._spd_solve``), and truncated-Gaussian sections sample
  their chi radius by the chi-square quantile (``geometry._chi2_ppf``),
  in closed form for k = 2.
* ``power(p)``: the pointwise power f^p as a model, so that the Lp norms
  of a stack of sections are ``section_stats(f.power(p), bases,
  offsets)[0] ** (1/p)``.
* ``rearrangement()`` (f*, ValueError where a family has none) and
  ``radial_moment(p)`` (E|X|^p, None unless rotation invariant about 0):
  each family answers its own closed forms.  Outside this module only
  functionals._rule_covers asks a density's family, for a rule's reach.

Monte Carlo section stats are a method of ``section_stats``, not a
fallback; their sups are sampled maxima, biased low.  Each constructor
checks every rule on its parameters and raises ParameterError naming the
one broken.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import _chi2_cdf, _chi2_ppf, _chi_moment, _row_norms, \
    _spd_solve, unit_ball_volume

# |det A| must match 1 to this tolerance for volume-preserving maps.
DET_TOL = 1e-10
# Direction entries below this are treated as exact zeros: a line section
# of a product density reads such a factor at the line's offset.
AXIS_TOL = 1e-12
# Box-enumeration cap for exact product rearrangements.
PRODUCT_ENUM_CAP = 300_000
# Rows per block of the point kernels (window points, unit vectors, simplex
# volumes, step-law draws), of the sharpness hit tests and of marginal_bound's
# fibers: a block of a few float64 columns stays in cache.  No kernel draws
# inside its blocks, so no draw depends on it.
ROW_BLOCK = 1 << 13

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
    "section_stats",
    "section_points",
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

    def power(self, p: float) -> DensityModel:
        """The pointwise power f**p as a model."""
        raise NotImplementedError

    # -- optional exact capabilities -----------------------------------
    def exact_sections(self, k: int) -> bool:
        """Whether every section of dimension k has a closed form."""
        return False

    def rearrangement(self) -> DensityModel:
        """The symmetric decreasing rearrangement f* in closed form, its
        mass and sup f's to rounding; ValueError naming the family unless
        it has one."""
        raise ValueError(f"{type(self).__name__} has no closed-form "
                         "rearrangement")

    def radial_moment(self, p: float):
        """E|X|^p for X ~ f / mass in closed form, where f is rotation
        invariant about 0; None otherwise.  Needs n + p > 0."""
        return None


class ParameterError(ValueError):
    """A parameter, named as the caller passed it, that breaks a rule: of
    a density family (constructor parameters) or of a check (verify
    keywords; keyword[i] for entry i of a tuple); message says which."""

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
    given, its Cholesky factor and its ascending eigenvalues; each principal
    axis length eigenvalue ** power (1/2 for a covariance, -1/2 for a shape
    matrix) passes _scale."""
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
    eigvals = np.linalg.eigvalsh(m)
    with np.errstate(divide="ignore", invalid="ignore"):
        for length in eigvals ** power:
            _scale(length, name, n, "principal axis length ")
    return m, chol, eigvals


def _norm(x: np.ndarray) -> float:
    """|x| as np.linalg.norm gives it, or, where that overflows (|x| above
    about 1.3e154), by the overflow-free math.hypot, with no warning."""
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(x))
    return norm if norm < math.inf else math.hypot(*x)


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


class _Sectioned(DensityModel):
    """A family with one section formula.

    ``_sections(bases, offsets)`` maps a stack of flats, bases (s, n, k)
    and offsets (s, n), to a tuple (mass, sup, *params) of per-flat arrays;
    it runs only where ``exact_sections(k)`` holds.  Section coordinates
    are u in x = offsets[i] + bases[i] @ u.  ``scaled(c)`` is c * f in the
    same family.
    ``_section_points(sections, k, size, rng)`` draws size points from
    every row's normalized law at once, shape (s, size, k); rows of zero
    mass get finite points.
    """

    def slice_stats_batch(self, bases, offsets):
        """(mass, sup) arrays of the sections through the flats
        offsets[i] + span(bases[i]); ValueError unless they are exact."""
        _require_exact(self, bases.shape[-1])
        return self._sections(bases, offsets)[:2]

    def exact_sections(self, k):
        return True


class EllipsoidIndicator(_Sectioned):
    """a * indicator((x-c)^T M (x-c) <= 1) for symmetric positive M."""

    def __init__(self, shape: np.ndarray, center=None, amplitude: float = 1.0):
        m, self._chol, eigvals = _spd(shape, "shape", -0.5)
        n = m.shape[0]
        self.n = n
        self.shape_matrix = m
        self.center = np.zeros(n) if center is None \
            else _vector(center, "center", n)
        self.amplitude = _amplitude(amplitude)
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
        return _norm(self.center) + self._semiaxis_max

    def sample(self, size, rng):
        u = _uniform_ball(self.n, (size, 1), rng)[:, 0]
        y = np.linalg.solve(self._chol.T, u.T).T
        return self.center + y

    def power(self, p):
        return EllipsoidIndicator(self.shape_matrix, self.center, self.amplitude ** p)

    def rearrangement(self):
        logdet = np.linalg.slogdet(self.shape_matrix)[1]
        return EllipsoidIndicator.ball(self.n, math.exp(-0.5 * logdet / self.n),
                                       amplitude=self.amplitude)

    def radial_moment(self, p):
        n, s = self.n, self.shape_matrix[0, 0]
        if self.center.any() or not np.array_equal(self.shape_matrix,
                                                    s * np.eye(n)):
            return None
        return n * s ** (-0.5 * p) / (n + p)

    def _sections(self, bases, offsets):
        """Each section is {u : (u - u0)^T g (u - u0) <= rho}, empty unless
        rho > 0; params (g, u0, rho)."""
        k = bases.shape[-1]
        g, logdet, u0, q, lu0 = _restrict_form(
            self.shape_matrix, self.center, bases, offsets)
        rho = 1.0 - q - lu0
        live = rho > 0.0
        masses = np.zeros(len(offsets))
        masses[live] = self.amplitude * unit_ball_volume(k) * np.exp(
            0.5 * k * np.log(rho[live]) - 0.5 * logdet[live])
        sups = np.where(live, self.amplitude, 0.0)
        return masses, sups, g, u0, rho

    def _section_points(self, sections, k, size, rng):
        _, _, g, u0, rho = sections
        y = _uniform_ball(k, (len(g), size, 1), rng).reshape(len(g), size, k)
        scale = np.sqrt(np.maximum(rho, 0.0))[:, None, None]
        return u0[:, None, :] + scale * _inverse_root(g, y)


class GaussianDensity(_Sectioned):
    """a * N(mean, cov) density; full support, every section exact."""

    def __init__(self, mean, cov, amplitude: float = 1.0):
        self.mean = _vector(mean, "mean")
        self.n = self.mean.size
        self.cov, self._chol, _ = _spd(cov, "cov", 0.5, self.n)
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

    def rearrangement(self):
        scale = math.exp(np.linalg.slogdet(self.cov)[1] / self.n)
        return GaussianDensity(np.zeros(self.n), scale * np.eye(self.n),
                               self.amplitude)

    def radial_moment(self, p):
        n, c = self.n, self.cov[0, 0]
        if self.mean.any() or not np.array_equal(self.cov, c * np.eye(n)):
            return None
        return c ** (0.5 * p) * _chi_moment(n, p)

    def _sections(self, bases, offsets):
        """Each section is a Gaussian kernel with mean u_star and precision
        h; params (u_star, h)."""
        k = bases.shape[-1]
        h, logdet_h, u_star, q, lu0 = _restrict_form(
            self._prec, self.mean, bases, offsets)
        m0 = q + lu0
        log_sup = math.log(self.amplitude) - 0.5 * (
            self.n * math.log(2 * math.pi) + self._logdet + m0)
        log_mass = log_sup + 0.5 * (k * math.log(2 * math.pi) - logdet_h)
        return np.exp(log_mass), np.exp(log_sup), u_star, h

    def _section_points(self, sections, k, size, rng):
        _, _, u_star, h = sections
        z = rng.standard_normal((len(h), size, k))
        return u_star[:, None, :] + _inverse_root(h, z)


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
        return _norm(self.center) + self.radius

    def sample(self, size, rng):
        # the one section through the whole space: identity basis, centre
        sections = self._sections(np.eye(self.n)[None], self.center[None])
        pts = self._section_points(sections, self.n, size, rng)[0]
        pts += self.center
        return pts

    def power(self, p):
        log_a = (p * math.log(self.amplitude) if self.amplitude > 0 else -math.inf) \
            + 0.5 * self.n * ((1.0 - p) * math.log(2 * math.pi * self.tau ** 2)
                              - math.log(p))
        amp = 0.0 if self.amplitude == 0.0 else math.exp(log_a)
        return TruncatedGaussian(self.center, self.tau / math.sqrt(p), self.radius, amp)

    def rearrangement(self):
        return TruncatedGaussian(np.zeros(self.n), self.tau, self.radius,
                                 self.amplitude)

    def radial_moment(self, p):
        # the chi-square CDF takes integer degrees of freedom
        if self.center.any() or not float(self.n + p).is_integer():
            return None
        x = (self.radius / self.tau) ** 2
        return self.tau ** p * _chi_moment(self.n, p) \
            * float(_chi2_cdf(x, int(self.n + p)) / _chi2_cdf(x, self.n))

    def _sections(self, bases, offsets):
        """Each section is the kernel about -w cut at radius sqrt(rho2),
        empty unless rho2 > 0; params (w, rho2)."""
        k = bases.shape[-1]
        d = offsets - self.center
        w = np.einsum("snk,sn->sk", _per_row(bases, len(offsets)), d)
        v2 = np.einsum("si,si->s", d, d) - np.einsum("si,si->s", w, w)
        rho2 = self.radius ** 2 - v2
        live = rho2 > 0.0
        damp = np.exp(-0.5 * v2 / self.tau ** 2)
        scale = (2 * math.pi * self.tau ** 2) ** (-0.5 * (self.n - k))
        amps = self.amplitude * scale * damp
        masses = np.zeros(len(offsets))
        masses[live] = amps[live] * _chi2_cdf(rho2[live] / self.tau ** 2, k)
        sups = np.where(live, self._kernel_height() * damp, 0.0)
        return masses, sups, w, rho2

    def _section_points(self, sections, k, size, rng):
        _, _, w, rho2 = sections
        top = (np.maximum(rho2, 0.0) / self.tau ** 2)[:, None]
        cut = _chi2_cdf(top, k)
        u = rng.random((len(w), size))
        r = self.tau * np.sqrt(_chi2_ppf(u * cut, k, top))
        pts = _directions((len(w), size), k, rng, r)
        for j in range(k):
            pts[..., j] -= w[:, j, None]
        return pts


class Step1D(DensityModel):
    """Step function on the line with arbitrary increasing breakpoints.

    The factors of a product density (uniform, equal-width bins).  Its
    line sections are (t, heights) arrays of ProductDensity._sections,
    not Step1D models.
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
        return _step_values(self.edges, self.heights, x[:, 0])

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
        return _piecewise_uniform(self.edges, weights, size, rng)[:, None]

    def power(self, p):
        return Step1D(self.edges, self.heights ** p)


class ProductDensity(_Sectioned):
    """Product of one-dimensional step factors (Step1D).

    Sections are exact along every line (box crossings).
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
        return k == 1

    def eval_many(self, x):
        # each factor bins a contiguous copy of its coordinate column
        vals = np.full(x.shape[0], self.amplitude)
        for i, f in enumerate(self.factors):
            vals *= f.eval_many(np.ascontiguousarray(x[:, i:i + 1]))
        return vals

    @property
    def mass(self):
        return self.amplitude * math.prod(f.mass for f in self.factors)

    @property
    def sup(self):
        return self.amplitude * math.prod(f.sup for f in self.factors)

    @property
    def support_radius(self):
        radii = [f.support_radius for f in self.factors]
        try:
            radius = math.sqrt(sum(r ** 2 for r in radii))
        except OverflowError:
            radius = math.inf
        # past the float range of the squares, the overflow-free form
        return radius if radius < math.inf else math.hypot(*radii)

    def sample(self, size, rng):
        out = np.empty((size, self.n))
        for i, f in enumerate(self.factors):
            out[:, i] = f.sample(size, rng)[:, 0]
        return out

    def power(self, p):
        return ProductDensity([f.power(p) for f in self.factors], self.amplitude ** p)

    def _sections(self, bases, offsets):
        """Restrictions to the lines t -> z + t * d (d = bases[i, :, 0],
        z = offsets[i]) as step functions; params (t, heights): every
        factor's bin-edge crossings t, clipped to the support box and
        sorted, so each line gets the same number of segments (zero-width
        ones carry no mass), and the product at each segment midpoint, exact
        since it is constant in between.  Factors along which a line does
        not move (|d_i| <= AXIS_TOL) are read at z_i."""
        dirs = _per_row(bases, len(offsets))[..., 0]
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

    def _section_points(self, sections, k, size, rng):
        _, _, t, heights = sections
        u = rng.random((len(t), size))
        return _step_quantiles(t, heights * np.diff(t, axis=1), u)[..., None]

    def rearrangement(self):
        """A centered radial step density, through the boxes the factors'
        bins make; ValueError beyond PRODUCT_ENUM_CAP boxes."""
        total = math.prod(f.heights.size for f in self.factors)
        if total > PRODUCT_ENUM_CAP:
            raise ValueError(f"ProductDensity has {total} boxes, more than "
                             f"the {PRODUCT_ENUM_CAP} it enumerates")
        vals = np.array([self.amplitude])
        vols = np.array([1.0])
        for f in self.factors:
            vals = np.multiply.outer(vals, f.heights).ravel()
            vols = np.multiply.outer(vols, np.diff(f.edges)).ravel()
        return _shells(self.n, vals, vols)


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
        return _step_values(self.edges, self.heights, _row_norms(x))

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
        # shells are uniform in r^n: draw r^n in the shell, then take roots
        r = _piecewise_uniform(self.edges ** self.n,
                               self.heights * self.shell_volumes(), size, rng)
        r **= 1.0 / self.n
        return _directions((size,), self.n, rng, r)

    def power(self, p):
        return RadialGridDensity(self.n, self.edges, self.heights ** p)

    def rearrangement(self):
        return _shells(self.n, self.heights, self.shell_volumes())

    def radial_moment(self, p):
        n, e, h = self.n, self.edges, self.heights
        return n / (n + p) * (h @ np.diff(e ** (n + p))) \
            / (h @ np.diff(e ** n))

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
        return _directions((len(edges), size), k, rng, r)


def _shells(n: int, values: np.ndarray, volumes: np.ndarray):
    """The centered radial step density with one shell per distinct
    positive value of a step density whose pieces have those values and
    volumes, heights decreasing outward: the shell of value v holds the
    volume of every piece at v, so |{f* > t}| = |{f > t}| at every t."""
    distinct, piece = np.unique(values, return_inverse=True)
    heights = distinct[::-1]
    shell = np.bincount(piece, weights=volumes)[::-1]
    live = heights > 0.0
    if not live.any():
        raise ValueError("cannot rearrange a zero density")
    radii = (np.cumsum(shell[live]) / unit_ball_volume(n)) ** (1.0 / n)
    return RadialGridDensity(n, np.concatenate([[0.0], radii]), heights[live])


def _inverse_root(matrix: np.ndarray, points: np.ndarray) -> np.ndarray:
    """points (s, size, k) mapped row by row by L^-T, L the Cholesky factor
    of matrix[i] (s, k, k): standard normal points become N(0, matrix^-1),
    unit-ball points fill the ellipsoid u^T matrix u <= 1.  Points are rows,
    so L^-T acts as a right product with L^-1."""
    return points @ np.linalg.inv(np.linalg.cholesky(matrix))


def _directions(shape: tuple, k: int, rng: np.random.Generator,
                radii: np.ndarray) -> np.ndarray:
    """Uniform unit vectors of R^k, each times its radius in radii
    (shape), shape + (k,), from one rng.standard_normal(shape + (k,))
    call; _to_sphere scales the draw in place."""
    return _to_sphere(rng.standard_normal(shape + (k,)), radii)


def _uniform_ball(dim: int, shape: tuple,
                  rng: np.random.Generator) -> np.ndarray:
    """Uniform unit-ball points, shape + (dim,), stratified along the last
    axis of shape into that many equal-volume radial shells (a last axis
    of 1 gives independent points): rng.standard_normal(shape + (dim,))
    for the directions, then rng.random(shape) for the radii, the
    directions scaled in place by _to_sphere."""
    g = rng.standard_normal(shape + (dim,))
    radii = (np.arange(shape[-1]) + rng.random(shape)) / shape[-1]
    radii **= 1.0 / dim
    return _to_sphere(g, radii)


def _to_sphere(g: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """g (..., k) scaled in place to g / |g| times radii (...), row by
    row, bit for bit as the broadcast division and product; a zero row
    stays zero.  One ROW_BLOCK of rows at a time, column by column.  At
    k = 1 a block with every |g| in [1e-150, 1e150] takes copysign(1, g):
    there g * g is a normal number, its root is exactly |g|, and g / |g|
    is exactly +-1."""
    k = g.shape[-1]
    rows, radii = g.reshape(-1, k), radii.reshape(-1)
    for start in range(0, len(rows), ROW_BLOCK):
        block = rows[start:start + ROW_BLOCK]
        if k == 1 and 1e-150 <= (size := np.abs(block)).min() \
                and size.max() <= 1e150:
            np.copysign(1.0, block, out=block)
        else:
            norms = _row_norms(block)
            norms[norms == 0.0] = 1.0
            for j in range(k):
                block[:, j] /= norms
        for j in range(k):
            block[:, j] *= radii[start:start + ROW_BLOCK]
    return g


def _restrict_form(matrix: np.ndarray, center: np.ndarray, bases: np.ndarray,
                   offsets: np.ndarray):
    """The quadratic form (x - center)^T matrix (x - center) restricted to
    each flat x = offsets[i] + bases[i] @ u of a stack, as
    (u - u0)^T g (u - u0) + q + lin.u0, with d = offsets[i] - center,
    g = B^T matrix B, lin = B^T matrix d, u0 = -g^-1 lin and q = d^T matrix
    d.  Returns (g, log det g, u0, q, lin.u0) for the stack, from one
    _spd_solve; q and lin.u0 come apart so that each family adds them in
    its own order, which fixes the last bit of its section stats.  Shared
    bases (_per_row) give g once per basis, on a contiguous copy, which
    leaves every bit as on the stack of repeated bases."""
    d = offsets - center
    md = d @ matrix
    rows = _per_row(bases, len(offsets))
    if rows is bases:
        g = bases.transpose(0, 2, 1) @ (matrix @ bases)
    else:
        bases = np.ascontiguousarray(bases)
        g = np.repeat(bases.transpose(0, 2, 1) @ (matrix @ bases),
                      len(offsets) // len(bases), axis=0)
    lin = np.einsum("sji,sj->si", rows, md)
    logdet, u0 = _spd_solve(g, -lin)
    return (g, logdet, u0, np.einsum("si,si->s", d, md),
            np.einsum("si,si->s", lin, u0))


def _per_row(bases: np.ndarray, rows: int) -> np.ndarray:
    """bases, one per flat of a stack of rows flats: a stack of m bases may
    be shared, basis i spanning flats i r to i r + r - 1, r = rows / m (the
    fibers of one subspace, the offsets along one normal of a rule), and
    is repeated to one per flat."""
    return bases if len(bases) == rows \
        else np.repeat(bases, rows // len(bases), axis=0)


def _bin_count(edges, x) -> np.ndarray:
    """The number of edges at or below x, elementwise, in the narrowest
    unsigned dtype that holds len(edges): one comparison per edge into one
    reused bool buffer, each edges[j] broadcasting to x's shape, so for
    increasing 1-d edges it is np.searchsorted(edges, x, side="right"),
    ties included, and NaN counts no edge.  Meant for the handful of edges
    of a step density; a count is an index for take as it is."""
    count = np.zeros(np.shape(x), dtype=np.min_scalar_type(len(edges)))
    hit = np.empty(count.shape, dtype=bool)
    for edge in edges:
        count += np.less_equal(edge, x, out=hit)
    return count


def _step_values(edges: np.ndarray, heights: np.ndarray,
                 x: np.ndarray) -> np.ndarray:
    """heights[j] at each x in [edges[j], edges[j + 1]), 0.0 outside
    [edges[0], edges[-1]) and at NaN: the bin count indexes the heights
    padded with one 0.0 on each side."""
    table = np.concatenate(([0.0], heights, [0.0]))
    return table.take(_bin_count(edges, x))


def _choose_bins(weights: np.ndarray, size: int,
                 rng: np.random.Generator) -> np.ndarray:
    """size bin indices drawn with probabilities proportional to weights,
    the same indices, from the same one rng.random(size) call, as
    rng.choice(weights.size, size, p=weights / weights.sum()): that is
    what choice does with p, without its validation and binary search.
    The indices come in _bin_count's narrow dtype, not as intp.
    ValueError unless the weights sum to a positive finite total."""
    total = weights.sum()
    if not 0.0 < total < math.inf:
        raise ValueError(f"cannot sample from a density of mass {total}")
    cdf = (weights / total).cumsum()
    cdf /= cdf[-1]
    return _bin_count(cdf[:-1], rng.random(size))


def _piecewise_uniform(grid: np.ndarray, weights: np.ndarray, size: int,
                       rng: np.random.Generator) -> np.ndarray:
    """size draws of the law that spreads weights[j] evenly over [grid[j],
    grid[j + 1]]: _choose_bins, then one rng.random(size) scaled and shifted
    ROW_BLOCK rows at a time (a block's byte-wide bins widen inside take)."""
    bins = _choose_bins(weights, size, rng)
    widths = np.diff(grid)
    x = rng.random(size)
    for start in range(0, size, ROW_BLOCK):
        block = slice(start, start + ROW_BLOCK)
        x[block] *= widths.take(bins[block])
        x[block] += grid.take(bins[block])
    return x


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
    # the bin is the count of inner cumulative weights at or below target,
    # capped at bins - 1; the row offsets widen it to intp
    count = _bin_count(below[:, 1:-1].T[..., None], target)
    rows = np.arange(s)[:, None]
    w = np.take(weights, count + rows * bins)
    idx = count + rows * (bins + 1)
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
        # the shift one column at a time, not broadcast along rows of n
        y = np.empty(x.shape)
        for i in range(self.n):
            np.subtract(x[:, i], self.shift[i], out=y[:, i])
        return self.base.eval_many(y @ self._inv.T)

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
        return PushforwardDensity(self.base.power(p), self.matrix, self.shift)

    def rearrangement(self):
        return self.base.rearrangement()   # the map preserves volume


def affine_image(f: DensityModel, g) -> DensityModel:
    """Image density of f under the volume-preserving affine map (A, b).

    Requires |det A| = 1 within DET_TOL.  Families closed under the map are
    transformed in closed form, formed without floating-point warnings so
    that a map overflowing them meets the constructor's ParameterError;
    everything else gets a pushforward wrapper with identical mass and sup,
    a pushforward sampler and no exact sections.
    """
    a_mat, b_vec = g
    a_mat = _volume_preserving(a_mat)
    b_vec = np.zeros(f.n) if b_vec is None else np.asarray(b_vec, dtype=float)
    with np.errstate(all="ignore"):
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
    return PushforwardDensity(f, a_mat, b_vec)


def _volume_preserving(matrix, name: str = "matrix") -> np.ndarray:
    """matrix as a float array, unless |det| is off 1 by more than DET_TOL."""
    matrix = np.asarray(matrix, dtype=float)
    det = abs(np.linalg.det(matrix))
    if abs(det - 1.0) > DET_TOL:
        raise ParameterError(name, f"must preserve volume, |det| = {det}")
    return matrix


def _is_orthogonal(a_mat):
    return np.abs(a_mat.T @ a_mat - np.eye(a_mat.shape[0])).max() <= DET_TOL


def section_stats(f: DensityModel, bases: np.ndarray, offsets: np.ndarray,
                  method="exact", rng: np.random.Generator | None = None):
    """(mass, sup, mass_stderr) arrays of the sections of f through the
    flats offsets[i] + span(bases[i]).  bases[i] is orthonormal and each
    offset must be the flat's foot point, perpendicular to its basis:
    RadialGridDensity sections and the blocked Monte Carlo window read
    |offsets[i]| as the flat's distance from the origin.  Consecutive
    flats may share a basis: m bases for r m offsets, basis i spanning
    flats i r to i r + r - 1 (_per_row), which the ellipsoid and Gaussian
    families restrict to once per basis.

    method "exact" reads the closed form (stderr 0), and raises ValueError
    unless f.exact_sections(k); ("mc", N) averages f over N stratified
    points of each section's support window, one draw for the whole stack,
    and its sup is a sampled maximum, biased low.  The window points are
    built and f evaluated ROW_BLOCK // N sections at a time, by one
    multiply-add per coordinate for lines.
    """
    if method == "exact":
        _require_exact(f, bases.shape[-1])
        mass, sup = f.slice_stats_batch(bases, offsets)
        return mass, sup, np.zeros(len(mass))
    tag, count = method
    if tag != "mc" or count < 2:
        raise ValueError(f"method must be 'exact' or ('mc', N >= 2), got {method!r}")
    if rng is None:
        raise ValueError("Monte Carlo section stats need an rng")
    if math.isinf(f.support_radius):
        raise ValueError("Monte Carlo section stats need a bounded support")
    bases = _per_row(bases, len(offsets))
    s, n, k = bases.shape
    # each section vanishes outside its ball of radius w about the foot point
    gap = f.support_radius ** 2 - np.einsum("si,si->s", offsets, offsets)
    w = np.sqrt(np.maximum(gap, 0.0))
    ball = _uniform_ball(k, (s, count), rng)
    vals = np.empty((s, count))
    rows = max(1, ROW_BLOCK // count)
    for start in range(0, s, rows):
        flats = slice(start, start + rows)
        u = ball[flats] * w[flats, None, None]
        pts = np.empty(u.shape[:2] + (n,))
        if k == 1:
            # x_i = z_i + u b_i: one multiply-add per coordinate
            for i in range(n):
                np.multiply(u[..., 0], bases[flats, i], out=pts[..., i])
                pts[..., i] += offsets[flats, i, None]
        else:
            np.matmul(u, np.swapaxes(bases[flats], 1, 2), out=pts)
            pts += offsets[flats, None, :]
        vals[flats] = f.eval_many(pts.reshape(-1, n)).reshape(-1, count)
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
    Offsets are foot points, perpendicular to their bases, as in
    section_stats.  Raises ValueError, drawing nothing, unless
    f.exact_sections(k).
    """
    k = bases.shape[-1]
    _require_exact(f, k)
    sections = f._sections(bases, offsets)
    return sections[0], f._section_points(sections, k, size, rng)


def _require_exact(f: DensityModel, k: int):
    """ValueError naming f's family and k unless f.exact_sections(k)."""
    if not f.exact_sections(k):
        raise ValueError(f"{type(f).__name__} has no exact sections of "
                         f"dimension {k}")

