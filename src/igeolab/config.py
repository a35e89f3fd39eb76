"""Run configuration: flat INI-style files with JSON values.

A config file has one [run] section, any number of [density <name>]
sections (inline specs or pointers to density text files), and any number
of [check <label>] sections.  Every value is parsed as JSON, so strings
are quoted and vectors/matrices are plain JSON arrays.  INI syntax errors,
unknown check names, unknown or malformed fields and parameter maps
violating a check's preconditions are rejected here, before any sampling
happens.

Each check map is parsed once, by load_config, into the keyword arguments
of its verify function (CheckJob.kwargs); running a check only calls it.
Nothing here draws: a named map or a 'random' shift stays a name, and the
invariance check draws it from its own generator.
"""

from __future__ import annotations

import configparser
import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import verify
from .densities import (DET_TOL, DensityModel, EllipsoidIndicator,
                        GaussianDensity, ProductDensity, RadialGridDensity,
                        Step1D, TruncatedGaussian)
from .functionals import ExponentSpec
from .grassmann import Subspace

__all__ = ["ConfigError", "CheckJob", "RunConfig", "load_config",
           "build_density", "read_density_text", "CHECKS", "check_names",
           "describe_check"]


class ConfigError(ValueError):
    """Config problem, tagged with the section and field it came from."""

    def __init__(self, section: str, field_name: str, message: str):
        self.section = section
        self.field = field_name
        self.message = message
        super().__init__(f"[{section}] {field_name}: {message}")


@dataclass(frozen=True)
class CheckJob:
    label: str
    name: str
    params: dict  # the raw JSON map, read by the config hash
    # verify keywords parsed from params; verify must not mutate them
    kwargs: dict = field(compare=False, repr=False)


@dataclass(frozen=True)
class RunConfig:
    seed: int
    output_dir: str
    densities: dict[str, DensityModel]
    checks: list[CheckJob] = field(default_factory=list)
    # parsed spec map per density; a file density's text under "text"
    density_specs: dict[str, dict] = field(default_factory=dict)

    def resolved_hash(self) -> str:
        """Hash of the effective configuration (seed overrides included)."""
        payload = {
            "seed": self.seed,
            "densities": {name: self.density_specs.get(name)
                          for name in self.densities},
            "checks": [[j.label, j.name,
                        json.dumps(j.params, sort_keys=True, default=str)]
                       for j in self.checks],
        }
        blob = json.dumps(payload, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


# ---------------------------------------------------------------------------
# Density specs.
# ---------------------------------------------------------------------------

def _scaled(f: DensityModel, factor: float) -> DensityModel:
    if isinstance(f, EllipsoidIndicator):
        return EllipsoidIndicator(f.shape_matrix, f.center,
                                  f.amplitude * factor)
    if isinstance(f, GaussianDensity):
        return GaussianDensity(f.mean, f.cov, f.amplitude * factor)
    if isinstance(f, TruncatedGaussian):
        return TruncatedGaussian(f.center, f.tau, f.radius,
                                 f.amplitude * factor)
    if isinstance(f, ProductDensity):
        return ProductDensity(f.factors, f.amplitude * factor)
    if isinstance(f, RadialGridDensity):
        return RadialGridDensity(f.n, f.edges, f.heights * factor)
    raise ConfigError("density", "normalize",
                      f"cannot rescale {type(f).__name__}")


def _read_text(path: str, base_dir: str) -> str:
    if not os.path.isabs(path):
        path = os.path.join(base_dir, path)
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _positive(raw) -> float:
    value = _number(raw)
    if value <= 0.0:
        raise ValueError(f"must be positive, got {raw}")
    return value


def _scale(raw, n: int) -> float:
    """A positive length r whose powers r^2, r^-2, r^n and r^-n are positive
    and finite, so that a ball or kernel of width r in dimension n has a
    shape, volume and height that neither over- nor underflow."""
    r = _positive(raw)
    with np.errstate(over="ignore", under="ignore", divide="ignore"):
        powers = np.float64(r) ** np.array([2.0, -2.0, n, -n])
    if not np.all((powers > 0.0) & (powers < math.inf)):
        raise ValueError(f"{r:g} under- or overflows when raised to the "
                         f"powers +-2 and +-n in dimension n = {n}")
    return r


def _axes(mat: np.ndarray, power: float) -> np.ndarray:
    """mat, once the length eigenvalue^power of each of its principal axes
    passes _scale: power 1/2 for a covariance, -1/2 for an ellipsoid's
    shape matrix."""
    with np.errstate(divide="ignore", invalid="ignore"):
        lengths = np.linalg.eigvalsh(mat) ** power
    for length in lengths:
        try:
            _scale(float(length), len(mat))
        except ValueError as exc:
            raise ValueError(f"principal axis length {exc}") from None
    return mat


def _vector(raw, n=None) -> np.ndarray:
    """Nonempty vector, of length n when n is given."""
    vec = _finite(raw)
    if vec.ndim != 1 or vec.size == 0 or n not in (None, vec.size):
        raise ValueError(f"must be a vector of length {n or '>= 1'}, "
                         f"got shape {vec.shape}")
    return vec


def _spd(raw, n=None) -> np.ndarray:
    """Symmetric positive definite matrix, n x n when n is given."""
    mat = _finite(raw)
    size = n or (mat.shape[0] if mat.ndim == 2 else 0)
    if size == 0 or mat.shape != (size, size):
        raise ValueError(f"must be a square {f'{n} x {n} ' if n else ''}"
                         f"matrix, got shape {mat.shape}")
    if np.abs(mat - mat.T).max() > 1e-12:
        raise ValueError("must be symmetric")
    try:
        np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        raise ValueError("must be positive definite") from None
    return mat


def _heights(raw) -> np.ndarray:
    heights = _finite(raw)
    if heights.ndim != 1 or heights.size == 0 or np.any(heights < 0.0):
        raise ValueError("must be a nonempty list of non-negative numbers")
    return heights


def _factor(raw) -> Step1D:
    """One product factor: {"heights": [...]} with optional lo, hi."""
    if not isinstance(raw, dict) or "heights" not in raw \
            or set(raw) - {"lo", "hi", "heights"}:
        raise ValueError('each factor must be {"heights": [...]} with '
                         "optional lo and hi")
    return Step1D.uniform(_number(raw.get("lo", -0.5)),
                          _number(raw.get("hi", 0.5)),
                          _heights(raw["heights"]))


def build_density(spec: dict, base_dir: str = ".") -> DensityModel:
    """Build one density from a parsed spec map.

    kinds: file, gaussian, ellipsoid, truncated_gaussian, radial, product.
    normalize = true rescales to unit mass after construction.  Numbers
    must be finite, dimensions n integers >= 1, amplitudes positive,
    vectors nonempty and matrices symmetric positive definite, and the
    mass positive; a bad field, or an n too large to allocate, is a
    ConfigError naming it.
    """
    return _build_density(spec, base_dir)[0]


# The field that sets the mass of a density of this kind, blamed when the
# mass is zero; extreme shapes or radii can also under- or overflow it.  An
# ellipsoid given by n and radius blames radius instead of shape.
_MASS_FIELD = {"radial": "heights", "product": "factors", "gaussian": "cov",
               "ellipsoid": "shape"}


def _build_density(spec: dict, base_dir: str):
    """build_density's model, and the text of a file density (else None),
    read once so that the config hash covers the text that was parsed."""
    spec = dict(spec)
    text = None

    def take(name, parse, default=_REQUIRED):
        raw = spec.pop(name, default)
        if raw is _REQUIRED:
            raise ConfigError("density", name, "missing field")
        try:
            return parse(raw)
        except (ValueError, TypeError, ArithmeticError, MemoryError,
                OSError) as exc:
            raise ConfigError("density", name, str(exc)) from exc

    def dim(raw):
        return _number(raw, lo=1, integer=True)

    def optional(name, parse=_vector):
        return take(name, parse) if name in spec else None

    kind = spec.pop("kind", None)
    mass_field = _MASS_FIELD.get(kind, "spec")
    normalize = take("normalize", _flag, False)
    if kind == "file":
        text = take("path", lambda raw: _read_text(raw, base_dir))
        f = read_density_text(text)
    elif kind == "gaussian":
        mean = optional("mean")
        if mean is None:
            mean = take("n", lambda raw: np.zeros(dim(raw)))
        cov = take("cov", lambda raw: _axes(
            _positive(raw) * np.eye(mean.size) if np.isscalar(raw)
            else _spd(raw, mean.size), 0.5), 1.0)
        f = GaussianDensity(mean, cov, take("amplitude", _positive, 1.0))
    elif kind == "ellipsoid":
        shape = optional("shape", lambda raw: _axes(_spd(raw), -0.5))
        if shape is None:
            mass_field = "radius"
            eye = take("n", lambda raw: np.eye(dim(raw)))
            shape = eye / take("radius", lambda raw: _scale(raw, len(eye)),
                               1.0) ** 2
        center = optional("center", lambda raw: _vector(raw, len(shape)))
        f = EllipsoidIndicator(shape, center,
                               take("amplitude", _positive, 1.0))
    elif kind == "truncated_gaussian":
        center = optional("center")
        if center is None:
            center = take("n", lambda raw: np.zeros(dim(raw)))
        tau = take("tau", lambda raw: _scale(raw, center.size))
        f = take("radius", lambda raw: TruncatedGaussian.normalized(
            center, tau, _scale(raw, center.size)))
        if "amplitude" in spec:
            f = _scaled(f, take("amplitude", _positive) / f.amplitude)
    elif kind == "radial":
        n = take("n", dim)
        heights = take("heights", _heights)
        edges = optional("edges", _finite)
        if edges is None:
            f = RadialGridDensity.uniform(n, take("radius", _positive),
                                          heights)
        else:
            f = RadialGridDensity(n, edges, heights)
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            vols = f.shell_volumes()
        if not np.all((vols > 0.0) & (vols < math.inf)):
            raise ConfigError("density", "radius" if edges is None
                              else "edges", "the shell volumes under- or "
                              f"overflow in dimension n = {n}")
    elif kind == "product":
        f = ProductDensity(take("factors", lambda raw: [
            _factor(fac) for fac in raw]), take("amplitude", _positive, 1.0))
    else:
        raise ConfigError("density", "kind", f"unknown density kind {kind!r}")
    if spec:
        raise ConfigError("density", ", ".join(sorted(spec)),
                          f"unused fields for kind {kind!r}")
    try:
        mass = f.mass
    except OverflowError:
        mass = math.inf
    if not 0.0 < mass < math.inf:
        raise ConfigError("density", "normalize" if normalize
                          else mass_field,
                          f"the density's mass is {mass:g}; it must be "
                          "positive and finite")
    if normalize:
        try:
            f = _scaled(f, 1.0 / mass)
        except ValueError as exc:
            raise ConfigError("density", "normalize", f"the density's mass "
                              f"is {mass:g}, too small to rescale to 1: "
                              f"{exc}") from exc
    return f, text


# Density text files, as densities.write_density_text writes them:
#
#   radial n=<n> R=<R> bins=<m>
#   h_1 ... h_m                      (shell heights on [0, R])
#
#   product n=<n>
#   h_1 ... h_m1                     (factor 1 heights on [-1/2, 1/2])
#   ...                              (one line per factor)
#
# A text is another way to write a radial or product spec map, and
# build_density checks its numbers.  bins (radial) and n (product) restate
# the number of heights and of factor lines.

_TEXT_HEADERS = {"radial": ("n", "R", "bins"), "product": ("n",)}


def _text_value(token: str):
    """int, else float, else the token itself for a field parser to reject."""
    for parse in (int, float):
        try:
            return parse(token)
        except ValueError:
            pass
    return token


def read_density_text(text: str) -> DensityModel:
    """Density from its text form.  A malformed text is a ConfigError
    naming the field as the text spells it."""
    lines = [ln.split() for ln in text.splitlines() if ln.strip()]
    kind = lines[0][0] if lines else None
    if kind not in _TEXT_HEADERS:
        raise ConfigError("density", "kind", "density text must start with "
                          f"radial or product, got {kind!r}")
    head = {}
    for key, _, raw in (part.partition("=") for part in lines[0][1:]):
        if key not in _TEXT_HEADERS[kind] or key in head:
            raise ConfigError("density", key, "unknown or repeated field")
        head[key] = _text_value(raw)
    for key in _TEXT_HEADERS[kind]:
        if key not in head:
            raise ConfigError("density", key, "missing field")
    rows = [[_text_value(tok) for tok in ln] for ln in lines[1:]]
    if kind == "radial":
        if len(rows) != 1:
            raise ConfigError("density", "heights",
                              "radial text has one line of heights")
        spec = {"n": head["n"], "radius": head["R"], "heights": rows[0]}
        count, given = "bins", len(rows[0])
    else:
        spec = {"factors": [{"heights": row} for row in rows]}
        count, given = "n", len(rows)
    try:
        if _number(head[count], lo=1, integer=True) != given:
            raise ValueError(f"is {head[count]}, but {given} are given")
    except ValueError as exc:
        raise ConfigError("density", count, str(exc)) from exc
    try:
        return build_density({"kind": kind, **spec})
    except ConfigError as exc:
        raise ConfigError("density", "R" if exc.field == "radius"
                          else exc.field, exc.message) from exc


# ---------------------------------------------------------------------------
# Check schema.  Each check is declared once: its fields in parse order, its
# cross-field preconditions, and the verify function that receives the
# parsed fields as keyword arguments.  load_config parses every map once and
# keeps the keywords on its CheckJob; run only calls the verify function.
# ---------------------------------------------------------------------------

_REQUIRED = object()


class _Values(dict):
    """Verify keywords parsed so far, plus the configured densities that
    field parsers look names up in."""

    def __init__(self, densities):
        super().__init__()
        self.densities = densities

    @property
    def n(self) -> int:
        """Ambient dimension: the `n` field, else that of the densities."""
        if "n" in self:
            return self["n"]
        return (self["f"] if "f" in self else self["f_list"][0]).n


@dataclass(frozen=True)
class _Field:
    # (raw JSON value, _Values) -> value; ValueError, TypeError or
    # ArithmeticError rejects the field
    parse: Callable
    # raw value parsed like a given one; None: optional, passed as None
    default: object = _REQUIRED
    # verify keyword when it is not the field name; a later field with the
    # same keyword builds on the earlier field's value
    arg: str | None = None


class _Reject(Exception):
    """A failed cross-field precondition: (field, message)."""


def _require(ok: bool, field_name: str, message: str):
    if not ok:
        raise _Reject(field_name, message)


class _Check:
    """One check: doc line, verify function name, fields, preconditions.

    The verify function is looked up by name at each call, and `run` is a
    plain attribute holding one bound method, so a profiler can wrap
    either and put back the very same object.
    """

    def __init__(self, doc, target, fields, pre=()):
        self.doc = doc
        self.target = target
        self.fields = fields
        self.pre = pre
        self.run = self._run

    def parse(self, params, densities, section) -> dict:
        """Verify keywords for one parameter map, or a ConfigError naming
        the field."""
        unknown = sorted(set(params) - set(self.fields))
        if unknown:
            raise ConfigError(section, ", ".join(unknown), "unknown field")
        v = _Values(densities)
        for name, fld in self.fields.items():
            raw = params.get(name, fld.default)
            try:
                if raw is _REQUIRED:
                    raise ValueError("required")
                if raw is None and fld.default is None:
                    v[fld.arg or name] = None
                else:
                    v[fld.arg or name] = fld.parse(raw, v)
            except (ValueError, TypeError, ArithmeticError) as exc:
                raise ConfigError(section, name, str(exc)) from exc
        try:
            for rule in self.pre:
                rule(v)
        except _Reject as exc:
            raise ConfigError(section, *exc.args) from exc
        return dict(v)

    def _run(self, kwargs, rng):
        return getattr(verify, self.target)(rng=rng, **kwargs)


# Field parsers.

def _number(raw, v=None, lo=None, hi=None, integer=False):
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ValueError(f"must be a number, got {raw!r}")
    if isinstance(raw, float) and not math.isfinite(raw):
        raise ValueError(f"must be finite, got {raw!r}")
    if integer and int(raw) != raw:
        raise ValueError(f"must be an integer, got {raw!r}")
    lo = lo(v) if callable(lo) else lo
    hi = hi(v) if callable(hi) else hi
    if lo is not None and raw < lo:
        raise ValueError(f"must be >= {lo}, got {raw}")
    if hi is not None and raw > hi:
        raise ValueError(f"must be <= {hi}, got {raw}")
    return int(raw) if integer else float(raw)


def _int(lo, hi=None, default=_REQUIRED):
    """Integer field; bounds are numbers or functions of the _Values."""
    return _Field(lambda raw, v: _number(raw, v, lo, hi, integer=True),
                  default)


def _real(lo=None, hi=None, default=_REQUIRED):
    return _Field(lambda raw, v: _number(raw, v, lo, hi), default)


def _finite(raw) -> np.ndarray:
    arr = np.asarray(raw, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("entries must be finite")
    return arr


def _density(raw, v):
    if not isinstance(raw, str) or raw not in v.densities:
        raise ValueError(f"must name a configured density, got {raw!r}")
    return v.densities[raw]


def _densities(raw, v):
    if not isinstance(raw, list) or not raw:
        raise ValueError("must be a nonempty list of density names")
    out = [_density(name, v) for name in raw]
    dims = {f.n for f in out}
    if len(dims) != 1:
        raise ValueError(f"mixed ambient dimensions {sorted(dims)}")
    return out


def _powers(raw, v):
    """spec_p: one integrability power per density, a number or "inf"."""
    if not isinstance(raw, list) or not raw:
        raise ValueError("must be a nonempty list")
    ps = tuple(math.inf if p == "inf" else _number(p, v) for p in raw)
    if min(ps) <= 0.0:
        raise ValueError(f"powers must be positive (or \"inf\"), got {raw}")
    return ps


def _exponent_spec(raw, v):
    """spec_alpha: outer exponents, completing the spec_p powers."""
    if not isinstance(raw, list) or len(raw) != len(v["spec"]):
        raise ValueError("must be a list as long as spec_p")
    return ExponentSpec(v["spec"], tuple(_number(a, v) for a in raw))


def _map(raw, v):
    """'shear', 'rotation', or a matrix with |det| = 1 within DET_TOL."""
    if raw in ("shear", "rotation"):
        return raw
    n = v.n
    mat = _finite([] if isinstance(raw, str) else raw)
    if mat.shape != (n, n):
        raise ValueError(f"must be 'shear', 'rotation', or a {n}x{n} matrix")
    if abs(abs(np.linalg.det(mat)) - 1.0) > DET_TOL:
        raise ValueError("matrix must preserve volume")
    return mat


def _shift(raw, v):
    """'random', or a translation vector; completes g = (map, shift)."""
    if raw == "random":
        return v["g"], raw
    vec = _finite([] if isinstance(raw, str) else raw)
    if vec.shape != (v.n,):
        raise ValueError(f"must be 'random' or a vector of length {v.n}")
    return v["g"], vec


def _subspace(raw, v):
    """Axis list, or an n x k basis."""
    n = v.n
    arr = _finite(raw)
    if arr.ndim == 1:
        axes = arr.astype(int)
        if not np.all(arr == axes) or np.any(axes < 0) or np.any(axes >= n) \
                or len(set(axes.tolist())) != len(axes):
            raise ValueError(f"axis list must be distinct ints in [0,{n})")
        basis = np.zeros((n, len(axes)))
        basis[axes, np.arange(len(axes))] = 1.0
        return Subspace(basis)
    if arr.ndim == 2 and arr.shape[0] == n:
        return Subspace(arr)
    raise ValueError("must be an axis list or an n x k basis")


def _eta(raw, v):
    """Perturbation radius in (0, 2), the range perturb_subspace draws in."""
    eta = _number(raw, v)
    if not 0.0 < eta < 2.0:
        raise ValueError(f"must lie in (0, 2), got {raw}")
    return eta


def _radii(raw, v):
    radii = [_number(e, v) for e in raw] if isinstance(raw, list) else []
    if not radii or min(radii) <= 0.0:
        raise ValueError("must be a nonempty list of positive radii")
    return radii


def _flag(raw, v=None):
    if not isinstance(raw, bool):
        raise ValueError(f"must be true or false, got {raw!r}")
    return raw


def _case(raw, v):
    if raw not in ("cone", "simplex"):
        raise ValueError("must be 'cone' or 'simplex'")
    return raw


def _method(raw, v):
    """'exact', or ['mc', N]: N >= 2 Monte Carlo points per section."""
    if raw == "exact":
        return raw
    if isinstance(raw, list) and len(raw) == 2 and raw[0] == "mc":
        return "mc", _number(raw[1], v, lo=2, integer=True)
    raise ValueError(f'must be "exact" or ["mc", N], got {raw!r}')


# Cross-field preconditions.

def _q_at_most_k(v):
    q, k = len(v["f_list"]), v["k"]
    _require(q <= k, "densities", f"need 1 <= q <= k, got q={q} k={k}")


def _slot_per_density(v):
    _require(len(v["spec"]) == len(v["f_list"]), "spec_p",
             "one exponent slot per density required")


def _bounded(v):
    name, fl = ("density", [v["f"]]) if "f" in v \
        else ("densities", v["f_list"])
    _require(all(np.isfinite(f.support_radius) for f in fl), name,
             "flat averages need bounded supports")


def _mc_bounded(v):
    _require(v["method"] == "exact" or all(
        np.isfinite(f.support_radius) for f in v["f_list"]), "method",
        "Monte Carlo section stats need bounded supports")


def _direct_budget(v):
    _require(v["p"] == 0.0 or v["n_direct"] >= 4, "n_direct",
             "offset exponents need n_direct >= 4 (two replicas of >= 2)")


def _unit_mass(v):
    _require(abs(v["f"].mass - 1.0) <= 1e-9, "density",
             "must be a probability density (unit mass); "
             "set normalize = true")


def _offset_exponent(v):
    p = v["p"]
    _require(p == 0.0 or p >= 1.0, "p", "offset exponent must be 0 or >= 1")
    _require(v["k"] < v.n or p == 0.0, "k", "offset exponents need k <= n-1")


def _window_covers_support(v):
    radius = v["f"].support_radius
    _require(radius <= v["R"] + 1e-9, "R",
             f"support radius {radius:.4g} exceeds window {v['R']}")


def _rearrangeable(v):
    fl, case = v["f_list"], v["case"]
    limit = v.n if case == "cone" else v.n + 1
    _require(len(fl) <= limit, "densities",
             f"at most {limit} densities for case {case!r}")
    _require(all(f.superlevel_volumes([f.sup / 2]) is not None for f in fl),
             "densities", "rearrangement needs exact level profiles")


def _dim_k(arg, field_name):
    """Precondition: the subspace under verify keyword arg, when given, has
    dimension k."""
    def rule(v):
        sub, k = v[arg], v["k"]
        if sub is not None:
            _require(sub.k == k, field_name,
                     f"dimension {sub.k} does not match k={k}")
    return rule


_DENSITY = _Field(_density, arg="f")
_DENSITIES = _Field(_densities, arg="f_list")
_K_UP_TO_N = _int(1, lambda v: v.n)
_K = _int(1, lambda v: v.n - 1)
_BUDGET = _int(2)
# a budget split into two replicas of at least 2 samples each
_SPLIT_BUDGET = _int(4)
_SPEC_P = _Field(_powers, arg="spec")
_SPEC_ALPHA = _Field(_exponent_spec, arg="spec")
_MAP = _Field(_map, default="rotation", arg="g")
_METHOD = _Field(_method, default="exact")
_EQUALITY = _Field(_flag, default=False)

CHECKS: dict[str, _Check] = {
    "bp_subspace": _Check(
        "simplex-moment decomposition over linear sections",
        "check_bp_subspace",
        {"densities": _DENSITIES, "k": _K_UP_TO_N,
         "p": _real(0.0, default=0.0), "n_direct": _SPLIT_BUDGET,
         "n_subspaces": _SPLIT_BUDGET, "inner": _int(1, default=256)},
        [_q_at_most_k]),
    "bp_flat": _Check(
        "simplex-moment decomposition over affine sections",
        "check_bp_flat",
        {"density": _DENSITY, "k": _K_UP_TO_N, "p": _real(0.0, default=0.0),
         "R": _real(0.0), "n_direct": _int(0, default=0),
         "n_flats": _SPLIT_BUDGET, "inner": _int(1, default=256)},
        [_offset_exponent, _direct_budget, _window_covers_support]),
    "linear_invariance": _Check(
        "section-norm average under a volume-preserving linear map",
        "check_linear_invariance",
        {"densities": _DENSITIES, "k": _K, "spec_p": _SPEC_P,
         "spec_alpha": _SPEC_ALPHA, "map": _MAP, "n_subspaces": _BUDGET,
         "method": _METHOD},
        [_slot_per_density, _mc_bounded]),
    "affine_invariance": _Check(
        "section-norm flat average under a volume-preserving affine map",
        "check_affine_invariance",
        {"densities": _DENSITIES, "k": _K, "spec_p": _SPEC_P,
         "spec_alpha": _SPEC_ALPHA, "map": _MAP,
         "shift": _Field(_shift, default="random", arg="g"),
         "R": _real(0.0), "n_flats": _BUDGET, "method": _METHOD},
        [_slot_per_density, _bounded]),
    "rearrangement_chain": _Check(
        "simplex functional vs rearranged and ball inputs",
        "check_rearrangement_monotonicity",
        {"densities": _DENSITIES, "p": _real(1.0),
         "case": _Field(_case, default="cone"), "n_samples": _BUDGET,
         "levels": _int(2, default=1000)},
        [_rearrangeable]),
    "grinberg_functional": _Check(
        "L1/sup section-norm average inequality",
        "check_grinberg_functional",
        {"densities": _DENSITIES, "k": _K,
         "p": _real(0.0, lambda v: v.n - v["k"], default=0.0),
         "n_subspaces": _BUDGET, "method": _METHOD,
         "expect_equality": _EQUALITY},
        [_q_at_most_k, _mc_bounded]),
    "schneider_functional": _Check(
        "flat-average mass/sup inequality over a window of radius "
        "max(R, support radius)",
        "check_schneider_functional",
        {"density": _DENSITY, "k": _K, "R": _real(0.0, default=0.0),
         "n_flats": _BUDGET, "method": _METHOD,
         "expect_equality": _EQUALITY},
        [_bounded]),
    "marginal_bound": _Check(
        "Markov-set marginal bound with fitted constants",
        "marginal_bound_experiment",
        {"density": _DENSITY, "k": _K, "s": _real(1.0 + 1e-9),
         "t": _real(1.0 + 1e-9), "n_subspaces": _BUDGET, "n_x": _BUDGET,
         "adversarial": _Field(_subspace, default=None)},
        [_unit_mass, _dim_k("adversarial", "adversarial")]),
    "gaussian_sharpness": _Check(
        "skewed-Gaussian sharpness of the marginal sup bound",
        "gaussian_sharpness_experiment",
        {"n": _int(2), "k": _K,
         "s": _real(1.0, lambda v: (2 * math.pi) ** (v.n / (2.0 * v["k"]))),
         "n_subspaces": _BUDGET}),
    "perturbation": _Check(
        "nearby subspace with near-optimal small-ball mass",
        "perturbation_experiment",
        {"density": _DENSITY, "k": _K, "subspace": _Field(_subspace, arg="E"),
         "eta": _Field(_eta), "eps_grid": _Field(_radii),
         "n_samples": _BUDGET, "n_candidates": _int(1, default=32)},
        [_unit_mass, _dim_k("E", "subspace")]),
}


def check_names() -> list[str]:
    return sorted(CHECKS)


def describe_check(name: str) -> str:
    """Doc line and field list, read off the schema."""
    fields = CHECKS[name].fields
    required = [f for f, spec in fields.items() if spec.default is _REQUIRED]
    optional = [f"{f}={json.dumps(spec.default)}"
                for f, spec in fields.items() if spec.default is not _REQUIRED]
    extra = f" [, {', '.join(optional)}]" if optional else ""
    return f"{CHECKS[name].doc} ({', '.join(required)}{extra})"


# ---------------------------------------------------------------------------
# File parsing.
# ---------------------------------------------------------------------------

def _json_value(section: str, key: str, raw: str):
    try:
        return json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(section, key,
                          f"not valid JSON ({exc.msg}): {raw!r}") from exc


def _seed(seed) -> int:
    if not isinstance(seed, int) or isinstance(seed, bool) \
            or not 0 <= seed < 2 ** 64:
        raise ConfigError("run", "seed", "must be a 64-bit unsigned integer")
    return seed


def load_config(path: str, *, seed_override: int | None = None,
                output_override: str | None = None) -> RunConfig:
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(getattr(exc, "section", None) or "run",
                          getattr(exc, "option", None) or "section",
                          exc.message) from exc
    if not read:
        raise ConfigError("run", "path", f"cannot read config file {path!r}")
    base_dir = os.path.dirname(os.path.abspath(path))

    if not parser.has_section("run"):
        raise ConfigError("run", "section", "missing [run] section")
    run_raw = {k: _json_value("run", k, v) for k, v in parser.items("run")}
    seed = _seed(run_raw.pop("seed", 0))
    # accepted for older configs, which all pin the one-stream draw that
    # every check now makes; true and 1.0 compare equal to 1, so check type
    substreams = run_raw.pop("substreams", 1)
    if type(substreams) is not int or substreams != 1:
        raise ConfigError("run", "substreams", "only the integer 1 is "
                          f"accepted, got {substreams!r}")
    output_dir = run_raw.pop("output_dir", "igeolab-out")
    if not isinstance(output_dir, str):
        raise ConfigError("run", "output_dir", "must be a string path")
    if run_raw:
        raise ConfigError("run", ", ".join(sorted(run_raw)),
                          "unknown fields")
    if seed_override is not None:
        seed = _seed(seed_override)
    if output_override is not None:
        output_dir = output_override

    densities: dict[str, DensityModel] = {}
    density_specs: dict[str, dict] = {}
    checks: dict[str, tuple] = {}  # label -> (name, params)
    for section in parser.sections():
        if section == "run":
            continue
        parts = section.split(None, 1)
        items = {k: _json_value(section, k, v)
                 for k, v in parser.items(section)}
        if parts[0] == "density":
            if len(parts) != 2:
                raise ConfigError(section, "section",
                                  "density sections need a name")
            try:
                densities[parts[1]], text = _build_density(items, base_dir)
                if text is not None:
                    items["text"] = text
                density_specs[parts[1]] = items
            except ConfigError as exc:
                raise ConfigError(section, exc.field, exc.message) from exc
            except (ValueError, ArithmeticError) as exc:
                raise ConfigError(section, "spec", str(exc)) from exc
        elif parts[0] == "check":
            if len(parts) != 2:
                raise ConfigError(section, "section",
                                  "check sections need a label")
            name = items.pop("check", None)
            if name not in CHECKS:
                raise ConfigError(section, "check",
                                  f"unknown check {name!r}; known: "
                                  f"{', '.join(check_names())}")
            label = parts[1]
            if label in checks:
                raise ConfigError(section, "section",
                                  f"duplicate check label {label!r}")
            checks[label] = name, items
        else:
            raise ConfigError(section, "section",
                              "sections must be [run], [density <name>], "
                              "or [check <label>]")

    jobs = [CheckJob(label, name, params, CHECKS[name].parse(
        params, densities, f"check {label}"))
        for label, (name, params) in checks.items()]
    return RunConfig(seed=seed, output_dir=output_dir, densities=densities,
                     checks=jobs, density_specs=density_specs)
