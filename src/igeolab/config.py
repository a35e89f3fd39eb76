"""Run configuration: flat INI-style files with JSON values.

A config file has one [run] section and any number of [density <name>]
and [check <label>] sections.  Every value is parsed as JSON, so strings
are quoted and vectors/matrices are plain JSON arrays.  Every problem is a
ConfigError naming the section and field, raised before any sampling.

Config reads each field in the JSON shape it takes and names the field of
every error; the rules on the values live with the code they guard.  A
density section is a spec map, each field read and handed to the
family's constructor; config keeps two rules of its own: amplitudes are
positive and the mass is positive and finite.  A check map is parsed once,
by load_config, into the keyword arguments of its check function
(CheckJob.kwargs) and handed to the check's rules function, both in the
module that defines the check (verify.py, or sharpness.py).  A ParameterError
from either is a ConfigError on the field the parameter came from.
Running a check only calls it.  Nothing here draws: a named map or a
'random' shift stays a name, and the invariance check draws it from its
own generator.  The density families and the check modules are imported
where they are first used, so a config loads only what it names.
"""

from __future__ import annotations

import configparser
import hashlib
import importlib
import json
import math
import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

from . import _MODULE_OF
from .report import ParameterError

if TYPE_CHECKING:
    from .densities import DensityModel, Step1D

__all__ = ["ConfigError", "CheckJob", "RunConfig", "load_config",
           "build_density", "CHECKS", "check_names", "describe_check",
           "report_name"]


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
    # check keywords parsed from params; the check must not mutate them
    kwargs: dict = field(compare=False, repr=False)


@dataclass(frozen=True)
class RunConfig:
    seed: int
    output_dir: str
    densities: dict[str, DensityModel]
    checks: list[CheckJob] = field(default_factory=list)
    # parsed spec map per density
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

def _positive(raw) -> float:
    value = _number(raw)
    if value <= 0.0:
        raise ValueError(f"must be positive, got {raw}")
    return value


def _array(depth: int):
    """Parser of a JSON array of numbers nested depth deep (1: a vector,
    2: a matrix) into a float array.  JSON's true and false, and strings,
    are not numbers, as for _number."""
    def parse(raw) -> np.ndarray:
        arr = np.asarray(raw, dtype=float)
        if arr.ndim != depth:
            raise ValueError(f"must be a {('vector', 'matrix')[depth - 1]} "
                             f"(JSON array of depth {depth})")
        for x in np.asarray(raw, dtype=object).flat:
            if isinstance(x, bool) or not isinstance(x, (int, float)):
                raise ValueError(f"must hold numbers, got {x!r}")
        return arr
    return parse


def _factor(raw) -> Step1D:
    """One product factor: {"heights": [...]} with optional lo, hi."""
    from .densities import Step1D
    if not isinstance(raw, dict) or "heights" not in raw \
            or set(raw) - {"lo", "hi", "heights"}:
        raise ValueError('each factor must be {"heights": [...]} with '
                         "optional lo and hi")
    return Step1D.uniform(_number(raw.get("lo", -0.5)),
                          _number(raw.get("hi", 0.5)),
                          _array(1)(raw["heights"]))


# A constructor parameter that config builds from another field when the
# spec does not give it, and that field: a ball's shape matrix and a
# uniform grid's edges come from its radius.
_SOURCE_FIELD = {"shape": "radius", "edges": "radius"}
# The field that sets the mass of a density of this kind, blamed when the
# mass is zero, or under- or overflows; else the amplitude.
_MASS_FIELD = {"radial": "heights", "product": "factors"}


def build_density(spec: dict) -> DensityModel:
    """Build one density from a parsed spec map.

    kinds: gaussian, ellipsoid, truncated_gaussian, radial, product.
    normalize = true rescales to unit mass after construction.  Each field
    is read as the JSON shape it takes (a number, an integer n >= 1, an
    array) and passed to the family's constructor, which owns every rule
    on its parameters; a broken rule is a ConfigError naming the field the
    parameter came from.  Two rules are the config file's own: amplitudes
    are positive, and the mass is positive and finite.
    """
    from .densities import EllipsoidIndicator, GaussianDensity, \
        ProductDensity, RadialGridDensity, TruncatedGaussian
    given = set(spec)
    spec = dict(spec)

    def take(name, parse=_array(1), default=_REQUIRED):
        if name not in spec:
            if default is _REQUIRED:
                raise ConfigError("density", name, "missing field")
            return default
        try:
            return parse(spec.pop(name))
        except (ValueError, TypeError, ArithmeticError) as exc:
            raise ConfigError("density", name, str(exc)) from exc

    def dim(raw):
        # n x n float matrices must be addressable; MemoryError says the rest
        return _number(raw, lo=1, hi=math.isqrt(np.iinfo(np.intp).max // 8),
                       integer=True)

    kind = spec.pop("kind", None)
    normalize = take("normalize", _flag, False)
    try:
        if kind == "gaussian":
            mean = take("mean") if "mean" in spec else np.zeros(take("n", dim))
            eye = np.eye(mean.size)  # a number is a multiple of the identity
            cov = take("cov", lambda raw: _array(2)(raw) if np.ndim(raw)
                       else _number(raw) * eye, eye)
            f = GaussianDensity(mean, cov, take("amplitude", _positive, 1.0))
        elif kind == "ellipsoid":
            center = take("center", default=None)
            amplitude = take("amplitude", _positive, 1.0)
            if "shape" in spec:
                f = EllipsoidIndicator(take("shape", _array(2)), center,
                                       amplitude)
            else:
                f = EllipsoidIndicator.ball(take("n", dim), take(
                    "radius", _number, 1.0), center, amplitude)
        elif kind == "truncated_gaussian":
            center = take("center") if "center" in spec \
                else np.zeros(take("n", dim))
            f = TruncatedGaussian.normalized(center, take("tau", _number),
                                             take("radius", _number))
            if "amplitude" in spec:
                f = f.scaled(take("amplitude", _positive) / f.amplitude)
        elif kind == "radial":
            n, heights = take("n", dim), take("heights")
            if "edges" in spec:
                f = RadialGridDensity(n, take("edges"), heights)
            else:
                f = RadialGridDensity.uniform(n, take("radius", _number),
                                              heights)
        elif kind == "product":
            f = ProductDensity(take("factors", lambda raw: [
                _factor(fac) for fac in raw]),
                take("amplitude", _positive, 1.0))
        else:
            raise ConfigError("density", "kind",
                              f"unknown density kind {kind!r}")
    except ParameterError as exc:
        raise ConfigError("density", exc.param if exc.param in given
                          else _SOURCE_FIELD.get(exc.param, exc.param),
                          exc.message) from exc
    except MemoryError as exc:
        raise ConfigError("density", "n", "too large to allocate") from exc
    if spec:
        raise ConfigError("density", ", ".join(sorted(spec)),
                          f"unused fields for kind {kind!r}")
    mass = f.mass
    if not 0.0 < mass < math.inf:
        raise ConfigError("density", "normalize" if normalize
                          else _MASS_FIELD.get(kind, "amplitude"),
                          f"the density's mass is {mass:g}; it must be "
                          "positive and finite")
    if normalize:
        try:
            f = f.scaled(1.0 / mass)
        except ValueError as exc:
            raise ConfigError("density", "normalize", f"the density's mass "
                              f"is {mass:g}, too small to rescale to 1: "
                              f"{exc}") from exc
    return f


# ---------------------------------------------------------------------------
# Check schema.  Each check is declared once: its fields in parse order, each
# read in its JSON shape, the check function that receives them as keyword
# arguments, and the rules function beside it that load_config calls
# on them.  load_config keeps the keywords on its CheckJob; run only calls.
# ---------------------------------------------------------------------------

_REQUIRED = object()


class _Values(dict):
    """Check keywords parsed so far, and the configured densities."""

    def __init__(self, densities):
        super().__init__()
        self.densities = densities


@dataclass(frozen=True)
class _Field:
    # (raw JSON value, _Values) -> value; ValueError, TypeError or
    # ArithmeticError rejects the field
    parse: Callable
    # raw value parsed like a given one; None: optional, passed as None
    default: object = _REQUIRED
    # check keyword when it is not the field name; a later field with the
    # same keyword builds on the earlier field's value
    arg: str | None = None


class _Check:
    """One check: doc line, check function name, fields, rules function
    name.

    The module defining the check function, which the package's public
    names record, is imported the first time a map is parsed or run.  Both
    functions are looked up by name at each call, and `run` is a plain
    attribute holding one bound method, so a profiler can wrap either and
    put back the very same object.
    """

    def __init__(self, doc, target, fields, rules):
        self.doc = doc
        self.target = target
        self.fields = fields
        self.rules_name = rules
        self.run = self._run

    def _function(self, name):
        module = importlib.import_module(
            f"{__package__}.{_MODULE_OF[self.target]}")
        return getattr(module, name)

    @property
    def rules(self) -> Callable:
        """The rules function, which raises ParameterError naming the
        keyword of a broken rule."""
        return self._function(self.rules_name)

    def parse(self, params, densities, section) -> dict:
        """Check keywords for one parameter map, or a ConfigError naming
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
            self.rules(**v)
        except ParameterError as exc:
            # the first field that sets the keyword
            setter = next((name for name, fld in self.fields.items()
                           if (fld.arg or name) == exc.param), exc.param)
            raise ConfigError(section, setter, exc.message) from exc
        return dict(v)

    def _run(self, kwargs, rng):
        return self._function(self.target)(rng=rng, **kwargs)


# Field parsers.

def _number(raw, lo=None, hi=None, integer=False):
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ValueError(f"must be a number, got {raw!r}")
    if isinstance(raw, float) and not math.isfinite(raw):
        raise ValueError(f"must be finite, got {raw!r}")
    if integer and int(raw) != raw:
        raise ValueError(f"must be an integer, got {raw!r}")
    if lo is not None and raw < lo:
        raise ValueError(f"must be >= {lo}, got {raw}")
    if hi is not None and raw > hi:
        raise ValueError(f"must be <= {hi}, got {raw}")
    return int(raw) if integer else float(raw)


def _int(default=_REQUIRED):
    # counts must fit numpy's index type; MemoryError says the rest
    return _Field(lambda raw, v: _number(raw, hi=np.iinfo(np.intp).max,
                                         integer=True), default)


def _real(default=_REQUIRED):
    return _Field(lambda raw, v: _number(raw), default)


def _density(raw, v):
    if not isinstance(raw, str) or raw not in v.densities:
        raise ValueError(f"must name a configured density, got {raw!r}")
    return v.densities[raw]


def _densities(raw, v):
    if not isinstance(raw, list) or not raw:
        raise ValueError("must be a nonempty list of density names")
    return [_density(name, v) for name in raw]


def _numbers(raw, v):
    if not isinstance(raw, list):
        raise ValueError("must be a list of numbers")
    return [_number(x) for x in raw]


def _powers(raw, v):
    """spec_p: one integrability power per density, a number or "inf"."""
    if not isinstance(raw, list) or not raw:
        raise ValueError("must be a nonempty list")
    ps = tuple(math.inf if p == "inf" else _number(p) for p in raw)
    if min(ps) <= 0.0:
        raise ValueError(f"powers must be positive (or \"inf\"), got {raw}")
    return ps


def _exponent_spec(raw, v):
    """spec_alpha: outer exponents, completing the spec_p powers."""
    from .functionals import ExponentSpec
    if not isinstance(raw, list) or len(raw) != len(v["spec"]):
        raise ValueError("must be a list as long as spec_p")
    return ExponentSpec(v["spec"], tuple(_number(a) for a in raw))


def _named(depth: int):
    """Parser of a name, kept as given ('shear', 'random'), or an _array
    of the depth (a map's matrix, a shift's vector)."""
    array = _array(depth)
    return lambda raw, v: raw if isinstance(raw, str) else array(raw)


def _subspace(raw, v):
    """Axis list, or an n x k basis, n the dimension of the density f, as a
    read-only basis array; the check's rules ask that it be orthonormal."""
    n = v["f"].n
    if isinstance(raw, list) and not any(isinstance(a, list) for a in raw):
        axes = [_number(a, integer=True) for a in raw]
        if not all(a in range(n) for a in axes) or len(set(axes)) != len(axes):
            raise ValueError(f"axis list must be distinct ints in [0,{n})")
        basis = np.zeros((n, len(axes)))
        basis[axes, np.arange(len(axes))] = 1.0
    else:
        basis = _array(2)(raw)
        if basis.shape[0] != n:
            raise ValueError("must be an axis list or an n x k basis")
    basis.setflags(write=False)
    return basis


def _flag(raw, v=None):
    if not isinstance(raw, bool):
        raise ValueError(f"must be true or false, got {raw!r}")
    return raw


def _method(raw, v):
    """A method name ('exact'), or a name and a point count (['mc', N])."""
    if isinstance(raw, list) and len(raw) == 2:
        return raw[0], _number(raw[1], integer=True)
    return raw


_DENSITY = _Field(_density, arg="f")
_DENSITIES = _Field(_densities, arg="f_list")
_SPEC_P = _Field(_powers, arg="spec")
_SPEC_ALPHA = _Field(_exponent_spec, arg="spec")
_MAP = _Field(_named(2), default="rotation", arg="g")
_METHOD = _Field(_method, default="exact")
_EQUALITY = _Field(_flag, default=False)

CHECKS: dict[str, _Check] = {
    "bp_subspace": _Check(
        "simplex-moment decomposition over linear sections",
        "check_bp_subspace",
        {"densities": _DENSITIES, "k": _int(), "p": _real(0.0),
         "n_direct": _int(), "n_subspaces": _int(), "inner": _int(256)},
        "_bp_subspace_rules"),
    "bp_flat": _Check(
        "simplex-moment decomposition over affine sections",
        "check_bp_flat",
        {"density": _DENSITY, "k": _int(), "p": _real(0.0), "R": _real(),
         "n_direct": _int(0), "n_flats": _int(), "inner": _int(256)},
        "_bp_flat_rules"),
    "linear_invariance": _Check(
        "section-norm average under a volume-preserving linear map",
        "check_linear_invariance",
        {"densities": _DENSITIES, "k": _int(), "spec_p": _SPEC_P,
         "spec_alpha": _SPEC_ALPHA, "map": _MAP, "n_subspaces": _int(),
         "method": _METHOD},
        "_linear_invariance_rules"),
    "affine_invariance": _Check(
        "section-norm flat average under a volume-preserving affine map",
        "check_affine_invariance",
        {"densities": _DENSITIES, "k": _int(), "spec_p": _SPEC_P,
         "spec_alpha": _SPEC_ALPHA, "map": _MAP,
         "shift": _Field(_named(1), default="random"),
         "R": _real(), "n_flats": _int(), "method": _METHOD},
        "_affine_invariance_rules"),
    "rearrangement_chain": _Check(
        "simplex functional vs rearranged and ball inputs",
        "check_rearrangement_monotonicity",
        {"densities": _DENSITIES, "p": _real(),
         "case": _Field(lambda raw, v: raw, default="cone"),
         "n_samples": _int()},
        "_rearrangement_rules"),
    "grinberg_functional": _Check(
        "L1/sup section-norm average inequality",
        "check_grinberg_functional",
        {"densities": _DENSITIES, "k": _int(), "p": _real(0.0),
         "n_subspaces": _int(), "method": _METHOD,
         "expect_equality": _EQUALITY},
        "_grinberg_rules"),
    "schneider_functional": _Check(
        "flat-average mass/sup inequality over a window of the support radius",
        "check_schneider_functional",
        {"density": _DENSITY, "k": _int(), "n_flats": _int(),
         "method": _METHOD, "expect_equality": _EQUALITY},
        "_schneider_rules"),
    "marginal_bound": _Check(
        "Markov-set marginal bound with fitted constants",
        "marginal_bound_experiment",
        {"density": _DENSITY, "k": _int(), "s": _real(), "t": _real(),
         "n_subspaces": _int(), "n_x": _int(),
         "adversarial": _Field(_subspace, default=None)},
        "_marginal_bound_rules"),
    "gaussian_sharpness": _Check(
        "skewed-Gaussian sharpness of the marginal sup bound",
        "gaussian_sharpness_experiment",
        {"n": _int(), "k": _int(), "s": _real(), "n_subspaces": _int()},
        "_sharpness_rules"),
    "perturbation": _Check(
        "nearby subspace with near-optimal small-ball mass",
        "perturbation_experiment",
        {"density": _DENSITY, "k": _int(),
         "subspace": _Field(_subspace, arg="E"), "eta": _real(),
         "eps_grid": _Field(_numbers), "n_samples": _int(),
         "n_candidates": _int(32)},
        "_perturbation_rules"),
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


def report_name(label: str) -> str:
    """File name stem of a check's report: each run of characters other
    than letters, digits, '-', '.' and '_' in the label becomes one '-'."""
    return re.sub(r"[^-._a-zA-Z0-9]+", "-", label)


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
        read = parser.read(path, encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError("run", "path", f"config file {path!r} is not "
                          f"valid UTF-8: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(getattr(exc, "section", None) or "run",
                          getattr(exc, "option", None) or "section",
                          exc.message) from exc
    if not read:
        raise ConfigError("run", "path", f"cannot read config file {path!r}")

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
    if not isinstance(output_dir, str) or not output_dir:
        raise ConfigError("run", "output_dir", "must be a nonempty path")
    if run_raw:
        raise ConfigError("run", ", ".join(sorted(run_raw)),
                          "unknown fields")
    if seed_override is not None:
        seed = _seed(seed_override)
    if output_override is not None:
        output_dir = output_override

    densities: dict[str, DensityModel] = {}
    density_specs: dict[str, dict] = {}
    # report_name(label) -> (label, check name, params)
    checks: dict[str, tuple] = {}
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
                densities[parts[1]] = build_density(items)
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
            label, stem = parts[1], report_name(parts[1])
            if stem in checks:
                raise ConfigError(section, "section",
                                  f"label {label!r} shares the report file "
                                  f"{stem}.json with {checks[stem][0]!r}")
            checks[stem] = label, name, items
        else:
            raise ConfigError(section, "section",
                              "sections must be [run], [density <name>], "
                              "or [check <label>]")

    jobs = [CheckJob(label, name, params, CHECKS[name].parse(
        params, densities, f"check {label}"))
        for label, name, params in checks.values()]
    return RunConfig(seed=seed, output_dir=output_dir, densities=densities,
                     checks=jobs, density_specs=density_specs)
