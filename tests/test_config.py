"""Config parsing: density builders, check validation, failure modes.

Everything here must fail at parse time, before any sampling starts; a
bad config that dies twenty minutes into a run is the bug these tests
pin down.
"""

import configparser
import inspect
import json
import math
import os
import pathlib
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from igeolab import config, sharpness, verify
from igeolab.config import ConfigError, build_density, load_config
from igeolab.densities import (EllipsoidIndicator, GaussianDensity,
                               ProductDensity, RadialGridDensity, Step1D,
                               TruncatedGaussian)
from igeolab.functionals import ExponentSpec
from igeolab.rearrange import rearrangement
from igeolab.report import ParameterError


def write_config(tmp_path, body):
    path = tmp_path / "suite.ini"
    path.write_text(textwrap.dedent(body))
    return str(path)


MINIMAL = """
    [run]
    seed = 42
    output_dir = "out"

    [density ball]
    kind = "ellipsoid"
    n = 2
    radius = 1.0
"""


def test_minimal_roundtrip(tmp_path):
    cfg = load_config(write_config(tmp_path, MINIMAL))
    assert cfg.seed == 42
    assert isinstance(cfg.densities["ball"], EllipsoidIndicator)
    assert cfg.checks == []
    assert len(cfg.resolved_hash()) == 64


def test_seed_and_output_overrides(tmp_path):
    path = write_config(tmp_path, MINIMAL)
    cfg = load_config(path, seed_override=7, output_override="elsewhere")
    assert cfg.seed == 7
    assert cfg.output_dir == "elsewhere"
    # hash tracks the resolved configuration, so overrides change it
    assert cfg.resolved_hash() != load_config(path).resolved_hash()


def test_empty_output_dir_rejected(tmp_path):
    # "" would write results.csv and reports/ into the working directory
    body = MINIMAL.replace('output_dir = "out"', 'output_dir = ""')
    with pytest.raises(ConfigError) as err:
        load_config(write_config(tmp_path, body))
    assert (err.value.section, err.value.field) == ("run", "output_dir")


def test_density_builders():
    gauss = build_density({"kind": "gaussian", "n": 3})
    assert isinstance(gauss, GaussianDensity) and gauss.n == 3
    skew = build_density({"kind": "gaussian", "mean": [0.0, 1.0],
                          "cov": [[2.0, 0.1], [0.1, 0.5]]})
    assert skew.cov[0][0] == 2.0
    ell = build_density({"kind": "ellipsoid", "shape": [[1.0, 0.0], [0.0, 4.0]],
                         "center": [0.5, 0.0]})
    assert isinstance(ell, EllipsoidIndicator)
    trunc = build_density({"kind": "truncated_gaussian", "n": 2, "tau": 0.5,
                           "radius": 1.0})
    assert isinstance(trunc, TruncatedGaussian)
    assert trunc.mass == pytest.approx(1.0)  # built normalized
    rad = build_density({"kind": "radial", "radius": 1.0,
                         "heights": [2.0, 1.0], "n": 2})
    assert isinstance(rad, RadialGridDensity)
    prod = build_density({"kind": "product",
                          "factors": [{"heights": [1.0, 2.0]},
                                      {"heights": [1.0], "lo": -1.0, "hi": 1.0}]})
    assert isinstance(prod, ProductDensity)
    assert prod.factors[1].hi == 1.0


def test_density_normalize_flag():
    f = build_density({"kind": "ellipsoid", "n": 2, "radius": 2.0,
                       "normalize": True})
    assert f.mass == pytest.approx(1.0)


def test_density_rejects_unknown_fields():
    with pytest.raises(ConfigError):
        build_density({"kind": "gaussian", "n": 2, "wobble": 3})
    with pytest.raises(ConfigError):
        build_density({"kind": "mystery", "n": 2})


def test_unknown_check_rejected(tmp_path):
    path = write_config(tmp_path, MINIMAL + """
    [check mystery]
    check = "quantum_leap"
    """)
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert "quantum_leap" in str(err.value)
    assert "bp_subspace" in str(err.value)  # lists what it does know


def test_duplicate_labels_rejected(tmp_path):
    # distinct section headers that normalize to the same label
    body = MINIMAL + """
    [check twin]
    check = "schneider_functional"
    density = "ball"
    k = 1
    n_flats = 100

    [check  twin]
    check = "schneider_functional"
    density = "ball"
    k = 1
    n_flats = 100
    """
    with pytest.raises(ConfigError) as err:
        load_config(write_config(tmp_path, body))
    assert "twin" in str(err.value)


def test_labels_sharing_a_report_file_rejected(tmp_path):
    # both labels name the report file reports/grinberg-a-b.json
    check = """
    check = "schneider_functional"
    density = "ball"
    k = 1
    n_flats = 100
    """
    body = MINIMAL + "\n    [check grinberg a/b]" + check \
        + "\n    [check grinberg a:b]" + check
    with pytest.raises(ConfigError) as err:
        load_config(write_config(tmp_path, body))
    assert err.value.section == "check grinberg a:b"
    assert "grinberg-a-b.json" in err.value.message
    assert config.report_name("grinberg a/b") == "grinberg-a-b"


def test_precondition_violations_rejected_at_parse(tmp_path):
    # k out of range for the density dimension
    body = MINIMAL + """
    [check bad-k]
    check = "bp_subspace"
    densities = ["ball"]
    k = 5
    p = 1.0
    n_direct = 100
    n_subspaces = 10
    """
    with pytest.raises(ConfigError) as err:
        load_config(write_config(tmp_path, body))
    assert "bad-k" in str(err.value) or "k" in str(err.value)

    # missing required field (the flat budget has no default)
    body = MINIMAL + """
    [check no-budget]
    check = "schneider_functional"
    density = "ball"
    k = 1
    """
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, body))

    # equality case demands the sharp exponent pairing, and p > n - k
    # has no finite flat integral to check against
    body = MINIMAL + """
    [check p-too-big]
    check = "grinberg_functional"
    densities = ["ball"]
    k = 1
    p = 3.5
    n_subspaces = 100
    """
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, body))


def test_unknown_density_reference_rejected(tmp_path):
    body = MINIMAL + """
    [check ghosts]
    check = "schneider_functional"
    density = "phantom"
    k = 1
    n_flats = 100
    """
    with pytest.raises(ConfigError) as err:
        load_config(write_config(tmp_path, body))
    assert "phantom" in str(err.value)


def test_map_must_preserve_volume(tmp_path):
    body = MINIMAL + """
    [density g2]
    kind = "gaussian"
    n = 2

    [check stretchy]
    check = "linear_invariance"
    densities = ["g2"]
    spec_p = [1.0]
    spec_alpha = [2.0]
    k = 1
    map = [[2.0, 0.0], [0.0, 1.0]]
    n_subspaces = 100
    """
    with pytest.raises(ConfigError) as err:
        load_config(write_config(tmp_path, body))
    assert "volume" in str(err.value)


def test_bad_json_value_is_reported_with_location(tmp_path):
    body = """
    [run]
    seed = not-a-number
    output_dir = "out"
    """
    with pytest.raises(ConfigError) as err:
        load_config(write_config(tmp_path, body))
    msg = str(err.value)
    assert "[run]" in msg and "seed" in msg


def test_case_sensitive_keys(tmp_path):
    # R and other uppercase keys must survive the parser
    body = MINIMAL + """
    [check cased]
    check = "bp_flat"
    density = "ball"
    k = 1
    R = 1.5
    n_flats = 128
    """
    cfg = load_config(write_config(tmp_path, body))
    assert cfg.checks[0].params["R"] == 1.5


def test_spec_p_accepts_inf_strings(tmp_path):
    body = MINIMAL + """
    [density g2]
    kind = "gaussian"
    n = 2

    [check supnorm]
    check = "linear_invariance"
    densities = ["g2", "g2"]
    spec_p = [1.0, "inf"]
    spec_alpha = [2.0, 5.0]
    k = 1
    map = "shear"
    n_subspaces = 64
    """
    cfg = load_config(write_config(tmp_path, body))
    assert cfg.checks[0].params["spec_p"][1] == "inf"


def test_config_error_formatting():
    err = ConfigError("check foo", "R", "required")
    assert "[check foo]" in str(err)
    assert "R" in str(err)


ROOT = pathlib.Path(__file__).resolve().parents[1]
SHIPPED = sorted(str(p.relative_to(ROOT)) for pattern in
                 ("configs/*.ini", "bench/workloads/*.ini")
                 for p in ROOT.glob(pattern))

GRINBERG = {"check": '"grinberg_functional"', "densities": '["ball"]',
            "k": "1", "n_subspaces": "64"}
BP_SUBSPACE = {"check": '"bp_subspace"', "densities": '["ball"]', "k": "1",
               "p": "1.0", "n_direct": "8", "n_subspaces": "8",
               "inner": "4"}
BP_FLAT = {"check": '"bp_flat"', "density": '"ball"', "k": "1", "R": "1.0",
           "n_flats": "8", "inner": "4"}
LINEAR = {"check": '"linear_invariance"', "densities": '["ball"]',
          "k": "1", "spec_p": "[1.0]", "spec_alpha": "[2.0]",
          "map": '"shear"', "n_subspaces": "8"}
MARGINAL = {"check": '"marginal_bound"', "density": '"unit"', "k": "1",
            "s": "2.0", "t": "2.0", "n_subspaces": "8", "n_x": "20",
            "adversarial": "[0]"}
PERTURBATION = {"check": '"perturbation"', "density": '"unit"', "k": "1",
                "subspace": "[0]", "eta": "0.5", "eps_grid": "[0.1]",
                "n_samples": "100"}
AFFINE = {"check": '"affine_invariance"', "densities": '["ball"]', "k": "1",
          "spec_p": "[1.0]", "spec_alpha": "[3.0]", "map": '"shear"',
          "shift": "[0.0, 0.0]", "R": "1.0", "n_flats": "8"}
REARRANGEMENT = {"check": '"rearrangement_chain"', "densities": '["unit"]',
                 "p": "1.0", "n_samples": "100"}
SCHNEIDER = {"check": '"schneider_functional"', "density": '"ball"',
             "k": "1", "n_flats": "8"}
SHARPNESS = {"check": '"gaussian_sharpness"', "n": "3", "k": "1", "s": "1.5",
             "n_subspaces": "8"}


# 550 x 550 boxes, past the box enumeration of product rearrangements
HUGE_HEIGHTS = [1.0] * 550


def check_section(fields):
    return MINIMAL + """
    [density unit]
    kind = "ellipsoid"
    n = 2
    normalize = true

    [density gauss]
    kind = "gaussian"
    n = 2

    [density box]
    kind = "product"
    factors = [{"heights": [1.0]}, {"heights": [1.0]}, {"heights": [1.0]}]

    [density trunc]
    kind = "truncated_gaussian"
    n = 2
    tau = 1.0
    radius = 1.0

    [density tiny]
    kind = "product"
    factors = [{"lo": -2.0, "hi": 2.0, "heights": [1e-162]},
               {"lo": -2.0, "hi": 2.0, "heights": [1e-162]}]

    [density wide]
    kind = "product"
    factors = [{"lo": -2e162, "hi": 2e162, "heights": [2.5e-163]},
               {"lo": -2e162, "hi": 2e162, "heights": [2.5e-163]}]

    [density huge]
    kind = "product"
    factors = [{"heights": %s}, {"heights": %s}]

    [density loud]
    kind = "ellipsoid"
    n = 2
    amplitude = 1e200

    [density loud3]
    kind = "ellipsoid"
    n = 3
    amplitude = 1e300

    [density ball3]
    kind = "ellipsoid"
    n = 3

    [density far]
    kind = "ellipsoid"
    n = 4
    center = [1e150, 0.0, 0.0, 0.0]

    [check bad]
""" % (HUGE_HEIGHTS, HUGE_HEIGHTS) + "".join(f"    {key} = {value}\n" for key, value in fields.items())


@pytest.mark.parametrize("base, changes, field_name", [
    (GRINBERG, {"n_subspaces": "Infinity"}, "n_subspaces"),
    # counts must fit numpy's index type
    (GRINBERG, {"n_subspaces": "1e30"}, "n_subspaces"),
    (GRINBERG, {"n_subspaces": "9223372036854775808"}, "n_subspaces"),
    # ... and be a float64 array numpy can address
    (GRINBERG, {"n_subspaces": "1152921504606846976"}, "n_subspaces"),
    (LINEAR, {"method": '["mc", 4000000000000000000]'}, "method"),
    (GRINBERG, {"p": "NaN"}, "p"),
    (GRINBERG, {"expect_equality": '"no"'}, "expect_equality"),
    (GRINBERG, {"expect_equality": "1"}, "expect_equality"),
    (LINEAR, {"method": '["mc", 1]'}, "method"),
    (LINEAR, {"method": '["mc", 2.5]'}, "method"),
    # the point count is a count, bounded as every other count
    (LINEAR, {"method": '["mc", 1e300]'}, "method"),
    (LINEAR, {"method": '"bogus"'}, "method"),
    (GRINBERG, {"n_flatz": "9"}, "n_flatz"),
    # a check name is a string, not a list or a map
    (GRINBERG, {"check": '["grinberg_functional"]'}, "check"),
    (GRINBERG, {"check": '{"name": "grinberg_functional"}'}, "check"),
    (GRINBERG, {"check": '"bp_subspace"', "method": '"exact"'}, "method"),
    # a budget is one Monte Carlo mean of >= 2 samples
    (BP_SUBSPACE, {"n_direct": "1"}, "n_direct"),
    (BP_SUBSPACE, {"n_subspaces": "1"}, "n_subspaces"),
    (BP_FLAT, {"n_flats": "1"}, "n_flats"),
    # constants, not fields: bp_flat's ambient side is the exact mass^(k+1)
    # (an offset exponent is refused on p itself), and three checks read
    # exact sections only
    (BP_FLAT, {"p": "1.0"}, "p"),
    (BP_FLAT, {"n_direct": "8"}, "n_direct"),
    (GRINBERG, {"method": '"exact"'}, "method"),
    (SCHNEIDER, {"method": '"exact"'}, "method"),
    (AFFINE, {"method": '"exact"'}, "method"),
    # a rotation tests nothing that the Haar average does not hold by
    # construction, and a shift is a vector
    (AFFINE, {"map": '"rotation"'}, "map"),
    (LINEAR, {"map": '"rotation"'}, "map"),
    (AFFINE, {"shift": '"random"'}, "shift"),
    # affine_image's determinant tolerance, not a looser one
    (LINEAR, {"map": "[[1.0000000005, 0.0], [0.0, 1.0]]"}, "map"),
    (LINEAR, {"map": '"reflection"'}, "map"),
    (PERTURBATION, {"eta": "2.5"}, "eta"),
    (MARGINAL, {"adversarial": "[0, 1]"}, "adversarial"),
    # an axis is an integer, and JSON's true is not one
    (MARGINAL, {"adversarial": "[true]"}, "adversarial"),
    (PERTURBATION, {"subspace": "[true]"}, "subspace"),
    # nor is it an entry of a matrix: these would load as I and e1
    (LINEAR, {"map": "[[true, false], [false, true]]"}, "map"),
    (PERTURBATION, {"subspace": "[[true], [false]]"}, "subspace"),
    (MARGINAL, {"adversarial": "[[true], [false]]"}, "adversarial"),
    (AFFINE, {"shift": "[true, false]"}, "shift"),
    # a basis has n = 2 rows and at least one column
    (PERTURBATION, {"subspace": "[[1.0, 0.0]]"}, "subspace"),
    (PERTURBATION, {"subspace": "[]"}, "subspace"),
    # Monte Carlo section stats sample a window around a bounded support
    (LINEAR, {"densities": '["gauss"]', "method": '["mc", 8]'}, "method"),
    # method "exact" needs closed-form sections of the density and its image
    (LINEAR, {"densities": '["box"]', "k": "2"}, "method"),
    (LINEAR, {"densities": '["trunc"]'}, "method"),
    (BP_SUBSPACE, {"densities": '["box"]', "k": "2"}, "densities"),
    # f* is exact, so the chain has no level grid to size
    (REARRANGEMENT, {"levels": "1000"}, "levels"),
    # the window is the support radius, so there is no window to set
    (SCHNEIDER, {"R": "1.5"}, "R"),
], ids=["infinite-count", "count-1e30", "count-intp-max-plus-one",
        "count-past-float64-array", "mc-count-4e18", "nan-p",
        "string-flag", "int-flag", "mc-one", "mc-fraction", "mc-count-1e300",
        "unknown-method",
        "unknown-field", "check-list", "check-map",
        "method-where-not-taken", "bp-subspace-direct-1",
        "bp-subspace-subspaces-1", "bp-flat-flats-1",
        "bp-flat-offset-without-direct", "bp-flat-n-direct", "grinberg-method",
        "schneider-method", "affine-method", "affine-rotation",
        "linear-rotation", "affine-random-shift", "map-det-off-by-5e-10",
        "unknown-map-name", "eta-above-2", "adversarial-wrong-dim",
        "adversarial-bool-axis", "subspace-bool-axis", "map-bool-matrix",
        "subspace-bool-basis", "adversarial-bool-basis", "shift-bool-vector",
        "subspace-one-row",
        "subspace-no-axes",
        "linear-mc-unbounded",
        "linear-exact-product-plane", "linear-exact-truncated-shear",
        "bp-subspace-product-plane", "rearrangement-levels",
        "schneider-window-field"])
def test_malformed_fields_rejected(tmp_path, base, changes, field_name):
    # the base section loads, so each change alone is what gets rejected
    load_config(write_config(tmp_path, check_section(base)))
    body = check_section({**base, **changes})
    with pytest.raises(ConfigError) as err:
        load_config(write_config(tmp_path, body))
    assert (err.value.section, err.value.field) == ("check bad", field_name)


@pytest.mark.parametrize("fields, field_name", [
    ({"kind": '"gaussian"', "n": "3", "cov": "NaN"}, "cov"),
    ({"kind": '"gaussian"', "cov": "[[1.0, 0.0], [0.0, Infinity]]",
      "mean": "[0.0, 0.0]"}, "cov"),
    ({"kind": '"ellipsoid"', "n": "2", "radius": "NaN"}, "radius"),
    ({"kind": '"truncated_gaussian"', "n": "2", "tau": "0.0",
      "radius": "1.0"}, "tau"),
    ({"kind": '"radial"', "n": "2.5", "radius": "1.0",
      "heights": "[1.0]"}, "n"),
    ({"kind": '"gaussian"', "n": "100000000000"}, "n"),
    ({"kind": '"product"', "factors": '[{"heights": [1.0], "top": 2}]'},
     "factors"),
    ({"kind": '"ellipsoid"', "n": "2", "normalize": "1"}, "normalize"),
    ({"kind": '"radial"', "n": "2", "radius": "1.0", "heights": "[0.0]",
      "normalize": "true"}, "normalize"),
    ({"kind": '"radial"', "n": "2", "radius": "1.0",
      "heights": "[1.0, -0.5]"}, "heights"),
    ({"kind": '"radial"', "n": "2", "radius": "1.0", "heights": "[]"},
     "heights"),
    ({"kind": '"radial"', "n": "3", "radius": "NaN", "heights": "[1.0]"},
     "radius"),
    ({"kind": '"radial"', "n": "3", "radius": "Infinity",
      "heights": "[1.0]"}, "radius"),
    ({"kind": '"radial"', "n": "0", "radius": "1.0", "heights": "[1.0]"},
     "n"),
    ({"kind": '"radial"', "n": "-1", "radius": "1.0", "heights": "[1.0]"},
     "n"),
    ({"kind": '"product"',
      "factors": '[{"heights": [1.0, "x"]}, {"heights": [1.0]}]'},
     "factors"),
    # "file" names no density family
    ({"kind": '"file"', "path": '"box.txt"'}, "kind"),
    ({"kind": '"gaussian"', "n": "2", "amplitude": "-1.0"}, "amplitude"),
    ({"kind": '"gaussian"', "n": "2", "amplitude": "0.0"}, "amplitude"),
    ({"kind": '"product"', "factors": '[{"heights": [1.0]}]',
      "amplitude": "-1.0"}, "amplitude"),
    ({"kind": '"truncated_gaussian"', "n": "2", "tau": "1.0",
      "radius": "1.0", "amplitude": "-1.0"}, "amplitude"),
    ({"kind": '"truncated_gaussian"', "n": "2", "tau": "1.0",
      "radius": "1.0", "amplitude": "0.0"}, "amplitude"),
    ({"kind": '"ellipsoid"', "n": "2", "amplitude": "0.0"}, "amplitude"),
    ({"kind": '"radial"', "n": "2", "radius": "1.0",
      "heights": "[0.0, 0.0]"}, "heights"),
    ({"kind": '"product"',
      "factors": '[{"heights": [1.0]}, {"heights": [0.0, 0.0]}]'},
     "factors"),
    # JSON's true and false are no entries of a vector or matrix
    ({"kind": '"truncated_gaussian"', "center": "[true, false]", "tau": "1.0",
      "radius": "1.0"}, "center"),
    ({"kind": '"gaussian"', "mean": "[0.0, 0.0]",
      "cov": "[[true, false], [false, true]]"}, "cov"),
    ({"kind": '"radial"', "n": "2", "radius": "1.0", "heights": "[true]"},
     "heights"),
    ({"kind": '"product"', "factors": '[{"heights": [true]}]'}, "factors"),
    ({"kind": '"gaussian"', "mean": "[]"}, "mean"),
    ({"kind": '"truncated_gaussian"', "center": "[[0.0]]", "tau": "1.0",
      "radius": "1.0"}, "center"),
    ({"kind": '"ellipsoid"', "shape": "[[1.0, 0.0], [0.0, -1.0]]"}, "shape"),
    ({"kind": '"ellipsoid"', "shape": "[[1.0, 0.5], [0.0, 1.0]]"}, "shape"),
    ({"kind": '"ellipsoid"', "shape": "[[1.0, 0.0], [0.0, 1.0]]",
      "center": "[0.0]"}, "center"),
    ({"kind": '"gaussian"', "mean": "[0.0, 0.0]",
      "cov": "[[1.0, 0.0], [0.0, -1.0]]"}, "cov"),
    ({"kind": '"gaussian"', "mean": "[0.0, 0.0]", "cov": "[[1.0]]"}, "cov"),
    ({"kind": '"gaussian"', "n": "2", "cov": "-1.0"}, "cov"),
    ({"kind": '"ellipsoid"', "n": "2", "radius": "1e200"}, "radius"),
    ({"kind": '"ellipsoid"', "shape": "[[1e-310, 0.0], [0.0, 1e-310]]"},
     "shape"),
    ({"kind": '"ellipsoid"', "shape": str(np.diag([1e-210] * 3).tolist())},
     "shape"),
    # every axis passes the scale check, but the volume overflows
    ({"kind": '"ellipsoid"', "n": "5", "radius": "4e61"}, "radius"),
    ({"kind": '"ellipsoid"', "shape": str(np.diag([6.25e-124] * 5).tolist())},
     "shape"),
    ({"kind": '"gaussian"', "n": "2", "cov": "1e-320"}, "cov"),
    ({"kind": '"gaussian"', "mean": "[0.0, 0.0]",
      "cov": "[[1e-320, 0.0], [0.0, 1.0]]"}, "cov"),
    ({"kind": '"gaussian"', "n": "3", "cov": "1e250"}, "cov"),
    ({"kind": '"truncated_gaussian"', "n": "2", "tau": "1e200",
      "radius": "1.0"}, "tau"),
    ({"kind": '"radial"', "n": "2", "radius": "1e200", "heights": "[1.0]"},
     "radius"),
    ({"kind": '"radial"', "n": "2", "radius": "1e200",
      "heights": "[1.0, 0.5]"}, "radius"),
    ({"kind": '"radial"', "n": "2", "edges": "[0.0, 1e200]",
      "heights": "[1.0]"}, "edges"),
    ({"kind": '"radial"', "n": "2", "radius": "1e-200", "heights": "[1.0]"},
     "radius"),
    ({"kind": '"ellipsoid"', "n": "2", "amplitude": "1e-310",
      "normalize": "true"}, "normalize"),
    ({"kind": '"ellipsoid"', "n": "3", "radius": "1e-120"}, "radius"),
    ({"kind": '"truncated_gaussian"', "n": "2", "tau": "1e-200",
      "radius": "1.0"}, "tau"),
    ({"kind": '"truncated_gaussian"', "n": "2", "tau": "1.0",
      "radius": "1e200"}, "radius"),
    ({"kind": '"truncated_gaussian"', "n": "2", "tau": "1e150",
      "radius": "1e-150"}, "radius"),
    ({"kind": '"product"', "factors": '[{"heights": [1e-320]}, '
      '{"heights": [1.0]}]', "normalize": "true"}, "normalize"),
], ids=["nan-cov", "infinite-cov-entry", "nan-radius", "zero-tau",
        "fractional-n", "n-too-large", "unknown-factor-key", "int-flag",
        "normalize-zero-mass", "negative-height", "no-heights",
        "radial-nan-radius", "radial-infinite-radius", "radial-zero-n",
        "radial-negative-n", "product-string-height", "file-kind",
        "negative-amplitude",
        "zero-amplitude", "product-negative-amplitude",
        "truncated-negative-amplitude", "truncated-zero-amplitude",
        "ellipsoid-zero-amplitude", "radial-zero-heights",
        "product-zero-factor", "bool-center",
        "bool-cov", "bool-heights", "bool-factor-heights", "empty-mean",
        "matrix-center", "indefinite-shape", "asymmetric-shape",
        "short-center", "indefinite-cov", "cov-size-mismatch",
        "negative-scalar-cov", "overflowing-radius",
        "infinite-mass", "ellipsoid-overflowing-axis",
        "ellipsoid-infinite-mass-radius", "ellipsoid-infinite-mass-shape",
        "underflowing-scalar-cov", "underflowing-cov-axis",
        "overflowing-scalar-cov", "overflowing-tau",
        "radial-overflowing-radius", "radial-overflowing-radius-nan",
        "radial-overflowing-edges", "radial-underflowing-radius",
        "normalize-overflow", "underflowing-ball-volume", "underflowing-tau",
        "truncated-overflowing-radius", "truncated-empty-cut",
        "product-normalize-overflow"])
@pytest.mark.filterwarnings("error")
def test_malformed_density_fields_rejected(tmp_path, fields, field_name):
    body = MINIMAL + "\n    [density bad]\n" + "".join(
        f"    {key} = {value}\n" for key, value in fields.items())
    with pytest.raises(ConfigError) as err:
        load_config(write_config(tmp_path, body))
    assert (err.value.section, err.value.field) == ("density bad", field_name)
    assert str(err.value).startswith(f"[density bad] {field_name}: ")


# Degenerate inputs, each checked through both entry points: the Python
# constructor call, the parameter its ParameterError names, the spec map
# that asks build_density for the same density, and the field its
# ConfigError names.
DEGENERATE = {
    "indefinite-cov": (
        lambda: GaussianDensity([0.0, 0.0], np.diag([1.0, -1.0])), "cov",
        {"kind": "gaussian", "mean": [0.0, 0.0],
         "cov": [[1.0, 0.0], [0.0, -1.0]]}, "cov"),
    "underflowing-cov-axis": (
        lambda: GaussianDensity([0.0, 0.0], np.diag([1e-320, 1.0])), "cov",
        {"kind": "gaussian", "n": 2, "cov": 1e-320}, "cov"),
    "overflowing-cov-axis": (
        lambda: GaussianDensity(np.zeros(3), np.diag([1.0, 1.0, 1e250])),
        "cov", {"kind": "gaussian", "mean": [0.0, 0.0, 0.0],
                "cov": np.diag([1.0, 1.0, 1e250]).tolist()}, "cov"),
    "empty-mean": (
        lambda: GaussianDensity([], np.eye(1)), "mean",
        {"kind": "gaussian", "mean": []}, "mean"),
    "indefinite-shape": (
        lambda: EllipsoidIndicator(np.diag([1.0, -1.0])), "shape",
        {"kind": "ellipsoid", "shape": [[1.0, 0.0], [0.0, -1.0]]}, "shape"),
    "asymmetric-shape": (
        lambda: EllipsoidIndicator([[1.0, 0.5], [0.0, 1.0]]), "shape",
        {"kind": "ellipsoid", "shape": [[1.0, 0.5], [0.0, 1.0]]}, "shape"),
    "overflowing-shape-axis": (
        lambda: EllipsoidIndicator(np.diag([1e-210] * 3)), "shape",
        {"kind": "ellipsoid", "shape": np.diag([1e-210] * 3).tolist()},
        "shape"),
    "underflowing-shape-axis": (
        lambda: EllipsoidIndicator(np.diag([1.0, 1.0, 1e250])), "shape",
        {"kind": "ellipsoid", "shape": np.diag([1.0, 1.0, 1e250]).tolist()},
        "shape"),
    "infinite-ellipsoid-volume": (
        lambda: EllipsoidIndicator(np.diag([6.25e-124] * 5)), "shape",
        {"kind": "ellipsoid", "shape": np.diag([6.25e-124] * 5).tolist()},
        "shape"),
    "short-center": (
        lambda: EllipsoidIndicator(np.eye(2), [0.0]), "center",
        {"kind": "ellipsoid", "n": 2, "center": [0.0]}, "center"),
    "underflowing-ball-radius": (
        lambda: EllipsoidIndicator.ball(3, 1e-120), "radius",
        {"kind": "ellipsoid", "n": 3, "radius": 1e-120}, "radius"),
    # radius^5 is finite, but the volume of the ball, a rule on the shape
    # matrix the constructor receives, overflows
    "infinite-ball-volume": (
        lambda: EllipsoidIndicator.ball(5, 4e61), "shape",
        {"kind": "ellipsoid", "n": 5, "radius": 4e61}, "radius"),
    "overflowing-tau": (
        lambda: TruncatedGaussian([0.0, 0.0], 1e200, 1.0), "tau",
        {"kind": "truncated_gaussian", "n": 2, "tau": 1e200,
         "radius": 1.0}, "tau"),
    "underflowing-tau": (
        lambda: TruncatedGaussian([0.0, 0.0], 1e-200, 1.0), "tau",
        {"kind": "truncated_gaussian", "n": 2, "tau": 1e-200,
         "radius": 1.0}, "tau"),
    "overflowing-truncation": (
        lambda: TruncatedGaussian([0.0, 0.0], 1.0, 1e200), "radius",
        {"kind": "truncated_gaussian", "n": 2, "tau": 1.0,
         "radius": 1e200}, "radius"),
    "empty-truncation": (
        lambda: TruncatedGaussian.normalized([0.0, 0.0], 1e150, 1e-150),
        "radius", {"kind": "truncated_gaussian", "n": 2, "tau": 1e150,
                   "radius": 1e-150}, "radius"),
    "negative-amplitude": (
        lambda: TruncatedGaussian([0.0, 0.0], 1.0, 1.0, -1.0), "amplitude",
        {"kind": "truncated_gaussian", "n": 2, "tau": 1.0, "radius": 1.0,
         "amplitude": -1.0}, "amplitude"),
    "overflowing-grid-radius": (
        lambda: RadialGridDensity.uniform(2, 1e200, [1.0]), "radius",
        {"kind": "radial", "n": 2, "radius": 1e200, "heights": [1.0]},
        "radius"),
    # the radius passes, but the innermost of ten shells underflows
    "underflowing-grid-shell": (
        lambda: RadialGridDensity.uniform(30, 1e-10, [1.0] * 10), "edges",
        {"kind": "radial", "n": 30, "radius": 1e-10, "heights": [1.0] * 10},
        "radius"),
    "underflowing-shell": (
        lambda: RadialGridDensity(3, [0.0, 1e-110, 1.0], [1.0, 1.0]),
        "edges", {"kind": "radial", "n": 3, "edges": [0.0, 1e-110, 1.0],
                  "heights": [1.0, 1.0]}, "edges"),
    "negative-height": (
        lambda: RadialGridDensity.uniform(2, 1.0, [1.0, -0.5]), "heights",
        {"kind": "radial", "n": 2, "radius": 1.0, "heights": [1.0, -0.5]},
        "heights"),
    "no-heights": (
        lambda: RadialGridDensity.uniform(2, 1.0, []), "heights",
        {"kind": "radial", "n": 2, "radius": 1.0, "heights": []},
        "heights"),
    "no-factors": (
        lambda: ProductDensity([]), "factors",
        {"kind": "product", "factors": []}, "factors"),
}


@pytest.mark.parametrize("name", DEGENERATE)
@pytest.mark.filterwarnings("error")
def test_degenerate_inputs_rejected_by_both_entry_points(name):
    build, param, spec, field_name = DEGENERATE[name]
    with pytest.raises(ParameterError) as err:
        build()
    assert err.value.param == param
    assert str(err.value).startswith(f"{param} ")
    with pytest.raises(ConfigError) as err:
        build_density(spec)
    assert (err.value.section, err.value.field) == ("density", field_name)


# The densities of check_section, built in Python.
BALL = EllipsoidIndicator.ball(2)
UNIT = BALL.scaled(1.0 / BALL.mass)
GAUSS = GaussianDensity(np.zeros(2), np.eye(2))
BOX = ProductDensity([Step1D.uniform(-0.5, 0.5, [1.0])] * 3)
TRUNC = TruncatedGaussian.normalized(np.zeros(2), 1.0, 1.0)
# sup 1e-324 underflows to 0, while the mass 1.6e-323 stays positive
TINY = ProductDensity([Step1D.uniform(-2.0, 2.0, [1e-162])] * 2)
# unit mass, with a sup of 6.25e-326 that underflows to 0
WIDE = ProductDensity([Step1D.uniform(-2e162, 2e162, [2.5e-163])] * 2)
HUGE = ProductDensity([Step1D.uniform(-0.5, 0.5, HUGE_HEIGHTS)] * 2)
# masses whose closed-form sides (mass^2, the Grinberg product) overflow
LOUD = EllipsoidIndicator.ball(2, amplitude=1e200)
LOUD3 = EllipsoidIndicator.ball(3, amplitude=1e300)
BALL3 = EllipsoidIndicator.ball(3)
FAR = EllipsoidIndicator.ball(4, center=[1e150, 0.0, 0.0, 0.0])
SPEC = ExponentSpec((1.0,), (2.0,))
LINE = np.eye(2)[:, :1]
# a unit column and a column of norm sqrt(2): not a subspace basis
SKEW = np.array([[1.0], [1.0]])

# Check rules, each checked through both entry points: the verify call
# (rng last), the keyword its ParameterError names, the base map and the
# change to it that asks load_config for the same check, and the field its
# ConfigError names, whose message must be the ParameterError's.
RULES = {
    "bp-subspace-zero-inner": (
        lambda r: verify.check_bp_subspace([BALL], 1, 1.0, 8, 8, r, 0),
        "inner", BP_SUBSPACE, {"inner": "0"}, "inner"),
    "bp-subspace-negative-p": (
        lambda r: verify.check_bp_subspace([BALL], 1, -0.5, 8, 8, r, 4),
        "p", BP_SUBSPACE, {"p": "-0.5"}, "p"),
    "bp-subspace-k-above-n": (
        lambda r: verify.check_bp_subspace([BALL], 3, 1.0, 8, 8, r, 4),
        "k", BP_SUBSPACE, {"k": "3"}, "k"),
    "bp-subspace-full-dimension": (
        lambda r: verify.check_bp_subspace([BALL], 2, 1.0, 8, 8, r, 4),
        "k", BP_SUBSPACE, {"k": "2"}, "k"),
    "bp-subspace-direct-1": (
        lambda r: verify.check_bp_subspace([BALL], 1, 1.0, 1, 8, r, 4),
        "n_direct", BP_SUBSPACE, {"n_direct": "1"}, "n_direct"),
    "bp-subspace-q-above-k": (
        lambda r: verify.check_bp_subspace([BALL, BALL], 1, 1.0, 8, 8, r, 4),
        "f_list", BP_SUBSPACE, {"densities": '["ball", "ball"]'},
        "densities"),
    "bp-subspace-product-plane": (
        lambda r: verify.check_bp_subspace([BOX], 2, 1.0, 8, 8, r, 4),
        "f_list", BP_SUBSPACE, {"densities": '["box"]', "k": "2"},
        "densities"),
    "bp-flat-zero-inner": (
        lambda r: verify.check_bp_flat(BALL, 1, 8, 1.0, r, inner=0),
        "inner", BP_FLAT, {"inner": "0"}, "inner"),
    "bp-flat-flats-1": (
        lambda r: verify.check_bp_flat(BALL, 1, 1, 1.0, r, inner=4),
        "n_flats", BP_FLAT, {"n_flats": "1"}, "n_flats"),
    "bp-flat-full-dimension": (
        lambda r: verify.check_bp_flat(BALL, 2, 8, 1.0, r, inner=4),
        "k", BP_FLAT, {"k": "2"}, "k"),
    "bp-flat-window-inside-support": (
        lambda r: verify.check_bp_flat(BALL, 1, 8, 0.5, r, inner=4),
        "R", BP_FLAT, {"R": "0.5"}, "R"),
    "bp-flat-window-past-float-range": (
        lambda r: verify.check_bp_flat(BALL, 1, 8, 1e200, r, inner=4),
        "R", BP_FLAT, {"R": "1e200"}, "R"),
    "bp-flat-overflowing-mass-power": (
        lambda r: verify.check_bp_flat(LOUD, 1, 8, 1.0, r, inner=4),
        "f", BP_FLAT, {"density": '"loud"'}, "density"),
    "linear-k-at-n": (
        lambda r: verify.check_linear_invariance([BALL], SPEC, 2, "shear", 8,
                                                 r),
        "k", LINEAR, {"k": "2"}, "k"),
    "linear-slots": (
        lambda r: verify.check_linear_invariance(
            [BALL], ExponentSpec((1.0, 1.0), (1.0, 1.0)), 1, "shear", 8, r),
        "spec", LINEAR, {"spec_p": "[1.0, 1.0]", "spec_alpha": "[1.0, 1.0]"},
        "spec_p"),
    "linear-one-subspace": (
        lambda r: verify.check_linear_invariance([BALL], SPEC, 1, "shear", 1,
                                                 r),
        "n_subspaces", LINEAR, {"n_subspaces": "1"}, "n_subspaces"),
    "linear-exact-truncated-shear": (
        lambda r: verify.check_linear_invariance([TRUNC], SPEC, 1, "shear", 8,
                                                 r),
        "method", LINEAR, {"densities": '["trunc"]'}, "method"),
    "linear-map-stretches": (
        lambda r: verify.check_linear_invariance(
            [BALL], SPEC, 1, np.diag([2.0, 1.0]), 8, r, ("mc", 8)),
        "g", LINEAR, {"map": "[[2.0, 0.0], [0.0, 1.0]]",
                      "method": '["mc", 8]'}, "map"),
    "linear-unknown-map": (
        lambda r: verify.check_linear_invariance([BALL], SPEC, 1,
                                                 "reflection", 8, r),
        "g", LINEAR, {"map": '"reflection"'}, "map"),
    "linear-method-capitalized": (
        lambda r: verify.check_linear_invariance([BALL], SPEC, 1, "shear", 8,
                                                 r, "Exact"),
        "method", LINEAR, {"method": '"Exact"'}, "method"),
    "linear-mixed-dimensions": (
        lambda r: verify.check_linear_invariance(
            [BALL, BOX], ExponentSpec((1.0, 1.0), (1.0, 1.0)), 1, "shear", 8,
            r, ("mc", 8)),
        "f_list", LINEAR, {"densities": '["ball", "box"]',
                           "spec_p": "[1.0, 1.0]", "spec_alpha": "[1.0, 1.0]",
                           "method": '["mc", 8]'}, "densities"),
    "linear-mc-one": (
        lambda r: verify.check_linear_invariance([BALL], SPEC, 1, "shear", 8,
                                                 r, ("mc", 1)),
        "method", LINEAR, {"method": '["mc", 1]'}, "method"),
    "linear-mc-unbounded": (
        lambda r: verify.check_linear_invariance([GAUSS], SPEC, 1, "shear", 8,
                                                 r, ("mc", 8)),
        "method", LINEAR, {"densities": '["gauss"]', "method": '["mc", 8]'},
        "method"),
    "affine-unbounded": (
        lambda r: verify.check_affine_invariance(
            [GAUSS], ExponentSpec((1.0,), (3.0,)), 1, "shear", np.zeros(2),
            1.0, 8, r),
        "f_list", AFFINE, {"densities": '["gauss"]'}, "densities"),
    "affine-negative-window": (
        lambda r: verify.check_affine_invariance(
            [BALL], ExponentSpec((1.0,), (3.0,)), 1, "shear", np.zeros(2),
            -1.0, 8, r),
        "R", AFFINE, {"R": "-1.0"}, "R"),
    "affine-window-past-float-range": (
        lambda r: verify.check_affine_invariance(
            [BALL3], ExponentSpec((1.0,), (4.0,)), 1, "shear", np.zeros(3),
            1e200, 8, r),
        "R", AFFINE, {"densities": '["ball3"]', "spec_alpha": "[4.0]",
                      "shift": "[0.0, 0.0, 0.0]", "R": "1e200"}, "R"),
    "affine-support-window-past-float-range": (
        lambda r: verify.check_affine_invariance(
            [FAR], ExponentSpec((1.0,), (5.0,)), 1, "shear", np.zeros(4),
            1.0, 8, r),
        "f_list", AFFINE, {"densities": '["far"]', "spec_alpha": "[5.0]",
                           "shift": "[0.0, 0.0, 0.0, 0.0]"}, "densities"),
    "affine-unknown-shift": (
        lambda r: verify.check_affine_invariance(
            [BALL], ExponentSpec((1.0,), (3.0,)), 1, "shear", "none",
            1.0, 8, r),
        "shift", AFFINE, {"shift": '"none"'}, "shift"),
    "affine-shift-wrong-length": (
        lambda r: verify.check_affine_invariance(
            [BALL], ExponentSpec((1.0,), (3.0,)), 1, "shear", np.zeros(3),
            1.0, 8, r),
        "shift", AFFINE, {"shift": "[0.0, 0.0, 0.0]"}, "shift"),
    "affine-one-flat": (
        lambda r: verify.check_affine_invariance(
            [BALL], ExponentSpec((1.0,), (3.0,)), 1, "shear", np.zeros(2),
            1.0, 1, r),
        "n_flats", AFFINE, {"n_flats": "1"}, "n_flats"),
    "rearrangement-p-below-1": (
        lambda r: verify.check_rearrangement_monotonicity([UNIT], 0.5, "cone",
                                                          100, r),
        "p", REARRANGEMENT, {"p": "0.5"}, "p"),
    "rearrangement-unknown-case": (
        lambda r: verify.check_rearrangement_monotonicity([UNIT], 1.0,
                                                          "pyramid", 100, r),
        "case", REARRANGEMENT, {"case": '"pyramid"'}, "case"),
    "rearrangement-cone-too-many": (
        lambda r: verify.check_rearrangement_monotonicity([UNIT] * 3, 1.0,
                                                          "cone", 100, r),
        "f_list", REARRANGEMENT, {"densities": '["unit", "unit", "unit"]'},
        "densities"),
    "rearrangement-simplex-one-density": (
        lambda r: verify.check_rearrangement_monotonicity([UNIT], 1.0,
                                                          "simplex", 100, r),
        "f_list", REARRANGEMENT, {"case": '"simplex"'}, "densities"),
    "rearrangement-over-cap-product": (
        lambda r: verify.check_rearrangement_monotonicity([HUGE], 1.0, "cone",
                                                          100, r),
        "f_list", REARRANGEMENT, {"densities": '["huge"]'}, "densities"),
    "rearrangement-mixed-dimensions": (
        lambda r: verify.check_rearrangement_monotonicity([UNIT, BOX], 1.0,
                                                          "cone", 100, r),
        "f_list", REARRANGEMENT, {"densities": '["unit", "box"]'},
        "densities"),
    "rearrangement-zero-sup": (
        lambda r: verify.check_rearrangement_monotonicity([TINY], 1.0, "cone",
                                                          100, r),
        "f_list", REARRANGEMENT, {"densities": '["tiny"]'}, "densities"),
    "grinberg-p-above-n-minus-k": (
        lambda r: verify.check_grinberg_functional([BALL], 1, 1.5, 64, r),
        "p", GRINBERG, {"p": "1.5"}, "p"),
    "grinberg-q-above-k": (
        lambda r: verify.check_grinberg_functional([BALL, BALL], 1, 0.0, 64,
                                                   r),
        "f_list", GRINBERG, {"densities": '["ball", "ball"]'}, "densities"),
    "grinberg-zero-sup": (
        lambda r: verify.check_grinberg_functional([TINY], 1, 0.5, 64, r),
        "f_list", GRINBERG, {"densities": '["tiny"]', "p": "0.5"},
        "densities"),
    "schneider-overflowing-side": (
        lambda r: verify.check_schneider_functional(LOUD, 1, 8, r),
        "f", SCHNEIDER, {"density": '"loud"'}, "density"),
    # the window mass kappa_3 r^3 of the support radius r = 1e150 + 1
    # overflows
    "schneider-window-past-float-range": (
        lambda r: verify.check_schneider_functional(FAR, 1, 8, r),
        "f", SCHNEIDER, {"density": '"far"'}, "density"),
    "grinberg-overflowing-side": (
        lambda r: verify.check_grinberg_functional([LOUD3, LOUD3], 2, 0.0,
                                                   64, r),
        "f_list", GRINBERG, {"densities": '["loud3", "loud3"]', "k": "2"},
        "densities"),
    "sharpness-sigma-overflow": (
        lambda r: sharpness.gaussian_sharpness_experiment(2000, 1, 2.0, 8, r),
        "n", SHARPNESS, {"n": "2000", "s": "2.0"}, "n"),
    # sigma^2 = (2 pi)^-500 underflows to 0, whose log the exact form reads
    "sharpness-sigma-underflow": (
        lambda r: sharpness.gaussian_sharpness_experiment(500, 1, 2.0, 8, r),
        "n", SHARPNESS, {"n": "500", "s": "2.0"}, "n"),
    "schneider-unbounded": (
        lambda r: verify.check_schneider_functional(GAUSS, 1, 8, r),
        "f", SCHNEIDER, {"density": '"gauss"'}, "density"),
    "marginal-s-at-1": (
        lambda r: verify.marginal_bound_experiment(UNIT, 1, 1.0, 2.0, 8, 20,
                                                   r),
        "s", MARGINAL, {"s": "1.0"}, "s"),
    # s^(kn) = 1.44 < 2: the exceptional envelope 2 s^-(kn) would pass 1
    "marginal-envelope-above-1": (
        lambda r: verify.marginal_bound_experiment(UNIT, 1, 1.2, 2.0, 8, 20,
                                                   r),
        "s", MARGINAL, {"s": "1.2"}, "s"),
    "marginal-t-below-1": (
        lambda r: verify.marginal_bound_experiment(UNIT, 1, 2.0, 0.5, 8, 20,
                                                   r),
        "t", MARGINAL, {"t": "0.5"}, "t"),
    "marginal-not-unit-mass": (
        lambda r: verify.marginal_bound_experiment(BALL, 1, 2.0, 2.0, 8, 20,
                                                   r),
        "f", MARGINAL, {"density": '"ball"'}, "density"),
    "marginal-zero-sup": (
        lambda r: verify.marginal_bound_experiment(WIDE, 1, 2.0, 2.0, 8, 20,
                                                   r),
        "f", MARGINAL, {"density": '"wide"'}, "density"),
    "marginal-adversarial-plane": (
        lambda r: verify.marginal_bound_experiment(
            UNIT, 1, 2.0, 2.0, 8, 20, r, np.eye(2)),
        "adversarial", MARGINAL, {"adversarial": "[0, 1]"}, "adversarial"),
    "marginal-adversarial-not-orthonormal": (
        lambda r: verify.marginal_bound_experiment(
            UNIT, 1, 2.0, 2.0, 8, 20, r, SKEW),
        "adversarial", MARGINAL, {"adversarial": "[[1.0], [1.0]]"},
        "adversarial"),
    "sharpness-one-subspace": (
        lambda r: sharpness.gaussian_sharpness_experiment(3, 1, 1.5, 1, r),
        "n_subspaces", SHARPNESS, {"n_subspaces": "1"}, "n_subspaces"),
    "sharpness-s-above-sigma-inverse": (
        lambda r: sharpness.gaussian_sharpness_experiment(3, 1, 16.0, 8, r),
        "s", SHARPNESS, {"s": "16.0"}, "s"),
    "sharpness-k-at-n": (
        lambda r: sharpness.gaussian_sharpness_experiment(3, 3, 1.5, 8, r),
        "k", SHARPNESS, {"k": "3"}, "k"),
    "perturbation-line-for-planes": (
        lambda r: verify.perturbation_experiment(
            BOX, 2, np.eye(3)[:, :1], 0.5, [0.1], 100, r),
        "E", PERTURBATION, {"density": '"box"', "k": "2"}, "subspace"),
    "perturbation-not-orthonormal": (
        lambda r: verify.perturbation_experiment(UNIT, 1, SKEW, 0.5, [0.1],
                                                 100, r),
        "E", PERTURBATION, {"subspace": "[[1.0], [1.0]]"}, "subspace"),
    "perturbation-eta-above-2": (
        lambda r: verify.perturbation_experiment(UNIT, 1, LINE, 2.5, [0.1],
                                                 100, r),
        "eta", PERTURBATION, {"eta": "2.5"}, "eta"),
    "perturbation-zero-radius": (
        lambda r: verify.perturbation_experiment(UNIT, 1, LINE, 0.5, [0.0],
                                                 100, r),
        "eps_grid", PERTURBATION, {"eps_grid": "[0.0]"}, "eps_grid"),
    "perturbation-no-radii": (
        lambda r: verify.perturbation_experiment(UNIT, 1, LINE, 0.5, [], 100,
                                                 r),
        "eps_grid", PERTURBATION, {"eps_grid": "[]"}, "eps_grid"),
    "perturbation-no-candidates": (
        lambda r: verify.perturbation_experiment(UNIT, 1, LINE, 0.5, [0.1],
                                                 100, r, 0),
        "n_candidates", PERTURBATION, {"n_candidates": "0"}, "n_candidates"),
    "perturbation-zero-sup": (
        lambda r: verify.perturbation_experiment(WIDE, 1, LINE, 0.5, [0.1],
                                                 100, r),
        "f", PERTURBATION, {"density": '"wide"'}, "density"),
    "perturbation-not-unit-mass": (
        lambda r: verify.perturbation_experiment(BALL, 1, LINE, 0.5, [0.1],
                                                 100, r),
        "f", PERTURBATION, {"density": '"ball"'}, "density"),
}


def test_rules_table_covers_every_check():
    assert {base["check"].strip('"') for _, _, base, _, _ in RULES.values()} \
        == set(config.CHECKS)


@pytest.mark.parametrize("name", RULES)
@pytest.mark.filterwarnings("error")
def test_check_rules_rejected_by_both_entry_points(tmp_path, name):
    call, param, base, changes, field_name = RULES[name]
    rng = np.random.default_rng(0)
    gen = rng.bit_generator
    before = gen.state, gen.seed_seq.n_children_spawned
    with pytest.raises(ParameterError) as err:
        call(rng)
    assert err.value.param == param
    assert str(err.value).startswith(f"{param} ")
    # the name is a keyword of the check's rules function, as passed
    rules = config.CHECKS[json.loads(base["check"])].rules
    assert param in inspect.signature(rules).parameters
    # rejected before the check draws from its generator or spawns from it
    assert (gen.state, gen.seed_seq.n_children_spawned) == before
    message = err.value.message
    load_config(write_config(tmp_path, check_section(base)))
    with pytest.raises(ConfigError) as err:
        load_config(write_config(tmp_path, check_section({**base, **changes})))
    assert (err.value.section, err.value.field) == ("check bad", field_name)
    assert err.value.message == message


@pytest.mark.parametrize("value", ["2", "0", "true", "1.0", '"1"'])
def test_run_substreams_only_one(tmp_path, value):
    # older configs say substreams = 1: it and an absent field both load
    load_config(write_config(tmp_path, MINIMAL))
    one = MINIMAL.replace("seed = 42", "seed = 42\n    substreams = 1")
    load_config(write_config(tmp_path, one))
    with pytest.raises(ConfigError) as err:
        load_config(write_config(tmp_path, one.replace(
            "substreams = 1", f"substreams = {value}")))
    assert (err.value.section, err.value.field) == ("run", "substreams")


# Optional check fields that every shipped row leaves at one value, each
# with its entry in the deletion ledger of ROADMAP.md: bench/workloads pins
# them, so they wait on the [benchmark] change that edits those files.
PINNED_IN_BENCH = {
    "bp_subspace.p": "one value in use (1b)",
    "bp_subspace.inner": "one value in use (1b)",
    "bp_flat.inner": "one value in use (1b)",
    "grinberg_functional.p": "one value in use (1b)",
    "marginal_bound.adversarial": "one value in use (1b)",
    "perturbation.n_candidates": "perturbation's n_candidates field (1b)",
}


def test_optional_check_fields_take_two_values_in_the_suites():
    # an option with only one value in use is a constant: every optional
    # field reads two distinct effective values (given, or the default)
    # over the rows of the shipped configs and the bench workloads
    values = {}
    for relpath in SHIPPED:
        parser = configparser.ConfigParser(interpolation=None)
        parser.optionxform = str
        parser.read(ROOT / relpath)
        for section in parser.sections():
            if not section.startswith("check "):
                continue
            row = {k: json.loads(v) for k, v in parser.items(section)}
            name = row["check"]
            for field_name, spec in config.CHECKS[name].fields.items():
                if spec.default is not config._REQUIRED:
                    values.setdefault(f"{name}.{field_name}", set()).add(
                        json.dumps(row.get(field_name, spec.default)))
    single = {key for key, seen in values.items() if len(seen) < 2}
    assert single == set(PINNED_IN_BENCH)


def test_hash_covers_density_specs(tmp_path):
    small = load_config(write_config(tmp_path, MINIMAL)).resolved_hash()
    large = load_config(write_config(
        tmp_path, MINIMAL.replace("radius = 1.0", "radius = 2.0")))
    assert large.resolved_hash() != small


@pytest.mark.parametrize("relpath", SHIPPED)
def test_shipped_suites_load(relpath):
    cfg = load_config(str(ROOT / relpath))
    assert cfg.checks
    # every shipped density has an exact rearrangement, mass and sup kept
    for f in cfg.densities.values():
        star = rearrangement(f)
        assert star.mass == pytest.approx(f.mass, rel=1e-12)
        assert star.sup == pytest.approx(f.sup, rel=1e-12)


def fresh_interpreter(script, *args):
    """What script prints as JSON, run by a fresh interpreter on this
    checkout's package: the test session has imported every module."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(config.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", script, *args], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=120)
    return json.loads(out.stdout)


DENSITY_STACK = ["igeolab.densities", "igeolab.functionals",
                 "igeolab.grassmann", "igeolab.rearrange", "igeolab.verify"]


@pytest.mark.parametrize("relpath,loads_stack", [
    ("configs/sharpness.ini", False), ("configs/paper-core.ini", True)])
def test_a_config_loads_only_the_modules_it_names(relpath, loads_stack):
    # the sharpness suite needs no density model: its checks' module, and
    # geometry and report, but none of the density stack; paper-core has
    # no sharpness check and needs the whole stack
    loaded = fresh_interpreter(
        "import json, sys\n"
        "import igeolab\n"
        "from igeolab.config import load_config\n"
        "load_config(sys.argv[1])\n"
        "print(json.dumps(sorted(sys.modules)))\n", str(ROOT / relpath))
    assert {name in loaded for name in DENSITY_STACK} == {loads_stack}
    assert ("igeolab.sharpness" in loaded) is not loads_stack


@pytest.mark.parametrize("layer", [m.split(".")[1] for m in DENSITY_STACK]
                         + ["haar_bases"])
def test_reading_one_layer_loads_the_density_stack(layer):
    # a caller that reads one layer (or a name it defines) from the package
    # finds every other layer loaded too, as after the eager import
    loaded = fresh_interpreter(
        "import json, sys\n"
        "import igeolab\n"
        "getattr(igeolab, sys.argv[1])\n"
        "print(json.dumps(sorted(sys.modules)))\n", layer)
    assert set(DENSITY_STACK) <= set(loaded)
    assert "igeolab.sharpness" not in loaded


def test_package_names_load_on_first_use():
    # import igeolab compiles no submodule; every public name resolves and
    # is listed by dir()
    state = fresh_interpreter(
        "import json, sys\n"
        "import igeolab\n"
        "before = sorted(m for m in sys.modules if m.startswith('igeolab.'))\n"
        "resolved = all(getattr(igeolab, n) is not None"
        " for n in igeolab.__all__)\n"
        "listed = set(igeolab.__all__) <= set(dir(igeolab))\n"
        "print(json.dumps([before, resolved, listed]))\n")
    assert state == [[], True, True]
