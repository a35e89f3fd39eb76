"""Config parsing: density builders, check validation, failure modes.

Everything here must fail at parse time, before any sampling starts; a
bad config that dies twenty minutes into a run is the bug these tests
pin down.
"""

import math
import pathlib
import textwrap

import numpy as np
import pytest

from igeolab import config
from igeolab.config import ConfigError, build_density, load_config
from igeolab.densities import (EllipsoidIndicator, GaussianDensity,
                               ProductDensity, RadialGridDensity,
                               TruncatedGaussian)


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


def test_density_builders():
    gauss = build_density({"kind": "gaussian", "n": 3}, ".")
    assert isinstance(gauss, GaussianDensity) and gauss.n == 3
    skew = build_density({"kind": "gaussian", "mean": [0.0, 1.0],
                          "cov": [[2.0, 0.1], [0.1, 0.5]]}, ".")
    assert skew.cov[0][0] == 2.0
    ell = build_density({"kind": "ellipsoid", "shape": [[1.0, 0.0], [0.0, 4.0]],
                         "center": [0.5, 0.0]}, ".")
    assert isinstance(ell, EllipsoidIndicator)
    trunc = build_density({"kind": "truncated_gaussian", "n": 2, "tau": 0.5,
                           "radius": 1.0}, ".")
    assert isinstance(trunc, TruncatedGaussian)
    assert trunc.mass == pytest.approx(1.0)  # built normalized
    rad = build_density({"kind": "radial", "radius": 1.0,
                         "heights": [2.0, 1.0], "n": 2}, ".")
    assert isinstance(rad, RadialGridDensity)
    prod = build_density({"kind": "product",
                          "factors": [{"heights": [1.0, 2.0]},
                                      {"heights": [1.0], "lo": -1.0, "hi": 1.0}]}, ".")
    assert isinstance(prod, ProductDensity)
    assert prod.factors[1].hi == 1.0


def test_density_normalize_flag():
    f = build_density({"kind": "ellipsoid", "n": 2, "radius": 2.0,
                       "normalize": True}, ".")
    assert f.mass == pytest.approx(1.0)


def test_density_rejects_unknown_fields():
    with pytest.raises(ConfigError):
        build_density({"kind": "gaussian", "n": 2, "wobble": 3}, ".")
    with pytest.raises(ConfigError):
        build_density({"kind": "mystery", "n": 2}, ".")


def test_density_file_kind(tmp_path):
    txt = tmp_path / "box.txt"
    txt.write_text("product n=2\n1.0 2.0\n1.0\n")
    f = build_density({"kind": "file", "path": "box.txt"}, str(tmp_path))
    assert isinstance(f, ProductDensity)
    assert f.n == 2


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
    R = 1.5
    n_flats = 100

    [check  twin]
    check = "schneider_functional"
    density = "ball"
    k = 1
    R = 1.5
    n_flats = 100
    """
    with pytest.raises(ConfigError) as err:
        load_config(write_config(tmp_path, body))
    assert "twin" in str(err.value)


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

    # missing required field (R falls back to the support radius,
    # but the flat budget has no default)
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
    R = 1.5
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
    check = "schneider_functional"
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
    map = "rotation"
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


def check_section(fields):
    return MINIMAL + """
    [density unit]
    kind = "ellipsoid"
    n = 2
    normalize = true

    [density gauss]
    kind = "gaussian"
    n = 2

    [check bad]
""" + "".join(f"    {key} = {value}\n" for key, value in fields.items())


@pytest.mark.parametrize("base, changes, field_name", [
    (GRINBERG, {"n_subspaces": "Infinity"}, "n_subspaces"),
    (GRINBERG, {"p": "NaN"}, "p"),
    (GRINBERG, {"expect_equality": '"no"'}, "expect_equality"),
    (GRINBERG, {"expect_equality": "1"}, "expect_equality"),
    (GRINBERG, {"method": '["mc", 1]'}, "method"),
    (GRINBERG, {"method": '["mc", 2.5]'}, "method"),
    (GRINBERG, {"method": '"bogus"'}, "method"),
    (GRINBERG, {"n_flatz": "9"}, "n_flatz"),
    (GRINBERG, {"check": '"bp_subspace"', "method": '"exact"'}, "method"),
    # budgets split into two replicas of >= 2 samples each
    (BP_SUBSPACE, {"n_direct": "3"}, "n_direct"),
    (BP_SUBSPACE, {"n_subspaces": "3"}, "n_subspaces"),
    (BP_FLAT, {"n_flats": "3"}, "n_flats"),
    (BP_FLAT, {"p": "1.0"}, "n_direct"),
    # affine_image's determinant tolerance, not a looser one
    (LINEAR, {"map": "[[1.0000000005, 0.0], [0.0, 1.0]]"}, "map"),
    (LINEAR, {"map": '"reflection"'}, "map"),
    (PERTURBATION, {"eta": "2.5"}, "eta"),
    (MARGINAL, {"adversarial": "[0, 1]"}, "adversarial"),
    # Monte Carlo section stats sample a window around a bounded support
    (LINEAR, {"densities": '["gauss"]', "method": '["mc", 8]'}, "method"),
    (GRINBERG, {"densities": '["gauss"]', "method": '["mc", 8]'}, "method"),
], ids=["infinite-count", "nan-p", "string-flag", "int-flag", "mc-one",
        "mc-fraction", "unknown-method", "unknown-field",
        "method-where-not-taken", "bp-subspace-direct-3",
        "bp-subspace-subspaces-3", "bp-flat-flats-3",
        "bp-flat-offset-without-direct", "map-det-off-by-5e-10",
        "unknown-map-name", "eta-above-2", "adversarial-wrong-dim",
        "linear-mc-unbounded", "grinberg-mc-unbounded"])
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
    ({"text": "radial n=3 R=1\n1.0\n"}, "bins"),
    ({"text": "radial n=3 R=1 bins=2\n1.0\n"}, "bins"),
    ({"text": "radial n=3 R=nan bins=1\n1.0\n"}, "R"),
    ({"text": "radial n=3 R=inf bins=1\n1.0\n"}, "R"),
    ({"text": "radial n=0 R=1 bins=1\n1.0\n"}, "n"),
    ({"text": "radial n=-1 R=1 bins=1\n1.0\n"}, "n"),
    ({"text": "radial n=3 R=1 bins=1 x=4\n1.0\n"}, "x"),
    ({"text": "radial n=2 R=1 bins=2\n1.0 -0.5\n"}, "heights"),
    ({"text": "product n=3\n1.0 2.0\n1.0\n"}, "n"),
    ({"text": "product n=2\n1.0 x\n1.0\n"}, "factors"),
    ({"text": "sphere n=2\n1.0\n"}, "kind"),
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
    ({"text": "product n=2\n1.0\n0.0 0.0\n"}, "factors"),
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
    ({"kind": '"file"', "path": '"missing.txt"'}, "path"),
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
    ({"text": "radial n=2 R=1e200 bins=1\n1.0\n"}, "R"),
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
        "text-missing-bins", "text-bins-mismatch", "text-nan-radius",
        "text-infinite-radius", "text-zero-n", "text-negative-n",
        "text-unknown-key", "text-negative-height", "text-factor-count",
        "text-bad-height", "text-unknown-kind", "negative-amplitude",
        "zero-amplitude", "product-negative-amplitude",
        "truncated-negative-amplitude", "truncated-zero-amplitude",
        "ellipsoid-zero-amplitude", "radial-zero-heights",
        "product-zero-factor", "text-product-zero-factor", "empty-mean",
        "matrix-center", "indefinite-shape", "asymmetric-shape",
        "short-center", "indefinite-cov", "cov-size-mismatch",
        "negative-scalar-cov", "missing-file", "overflowing-radius",
        "infinite-mass", "ellipsoid-overflowing-axis",
        "ellipsoid-infinite-mass-radius", "ellipsoid-infinite-mass-shape",
        "underflowing-scalar-cov", "underflowing-cov-axis",
        "overflowing-scalar-cov", "overflowing-tau",
        "radial-overflowing-radius", "radial-overflowing-radius-nan",
        "radial-overflowing-edges",
        "text-overflowing-radius", "radial-underflowing-radius",
        "normalize-overflow", "underflowing-ball-volume", "underflowing-tau",
        "truncated-overflowing-radius", "truncated-empty-cut",
        "product-normalize-overflow"])
@pytest.mark.filterwarnings("error")
def test_malformed_density_fields_rejected(tmp_path, fields, field_name):
    if "text" in fields:  # a density text file in place of inline fields
        (tmp_path / "bad.txt").write_text(fields["text"])
        fields = {"kind": '"file"', "path": '"bad.txt"'}
    body = MINIMAL + "\n    [density bad]\n" + "".join(
        f"    {key} = {value}\n" for key, value in fields.items())
    with pytest.raises(ConfigError) as err:
        load_config(write_config(tmp_path, body))
    assert (err.value.section, err.value.field) == ("density bad", field_name)
    assert str(err.value).startswith(f"[density bad] {field_name}: ")


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


def test_hash_covers_density_specs(tmp_path):
    small = load_config(write_config(tmp_path, MINIMAL)).resolved_hash()
    large = load_config(write_config(
        tmp_path, MINIMAL.replace("radius = 1.0", "radius = 2.0")))
    assert large.resolved_hash() != small


def test_hash_covers_density_file_text(tmp_path):
    body = MINIMAL + """
    [density box]
    kind = "file"
    path = "box.txt"
    """
    path = write_config(tmp_path, body)
    txt = tmp_path / "box.txt"
    txt.write_text("product n=2\n1.0 2.0\n1.0\n")
    before = load_config(path).resolved_hash()
    txt.write_text("product n=2\n1.0 3.0\n1.0\n")
    assert load_config(path).resolved_hash() != before


def test_density_file_read_once(tmp_path, monkeypatch):
    reads = []

    def counting_read(path, base_dir):
        reads.append(path)
        return read_text(path, base_dir)

    read_text = config._read_text
    monkeypatch.setattr(config, "_read_text", counting_read)
    (tmp_path / "box.txt").write_text("product n=2\n1.0 2.0\n1.0\n")
    cfg = load_config(write_config(tmp_path, MINIMAL + """
    [density box]
    kind = "file"
    path = "box.txt"
    """))
    assert reads == ["box.txt"]
    assert cfg.density_specs["box"]["text"] == "product n=2\n1.0 2.0\n1.0\n"


@pytest.mark.parametrize("relpath", SHIPPED)
def test_shipped_suites_load(relpath):
    cfg = load_config(str(ROOT / relpath))
    assert cfg.checks
