"""Ball volumes, normalizing constants, simplex volumes."""

import ast
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from igeolab import geometry
from igeolab.geometry import (SV_RELATIVE_CUTOFF, bp_exact_constant,
                              unit_ball_volume, unit_volume_radius,
                              _tuple_volumes)


# The package's lowest layers and the only package modules each may import:
# geometry, the leaf of the exact numerics that every module imports, takes
# nothing from the package, and grassmann takes only geometry, so a rule
# never learns a density family.  report and rng are leaves as well, and
# sharpness, which needs no density model, takes only geometry and report,
# so a sharpness-only config never compiles the density stack.
LAYERS = {"geometry": set(), "grassmann": {"geometry"}, "report": set(),
          "rng": set(), "sharpness": {"geometry", "report"}}


def package_imports(tree):
    """The igeolab modules that a parsed module imports, by name, relative
    or absolute; "igeolab" for the package itself."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                module = node.module
            elif node.module.split(".")[0] == "igeolab":
                module = node.module.partition(".")[2]
            else:
                continue
            if module:
                yield module.split(".")[0]
            else:
                yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "igeolab":
                    yield parts[1] if len(parts) > 1 else "igeolab"


@pytest.mark.parametrize("module", LAYERS)
def test_layer_imports_only_the_layers_below(module):
    path = pathlib.Path(geometry.__file__).with_name(f"{module}.py")
    imported = set(package_imports(ast.parse(path.read_text())))
    assert imported <= LAYERS[module], imported - LAYERS[module]


def test_unit_ball_volumes():
    assert unit_ball_volume(0) == 1.0
    assert unit_ball_volume(1) == 2.0
    assert unit_ball_volume(2) == pytest.approx(math.pi, rel=1e-15)
    assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-15)
    assert unit_ball_volume(4) == pytest.approx(math.pi ** 2 / 2.0, rel=1e-15)
    # recursion omega_n = omega_{n-2} * 2 pi / n holds along the whole table
    for n in range(2, 12):
        assert unit_ball_volume(n) == pytest.approx(
            unit_ball_volume(n - 2) * 2.0 * math.pi / n, rel=1e-13)


def test_unit_volume_radius():
    for n in range(1, 7):
        r = unit_volume_radius(n)
        assert unit_ball_volume(n) * r ** n == pytest.approx(1.0, rel=1e-13)
    # r_1 = 1/2, r_2 = 1/sqrt(pi); r_n crosses 1 where omega_n drops
    # below 1, which happens between n=12 and n=13
    assert unit_volume_radius(1) == pytest.approx(0.5)
    assert unit_volume_radius(2) == pytest.approx(1.0 / math.sqrt(math.pi))
    assert unit_volume_radius(5) < 1.0 < unit_volume_radius(13)


def bp_constant(n, k, q):
    """The constant as the paper prints it: (q!)^(n-k) times the ratio of
    the top q unit-ball volumes kappa_j in dimension n to those in
    dimension k.  A reference for bp_exact_constant only."""
    return math.factorial(q) ** (n - k) * math.prod(
        unit_ball_volume(n - i) / unit_ball_volume(k - i) for i in range(q))


def test_bp_constant_small_cases():
    # closed forms worked out by hand from the factorial/volume ratio
    assert bp_constant(2, 1, 1) == pytest.approx(math.pi / 2)
    assert bp_constant(3, 2, 1) == pytest.approx(4.0 / 3.0)
    assert bp_constant(3, 1, 1) == pytest.approx(2 * math.pi / 3)
    assert bp_constant(4, 2, 2) == pytest.approx(4 * math.pi ** 2 / 3)
    # k = n collapses the ratio entirely
    for n in range(1, 5):
        for q in range(1, n + 1):
            assert bp_constant(n, n, q) == pytest.approx(1.0)


def test_bp_exact_constant_uses_sphere_areas():
    # kappa_j -> omega_j = j kappa_j turns the printed constant into the
    # Blaschke-Petkantschin one; n == k stays at 1
    assert bp_exact_constant(2, 1, 1) == pytest.approx(math.pi)
    assert bp_exact_constant(3, 2, 2) == pytest.approx(
        bp_constant(3, 2, 2) * 3.0)
    for n in range(2, 6):
        for k in range(1, n + 1):
            for q in range(1, k + 1):
                factor = math.comb(n, q) / math.comb(k, q)
                assert bp_exact_constant(n, k, q) == pytest.approx(
                    bp_constant(n, k, q) * factor, rel=1e-13)


def test_dimensions_validation():
    for n, k, q in [(2, 3, 1), (3, 2, 0), (3, 2, 3), (0, 0, 0)]:
        with pytest.raises(ValueError, match="1 <= q <= k <= n"):
            bp_exact_constant(n, k, q)
    for n, k, q in [(3.0, 2, 1), (3, np.int64(2), 1), (3, 2, "1")]:
        with pytest.raises(TypeError, match="integers"):
            bp_exact_constant(n, k, q)


def simplex_volume(pts):
    """Volume of conv{rows of pts}: the tuple of edges from the first
    vertex, as simplex_moment reads it without the origin."""
    return _tuple_volumes(pts[1:] - pts[0])


def test_simplex0_volume_right_simplices():
    # edges e1 and 2 e2: area = |det| / 2! = 1
    pts = np.array([[1.0, 0.0], [0.0, 2.0]])
    assert _tuple_volumes(pts) == pytest.approx(1.0)
    # single vector: length
    assert _tuple_volumes(np.array([[3.0, 4.0]])) == pytest.approx(5.0)
    # full-dimensional: |det| / n!
    m = np.array([[2.0, 1.0, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, 3.0]])
    assert _tuple_volumes(m) == pytest.approx(abs(np.linalg.det(m)) / 6.0)


def test_simplex_volume_translation():
    rng = np.random.default_rng(7)
    pts = rng.standard_normal((4, 3))
    shift = rng.standard_normal(3)
    assert simplex_volume(pts + shift) == pytest.approx(
        simplex_volume(pts), rel=1e-10)
    # nor does it depend on which vertex the edges start from
    assert simplex_volume(pts) == pytest.approx(
        simplex_volume(pts[::-1]), rel=1e-12)


def test_simplex0_volume_degenerate():
    pts = np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0]])  # collinear
    assert _tuple_volumes(pts) == pytest.approx(0.0, abs=1e-12)
    assert _tuple_volumes(np.zeros((2, 3))) == 0.0


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4),
       st.floats(0.1, 4.0), st.integers(0, 2 ** 31 - 1))
def test_simplex0_volume_scaling_and_rotation(q, n, c, seed):
    if q > n:
        q = n
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((q, n))
    vol = _tuple_volumes(pts)
    # homogeneous of degree q
    assert _tuple_volumes(c * pts) == pytest.approx(c ** q * vol, rel=1e-8)
    # invariant under a Haar-ish rotation
    rot, _ = np.linalg.qr(rng.standard_normal((n, n)))
    assert _tuple_volumes(pts @ rot.T) == pytest.approx(vol, rel=1e-8,
                                                        abs=1e-12)


def _svd_volume(x):
    """Reference: product of the singular values over q!, zero below the
    cutoff; also returns s_max / s_min."""
    sv = np.linalg.svd(x, compute_uv=False)
    if sv[0] == 0.0 or sv[-1] <= SV_RELATIVE_CUTOFF * sv[0]:
        return 0.0, math.inf
    return float(np.prod(sv)) / math.factorial(x.shape[0]), sv[0] / sv[-1]


def _tuple_stack(q, n, rng):
    """Random tuples at scales 1e-3..1e3, tuples of prescribed singular
    values (moderately and badly conditioned, just either side of the
    cutoff), and exactly degenerate ones (zero, a row or column doubled)."""
    r = min(q, n)
    stack = [rng.standard_normal((q, n)) * 10.0 ** rng.uniform(-3, 3)
             for _ in range(12)]
    for s_min in (0.3, 1e-6, 2.0 * SV_RELATIVE_CUTOFF,
                  0.5 * SV_RELATIVE_CUTOFF):
        u = np.linalg.qr(rng.standard_normal((q, q)))[0][:, :r]
        v = np.linalg.qr(rng.standard_normal((n, n)))[0][:, :r]
        sv = np.geomspace(1.0, s_min, r) if r > 1 else np.ones(1)
        stack.append((u * sv) @ v.T * 10.0 ** rng.uniform(-3, 3))
    stack.append(np.zeros((q, n)))
    if r > 1:
        x = rng.standard_normal((q, n))
        if q <= n:
            x[1] = 2.0 * x[0]
        else:
            x[:, 1] = 2.0 * x[:, 0]
        stack.append(x)
    return np.stack(stack)


@settings(max_examples=64, deadline=None, derandomize=True)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 2 ** 32 - 1))
def test_tuple_volumes_match_svd_reference(q, n, seed):
    x = _tuple_stack(q, n, np.random.default_rng(seed))
    # stacks of any leading shape
    got = _tuple_volumes(x[:, None]).ravel()
    for xi, vol in zip(x, got):
        ref, cond = _svd_volume(xi)
        assert (vol == 0.0) == (ref == 0.0)
        if ref:
            assert abs(vol - ref) <= 1e-14 * cond * ref


@pytest.mark.parametrize("q,n", [(1, 2), (1, 3), (1, 4), (2, 2), (2, 3),
                                 (2, 4), (3, 2), (3, 3), (3, 4), (4, 4)])
def test_tuple_volumes_of_slot_major_view_are_bitwise(q, n):
    # the simplex kernels draw slot by slot into (q, m, n) planes and hand
    # over the transposed view; r = min(q, n) covers 1, 2 and 3 or more.
    # Every q <= n for n in {2, 3, 4} is here.
    slots = np.random.default_rng(10 * q + n).standard_normal((q, 500, n))
    view = slots.transpose(1, 0, 2)
    assert q == 1 or not view.flags.c_contiguous
    assert np.array_equal(_tuple_volumes(view),
                          _tuple_volumes(np.ascontiguousarray(view)))
    # the section routes' (q, flats, inner, k) stack, axis 0 moved to -2
    planes = slots.reshape(q, 20, 25, n)
    view = np.moveaxis(planes, 0, -2)
    assert np.array_equal(_tuple_volumes(view),
                          _tuple_volumes(np.ascontiguousarray(view)))


@pytest.mark.parametrize("q", [3, 4, 7, 8, 11])
def test_tuple_volumes_on_a_line_are_bitwise_in_both_layouts(q):
    # n = 1: the volume is the norm of q coordinates, summed in one order
    # whether the q slots are adjacent in memory or m rows apart
    slots = np.random.default_rng(q).standard_normal((q, 500, 1)) \
        * np.exp(np.random.default_rng(q + 1).normal(size=(q, 500, 1)))
    view = slots.transpose(1, 0, 2)
    contiguous = np.ascontiguousarray(view)
    got = _tuple_volumes(view)
    assert np.array_equal(got, _tuple_volumes(contiguous))
    total = contiguous[:, 0, 0] ** 2
    for i in range(1, q):
        total = total + contiguous[:, i, 0] ** 2
    assert np.array_equal(got, np.sqrt(total) / math.factorial(q))
