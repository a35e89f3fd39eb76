"""Bit-for-bit equivalence of the small kernels under the samplers.

densities._bin_count stands in for np.searchsorted into a few bin edges,
the bins of densities._piecewise_uniform for Generator.choice with
probabilities (one law, or one per row), and geometry._row_norms for
np.linalg.norm along the last axis.  The point
kernels that work in blocks of geometry.ROW_BLOCK rows (simplex powers,
unit vectors and ball points, product evaluation, Monte Carlo section
windows) stand in for their whole-array forms, which are kept here as
references, and their traced peaks are bounded.  Each must give the
generic call's exact bits, and the sampler must leave the generator where
the generic call leaves it, so that the same seeds keep giving the same
results.csv.
"""

import math
import tracemalloc

import numpy as np
import pytest

from igeolab.densities import ProductDensity, RadialGridDensity, Step1D, \
    _bin_count, _directions, _per_row, _piecewise_uniform, _step_values, \
    _uniform_ball, affine_image, section_points, section_stats
from igeolab.functionals import _simplex_powers, powz, simplex_moment
from igeolab.geometry import ROW_BLOCK, SV_RELATIVE_CUTOFF, _row_norms, \
    _tuple_volumes, unit_ball_volume
from igeolab.grassmann import haar_bases
from igeolab.rearrange import rearrangement

EDGES = np.array([-1.5, -0.25, 0.0, 0.75, 2.0])


def _probe_points(edges, rng):
    """Every edge exactly, its neighbours one ulp away, points below the
    first and above the last edge, both infinities and random fill."""
    ties = np.concatenate([edges, np.nextafter(edges, -np.inf),
                           np.nextafter(edges, np.inf)])
    outside = [edges[0] - 1.0, edges[-1] + 1.0, -np.inf, np.inf, -0.0]
    return np.concatenate([ties, outside, rng.uniform(-3.0, 3.0, 500)])


def _searchsorted_lookup(edges, heights, x):
    """The step lookup as Step1D.eval_many wrote it with a binary search."""
    idx = np.searchsorted(edges, x, side="right") - 1
    inside = (x >= edges[0]) & (x < edges[-1]) & (idx >= 0)
    idx = np.clip(idx, 0, heights.size - 1)
    return np.where(inside, heights[idx], 0.0)


def test_bin_count_is_searchsorted_right(rng):
    x = _probe_points(EDGES, rng)
    expected = np.searchsorted(EDGES, x, side="right")
    assert np.array_equal(_bin_count(EDGES, x), expected)
    # ties count the edge itself
    assert _bin_count(EDGES, EDGES).tolist() == [1, 2, 3, 4, 5]
    assert _bin_count(EDGES, np.array([np.nan])).tolist() == [0]


@pytest.mark.parametrize("m", [1, 6, 64, 300])
def test_bin_count_at_every_edge_count(m, rng):
    edges = np.sort(rng.normal(size=m))
    x = np.concatenate([edges, rng.normal(size=500), [np.inf, -np.inf]])
    expected = np.searchsorted(edges, x, side="right")
    assert np.array_equal(_bin_count(edges, x), expected)
    rows = np.stack([edges, -edges[::-1]])
    got = _bin_count(rows.T[..., None], np.stack([x, x]))
    assert np.array_equal(got[0], expected)
    assert np.array_equal(got[1], np.searchsorted(rows[1], x, side="right"))
    assert got.dtype == np.min_scalar_type(m)


@pytest.mark.parametrize("m,dtype", [(255, np.uint8), (256, np.uint16),
                                     (300, np.uint16)])
def test_bin_count_is_byte_wide_up_to_255_edges(m, dtype, rng):
    # repeated edges (ties) and points at, between and past all of them:
    # the narrow count still reaches len(edges) without wrapping, and NaN,
    # which searchsorted places past the last edge, counts none
    edges = np.sort(rng.integers(-40, 40, size=m).astype(float))
    x = np.concatenate([edges, edges + 0.5, [-np.inf, np.inf, 99.0, np.nan]])
    got = _bin_count(edges, x)
    assert got.dtype == dtype
    assert np.array_equal(got[:-1],
                          np.searchsorted(edges, x[:-1], side="right"))
    assert got[-4:].tolist() == [0, m, m, 0]
    heights = rng.uniform(0.5, 2.0, m - 1)
    assert np.array_equal(_step_values(edges, heights, x),
                          _searchsorted_lookup(edges, heights, x))


def test_bin_count_per_row_edges(rng):
    # the many-law form of _piecewise_uniform: row i compares against its
    # own column of edges
    edges = np.sort(rng.normal(size=(6, 4)), axis=1)
    x = np.concatenate([edges, rng.normal(size=(6, 50))], axis=1)
    got = _bin_count(edges.T[..., None], x)
    for row, e, count in zip(x, edges, got):
        assert np.array_equal(count, np.searchsorted(e, row, side="right"))


def test_step_values_match_searchsorted_lookup(rng):
    heights = np.array([0.5, 0.0, 3.0, 1.25])
    x = _probe_points(EDGES, rng)
    assert np.array_equal(_step_values(EDGES, heights, x),
                          _searchsorted_lookup(EDGES, heights, x))
    nan_inf = np.array([np.nan, np.inf, -np.inf])
    assert _step_values(EDGES, heights, nan_inf).tolist() == [0.0, 0.0, 0.0]
    # the evaluators route through it
    f = Step1D(EDGES, heights)
    assert np.array_equal(f.eval_many(x[:, None]),
                          _searchsorted_lookup(EDGES, heights, x))


def test_radial_eval_matches_searchsorted_lookup(rng):
    f = RadialGridDensity(3, [0.0, 0.5, 1.0, 1.5], [2.0, 0.0, 1.0])
    x = rng.normal(size=(400, 3))
    x[:4] = [[0.5, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.5],
             [0.0, 0.0, 0.0]]
    r = np.linalg.norm(x, axis=1)
    assert np.array_equal(f.eval_many(x),
                          _searchsorted_lookup(f.edges, f.heights, r))


def choice_bins(weights, size, rng):
    """Row i's size bins as rng.choice over its p draws them, the rows'
    calls in order reading the stream as one (s, size) draw; an all-zero
    row, which choice rejects, spends its uniforms on bin 0."""
    bins = np.zeros((len(weights), size), dtype=int)
    for row, w in zip(bins, weights):
        if w.any():
            row[:] = rng.choice(w.size, size=size, p=w / w.sum())
        else:
            rng.random(size)
    return bins


def place_in_bins(grid, bins, rng):
    """A uniform point in each bin of row i of grid, from one more draw."""
    lo = np.take_along_axis(grid, bins, axis=1)
    hi = np.take_along_axis(grid, bins + 1, axis=1)
    return lo + rng.random(bins.shape) * (hi - lo)


@pytest.mark.parametrize("weights", [
    [0.0, 1.0, 0.0, 2.5, 0.0],
    [3.0],
    [0.2, 0.0, 0.0, 0.7, 0.1, 1e-300],
    [1e-3, 1.0, 1e3, 0.0],
], ids=["zero-bins", "one-bin", "tiny-bin", "wide-range"])
@pytest.mark.parametrize("size", [1, 10, 200_000])
def test_many_law_sampler_replays_the_choice_draws(weights, size):
    # rows: the case, an all-zero row and the case reversed and rescaled,
    # each choice over its p from its first uniforms, placed by its second
    # ones; the all-zero row gives finite points in its first bin, with no
    # RuntimeWarning
    weights = np.asarray(weights)
    weights = np.stack([weights, 0.0 * weights, 2.5 * weights[::-1]])
    widths = np.random.default_rng(1).uniform(0.5, 2.0,
                                              (3, weights.shape[1] + 1))
    grid = np.cumsum(widths, axis=1) - 3.0
    ours, theirs = np.random.default_rng(8), np.random.default_rng(8)
    got = _piecewise_uniform(grid, weights, size, ours)
    bins = choice_bins(weights, size, theirs)
    assert np.array_equal(got, place_in_bins(grid, bins, theirs))
    assert ours.random() == theirs.random()
    assert not np.any(np.take_along_axis(weights, bins, axis=1)[[0, 2]]
                      == 0.0)
    assert np.all(np.isfinite(got[1]))


def test_step_samplers_reject_empty_and_infinite_mass():
    # bins of widths 2 and 1 on the line, and radial shells of volumes 2
    # and 1 in dimension one, weigh these heights into the weights
    # [0, 0], [inf, 1] and [1e308, 1e308]
    for heights, weights in (([0.0, 0.0], [0.0, 0.0]),
                             ([1e308, 1.0], [np.inf, 1.0]),
                             ([5e307, 1e308], [1e308, 1e308])):
        with np.errstate(over="ignore"):
            assert np.array_equal(np.multiply(heights, [2.0, 1.0]), weights)
        radial = RadialGridDensity(1, [0.0, 1.0, 1.5], heights)
        assert radial.shell_volumes().tolist() == [2.0, 1.0]
        for f in (Step1D([0.0, 2.0, 3.0], heights), radial):
            rng = np.random.default_rng(2)
            with pytest.raises(ValueError, match="cannot sample"), \
                    np.errstate(over="ignore"):
                f.sample(5, rng)
            # raised before any draw
            assert rng.random() == np.random.default_rng(2).random()


def test_step_samplers_replay_the_choice_draws():
    # the parent form: choice for the bin, one more uniform inside it
    f = Step1D([-1.0, -0.5, 0.25, 2.0], [1.0, 0.0, 0.4])
    ours, theirs = np.random.default_rng(3), np.random.default_rng(3)
    got = f.sample(5000, ours)[:, 0]
    weights = f.heights * np.diff(f.edges)
    bins = theirs.choice(3, size=5000, p=weights / weights.sum())
    lo = f.edges[bins]
    expected = lo + theirs.random(5000) * (f.edges[bins + 1] - lo)
    assert np.array_equal(got, expected)
    assert ours.random() == theirs.random()


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_radial_sampler_replays_the_choice_draws(n):
    f = RadialGridDensity(n, [0.0, 0.3, 0.7, 1.0, 1.6], [1.0, 0.0, 2.0, 0.5])
    ours, theirs = np.random.default_rng(4), np.random.default_rng(4)
    got = f.sample(5000, ours)
    weights = f.heights * f.shell_volumes()
    shells = theirs.choice(4, size=5000, p=weights / weights.sum())
    lo = f.edges[shells] ** n
    hi = f.edges[shells + 1] ** n
    r = (lo + theirs.random(5000) * (hi - lo)) ** (1.0 / n)
    g = theirs.standard_normal((5000, n))
    g /= np.linalg.norm(g, axis=-1, keepdims=True)
    assert np.array_equal(got, g * r[:, None])
    assert ours.random() == theirs.random()


@pytest.mark.parametrize("lead", [(1,), (7,), (3, 5), (64, 2000)])
@pytest.mark.parametrize("scale", [1.0, 1e-160, 1e160])
def test_row_norms_match_linalg_norm(lead, scale, rng):
    with np.errstate(over="ignore", under="ignore"):
        for k in range(1, 10):
            # spread magnitudes so that rounding order shows
            x = rng.normal(size=lead + (k,)) \
                * np.exp(3.0 * rng.normal(size=lead + (k,))) * scale
            for y in (x, x[..., ::-1]):
                got = _row_norms(y)
                assert got.shape == lead
                assert np.array_equal(got, np.linalg.norm(y, axis=-1)), k


# ---------------------------------------------------------------------------
# point kernels in blocks of ROW_BLOCK rows, against the whole-array forms

BLOCK_COUNTS = [1, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 3 * ROW_BLOCK + 5]


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def reference_simplex_powers(pts, origin, p):
    """_simplex_powers as one slot-major stack (q, ..., d): the volumes of
    a view with the slot axis next to the coordinates."""
    if not origin:
        pts = pts[1:] - pts[0]
    return powz(_tuple_volumes(np.moveaxis(pts, 0, -2)), p)


# (q, d, origin, p): r = min(tuple rows, d) is 1, 2 (one minor and three)
# and 3 (the SVD)
SIMPLEX_CASES = [(1, 3, True, 1.0), (2, 1, False, 0.0), (2, 2, True, 1.0),
                 (3, 2, False, 2.5), (2, 3, True, -0.5), (3, 2, True, 1.0),
                 (3, 3, True, 0.5), (4, 3, False, 1.0)]


@pytest.mark.parametrize("q,d,origin,p", SIMPLEX_CASES)
def test_simplex_powers_match_the_stacked_form(q, d, origin, p, rng):
    for m in BLOCK_COUNTS:
        slots = [rng.normal(size=(m, d)) for _ in range(q)]
        # degenerate tuples, which read exactly 0: a point at the origin,
        # or one repeated
        slots[-1][: m // 3] = 0.0 if origin else slots[0][: m // 3]
        got = _simplex_powers(slots, origin, p)
        assert _same_bits(got, reference_simplex_powers(np.stack(slots),
                                                        origin, p)), m


@pytest.mark.parametrize("q,k,origin", [(2, 2, True), (1, 1, True),
                                        (3, 2, False)])
def test_simplex_powers_of_section_point_slots(q, k, origin, rng):
    # one (flats, inner, k) array per slot, as _section_moments passes them
    slots = [rng.normal(size=(83, 100, k)) for _ in range(q)]
    got = _simplex_powers(slots, origin, 1.0)
    assert got.shape == (83, 100)
    assert _same_bits(got, reference_simplex_powers(np.stack(slots),
                                                    origin, 1.0))


def test_single_minor_volume_without_a_leading_axis(rng):
    def reference(x):
        # the sum over the minors of a 2 x 2 tuple, as it was formed
        a, b = x[..., 0, :], x[..., 1, :]
        minors = a[..., [0]] * b[..., [1]] - a[..., [1]] * b[..., [0]]
        frob2 = (x[..., 0, 0] ** 2 + x[..., 0, 1] ** 2) \
            + (x[..., 1, 0] ** 2 + x[..., 1, 1] ** 2)
        prod = np.sqrt(np.einsum("...m,...m->...", minors, minors))
        top2 = 0.5 * (frob2 + np.sqrt(np.maximum(frob2 ** 2 - 4.0 * prod ** 2,
                                                 0.0)))
        return np.where(prod <= SV_RELATIVE_CUTOFF * top2, 0.0, prod / 2.0)

    one = np.array([[1.0, 0.0], [0.0, 2.0]])
    assert _tuple_volumes(one) == 1.0
    assert _same_bits(_tuple_volumes(one), reference(one))
    stack = rng.normal(size=(500, 2, 2)) * np.exp(rng.normal(size=(500, 1, 1)))
    got = _tuple_volumes(stack)
    assert _same_bits(got, reference(stack))
    assert _same_bits(got, [_tuple_volumes(x) for x in stack])


class StubGenerator:
    """A generator stand-in: standard_normal hands out the given values,
    then ordinary normals, and random uniforms; each call is logged."""

    def __init__(self, special, seed):
        self.special, self.rng, self.calls = special, \
            np.random.default_rng(seed), []

    def standard_normal(self, shape):
        self.calls.append(("standard_normal", shape))
        g = self.rng.standard_normal(shape)
        g.reshape(-1)[ROW_BLOCK + 7:ROW_BLOCK + 7 + len(self.special)] = \
            self.special
        return g

    def random(self, shape):
        self.calls.append(("random", shape))
        return self.rng.random(shape)


# an exact zero, tiny draws whose square underflows, a huge one whose
# square overflows; they land in the second block of rows
SPECIAL_DRAWS = [0.0, 1e-160, -1e-160, 3e-151, 1e200, -2.5]


def reference_directions(shape, k, rng):
    # in one dimension g / |g| is the sign at any magnitude of g
    g = rng.standard_normal(shape + (k,))
    if k == 1:
        return np.sign(g)
    with np.errstate(invalid="ignore"):
        g /= _row_norms(g)[..., None]
    return g


def reference_ball(dim, shape, rng):
    g = reference_directions(shape, dim, rng)
    g[np.isnan(g)] = 0.0
    strata = (np.arange(shape[-1]) + rng.random(shape)) / shape[-1]
    g *= strata[..., None] ** (1.0 / dim)
    return g


def reference_step_sample(f, size, rng):
    """Step1D.sample on whole arrays: a bin by Generator.choice, then a
    uniform inside it."""
    widths = np.diff(f.edges)
    weights = f.heights * widths
    bins = rng.choice(weights.size, size, p=weights / weights.sum())
    x = rng.random(size)
    x *= widths.take(bins)
    x += f.edges.take(bins)
    return x[:, None]


def reference_radial_sample(f, size, rng):
    """RadialGridDensity.sample on whole arrays: a shell by
    Generator.choice, r^n uniform in it, then a direction."""
    weights = f.heights * f.shell_volumes()
    shells = rng.choice(weights.size, size, p=weights / weights.sum())
    powers = f.edges ** f.n
    r = rng.random(size)
    r *= np.diff(powers).take(shells)
    r += powers.take(shells)
    r **= 1.0 / f.n
    return _directions((size,), f.n, rng, r)


# a step factor with an empty bin, and the 12-shell f* of a 2-d product
STEP_LAWS = {
    "step": (Step1D([-1.0, -0.5, 0.25, 2.0], [1.0, 0.0, 0.4]),
             reference_step_sample),
    "radial": (rearrangement(ProductDensity(
        [Step1D.uniform(-1.0, 1.0, [2.2, 0.3, 1.0, 0.3, 2.2]),
         Step1D.uniform(-1.0, 1.0, [0.5, 1.9, 0.3, 1.9, 0.4])])),
        reference_radial_sample)}


@pytest.mark.parametrize("law", STEP_LAWS)
def test_step_law_samplers_match_the_whole_array_forms(law):
    f, reference = STEP_LAWS[law]
    if law == "radial":
        assert len(f.heights) == 12
    for size in BLOCK_COUNTS:
        ours, theirs = np.random.default_rng(9), np.random.default_rng(9)
        assert _same_bits(f.sample(size, ours), reference(f, size, theirs))
        assert ours.random() == theirs.random()


# step-law section stacks: radial sections through a unit axis flat at four
# distances, the last past the support, and product lines along one
# direction at four offsets, the last missing the box
RADIAL = RadialGridDensity(3, [0.0, 0.3, 0.7, 1.0, 1.6], [1.0, 0.0, 2.0, 0.5])
PRODUCT = ProductDensity([Step1D.uniform(-1.0, 1.0, [1.0, 0.0, 2.0]),
                          Step1D.uniform(-1.0, 1.0, [0.5, 1.5])])


@pytest.mark.parametrize("f, k", [(RADIAL, 1), (RADIAL, 2), (PRODUCT, 1)],
                         ids=["radial-lines", "radial-planes", "product"])
def test_step_section_points_replay_the_choice_draws(f, k):
    # each row's bin as choice over its p from the row's first uniforms,
    # a uniform point in it from its second ones (r^k for a radial shell,
    # then a direction); a zero-mass row draws in its first bin
    size = 2000
    if f is RADIAL:
        bases = np.repeat(np.eye(3)[None, :, :k], 4, axis=0)
        offsets = np.outer([0.0, 0.5, 1.2, 2.0], [0.0, 0.0, 1.0])
    else:
        bases = np.repeat(np.array([[[0.6], [0.8]]]), 4, axis=0)
        offsets = np.outer([0.0, 0.3, -0.5, 3.0], [-0.8, 0.6])
    ours, theirs = np.random.default_rng(5), np.random.default_rng(5)
    masses, got = section_points(f, bases, offsets, size, ours)
    assert masses[-1] == 0.0 and np.all(masses[:-1] > 0.0)
    _, _, grid, heights = f._sections(bases, offsets)
    if f is RADIAL:
        grid, heights = grid ** k, f.heights
    bins = choice_bins(heights * np.diff(grid, axis=1), size, theirs)
    x = place_in_bins(grid, bins, theirs)
    if f is RADIAL:
        x = reference_directions((4, size), k, theirs) \
            * (x ** (1.0 / k) if k > 1 else x)[..., None]
    else:
        x = x[..., None]
    assert np.array_equal(got, x)
    assert ours.random() == theirs.random()


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("shape", [(2 * ROW_BLOCK + 3,), (70, 300)])
@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_directions_and_ball_match_the_broadcast_forms(k, shape):
    ours, theirs = StubGenerator(SPECIAL_DRAWS, 5), \
        StubGenerator(SPECIAL_DRAWS, 5)
    radii = np.random.default_rng(6).random(shape)
    got = _directions(shape, k, ours, radii)
    want = reference_directions(shape, k, theirs)
    # a zero row is left at zero where the division gave 0 / 0
    want[np.isnan(want)] = 0.0
    want *= radii[..., None]
    assert _same_bits(got, want)
    assert _same_bits(_uniform_ball(k, shape, ours),
                      reference_ball(k, shape, theirs))
    assert ours.calls == theirs.calls


def test_dim_one_directions_are_signed_radii_at_any_magnitude():
    # g * g underflows at 1e-200 and 1e-160 and overflows at 2e154; the
    # zero rows stay zero, sign included
    g = np.array([0.0, -0.0, 1e-200, -1e-200, 1e-160, -3e-151, 1e-150,
                  -1e150, 2e154, -0.7])
    size = ROW_BLOCK + 7 + g.size
    got = _directions((size,), 1, StubGenerator(g, 0),
                      np.full(size, 2.5))[ROW_BLOCK + 7:, 0]
    assert got.tolist() == [0.0, 0.0] + [2.5, -2.5] * 4
    assert np.signbit(got[:2]).tolist() == [False, True]
    ball = _uniform_ball(1, (size, 1), StubGenerator(g, 0))
    assert ball[ROW_BLOCK + 7:ROW_BLOCK + 9].ravel().tolist() == [0.0, 0.0]
    assert np.array_equal(np.sign(ball[ROW_BLOCK + 9:ROW_BLOCK + 7 + g.size,
                                       0, 0]), [1.0, -1.0] * 4)


def test_product_and_pushforward_eval_match_the_strided_forms(rng):
    f = ProductDensity([Step1D.uniform(-1.0, 1.0, [1.0, 2.0, 1.0]),
                        Step1D([-0.5, 0.0, 0.5], [0.5, 1.5]),
                        Step1D.uniform(-1.5, 1.5, [1.0, 1.0, 2.0, 1.0])], 0.7)
    edges = np.concatenate([g.edges for g in f.factors])
    x = np.concatenate([rng.uniform(-1.2, 1.2, (3 * ROW_BLOCK, 3)),
                        np.tile(edges[:, None], (1, 3))])
    want = np.full(len(x), f.amplitude)
    for i, g in enumerate(f.factors):
        want = want * g.eval_many(x[:, i:i + 1])
    assert _same_bits(f.eval_many(x), want)
    assert np.count_nonzero(want) > len(x) // 5
    # the pushforward's shift, column by column, against the broadcast one
    shear = np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.3], [0.0, 0.0, 1.0]])
    g = affine_image(f, (shear, [0.1, -0.2, 0.05]))
    assert _same_bits(g.eval_many(x),
                      f.eval_many((x - g.shift) @ np.linalg.inv(shear).T))


def reference_mc_stats(f, bases, offsets, count, rng):
    """The Monte Carlo branch of section_stats on the whole stack at once."""
    bases = _per_row(bases, len(offsets))
    s, n, k = bases.shape
    gap = f.support_radius ** 2 - np.einsum("si,si->s", offsets, offsets)
    w = np.sqrt(np.maximum(gap, 0.0))
    u = reference_ball(k, (s, count), rng) * w[:, None, None]
    pts = offsets[:, None, :] + u @ np.swapaxes(bases, 1, 2)
    vals = f.eval_many(pts.reshape(-1, n)).reshape(s, count)
    vals[gap <= 0] = 0.0
    vol = unit_ball_volume(k) * w ** k
    return (vol * vals.mean(axis=1), vals.max(axis=1),
            vol * vals.std(axis=1, ddof=1) / math.sqrt(count))


def mc_densities():
    box = ProductDensity([Step1D.uniform(-1.0, 1.0, [1.0, 2.0, 1.0]),
                          Step1D.uniform(-1.0, 1.0, [0.5, 1.5]),
                          Step1D.uniform(-1.0, 1.0, [1.0, 1.0, 2.0, 1.0])])
    shear = np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.3], [0.0, 0.0, 1.0]])
    return {"product": box,
            "pushforward": affine_image(box, (shear, None)),
            "radial": RadialGridDensity.uniform(3, 1.5, [1.0, 0.8, 0.3])}


@pytest.mark.parametrize("family", ["product", "pushforward", "radial"])
@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("count", [64, 300])
def test_mc_section_stats_match_the_whole_stack_form(family, k, count, rng):
    f = mc_densities()[family]
    # 3 blocks of lines, the last short, sharing each basis over 3 offsets;
    # some flats miss the support
    s = 3 * (ROW_BLOCK // count) - 7
    s -= s % 3
    bases = haar_bases(3, k, s // 3, rng)
    offsets = rng.normal(size=(s, 3)) * 1.2
    rows = _per_row(bases, s)
    offsets -= np.einsum("snk,sk->sn", rows,
                         np.einsum("snk,sn->sk", rows, offsets))
    assert np.any(np.linalg.norm(offsets, axis=1) > f.support_radius)
    seed = int(rng.integers(1 << 31))
    got = section_stats(f, bases, offsets, ("mc", count),
                        np.random.default_rng(seed))
    want = reference_mc_stats(f, bases, offsets, count,
                              np.random.default_rng(seed))
    for a, b in zip(got, want):
        assert _same_bits(a, b)


def traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_mc_window_blocks_bound_the_traced_peak(rng):
    # 2,000 lines x 64 window points through a sheared box: beyond the one
    # ball draw and the (lines, 64) values, only a block of points is live
    f = mc_densities()["pushforward"]
    bases = haar_bases(3, 1, 2000, rng)
    peak = traced_peak(lambda: section_stats(
        f, bases, np.zeros((2000, 3)), ("mc", 64), rng))
    assert peak < 2 * 2000 * 64 * 8 + (2 << 20)


def test_step_values_blocks_match_and_bound_the_traced_peak(rng):
    # a step factor read on 200,000 points: the same values as one
    # whole-array lookup, and beyond the (m,) values only a block of bin
    # counts, widened to intp inside take, is live
    f = Step1D.uniform(-1.0, 1.0, [2.2, 0.3, 1.0, 0.3, 2.2])
    for m in BLOCK_COUNTS:
        x = rng.uniform(-1.5, 1.5, m)
        assert _same_bits(_step_values(f.edges, f.heights, x),
                          _searchsorted_lookup(f.edges, f.heights, x)), m
    m = 200_000
    x = rng.uniform(-1.5, 1.5, (m, 1))
    peak = traced_peak(lambda: f.eval_many(x))
    assert peak < m * 8 + (1 << 19)


def test_simplex_moment_blocks_bound_the_traced_peak():
    # three bimodal2-shaped product slots over 200,000 tuples: beyond one
    # value per tuple and numpy's one std temporary, only a block of
    # tuples is live
    f = ProductDensity([Step1D.uniform(-1.0, 1.0, [2.2, 0.3, 1.0, 0.3, 2.2]),
                        Step1D.uniform(-1.0, 1.0, [0.5, 1.9, 0.3, 1.9, 0.4])])
    m = 200_000
    peak = traced_peak(lambda: simplex_moment(
        [f] * 3, 1.0, False, m, np.random.default_rng(3)))
    assert peak < 2 * m * 8 + (1 << 20)
