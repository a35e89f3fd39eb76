"""Bit-for-bit equivalence of the small kernels under the samplers.

densities._bin_count stands in for np.searchsorted into a few bin edges,
densities._choose_bins for Generator.choice with probabilities, and
geometry._row_norms for np.linalg.norm along the last axis.  Each must give
the generic call's exact bits, and the sampler must leave the generator
where the generic call leaves it, so that the same seeds keep giving the
same results.csv.
"""

import numpy as np
import pytest

from igeolab.densities import RadialGridDensity, Step1D, _bin_count, \
    _choose_bins, _step_quantiles, _step_values
from igeolab.geometry import _row_norms

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
    # the _step_quantiles form: row i compares against its own edges
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


@pytest.mark.parametrize("weights", [
    [0.0, 1.0, 0.0, 2.5, 0.0],
    [3.0],
    [0.2, 0.0, 0.0, 0.7, 0.1, 1e-300],
    [1e-3, 1.0, 1e3, 0.0],
], ids=["zero-bins", "one-bin", "tiny-bin", "wide-range"])
@pytest.mark.parametrize("size", [1, 10, 200_000])
def test_choose_bins_is_generator_choice(weights, size):
    weights = np.asarray(weights)
    ours, theirs = np.random.default_rng(8), np.random.default_rng(8)
    got = _choose_bins(weights, size, ours)
    expected = theirs.choice(weights.size, size=size,
                             p=weights / weights.sum())
    assert np.array_equal(got, expected)
    assert ours.random() == theirs.random()
    assert not np.any(weights[got] == 0.0)


def test_choose_bins_rejects_empty_and_infinite_mass(rng):
    for weights in ([0.0, 0.0], [np.inf, 1.0], [1e308, 1e308]):
        with pytest.raises(ValueError, match="cannot sample"), \
                np.errstate(over="ignore"):
            _choose_bins(np.array(weights), 5, rng)


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


def test_step_quantiles_skip_zero_weight_bins(rng):
    edges = np.tile([0.0, 1.0, 2.0, 3.0, 4.0], (3, 1))
    weights = np.array([[1.0, 0.0, 1.0, 0.0], [0.0, 0.0, 2.0, 0.0],
                        [0.5, 0.5, 0.5, 0.5]])
    u = np.concatenate([np.array([[0.0, 0.5, 1.0 - 1e-16]] * 3),
                        rng.random((3, 200))], axis=1)
    q = _step_quantiles(edges, weights, u)
    assert np.all((q[0] <= 1.0) | (q[0] >= 2.0) & (q[0] <= 3.0))
    assert np.all((q[1] >= 2.0) & (q[1] <= 3.0))
    assert np.all((q[2] >= 0.0) & (q[2] <= 4.0))
    # a tie at a cumulative weight lands at the start of the next live bin
    assert q[0, 1] == 2.0


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
