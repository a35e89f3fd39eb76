"""Subspace and flat sampling.

The distributional tests (KS statistics, two-sample comparisons, cap
measure scaling) run at fixed seeds; thresholds were set loose enough that
an honest implementation passes with margin while a biased sampler fails
decisively.  p > 1e-3 on 1e5 draws detects direction bias of a fraction of
a percent.
"""

import math

import numpy as np
import pytest
from scipy import stats

from igeolab.geometry import unit_ball_volume
from igeolab.grassmann import (Subspace, distances_to, flat_frames,
                               grassmann_distance, haar_bases,
                               perturb_subspace, project, sample_subspace,
                               uniform_ball)


def test_haar_bases_orthonormal(rng):
    bases = haar_bases(5, 3, 64, rng)
    assert bases.shape == (64, 5, 3)
    gram = np.einsum("sij,sil->sjl", bases, bases)
    assert np.allclose(gram, np.eye(3), atol=1e-10)


@pytest.mark.parametrize("n,k", [(3, 2), (4, 3), (6, 5)])
def test_haar_bases_orthonormal_to_rounding(n, k):
    # the second Gram-Schmidt pass is what holds this: with one pass every
    # shape here exceeds the bound at this many draws
    bases = haar_bases(n, k, 200_000, np.random.default_rng(n * 10 + k))
    gram = np.matmul(bases.transpose(0, 2, 1), bases)
    assert np.abs(gram - np.eye(k)).max() <= 1e-14


@pytest.mark.parametrize("n,k", [(2, 1), (4, 2), (6, 5)])
def test_haar_bases_is_sign_fixed_qr_of_the_draw(n, k):
    bases = haar_bases(n, k, 500, np.random.default_rng(5))
    a = np.random.default_rng(5).standard_normal((500, n, k))
    q, r = np.linalg.qr(a)
    signs = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
    assert np.abs(bases - q * signs[:, None, :]).max() <= 1e-10


def test_haar_bases_consumes_one_gaussian_draw():
    g = np.random.default_rng(9)
    haar_bases(4, 2, 300, g)
    ref = np.random.default_rng(9)
    ref.standard_normal((300, 4, 2))
    assert g.random() == ref.random()


@pytest.mark.parametrize("n,k", [(2, 1), (3, 1), (3, 2), (4, 2)])
def test_flat_offsets_uniform_in_complement_ball(n, k):
    # offsets are perpendicular to their basis, |z|/R follows the radial
    # law U^(1/(n-k)) of the complement's ball, and the second moment
    # E[z z^T] = R^2/(n-k+2) (I - B B^T) holds within 4 sigma entrywise
    R, m = 1.5, 100_000
    bases, offsets, _ = flat_frames(n, k, R, m, np.random.default_rng(n + k))
    inner = np.einsum("snk,sn->sk", bases, offsets)
    assert np.abs(inner).max() <= 1e-14 * R
    r = np.linalg.norm(offsets, axis=1) / R
    assert r.max() <= 1.0 + 1e-12
    res = stats.kstest(r ** (n - k), "uniform")
    assert res.pvalue > 1e-3, f"radial law off, KS p={res.pvalue}"
    terms = np.einsum("si,sj->sij", offsets, offsets) - R ** 2 / (
        n - k + 2) * (np.eye(n) - np.einsum("sik,sjk->sij", bases, bases))
    stderr = terms.std(axis=0, ddof=1) / math.sqrt(m)
    assert np.all(np.abs(terms.mean(axis=0)) <= 4.0 * stderr)


def test_flat_frames_stream_layout():
    # a basis draw, an offset-direction draw, a radius draw, in that order
    g = np.random.default_rng(9)
    bases, offsets, _ = flat_frames(4, 2, 2.0, 300, g)
    ref = np.random.default_rng(9)
    assert np.array_equal(bases, haar_bases(4, 2, 300, ref))
    z = ref.standard_normal((300, 4))
    z -= np.einsum("snk,sk->sn", bases, np.einsum("snk,sn->sk", bases, z))
    radii = 2.0 * ref.random(300) ** 0.5
    assert np.allclose(offsets, z / np.linalg.norm(z, axis=1)[:, None]
                       * radii[:, None], rtol=1e-12, atol=1e-15)
    assert g.random() == ref.random()


def test_subspace_projector(rng):
    E = sample_subspace(4, 2, rng)
    P = E.projector
    assert np.allclose(P, P.T, atol=1e-12)
    assert np.allclose(P @ P, P, atol=1e-12)
    assert np.trace(P) == pytest.approx(2.0)
    Q = E.complement.projector
    assert np.allclose(P + Q, np.eye(4), atol=1e-10)
    x = rng.standard_normal(4)
    assert np.allclose(project(E, x), P @ x, atol=1e-12)


def test_subspace_coords_point_roundtrip(rng):
    E = sample_subspace(5, 2, rng)
    u = rng.standard_normal((7, 2))
    pts = E.point(u)
    assert np.allclose(E.coords(pts), u, atol=1e-10)


def test_direction_uniformity_ks(rng):
    # for a uniform direction on S^2 the first coordinate is uniform
    # on [-1, 1]; this is the classic Archimedes projection
    bases = haar_bases(3, 1, 100_000, rng)
    x1 = bases[:, 0, 0]
    res = stats.kstest(x1, stats.uniform(loc=-1.0, scale=2.0).cdf)
    assert res.pvalue > 1e-3, f"direction bias, KS p={res.pvalue}"


def test_rotation_invariance_two_sample(rng):
    # |P_E v| has the same law for E ~ Haar and for a rotated copy of E
    v = np.array([1.0, -2.0, 0.5, 0.25])
    rot, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    a = haar_bases(4, 2, 20_000, rng)
    b = haar_bases(4, 2, 20_000, rng)
    b = np.einsum("ij,sjl->sil", rot, b)
    na = np.linalg.norm(np.einsum("sji,j->si", a, v), axis=1)
    nb = np.linalg.norm(np.einsum("sji,j->si", b, v), axis=1)
    res = stats.ks_2samp(na, nb)
    assert res.pvalue > 1e-3, f"rotation broke the law of |P_E v|: p={res.pvalue}"


def test_grassmann_distance_axioms(rng):
    E = sample_subspace(4, 2, rng)
    assert grassmann_distance(E, E) == pytest.approx(0.0, abs=1e-7)
    for _ in range(25):
        F = sample_subspace(4, 2, rng)
        G = sample_subspace(4, 2, rng)
        d_ef = grassmann_distance(E, F)
        d_fg = grassmann_distance(F, G)
        d_eg = grassmann_distance(E, G)
        assert d_ef == pytest.approx(grassmann_distance(F, E), abs=1e-10)
        assert 0.0 <= d_ef <= math.sqrt(2.0) * math.pi / 2.0 + 1e-9
        assert d_eg <= d_ef + d_fg + 1e-9, "triangle inequality"


def test_distances_to_matches_pairwise(rng):
    E = sample_subspace(3, 1, rng)
    bases = haar_bases(3, 1, 40, rng)
    batch = distances_to(E, bases)
    for i in range(40):
        single = grassmann_distance(E, Subspace(bases[i]))
        assert batch[i] == pytest.approx(single, abs=1e-9)


def test_perturb_subspace_stays_close(rng):
    E = sample_subspace(4, 2, rng)
    for eta in (0.05, 0.3, 1.0):
        for _ in range(10):
            F = perturb_subspace(E, eta, rng)
            d = grassmann_distance(E, F)
            assert d <= eta + 1e-8, f"perturbation overshoots: {d} > {eta}"
    # and it actually moves
    far = [grassmann_distance(E, perturb_subspace(E, 0.3, rng))
           for _ in range(10)]
    assert max(far) > 0.01


def test_uniform_ball_radial_law(rng):
    u = uniform_ball(3, 50_000, rng)
    r = np.linalg.norm(u, axis=1)
    assert r.max() <= 1.0
    # r^3 is uniform on [0, 1]
    res = stats.kstest(r ** 3, "uniform")
    assert res.pvalue > 1e-3


def test_flat_frames_weight():
    for n, k, R in [(2, 1, 1.0), (3, 1, 2.0), (3, 2, 0.5), (4, 2, 3.0)]:
        rng = np.random.default_rng(0)
        bases, offsets, weight = flat_frames(n, k, R, 8, rng)
        assert bases.shape == (8, n, k)
        assert offsets.shape == (8, n)
        assert weight == pytest.approx(
            unit_ball_volume(n - k) * R ** (n - k), rel=1e-12)
        # offsets live in the orthogonal complement of their subspace
        inner = np.einsum("sij,si->sj", bases, offsets)
        assert np.allclose(inner, 0.0, atol=1e-9)
        assert np.all(np.linalg.norm(offsets, axis=1) <= R + 1e-12)


def test_flat_hitting_mass_window_two(rng):
    # windowed estimate of the measure of flats meeting the unit ball;
    # with R=2 the indicator is genuinely random, so this checks the
    # importance weight rather than just the constant
    n, k = 3, 1
    bases, offsets, weight = flat_frames(n, k, 2.0, 200_000, rng)
    hit = np.linalg.norm(offsets, axis=1) <= 1.0
    est = weight * hit.mean()
    stderr = weight * hit.std(ddof=1) / math.sqrt(hit.size)
    target = unit_ball_volume(n - k)
    assert abs(est - target) <= 3.0 * stderr, (est, target, stderr)


def test_cap_measure_scaling(rng):
    # mu(B(E, delta)) ~ delta^{k(n-k)} for small caps; halving delta on
    # G(3,1) should cut the count by about 2^2 = 4
    E = sample_subspace(3, 1, rng)
    bases = haar_bases(3, 1, 200_000, rng)
    d = distances_to(E, bases)
    big = float(np.mean(d <= 0.4))
    small = float(np.mean(d <= 0.2))
    assert big > 0 and small > 0
    ratio = big / small
    assert 3.0 < ratio < 5.0, f"cap scaling off: {ratio}"


def test_subspace_validation():
    with pytest.raises(ValueError):
        sample_subspace(3, 0, np.random.default_rng(1))
    with pytest.raises(ValueError):
        sample_subspace(3, 4, np.random.default_rng(1))
    # non-orthonormal basis rejected
    with pytest.raises(ValueError):
        Subspace(np.array([[1.0], [1.0]]))
