"""Subspace and flat sampling.

The distributional tests (KS statistics, two-sample comparisons, cap
measure scaling) run at fixed seeds; thresholds were set loose enough that
an honest implementation passes with margin while a biased sampler fails
decisively.  p > 1e-3 on 1e5 draws detects direction bias of a fraction of
a percent.
"""

import functools
import math

import numpy as np
import pytest
from scipy import stats

from igeolab import grassmann
from igeolab.densities import EllipsoidIndicator, GaussianDensity, \
    _uniform_ball
from igeolab.functionals import ExponentSpec, _norm_products
from igeolab.geometry import _gauss_legendre, unit_ball_volume
from igeolab.grassmann import (distances_to, flat_frames, haar_bases,
                               perturb_subspace, subspace_frames,
                               _orthonormalize)


def haar_basis(n, k, rng):
    """One Haar k-subspace of R^n, as an (n, k) basis."""
    return haar_bases(n, k, 1, rng)[0]


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


def test_subspace_frames_are_haar_bases_at_the_origin():
    # the linear twin of flat_frames: haar_bases's one draw, zero offsets,
    # unit weight
    g = np.random.default_rng(9)
    bases, offsets, weight = subspace_frames(4, 2, 300, g)
    ref = np.random.default_rng(9)
    assert np.array_equal(bases, haar_bases(4, 2, 300, ref))
    assert offsets.shape == (300, 4) and not offsets.any()
    assert weight == 1.0
    assert g.random() == ref.random()


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


def projector_distance(E: np.ndarray, basis: np.ndarray) -> float:
    """Reference Grassmann distance: the operator norm of the difference of
    the orthogonal projectors of span(E) and span(basis)."""
    return float(np.linalg.norm(E @ E.T - basis @ basis.T, 2))


def test_grassmann_distance_axioms(rng):
    E = haar_basis(4, 2, rng)
    assert distances_to(E, E[None])[0] == pytest.approx(0.0, abs=1e-7)
    for _ in range(25):
        F = haar_basis(4, 2, rng)
        G = haar_basis(4, 2, rng)
        d_ef, d_eg = distances_to(E, np.stack([F, G]))
        d_fg = distances_to(F, G[None])[0]
        assert d_ef == pytest.approx(projector_distance(E, F), abs=1e-9)
        assert d_ef == pytest.approx(distances_to(F, E[None])[0], abs=1e-10)
        assert 0.0 <= d_ef <= 1.0
        assert d_eg <= d_ef + d_fg + 1e-9, "triangle inequality"


def test_distances_to_matches_pairwise(rng):
    E = haar_basis(3, 1, rng)
    bases = haar_bases(3, 1, 40, rng)
    batch = distances_to(E, bases)
    for i in range(40):
        assert batch[i] == pytest.approx(projector_distance(E, bases[i]),
                                         abs=1e-9)


def test_perturb_subspace_stays_close(rng):
    E = haar_basis(4, 2, rng)
    for eta in (0.05, 0.3, 1.0):
        bases = perturb_subspace(E, eta, 10, rng)
        assert bases.shape == (10, 4, 2)
        for basis in bases:
            d = projector_distance(E, basis)
            assert d <= eta + 1e-8, f"perturbation overshoots: {d} > {eta}"
    # and it actually moves
    far = distances_to(E, perturb_subspace(E, 0.3, 10, rng))
    assert max(far) > 0.01


def _perturb_one_at_a_time(E, eta, rng):
    """The one-proposal-at-a-time rejection loop the block proposer
    replaces: one rng.standard_normal((n, k)) per proposal."""
    n, k = E.shape
    tau = 0.7 * eta / (np.sqrt(k) + np.sqrt(n - k))
    for _ in range(10_000):
        g = rng.standard_normal((n, k))
        candidate = _orthonormalize((E + tau * g)[None])[0]
        if projector_distance(E, candidate) <= eta:
            return candidate
    raise RuntimeError("no draw within eta")


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("n,k", [(3, 1), (4, 2)])
def test_perturb_subspace_blocks_match_one_at_a_time(seed, n, k):
    E = haar_basis(n, k, np.random.default_rng(100 + seed))
    for eta, count in ((0.5, 31), (0.05, 100)):
        got = perturb_subspace(E, eta, count, np.random.default_rng(seed))
        ref = np.random.default_rng(seed)
        want = [_perturb_one_at_a_time(E, eta, ref) for _ in range(count)]
        assert np.array_equal(got, np.stack(want))


def test_perturb_subspace_zero_count_draws_nothing(rng):
    E = haar_basis(3, 1, np.random.default_rng(0))
    state = repr(rng.bit_generator.state)
    assert perturb_subspace(E, 0.5, 0, rng).shape == (0, 3, 1)
    assert repr(rng.bit_generator.state) == state


def test_perturb_subspace_raises_when_proposals_run_out(monkeypatch):
    E = haar_basis(3, 1, np.random.default_rng(0))
    # one proposal per subspace sought: the first rejection is fatal
    monkeypatch.setattr(grassmann, "PERTURB_MAX_TRIES", 1)
    with pytest.raises(RuntimeError, match="after 200 proposals"):
        perturb_subspace(E, 0.5, 200, np.random.default_rng(0))


def test_uniform_ball_radial_law(rng):
    # independent points, and one draw of 50,000 equal-volume shells
    for shape in ((50_000, 1), (1, 50_000)):
        u = _uniform_ball(3, shape, rng).reshape(-1, 3)
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
    E = haar_basis(3, 1, rng)
    bases = haar_bases(3, 1, 200_000, rng)
    d = distances_to(E, bases)
    big = float(np.mean(d <= 0.4))
    small = float(np.mean(d <= 0.2))
    assert big > 0 and small > 0
    ratio = big / small
    assert 3.0 < ratio < 5.0, f"cap scaling off: {ratio}"


def test_subspace_validation():
    for k in (0, 3, 4):
        with pytest.raises(ValueError, match="1 <= k <= n-1"):
            haar_bases(3, k, 1, np.random.default_rng(1))


@pytest.mark.parametrize("E", [
    np.array([[1.0], [1.0]]),                # columns not unit length
    np.array([[1.0, 1.0], [0.0, 1.0]]),      # nor orthogonal
    np.ones(3),                              # not (n, k)
    np.eye(2, 3),                            # k > n
    np.zeros((3, 0)),                        # k = 0
    [[1.0], [0.0]],                          # not an array
])
def test_non_subspace_bases_are_rejected(E):
    bases = haar_bases(2, 1, 3, np.random.default_rng(2))
    with pytest.raises(ValueError, match="orthonormal columns"):
        perturb_subspace(E, 0.5, 2, np.random.default_rng(3))
    with pytest.raises(ValueError, match="orthonormal columns"):
        distances_to(E, bases)


# ---------------------------------------------------------------------------
# deterministic rules on lines and hyperplanes


def identity(n):
    """The identity form on R^n for lines and hyperplanes alike: the rule
    for the uniform law itself."""
    return lambda hyperplanes, flats: np.eye(n)


@pytest.mark.parametrize("n,k", [(2, 1), (3, 1), (3, 2)])
@pytest.mark.parametrize("level", [0, 1, 2])
def test_rule_weights_sum_to_one_on_orthonormal_bases(n, k, level):
    bases, offsets, weights = grassmann.rule_frames(n, k, level, identity(n))
    assert bases.shape == (len(weights), n, k)
    assert abs(weights.sum() - 1.0) <= 1e-14
    assert np.all(weights > 0) and not offsets.any()
    gram = np.einsum("sij,sil->sjl", bases, bases)
    assert np.abs(gram - np.eye(k)).max() <= 1e-14


@pytest.mark.parametrize("n", [2, 3])
def test_direction_rule_integrates_even_polynomials(n):
    # moments of a uniform unit vector: E t_i^2 = 1/n,
    # E t_i^4 = 3/(n(n+2)), E t_i^2 t_j^2 = 1/(n(n+2))
    bases, _, weights = grassmann.rule_frames(n, 1, 0, identity(n))
    theta = bases[..., 0]
    for i in range(n):
        assert abs(weights @ theta[:, i] ** 2 - 1.0 / n) <= 1e-14
        assert abs(weights @ theta[:, i] ** 4 - 3.0 / (n * (n + 2))) <= 1e-14
    mixed = weights @ (theta[:, 0] ** 2 * theta[:, 1] ** 2)
    assert abs(mixed - 1.0 / (n * (n + 2))) <= 1e-14
    # a degree-4 polynomial off the axes the rule is built on
    u = np.arange(1.0, n + 1.0)
    u /= np.linalg.norm(u)
    assert abs(weights @ (theta @ u) ** 4 - 3.0 / (n * (n + 2))) <= 1e-14


def test_flat_rule_measures_the_hyperplanes_meeting_a_ball():
    # with exponent 0 the weights integrate 1 over the hyperplanes meeting
    # the body: its mean width, 2 for a unit ball wherever it sits
    # (flat_frames' normalization); offsets are foot points on the normals
    center = np.array([0.3, -0.2, 0.1])
    bases, offsets, weights = grassmann.rule_frames(
        3, 2, 0, identity(3), center, 0.0)
    assert abs(weights.sum() - 2.0) <= 1e-14
    r = len(offsets) // len(bases)
    assert r == grassmann.OFFSET_NODES
    along = np.einsum("snk,srn->srk", bases, offsets.reshape(-1, r, 3))
    assert np.abs(along).max() <= 1e-15
    # the outer nodes sit symmetrically about the centre's foot point
    feet = offsets.reshape(-1, r, 3)
    mid = 0.5 * (feet[:, 0] + feet[:, -1])
    normals = np.cross(bases[:, :, 0], bases[:, :, 1])
    assert np.abs(mid - (normals @ center)[:, None] * normals).max() <= 1e-15
    reach = np.linalg.norm(feet[:, -1] - feet[:, 0], axis=1)
    x = _gauss_legendre(r)[0]
    assert np.abs(reach - 2.0 * x[-1]).max() <= 1e-15


@pytest.mark.parametrize("exponent", [2.0, 1.5])
def test_flat_rule_offsets_integrate_the_power(exponent):
    # int (1 - rho^2)^e d rho over [-1, 1]: 16/15 at e = 2 (exact with the
    # Gauss-Legendre nodes in rho) and 3 pi / 8 at e = 1.5 (rho = cos psi)
    want = {2.0: 16.0 / 15.0, 1.5: 3.0 * math.pi / 8.0}[exponent]
    values = []
    for level in range(4):
        _, offsets, weights = grassmann.rule_frames(
            2, 1, level, identity(2), np.zeros(2), exponent)
        rho = np.linalg.norm(offsets, axis=1)
        values.append(weights @ (1.0 - rho * rho) ** exponent)
    assert abs(values[-1] - want) <= 1e-14
    if exponent == 2.0:
        assert abs(values[0] - want) <= 1e-14


@pytest.mark.parametrize("n,k", [(2, 1), (3, 1), (3, 2), (5, 2)])
def test_radial_rule_integrates_ball_powers_in_every_codimension(n, k):
    # flats within R = 2 of the origin along the first k axes, weighted by
    # the measure of their distance rho: sum(weights * g(rho)) against
    # kappa_c R^c (c/2) B(c/2, e + 1), c = n - k, the integral of
    # g = (1 - (rho/R)^2)^e, a polynomial of degree c - 1 + 2e <= 11 under
    # the density, exact at every level
    c, R = n - k, 2.0
    for e in range(5):
        want = unit_ball_volume(c) * R ** c * 0.5 * c * math.gamma(0.5 * c) \
            * math.gamma(e + 1.0) / math.gamma(0.5 * c + e + 1.0)
        for level in range(3):
            bases, offsets, weights = grassmann.radial_frames(n, k, R, level)
            assert bases.shape == (1, n, k)
            assert offsets.shape == (grassmann.OFFSET_NODES << level, n)
            assert np.abs(offsets @ bases[0]).max() == 0.0
            rho = np.linalg.norm(offsets, axis=1)
            assert 0.0 < rho.min() and rho.max() < R
            got = weights @ (1.0 - (rho / R) ** 2) ** e
            assert abs(got - want) <= 1e-14 * want, (e, level)


def test_radial_average_reports_a_kink_it_cannot_resolve():
    # a kink at rho = 0.7 inside a panel at every level: the rule stops at
    # the frame cap, its error at 1e-9 relative, and reports its last
    # change; without one the second level agrees with the first
    def kink(bases, offsets):
        return np.maximum(0.7 - np.linalg.norm(offsets, axis=1), 0.0)

    value, error, nodes = grassmann.radial_average(2, 1, 1.0, kink)
    assert nodes <= grassmann.RULE_MAX_FRAMES < 2 * nodes
    assert abs(value - 0.49) <= 1e-8
    assert error > grassmann.RULE_RTOL * value

    value, error, nodes = grassmann.radial_average(
        3, 1, 1.0, lambda bases, offsets: np.ones(len(offsets)))
    assert abs(value - math.pi) <= 1e-15 * math.pi
    assert error == grassmann.RULE_RTOL * value
    assert nodes == 2 * grassmann.OFFSET_NODES


def test_rule_average_stops_when_a_level_agrees_with_the_one_before():
    calls = []

    def integrand(bases, offsets):
        calls.append(len(bases))
        return bases[:, 0, 0] ** 2

    value, error, nodes = grassmann.rule_average(3, 1, integrand,
                                                 identity(3))
    assert abs(value - 1.0 / 3.0) <= 1e-15
    assert error == grassmann.RULE_RTOL * value
    assert calls == [128, 512] and nodes == 512


def test_rule_average_stops_at_the_frame_cap():
    # a kink is never resolved; the last level's change is the error
    calls = []

    def integrand(bases, offsets):
        calls.append(len(bases))
        return np.abs(bases[:, 0, 0])

    value, error, nodes = grassmann.rule_average(3, 1, integrand,
                                                 identity(3))
    assert nodes == calls[-1] <= grassmann.RULE_MAX_FRAMES
    assert 4 * nodes > grassmann.RULE_MAX_FRAMES
    assert abs(value - 0.5) <= error
    assert error > grassmann.RULE_RTOL * value


# the rule matched to a quadratic form C: directions from the angular
# central Gaussian law of C


def spd_form(n, condition, rng):
    """A random SPD form of the given condition number, with its
    eigenvalues and eigenvectors, so that theta^T C theta and det C can be
    read without cancellation."""
    q = _orthonormalize(rng.standard_normal((1, n, n)))[0]
    d = np.geomspace(1.0, condition, n) * rng.uniform(0.5, 2.0)
    return (q * d) @ q.T, d, q


def rule_directions(bases, k):
    """The node theta of each rule basis: the line's direction at k = 1,
    else the hyperplane's normal."""
    if k == 1:
        return bases[..., 0]
    if bases.shape[1] == 2:
        return np.stack([-bases[:, 1, 0], bases[:, 0, 0]], axis=-1)
    return np.cross(bases[..., 0], bases[..., 1])


NK = [(2, 1), (3, 1), (3, 2)]


@pytest.mark.parametrize("n,k", NK)
def test_matched_rule_weights_sum_to_one(n, k):
    form, _, _ = spd_form(n, 4.0, np.random.default_rng(n + k))
    bases, offsets, weights = grassmann.rule_frames(n, k, 2,
                                                    lambda *_: form)
    assert abs(weights.sum() - 1.0) <= 1e-14
    assert np.all(weights > 0) and not offsets.any()
    gram = np.einsum("sij,sil->sjl", bases, bases)
    assert np.abs(gram - np.eye(k)).max() <= 1e-14


@pytest.mark.parametrize("n,k", NK)
@pytest.mark.parametrize("condition", [1.0, 10.0, 1e2, 1e4])
def test_matched_rule_integrates_its_density_at_level_0(n, k, condition):
    # E (theta^T C theta)^(-n/2) = det(C)^(-1/2) over the uniform law: the
    # integrand is a multiple of the density the rule is matched to
    form, d, q = spd_form(n, condition, np.random.default_rng(7))
    bases, _, weights = grassmann.rule_frames(n, k, 0, lambda *_: form)
    quad = (rule_directions(bases, k) @ q) ** 2 @ d
    got = weights @ quad ** (-0.5 * n)
    assert got == pytest.approx(np.prod(d) ** -0.5, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("n,k", NK)
def test_matched_and_product_rules_agree_off_their_form(n, k):
    # a smooth integrand the form does not match, and a Grinberg pair of
    # a Gaussian and an ellipsoid, whose first slot's form is the rule's
    rng = np.random.default_rng(11)
    form, _, _ = spd_form(n, 3.0, rng)
    u = rng.normal(size=n)

    def smooth(bases, offsets):
        return np.exp(0.3 * (rule_directions(bases, k) @ u) ** 2)

    gauss = GaussianDensity(np.zeros(n), spd_form(n, 2.0, rng)[0])
    ellipsoid = EllipsoidIndicator(spd_form(n, 2.0, rng)[0],
                                   center=np.full(n, 0.1))
    spec = ExponentSpec((1.0, math.inf) * 2, (1.5, -0.5) * 2)
    pair = functools.partial(_norm_products,
                             [gauss, gauss, ellipsoid, ellipsoid], spec,
                             "exact", rng=None)
    for integrand, matched in ((smooth, lambda *_: form),
                               (pair, gauss.section_form)):
        product = grassmann.rule_average(n, k, integrand, identity(n))
        match = grassmann.rule_average(n, k, integrand, matched)
        assert match[0] == pytest.approx(product[0], rel=1e-12, abs=0.0)


def determinant_power(a, n):
    """det(B^T A B)^(-n/2) on a stack of bases B: on lines
    (theta^T A theta)^(-n/2), on hyperplanes det(A)^(-n/2) times
    (theta^T A^-1 theta)^(-n/2), so its average over the uniform law is
    det(A)^(-k/2) either way."""
    def integrand(bases, offsets):
        gram = np.einsum("snk,nm,sml->skl", bases, a, bases)
        return np.linalg.det(gram) ** (-0.5 * n)
    return integrand


def calibration(n, k, condition, seed, matched):
    """|value - det(A)^(-k/2)| over the error rule_average reports, for
    determinant_power of the seed's SPD A, and the frames of the last
    level; with matched the rule's form is A on lines and A^-1 on
    hyperplanes, else the identity."""
    a, d, _ = spd_form(n, condition, np.random.default_rng(seed))
    inverse = np.linalg.inv(a)
    form = (lambda hyperplanes, flats: inverse if hyperplanes else a) \
        if matched else identity(n)
    value, error, nodes = grassmann.rule_average(
        n, k, determinant_power(a, n), form)
    return abs(value - np.prod(d) ** (-0.5 * k)) / error, nodes


@pytest.mark.parametrize("matched", [False, True], ids=["identity", "form"])
@pytest.mark.parametrize("n,k", NK)
@pytest.mark.parametrize("condition", [1.0, 10.0, 100.0])
def test_rule_error_bounds_its_true_error(n, k, condition, matched):
    # the worst case reads 0.015 of the reported error on the identity
    # form and 0.004 on the matched form, which stops at its second level
    for seed in range(20):
        ratio, nodes = calibration(n, k, condition, seed, matched)
        assert ratio <= 1.0, seed
        if matched:
            assert nodes == (32 if n == 2 else 512)


@pytest.mark.xfail(strict=True, reason="at condition 1,000 the identity "
                   "form stops at the frame cap with its error understated "
                   "8.15-fold: true 4.6e-3 relative, reported 5.7e-4")
def test_rule_error_bounds_its_true_error_at_condition_1000():
    ratio, nodes = calibration(3, 1, 1000.0, 11, False)
    assert nodes == 8192
    assert ratio <= 1.0


def unit_rows(x):
    return x / np.linalg.norm(x, axis=-1, keepdims=True)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_complements_are_orthonormal_bases_normal_to_each_node(n):
    rng = np.random.default_rng(n)
    axes = np.concatenate([np.eye(n), -np.eye(n)])
    near = unit_rows(axes + 1e-12 * rng.standard_normal(axes.shape))
    theta = np.concatenate([unit_rows(rng.standard_normal((200, n))),
                            axes, near])
    bases = grassmann._complements(theta)
    assert bases.shape == (len(theta), n, n - 1)
    gram = np.einsum("sij,sil->sjl", bases, bases)
    assert np.abs(gram - np.eye(n - 1)).max() <= 1e-14
    assert np.abs(np.einsum("si,sij->sj", theta, bases)).max() <= 1e-14
