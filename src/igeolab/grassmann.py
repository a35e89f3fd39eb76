"""Subspaces and flats: invariant sampling and geometry.

A k-dimensional subspace of R^n is an (n, k) float array of orthonormal
columns, its basis, and a stack of subspaces is an (s, n, k) array.
_orthonormal is the one test of that form; perturb_subspace and
distances_to apply it to the subspace they are given, and verify's rules
apply it to every configured one.

Haar measure on the set of k-dimensional linear subspaces of R^n is realized
by orthonormalizing the columns of Gaussian n x k matrices.  haar_bases does
this with Gram-Schmidt vectorized over the whole stack, each column cleared
of its predecessors twice ("twice is enough" reorthogonalization), which
keeps |B^T B - I| at a few ulps for every shape.  The result is the Q of the
QR factorization whose R has a positive diagonal, so it is a function of the
Gaussian draw alone, and the draw is the same one rng.standard_normal call
for any stack size.

The invariant measure on affine k-flats is infinite; flats are sampled inside
a window of radius R around the origin and carry the importance weight that
makes window-supported integrands unbiased, with the normalization fixed so
that the measure of flats meeting the unit ball is the unit-ball volume of
the orthogonal dimension.  A flat's offset needs no basis of the complement:
a Gaussian n-vector cleared of the flat's basis (twice, as in Gram-Schmidt)
is isotropic in the complement, so its direction is uniform there, and a
radius R U^(1/(n-k)) makes the offset uniform in the complement's R-ball.

Lines and hyperplanes of R^2 and R^3 also have deterministic rules:
G(n, 1) and G(n, n-1) are both the sphere S^(n-1) with antipodes
identified, on which rule_frames builds a product rule (the trapezoid rule
in the angle at n = 2; Gauss-Legendre in cos(theta) times the trapezoid
rule in phi at n = 3), and for the hyperplanes meeting an ellipsoid a
Gauss-Legendre rule in the offset along each normal, over the support
interval.  rule_average doubles a rule until it agrees with itself at half
the nodes to RULE_RTOL, relative.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .geometry import _gauss_legendre, unit_ball_volume

# Orthonormality tolerance for a subspace basis given from outside.
FRAME_TOL = 1e-10
# Rejection budget for conditioned perturbation draws, in proposals per
# subspace sought, and the number of proposals drawn and tested at once.
PERTURB_MAX_TRIES = 10_000
PERTURB_BLOCK = 64
# A rule average is converged when it agrees with the level before, half
# the nodes along every axis, to this relative tolerance.
RULE_RTOL = 1e-12
# Direction nodes of a rule's first level: angles at n = 2, Gauss-Legendre
# nodes in cos(theta) at n = 3; each further level doubles them.  A rule
# average takes no level of more than RULE_MAX_FRAMES frames past its
# second, and stops there converged or not: a sheared Gaussian's lines
# would need 32,768 directions to meet RULE_RTOL, more than the Monte Carlo
# draws they replace.
RULE_START = {2: 16, 3: 8}
RULE_MAX_FRAMES = 1 << 14
# Offset nodes per hyperplane normal of a flat rule's first level, and the
# fewest at any level (_offset_rule).
OFFSET_NODES = 6

__all__ = [
    "perturb_subspace",
    "haar_bases",
    "subspace_frames",
    "flat_frames",
    "rule_frames",
    "rule_average",
]


def haar_bases(n: int, k: int, size: int, rng: np.random.Generator) -> np.ndarray:
    """Stack of Haar orthonormal bases, shape (size, n, k).

    Consumes exactly one rng.standard_normal((size, n, k)) call and returns
    the Q factor of each drawn matrix whose R has a positive diagonal (the
    sign-fixed QR), computed by _orthonormalize in place on the draw.
    """
    _check_nk(n, k)
    return _orthonormalize(rng.standard_normal((size, n, k)))


def _orthonormalize(a: np.ndarray) -> np.ndarray:
    """Gram-Schmidt over a stack (size, n, k) of full-rank matrices, in place.

    Column j is cleared of its projections onto columns 0..j-1 twice, then
    normalized.  One pass leaves |Q^T Q - I| near 1e-12 on unlucky draws;
    the second brings it to rounding level.  Equals the QR factor Q whose R
    has a positive diagonal, up to rounding.
    """
    for j in range(a.shape[-1]):
        v = _clear(a[..., j], a[..., :j])
        v /= np.sqrt(np.einsum("sn,sn->s", v, v))[:, None]
    return a


def _clear(v: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Clear each row of v (size, n) of its projections onto the
    orthonormal columns of a (size, n, j), twice, in place."""
    for _ in range(2):
        for i in range(a.shape[-1]):
            v -= np.einsum("sn,sn->s", a[..., i], v)[:, None] * a[..., i]
    return v


def _check_nk(n: int, k: int):
    if not 1 <= k <= n - 1:
        raise ValueError(f"need 1 <= k <= n-1, got n={n} k={k}")


def _orthonormal(basis) -> bool:
    """Whether basis is a subspace: an (n, k) array, 1 <= k <= n, whose
    columns are orthonormal within FRAME_TOL."""
    if not isinstance(basis, np.ndarray) or basis.ndim != 2 \
            or not 1 <= basis.shape[1] <= basis.shape[0]:
        return False
    gram = basis.T @ basis
    return bool(np.abs(gram - np.eye(basis.shape[1])).max() <= FRAME_TOL)


def distances_to(E: np.ndarray, bases: np.ndarray) -> np.ndarray:
    """Grassmann distance from the subspace E, an (n, k) basis, to each
    same-dimension basis in a stack: the operator norm of the difference
    of the orthogonal projectors.

    For equal dimensions that norm is the largest principal-angle sine,
    read off the singular values of B0^T B_i.
    """
    if not _orthonormal(E):
        raise ValueError("E must be an (n, k) array of orthonormal columns")
    cos = np.linalg.svd(E.T @ np.asarray(bases), compute_uv=False)
    smallest = np.clip(cos[..., -1], 0.0, 1.0)
    return np.sqrt(1.0 - smallest * smallest)


def subspace_frames(n: int, k: int, size: int, rng: np.random.Generator):
    """Haar subspaces as frames (bases, offsets, weight), the linear twin
    of flat_frames: haar_bases(n, k, size, rng), zero offsets, weight 1."""
    return haar_bases(n, k, size, rng), np.zeros((size, n)), 1.0


def flat_frames(n: int, k: int, R: float, size: int, rng: np.random.Generator):
    """Windowed invariant flats, batched.

    Returns (bases, offsets, weight): bases (size, n, k); offsets (size, n)
    perpendicular to the respective subspace, uniform in the radius-R ball
    of the complement; weight the common importance factor
    unit_ball_volume(n-k) * R^(n-k).  Estimators weight * mean(g) are
    unbiased for invariant-measure integrands vanishing on flats farther
    than R from the origin.

    Stream layout: haar_bases's rng.standard_normal((size, n, k)), then
    rng.standard_normal((size, n)) for the offset directions, cleared of
    each basis, then rng.random(size) for their radii.
    """
    if R <= 0:
        raise ValueError("window radius must be positive")
    bases = haar_bases(n, k, size, rng)
    z = _clear(rng.standard_normal((size, n)), bases)
    radii = R * rng.random(size) ** (1.0 / (n - k))
    z *= (radii / np.sqrt(np.einsum("sn,sn->s", z, z)))[:, None]
    weight = unit_ball_volume(n - k) * R ** (n - k)
    return bases, z, weight


def perturb_subspace(E: np.ndarray, eta: float, count: int,
                     rng: np.random.Generator) -> np.ndarray:
    """Bases (count, n, k) of subspaces drawn conditioned to lie within eta
    of the subspace E, an (n, k) basis, in the order they were accepted.

    Proposal: orthonormalize E's basis plus a Gaussian matrix scaled so the
    typical displacement sits inside eta; accept when the operator norm of
    the difference of the orthogonal projectors (distances_to) is at most
    eta.  Proposals are drawn and tested in blocks of PERTURB_BLOCK (64),
    one rng.standard_normal((PERTURB_BLOCK, n, k)) per block, which gives
    the same numbers as that many (n, k) draws; the last block draws more
    than it uses.  Raises RuntimeError after count * PERTURB_MAX_TRIES
    proposals.
    """
    if not _orthonormal(E):
        raise ValueError("E must be an (n, k) array of orthonormal columns")
    if not 0.0 < eta < 2.0:
        raise ValueError(f"eta must lie in (0, 2), got {eta}")
    n, k = E.shape
    tau = 0.7 * eta / (np.sqrt(k) + np.sqrt(n - k))
    out = np.empty((count, n, k))
    found, budget = 0, count * PERTURB_MAX_TRIES
    while found < count:
        if budget == 0:
            raise RuntimeError(f"only {found} of {count} draws within "
                               f"eta={eta} after {count * PERTURB_MAX_TRIES} "
                               "proposals")
        size = min(PERTURB_BLOCK, budget)
        budget -= size
        block = _orthonormalize(E + tau * rng.standard_normal((size, n, k)))
        near = block[distances_to(E, block) <= eta][:count - found]
        out[found:found + len(near)] = near
        found += len(near)
    return out


def _sphere_rule(n: int, level: int) -> tuple[np.ndarray, np.ndarray]:
    """A product rule for the uniform law on S^(n-1) with antipodes
    identified, n in {2, 3}: (frames, weights), frames (N, n, n) rotations
    whose first column is a node theta and whose other columns span its
    orthogonal complement, and weights (N,) summing to 1.  Each level
    doubles the nodes along every axis of the one before.

    n = 2: m = 16 * 2^level angles phi = pi j / m in [0, pi), weight 1/m,
    exact for trigonometric polynomials in phi of degree below 2m.
    n = 3: Gauss-Legendre in z = cos(theta) on [-1, 1], m = 8 * 2^level
    nodes, times 2m angles phi in [0, pi).  The rule with twice the angles
    on [0, 2 pi) takes each node's antipode (-z, phi + pi) with the same
    weight, so on even integrands it is this one, exact for spherical
    polynomials of degree below 2m.  The angles are doubled because on the
    shipped ellipsoids the error of m by m nodes is the angle rule's
    (1.2e-12 at m = 16, against 1e-15 with 2m angles).  The complement is
    spanned by d theta / d phi and d theta / d theta, normalized.
    """
    m = RULE_START[n] << level
    angles = m if n == 2 else 2 * m
    phi = np.pi * np.arange(angles) / angles
    c, s = np.cos(phi), np.sin(phi)
    if n == 2:
        frames = np.stack([c, -s, s, c], axis=-1).reshape(-1, 2, 2)
        return frames, np.full(m, 1.0 / m)
    z, wz = _gauss_legendre(m)
    r = np.sqrt(1.0 - z * z)[:, None]
    z = z[:, None]
    frames = np.empty((m, angles, 3, 3))
    for i, column in enumerate(((r * c, r * s, z), (-s, c, 0.0),
                                (z * c, z * s, -r))):
        for j, entry in enumerate(column):
            frames[..., j, i] = entry
    return frames.reshape(-1, 3, 3), np.repeat(wz / (2.0 * angles), angles)


def rule_frames(n: int, k: int, level: int, ellipsoid=None,
                exponent: float = 0.0):
    """Deterministic frames (bases, offsets, weights) of a rule on lines and
    hyperplanes of R^n, n in {2, 3}, k in {1, n - 1}, at the given level.

    Without ellipsoid: the subspaces of _sphere_rule, the lines through its
    nodes (k = 1) or their orthogonal hyperplanes, with zero offsets and
    its weights, which sum to 1: sum(weights * g) is the rule for the Haar
    average of g, with bases (N, n, k) and offsets (N, n).
    With ellipsoid = (center, cov), cov the inverse of its shape matrix, and
    k = n - 1: the hyperplanes normal to each node theta that meet the
    ellipsoid, at the foot points t theta of the support interval
    t0 +- h, t0 = theta . center, h^2 = theta^T cov theta.  With
    rho = (t - t0) / h, a section's volume is proportional to
    (1 - rho^2)^(k/2), so an integrand of section norms is a multiple of
    (1 - rho^2)^exponent along each normal, and the offsets follow
    _offset_rule in rho.  The weights are the direction weight times h
    times the offset weight, so that sum(weights * g) is the rule for the
    invariant measure of flat_frames on integrands that vanish off the
    ellipsoid.  Each basis serves its node's r consecutive offsets: bases
    (N, n, k), offsets (N r, n), weights (N r,), the shared layout of
    densities.section_stats.
    """
    if n not in RULE_START or k not in (1, n - 1):
        raise ValueError(f"rules cover n in (2, 3) and k in (1, n-1), got "
                         f"n={n} k={k}")
    frames, weights = _sphere_rule(n, level)
    if ellipsoid is None:
        bases = frames[..., :1] if k == 1 else frames[..., 1:]
        return np.ascontiguousarray(bases), np.zeros((len(frames), n)), \
            weights
    if k != n - 1:
        raise ValueError(f"flat rules cover k = n-1 only, got n={n} k={k}")
    center, cov = ellipsoid
    theta = frames[..., 0]
    t0 = theta @ center
    h = np.sqrt(np.einsum("si,si->s", theta @ cov, theta))
    rho, w = _offset_rule(level, exponent)
    t = t0[:, None] + h[:, None] * rho
    offsets = (t[..., None] * theta[:, None, :]).reshape(-1, n)
    return np.ascontiguousarray(frames[..., 1:]), offsets, \
        ((weights * h)[:, None] * w).ravel()


def _offset_rule(level: int, exponent: float):
    """Nodes rho and weights on [-1, 1] for (1 - rho^2)^exponent times a
    constant: for a non-negative integer exponent e, a polynomial, the
    max(OFFSET_NODES, e + 1) Gauss-Legendre nodes, exact for it; otherwise
    rho = cos(psi) with OFFSET_NODES * 2^level Gauss-Legendre nodes in psi
    on [0, pi], which make the power smooth."""
    if exponent >= 0.0 and float(exponent).is_integer():
        return _gauss_legendre(max(OFFSET_NODES, int(exponent) + 1))
    x, w = _gauss_legendre(OFFSET_NODES << level)
    psi = (x + 1.0) * (math.pi / 2)
    return np.cos(psi), w * (math.pi / 2) * np.sin(psi)


def rule_average(n: int, k: int, integrand, ellipsoid=None,
                 exponent: float = 0.0) -> tuple[float, float, int]:
    """The rule_frames average of integrand(bases, offsets), level by
    level, until it agrees with the level before to RULE_RTOL relative or
    the next level, past the second, would take more than RULE_MAX_FRAMES
    frames.  Returns (value, error, nodes): the last level's value,
    max(|its change from the level before|, RULE_RTOL |value|), and its
    number of frames."""
    value = None
    for level in itertools.count():
        m = RULE_START[n] << level
        size = (m if n == 2 else 2 * m * m) * (
            1 if ellipsoid is None else len(_offset_rule(level, exponent)[0]))
        if level >= 2 and size > RULE_MAX_FRAMES:
            break
        bases, offsets, weights = rule_frames(n, k, level, ellipsoid,
                                              exponent)
        # numpy's pairwise sum, not a BLAS dot, whose order follows the
        # BLAS thread count
        previous, value = value, float(np.sum(weights
                                              * integrand(bases, offsets)))
        nodes = len(weights)
        if previous is not None:
            change = abs(value - previous)
            if change <= RULE_RTOL * abs(value):
                break
    return value, max(change, RULE_RTOL * abs(value)), nodes
