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
"""

from __future__ import annotations

import numpy as np

from .geometry import unit_ball_volume

# Orthonormality tolerance for a subspace basis given from outside.
FRAME_TOL = 1e-10
# Rejection budget for conditioned perturbation draws, in proposals per
# subspace sought, and the number of proposals drawn and tested at once.
PERTURB_MAX_TRIES = 10_000
PERTURB_BLOCK = 64

__all__ = [
    "perturb_subspace",
    "haar_bases",
    "subspace_frames",
    "flat_frames",
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
    the difference of the orthogonal projectors is at most eta.  Proposals
    are drawn and tested in blocks of PERTURB_BLOCK (64), one
    rng.standard_normal((PERTURB_BLOCK, n, k)) per block, which gives the
    same numbers as that many (n, k) draws; the last block draws more than
    it uses.  Raises RuntimeError after count * PERTURB_MAX_TRIES proposals.
    """
    if not _orthonormal(E):
        raise ValueError("E must be an (n, k) array of orthonormal columns")
    if not 0.0 < eta < 2.0:
        raise ValueError(f"eta must lie in (0, 2), got {eta}")
    n, k = E.shape
    projector = E @ E.T
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
        diff = projector - block @ np.swapaxes(block, 1, 2)
        near = block[np.linalg.norm(diff, 2, axis=(1, 2)) <= eta]
        near = near[:count - found]
        out[found:found + len(near)] = near
        found += len(near)
    return out
