"""Subspaces and flats: invariant sampling and geometry.

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

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .geometry import unit_ball_volume

# Orthonormality and perpendicularity tolerance for constructed frames.
FRAME_TOL = 1e-10
# Rejection budget for conditioned perturbation draws.
PERTURB_MAX_TRIES = 10_000

__all__ = [
    "Subspace",
    "Flat",
    "sample_subspace",
    "project",
    "grassmann_distance",
    "perturb_subspace",
    "haar_bases",
    "flat_frames",
    "uniform_ball",
]


@dataclass(frozen=True, eq=False)
class Subspace:
    """A k-dimensional linear subspace of R^n, stored as an orthonormal basis.

    basis has shape (n, k) with orthonormal columns; the array is copied and
    frozen at construction.
    """

    basis: np.ndarray

    def __post_init__(self):
        b = np.array(self.basis, dtype=float)
        if b.ndim != 2 or b.shape[0] < b.shape[1] or b.shape[1] < 1:
            raise ValueError(f"basis must be (n, k) with 1 <= k <= n, got {b.shape}")
        gram = b.T @ b
        if np.abs(gram - np.eye(b.shape[1])).max() > FRAME_TOL:
            raise ValueError("basis columns are not orthonormal")
        b.setflags(write=False)
        object.__setattr__(self, "basis", b)

    @property
    def n(self) -> int:
        return self.basis.shape[0]

    @property
    def k(self) -> int:
        return self.basis.shape[1]

    @cached_property
    def projector(self) -> np.ndarray:
        p = self.basis @ self.basis.T
        p.setflags(write=False)
        return p

    @cached_property
    def complement(self) -> "Subspace":
        """Orthogonal complement, from the full QR of the basis."""
        q, _ = np.linalg.qr(self.basis, mode="complete")
        return Subspace(q[:, self.k:])

    def coords(self, x: np.ndarray) -> np.ndarray:
        """Basis coordinates of the projection of x, shape (..., k)."""
        return np.asarray(x, dtype=float) @ self.basis

    def point(self, u: np.ndarray) -> np.ndarray:
        """Ambient point with basis coordinates u, shape (..., n)."""
        return np.asarray(u, dtype=float) @ self.basis.T


@dataclass(frozen=True, eq=False)
class Flat:
    """An affine k-flat offset + E, with the offset perpendicular to E."""

    subspace: Subspace
    offset: np.ndarray

    def __post_init__(self):
        z = np.array(self.offset, dtype=float)
        if z.shape != (self.subspace.n,):
            raise ValueError(f"offset must be an {self.subspace.n}-vector")
        if np.abs(self.subspace.coords(z)).max() > FRAME_TOL:
            raise ValueError("offset must be perpendicular to the subspace")
        z.setflags(write=False)
        object.__setattr__(self, "offset", z)

    @property
    def n(self) -> int:
        return self.subspace.n

    @property
    def k(self) -> int:
        return self.subspace.k

    def point(self, u: np.ndarray) -> np.ndarray:
        """Ambient point at flat coordinates u, shape (..., n)."""
        return self.subspace.point(u) + self.offset


def sample_subspace(n: int, k: int, rng: np.random.Generator) -> Subspace:
    """Haar-distributed k-dimensional subspace of R^n."""
    return Subspace(haar_bases(n, k, 1, rng)[0])


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


def project(E: Subspace, x: np.ndarray) -> np.ndarray:
    """Orthogonal projection of x onto E, as an ambient vector."""
    return E.point(E.coords(x))


def grassmann_distance(E: Subspace, F: Subspace) -> float:
    """Operator norm of the difference of the orthogonal projectors."""
    if E.n != F.n:
        raise ValueError("subspaces live in different ambient dimensions")
    return float(np.linalg.norm(E.projector - F.projector, 2))


def distances_to(E: Subspace, bases: np.ndarray) -> np.ndarray:
    """grassmann_distance from E to each same-dimension basis in a stack.

    For equal dimensions the projector-difference norm is the largest
    principal-angle sine, read off the singular values of B0^T B_i.
    """
    cos = np.linalg.svd(E.basis.T @ np.asarray(bases), compute_uv=False)
    smallest = np.clip(cos[..., -1], 0.0, 1.0)
    return np.sqrt(1.0 - smallest * smallest)


def uniform_ball(dim: int, size: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform points in the unit ball of R^dim, shape (size, dim)."""
    g = rng.standard_normal((size, dim))
    norms = np.linalg.norm(g, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    radii = rng.random(size) ** (1.0 / dim)
    return g / norms * radii[:, None]


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


def perturb_subspace(E: Subspace, eta: float, rng: np.random.Generator) -> Subspace:
    """Draw a subspace conditioned to lie within eta of E.

    Proposal: orthonormalize E's basis plus a Gaussian matrix scaled so the
    typical displacement sits inside eta, then reject until
    grassmann_distance(E, draw) <= eta.  Raises after PERTURB_MAX_TRIES.
    """
    if not 0.0 < eta < 2.0:
        raise ValueError(f"eta must lie in (0, 2), got {eta}")
    n, k = E.n, E.k
    tau = 0.7 * eta / (np.sqrt(k) + np.sqrt(n - k))
    for _ in range(PERTURB_MAX_TRIES):
        g = rng.standard_normal((n, k))
        candidate = Subspace(_orthonormalize((E.basis + tau * g)[None])[0])
        if grassmann_distance(E, candidate) <= eta:
            return candidate
    raise RuntimeError(f"no draw within eta={eta} after {PERTURB_MAX_TRIES} tries")
