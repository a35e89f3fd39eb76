"""Shared geometric quantities.

Unit-ball volumes, the constant of the linear/affine section identities,
volumes of simplices spanned by point tuples, and log-determinants and
solves of stacks of small symmetric positive definite matrices.
Everything here is exact up to floating point; Monte Carlo lives
elsewhere.
"""

from __future__ import annotations

import math

import numpy as np

# Relative singular-value cutoff below which a point tuple is treated as
# rank deficient and its simplex volume reported as exactly zero.
SV_RELATIVE_CUTOFF = 1e-12

__all__ = [
    "unit_ball_volume",
    "unit_volume_radius",
    "bp_constant",
    "bp_exact_constant",
]


def unit_ball_volume(n: int) -> float:
    """Volume of the unit euclidean ball in dimension n (1.0 for n = 0).

    By the recursion kappa_n = kappa_{n-2} 2 pi / n from kappa_0 = 1 and
    kappa_1 = 2, which keeps the small cases exact (kappa_1 is 2.0, where
    a gamma function lands one ulp off).
    """
    if not isinstance(n, (int, np.integer)) or n < 0:
        raise ValueError(f"dimension must be a non-negative integer, got {n!r}")
    volume = 2.0 if n % 2 else 1.0
    for m in range(2 + n % 2, n + 1, 2):
        volume *= 2.0 * math.pi / m
    return volume


def _log_unit_ball_volume(n: int) -> float:
    return 0.5 * n * math.log(math.pi) - math.lgamma(0.5 * n + 1.0)


def unit_volume_radius(n: int) -> float:
    """Radius of the n-dimensional ball of volume one."""
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"dimension must be a positive integer, got {n!r}")
    return float(np.exp(-_log_unit_ball_volume(n) / n))


def bp_constant(n: int, k: int, q: int) -> float:
    """Constant relating an (R^n)^q integral to its section decomposition,
    for ambient dimension n, section dimension k and point count q.

    Computed in log space as (q!)^(n-k) times the ratio of the top q unit
    ball volumes in dimension n to those in dimension k.  Equals 1 when
    n == k.  Note: checks that fit this constant empirically report the
    measured ratio against this value rather than assuming it.

    Raises TypeError unless n, k and q are integers, and ValueError unless
    1 <= q <= k <= n.  The section identities are non-degenerate only for
    k <= n - 1; k == n is the endpoint where the constant collapses to 1.
    """
    if not (isinstance(n, int) and isinstance(k, int) and isinstance(q, int)):
        raise TypeError("dimensions must be integers")
    if not 1 <= q <= k <= n:
        raise ValueError(f"need 1 <= q <= k <= n, got n={n} k={k} q={q}")
    log_c = (n - k) * math.lgamma(q + 1.0)
    for m in range(n - q + 1, n + 1):
        log_c += _log_unit_ball_volume(m)
    for j in range(k - q + 1, k + 1):
        log_c -= _log_unit_ball_volume(j)
    return float(np.exp(log_c))


def bp_exact_constant(n: int, k: int, q: int) -> float:
    """The constant of the linear and affine Blaschke-Petkantschin formulas
    (Schneider-Weil, Stochastic and Integral Geometry, Thms 7.2.1 and 7.2.7).

    bp_constant with every unit-ball volume kappa_j replaced by the sphere
    area omega_j = j kappa_j, i.e. bp_constant times
    prod_{j<q} (n - j) / (k - j).  The section routes of the bp_* checks
    estimate this value; equals 1 when n == k.  Arguments are checked as
    in bp_constant.
    """
    return bp_constant(n, k, q) * math.prod((n - j) / (k - j)
                                            for j in range(q))


def _tuple_volumes(x: np.ndarray) -> np.ndarray:
    """Volumes of conv{0, rows of x[i]} for a stack x of shape (..., q, n).

    The q-volume of the spanned parallelepiped is the product of the
    r = min(q, n) singular values of each q x n matrix, divided by q!.
    Tuples whose smallest singular value falls below SV_RELATIVE_CUTOFF
    relative to the largest are reported as exactly zero.  For r <= 2 the
    product has a closed form, vectorized over the stack: the Frobenius
    norm for r = 1, and for r = 2 the root of the sum of the squared 2 x 2
    minors (Cauchy-Binet), which keeps its relative error near
    eps * s_max / s_min where the Gram determinant a c - b^2 loses
    accuracy to cancellation.  r >= 3 goes through the SVD.

    The squares of the Frobenius norm are summed in one order, row by row
    as _square_sums sums each row, so the volumes are bitwise the same on
    a contiguous stack and on a transposed view of one.
    """
    x = np.asarray(x, dtype=float)
    q, n = x.shape[-2:]
    if min(q, n) >= 3:
        sv = np.linalg.svd(x, compute_uv=False)
        top = sv[..., 0]
        degenerate = sv[..., -1] <= SV_RELATIVE_CUTOFF * top
        with np.errstate(divide="ignore"):
            logvol = np.sum(np.log(sv), axis=-1) - math.lgamma(q + 1.0)
        return np.where(degenerate | (top == 0.0), 0.0, np.exp(logvol))
    frob2 = _square_sums(x[..., 0, :])
    for i in range(1, q):
        frob2 += _square_sums(x[..., i, :])
    if min(q, n) == 1:
        # one singular value: zero only for the zero tuple
        return np.sqrt(frob2) / math.factorial(q)
    rows = x if q == 2 else np.swapaxes(x, -1, -2)
    a, b = rows[..., 0, :], rows[..., 1, :]
    if rows.shape[-1] == 2:
        # the one minor, as the sum below forms it
        minor = a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]
        prod = np.sqrt(minor * minor)
    else:
        i, j = np.triu_indices(rows.shape[-1], 1)
        minors = a[..., i] * b[..., j] - a[..., j] * b[..., i]
        prod = np.sqrt(np.einsum("...m,...m->...", minors, minors))
    # s_min <= c s_max  <=>  s_min s_max <= c s_max^2, with s_max^2 the
    # larger root of s^4 - |x|_F^2 s^2 + prod^2
    top2 = 0.5 * (frob2 + np.sqrt(np.maximum(frob2 ** 2 - 4.0 * prod ** 2,
                                             0.0)))
    return np.where(prod <= SV_RELATIVE_CUTOFF * top2, 0.0,
                    prod / math.factorial(q))


def _spd_solve(g: np.ndarray, rhs: np.ndarray | None = None):
    """(log det g, g^-1 rhs) for a stack g (s, k, k) of symmetric positive
    definite matrices and right-hand sides rhs (s, k); the solve is None
    when rhs is.

    Closed form, vectorized over the stack, for k <= 2: a division for
    k = 1, and for k = 2 Cramer's rule on det = a c - b b', which is
    forward stable for 2 x 2 systems (Higham, Accuracy and Stability of
    Numerical Algorithms, sec. 1.10); det cancels in proportion to the
    condition number.  k >= 3 goes through LAPACK.
    """
    k = g.shape[-1]
    if k == 1:
        a = g[:, 0, 0]
        return np.log(a), None if rhs is None else rhs / a[:, None]
    if k == 2:
        a, b, b2, c = g[:, 0, 0], g[:, 0, 1], g[:, 1, 0], g[:, 1, 1]
        det = a * c - b * b2
        x = None if rhs is None else np.stack(
            [c * rhs[:, 0] - b * rhs[:, 1], a * rhs[:, 1] - b2 * rhs[:, 0]],
            axis=-1) / det[:, None]
        return np.log(det), x
    logdet = np.linalg.slogdet(g)[1]
    return logdet, None if rhs is None \
        else np.linalg.solve(g, rhs[..., None])[..., 0]


def _square_sums(x: np.ndarray) -> np.ndarray:
    """Sums of squares along the last axis of x, left to right whatever
    the layout of x, into one new array of the leading shape instead of a
    squared copy of x."""
    total = np.square(x[..., 0], out=np.empty(x.shape[:-1]))
    square = np.empty_like(total)
    for j in range(1, x.shape[-1]):
        total += np.square(x[..., j], out=square)
    return total


def _row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norms along the last axis of x, bit for bit those of
    np.linalg.norm(x, axis=-1).

    For k <= 7 columns the squares are summed left to right (_square_sums),
    as numpy's reduction does below its 8-term pairwise blocks; k >= 8 goes
    through np.linalg.norm.
    """
    if x.shape[-1] >= 8:
        return np.linalg.norm(x, axis=-1)
    total = _square_sums(x)
    return np.sqrt(total, out=total)
