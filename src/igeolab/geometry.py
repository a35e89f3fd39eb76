"""Exact numerics: geometric quantities and closed-form special functions.

Unit-ball volumes, the constant of the linear/affine section identities,
volumes of simplices spanned by point tuples, log-determinants and solves
of stacks of small symmetric positive definite matrices, Gauss-Legendre
rules, the chi-square law (CDF and quantile) and chi moments, the
exact measure of the Gaussian sharpness event on G(n, k), and the row
block of the point kernels.  Everything here
is exact up to floating point, numpy only, and imports nothing from the
package; Monte Carlo lives elsewhere.
"""

from __future__ import annotations

import functools
import math

import numpy as np

# Relative singular-value cutoff below which a point tuple is treated as
# rank deficient and its simplex volume reported as exactly zero.
SV_RELATIVE_CUTOFF = 1e-12
# Gauss-Legendre nodes per panel of the two-plane sharpness measure: the
# rule agrees with itself at twice the nodes to about 1e-14 relative.
QUAD_NODES = 32
# Rows per block of the point kernels (window points, unit vectors, simplex
# volumes, step-law draws and values) and of marginal_bound's fibers, and
# subspaces times k per block of the sharpness hit tests (ROW_BLOCK // k
# subspaces): a block of a few float64 columns stays in cache.
# simplex_moment draws its points in these blocks, so its draws above
# ROW_BLOCK tuples depend on it; no other draw does.
ROW_BLOCK = 1 << 13

__all__ = [
    "unit_ball_volume",
    "unit_volume_radius",
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


def bp_exact_constant(n: int, k: int, q: int) -> float:
    """The constant of the linear and affine Blaschke-Petkantschin formulas
    (Schneider-Weil, Stochastic and Integral Geometry, Thms 7.2.1 and 7.2.7)
    for ambient dimension n, section dimension k and point count q.

    Computed in log space as (q!)^(n-k) times the ratio of the top q sphere
    areas omega_j = j kappa_j in dimension n to those in dimension k.  The
    section routes of the bp_* checks estimate this value; it equals 1 when
    n == k.

    Raises TypeError unless n, k and q are integers, and ValueError unless
    1 <= q <= k <= n.
    """
    if not (isinstance(n, int) and isinstance(k, int) and isinstance(q, int)):
        raise TypeError("dimensions must be integers")
    if not 1 <= q <= k <= n:
        raise ValueError(f"need 1 <= q <= k <= n, got n={n} k={k} q={q}")
    log_c = (n - k) * math.lgamma(q + 1.0)
    for i in range(q):
        log_c += math.log((n - i) / (k - i)) \
            + _log_unit_ball_volume(n - i) - _log_unit_ball_volume(k - i)
    return float(np.exp(log_c))


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

    The squares of the Frobenius norm and of the minors are summed in one
    order, left to right by _square_sums, so the volumes are bitwise the
    same on a contiguous stack, on a transposed view of one and on any
    slice of either.
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
        prod = np.sqrt(_square_sums(minors))
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


@functools.lru_cache(maxsize=None)
def _gauss_legendre(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], by Golub-Welsch: the
    eigenvalues of the Jacobi matrix and 2 (first eigenvector entry)^2.
    The cached arrays are read-only."""
    i = np.arange(1, nodes)
    off = i / np.sqrt(4.0 * i * i - 1.0)
    x, v = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    w = 2.0 * np.square(v[0])
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _gamma_series(h: np.ndarray, a: float) -> np.ndarray:
    """Regularized lower incomplete gamma P(a, h) on a vector h by its
    power series e^-h h^a / Gamma(a+1) sum_j h^j / ((a+1)...(a+j))
    (A&S 6.5.29), to a few ulps relative for 0 <= h < a + 1; the terms are
    summed by Horner's rule up to the first one below 1e-17 at the
    largest h."""
    top = float(h.max(initial=0.0))
    coef = [1.0]
    while coef[-1] * top ** (len(coef) - 1) > 1e-17:
        coef.append(coef[-1] / (a + len(coef)))
    total = np.full(h.shape, coef[-1])
    for c in reversed(coef[:-1]):
        total *= h
        total += c
    return h ** a * np.exp(-h) / math.gamma(a + 1.0) * total


def _gamma_upper_sum(h: np.ndarray, k: int) -> np.ndarray:
    """Regularized upper incomplete gamma Q(k/2, h) on a vector h for
    integer k, by the finite sums of A&S 6.5.13 and 26.4.4-5: Q(a0, h) plus
    the terms e^-h h^(a0+j) / Gamma(a0+j+1) for j < k // 2, where
    a0 = 1/2 with Q(1/2, h) = erfc(sqrt h) for odd k and a0 = 0 with
    Q(0, h) = 0 for even k.  Every term is positive, so Q keeps its
    relative accuracy far into the tail."""
    h = np.minimum(h, 1e3)  # e^-h h^j stays 0 rather than 0 * inf; Q is 0
    a0 = 0.5 * (k % 2)
    term = np.exp(-h) * h ** a0 / math.gamma(a0 + 1.0)
    total = np.fromiter(map(math.erfc, np.sqrt(h).tolist()), float, h.size) \
        if k % 2 else np.zeros(h.size)
    for j in range(k // 2):
        total += term
        term *= h / (a0 + j + 1.0)
    return total


def _chi2_cdf(x, k: int, upper=False):
    """CDF at x of the chi-square law with k degrees of freedom, or its
    survival function where upper (a bool broadcasting against x) is True.

    Each side keeps a few ulps of relative accuracy: with h = x / 2, the
    power series gives P below h = k/2 + 1 and the finite sum gives Q at
    and above it, and the other side is one minus that, at least 0.08
    there.  k = 2 is 1 - e^-h.
    """
    h = 0.5 * np.asarray(x, dtype=float)
    upper = np.broadcast_to(upper, h.shape)
    if k == 2:
        return np.where(upper, np.exp(-h), -np.expm1(-h))
    near = h < 0.5 * k + 1.0
    p = _gamma_series(h[near], 0.5 * k)
    q = _gamma_upper_sum(h[~near], k)
    out = np.empty(h.shape)
    out[near] = np.where(upper[near], 1.0 - p, p)
    out[~near] = np.where(upper[~near], q, 1.0 - q)
    return out


def _normal_tail_quantile(t: np.ndarray) -> np.ndarray:
    """z with P(Z > z) = t for a standard normal Z and t in (0, 1/2], to
    4.5e-4 absolute (A&S 26.2.23)."""
    s = np.sqrt(-2.0 * np.log(np.maximum(t, 1e-300)))
    return s - (2.515517 + s * (0.802853 + s * 0.010328)) \
        / (1.0 + s * (1.432788 + s * (0.189269 + s * 0.001308)))


def _chi2_start(y: np.ndarray, k: int) -> np.ndarray:
    """Starting point for the chi-square quantile at y: the leading term
    of the series, P ~ h^a / Gamma(a+1) with a = k/2, near 0, and further
    out the normal quantile, squared for k = 1 and through Wilson-Hilferty
    (A&S 26.4.17) for k >= 3."""
    a = 0.5 * k
    near = (y * math.gamma(a + 1.0)) ** (1.0 / a)
    if k == 1:
        far = 0.5 * _normal_tail_quantile(0.5 * (1.0 - y)) ** 2
    else:
        z = _normal_tail_quantile(np.minimum(y, 1.0 - y))
        z = np.where(y > 0.5, z, -z)
        far = a * np.maximum(1.0 - 1.0 / (9.0 * a) + z / (3.0 * math.sqrt(a)),
                             0.0) ** 3
    return 2.0 * np.where(near < 0.3 * (a + 1.0), near, far)


def _chi2_ppf(y, k: int, top):
    """Quantile at y in [0, cdf(top)) of the chi-square law with k degrees
    of freedom; the root lies in [0, top], and top broadcasts against y.

    k = 2 has the closed form -2 log(1 - y).  Otherwise safeguarded Halley
    steps on _chi2_cdf, with pdf'/pdf = (k/2 - 1)/x - 1/2, run on the points
    not yet converged.  Where y > 1/2 they match the survival function to
    1 - y, which is exact, so the upper tail keeps its relative accuracy.
    Each evaluation narrows a bracket [lo, hi], and a step that leaves it
    bisects it instead; an infinite top is replaced by 2k + 100, beyond
    which the survival function is below the spacing of doubles under 1.
    A step below 1e-6 relative ends the iteration: Halley's cubic
    convergence puts the next iterate at rounding level.  At most 100
    evaluations run; bisection alone would narrow [0, top] by 2^-100.
    """
    y = np.asarray(y, dtype=float)
    if k == 2:
        return -2.0 * np.log1p(-y)
    a = 0.5 * k
    flat = y.ravel()
    upper = flat > 0.5
    tail = np.where(upper, 1.0 - flat, flat)
    hi = np.broadcast_to(np.minimum(top, 2.0 * k + 100.0), y.shape).ravel()
    x = np.minimum(_chi2_start(flat, k), hi)
    out = np.zeros(y.size)
    live = np.flatnonzero(x > 0.0)  # x = 0 is final: y = 0, or a tiny root
    x, hi, upper, tail = x[live], hi[live], upper[live], tail[live]
    lo = np.zeros(live.size)
    log_norm = a * math.log(2.0) + math.lgamma(a)
    for _ in range(100):
        g = _chi2_cdf(x, k, upper) - tail
        np.negative(g, where=upper, out=g)         # cdf(x) - y either way
        lo = np.where(g < 0.0, x, lo)
        hi = np.where(g > 0.0, x, hi)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            # Newton step g / pdf, then Halley's correction, capped so that
            # it at most doubles the step
            u = g * np.exp(0.5 * x + log_norm - (a - 1.0) * np.log(x))
            step = u / (1.0 - 0.5 * np.minimum(u * ((a - 1.0) / x - 0.5), 1.0))
        new = x - step
        moving = ~(np.abs(step) <= 1e-6 * x)
        stray = moving & ~((lo < new) & (new < hi))
        new[stray] = 0.5 * (lo[stray] + hi[stray])
        out[live[~moving]] = new[~moving]
        live, x, lo, hi, upper, tail = (
            v[moving] for v in (live, new, lo, hi, upper, tail))
        if not live.size:
            break
    out[live] = x
    return out.reshape(y.shape)


def _chi_moment(m: int, p: float) -> float:
    """M(m, p) = E chi_m^p = 2^(p/2) Gamma((m + p)/2) / Gamma(m/2), for
    m + p > 0; by log-gammas where a gamma would overflow."""
    a, b = 0.5 * (m + p), 0.5 * m
    if max(a, b) < 170.0:
        return 2.0 ** (0.5 * p) * math.gamma(a) / math.gamma(b)
    return math.exp(0.5 * p * math.log(2.0) + math.lgamma(a) - math.lgamma(b))


def _sharpness_cut(n: int, k: int, s: float) -> tuple[float, float]:
    """sigma^2 = (2 pi)^(-n/k) and log cut = log (2 pi s^2)^(-k): the
    sharpness event is det(B^T D B) <= cut, D = diag(variances)."""
    return (2 * math.pi) ** (-n / k), \
        -k * math.log(2 * math.pi) - 2 * k * math.log(s)


def exact_event_measure(n: int, k: int, s: float) -> float | None:
    """Exact measure of the sharpness event det(B^T D B) <= cut on G(n, k),
    or None where no exact form is coded (j = min(k, n-k) >= 3 and the
    event not empty).

    det(B^T D B) = prod_{i <= k} (1 - a lambda_i), a = 1 - sigma^2, where
    the lambda_i are the squared cosines of the principal angles between
    E = span B and the span of the first k axes.  For k > n-k, k-j of them
    are 1 and the other j are those between E-perp and the last n-k axes
    (det(B^T D B) = det(D) det(C^T D^-1 C), C a basis of E-perp), so either
    way the event is prod_{i <= j} (1 - a lambda_i) <= c with
    c = cut sigma^(-2(k-j)), the lambda_i the j squared cosines between a
    uniform j-plane of R^n and a fixed one: the real Jacobi ensemble
    (Muirhead, Aspects of Multivariate Statistical Theory, ch. 3).

    * empty event (c < sigma^(2j), i.e. s above empty_above): exact 0;
    * j = 1: lambda ~ Beta(1/2, (n-1)/2) and the event is lambda >= x,
      x = (1 - c)/a, of measure I_{1-x}((n-1)/2, 1/2) (_beta_half);
    * j = 2: a two-dimensional quadrature (_two_plane_measure).
    """
    sigma2, log_cut = _sharpness_cut(n, k, s)
    j = min(k, n - k)
    # cut < min det(B^T D B) = sigma^(2k): no subspace can hit
    if log_cut < k * math.log(sigma2):
        return 0.0
    c = math.exp(log_cut - (k - j) * math.log(sigma2))
    a = 1.0 - sigma2
    if j == 1:
        return _beta_half((n - 1) / 2, 1.0 - min(max((1.0 - c) / a, 0.0), 1.0))
    if j == 2:
        return _two_plane_measure(n, sigma2, c)
    return None


def _beta_half(a: float, w: float) -> float:
    """Regularized incomplete beta I_w(a, 1/2) for a a positive multiple
    of 1/2 and w in [0, 1], by finite sums (A&S 26.5): from
    I_w(1/2, 1/2) = (2/pi) asin(sqrt w) or I_w(1, 1/2) = 1 - sqrt(1 - w),
    taken as (2/pi) atan2(sqrt w, sqrt(1 - w)) and w / (1 + sqrt(1 - w)),
    which keep their relative precision at both edges of w,
    step the first parameter up by I_w(b+1, 1/2) = I_w(b, 1/2) - t(b),
    t(b) = w^b sqrt(1 - w) / (b B(b, 1/2)).  Where a >= 3/2 and
    a (1 - w) >= 1 those steps cancel; there it sums t(a) + t(a+1) + ..."""
    def t(b):
        return w ** b * math.sqrt(1.0 - w) * math.exp(
            math.lgamma(b + 0.5) - math.lgamma(b + 1.0) - math.lgamma(0.5))
    b = 0.5 if a % 1 else 1.0
    if b < a and a * (1.0 - w) >= 1.0:
        value, term = 0.0, t(a)
        while value + term != value:
            value += term
            term *= w * (a + 0.5) / (a + 1.0)
            a += 1.0
        return value
    root = math.sqrt(1.0 - w)
    value = 2.0 / math.pi * math.atan2(math.sqrt(w), root) if b == 0.5 \
        else w / (1.0 + root)
    while b < a:
        value -= t(b)
        b += 1.0
    return value


def _two_plane_measure(n: int, sigma2: float, c: float,
                       nodes: int = QUAD_NODES) -> float:
    """P((1 - a lambda_1)(1 - a lambda_2) <= c), a = 1 - sigma2, for the
    two squared cosines lambda_i = cos^2 phi_i between a uniform 2-plane of
    R^n (n >= 4) and a fixed one, 0 < sigma2 < 1 and c >= sigma2^2.

    On [0, pi/2]^2 the angles have density proportional to
    sin^(n-4) phi_1 sin^(n-4) phi_2 |cos^2 phi_1 - cos^2 phi_2|, of total
    mass 2 / ((n-2)(n-3)) (Selberg's integral).  For fixed phi_1 the event
    is phi_2 <= psi(phi_1) = acos sqrt(lambda_2*), lambda_2* =
    (1 - c / (1 - a lambda_1)) / a clipped to [0, 1].  Nested
    Gauss-Legendre: the outer phi_1 rule runs on three panels cut where
    lambda_2* hits 0, lambda_1 and 1, and the inner rule on [0, psi] cut
    at phi_2 = phi_1, the kink of the density.  psi has a square-root
    endpoint where lambda_2* reaches 0 or 1, so each outer panel is mapped
    by u = (1 - cos theta)/2, theta uniform in [0, pi], which makes
    sqrt(u) and sqrt(1 - u) smooth and the rule spectrally convergent.
    """
    a = 1.0 - sigma2

    def angle(lam):
        return np.arccos(np.sqrt(np.clip(lam, 0.0, 1.0)))

    x, w = _gauss_legendre(nodes)
    # outer panels [0, phi_c], [phi_c, phi_s], [phi_s, phi_b]
    cuts = angle(np.array([(1.0 - c) / a, (1.0 - math.sqrt(c)) / a,
                           (1.0 - c / sigma2) / a]))
    lo = np.concatenate([[0.0], cuts[:2]])[:, None]
    width = cuts[:, None] - lo
    theta = (x + 1.0) * (math.pi / 2)
    phi1 = (lo + width * (0.5 - 0.5 * np.cos(theta))).ravel()
    w1 = (width * (math.pi / 4) * np.sin(theta) * w).ravel()
    lam1 = np.square(np.cos(phi1))
    psi = angle((1.0 - c / (1.0 - a * lam1)) / a)
    # inner pieces [0, min(phi_1, psi)] and [min(phi_1, psi), psi]
    knee = np.minimum(phi1, psi)
    start = np.stack([np.zeros_like(knee), knee], axis=1)[..., None]
    span = np.stack([knee, psi], axis=1)[..., None] - start
    phi2 = start + span * (0.5 * (x + 1.0))
    density = np.sin(phi2) ** (n - 4) \
        * np.abs(lam1[:, None, None] - np.square(np.cos(phi2)))
    inner = np.sum(density * span * (0.5 * w), axis=(1, 2))
    mass = np.sum(np.sin(phi1) ** (n - 4) * inner * w1)
    return float(mass * (n - 2) * (n - 3) / 2)
