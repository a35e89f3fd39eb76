"""The Gaussian sharpness check of the marginal sup bound.

The claim: on G(n, k), the sections where a skewed Gaussian's projected
density has a large sup fill a set of measure at least (2s)^(-k(n-k)), so
that the marginal bound cannot trade its strength against the measure of
its exceptional set any better.  The check draws no density model: its
measure is geometry's closed form where that has a value, else the share
of Gaussian draws that hit the event, and its verdict is the one-sided
rule of report.  The rules on its parameters live in _sharpness_rules,
which the check calls before it draws and load_config calls on each
parsed map.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import ROW_BLOCK, exact_event_measure, _sharpness_cut, \
    _spd_solve
from .report import CheckReport, Estimate, _at_least, _k_up_to, _need, \
    _one_sided_verdict

# subspaces drawn to cross-check a non-empty exact measure
CROSS_CHECK = 1 << 16

__all__ = ["gaussian_sharpness_experiment"]


def _sharpness_hits(n: int, k: int, s: float, stream: np.random.Generator,
                    size: int) -> np.ndarray:
    """Which of size subspaces drawn from stream hit the sharpness event.

    The event is det(B^T D B) <= cut, and the test needs no orthonormal
    basis: for the span of a Gaussian n x k draw G and any orthonormal
    basis B of it (B = G R^-1, R the QR factor), det(B^T D B) =
    det(G^T D G) / det(G^T G), so each draw is tested as det(G^T D G) <=
    cut det(G^T G) with no log: one quadratic form for k = 1, the 2 x 2
    determinants a c - b^2 for k = 2, and the log dets of _spd_solve for
    k >= 3.  The subspaces are those haar_bases would return for the same
    stream."""
    sigma2, log_cut = _sharpness_cut(n, k, s)
    diag = np.concatenate([np.full(k, sigma2), np.ones(n - k)])
    cut = math.exp(log_cut)
    g = stream.standard_normal((size, n, k))
    if k == 1:
        return np.square(g[..., 0]) @ (diag - cut) <= 0.0
    # column products of the draw against [1, diag] give both Grams at
    # once; G^T G is ill-conditioned only on rare draws, and the det ratio
    # matches det(B^T D B) to about 1e-11 relative
    w = np.stack([np.ones(n), diag], axis=1)
    if k == 2:
        a, b, c = ((g[..., i] * g[..., j]) @ w
                   for i, j in ((0, 0), (0, 1), (1, 1)))
        det = a * c - b * b
        return det[:, 1] <= cut * det[:, 0]
    grams = np.empty((size, 2, k, k))
    for i in range(k):
        for j in range(i, k):
            np.matmul(g[..., i] * g[..., j], w, out=grams[:, :, i, j])
            grams[:, :, j, i] = grams[:, :, i, j]
    return _spd_solve(grams[:, 1])[0] - _spd_solve(grams[:, 0])[0] <= log_cut


def _hit_count(n: int, k: int, s: float, stream: np.random.Generator,
               m: int) -> int:
    """How many of m subspaces drawn from stream hit the sharpness event:
    _sharpness_hits on blocks of ROW_BLOCK // k subspaces, one draw each,
    so the hits are those of one draw of all m; only their count is kept."""
    rows = max(1, ROW_BLOCK // k)
    return sum(int(np.count_nonzero(_sharpness_hits(
        n, k, s, stream, min(rows, m - start))))
        for start in range(0, m, rows))


def _sharpness_rules(n, k, s, n_subspaces):
    _need(n >= 2, "n", f"must be >= 2, got {n}")
    _k_up_to(k, n - 1)
    # sigma^2 = (2 pi)^(-n/k) stays a normal float: (2 pi)^-385 > DBL_MIN
    _need(n <= 385 * k, "n", f"must be <= 385 k = {385 * k}, got {n}")
    top = (2 * math.pi) ** (n / (2.0 * k))   # sigma^-1
    _need(1.0 <= s <= top, "s", f"must lie in [1, {top:.6g}], got {s}")
    _at_least(2, n_subspaces=n_subspaces)


def gaussian_sharpness_experiment(n: int, k: int, s: float, n_subspaces: int,
                                  rng: np.random.Generator) -> CheckReport:
    """Measure of sections where the skewed Gaussian marginal sup is large.

    The law has k variances sigma^2 = (2pi)^(-n/k) and n-k unit variances,
    so the full density has sup exactly 1.  The event
    {||projected density sup||^(1/k) >= s} is det(B^T D B) <= cut =
    (2 pi s^2)^(-k) for an orthonormal basis B of the section; the claimed
    lower bound is (2s)^(-k(n-k)).  The verdict states the claim as
    printed; the fitted scale factor that would make the bound tight is
    reported either way.

    The measure is exact_event_measure where that has a value: min(k, n-k)
    <= 2, or an empty event, i.e. s above empty_above = (2 pi)^((n-k)/(2k))
    (min det(B^T D B) = sigma^(2k), the span of the first k axes).  The
    rhs method is then "exact" (a closed form, or the empty event's 0) or
    "rule" (the two-plane quadrature of min(k, n-k) = 2, stderr 0), and
    the verdict is measure >= bound.
    A non-empty exact row still draws min(n_subspaces, CROSS_CHECK)
    subspaces as a cross-check of the exact form at these (n, k, s): their
    hit share and its binomial z against the exact measure are reported as
    sampled_measure and sampled_z, and neither enters the measure or the
    verdict.  Otherwise n_subspaces subspaces are drawn and the rhs method
    is "mc": the hit share and its binomial stderr, the mean and standard
    error of the hits as 0/1 values, up to rounding.  Either way the hits
    are counted by _hit_count.
    """
    _sharpness_rules(n, k, s, n_subspaces)
    exact = exact_event_measure(n, k, s)
    sampled = sampled_z = None
    if exact is None:
        m = n_subspaces
        c = _hit_count(n, k, s, rng, m)
        sd = math.sqrt(c * (m - c) / (m * (m - 1)))
        rhs = Estimate(c / m, sd / math.sqrt(m), m, "mc")
    else:
        rhs = Estimate(float(exact), 0.0, 0, "rule") \
            if min(k, n - k) == 2 and exact > 0 else Estimate.exact(exact)
        if exact > 0:
            m = min(n_subspaces, CROSS_CHECK)
            sampled = _hit_count(n, k, s, rng, m) / m
            sampled_z = (sampled - exact) / math.sqrt(exact * (1 - exact) / m)
    bound = (2.0 * s) ** (-k * (n - k))
    lhs = Estimate.exact(bound)
    fitted_factor = (rhs.value ** (-1.0 / (k * (n - k))) / s
                     if rhs.value > 0 else math.inf)
    return CheckReport(
        name="gaussian_sharpness",
        parameters={"n": n, "k": k, "s": s, "n_subspaces": n_subspaces},
        lhs=lhs, rhs=rhs, verdict=_one_sided_verdict(lhs, rhs),
        diagnostics={
            "claimed_bound": bound,
            "sigma": math.sqrt((2 * math.pi) ** (-n / k)),
            # the factor a for which measure = (a s)^(-k(n-k)); the claim
            # corresponds to a = 2
            "fitted_factor": fitted_factor,
            "empty_above": (2 * math.pi) ** ((n - k) / (2 * k)),
            "sampled_measure": sampled,
            "sampled_z": sampled_z,
        })
