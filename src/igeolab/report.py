"""Estimates with uncertainty, and structured check reports.

Estimate is the common currency of every Monte Carlo routine: a value, the
standard error of the mean, and the sample count.  CheckReport is what the
verification layer emits: both sides of an identity or inequality, their
ratio, a three-way verdict, and free-form diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, asdict
from typing import Callable

import numpy as np

__all__ = [
    "Estimate",
    "CheckReport",
    "mc_estimate",
    "merge_estimates",
    "ratio_estimate",
    "power_estimate",
    "PASS",
    "FAIL",
    "INCONCLUSIVE",
]

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"


@dataclass
class Estimate:
    """A scalar estimate: value, stderr of the mean, and sample count.

    stderr is sample standard deviation / sqrt(samples) for MC results and
    0 for exact values.  tail_share, when set, is the fraction of the
    estimate carried by the largest 1% of contributions (heavy-tail
    diagnostic).
    """

    value: float
    stderr: float
    samples: int
    tail_share: float | None = None

    @classmethod
    def exact(cls, value: float) -> "Estimate":
        return cls(float(value), 0.0, 0)

    @property
    def rel_stderr(self) -> float:
        if self.value == 0.0:
            return 0.0 if self.stderr == 0.0 else math.inf
        return abs(self.stderr / self.value)

    def scaled(self, c: float) -> "Estimate":
        return Estimate(self.value * c, self.stderr * abs(c), self.samples,
                        self.tail_share)


def merge_estimates(parts: list[Estimate]) -> Estimate:
    """Pool partial estimates of the same mean (parallel Welford merge)."""
    if not parts:
        raise ValueError("nothing to merge")
    count, mean, m2 = 0, 0.0, 0.0
    for p in parts:
        n = p.samples
        if n <= 0:
            continue
        var = (p.stderr ** 2) * n          # sample variance of p's draws
        m2_p = var * (n - 1)
        delta = p.value - mean
        total = count + n
        mean += delta * n / total
        m2 += m2_p + delta * delta * count * n / total
        count = total
    if count == 0:
        raise ValueError("merged estimates carry no samples")
    stderr = math.sqrt(m2 / (count - 1) / count) if count > 1 else math.inf
    return Estimate(mean, stderr, count)


def mc_estimate(draw: Callable[[np.random.Generator, int], np.ndarray],
                n_total: int,
                rng: np.random.Generator,
                keep_values: bool = False) -> Estimate:
    """Monte Carlo mean of one draw(rng, n_total) call.

    The whole budget comes from rng in a single draw, so the estimate is
    bit-reproducible given the generator's seed path.  With keep_values
    the share of the total carried by the top 1% of contributions is
    attached as tail_share.
    """
    if n_total < 2:
        raise ValueError("need at least 2 samples")
    vals = np.asarray(draw(rng, n_total), dtype=float)
    if vals.shape != (n_total,):
        raise ValueError(f"draw returned shape {vals.shape}, "
                         f"wanted ({n_total},)")
    sd = vals.std(ddof=1)
    part = Estimate(float(vals.mean()), float(sd / math.sqrt(n_total)),
                    n_total)
    # the Welford merge rounds value and stderr in its own way; passing the
    # one part through it keeps every published MC figure bit-stable
    est = merge_estimates([part])
    if keep_values:
        est.tail_share = _tail_share(vals)
    return est


def _tail_share(values: np.ndarray) -> float:
    """Share of the total carried by the top 1% of |contributions|."""
    total = np.abs(values).sum()
    if total == 0.0:
        return 0.0
    top = max(1, int(math.ceil(values.size / 100)))
    largest = np.partition(np.abs(values), values.size - top)[-top:]
    return float(largest.sum() / total)


def ratio_estimate(num: Estimate, den: Estimate) -> Estimate:
    """num/den for independent estimates, stderr by first-order propagation."""
    if den.value == 0.0:
        return Estimate(math.inf, math.inf, num.samples + den.samples)
    value = num.value / den.value
    rel = math.sqrt(num.rel_stderr ** 2 + den.rel_stderr ** 2)
    return Estimate(value, abs(value) * rel, num.samples + den.samples)


def power_estimate(est: Estimate, exponent: float) -> Estimate:
    """est**exponent with delta-method stderr."""
    if est.value <= 0.0:
        return Estimate(0.0, math.inf, est.samples)
    value = est.value ** exponent
    return Estimate(value, abs(value * exponent) * est.rel_stderr, est.samples)


@dataclass
class CheckReport:
    """Outcome of one verification: both sides, their ratio, and a verdict."""

    name: str
    parameters: dict
    lhs: Estimate
    rhs: Estimate
    # lhs / rhs, inf when rhs is 0; a field here keeps the reports' key order
    ratio: float = field(init=False)
    verdict: str
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        self.ratio = (self.lhs.value / self.rhs.value if self.rhs.value
                      else math.inf)

    def to_dict(self) -> dict:
        d = asdict(self)
        return d
