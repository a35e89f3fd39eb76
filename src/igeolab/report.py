"""Estimates with uncertainty, structured check reports, and check rules.

Estimate is the common currency of every side of a check: a value, its
standard error, its sample count, and how it was computed.  CheckReport is
what the verification layer emits: both sides of an identity or
inequality, their ratio, a three-way verdict, and free-form diagnostics.
ParameterError is how a density family or a check refuses a parameter,
and _need, _at_least and _k_up_to state the rules the checks share.
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
    "ratio_estimate",
    "power_estimate",
    "PASS",
    "FAIL",
    "INCONCLUSIVE",
]

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"


class ParameterError(ValueError):
    """A parameter, named as the caller passed it, that breaks a rule: of
    a density family (constructor parameters) or of a check (its
    keywords); message says which."""

    def __init__(self, param: str, message: str):
        self.param, self.message = param, message
        super().__init__(f"{param} {message}")


def _need(ok: bool, param: str, message: str):
    """A rule of a check: ParameterError(param, message) unless ok."""
    if not ok:
        raise ParameterError(param, message)


def _at_least(lo: int, **counts):
    for param, count in counts.items():
        _need(count >= lo, param, f"must be >= {lo}, got {count}")


def _k_up_to(k: int, top: int):
    _need(1 <= k <= top, "k", f"must lie in [1, {top}], got {k}")


@dataclass
class Estimate:
    """A scalar estimate: value, stderr, sample count, and method.

    method says how the value was computed: "exact" (a closed form, stderr
    and samples 0), "rule" (a deterministic quadrature, stderr a bound on
    its error, samples the frames of its last level, 0 for a rule of one
    fixed level) or "mc" (a Monte Carlo mean, stderr sample sd /
    sqrt(samples)).  It is not a check's section method parameter, "exact"
    or ("mc", N), which says how section norms are read.  tail_share, when
    set, is the fraction of the estimate carried by the largest 1% of
    contributions (heavy-tail diagnostic).
    """

    value: float
    stderr: float
    samples: int
    method: str
    tail_share: float | None = None

    @classmethod
    def exact(cls, value: float) -> "Estimate":
        return cls(float(value), 0.0, 0, "exact")

    @property
    def rel_stderr(self) -> float:
        if self.value == 0.0:
            return 0.0 if self.stderr == 0.0 else math.inf
        return abs(self.stderr / self.value)

    def scaled(self, c: float) -> "Estimate":
        return Estimate(self.value * c, self.stderr * abs(c), self.samples,
                        self.method, self.tail_share)


def mc_estimate(draw: Callable[[np.random.Generator, int], np.ndarray],
                n_total: int,
                rng: np.random.Generator,
                keep_values: bool = False) -> Estimate:
    """Monte Carlo mean of one draw(rng, n_total) call.

    The whole budget comes from rng in a single draw, which may fill its
    values block by block, so the estimate is bit-reproducible given the
    generator's seed path.  With keep_values the share of the total
    carried by the top 1% of contributions is attached as tail_share.
    """
    if n_total < 2:
        raise ValueError("need at least 2 samples")
    vals = np.asarray(draw(rng, n_total), dtype=float)
    if vals.shape != (n_total,):
        raise ValueError(f"draw returned shape {vals.shape}, "
                         f"wanted ({n_total},)")
    sd = vals.std(ddof=1)
    est = Estimate(float(vals.mean()), float(sd / math.sqrt(n_total)),
                   n_total, "mc")
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
    """num/den for independent estimates, stderr by first-order propagation,
    with the less exact of the two methods."""
    samples = num.samples + den.samples
    method = max(num.method, den.method, key=("exact", "rule", "mc").index)
    if den.value == 0.0:
        return Estimate(math.inf, math.inf, samples, method)
    value = num.value / den.value
    rel = math.sqrt(num.rel_stderr ** 2 + den.rel_stderr ** 2)
    return Estimate(value, abs(value) * rel, samples, method)


def _one_sided_verdict(lhs: Estimate, rhs: Estimate) -> str:
    """PASS at lhs <= rhs + 3 combined stderr, else FAIL."""
    slack = 3.0 * math.hypot(lhs.stderr, rhs.stderr)
    return PASS if lhs.value <= rhs.value + slack else FAIL


def power_estimate(est: Estimate, exponent: float) -> Estimate:
    """est**exponent with delta-method stderr."""
    if est.value <= 0.0:
        return Estimate(0.0, math.inf, est.samples, est.method)
    value = est.value ** exponent
    return Estimate(value, abs(value * exponent) * est.rel_stderr,
                    est.samples, est.method)


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
