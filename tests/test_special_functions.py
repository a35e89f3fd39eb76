"""The elementary forms of the package's special functions, against scipy.

The package evaluates the chi-square law, the incomplete beta and the
two-plane quadrature of the sharpness events and the unit-ball volumes with
numpy and math alone; scipy is a test dependency that serves here as the
reference.  A last test runs
the package in a fresh interpreter that cannot import scipy at all.
"""

import decimal
import os
import pathlib
import subprocess
import sys
import textwrap
import warnings

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, dblquad
from scipy.special import betainc, gammainc, gammaincinv, gammaln

import igeolab
from igeolab.geometry import QUAD_NODES, _beta_half, _chi2_cdf, _chi2_ppf, \
    _two_plane_measure, exact_event_measure, unit_ball_volume


@pytest.mark.parametrize("k", range(1, 7))
def test_chi2_cdf_matches_gammainc(k):
    x = np.concatenate([np.linspace(0.0, 40.0, 8001),
                        10.0 ** np.linspace(-12, 0, 121)])
    ref = gammainc(0.5 * k, 0.5 * x)
    assert np.max(np.abs(_chi2_cdf(x, k) - ref)) <= 1e-14
    assert np.max(np.abs(_chi2_cdf(x, k, upper=True) - (1.0 - ref))) <= 1e-14
    assert float(_chi2_cdf(0.0, k)) == 0.0
    assert float(_chi2_cdf(np.inf, k)) == 1.0
    assert float(_chi2_cdf(np.inf, k, upper=True)) == 0.0


@pytest.mark.parametrize("k", range(1, 7))
@pytest.mark.parametrize("top", [0.05, 1.0, 6.0, 40.0, np.inf])
def test_chi2_ppf_matches_gammaincinv(k, top):
    cut = float(_chi2_cdf(top, k))
    rng = np.random.default_rng(k)
    u = np.concatenate([rng.random(2000), np.linspace(0.0, 1.0, 201)[1:-1],
                        10.0 ** rng.uniform(-30.0, -6.0, 200),
                        1.0 - 10.0 ** rng.uniform(-15.0, -1.0, 200)])
    y = u * cut
    assert y.min() < 1e-6 and y.max() < cut
    got = _chi2_ppf(y, k, top)
    ref = 2.0 * gammaincinv(0.5 * k, y)
    assert np.all(got <= top)
    assert np.max(np.abs(got - ref) / ref) <= 1e-12
    # zero and a stack with one bracket per row
    assert _chi2_ppf(np.zeros(3), k, top).tolist() == [0.0] * 3
    tops = np.array([[0.5], [3.0]])
    rows = _chi2_ppf(np.outer(_chi2_cdf(tops, k), [0.25, 0.5, 0.75]), k, tops)
    assert np.allclose(rows[1], _chi2_ppf(np.array([0.25, 0.5, 0.75])
                                          * _chi2_cdf(3.0, k), k, 3.0),
                       rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("n", range(2, 7))
def test_beta_half_matches_betainc(n):
    a = 0.5 * (n - 1)
    for w in np.linspace(0.0, 1.0, 1001):
        assert abs(_beta_half(a, w) - betainc(a, 0.5, w)) <= 1e-14



# I_w(1/2, 1/2) = (2/pi) asin(sqrt w) and I_w(1, 1/2) = 1 - sqrt(1 - w) at
# the double w exactly: asin to 50 digits by its series below w = 1/2 and
# through asin(sqrt w) = pi/2 - asin(sqrt(1 - w)) above, and the root to
# 700 digits, enough to keep 1 - sqrt(1 - w) at w = 1e-300
PI_50 = decimal.Decimal("3.14159265358979323846264338327950288419716939937510")


def decimal_asin(y):
    total = term = y
    j = 0
    while term > total * decimal.Decimal(10) ** -55:
        term *= y * y * (2 * j + 1) ** 2 / ((2 * j + 2) * (2 * j + 3))
        total += term
        j += 1
    return total


def decimal_beta_half(a, w):
    with decimal.localcontext() as ctx:
        ctx.prec = 700 if a == 1.0 else 50
        w = decimal.Decimal(w)
        if a == 1.0:
            return float(1 - (1 - w).sqrt())
        if w <= decimal.Decimal("0.5"):
            return float(2 / PI_50 * decimal_asin(w.sqrt()))
        return float(1 - 2 / PI_50 * decimal_asin((1 - w).sqrt()))


@pytest.mark.parametrize("a", [0.5, 1.0])
def test_beta_half_starts_keep_relative_precision_at_both_edges(a):
    # 1 - sqrt(1 - w) read 0 at w = 1e-17, and (2/pi) asin(sqrt w) was
    # about 1e-9 off at w = 1 - 1e-15
    ws = [1e-300, 1e-17, 1e-15, 1e-8, 0.0137, 0.3, 0.5, 0.7, 0.99,
          1.0 - 1e-8, 1.0 - 1e-15, 1.0 - 2.0 ** -53]
    for w in ws:
        ref = decimal_beta_half(a, w)
        assert abs(_beta_half(a, w) - ref) <= 1e-14 * ref, (a, w)


def test_beta_half_tail_matches_betainc_to_1e_12():
    # from a = 3/2 on, the steps up from a = 1/2 or 1 cancel as the value
    # falls far below its start; there the positive tail series takes over
    ws = np.concatenate([np.linspace(0.0, 1.0, 101),
                         10.0 ** -np.arange(2.0, 300.0, 9.0)])
    for n in range(4, 386, 3):
        a = 0.5 * (n - 1)
        for w in ws:
            ref = betainc(a, 0.5, w)
            if ref > 1e-290:   # below it scipy's reference is subnormal
                assert _beta_half(a, float(w)) \
                    == pytest.approx(ref, rel=1e-12, abs=0.0), (a, w)


@pytest.mark.parametrize("n", [50, 100, 200, 385])
def test_line_measure_far_below_rounding_matches_betainc(n):
    # the k = 1 sharpness measure at s = 2 is I_w((n-1)/2, 1/2), w = 1 - x,
    # x = (1 - cut) / (1 - sigma^2): 5.7e-36 at n = 50 and 5.9e-271 at
    # n = 385, far below the rounding of the steps' start
    x = (1.0 - 1.0 / (8.0 * np.pi)) / (1.0 - (2.0 * np.pi) ** -n)
    assert exact_event_measure(n, 1, 2.0) \
        == pytest.approx(betainc(0.5 * (n - 1), 0.5, 1.0 - x), rel=1e-12,
                         abs=0.0)


@pytest.mark.parametrize("n,k,s", [(4, 2, 1.0), (4, 2, 1.5), (4, 2, 2.0),
                                   (4, 2, 2.49), (5, 2, 1.0), (5, 2, 1.5),
                                   (5, 3, 1.3), (6, 2, 1.0), (6, 4, 1.2),
                                   (100, 2, 2.0)])
def test_two_plane_measure_matches_dblquad(n, k, s):
    # the Jacobi density of the two principal angles, sin^(n-4) phi_1
    # sin^(n-4) phi_2 |cos^2 phi_1 - cos^2 phi_2|, integrated by scipy below
    # the diagonal, where it is smooth (density and event are symmetric in
    # the two angles), over the event and over the whole triangle; at
    # n = 100, 1 - sigma^2 rounds to 1, so the rule takes sigma^2 itself
    sigma2 = (2 * np.pi) ** (-n / k)
    a = 1.0 - sigma2
    c = (2 * np.pi * s * s) ** -k * sigma2 ** (2 - k)

    def density(phi2, phi1):
        return (np.sin(phi1) * np.sin(phi2)) ** (n - 4) \
            * (np.cos(phi2) ** 2 - np.cos(phi1) ** 2)

    def top(phi1):
        lam = (1.0 - c / (1.0 - a * np.cos(phi1) ** 2)) / a
        return min(phi1, np.arccos(np.sqrt(np.clip(lam, 0.0, 1.0))))

    edge = np.arccos(np.sqrt(np.clip((1.0 - c / sigma2) / a, 0.0, 1.0)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        event = dblquad(density, 0.0, edge, 0.0, top,
                        epsabs=0.0, epsrel=1e-13)[0]
        whole = dblquad(density, 0.0, np.pi / 2, 0.0, lambda phi1: phi1,
                        epsabs=0.0, epsrel=1e-13)[0]
    value = exact_event_measure(n, k, s)
    assert value == pytest.approx(event / whole, rel=1e-9, abs=0.0)
    # spectral convergence: twice the nodes move the rule by rounding only
    twice = _two_plane_measure(n, sigma2, c, nodes=2 * QUAD_NODES)
    assert value == pytest.approx(twice, rel=1e-10, abs=0.0)

def test_unit_ball_volume_matches_gamma_form():
    for n in range(41):
        ref = np.exp(0.5 * n * np.log(np.pi) - gammaln(0.5 * n + 1.0))
        assert unit_ball_volume(n) == pytest.approx(ref, rel=1e-13, abs=0.0)


SUITE = """
[run]
seed = 7
output_dir = "out"

[density trunc3]
kind = "truncated_gaussian"
n = 3
tau = 0.8
radius = 2.0

[check planes]
check = "bp_subspace"
densities = ["trunc3", "trunc3"]
k = 2
p = 1.0
n_direct = 400
n_subspaces = 8
inner = 16

[check lines]
check = "bp_subspace"
densities = ["trunc3"]
k = 1
p = 1.0
n_direct = 400
n_subspaces = 8
inner = 16

[check sharpness]
check = "gaussian_sharpness"
n = 3
k = 1
s = 1.5
n_subspaces = 1000

[check plane sharpness]
check = "gaussian_sharpness"
n = 4
k = 2
s = 1.5
n_subspaces = 1000
"""

RUN_WITHOUT_SCIPY = """
import glob, importlib.abc, os, sys

class NoScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")

sys.meta_path.insert(0, NoScipy())
root, suite = sys.argv[1:]
import igeolab
import igeolab.cli
from igeolab.config import load_config
for pattern in ("configs/*.ini", "bench/workloads/*.ini"):
    for path in sorted(glob.glob(os.path.join(root, pattern))):
        load_config(path)
print(igeolab.cli.main(["run", "--config", suite]))
print(sorted(name for name in sys.modules if name.startswith("scipy")))
"""


def test_runs_on_numpy_alone(tmp_path):
    # every elementary form is reached: truncated-Gaussian masses (the
    # shipped configs), its sample and its k = 1 and k = 2 section points,
    # the bp_* constants and the exact sharpness measures of a line and of
    # a plane
    src = os.path.dirname(os.path.dirname(igeolab.__file__))
    root = pathlib.Path(__file__).resolve().parents[1]
    suite = tmp_path / "suite.ini"
    suite.write_text(textwrap.dedent(SUITE))
    out = subprocess.run(
        [sys.executable, "-c", RUN_WITHOUT_SCIPY, str(root), str(suite)],
        capture_output=True, text=True, cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=src))
    assert out.returncode == 0, out.stderr
    code, modules = out.stdout.strip().splitlines()[-2:]
    assert code in ("0", "2", "3") and modules == "[]"
    rows = (tmp_path / "out" / "results.csv").read_text().splitlines()
    assert len(rows) == 5
