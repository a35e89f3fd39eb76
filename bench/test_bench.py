"""Tests for the benchmark's own code.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run as bench  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

import igeolab  # noqa: E402,F401  (imports every layer module)
from igeolab import config, densities, runner  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

# Small suite touching every wrapped boundary: Gaussian scalar slices,
# ellipsoid batched rows, flats, section sampling, simplex volumes, MC
# section norms, perturbation draws and Haar sampling.
SMALL = """
[run]
seed = 7

[density gauss2]
kind = "gaussian"
n = 2

[density ball2]
kind = "ellipsoid"
n = 2

[density trunc3]
kind = "truncated_gaussian"
n = 3
tau = 0.8
radius = 2.0

[density box2]
kind = "product"
factors = [{"heights": [1.0, 2.0]}, {"heights": [0.5, 1.5, 1.0]}]

[check lin]
check = "linear_invariance"
densities = ["gauss2"]
spec_p = [1.0]
spec_alpha = [2.0]
k = 1
map = "shear"
n_subspaces = 40

[check lin mc]
check = "linear_invariance"
densities = ["box2", "box2"]
spec_p = [1.0, 1.0]
spec_alpha = [1.0, 1.0]
k = 1
map = "shear"
method = ["mc", 8]
n_subspaces = 20

[check flat]
check = "bp_flat"
density = "ball2"
k = 1
R = 1.0
n_flats = 20
inner = 10

[check ratio]
check = "grinberg_functional"
densities = ["ball2"]
k = 1
p = 1.0
n_subspaces = 50
expect_equality = true

[check perturb]
check = "perturbation"
density = "trunc3"
k = 1
subspace = [0]
eta = 0.5
eps_grid = [0.2]
n_samples = 200
n_candidates = 4

[check sharp]
check = "gaussian_sharpness"
n = 3
k = 1
s = 2.0
n_subspaces = 500
"""


def _small_config(tmp_path, out):
    path = tmp_path / "small.ini"
    path.write_text(SMALL)
    return config.load_config(str(path), output_override=str(tmp_path / out))


def _snapshot():
    owners = [m for name, m in sorted(sys.modules.items())
              if name == "igeolab" or name.startswith("igeolab.")]
    owners += [c for c in vars(densities).values() if isinstance(c, type)
               and issubclass(c, densities.DensityModel)]
    state = {(id(o), k): v for o in owners for k, v in vars(o).items()}
    state.update({("check", name): spec.run
                  for name, spec in config.CHECKS.items()})
    return state


def _traced_run(tmp_path):
    cfg = _small_config(tmp_path, "traced")
    tracer = Tracer()
    with tracer.installed():
        runner.run_suite(cfg, jobs=1, echo=lambda line: None)
    return tracer


def test_uninstall_restores_every_original():
    before = _snapshot()
    tracer = Tracer()
    with tracer.installed():
        assert igeolab.grassmann.haar_bases is not before[
            (id(igeolab.grassmann), "haar_bases")]
        assert _snapshot() != before
    assert _snapshot() == before
    assert all(a is b for a, b in zip(_snapshot().values(), before.values()))


def test_uninstall_restores_after_an_exception():
    before = _snapshot()
    try:
        with Tracer().installed():
            raise KeyError("boom")
    except KeyError:
        pass
    assert _snapshot() == before


def test_tracing_leaves_results_csv_unchanged(tmp_path):
    plain = _small_config(tmp_path, "plain")
    runner.run_suite(plain, jobs=1, echo=lambda line: None)
    tracer = _traced_run(tmp_path)
    read = lambda d: (tmp_path / d / "results.csv").read_bytes()  # noqa: E731
    assert read("plain") == read("traced")

    layers = tracer.layer_table(wall_s=1.0)
    assert layers["densities.slice.GaussianDensity.calls"] > 0
    assert layers["densities.slice_stats_batch.GaussianDensity.rows"] > 0
    assert layers["densities.slice_stats_batch.EllipsoidIndicator.rows"] > 0
    assert 0.0 < layers["densities.batched_row_share"] < 1.0
    assert 0.0 < layers["grassmann.perturb_subspace.accept_ratio"] <= 1.0
    assert layers["geometry.tuple_volumes.tuples"] > 0
    assert layers["densities.eval_many.points"] > 0
    assert layers["densities.eval_many.self_s"] == pytest.approx(sum(
        v for k, v in layers.items()
        if k.startswith("densities.eval_many.") and k.count(".") == 3
        and k.endswith(".self_s")))
    assert layers["grassmann.haar_bases.bases"] >= 500
    # every span belongs to a layer, and self times add up to the spans
    assert {name.split(".", 1)[0] for name, *_ in tracer.spans} \
        <= set(LAYERS)
    total = sum(layers[f"{layer}.self_s"] for layer in LAYERS)
    root = [end - start for _, start, end, parent in tracer.spans
            if parent < 0]
    assert abs(total - sum(root)) < 1e-6


def test_counts_repeat_exactly(tmp_path):
    first = _traced_run(tmp_path).layer_table(1.0)
    second = _traced_run(tmp_path).layer_table(1.0)
    counts = [k for k in first if bench.is_count(k)]
    assert counts
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}


def test_every_metric_name_is_well_formed(tmp_path):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    declared = [m["name"] for kind in ("end_to_end", "per_layer")
                for m in spec[kind]]
    produced = list(_traced_run(tmp_path).layer_table(1.0))
    for name in declared + produced + list(bench.WORKLOADS):
        assert NAME.fullmatch(name), name
    added_by_run = {"setup.import_s", "config.load_config_s",
                    "trace.overhead_s"}
    missing = {m["name"] for m in spec["per_layer"]} - set(produced) \
        - added_by_run
    assert not missing


def _csv(verdicts: dict) -> str:
    rows = [",".join(runner.CSV_COLUMNS)]
    for label, verdict in verdicts.items():
        params = json.dumps({"label": label}).replace('"', '""')
        rows.append(f'x,,,,,"{params}",,,,,,{verdict}')
    return "\n".join(rows) + "\n"


def test_planted_wrong_verdict_raises_wrong_verdict_share():
    expected = dict(bench.WORKLOADS["sections"]["expected"])
    text = _csv(expected)
    assert bench.score_verdicts(expected, text)[:2] == (7, 0)

    planted = dict(expected, **{"planted equality radial": "pass"})
    attempted, failed, _ = bench.score_verdicts(planted, text)
    assert failed / attempted > 0.0

    missing_row = dict(expected)
    missing_row.pop("flat average box")
    assert bench.score_verdicts(expected, _csv(missing_row))[1] == 1


def test_pinned_expectations_match_pinned_configs():
    for name, spec in bench.WORKLOADS.items():
        cfg = config.load_config(
            os.path.join(HERE, "workloads", spec["config"]))
        assert [job.label for job in cfg.checks] == list(spec["expected"])


def test_core_speed_uses_the_probe_samples_inside_the_span():
    samples = [(1.0, 0.0005), (2.0, 0.00025), (5.0, 1.0)]
    assert bench.core_speed(samples, 0.5, 2.5) == pytest.approx(
        bench.PROBE_CHUNK_S / 0.000375)
    with pytest.raises(bench.BenchError):
        bench.core_speed(samples, 3.0, 4.0)


def test_probe_reports_samples_on_sigterm():
    cpu = sorted(os.sched_getaffinity(0))[0]
    probe = subprocess.Popen([sys.executable, bench.PROBE, str(cpu)],
                             stdout=subprocess.PIPE, text=True)
    assert probe.stdout.readline() == "ready\n"
    time.sleep(0.3)
    probe.terminate()
    out, _ = probe.communicate(timeout=10)
    assert probe.returncode == 0
    samples = json.loads(out)
    assert samples and all(cpu_s > 0 for _, cpu_s in samples)
