"""End-to-end exercises of the command-line driver.

Everything runs in-process through main() so exit codes, stdout and the
artifact tree can be inspected without spawning interpreters.  The suite
configs lean on exact verdicts (ball chords are computed in closed form)
so starved sampling budgets keep the file fast.
"""

import csv
import ctypes
import dataclasses
import io
import json
import math
import mmap
import os
import pathlib
import platform
import re
import subprocess
import sys
import textwrap
import time
import types
import warnings

import numpy as np
import pytest

from igeolab import config, runner, verify
from igeolab.cli import main
from igeolab.config import check_names, load_config
from igeolab.densities import EllipsoidIndicator
from igeolab.functionals import ExponentSpec
from igeolab.report import FAIL, INCONCLUSIVE, PASS, ParameterError
from igeolab.rng import substream
from igeolab.runner import CSV_COLUMNS, report_row, run_suite
from igeolab.verify import check_affine_invariance, check_linear_invariance

ALL_CHECKS = [
    "affine_invariance", "bp_flat", "bp_subspace", "gaussian_sharpness",
    "grinberg_functional", "linear_invariance", "marginal_bound",
    "perturbation", "rearrangement_chain", "schneider_functional",
]

PASS_BODY = """
[run]
seed = 11
output_dir = "{out}"

[density ball]
kind = "ellipsoid"
n = 2
radius = 1.0

[check round]
check = "grinberg_functional"
densities = ["ball"]
k = 1
p = 1.0
n_subspaces = 64
expect_equality = true
"""

FAIL_BODY = PASS_BODY + """
[density blob]
kind = "truncated_gaussian"
n = 2
tau = 0.8
radius = 1.2
normalize = true

[check lopsided]
check = "grinberg_functional"
densities = ["blob"]
k = 1
p = 1.0
n_subspaces = 400
expect_equality = true
"""

# anisotropic density, sixth power, four subspaces, a rotation that mixes
# its longest and shortest axes: the ratio's noise dwarfs the 25%
# relative-error floor and the verdict degrades honestly (in R^4, where no
# deterministic rule covers the lines, so they are drawn)
STARVED_BODY = """
[run]
seed = 1
output_dir = "{out}"

[density skew]
kind = "gaussian"
n = 4
cov = [[3.0, 0.0, 0.0, 0.0], [0.0, 0.2, 0.0, 0.0],
       [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]]

[check wobble]
check = "linear_invariance"
densities = ["skew"]
k = 1
spec_p = [2.0]
spec_alpha = [6.0]
map = [[0.6, -0.8, 0.0, 0.0], [0.8, 0.6, 0.0, 0.0],
       [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]]
n_subspaces = 4
"""


# a named map, a named map with a given shift, and given arrays: every
# kind of map the invariance checks take, plus a given subspace
INVARIANCE_BODY = """
[run]
seed = 5
output_dir = "{out}"

[density ball]
kind = "ellipsoid"
n = 2
radius = 1.0

[density unit]
kind = "ellipsoid"
n = 2
normalize = true

[check linear]
check = "linear_invariance"
densities = ["ball"]
k = 1
spec_p = [1.0]
spec_alpha = [2.0]
map = "shear"
n_subspaces = 64

[check affine]
check = "affine_invariance"
densities = ["ball"]
k = 1
spec_p = [1.0]
spec_alpha = [3.0]
map = "shear"
shift = [0.3, -0.1]
R = 2.0
n_flats = 64

[check affine given]
check = "affine_invariance"
densities = ["ball", "ball"]
k = 1
spec_p = [1.0, 1.0]
spec_alpha = [1.0, 1.0]
map = [[3.0, 0.3], [0.0, 0.3333333333333333]]
shift = [0.4, -0.2]
R = 2.0
n_flats = 64

[check nearby]
check = "perturbation"
density = "unit"
k = 1
subspace = [[0.6], [0.8]]
eta = 0.5
eps_grid = [0.1, 0.2]
n_samples = 200
n_candidates = 4
"""


def write_suite(tmp_path, body, name="suite.ini", out="out"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(body.format(out=out)))
    return str(path)


def read_rows(csv_path):
    with open(csv_path, newline="") as handle:
        return list(csv.DictReader(handle))


def test_run_pass_exit_zero_and_artifacts(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--config", write_suite(tmp_path, PASS_BODY)]) == 0

    rows = read_rows(tmp_path / "out" / "results.csv")
    assert [r["verdict"] for r in rows] == ["pass"]
    assert list(rows[0]) == CSV_COLUMNS
    assert float(rows[0]["ratio"]) == 1.0  # ball equality is exact

    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["totals"] == {
        "checks": 1, "pass": 1, "fail": 0, "inconclusive": 0,
        "wall_clock_s": manifest["totals"]["wall_clock_s"]}
    assert re.fullmatch(r"[0-9a-f]{64}", manifest["config_hash"])
    assert manifest["seed"] == 11

    report = json.loads(
        (tmp_path / "out" / "reports" / "round.json").read_text())
    assert report["label"] == "round"
    assert report["verdict"] == "pass"


def test_manifest_records_environment(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--config", write_suite(tmp_path, PASS_BODY)]) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    env = manifest["environment"]
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    caps = {name: os.environ.get(name)
            for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    assert env == {"python": platform.python_version(),
                   "numpy": np.__version__,
                   "blas": blas["name"], "blas_version": blas["version"],
                   "thread_caps": caps, "platform": platform.platform(),
                   "malloc": env["malloc"]}


def test_manifest_platform_runs_no_uname_subprocess(tmp_path, monkeypatch):
    # platform.platform() asks `uname -p` for the processor name through a
    # subprocess; the manifest builds the same string without it
    def refuse(*args, **kwargs):
        raise AssertionError("platform.platform or processor called")

    monkeypatch.setattr(platform, "platform", refuse)
    monkeypatch.setattr(platform, "processor", refuse)
    cfg = load_config(write_suite(tmp_path, PASS_BODY),
                      output_override=str(tmp_path / "out"))
    assert run_suite(cfg, echo=lambda line: None) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["environment"]["platform"].startswith(
        f"{platform.system()}-{platform.release()}-")


def test_manifest_records_blas_and_thread_caps(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    runs = []
    for caps in ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": None},
                 {"OPENBLAS_NUM_THREADS": None, "OMP_NUM_THREADS": "2"}):
        for name, value in caps.items():
            if value is None:
                monkeypatch.delenv(name, raising=False)
            else:
                monkeypatch.setenv(name, value)
        assert main(["run", "--config",
                     write_suite(tmp_path, PASS_BODY)]) == 0
        out = tmp_path / "out"
        env = json.loads((out / "manifest.json").read_text())["environment"]
        assert env["blas"] == blas["name"]
        assert env["blas_version"] == blas["version"]
        assert env["thread_caps"] == caps
        runs.append((out / "results.csv").read_bytes())
    assert runs[0] == runs[1]  # the caps go to the manifest only


POLICY = {"mmap_threshold": 33554432, "trim_threshold": 67108864}


@pytest.mark.skipif(not hasattr(ctypes.CDLL(None), "mallopt"),
                    reason="libc has no mallopt")
def test_manifest_records_malloc_policy_and_minor_faults(tmp_path,
                                                         monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--config", write_suite(tmp_path, FAIL_BODY)]) == 2
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["environment"]["malloc"] == POLICY
    faults = [check["minor_faults"] for check in manifest["checks"]]
    assert len(faults) == 2
    assert all(isinstance(f, int) and f >= 0 for f in faults)


def recording_libc(monkeypatch, log, refuse=False):
    """Stand in for ctypes.CDLL: every mallopt call appends
    "pid param value" to the file log."""
    def mallopt(param, value):
        with open(log, "a") as handle:
            handle.write(f"{os.getpid()} {param} {value}\n")
        return 0 if refuse else 1

    opened = []

    def cdll(name):
        opened.append(name)
        return types.SimpleNamespace(mallopt=mallopt)

    monkeypatch.setattr(ctypes, "CDLL", cdll)
    return opened


def read_calls(log):
    return [tuple(int(v) for v in line.split())
            for line in log.read_text().splitlines()]


def test_run_suite_sets_the_malloc_policy(tmp_path, monkeypatch):
    log = tmp_path / "mallopt.log"
    opened = recording_libc(monkeypatch, log)
    cfg = load_config(write_suite(tmp_path, FAIL_BODY,
                                  out=str(tmp_path / "out")))
    run_suite(cfg, echo=lambda line: None)
    assert opened == [None]
    assert (runner.MMAP_THRESHOLD, runner.TRIM_THRESHOLD) == \
        (32 * 2 ** 20, 64 * 2 ** 20)
    pid = os.getpid()
    assert read_calls(log) == [(pid, -3, runner.MMAP_THRESHOLD),
                               (pid, -1, runner.TRIM_THRESHOLD)]
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["environment"]["malloc"] == POLICY


def test_pool_workers_set_the_malloc_policy(tmp_path, monkeypatch):
    # --jobs 2 sets the policy once, in this process, before it forks: the
    # worker inherits it and calls no mallopt
    log = tmp_path / "mallopt.log"
    recording_libc(monkeypatch, log)
    cfg = load_config(write_suite(tmp_path, FAIL_BODY,
                                  out=str(tmp_path / "out")))
    run_suite(cfg, jobs=2, echo=lambda line: None)
    pid = os.getpid()
    assert read_calls(log) == [(pid, -3, runner.MMAP_THRESHOLD),
                               (pid, -1, runner.TRIM_THRESHOLD)]


def assert_no_child():
    """Every process the run forked has been reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def wait_for(path):
    """Wait, up to 30 s, until another process has created path."""
    deadline = time.monotonic() + 30
    while not path.exists():
        assert time.monotonic() < deadline, f"{path.name} never appeared"
        time.sleep(0.005)


def test_minor_faults_are_per_check_under_jobs(tmp_path, monkeypatch):
    # this process's check waits while the worker's check touches 8192
    # fresh pages: only the toucher's count has them
    if not hasattr(runner.resource, "RUSAGE_THREAD"):
        pytest.skip("resource has no RUSAGE_THREAD")
    pages, page = 8192, mmap.PAGESIZE
    entered, touched = tmp_path / "entered", tmp_path / "touched"
    parent = os.getpid()
    grinberg = runner.CHECKS["grinberg_functional"]

    def run(kwargs, rng):
        if os.getpid() == parent:
            entered.touch()
            wait_for(touched)
        else:
            wait_for(entered)
            with mmap.mmap(-1, pages * page) as block:
                if hasattr(mmap, "MADV_NOHUGEPAGE"):
                    block.madvise(mmap.MADV_NOHUGEPAGE)
                for offset in range(0, pages * page, page):
                    block[offset] = 1
            touched.touch()
        return grinberg.run(kwargs, rng)

    cfg = load_config(write_suite(tmp_path, FAIL_BODY,
                                  out=str(tmp_path / "out")))
    monkeypatch.setitem(runner.CHECKS, "grinberg_functional",
                        types.SimpleNamespace(run=run))
    run_suite(cfg, jobs=2, echo=lambda line: None)
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    waiter, toucher = sorted(c["minor_faults"] for c in manifest["checks"])
    assert waiter < pages <= toucher


def test_minor_faults_null_without_rusage_thread(tmp_path, monkeypatch):
    monkeypatch.delattr(runner.resource, "RUSAGE_THREAD", raising=False)
    cfg = load_config(write_suite(tmp_path, FAIL_BODY,
                                  out=str(tmp_path / "out")))
    run_suite(cfg, jobs=2, echo=lambda line: None)
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert [c["minor_faults"] for c in manifest["checks"]] == [None, None]


@pytest.mark.parametrize("jobs", [1, 2])
def test_interrupt_flushes_rows_and_starts_no_queued_check(tmp_path,
                                                           monkeypatch, jobs):
    # every check but the first takes 0.2 s, so at --jobs 2 this process
    # has taken check 2 from the queue, and the worker is running check 1,
    # when the interrupt lands after row 0; check 3 is still queued and must
    # never start.  Each process logs the checks it starts to one file.
    log, echoed = tmp_path / "started", []
    execute = runner._execute

    def slow(task):
        with open(log, "a") as handle:
            handle.write(f"{task[0]}\n")
        if task[0]:
            time.sleep(0.2)
        return execute(task)

    def echo(line):
        echoed.append(line)
        if len(echoed) == 1:
            raise KeyboardInterrupt

    monkeypatch.setattr(runner, "_execute", slow)
    cfg = load_config(write_suite(tmp_path, INVARIANCE_BODY,
                                  out=str(tmp_path / "out")))
    assert len(cfg.checks) == 4
    assert run_suite(cfg, jobs=jobs, echo=echo) == 130
    assert_no_child()
    started = [int(line) for line in log.read_text().split()]
    assert 0 in started and set(started) <= set(range(jobs + 1))
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["interrupted"] is True and manifest["error"] is None
    assert [c["label"] for c in manifest["checks"]] == ["linear"]
    rows = read_rows(tmp_path / "out" / "results.csv")
    assert [r["check"] for r in rows] == ["linear_invariance"]
    assert os.listdir(tmp_path / "out" / "reports") == ["linear.json"]


def no_mallopt(name):
    return types.SimpleNamespace()


def no_libc(name):
    raise OSError("no such library")


@pytest.mark.parametrize("libc", [no_mallopt, no_libc, "refuses"])
def test_suite_runs_unchanged_without_the_malloc_policy(tmp_path, monkeypatch,
                                                        libc):
    cfg = load_config(write_suite(tmp_path, PASS_BODY,
                                  out=str(tmp_path / "normal")))
    assert run_suite(cfg, echo=lambda line: None) == 0
    if libc == "refuses":
        recording_libc(monkeypatch, tmp_path / "mallopt.log", refuse=True)
    else:
        monkeypatch.setattr(ctypes, "CDLL", libc)
    cfg = load_config(write_suite(tmp_path, PASS_BODY,
                                  out=str(tmp_path / "bare")))
    assert run_suite(cfg, echo=lambda line: None) == 0
    assert (tmp_path / "bare" / "results.csv").read_bytes() == \
        (tmp_path / "normal" / "results.csv").read_bytes()
    manifest = json.loads((tmp_path / "bare" / "manifest.json").read_text())
    assert manifest["environment"]["malloc"] is None


ROOT = pathlib.Path(__file__).resolve().parents[1]
# results.csv of each shipped config at its pinned seed, kept in tests/data,
# and the directory of its config; a change that moves a column regenerates
# these files and says so.  The sections workload is the only suite that runs
# Monte Carlo section windows, radial and truncated-Gaussian section points
# and 200,000-tuple simplex stacks.
SHIPPED_RESULTS = {"paper-core": "configs", "negative-controls": "configs",
                   "sharpness": "configs", "sections": "bench/workloads"}
NUMERIC_COLUMNS = ("lhs", "lhs_stderr", "rhs", "rhs_stderr", "ratio")


def same_number(got: str, want: str) -> bool:
    """Equal to 1e-9 relative, which another BLAS build still meets; a
    value under 1e-15 is rounding noise, such as the stderr of an exact
    side, and need only stay under it."""
    return got == want or math.isclose(float(got), float(want),
                                       rel_tol=1e-9, abs_tol=1e-15)


@pytest.mark.parametrize("name", SHIPPED_RESULTS)
@pytest.mark.filterwarnings("error")   # no numpy overflow on a shipped row
def test_shipped_results_match_the_reference(tmp_path, name):
    cfg = load_config(str(ROOT / SHIPPED_RESULTS[name] / f"{name}.ini"),
                      output_override=str(tmp_path))
    run_suite(cfg, echo=lambda line: None)
    got = read_rows(tmp_path / "results.csv")
    want = read_rows(ROOT / "tests" / "data" / f"{name}-results.csv")
    assert list(got[0]) == list(want[0]) == CSV_COLUMNS
    assert len(got) == len(want)
    for g, w in zip(got, want):
        label = json.loads(w["extra-params"])["label"]
        assert {c: g[c] for c in CSV_COLUMNS if c not in NUMERIC_COLUMNS} \
            == {c: w[c] for c in CSV_COLUMNS if c not in NUMERIC_COLUMNS}, \
            label
        for column in NUMERIC_COLUMNS:
            assert same_number(g[column], w[column]), \
                (label, column, g[column], w[column])


def test_paper_core_run_never_imports_numpy_ma(tmp_path):
    # np.quantile would import it through np.unique; the marginal-bound
    # check reads its order statistics with np.partition, which does not.
    # The runner forks its workers itself, with no executor module.
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        runner.__file__)))
    script = ("import sys\n"
              "from igeolab.cli import main\n"
              "code = main(['run', '--config', sys.argv[1], '--jobs', '1'])\n"
              "for name in ('numpy.ma', 'concurrent.futures', "
              "'multiprocessing'):\n"
              "    assert name not in sys.modules, name + ' imported'\n"
              "sys.exit(code)\n")
    env = dict(os.environ, IGEOLAB_OUTPUT_DIR=str(tmp_path / "out"),
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", script,
         os.path.join(root, "configs", "paper-core.ini")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "results.csv").exists()


SHEAR_SHIFT_BODY = """
    [run]
    seed = 20260819
    output_dir = "out"

    [density ellipsoid3_shifted]
    kind = "ellipsoid"
    shape = [[1.5, 0.2, 0.0], [0.2, 0.8, -0.1], [0.0, -0.1, 1.1]]
    center = [0.3, -0.2, 0.1]

    [check affine invariance shear shift]
    check = "affine_invariance"
    densities = ["ellipsoid3_shifted", "ellipsoid3_shifted",
                 "ellipsoid3_shifted", "ellipsoid3_shifted"]
    spec_p = [1.0, 1.0, 1.0, 1.0]
    spec_alpha = [1.0, 1.0, 1.0, 1.0]
    k = 2
    map = [[1.0, 0.4, 0.0], [0.0, 1.0, 0.25], [0.0, 0.0, 1.0]]
    shift = [0.4, -0.2, 0.1]
    R = 3.0
    n_flats = 24000
"""


def test_rule_sums_do_not_follow_the_blas_thread_count(tmp_path):
    # paper-core's rule-route row whose sums once moved with the OpenBLAS
    # thread count: the same results.csv at one thread and at two
    config = write_suite(tmp_path, SHEAR_SHIFT_BODY)
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        runner.__file__)))
    results = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = dict(os.environ, IGEOLAB_OUTPUT_DIR=str(out),
                   OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from igeolab.cli import main; sys.exit(main())",
             "run", "--config", config],
            cwd=tmp_path, env=env, capture_output=True, text=True,
            timeout=300)
        assert proc.returncode == 0, proc.stderr
        results.append((out / "results.csv").read_bytes())
    assert results[0] == results[1]


def test_run_any_failure_exits_two(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--config", write_suite(tmp_path, FAIL_BODY)]) == 2
    out = capsys.readouterr().out
    assert "pass" in out and "fail" in out
    verdicts = {r["check"]: r["verdict"]
                for r in read_rows(tmp_path / "out" / "results.csv")}
    assert verdicts == {"grinberg_functional": "fail"} or \
        [r["verdict"] for r in read_rows(tmp_path / "out" / "results.csv")] \
        == ["pass", "fail"]


def test_run_starved_budget_exits_three(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--config", write_suite(tmp_path, STARVED_BODY)]) == 3
    rows = read_rows(tmp_path / "out" / "results.csv")
    assert [r["verdict"] for r in rows] == ["inconclusive"]


def test_rerun_is_byte_identical_and_env_redirects(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    config = write_suite(tmp_path, FAIL_BODY)
    main(["run", "--config", config])
    first = (tmp_path / "out" / "results.csv").read_bytes()

    monkeypatch.setenv("IGEOLAB_OUTPUT_DIR", str(tmp_path / "elsewhere"))
    main(["run", "--config", config])
    assert not (tmp_path / "elsewhere" / "out").exists()
    second = (tmp_path / "elsewhere" / "results.csv").read_bytes()
    assert first == second


def test_empty_output_dir_env_is_unset(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("IGEOLAB_OUTPUT_DIR", "")
    assert main(["run", "--config", write_suite(tmp_path, PASS_BODY)]) == 0
    assert (tmp_path / "out" / "results.csv").exists()
    assert not (tmp_path / "results.csv").exists()


def test_parallel_run_matches_serial(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    config = write_suite(tmp_path, FAIL_BODY)
    main(["run", "--config", config])
    serial = (tmp_path / "out" / "results.csv").read_bytes()

    monkeypatch.setenv("IGEOLAB_OUTPUT_DIR", str(tmp_path / "par"))
    main(["run", "--config", config, "--jobs", "2"])
    assert (tmp_path / "par" / "results.csv").read_bytes() == serial
    assert_no_child()

    monkeypatch.setenv("IGEOLAB_OUTPUT_DIR", str(tmp_path / "nofork"))
    monkeypatch.delattr(os, "fork")     # as on Windows: the run is serial
    main(["run", "--config", config, "--jobs", "2"])
    assert (tmp_path / "nofork" / "results.csv").read_bytes() == serial


def test_seed_flag_overrides_stream(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    config = write_suite(tmp_path, STARVED_BODY)
    ratios = {}
    for seed in (7, 8):
        monkeypatch.setenv("IGEOLAB_OUTPUT_DIR", str(tmp_path / f"s{seed}"))
        main(["run", "--config", config, "--seed", str(seed)])
        rows = read_rows(tmp_path / f"s{seed}" / "results.csv")
        manifest = json.loads(
            (tmp_path / f"s{seed}" / "manifest.json").read_text())
        assert manifest["seed"] == seed
        ratios[seed] = float(rows[0]["ratio"])
    assert ratios[7] != ratios[8]


def test_empty_check_list_writes_header_only(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    body = """
    [run]
    seed = 1
    output_dir = "{out}"

    [density ball]
    kind = "ellipsoid"
    n = 2
    radius = 1.0
    """
    assert main(["run", "--config", write_suite(tmp_path, body)]) == 0
    text = (tmp_path / "out" / "results.csv").read_text()
    assert text.strip() == ",".join(CSV_COLUMNS)


def test_config_error_prints_and_exits_one(tmp_path, capsys):
    body = """
    [run]
    seed = 1

    [check mystery]
    check = "quantum_leap"
    """
    assert main(["run", "--config", write_suite(tmp_path, body)]) == 1
    err = capsys.readouterr().err
    assert "config error:" in err
    assert "quantum_leap" in err


def test_simplex_chain_of_one_density_exits_one(tmp_path, monkeypatch,
                                                capsys):
    # one point spans no simplex: the chain would read lhs 0 and pass
    monkeypatch.chdir(tmp_path)
    body = """
    [run]
    seed = 1
    output_dir = "{out}"

    [density ball]
    kind = "ellipsoid"
    n = 2
    radius = 1.0

    [check lonely]
    check = "rearrangement_chain"
    densities = ["ball"]
    p = 1.0
    case = "simplex"
    n_samples = 100
    """
    assert main(["run", "--config", write_suite(tmp_path, body)]) == 1
    err = capsys.readouterr().err
    assert "config error: [check lonely] densities: " in err
    assert not (tmp_path / "out").exists()


def test_config_not_utf8_exits_one(tmp_path, capsys):
    path = tmp_path / "suite.ini"
    path.write_bytes(b"[run]\nseed = 1\n# \xff\xfe not UTF-8\n")
    assert main(["run", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "config error: [run] path: " in err and "UTF-8" in err


def test_unwritable_output_dir_exits_one(tmp_path, monkeypatch, capsys):
    # output_dir runs through a regular file, so no directory can be made
    monkeypatch.chdir(tmp_path)
    (tmp_path / "afile").write_text("")
    config = write_suite(tmp_path, PASS_BODY, out="afile/out")
    assert main(["run", "--config", config]) == 1
    assert "cannot write results to afile/out: " in capsys.readouterr().err


@pytest.mark.parametrize("message", ["Unable to allocate 745. GiB for an "
                                     "array with shape (100000000000,)", ""])
def test_check_out_of_memory_exits_one(tmp_path, monkeypatch, capsys,
                                       message):
    # a budget too large for the memory, such as N = 1e11
    # Monte Carlo section points, is one line and exit 1, not a traceback
    def hungry(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(verify, "check_grinberg_functional", hungry)
    assert main(["run", "--config", write_suite(tmp_path, PASS_BODY)]) == 1
    err = capsys.readouterr().err
    assert err == ("out of memory" + (f": {message}" if message else "")
                   + "\n")


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_failed_check_leaves_a_manifest_of_the_rows_before_it(
        tmp_path, monkeypatch, capsys, jobs):
    # the second check raises: the first row, its report and a manifest
    # that says the run stopped and why are on disk, and the error still
    # ends the run as one line and exit 1
    def hungry(*args, **kwargs):
        raise MemoryError("Unable to allocate 745. GiB")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(verify, "check_schneider_functional", hungry)
    body = PASS_BODY + """
[check flat]
check = "schneider_functional"
density = "ball"
k = 1
n_flats = 8
"""
    assert main(["run", "--config", write_suite(tmp_path, body),
                 "--jobs", jobs]) == 1
    assert capsys.readouterr().err == \
        "out of memory: Unable to allocate 745. GiB\n"
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["interrupted"] is True
    assert manifest["error"] == "MemoryError: Unable to allocate 745. GiB"
    assert [c["label"] for c in manifest["checks"]] == ["round"]
    assert manifest["totals"]["checks"] == 1
    rows = read_rows(tmp_path / "out" / "results.csv")
    assert [r["check"] for r in rows] == ["grinberg_functional"]
    assert os.listdir(tmp_path / "out" / "reports") == ["round.json"]
    assert_no_child()


def second_check_in_a_worker(tmp_path, monkeypatch, second):
    """FAIL_BODY's suite, whose first check, run by this process, waits
    until a forked worker has started the second, which calls second()."""
    parent, started = os.getpid(), tmp_path / "started"
    grinberg = runner.CHECKS["grinberg_functional"]

    def run(kwargs, rng):
        if os.getpid() == parent:
            wait_for(started)
        else:
            started.touch()
            second()
        return grinberg.run(kwargs, rng)

    cfg = load_config(write_suite(tmp_path, FAIL_BODY,
                                  out=str(tmp_path / "out")))
    monkeypatch.setitem(runner.CHECKS, "grinberg_functional",
                        types.SimpleNamespace(run=run))
    return cfg


def test_more_workers_than_cores_run_each_check_once(tmp_path, monkeypatch):
    # 16 checks on 5 processes, more than the cores of most test machines,
    # all taking indices from one pipe: each check starts exactly once and
    # the rows are the serial run's bytes
    body = PASS_BODY.split("[check round]")[0] + "".join(f"""
[check round {i}]
check = "grinberg_functional"
densities = ["ball"]
k = 1
p = 1.0
n_subspaces = 64
""" for i in range(16))
    cfg = load_config(write_suite(tmp_path, body,
                                  out=str(tmp_path / "serial")))
    run_suite(cfg, echo=lambda line: None)
    log, execute = tmp_path / "started", runner._execute

    def logged(task):
        with open(log, "a") as handle:
            handle.write(f"{task[0]}\n")
        return execute(task)

    monkeypatch.setattr(runner, "_execute", logged)
    pooled = dataclasses.replace(cfg, output_dir=str(tmp_path / "pooled"))
    run_suite(pooled, jobs=5, echo=lambda line: None)
    assert_no_child()
    assert sorted(int(line) for line in log.read_text().split()) == \
        list(range(16))
    assert (tmp_path / "pooled" / "results.csv").read_bytes() == \
        (tmp_path / "serial" / "results.csv").read_bytes()


def test_a_worker_that_dies_fails_its_check(tmp_path, monkeypatch):
    # the worker exits in the middle of the second check: the run stops
    # there as if the check had raised, with an error naming it
    cfg = second_check_in_a_worker(tmp_path, monkeypatch,
                                   lambda: os._exit(3))
    with pytest.raises(RuntimeError, match="'lopsided'"):
        run_suite(cfg, jobs=2, echo=lambda line: None)
    assert_no_child()
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["interrupted"] is True
    assert manifest["error"].startswith("RuntimeError: ")
    assert "'lopsided'" in manifest["error"]
    assert [c["label"] for c in manifest["checks"]] == ["round"]
    rows = read_rows(tmp_path / "out" / "results.csv")
    assert [r["check"] for r in rows] == ["grinberg_functional"]


def test_a_workers_parameter_error_keeps_its_param(tmp_path, monkeypatch):
    def refuse():
        raise ParameterError("k", "must be odd")

    cfg = second_check_in_a_worker(tmp_path, monkeypatch, refuse)
    with pytest.raises(ParameterError) as err:
        run_suite(cfg, jobs=2, echo=lambda line: None)
    assert (err.value.param, err.value.message) == ("k", "must be odd")
    assert_no_child()


def test_list_checks_names_every_check(capsys):
    assert main(["list-checks"]) == 0
    out = capsys.readouterr().out
    listed = [line.split(":", 1)[0] for line in out.strip().splitlines()]
    assert listed == ALL_CHECKS
    assert check_names() == ALL_CHECKS


def test_table_single_file(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    main(["run", "--config", write_suite(tmp_path, FAIL_BODY)])
    capsys.readouterr()

    assert main(["table", str(tmp_path / "out" / "results.csv")]) == 0
    out = capsys.readouterr().out
    pretty, tsv = out.split("\n\n", 1)
    assert pretty.splitlines()[0].split()[:2] == ["check", "n"]
    assert "ratio_delta" not in out
    header = tsv.strip().splitlines()[0].split("\t")
    assert header == ["check", "n", "k", "q", "p", "extra-params",
                      "ratio", "verdict"]
    assert len(tsv.strip().splitlines()) == 3  # header + two checks


def test_table_two_files_reports_drift(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    config = write_suite(tmp_path, STARVED_BODY)
    for seed in (7, 8):
        monkeypatch.setenv("IGEOLAB_OUTPUT_DIR", str(tmp_path / f"s{seed}"))
        main(["run", "--config", config, "--seed", str(seed)])
    capsys.readouterr()

    paths = [str(tmp_path / f"s{s}" / "results.csv") for s in (7, 8)]
    assert main(["table", *paths]) == 0
    tsv = capsys.readouterr().out.split("\n\n", 1)[1]
    lines = [line.split("\t") for line in tsv.strip().splitlines()]
    header, row = lines[0], lines[1]
    for name in ("ratio_1", "verdict_1", "ratio_2", "verdict_2",
                 "ratio_delta"):
        assert name in header
    get = dict(zip(header, row))
    delta = abs(float(get["ratio_1"]) - float(get["ratio_2"]))
    assert float(get["ratio_delta"]) == pytest.approx(delta, rel=1e-12)


def test_table_equal_ratios_have_zero_delta(tmp_path, capsys):
    # the (4,2), s = 3 sharpness event is provably empty: its ratio is inf
    path = tmp_path / "results.csv"
    path.write_text(
        "check,n,k,q,p,extra-params,ratio,verdict\n"
        'gaussian_sharpness,4,2,,,"{""s"":3.0}",inf,fail\n'
        'gaussian_sharpness,3,1,,,"{""s"":3.0}",3.758833258156668,fail\n')
    assert main(["table", str(path), str(path)]) == 0
    tsv = capsys.readouterr().out.split("\n\n", 1)[1]
    lines = [line.split("\t") for line in tsv.strip().splitlines()]
    deltas = [dict(zip(lines[0], row))["ratio_delta"] for row in lines[1:]]
    assert deltas == ["0.0", "0.0"]


def test_table_missing_file_errors(tmp_path, capsys):
    assert main(["table", str(tmp_path / "nope.csv")]) == 1
    assert "cannot read" in capsys.readouterr().err


@pytest.mark.parametrize("body", [
    "[run]\nseed = 1\n\n[run]\nseed = 2\n",
    "[run]\nseed = 1\nseed = 2\n",
    "seed = 1\n[run]\n",
], ids=["duplicate-section", "duplicate-option", "missing-header"])
def test_ini_syntax_error_prints_and_exits_one(tmp_path, capsys, body):
    path = tmp_path / "suite.ini"
    path.write_text(body)
    assert main(["run", "--config", str(path)]) == 1
    assert "config error: [run] " in capsys.readouterr().err


def test_method_is_recorded(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    body = PASS_BODY + """
[check sampled]
check = "linear_invariance"
densities = ["ball"]
k = 1
spec_p = [1.0]
spec_alpha = [2.0]
map = "shear"
method = ["mc", 8]
n_subspaces = 64
"""
    main(["run", "--config", write_suite(tmp_path, body)])
    extra = json.loads(read_rows(tmp_path / "out" / "results.csv")[1]
                       ["extra-params"])
    assert extra["method"] == ["mc", 8]
    report = json.loads(
        (tmp_path / "out" / "reports" / "sampled.json").read_text())
    assert report["parameters"]["method"] == ["mc", 8]


@pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
def test_seed_flag_out_of_range_exits_one(tmp_path, monkeypatch, capsys, seed):
    monkeypatch.chdir(tmp_path)
    config = write_suite(tmp_path, PASS_BODY)
    assert main(["run", "--config", config, "--seed", seed]) == 1
    assert "config error: [run] seed: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_malformed_density_number_exits_one(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    body = PASS_BODY.replace("radius = 1.0", "radius = NaN")
    assert main(["run", "--config", write_suite(tmp_path, body)]) == 1
    assert "config error: [density ball] radius: " \
        in capsys.readouterr().err


@pytest.mark.parametrize("fields, field_name", [
    ('kind = "ellipsoid"\nn = 2\namplitude = 0.0', "amplitude"),
    ('kind = "ellipsoid"\nshape = [[1.0, 0.0], [0.0, -1.0]]', "shape"),
    ('kind = "radial"\nn = 2\nheights = [1.0]\nradius = 1e200', "radius"),
    ('kind = "radial"\nn = 2\nheights = [1.0, 0.5]\nradius = 1e200',
     "radius"),
    ('kind = "radial"\nn = 2\nheights = [1.0]\nedges = [0.0, 1e200]',
     "edges"),
    ('kind = "ellipsoid"\nn = 2\nradius = 1e-160\nnormalize = true',
     "radius"),
    ('kind = "truncated_gaussian"\nn = 2\ntau = 1e200\nradius = 1.0',
     "tau"),
], ids=["zero-mass", "indefinite-shape", "radial-overflow",
        "radial-overflow-nan-mass", "radial-overflow-edges",
        "ellipsoid-underflow-radius",
        "truncated-overflow-tau"])
def test_degenerate_density_exits_one(tmp_path, monkeypatch, capsys, fields,
                                      field_name):
    monkeypatch.chdir(tmp_path)
    body = PASS_BODY.replace('kind = "ellipsoid"\nn = 2\nradius = 1.0',
                             fields)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy overflow warning either
        assert main(["run", "--config", write_suite(tmp_path, body)]) == 1
    err = capsys.readouterr().err
    assert f"config error: [density ball] {field_name}: " in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


# Configs that load as valid JSON in valid ranges but sit at the edge of
# the float range: each must end in a config error naming the field, or in
# a verdict.  The density (name d) and the check [check c] are given.
EXTREME = {
    # kappa_600 underflows to 0, whose log the closed-form side would take
    "grinberg-gaussian-600": (
        'kind = "gaussian"\nn = 600',
        'check = "grinberg_functional"\ndensities = ["d"]\nk = 1\n'
        'p = 0.0\nn_subspaces = 8', "densities"),
    "schneider-ball-300": (
        'kind = "ellipsoid"\nn = 300',
        'check = "schneider_functional"\ndensity = "d"\nk = 1\n'
        'n_flats = 8', "density"),
    "affine-window-1e200": (
        'kind = "ellipsoid"\nn = 3',
        'check = "affine_invariance"\ndensities = ["d"]\nk = 1\n'
        'spec_p = [1.0]\nspec_alpha = [4.0]\nmap = "shear"\n'
        'shift = [0.0, 0.0, 0.0]\nR = 1e200\nn_flats = 8', "R"),
    "bp-flat-window-1e200": (
        'kind = "ellipsoid"\nn = 2',
        'check = "bp_flat"\ndensity = "d"\nk = 1\nR = 1e200\nn_flats = 8',
        "R"),
    # exact cone moments past the float range: E|X|^400 of the Gaussian
    # overflows in a log-gamma, E|X|^330 to inf
    "bp-subspace-gaussian-p400": (
        'kind = "gaussian"\nn = 2',
        'check = "bp_subspace"\ndensities = ["d"]\nk = 1\np = 400\n'
        'n_direct = 8\nn_subspaces = 8', "p"),
    "bp-subspace-gaussian-p330": (
        'kind = "gaussian"\nn = 2',
        'check = "bp_subspace"\ndensities = ["d"]\nk = 1\np = 330\n'
        'n_direct = 8\nn_subspaces = 8', "p"),
    # E|X|^300 = 8.2e307 is finite, but the Monte Carlo route's means of
    # its size overflow when squared: the check once warned and read
    # INCONCLUSIVE at ratio 1.1e91
    "bp-subspace-gaussian-p300": (
        'kind = "gaussian"\nn = 2',
        'check = "bp_subspace"\ndensities = ["d"]\nk = 1\np = 300\n'
        'n_direct = 40000\nn_subspaces = 400\ninner = 200', "p"),
    # a radial grid's E|X|^1100 overflows in a numpy power, which warns
    "bp-subspace-radial-p1100": (
        'kind = "radial"\nn = 2\nradius = 2.0\nheights = [1.0, 0.5]',
        'check = "bp_subspace"\ndensities = ["d"]\nk = 1\np = 1100\n'
        'n_direct = 8\nn_subspaces = 8', "p"),
    "rearrangement-unit-volume-balls-p400": (
        'kind = "ellipsoid"\nn = 2\nradius = 0.5641895835477563',
        'check = "rearrangement_chain"\ndensities = ["d", "d"]\np = 400\n'
        'n_samples = 8', "p"),
    # s^(kn) = 1.728 < 2 puts the exceptional envelope 2 s^-(kn) above 1,
    # under whose binomial slack the check once took a negative square root
    "marginal-envelope-above-1": (
        'kind = "gaussian"\nn = 3',
        'check = "marginal_bound"\ndensity = "d"\nk = 1\ns = 1.2\nt = 2.0\n'
        'n_subspaces = 8\nn_x = 20', "s"),
    # exact measures far below 1e-16, under claimed bounds far above them
    "sharpness-50-1": (
        None, 'check = "gaussian_sharpness"\nn = 50\nk = 1\ns = 2.0\n'
        'n_subspaces = 8', "fail"),
    "sharpness-385-1": (
        None, 'check = "gaussian_sharpness"\nn = 385\nk = 1\ns = 2.0\n'
        'n_subspaces = 8', "fail"),
    # sigma^2 = (2 pi)^-50 is below the rounding of 1 - sigma^2
    "sharpness-100-2": (
        None, 'check = "gaussian_sharpness"\nn = 100\nk = 2\ns = 2.0\n'
        'n_subspaces = 8', "fail"),
}


@pytest.mark.parametrize("name", EXTREME)
@pytest.mark.filterwarnings("error")
def test_extreme_configs_end_in_a_config_error_or_a_verdict(tmp_path,
                                                           monkeypatch,
                                                           capsys, name):
    density, check, outcome = EXTREME[name]
    monkeypatch.chdir(tmp_path)
    body = "[run]\nseed = 1\noutput_dir = \"out\"\n\n"
    if density is not None:
        body += f"[density d]\n{density}\n\n"
    path = tmp_path / "suite.ini"
    path.write_text(body + f"[check c]\n{check}\n")
    status = main(["run", "--config", str(path)])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if outcome in (PASS, FAIL, INCONCLUSIVE):
        assert status == {PASS: 0, FAIL: 2, INCONCLUSIVE: 3}[outcome]
        rows = read_rows(tmp_path / "out" / "results.csv")
        assert [row["verdict"] for row in rows] == [outcome]
        assert float(rows[0]["rhs"]) > 0.0   # a measure, not rounding noise
    else:
        assert status == 1
        assert f"config error: [check c] {outcome}: " in err
        assert not (tmp_path / "out").exists()


# bounded densities whose support radius passes 1.3e154: a product of two
# wide factors (its radius once raised OverflowError) and an ellipsoid far
# from the origin (its centre's norm once overflowed with a warning, then
# read as an unbounded support)
WIDE_SUPPORTS = {
    "product-2e162": 'kind = "product"\nfactors = '
                     '[{"lo": -2e162, "hi": 2e162, "heights": [2.5e-163]}, '
                     '{"lo": -2e162, "hi": 2e162, "heights": [2.5e-163]}]',
    "ellipsoid-centre-1e200": 'kind = "ellipsoid"\nn = 2\n'
                              'center = [1e200, 0.0]',
}


@pytest.mark.parametrize("name", WIDE_SUPPORTS)
@pytest.mark.filterwarnings("error")
def test_wide_supports_end_in_a_window_error(tmp_path, monkeypatch, capsys,
                                             name):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "suite.ini"
    path.write_text("[run]\nseed = 1\noutput_dir = \"out\"\n\n"
                    f"[density d]\n{WIDE_SUPPORTS[name]}\n\n"
                    "[check c]\ncheck = \"schneider_functional\"\n"
                    "density = \"d\"\nk = 1\nn_flats = 8\n")
    assert main(["run", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "config error: [check c] density: puts the flat window past " \
        "the float range" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_worker_count_capped_at_checks(tmp_path, monkeypatch):
    # --jobs 64 on 2 checks forks once: this process and one worker
    forks = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--config", write_suite(tmp_path, FAIL_BODY),
                 "--jobs", "64"]) == 2
    assert len(forks) == 1
    assert_no_child()


def test_budget_below_two_exits_one(tmp_path, monkeypatch, capsys):
    # n_direct = 1 is no Monte Carlo mean; the parse says so rather than
    # the estimator, twenty minutes in
    monkeypatch.chdir(tmp_path)
    body = PASS_BODY + """
[check short]
check = "bp_subspace"
densities = ["ball"]
k = 1
p = 1.0
n_direct = 1
n_subspaces = 8
inner = 4
"""
    assert main(["run", "--config", write_suite(tmp_path, body)]) == 1
    err = capsys.readouterr().err
    assert "config error: [check short] n_direct: " in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def run_invariance_suite(tmp_path, name="out"):
    cfg = load_config(write_suite(tmp_path, INVARIANCE_BODY,
                                  out=str(tmp_path / name)))
    run_suite(cfg, echo=lambda line: None)
    return cfg, (tmp_path / name / "results.csv").read_bytes()


@pytest.mark.parametrize("jobs", [1, 2])
def test_run_suite_never_parses(tmp_path, monkeypatch, jobs):
    # load_config parses each check once; running only dispatches
    cfg = load_config(write_suite(tmp_path, INVARIANCE_BODY,
                                  out=str(tmp_path / "out")))

    def parse(*args, **kwargs):
        raise AssertionError("a check map was parsed at run time")

    monkeypatch.setattr(config._Check, "parse", parse)
    run_suite(cfg, jobs=jobs, echo=lambda line: None)
    rows = read_rows(tmp_path / "out" / "results.csv")
    assert len(rows) == len(cfg.checks) == 4


def test_direct_invariance_calls_reproduce_config_rows(tmp_path):
    # the check at position i runs on substream(seed, i), and child 0 of it
    # draws a named map whoever calls the check
    cfg, csv_bytes = run_invariance_suite(tmp_path)
    ball = EllipsoidIndicator.ball(2)
    direct = [
        ("linear", check_linear_invariance(
            [ball], ExponentSpec((1.0,), (2.0,)), 1, "shear", 64,
            rng=substream(cfg.seed, 0))),
        ("affine", check_affine_invariance(
            [ball], ExponentSpec((1.0,), (3.0,)), 1, "shear",
            np.array([0.3, -0.1]), 2.0, 64, rng=substream(cfg.seed, 1)))]
    rows = csv_bytes.splitlines(keepends=True)
    for idx, (label, report) in enumerate(direct):
        line = io.StringIO()
        csv.DictWriter(line, fieldnames=CSV_COLUMNS).writerow(
            report_row(label, report))
        assert rows[idx + 1] == line.getvalue().encode()


def test_one_config_runs_twice_identically(tmp_path):
    # every run shares the parsed keywords, so verify must not mutate them
    cfg, first = run_invariance_suite(tmp_path, "first")
    again = dataclasses.replace(cfg, output_dir=str(tmp_path / "second"))
    run_suite(again, echo=lambda line: None)
    assert (tmp_path / "second" / "results.csv").read_bytes() == first


@pytest.mark.parametrize("text, named", [
    ("check,n,k,q,p,extra-params\nround,2,1,,1.0,{}\n", "ratio, verdict"),
    ("check,n,k,q,p,extra-params,ratio,verdict\nround,2,1,,1.0,{}\n",
     "line 2"),
], ids=["no-result-columns", "short-row"])
def test_table_missing_result_fields_errors(tmp_path, capsys, text, named):
    path = tmp_path / "partial.csv"
    path.write_text(text)
    assert main(["table", str(path), str(path)]) == 1
    err = capsys.readouterr().err
    assert f"cannot read {path}: " in err
    assert named in err


def test_table_of_empty_file_is_empty(tmp_path, capsys):
    path = tmp_path / "empty.csv"
    path.write_text("")
    assert main(["table", str(path)]) == 0
    assert "cannot read" not in capsys.readouterr().err


@pytest.mark.parametrize("jobs", ["0", "-3", "two"])
def test_non_positive_jobs_flag_is_a_usage_error(tmp_path, capsys, jobs):
    config = write_suite(tmp_path, PASS_BODY)
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", config, "--jobs", jobs])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def run_with_jobs_env(tmp_path, monkeypatch, capsys, env):
    # --jobs is the one way to ask for workers; the old IGEOLAB_JOBS
    # variable is not read, whatever it holds
    def no_fork():
        raise AssertionError("forked a worker at --jobs 1")

    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("IGEOLAB_JOBS", env)
    # one worker: the suite runs in this process
    assert main(["run", "--config", write_suite(tmp_path, FAIL_BODY)]) == 2
    assert "IGEOLAB_JOBS" not in capsys.readouterr().err


def test_jobs_default_to_one_whatever_the_environment(tmp_path,
                                                      monkeypatch, capsys):
    run_with_jobs_env(tmp_path, monkeypatch, capsys, "2")


def test_invalid_jobs_env_is_ignored(tmp_path, monkeypatch, capsys):
    run_with_jobs_env(tmp_path, monkeypatch, capsys, "banana")


@pytest.mark.parametrize("env", ["0", "-2"])
def test_non_positive_jobs_env_is_ignored(tmp_path, monkeypatch, capsys, env):
    run_with_jobs_env(tmp_path, monkeypatch, capsys, env)
