"""igeolab benchmark: three pinned suites, end to end and layer by layer.

    python3 bench/run.py --workload paper-core|sections|sharpness \
        --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the package is imported from
the checkout's src/ in fresh child processes (bench/child.py) with BLAS and
OpenMP capped at one thread, so that jobs = 2 uses no more threads than two
cores.  The workloads are the configs in bench/workloads/, pinned with
their seeds and expected verdicts; see bench/README.md for why each exists
and which layer metric should move which end-to-end metric.

--trace 0 measures, with tracing off:
  setup_s        median over the suite children of spawn -> `import
                 igeolab` -> load_config done (after one warm-up child)
  suite_s        median wall time of run_suite(config, jobs=1)
  suite_jobs2_s  median wall time of run_suite(config, jobs=2)
  peak_rss_mb    median peak resident memory of the jobs=1 children
Runs alternate jobs=1 and jobs=2 children in pairs until --seconds have
passed (at least one pair); --seed only shuffles the order inside each
pair, because the suites run at their pinned seeds.

The three times are given at a reference core speed.  Virtual cores on a
shared host run the same work up to 1.8x slower when neighbours are busy,
in swings that last minutes, so each measured child runs next to a speed
probe (bench/probe.py) on every core it uses -- a jobs=1 child is pinned
to the first core -- and each wall time is multiplied by PROBE_CHUNK_S
over the probe's mean chunk time during that span.  The probe is benchmark
code, so a change to igeolab moves the corrected time by its full amount.
Raw wall times are in the details line.

--trace 1 runs one untraced jobs=1 child and two traced ones
(bench/tracer.py) and reports the per-layer metrics named in
BENCHMARK.json.  The order of the three is shuffled by --seed.

Correctness, both modes: every child's verdicts are compared with the
pinned list (mismatches and checks that never produced a row are the
failed operations; wrong_verdict_share = failed / attempted), results.csv
must be byte-identical across all children of the run, traced or not, and
every traced count must repeat exactly between the two traced children.

Stdout: a table of every metric with its unit, one JSON line with the run
details (environment, results.csv sha256, samples, full layer split), and
as the last line the result object {correct, attempted, failed, metrics}.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
PROBE = os.path.join(HERE, "probe.py")
CHILD_TIMEOUT_S = 150.0     # a whole run must end well inside 180 s
# CPU time of one probe chunk on a fast core (2-core x86-64 VM, Python
# 3.11); times are reported at this core speed
PROBE_CHUNK_S = 0.0003

PASS, FAIL = "pass", "fail"
WORKLOADS = {
    "paper-core": {
        "config": "paper-core.ini",
        "expected": {
            "subspace decomposition gauss 211": PASS,
            "subspace decomposition ball 321": PASS,
            "flat decomposition ball 21": PASS,
            "linear invariance shear": PASS,
            "affine invariance shear shift": PASS,
            "rearrangement chain bimodal": PASS,
            "section ratio equality ball": PASS,
            "section ratio truncated pair": PASS,
            "section ratio ellipsoid equality": PASS,
            "flat average ball": PASS,
            "flat average shifted ellipsoid equality": PASS,
            "marginal bound skewed": PASS,
            "perturbed subspace small ball": PASS,
        },
    },
    "sections": {
        "config": "sections.ini",
        "expected": {
            "subspace decomposition truncated pair": PASS,
            "flat decomposition radial": PASS,
            "section ratio radial": PASS,
            "flat average box": PASS,
            "linear invariance box mc": PASS,
            "rearrangement chain simplex": PASS,
            "planted equality radial": FAIL,
        },
    },
    "sharpness": {
        "config": "sharpness.ini",
        "expected": {
            "sharpness 31 s15": FAIL,
            "sharpness 31 s2": FAIL,
            "sharpness 31 s3": FAIL,
            "sharpness 42 s15": FAIL,
            "sharpness 42 s2": FAIL,
            "sharpness 42 s3": FAIL,
        },
    },
}


class BenchError(RuntimeError):
    """The benchmark could not measure: no result is printed."""


# -- verdict gate ----------------------------------------------------------

def score_verdicts(expected: dict, csv_text: str) -> tuple[int, int, dict]:
    """(attempted, failed, verdicts) for one results.csv.

    Every expected check counts as attempted; it failed when its row is
    missing (the suite raised before reaching it) or its verdict differs
    from the pinned one.  Rows for unexpected labels also count as failed.
    """
    verdicts = {}
    for row in csv.DictReader(csv_text.splitlines()):
        label = json.loads(row["extra-params"]).get("label", row["check"])
        verdicts[label] = row["verdict"]
    failed = sum(verdicts.get(label) != want
                 for label, want in expected.items())
    failed += sum(label not in expected for label in verdicts)
    return len(expected), failed, verdicts


# -- child processes -------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    env.pop("PYTHONPATH", None)
    return env


def spawn(args: list[str], deadline: float, probe_cpus=()) -> dict:
    """Run bench/child.py, with a speed probe on each of probe_cpus.

    setup_s runs from just before the spawn to the moment the child
    reports its config loaded (both sides read CLOCK_MONOTONIC).  The
    probes' samples, (monotonic time, chunk CPU seconds), are in "probe".
    """
    probes = [subprocess.Popen([sys.executable, PROBE, str(cpu)],
                               stdout=subprocess.PIPE, env=child_env(),
                               text=True)
              for cpu in probe_cpus]
    try:
        for probe in probes:        # started up: no longer competes
            probe.stdout.readline()
        data = _spawn_child(args, deadline)
    finally:
        for probe in probes:
            probe.terminate()
        outputs = [probe.communicate()[0] for probe in probes]
    data["probe"] = [sample for out in outputs if out.strip()
                     for sample in json.loads(out.strip().splitlines()[-1])]
    return data


def core_speed(samples: list, start: float, end: float) -> float:
    """PROBE_CHUNK_S over the mean probe chunk time between start and end:
    above 1 when the cores ran faster than the reference, below when the
    host slowed them."""
    inside = [cpu_s for at, cpu_s in samples if start <= at <= end]
    if not inside:
        raise BenchError("no probe sample inside a measured span")
    return PROBE_CHUNK_S / statistics.mean(inside)


def _spawn_child(args: list[str], deadline: float) -> dict:
    """Run bench/child.py in its own process group; parse its JSON line."""
    cmd = [sys.executable, CHILD, "--src", os.path.join(ROOT, "src")] + args
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=child_env(),
                            cwd=ROOT, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except BaseException as exc:
        # timeout, interrupt or SIGTERM: take the child's process group
        # (including a jobs=2 pool) down with us and reap it
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise BenchError(f"child timed out: {' '.join(args)}") from None
        raise
    if proc.returncode != 0:
        raise BenchError(f"child failed ({proc.returncode}): "
                         f"{' '.join(args)}\n{err[-3000:]}")
    data = json.loads(out.strip().splitlines()[-1])
    data["spawned_at"] = spawned
    data["setup_s"] = data["loaded_at"] - spawned
    return data


class Run:
    """State of one benchmark run: children spawned, samples, gate tallies."""

    def __init__(self, workload: str, out_root: str, deadline: float):
        self.spec = WORKLOADS[workload]
        self.config = os.path.join(HERE, "workloads", self.spec["config"])
        self.out_root = out_root
        self.deadline = deadline
        self.children = 0
        self.attempted = 0
        self.failed = 0
        self.shas: set[str] = set()
        self.verdicts: dict = {}
        self.samples: dict[str, list] = {}
        self.problems: list[str] = []
        self.cpus = sorted(os.sched_getaffinity(0))

    def sample(self, key: str, value):
        self.samples.setdefault(key, []).append(value)

    def warm_up(self):
        """A child that only imports and loads, not sampled: in a fresh
        checkout it compiles the bytecode and fills the file cache."""
        spawn(["--config", self.config, "--mode", "setup"], self.deadline)

    def record_setup(self, data: dict):
        self.sample("setup_wall_s", data["setup_s"])
        if data["probe"]:
            self.sample("setup_s", data["setup_s"] * core_speed(
                data["probe"], data["spawned_at"], data["loaded_at"]))
        self.sample("import_s", data["import_s"])
        self.sample("load_s", data["load_s"])
        self.sample("blas_threads", data["blas_threads"])

    def suite_child(self, mode: str, jobs: int, probed=False) -> dict:
        """One run_suite child; probed pins a jobs=1 child to the first
        core and watches each core the child uses with a speed probe."""
        self.children += 1
        out = os.path.join(self.out_root, f"{mode}-{jobs}-{self.children}")
        args = ["--config", self.config, "--mode", mode, "--out", out,
                "--jobs", str(jobs)]
        cpus = self.cpus[:jobs] if probed else []
        if probed and jobs == 1:
            args += ["--cpu", str(cpus[0])]
        data = spawn(args, self.deadline, cpus)
        self.record_setup(data)
        path = os.path.join(out, "results.csv")
        with open(path, "rb") as handle:
            raw = handle.read()
        shutil.rmtree(out)
        self.shas.add(hashlib.sha256(raw).hexdigest())
        attempted, failed, verdicts = score_verdicts(
            self.spec["expected"], raw.decode("utf-8"))
        self.attempted += attempted
        self.failed += failed
        self.verdicts = verdicts
        return data

    @property
    def correct(self) -> bool:
        return self.failed == 0 and len(self.shas) == 1 and not self.problems


def measure(run: Run, seed: int, seconds: float) -> dict:
    """End-to-end metrics, tracing off."""
    order = random.Random(seed)
    run.warm_up()
    started = time.monotonic()
    pairs = 0
    while pairs == 0 or time.monotonic() - started < seconds:
        jobs_order = [1, 2]
        order.shuffle(jobs_order)
        for jobs in jobs_order:
            data = run.suite_child("suite", jobs, probed=True)
            run.sample(f"suite_jobs{jobs}_wall_s", data["suite_s"])
            run.sample(f"suite_jobs{jobs}_s", data["suite_s"] * core_speed(
                data["probe"], data["suite_started_at"],
                data["suite_ended_at"]))
            if jobs == 1:
                run.sample("peak_rss_mb", data["rss_mb"])
        pairs += 1
    return {
        "setup_s": statistics.median(run.samples["setup_s"]),
        "suite_s": statistics.median(run.samples["suite_jobs1_s"]),
        "suite_jobs2_s": statistics.median(run.samples["suite_jobs2_s"]),
        "peak_rss_mb": statistics.median(run.samples["peak_rss_mb"]),
    }


def is_count(name: str) -> bool:
    return not name.endswith("_s")


def trace(run: Run, seed: int) -> dict:
    """Per-layer metrics from two traced children plus one untraced one."""
    run.warm_up()
    modes = ["suite", "trace", "trace"]
    random.Random(seed).shuffle(modes)
    traced = []
    for mode in modes:
        data = run.suite_child(mode, 1)
        if mode == "trace":
            traced.append(data["layers"])
            run.sample("traced_s", data["suite_s"])
        else:
            run.sample("suite_jobs1_wall_s", data["suite_s"])
    first, second = traced
    moved = sorted(name for name in set(first) | set(second)
                   if is_count(name) and first.get(name) != second.get(name))
    if moved:
        run.problems.append(f"traced counts differ between runs: {moved}")
    layers = {name: (statistics.median([first[name], second[name]])
                     if not is_count(name) else first[name])
              for name in first if name in second}
    layers["setup.import_s"] = statistics.median(run.samples["import_s"])
    layers["config.load_config_s"] = statistics.median(run.samples["load_s"])
    layers["trace.overhead_s"] = layers["trace.wall_s"] - statistics.median(
        run.samples["suite_jobs1_wall_s"])
    return layers


def environment(run: Run) -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": sorted(set(run.samples.get("blas_threads", []))),
        "child_env": {k: child_env()[k] for k in
                      ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "platform": platform.platform(),
    }


def declared_metrics(kind: str) -> list[dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)[kind]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "igeolab",
                                       "__init__.py")):
        print(f"no igeolab source under {ROOT}/src", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    scratch = os.path.join(ROOT, ".bench_out")
    run = Run(args.workload, os.path.join(scratch, str(os.getpid())),
              time.monotonic() + CHILD_TIMEOUT_S)
    try:
        if args.trace:
            values = trace(run, args.seed)
            declared = declared_metrics("per_layer")
        else:
            values = measure(run, args.seed, args.seconds)
            declared = declared_metrics("end_to_end")
    except BenchError as exc:
        print(exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run.out_root, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(scratch)

    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"metrics not produced: {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    share = run.failed / run.attempted
    for name, entry in metrics.items():
        print(f"{args.workload:<11} {name:<52} {entry['value']:>14.6g} "
              f"{entry['unit']}")
    print(f"{args.workload:<11} {'wrong_verdict_share':<52} {share:>14.6g} "
          f"ratio ({run.failed} of {run.attempted} checks)")
    details = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "wrong_verdict_share": share,
        "results_sha256": sorted(run.shas),
        "problems": run.problems,
        "verdicts": run.verdicts,
        "samples": run.samples,
        "environment": environment(run),
    }
    if args.trace:
        details["layers"] = values
    print(json.dumps({"details": details}))
    print(json.dumps({"correct": run.correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
