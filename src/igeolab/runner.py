"""Suite execution and artifact persistence.

Artifacts per run: results.csv (one row per check, shortest round-trip
number formatting so reruns diff cleanly), reports/<name>.json with the
full diagnostics (name = config.report_name(label), unique per config), and
manifest.json with the reproducibility metadata, including the Python and
numpy versions, the BLAS build and its thread caps, and the platform that
the byte-identity of results.csv rests on (numpy elementwise arithmetic,
the generator streams, and LAPACK where frames or determinants are
factored).
Per-check generators are derived from the master seed by the check's
position, so results are independent of thread count and execution order.
With jobs > 1 the checks run on a pool of threads in this process: their
time goes into numpy kernels and generator fills, which release the GIL.

run_suite sets one malloc policy for its whole process, which covers every
pool thread: blocks below MMAP_THRESHOLD come from the heap,
not from a mapping of their own, and the heap goes back to the kernel only
when more than TRIM_THRESHOLD lies free at its top.  Under glibc's
default policy the checks' sample blocks of several MB go back to the
kernel when freed and are faulted in again at the next draw; the README
gives the measured fault counts.  The policy moves no draw and no arithmetic, so
results.csv does not depend on it; the manifest records it as
environment.malloc and the minor page faults of the thread that ran each
check as minor_faults.
"""

from __future__ import annotations

import csv
import ctypes
import json
import os
import platform
import time
from concurrent.futures import ThreadPoolExecutor

try:
    import resource
except ImportError:  # not on Windows
    resource = None

import numpy as np

from . import __version__
from .config import CHECKS, RunConfig, report_name
from .report import PASS, FAIL, INCONCLUSIVE
from .rng import substream

__all__ = ["CSV_COLUMNS", "run_suite", "report_row"]

CSV_COLUMNS = ["check", "n", "k", "q", "p", "extra-params",
               "lhs", "lhs_stderr", "rhs", "rhs_stderr", "ratio", "verdict"]

# glibc's mallopt parameters, and the values run_suite sets: the ceiling
# of glibc's dynamic mmap threshold on 64-bit, and the trim threshold its
# dynamic rule pairs with it (twice the mmap threshold)
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MMAP_THRESHOLD = 32 * 2 ** 20
TRIM_THRESHOLD = 64 * 2 ** 20


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value)).lower()
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _json_default(value):
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    return str(value)


def report_row(label: str, report) -> dict:
    """CSV row for one check result."""
    params = dict(report.parameters)
    row = {"check": report.name}
    for key in ("n", "k", "q", "p"):
        row[key] = _fmt(params.pop(key)) if key in params else ""
    if label != report.name:
        params["label"] = label
    row["extra-params"] = json.dumps(params, sort_keys=True,
                                     separators=(",", ":"),
                                     default=_json_default)
    row["lhs"] = _fmt(report.lhs.value)
    row["lhs_stderr"] = _fmt(report.lhs.stderr)
    row["rhs"] = _fmt(report.rhs.value)
    row["rhs_stderr"] = _fmt(report.rhs.stderr)
    row["ratio"] = _fmt(report.ratio)
    row["verdict"] = report.verdict
    return row


def _set_malloc_policy():
    """Apply the malloc policy to this process.  Returns it as the manifest
    records it, or None where libc has no mallopt or refuses a value."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return None
    if not all(mallopt(param, value) == 1 for param, value in
               ((M_MMAP_THRESHOLD, MMAP_THRESHOLD),
                (M_TRIM_THRESHOLD, TRIM_THRESHOLD))):
        return None
    return {"mmap_threshold": MMAP_THRESHOLD,
            "trim_threshold": TRIM_THRESHOLD}


def _minor_faults():
    """This thread's minor page faults so far, so that checks running side
    by side keep their own counts; None where resource has no
    RUSAGE_THREAD (off Linux)."""
    who = getattr(resource, "RUSAGE_THREAD", None)
    if who is None:
        return None
    return resource.getrusage(who).ru_minflt


def _execute(args):
    idx, job, seed = args
    faults = _minor_faults()
    started = time.perf_counter()
    report = CHECKS[job.name].run(job.kwargs, substream(seed, idx))
    wall = time.perf_counter() - started
    if faults is not None:
        faults = _minor_faults() - faults
    return report, wall, faults


def _exit_code(verdicts) -> int:
    if any(v == FAIL for v in verdicts):
        return 2
    if any(v == INCONCLUSIVE for v in verdicts):
        return 3
    return 0


def run_suite(config: RunConfig, jobs: int = 1, echo=print) -> int:
    """Run every configured check and persist the artifacts.

    Returns the exit status: 0 all pass, 2 any fail, 3 any inconclusive
    with no failures.  On KeyboardInterrupt, or an exception from a check,
    the rows finished so far are already on disk and the manifest is
    written with interrupted = true, and with the exception's text as
    error; checks already running on the pool finish, and no queued one
    starts.  The exception is then raised again.  The malloc policy of the
    module docstring is set for this process first.
    """
    out_dir = config.output_dir
    reports_dir = os.path.join(out_dir, "reports")
    os.makedirs(reports_dir, exist_ok=True)

    tasks = [(idx, job, config.seed) for idx, job in enumerate(config.checks)]
    malloc = _set_malloc_policy()

    manifest_checks = []
    verdicts = []
    interrupted = False
    error = None
    total_started = time.perf_counter()
    csv_path = os.path.join(out_dir, "results.csv")
    with open(csv_path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        handle.flush()
        try:
            pool = ThreadPoolExecutor(min(jobs, len(tasks))) \
                if jobs > 1 and len(tasks) > 1 else None
            try:
                results = map(_execute, tasks) if pool is None \
                    else pool.map(_execute, tasks)
                for job, (report, wall, faults) in zip(config.checks,
                                                       results):
                    writer.writerow(report_row(job.label, report))
                    handle.flush()
                    path = os.path.join(reports_dir,
                                        report_name(job.label) + ".json")
                    with open(path, "w") as rh:
                        payload = {"label": job.label}
                        payload.update(report.to_dict())
                        json.dump(payload, rh, indent=2,
                                  default=_json_default)
                        rh.write("\n")
                    manifest_checks.append(
                        {"label": job.label, "name": job.name,
                         "verdict": report.verdict, "wall_clock_s": wall,
                         "minor_faults": faults})
                    verdicts.append(report.verdict)
                    echo(f"{report.verdict:>12}  {job.label}  "
                         f"(ratio {report.ratio:.6g}, {wall:.2f}s)")
            finally:
                if pool is not None:
                    pool.shutdown(cancel_futures=True)
        except KeyboardInterrupt:
            interrupted = True
        except Exception as exc:
            interrupted, error = True, exc
    total_wall = time.perf_counter() - total_started

    manifest = {
        "artifact_version": __version__,
        "config_hash": config.resolved_hash(),
        "seed": config.seed,
        "interrupted": interrupted,
        "error": None if error is None else
        type(error).__name__ + (f": {error}" if str(error) else ""),
        "environment": _environment(malloc),
        "checks": manifest_checks,
        "totals": {
            "checks": len(manifest_checks),
            "pass": sum(v == PASS for v in verdicts),
            "fail": sum(v == FAIL for v in verdicts),
            "inconclusive": sum(v == INCONCLUSIVE for v in verdicts),
            "wall_clock_s": total_wall,
        },
    }
    with open(os.path.join(out_dir, "manifest.json"), "w") as handle:
        json.dump(manifest, handle, indent=2, default=_json_default)
        handle.write("\n")
    if error is not None:
        raise error
    if interrupted:
        echo("interrupted; partial results flushed")
        return 130
    return _exit_code(verdicts)


def _environment(malloc) -> dict:
    """The versions, BLAS build and BLAS thread caps (null when unset) that
    the byte-identity of results.csv rests on, and the malloc policy, which
    it does not rest on."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        blas = {}
    return {"python": platform.python_version(),
            "numpy": np.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "thread_caps": {name: os.environ.get(name) for name in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
            # platform.platform() on Linux, without the `uname -p`
            # subprocess it runs for the processor name
            "platform": "-".join(filter(None, (
                platform.system(), platform.release(), platform.machine(),
                "with", "".join(platform.libc_ver())))),
            "malloc": malloc}

