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
position, so results are independent of worker count and execution order.
With jobs > 1 the checks run on this process and up to jobs - 1 forked
copies of it, not on threads: the checks spend their time in many small
numpy calls, which threads of one process would run one at a time under
the interpreter lock.  Where os.fork is missing the suite runs serially.

run_suite sets one malloc policy for its whole process before it forks,
so every worker inherits it: blocks below MMAP_THRESHOLD come from the heap,
not from a mapping of their own, and the heap goes back to the kernel only
when more than TRIM_THRESHOLD lies free at its top.  Under glibc's
default policy the checks' sample blocks of several MB go back to the
kernel when freed and are faulted in again at the next draw; the README
gives the measured fault counts.  The policy moves no draw and no arithmetic, so
results.csv does not depend on it; the manifest records it as
environment.malloc and the minor page faults of the thread that ran each
check as minor_faults, which in a worker's first check include the
copy-on-write faults of the fork.
"""

from __future__ import annotations

import csv
import ctypes
import json
import os
import pickle
import platform
import select
import signal
import time

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
    """This thread's minor page faults so far, which leave out those of
    the BLAS threads; None where resource has no RUSAGE_THREAD (off
    Linux)."""
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


def _outcome(task):
    """(True, what _execute returns) or (False, the exception it raised)."""
    try:
        return True, _execute(task)
    except Exception as exc:
        return False, exc


def _read(fd, size) -> bytearray:
    """size bytes from fd, fewer where it ends first."""
    data = bytearray()
    while len(data) < size and (chunk := os.read(fd, size - len(data))):
        data += chunk
    return data


def _serve(tasks, todo, out, inherited):
    """A forked worker: run each task whose index it takes from todo and
    send (index, outcome) up out, pickled, after its length.  It keeps
    SIGINT blocked, as it was forked, so that only the parent handles an
    interrupt, and leaves only through os._exit, so it never flushes the
    parent's open files."""
    try:
        for fd in inherited:
            os.close(fd)
        out = os.fdopen(out, "wb")
        while token := os.read(todo, 4):
            index = int.from_bytes(token, "little")
            payload = pickle.dumps((index, _outcome(tasks[index])))
            out.write(len(payload).to_bytes(4, "little") + payload)
            out.flush()
    finally:
        os._exit(0)


def _forked(tasks, workers):
    """Run tasks on this process and workers - 1 forked workers; yield what
    _execute returns for each in task order, or raise at its turn what a
    task raised.

    Task 0 is this process's first; every later index is taken from one
    shared pipe by whichever process is free.  A task whose worker exits
    before sending its outcome fails with an error naming its check.  On
    leaving, the pipe is emptied, so no queued task starts, and every
    worker is reaped once its running task is done.
    """
    todo, feed = os.pipe()
    os.set_blocking(feed, False)
    queued = b"".join(i.to_bytes(4, "little") for i in range(1, len(tasks)))
    pipes, pids, outcomes = [], [], {}  # pipes: from the workers

    def fill():
        # indices that find no room in the pipe (past 16,384 on Linux)
        # wait here for this process's next turn to take a task
        nonlocal queued, feed
        try:
            queued = queued[os.write(feed, queued):]
        except BlockingIOError:
            pass
        if not queued:
            os.close(feed)
            feed = None

    def collect(timeout):
        for fd in select.select(pipes, [], [], timeout)[0]:
            size = int.from_bytes(_read(fd, 4), "little")
            if size:
                index, outcome = pickle.loads(_read(fd, size))
                outcomes[index] = outcome
            else:  # the worker has exited
                pipes.remove(fd)
                os.close(fd)

    try:
        fill()
        for _ in range(workers - 1):
            read, write = os.pipe()
            pipes.append(read)
            mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
            try:
                pid = os.fork()
                if pid == 0:
                    _serve(tasks, todo, write,
                           [fd for fd in (feed, *pipes) if fd is not None])
            finally:
                os.close(write)
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
            pids.append(pid)
        mine = 0
        for i in range(len(tasks)):
            while i not in outcomes:
                if mine is not None:
                    outcomes[mine] = _outcome(tasks[mine])
                    if feed is not None:
                        fill()
                    token = os.read(todo, 4)
                    mine = int.from_bytes(token, "little") if token else None
                    collect(0)
                elif pipes:
                    collect(None)
                else:  # a worker took it and exited
                    outcomes[i] = False, RuntimeError(
                        f"check {tasks[i][1].label!r}: its worker process "
                        "exited before sending its outcome")
            ok, value = outcomes.pop(i)
            if not ok:
                raise value
            yield value
    finally:
        if feed is not None:
            os.close(feed)
        while os.read(todo, 4096):
            pass
        for fd in (todo, *pipes):
            os.close(fd)
        for pid in pids:
            os.waitpid(pid, 0)


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
    error; checks already running in workers finish, and no queued one
    starts.  The exception is then raised again, and a worker that exits
    in the middle of a check raises RuntimeError naming it.  The malloc
    policy of the module docstring is set for this process first.
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
            workers = min(jobs, len(tasks)) if hasattr(os, "fork") else 1
            results = _forked(tasks, workers) if workers > 1 \
                else (_execute(task) for task in tasks)
            try:
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
                results.close()
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

