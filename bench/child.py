"""One measurement in a fresh interpreter; run by bench/run.py.

    python3 bench/child.py --src SRC --config INI --mode setup|suite|trace
                           [--out DIR] [--jobs N] [--cpu K]

Prints one JSON object on stdout:
  loaded_at   time.monotonic() when the config was loaded (the parent
              subtracts its own spawn time to get the set-up time)
  import_s    `import igeolab` alone; load_s: `load_config` alone
  suite_s     wall time of run_suite (mode suite or trace), which ran
              from suite_started_at to suite_ended_at (time.monotonic())
  rss_mb      peak resident memory of this process (mode suite)
  exit        run_suite's return code
  layers      per-layer metrics (mode trace, see tracer.Tracer.layer_table)
  blas_threads the thread cap OpenBLAS reports in this process, or null
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import json
import os
import resource
import sys
import time


def _blas_threads():
    """Thread count reported by the OpenBLAS bundled with numpy, if any."""
    import numpy as np
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--mode", choices=("setup", "suite", "trace"),
                        required=True)
    parser.add_argument("--out")
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--cpu", type=int,
                        help="pin this process to one core")
    args = parser.parse_args(argv)
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})

    started = time.perf_counter()
    sys.path.insert(0, args.src)
    import igeolab
    import_s = time.perf_counter() - started
    package = os.path.realpath(os.path.dirname(igeolab.__file__))
    if not package.startswith(os.path.realpath(args.src) + os.sep):
        print(f"igeolab imported from {package}, not from {args.src}",
              file=sys.stderr)
        return 3
    from igeolab import config, runner

    loading = time.perf_counter()
    cfg = config.load_config(args.config, output_override=args.out)
    load_s = time.perf_counter() - loading
    out = {"loaded_at": time.monotonic(), "import_s": import_s,
           "load_s": load_s}
    if args.mode != "setup":
        tracer = None
        if args.mode == "trace":
            from tracer import Tracer
            tracer = Tracer()
        with tracer.installed() if tracer else contextlib.nullcontext():
            out["suite_started_at"] = time.monotonic()
            began = time.perf_counter()
            out["exit"] = runner.run_suite(cfg, jobs=args.jobs,
                                           echo=lambda line: None)
            out["suite_s"] = time.perf_counter() - began
            out["suite_ended_at"] = time.monotonic()
        out["rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            out["layers"] = tracer.layer_table(out["suite_s"])
    out["blas_threads"] = _blas_threads()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
