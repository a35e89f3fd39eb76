"""Speed probe for one core; run by bench/run.py next to a measured child.

    python3 bench/probe.py CPU

Pins itself to CPU, prints "ready", then every 20 ms runs a fixed chunk of
work with igeolab's mix (small dense inverses, a pass over a 512 KiB
array, a Python loop) and records (time.monotonic() at its end, CPU
seconds it took).  The CPU time of the same chunk grows when the host
slows the core down, and preemption by the measured child does not count
in it.  On SIGTERM it prints the samples as one JSON list and exits.  Duty
cycle is about 2%.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time

import numpy as np

PERIOD_S = 0.02
MATRIX = np.eye(3) * 2.0 + 0.1
BUFFER = np.zeros(65536)


def chunk() -> int:
    for _ in range(8):
        np.linalg.inv(MATRIX)
    np.add(BUFFER, 1.0, out=BUFFER)
    total = 0
    for i in range(800):
        total += i * i
    return total


def main() -> int:
    os.sched_setaffinity(0, {int(sys.argv[1])})
    stopping = []
    signal.signal(signal.SIGTERM, lambda signum, frame: stopping.append(1))
    samples = []
    print("ready", flush=True)
    while not stopping:
        started = time.thread_time()
        chunk()
        samples.append((time.monotonic(), time.thread_time() - started))
        time.sleep(PERIOD_S)
    print(json.dumps(samples))
    return 0


if __name__ == "__main__":
    sys.exit(main())
