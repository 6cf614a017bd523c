"""A fixed reference workload that measures how fast the machine runs now.

The benchmark's machine is a share of a host whose speed drifts by 20-30%
over minutes as other tenants come and go; process CPU time drifts with
wall time, so neither can tell a slower program from a busier host. The
kernel below does the same work on every call and does not import
swarmnet, so no change to the program can change its time. `child.py`
times it in each workload process right after the workload, and `run.py`
scales that invocation's wall time by REFERENCE_S over the kernel time.
Timed in the parent between invocations instead, the kernel did not
follow the invocations' wall times.

The kernel mixes what the workloads spend their time on: parsing and
converting CSV rows in Python (log reading), a Python union-find over
integer edges (destruction curves), np.add.at counts (network building)
and element-wise float arrays of 100 x 1000 (shifted Rastrigin).
"""

from __future__ import annotations

import csv
import io
import statistics
import time

import numpy as np

# Median kernel time on the reference machine (2-vCPU Intel Xeon virtual
# machine, Python 3.11, numpy 2.4); calibrated times are in its seconds.
REFERENCE_S = 0.075

_ROWS = 30_000
_N = 100


def _inputs():
    rng = np.random.default_rng(12345)
    picks = rng.integers(0, _N, size=_ROWS)
    text = "".join(f"{k // _N + 1},{k % _N},{b}\r\n" for k, b in enumerate(picks.tolist()))
    edges = rng.integers(0, _N, size=(8_000, 2)).tolist()
    x = rng.standard_normal((_N, 1000))
    flat = rng.integers(0, _N * _N, size=50_000)
    return text, edges, x, flat


_TEXT, _EDGES, _X, _FLAT = _inputs()


def _work() -> float:
    rows = [tuple(int(v) for v in row) for row in csv.reader(io.StringIO(_TEXT))]
    parent = list(range(_N))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    joins = 0
    for _ in range(4):
        parent[:] = range(_N)
        for a, b in _EDGES:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
                joins += 1
    counts = np.zeros(_N * _N, dtype=np.int64)
    for _ in range(4):
        np.add.at(counts, _FLAT, 1)
    total = 0.0
    for _ in range(10):
        total += float((_X * _X - 10 * np.cos(2 * np.pi * _X) + 10).sum())
    return total + joins + len(rows) + int(counts.sum())


def kernel_seconds() -> float:
    """Wall time of one kernel call."""
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start


def machine_seconds() -> float:
    """Median kernel time over five calls; the median drops a call that
    another tenant happened to slow."""
    return statistics.median(kernel_seconds() for _ in range(5))
