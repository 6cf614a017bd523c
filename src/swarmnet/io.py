"""CSV readers and writers for logs, traces, metrics, and summaries.

Every float is written with repr(), the shortest decimal string that
round-trips to the same binary value, so repeated runs with the same seed
diff byte-for-byte and write-then-read returns identical in-memory data.
Iterations are 1-based in every file; particle indices are 0-based.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from .benchmarks import FunctionId
from .errors import InputError
from .experiment import SummaryRow
from .interaction import DestructionCurve
from .pso import InteractionLog, RunTrace
from .topology import TopologyKind

LOG_HEADER = ["iteration", "particle", "best_neighbor"]
TRACE_HEADER = ["iteration", "global_best_fitness", "fitness_improvement"]
DIVERSITY_HEADER = ["iteration", "id_value"]
DESTRUCTION_HEADER = ["t_w", "threshold", "component_count"]
SUMMARY_HEADER = [
    "function", "topology_kind", "k", "repetitions",
    "mean_id", "id_ci_low", "id_ci_high",
    "mean_final_fitness", "mean_fdelta", "converged_fraction",
]


def fmt(x: float) -> str:
    """Shortest round-trip decimal representation."""
    return repr(float(x))


def _open_writer(path):
    return open(path, "w", newline="")


def write_interaction_log(path, log: InteractionLog) -> None:
    """One row per (iteration, particle) selection event, iteration-major."""
    with _open_writer(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(LOG_HEADER)
        for t in range(len(log)):
            row_choices = log.choices[t]
            for i in range(log.n):
                writer.writerow([t + 1, i, int(row_choices[i])])


def _parse_error(path, line_no: int, detail: str) -> InputError:
    return InputError(f"{path}:{line_no}: {detail}")


def read_interaction_log(path) -> InteractionLog:
    """Parse a selection-event log back into memory.

    The file must contain every (iteration, particle) pair exactly once
    for iterations 1..T and particles 0..n-1, and no particle may select
    itself: its own personal best never competes for best neighbor.
    """
    entries = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != LOG_HEADER:
            raise _parse_error(path, 1, f"expected header {LOG_HEADER}, got {header}")
        for line_no, row in enumerate(reader, start=2):
            if len(row) != 3:
                raise _parse_error(path, line_no, f"expected 3 fields, got {len(row)}")
            try:
                t, i, b = (int(v) for v in row)
            except ValueError:
                raise _parse_error(path, line_no, f"non-integer field in {row}")
            if t < 1 or i < 0 or b < 0:
                raise _parse_error(path, line_no, f"out-of-range values {row}")
            entries.append((t, i, b, line_no))
    if not entries:
        raise _parse_error(path, 2, "log contains no selection events")
    total = max(t for t, _, _, _ in entries)
    n = max(i for _, i, _, _ in entries) + 1
    choices = np.full((total, n), -1, dtype=np.int64)
    for t, i, b, line_no in entries:
        if i >= n or b >= n:
            raise _parse_error(path, line_no, f"particle index out of range in {(t, i, b)}")
        if b == i:
            raise _parse_error(path, line_no, f"particle {i} selects itself at iteration {t}")
        if choices[t - 1, i] != -1:
            raise _parse_error(path, line_no, f"duplicate event for iteration {t}, particle {i}")
        choices[t - 1, i] = b
    missing = np.argwhere(choices == -1)
    if len(missing):
        t, i = missing[0]
        raise InputError(
            f"{path}: missing event for iteration {int(t) + 1}, particle {int(i)}"
        )
    return InteractionLog(choices)


def write_run_trace(path, trace: RunTrace) -> None:
    with _open_writer(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_HEADER)
        for t in range(len(trace.global_best_fitness)):
            writer.writerow([
                t + 1,
                fmt(trace.global_best_fitness[t]),
                fmt(trace.fitness_improvement[t]),
            ])


def read_run_trace(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Returns (iterations, global best fitness, fitness improvement)."""
    iters, f_g, f_d = [], [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != TRACE_HEADER:
            raise _parse_error(path, 1, f"expected header {TRACE_HEADER}, got {header}")
        for line_no, row in enumerate(reader, start=2):
            if len(row) != 3:
                raise _parse_error(path, line_no, f"expected 3 fields, got {len(row)}")
            try:
                iters.append(int(row[0]))
                f_g.append(float(row[1]))
                f_d.append(float(row[2]))
            except ValueError:
                raise _parse_error(path, line_no, f"malformed numeric field in {row}")
    return np.array(iters, dtype=np.int64), np.array(f_g), np.array(f_d)


def write_diversity_series(path, iterations: np.ndarray,
                           values: np.ndarray) -> None:
    with _open_writer(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(DIVERSITY_HEADER)
        for t, v in zip(iterations, values):
            writer.writerow([int(t), fmt(v)])


def read_diversity_series(path) -> tuple[np.ndarray, np.ndarray]:
    iters, values = [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != DIVERSITY_HEADER:
            raise _parse_error(path, 1, f"expected header {DIVERSITY_HEADER}, got {header}")
        for line_no, row in enumerate(reader, start=2):
            if len(row) != 2:
                raise _parse_error(path, line_no, f"expected 2 fields, got {len(row)}")
            try:
                iters.append(int(row[0]))
                values.append(float(row[1]))
            except ValueError:
                raise _parse_error(path, line_no, f"malformed numeric field in {row}")
    return np.array(iters, dtype=np.int64), np.array(values)


def write_destruction_surface(path, curves: list[tuple[int, DestructionCurve]]) -> None:
    """Emit (window, threshold, component count) rows for a set of curves."""
    with _open_writer(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(DESTRUCTION_HEADER)
        for t_w, curve in curves:
            for thr, count in zip(curve.thresholds, curve.components):
                writer.writerow([int(t_w), fmt(thr), int(count)])


def write_summary(path, rows: list[SummaryRow]) -> None:
    with _open_writer(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(SUMMARY_HEADER)
        for r in rows:
            writer.writerow([
                r.function_id.value,
                r.topology_kind.value,
                r.k,
                r.repetitions,
                fmt(r.mean_id),
                fmt(r.id_ci_low),
                fmt(r.id_ci_high),
                fmt(r.mean_final_fitness),
                fmt(r.mean_fdelta),
                fmt(r.converged_fraction),
            ])


def read_summary(path) -> list[SummaryRow]:
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != SUMMARY_HEADER:
            raise _parse_error(path, 1, f"expected header {SUMMARY_HEADER}, got {header}")
        for line_no, row in enumerate(reader, start=2):
            if len(row) != len(SUMMARY_HEADER):
                raise _parse_error(
                    path, line_no,
                    f"expected {len(SUMMARY_HEADER)} fields, got {len(row)}",
                )
            try:
                rows.append(SummaryRow(
                    function_id=FunctionId(row[0]),
                    topology_kind=TopologyKind(row[1]),
                    k=int(row[2]),
                    repetitions=int(row[3]),
                    mean_id=float(row[4]),
                    id_ci_low=float(row[5]),
                    id_ci_high=float(row[6]),
                    mean_final_fitness=float(row[7]),
                    mean_fdelta=float(row[8]),
                    converged_fraction=float(row[9]),
                ))
            except ValueError:
                raise _parse_error(path, line_no, f"malformed field in {row}")
    return rows


def find_log_files(root) -> list[Path]:
    """All CSV files under root whose header marks them as selection logs."""
    root = Path(root)
    found = []
    for path in sorted(root.rglob("*.csv")):
        try:
            with open(path, newline="") as fh:
                header = next(csv.reader(fh), None)
        except OSError:
            continue
        if header == LOG_HEADER:
            found.append(path)
    return found
