"""CSV readers and writers for logs, traces, metrics, and summaries.

Every float is written with repr(), the shortest decimal string that
round-trips to the same binary value, so repeated runs with the same seed
diff byte-for-byte and write-then-read returns identical in-memory data.
Iterations are 1-based in every file; particle indices are 0-based.
"""

from __future__ import annotations

import csv
from array import array
from collections.abc import Iterator
from io import BytesIO
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


def _write_rows(path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_interaction_log(path, log: InteractionLog) -> None:
    """One row per (iteration, particle) selection event, iteration-major.

    The bytes are those of csv.writer (comma-separated, CRLF line ends); each
    iteration's rows are joined and written at once.
    """
    with open(path, "w", newline="") as fh:
        fh.write(",".join(LOG_HEADER) + "\r\n")
        for t, row in enumerate(log.choices.tolist(), start=1):
            fh.write("".join([f"{t},{i},{b}\r\n" for i, b in enumerate(row)]))


def _parse_error(path, line_no: int, detail: str) -> InputError:
    return InputError(f"{path}:{line_no}: {detail}")


def _not_text(path, exc: UnicodeDecodeError) -> InputError:
    return InputError(f"{path}: not UTF-8 text ({exc.reason})")


def _rows(path, header: list[str], width: int) -> Iterator[tuple[int, list[str]]]:
    """Yield (line number, fields) for each record after a checked header.

    Line numbers count csv records, the header being line 1.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            got = next(reader, None)
            if got != header:
                raise _parse_error(path, 1, f"expected header {header}, got {got}")
            for line_no, row in enumerate(reader, start=2):
                if len(row) != width:
                    raise _parse_error(path, line_no,
                                       f"expected {width} fields, got {len(row)}")
                yield line_no, row
        except UnicodeDecodeError as exc:
            raise _not_text(path, exc) from None


_INT64_MAX = np.iinfo(np.int64).max
# Every digit as "0": a run of 19 marks a field that may not fit int64.
_DIGITS_AS_ZERO = bytes.maketrans(b"123456789", b"000000000")


def _loadtxt_events(body: str) -> np.ndarray | None:
    """The log body as (rows, 3) int64 events, or None to leave it to the scan.

    numpy takes only what the writer emits: digits, commas and line ends,
    no field longer than 18 digits, and one row per line, so no blank line
    was skipped. Such fields parse alike under int() and every numpy
    release, which need not hold for any other byte. An iteration below 1
    goes to the scan, whose message quotes the fields as written. Bytes
    cost a quarter of the memory of a StringIO.
    """
    data = body.encode()
    if (not data.strip() or data.translate(None, b"0123456789,\r\n")
            or b"0" * 19 in data.translate(_DIGITS_AS_ZERO)):
        return None
    lines = (data.count(b"\n") + data.count(b"\r") - data.count(b"\r\n")
             + (not data.endswith((b"\n", b"\r"))))
    try:
        events = np.loadtxt(BytesIO(data), delimiter=",", dtype=np.int64,
                            comments=None, ndmin=2)
    except ValueError:
        return None
    if events.shape != (lines, 3) or (events[:, 0] < 1).any():
        return None
    return events


def _scan_events(path) -> tuple[np.ndarray, dict[int, tuple[int, int, int]]]:
    """Parse row by row, raising at the first format or range error.

    A value beyond int64 is stored as the int64 maximum; the returned dict
    maps each such row to its values as written, and the event checks
    report that row as out of range.
    """
    events = array("q")
    oversized = {}
    for line_no, row in _rows(path, LOG_HEADER, 3):
        try:
            t, i, b = (int(v) for v in row)
        except ValueError:
            raise _parse_error(path, line_no, f"non-integer field in {row}")
        if t < 1 or i < 0 or b < 0:
            raise _parse_error(path, line_no, f"out-of-range values {row}")
        if max(t, i, b) > _INT64_MAX:
            oversized[line_no - 2] = (t, i, b)
            t, i, b = (min(v, _INT64_MAX) for v in (t, i, b))
        events.extend((t, i, b))
    return np.frombuffer(events, dtype=np.int64).reshape(-1, 3), oversized


def _check_events(path, events: np.ndarray,
                  oversized: dict[int, tuple[int, int, int]]) -> np.ndarray:
    """The (T, n) choices of parsed events; row k is line k + 2.

    Raises at the first line, in file order, whose neighbor is out of range
    or the particle itself, or whose (iteration, particle) pair came
    before; failing that, at the first missing pair in iteration-major
    order. A stable sort by (iteration, particle) finds repeats and gaps
    in memory bounded by the number of rows, whatever the values.
    """
    rows = len(events)
    if not rows:
        raise _parse_error(path, 2, "log contains no selection events")
    t, i, b = events.T
    n = int(i.max()) + 1
    order = np.lexsort((i, t))
    t_sorted, i_sorted = t[order], i[order]
    repeat = np.zeros(rows, dtype=bool)
    repeat[order[1:]] = (t_sorted[1:] == t_sorted[:-1]) & (i_sorted[1:] == i_sorted[:-1])
    out_of_range = b >= n
    out_of_range[list(oversized)] = True
    bad = np.flatnonzero(out_of_range | (b == i) | repeat)
    if len(bad):
        k = int(bad[0])
        event = oversized.get(k) or tuple(int(v) for v in events[k])
        if out_of_range[k]:
            detail = f"particle index out of range in {event}"
        elif b[k] == i[k]:
            detail = f"particle {event[1]} selects itself at iteration {event[0]}"
        else:
            detail = f"duplicate event for iteration {event[0]}, particle {event[1]}"
        raise _parse_error(path, k + 2, detail)
    total = int(t.max())
    if total * n != rows:
        # Pairs are now distinct, so the k-th sorted pair is the k-th of the
        # grid until the first gap. Where n > rows, every grid index below
        # rows lies in iteration 1, and dividing by rows keeps it in int64.
        grid_t, grid_i = np.divmod(np.arange(rows), min(n, rows))
        gaps = np.flatnonzero((t_sorted != grid_t + 1) | (i_sorted != grid_i))
        k = int(gaps[0]) if len(gaps) else rows
        raise InputError(
            f"{path}: missing event for iteration {k // n + 1}, particle {k % n}"
        )
    choices = np.empty((total, n), dtype=np.int64)
    choices[t - 1, i] = b
    return choices


def read_interaction_log(path) -> InteractionLog:
    """Parse a selection-event log back into memory.

    The file must contain every (iteration, particle) pair exactly once
    for iterations 1..T and particles 0..n-1, and no particle may select
    itself: its own personal best never competes for best neighbor.
    Format and range errors anywhere outrank these checks.

    numpy parses the body in one pass; a body it cannot vouch for (see
    _loadtxt_events), including every malformed one, goes to the
    row-by-row scan, which names the first bad line.
    """
    with open(path, newline="") as fh:
        try:
            header = next(csv.reader(fh), None)
            body = fh.read() if header == LOG_HEADER else ""
        except UnicodeDecodeError as exc:
            raise _not_text(path, exc) from None
    events = _loadtxt_events(body)
    del body  # as large as the file; the checks below peak without it
    oversized = {}
    if events is None:
        events, oversized = _scan_events(path)
    return InteractionLog(_check_events(path, events, oversized))


def write_run_trace(path, trace: RunTrace) -> None:
    _write_rows(path, TRACE_HEADER, (
        [t, fmt(f_g), fmt(f_d)]
        for t, (f_g, f_d) in enumerate(
            zip(trace.global_best_fitness, trace.fitness_improvement), start=1)
    ))


def read_run_trace(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Returns (iterations, global best fitness, fitness improvement)."""
    iters, f_g, f_d = [], [], []
    for line_no, row in _rows(path, TRACE_HEADER, 3):
        try:
            iters.append(int(row[0]))
            f_g.append(float(row[1]))
            f_d.append(float(row[2]))
        except ValueError:
            raise _parse_error(path, line_no, f"malformed numeric field in {row}")
    return np.array(iters, dtype=np.int64), np.array(f_g), np.array(f_d)


def write_diversity_series(path, iterations: np.ndarray,
                           values: np.ndarray) -> None:
    _write_rows(path, DIVERSITY_HEADER,
                ([int(t), fmt(v)] for t, v in zip(iterations, values)))


def read_diversity_series(path) -> tuple[np.ndarray, np.ndarray]:
    iters, values = [], []
    for line_no, row in _rows(path, DIVERSITY_HEADER, 2):
        try:
            iters.append(int(row[0]))
            values.append(float(row[1]))
        except ValueError:
            raise _parse_error(path, line_no, f"malformed numeric field in {row}")
    return np.array(iters, dtype=np.int64), np.array(values)


def write_destruction_surface(path, curves: list[tuple[int, DestructionCurve]]) -> None:
    """Emit (window, threshold, component count) rows for a set of curves."""
    _write_rows(path, DESTRUCTION_HEADER, (
        [int(t_w), fmt(thr), int(count)]
        for t_w, curve in curves
        for thr, count in zip(curve.thresholds, curve.components)
    ))


def write_summary(path, rows: list[SummaryRow]) -> None:
    _write_rows(path, SUMMARY_HEADER, (
        [r.function_id.value, r.topology_kind.value, r.k, r.repetitions,
         *map(fmt, (r.mean_id, r.id_ci_low, r.id_ci_high, r.mean_final_fitness,
                    r.mean_fdelta, r.converged_fraction))]
        for r in rows
    ))


def read_summary(path) -> list[SummaryRow]:
    rows = []
    for line_no, row in _rows(path, SUMMARY_HEADER, len(SUMMARY_HEADER)):
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
    """All CSV files under root whose header marks them as selection logs.

    A header that is not UTF-8 marks no log; such a file is skipped, as is
    one that cannot be opened. A log with a bad byte past its header is
    found, and its reader names the file.
    """
    root = Path(root)
    found = []
    for path in sorted(root.rglob("*.csv")):
        try:
            with open(path, newline="", errors="replace") as fh:
                header = next(csv.reader(fh), None)
        except OSError:
            continue
        if header == LOG_HEADER:
            found.append(path)
    return found
