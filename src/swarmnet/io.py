"""CSV readers and writers for logs, traces, metrics, and summaries.

Every float is written with repr(), the shortest decimal string that
round-trips to the same binary value, so repeated runs with the same seed
diff byte-for-byte and write-then-read returns identical in-memory data.
Iterations are 1-based in every file; particle indices are 0-based.
Every file is written through write_all_replacing, whole or not at all.

A selection log has one grammar, the one write_interaction_log writes: the
header line iteration,particle,best_neighbor, then lines of three runs of
1-18 ASCII digits joined by commas, every line, the last one included,
ending in \r\n. Its rows come in the writer's order too, iteration-major:
row k holds iteration k // n + 1 and particle k % n, where n is one more
than the largest particle index. The body is parsed column by column with
numpy, in chunks of whole lines, and checked against that order in one
pass. Any other file is an InputError that names its first bad line.
"""

from __future__ import annotations

import csv
import os
import re
from collections.abc import Iterable
from contextlib import suppress
from itertools import takewhile
from pathlib import Path

import numpy as np

from .benchmarks import FunctionId
from .errors import InputError
from .experiment import SummaryRow
from .interaction import DestructionCurve
from .pso import InteractionLog, RunTrace
from .topology import TopologyKind

LOG_HEADER = ["iteration", "particle", "best_neighbor"]
_LOG_HEAD = ",".join(LOG_HEADER).encode()
# What a file is called until it is whole; see write_all_replacing.
PART_SUFFIX = ".part"
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
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


class _LineEnds(dict):
    """"{b}\r\n" for each value b, formatted the first time b is asked for."""

    def __missing__(self, b):
        end = self[b] = f"{b}\r\n"
        return end


def write_interaction_log(path, log: InteractionLog) -> None:
    """One row per (iteration, particle) selection event, iteration-major.

    The bytes are those of csv.writer (comma-separated, CRLF line ends). The
    "{i}," particle fields and each neighbor's "{b}\r\n" are formatted once
    per call; an iteration's rows are joined with its "{t}," and written at
    once.
    """
    heads = [f"{i}," for i in range(log.choices.shape[1])]
    ends = _LineEnds()
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(LOG_HEADER) + "\r\n")
        for t, row in enumerate(log.choices.tolist(), start=1):
            lead = f"{t},"
            fh.write(lead + lead.join([h + ends[b] for h, b in zip(heads, row)]))


def write_all_replacing(files: Iterable[tuple]) -> None:
    """write(temporary path, *args) for each (path, write, *args) of files,
    an iterable read as it comes, in its path's missing parent directories,
    made just before; then, once all are written, each file renamed to its
    path.

    The temporary names end in PART_SUFFIX, not .csv, so a write cut short
    leaves no file that find_log_files or a reader of path would take. A
    write, or a read of files, that raises renames no file of the set: its
    temporary files are deleted, then the directories made here that are
    left empty, deepest first, each step tried whatever the others do, and
    the exception goes on.
    """
    made, written = [], []  # directories made here, parents first; (path, temporary path)
    try:
        for path, write, *args in files:
            missing = takewhile(lambda d: not d.is_dir(), path.parents)
            for new in reversed(list(missing)):
                with suppress(FileExistsError):  # made meanwhile by another process
                    new.mkdir()
                    made.append(new)
            written.append((path, path.with_name(path.name + PART_SUFFIX)))
            write(written[-1][1], *args)
        for path, part in written:
            os.replace(part, path)
    except BaseException:
        for _, part in written:
            with suppress(OSError):  # not written, or under a path that is no directory
                part.unlink()
        for directory in reversed(made):
            with suppress(OSError):  # one not empty stays
                directory.rmdir()
        raise


def _parse_error(path, line_no: int, detail: str) -> InputError:
    return InputError(f"{path}:{line_no}: {detail}")


def _not_text(path, exc: UnicodeDecodeError) -> InputError:
    return InputError(f"{path}: not UTF-8 text ({exc.reason})")


def _open(path, mode="r"):
    """open(path, mode), as UTF-8 with newline="" in text; a file that
    cannot be opened is an InputError."""
    text = "b" not in mode
    try:
        return open(path, mode, encoding="utf-8" if text else None,
                    newline="" if text else None)
    except OSError as exc:
        raise InputError(f"{path}: cannot read ({exc.strerror})") from None


def _int64(field: str) -> int:
    """int(field), which must fit int64."""
    if -(1 << 63) <= (value := int(field)) < 1 << 63:
        return value
    raise ValueError(f"{field} is outside int64")


def _columns(path, header: list[str], parsers) -> list[list]:
    """The columns of a table after a checked header, each parsed whole by
    its parser in parsers. Only if a row has another field count, or a
    parser refuses a field, are the rows walked, to name the first bad line.
    Line numbers count lines, the header being line 1. A last line with no
    line end, as in a file cut short, is an error at that line.
    """
    with _open(path) as fh:
        try:
            lines = fh.readlines()
        except UnicodeDecodeError as exc:
            raise _not_text(path, exc) from None
    if lines and not lines[-1].endswith(("\n", "\r")):
        raise _parse_error(path, len(lines), "line does not end in a line end")
    reader = csv.reader(lines)
    got = next(reader, None)
    if got != header:
        raise _parse_error(path, 1, f"expected header {header}, got {got}")
    rows, width = list(reader), len(header)
    with suppress(ValueError):
        if all(len(row) == width for row in rows):
            columns = list(zip(*rows)) or [()] * width
            return [list(map(parse, column)) for parse, column in zip(parsers, columns)]
    for line_no, row in enumerate(rows, start=2):
        if len(row) != width:
            raise _parse_error(path, line_no, f"expected {width} fields, got {len(row)}")
        try:
            for parse, field in zip(parsers, row):
                parse(field)
        except ValueError:
            raise _parse_error(path, line_no, f"malformed field in {row}") from None
    raise AssertionError(f"{path}: a column refused a field that its row accepts")


# Body bytes per parse chunk, cut at a line end. A chunk's index arrays
# take about ten times its bytes; 128 KiB keeps them small next to the
# events and long enough that numpy's per-call cost stays small.
_CHUNK = 1 << 17


def _parse_events(data: bytes) -> np.ndarray | None:
    """The log body as (rows, 3) int64 events, or None if it breaks the grammar.

    Every line must hold three runs of 1-18 ASCII digits joined by commas
    and end in \r\n, and no iteration may be 0. Such a field always fits
    int64 and means what int() reads in it.

    With its digits deleted the body must read ",,\r\n" once per line. It is
    then parsed in chunks of whole lines, so memory beyond the events stays
    bounded: the separators' offsets bound every field, which must hold
    1-18 digits, and the fields' k-th last digits come in one gather per k.
    """
    if data and not data.endswith(b"\r\n"):
        return None
    seps = data.translate(None, b"0123456789")
    lines = len(seps) // 4
    if seps != b",,\r\n" * lines:
        return None
    del seps
    events = np.empty((lines, 3), dtype=np.int64)
    fields = events.reshape(-1)
    body = np.frombuffer(data, dtype=np.uint8)
    lo = done = 0
    while lo < len(data):
        hi = data.find(b"\r\n", lo + _CHUNK - 1)
        hi = len(data) if hi < 0 else hi + 2
        chunk = body[lo:hi]
        # where each field ends: at a comma or at its line end's \r, which
        # the \n must follow with no digit between
        ends = chunk < ord("0")
        ends &= chunk != ord("\n")
        ends = np.flatnonzero(ends)
        if (chunk.take(ends[2::3] + 1) != ord("\n")).any():
            return None
        # one more than each field's digits: the distance from the previous
        # end, less the \n before a line's first field
        gaps = np.empty_like(ends)
        gaps[0] = ends[0] + 1
        np.subtract(ends[1:], ends[:-1], out=gaps[1:])
        gaps[3::3] -= 1
        if gaps.min() < 2 or gaps.max() > 19:
            return None
        # Right to left, the k-th last digit of every field at once. Past a
        # field's first digit the position stops at the separator before
        # it, which reads as digit 0. Each product is taken in int64, where
        # no uint8 digit times 10**k can wrap.
        digits = chunk - np.uint8(ord("0"))
        digits *= chunk >= ord("0")
        stop = ends - gaps
        pos = ends - 1
        out = fields[done:done + len(ends)]
        out[:] = digits.take(pos)
        for power in 10 ** np.arange(1, gaps.max() - 1, dtype=np.int64):
            pos -= 1
            np.maximum(pos, stop, out=pos)
            out += np.multiply(digits.take(pos), power, dtype=np.int64)
        done += len(ends)
        lo = hi
    if (events[:, 0] < 1).any():
        return None
    return events


def _first_bad_line(path, body: bytes) -> InputError:
    """The error at the first line of a body _parse_events refused.

    Within a line, a field count other than 3 comes first, then a field
    that is not 1-18 ASCII digits, then iteration 0, then, on a last line
    with no line end, that line end.
    """
    *lines, last = body.split(b"\r\n")
    if last:  # a last line with no line end
        lines.append(last)
    for line_no, line in enumerate(lines, start=2):
        fields = line.decode(errors="replace").split(",")
        if len(fields) != 3:
            return _parse_error(path, line_no, f"expected 3 fields, got {len(fields)}")
        if not all(re.fullmatch("[0-9]{1,18}", v) for v in fields):
            return _parse_error(path, line_no,
                                f"expected 1-18 digits per field, got {fields}")
        if int(fields[0]) == 0:
            return _parse_error(path, line_no, f"out-of-range values {fields}")
    if last:
        return _parse_error(path, len(lines) + 1, "line does not end in \\r\\n")
    raise AssertionError(f"{path}: the column parser refused a body in the log grammar")


def _check_events(path, events: np.ndarray) -> np.ndarray:
    """The (T, n) choices of parsed events; row k is line k + 2.

    Raises at the first row, in file order, whose neighbor is out of range
    or the particle itself, or that breaks the writer's order (see the
    module docstring), in that priority within a row; failing that, at the
    first pair missing from a cut last iteration. Only the rows // n full
    iterations are compared with the grid, so no array is sized by a value.
    """
    rows = len(events)
    if not rows:
        raise _parse_error(path, 2, "log contains no selection events")
    t, i, b = events.T
    n = int(i.max()) + 1
    full = rows // n
    head = full * n
    bad = b >= n
    bad |= b == i
    if full:  # else n may exceed rows, up to 10**18: build no np.arange(n)
        grid = bad[:head].reshape(full, n)
        grid |= t[:head].reshape(full, n) != np.arange(1, full + 1)[:, None]
        grid |= i[:head].reshape(full, n) != np.arange(n)
    bad[head:] |= (t[head:] != full + 1) | (i[head:] != np.arange(rows - head))
    k = int(bad.argmax())
    if bad[k]:
        event = tuple(int(v) for v in events[k])
        if event[2] >= n:
            detail = f"particle index out of range in {event}"
        elif event[2] == event[1]:
            detail = f"particle {event[1]} selects itself at iteration {event[0]}"
        else:
            detail = f"expected iteration {k // n + 1}, particle {k % n}, got {event}"
        raise _parse_error(path, k + 2, detail)
    if head != rows:
        raise InputError(
            f"{path}: missing event for iteration {full + 1}, particle {rows - head}"
        )
    return np.ascontiguousarray(b).reshape(full, n)


def _log_body(path) -> bytes:
    """The bytes after a selection log's header line.

    Raises at line 1, quoting what the file opens with, unless that is the
    header line and \r\n.
    """
    head = _LOG_HEAD + b"\r\n"
    with _open(path, "rb") as fh:
        start = fh.read(len(head))
        if start != head:
            raise _parse_error(path, 1, f"expected header line {head!r}, got {start!r}")
        return fh.read()


def read_interaction_log(path) -> InteractionLog:
    """Parse a selection-event log back into memory.

    The file must be in the writer's grammar (see the module docstring);
    otherwise the error names its first line that is not, a byte that is
    not UTF-8 included. Its rows must then hold every (iteration,
    particle) pair for iterations 1..T and particles 0..n-1 in the writer's
    order, and no particle may select itself: its own personal best never
    competes for best neighbor. Format errors anywhere outrank these checks.
    """
    body = _log_body(path)
    events = _parse_events(body)
    if events is None:
        raise _first_bad_line(path, body)
    return InteractionLog(_check_events(path, events))


def write_run_trace(path, trace: RunTrace) -> None:
    _write_rows(path, TRACE_HEADER, (
        [t, fmt(f_g), fmt(f_d)]
        for t, (f_g, f_d) in enumerate(
            zip(trace.global_best_fitness, trace.fitness_improvement), start=1)
    ))


def read_run_trace(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Returns (iterations, global best fitness, fitness improvement)."""
    iters, f_g, f_d = _columns(path, TRACE_HEADER, (_int64, float, float))
    return np.array(iters, dtype=np.int64), np.array(f_g), np.array(f_d)


def write_diversity_series(path, iterations: np.ndarray,
                           values: np.ndarray) -> None:
    _write_rows(path, DIVERSITY_HEADER,
                ([int(t), fmt(v)] for t, v in zip(iterations, values)))


def read_diversity_series(path) -> tuple[np.ndarray, np.ndarray]:
    iters, values = _columns(path, DIVERSITY_HEADER, (_int64, float))
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
    parsers = (FunctionId, TopologyKind, _int64, _int64, *[float] * 6)
    return [SummaryRow(*row) for row in zip(*_columns(path, SUMMARY_HEADER, parsers))]


def find_log_files(root) -> list[Path]:
    """All CSV files under root that open with the selection-log header's text.

    A file that cannot be opened is skipped. A log with another line end
    or a bad line past its header is found, and its reader names that line.
    """
    found = []
    for path in sorted(Path(root).rglob("*.csv")):
        try:
            with open(path, "rb") as fh:
                start = fh.read(len(_LOG_HEAD))
        except OSError:
            continue
        if start == _LOG_HEAD:
            found.append(path)
    return found
