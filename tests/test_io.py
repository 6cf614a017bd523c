"""Log reader and writer checks against the row-by-row reference reader.

`io.read_interaction_log` parses the writer's bytes column-wise, in chunks
of whole lines, and checks every event in bulk; `oracle.oracle_read_log`
checks one row at a time. Both take the writer's grammar and row order
only. On every file, and at every chunk size tried, both must give the
same choices or the same error text.
"""

import csv
import os
import re
import signal
import tracemalloc
from io import StringIO
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import LogError, oracle_read_log
from swarmnet import io
from swarmnet.benchmarks import FunctionId, ObjectiveSpec
from swarmnet.errors import InputError
from swarmnet.experiment import ExperimentConfig, TopologySpec, run_cell
from swarmnet.pso import InteractionLog, PsoParams
from swarmnet.topology import TopologyKind

HEADER = "iteration,particle,best_neighbor"
ROWS = ["1,0,1", "1,1,2", "1,2,0", "2,0,2", "2,1,0", "2,2,1"]
BIG = "99999999999999999999"


def _file(rows, eol="\r\n", final_eol=True):
    return HEADER + eol + eol.join(rows) + (eol if final_eol else "")


CORPUS = {
    "valid": _file(ROWS),
    "blank_line_in_middle": _file(ROWS[:3] + [""] + ROWS[3:]),
    "trailing_blank_line": _file(ROWS + [""]),
    "whitespace_line": _file(ROWS[:2] + ["   "] + ROWS[2:]),
    "no_final_eol": _file(ROWS, eol="\n", final_eol=False),
    "lf": _file(ROWS, eol="\n"),
    "crlf_no_final_eol": _file(ROWS, final_eol=False),
    "cr": _file(ROWS, eol="\r"),
    "mixed_eol": HEADER + "\r\n" + "\n".join(ROWS) + "\r\n",
    "digit_inside_line_end": _file(["1,0,1\r5\n1,1,2"] + ROWS[2:]),
    "digit_after_last_line_end": _file(ROWS) + "7",
    "space_in_field": _file(["1, 0,1 "] + ROWS[1:]),
    "tab_in_field": _file(["1,\t0,1"] + ROWS[1:]),
    "plus_zero": _file(["1,+0,1"] + ROWS[1:]),
    "leading_zero": _file(["01,0,001"] + ROWS[1:]),
    "minus_zero": _file(["1,-0,1"] + ROWS[1:]),
    "quoted_field": _file(['1,"0",1'] + ROWS[1:]),
    "quoted_newline": _file(['1,"0\r\n",1'] + ROWS[1:]),
    "underscore": _file(["1,0,1_0"] + ROWS[1:]),
    "underscore_in_range": _file(["1,0,0_1"] + ROWS[1:]),
    "float": _file(["1,0,1.0"] + ROWS[1:]),
    "exponent": _file(["1,0,1e0"] + ROWS[1:]),
    "fraction": _file(["1,0,1.5"] + ROWS[1:]),
    "hash_in_field": _file(["1,0,#1"] + ROWS[1:]),
    "hash_line": _file(ROWS[:3] + ["# comment"] + ROWS[3:]),
    "empty_field": _file(["1,0,"] + ROWS[1:]),
    "above_int64": _file(ROWS[:4] + [f"2,1,{BIG}"] + ROWS[5:]),
    "int64_max": _file(ROWS[:4] + ["2,1,9223372036854775807"] + ROWS[5:]),
    "just_above_int64": _file(ROWS[:4] + ["2,1,9223372036854775808"] + ROWS[5:]),
    "nineteen_digit_one": _file(["1,0," + "0" * 18 + "1"] + ROWS[1:]),
    "eighteen_digit_value": _file(["1,0," + "9" * 18] + ROWS[1:]),
    "above_int64_after_self": _file(["1,0,0"] + ROWS[1:4] + [f"2,1,{BIG}"] + ROWS[5:]),
    "arabic_digit": _file(["1,0,١"] + ROWS[1:]),
    "non_ascii_letter": _file(["1,0,Ǿ"] + ROWS[1:]),
    "file_separator": _file(["1,0,1\x1c"] + ROWS[1:]),
    "vertical_tab": _file(["1,0,1\x0b"] + ROWS[1:]),
    "two_fields": _file(ROWS[:2] + ["1,2"] + ROWS[3:]),
    "four_fields": _file(ROWS[:2] + ["1,2,0,0"] + ROWS[3:]),
    "trailing_comma": _file(ROWS[:2] + ["1,2,0,"] + ROWS[3:]),
    "two_fields_everywhere": _file([r.rsplit(",", 1)[0] for r in ROWS]),
    "t_zero": _file(ROWS + ["0,0,1"]),
    "negative_particle": _file(ROWS[:5] + ["2,-1,1"]),
    "negative_neighbor": _file(ROWS[:5] + ["2,2,-1"]),
    "negative_after_duplicate": _file(ROWS + [ROWS[0], "3,-1,0"]),
    "format_error_after_self_selection": _file(["1,0,0"] + ROWS[1:] + ["2,x,1"]),
    "format_error_after_missing": _file(ROWS[:4] + ["3,0,zero"]),
    "self_selection": _file(ROWS[:4] + ["2,1,1"] + ROWS[5:]),
    "index_out_of_range": _file(ROWS[:4] + ["2,1,3"] + ROWS[5:]),
    "range_before_self": _file(ROWS[:1] + ["1,1,7", "1,2,2"] + ROWS[3:]),
    "self_before_range": _file(ROWS[:1] + ["1,1,1", "1,2,7"] + ROWS[3:]),
    "duplicate": _file(ROWS[:3] + ["1,1,0"] + ROWS[3:]),
    "duplicate_out_of_order": _file(ROWS[3:] + ROWS[:3] + ["2,0,1"]),
    "duplicate_then_self": _file(ROWS + ["2,2,0", "1,1,1"]),
    "missing_event": _file(ROWS[:4] + ROWS[5:]),
    "cut_in_last_iteration": _file(ROWS[:5]),
    "missing_first_iteration": _file(["2,0,1", "2,1,0"]),
    "missing_particle_column": _file([r for r in ROWS if r.split(",")[1] != "1"]),
    "rows_out_of_order": _file(ROWS[::-1]),
    "rows_interleaved": _file(ROWS[1::2] + ROWS[::2]),
    "single_event": _file(["1,0,0"]),
    "swapped_particles": _file(["1,1,0", "1,0,1"]),
    "empty_file": "",
    "header_only": HEADER + "\r\n",
    "header_only_no_eol": HEADER,
    "header_then_blank": HEADER + "\r\n\r\n",
    "wrong_header": "a,b,c\r\n" + "\r\n".join(ROWS) + "\r\n",
    "quoted_header": '"iteration",particle,best_neighbor\r\n' + "\r\n".join(ROWS) + "\r\n",
    "blank_before_header": "\r\n" + _file(ROWS),
}


def _write(tmp_path, name, text):
    path = tmp_path / f"{name}.csv"
    with open(path, "w", newline="") as fh:
        fh.write(text)
    return path


def _outcome(path):
    """The choices as lists, or the InputError text."""
    try:
        return io.read_interaction_log(path).choices.tolist()
    except InputError as exc:
        return str(exc)


def _oracle_outcome(path):
    try:
        return oracle_read_log(path)
    except LogError as exc:
        return str(exc)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_reader_matches_oracle_on_corpus(tmp_path, name):
    path = _write(tmp_path, name, CORPUS[name])
    assert _outcome(path) == _oracle_outcome(path)


_LOADTXT = np.loadtxt


def _loadtxt_via_float(fname, **kwargs):
    """np.loadtxt as numpy before 2.4 read int64: a file with a field the
    integer parser refuses is read as floats and truncated."""
    try:
        return _LOADTXT(fname, **kwargs)
    except ValueError:
        fname.seek(0)
        with np.errstate(invalid="ignore"):
            return _LOADTXT(fname, **{**kwargs, "dtype": np.float64}).astype(np.int64)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_reader_matches_oracle_when_numpy_parses_ints_via_float(tmp_path, monkeypatch, name):
    # The reader parses its own digits and calls no np.loadtxt; should one
    # come back, older numpy, which turns "1.5" into 1 and 10**20 into
    # garbage, must still change no outcome.
    monkeypatch.setattr(io.np, "loadtxt", _loadtxt_via_float)
    path = _write(tmp_path, name, CORPUS[name])
    assert _outcome(path) == _oracle_outcome(path)


# Chunks this small cut the body at nearly every line end, so every field
# position within a chunk is tried.
SMALL_CHUNKS = range(1, 17)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_reader_matches_oracle_on_corpus_in_small_chunks(tmp_path, monkeypatch, name):
    path = _write(tmp_path, name, CORPUS[name])
    expected = _oracle_outcome(path)
    for chunk in SMALL_CHUNKS:
        monkeypatch.setattr(io, "_CHUNK", chunk)
        assert _outcome(path) == expected, chunk


def _writer_log(tmp_path, n, total, seed):
    """A self-free (total, n) choices array and the writer's log of it."""
    rng = np.random.default_rng(seed)
    choices = rng.integers(0, n - 1, size=(total, n))
    choices += choices >= np.arange(n)
    path = tmp_path / "log.csv"
    io.write_interaction_log(path, InteractionLog(choices))
    return choices, path


def _refuse(*args, **kwargs):
    raise AssertionError("the writer's bytes must take the column-wise parser")


def test_writer_output_takes_the_column_parser(tmp_path, monkeypatch):
    # 100 x 200 rows span two default chunks.
    choices, path = _writer_log(tmp_path, n=100, total=200, seed=3)
    monkeypatch.setattr(io, "_first_bad_line", _refuse)
    read = io.read_interaction_log(path).choices
    assert np.array_equal(read, choices)
    # a (T, n) array of its own, not a view that keeps the (rows, 3)
    # events alive
    assert read.flags.c_contiguous
    assert read.base is None or read.base.nbytes == read.nbytes


def test_writer_bytes_take_parse_events():
    body = b"1,0,1\r\n1,1," + b"9" * 18 + b"\r\n"
    assert io._parse_events(body).tolist() == [[1, 0, 1], [1, 1, 10**18 - 1]]
    assert io._parse_events(body.replace(b"9" * 18, b"0" * 18 + b"1")) is None
    # another line end, none on the last line, a digit inside one or after
    # the last one
    for other in (body.replace(b"\r\n", b"\n"), body[:-2], body[:-1],
                  body.replace(b"\r\n", b"\r5\n", 1), body + b"5"):
        assert io._parse_events(other) is None, other


def test_parse_events_sums_digits_in_int64():
    # Every digit position times its power of ten must not wrap in a small
    # integer type, as uint8 digits times 10**k would.
    fields = ["300", "999", "399", "9" * 18, "4000", "65536", "70000000000",
              "123456789012345678", "1", "256", "1000", "65535"]
    body = "".join(",".join(fields[k:k + 3]) + "\r\n" for k in range(0, len(fields), 3))
    events = io._parse_events(body.encode())
    assert events.dtype == np.int64
    assert events.reshape(-1).tolist() == [int(v) for v in fields]


@pytest.mark.parametrize("rows,line", [
    ({4: "2,1,1"}, 6),
    ({1: "1,1,7"}, 3),
    ({4: "2,1,1", 2: "1,2,3"}, 4),
    ({5: "2,2,2", 0: "1,0,9"}, 2),
])
def test_bad_neighbor_in_writer_order_matches_oracle(tmp_path, rows, line):
    # A bad neighbor in rows in the writer's order is named at its line,
    # the first in file order.
    text = _file([rows.get(k, row) for k, row in enumerate(ROWS)])
    path = _write(tmp_path, "ordered", text)
    outcome = _outcome(path)
    assert outcome == _oracle_outcome(path)
    assert outcome.startswith(f"{path}:{line}: ")


# tracemalloc peak, in bytes, of a first read of _writer_log(n=100,
# total=2000, seed=5) by the np.loadtxt reader this parser replaced
# (numpy 2.4.6, Python 3.11). The column-wise parser must not exceed it.
LOADTXT_READER_PEAK = 13_206_114


def test_reader_memory_stays_below_the_loadtxt_reader(tmp_path):
    choices, path = _writer_log(tmp_path, n=100, total=2000, seed=5)
    tracemalloc.start()
    try:
        log = io.read_interaction_log(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(log.choices, choices)
    assert peak <= LOADTXT_READER_PEAK


def test_empty_file_names_missing_header(tmp_path):
    path = _write(tmp_path, "empty", "")
    with pytest.raises(InputError, match=r"empty\.csv:1: .*got b''$"):
        io.read_interaction_log(path)


def test_log_that_cannot_be_opened_is_an_input_error(tmp_path):
    missing = tmp_path / "missing.csv"
    folder = tmp_path / "log.csv"
    folder.mkdir()
    for path, reason in ((missing, "No such file or directory"),
                         (folder, "Is a directory")):
        with pytest.raises(InputError) as exc:
            io.read_interaction_log(path)
        assert str(exc.value) == f"{path}: cannot read ({reason})"


def test_header_error_quotes_the_bytes_read(tmp_path):
    path = _write(tmp_path, "lf", _file(ROWS, eol="\n"))
    expected = (f"{path}:1: expected header line "
                f"b'iteration,particle,best_neighbor\\r\\n', "
                f"got b'iteration,particle,best_neighbor\\n1'")
    assert _outcome(path) == expected == _oracle_outcome(path)


def test_cut_log_is_refused_at_its_last_line(tmp_path):
    # Cut inside its last field, the writer's last row 4,12,11 would read
    # as neighbor 1; cut just before its last line end, as the whole log.
    path = tmp_path / "log.csv"
    choices = np.tile((np.arange(13) + 12) % 13, (4, 1))
    io.write_interaction_log(path, InteractionLog(choices))
    data = path.read_bytes()
    assert data.endswith(b"\r\n4,12,11\r\n")
    for cut in (data[:-3], data[:-2]):
        path.write_bytes(cut)
        expected = f"{path}:53: line does not end in \\r\\n"
        assert _outcome(path) == expected == _oracle_outcome(path)


def test_value_above_int64_in_b_keeps_its_digits(tmp_path):
    # More than 18 digits break the grammar; the message quotes the line.
    path = _write(tmp_path, "big", CORPUS["above_int64"])
    expected = f"big.csv:6: expected 1-18 digits per field, got ['2', '1', '{BIG}']"
    with pytest.raises(InputError, match=re.escape(expected) + "$"):
        io.read_interaction_log(path)


@pytest.mark.parametrize("row", [f"{BIG},0,1", f"1,{BIG},0"])
def test_value_above_int64_in_t_or_i_is_an_input_error(tmp_path, row):
    # Were such a value parsed, it would size the choices array; the
    # reader names its line as a format error instead.
    path = _write(tmp_path, "big", _file(ROWS + [row]))
    with pytest.raises(InputError, match=r"big\.csv:8: expected 1-18 digits per field"):
        io.read_interaction_log(path)


ORDER_ERRORS = {
    "swapped_particles": ":2: expected iteration 1, particle 0, got (1, 1, 0)",
    "duplicate": ":5: expected iteration 2, particle 0, got (1, 1, 0)",
    "missing_first_iteration": ":2: expected iteration 1, particle 0, got (2, 0, 1)",
    "cut_in_last_iteration": ": missing event for iteration 2, particle 2",
}


@pytest.mark.parametrize("name", sorted(ORDER_ERRORS))
def test_order_errors_name_the_expected_pair(tmp_path, name):
    path = _write(tmp_path, name, CORPUS[name])
    assert _outcome(path) == f"{path}{ORDER_ERRORS[name]}"


def test_far_iteration_is_missing_events_not_an_allocation(tmp_path):
    # The far iteration stands where iteration 3 must start; no array is
    # sized by it.
    path = _write(tmp_path, "far", _file(ROWS + ["1000000000000,0,1"]))
    expected = "far.csv:8: expected iteration 3, particle 0, got (1000000000000, 0, 1)"
    with pytest.raises(InputError, match=re.escape(expected) + "$"):
        io.read_interaction_log(path)


def test_wide_particle_index_is_missing_events(tmp_path):
    # The widest index the grammar takes, 18 digits, sizes no array: with
    # fewer rows than particles, no iteration is full and only the rows
    # themselves are checked. One digit more is a format error at its line.
    wide = "9" * 18
    path = _write(tmp_path, "wide", _file(["1,0,1", f"1,{wide},0"]))
    expected = f"wide.csv:3: expected iteration 1, particle 1, got (1, {wide}, 0)"
    with pytest.raises(InputError, match=re.escape(expected) + "$"):
        io.read_interaction_log(path)
    path = _write(tmp_path, "wide", _file(["1,0,1", "1,9223372036854775807,0"]))
    with pytest.raises(InputError, match=r"wide\.csv:3: expected 1-18 digits per field"):
        io.read_interaction_log(path)


@pytest.mark.parametrize("head_eol,body_eol", [
    ("\r\n", "\n"), ("\n", "\r\n"), ("\r", "\n"), ("\n", "\r"), ("\r\n", "\r"),
])
def test_body_line_ends_must_be_the_headers(tmp_path, head_eol, body_eol):
    # Only \r\n is read: another header line end is refused at line 1,
    # another body line end under a \r\n header at line 2.
    path = _write(tmp_path, "mixed", HEADER + head_eol + body_eol.join(ROWS) + body_eol)
    outcome = _outcome(path)
    assert outcome == _oracle_outcome(path)
    line = 2 if head_eol == "\r\n" else 1
    assert outcome.startswith(f"{path}:{line}: ")


# Field tokens for mutated logs: ones both readers take, and ones they refuse.
TOKENS = ["0", "1", "2", "3", "7", "-1", " 1", "1 ", "+1", "01", "-0", "1.0",
          "1_0", "", "#", '"1"', "١", "1\x1c", "x"]


@st.composite
def mutated_logs(draw):
    n = draw(st.integers(2, 4))
    total = draw(st.integers(1, 4))
    rows = [[str(t), str(i), str(draw(st.integers(0, n - 1)))]
            for t in range(1, total + 1) for i in range(n)]
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(
            ["shuffle", "drop", "repeat", "token", "big", "self", "blank", "width"]))
        k = draw(st.integers(0, len(rows) - 1)) if rows else 0
        if kind == "shuffle":
            rows = draw(st.permutations(rows))
        elif kind == "drop" and rows:
            rows = rows[:k] + rows[k + 1:]
        elif kind == "repeat" and rows:
            rows = rows + [list(rows[k])]
        elif kind == "token" and rows and len(rows[k]) == 3:
            rows[k] = list(rows[k])
            rows[k][draw(st.integers(0, 2))] = draw(st.sampled_from(TOKENS))
        elif kind == "big" and rows:
            rows[k] = rows[k][:2] + [BIG]
        elif kind == "self" and rows and len(rows[k]) >= 2:
            rows[k] = [rows[k][0], rows[k][1], rows[k][1]]
        elif kind == "blank":
            rows = rows[:k] + [[]] + rows[k:]
        elif kind == "width" and rows:
            rows[k] = rows[k][:2] if draw(st.booleans()) else rows[k] + ["0"]
    return _file([",".join(r) for r in rows], final_eol=draw(st.booleans()))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(text=mutated_logs())
def test_reader_matches_oracle_on_mutated_logs(tmp_path_factory, text):
    path = _write(tmp_path_factory.mktemp("log"), "log", text)
    assert _outcome(path) == _oracle_outcome(path)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(text=mutated_logs(), chunk=st.sampled_from(SMALL_CHUNKS))
def test_reader_matches_oracle_on_mutated_logs_in_small_chunks(tmp_path_factory, text, chunk):
    path = _write(tmp_path_factory.mktemp("log"), "log", text)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(io, "_CHUNK", chunk)
        assert _outcome(path) == _oracle_outcome(path)


def _csv_reference(choices):
    buf = StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(io.LOG_HEADER)
    for t, row in enumerate(choices, start=1):
        for i, b in enumerate(row):
            writer.writerow([t, i, b])
    return buf.getvalue().encode()


@settings(derandomize=True, deadline=None, max_examples=100)
@given(choices=st.integers(1, 6).flatmap(lambda n: st.lists(
    st.lists(st.integers(0, 10**6), min_size=n, max_size=n), min_size=1, max_size=6)))
def test_writer_bytes_match_csv_writer(tmp_path_factory, choices):
    path = tmp_path_factory.mktemp("log") / "log.csv"
    io.write_interaction_log(path, InteractionLog(np.array(choices, dtype=np.int64)))
    assert path.read_bytes() == _csv_reference(choices)


TABLES = [
    (io.read_run_trace, io.TRACE_HEADER, "1,0.5,0.25"),
    (io.read_diversity_series, io.DIVERSITY_HEADER, "1,0.5"),
    (io.read_summary, io.SUMMARY_HEADER, "sphere,ring,2,3,0.5,0.4,0.6,1.0,0.1,1.0"),
]


@pytest.mark.parametrize("reader,header,row", TABLES)
def test_table_readers_name_file_and_line(tmp_path, reader, header, row):
    path = tmp_path / "t.csv"
    path.write_text("a,b\n" + row + "\n")
    expected = f"expected header {header}, got ['a', 'b']"
    with pytest.raises(InputError, match=re.escape(f"t.csv:1: {expected}") + "$"):
        reader(path)
    path.write_text(",".join(header) + "\n" + row + "\n1\n")
    expected = f"t.csv:3: expected {len(header)} fields, got 1"
    with pytest.raises(InputError, match=re.escape(expected) + "$"):
        reader(path)
    # A float field that does not parse, and an integer beyond int64 in the
    # table's first integer column: an iteration, or the summary's k.
    fields = row.split(",")
    fields[next(j for j, v in enumerate(fields) if v.isdigit())] = "99999999999999999999"
    for bad in (row.replace("0.5", "half", 1), ",".join(fields)):
        path.write_text(",".join(header) + "\n" + row + "\n" + bad + "\n")
        expected = f"t.csv:3: malformed field in {bad.split(',')}"
        with pytest.raises(InputError, match=re.escape(expected) + "$"):
            reader(path)


@pytest.mark.parametrize("reader,header,row", TABLES)
def test_header_only_table_reads_as_empty(tmp_path, reader, header, row):
    path = tmp_path / "t.csv"
    path.write_text(",".join(header) + "\r\n", newline="")
    if reader is io.read_summary:
        assert reader(path) == []
        return
    columns = reader(path)
    assert [(len(c), c.dtype) for c in columns] == [
        (0, np.dtype(np.int64))] + [(0, np.dtype(np.float64))] * (len(header) - 1)


@pytest.mark.parametrize("reader,header,row", TABLES)
def test_table_readers_refuse_a_last_line_cut_short(tmp_path, reader, header, row):
    # Cut inside its last line, a file once read that line's shortened value.
    path = tmp_path / "t.csv"
    whole = ",".join(header) + "\r\n" + row + "\r\n" + row + "\r\n"
    for cut in (2, 3, 5):
        path.write_text(whole[:-cut], newline="")
        expected = "t.csv:3: line does not end in a line end"
        with pytest.raises(InputError, match=re.escape(expected) + "$"):
            reader(path)
    path.write_text(",".join(header), newline="")
    with pytest.raises(InputError, match=re.escape("t.csv:1: line does not end")):
        reader(path)


@pytest.mark.parametrize("reader,header,row",
                         TABLES + [(io.read_interaction_log, io.LOG_HEADER, "1,0,1")])
def test_readers_name_a_file_that_is_not_utf8(tmp_path, reader, header, row):
    path = tmp_path / "t.csv"
    head = (",".join(header) + "\r\n").encode()
    rows = (row + "\r\n").encode()
    # In the header, in the first rows, and past the first read buffer. The
    # tables name the file; a selection log names the line the byte is in.
    for line_no, data in ((1, b"\xff" + head + rows), (3, head + rows + b"\xff\r\n"),
                          (2002, head + rows * 2000 + b"1,\xff\r\n")):
        path.write_bytes(data)
        where = f"t.csv:{line_no}: " if reader is io.read_interaction_log else "t.csv: not UTF-8 text"
        with pytest.raises(InputError, match=re.escape(where)):
            reader(path)


def test_find_log_files_skips_files_that_are_not_text(tmp_path):
    head = (",".join(io.LOG_HEADER) + "\r\n").encode()
    (tmp_path / "junk.csv").write_bytes(b"\x89PNG\r\n\x1a\n\xff\xfe" + head)
    (tmp_path / "log.csv").write_bytes(head + b"1,0,1\r\n1,1,\xff\r\n")
    # The log's header marks it as a log; its reader then names the bad byte.
    # A directory matches *.csv too, but cannot be opened: it is skipped.
    (tmp_path / "d.csv").mkdir()
    assert io.find_log_files(tmp_path) == [tmp_path / "log.csv"]


def _run_cell(cell_dir, t_max):
    """experiment.run_cell of a ring of 4 particles on a 2-d sphere for
    t_max iterations, far fewer than its delta_window."""
    cfg = ExperimentConfig(ObjectiveSpec(FunctionId.SPHERE, dimension=2),
                           (TopologySpec(TopologyKind.RING),),
                           PsoParams(swarm_size=4, t_max=t_max, delta_window=10),
                           repetitions=1, windows=(1,))
    return run_cell(cfg, cfg.topologies[0], 0, cell_dir)


def test_cell_write_cut_short_leaves_no_log(tmp_path, monkeypatch):
    # A log write that raises leaves no file, nor the cell directory it
    # made. A worker killed inside it leaves part of the bytes, under the
    # temporary name only.
    write_log = io.write_interaction_log
    parent = os.getpid()

    def cut_short(path, log):
        write_log(path, log)
        with open(path, "r+b") as fh:
            fh.truncate(40)
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        raise OSError("write cut short")

    monkeypatch.setattr(io, "write_interaction_log", cut_short)
    with pytest.raises(OSError, match="write cut short"):
        _run_cell(tmp_path / "raised", 3)
    pid = os.fork()
    if pid == 0:
        try:
            _run_cell(tmp_path / "killed", 3)
        finally:
            os._exit(1)  # only if the kill never came
    assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == -signal.SIGKILL
    assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")) == [
        "killed", "killed/log.csv" + io.PART_SUFFIX]
    assert io.find_log_files(tmp_path) == []


def test_cell_is_written_whole_or_not_at_all(tmp_path, monkeypatch):
    # A trace write that raises after the log is written whole leaves
    # neither the log nor the directories made for the cell; a directory
    # that was there stays.
    def disk_full(path, trace):
        path.write_text("iteration,glob")
        raise OSError("No space left on device")

    monkeypatch.setattr(io, "write_run_trace", disk_full)
    (tmp_path / "sweep").mkdir()
    with pytest.raises(OSError, match="No space left"):
        _run_cell(tmp_path / "sweep" / "f2" / "ring_2" / "rep_0", 2)
    assert [p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")] == ["sweep"]

    monkeypatch.undo()
    cell = tmp_path / "sweep" / "f2" / "ring_2" / "rep_0"
    _run_cell(cell, 2)
    assert sorted(p.name for p in cell.iterdir()) == [
        "diversity.csv", "log.csv", "trace.csv"]
    assert io.read_run_trace(cell / "trace.csv")[0].tolist() == [1, 2]


def _relative_tree(root):
    return sorted(p.relative_to(root).as_posix() for p in root.rglob("*"))


def test_write_all_replacing_reads_its_files_as_they_come(tmp_path):
    # Each item's directories are made and its file written as the item
    # comes; no file takes its final name while the items are being read.
    seen = []

    def files():
        for name in ("a", "b"):
            seen.append(_relative_tree(tmp_path))
            yield tmp_path / "out" / name / "f.csv", Path.write_text, name
        seen.append(_relative_tree(tmp_path))

    io.write_all_replacing(files())
    part = "f.csv" + io.PART_SUFFIX
    assert seen == [[], ["out", "out/a", f"out/a/{part}"],
                    ["out", "out/a", f"out/a/{part}", "out/b", f"out/b/{part}"]]
    assert _relative_tree(tmp_path) == ["out", "out/a", "out/a/f.csv", "out/b", "out/b/f.csv"]
    assert (tmp_path / "out" / "b" / "f.csv").read_text() == "b"


def test_write_all_replacing_cleans_up_when_its_files_raise(tmp_path):
    # An error raised by the items after the first file is written leaves
    # no .part file and none of the directories made for it.
    (tmp_path / "kept").mkdir()

    def files():
        yield tmp_path / "kept" / "new" / "deeper" / "a.csv", Path.write_text, "a"
        raise InputError("bad log")

    with pytest.raises(InputError, match="bad log"):
        io.write_all_replacing(files())
    assert _relative_tree(tmp_path) == ["kept"]


def test_failed_cleanup_step_neither_hides_the_error_nor_skips_a_step(tmp_path):
    # The write under a file fails, and so does deleting its .part file:
    # the write's own error goes on, and the directory made for the first
    # file is still removed.
    (tmp_path / "F").write_text("")
    with pytest.raises(NotADirectoryError) as exc:
        io.write_all_replacing([(tmp_path / "new" / "a.csv", Path.write_text, "a"),
                                (tmp_path / "F" / "b.csv", Path.write_text, "b")])
    assert exc.value.__context__ is None
    assert exc.value.filename.endswith("b.csv" + io.PART_SUFFIX)
    assert _relative_tree(tmp_path) == ["F"]


def test_find_log_files_takes_the_readers_header(tmp_path):
    # A file is found exactly when it opens with the header's text, and the
    # reader takes its header line exactly when \r\n follows. A log with
    # another line end is thus found and refused, not skipped. A quoted
    # header, which csv reads as the log header, is neither.
    for name, text in CORPUS.items():
        _write(tmp_path, name, text)
    found = {path.stem for path in io.find_log_files(tmp_path)}
    header_errors = {name for name in CORPUS
                     if str(_outcome(tmp_path / f"{name}.csv")).startswith(
                         f"{tmp_path / name}.csv:1: ")}
    assert found == {name for name, text in CORPUS.items() if text.startswith(HEADER)}
    assert header_errors == {name for name, text in CORPUS.items()
                             if not text.startswith(HEADER + "\r\n")}
    assert {"lf", "cr", "no_final_eol", "header_only_no_eol"} <= found & header_errors
    assert "quoted_header" in header_errors - found
