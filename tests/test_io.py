"""Log reader and writer checks against the row-by-row reference reader.

`io.read_interaction_log` parses with numpy and checks every event in
bulk; `oracle.oracle_read_log` checks one row at a time. On every file
both must give the same choices or the same error text.
"""

import csv
import re
from io import StringIO

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import LogError, oracle_read_log
from swarmnet import io
from swarmnet.errors import InputError
from swarmnet.pso import InteractionLog

HEADER = "iteration,particle,best_neighbor"
ROWS = ["1,0,1", "1,1,2", "1,2,0", "2,0,2", "2,1,0", "2,2,1"]
BIG = "99999999999999999999"


def _file(rows, eol="\n", final_eol=True):
    return HEADER + eol + eol.join(rows) + (eol if final_eol else "")


CORPUS = {
    "valid": _file(ROWS),
    "blank_line_in_middle": _file(ROWS[:3] + [""] + ROWS[3:]),
    "trailing_blank_line": _file(ROWS + [""]),
    "whitespace_line": _file(ROWS[:2] + ["   "] + ROWS[2:]),
    "no_final_eol": _file(ROWS, final_eol=False),
    "crlf": _file(ROWS, eol="\r\n"),
    "crlf_no_final_eol": _file(ROWS, eol="\r\n", final_eol=False),
    "cr": _file(ROWS, eol="\r"),
    "mixed_eol": HEADER + "\r\n" + "\n".join(ROWS) + "\r\n",
    "space_in_field": _file(["1, 0,1 "] + ROWS[1:]),
    "tab_in_field": _file(["1,\t0,1"] + ROWS[1:]),
    "plus_zero": _file(["1,+0,1"] + ROWS[1:]),
    "leading_zero": _file(["01,0,001"] + ROWS[1:]),
    "minus_zero": _file(["1,-0,1"] + ROWS[1:]),
    "quoted_field": _file(['1,"0",1'] + ROWS[1:]),
    "quoted_newline": _file(['1,"0\n",1'] + ROWS[1:]),
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
    "missing_first_iteration": _file(["2,0,1", "2,1,0"]),
    "missing_particle_column": _file([r for r in ROWS if r.split(",")[1] != "1"]),
    "rows_out_of_order": _file(ROWS[::-1]),
    "rows_interleaved": _file(ROWS[1::2] + ROWS[::2]),
    "single_event": _file(["1,0,0"]),
    "single_valid_event": _file(["1,1,0", "1,0,1"]),
    "empty_file": "",
    "header_only": HEADER + "\n",
    "header_only_no_eol": HEADER,
    "header_then_blank": HEADER + "\n\n",
    "wrong_header": "a,b,c\n" + "\n".join(ROWS) + "\n",
    "quoted_header": '"iteration",particle,best_neighbor\n' + "\n".join(ROWS) + "\n",
    "blank_before_header": "\n" + _file(ROWS),
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
    # Only digits, commas and line ends may reach numpy, in fields of at most
    # 18 digits; older numpy turns "1.5" into 1 and 10**20 into garbage.
    monkeypatch.setattr(io.np, "loadtxt", _loadtxt_via_float)
    path = _write(tmp_path, name, CORPUS[name])
    assert _outcome(path) == _oracle_outcome(path)


def test_writer_bytes_take_the_numpy_path():
    body = "1,0,1\r\n1,1," + "9" * 18 + "\r\n"
    assert io._loadtxt_events(body).tolist() == [[1, 0, 1], [1, 1, 10**18 - 1]]
    assert io._loadtxt_events(body.replace("9" * 18, "0" * 18 + "1")) is None


def test_empty_file_names_missing_header(tmp_path):
    path = _write(tmp_path, "empty", "")
    with pytest.raises(InputError, match=r"empty\.csv:1: .*got None$"):
        io.read_interaction_log(path)


def test_value_above_int64_in_b_keeps_its_digits(tmp_path):
    path = _write(tmp_path, "big", CORPUS["above_int64"])
    with pytest.raises(InputError, match=rf"big\.csv:6: particle index out of range in \(2, 1, {BIG}\)"):
        io.read_interaction_log(path)


@pytest.mark.parametrize("row", [f"{BIG},0,1", f"1,{BIG},0"])
def test_value_above_int64_in_t_or_i_is_an_input_error(tmp_path, row):
    # The row-by-row reader sized its choices array from these values and failed
    # with a numpy error; the column-wise reader names the line.
    path = _write(tmp_path, "big", _file(ROWS + [row]))
    with pytest.raises(InputError, match=r"big\.csv:8: particle index out of range"):
        io.read_interaction_log(path)


def test_far_iteration_is_missing_events_not_an_allocation(tmp_path):
    path = _write(tmp_path, "far", _file(ROWS + ["1000000000000,0,1"]))
    with pytest.raises(InputError, match=r"missing event for iteration 3, particle 0$"):
        io.read_interaction_log(path)


def test_wide_particle_index_is_missing_events(tmp_path):
    path = _write(tmp_path, "wide", _file(["1,0,1", "1,9223372036854775807,0"]))
    with pytest.raises(InputError, match=r"missing event for iteration 1, particle 1$"):
        io.read_interaction_log(path)


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
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return _file([",".join(r) for r in rows], eol=eol, final_eol=draw(st.booleans()))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(text=mutated_logs())
def test_reader_matches_oracle_on_mutated_logs(tmp_path_factory, text):
    path = _write(tmp_path_factory.mktemp("log"), "log", text)
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
    bad = row.replace("0.5", "half", 1)
    path.write_text(",".join(header) + "\n" + row + "\n" + bad + "\n")
    kind = "field" if reader is io.read_summary else "numeric field"
    expected = f"t.csv:3: malformed {kind} in {bad.split(',')}"
    with pytest.raises(InputError, match=re.escape(expected) + "$"):
        reader(path)


@pytest.mark.parametrize("reader,header,row",
                         TABLES + [(io.read_interaction_log, io.LOG_HEADER, "1,0,1")])
def test_readers_name_a_file_that_is_not_utf8(tmp_path, reader, header, row):
    path = tmp_path / "t.csv"
    head = (",".join(header) + "\n").encode()
    rows = (row + "\n").encode()
    # In the header, in the first rows, and past the first read buffer.
    for data in (b"\xff" + head + rows, head + rows + b"\xff\n",
                 head + rows * 2000 + b"1,\xff\n"):
        path.write_bytes(data)
        with pytest.raises(InputError, match=r"t\.csv: not UTF-8 text"):
            reader(path)


def test_find_log_files_skips_files_that_are_not_text(tmp_path):
    head = (",".join(io.LOG_HEADER) + "\n").encode()
    (tmp_path / "junk.csv").write_bytes(b"\x89PNG\r\n\x1a\n\xff\xfe" + head)
    (tmp_path / "log.csv").write_bytes(head + b"1,0,1\n1,1,\xff\n")
    # The log's header marks it as a log; its reader then names the bad byte.
    assert io.find_log_files(tmp_path) == [tmp_path / "log.csv"]
