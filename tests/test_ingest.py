"""Whole-column ingest against the row-by-row reference parser."""

import csv
import gzip
import io
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import ingest_reference
from seqrec.data import ParseError, ingest_log

COLUMNS = ("user", "item", "timestamp")
# ids that need csv quoting under one delimiter or the other; "a\nb" and
# "a\r\nb" make their row span two physical lines, "a\n\nb" three
IDS = ["u1", "u2", "a,b", "x\ty", 'q"t', " sp", "7", "a\nb", "a\r\nb", "a\n\nb"]
# a Latin-1 "café": written as the one byte 0xe9, which is not UTF-8
NOT_UTF8_ID = "caf\udce9"
# -0.9999999 truncates to 0; 9223372036854774784 is the largest float below
# 2**63; the digits of 2**53 + 1 and 1700000000123456789 are read exactly
GOOD_TIMES = ["0", "1", "2", "2", "3", "5.7", "1e3", " 4 ", "-0.5", "1_0", "9.2e18",
              "-0.9999999", "9223372036854774784", "9007199254740993",
              "1700000000123456789"]
# 9223372036854775807 parses to the float 2**63
BAD_TIMES = ["-3", "nan", "inf", "-inf", "1e30", "xyz", "", "9223372036854775808",
             "-1.0", "9223372036854775807", "0x10"]


def _outcome(parse, payload, **kwargs):
    """The parsed log's arrays and maps (in order), or the error's type and
    message, from a file that holds payload."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "events.csv"
        path.write_bytes(payload)
        try:
            log = parse(path, **kwargs)
        except (ParseError, ValueError) as exc:
            return type(exc).__name__, str(exc)
    return ([a.tolist() for a in (log.users, log.items, log.timestamps)],
            list(log.user_map.items()), list(log.item_map.items()),
            log.n_users, log.n_items)


def _assert_matches_reference(payload, **kwargs):
    got = _outcome(ingest_log, payload, **kwargs)
    assert got == _outcome(ingest_reference, payload, **kwargs)
    return got


@st.composite
def _sources(draw):
    """Delimited text with a shuffled column order and extra columns, quoted
    ids, repeated pairs, tied and float timestamps, blank and whitespace-only
    lines, an occasional bad value, short row or byte that is not UTF-8,
    optionally gzipped and cut."""
    delimiter = draw(st.sampled_from([",", "\t"]))
    ids = IDS + [NOT_UTF8_ID] if draw(st.integers(0, 3)) == 0 else IDS
    header = draw(st.booleans())
    names = draw(st.permutations(list(COLUMNS) + ["rating", "note"][:draw(st.integers(0, 2))]))
    where = {name: names.index(name) for name in COLUMNS}
    bad_rate = draw(st.sampled_from([0, 0, 30]))
    out = io.StringIO()
    writer = csv.writer(out, delimiter=delimiter, lineterminator="\n")
    if header:
        writer.writerow(names)
    for _ in range(draw(st.integers(0, 25))):
        kind = draw(st.integers(0, 99))
        if kind < 5:
            out.write(draw(st.sampled_from(["", " ", "   "])) + "\n")
            continue
        fields = ["5"] * len(names)
        fields[where["user"]] = draw(st.sampled_from(ids))
        fields[where["item"]] = draw(st.sampled_from(ids))
        bad = kind >= 100 - bad_rate
        fields[where["timestamp"]] = draw(st.sampled_from(BAD_TIMES if bad else GOOD_TIMES))
        if bad and draw(st.booleans()):
            fields = fields[:draw(st.integers(1, max(where.values())))]
        writer.writerow(fields)
    payload = out.getvalue().encode("utf-8", "surrogateescape")
    if draw(st.booleans()):
        payload = gzip.compress(payload)
        if draw(st.integers(0, 4)) == 0:
            payload = payload[:draw(st.integers(0, len(payload) - 1))]
    columns = COLUMNS if header else tuple(where[name] for name in COLUMNS)
    return payload, dict(zip(("user_col", "item_col", "time_col"), columns),
                         delimiter=delimiter, header=header)


class TestMatchesReference:
    @given(_sources())
    @settings(max_examples=300, deadline=None)
    def test_generated_sources(self, source):
        payload, kwargs = source
        _assert_matches_reference(payload, **kwargs)

    # each bad kind against a bad timestamp and a short row, in both orders
    @pytest.mark.parametrize("first", ["-3", "nan", "inf", "1e30", "xyz", None])
    @pytest.mark.parametrize("second", ["-3", "xyz", None])
    def test_earliest_of_two_bad_lines_wins(self, first, second):
        def row(value):
            return "u,i\n" if value is None else f"u,i,{value}\n"

        payload = ("user,item,timestamp\nu,i,1\n\n" + row(first) + "u,j,2\n" + row(second)).encode()
        kind, message = _assert_matches_reference(payload)
        assert kind == "ParseError" and message.startswith("line 4:")

    # a row after a quoted newline is named by the physical line it starts on
    @pytest.mark.parametrize("bad", ["u,i,xyz", "u,i"], ids=["bad-timestamp", "short-row"])
    def test_bad_line_after_a_quoted_newline(self, bad):
        payload = f'user,item,timestamp\nu,"a\nb",1\n{bad}\n'.encode()
        kind, message = _assert_matches_reference(payload)
        assert kind == "ParseError" and message.startswith("line 4:")

    # a field past the csv module's 131072-character limit ends the read at
    # the line the reader stopped on
    @pytest.mark.parametrize("before, line", [("", 2), ("u0,i0,0\n\n", 4), ('u,"a\nb",1\n', 4)],
                             ids=["first-row", "after-blank-line", "after-quoted-newline"])
    def test_oversized_field(self, before, line):
        payload = f"user,item,timestamp\n{before}u,{'x' * 200_000},1\nu1,i1,2\n".encode()
        assert _assert_matches_reference(payload) == (
            "ParseError", f"line {line}: field larger than field limit (131072)")

    # a fault that stops the read far past the bad line: a cut gzip stream,
    # bytes that are not UTF-8, a field over the csv module's size limit
    @pytest.mark.parametrize("tail", ["cut", b"\xff\n", b"u," + b"x" * 200_000 + b",1\n"],
                             ids=["cut-gzip", "not-utf8", "oversized-field"])
    def test_bad_line_before_a_stream_fault_wins(self, tail):
        rows = "".join(f"u{t % 13},i{t % 11},{t}\n" for t in range(20000))
        payload = f"user,item,timestamp\nu,i,xyz\n{rows}".encode()
        if tail == "cut":
            payload = gzip.compress(payload)
            payload = payload[:len(payload) // 2]
        else:
            payload += tail
        assert _assert_matches_reference(payload) == (
            "ParseError", "line 2: unparsable timestamp 'xyz'")

    def test_duplicates_and_ties_keep_the_earliest_row(self):
        payload = b"user,item,timestamp\nb,y,3\na,x,2\nb,x,3\na,x,1\nb,y,3\na,y,1\n"
        (users, items, times), user_map, item_map, *_ = _assert_matches_reference(payload)
        assert user_map == [("b", 0), ("a", 1)]
        assert item_map == [("y", 0), ("x", 1)]
        assert (users, items, times) == ([0, 0, 1, 1], [0, 1, 1, 0], [3, 3, 1, 1])

    def test_float_timestamps_truncate(self):
        (_, _, times), *_ = _assert_matches_reference(
            b"user,item,timestamp\nu,a,5.7\nu,b,-0.5\nu,c,1e3\n")
        assert sorted(times) == [0, 5, 1000]

    def test_integer_timestamps_are_exact(self):
        # 2**53 + 1 is no float: read as one it rounds to 2**53, the two
        # events tie, and row order puts the later one, a, first
        (_, _, times), _, item_map, *_ = _assert_matches_reference(
            b"user,item,timestamp\nu,a,9007199254740993\nu,b,9007199254740992\n"
            b"v,c,1700000000123456789\n")
        assert item_map == [("b", 0), ("a", 1), ("c", 2)]
        assert times == [9007199254740992, 9007199254740993, 1700000000123456789]

    def test_quoted_delimiter_and_extra_columns(self):
        payload = b'item\tnote\tuser\ttimestamp\n"a\tb"\tx\t"u,1"\t4\n'
        _, user_map, item_map, *_ = _assert_matches_reference(payload, delimiter="\t")
        assert user_map == [("u,1", 0)] and item_map == [("a\tb", 0)]

    def test_headerless_gzip(self):
        payload = gzip.compress(b"1\tu\t7\n\n2\tu\t5\n")
        (_, _, times), *_ = _assert_matches_reference(
            payload, delimiter="\t", user_col=1, item_col=0, time_col=2, header=False)
        assert times == [5, 7]


class TestNotUtf8:
    """A byte that is not UTF-8 is a ParseError naming its physical line."""

    # 5000 good rows on lines 2-5001, past the text decoder's 8 KB chunks
    ROWS = [f"u{t % 7},i{t % 11},{t}\n".encode() for t in range(1, 5001)]
    LATIN1 = b"u1,caf\xe9,5\n"
    REASON = "not UTF-8: 'utf-8' codec can't decode byte 0xe9 in position 6: invalid continuation byte"

    @pytest.mark.parametrize("compress", [False, True], ids=["plain", "gzip"])
    def test_names_its_line(self, compress):
        payload = b"user,item,timestamp\n" + b"".join(self.ROWS) + self.LATIN1
        payload = gzip.compress(payload) if compress else payload
        assert _assert_matches_reference(payload) == ("ParseError", f"line 5002: {self.REASON}")

    # the bad timestamp and the bad byte fall in the decoder's last chunk
    @pytest.mark.parametrize("compress", [False, True], ids=["plain", "gzip"])
    def test_bad_line_before_it_wins(self, compress):
        rows = self.ROWS[:4998] + [b"u1,i1,xyz\n"] + self.ROWS[4999:]
        payload = b"user,item,timestamp\n" + b"".join(rows) + self.LATIN1
        payload = gzip.compress(payload) if compress else payload
        assert _assert_matches_reference(payload) == (
            "ParseError", "line 5000: unparsable timestamp 'xyz'")

    def test_in_the_header(self):
        payload = b"user,it\xe9m,timestamp\nu,i,1\n"
        kind, message = _assert_matches_reference(payload)
        assert kind == "ParseError" and message.startswith("line 1: not UTF-8: ")

    # the quoted record that runs into the bad line is read up to it, not cut short
    def test_inside_a_quoted_record(self):
        payload = b'user,item,timestamp\nu,i,1\nu,"a\nb\xe9",1\n'
        kind, message = _assert_matches_reference(payload)
        assert kind == "ParseError" and message.startswith("line 4: not UTF-8: ")


def test_large_log_matches_reference():
    rng = np.random.default_rng(0)
    users = rng.integers(0, 300, 5000)
    items = rng.integers(0, 200, 5000)
    times = rng.integers(0, 50, 5000)
    text = "user,item,timestamp\n" + "".join(
        f"u{u},i{i},{t}\n" for u, i, t in zip(users.tolist(), items.tolist(), times.tolist()))
    _assert_matches_reference(text.encode())


def test_ingest_holds_no_per_row_id_strings(tmp_path):
    # 40,000 rows over 400 users and 300 items, every id 48 characters long
    rng = np.random.default_rng(0)
    rows = 40_000
    users = rng.integers(0, 400, rows).tolist()
    items = rng.integers(0, 300, rows).tolist()
    path = tmp_path / "events.csv"
    path.write_text("user,item,timestamp\n" + "".join(
        f"{u:u>48},{i:i>48},{t}\n" for t, (u, i) in enumerate(zip(users, items))))
    row_strings = 2 * rows * sys.getsizeof("x" * 48)
    tracemalloc.start()
    try:
        log = ingest_log(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (log.n_users, log.n_items) == (400, 300)
    assert peak < row_strings


def test_oversized_field_is_a_parse_error_naming_its_line(tmp_path):
    # past the csv module's field limit (131072 characters), after a blank line
    path = tmp_path / "events.csv"
    path.write_bytes(b"user,item,timestamp\nu0,i0,0\n\nu0," + b"x" * 200_000 + b",1\nu1,i1,2\n")
    with pytest.raises(ParseError, match=r"^line 4: field larger than field limit"):
        ingest_log(path)
