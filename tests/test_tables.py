"""CSV serialization: schema checks, escaping, lossless round-trips."""

from __future__ import annotations

import csv
import dataclasses
import io
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from contribsum.errors import MalformedCsv, SchemaMismatch
from contribsum.tables import (
    CONTRIBUTION_COLUMNS,
    FUNCTIONALITY_COLUMNS,
    ContributionTable,
    ContributionTableRow,
    FunctionalityTable,
    FunctionalityTableRow,
    read_csv,
    solo_functions_text,
    write_csv,
)


def _roundtrip(table):
    buf = io.BytesIO()
    write_csv(table, buf)
    return read_csv(io.StringIO(buf.getvalue().decode("utf-8"), newline=""))


NASTY = 'desc with, comma\nand "quotes" and newline\r\nand ünïcödé 😀'


class TestWriteCsv:
    def test_empty_table_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        count = write_csv(FunctionalityTable(rows=()), path)
        data = path.read_bytes()
        assert count == len(data)
        assert data == b"Filename,Functionality,Difficulty,ByteSize,LineCount,Complexity,TagCount\r\n"

    def test_nasty_field_quoted_and_roundtrips(self):
        row = FunctionalityTableRow(
            filename="a.py",
            functionality=NASTY,
            difficulty="plain",
            byte_size=10,
            line_count=2,
            complexity=3,
            tag_count=None,
        )
        table = FunctionalityTable(rows=(row,))
        again = _roundtrip(table)
        assert again == table

    def test_rows_written_in_sorted_key_order(self, tmp_path):
        rows = (
            ContributionTableRow("zoe", "b.py", "later", 1, 0, ""),
            ContributionTableRow("abe", "a.py", "earlier", 2, 1, ""),
        )
        table = ContributionTable(rows=rows)
        path = tmp_path / "c.csv"
        write_csv(table, path)
        lines = path.read_text().splitlines()
        assert lines[1].startswith("abe,")
        assert lines[2].startswith("zoe,")

    def test_byte_deterministic_for_equal_tables(self):
        rows = (
            FunctionalityTableRow("a.py", "x", "y", 1, 1, 1, None),
            FunctionalityTableRow("b.html", "m", "n", 2, 2, None, 4),
        )
        bufs = []
        for permutation in (rows, rows[::-1]):
            buf = io.BytesIO()
            write_csv(FunctionalityTable(rows=permutation), buf)
            bufs.append(buf.getvalue())
        assert bufs[0] == bufs[1]

    def test_duplicate_keys_rejected(self):
        rows = (
            FunctionalityTableRow("same.py", "x", "y", 1, 1, None, None),
            FunctionalityTableRow("same.py", "x2", "y2", 2, 2, None, None),
        )
        with pytest.raises(ValueError):
            FunctionalityTable(rows=rows)


class TestReadCsv:
    def test_missing_difficulty_column(self):
        text = "Filename,Functionality,ByteSize,LineCount,Complexity,TagCount\r\n"
        with pytest.raises(SchemaMismatch) as err:
            read_csv(io.StringIO(text, newline=""))
        assert err.value.column == "Difficulty"

    def test_unbalanced_quote_reports_line(self):
        text = (
            "Student,File,Description,LinesOwned,LinesAddedInWindow,SoloFunctions\r\n"
            'alice,a.py,"unterminated,1,0,\r\n'
        )
        with pytest.raises(MalformedCsv):
            read_csv(io.StringIO(text, newline=""))

    def test_non_integer_metric_rejected_with_line(self):
        text = (
            "Student,File,Description,LinesOwned,LinesAddedInWindow,SoloFunctions\r\n"
            "alice,a.py,desc,many,0,\r\n"
        )
        with pytest.raises(MalformedCsv) as err:
            read_csv(io.StringIO(text, newline=""))
        assert err.value.line_no == 2

    def test_unknown_header_rejected(self):
        with pytest.raises(SchemaMismatch):
            read_csv(io.StringIO("What,Ever\r\n1,2\r\n", newline=""))

    def test_wrong_field_count_rejected(self):
        text = (
            "Student,File,Description,LinesOwned,LinesAddedInWindow,SoloFunctions\r\n"
            "alice,a.py,desc,1\r\n"
        )
        with pytest.raises(MalformedCsv):
            read_csv(io.StringIO(text, newline=""))

    def test_reads_from_path(self, tmp_path):
        table = ContributionTable(
            rows=(ContributionTableRow("a", "f.py", "d", 1, 1, "go:2"),)
        )
        path = tmp_path / "t.csv"
        write_csv(table, path)
        assert read_csv(path) == table


_text_field = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
    max_size=60,
)


@st.composite
def functionality_tables(draw):
    n = draw(st.integers(min_value=0, max_value=6))
    rows = []
    names = draw(
        st.lists(
            st.text(
                alphabet=st.characters(blacklist_categories=("Cs",), min_codepoint=33),
                min_size=1,
                max_size=20,
            ),
            min_size=n,
            max_size=n,
            unique=True,
        )
    )
    for name in names:
        rows.append(
            FunctionalityTableRow(
                filename=name,
                functionality=draw(_text_field),
                difficulty=draw(_text_field),
                byte_size=draw(st.integers(min_value=0, max_value=10**9)),
                line_count=draw(st.integers(min_value=0, max_value=10**6)),
                complexity=draw(st.none() | st.integers(min_value=1, max_value=999)),
                tag_count=draw(st.none() | st.integers(min_value=0, max_value=999)),
            )
        )
    return FunctionalityTable(rows=tuple(rows))


class TestRoundTripProperty:
    @settings(max_examples=200, deadline=None)
    @given(functionality_tables())
    def test_functionality_roundtrip(self, table):
        assert _roundtrip(table) == table

    def test_bulk_randomized_contribution_tables(self):
        # deterministic bulk sweep; heavy on delimiters, quotes, newlines
        rng = random.Random(20240603)
        specials = [",", '"', "\n", "\r\n", "'", ";", "|", "ü", "漢", "😀", "\t", " "]

        def wild_text():
            return "".join(
                rng.choice(specials) if rng.random() < 0.4 else chr(rng.randint(32, 126))
                for _ in range(rng.randint(0, 40))
            )

        for i in range(1000):
            seen = set()
            rows = []
            for _ in range(rng.randint(0, 5)):
                key = (f"student-{rng.randint(0, 3)}", f"file-{rng.randint(0, 5)}{wild_text()}")
                if key in seen:
                    continue
                seen.add(key)
                rows.append(
                    ContributionTableRow(
                        student=key[0],
                        file=key[1],
                        description=wild_text(),
                        lines_owned=rng.randint(0, 10**6),
                        lines_added_in_window=rng.randint(0, 10**6),
                        solo_functions=wild_text(),
                    )
                )
            table = ContributionTable(rows=tuple(rows))
            assert _roundtrip(table) == table, f"round-trip failed at iteration {i}"


def test_solo_functions_text_format():
    assert solo_functions_text([("go", 2), ("stop", 5)]) == "go:2; stop:5"
    assert solo_functions_text([]) == ""


def test_nul_in_text_rejected_at_construction():
    with pytest.raises(ValueError, match="NUL"):
        FunctionalityTable(
            rows=(FunctionalityTableRow("a.py", "x\x00y", "d", 1, 1, None, None),)
        )


@pytest.mark.parametrize(
    "columns, row_type",
    [(FUNCTIONALITY_COLUMNS, FunctionalityTableRow), (CONTRIBUTION_COLUMNS, ContributionTableRow)],
)
def test_a_column_per_row_field(columns, row_type):
    assert len(columns) == len(dataclasses.fields(row_type))


# The writer and parser from when each table spelled out its columns and
# cells by hand, kept as the reference the schema-driven ones must equal.
# The column names are written out here, not imported, so that a change to
# a column tuple shows.

_REF_FUNCTIONALITY = (
    "Filename", "Functionality", "Difficulty", "ByteSize", "LineCount", "Complexity", "TagCount",
)
_REF_CONTRIBUTION = (
    "Student", "File", "Description", "LinesOwned", "LinesAddedInWindow", "SoloFunctions",
)


def _ref_opt(value):
    return "" if value is None else str(value)


def _ref_serialize(table) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf)
    if isinstance(table, FunctionalityTable):
        writer.writerow(_REF_FUNCTIONALITY)
        for r in table.rows:
            writer.writerow([
                r.filename, r.functionality, r.difficulty, str(r.byte_size),
                str(r.line_count), _ref_opt(r.complexity), _ref_opt(r.tag_count),
            ])
    else:
        writer.writerow(_REF_CONTRIBUTION)
        for r in table.rows:
            writer.writerow([
                r.student, r.file, r.description, str(r.lines_owned),
                str(r.lines_added_in_window), r.solo_functions,
            ])
    return buf.getvalue().encode("utf-8")


def _ref_int(value, column, line_no):
    try:
        return int(value)
    except ValueError:
        raise MalformedCsv(line_no, f"column {column!r}: not an integer: {value!r}")


def _ref_opt_int(value, column, line_no):
    return None if value == "" else _ref_int(value, column, line_no)


def _ref_read_csv(source):
    if hasattr(source, "read"):
        text = source.read()
        if isinstance(text, bytes):
            text = text.decode("utf-8")
    else:
        text = Path(source).read_text(encoding="utf-8")
    reader = csv.reader(io.StringIO(text, newline=""), strict=True)
    try:
        records = list(reader)
    except csv.Error as exc:
        raise MalformedCsv(reader.line_num, str(exc))
    if not records:
        raise MalformedCsv(1, "empty document, header row required")
    header = records[0]
    if header == list(_REF_FUNCTIONALITY):
        expected = _REF_FUNCTIONALITY
    elif header == list(_REF_CONTRIBUTION):
        expected = _REF_CONTRIBUTION
    else:
        for schema in (_REF_FUNCTIONALITY, _REF_CONTRIBUTION):
            if header and header[0] == schema[0]:
                missing = [c for c in schema if c not in header]
                extra = [c for c in header if c not in schema]
                offending = (missing + extra or [schema[0]])[0]
                raise SchemaMismatch(offending, "header does not match schema")
        raise SchemaMismatch(header[0] if header else "<empty>", "unrecognized header")
    body = records[1:]
    for line_no, record in enumerate(body, start=2):
        if len(record) != len(expected):
            raise MalformedCsv(line_no, f"expected {len(expected)} fields, got {len(record)}")
    if expected is _REF_FUNCTIONALITY:
        return FunctionalityTable(rows=tuple(
            FunctionalityTableRow(
                filename=rec[0],
                functionality=rec[1],
                difficulty=rec[2],
                byte_size=_ref_int(rec[3], "ByteSize", no),
                line_count=_ref_int(rec[4], "LineCount", no),
                complexity=_ref_opt_int(rec[5], "Complexity", no),
                tag_count=_ref_opt_int(rec[6], "TagCount", no),
            )
            for no, rec in enumerate(body, start=2)
        ))
    return ContributionTable(rows=tuple(
        ContributionTableRow(
            student=rec[0],
            file=rec[1],
            description=rec[2],
            lines_owned=_ref_int(rec[3], "LinesOwned", no),
            lines_added_in_window=_ref_int(rec[4], "LinesAddedInWindow", no),
            solo_functions=rec[5],
        )
        for no, rec in enumerate(body, start=2)
    ))


@st.composite
def contribution_tables(draw):
    keys = draw(st.lists(st.tuples(_text_field, _text_field), max_size=6, unique=True))
    return ContributionTable(rows=tuple(
        ContributionTableRow(
            student=student,
            file=file,
            description=draw(_text_field),
            lines_owned=draw(st.integers(min_value=-5, max_value=10**9)),
            lines_added_in_window=draw(st.integers(min_value=-5, max_value=10**9)),
            solo_functions=draw(_text_field),
        )
        for student, file in keys
    ))


# cells that are integers, near-integers, empty or text
_cell = st.one_of(
    st.integers(min_value=-(10**12), max_value=10**12).map(str),
    st.sampled_from(["", " 7", "1_000", "+3", "-0", "x", "1.5", "\u0663", "None", "1e3", "0x1f"]),
    _text_field,
)
_INT_COLUMNS = {
    "ByteSize", "LineCount", "Complexity", "TagCount", "LinesOwned", "LinesAddedInWindow",
}


@st.composite
def documents(draw) -> str:
    """A CSV document under either table's header, at times with a column
    dropped, swapped, renamed or added, and rows of cells, most of them as
    wide as the header. An integer column's cell is mostly an integer, or
    empty where the column may be, else any cell."""
    columns = list(draw(st.sampled_from([_REF_FUNCTIONALITY, _REF_CONTRIBUTION])))
    change = draw(st.sampled_from(["drop", "swap", "rename", "add", "empty"]))
    if draw(st.booleans()):
        change = "none"
    i, j = draw(st.integers(0, len(columns) - 1)), draw(st.integers(0, len(columns) - 1))
    if change == "drop":
        del columns[i]
    elif change == "swap":
        columns[i], columns[j] = columns[j], columns[i]
    elif change == "rename":
        columns[i] = draw(st.sampled_from(["Other", columns[j].lower(), ""]))
    elif change == "add":
        columns.insert(i, draw(st.sampled_from(["Other", columns[j]])))
    elif change == "empty":
        columns = []

    def cell(column: str) -> str:
        if column in _INT_COLUMNS and draw(st.integers(0, 7)) < 7:
            if column in ("Complexity", "TagCount") and draw(st.booleans()):
                return ""
            return str(draw(st.integers(min_value=-5, max_value=10**12)))
        return draw(_cell)

    rows = []
    for _ in range(draw(st.integers(0, 5))):
        width = len(columns)
        if draw(st.integers(0, 5)) == 5:
            width = draw(st.sampled_from([max(len(columns) - 1, 0), len(columns) + 1]))
        rows.append([cell(column) for column in (columns + ["Other"])[:width]])
    buf = io.StringIO()
    csv.writer(buf).writerows([columns, *rows])
    return buf.getvalue()


def _outcome(read, text: str):
    """What `read` makes of `text`: the table, or the error's type and message."""
    try:
        return read(io.StringIO(text, newline=""))
    except Exception as exc:
        return type(exc), str(exc)


class TestAgainstReference:
    @settings(max_examples=200, deadline=None)
    @given(st.one_of(functionality_tables(), contribution_tables()))
    def test_written_bytes_equal(self, table):
        buf = io.BytesIO()
        write_csv(table, buf)
        assert buf.getvalue() == _ref_serialize(table)

    @settings(max_examples=400, deadline=None)
    @given(documents())
    def test_read_tables_and_errors_equal(self, text):
        assert _outcome(read_csv, text) == _outcome(_ref_read_csv, text)
