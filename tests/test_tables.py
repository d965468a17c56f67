"""CSV serialization: column order, escaping, and tables the csv module
reads back as written."""

from __future__ import annotations

import csv
import dataclasses
import io
import random

import pytest
from hypothesis import given, settings, strategies as st

from contribsum.tables import (
    CONTRIBUTION_COLUMNS,
    FUNCTIONALITY_COLUMNS,
    ContributionTable,
    ContributionTableRow,
    FunctionalityTable,
    FunctionalityTableRow,
    solo_functions_text,
    write_csv,
)


def _cell(value: str, kind: str):
    """A cell read back as a field of type `kind`, as the row type declares it."""
    if kind == "str":
        return value
    return None if value == "" and kind == "int | None" else int(value)


def _roundtrip(table):
    """`table` written, then read back with the csv module under its header."""
    buf = io.BytesIO()
    write_csv(table, buf)
    text = io.StringIO(buf.getvalue().decode("utf-8"), newline="")
    header, *records = csv.reader(text, strict=True)
    columns, row_type = (
        (FUNCTIONALITY_COLUMNS, FunctionalityTableRow) if isinstance(table, FunctionalityTable)
        else (CONTRIBUTION_COLUMNS, ContributionTableRow)
    )
    assert header == list(columns)
    kinds = [f.type for f in dataclasses.fields(row_type)]
    rows = (row_type(*map(_cell, record, kinds)) for record in records)
    return type(table)(rows=tuple(rows))


NASTY = 'desc with, comma\nand "quotes" and newline\r\nand ünïcödé 😀'


class TestWriteCsv:
    def test_empty_table_header_only(self):
        buf = io.BytesIO()
        write_csv(FunctionalityTable(rows=()), buf)
        assert buf.getvalue() == b"Filename,Functionality,Difficulty,ByteSize,LineCount,Complexity,TagCount\r\n"

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

    def test_rows_written_in_sorted_key_order(self):
        rows = (
            ContributionTableRow("zoe", "b.py", "later", 1, 0, ""),
            ContributionTableRow("abe", "a.py", "earlier", 2, 1, ""),
        )
        table = ContributionTable(rows=rows)
        buf = io.BytesIO()
        write_csv(table, buf)
        lines = buf.getvalue().decode("utf-8").splitlines()
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


# The writer from when each table spelled out its columns and cells by
# hand, kept as the reference the schema-driven one must equal.
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


class TestAgainstReference:
    @settings(max_examples=200, deadline=None)
    @given(st.one_of(functionality_tables(), contribution_tables()))
    def test_written_bytes_equal(self, table):
        buf = io.BytesIO()
        write_csv(table, buf)
        assert buf.getvalue() == _ref_serialize(table)
