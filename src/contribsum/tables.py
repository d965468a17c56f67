"""The two intermediate CSV artifacts: functionality and contribution tables.

A table's columns are its row type's fields, in order. A `str` field is a
text column, an `int` field an integer column, and an `int | None` field
an integer column whose empty cell is None.

RFC 4180 serialization (UTF-8, header row, minimal quoting, CRLF records)
with lossless round-trips. Rows are stored and written in primary-key
order, so equal tables always serialize to identical bytes.
"""

from __future__ import annotations

import csv
import io
import typing
from dataclasses import dataclass
from pathlib import Path

from .errors import MalformedCsv, SchemaMismatch
from .store import write_atomic

FUNCTIONALITY_COLUMNS = (
    "Filename",
    "Functionality",
    "Difficulty",
    "ByteSize",
    "LineCount",
    "Complexity",
    "TagCount",
)

CONTRIBUTION_COLUMNS = (
    "Student",
    "File",
    "Description",
    "LinesOwned",
    "LinesAddedInWindow",
    "SoloFunctions",
)


@dataclass(frozen=True)
class FunctionalityTableRow:
    filename: str
    functionality: str
    difficulty: str
    byte_size: int
    line_count: int
    complexity: int | None = None
    tag_count: int | None = None


@dataclass(frozen=True)
class ContributionTableRow:
    student: str
    file: str
    description: str
    lines_owned: int
    lines_added_in_window: int
    solo_functions: str = ""  # "name:score; name:score"


def _order(table, key, what: str) -> None:
    """Put `table.rows` in `key` order, and refuse a duplicate key or a NUL
    in a text column: the csv module cannot represent NUL in any quoting mode."""
    ordered = tuple(sorted(table.rows, key=key))
    object.__setattr__(table, "rows", ordered)
    keys = [key(r) for r in ordered]
    if len(set(keys)) != len(keys):
        raise ValueError(f"duplicate {what}")
    for row in ordered:
        for name, kind in _FIELDS[type(row)]:
            if kind is str and "\x00" in getattr(row, name):
                raise ValueError(f"{name} contains a NUL character, not representable in CSV")


@dataclass(frozen=True)
class FunctionalityTable:
    rows: tuple[FunctionalityTableRow, ...]

    def __post_init__(self):
        _order(self, lambda r: r.filename, "Filename in functionality table")


@dataclass(frozen=True)
class ContributionTable:
    rows: tuple[ContributionTableRow, ...]

    def __post_init__(self):
        _order(self, lambda r: (r.student, r.file), "(Student, File) in contribution table")


# each table type's column names and row type
_SCHEMAS = {
    FunctionalityTable: (FUNCTIONALITY_COLUMNS, FunctionalityTableRow),
    ContributionTable: (CONTRIBUTION_COLUMNS, ContributionTableRow),
}
# each row type's (field name, type), in column order: str, int or int | None
_FIELDS = {row: list(typing.get_type_hints(row).items()) for _, row in _SCHEMAS.values()}


def write_csv(table: FunctionalityTable | ContributionTable, destination) -> int:
    """Write the table; returns the number of bytes written.

    `destination` may be a path or a binary file object.
    """
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(_SCHEMAS[type(table)][0])
    for row in table.rows:
        values = (getattr(row, name) for name, _ in _FIELDS[type(row)])
        writer.writerow(["" if value is None else str(value) for value in values])
    data = buf.getvalue().encode("utf-8")
    if hasattr(destination, "write"):
        destination.write(data)
    else:
        write_atomic(destination, data)
    return len(data)


def _parse(value: str, kind, column: str, line_no: int):
    """A cell's value as its column's field type."""
    if kind is str:
        return value
    if value == "" and kind == int | None:
        return None
    try:
        return int(value)
    except ValueError:
        raise MalformedCsv(line_no, f"column {column!r}: not an integer: {value!r}")


def read_csv(source) -> FunctionalityTable | ContributionTable:
    """Parse a table written by write_csv (or hand-authored to the schema).

    The header row selects the schema; a header that matches neither
    raises SchemaMismatch naming the offending column.
    """
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
    for table_type, (columns, row_type) in _SCHEMAS.items():
        if header == list(columns):
            break
    else:
        for columns, _ in _SCHEMAS.values():
            if header and header[0] == columns[0]:
                missing = [c for c in columns if c not in header]
                extra = [c for c in header if c not in columns]
                offending = (missing + extra or [columns[0]])[0]
                raise SchemaMismatch(offending, "header does not match schema")
        raise SchemaMismatch(header[0] if header else "<empty>", "unrecognized header")

    body = records[1:]
    for line_no, record in enumerate(body, start=2):
        if len(record) != len(columns):
            raise MalformedCsv(line_no, f"expected {len(columns)} fields, got {len(record)}")

    kinds = [kind for _, kind in _FIELDS[row_type]]
    rows = [
        row_type(*(_parse(cell, kind, col, no) for cell, kind, col in zip(rec, kinds, columns)))
        for no, rec in enumerate(body, start=2)
    ]
    return table_type(rows=tuple(rows))


def solo_functions_text(pairs: list[tuple[str, int]]) -> str:
    return "; ".join(f"{name}:{score}" for name, score in pairs)
