"""The functionality and contribution tables, written as CSV files for
instructors beside each team's report; the run reads neither back.

A table's columns are its row type's fields, in order. A `str` field is a
text column, an `int` field an integer column, and an `int | None` field
an integer column whose empty cell is None.

RFC 4180 serialization (UTF-8, header row, minimal quoting, CRLF
records). Rows are stored and written in primary-key order, so equal
tables always serialize to identical bytes.
"""

from __future__ import annotations

import csv
import io
import typing
from dataclasses import dataclass

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


def write_csv(table: FunctionalityTable | ContributionTable, destination) -> None:
    """Write the table to `destination`, a binary file object."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(_SCHEMAS[type(table)][0])
    for row in table.rows:
        values = (getattr(row, name) for name, _ in _FIELDS[type(row)])
        writer.writerow(["" if value is None else str(value) for value in values])
    destination.write(buf.getvalue().encode("utf-8"))


def solo_functions_text(pairs: list[tuple[str, int]]) -> str:
    return "; ".join(f"{name}:{score}" for name, score in pairs)
