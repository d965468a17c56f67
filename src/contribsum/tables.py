"""The two intermediate CSV artifacts: functionality and contribution tables.

RFC 4180 serialization (UTF-8, header row, minimal quoting, CRLF records)
with lossless round-trips. Rows are stored and written in primary-key
order, so equal tables always serialize to identical bytes.
"""

from __future__ import annotations

import csv
import io
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


def _check_text(row, fields: tuple[str, ...]) -> None:
    # the csv module cannot represent NUL in any quoting mode
    for name in fields:
        if "\x00" in getattr(row, name):
            raise ValueError(f"{name} contains a NUL character, not representable in CSV")


@dataclass(frozen=True)
class FunctionalityTable:
    rows: tuple[FunctionalityTableRow, ...]

    def __post_init__(self):
        ordered = tuple(sorted(self.rows, key=lambda r: r.filename))
        object.__setattr__(self, "rows", ordered)
        names = [r.filename for r in ordered]
        if len(set(names)) != len(names):
            raise ValueError("duplicate Filename in functionality table")
        for row in ordered:
            _check_text(row, ("filename", "functionality", "difficulty"))


@dataclass(frozen=True)
class ContributionTable:
    rows: tuple[ContributionTableRow, ...]

    def __post_init__(self):
        ordered = tuple(sorted(self.rows, key=lambda r: (r.student, r.file)))
        object.__setattr__(self, "rows", ordered)
        keys = [(r.student, r.file) for r in ordered]
        if len(set(keys)) != len(keys):
            raise ValueError("duplicate (Student, File) in contribution table")
        for row in ordered:
            _check_text(row, ("student", "file", "description", "solo_functions"))


def _opt(value: int | None) -> str:
    return "" if value is None else str(value)


def _serialize(table: FunctionalityTable | ContributionTable) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    if isinstance(table, FunctionalityTable):
        writer.writerow(FUNCTIONALITY_COLUMNS)
        for r in table.rows:
            writer.writerow(
                [
                    r.filename,
                    r.functionality,
                    r.difficulty,
                    str(r.byte_size),
                    str(r.line_count),
                    _opt(r.complexity),
                    _opt(r.tag_count),
                ]
            )
    else:
        writer.writerow(CONTRIBUTION_COLUMNS)
        for r in table.rows:
            writer.writerow(
                [
                    r.student,
                    r.file,
                    r.description,
                    str(r.lines_owned),
                    str(r.lines_added_in_window),
                    r.solo_functions,
                ]
            )
    return buf.getvalue()


def write_csv(table: FunctionalityTable | ContributionTable, destination) -> int:
    """Write the table; returns the number of bytes written.

    `destination` may be a path or a binary file object.
    """
    data = _serialize(table).encode("utf-8")
    if hasattr(destination, "write"):
        destination.write(data)
    else:
        write_atomic(destination, data)
    return len(data)


def _parse_int(value: str, column: str, line_no: int) -> int:
    try:
        return int(value)
    except ValueError:
        raise MalformedCsv(line_no, f"column {column!r}: not an integer: {value!r}")


def _parse_opt_int(value: str, column: str, line_no: int) -> int | None:
    if value == "":
        return None
    return _parse_int(value, column, line_no)


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
    if header == list(FUNCTIONALITY_COLUMNS):
        expected = FUNCTIONALITY_COLUMNS
    elif header == list(CONTRIBUTION_COLUMNS):
        expected = CONTRIBUTION_COLUMNS
    else:
        for schema in (FUNCTIONALITY_COLUMNS, CONTRIBUTION_COLUMNS):
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

    if expected is FUNCTIONALITY_COLUMNS:
        rows = [
            FunctionalityTableRow(
                filename=rec[0],
                functionality=rec[1],
                difficulty=rec[2],
                byte_size=_parse_int(rec[3], "ByteSize", no),
                line_count=_parse_int(rec[4], "LineCount", no),
                complexity=_parse_opt_int(rec[5], "Complexity", no),
                tag_count=_parse_opt_int(rec[6], "TagCount", no),
            )
            for no, rec in enumerate(body, start=2)
        ]
        return FunctionalityTable(rows=tuple(rows))
    rows = [
        ContributionTableRow(
            student=rec[0],
            file=rec[1],
            description=rec[2],
            lines_owned=_parse_int(rec[3], "LinesOwned", no),
            lines_added_in_window=_parse_int(rec[4], "LinesAddedInWindow", no),
            solo_functions=rec[5],
        )
        for no, rec in enumerate(body, start=2)
    ]
    return ContributionTable(rows=tuple(rows))


def solo_functions_text(pairs: list[tuple[str, int]]) -> str:
    return "; ".join(f"{name}:{score}" for name, score in pairs)
