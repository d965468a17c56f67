"""Per-file quantitative measures: size, lines, complexity, tag counts.

Complexity is computed at tokenizer level (line scanning with string and
comment stripping), not from a full AST, so mid-sprint broken code still
gets a score. The score of a function is 1 plus its decision points:
branch keywords (if/elif, match-case arms), loop keywords (for/while),
exception handlers, boolean connectives (and/or), conditional
expressions, and comprehension filter clauses. A file's score is the sum
of its function scores, plus 1 when any top-level statement exists
outside all functions, with a floor of 1.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

from .errors import MalformedNotebook

SCRIPT_EXTENSIONS = (".py",)
NOTEBOOK_EXTENSIONS = (".ipynb",)
MARKUP_EXTENSIONS = (".html", ".htm")

CELL_BOUNDARY = "# ---- cell boundary ----"


@dataclass(frozen=True)
class FunctionComplexity:
    name: str
    start: int  # 1-based line of the def
    end: int  # last code line of the body
    score: int


@dataclass(frozen=True)
class ComplexityReport:
    functions: tuple[FunctionComplexity, ...]
    file_score: int
    unparseable: bool = False


@dataclass(frozen=True)
class FileMetrics:
    path: str
    byte_size: int
    line_count: int
    kind: str  # "script" | "notebook" | "markup" | "other"
    complexity: ComplexityReport | None = None
    tag_count: int | None = None


def classify_file(path: str, content: bytes) -> str:
    """Extension-based kind; a NUL byte in the first 8 KiB forces "other"."""
    if b"\0" in content[:8192]:
        return "other"
    lower = path.lower()
    if lower.endswith(SCRIPT_EXTENSIONS):
        return "script"
    if lower.endswith(NOTEBOOK_EXTENSIONS):
        return "notebook"
    if lower.endswith(MARKUP_EXTENSIONS):
        return "markup"
    return "other"


_SPECIAL_RE = re.compile(r"[#\"']")  # the characters that open a comment or a string
# the rest of a one-line string through its closing quote; a backslash escapes one character
_STRING_END_RE = {q: re.compile(rf"(?:[^\\{q}]|\\.)*{q}", re.DOTALL) for q in "\"'"}


@dataclass
class _ScanLine:
    no: int
    indent: int
    code: str  # raw line with strings and comments blanked out
    opens_string: bool  # a string literal starts on this line
    continuation_only: bool  # entirely inside a triple-quoted string


def _scan(source: str) -> list[_ScanLine]:
    """Strip string literals and comments, tracking triple quotes across lines."""
    out: list[_ScanLine] = []
    triple: str | None = None
    for no, raw in enumerate(source.splitlines(), start=1):
        started_inside = triple is not None
        opens_string = False
        buf: list[str] = []
        i, n = 0, len(raw)
        while i < n:
            if triple:
                j = raw.find(triple, i)
                if j < 0:
                    i = n
                else:
                    i = j + 3
                    triple = None
                continue
            special = _SPECIAL_RE.search(raw, i)
            j = special.start() if special else n
            buf.append(raw[i:j])  # plain code up to the next special character
            if special is None or raw[j] == "#":
                break
            quote = raw[j]
            opens_string = True
            if raw.startswith(quote * 3, j):
                triple = quote * 3
                i = j + 3
                continue
            end = _STRING_END_RE[quote].match(raw, j + 1)
            i = end.end() if end else n
            buf.append(" ")
        code = "".join(buf)
        expanded = raw.expandtabs()
        indent = len(expanded) - len(expanded.lstrip())
        continuation_only = started_inside and not code.strip() and not opens_string
        out.append(_ScanLine(no, indent, code, opens_string, continuation_only))
    return out


_DEF_RE = re.compile(r"^(?:async\s+)?def\s+(\w+)")
_DECISION_RE = re.compile(r"\b(?:if|elif|for|while|and|or|except)\b")
_CASE_RE = re.compile(r"^case\b.*:\s*$")


@dataclass
class _Span:
    name: str
    start: int  # line of the def
    indent: int
    end: int = 0  # last line with code or a string before the def's body closes
    score: int = 1


def _sweep(lines: list[_ScanLine]) -> tuple[list[_Span], bool]:
    """Every function's span and score, in def order, and whether any
    statement lies outside all of them, in one pass over the lines.

    Only lines with code or a string count. Such a line closes each open
    def indented as deep as it or deeper: the def's span ends at the line
    before it that counts. Open defs form a stack ordered by indent, so a
    line closes a run of them on top, and its decision points belong to
    the innermost def left open, or to none.
    """
    spans: list[_Span] = []
    enclosing: list[_Span] = []  # open defs, innermost last
    last = 0  # the last line that counts
    top_level = False
    for line in lines:
        code = line.code.strip()
        if line.continuation_only or not (code or line.opens_string):
            continue
        while enclosing and enclosing[-1].indent >= line.indent:
            enclosing.pop().end = last
        match = _DEF_RE.match(code)
        if match:
            spans.append(_Span(match.group(1), line.no, line.indent))
            enclosing.append(spans[-1])
        if enclosing:
            enclosing[-1].score += _decision_points(line)
        elif code and not code.startswith("@"):
            top_level = True
        last = line.no
    for span in enclosing:
        span.end = last
    return spans, top_level


def _decision_points(line: _ScanLine) -> int:
    count = len(_DECISION_RE.findall(line.code))
    if _CASE_RE.match(line.code.strip()):
        count += 1
    return count


def function_spans(source: str) -> list[tuple[str, int, int]]:
    """(name, start line, end line) for every function, nested ones included."""
    return [(span.name, span.start, span.end) for span in _sweep(_scan(source))[0]]


def cyclomatic(source: str) -> ComplexityReport:
    """Score a script. Never raises: unsegmentable input scores 1, flagged."""
    spans, has_top_level_statement = _sweep(_scan(source))
    functions = tuple(FunctionComplexity(s.name, s.start, s.end, s.score) for s in spans)
    file_score = sum(s.score for s in spans) + (1 if has_top_level_statement else 0)
    has_content = any(raw.strip() for raw in source.splitlines())
    unparseable = has_content and not spans and not has_top_level_statement
    return ComplexityReport(
        functions=functions,
        file_score=max(1, file_score),
        unparseable=unparseable,
    )


def notebook_source(document: str) -> str:
    """Concatenate a notebook's code cells with comment boundary markers.

    A single-cell notebook yields its cell source verbatim, so wrapping a
    script in one cell scores identically to the raw script. Raises
    MalformedNotebook for a document that is not JSON, nests past the
    interpreter's recursion limit, has no `cells` list, or has a code cell
    whose source is neither text nor a list of text.
    """
    try:
        data = json.loads(document)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise MalformedNotebook(f"not valid notebook JSON: {exc}") from exc
    if not isinstance(data, dict) or not isinstance(data.get("cells"), list):
        raise MalformedNotebook("missing top-level 'cells' list")
    pieces: list[str] = []
    for cell in data["cells"]:
        if not isinstance(cell, dict) or cell.get("cell_type") != "code":
            continue
        source = cell.get("source", "")
        if isinstance(source, list) and all(isinstance(piece, str) for piece in source):
            source = "".join(source)
        if not isinstance(source, str):
            raise MalformedNotebook("a code cell's source is neither text nor a list of text")
        pieces.append(source)
    if not pieces:
        return ""
    joined = pieces[0]
    for piece in pieces[1:]:
        if joined and not joined.endswith("\n"):
            joined += "\n"
        joined += CELL_BOUNDARY + "\n" + piece
    return joined


def notebook_complexity(document: str) -> ComplexityReport:
    """Score a notebook's code cells; markdown and outputs are ignored."""
    return cyclomatic(notebook_source(document))


_HTML_COMMENT_RE = re.compile(r"<!--.*?(-->|\Z)", re.DOTALL)
_OPEN_TAG_RE = re.compile(r"<\s*[a-zA-Z]")


def tag_count(markup: str) -> int:
    """Opening tags (self-closing included); comments and closers excluded."""
    stripped = _HTML_COMMENT_RE.sub("", markup)
    return len(_OPEN_TAG_RE.findall(stripped))


def text_lines(content: bytes) -> list[str]:
    """A blob's lines, decoded as UTF-8 with undecodable bytes replaced."""
    return content.decode("utf-8", "replace").splitlines()


def compute_file_metrics(path: str, content: bytes) -> FileMetrics:
    """Classify one snapshot file and attach the measures its kind calls for."""
    kind = classify_file(path, content)
    byte_size = len(content)
    if kind == "other" and b"\0" in content[:8192]:
        line_count = 0
    else:
        line_count = len(text_lines(content))
    complexity: ComplexityReport | None = None
    tag: int | None = None
    if kind == "script":
        complexity = cyclomatic(content.decode("utf-8", "replace"))
    elif kind == "notebook":
        try:
            complexity = notebook_complexity(content.decode("utf-8", "replace"))
        except MalformedNotebook:
            complexity = ComplexityReport(functions=(), file_score=1, unparseable=True)
    elif kind == "markup":
        tag = tag_count(content.decode("utf-8", "replace"))
    return FileMetrics(
        path=path,
        byte_size=byte_size,
        line_count=line_count,
        kind=kind,
        complexity=complexity,
        tag_count=tag,
    )
