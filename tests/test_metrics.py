"""Metrics: classification, cyclomatic scoring, notebooks, tag counts."""

from __future__ import annotations

import json
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from complexity_corpus import CORPUS
from contribsum import metrics
from contribsum.errors import MalformedNotebook
from contribsum.metrics import (
    classify_file,
    compute_file_metrics,
    cyclomatic,
    function_spans,
    notebook_complexity,
    notebook_source,
    tag_count,
)


class TestClassifyFile:
    def test_python_is_script(self):
        assert classify_file("app.py", b"print(1)\n") == "script"

    def test_html_is_markup(self):
        assert classify_file("index.html", b"<html></html>") == "markup"

    def test_notebook(self):
        assert classify_file("analysis.ipynb", b"{}") == "notebook"

    def test_png_is_other(self):
        assert classify_file("logo.png", b"\x89PNG\r\n") == "other"

    def test_nul_byte_forces_other_even_for_py_extension(self):
        assert classify_file("weird.py", b"data\x00more") == "other"


class TestCyclomatic:
    @pytest.mark.parametrize("source, expected", CORPUS)
    def test_hand_counted_corpus(self, source, expected):
        report = cyclomatic(source)
        got = {f.name: f.score for f in report.functions}
        assert got == expected

    def test_straight_line_lower_bound(self):
        report = cyclomatic("def f():\n    return 1\n")
        assert report.functions[0].score == 1

    def test_file_score_sums_functions(self):
        source = (
            "def plain(x):\n"
            "    return x\n"
            "\n"
            "def branchy(a, b):\n"
            "    if a:\n"
            "        return 1\n"
            "    if b:\n"
            "        return 2\n"
            "    for i in range(3):\n"
            "        a += i\n"
            "    return a\n"
        )
        report = cyclomatic(source)
        assert {f.name: f.score for f in report.functions} == {"plain": 1, "branchy": 4}
        assert report.file_score == 5  # no top-level statements

    def test_top_level_logic_adds_one(self):
        report = cyclomatic("def f():\n    return 1\n\nVALUE = f()\n")
        assert report.file_score == 2

    def test_empty_source_scores_one(self):
        report = cyclomatic("")
        assert report.file_score == 1
        assert report.functions == ()
        assert not report.unparseable

    def test_unsegmentable_source_flagged_not_raised(self):
        report = cyclomatic('"""only an unterminated string\nnothing else here\n')
        assert report.file_score == 1
        assert report.unparseable

    def test_comment_and_blank_lines_do_not_change_score(self):
        base = "def f(x):\n    if x:\n        return 1\n    return 0\n"
        padded = (
            "def f(x):\n"
            "    # leading comment about ifs and ors\n"
            "    if x:\n"
            "\n"
            "        return 1\n"
            "    # trailing comment\n"
            "    return 0\n"
        )
        assert cyclomatic(base).functions[0].score == cyclomatic(padded).functions[0].score

    def test_concatenation_preserves_individual_scores(self):
        first = "def alpha(x):\n    return x and 1\n"
        second = "def beta(y):\n    if y:\n        return y\n    return 0\n"
        separate = {
            f.name: f.score
            for source in (first, second)
            for f in cyclomatic(source).functions
        }
        combined = {f.name: f.score for f in cyclomatic(first + "\n" + second).functions}
        assert combined == separate


# every line boundary that str.splitlines splits on
_LINE_BREAKS = (
    "\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029",
)
_CODE_PIECES = (
    "def f(a):", "    if a and b:", "        return 1", "    elif c or d:", "    for x in y:",
    "    while z:", "    try:", "    except E:", "    v = 1 if a else 2",
    "    w = [i for i in a if i]", "class K:", "    def m(self):", "        def inner():",
    "@wrap", "x = 1", "# note", '"""', "'''", "    s = 'it' + \"s\"", '    t = """open',
    "    match a:", "        case 1:", "", "    ", "\t",
)


class TestBlameJoinedSource:
    """Blame replay holds a file as its `splitlines` lines; joining them
    with "\\n" must score exactly as the file's own text does."""

    @settings(max_examples=500, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.one_of(st.sampled_from(_CODE_PIECES), st.text(max_size=12)),
                st.sampled_from(_LINE_BREAKS),
            ),
            max_size=30,
        ),
        st.booleans(),
    )
    def test_cyclomatic_of_joined_lines_equals_cyclomatic(self, lines, trailing_break):
        text = "".join(piece + brk for piece, brk in lines)
        if lines and not trailing_break:
            text = text[: -len(lines[-1][1])]
        assert cyclomatic(text) == cyclomatic("\n".join(text.splitlines()))


def _scan_per_character(source: str) -> list[metrics._ScanLine]:
    """Reference scanner: the one-character-at-a-time form of `metrics._scan`."""
    out: list[metrics._ScanLine] = []
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
            ch = raw[i]
            if ch == "#":
                break
            if raw.startswith('"""', i) or raw.startswith("'''", i):
                triple = raw[i] * 3
                opens_string = True
                i += 3
                continue
            if ch in "\"'":
                opens_string = True
                j = i + 1
                while j < n:
                    if raw[j] == "\\":
                        j += 2
                        continue
                    if raw[j] == ch:
                        break
                    j += 1
                i = j + 1 if j < n else n
                buf.append(" ")
                continue
            buf.append(ch)
            i += 1
        code = "".join(buf)
        expanded = raw.expandtabs()
        indent = len(expanded) - len(expanded.lstrip())
        continuation_only = started_inside and not code.strip() and not opens_string
        out.append(metrics._ScanLine(no, indent, code, opens_string, continuation_only))
    return out


# quotes and backslashes weigh most: escapes matter only next to a quote
_SCAN_TOKENS = ('"', "'", "\\") * 3 + (
    "#", '"""', "'''", "\t", " ", "    ", "x", "def f(a):", " if ", " and ", ":",
)


class TestScanner:
    """`_scan` jumps to the next `#` or quote; it must equal the scanner that
    steps one character at a time, and so must `cyclomatic` built on it."""

    @settings(max_examples=1000, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.sampled_from(_SCAN_TOKENS), st.sampled_from(_LINE_BREAKS), st.text(max_size=4)
            ),
            max_size=40,
        ).map("".join)
    )
    def test_equals_per_character_scanner(self, source):
        assert metrics._scan(source) == _scan_per_character(source)
        with mock.patch.object(metrics, "_scan", _scan_per_character):
            reference = cyclomatic(source)
        assert cyclomatic(source) == reference

    def test_corpus(self):
        for source, _ in CORPUS:
            assert metrics._scan(source) == _scan_per_character(source)


def _quadratic_cyclomatic(source: str) -> metrics.ComplexityReport:
    """Reference scorer: each def's span found by a scan of the lines after
    it, and each line's owner by a scan of every span."""
    lines = metrics._scan(source)
    spans: list[tuple[str, int, int]] = []
    for idx, line in enumerate(lines):
        match = metrics._DEF_RE.match(line.code.strip())
        if not match:
            continue
        end = line.no
        for later in lines[idx + 1:]:
            if later.continuation_only:
                continue
            if not later.code.strip() and not later.opens_string:
                continue  # blank or comment-only line
            if later.indent <= line.indent:
                break
            end = later.no
        spans.append((match.group(1), line.no, end))

    def innermost(line_no: int) -> int | None:
        best: int | None = None
        for i, (_, start, end) in enumerate(spans):
            if start <= line_no <= end:
                if best is None or start > spans[best][1]:
                    best = i
        return best

    scores = [1] * len(spans)
    has_top_level_statement = False
    for line in lines:
        if line.continuation_only:
            continue
        owner = innermost(line.no)
        if owner is not None:
            scores[owner] += metrics._decision_points(line)
        elif line.code.strip() and not line.code.strip().startswith("@"):
            has_top_level_statement = True
    has_content = any(raw.strip() for raw in source.splitlines())
    return metrics.ComplexityReport(
        functions=tuple(
            metrics.FunctionComplexity(name, start, end, score)
            for (name, start, end), score in zip(spans, scores)
        ),
        file_score=max(1, sum(scores) + (1 if has_top_level_statement else 0)),
        unparseable=has_content and not spans and not has_top_level_statement,
    )


class TestSweep:
    """`cyclomatic` finds spans and owners in one stack sweep; it must score
    exactly as the rule that rescans the file for each def and every span
    for each line."""

    @settings(max_examples=500, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(("", "  ", "    ", "        ", "\t", " \t")),
                st.one_of(
                    st.sampled_from([piece.strip() for piece in _CODE_PIECES]),
                    st.sampled_from(("def g():", "async def h(x):", "def k(): return a or b")),
                    st.text(max_size=6),
                ),
                st.sampled_from(_LINE_BREAKS),
            ),
            max_size=40,
        )
    )
    def test_equals_quadratic_rule(self, lines):
        source = "".join(indent + piece + brk for indent, piece, brk in lines)
        assert cyclomatic(source) == _quadratic_cyclomatic(source)

    def test_corpus(self):
        for source, _ in CORPUS:
            assert cyclomatic(source) == _quadratic_cyclomatic(source)


class TestFunctionSpans:
    def test_single_function_span(self):
        spans = function_spans("def f(x):\n    a = x\n    return a\n")
        assert spans == [("f", 1, 3)]

    def test_no_functions(self):
        assert function_spans("x = 1\ny = 2\n") == []

    def test_nested_function_contained_in_outer(self):
        source = (
            "def outer(x):\n"
            "    def inner(y):\n"
            "        return y + 1\n"
            "    return inner(x)\n"
        )
        spans = dict((name, (start, end)) for name, start, end in function_spans(source))
        outer, inner = spans["outer"], spans["inner"]
        assert outer == (1, 4)
        assert inner == (2, 3)
        assert outer[0] < inner[0] and inner[1] <= outer[1]

    def test_span_set_matches_complexity_report(self):
        for source, _ in CORPUS:
            report = cyclomatic(source)
            assert [(f.name, f.start, f.end) for f in report.functions] == function_spans(source)

    def test_trailing_comments_do_not_extend_span(self):
        source = "def f():\n    return 1\n    # trailing note\nx = 2\n"
        assert function_spans(source)[0][2] == 2


def _notebook(cells: list[str]) -> str:
    return json.dumps(
        {
            "cells": [
                {"cell_type": "code", "source": cell, "outputs": []} for cell in cells
            ],
            "nbformat": 4,
        }
    )


# documents the notebook reader cannot score: not JSON, nested past the
# interpreter's recursion limit, a non-text piece in a source list, a null
# source
_MALFORMED_NOTEBOOKS = (
    b"{not json",
    b"[" * 100_000 + b"]" * 100_000,
    json.dumps({"cells": [{"cell_type": "code", "source": [1]}]}).encode(),
    json.dumps({"cells": [{"cell_type": "code", "source": None}]}).encode(),
)


class TestNotebookComplexity:
    def test_no_code_cells(self):
        doc = json.dumps({"cells": [{"cell_type": "markdown", "source": "# hi"}]})
        report = notebook_complexity(doc)
        assert report.file_score == 1
        assert report.functions == ()

    def test_invalid_json_raises(self):
        for document in _MALFORMED_NOTEBOOKS:
            with pytest.raises(MalformedNotebook):
                notebook_complexity(document.decode())

    def test_missing_cells_raises(self):
        with pytest.raises(MalformedNotebook):
            notebook_complexity(json.dumps({"nbformat": 4}))

    def test_single_cell_wrap_equals_script(self):
        for source, _ in CORPUS[:5]:
            assert notebook_complexity(_notebook([source])) == cyclomatic(source)

    def test_two_cells_equal_marked_concatenation(self):
        first = "def f(x):\n    if x:\n        return 1\n    return 0\n"
        second = "def g(y):\n    return [v for v in y if v]\n"
        doc = _notebook([first, second])
        assert notebook_complexity(doc) == cyclomatic(notebook_source(doc))
        got = {f.name: f.score for f in notebook_complexity(doc).functions}
        assert got == {"f": 2, "g": 3}

    def test_markdown_cells_ignored(self):
        doc = json.dumps(
            {
                "cells": [
                    {"cell_type": "markdown", "source": "if and or everywhere"},
                    {"cell_type": "code", "source": "x = 1\n"},
                ]
            }
        )
        report = notebook_complexity(doc)
        assert report.file_score == 1

    def test_list_form_sources(self):
        doc = json.dumps(
            {
                "cells": [
                    {"cell_type": "code", "source": ["def f(x):\n", "    return x\n"]}
                ]
            }
        )
        report = notebook_complexity(doc)
        assert [f.name for f in report.functions] == ["f"]


class TestTagCount:
    def test_empty(self):
        assert tag_count("") == 0

    def test_hand_counted(self):
        assert tag_count("<div><p>hi</p><br/></div>") == 3  # div, p, br

    def test_comments_excluded(self):
        assert tag_count("<!-- <div> -->") == 0

    def test_unterminated_comment_swallows_rest(self):
        assert tag_count("<p>x</p><!-- <div><span>") == 1

    def test_attribute_order_invariant(self):
        a = '<input type="text" name="q" disabled>'
        b = '<input name="q" disabled type="text">'
        assert tag_count(a) == tag_count(b) == 1

    def test_doctype_and_closers_not_counted(self):
        assert tag_count("<!DOCTYPE html><html></html>") == 1


class TestComputeFileMetrics:
    def test_script_gets_complexity(self):
        metrics = compute_file_metrics("a.py", b"def f():\n    return 1\n")
        assert metrics.kind == "script"
        assert metrics.complexity is not None
        assert metrics.tag_count is None
        assert metrics.line_count == 2

    def test_markup_gets_tag_count(self):
        metrics = compute_file_metrics("a.html", b"<p>hello</p>")
        assert metrics.kind == "markup"
        assert metrics.tag_count == 1
        assert metrics.complexity is None

    def test_binary_other(self):
        metrics = compute_file_metrics("blob.bin", b"\x00\x01\x02")
        assert metrics.kind == "other"
        assert metrics.line_count == 0
        assert metrics.byte_size == 3

    def test_malformed_notebook_degrades_to_flagged_report(self):
        for document in (b"{nope", *_MALFORMED_NOTEBOOKS):
            metrics = compute_file_metrics("broken.ipynb", document)
            assert metrics.kind == "notebook"
            assert metrics.complexity is not None
            assert metrics.complexity.unparseable, document[:40]
