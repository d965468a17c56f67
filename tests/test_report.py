"""Report rendering shape, the saved report state and window-to-window diffs."""

from __future__ import annotations

import json
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given, settings, strategies as st

from conftest import JUNE
from contribsum.agents.chain import (
    NO_CONTRIBUTION_TEXT,
    ROLES,
    SENIORITIES,
    RoleAssignment,
    StudentSummary,
    TeamSummary,
    ValidationReport,
)
from contribsum.errors import TeamMismatch
from contribsum.identity import StudentId
from contribsum.ingest import AnalysisWindow
from contribsum.report import ROLE_DISCLAIMER, ReportState, RunMeta, diff_windows, render

ALICE = StudentId("alice", "Alice Lee")
BOB = StudentId("bob", "Bob Roy")
CAROL = StudentId("carol", "Carol Weiss")


def _summary(student, headline="did things", bullets=None, role=None, flags=()):
    return StudentSummary(
        student=student,
        headline=headline,
        per_file_bullets=bullets or [],
        role=role,
        validation=ValidationReport(
            status="flagged" if flags else "clean", flags=tuple(flags)
        ),
    )


def _team():
    return TeamSummary(
        narrative="The team made steady progress on the portal.",
        progress_bullets=("Backend API online", "Login flow working"),
    )


class TestRender:
    def test_sections_ordered_by_display_name(self):
        summaries = [
            _summary(CAROL, headline=NO_CONTRIBUTION_TEXT),
            _summary(ALICE, bullets=[("auth.py", "built auth")]),
            _summary(BOB, bullets=[("app.py", "routes")]),
        ]
        doc = render(summaries, _team(), RunMeta(team="team-x", window=JUNE))
        assert len(doc.student_sections) == 3
        names = [s.splitlines()[0] for s in doc.student_sections]
        assert names == ["## Alice Lee", "## Bob Roy", "## Carol Weiss"]

    def test_table_shape_summary_contributions_team(self):
        summaries = [_summary(ALICE, bullets=[("auth.py", "implemented login")])]
        doc = render(summaries, _team(), RunMeta(team="team-x", window=JUNE))
        section = doc.student_sections[0]
        assert "Summary: " in section
        assert "Contributions:" in section
        assert "- `auth.py`: implemented login" in section
        assert doc.team_section.startswith("## Overall contribution of the team")
        assert doc.markdown.count("## Overall contribution of the team") == 1

    def test_zero_commit_student_gets_explicit_section(self):
        summaries = [_summary(CAROL, headline=NO_CONTRIBUTION_TEXT)]
        doc = render(summaries, _team(), RunMeta(team="team-x", window=JUNE))
        assert NO_CONTRIBUTION_TEXT in doc.student_sections[0]

    def test_flagged_claim_marked_not_dropped(self):
        bullets = [("payments.py", "built payments")]
        flags = [("payments.py: built payments", "file-not-touched")]
        summaries = [_summary(ALICE, bullets=bullets, flags=flags)]
        doc = render(summaries, _team(), RunMeta(team="team-x", window=JUNE))
        assert "- `payments.py`: built payments **[caution: file-not-touched]**" in doc.markdown
        assert any("file-not-touched" in w for w in doc.warnings)
        assert "## Warnings" in doc.markdown

    def test_role_rendered_only_when_enabled_with_disclaimer(self):
        role = RoleAssignment(role="Backend Engineer", seniority="Junior")
        summaries = [_summary(ALICE, role=role)]
        on = render(summaries, _team(), RunMeta(team="t", window=JUNE, roles_enabled=True))
        assert "Role: Junior Backend Engineer" in on.markdown
        assert ROLE_DISCLAIMER in on.markdown
        off = render(summaries, _team(), RunMeta(team="t", window=JUNE, roles_enabled=False))
        assert "Role:" not in off.markdown

    def test_unmapped_authors_in_warnings(self):
        doc = render(
            [_summary(ALICE)],
            _team(),
            RunMeta(team="t", window=JUNE, unmapped_authors=("CI Bot <bot@x>",)),
        )
        assert any("CI Bot" in w for w in doc.warnings)

    def test_branch_section_labeled(self):
        doc = render(
            [_summary(ALICE)],
            _team(),
            RunMeta(
                team="t",
                window=JUNE,
                branch_sections=((
                    "experiment",
                    (("Bob Roy", 4),),
                    ("cache.py",),
                ),),
            ),
        )
        assert "## Unmerged branch: experiment" in doc.markdown
        assert "- Bob Roy: 4 lines" in doc.markdown
        assert "`cache.py`" in doc.markdown

    def test_rendering_total_and_deterministic(self):
        summaries = [_summary(ALICE, bullets=[("a.py", "x")]), _summary(BOB)]
        meta = RunMeta(team="t", window=JUNE)
        first = render(summaries, _team(), meta).markdown
        second = render(summaries, _team(), meta).markdown
        assert first == second


def _state(team="t", files=None):
    return ReportState(
        (_summary(ALICE),), _team(), RunMeta(team=team, window=JUNE, evidence=files or {})
    )


# any text, non-ASCII and control characters included
texts = st.text(max_size=12)
pairs = st.tuples(texts, texts)


@st.composite
def windows(draw):
    offset = timezone(timedelta(minutes=draw(st.integers(-12 * 60, 14 * 60))))
    start = draw(st.datetimes(datetime(2000, 1, 1), datetime(2100, 1, 1))).replace(tzinfo=offset)
    length = draw(st.timedeltas(timedelta(microseconds=1), timedelta(days=400)))
    return AnalysisWindow(start=start, end=start + length, label=draw(texts))


@st.composite
def summaries(draw, student):
    flags = draw(st.lists(pairs, max_size=3).map(tuple))
    return StudentSummary(
        student=student,
        headline=draw(texts),
        per_file_bullets=draw(st.lists(pairs, max_size=3)),
        role=draw(
            st.none() | st.builds(RoleAssignment, st.sampled_from(ROLES), st.sampled_from(SENIORITIES))
        ),
        validation=ValidationReport(status="flagged" if flags else "clean", flags=flags),
    )


@st.composite
def report_states(draw):
    window = draw(windows())
    students = draw(
        st.lists(st.builds(StudentId, texts, texts), max_size=4, unique_by=lambda s: s.id)
    )
    sids = st.sampled_from([s.id for s in students]) if students else texts
    owned = st.tuples(st.integers(0, 10**6), st.integers(0, 10**6))
    meta = RunMeta(
        team=draw(texts),
        window=window,
        roles_enabled=draw(st.booleans()),
        unmapped_authors=tuple(draw(st.lists(texts, max_size=3))),
        branch_sections=tuple(
            draw(
                st.lists(
                    st.tuples(
                        texts,
                        st.lists(st.tuples(texts, st.integers(0, 10**6)), max_size=3).map(tuple),
                        st.lists(texts, max_size=3).map(tuple),
                    ),
                    max_size=2,
                )
            )
        ),
        evidence=draw(st.dictionaries(sids, st.dictionaries(texts, owned, max_size=3), max_size=4)),
    )
    team = TeamSummary(draw(texts), tuple(draw(st.lists(texts, max_size=3))))
    return ReportState(tuple(draw(summaries(s)) for s in students), team, meta)


class TestReportState:
    @settings(max_examples=100, deadline=None)
    @given(report_states())
    def test_json_round_trip_renders_the_same(self, state):
        loaded = ReportState.from_json(state.to_json())
        assert loaded == state
        assert loaded.render() == state.render()
        assert loaded.to_json() == state.to_json()

    def test_state_without_window_end_loads_open_ended(self):
        state = ReportState((), _team(), RunMeta(team="team-x", window=JUNE))
        text = state.to_json().replace(f'  "window_end": "{JUNE.end.isoformat()}",\n', "")
        assert "window_end" not in text
        loaded = ReportState.from_json(text)
        assert loaded.meta.window.start == JUNE.start
        assert loaded.meta.window.end == datetime.max.replace(tzinfo=timezone.utc)
        assert loaded.render().markdown == state.render().markdown


    @pytest.mark.parametrize("field, value", [
        ("student_files", {"alice": [1, 2]}),
        ("student_files", {"alice": {"a.py": ["5", "5"]}}),
        ("student_files", {"alice": {"a.py": [5, 5, 5]}}),
        ("student_files", {"alice": {"a.py": 5}}),
        ("summaries", [{"id": "alice"}]),
        ("team_summary", ["narrative"]),
        ("window_start", 7),
    ])
    def test_misshapen_field_raises_value_error(self, field, value):
        state = json.loads(_state(files={"alice": {"a.py": (5, 5)}}).to_json())
        state[field] = value
        with pytest.raises(ValueError):
            ReportState.from_json(json.dumps(state))


class TestDiffWindows:
    def test_identical_documents_empty_digest(self):
        files = {"alice": {"a.py": (10, 2)}}
        earlier = _state(files=files)
        later = _state(files=files)
        assert diff_windows(earlier, later) == ""

    def test_new_file_listed(self):
        earlier = _state(files={"alice": {"a.py": (10, 2)}})
        later = _state(files={"alice": {"a.py": (10, 0), "new.py": (5, 5)}})
        digest = diff_windows(earlier, later)
        assert "touched new file `new.py` (5 lines owned)" in digest
        assert "Alice Lee" in digest

    def test_owned_delta_listed(self):
        earlier = _state(files={"alice": {"a.py": (10, 2)}})
        later = _state(files={"alice": {"a.py": (14, 4)}})
        digest = diff_windows(earlier, later)
        assert "`a.py`: lines owned 10 -> 14" in digest

    def test_later_display_name_wins(self):
        earlier = _state(files={"alice": {"a.py": (10, 2)}})
        renamed = StudentId("alice", "Alice Lee-Roy")
        later = ReportState(
            (_summary(renamed),),
            _team(),
            RunMeta(team="t", window=JUNE, evidence={"alice": {"a.py": (14, 4)}}),
        )
        assert "Alice Lee-Roy:" in diff_windows(earlier, later)
        assert "Alice Lee:" in diff_windows(later, earlier)

    def test_team_mismatch(self):
        with pytest.raises(TeamMismatch):
            diff_windows(_state(team="one"), _state(team="two"))
