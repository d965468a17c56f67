"""Roster loading, signature resolution, co-author trailer parsing."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from contribsum.errors import DuplicateAlias, MalformedRoster
from contribsum.identity import load_roster, parse_coauthors, resolve


BASIC = (
    "# course roster\n"
    "alice | Alice Lee | alice@campus.edu, alee@gmail.com\n"
    "bob | Bob Roy | bob@campus.edu\n"
)


class TestLoadRoster:
    def test_two_students_three_emails(self):
        roster = load_roster(BASIC)
        assert [s.id for s in roster.students] == ["alice", "bob"]
        emails = [a for a in roster.aliases if "@" in a]
        assert len(emails) == 3

    def test_duplicate_email_rejected(self):
        text = (
            "alice | Alice Lee | shared@campus.edu\n"
            "bob | Bob Roy | shared@campus.edu\n"
        )
        with pytest.raises(DuplicateAlias):
            load_roster(text)

    def test_mixed_case_email_normalized(self):
        roster = load_roster("alice | Alice Lee | A@X.com\n")
        assert resolve(roster, "someone", "a@x.com").id == "alice"
        assert resolve(roster, "someone", "A@X.COM").id == "alice"

    def test_malformed_line_reports_location(self):
        with pytest.raises(MalformedRoster) as err:
            load_roster("alice | Alice Lee | alice@campus.edu\nbroken line\n")
        assert err.value.line_no == 2

    def test_missing_at_sign_rejected(self):
        with pytest.raises(MalformedRoster):
            load_roster("alice | Alice Lee | not-an-email\n")

    def test_duplicate_student_id_rejected(self):
        text = "alice | Alice Lee | a@x.com\nalice | Alice Other | b@x.com\n"
        with pytest.raises(MalformedRoster):
            load_roster(text)

    def test_comments_and_blanks_ignored(self):
        roster = load_roster("\n# comment\n\nalice | Alice Lee | a@x.com\n")
        assert len(roster.students) == 1


class TestResolve:
    def test_email_match(self):
        roster = load_roster(BASIC)
        assert resolve(roster, "whoever", "bob@campus.edu").id == "bob"

    def test_name_match_when_email_absent(self):
        roster = load_roster(BASIC)
        assert resolve(roster, "Alice Lee", "alice@elsewhere.org").id == "alice"

    def test_email_wins_over_name(self):
        roster = load_roster(BASIC)
        # signature claims Bob's name but carries Alice's email
        assert resolve(roster, "Bob Roy", "alice@campus.edu").id == "alice"

    def test_unknown_returns_none_not_error(self):
        roster = load_roster(BASIC)
        assert resolve(roster, "CI Bot", "bot@nowhere.invalid") is None

    def test_pure_function(self):
        roster = load_roster(BASIC)
        first = resolve(roster, "Alice Lee", "alice@campus.edu")
        second = resolve(roster, "Alice Lee", "alice@campus.edu")
        assert first == second


class TestParseCoauthors:
    def test_no_trailers(self):
        assert parse_coauthors("fix the parser\n\nlong body text") == []

    def test_single_trailer(self):
        tags = parse_coauthors("pair work\n\nCo-authored-by: Ana <ana@x.com>")
        assert len(tags) == 1
        assert tags[0].name == "Ana"
        assert tags[0].email == "ana@x.com"

    def test_two_trailers_in_order(self):
        message = (
            "mob session\n\n"
            "Co-authored-by: Ana <ana@x.com>\n"
            "Co-authored-by: Ben <ben@y.org>\n"
        )
        tags = parse_coauthors(message)
        assert [t.email for t in tags] == ["ana@x.com", "ben@y.org"]

    def test_case_insensitive_key(self):
        tags = parse_coauthors("x\n\nco-authored-by: Ana <ana@x.com>")
        assert len(tags) == 1

    def test_malformed_trailers_ignored(self):
        message = (
            "x\n\n"
            "Co-authored-by: no email here\n"
            "Co-authored-by: <only@email.com> backwards\n"
        )
        assert parse_coauthors(message) == []

    def test_source_commit_attached(self):
        tags = parse_coauthors("x\n\nCo-authored-by: Ana <ana@x.com>", source_commit="abc123")
        assert tags[0].source_commit == "abc123"

    @given(st.text(max_size=500))
    def test_count_bounded_and_emails_verbatim(self, message):
        tags = parse_coauthors(message)
        assert len(tags) <= len(message.splitlines())
        for tag in tags:
            assert tag.email in message
