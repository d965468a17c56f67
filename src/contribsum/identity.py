"""Resolve raw git signatures to roster students.

Roster file format: UTF-8 text, one student per line,
`id | display name | email1, email2, ...`; `#` starts a comment line.
Both emails and display names act as aliases, normalized by lowercasing
and trimming. Co-author trailers are parsed so pair-programming credit
is not silently dropped.
"""

from __future__ import annotations

import re
from collections.abc import Iterable
from dataclasses import dataclass, field

from .errors import DuplicateAlias, MalformedRoster
from .gitio import Commit


@dataclass(frozen=True)
class StudentId:
    id: str
    display_name: str


# Reserved pseudo-student: commits whose signature matches no roster entry
# aggregate here instead of disappearing from reports.
UNMAPPED = StudentId(id="__unmapped__", display_name="Unmapped authors")


@dataclass(frozen=True)
class CoAuthorTag:
    name: str
    email: str
    source_commit: str = ""


@dataclass(frozen=True)
class Roster:
    students: tuple[StudentId, ...]
    aliases: dict[str, str] = field(default_factory=dict)  # normalized alias -> student id

    def by_id(self, student_id: str) -> StudentId | None:
        for s in self.students:
            if s.id == student_id:
                return s
        return None


def _normalize(alias: str) -> str:
    return alias.strip().lower()


def load_roster(document: str) -> Roster:
    """Parse a roster document into students plus a normalized alias map."""
    students: list[StudentId] = []
    aliases: dict[str, str] = {}
    seen_ids: set[str] = set()

    def claim(alias: str, student_id: str) -> None:
        norm = _normalize(alias)
        if not norm:
            return
        if norm in aliases and aliases[norm] != student_id:
            raise DuplicateAlias(norm, aliases[norm], student_id)
        aliases[norm] = student_id

    for line_no, raw in enumerate(document.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split("|")]
        if len(parts) != 3:
            raise MalformedRoster(line_no, f"expected 'id | name | emails', got {len(parts)} fields")
        student_id, name, emails = parts
        if not student_id:
            raise MalformedRoster(line_no, "empty student id")
        if student_id in seen_ids:
            raise MalformedRoster(line_no, f"duplicate student id {student_id!r}")
        if not name:
            raise MalformedRoster(line_no, "empty display name")
        seen_ids.add(student_id)
        students.append(StudentId(id=student_id, display_name=name))
        claim(name, student_id)
        for email in emails.split(","):
            email = email.strip()
            if not email:
                continue
            if "@" not in email:
                raise MalformedRoster(line_no, f"not an email address: {email!r}")
            claim(email, student_id)

    return Roster(students=tuple(students), aliases=aliases)


def resolve(roster: Roster, name: str, email: str) -> StudentId | None:
    """Map a signature to a student; email match wins over name match.

    Returns None (not an error) when neither alias matches; callers
    surface the signature as an unmapped-author warning.
    """
    for alias in (_normalize(email), _normalize(name)):
        student_id = roster.aliases.get(alias)
        if student_id:
            return roster.by_id(student_id)
    return None


def unmapped_signatures(roster: Roster, commits: Iterable[Commit]) -> list[str]:
    """`Name <email>` of each author no roster alias matches, in first-seen
    order. Each distinct signature is resolved once."""
    unmapped: dict[tuple[str, str], bool] = {}
    for commit in commits:
        signature = (commit.author_name, commit.author_email)
        if signature not in unmapped:
            unmapped[signature] = resolve(roster, *signature) is None
    return [f"{name} <{email}>" for (name, email), missing in unmapped.items() if missing]


_COAUTHOR_RE = re.compile(
    r"^\s*co-authored-by:\s*(?P<name>[^<>]+?)\s*<(?P<email>[^<>\s]+@[^<>\s]+)>\s*$",
    re.IGNORECASE,
)


def parse_coauthors(message: str, source_commit: str = "") -> list[CoAuthorTag]:
    """Extract well-formed Co-authored-by trailers, in message order."""
    tags: list[CoAuthorTag] = []
    for line in message.splitlines():
        match = _COAUTHOR_RE.match(line)
        if match:
            tags.append(
                CoAuthorTag(
                    name=match.group("name").strip(),
                    email=match.group("email"),
                    source_commit=source_commit,
                )
            )
    return tags
