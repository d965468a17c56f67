"""Render synthesized summaries into per-student + team Markdown reports.

Rendering is deterministic and total: no provider calls happen here, and
any valid summary set produces a document. Validation flags are never
dropped; flagged claims stay visible with an inline caution marker and a
warnings section, because silent omission and silent hallucination both
erode trust in the reports.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from datetime import datetime, timezone

from .agents.chain import RoleAssignment, StudentSummary, TeamSummary, ValidationReport
from .errors import TeamMismatch
from .identity import StudentId
from .ingest import AnalysisWindow

TEAM_SECTION_TITLE = "Overall contribution of the team"
ROLE_DISCLAIMER = (
    "_Role labels are assigned by a model and are not comparable across "
    "teams; treat them as conversation starters, not grades._"
)


@dataclass(frozen=True)
class RunMeta:
    """Everything render() needs beyond the summaries themselves."""

    team: str
    window: AnalysisWindow
    roles_enabled: bool = False
    unmapped_authors: tuple[str, ...] = ()
    # (branch name, per-student line counts, file list) for --include-branch
    branch_sections: tuple[tuple[str, tuple[tuple[str, int], ...], tuple[str, ...]], ...] = ()
    # student id -> path -> (lines_owned, lines_added_in_window)
    evidence: dict[str, dict[str, tuple[int, int]]] = field(default_factory=dict)


@dataclass
class ReportDocument:
    student_sections: list[str]
    team_section: str
    warnings: list[str]
    markdown: str


def _student_section(summary: StudentSummary, meta: RunMeta) -> tuple[str, list[str]]:
    lines = [f"## {summary.student.display_name}", ""]
    lines.append(f"Summary: {summary.headline}")
    warnings: list[str] = []
    flagged = {claim: reason for claim, reason in (summary.validation.flags if summary.validation else ())}
    if summary.per_file_bullets:
        lines.append("")
        lines.append("Contributions:")
        lines.append("")
        for path, text in summary.per_file_bullets:
            bullet = f"- `{path}`: {text}"
            reason = flagged.get(f"{path}: {text}")
            if reason:
                bullet += f" **[caution: {reason}]**"
                warnings.append(
                    f"{summary.student.display_name}: claim about `{path}` "
                    f"is unsupported ({reason})"
                )
            lines.append(bullet)
    if meta.roles_enabled and summary.role is not None:
        lines.append("")
        lines.append(f"Role: {summary.role.seniority} {summary.role.role}")
        lines.append(ROLE_DISCLAIMER)
    return "\n".join(lines), warnings


def render(
    summaries: list[StudentSummary], team: TeamSummary, meta: RunMeta
) -> ReportDocument:
    """Assemble the report document; sections ordered by display name."""
    ordered = sorted(summaries, key=lambda s: (s.student.display_name, s.student.id))
    warnings: list[str] = []
    student_sections: list[str] = []
    for summary in ordered:
        section, flags = _student_section(summary, meta)
        student_sections.append(section)
        warnings.extend(flags)

    team_lines = [f"## {TEAM_SECTION_TITLE}", "", team.narrative]
    if team.progress_bullets:
        team_lines.append("")
        for bullet in team.progress_bullets:
            team_lines.append(f"- {bullet}")
    team_section = "\n".join(team_lines)

    for author in meta.unmapped_authors:
        warnings.append(f"unmapped author signature: {author}")

    extra_sections: list[str] = []
    for branch, per_student, files in meta.branch_sections:
        lines = [f"## Unmerged branch: {branch}", ""]
        lines.append(
            "Work below exists only on this branch; it is not part of the "
            "default-branch snapshot above."
        )
        lines.append("")
        for name, count in per_student:
            lines.append(f"- {name}: {count} lines")
        if files:
            lines.append("")
            lines.append("Files: " + ", ".join(f"`{f}`" for f in sorted(files)))
        extra_sections.append("\n".join(lines))
        warnings.append(f"included unmerged branch: {branch}")

    parts = [f"# Contribution report: {meta.team} ({meta.window.label or 'window'})", ""]
    parts.extend(s + "\n" for s in student_sections)
    parts.append(team_section + "\n")
    parts.extend(s + "\n" for s in extra_sections)
    if warnings:
        warn_lines = ["## Warnings", ""]
        warn_lines.extend(f"- {w}" for w in warnings)
        parts.append("\n".join(warn_lines) + "\n")
    markdown = "\n".join(parts)

    return ReportDocument(
        student_sections=student_sections,
        team_section=team_section,
        warnings=warnings,
        markdown=markdown,
    )


@dataclass(frozen=True)
class ReportState:
    """Exactly what `render` takes, saved as `report_state.json` by `analyze`
    and loaded back by `contribsum render` and the next window's delta.

    A state saved without `window_end`, `unmapped_authors` or
    `branch_sections` loads with an open-ended window and none of them.
    """

    summaries: tuple[StudentSummary, ...]
    team_summary: TeamSummary
    meta: RunMeta

    def render(self) -> ReportDocument:
        return render(list(self.summaries), self.team_summary, self.meta)

    def to_json(self) -> str:
        meta = self.meta
        state = {
            "team": meta.team,
            "window_label": meta.window.label,
            "window_start": meta.window.start.isoformat(),
            "window_end": meta.window.end.isoformat(),
            "roles_enabled": meta.roles_enabled,
            "unmapped_authors": list(meta.unmapped_authors),
            "branch_sections": [
                [branch, [list(count) for count in per_student], list(files)]
                for branch, per_student, files in meta.branch_sections
            ],
            "student_files": {
                sid: {p: list(v) for p, v in paths.items()} for sid, paths in meta.evidence.items()
            },
            # also in "summaries"; kept so readers of the older format still load it
            "student_names": {s.student.id: s.student.display_name for s in self.summaries},
            "summaries": [
                {
                    "id": s.student.id,
                    "name": s.student.display_name,
                    "headline": s.headline,
                    "bullets": [[p, t] for p, t in s.per_file_bullets],
                    "role": [s.role.seniority, s.role.role] if s.role else None,
                    "flags": [[c, r] for c, r in (s.validation.flags if s.validation else ())],
                }
                for s in self.summaries
            ],
            "team_summary": {
                "narrative": self.team_summary.narrative,
                "bullets": list(self.team_summary.progress_bullets),
            },
        }
        return json.dumps(state, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> ReportState:
        """The state `to_json` saved as `text`. ValueError when it is not
        JSON, is nested past the interpreter's recursion limit, or a field
        is missing or of the wrong shape."""
        try:
            return cls._from_saved(json.loads(text))
        except (AttributeError, IndexError, KeyError, TypeError, RecursionError) as exc:
            raise ValueError(f"malformed report state: {exc!r}") from exc

    @classmethod
    def _from_saved(cls, state) -> ReportState:
        start = datetime.fromisoformat(state["window_start"])
        end = state.get("window_end")
        window = AnalysisWindow(
            start=start,
            end=datetime.fromisoformat(end) if end else datetime.max.replace(tzinfo=timezone.utc),
            label=state["window_label"],
        )
        summaries = tuple(
            StudentSummary(
                student=StudentId(id=item["id"], display_name=item["name"]),
                headline=item["headline"],
                per_file_bullets=[tuple(b) for b in item["bullets"]],
                role=RoleAssignment(*reversed(item["role"])) if item["role"] else None,
                validation=ValidationReport(
                    status="flagged" if item["flags"] else "clean",
                    flags=tuple(tuple(f) for f in item["flags"]),
                ),
            )
            for item in state["summaries"]
        )
        team = state["team_summary"]
        team_summary = TeamSummary(window, team["narrative"], tuple(team["bullets"]))
        meta = RunMeta(
            team=state["team"],
            window=window,
            roles_enabled=state["roles_enabled"],
            unmapped_authors=tuple(state.get("unmapped_authors", ())),
            branch_sections=tuple(
                (branch, tuple(tuple(count) for count in per_student), tuple(files))
                for branch, per_student, files in state.get("branch_sections", ())
            ),
            evidence={
                sid: {p: _line_counts(v) for p, v in paths.items()}
                for sid, paths in state["student_files"].items()
            },
        )
        return cls(summaries, team_summary, meta)


def _line_counts(saved) -> tuple[int, int]:
    """A saved (lines owned, lines added) pair, checked to be two integers."""
    owned, added = saved
    if type(owned) is not int or type(added) is not int:
        raise ValueError(f"line counts are not integers: {saved!r}")
    return owned, added


def diff_windows(earlier: ReportState, later: ReportState) -> str:
    """Per-student digest of new files and evidence deltas between windows."""
    before_meta, after_meta = earlier.meta, later.meta
    if before_meta.team != after_meta.team:
        raise TeamMismatch(f"cannot diff {before_meta.team!r} against {after_meta.team!r}")
    before_names, after_names = (
        {s.student.id: s.student.display_name for s in state.summaries}
        for state in (earlier, later)
    )
    lines: list[str] = []
    ids = sorted(
        set(before_meta.evidence) | set(after_meta.evidence),
        key=lambda sid: after_names.get(sid, before_names.get(sid, sid)),
    )
    for sid in ids:
        before = before_meta.evidence.get(sid, {})
        after = after_meta.evidence.get(sid, {})
        name = after_names.get(sid) or before_names.get(sid) or sid
        entries: list[str] = []
        for path in sorted(set(before) | set(after)):
            b_owned, _ = before.get(path, (0, 0))
            a_owned, a_added = after.get(path, (0, 0))
            if path not in before:
                entries.append(f"- touched new file `{path}` ({a_owned} lines owned)")
            elif path not in after:
                entries.append(f"- no longer owns lines in `{path}`")
            elif b_owned != a_owned:
                entries.append(f"- `{path}`: lines owned {b_owned} -> {a_owned}")
            elif before.get(path) != after.get(path) and a_added:
                entries.append(f"- `{path}`: {a_added} lines reworked this window")
        if entries:
            lines.append(f"{name}:")
            lines.extend(entries)
            lines.append("")
    if not lines:
        return ""
    header = (
        f"Changes for {after_meta.team} from {before_meta.window.label or 'previous window'} "
        f"to {after_meta.window.label or 'this window'}:\n"
    )
    return header + "\n" + "\n".join(lines).rstrip() + "\n"
