"""Acceptance suite: one test per exit criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion
lines; every criterion pins its tolerance here, nothing is deferred.
"""

from __future__ import annotations

import functools
import json
import time
from pathlib import Path

import pytest

from complexity_corpus import CORPUS, total_functions
from conftest import JUNE, random_script
from contribsum import synthfix
from contribsum.agents import chain
from contribsum.agents.provider import MockProvider, ModelTier
from contribsum.attribution import (
    blame_snapshot,
    build_contribution_set,
    AttributionOptions,
)
from contribsum.cli import main
from contribsum.identity import UNMAPPED
from contribsum.metrics import cyclomatic, notebook_complexity
from contribsum.report import RunMeta, render
from contribsum.store import CostLedger
from contribsum.tables import (
    CONTRIBUTION_COLUMNS, ContributionTable, ContributionTableRow, write_csv,
)

import session_common
from test_cli import make_workspace

GOLDEN_DIR = Path(__file__).parent / "golden"
DATA_DIR = Path(__file__).parent / "data"


def criterion(name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] {name}")
                raise
            print(f"[PASS] {name}")
            return result

        return wrapper

    return decorate


@criterion("attribution oracle equivalence: 0 mismatched lines on all fixtures, < 10 s")
def test_attribution_oracle_equivalence(tmp_path):
    started = time.monotonic()
    suite = synthfix.standard_suite()
    assert len(suite) >= 10
    mismatches = 0
    for script, _unbound in suite:
        handle, truth = synthfix.build(script, tmp_path / script.name)
        attrs = blame_snapshot(handle, handle.head_ref, truth.roster, excludes=())
        got = {}
        for a in attrs:
            got.setdefault(a.path, []).append((a.content, a.commit))
        want = {
            path: [(t.content, truth.hash_of(t.step)) for t in lines]
            for path, lines in truth.expected_lines("final").items()
        }
        for path in set(got) | set(want):
            g, w = got.get(path, []), want.get(path, [])
            mismatches += sum(1 for x, y in zip(g, w) if x != y) + abs(len(g) - len(w))
    elapsed = time.monotonic() - started
    assert mismatches == 0, f"{mismatches} mismatched lines"
    assert elapsed < 10.0, f"oracle suite took {elapsed:.1f}s"


@criterion("failure-mode suite: comment injection, unmerged branch, zero-commit, co-author")
def test_failure_mode_suite(tmp_path, pool):
    # (a) comment injection: committer credited; fabricated claim flagged
    handle, truth = synthfix.build_standard_fixture("comment_injection", tmp_path / "ci")
    attrs = blame_snapshot(handle, handle.head_ref, truth.roster, excludes=())
    injected = [a for a in attrs if a.path == "export.py"]
    assert injected and all(a.student.id == "bob" for a in injected)
    cset = build_contribution_set(handle, JUNE, truth.roster)
    alice = truth.roster.by_id("alice")
    misled = chain.StudentSummary(
        student=alice,
        headline="claims the export feature",
        per_file_bullets=[("export.py", "wrote the CSV export")],
    )
    report = chain.validate_summary(misled, cset)
    assert report.status == "flagged"
    assert report.flags[0][1] == "file-not-touched"

    # (b) unmerged branch: absent by default, present and labeled on request
    workspace = tmp_path / "branchwork"
    config = make_workspace(workspace, {"team-x": "unmerged_branch"})
    assert main(["analyze", "--config", str(config)]) == 0
    default_report = (workspace / "out" / "team-x" / "week-1" / "report.md").read_text()
    assert "cache.py" not in default_report
    workspace2 = tmp_path / "branchwork2"
    config2 = make_workspace(workspace2, {"team-x": "unmerged_branch"})
    assert main(
        ["analyze", "--config", str(config2), "--include-branch", "experiment"]
    ) == 0
    included = (workspace2 / "out" / "team-x" / "week-1" / "report.md").read_text()
    assert "## Unmerged branch: experiment" in included
    assert "cache.py" in included

    # (c) zero-commit student appears explicitly
    handle, truth = synthfix.build_standard_fixture("zero_commit_student", tmp_path / "zc")
    cset = build_contribution_set(handle, JUNE, truth.roster)
    assert [s.id for s in cset.zero_commit_students] == ["carol"]
    mock = MockProvider()
    tier = ModelTier("synthesis", "m", 128_000, 0, 0)
    bundle = chain.SynthesisBundle(
        functionality_rows=[],
        contribution_rows=[],
        sprint_instructions="",
        project_description="",
        roles_enabled=False,
        roster=truth.roster,
        contribution_set=cset,
    )
    summaries, team_summary = chain.synthesize(pool(mock), tier, bundle, "t")
    carol_summary = next(s for s in summaries if s.student.id == "carol")
    assert carol_summary.headline == chain.NO_CONTRIBUTION_TEXT
    doc = render(summaries, team_summary, RunMeta(team="t", window=JUNE))
    assert chain.NO_CONTRIBUTION_TEXT in doc.markdown
    assert len(doc.student_sections) == len(truth.roster.students)

    # (d) co-author splitting on/off
    handle, truth = synthfix.build_standard_fixture("coauthored_commit", tmp_path / "co")
    on = build_contribution_set(handle, JUNE, truth.roster, AttributionOptions(split_coauthors=True))
    assert {
        (sid, ev.path): ev.lines_owned
        for sid, rows in on.per_student.items()
        for ev in rows
        if ev.lines_owned
    } == truth.expected_owned_counts("final", split=True)
    assert any(ev.lines_owned for ev in on.evidence_for("bob"))
    off = build_contribution_set(handle, JUNE, truth.roster, AttributionOptions(split_coauthors=False))
    assert not any(ev.lines_owned for ev in off.evidence_for("bob"))


@criterion("complexity oracle: hand-counted corpus exact; 5 notebook pairs identical")
def test_complexity_oracle():
    assert total_functions() >= 15
    for source, expected in CORPUS:
        report = cyclomatic(source)
        got = {f.name: f.score for f in report.functions}
        assert got == expected, f"hand count mismatch: {got} != {expected}"
    pairs = 0
    for source, _ in CORPUS[:5]:
        notebook = json.dumps({"cells": [{"cell_type": "code", "source": source}]})
        assert notebook_complexity(notebook) == cyclomatic(source)
        pairs += 1
    assert pairs == 5


@criterion("pipeline determinism: consecutive mock runs byte-identical and equal to goldens")
def test_pipeline_determinism(tmp_path):
    artifacts = ("functionality.csv", "contribution.csv", "report.md")
    teams = {"team-alpha": "merged_branch", "team-beta": "zero_commit_student"}
    outputs = []
    for run in ("one", "two"):
        workspace = tmp_path / run
        config = make_workspace(workspace, teams)
        assert main(["analyze", "--config", str(config)]) == 0
        outputs.append(
            {
                (team, name): (workspace / "out" / team / "week-1" / name).read_bytes()
                for team in teams
                for name in artifacts
            }
        )
    assert outputs[0] == outputs[1], "consecutive runs differ"
    for (team, name), data in outputs[0].items():
        golden = GOLDEN_DIR / team / name
        assert golden.exists(), f"golden file missing: {golden}"
        assert data == golden.read_bytes(), f"{team}/{name} deviates from golden"


@criterion("partition invariant: 100 randomized histories, < 60 s")
def test_partition_invariant(tmp_path):
    started = time.monotonic()
    for seed in range(100):
        script = random_script(seed)
        handle, truth = synthfix.build(script, tmp_path / f"h{seed}")
        attrs = blame_snapshot(handle, handle.head_ref, truth.roster, excludes=())
        per_file_blame: dict[str, int] = {}
        for a in attrs:
            per_file_blame[a.path] = per_file_blame.get(a.path, 0) + 1
        want = {p: len(ls) for p, ls in truth.expected_lines("final").items()}
        assert per_file_blame == want, f"seed {seed}: blame partition broken"

        cset = build_contribution_set(handle, JUNE, truth.roster, AttributionOptions(exclude_globs=()))
        per_file_evidence: dict[str, int] = {}
        for rows in cset.per_student.values():
            for ev in rows:
                per_file_evidence[ev.path] = per_file_evidence.get(ev.path, 0) + ev.lines_owned
        per_file_evidence = {p: n for p, n in per_file_evidence.items() if n}
        assert per_file_evidence == want, f"seed {seed}: evidence partition broken"
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"partition sweep took {elapsed:.1f}s"


@criterion("CSV round-trip: 1000 randomized tables, zero failures")
def test_csv_round_trip_bulk():
    import csv
    import io
    import random as random_module

    rng = random_module.Random(777)
    specials = [",", '"', "\n", "\r\n", "'", ";", "ü", "漢", "😀", "\t", " "]

    def wild():
        return "".join(
            rng.choice(specials) if rng.random() < 0.45 else chr(rng.randint(32, 126))
            for _ in range(rng.randint(0, 50))
        )

    failures = 0
    for i in range(1000):
        rows = {}
        for _ in range(rng.randint(0, 6)):
            key = (f"s{rng.randint(0, 4)}", f"f{rng.randint(0, 9)}-{wild()}")
            rows[key] = ContributionTableRow(
                student=key[0],
                file=key[1],
                description=wild(),
                lines_owned=rng.randint(0, 10**6),
                lines_added_in_window=rng.randint(0, 10**6),
                solo_functions=wild(),
            )
        table = ContributionTable(rows=tuple(rows.values()))
        buf = io.BytesIO()
        write_csv(table, buf)
        header, *records = csv.reader(
            io.StringIO(buf.getvalue().decode("utf-8"), newline=""), strict=True
        )
        back = ContributionTable(rows=tuple(
            ContributionTableRow(student, file, description, int(owned), int(added), solo)
            for student, file, description, owned, added, solo in records
        ))
        if header != list(CONTRIBUTION_COLUMNS) or back != table:
            failures += 1
    assert failures == 0


@criterion("cost ledger: replayed session equals hand-computed total within $0.005")
def test_cost_ledger_replay(tmp_path):
    from contribsum.agents.provider import ReplayProvider

    session_dir = DATA_DIR / session_common.SESSION_DIR_NAME
    assert session_dir.exists(), "recorded session fixture missing"

    ledger = CostLedger()
    session_common.run_session(ReplayProvider(session_dir), tmp_path, ledger)

    # hand-computed: read the recorded token counts and multiply explicitly
    expected = 0.0
    per_tier_rates = {
        session_common.ANALYSIS_TIER.model_id: (0.00015, 0.0006),
        session_common.SYNTHESIS_TIER.model_id: (0.0025, 0.01),
    }
    recorded_calls = 0
    for path in session_dir.glob("*.json"):
        entry = json.loads(path.read_text())
        rate_in, rate_out = per_tier_rates[entry["request"]["model"]]
        expected += entry["response"]["input_tokens"] / 1000.0 * rate_in
        expected += entry["response"]["output_tokens"] / 1000.0 * rate_out
        recorded_calls += 1
    assert recorded_calls == len(ledger.entries)
    assert abs(ledger.total - expected) <= 0.005, (ledger.total, expected)

    # magnitude sanity: $4 for ~130 summaries, within one order of magnitude
    summaries = 2
    scaled = ledger.total / summaries * 130
    assert 0.4 <= scaled <= 40.0, f"scaled semester cost ${scaled:.2f} implausible vs $4"


@criterion("report shape: Table-style skeleton, roles only when enabled, closed enum")
def test_report_shape(tmp_path, pool):
    import re

    handle, truth = synthfix.build(session_common.session_script(), tmp_path / "jd")
    roster = truth.roster
    window = session_common.SESSION_WINDOW
    cset = build_contribution_set(handle, window, roster)

    def run(roles_enabled):
        sends = pool(MockProvider())
        functionality, contribution_rows = session_common.analysis_rows(sends, cset, roster)
        bundle = chain.SynthesisBundle(
            functionality_rows=functionality,
            contribution_rows=contribution_rows,
            sprint_instructions="Ship login and recovery flows.",
            project_description="A clinical trials portal with secure access.",
            roles_enabled=roles_enabled,
            roster=roster,
            contribution_set=cset,
        )
        summaries, team_summary = chain.synthesize(
            sends, session_common.SYNTHESIS_TIER, bundle, session_common.SESSION_TEAM
        )
        for s in summaries:
            s.validation = chain.validate_summary(s, cset)
        return render(
            summaries,
            team_summary,
            RunMeta(team="demo", window=window, roles_enabled=roles_enabled),
        )

    plain = run(roles_enabled=False)
    text = plain.markdown
    assert len(plain.student_sections) == len(roster.students)
    assert text.count("## Overall contribution of the team") == 1
    john = next(s for s in plain.student_sections if "John Doe" in s)
    assert "Summary: " in john
    assert "security and authentication" in john
    assert "Contributions:" in john
    assert re.search(r"^- `auth\.py`: ", john, re.M)
    assert "Role:" not in text

    with_roles = run(roles_enabled=True)
    role_lines = re.findall(r"^Role: (\w+) (.+)$", with_roles.markdown, re.M)
    assert role_lines, "roles flag on must produce Role lines"
    for seniority, role in role_lines:
        assert seniority in chain.SENIORITIES
        assert role in chain.ROLES
    assert with_roles.markdown.count("Role:") == sum(
        1 for s in with_roles.student_sections if "Role:" in s
    )


@criterion("budget invariant: every mock-run request within 80% of tier budget")
def test_budget_invariant(tmp_path):
    # the mock provider asserts the rule on every call; a full pipeline run
    # over the fixtures exercising it is the evidence
    teams = {
        "team-alpha": "merged_branch",
        "team-beta": "interleaved_edits",
        "team-gamma": "coauthored_commit",
    }
    config = make_workspace(tmp_path, teams)
    assert main(["analyze", "--config", str(config)]) == 0

    # and the assertion itself fires when the rule would be violated
    strict = MockProvider(budgets={"m": 100})
    with pytest.raises(AssertionError):
        strict.send([{"role": "user", "content": "x" * 1000}], "m")
