"""Per-team pipeline: git process counts and per-team branch warnings."""

from __future__ import annotations

import subprocess
from pathlib import Path

from conftest import JUNE, ROSTER_TEXT
from contribsum import pipeline, synthfix
from contribsum.agents.provider import MockProvider, ModelTier
from contribsum.config import RunConfig
from contribsum.identity import load_roster
from contribsum.store import CostLedger, Store
from contribsum.synthfix import Insert, RepoScript, SetFile, Step

ANALYSIS = ModelTier("analysis", "mini-model", 128_000, 0.0, 0.0)
SYNTHESIS = ModelTier("synthesis", "big-model", 128_000, 0.0, 0.0)
FILES = tuple(f"src/mod_{i}.py" for i in range(5))
AUTHORS = (("Alice Lee", "alice@campus.edu"), ("Bob Roy", "bob@campus.edu"))


def _config(tmp_path: Path, repos: list[tuple[str, str]], branches=()) -> RunConfig:
    return RunConfig(
        repos=repos,
        roster_path=str(tmp_path / "roster.txt"),
        window=JUNE,
        analysis_tier=ANALYSIS,
        synthesis_tier=SYNTHESIS,
        include_branches=tuple(branches),
        out_dir=str(tmp_path / "out"),
    )


def _history(commits: int) -> RepoScript:
    """`commits` main-line commits over the same five files, plus a `side` branch."""
    steps = [
        Step(*AUTHORS[0], message="scaffold", ops=tuple(SetFile(p, ("x = 0",)) for p in FILES))
    ]
    for n in range(1, commits):
        steps.append(
            Step(
                *AUTHORS[n % 2],
                message=f"edit {n}",
                ops=(Insert(FILES[n % len(FILES)], 1, (f"v_{n} = {n}",)),),
            )
        )
    steps.append(
        Step(*AUTHORS[1], message="side work", create_branch="side",
             ops=(SetFile("side.py", ("y = 1",)),))
    )
    return RepoScript(name=f"spawns-{commits}", roster_text=ROSTER_TEXT, steps=steps)


def _git_spawns(monkeypatch, run) -> int:
    spawns = []

    class CountingPopen(subprocess.Popen):
        def __init__(self, args, *rest, **kwargs):
            if args[0] == "git":
                spawns.append(args)
            super().__init__(args, *rest, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(subprocess, "Popen", CountingPopen)
        run()
    return len(spawns)


class TestGitSpawns:
    def test_spawns_do_not_grow_with_commit_count(self, tmp_path, monkeypatch):
        roster = load_roster(ROSTER_TEXT)
        counts = {}
        for commits in (30, 300):
            handle, _ = synthfix.build(_history(commits), tmp_path / f"repo-{commits}")
            for branches in ((), ("side",)):
                cfg = _config(tmp_path / f"run-{commits}-{len(branches)}", [], branches)

                def run():
                    result = pipeline.analyze_team(
                        "team", handle.root_path, cfg, roster, MockProvider(),
                        Store(tmp_path / "cache"), CostLedger(),
                    )
                    assert result.ok, result.error

                counts[commits, branches] = _git_spawns(monkeypatch, run)
        assert counts[30, ()] == counts[300, ()]
        assert counts[30, ("side",)] == counts[300, ("side",)]
        assert counts[30, ("side",)] > counts[30, ()]


class TestIncludeBranch:
    def test_missing_branch_is_a_team_warning(self, tmp_path):
        repos = []
        for fixture in ("unmerged_branch", "sole_author"):
            handle, _ = synthfix.build_standard_fixture(fixture, tmp_path / fixture)
            repos.append((fixture, handle.root_path))
        cfg = _config(tmp_path, repos, ("experiment",))
        results = pipeline.run_analysis(
            cfg, load_roster(ROSTER_TEXT), MockProvider(), Store(tmp_path / "cache"), CostLedger()
        )
        by_team = {r.team: r for r in results}
        assert all(r.ok for r in results), [r.error for r in results]
        assert "branch experiment not found; no section for it" in by_team["sole_author"].warnings
        assert not any("not found" in w for w in by_team["unmerged_branch"].warnings)
        reports = {
            team: Path(r.artifacts["report.md"]).read_text(encoding="utf-8")
            for team, r in by_team.items()
        }
        assert "## Unmerged branch: experiment" in reports["unmerged_branch"]
        assert "Unmerged branch" not in reports["sole_author"]
