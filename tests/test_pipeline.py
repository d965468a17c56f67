"""Per-team pipeline: git process counts, per-team branch warnings, the
run-wide send pool, an endpoint that refuses concurrent requests, the
choice of the prior window, kept files, artifact writes and the fault
matrix."""

from __future__ import annotations

import _thread
import dataclasses
import json
import logging
import random
import shutil
import sqlite3
import subprocess
import sys
import threading
import time
import types
from collections import Counter
from contextlib import closing
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest

from conftest import (
    JUNE, NESTED, ROSTER_TEXT, HalfWriter, Recorder, commit_tree_entries, hang_cat_file,
    random_script, store_rows, with_tree_entries, write_file_layout,
)
from contribsum import (
    attribution, gitio, identity, ingest, pipeline, store as store_module, synthfix,
)
from contribsum.agents import chain
from contribsum.agents import provider as provider_module
from contribsum.agents.provider import (
    HttpProvider,
    MockProvider,
    ModelTier,
    ProviderResponse,
    ReplayProvider,
    extract_data_block,
    request_digest,
)
from contribsum.config import RunConfig
from contribsum.errors import ProviderError
from contribsum.identity import UNMAPPED, load_roster, parse_coauthors
from contribsum.ingest import AnalysisWindow
from contribsum.report import ReportState, RunMeta
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
    """`commits` main-line commits over the same five files, plus a `side`
    branch and a `topic` branch forked from it."""
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
    steps.append(
        Step(*AUTHORS[0], message="topic work", create_branch="topic",
             ops=(SetFile("topic.py", ("t = 1",)),))
    )
    return RepoScript(name=f"spawns-{commits}", roster_text=ROSTER_TEXT, steps=steps)


def _git_spawns(monkeypatch, run) -> list:
    spawns = []

    class CountingPopen(subprocess.Popen):
        def __init__(self, args, *rest, **kwargs):
            if args[0] == "git":
                spawns.append(args)
            super().__init__(args, *rest, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(subprocess, "Popen", CountingPopen)
        run()
    return spawns


def _record_hit(monkeypatch, cfg: RunConfig, store: Store, roster=None) -> pipeline.TeamResult:
    """The result of re-running `cfg`'s one team unchanged: the outputs
    record in its window's manifest stands in for it, so the run makes no
    store call, spawns one git process (the branch listing), starts no
    thread, records no ledger entry and writes no file; the result is
    marked unchanged."""
    def files() -> dict:
        out = Path(cfg.out_dir)
        return {p: (p.read_bytes(), p.stat().st_mtime_ns) for p in out.rglob("*") if p.is_file()}

    before = files()
    calls, results = [], []
    ledger = CostLedger()

    def logged(name: str, real):
        def call(*args):
            calls.append(name)
            return real(*args)
        return call

    def run():
        with monkeypatch.context() as patch:
            for owner, name in ((Store, "get"), (Store, "put"), (threading.Thread, "start")):
                patch.setattr(owner, name, logged(name, getattr(owner, name)))
            results.extend(pipeline.run_analysis(
                cfg, roster or load_roster(ROSTER_TEXT), MockProvider(), store, ledger
            ))

    spawns = _git_spawns(monkeypatch, run)
    (result,) = results
    assert result.ok and result.unchanged, result.error
    assert (calls, len(spawns), ledger.entries) == ([], 1, [])
    assert files() == before
    return result


class TestGitSpawns:
    def test_spawns_do_not_grow_with_commit_count(self, tmp_path, monkeypatch):
        """Each configuration runs twice on a store of its own: first cold,
        then with every provider answer in the store."""
        roster = load_roster(ROSTER_TEXT)
        counts = {}
        for commits in (30, 300):
            handle, _ = synthfix.build(_history(commits), tmp_path / f"repo-{commits}")
            for branches in ((), ("side",), ("side", "topic"), ("absent",)):
                name = f"run-{commits}-{'-'.join(branches)}"
                store = Store(tmp_path / name / "cache")
                for warm in (False, True):
                    cfg = _config(
                        tmp_path / name / str(warm), [("team", handle.root_path)], branches
                    )

                    def run():
                        (result,) = pipeline.run_analysis(
                            cfg, roster, MockProvider(), store, CostLedger()
                        )
                        assert result.ok, result.error

                    spawns = _git_spawns(monkeypatch, run)
                    counts[commits, branches, warm] = len(spawns)
                    assert sum("cat-file" in args for args in spawns) == 1  # one reader per team
        # one open_repo branch listing, one log stream and one cat-file
        # reader, plus one log stream per included branch that exists
        for commits in (30, 300):
            for warm in (False, True):
                assert counts[commits, (), warm] == 3
                assert counts[commits, ("side",), warm] == 4
                assert counts[commits, ("side", "topic"), warm] == 5
                assert counts[commits, ("absent",), warm] == 3


class TestStoreTraffic:
    def test_rows_are_the_provider_answers(self, tmp_path, monkeypatch):
        """The store holds provider answers alone: after a cold run every row
        reads back as a `ProviderResponse` and there is one row per provider
        send; a warm run into a fresh out dir sends nothing and adds no row,
        and a run again unchanged makes no store call. At 30 and 300 commits
        with 0, 1 or 2 branches."""
        roster = load_roster(ROSTER_TEXT)
        for commits in (30, 300):
            handle, _ = synthfix.build(_history(commits), tmp_path / f"repo-{commits}")
            for branches in ((), ("side",), ("side", "topic")):
                name = f"run-{commits}-{'-'.join(branches)}"
                store = Store(tmp_path / name / "cache")
                sends, rows = [], []
                for warm in (False, True):
                    # a fresh out dir: no outputs record
                    cfg = _config(tmp_path / name / str(warm), [("team", handle.root_path)],
                                  branches)
                    provider = CountingProvider()
                    (result,) = pipeline.run_analysis(cfg, roster, provider, store, CostLedger())
                    assert result.ok, result.error
                    sends.append(provider.sends)
                    rows.append(store_rows(store.directory))
                for body in rows[0].values():
                    ProviderResponse(**json.loads(json.loads(body)["payload_json"]))
                assert sends == [len(rows[0]), 0] and rows[0], (commits, branches)
                assert rows[1] == rows[0], (commits, branches)
                _record_hit(monkeypatch, cfg, store)


class TestIdentityResolution:
    SIGNATURES = (*AUTHORS, ("Carol Weiss", "carol@campus.edu"), ("CI Bot", "bot@ci.invalid"))

    def _steps(self) -> list[Step]:
        """60 main-line commits by four signatures, one unmapped, with
        co-author trailers on every fourth."""
        steps = [
            Step(*AUTHORS[0], message="scaffold", ops=tuple(SetFile(p, ("x = 0",)) for p in FILES))
        ]
        for n in range(1, 60):
            pair = (self.SIGNATURES[(n + 1) % 3],) if n % 4 == 0 else ()
            steps.append(
                Step(*self.SIGNATURES[n % 4], message=f"edit {n}", coauthors=pair,
                     ops=(Insert(FILES[n % len(FILES)], 1, (f"v_{n} = {n}",)),))
            )
        return steps

    def _resolve_calls(self, tmp_path, monkeypatch, steps, branches=()):
        """(handle, team result, every `identity.resolve` call) of one run."""
        handle, _ = synthfix.build(
            RepoScript(name="identities", roster_text=ROSTER_TEXT, steps=steps), tmp_path / "repo"
        )
        calls = []
        real_resolve = identity.resolve

        def counting_resolve(*args):
            calls.append(args)
            return real_resolve(*args)

        monkeypatch.setattr(identity, "resolve", counting_resolve)
        monkeypatch.setattr(attribution, "resolve", counting_resolve)
        cfg = _config(tmp_path / "run", [("team", handle.root_path)], branches)
        (result,) = pipeline.run_analysis(
            cfg, load_roster(ROSTER_TEXT), MockProvider(), Store(tmp_path / "cache"), CostLedger()
        )
        assert result.ok, result.error
        return handle, result, calls

    @staticmethod
    def _state(result) -> ReportState:
        return ReportState.from_json(
            (Path(result.artifacts["report.md"]).parent / pipeline.STATE_NAME).read_text()
        )

    def test_each_signature_resolved_once_per_team(self, tmp_path, monkeypatch):
        steps = self._steps() + [
            Step(*AUTHORS[1], message="side work", create_branch="side",
                 ops=(SetFile("side.py", ("y = 1",)),)),
            Step(*AUTHORS[0], message="main work", checkout="main",
                 ops=(Insert(FILES[0], 1, ("z = 1",)),)),
            Step(*AUTHORS[0], message="merge side", merge="side"),
        ]
        handle, result, calls = self._resolve_calls(tmp_path, monkeypatch, steps)
        commits = handle.history.commits
        in_window = [c for c in commits if not c.is_merge and JUNE.contains(c.authored_at)]
        assert len(in_window) == len(commits) - 1
        trailers = sum(len(parse_coauthors(c.message)) for c in commits)
        window_signatures = {(c.author_name, c.author_email) for c in in_window}
        assert self._state(result).meta.unmapped_authors == ("CI Bot <bot@ci.invalid>",)
        # one credit list per commit, each trailer resolved with it, and one
        # lookup per distinct signature for the unmapped-author list
        assert len(calls) <= len(commits) + trailers + len(window_signatures)

    def test_each_signature_resolved_once_with_a_branch(self, tmp_path, monkeypatch):
        """An included branch adds one credit list per commit of its own."""
        steps = self._steps() + [
            Step(*AUTHORS[1], message="feature start", create_branch="feature",
                 coauthors=(self.SIGNATURES[2],), ops=(SetFile("feature.py", ("f = 1",)),)),
            Step(*self.SIGNATURES[3], message="feature bump",
                 ops=(Insert("feature.py", 1, ("g = 2",)), Insert(FILES[1], 1, ("h = 3",)))),
            Step(*AUTHORS[0], message="main work", checkout="main",
                 ops=(Insert(FILES[0], 1, ("z = 1",)),)),
        ]
        handle, result, calls = self._resolve_calls(tmp_path, monkeypatch, steps, ("feature",))
        union = {c.hash: c for c in handle.history.commits}
        union.update((c.hash, c) for c in gitio.log(handle.root_path, "refs/heads/feature"))
        in_window = [c for c in handle.history.commits if JUNE.contains(c.authored_at)]
        trailers = sum(len(parse_coauthors(c.message)) for c in union.values())
        window_signatures = {(c.author_name, c.author_email) for c in in_window}
        assert len(union) == len(handle.history.commits) + 2
        assert self._state(result).meta.branch_sections == (
            ("feature", (("Bob Roy", 1), (UNMAPPED.display_name, 2)), ("feature.py", FILES[1])),
        )
        assert len(calls) <= len(union) + trailers + len(window_signatures)


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


class GatedProvider:
    """MockProvider behind a gate: every send waits until `gate` is set."""

    def __init__(self):
        self.inner = MockProvider()
        self.gate = threading.Event()
        self.in_flight = 0
        self.peak = 0
        self._lock = threading.Lock()

    def send(self, messages, model_id):
        with self._lock:
            self.in_flight += 1
            self.peak = max(self.peak, self.in_flight)
        try:
            assert self.gate.wait(timeout=30), "send never released"
            return self.inner.send(messages, model_id)
        finally:
            with self._lock:
                self.in_flight -= 1


class SendsHeld:
    """MockProvider that holds each send until `crowd` sends are in flight
    or `hold` seconds pass, and records the peak of sends in flight."""

    def __init__(self, hold: float, crowd: int):
        self.inner = MockProvider()
        self.hold = hold
        self.crowd = crowd
        self.crowded = threading.Event()
        self.sends = 0
        self.in_flight = 0
        self.peak = 0
        self._lock = threading.Lock()

    def send(self, messages, model_id):
        with self._lock:
            self.sends += 1
            self.in_flight += 1
            self.peak = max(self.peak, self.in_flight)
            if self.in_flight >= self.crowd:
                self.crowded.set()
        try:
            self.crowded.wait(timeout=self.hold)
            return self.inner.send(messages, model_id)
        finally:
            with self._lock:
                self.in_flight -= 1


class SharedFileHeld:
    """MockProvider that counts its sends and holds a send of `shared.py`'s
    file row until a second one arrives or `hold` seconds pass."""

    def __init__(self, hold: float):
        self.inner = MockProvider()
        self.hold = hold
        self.second_arrived = threading.Event()
        self.sends = 0
        self.shared_sends = 0
        self._lock = threading.Lock()

    def send(self, messages, model_id):
        data = extract_data_block(messages[-1]["content"]) or {}
        shared = data.get("task") == "summarize-file" and data["path"] == "shared.py"
        with self._lock:
            self.sends += 1
            self.shared_sends += shared
            second = self.shared_sends == 2
        if second:
            self.second_arrived.set()
        elif shared:
            self.second_arrived.wait(timeout=self.hold)
        return self.inner.send(messages, model_id)


class ShuffledProvider:
    """MockProvider whose answers take 0-4 ms, fixed per request, so they arrive out of order."""

    def __init__(self):
        self.inner = MockProvider()

    def send(self, messages, model_id):
        digest = request_digest(messages, model_id)
        time.sleep(int(digest[:2], 16) % 5 / 1000)
        return self.inner.send(messages, model_id)


def _wait_for(predicate, timeout: float = 10.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return predicate()


def _run_in_background(run) -> tuple[threading.Thread, list]:
    results: list = []
    thread = threading.Thread(target=lambda: results.extend(run()), daemon=True)
    thread.start()
    return thread, results


class TestSendPool:
    def test_outputs_and_ledger_same_for_any_worker_count(self, tmp_path, built_fixtures):
        handle, _ = synthfix.build(_history(30), tmp_path / "repo")
        repos = [("five-files", handle.root_path)] + [
            (name, built_fixtures[name][0].root_path)
            for name in ("interleaved_edits", "merged_branch", "coauthored_commit")
        ]
        roster = load_roster(ROSTER_TEXT)
        outputs = {}
        ledgers = {}
        for workers in (1, 4, 16):
            cfg = _config(tmp_path / f"w{workers}", repos)
            cfg.analysis_workers = workers
            ledger = CostLedger()
            results = pipeline.run_analysis(
                cfg, roster, ShuffledProvider(), Store(tmp_path / f"w{workers}" / "cache"), ledger
            )
            assert all(r.ok for r in results), [r.error for r in results]
            out = Path(cfg.out_dir)
            outputs[workers] = {
                str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()
            }
            assert {e.team for e in ledger.entries} == {team for team, _ in repos}
            # each team's entries in order; teams interleave as they complete
            ledgers[workers] = {
                team: [
                    (e.tier, e.model_id, e.input_tokens, e.output_tokens)
                    for e in ledger.entries
                    if e.team == team
                ]
                for team, _ in repos
            }
        assert len(outputs[1]) >= 4 * 6
        assert sum(map(len, ledgers[1].values())) > 4 * 5  # more than one analysis call per team
        assert outputs[4] == outputs[1] and outputs[16] == outputs[1]
        assert ledgers[4] == ledgers[1] and ledgers[16] == ledgers[1]

    def test_key_in_flight_sent_once_across_teams(self, tmp_path):
        """Two teams at once need one file row: its send is held until a
        second send of it arrives, so each team sending its own miss would
        show. Provider calls and ledger entries equal those of a run with one
        send thread, which runs one team at a time."""
        roster = load_roster(ROSTER_TEXT)
        repos = []
        for team, own in (("team-a", "a.py"), ("team-b", "b.py")):
            script = RepoScript(
                name=team,
                roster_text=ROSTER_TEXT,
                steps=[
                    Step(*AUTHORS[0], message="shared",
                         ops=(SetFile("shared.py", ("x = 1", "y = 2")),)),
                    Step(*AUTHORS[1], message=f"{team} work",
                         ops=(SetFile(own, (f"z = {team!r}",)),)),
                ],
            )
            handle, _ = synthfix.build(script, tmp_path / team)
            repos.append((team, handle.root_path))
        runs = {}
        for workers, hold in ((1, 0.0), (8, 2.0)):
            cfg = _config(tmp_path / f"w{workers}", repos)
            cfg.analysis_workers = workers
            provider = SharedFileHeld(hold)
            ledger = CostLedger()
            store = Store(tmp_path / f"w{workers}" / "cache")
            results = pipeline.run_analysis(cfg, roster, provider, store, ledger)
            assert all(r.ok for r in results), [r.error for r in results]
            entries = Counter(
                (e.tier, e.model_id, e.input_tokens, e.output_tokens) for e in ledger.entries
            )
            runs[workers] = (provider.sends, provider.shared_sends, entries)
        assert runs[1][1] == 1
        assert runs[8] == runs[1]

    def test_request_sent_once_per_run_without_a_store(self, tmp_path):
        """Two teams need one file row and the run's store starts empty: the
        row is sent once, whether the teams run one after the other or at
        once, and each provider call has one ledger entry. Each worker count
        has a store of its own, so the second run's sends are not hits."""
        roster = load_roster(ROSTER_TEXT)
        repos = []
        for team, own in (("team-a", "a.py"), ("team-b", "b.py")):
            script = RepoScript(
                name=team,
                roster_text=ROSTER_TEXT,
                steps=[
                    Step(*AUTHORS[0], message="shared",
                         ops=(SetFile("shared.py", ("x = 1", "y = 2")),)),
                    Step(*AUTHORS[1], message=f"{team} work",
                         ops=(SetFile(own, (f"z = {team!r}",)),)),
                ],
            )
            handle, _ = synthfix.build(script, tmp_path / team)
            repos.append((team, handle.root_path))
        for workers in (1, 8):
            cfg = _config(tmp_path / f"w{workers}", repos)
            cfg.analysis_workers = workers
            provider, ledger = SharedFileHeld(0.0), CostLedger()
            store = Store(tmp_path / f"w{workers}" / "cache")
            results = pipeline.run_analysis(cfg, roster, provider, store, ledger)
            assert all(r.ok for r in results), [r.error for r in results]
            assert provider.shared_sends == 1, workers
            assert provider.sends == len(ledger.entries)

    def _gated_run(self, tmp_path, workers: int, teams: int):
        roster = load_roster(ROSTER_TEXT)
        repos = []
        for n in range(teams):
            handle, _ = synthfix.build(_history(12), tmp_path / f"repo-{n}")
            repos.append((f"team-{n}", handle.root_path))
        cfg = _config(tmp_path, repos)
        cfg.analysis_workers = workers
        provider = GatedProvider()
        thread, results = _run_in_background(
            lambda: pipeline.run_analysis(cfg, roster, provider, Store(tmp_path / "cache"), CostLedger())
        )
        return provider, thread, results

    @pytest.mark.parametrize(
        "workers, teams, expected",
        [
            (2, 1, 2),  # more misses than workers: the pool is full
            (3, 2, 3),  # two teams at once share the run's cap
            (16, 1, len(FILES)),  # fewer misses than workers: every miss is in flight
        ],
    )
    def test_in_flight_sends_capped_per_run(self, tmp_path, workers, teams, expected):
        provider, thread, results = self._gated_run(tmp_path, workers, teams)
        try:
            assert _wait_for(lambda: provider.in_flight == expected), provider.in_flight
            time.sleep(0.2)  # room for a send beyond the cap to show up
            assert provider.in_flight == expected
        finally:
            provider.gate.set()
            thread.join(timeout=60)
        assert not thread.is_alive()
        assert len(results) == teams and all(r.ok for r in results), [r.error for r in results]
        assert provider.peak <= workers

    def test_synthesis_sends_count_against_the_cap(self, tmp_path):
        """With two send threads, a team's synthesis and another team's row
        sends are never more than two in flight. Team 0's rows are cached and
        only its synthesis (new sprint instructions) is sent, while team 1
        sends every row, of files team 0 does not have: each send is held
        until three are in flight, which only a send beside the pool could
        make, or a while passes."""
        roster = load_roster(ROSTER_TEXT)
        other = RepoScript(
            name="other",
            roster_text=ROSTER_TEXT,
            steps=[Step(*AUTHORS[1], message="parts",
                        ops=tuple(SetFile(f"lib/part_{i}.py", (f"p = {i}",)) for i in range(4)))],
        )
        repos = []
        for n, script in enumerate((_history(12), other)):
            handle, _ = synthfix.build(script, tmp_path / f"repo-{n}")
            repos.append((f"team-{n}", handle.root_path))
        store = Store(tmp_path / "cache")
        for sprint, teams, provider in (
            ("Sprint 1.", repos[:1], MockProvider()),
            ("Sprint 2.", repos, SendsHeld(hold=0.3, crowd=3)),
        ):
            cfg = _config(tmp_path / sprint, teams)
            cfg.sprint_instructions = sprint
            cfg.analysis_workers = 2
            results = pipeline.run_analysis(cfg, roster, provider, store, CostLedger())
            assert all(r.ok for r in results), [r.error for r in results]
        assert provider.sends > 2  # team 0's synthesis and team 1's rows and synthesis
        assert provider.peak <= 2

    def test_fully_cached_team_starts_no_thread(self, tmp_path, monkeypatch):
        """A run into a fresh out dir whose every answer is cached sends
        nothing and starts no thread; so does its unchanged re-run, which
        its outputs record stands in for."""
        handle, _ = synthfix.build(_history(12), tmp_path / "repo")
        roster = load_roster(ROSTER_TEXT)
        store = Store(tmp_path / "cache")
        cold_cfg = _config(tmp_path / "cold", [("team", handle.root_path)])
        (cold,) = pipeline.run_analysis(cold_cfg, roster, MockProvider(), store, CostLedger())
        assert cold.ok, cold.error
        cfg = _config(tmp_path / "warm", [("team", handle.root_path)])

        class NoProvider:
            def send(self, messages, model_id):
                raise AssertionError("a cached run must not send")

        starts = []
        original_start = threading.Thread.start

        def counting_start(thread):
            starts.append(thread.name)
            original_start(thread)

        ledger = CostLedger()
        monkeypatch.setattr(threading.Thread, "start", counting_start)
        (warm,) = pipeline.run_analysis(cfg, roster, NoProvider(), store, ledger)
        monkeypatch.undo()
        assert warm.ok and not warm.unchanged, warm.error
        assert starts == []
        assert ledger.entries == []
        assert _record_hit(monkeypatch, cfg, store) == dataclasses.replace(warm, unchanged=True)

    def test_failed_send_fails_only_its_team(self, tmp_path, monkeypatch):
        roster = load_roster(ROSTER_TEXT)
        failing, _ = synthfix.build(_history(12), tmp_path / "failing")
        healthy, _ = synthfix.build(
            RepoScript(
                name="healthy",
                roster_text=ROSTER_TEXT,
                steps=[Step(*AUTHORS[1], message="app", ops=(SetFile("app.py", ("z = 2",)),))],
            ),
            tmp_path / "healthy",
        )
        failing_paths = set(FILES)

        class FailOnFirstFile:
            def __init__(self):
                self.inner = MockProvider()
                self.sent: list[str] = []
                self._lock = threading.Lock()

            def send(self, messages, model_id):
                data = extract_data_block(messages[-1]["content"]) or {}
                if data.get("task") == "summarize-file" and data["path"] in failing_paths:
                    with self._lock:
                        self.sent.append(data["path"])
                    if data["path"] == FILES[0]:
                        raise ProviderError("HTTP 503")
                    # a send taken up before the failure is seen ends only
                    # after the team has cancelled the rest
                    assert cancelled.wait(timeout=30), "the failed team never cancelled"
                return self.inner.send(messages, model_id)

        cancelled = threading.Event()
        original_cancel = chain._cancel

        def cancel_then_signal(futures):
            original_cancel(futures)
            cancelled.set()

        monkeypatch.setattr(chain, "_cancel", cancel_then_signal)
        provider = FailOnFirstFile()
        cfg = _config(tmp_path, [("failing", failing.root_path), ("healthy", healthy.root_path)])
        cfg.analysis_workers = 1
        results = pipeline.run_analysis(cfg, roster, provider, Store(tmp_path / "cache"), CostLedger())
        by_team = {r.team: r for r in results}
        assert not by_team["failing"].ok
        assert by_team["failing"].error == "HTTP 503 (after 1 attempt)"
        assert by_team["healthy"].ok, by_team["healthy"].error
        # the failed send plus at most the one already taken up; the rest were cancelled
        assert provider.sent[0] == FILES[0]
        assert len(provider.sent) <= 2 < len(FILES)


class InterruptingProvider:
    """MockProvider whose first send interrupts the main thread, as Ctrl-C
    does, and is then held for `hold` seconds; it counts the sends started."""

    def __init__(self, hold: float):
        self.inner = MockProvider()
        self.hold = hold
        self.starts = 0
        self._lock = threading.Lock()

    def send(self, messages, model_id):
        with self._lock:
            self.starts += 1
            first = self.starts == 1
        if first:
            _thread.interrupt_main()
            time.sleep(self.hold)
        return self.inner.send(messages, model_id)


class TestSchedule:
    """Teams overlap in their provider stages, replays do not."""

    @staticmethod
    def _repos(tmp_path, commits) -> list[tuple[str, str]]:
        repos = []
        for n, count in enumerate(commits):
            handle, _ = synthfix.build(_history(count), tmp_path / f"repo-{n}")
            repos.append((f"team-{n}", handle.root_path))
        return repos

    def test_two_teams_send_at_once_by_default(self, tmp_path):
        """One team's first batch is its len(FILES) file rows, and its next
        batch waits for them: more sends in flight than that are two teams'."""
        cfg = _config(tmp_path, self._repos(tmp_path, (12, 13)))
        provider = GatedProvider()
        thread, results = _run_in_background(
            lambda: pipeline.run_analysis(
                cfg, load_roster(ROSTER_TEXT), provider, Store(tmp_path / "cache"), CostLedger()
            )
        )
        try:
            assert _wait_for(lambda: provider.in_flight > len(FILES)), provider.in_flight
        finally:
            provider.gate.set()
            thread.join(timeout=60)
        assert not thread.is_alive()
        assert len(results) == 2 and all(r.ok for r in results), [r.error for r in results]

    def test_replays_one_at_a_time_in_repos_order(self, tmp_path, monkeypatch):
        repos = self._repos(tmp_path, (12, 13, 14))
        replayed: list[str] = []
        running = []
        real_build = attribution.build_contribution_set

        def tracking_build(repo, *args):
            running.append(repo.root_path)
            replayed.append(repo.root_path if len(running) == 1 else "overlap")
            try:
                time.sleep(0.05)  # room for a second replay to start beside this one
                return real_build(repo, *args)
            finally:
                running.remove(repo.root_path)

        monkeypatch.setattr(attribution, "build_contribution_set", tracking_build)
        results = pipeline.run_analysis(
            _config(tmp_path, repos), load_roster(ROSTER_TEXT), ShuffledProvider(),
            Store(tmp_path / "cache"), CostLedger(),
        )
        assert all(r.ok for r in results), [r.error for r in results]
        assert [r.team for r in results] == [team for team, _ in repos]
        assert replayed == [path for _, path in repos]

    def test_interrupt_stops_the_run_promptly(self, tmp_path):
        """Ctrl-C while a team sends and the next team replays, and in a
        one-team run, where it lands while the calling thread starts the
        send thread or replays: the run raises it once the send in flight is
        back. With one send thread a send started after the interrupt would
        be a second start."""
        for case, commits in (("three teams", (12, 120, 120)), ("one team", (12,))):
            base = tmp_path / case
            cfg = _config(base, self._repos(base, commits))
            cfg.analysis_workers = 1
            provider = InterruptingProvider(hold=0.5)
            with pytest.raises(KeyboardInterrupt):
                pipeline.run_analysis(
                    cfg, load_roster(ROSTER_TEXT), provider, Store(base / "cache"), CostLedger()
                )
            assert provider.starts == 1, case
            assert not [
                t.name for t in threading.enumerate() if t.name.startswith("contribsum-")
            ], case
            assert not list(Path(cfg.out_dir).rglob("report.md")), case

    def test_one_team_run_starts_no_team_thread(self, tmp_path, monkeypatch):
        threads: list[list[str]] = []
        real_finish = pipeline._finish_team

        def tracking_finish(*args):
            threads.append([t.name for t in threading.enumerate()])
            return real_finish(*args)

        monkeypatch.setattr(pipeline, "_finish_team", tracking_finish)
        results = pipeline.run_analysis(
            _config(tmp_path, self._repos(tmp_path, (12,))), load_roster(ROSTER_TEXT),
            MockProvider(), Store(tmp_path / "cache"), CostLedger(),
        )
        assert all(r.ok for r in results), [r.error for r in results]
        assert len(threads) == 1
        assert not [name for name in threads[0] if name.startswith("contribsum-team")]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_teams_in_provider_stages_capped_by_workers(self, tmp_path, monkeypatch, workers):
        """Team threads and the calling thread together finish at most
        `analysis_workers` teams at once, and two workers finish two."""
        finishing: list[str] = []
        peak = []
        lock = threading.Lock()
        real_finish = pipeline._finish_team

        def tracking_finish(result, *args):
            with lock:
                finishing.append(result.team)
                peak.append(len(finishing))
            try:
                time.sleep(0.2)  # room for another team to start beside this one
                return real_finish(result, *args)
            finally:
                with lock:
                    finishing.remove(result.team)

        monkeypatch.setattr(pipeline, "_finish_team", tracking_finish)
        cfg = _config(tmp_path, self._repos(tmp_path, (12, 13, 14)))
        cfg.analysis_workers = workers
        results = pipeline.run_analysis(
            cfg, load_roster(ROSTER_TEXT), MockProvider(), Store(tmp_path / "cache"), CostLedger()
        )
        assert all(r.ok for r in results), [r.error for r in results]
        assert len(peak) == 3 and max(peak) == workers


def _team_repos(tmp_path, commits) -> list[tuple[str, str]]:
    """Teams `team-0`, `team-1`, ... of `commits[n]` commits each, over three
    files under a directory named after the team, so a provider can tell
    whose file row it answers."""
    repos = []
    for n, count in enumerate(commits):
        team = f"team-{n}"
        files = [f"{team}/mod_{i}.py" for i in range(3)]
        steps = [
            Step(*AUTHORS[0], message="scaffold", ops=tuple(SetFile(p, ("x = 0",)) for p in files))
        ]
        steps += [
            Step(*AUTHORS[k % 2], message=f"edit {k}",
                 ops=(Insert(files[k % len(files)], 1, (f"v_{k} = {k}",)),))
            for k in range(1, count)
        ]
        handle, _ = synthfix.build(
            RepoScript(name=team, roster_text=ROSTER_TEXT, steps=steps), tmp_path / team
        )
        repos.append((team, handle.root_path))
    return repos


class TeamFileRows:
    """MockProvider that holds each send `hold` seconds, and notes for each
    team when one of its file rows is sent and when one is answered; it
    keeps each answered send's (team, prompt, model)."""

    def __init__(self, hold: float = 0.0):
        self.inner = MockProvider()
        self.hold = hold
        self.sent: dict[str, threading.Event] = {}
        self.answered: dict[str, threading.Event] = {}
        self.answers: list[tuple[str | None, str, str]] = []
        self._lock = threading.Lock()

    def events(self, team: str) -> tuple[threading.Event, threading.Event]:
        with self._lock:
            return (
                self.sent.setdefault(team, threading.Event()),
                self.answered.setdefault(team, threading.Event()),
            )

    def send(self, messages, model_id):
        data = extract_data_block(messages[-1]["content"]) or {}
        team = data["path"].split("/")[0] if data.get("task") == "summarize-file" else None
        if team is not None:
            self.events(team)[0].set()
        time.sleep(self.hold)
        response = self.inner.send(messages, model_id)
        with self._lock:
            self.answers.append((team, messages[-1]["content"], model_id))
        if team is not None:
            self.events(team)[1].set()
        return response


def _gate_replays(monkeypatch, repos, gate) -> None:
    """Each team's replay (`attribution.build_contribution_set`) runs
    `gate(team)` first."""
    team_of = {path: team for team, path in repos}
    real_build = attribution.build_contribution_set

    def gated_build(repo, *args):
        gate(team_of[repo.root_path])
        return real_build(repo, *args)

    monkeypatch.setattr(attribution, "build_contribution_set", gated_build)


def _file_row_key(prompt: str, model_id: str) -> str:
    return store_module.cache_key(chain.template_hash("summarize_file"), model_id, prompt)


class TestFileRowsBeforeReplay:
    """A team's file rows are asked for once its window head is read and
    measured, so they are in flight while its history is replayed; a
    replay that fails or is interrupted still records every answer in."""

    @pytest.mark.parametrize("teams", [1, 3])
    def test_replay_runs_while_its_file_rows_are_sent(self, tmp_path, monkeypatch, teams):
        """Each replay waits for a send of one of its own team's file rows,
        which only a team that sends before its replay makes."""
        repos = _team_repos(tmp_path, [12 + n for n in range(teams)])
        provider = TeamFileRows()

        def gate(team):
            assert provider.events(team)[0].wait(timeout=5), f"{team} replayed before it sent"

        _gate_replays(monkeypatch, repos, gate)
        results = pipeline.run_analysis(
            _config(tmp_path, repos), load_roster(ROSTER_TEXT), provider,
            Store(tmp_path / "cache"), CostLedger(),
        )
        assert all(r.ok for r in results), [r.error for r in results]

    def test_failed_replay_records_its_answered_file_rows(self, tmp_path, monkeypatch):
        """team-0's repository lacks a blob only its replay reads, and the
        replay starts once one of team-0's file rows is answered. team-0 fails
        with the missing object's message, each of its answered sends has one
        ledger entry and one cache row, team-1 is ok, and a re-run sends none
        of those rows again."""
        repos = _team_repos(tmp_path / "repos", [12, 13])
        victim = ingest.open_repo(repos[0][1])
        edited = victim.history.commits[1]  # the first edit of team-0/mod_1.py, edited again later
        sha = subprocess.run(
            ["git", "-C", victim.root_path, "rev-parse", f"{edited.hash}:team-0/mod_1.py"],
            check=True, capture_output=True, text=True,
        ).stdout.strip()
        (Path(victim.root_path) / "objects" / sha[:2] / sha[2:]).unlink()
        cache = tmp_path / "cache"

        def run(name: str, provider):
            ledger = CostLedger()
            with closing(Store(cache)) as store:
                results = pipeline.run_analysis(
                    _config(tmp_path / name, repos), load_roster(ROSTER_TEXT), provider, store,
                    ledger,
                )
            return {r.team: r for r in results}, ledger

        provider = TeamFileRows()

        def gate(team):
            if team == "team-0":
                assert provider.events(team)[1].wait(timeout=5), "team-0 replayed before an answer"

        with monkeypatch.context() as patch:
            _gate_replays(patch, repos, gate)
            results, ledger = run("first", provider)
        assert not results["team-0"].ok
        assert results["team-0"].error == f"unknown commit: {sha}"
        assert results["team-1"].ok, results["team-1"].error
        answered = [(prompt, model) for team, prompt, model in provider.answers if team == "team-0"]
        assert answered
        assert len([e for e in ledger.entries if e.team == "team-0"]) == len(answered)
        rows = store_rows(cache)
        assert all(_file_row_key(*send) in rows for send in answered)

        again = TeamFileRows()
        results, _ = run("again", again)
        assert results["team-0"].error == f"unknown commit: {sha}"
        resent = {(prompt, model) for _, prompt, model in again.answers}
        assert not resent & set(answered)

    def test_interrupt_during_a_replay(self, tmp_path, monkeypatch):
        """Ctrl-C lands in team-2's replay, once one of its file rows is in
        flight, while team-0 finishes and team-1's finish waits for the one
        team thread: the run raises it promptly, leaves no thread, writes no
        report, and records every answered send once."""
        repos = _team_repos(tmp_path, [12, 13, 14])
        cfg = _config(tmp_path, repos)
        cfg.analysis_workers = 1
        provider, ledger = TeamFileRows(hold=0.1), CostLedger()
        interrupted = []

        def gate(team):
            if team == "team-2":
                assert provider.events(team)[0].wait(timeout=10), "team-2 replayed before it sent"
                interrupted.append(time.monotonic())
                raise KeyboardInterrupt

        _gate_replays(monkeypatch, repos, gate)
        with closing(Store(tmp_path / "cache")) as store:
            with pytest.raises(KeyboardInterrupt):
                pipeline.run_analysis(cfg, load_roster(ROSTER_TEXT), provider, store, ledger)
        assert time.monotonic() - interrupted[0] < 2
        assert not [t.name for t in threading.enumerate() if t.name.startswith("contribsum-")]
        assert not list(Path(cfg.out_dir).rglob("report.md"))
        assert len(ledger.entries) == len(provider.answers) > 0
        assert {e.team for e in ledger.entries if e.tier == "analysis"} >= {"team-1", "team-2"}


class TestInterruptPoints:
    def test_every_answered_send_is_recorded_once(self, tmp_path, monkeypatch):
        """Ctrl-C lands at the k-th `Store.get` on the calling thread of a
        two-team run whose sends take 20 ms, for every k the run reaches:
        the run raises it and leaves no thread, and the sends the provider
        answered, the ledger entries and the cache rows are equal in number."""
        repos = _team_repos(tmp_path / "repos", [12, 13])
        real_get = Store.get
        gets, interrupt_at = [], []

        def get(self, key):
            if threading.current_thread() is threading.main_thread():
                gets.append(key)
                if len(gets) in interrupt_at:
                    raise KeyboardInterrupt
            return real_get(self, key)

        def run(base: Path) -> None:
            """A run in `base`; its (sends answered, ledger entries, cache
            rows) go into `counts`."""
            provider, ledger = TeamFileRows(hold=0.02), CostLedger()
            gets.clear()
            try:
                with closing(Store(base / "cache")) as store:
                    results = pipeline.run_analysis(
                        _config(base, repos), load_roster(ROSTER_TEXT), provider, store, ledger
                    )
                assert all(r.ok for r in results), [r.error for r in results]
            finally:
                counts.append(
                    (len(provider.answers), len(ledger.entries), len(store_rows(base / "cache")))
                )

        counts: list[tuple[int, int, int]] = []
        monkeypatch.setattr(Store, "get", get)
        run(tmp_path / "whole")
        points = len(gets)
        assert points > 2 and counts[0][0] > 0
        for k in range(1, points + 1):
            interrupt_at[:] = [k]
            with pytest.raises(KeyboardInterrupt):
                run(tmp_path / f"k{k}")
            left = [t.name for t in threading.enumerate() if t.name.startswith("contribsum-")]
            assert not left, k
        # counts[0] is the whole run's, counts[k] the run interrupted at the k-th get
        assert [k for k, (sent, entries, rows) in enumerate(counts) if not sent == entries == rows] == []


class TestRunInputs:
    def test_inputs_digest_material_and_form_pinned(self, tmp_path, monkeypatch):
        """With the code's share fixed, a team with both instruction files,
        an included branch and a prior window records a known inputs digest:
        a change to the digest's material or JSON form retires every outputs
        record, so it must be a deliberate one."""
        monkeypatch.setattr(pipeline, "code_digest", lambda: "code")
        cfg, store = TestOutputsSlot._primed(tmp_path)
        store.close()
        manifest = pipeline.window_dir(cfg, "team") / pipeline.MANIFEST_NAME
        assert json.loads(manifest.read_bytes())["inputs_digest"] == (
            "3f3418e658531d1e257653d760a9e6515684e068b63c8f5332230e2cfffc03af"
        )


class OneAtATimeEndpoint:
    """A chat endpoint that answers 429 to a request sent while another is
    in flight; it answers the rest as MockProvider would.

    Accepted requests are held until one has been refused, so a run that
    sends more than one at a time is sure to be throttled.
    """

    def __init__(self):
        self.inner = MockProvider()
        self.in_flight = 0
        self.refused = 0
        self.throttled = threading.Event()
        self._lock = threading.Lock()

    def post(self, url, json, headers, timeout):
        with self._lock:
            self.in_flight += 1
            refuse = self.in_flight > 1
            self.refused += refuse
        try:
            if refuse:
                self.throttled.set()
                return _Answer(429, {"Retry-After": "1"})
            assert self.throttled.wait(timeout=30), "never more than one request at a time"
            response = self.inner.send(json["messages"], json["model"])
            return _Answer(
                200,
                {},
                {
                    "choices": [{"message": {"content": response.text}}],
                    "usage": {
                        "prompt_tokens": response.input_tokens,
                        "completion_tokens": response.output_tokens,
                    },
                },
            )
        finally:
            with self._lock:
                self.in_flight -= 1


class _Answer:
    def __init__(self, status_code: int, headers: dict, body: dict | None = None):
        self.status_code = status_code
        self.headers = headers
        self.text = ""
        self._body = body

    def json(self):
        return self._body


class TestThrottlingEndpoint:
    def test_every_team_completes_at_the_default_worker_count(self, tmp_path, monkeypatch):
        roster = load_roster(ROSTER_TEXT)
        repos = []
        for n in range(2):
            handle, _ = synthfix.build(_history(12), tmp_path / f"repo-{n}")
            repos.append((f"team-{n}", handle.root_path))
        outputs = {}
        ledgers = {}
        for mode in ("sequential", "live"):
            cfg = _config(tmp_path / mode, repos)
            ledger = CostLedger()
            if mode == "sequential":
                cfg.analysis_workers = 1
                provider = MockProvider()
            else:
                assert cfg.analysis_workers > 1  # the default sends several at once
                endpoint = OneAtATimeEndpoint()
                slept: list[float] = []
                fake_time = types.SimpleNamespace(sleep=slept.append, monotonic=time.monotonic)
                monkeypatch.setattr(provider_module, "time", fake_time)
                fake_requests = types.SimpleNamespace(post=endpoint.post, RequestException=OSError)
                monkeypatch.setitem(sys.modules, "requests", fake_requests)
                provider = HttpProvider("http://localhost/v1", "key")
            results = pipeline.run_analysis(
                cfg, roster, provider, Store(tmp_path / mode / "cache"), ledger
            )
            assert all(r.ok for r in results), [r.error for r in results]
            out = Path(cfg.out_dir)
            outputs[mode] = {
                str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()
            }
            ledgers[mode] = [(e.model_id, e.input_tokens, e.output_tokens) for e in ledger.entries]
        assert endpoint.refused >= 1
        # each refused request waited as told, once, and its retry went out alone
        assert slept == [1.0] * endpoint.refused
        assert provider.one_at_a_time
        assert outputs["live"] == outputs["sequential"]
        assert ledgers["live"] == ledgers["sequential"]


class TestLedgerOrderAcrossTeams:
    def test_a_joined_answer_waits_for_its_record(self, tmp_path, monkeypatch):
        """A team that joins another team's send goes on once the sender has
        recorded it, so with the first team's records slowed the overlapping
        run's ledger still lists the shared requests in the order one team
        asks for them, as a one-at-a-time run does."""
        repos = []
        for n in range(2):
            handle, _ = synthfix.build(_history(12), tmp_path / f"repo-{n}")
            repos.append((f"team-{n}", handle.root_path))
        real_record = chain.record_usage

        def slow_record(ledger, tier, input_tokens, output_tokens, team):
            if team == "team-0":
                time.sleep(0.02)
            return real_record(ledger, tier, input_tokens, output_tokens, team)

        monkeypatch.setattr(chain, "record_usage", slow_record)
        ledgers = {}
        for workers in (1, 8):
            cfg = _config(tmp_path / f"w{workers}", repos)
            cfg.analysis_workers = workers
            ledger, store = CostLedger(), Store(tmp_path / f"w{workers}" / "cache")
            try:
                results = pipeline.run_analysis(
                    cfg, load_roster(ROSTER_TEXT), MockProvider(), store, ledger
                )
            finally:
                store.close()
            assert all(r.ok for r in results), [r.error for r in results]
            ledgers[workers] = [(e.model_id, e.input_tokens, e.output_tokens) for e in ledger.entries]
        assert ledgers[8] == ledgers[1]


class TestOneLookupPerKey:
    """Two teams that need the same requests, as in `TestThrottlingEndpoint`:
    each request key is read from the provider cache once per run, by
    whichever team asks first, and the other team joins that answer."""

    @staticmethod
    def _run(monkeypatch, base: Path, repos, cache: Path, workers: int, provider):
        """(request keys made, provider-cache reads as (key, hit)) of a run."""
        keys, reads = [], []
        real_prepare, real_get = chain.prepare, Store.get

        def prepare(*args, **kwargs):
            call = real_prepare(*args, **kwargs)
            keys.append(call.key)
            return call

        def get(self, key):
            payload = real_get(self, key)
            reads.append((key, payload is not None))
            return payload

        cfg = _config(base, repos)
        cfg.analysis_workers = workers
        store = Store(cache)
        with monkeypatch.context() as patch:
            patch.setattr(chain, "prepare", prepare)
            patch.setattr(Store, "get", get)
            try:
                results = pipeline.run_analysis(
                    cfg, load_roster(ROSTER_TEXT), provider, store, CostLedger()
                )
            finally:
                store.close()
        assert all(r.ok for r in results), [r.error for r in results]
        made = set(keys)
        return keys, [(key, hit) for key, hit in reads if key in made]

    @pytest.mark.parametrize("workers", [1, 8])
    def test_each_key_read_once_cold_and_warm(self, tmp_path, monkeypatch, workers):
        repos = []
        for n in range(2):
            handle, _ = synthfix.build(_history(12), tmp_path / f"repo-{n}")
            repos.append((f"team-{n}", handle.root_path))
        for attempt in range(3):
            base = tmp_path / f"w{workers}-{attempt}"
            provider = CountingProvider()
            keys, reads = self._run(
                monkeypatch, base / "cold", repos, base / "cache", workers, provider
            )
            distinct = set(keys)
            assert len(keys) == 2 * len(distinct) > 2 * len(FILES)  # the teams share every key
            assert sorted(reads) == sorted((key, False) for key in distinct)
            assert provider.sends == len(distinct)

            provider = CountingProvider()
            keys, reads = self._run(
                monkeypatch, base / "warm", repos, base / "cache", workers, provider
            )
            assert set(keys) == distinct
            assert sorted(reads) == sorted((key, True) for key in distinct)
            assert provider.sends == 0


def _write_state(team_dir: Path, label: str, start: str) -> None:
    (team_dir / label).mkdir(parents=True)
    begin = datetime.fromisoformat(start)
    window = AnalysisWindow(start=begin, end=begin + timedelta(days=7), label=label)
    state = ReportState((), chain.TeamSummary("narrative"), RunMeta("team", window))
    (team_dir / label / pipeline.STATE_NAME).write_text(state.to_json(), encoding="utf-8")


class TestPriorState:
    def test_prior_window_chosen_by_instant_not_by_string(self, tmp_path):
        team_dir = tmp_path / "out" / "team"
        # string order and time order disagree: 09:00+02:00 is 07:00 UTC
        _write_state(team_dir, "earlier", "2024-03-04T09:00:00+02:00")
        _write_state(team_dir, "later", "2024-03-04T08:00:00+00:00")
        cfg = _config(tmp_path, [])
        cfg.window = AnalysisWindow(
            start=datetime(2024, 3, 11, tzinfo=timezone.utc),
            end=datetime(2024, 3, 18, tzinfo=timezone.utc),
            label="current",
        )
        assert pipeline._find_prior_state(cfg, "team")[0].meta.window.label == "later"
        # 01:00+02:00 on the 11th is 23:00 UTC on the 10th: earlier than the window
        _write_state(team_dir, "eve", "2024-03-11T01:00:00+02:00")
        assert pipeline._find_prior_state(cfg, "team")[0].meta.window.label == "eve"

    def test_misshapen_state_skipped(self, tmp_path):
        """A later state with a field of the wrong shape, or nested past the
        recursion limit, is passed over."""
        team_dir = tmp_path / "out" / "team"
        _write_state(team_dir, "earlier", "2024-03-04T00:00:00+00:00")
        _write_state(team_dir, "later", "2024-03-05T00:00:00+00:00")
        path = team_dir / "later" / pipeline.STATE_NAME
        saved = json.loads(path.read_text(encoding="utf-8"))
        saved["student_files"] = {"alice": [1, 2]}
        path.write_text(json.dumps(saved), encoding="utf-8")
        _write_state(team_dir, "latest", "2024-03-06T00:00:00+00:00")
        (team_dir / "latest" / pipeline.STATE_NAME).write_bytes(NESTED)
        cfg = _config(tmp_path, [])
        cfg.window = AnalysisWindow(
            start=datetime(2024, 3, 11, tzinfo=timezone.utc),
            end=datetime(2024, 3, 18, tzinfo=timezone.utc),
            label="current",
        )
        assert pipeline._find_prior_state(cfg, "team")[0].meta.window.label == "earlier"


    def test_delta_removed_when_no_prior_window(self, tmp_path, built_fixtures):
        """A re-run that no longer finds the window it once diffed against
        writes no delta and leaves none behind."""
        cfg = _config(tmp_path, [("team", built_fixtures["merged_branch"][0].root_path)])
        july = AnalysisWindow(
            start=JUNE.end, end=datetime(2024, 8, 1, tzinfo=timezone.utc), label="week-2"
        )
        roster = load_roster(ROSTER_TEXT)
        for window in (JUNE, july):
            cfg.window = window
            (result,) = pipeline.run_analysis(
                cfg, roster, MockProvider(), Store(tmp_path / "cache"), CostLedger()
            )
            assert result.ok, result.error
        assert "delta.md" in result.artifacts
        shutil.rmtree(Path(cfg.out_dir) / "team" / JUNE.label)
        (result,) = pipeline.run_analysis(
            cfg, roster, MockProvider(), Store(tmp_path / "fresh"), CostLedger()
        )
        assert result.ok, result.error
        out = pipeline.window_dir(cfg, "team")
        manifest = json.loads((out / pipeline.MANIFEST_NAME).read_text(encoding="utf-8"))
        assert "delta.md" not in result.artifacts and "delta.md" not in manifest["artifacts"]
        assert not (out / "delta.md").exists()

    def test_window_sharing_a_directory_is_not_prior(self, tmp_path, monkeypatch, built_fixtures):
        """Windows given by their bounds alone are all labelled "window" and
        share one directory, so a later one replaces the earlier one's
        state: it writes no delta against it, and its unchanged re-run is
        skipped."""
        cfg = _config(tmp_path, [("team", built_fixtures["merged_branch"][0].root_path)])
        july = AnalysisWindow(JUNE.end, datetime(2024, 8, 1, tzinfo=timezone.utc), "window")
        store = Store(tmp_path / "cache")
        for window in (dataclasses.replace(july, start=JUNE.start, end=JUNE.end), july):
            cfg.window = window
            (result,) = pipeline.run_analysis(
                cfg, load_roster(ROSTER_TEXT), MockProvider(), store, CostLedger()
            )
            assert result.ok, result.error
            assert "delta.md" not in result.artifacts
        assert not (pipeline.window_dir(cfg, "team") / "delta.md").exists()
        _record_hit(monkeypatch, cfg, store)


def _analyze(tmp_path: Path, repo_path: str, cache: str = "cache", **changes):
    cfg = dataclasses.replace(_config(tmp_path, [("team", repo_path)]), **changes)
    (result,) = pipeline.run_analysis(
        cfg, load_roster(ROSTER_TEXT), MockProvider(), Store(tmp_path / cache), CostLedger()
    )
    return result


class TestKeptFiles:
    def test_over_size_file_gets_no_lines_and_no_row(self, tmp_path):
        # 600k characters, 1,194,000 bytes: over the 1 MB limit, which counts bytes
        script = RepoScript(
            name="wide",
            roster_text=ROSTER_TEXT,
            steps=[
                Step(*AUTHORS[0], message="wide text",
                     ops=(SetFile("big.py", ("é" * 99,) * 6000), SetFile("ok.py", ("x = 1",)))),
            ],
        )
        handle, _ = synthfix.build(script, tmp_path / "repo")
        result = _analyze(tmp_path, handle.root_path)
        assert result.ok, result.error
        cset = json.loads(Path(result.artifacts["contribution_set.json"]).read_text("utf-8"))
        owned = {
            row["path"] for rows in cset["per_student"].values() for row in rows if row["lines_owned"]
        }
        assert owned == {"ok.py"}
        functionality = Path(result.artifacts["functionality.csv"]).read_text("utf-8")
        assert "ok.py" in functionality and "big.py" not in functionality
        assert _evidence_paths(result) == {"ok.py"}  # no commit-message row either

    @staticmethod
    def _outputs(tmp_path: Path, root: str) -> tuple[str, set[str]]:
        """functionality.csv and the paths of contribution_set.json rows."""
        result = _analyze(tmp_path, root)
        assert result.ok, result.error
        functionality = Path(result.artifacts["functionality.csv"]).read_text("utf-8")
        return functionality, _evidence_paths(result)

    def test_gitlink_is_skipped_not_read(self, tmp_path):
        root = with_tree_entries(tmp_path, ("160000", "libs/thing", "1" * 40))
        functionality, paths = self._outputs(tmp_path, root)
        assert "ok.py" in functionality and "libs/thing" not in functionality
        assert paths == {"ok.py", "app.py"}

    def test_gitlink_replaced_by_a_file_is_kept(self, tmp_path):
        root = with_tree_entries(
            tmp_path, ("160000", "libs/thing", "1" * 40), ("100644", "libs/thing", b"z = 3\n")
        )
        functionality, paths = self._outputs(tmp_path, root)
        assert "libs/thing" in functionality
        assert paths == {"ok.py", "app.py", "libs/thing"}

    def test_symlink_is_skipped(self, tmp_path):
        root = with_tree_entries(tmp_path, ("120000", "link.py", b"ok.py"))
        functionality, paths = self._outputs(tmp_path, root)
        assert "ok.py" in functionality and "link.py" not in functionality
        assert paths == {"ok.py", "app.py"}

def _evidence_paths(result) -> set[str]:
    cset = json.loads(Path(result.artifacts["contribution_set.json"]).read_text("utf-8"))
    return {row["path"] for rows in cset["per_student"].values() for row in rows}


class TestAtomicArtifacts:
    def test_failed_report_write_keeps_previous_artifacts(self, tmp_path, monkeypatch):
        handle, _ = synthfix.build_standard_fixture("sole_author", tmp_path / "repo")
        first = _analyze(tmp_path, handle.root_path)
        assert first.ok, first.error
        out_dir = Path(first.artifacts["report.md"]).parent
        kept = ("report.md", "contribution_set.json")
        before = {name: (out_dir / name).read_bytes() for name in kept}

        def failing_open(file, mode="r", *args, **kwargs):
            fh = open(file, mode, *args, **kwargs)
            return HalfWriter(fh) if Path(file).name.startswith(".report.md.") else fh

        monkeypatch.setattr(store_module, "open", failing_open, raising=False)
        manifest = (out_dir / pipeline.MANIFEST_NAME).read_bytes()
        # a changed input, so the team runs and writes
        second = _analyze(tmp_path, handle.root_path, cache="cache-2", coauthor_split=False)
        assert not second.ok
        assert "No space left on device" in second.error
        assert {name: (out_dir / name).read_bytes() for name in kept} == before
        assert not [p.name for p in out_dir.iterdir() if p.name.startswith(".")]
        # a failed team writes no outputs record: the first run's stays
        assert json.loads(manifest)["inputs_digest"]
        assert (out_dir / pipeline.MANIFEST_NAME).read_bytes() == manifest


def _tree_bytes(directory: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(directory)): p.read_bytes() for p in sorted(directory.rglob("*")) if p.is_file()
    }


class TestFaultMatrix:
    """One fault at a time, injected into the `victim` of two teams, ends as
    the victim's failure or warning, or as a correct analysis where the
    pipeline absorbs it; the `bystander`'s `out/` is byte-equal to a clean
    run's either way."""

    TEAMS = ("victim", "bystander")

    def _run(self, tmp_path: Path, name: str, fault=None, monkeypatch=None, ledger=None):
        """(results by team, out dir) of one run over freshly built repos;
        `fault(base, roots, monkeypatch)` changes the repos or the process
        first."""
        base = tmp_path / name
        roots = {}
        for n, team in enumerate(self.TEAMS):
            handle, _ = synthfix.build(_history(12 + n), base / "repos" / team)
            roots[team] = handle.root_path
        if fault is not None:
            fault(base, roots, monkeypatch)
        cfg = _config(base, [(team, roots[team]) for team in self.TEAMS], ("side",))
        results = pipeline.run_analysis(
            cfg, load_roster(ROSTER_TEXT), MockProvider(), Store(base / "cache"),
            ledger or CostLedger(),
        )
        return {r.team: r for r in results}, Path(cfg.out_dir)

    @staticmethod
    def _killed_write(base, roots, monkeypatch):
        def failing_open(file, mode="r", *args, **kwargs):
            fh = open(file, mode, *args, **kwargs)
            path = Path(file)
            if path.name.startswith(".report.md.") and "victim" in path.parts:
                return HalfWriter(fh)
            return fh

        monkeypatch.setattr(store_module, "open", failing_open, raising=False)

    @staticmethod
    def _missing_branch(base, roots, monkeypatch):
        subprocess.run(
            ["git", "-C", roots["victim"], "update-ref", "-d", "refs/heads/side"], check=True
        )

    @staticmethod
    def _mixed_offsets(base, roots, monkeypatch):
        # instants either side of the UTC window bounds, written with offsets
        # whose local time reads the other way
        for path, date in (
            ("before.py", "2024-06-01T00:30:00+02:00"),  # 2024-05-31 22:30 UTC
            ("late.py", "2024-07-01T01:30:00+02:00"),  # 2024-06-30 23:30 UTC
            ("after.py", "2024-06-30T20:30:00-05:00"),  # 2024-07-01 01:30 UTC
        ):
            commit_tree_entries(
                roots["victim"], base / "entry.index", ("100644", path, b"w = 1\n"), date=date
            )

    @staticmethod
    def _lockfile(base, roots, monkeypatch):
        lock = "".join(f'    "dep-{i}": "1.{i}.0",\n' for i in range(20_000)).encode()
        commit_tree_entries(roots["victim"], base / "entry.index", ("100644", "package-lock.json", lock))

    @staticmethod
    def _hung_git(base, roots, monkeypatch):
        hang_cat_file(base, monkeypatch, roots["victim"])

    @staticmethod
    def _gitlink(base, roots, monkeypatch):
        commit_tree_entries(roots["victim"], base / "entry.index", ("160000", "libs/thing", "1" * 40))

    @pytest.mark.parametrize(
        "fault",
        ["killed_write", "truncated_ledger", "missing_branch", "mixed_offsets", "lockfile",
         "hung_git", "gitlink"],
    )
    def test_fault_stays_with_its_team(self, tmp_path, monkeypatch, caplog, fault):
        clean, clean_out = self._run(tmp_path, "clean")
        assert all(r.ok for r in clean.values()), [r.error for r in clean.values()]

        ledger = None
        if fault == "truncated_ledger":
            ledger_path = tmp_path / "ledger.jsonl"
            ledger_path.write_text(
                json.dumps({"timestamp": 1.0, "tier": "analysis", "model_id": "m",
                            "input_tokens": 1, "output_tokens": 1, "cost": 0.0})
                + '\n{"timestamp": 2.0, "tier": "anal',
                encoding="utf-8",
            )
            ledger = CostLedger(ledger_path)
        inject = getattr(self, f"_{fault}", None)
        start = time.monotonic()
        results, out = self._run(tmp_path, "faulted", inject, monkeypatch, ledger)
        assert time.monotonic() - start < 30  # nothing hung
        monkeypatch.undo()

        assert results["bystander"].ok, results["bystander"].error
        assert _tree_bytes(out / "bystander") == _tree_bytes(clean_out / "bystander")
        victim = results["victim"]
        victim_out = out / "victim" / JUNE.label
        if fault == "killed_write":
            assert not victim.ok and "No space left on device" in victim.error
        elif fault == "hung_git":
            assert not victim.ok
            assert "git cat-file" in victim.error and "victim" in victim.error
        else:
            assert victim.ok, victim.error
        if fault == "truncated_ledger":
            assert "truncated ledger line 2 skipped" in caplog.text
            assert _tree_bytes(out / "victim") == _tree_bytes(clean_out / "victim")
        elif fault == "missing_branch":
            assert "branch side not found; no section for it" in victim.warnings
        elif fault == "mixed_offsets":
            cset = json.loads((victim_out / "contribution_set.json").read_text("utf-8"))
            rows = {row["path"]: row for row in cset["per_student"]["bob"]}
            assert (rows["before.py"]["lines_owned"], rows["before.py"]["lines_added_in_window"]) == (1, 0)
            assert (rows["late.py"]["lines_owned"], rows["late.py"]["lines_added_in_window"]) == (1, 1)
            assert "after.py" not in rows
        elif fault in ("lockfile", "gitlink"):
            absent = "package-lock.json" if fault == "lockfile" else "libs/thing"
            for name in ("functionality.csv", "contribution.csv", "contribution_set.json", "report.md"):
                assert absent not in (victim_out / name).read_text("utf-8"), name

    def test_truncated_recording_fails_only_its_team(self, tmp_path):
        """A recording cut short, as a recorder killed mid-write could leave
        one, fails the team whose request it answers with a message naming
        it; the other team replays as recorded."""
        roots = {
            team: synthfix.build(_history(12 + n), tmp_path / "repos" / team)[0].root_path
            for n, team in enumerate(self.TEAMS)
        }
        recordings = tmp_path / "recordings"

        def run(name: str, provider, teams=self.TEAMS):
            cfg = _config(tmp_path / name, [(team, roots[team]) for team in teams], ("side",))
            with closing(Store(tmp_path / name / "cache")) as store:
                results = pipeline.run_analysis(
                    cfg, load_roster(ROSTER_TEXT), provider, store, CostLedger()
                )
            return {r.team: r for r in results}, Path(cfg.out_dir)

        run("bystander-alone", ReplayProvider(recordings, inner=MockProvider()), ("bystander",))
        bystanders = set(recordings.iterdir())
        recorded, recorded_out = run("recorded", ReplayProvider(recordings, inner=MockProvider()))
        assert all(r.ok for r in recorded.values()), [r.error for r in recorded.values()]
        cut = sorted(set(recordings.iterdir()) - bystanders)[0]
        text = cut.read_text(encoding="utf-8")
        cut.write_text(text[: len(text) // 2], encoding="utf-8")

        results, out = run("replayed", ReplayProvider(recordings))
        assert not results["victim"].ok
        assert results["victim"].error == (
            f"unreadable recording {cut.stem[:12]} in {recordings} (after 1 attempt)"
        )
        assert results["bystander"].ok, results["bystander"].error
        assert _tree_bytes(out / "bystander") == _tree_bytes(recorded_out / "bystander")


class CountingProvider:
    """MockProvider that counts its sends."""

    def __init__(self):
        self.inner = MockProvider()
        self.sends = 0
        self._lock = threading.Lock()

    def send(self, messages, model_id):
        with self._lock:
            self.sends += 1
        return self.inner.send(messages, model_id)


class TestStoreDatabase:
    """A run over a cache database that is unreadable, and over a cache
    directory in the one-file-per-entry layout that came before the
    database, whose files are left unread."""

    TEAMS = ("alpha", "beta")

    def _repos(self, tmp_path: Path) -> list[tuple[str, str]]:
        return [
            (team, synthfix.build(_history(12 + n), tmp_path / "repos" / team)[0].root_path)
            for n, team in enumerate(self.TEAMS)
        ]

    @staticmethod
    def _run(base: Path, repos, cache: Path) -> tuple[int, dict[str, bytes]]:
        """(provider sends, `out/` bytes) of a run, every team ok, with a fresh
        `out/` under `base` over the store in `cache`, which is closed after."""
        provider, store = CountingProvider(), Store(cache)
        try:
            results = pipeline.run_analysis(
                _config(base, repos), load_roster(ROSTER_TEXT), provider, store, CostLedger()
            )
        finally:
            store.close()
        assert all(r.ok for r in results), [r.error for r in results]
        return provider.sends, _tree_bytes(base / "out")

    @pytest.mark.parametrize(
        "spoil",
        ["garbage", "cut-in-half", "garbage-beside-its-log", "cut-past-schema-beside-its-log"],
    )
    def test_unreadable_database_moved_aside(self, tmp_path, caplog, spoil):
        """A database the open finds unreadable, or, cut short beside the
        log a killed run leaves, one whose schema still reads and whose
        entries fail a later `get`, is kept as found and no team fails."""
        repos = self._repos(tmp_path)
        fresh_sends, fresh_out = self._run(tmp_path / "fresh", repos, tmp_path / "fresh-cache")
        cache = tmp_path / "cache"
        self._run(tmp_path / "primed", repos, cache)
        db, wal = cache / "store.sqlite3", cache / "store.sqlite3-wal"
        log = None
        if spoil.endswith("beside-its-log"):  # the write-ahead log a killed run leaves
            store = Store(cache)
            store.put("f" * 64, {"text": "after the priming run"})
            log = wal.read_bytes()
            store.close()
        whole = db.read_bytes()
        spoilt = (
            whole[: len(whole) // 2] if spoil.startswith("cut")
            else random.Random(7).randbytes(len(whole))
        )
        db.write_bytes(spoilt)
        if log is not None:
            wal.write_bytes(log)
        with caplog.at_level("WARNING", logger="contribsum.store"):
            sends, out = self._run(tmp_path / "spoilt", repos, cache)
        assert [r.getMessage() for r in caplog.records if r.name == "contribsum.store"] == [
            f"corrupt cache database moved aside: {db}"
        ]
        # moved aside as found: closing a writer would have folded the log into the file
        assert (cache / "store.sqlite3.corrupt").read_bytes() == spoilt
        kept = ["store.sqlite3", "store.sqlite3.corrupt"]
        if log is not None:
            assert (cache / "store.sqlite3-wal.corrupt").read_bytes() == log
            kept.insert(1, "store.sqlite3-wal.corrupt")
        assert sorted(p.name for p in cache.iterdir()) == kept
        assert out == fresh_out
        # an empty store, though one cut past its schema may answer a few
        # requests before a read reaches a page the cut took
        if spoil == "cut-past-schema-beside-its-log":
            assert 0 < sends <= fresh_sends
        else:
            assert sends == fresh_sends
        assert self._run(tmp_path / "again", repos, cache)[0] == 0  # the new database is read

    def test_malformed_get_mid_run_keeps_the_pools_answers(self, tmp_path, monkeypatch, caplog):
        """SQLite finds the database malformed on a `get` of beta's, once
        alpha's first batch is looked up and while alpha waits on the
        store's lock to put an answer it sent. The store is set aside once
        and goes on empty, and the pool loses no answer it holds: no key
        it already read from the cache is sent, alpha's answer lands in the
        new database, every team is ok and `out/` equals a fresh run's."""
        alpha, beta = self._repos(tmp_path)
        fresh_sends, fresh_out = self._run(
            tmp_path / "fresh", [alpha, beta], tmp_path / "fresh-cache"
        )
        cache = tmp_path / "cache"
        self._run(tmp_path / "primed", [beta], cache)  # alpha's first batch: hits and a miss

        class WaitedLock:
            """The store's lock, counting the threads that wait for it."""

            def __init__(self):
                self._lock, self._count = threading.Lock(), threading.Lock()
                self.waiting = 0

            def __enter__(self):
                if not self._lock.acquire(blocking=False):
                    with self._count:
                        self.waiting += 1
                    self._lock.acquire()
                    with self._count:
                        self.waiting -= 1

            def __exit__(self, *exc):
                self._lock.release()

        provider, store, lock = GatedProvider(), Store(cache), WaitedLock()
        store._lock = lock
        alpha_joined, failed = threading.Event(), []
        batch, sent, reads = [], [], []
        connect = sqlite3.connect

        class MalformedOnce(sqlite3.Connection):
            def execute(self, sql, *args):
                if (
                    sql.startswith("SELECT body") and not failed and alpha_joined.is_set()
                    and threading.current_thread() is threading.main_thread()
                ):
                    failed.append(sql)
                    provider.gate.set()  # alpha's send answers, and alpha puts it
                    assert _wait_for(lambda: lock.waiting > 0), "no team waited on the lock"
                    raise sqlite3.DatabaseError("database disk image is malformed")
                return super().execute(sql, *args)

        real_ask, real_join, real_get = chain.SendPool.ask, chain.SendPool._join, Store.get
        real_finish = pipeline._finish_team

        def ask(self, calls, team):
            if not batch:  # alpha's file rows, asked for first
                batch.append(sum(call is not None for call in calls))
            return real_ask(self, calls, team)

        def join(self, call):
            future, sends = real_join(self, call)
            if sends:
                sent.append(call.key)
            if batch and batch[0] > 0:  # a join of alpha's first batch
                batch[0] -= 1
                if batch[0] == 0:
                    alpha_joined.set()
            return future, sends

        def get(self, key):
            payload = real_get(self, key)
            reads.append((key, payload is not None, bool(failed)))
            return payload

        def finish(result, *args):
            if result.team == "beta":  # beta looks up after alpha's first batch
                assert alpha_joined.wait(timeout=30), "alpha never looked its batch up"
            return real_finish(result, *args)

        monkeypatch.setattr(
            sqlite3, "connect", lambda *args, **kw: connect(*args, factory=MalformedOnce, **kw)
        )
        monkeypatch.setattr(chain.SendPool, "ask", ask)
        monkeypatch.setattr(chain.SendPool, "_join", join)
        monkeypatch.setattr(Store, "get", get)
        monkeypatch.setattr(pipeline, "_finish_team", finish)
        base = tmp_path / "malformed"
        try:
            with caplog.at_level("WARNING", logger="contribsum.store"):
                results = pipeline.run_analysis(
                    _config(base, [alpha, beta]), load_roster(ROSTER_TEXT), provider, store,
                    CostLedger(),
                )
        finally:
            store.close()
        assert all(r.ok for r in results), [r.error for r in results]
        assert len(failed) == 1
        assert [r.getMessage() for r in caplog.records if r.name == "contribsum.store"] == [
            f"corrupt cache database moved aside: {store.path}"
        ]
        held = {key for key, hit, after in reads if hit and not after}
        assert held and not held & set(sent)
        assert len(sent) == len(set(sent)) == fresh_sends - len(held)
        assert set(store_rows(cache)) == set(sent)  # alpha's put, after the set-aside
        assert _tree_bytes(base / "out") == fresh_out

    def test_old_layout_files_are_left_unread(self, tmp_path, caplog):
        """Entries a release before the database wrote, one file each beside
        a killed write's temp file, are never read: the run sends every
        request again, writes the same `out/`, and leaves every old file as
        it was."""
        repos = self._repos(tmp_path)
        cache = tmp_path / "cache"
        primed_sends, primed_out = self._run(tmp_path / "primed", repos, cache)
        rows = store_rows(cache)
        assert primed_sends == len(rows) > 0
        for path in cache.iterdir():
            path.unlink()
        write_file_layout(cache, rows)
        old = _tree_bytes(cache)
        assert len(old) == 2 * len(rows)  # an entry file and a temp file per request
        with caplog.at_level("WARNING", logger="contribsum.store"):
            sends, out = self._run(tmp_path / "upgraded", repos, cache)
        assert sends == primed_sends
        assert out == primed_out
        assert not [r for r in caplog.records if r.name == "contribsum.store"]
        assert _tree_bytes(cache) == {**old, "store.sqlite3": (cache / "store.sqlite3").read_bytes()}
        assert store_rows(cache) == rows  # every answer sent again


# every RunConfig field, with how the outputs record accounts for it
KEYED_FIELDS = {
    "window": "its start, end and label are in the inputs digest",
    "branch": "the resolved default branch and its tip are in the inputs digest",
    "analysis_tier": "every field is in the inputs digest",
    "synthesis_tier": "every field is in the inputs digest",
    "provider_mode": "in the inputs digest",
    "roles_enabled": "in the inputs digest",
    "coauthor_split": "in the inputs digest",
    "include_branches": "each name and its tip, or null, are in the inputs digest",
    "exclude_globs": "in the inputs digest",
    "sprint_instructions": "the text is in the inputs digest",
    "project_description": "the text is in the inputs digest",
}
UNKEYED_FIELDS = {
    "repos": "the team's tips and whether its history may be cut are in the inputs digest; "
             "a full history is decided by its tips, so where it lies shapes nothing of it "
             "(a cut one's record never matches: test_cut_history_reads_and_writes_no_slot), "
             "nor do the other teams",
    "out_dir": "files are checked by content wherever they are",
    "state_dir": "files are checked by content wherever they are",
    "analysis_workers": "outputs are equal for any pool size (TestSendPool)",
    "rate_limit": "paces sends only",
    "endpoint": "the model ids name the answers, as in the provider cache's keys",
    "api_key": "the model ids name the answers, as in the provider cache's keys",
    "replay_dir": "the model ids name the answers, as in the provider cache's keys",
    "roster_path": "the roster's students and aliases are in the inputs digest",
}


class TestOutputsSlot:
    """A team whose inputs digest and written files match the outputs
    record in its window's manifest is not run; any other team runs in full
    and equals a full run forced by deleting its window's manifest."""

    @staticmethod
    def _primed(tmp_path: Path) -> tuple[RunConfig, Store]:
        """A one-team course with both instruction texts, an included
        branch and a prior window, analysed once with a store."""
        handle, _ = synthfix.build(_history(12), tmp_path / "repo")
        cfg = _config(tmp_path, [("team", handle.root_path)], ("side",))
        cfg.sprint_instructions, cfg.project_description = "Ship it.\n", "A portal.\n"
        _write_state(Path(cfg.out_dir) / "team", "week-0", "2024-05-01T00:00:00+00:00")
        store = Store(tmp_path / "cache")
        (result,) = pipeline.run_analysis(
            cfg, load_roster(ROSTER_TEXT), MockProvider(), store, CostLedger()
        )
        assert result.ok, result.error
        assert "delta.md" in result.artifacts
        return cfg, store

    @staticmethod
    def _forced_run(cfg: RunConfig, roster, out: Path) -> dict[str, bytes]:
        """The out dir a full run of `cfg` leaves in `out`, a copy of `cfg`'s
        out dir whose team windows' manifests are deleted, which forces each
        team to run; the run has a fresh store beside `out`."""
        shutil.copytree(cfg.out_dir, out)
        forced = dataclasses.replace(cfg, out_dir=str(out))
        for team, _ in cfg.repos:  # a failed team may have written no manifest
            (pipeline.window_dir(forced, team) / pipeline.MANIFEST_NAME).unlink(missing_ok=True)
        with closing(Store(out.with_name(f"{out.name}-cache"))) as store:
            results = pipeline.run_analysis(forced, roster, MockProvider(), store, CostLedger())
        assert all(r.ok for r in results), [r.error for r in results]
        return _tree_bytes(out)

    def test_every_config_field_accounted_for(self):
        """A field added to RunConfig must be keyed or named here as not."""
        assert not KEYED_FIELDS.keys() & UNKEYED_FIELDS.keys()
        fields = {f.name for f in dataclasses.fields(RunConfig)}
        assert fields == KEYED_FIELDS.keys() | UNKEYED_FIELDS.keys()

    @pytest.mark.parametrize("field", UNKEYED_FIELDS)
    def test_unkeyed_field_keeps_the_slot(self, tmp_path, monkeypatch, caplog, field):
        """Each field left out of the digest, changed alone, still skips
        the team."""
        cfg, store = self._primed(tmp_path)
        if field == "repos":  # another team first, and the team's repository moved
            other, _ = synthfix.build(_history(13), tmp_path / "other")
            shutil.copytree(cfg.repos[0][1], tmp_path / "moved")
            cfg.repos = [("other", other.root_path), ("team", str(tmp_path / "moved"))]
            with caplog.at_level("INFO", logger=pipeline.__name__):
                results = pipeline.run_analysis(
                    cfg, load_roster(ROSTER_TEXT), MockProvider(), store, CostLedger()
                )
            assert all(r.ok for r in results), [r.error for r in results]
            assert "team outputs unchanged: team" in caplog.messages
            return
        if field == "out_dir":  # the same files in another place
            shutil.copytree(cfg.out_dir, tmp_path / "moved")
            cfg.out_dir = str(tmp_path / "moved")
        else:
            setattr(cfg, field, {"analysis_workers": 1, "rate_limit": 5.0}.get(field, "other"))
        _record_hit(monkeypatch, cfg, store)

    @pytest.mark.parametrize("change", [
        "window", "branch", "analysis_tier", "synthesis_tier", "provider_mode", "roles_enabled",
        "coauthor_split", "include_branches", "exclude_globs", "roster_name", "roster_alias",
        "sprint_instructions", "project_description", "default_commit", "branch_commit",
        "prior_changed", "prior_removed",
    ])
    def test_each_keyed_input_runs_the_team(self, tmp_path, monkeypatch, caplog, change):
        """One keyed input changed alone gives a full run whose out dir
        equals a forced full run with that input."""
        cfg, store = self._primed(tmp_path)
        roster = load_roster(ROSTER_TEXT)
        root = cfg.repos[0][1]
        prior = Path(cfg.out_dir) / "team" / "week-0"
        if change == "window":
            cfg.window = AnalysisWindow(JUNE.start, JUNE.end + timedelta(days=1), JUNE.label)
        elif change == "branch":
            cfg.branch = "side"
        elif change == "analysis_tier":
            cfg.analysis_tier = dataclasses.replace(ANALYSIS, max_input_tokens=64_000)
        elif change == "synthesis_tier":
            cfg.synthesis_tier = dataclasses.replace(SYNTHESIS, cost_per_1k_output=1.0)
        elif change == "provider_mode":
            cfg.provider_mode = "replay"
        elif change == "roles_enabled":
            cfg.roles_enabled = True
        elif change == "coauthor_split":
            cfg.coauthor_split = False
        elif change == "include_branches":
            cfg.include_branches = ("side", "topic")
        elif change == "exclude_globs":
            cfg.exclude_globs = (*cfg.exclude_globs, FILES[0])
        elif change == "roster_name":
            roster = load_roster(ROSTER_TEXT.replace("Carol Weiss", "Carol W."))
        elif change == "roster_alias":
            roster = load_roster(ROSTER_TEXT.replace("carol@campus.edu", "carol@campus.edu, cw@x"))
        elif change in ("sprint_instructions", "project_description"):
            setattr(cfg, change, "Other text.\n")
        elif change in ("default_commit", "branch_commit"):
            branch = "main" if change == "default_commit" else "side"
            entry = ("100644", "more.py", b"m = 1\n")
            commit_tree_entries(root, tmp_path / "entry.index", entry, branch=branch)
        elif change == "prior_changed":
            shutil.rmtree(prior)
            _write_state(prior.parent, "week-0", "2024-05-02T00:00:00+00:00")
        elif change == "prior_removed":
            shutil.rmtree(prior)
        expected = self._forced_run(cfg, roster, tmp_path / "forced")
        with caplog.at_level("INFO", logger=pipeline.__name__):
            (result,) = pipeline.run_analysis(cfg, roster, MockProvider(), store, CostLedger())
        assert result.ok, result.error
        assert "team outputs unchanged" not in caplog.text
        assert "team outputs stale: team (inputs)" in caplog.text
        assert _tree_bytes(Path(cfg.out_dir)) == expected
        _record_hit(monkeypatch, cfg, store, roster)

    @pytest.mark.parametrize(
        "fault",
        ["edited", "deleted", "corrupted", "extra_delta", "no_record", "nested", "manifest_deleted"],
    )
    def test_changed_file_is_rewritten(self, tmp_path, caplog, fault):
        """An artifact edited, deleted or corrupted, a delta the last run did
        not write, a manifest written before it held the outputs record, or
        one nested past the recursion limit, makes a full run that restores
        the out dir and logs no warning. So does a deleted manifest, the way
        to force a window to run, which logs no outputs line and, on the
        warm store, sends nothing."""
        cfg, store = self._primed(tmp_path)
        out = pipeline.window_dir(cfg, "team")
        if fault == "extra_delta":  # the last run found no prior window
            shutil.rmtree(Path(cfg.out_dir) / "team" / "week-0")
            (result,) = pipeline.run_analysis(
                cfg, load_roster(ROSTER_TEXT), MockProvider(), store, CostLedger()
            )
            assert "delta.md" not in result.artifacts
        expected = _tree_bytes(Path(cfg.out_dir))
        name = {"edited": "report.md", "deleted": "contribution.csv",
                "corrupted": pipeline.MANIFEST_NAME, "extra_delta": "delta.md",
                "no_record": pipeline.MANIFEST_NAME, "nested": pipeline.MANIFEST_NAME,
                "manifest_deleted": pipeline.MANIFEST_NAME}[fault]
        if fault == "edited":
            (out / name).write_bytes((out / name).read_bytes() + b"\n")
        elif fault in ("deleted", "manifest_deleted"):
            (out / name).unlink()
        elif fault == "corrupted":
            (out / name).write_bytes(b"\0" * len((out / name).read_bytes()))
        elif fault == "nested":
            (out / name).write_bytes(NESTED)
        elif fault == "no_record":
            old = json.loads((out / name).read_text(encoding="utf-8"))
            for field in ("inputs_digest", "state_sha256", "warnings"):
                del old[field]
            (out / name).write_text(json.dumps(old, indent=2, sort_keys=True), encoding="utf-8")
        else:
            (out / name).write_text("stale\n", encoding="utf-8")
        provider = Recorder(MockProvider())
        with caplog.at_level("INFO", logger=pipeline.__name__):
            (result,) = pipeline.run_analysis(
                cfg, load_roster(ROSTER_TEXT), provider, store, CostLedger()
            )
        assert result.ok, result.error
        if fault == "manifest_deleted":  # a window not run before, as far as the record goes
            assert "team outputs" not in caplog.text
            assert provider.calls == []
        else:
            reason = "no record" if fault == "no_record" else name
            assert f"team outputs stale: team ({reason})" in caplog.messages
        assert not [r for r in caplog.records if r.levelno >= logging.WARNING]
        assert _tree_bytes(Path(cfg.out_dir)) == expected

    # a trusted record but for one field each
    UNTRUSTED = {
        "inputs": {"inputs_digest": 1},
        "path": {"artifacts": {"../report.md": "0" * 64}},
        "warnings": {"warnings": [3]},
        "files": {"state_sha256": None},
        "hash": {"artifacts": {"report.md": "0" * 63}},
    }

    @pytest.mark.parametrize("payload", ["list", *UNTRUSTED])
    def test_untrusted_payload_warns_once_and_runs(self, tmp_path, monkeypatch, caplog, payload):
        cfg, store = self._primed(tmp_path)
        expected = _tree_bytes(Path(cfg.out_dir))
        manifest = pipeline.window_dir(cfg, "team") / pipeline.MANIFEST_NAME
        trusted = {**json.loads(manifest.read_text(encoding="utf-8")), "inputs_digest": "x"}
        pipeline._recorded_outputs(trusted)
        untrusted = ["not", "a", "dict"] if payload == "list" else {
            **trusted, **self.UNTRUSTED[payload]
        }
        manifest.write_text(json.dumps(untrusted), encoding="utf-8")
        with caplog.at_level("INFO", logger=pipeline.__name__):
            (result,) = pipeline.run_analysis(
                cfg, load_roster(ROSTER_TEXT), MockProvider(), store, CostLedger()
            )
        assert result.ok, result.error
        dropped = [r for r in caplog.records if r.levelno == logging.WARNING]
        assert [r.getMessage().split(" (")[0] for r in dropped] == [
            "team outputs record dropped: team"
        ]
        assert _tree_bytes(Path(cfg.out_dir)) == expected
        _record_hit(monkeypatch, cfg, store)  # the record is rewritten

    def test_fresh_state_dir_skips_an_unchanged_team(self, tmp_path, monkeypatch):
        """The record lives with the outputs: a re-run with a new, empty
        state dir sends nothing and writes nothing for an unchanged team."""
        cfg, _ = self._primed(tmp_path)
        _record_hit(monkeypatch, cfg, Store(tmp_path / "fresh"))

    def test_failed_manifest_write_leaves_no_stale_record(self, tmp_path, monkeypatch, caplog):
        """A run for new inputs that rewrites every artifact but fails to
        write its manifest leaves the last run's record, which its files no
        longer match: the next run with the new inputs runs in full and its
        out dir equals a forced full run's."""
        cfg, store = self._primed(tmp_path)
        roster = load_roster(ROSTER_TEXT)
        out = pipeline.window_dir(cfg, "team")
        before = (out / pipeline.MANIFEST_NAME).read_bytes()
        cfg.sprint_instructions = "Ship it twice.\n"
        real_write = pipeline.write_atomic

        def failing_write(path, data):
            if Path(path).name == pipeline.MANIFEST_NAME:
                raise OSError(28, "No space left on device")
            real_write(path, data)

        with monkeypatch.context() as patch:
            patch.setattr(pipeline, "write_atomic", failing_write)
            (failed,) = pipeline.run_analysis(cfg, roster, MockProvider(), store, CostLedger())
        assert not failed.ok and "No space left on device" in failed.error
        assert (out / pipeline.MANIFEST_NAME).read_bytes() == before
        expected = self._forced_run(cfg, roster, tmp_path / "forced")
        with caplog.at_level("INFO", logger=pipeline.__name__):
            (result,) = pipeline.run_analysis(cfg, roster, MockProvider(), store, CostLedger())
        assert result.ok, result.error
        assert "team outputs stale: team (inputs)" in caplog.messages
        assert _tree_bytes(Path(cfg.out_dir)) == expected
        _record_hit(monkeypatch, cfg, store)

    def test_hit_equals_a_run_without_a_store(self, tmp_path, caplog, built_fixtures, branch_repos):
        """Every standard fixture, four `random_script` and four
        `random_branch_script` histories as one course: the re-run skips
        every team, and its results and out dir equal the first run's and a
        forced full run's."""
        repos = [(name, handle.root_path) for name, (handle, _) in sorted(built_fixtures.items())]
        for seed in range(4):
            handle, _ = synthfix.build(random_script(seed), tmp_path / f"r{seed}")
            repos.append((f"random-{seed}", handle.root_path))
            repos.append((f"branch-{seed}", branch_repos[seed][0].root_path))
        cfg = _config(tmp_path, repos, ("feature",))
        roster = load_roster(ROSTER_TEXT)
        store = Store(tmp_path / "cache")
        first = pipeline.run_analysis(cfg, roster, MockProvider(), store, CostLedger())
        assert all(r.ok and not r.unchanged for r in first), [r.error for r in first]
        assert any(r.warnings for r in first)
        before = {p: p.stat().st_mtime_ns for p in Path(cfg.out_dir).rglob("*") if p.is_file()}
        ledger = CostLedger()
        with caplog.at_level("INFO", logger=pipeline.__name__):
            again = pipeline.run_analysis(cfg, roster, MockProvider(), store, ledger)
        assert again == [dataclasses.replace(r, unchanged=True) for r in first]
        assert ledger.entries == []
        unchanged = [m for m in caplog.messages if m.startswith("team outputs unchanged: ")]
        assert unchanged == [f"team outputs unchanged: {team}" for team, _ in repos]
        assert {p: p.stat().st_mtime_ns for p in before} == before
        assert _tree_bytes(Path(cfg.out_dir)) == self._forced_run(cfg, roster, tmp_path / "plain")

    def test_rerun_after_a_failed_team_runs_only_that_team(self, tmp_path, monkeypatch, caplog):
        """A course re-run after one team failed (here on a full disk while
        writing its report) skips the team that finished and runs the
        failed one, whose manifest holds no record of its new files."""
        roots = {}
        for n, team in enumerate(TestFaultMatrix.TEAMS):
            handle, _ = synthfix.build(_history(12 + n), tmp_path / "repos" / team)
            roots[team] = handle.root_path
        cfg = _config(tmp_path, list(roots.items()), ("side",))
        roster = load_roster(ROSTER_TEXT)
        store = Store(tmp_path / "cache")
        with monkeypatch.context() as patch:
            TestFaultMatrix._killed_write(tmp_path, roots, patch)
            results = pipeline.run_analysis(cfg, roster, MockProvider(), store, CostLedger())
        assert [r.ok for r in results] == [False, True]
        finished = Path(cfg.out_dir) / "bystander"
        before = {p: p.stat().st_mtime_ns for p in finished.rglob("*") if p.is_file()}
        with caplog.at_level("INFO", logger=pipeline.__name__):
            results = pipeline.run_analysis(cfg, roster, MockProvider(), store, CostLedger())
        assert all(r.ok for r in results), [r.error for r in results]
        outcomes = [m for m in caplog.messages if m.startswith("team outputs")]
        assert outcomes == ["team outputs unchanged: bystander"]
        assert {p: p.stat().st_mtime_ns for p in before} == before
        assert _tree_bytes(Path(cfg.out_dir)) == self._forced_run(cfg, roster, tmp_path / "plain")

    @pytest.mark.parametrize("cut", ["shallow", "grafted"])
    def test_cut_history_reads_and_writes_no_slot(self, tmp_path, caplog, cut):
        handle, _ = synthfix.build(_history(30), tmp_path / "origin")
        clone = str(tmp_path / "clone")
        depth = ["--depth", "10"] if cut == "shallow" else []
        subprocess.run(["git", "clone", "-q", *depth, f"file://{handle.root_path}", clone],
                       check=True, capture_output=True)
        if cut == "grafted":
            middle = ingest.open_repo(clone).history.commits[15].hash
            (Path(clone) / ".git" / "info").mkdir(exist_ok=True)
            (Path(clone) / ".git" / "info" / "grafts").write_text(middle + "\n")
        cfg = _config(tmp_path, [("team", clone)])
        roster = load_roster(ROSTER_TEXT)
        store = Store(tmp_path / "cache")
        with caplog.at_level("INFO", logger=pipeline.__name__):
            for _ in range(2):
                (result,) = pipeline.run_analysis(cfg, roster, MockProvider(), store, CostLedger())
                assert result.ok, result.error
        assert "team outputs" not in caplog.text
        cut_out = _tree_bytes(Path(cfg.out_dir))
        assert cut_out == self._forced_run(cfg, roster, tmp_path / "plain")

        # the cut run's record matches neither a full clone elsewhere with the
        # same tips nor the history deepened in place: each is a full run
        # whose out dir equals a forced full run's
        def full_run(label: str) -> dict[str, bytes]:
            caplog.clear()
            with caplog.at_level("INFO", logger=pipeline.__name__):
                (result,) = pipeline.run_analysis(cfg, roster, MockProvider(), store, CostLedger())
            assert result.ok, result.error
            assert "team outputs stale: team (inputs)" in caplog.messages
            out = _tree_bytes(Path(cfg.out_dir))
            assert out == self._forced_run(cfg, roster, tmp_path / label)
            return out

        cfg.repos = [("team", handle.root_path)]
        full = full_run("plain-origin")
        assert full != cut_out  # the cut history attributes its boundary's lines
        cfg.repos = [("team", clone)]
        (result,) = pipeline.run_analysis(cfg, roster, MockProvider(), store, CostLedger())
        assert result.ok, result.error
        assert _tree_bytes(Path(cfg.out_dir)) == cut_out
        if cut == "shallow":
            subprocess.run(["git", "-C", clone, "fetch", "-q", "--unshallow"],
                           check=True, capture_output=True)
        else:
            (Path(clone) / ".git" / "info" / "grafts").unlink()
        assert not pipeline.may_be_shallow(clone)
        assert full_run("plain-deepened") == full


class TestCodeDigest:
    """`code_digest`, the inputs digest's share of the code."""

    @staticmethod
    def _digest(monkeypatch, package) -> str:
        monkeypatch.setattr(pipeline, "PACKAGE", package)
        pipeline.code_digest.cache_clear()
        try:
            return pipeline.code_digest()
        finally:
            pipeline.code_digest.cache_clear()

    def test_digest_changes_with_each_source(self, tmp_path, monkeypatch):
        """One more byte in any one module or prompt template of the package
        gives another digest, so an edit to it retires every outputs record."""
        package = tmp_path / "contribsum"
        shutil.copytree(pipeline.PACKAGE, package, ignore=shutil.ignore_patterns("__pycache__"))
        sources = sorted(
            path for path in package.rglob("*")
            if path.suffix == ".py" or path.parent.name == "prompts"
        )
        names = {path.relative_to(package).as_posix() for path in sources}
        assert {"pipeline.py", "report.py", "tables.py", "agents/chain.py"} <= names
        assert {"agents/prompts/synthesize.txt", "agents/prompts/system.txt"} <= names
        digests = {None: self._digest(monkeypatch, package)}
        for path in sources:
            original = path.read_bytes()
            path.write_bytes(original + b"\n")
            digests[path] = self._digest(monkeypatch, package)
            path.write_bytes(original)
        assert len(set(digests.values())) == len(sources) + 1
        assert self._digest(monkeypatch, package) == digests[None]

    def test_digest_ignores_caches_and_other_files(self, tmp_path, monkeypatch):
        """Compiled caches and the fixture scripts shape no output; a renamed
        module does."""
        package = tmp_path / "contribsum"
        shutil.copytree(pipeline.PACKAGE, package, ignore=shutil.ignore_patterns("__pycache__"))
        before = self._digest(monkeypatch, package)
        (package / "__pycache__").mkdir()
        (package / "__pycache__" / "pipeline.cpython-311.pyc").write_bytes(b"\0")
        (package / "fixtures" / "extra.repo").write_text("# a fixture\n")
        assert self._digest(monkeypatch, package) == before
        (package / "tables.py").rename(package / "tables_renamed.py")
        assert self._digest(monkeypatch, package) != before
