"""Repository opening, history listing, window heads, the history memo."""

from __future__ import annotations

import json
import logging
import os
import shutil
import subprocess
from datetime import datetime, timezone
from pathlib import Path

import pytest

from conftest import (
    JUNE, ROSTER_TEXT, random_branch_script, store_rows, tree_files, with_tree_entries,
)
from contribsum import gitio, memo, synthfix
from contribsum.attribution import build_contribution_set
from contribsum.errors import BranchNotFound, NotARepository
from contribsum.identity import load_roster
from contribsum.ingest import AnalysisWindow, list_commits, load_history, open_repo
from contribsum.store import Store
from contribsum.synthfix import Insert, RepoScript, SetFile, Step


class TestAnalysisWindow:
    def test_start_must_precede_end(self):
        with pytest.raises(ValueError):
            AnalysisWindow(start=JUNE.end, end=JUNE.start, label="bad")

    def test_bounds_must_be_aware(self):
        with pytest.raises(ValueError):
            AnalysisWindow(
                start=datetime(2024, 6, 1), end=datetime(2024, 6, 8), label="naive"
            )

    def test_half_open_contains(self):
        assert JUNE.contains(JUNE.start)
        assert not JUNE.contains(JUNE.end)


class TestOpenRepo:
    def test_configured_default_branch(self, built_fixtures):
        handle, _ = built_fixtures["sole_author"]
        assert handle.default_branch == "main"
        assert len(handle.head_ref) == 40

    def test_empty_directory_not_a_repository(self, tmp_path):
        with pytest.raises(NotARepository):
            open_repo(str(tmp_path / "nothing-here"))
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(NotARepository):
            open_repo(str(empty))

    def test_missing_branch_named_in_error(self, built_fixtures):
        handle, _ = built_fixtures["sole_author"]
        with pytest.raises(BranchNotFound) as err:
            open_repo(handle.root_path, "grading")
        assert err.value.branch == "grading"

    def test_explicit_branch_request(self, built_fixtures):
        handle, _ = built_fixtures["unmerged_branch"]
        experiment = open_repo(handle.root_path, "experiment")
        assert experiment.default_branch == "experiment"
        assert experiment.head_ref != handle.head_ref


    @staticmethod
    def _repo(tmp_path):
        """The unmerged_branch fixture (branches main and experiment), a git
        runner for it and every branch's tip."""
        handle, _ = synthfix.build_standard_fixture("unmerged_branch", tmp_path / "repo")
        root = handle.root_path

        def git(*args: str) -> str:
            return subprocess.run(
                ["git", "-C", root, *args], capture_output=True, check=True, text=True
            ).stdout.strip()

        tips = {name: git("rev-parse", f"refs/heads/{name}") for name in ("main", "experiment")}
        return root, git, tips

    def test_head_on_another_branch(self, tmp_path):
        root, git, tips = self._repo(tmp_path)
        git("symbolic-ref", "HEAD", "refs/heads/experiment")
        handle = open_repo(root)
        assert (handle.default_branch, handle.head_ref) == ("experiment", tips["experiment"])

    def test_detached_head_falls_back_to_main(self, tmp_path):
        root, git, tips = self._repo(tmp_path)
        git("update-ref", "--no-deref", "HEAD", tips["experiment"])
        handle = open_repo(root)
        assert (handle.default_branch, handle.head_ref) == ("main", tips["main"])

    def test_unborn_head_falls_back_to_main_then_master(self, tmp_path):
        root, git, tips = self._repo(tmp_path)
        git("symbolic-ref", "HEAD", "refs/heads/trunk")
        handle = open_repo(root)
        assert (handle.default_branch, handle.head_ref) == ("main", tips["main"])
        git("branch", "-m", "main", "master")
        handle = open_repo(root)
        assert (handle.default_branch, handle.head_ref) == ("master", tips["main"])
        git("branch", "-m", "master", "other")
        with pytest.raises(BranchNotFound) as err:
            open_repo(root)
        assert err.value.branch == "main / master"

    def test_one_git_process(self, built_fixtures, monkeypatch):
        handle, _ = built_fixtures["unmerged_branch"]
        spawned = []
        real_run = subprocess.run

        def counting_run(*args, **kwargs):
            spawned.append(args[0])
            return real_run(*args, **kwargs)

        monkeypatch.setattr(subprocess, "run", counting_run)
        for branch in (None, "experiment", "grading"):
            spawned.clear()
            try:
                open_repo(handle.root_path, branch)
            except BranchNotFound:
                assert branch == "grading"
            assert len(spawned) == 1, spawned


class TestListCommits:
    def test_empty_window_empty_list(self, built_fixtures):
        handle, _ = built_fixtures["sole_author"]
        window = AnalysisWindow(
            start=datetime(2031, 1, 1, tzinfo=timezone.utc),
            end=datetime(2031, 2, 1, tzinfo=timezone.utc),
            label="far-future",
        )
        assert list_commits(handle, window) == []

    def test_merge_commits_excluded(self, built_fixtures):
        handle, truth = built_fixtures["merged_branch"]
        records = list_commits(handle, JUNE)
        assert all(not r.is_merge for r in records)
        # the script has 4 steps, one of them the merge
        assert len(records) == 3
        assert {r.hash for r in records} == {
            truth.hash_of(m.index) for m in truth.steps if not m.is_merge
        }

    def test_unmerged_side_branch_excluded(self, built_fixtures):
        handle, truth = built_fixtures["unmerged_branch"]
        records = list_commits(handle, JUNE)
        branch_step = next(m for m in truth.steps if m.index not in truth.main_steps)
        assert truth.hash_of(branch_step.index) not in {r.hash for r in records}

    def test_ordered_oldest_first(self, built_fixtures):
        handle, _ = built_fixtures["zero_commit_student"]
        records = list_commits(handle, JUNE)
        keys = [(r.authored_at, r.hash) for r in records]
        assert keys == sorted(keys)

    def test_changes_carry_statuses(self, built_fixtures):
        handle, _ = built_fixtures["rename_keeps_authors"]
        records = list_commits(handle, JUNE)
        statuses = [c.status for r in records for c in r.changes]
        assert "A" in statuses
        rename = next(c for r in records for c in r.changes if c.status == "R")
        assert rename.old_path == "util.py"
        assert rename.path == "helpers.py"

    def test_messages_carry_trailers(self, built_fixtures):
        handle, _ = built_fixtures["coauthored_commit"]
        records = list_commits(handle, JUNE)
        assert any("Co-authored-by: Bob Roy" in r.message for r in records)


class TestWindowHead:
    def test_none_before_any_commit(self, built_fixtures):
        handle, _ = built_fixtures["sole_author"]
        window = AnalysisWindow(
            start=datetime(2020, 1, 1, tzinfo=timezone.utc),
            end=datetime(2020, 2, 1, tzinfo=timezone.utc),
            label="prehistory",
        )
        assert handle.history.window_head(window) is None

    def test_full_window_is_branch_head(self, built_fixtures):
        handle, _ = built_fixtures["merged_branch"]
        assert handle.history.window_head(JUNE) == handle.head_ref

    def test_partial_window_stops_at_cutoff(self, built_fixtures):
        handle, truth = built_fixtures["interleaved_edits"]
        cutoff = truth.steps[1].authored_at  # exclusive: second commit outside
        window = AnalysisWindow(start=JUNE.start, end=cutoff, label="early")
        assert handle.history.window_head(window) == truth.hash_of(0)


class TestReplayConsistency:
    def test_parent_snapshot_plus_diff_equals_snapshot(self, built_fixtures):
        # For every non-merge commit: applying its changes against the
        # parent snapshot must yield the commit's snapshot file set.
        for name in ("interleaved_edits", "rename_keeps_authors", "unmerged_branch"):
            handle, _ = built_fixtures[name]
            for record in list_commits(handle, JUNE):
                if not record.parents:
                    continue
                parent_files = dict(tree_files(handle, record.parents[0]))
                child_files = dict(tree_files(handle, record.hash))
                expected = dict(parent_files)
                for change in record.changes:
                    if change.status == "D":
                        expected.pop(change.path, None)
                    elif change.status == "R":
                        expected.pop(change.old_path, None)
                        expected[change.path] = child_files[change.path]
                    else:
                        expected[change.path] = child_files[change.path]
                assert expected == child_files, f"{name}:{record.hash}"


def _log_slots(store: Store) -> list[dict]:
    """The payloads of `store` that are log slots, read past its API."""
    slots = []
    for body in store_rows(store.directory).values():
        payload = json.loads(json.loads(body)["payload_json"])
        if isinstance(payload, dict) and payload.keys() == {"tip", "log"}:
            slots.append(payload)
    return slots


def _advance(root: str, ref: str, n: int) -> str:
    """Commit one new file on branch `ref` of the bare repository at `root`;
    the new tip."""
    env = {
        **os.environ,
        "GIT_AUTHOR_NAME": "Bob Roy", "GIT_AUTHOR_EMAIL": "bob@campus.edu",
        "GIT_COMMITTER_NAME": "Bob Roy", "GIT_COMMITTER_EMAIL": "bob@campus.edu",
        "GIT_AUTHOR_DATE": f"2024-06-2{n}T12:00:00+00:00",
        "GIT_COMMITTER_DATE": f"2024-06-2{n}T12:00:00+00:00",
        "GIT_INDEX_FILE": os.path.join(root, f"advance-{n}.index"),
    }

    def git(*args: str, stdin: bytes = b"") -> str:
        return subprocess.run(
            ["git", "-C", root, *args], env=env, input=stdin, capture_output=True, check=True
        ).stdout.decode().strip()

    blob = git("hash-object", "-w", "--stdin", stdin=f"step_{n} = {n}\n".encode())
    git("read-tree", f"refs/heads/{ref}")
    git("update-index", "--add", "--cacheinfo", f"100644,{blob},late/step_{n}.py")
    tip = git("commit-tree", git("write-tree"), "-p", f"refs/heads/{ref}", "-m", f"late {n}")
    git("update-ref", f"refs/heads/{ref}", tip)
    return tip


def _memo_lines(caplog) -> list[tuple[str, str]]:
    """(level, message up to its reason) of each warning and each history
    memo line logged."""
    return [
        (r.levelname, r.getMessage().split(" (")[0])
        for r in caplog.records
        if r.levelno >= logging.WARNING or r.getMessage().startswith("history memo")
    ]


def _analysed(root: str, roster, store: Store | None, branches=()) -> str:
    """`to_json()` of the June contribution set of a freshly opened `root`."""
    repo = open_repo(root, store=store)
    return build_contribution_set(repo, JUNE, roster, branches=branches).to_json()


class TestHistoryMemo:
    """Each ref's `git log` is remembered in one slot of the run's Store:
    a slot read at the ref's tip stands in for `git log`. A slot read at
    another tip is stale, logged at INFO; any other slot is dropped with a
    warning. Either way the log is read and the slot rewritten."""

    @staticmethod
    def _remembered_logs(handle, store: Store, monkeypatch) -> None:
        """Every branch of `handle` loads from its slot with no `git log`
        and no write, into the commits a fresh `gitio.log` gives."""
        branches = tuple(sorted(set(handle.tips) - {handle.default_branch}))
        repo = open_repo(handle.root_path, handle.default_branch, store)
        build_contribution_set(repo, JUNE, load_roster(ROSTER_TEXT), branches=branches)
        with monkeypatch.context() as patch:
            patch.setattr(gitio, "raw_log", None)  # a `git log` would fail
            patch.setattr(Store, "put", None)  # so would a write
            remembered = {
                ref: load_history(handle.root_path, ref, tip, store)
                for ref, tip in handle.tips.items()
            }
        for ref, tip in handle.tips.items():
            assert remembered[ref].commits == gitio.log(handle.root_path, tip), ref

    def test_slot_hit_equals_a_fresh_log(self, built_fixtures, branch_repos, tmp_path, monkeypatch):
        for name, (handle, _) in built_fixtures.items():
            self._remembered_logs(handle, Store(tmp_path / name), monkeypatch)
        for seed, (handle, _, _) in enumerate(branch_repos):
            self._remembered_logs(handle, Store(tmp_path / f"b{seed}"), monkeypatch)

    def test_bytes_outside_utf8_survive_the_slot(self, tmp_path, monkeypatch):
        """Paths and a message in UTF-8 and in bytes that are not UTF-8."""
        root = with_tree_entries(tmp_path, ("100644", "dïr/ünïcode.py", b"x = 1\n"))
        env = {**os.environ, "GIT_INDEX_FILE": str(tmp_path / "raw.index")}
        for role in ("AUTHOR", "COMMITTER"):
            env |= {f"GIT_{role}_NAME": "Bob Roy", f"GIT_{role}_EMAIL": "bob@campus.edu",
                    f"GIT_{role}_DATE": "2024-06-21T12:00:00+00:00"}

        def git(*args) -> bytes:
            return subprocess.run(
                ["git", "-C", root, *args], env=env, capture_output=True, check=True
            ).stdout.strip()

        blob = git("hash-object", "-w", "--stdin")  # the empty blob
        git("read-tree", "refs/heads/main")
        git("update-index", "--add", "--cacheinfo", b"100644," + blob + b",caf\xe9 \xff.py")
        tree = git("write-tree")
        commit = git("commit-tree", tree, "-p", "refs/heads/main", "-m", b"na\xefve \x80 message")
        git("update-ref", "refs/heads/main", commit)
        handle = open_repo(root)
        assert any("\ufffd" in c.path for c in handle.history.commits[-1].changes)
        self._remembered_logs(handle, Store(tmp_path / "cache"), monkeypatch)

    @staticmethod
    def _spoilt(root: str, tip: str, other_tip: str) -> dict[str, object]:
        """Name -> a slot for `tip` spoilt one way."""
        log = gitio.raw_log(root, tip)
        parent = gitio.log(root, tip)[-1].parents[0]
        first = log.index(b"\x01", 1)  # the second commit record
        return {
            "wrong tip": {"tip": "f" * 40, "log": log.decode("latin-1")},
            "slot of another ref": {
                "tip": other_tip, "log": gitio.raw_log(root, other_tip).decode("latin-1")
            },
            "log as a number": {"tip": tip, "log": 7},
            "log as a list": {"tip": tip, "log": [log.decode("latin-1")]},
            "no log": {"tip": tip},
            "not a dict": [tip, log.decode("latin-1")],
            "log of the parent": {"tip": tip, "log": gitio.raw_log(root, parent).decode("latin-1")},
            "empty log": {"tip": tip, "log": ""},
            "cut record": {"tip": tip, "log": "\x01" + tip + "\x00"},
            "beyond latin-1": {"tip": tip, "log": log.decode("latin-1") + "一"},
            "first commit missing": {"tip": tip, "log": log[first:].decode("latin-1")},
        }

    def test_untrusted_slot_dropped_and_rewritten(self, branch_repos, tmp_path, caplog):
        handle, truth, _ = branch_repos[3]
        root, roster = handle.root_path, truth.roster
        tip, feature_tip = handle.tips["main"], handle.tips["feature"]
        assert tip != feature_tip
        plain = _analysed(root, roster, None, ("feature",))
        warm = Store(tmp_path / "warm")
        _analysed(root, roster, warm, ("feature",))
        key = memo._log_key(root, "main")
        good = warm.get(key)
        assert good == {"tip": tip, "log": gitio.raw_log(root, tip).decode("latin-1")}
        for name, spoilt in self._spoilt(root, tip, feature_tip).items():
            store = Store(tmp_path / "spoilt" / name)
            store.put(key, spoilt)
            caplog.clear()
            with caplog.at_level("INFO", logger="contribsum.memo"):
                assert _analysed(root, roster, store, ("feature",)) == plain, name
            # a slot read at another tip cannot be told from a ref that moved
            stale = name in ("wrong tip", "slot of another ref")
            assert _memo_lines(caplog) == (
                [("INFO", "history memo slot stale: main")] if stale
                else [("WARNING", "history memo entry dropped: main")]
            ), name
            assert store.get(key) == good, name  # the log just read replaces it

    def test_no_root_read_for_a_log_from_git_or_its_slot(self, branch_repos, tmp_path, monkeypatch):
        """Whether anything is remembered is decided from the git directory,
        so no root commit is read, neither for a history read from git nor
        for one read from its slot, even when a new window head is replayed
        and remembered; no object is read twice."""
        reads: list[str] = []
        real_get = gitio.ObjectReader.get

        def counting_get(self, ref):
            reads.append(ref)
            return real_get(self, ref)

        monkeypatch.setattr(gitio.ObjectReader, "get", counting_get)
        handle, truth, _ = branch_repos[7]
        roots = {c.hash for c in handle.history.commits if not c.parents}
        middle = handle.history.commits[len(handle.history.commits) // 2]
        earlier = AnalysisWindow(start=JUNE.start, end=middle.authored_at, label="earlier")
        store = Store(tmp_path / "cache")
        for window in (JUNE, earlier, JUNE):
            reads.clear()
            repo = open_repo(handle.root_path, store=store)
            build_contribution_set(repo, window, truth.roster, branches=("feature",))
            assert not roots & set(reads), window.label
            assert len(reads) == len(set(reads)), window.label
        assert len(_log_slots(store)) == 2

    def test_moved_tip_rewrites_the_one_slot_per_ref(self, tmp_path, caplog):
        """Three runs, each after both tips moved, leave one slot per ref,
        read at the tips of the last run."""
        handle, truth = synthfix.build(random_branch_script(5), tmp_path / "repo")
        root = handle.root_path
        store = Store(tmp_path / "cache")
        for n in range(3):
            tips = {ref: _advance(root, ref, n) for ref in ("main", "feature")}
            caplog.clear()
            with caplog.at_level("INFO", logger="contribsum.memo"):
                got = _analysed(root, truth.roster, store, ("feature",))
            assert got == _analysed(root, truth.roster, None, ("feature",))
            assert sorted(_memo_lines(caplog)) == ([] if n == 0 else [
                ("INFO", "history memo slot stale: feature"),
                ("INFO", "history memo slot stale: main"),
            ])
            slots = _log_slots(store)
            assert sorted(slot["tip"] for slot in slots) == sorted(tips.values())
            assert {ref: store.get(memo._log_key(root, ref))["tip"] for ref in tips} == tips


def _clone_steps(commits: int) -> RepoScript:
    """`commits` commits by Alice and Bob in turn, each adding a line to
    one of three files."""
    files = ("a.py", "b.py", "c.py")
    authors = (("Alice Lee", "alice@campus.edu"), ("Bob Roy", "bob@campus.edu"))
    steps = [Step(*authors[0], message="start", ops=tuple(SetFile(f, ("x = 0",)) for f in files))]
    for n in range(1, commits):
        steps.append(Step(*authors[n % 2], message=f"line {n}",
                          ops=(Insert(files[n % 3], 1, (f"v_{n} = {n}",)),)))
    return RepoScript(name="to-clone", roster_text=ROSTER_TEXT, steps=steps)


class TestShallowClone:
    def test_grafted_history_is_never_remembered(self, tmp_path):
        """A `--depth` clone's boundary commit shows no parents, so it owns
        every line it holds. Nothing learnt from it is remembered: once the
        clone is deepened, a run with the same store equals a run without."""
        handle, truth = synthfix.build(_clone_steps(30), tmp_path / "origin")
        clone = str(tmp_path / "clone")
        subprocess.run(
            ["git", "clone", "-q", "--depth", "10", f"file://{handle.root_path}", clone],
            check=True, capture_output=True,
        )
        assert open_repo(clone).history.commits[0].parents == ()
        store = Store(tmp_path / "cache")
        shallow = _analysed(clone, truth.roster, None)
        for _ in range(2):
            assert _analysed(clone, truth.roster, store) == shallow
            assert store_rows(store.directory) == {}
        subprocess.run(
            ["git", "-C", clone, "fetch", "-q", "--unshallow"], check=True, capture_output=True
        )
        full = _analysed(clone, truth.roster, None)
        assert full != shallow  # the boundary commit no longer owns the older lines
        assert full == _analysed(handle.root_path, truth.roster, None)
        assert _analysed(clone, truth.roster, store) == full
        assert len(store_rows(store.directory)) == 2  # the log slot and the head's entry
        assert _analysed(clone, truth.roster, store) == full

    def test_reclone_at_the_same_tip_trusts_no_slot(self, tmp_path):
        """A full clone's log slot names commits a `--depth` clone lacks, so
        once such a clone replaces it at the same path and tip the slot is
        not read: a run over the window remembered before and one over a
        new window each equal a run without a store, and write nothing."""
        handle, truth = synthfix.build(_clone_steps(30), tmp_path / "origin")
        url, clone = f"file://{handle.root_path}", str(tmp_path / "clone")
        subprocess.run(["git", "clone", "-q", url, clone], check=True, capture_output=True)
        store = Store(tmp_path / "cache")
        _analysed(clone, truth.roster, store)
        written = store_rows(store.directory)
        assert len(written) == 2  # the log slot and the head's entry
        shutil.rmtree(clone)
        subprocess.run(
            ["git", "clone", "-q", "--depth", "10", url, clone], check=True, capture_output=True
        )
        commits = open_repo(clone).history.commits
        assert commits[0].parents == () and commits[-1].hash == handle.head_ref
        earlier = AnalysisWindow(start=JUNE.start, end=commits[-3].authored_at, label="earlier")
        for window in (JUNE, earlier):
            plain = build_contribution_set(open_repo(clone), window, truth.roster)
            got = build_contribution_set(open_repo(clone, store=store), window, truth.roster)
            assert got.to_json() == plain.to_json(), window.label
        assert store_rows(store.directory) == written

    @staticmethod
    def _untouched(store: Store, monkeypatch, run):
        """`run()`, which makes no `Store.get` and no `Store.put` on `store`."""
        calls = []

        def counted(real):
            def call(self, *args):
                if self is store:
                    calls.append(real.__name__)
                return real(self, *args)
            return call

        with monkeypatch.context() as patch:
            patch.setattr(Store, "get", counted(Store.get))
            patch.setattr(Store, "put", counted(Store.put))
            result = run()
        assert calls == []
        return result

    def test_shallow_clone_beside_a_full_one_reads_nothing(self, tmp_path, monkeypatch, caplog):
        """A full clone and a `--depth` clone at the same head share one
        store: the full clone's head entry names owners the shallow clone
        lacks, and the shallow run neither reads nor writes it, nor warns."""
        handle, truth = synthfix.build(_clone_steps(30), tmp_path / "origin")
        url = f"file://{handle.root_path}"
        full, shallow = str(tmp_path / "full"), str(tmp_path / "shallow")
        subprocess.run(["git", "clone", "-q", url, full], check=True, capture_output=True)
        subprocess.run(
            ["git", "clone", "-q", "--depth", "10", url, shallow], check=True, capture_output=True
        )
        assert open_repo(shallow).head_ref == open_repo(full).head_ref
        store = Store(tmp_path / "cache")
        _analysed(full, truth.roster, store)
        written = store_rows(store.directory)
        plain = _analysed(shallow, truth.roster, None)
        with caplog.at_level("WARNING"):
            got = self._untouched(
                store, monkeypatch, lambda: _analysed(shallow, truth.roster, store)
            )
        assert got == plain
        assert [r for r in caplog.records if r.levelno >= logging.WARNING] == []
        assert store_rows(store.directory) == written

    def test_graft_file_remembers_nothing(self, tmp_path, monkeypatch):
        """A full clone whose graft file makes a middle commit a root: a run
        with a store reads and writes nothing and equals one without."""
        handle, truth = synthfix.build(_clone_steps(30), tmp_path / "origin")
        clone = str(tmp_path / "clone")
        subprocess.run(
            ["git", "clone", "-q", f"file://{handle.root_path}", clone],
            check=True, capture_output=True,
        )
        full = _analysed(clone, truth.roster, None)
        middle = open_repo(clone).history.commits[15].hash
        (Path(clone) / ".git" / "info").mkdir(exist_ok=True)
        (Path(clone) / ".git" / "info" / "grafts").write_text(middle + "\n", encoding="utf-8")
        assert open_repo(clone).history.commits[0].hash == middle
        grafted = _analysed(clone, truth.roster, None)
        assert grafted != full  # the middle commit now owns every older line
        store = Store(tmp_path / "cache")
        for _ in range(2):
            got = self._untouched(store, monkeypatch, lambda: _analysed(clone, truth.roster, store))
            assert got == grafted

    def test_shallow_told_from_the_git_directory(self, tmp_path):
        """Bare, plain and linked-worktree layouts, each full and shallow; a
        graft file counts as shallow, as does a directory whose git
        directory is elsewhere."""
        handle, _ = synthfix.build(_clone_steps(3), tmp_path / "origin")

        def git(*args: str) -> None:
            subprocess.run(["git", *args], check=True, capture_output=True)

        for depth in (None, 1):
            clone = tmp_path / f"clone-{depth}"
            git("clone", "-q", *(["--depth", str(depth)] if depth else []),
                f"file://{handle.root_path}", str(clone))
            git("-C", str(clone), "worktree", "add", "-q", "--detach", str(clone) + "-tree")
            for root in (clone, Path(str(clone) + "-tree")):
                assert memo.may_be_shallow(str(root)) == bool(depth), root
        assert not memo.may_be_shallow(handle.root_path)
        (Path(handle.root_path) / "info").mkdir(exist_ok=True)
        (Path(handle.root_path) / "info" / "grafts").write_text(handle.head_ref + "\n")
        assert memo.may_be_shallow(handle.root_path)
        full = tmp_path / "clone-None"
        (full / ".git" / "info").mkdir(exist_ok=True)
        (full / ".git" / "info" / "grafts").write_text(handle.head_ref + "\n")
        for root in (full, Path(str(full) + "-tree")):
            assert memo.may_be_shallow(str(root)), root
        (tmp_path / "clone-None" / "sub").mkdir()
        assert memo.may_be_shallow(str(tmp_path / "clone-None" / "sub"))
