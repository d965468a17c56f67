"""Repository opening, history listing, window heads, cut histories."""

from __future__ import annotations

import subprocess
from datetime import datetime, timezone
from pathlib import Path

import pytest

from conftest import JUNE, ROSTER_TEXT, tree_files
from contribsum import synthfix
from contribsum.errors import BranchNotFound, NotARepository
from contribsum.ingest import AnalysisWindow, list_commits, open_repo
from contribsum.pipeline import may_be_shallow
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
                assert may_be_shallow(str(root)) == bool(depth), root
        assert not may_be_shallow(handle.root_path)
        (Path(handle.root_path) / "info").mkdir(exist_ok=True)
        (Path(handle.root_path) / "info" / "grafts").write_text(handle.head_ref + "\n")
        assert may_be_shallow(handle.root_path)
        full = tmp_path / "clone-None"
        (full / ".git" / "info").mkdir(exist_ok=True)
        (full / ".git" / "info" / "grafts").write_text(handle.head_ref + "\n")
        for root in (full, Path(str(full) + "-tree")):
            assert may_be_shallow(str(root)), root
        (tmp_path / "clone-None" / "sub").mkdir()
        assert may_be_shallow(str(tmp_path / "clone-None" / "sub"))
