"""Immutable views over local git clones: history and windows.

A ref's history is read once, by `load_history` from one `git log`
stream, into a `History`: every reachable commit with its first-parent
file changes. A `RepoHandle` loads its default branch's History once, on
first use, and window heads, window commits and replay order all come
from it.

This module never mutates a repository. Cloning (network transport) is a
CLI pre-step that shells out to git; everything here reads an
already-present object store.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime
from functools import cached_property

from . import gitio
from .errors import BranchNotFound, NotARepository
from .gitio import Commit


@dataclass(frozen=True)
class AnalysisWindow:
    """Half-open time interval [start, end) whose commits count for a report."""

    start: datetime
    end: datetime
    label: str = ""

    def __post_init__(self):
        if self.start.tzinfo is None or self.end.tzinfo is None:
            raise ValueError("window bounds must be timezone-aware")
        if not self.start < self.end:
            raise ValueError("window start must precede end")

    def contains(self, moment: datetime) -> bool:
        return self.start <= moment < self.end


@dataclass(frozen=True)
class RepoHandle:
    """Handle to a local clone; safe to share across concurrent readers."""

    root_path: str
    default_branch: str
    head_ref: str
    # every branch `open_repo` listed -> its tip sha
    tips: dict[str, str] = field(default_factory=dict, repr=False, compare=False)

    @cached_property
    def history(self) -> History:
        """The default branch's History, loaded on first use and shared by
        every default-branch consumer."""
        return load_history(self.root_path, self.head_ref)


class History:
    """Every commit reachable from one tip, loaded from one `git log` stream.

    Commits are held parents-first (topological order); window heads,
    ancestor sets and window commits are answered from parent links
    without further git calls.
    """

    def __init__(self, commits: list[Commit]):
        self.commits = commits
        self.by_sha = {c.hash: c for c in commits}

    def window_head(self, window: AnalysisWindow) -> str | None:
        """Commit whose tree is the window-end snapshot: the last one in
        topological order authored before the window end (a merge can be
        the branch tip). None when no commit predates the window end."""
        head = None
        for commit in self.commits:
            if commit.authored_at < window.end:
                head = commit.hash
        return head

    def ancestors(self, sha: str) -> "History":
        """`sha` and every commit reachable from it, parents-first."""
        seen = {sha}
        pending = [sha]
        while pending:
            for parent in self.by_sha[pending.pop()].parents:
                if parent not in seen:
                    seen.add(parent)
                    pending.append(parent)
        return History([c for c in self.commits if c.hash in seen])

    def in_window(self, window: AnalysisWindow) -> list[Commit]:
        """Non-merge commits authored inside the window, parents-first."""
        return [c for c in self.commits if not c.is_merge and window.contains(c.authored_at)]


def load_history(root: str, tip: str) -> History:
    """The History of the commit `tip`, from one `git log`."""
    return History(gitio.log(root, tip))


def open_repo(path: str, branch: str | None = None) -> RepoHandle:
    """Open a local clone (bare or working tree) and pin its default branch.

    Branch resolution: the requested branch if given, else the branch HEAD
    points at, else "main", else "master". One `git for-each-ref` lists
    every branch with its tip and marks HEAD's; a detached or unborn HEAD
    marks none.
    """
    listing = gitio.git(
        path, "for-each-ref", "--format=%(HEAD) %(refname) %(objectname)", "refs/heads",
        check=False,
    )
    if listing is None:
        raise NotARepository(f"not a git repository: {path}")
    tips: dict[str, str] = {}
    current: list[str] = []
    for line in listing.decode("utf-8", "replace").splitlines():
        ref, sha = line[2:].rsplit(" ", 1)
        name = ref.removeprefix("refs/heads/")
        tips[name] = sha
        if line[0] == "*":
            current = [name]
    candidates = [branch] if branch else [*current, "main", "master"]
    for name in candidates:
        if name in tips:
            return RepoHandle(path, name, tips[name], tips)
    raise BranchNotFound(" / ".join(candidates))


def list_commits(repo: RepoHandle, window: AnalysisWindow) -> list[Commit]:
    """Non-merge commits on the default branch authored inside the window.

    Merge commits are traversed for reachability but never returned; they
    carry no authorship credit. Ordered oldest first by (authored_at, hash).
    """
    return sorted(repo.history.in_window(window), key=lambda c: (c.authored_at, c.hash))

