"""Immutable views over local git clones: history and windows.

A ref's history is read once, from one `git log` stream, into a
`History`: every reachable commit with its first-parent file changes.
A `RepoHandle` loads its default branch's History once, on first use,
and window heads, window commits and replay order all come from it.

Every History of a run is loaded by `load_history`. Given the run's
`Store`, it remembers each ref's raw `git log` output in one slot per
(repository, ref name): the key is a digest of the sources whose output
the run's memos hold (`memo_code_digest`), the repository's real path
and the ref name, and the payload is the tip the log was read at and the
log itself. A slot is trusted only for that tip, so a ref whose tip has
not moved spawns no `git log`, and a moved tip overwrites the slot: the
store holds one log per ref, not one per run. No slot is trusted while
the repository is shallow (see `_may_be_shallow`): its log may name
commits whose objects the clone lacks. `load_history` hands back a log
just read from git as a `LogSlot`, and `remember` writes it with the
run's other memo entries, only once no root commit of it turns out to be
grafted (see `grafted`). A git upgrade that would print the log
differently and a `git replace` of an object are not in the key.

This module never mutates a repository. Cloning (network transport) is a
CLI pre-step that shells out to git; everything here reads an
already-present object store.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
from collections.abc import Iterable
from dataclasses import dataclass, field
from datetime import datetime
from functools import cached_property, lru_cache
from importlib import resources

from . import gitio
from .errors import BranchNotFound, NotARepository
from .gitio import Commit
from .store import Store, cache_key

logger = logging.getLogger(__name__)


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


# (key, payload) of a log slot read from git and not yet written
LogSlot = tuple[str, dict]


@dataclass(frozen=True)
class RepoHandle:
    """Handle to a local clone; safe to share across concurrent readers."""

    root_path: str
    default_branch: str
    head_ref: str
    # every branch `open_repo` listed -> its tip sha
    tips: dict[str, str] = field(default_factory=dict, repr=False, compare=False)
    store: Store | None = field(default=None, repr=False, compare=False)  # the run's memo

    @cached_property
    def loaded(self) -> tuple[History, LogSlot | None]:
        """The default branch's History, loaded on first use, and its log
        slot still to be written (see `load_history`)."""
        return load_history(self.root_path, self.default_branch, self.head_ref, self.store)

    @property
    def history(self) -> History:
        """The default branch's History, shared by every default-branch
        consumer."""
        return self.loaded[0]


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


@lru_cache(maxsize=1)
def memo_code_digest() -> str:
    """sha256 over the sources whose output the run's memos hold (history
    logs, line owners, file metrics), read once per process: an edit to any
    of them retires every memo entry."""
    digest = hashlib.sha256()
    for name in ("attribution.py", "gitio.py", "ingest.py", "metrics.py"):
        digest.update(resources.files(__package__).joinpath(name).read_bytes())
    return digest.hexdigest()


def _remembered_log(entry: object, tip: str) -> list[Commit]:
    """The commits a log slot holds for `tip`. ValueError says why the slot
    is not trusted."""
    if not isinstance(entry, dict) or entry.get("tip") != tip:
        raise ValueError("read at another tip")
    if not isinstance(entry.get("log"), str):
        raise ValueError("log is not text")
    try:
        commits = gitio.parse_log(entry["log"].encode("latin-1"))
    # what parse_log raises on text git did not write: short or extra
    # fields, a bad timestamp, a character beyond latin-1
    except (ValueError, IndexError, TypeError, OverflowError, OSError) as exc:
        raise ValueError(f"unreadable log: {type(exc).__name__}") from exc
    if not commits or commits[-1].hash != tip:
        raise ValueError("log does not end at the tip")
    shas = {c.hash for c in commits}
    if not all(p in shas for c in commits for p in c.parents):
        raise ValueError("log names a parent it lacks")
    return commits


def log_key(root: str, ref: str) -> str:
    """The key of the log slot of branch `ref` of the repository at `root`."""
    return cache_key(memo_code_digest(), "git-log", json.dumps([os.path.realpath(root), ref]))


def _may_be_shallow(root: str) -> bool:
    """Whether the repository at `root` is a shallow clone, or its git
    directory is not where a plain clone, a linked worktree or a bare
    repository keeps it. Read from the file system, with no git process."""
    git_dir = os.path.join(root, ".git")
    if os.path.isfile(git_dir):  # a linked worktree or submodule: "gitdir: <path>"
        with open(git_dir, encoding="utf-8") as f:
            git_dir = os.path.join(root, f.read().partition("gitdir:")[2].strip())
    elif not os.path.isdir(git_dir):
        git_dir = root  # a bare repository
    if not os.path.isfile(os.path.join(git_dir, "HEAD")):
        return True
    common = os.path.join(git_dir, "commondir")  # a linked worktree's shared directory
    if os.path.isfile(common):
        with open(common, encoding="utf-8") as f:
            git_dir = os.path.join(git_dir, f.read().strip())
    return os.path.exists(os.path.join(git_dir, "shallow"))


def load_history(
    root: str, ref: str, tip: str, store: Store | None = None
) -> tuple[History, LogSlot | None]:
    """The History of branch `ref` at `tip`, and the log slot still to be
    written for it. With `store`, a trusted log for `tip` in the ref's slot
    (see the module docstring) stands in for `git log` and nothing is left
    to write; otherwise `git log` runs and its output is the slot to write,
    by `remember`. A slot not trusted is dropped with a warning."""
    if store is None:
        return History(gitio.log(root, tip)), None
    key = log_key(root, ref)
    entry = None if _may_be_shallow(root) else store.get(key)
    if entry is not None:
        try:
            return History(_remembered_log(entry, tip)), None
        except ValueError as exc:
            logger.warning("history memo entry dropped: %s (%s)", ref, exc)
    out = gitio.raw_log(root, tip)
    return History(gitio.parse_log(out)), (key, {"tip": tip, "log": out.decode("latin-1")})


def grafted(histories: Iterable[History], reader: gitio.ObjectReader) -> bool:
    """Whether a commit without parents in `histories` names one in its raw
    object, read on `reader` once per distinct root. `git log` shows a
    shallow clone's boundary commits without their parents, so such a
    history is not the commits' real history, and nothing derived from it
    may be remembered: once the clone is deepened, the same head shas have
    other owners."""
    roots = list(dict.fromkeys(c.hash for h in histories for c in h.commits if not c.parents))
    reader.request(roots)
    return any(b"\nparent " in reader.get(sha)[1].partition(b"\n\n")[0] for sha in roots)


def remember(
    store: Store, reader: gitio.ObjectReader,
    loaded: Iterable[tuple[History, LogSlot | None]], entries: dict[str, object],
) -> None:
    """Write `entries`, derived from the `loaded` histories, and the log
    slots of those read from git, unless a root of one read from git is
    grafted: then nothing they shaped may be remembered. A history read
    from its slot had its roots checked when the slot was written."""
    from_git = [(history, slot) for history, slot in loaded if slot is not None]
    if not entries and not from_git:
        return
    if grafted((history for history, _ in from_git), reader):
        logger.info("grafted history in %s: nothing remembered", reader.root)
        return
    for key, payload in [*entries.items(), *(slot for _, slot in from_git)]:
        store.put(key, payload)


def open_repo(path: str, branch: str | None = None, store: Store | None = None) -> RepoHandle:
    """Open a local clone (bare or working tree) and pin its default branch.

    Branch resolution: the requested branch if given, else the branch HEAD
    points at, else "main", else "master". One `git for-each-ref` lists
    every branch with its tip and marks HEAD's; a detached or unborn HEAD
    marks none. The handle's histories are loaded through `store`, the
    run's memo, when one is given.
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
            return RepoHandle(path, name, tips[name], tips, store)
    raise BranchNotFound(" / ".join(candidates))


def list_commits(repo: RepoHandle, window: AnalysisWindow) -> list[Commit]:
    """Non-merge commits on the default branch authored inside the window.

    Merge commits are traversed for reachability but never returned; they
    carry no authorship credit. Ordered oldest first by (authored_at, hash).
    """
    return sorted(repo.history.in_window(window), key=lambda c: (c.authored_at, c.hash))

