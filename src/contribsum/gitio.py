"""Read-only plumbing around the git executable.

Three kinds of git process, all against a local object store (no
porcelain, no working tree, no network):

* one `git log` stream per ref, parsed by `log` into `Commit`s that each
  carry their file changes against the first parent;
* one persistent `git cat-file --batch` process per `ObjectReader`, for
  blob contents;
* short one-off commands (ref lookups) through `git`.

Higher modules (ingest, attribution) build on these primitives.
"""

from __future__ import annotations

import subprocess
from dataclasses import dataclass
from datetime import datetime, timezone

from .errors import GitError, UnknownCommit

_GIT_TIMEOUT = 120  # seconds; local plumbing should never take this long


def git(root: str, *args: str, check: bool = True) -> bytes | None:
    """Run one git command against `root` and return its stdout.

    A non-zero exit raises GitError, or returns None when `check` is
    False (for probes such as "does this ref exist").
    """
    result = subprocess.run(["git", "-C", root, *args], capture_output=True, timeout=_GIT_TIMEOUT)
    if result.returncode == 0:
        return result.stdout
    if not check:
        return None
    raise GitError(
        f"git {args[0]} failed in {root}: {result.stderr.decode('utf-8', 'replace').strip()}"
    )


# Tree entry modes that name no file content: a symlink's blob is its
# target path, a gitlink's "blob" is a submodule commit absent here.
SYMLINK_MODE, GITLINK_MODE = "120000", "160000"


@dataclass(frozen=True)
class TreeChange:
    """One file-level change between two trees (a raw diff entry)."""

    status: str  # one of "A", "M", "D", "R"
    path: str  # post-image path (pre-image path for deletions)
    old_path: str | None  # set for renames only
    old_mode: str  # octal tree mode, "000000" when absent
    new_mode: str
    old_blob: str
    new_blob: str


@dataclass(frozen=True)
class Commit:
    """One commit: identity, parents, author signature, message, changes.

    `changes` is the diff against the first parent, or against the empty
    tree for a root commit.
    """

    hash: str
    parents: tuple[str, ...]
    author_name: str
    author_email: str
    authored_at: datetime
    message: str
    changes: tuple[TreeChange, ...] = ()

    @property
    def is_merge(self) -> bool:
        return len(self.parents) >= 2


# Rename detection threshold: a delete/add pair with >= 50% identical
# content is reported as a rename, matching the attribution contract.
RENAME_THRESHOLD = "-M50%"

# \x01 opens each commit record; fields are NUL-separated like the -z
# raw diff entries that follow the message.
_LOG_FORMAT = "--format=%x01%H%x00%P%x00%an%x00%ae%x00%at%x00%B"


def log(root: str, tip: str) -> list[Commit]:
    """Every commit reachable from `tip`, parents-first (topological order).

    One `git log` process: merges are diffed against their first parent,
    root commits against the empty tree, renames detected at the 50%
    threshold, raw -z output so arbitrary path bytes survive.
    """
    try:
        out = git(
            root, "log", "--root", "--topo-order", "--reverse", "-z", "--raw",
            "--no-abbrev", RENAME_THRESHOLD, "--diff-merges=first-parent",
            "--no-use-mailmap", "--no-color", _LOG_FORMAT, "--end-of-options", tip, "--",
        )
    except GitError as exc:
        raise UnknownCommit(tip) from exc
    fields = [f.decode("utf-8", "replace") for f in out.split(b"\0")]
    commits: list[Commit] = []
    i = 0
    while i < len(fields) and fields[i].startswith("\x01"):
        sha, parents, name, email, stamp, message = fields[i:i + 6]
        i += 6
        changes: list[TreeChange] = []
        while i < len(fields) and fields[i].lstrip("\n").startswith(":"):
            # :oldmode newmode oldsha newsha status, in TreeChange field order
            *raw, status = fields[i].lstrip("\n:").split()
            kind = status[0]
            if kind in ("R", "C"):
                changes.append(TreeChange("R", fields[i + 2], fields[i + 1], *raw))
                i += 3
            else:
                if kind not in ("A", "M", "D"):
                    kind = "M"  # type changes (T) and friends: treat as modify
                changes.append(TreeChange(kind, fields[i + 1], None, *raw))
                i += 2
        commits.append(
            Commit(
                hash=sha[1:],
                parents=tuple(parents.split()),
                author_name=name,
                author_email=email,
                authored_at=datetime.fromtimestamp(int(stamp), tz=timezone.utc),
                message=message,
                changes=tuple(changes),
            )
        )
    if not commits:  # git log accepts a blob or tree and prints nothing
        raise UnknownCommit(tip)
    return commits


class ObjectReader:
    """Persistent `git cat-file --batch` process for cheap blob reads.

    One subprocess serves every blob fetch for a repository, which keeps
    blame replay fast. Not thread-safe; use one reader per thread.
    """

    def __init__(self, root: str):
        self.root = root
        self._proc = subprocess.Popen(
            ["git", "-C", root, "cat-file", "--batch"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
        )

    def get(self, ref: str) -> tuple[str, bytes]:
        """Fetch one object as (type, payload).

        Raises UnknownCommit for a missing object, GitError when the
        `cat-file` process has died.
        """
        assert self._proc.stdin is not None and self._proc.stdout is not None
        try:
            self._proc.stdin.write(ref.encode() + b"\n")
            self._proc.stdin.flush()
        except BrokenPipeError:
            pass  # the empty header read below reports the dead process
        header = self._proc.stdout.readline().decode().strip()
        if not header:
            raise GitError(f"git cat-file for {self.root} exited; cannot read {ref}")
        if header.endswith("missing"):
            raise UnknownCommit(ref)
        sha, obj_type, size = header.split()
        payload = self._proc.stdout.read(int(size))
        self._proc.stdout.read(1)  # trailing newline
        return obj_type, payload

    def blob(self, sha: str) -> bytes:
        obj_type, payload = self.get(sha)
        if obj_type != "blob":
            raise UnknownCommit(sha)
        return payload

    def close(self) -> None:
        assert self._proc.stdin is not None and self._proc.stdout is not None
        try:
            self._proc.stdin.close()
        except BrokenPipeError:
            pass  # the process already exited; its unread request is moot
        self._proc.wait(timeout=10)
        self._proc.stdout.close()

    def __enter__(self) -> "ObjectReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

