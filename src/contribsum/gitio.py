"""Read-only plumbing around the git executable.

Three kinds of git process, all against a local object store (no
porcelain, no working tree, no network):

* one `git log` stream per ref, read whole by `log` into `Commit`s that
  each carry their file changes against the first parent;
* one persistent `git cat-file --batch` process per `ObjectReader`, for
  blob contents, started on the first read: requests are
  written ahead in batches of at most 4 KiB, which one pipe page always
  holds, and answers are read back in order with a `_GIT_TIMEOUT` poll
  before each read;
* short one-off commands (ref lookups) through `git`.

Higher modules (ingest, attribution) build on these primitives.
"""

from __future__ import annotations

import os
import select
import subprocess
from collections import deque
from collections.abc import Iterable
from dataclasses import dataclass
from datetime import datetime, timezone

from .errors import GitError, UnknownCommit

_GIT_TIMEOUT = 120  # seconds; local plumbing should never take this long
# Unanswered `cat-file` request bytes: one pipe page, about 100 SHAs
# (see ObjectReader).
_WRITE_AHEAD = 4096
_READ_SIZE = 65536  # one default pipe's capacity


def git(root: str, *args: str, check: bool = True) -> bytes | None:
    """Run one git command against `root` and return its stdout.

    A non-zero exit raises GitError, or returns None when `check` is
    False (for probes such as "does this ref exist"). A command still
    running after `_GIT_TIMEOUT` seconds is killed and raises GitError.
    """
    try:
        result = subprocess.run(
            ["git", "-C", root, *args], capture_output=True, timeout=_GIT_TIMEOUT
        )
    except subprocess.TimeoutExpired as exc:
        raise GitError(f"git {args[0]} in {root} did not finish in {_GIT_TIMEOUT} s") from exc
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
    threshold, raw -z output so arbitrary path bytes survive. Raises
    UnknownCommit when `tip` names no commit.
    """
    try:
        out = git(
            root, "log", "--root", "--topo-order", "--reverse", "-z", "--raw",
            "--no-abbrev", RENAME_THRESHOLD, "--diff-merges=first-parent",
            "--no-use-mailmap", "--no-color", _LOG_FORMAT, "--end-of-options", tip, "--",
        )
    except GitError as exc:
        raise UnknownCommit(tip) from exc
    if not out:  # git log accepts a blob or tree and prints nothing
        raise UnknownCommit(tip)
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
    return commits


class ObjectReader:
    """Persistent `git cat-file --batch` process for object reads.

    The process starts on the first read, so a reader that reads nothing
    spawns nothing. It then serves every object fetch for a repository,
    and `cat-file` answers its requests in order on one pipe, so a reader
    that knows its reads in advance `request`s them and the round trips
    overlap: `get` writes queued requests ahead in batches of at most
    `_WRITE_AHEAD` bytes, one batch at a time, and reads the answers back
    in order.

    The bound keeps the pipes from deadlocking. A batch is written only
    once every earlier answer is read, and one batch fits into a pipe even
    at its smallest (one page), so the write completes while `cat-file`
    is blocked on a stdout pipe full of blobs not yet read. Were every
    request written at once, a long plan (about 1,600 SHAs fill the
    default 64 KiB stdin pipe) would block here on stdin while `cat-file`
    blocked on stdout.

    Answers are read from the pipe into a buffer, with a poll of
    `_GIT_TIMEOUT` before each read, so a `cat-file` that hangs raises
    GitError rather than blocking the run. POSIX only (`select.poll`).
    Not thread-safe; use one reader per thread.
    """

    def __init__(self, root: str):
        self.root = root
        self._proc: subprocess.Popen | None = None  # started by the first write
        self._buffer = bytearray()  # answer bytes read but not yet consumed
        self._queued: deque[str] = deque()  # requested, not yet written
        self._unanswered: deque[str] = deque()  # written, answer not yet read

    def _start(self) -> None:
        self._proc = subprocess.Popen(
            ["git", "-C", self.root, "cat-file", "--batch"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            bufsize=0,
        )
        assert self._proc.stdin is not None and self._proc.stdout is not None
        self._stdin = self._proc.stdin.fileno()
        self._stdout = self._proc.stdout.fileno()
        self._poll = select.poll()
        self._poll.register(self._stdout, select.POLLIN)

    def request(self, refs: Iterable[str]) -> None:
        """Queue `refs`, in the order `get` will be asked for them."""
        self._queued.extend(refs)

    def get(self, ref: str) -> tuple[str, bytes]:
        """Fetch one object as (type, payload).

        `ref` is normally the next requested one. Any other ref is written
        alone, after the answers in flight are read and dropped and the
        queue is emptied. Raises UnknownCommit for a missing object,
        GitError when the `cat-file` process has died or sent nothing for
        `_GIT_TIMEOUT` seconds.
        """
        if self._unanswered and self._unanswered[0] != ref:
            self._queued.clear()
            while self._unanswered:
                self._answer()
        if not self._unanswered:
            if not self._queued or self._queued[0] != ref:
                self._queued = deque([ref])
            self._write_batch()
        obj_type, payload = self._answer()
        if obj_type == "missing":
            raise UnknownCommit(ref)
        return obj_type, payload

    def blob(self, sha: str) -> bytes:
        obj_type, payload = self.get(sha)
        if obj_type != "blob":
            raise UnknownCommit(sha)
        return payload

    def _write_batch(self) -> None:
        """Write queued requests, at most `_WRITE_AHEAD` bytes (one at least)."""
        if self._proc is None:
            self._start()
        batch = bytearray()
        while self._queued and (
            not batch or len(batch) + len(self._queued[0]) < _WRITE_AHEAD
        ):
            ref = self._queued.popleft()
            batch += ref.encode() + b"\n"
            self._unanswered.append(ref)
        view = memoryview(batch)
        try:
            while view:
                view = view[os.write(self._stdin, view):]
        except BrokenPipeError:
            pass  # the process died; reading its answer reports that

    def _answer(self) -> tuple[str, bytes]:
        """(type, payload) answering the oldest unanswered request; the
        type is "missing" when git has no such object."""
        buffer = self._buffer
        searched = 0
        while (end := buffer.find(b"\n", searched)) < 0:
            searched = len(buffer)
            self._read()
        header = buffer[:end].decode()
        if header.endswith(" missing"):
            del buffer[:end + 1]
            self._unanswered.popleft()
            return "missing", b""
        _sha, obj_type, size = header.split()
        start = end + 1
        stop = start + int(size)
        while len(buffer) <= stop:  # the payload and its trailing newline
            self._read()
        payload = bytes(buffer[start:stop])
        del buffer[:stop + 1]
        self._unanswered.popleft()
        return obj_type, payload

    def _read(self) -> None:
        """Append what `cat-file` sends next to the buffer."""
        if not self._poll.poll(_GIT_TIMEOUT * 1000):
            raise GitError(f"git cat-file in {self.root} sent nothing for {_GIT_TIMEOUT} s")
        chunk = os.read(self._stdout, _READ_SIZE)
        if not chunk:
            raise GitError(
                f"git cat-file for {self.root} exited; cannot read {self._unanswered[0]}"
            )
        self._buffer += chunk

    def close(self) -> None:
        """Kill the process and reap it. `cat-file` only reads, so nothing
        is lost; an end-of-input would not end a process blocked on a
        stdout pipe full of answers left unread after an error, nor one
        that hangs."""
        if self._proc is None:
            return
        self._proc.kill()
        self._proc.wait()
        self._proc.stdin.close()
        self._proc.stdout.close()

    def __enter__(self) -> "ObjectReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
