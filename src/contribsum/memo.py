"""The run's memo: what a re-run window remembers, and when it trusts it.

The run's `Store` remembers two kinds, both derived from git alone: each
ref's `git log` and each window head's line owners and file metrics, so
a re-run window repeats no log, replay or measurement. Each entry is one
row of the store's database, beside the provider answers' rows and keyed
by `cache_key` as they are. Every key covers `code_digest`, over every
module and prompt template of the package, so an edit to any of them
retires every entry; a retired row stays in the database. Not in any key: the git
version (a git that prints the log or pairs renames differently) and
`git replace` objects.

* One log slot per (repository real path, ref name), payload `{"tip":
  sha, "log": <raw git log output as latin-1>}`. A slot read at another
  tip (the ref moved, the normal weekly case) is a plain miss, logged at
  INFO. Any other slot is trusted when it is a dict whose log is text
  that parses, ends at the tip and names no parent it lacks. A log read
  from git is written to its slot at once.
* One entry per (window head sha, byte limit, exclude globs in order),
  payload `{"owners": {kept path: [[owner sha, run length], ...]},
  "metrics": {kept path: _metrics_row}}`. Only the default window head
  is measured, so a branch head's entry has no `metrics`; read for a
  default window head it is a plain miss. The owners are trusted when
  they cover exactly the kept paths with (sha, positive length) runs
  that sum to each file's head line count, every sha in the head's
  ancestry; the metrics when they cover exactly the kept paths and each
  row builds a `FileMetrics` whose kind and byte size match the head
  blob. `Store.get` already drops an entry whose payload digest does not
  match, so row fields get no further shape checks.

Any other entry not trusted is dropped with a warning. A miss reads the
log, or replays and measures the head, anew; the replay itself
(`attribution._ownership_at`) writes each replayed head's entry
(`head_entry`).

One gate per repository (`gate`), read from its git directory with no
git process, decides whether anything of it is remembered: nothing is
read or written for a shallow clone or a repository with a graft file
(`may_be_shallow`). Such a history is cut short: its boundary commits
show no parents and own every line they hold, so nothing learnt from it
may outlive its deepening, and a slot or entry learnt from a full clone
names commits it lacks.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
from collections.abc import Iterable
from functools import lru_cache
from itertools import groupby, repeat
from pathlib import Path
from typing import TYPE_CHECKING

from . import gitio, metrics
from .gitio import Commit
from .store import Store, cache_key

if TYPE_CHECKING:
    from .ingest import History

logger = logging.getLogger(__name__)

# kept path -> (head lines, owning sha of each line), as replay holds it
State = dict[str, tuple[list[str], list[str]]]


# the package whose modules and prompt templates `code_digest` covers
PACKAGE = Path(__file__).resolve().parent


@lru_cache(maxsize=1)
def code_digest() -> str:
    """sha256 over the relative path and bytes of every module and prompt
    template of the package, read once per process: an edit to any of them
    retires every memo entry and every team window's outputs record."""
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*")):
        name = path.relative_to(PACKAGE).as_posix()
        if "__pycache__" in name or not (
            path.suffix == ".py" or name.startswith("agents/prompts/")
        ):
            continue
        data = path.read_bytes()
        digest.update(f"{name}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


def _log_key(root: str, ref: str) -> str:
    return cache_key(code_digest(), "git-log", json.dumps([os.path.realpath(root), ref]))


def _head_key(at: str, excludes: tuple[str, ...], max_file_bytes: int) -> str:
    return cache_key(code_digest(), "window-head", json.dumps([at, max_file_bytes, list(excludes)]))


def may_be_shallow(root: str) -> bool:
    """Whether the repository at `root` is a shallow clone or has a graft
    file, or its git directory is not where a plain clone, a linked
    worktree or a bare repository keeps it. Read from the file system, with
    no git process."""
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
    return any(os.path.exists(os.path.join(git_dir, name)) for name in ("shallow", "info/grafts"))


def gate(root: str, store: Store | None) -> Store | None:
    """`store`, the run's memo, for the repository at `root`, or None when
    its history may not be remembered (`may_be_shallow`)."""
    if store is None or not may_be_shallow(root):
        return store
    logger.info("history in %s may be shallow or grafted: nothing remembered", root)
    return None


def _remembered_log(entry: object, tip: str) -> list[Commit]:
    """The commits a log slot read at `tip` holds. ValueError says why the
    slot is not trusted."""
    if not isinstance(entry, dict):
        raise ValueError("not a dict")
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


def log(root: str, ref: str, tip: str, store: Store | None) -> list[Commit]:
    """The commits of branch `ref` at `tip`. With `store`, a trusted slot
    stands in for `git log`; otherwise `git log` runs and its output is
    written to the slot."""
    if store is None:
        return gitio.log(root, tip)
    key = _log_key(root, ref)
    entry = store.get(key)
    if isinstance(entry, dict) and entry.get("tip") != tip:
        logger.info("history memo slot stale: %s", ref)
    elif entry is not None:
        try:
            return _remembered_log(entry, tip)
        except ValueError as exc:
            logger.warning("history memo entry dropped: %s (%s)", ref, exc)
    out = gitio.raw_log(root, tip)
    commits = gitio.parse_log(out)
    store.put(key, {"tip": tip, "log": out.decode("latin-1")})
    return commits


def _remembered_state(entry: object, ancestry: History, kept: dict[str, bytes]) -> State:
    """The kept files' ownership that a head entry holds, each owner list
    laid beside the file's head lines. ValueError says why the entry is not
    trusted."""
    owners = entry.get("owners") if isinstance(entry, dict) else None
    if not isinstance(owners, dict) or owners.keys() != kept.keys():
        raise ValueError("paths differ from the kept files")
    state: State = {}
    for path, blob in kept.items():
        runs = owners[path]
        if not isinstance(runs, list) or not all(
            isinstance(run, list) and len(run) == 2 and isinstance(run[0], str)
            and type(run[1]) is int and run[1] > 0
            for run in runs
        ):
            raise ValueError(f"malformed runs for {path}")
        lines = metrics.text_lines(blob)
        if sum(n for _, n in runs) != len(lines):
            raise ValueError(f"runs do not cover the lines of {path}")
        if not all(sha in ancestry.by_sha for sha, _ in runs):
            raise ValueError(f"owner outside the head's ancestry in {path}")
        state[path] = (lines, [owner for sha, n in runs for owner in repeat(sha, n)])
    return state


def _metrics_row(measured: metrics.FileMetrics) -> list:
    """`measured` as a metrics row: `[byte size, line count, kind,
    complexity or None, tag count or None]`, complexity as
    `[[[name, start, end, score], ...], file score, unparseable]`."""
    report = measured.complexity and [
        [[f.name, f.start, f.end, f.score] for f in measured.complexity.functions],
        measured.complexity.file_score,
        measured.complexity.unparseable,
    ]
    return [measured.byte_size, measured.line_count, measured.kind, report, measured.tag_count]


def _remembered_metrics(rows: object, kept: dict[str, bytes]) -> dict[str, metrics.FileMetrics]:
    """The kept files' metrics that a head entry's rows hold. ValueError
    says why they are not trusted."""
    if not isinstance(rows, dict) or rows.keys() != kept.keys():
        raise ValueError("metrics paths differ from the kept files")
    out: dict[str, metrics.FileMetrics] = {}
    try:
        for path, blob in kept.items():
            size, line_count, kind, complexity, tag = rows[path]
            if size != len(blob) or kind != metrics.classify_file(path, blob):
                raise ValueError(f"metrics differ from the head blob of {path}")
            report = complexity and metrics.ComplexityReport(
                tuple(metrics.FunctionComplexity(*f) for f in complexity[0]), *complexity[1:]
            )
            out[path] = metrics.FileMetrics(path, size, line_count, kind, report, tag)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"malformed metrics: {exc}") from exc
    return out


def recall(
    store: Store, lineages: dict[str, History], kept: dict[str, dict[str, bytes]],
    measured_head: str | None, excludes: tuple[str, ...], max_file_bytes: int,
) -> dict[str, tuple[State, dict[str, metrics.FileMetrics] | None]]:
    """head -> its remembered ownership and, for `measured_head`, its
    kept files' metrics, for each head of `lineages` (head -> its ancestry)
    whose entry `store` holds and is trusted over its `kept` files (head ->
    kept path -> head bytes). An entry not trusted is dropped with a
    warning."""
    remembered = {}
    for at, ancestry in lineages.items():
        entry = store.get(_head_key(at, excludes, max_file_bytes))
        is_measured = at == measured_head
        if entry is None or is_measured and isinstance(entry, dict) and "metrics" not in entry:
            continue  # a branch head's entry: the default window head is measured anew
        try:
            remembered[at] = (
                _remembered_state(entry, ancestry, kept[at]),
                _remembered_metrics(entry["metrics"], kept[at]) if is_measured else None,
            )
        except ValueError as exc:
            logger.warning("window head memo entry dropped: %s (%s)", at, exc)
    return remembered


def head_entry(
    at: str, kept: Iterable[str], state: State, measured: dict[str, metrics.FileMetrics] | None,
    excludes: tuple[str, ...], max_file_bytes: int,
) -> tuple[str, dict]:
    """The key and payload of replayed head `at`'s entry: the owners in
    `state` of its `kept` paths as runs, and their metrics when `measured`
    gives them."""
    payload: dict = {
        "owners": {
            path: [[sha, sum(1 for _ in run)] for sha, run in groupby(state[path][1])]
            for path in kept
        }
    }
    if measured is not None:
        payload["metrics"] = {path: _metrics_row(m) for path, m in measured.items()}
    return _head_key(at, excludes, max_file_bytes), payload

