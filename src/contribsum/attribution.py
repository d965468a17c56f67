"""Line-level authorship of window-end snapshots and per-student evidence.

The engine replays history forward, one step (`_commit_state`) per
commit, be it a root, a one-parent commit or a merge: a commit's per-file
line ownership is derived from its parents' ownership plus its diff
against its first parent, so the window-end snapshot ends up with one
owning commit per line. A one-parent commit is a merge with no other
parents, whose fresh lines all go to the commit. A state maps
each path to the file's lines and a parallel list of owning commit shas;
evidence is credited in one walk over the kept files' lines and owners.
Commits, their order and their file changes come from each ref's
`History` (one `git log` stream per ref); only blob contents are read
through an ObjectReader. One replay on one reader serves the default
branch's window head and every included branch's, so a commit they share
is replayed once.

Replay covers only the paths that can reach a kept snapshot file: the
files at the snapshot that are not excluded, not binary and not over
the byte limit, plus every path a rename (merges included) carried into
one of them, so a file keeps its authors even when it moved in from an
excluded or deleted path. Symlinks and gitlinks (submodules) are never
kept, and a gitlink is never read. Changes to other paths are never
read or diffed, and each commit's state is freed once its last child is
replayed. A team's load is split at its window head: `read_snapshot`
reads the default branch's kept head files and measures them, so their
table rows can be asked for at once, and `build_contribution_set` then
loads the included branches' histories, replays and aggregates on the
same reader, reusing those head blobs and metrics. Each distinct head
blob is read once, and each step requests every blob it reads before it
reads the first (the default head's blobs, then the branch heads' new
ones, then the replay's in replay order), so one `cat-file` process
streams them back without a round trip per blob. The `ContributionSet`
carries the kept files with their head bytes and metrics, each computed
once, so the pipeline reads no blob of its own.
Exclude globs are matched as one compiled pattern.

Semantics:

* last-writer-wins over the default branch's window-end snapshot;
* merge commits are transparent: their lines keep the original authors
  from whichever parent contributed them (conflict-resolution lines that
  match no parent are owned by the merge itself);
* rename-following at the 50% content-similarity threshold;
* whitespace-only line changes (trailing whitespace) never transfer
  ownership, so reformatting earns no credit;
* ties between identical repeated lines break at the ends: an edit's
  common prefix and suffix keep their owners, and only the lines between
  are aligned, as git's xdiff trims common ends before diffing
  (`xdl_trim_ends`, https://github.com/git/git/blob/master/xdiff/xprepare.c),
  so the line matcher sees only the edited region, not the whole file;
* ownership depends on commit history alone, never on file contents
  claiming authorship, which defuses comment injection.
"""

from __future__ import annotations

import json
import re
from collections import Counter, defaultdict, deque
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field, fields
from datetime import datetime, timezone
from difflib import SequenceMatcher
from fnmatch import translate
from functools import lru_cache
from itertools import compress, count, islice
from operator import ne

from . import gitio, ingest, metrics
from .gitio import Commit
from .identity import UNMAPPED, Roster, StudentId, parse_coauthors, resolve
from .ingest import AnalysisWindow, History, RepoHandle

# Paths that routinely contain generated or vendored content; crediting
# them inflates minor work, so they are excluded from blame by default.
DEFAULT_EXCLUDE_GLOBS: tuple[str, ...] = (
    "package-lock.json",
    "yarn.lock",
    "poetry.lock",
    "Pipfile.lock",
    "Cargo.lock",
    "node_modules/*",
    "vendor/*",
    "dist/*",
    "build/*",
    "*.min.js",
    "*.min.css",
    ".ipynb_checkpoints/*",
)

MAX_BLAME_FILE_BYTES = 1_000_000  # larger files are treated as generated


@dataclass(frozen=True)
class LineAttribution:
    path: str
    line_no: int  # 1-based within the snapshot file
    content: str
    student: StudentId | None  # None = unmapped signature
    commit: str
    authored_at: datetime


@dataclass(frozen=True)
class AttributionOptions:
    split_coauthors: bool = True
    exclude_globs: tuple[str, ...] = DEFAULT_EXCLUDE_GLOBS
    max_file_bytes: int = MAX_BLAME_FILE_BYTES


@dataclass
class ContributionEvidence:
    student: StudentId
    path: str
    lines_owned: int = 0
    lines_added_in_window: int = 0
    commit_messages: list[str] = field(default_factory=list)
    solo_functions: list[tuple[str, int]] = field(default_factory=list)
    comment_only: bool = False

    @property
    def has_lines(self) -> bool:
        """Whether the student owns or added any line of the file."""
        return self.lines_owned + self.lines_added_in_window > 0


@dataclass(frozen=True)
class KeptFile:
    """A window-end snapshot file that is blamed, measured and summarized."""

    path: str
    content: bytes  # the head blob
    metrics: metrics.FileMetrics


@dataclass
class ContributionSet:
    window: AnalysisWindow
    per_student: dict[str, list[ContributionEvidence]]
    zero_commit_students: list[StudentId]
    head: str | None = None  # window-end snapshot commit; None before any commit
    files: tuple[KeptFile, ...] = ()  # kept files at `head`, bytewise path order; not serialized
    # included branch -> `_branch_section`, None when the repository lacks it; not serialized
    branches: dict[str, tuple | None] = field(default_factory=dict)

    def evidence_for(self, student_id: str) -> list[ContributionEvidence]:
        return self.per_student.get(student_id, [])

    def to_json(self) -> str:
        """Canonical serialization: stable key order, byte-deterministic. An
        evidence row is written as its fields less `student`, its key."""
        payload = {
            "window": {
                "start": self.window.start.astimezone(timezone.utc).isoformat(),
                "end": self.window.end.astimezone(timezone.utc).isoformat(),
                "label": self.window.label,
            },
            "zero_commit_students": sorted(s.id for s in self.zero_commit_students),
            "per_student": {
                sid: [
                    {f.name: getattr(ev, f.name) for f in fields(ev) if f.name != "student"}
                    for ev in sorted(rows, key=lambda e: e.path)
                ]
                for sid, rows in sorted(self.per_student.items())
            },
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


# A file's ownership: its lines and, in a parallel list, the sha of the
# commit owning each one. Owner lists are shared between commit states,
# so they are never changed in place.
_Owned = tuple[list[str], list[str]]
_NONE: _Owned = ([], [])


def _equal_run(old: list[str], new: list[str], limit: int, backward: bool) -> int:
    """Length of the run of at most `limit` lines at the front of `old` and
    `new` (the back when `backward`) that are equal once trailing
    whitespace is stripped."""
    n = 0
    while n < limit:
        # byte-equal lines are compared at C speed, up to the first difference
        olds = islice(reversed(old) if backward else old, n, limit)
        news = islice(reversed(new) if backward else new, n, limit)
        n += next(compress(count(), map(ne, olds, news)), limit - n)
        k = -1 - n if backward else n
        if n == limit or old[k].rstrip() != new[k].rstrip():
            break
        n += 1
    return n


def _carry_lines(
    old: _Owned, new_lines: list[str], fresh: Callable[[list[str]], list[str]]
) -> _Owned:
    """`(new_lines, owners)` after an edit of `old`: matched lines keep
    their owner, and `fresh` gives the owners of each run of unmatched new
    lines.

    Lines compare with trailing whitespace stripped. The common prefix and
    suffix match first and their owners are carried over as slices;
    `SequenceMatcher` aligns only the middle. The lines are always the new
    ones, so a trailing-whitespace edit keeps its owner and its bytes.
    """
    old_lines, old_owners = old
    limit = min(len(old_lines), len(new_lines))
    head = _equal_run(old_lines, new_lines, limit, backward=False)
    tail = _equal_run(old_lines, new_lines, limit - head, backward=True)
    owners = old_owners[:head]
    a = old_lines[head:len(old_lines) - tail]
    b = new_lines[head:len(new_lines) - tail]
    if a and b:
        matcher = SequenceMatcher(
            a=[l.rstrip() for l in a], b=[l.rstrip() for l in b], autojunk=False
        )
        for tag, i1, i2, j1, j2 in matcher.get_opcodes():
            if tag == "equal":
                owners += old_owners[head + i1:head + i2]
            elif tag in ("replace", "insert"):
                owners += fresh(b[j1:j2])
    elif b:
        owners += fresh(b)
    owners += old_owners[len(old_owners) - tail:]
    return new_lines, owners


_State = dict[str, _Owned]


def _commit_state(
    parent_states: list[_State],
    changes: list[gitio.TreeChange],
    commit: str,
    read: Callable[[str], bytes],
) -> _State:
    """Ownership after `commit`, from its parents' states (none for a root)
    and its `changes`, the diff against its first parent.

    The first parent's state is copied, and each changed file's edit from
    it is carried (`_carry_lines`); the lines it wrote fresh are the
    commit's. A merge's changed file first looks at the other parents'
    files at its path: one equal to it once trailing whitespace is stripped
    lends its owner list to the merge's lines wholesale; otherwise each
    fresh line takes the next owner queued for its stripped content in
    those files. So only lines that match no parent (conflict resolutions)
    are the merge's own. When no other parent holds the path, as for every
    change of a one-parent commit, neither is tried.
    """
    state: _State = dict(parent_states[0]) if parent_states else {}
    others = parent_states[1:]
    for change in changes:
        if change.status == "D":
            state.pop(change.path, None)
            continue
        new_lines = metrics.text_lines(read(change.new_blob))
        if change.status == "R":
            base = state.pop(change.old_path or "", _NONE)
        else:
            base = state.get(change.path, _NONE)
        theirs = [other[change.path] for other in others if change.path in other]
        if not theirs:
            state[change.path] = _carry_lines(base, new_lines, lambda fresh: [commit] * len(fresh))
            continue
        stripped = [line.rstrip() for line in new_lines]
        whole = next(
            (owners for lines, owners in theirs if [l.rstrip() for l in lines] == stripped), None
        )
        if whole is not None:
            state[change.path] = (new_lines, whole)
            continue
        pool: dict[str, deque[str]] = defaultdict(deque)
        for lines, owners in theirs:
            for line, owner in zip(lines, owners):
                pool[line.rstrip()].append(owner)

        def from_pool(lines: list[str]) -> list[str]:
            out: list[str] = []
            for line in lines:
                queue = pool.get(line.rstrip())
                out.append(queue.popleft() if queue else commit)
            return out

        state[change.path] = _carry_lines(base, new_lines, from_pool)
    return state


@lru_cache(maxsize=16)
def _exclude_pattern(globs: tuple[str, ...]) -> re.Pattern[str] | None:
    """The `fnmatch` globs as one regex, compiled once per tuple."""
    return re.compile("|".join(map(translate, globs))) if globs else None


def is_excluded(path: str, globs: tuple[str, ...]) -> bool:
    """Glob match (as `fnmatch`) against the full path and the basename."""
    pattern = _exclude_pattern(globs)
    if pattern is None:
        return False
    return bool(pattern.match(path) or pattern.match(path.rsplit("/", 1)[-1]))


def is_blamable(blob: bytes, max_file_bytes: int) -> bool:
    """Text (no NUL in the first 8 KiB) of at most `max_file_bytes` bytes.

    With `is_excluded` and the tree mode (no symlink, no gitlink), this
    decides which snapshot files are kept: blamed, measured and given
    table rows.
    """
    return len(blob) <= max_file_bytes and b"\0" not in blob[:8192]


def _tree_at(history: History, at: str) -> dict[str, tuple[str, str]]:
    """path -> (mode, blob sha) at `at`, from first-parent changes alone."""
    chain: list[Commit] = []
    sha: str | None = at
    while sha is not None:
        commit = history.by_sha[sha]
        chain.append(commit)
        sha = commit.parents[0] if commit.parents else None
    tree: dict[str, tuple[str, str]] = {}
    for commit in reversed(chain):
        for change in commit.changes:
            if change.status == "R":
                tree.pop(change.old_path or "", None)
            if change.status == "D":
                tree.pop(change.path, None)
            else:
                tree[change.path] = (change.new_mode, change.new_blob)
    return tree


def _rename_closure(history: History, kept: set[str]) -> set[str]:
    """`kept` plus every path whose lines a rename carried into one of them."""
    sources: dict[str, set[str]] = defaultdict(set)
    for commit in history.commits:
        for change in commit.changes:
            if change.status == "R" and change.old_path is not None:
                sources[change.path].add(change.old_path)
    needed = set(kept)
    pending = list(kept)
    while pending:
        for old in sources.get(pending.pop(), ()):
            if old not in needed:
                needed.add(old)
                pending.append(old)
    return needed


def _needed_changes(
    changes: tuple[gitio.TreeChange, ...], needed: set[str]
) -> list[gitio.TreeChange]:
    """The changes that touch a needed path. A rename out of one deletes
    it, and so does a change into a gitlink, which has no blob to read."""
    out: list[gitio.TreeChange] = []
    for change in changes:
        if change.path in needed and change.new_mode != gitio.GITLINK_MODE:
            out.append(change)
        elif change.path in needed or change.old_path in needed:
            gone = change.path if change.path in needed else change.old_path
            out.append(
                gitio.TreeChange("D", gone, None, change.old_mode, "000000", change.old_blob, "")
            )
    return out


def _read_head(
    reader: gitio.ObjectReader, history: History, at: str, excludes: tuple[str, ...],
    max_file_bytes: int, blobs: dict[str, bytes | None],
) -> tuple[dict[str, bytes], set[str]]:
    """(kept files -> head bytes in bytewise path order, skipped paths) at
    `at`, a commit of `history`.

    A path that is not excluded is kept when it is no symlink or gitlink
    and its blob passes `is_blamable`, else skipped. `blobs` maps each head
    blob read so far to its bytes, None when not blamable: the blobs it
    lacks are requested from `reader` before the first one is read, and
    each is read once and added to it.
    """
    tree = _tree_at(history, at)
    candidates: list[tuple[str, str]] = []  # (path, blob sha) to read
    skipped: set[str] = set()
    for path in sorted(tree, key=lambda p: p.encode("utf-8", "replace")):
        mode, sha = tree[path]
        if is_excluded(path, excludes):
            continue
        if mode in (gitio.SYMLINK_MODE, gitio.GITLINK_MODE):
            skipped.add(path)
        else:
            candidates.append((path, sha))
    fresh = [sha for sha in dict.fromkeys(sha for _, sha in candidates) if sha not in blobs]
    reader.request(fresh)
    for sha in fresh:
        blob = reader.blob(sha)
        blobs[sha] = blob if is_blamable(blob, max_file_bytes) else None
    kept = {path: blobs[sha] for path, sha in candidates if blobs[sha] is not None}
    skipped.update(path for path, sha in candidates if blobs[sha] is None)
    return kept, skipped


def _replay(
    reader: gitio.ObjectReader, lineages: dict[str, History], kept: dict[str, dict[str, bytes]],
    blobs: dict[str, bytes | None],
) -> dict[str, _State]:
    """head -> ownership at the head, for each head of `lineages` (head ->
    its ancestors), whose kept files are `kept[head]`.

    Replay runs parents first over the union of the heads' ancestors (the
    first head's in its order, then each later head's unseen ones), one
    `_commit_state` per commit, and applies only changes to the kept paths
    and their rename sources; a commit's state is dropped after its last
    child is replayed, unless it is a head. A blob in `blobs` (the head
    blobs read) is not read again; every other one is requested from
    `reader` before the first one is read, in replay order.
    """
    plan_commits = {c.hash: c for ancestors in lineages.values() for c in ancestors.commits}
    children = Counter(p for commit in plan_commits.values() for p in commit.parents)
    children.update(lineages.keys())  # a head's state outlives its children
    needed = set().union(*(_rename_closure(lineages[at], set(kept[at])) for at in lineages))
    plan = [(c, _needed_changes(c.changes, needed)) for c in plan_commits.values()]
    reader.request(
        change.new_blob
        for _, changes in plan
        for change in changes
        if change.status != "D" and blobs.get(change.new_blob) is None
    )

    def read(sha: str) -> bytes:
        blob = blobs.get(sha)
        return blob if blob is not None else reader.blob(sha)

    states: dict[str, _State] = {}
    for commit, changes in plan:
        parents = [states[p] for p in commit.parents]
        states[commit.hash] = _commit_state(parents, changes, commit.hash, read)
        for parent in commit.parents:
            children[parent] -= 1
            if not children[parent]:
                del states[parent]
    return {at: states[at] for at in lineages}


def _credit_lists(commits: Iterable[Commit], roster: Roster) -> dict[str, list[StudentId]]:
    """sha -> the commit's credit list: its primary author (UNMAPPED when no
    alias matches), then each co-author trailer that resolves to another
    student. Each commit's signatures are resolved once."""
    out: dict[str, list[StudentId]] = {}
    for commit in commits:
        if commit.hash in out:
            continue
        credits = [resolve(roster, commit.author_name, commit.author_email) or UNMAPPED]
        for tag in parse_coauthors(commit.message, commit.hash):
            student = resolve(roster, tag.name, tag.email)
            if student is not None and student not in credits:
                credits.append(student)
        out[commit.hash] = credits
    return out


def _blame(
    root: str,
    history: History,
    at: str,
    roster: Roster,
    excludes: tuple[str, ...],
    max_file_bytes: int,
) -> list[LineAttribution]:
    """Replay up to `at`, then one attribution per line of each kept file,
    credited to the owning commit's primary author."""
    blobs: dict[str, bytes | None] = {}
    with gitio.ObjectReader(root) as reader:
        kept, _ = _read_head(reader, history, at, excludes, max_file_bytes, blobs)
        state = _replay(reader, {at: history.ancestors(at)}, {at: kept}, blobs)[at]
    commits = history.by_sha
    owning = set().union(*(state[path][1] for path in kept))
    credit_lists = _credit_lists((commits[sha] for sha in owning), roster)
    out: list[LineAttribution] = []
    for path in kept:
        lines, owners = state[path]
        for no, (line, sha) in enumerate(zip(lines, owners), start=1):
            primary = credit_lists[sha][0]
            student = None if primary is UNMAPPED else primary
            out.append(LineAttribution(path, no, line, student, sha, commits[sha].authored_at))
    return out


def blame_snapshot(
    repo: RepoHandle,
    at: str,
    roster: Roster,
    excludes: tuple[str, ...] = DEFAULT_EXCLUDE_GLOBS,
    max_file_bytes: int = MAX_BLAME_FILE_BYTES,
) -> list[LineAttribution]:
    """One attribution per line of every non-excluded text file at `at`.

    Lines are credited to the primary author of the owning commit;
    co-author splitting is applied later, during evidence aggregation.
    """
    history = repo.history
    if at not in history.by_sha:
        history = ingest.load_history(repo.root_path, at)
    return _blame(repo.root_path, history, at, roster, tuple(excludes), max_file_bytes)


_COMMENT_PREFIXES = {
    "script": ("#",),
    "markup": ("<!--",),
    "other": ("#", "//", "/*", "*", "<!--"),
    "notebook": (),
}


def _is_comment_line(kind: str, content: str) -> bool:
    stripped = content.strip()
    if not stripped:
        return True  # blank lines carry no implementation weight
    return stripped.startswith(_COMMENT_PREFIXES.get(kind, ()))


@dataclass(frozen=True)
class Snapshot:
    """The default branch's window-end snapshot, read ahead of its replay:
    the kept files are measured, so their table rows can be asked for while
    `build_contribution_set` replays the history behind them."""

    reader: gitio.ObjectReader  # the team's reader, which the replay goes on with
    head: str | None  # the window head; None before any commit
    files: tuple[KeptFile, ...]  # bytewise path order
    skipped: set[str]  # head paths not kept, excluded ones aside
    blobs: dict[str, bytes | None]  # head blob sha -> its bytes, None when not blamable


def read_snapshot(
    repo: RepoHandle, window: AnalysisWindow, options: AttributionOptions,
    reader: gitio.ObjectReader,
) -> Snapshot:
    """The window-end snapshot of `repo`'s default branch: its kept files'
    head blobs, each distinct one read once over `reader`, and their
    metrics, each file measured once."""
    head = repo.history.window_head(window)
    blobs: dict[str, bytes | None] = {}
    kept, skipped = _read_head(
        reader, repo.history, head, tuple(options.exclude_globs), options.max_file_bytes, blobs
    ) if head else ({}, set())
    files = tuple(
        KeptFile(path, blob, metrics.compute_file_metrics(path, blob))
        for path, blob in kept.items()
    )
    return Snapshot(reader, head, files, skipped, blobs)


def build_contribution_set(
    repo: RepoHandle,
    window: AnalysisWindow,
    roster: Roster,
    options: AttributionOptions = AttributionOptions(),
    branches: Iterable[str] = (),
    snapshot: Snapshot | None = None,
) -> ContributionSet:
    """Aggregate per-(student, file) evidence over the window-end snapshot.

    Line credit: each surviving line belongs to the owning commit's credit
    list (primary author plus resolved co-authors when splitting is on).
    Multi-credit commits distribute their lines round-robin, walking the
    snapshot in (path, line number) order, so credit splits equally and
    the per-file partition invariant stays exact. The line walk and the
    message loop share one credit list per commit.
    Each of `branches` costs one `git log`; its window head is replayed
    with the default branch's, and `_branch_section` filters it.
    `snapshot` is `read_snapshot`'s for the same repository, window and
    options, whose head blobs, metrics and reader the replay goes on with;
    without one, it is read here over a reader of its own.
    """
    if snapshot is None:
        with gitio.ObjectReader(repo.root_path) as reader:
            snapshot = read_snapshot(repo, window, options, reader)
            return build_contribution_set(repo, window, roster, options, branches, snapshot)
    per_student: dict[str, list[ContributionEvidence]] = {s.id: [] for s in roster.students}
    history = repo.history
    head, files, skipped = snapshot.head, snapshot.files, snapshot.skipped
    replayed = history.ancestors(head) if head else History([])
    window_commits = sorted(replayed.in_window(window), key=lambda c: (c.authored_at, c.hash))
    split = options.split_coauthors

    evidence: dict[tuple[str, str], ContributionEvidence] = {}

    def evidence_row(student: StudentId, path: str) -> ContributionEvidence:
        key = (student.id, path)
        if key not in evidence:
            evidence[key] = ContributionEvidence(student=student, path=path)
        return evidence[key]

    # one History per included branch; None for a branch the repository lacks
    branch_histories = {
        branch: ingest.load_history(repo.root_path, repo.tips[branch])
        if branch in repo.tips else None
        for branch in branches
    }
    excludes, max_file_bytes = tuple(options.exclude_globs), options.max_file_bytes
    lineages = {head: replayed} if head else {}
    kept = {head: {file.path: file.content for file in files}} if head else {}
    for branch_history in filter(None, branch_histories.values()):
        at = branch_history.window_head(window)
        if at is not None and at not in lineages:
            lineages[at] = branch_history.ancestors(at)
            kept[at], _ = _read_head(
                snapshot.reader, branch_history, at, excludes, max_file_bytes, snapshot.blobs
            )
    states = _replay(snapshot.reader, lineages, kept, snapshot.blobs)
    state = states.get(head, {})
    owning = set().union(*(state[file.path][1] for file in files))
    credit_lists = _credit_lists(
        [*window_commits, *(history.by_sha[sha] for sha in owning)], roster
    )
    # every owner is an ancestor of the head, so its lines are added in
    # the window exactly when it is one of the window commits
    added = {commit.hash for commit in window_commits}

    credit_counter: dict[str, int] = defaultdict(int)
    noncomment_lines: dict[tuple[str, str], int] = defaultdict(int)
    for file in files:  # bytewise path order, then line order
        path, kind = file.path, file.metrics.kind
        lines, owners = state[path]
        credited: list[StudentId] = []
        for line, sha in zip(lines, owners):
            credits = credit_lists[sha]
            student = credits[credit_counter[sha] % len(credits)] if split else credits[0]
            credit_counter[sha] += 1
            credited.append(student)
            row = evidence_row(student, path)
            row.lines_owned += 1
            if sha in added:
                row.lines_added_in_window += 1
            if not _is_comment_line(kind, line):
                noncomment_lines[(student.id, path)] += 1
        _attach_solo_functions(file, credited, evidence_row)

    for row in evidence.values():
        row.comment_only = (
            row.lines_owned > 0 and noncomment_lines[(row.student.id, row.path)] == 0
        )

    # a co-author counts as active whatever the splitting flag; the flag
    # only picks who is credited with the commit's message
    active_ids: set[str] = set()
    for commit in window_commits:
        credits = credit_lists[commit.hash]
        active_ids.update(student.id for student in credits)
        if not split:
            credits = credits[:1]
        touched = {
            p for change in commit.changes for p in (change.path, change.old_path) if p is not None
        }
        for path in sorted(touched):
            # a head file that is not kept gets no row; a path gone by the
            # head keeps the messages that touched it
            if path in skipped or is_excluded(path, excludes):
                continue
            for student in credits:
                evidence_row(student, path).commit_messages.append(commit.message)

    zero_commit = sorted(
        (s for s in roster.students if s.id not in active_ids), key=lambda s: s.id
    )
    for (sid, _path), row in sorted(evidence.items()):
        per_student.setdefault(sid, []).append(row)

    return ContributionSet(
        window=window,
        per_student=per_student,
        zero_commit_students=zero_commit,
        head=head,
        files=files,
        branches={
            branch: h and _branch_section(history, h, kept, states, h.window_head(window), roster)
            for branch, h in branch_histories.items()
        },
    )


def _attach_solo_functions(
    file: KeptFile,
    credited: list[StudentId],
    evidence_row: Callable[[StudentId, str], ContributionEvidence],
) -> None:
    """Mark the functions of `file` whose every line (innermost span) one
    student wrote; `credited` holds each line's credited student."""
    if file.metrics.kind != "script":
        return
    spans = [(f.name, f.start, f.end, f.score) for f in file.metrics.complexity.functions]
    for name, start, end, score in spans:
        lines = set(range(start, end + 1))
        for _, other_start, other_end, _ in spans:
            if start < other_start and other_end <= end:
                lines -= set(range(other_start, other_end + 1))
        owners = {credited[n - 1].id for n in lines if n <= len(credited)}
        if len(owners) == 1:
            evidence_row(credited[min(lines) - 1], file.path).solo_functions.append((name, score))


def _branch_section(
    history: History,
    branch_history: History,
    kept: dict[str, dict[str, bytes]],
    states: dict[str, _State],
    at: str | None,
    roster: Roster,
) -> tuple[tuple[tuple[str, int], ...], tuple[str, ...]]:
    """(primary author's display name, line count) pairs and the files of
    the lines at a branch's window head `at` (None before any commit), with
    its kept files and ownership in `kept` and `states`, whose owning
    commit `history` never saw, both sorted."""
    state = states.get(at, {})
    extra = {
        path: [sha for sha in state[path][1] if sha not in history.by_sha]
        for path in kept.get(at, {})
    }
    shas = [sha for path_shas in extra.values() for sha in path_shas]
    credit_lists = _credit_lists((branch_history.by_sha[sha] for sha in shas), roster)
    lines = Counter(credit_lists[sha][0].display_name for sha in shas)
    return tuple(sorted(lines.items())), tuple(sorted(path for path in extra if extra[path]))
