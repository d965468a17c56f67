"""Build real git repositories from declarative scripts, with ground truth.

A script is an ordered list of steps (author, date, message, explicit
line operations, branch/merge directives) plus an embedded roster. The
builder emits the history through `git fast-import` with pinned
timestamps and signatures, so fixture repositories are bit-reproducible.

The stream writes each file version once, as a marked `blob`, ahead of
the commits, which name their files by mark. All versions of one path
go back to back, paths in the order the script first touches them:
fast-import deltas a blob only against the blob it stored just before
(`--depth` in git-fast-import(1)), so each version is stored as a delta
of the one before. Written inline in each commit, every version of a
large file would be stored whole, and each small file beside it diffed
against it. The repository comes from one `git init --initial-branch`,
which needs git 2.28 or later.

Ground truth is computed by replaying the script's line operations
directly, an implementation that shares no code with the attribution
engine: insert splices owned lines in, delete drops them, replace
transfers ownership only when the text differs beyond trailing
whitespace, rename moves a file's lines wholesale, and merges take each
file from whichever branch last touched it (scripts may not edit the
same file on both sides of a merge).
"""

from __future__ import annotations

import shutil
import subprocess
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from importlib import resources
from pathlib import Path

from .errors import ScriptError
from .identity import UNMAPPED, Roster, load_roster, resolve
from .ingest import RepoHandle, open_repo

DEFAULT_BRANCH = "main"
_BASE_DATE = datetime(2024, 6, 3, 9, 0, tzinfo=timezone.utc)
_COMMITTER = "fixture <fixture@contribsum.local>"


# --- script model ---------------------------------------------------------

@dataclass(frozen=True)
class SetFile:
    path: str
    lines: tuple[str, ...]


@dataclass(frozen=True)
class Insert:
    path: str
    at: int  # 1-based; new lines occupy positions at..at+len-1
    lines: tuple[str, ...]


@dataclass(frozen=True)
class Delete:
    path: str
    at: int
    count: int = 1


@dataclass(frozen=True)
class Replace:
    path: str
    at: int  # replaces len(lines) old lines starting here, one for one
    lines: tuple[str, ...]


@dataclass(frozen=True)
class Rename:
    old: str
    new: str


@dataclass(frozen=True)
class Remove:
    path: str


LineOp = SetFile | Insert | Delete | Replace | Rename | Remove


@dataclass
class Step:
    author_name: str
    author_email: str
    message: str
    date: datetime | None = None  # auto-assigned (base + index hours) when None
    coauthors: tuple[tuple[str, str], ...] = ()  # (name, email)
    create_branch: str | None = None  # fork from current head, then switch
    checkout: str | None = None  # switch to an existing branch first
    merge: str | None = None  # merge that branch into the current one
    ops: tuple[LineOp, ...] = ()


@dataclass
class RepoScript:
    name: str
    roster_text: str
    steps: list[Step] = field(default_factory=list)
    checkpoints: list[tuple[int, str]] = field(default_factory=list)  # (after step, label)

    @property
    def roster(self) -> Roster:
        return load_roster(self.roster_text)


# --- ground truth ---------------------------------------------------------

@dataclass(frozen=True)
class TruthLine:
    content: str
    step: int  # index of the owning step


@dataclass(frozen=True)
class StepMeta:
    index: int
    student_id: str | None  # resolved primary author, None when unmapped
    coauthor_ids: tuple[str, ...]
    authored_at: datetime
    is_merge: bool


@dataclass
class GroundTruth:
    """Script-derived expectations, independent of the attribution engine."""

    roster: Roster
    steps: list[StepMeta]
    checkpoints: dict[str, dict[str, list[TruthLine]]]
    main_steps: frozenset[int] = frozenset()  # steps reachable from the main head
    step_hashes: list[str] = field(default_factory=list)  # filled by build()

    def hash_of(self, step: int) -> str:
        if not self.step_hashes:
            raise ScriptError(step, "ground truth not bound to a built repository")
        return self.step_hashes[step]

    def expected_lines(self, label: str) -> dict[str, list[TruthLine]]:
        return self.checkpoints[label]

    def credit_list(self, step: int, split: bool) -> list[str]:
        meta = self.steps[step]
        primary = meta.student_id if meta.student_id is not None else UNMAPPED.id
        if not split:
            return [primary]
        credits = [primary]
        for cid in meta.coauthor_ids:
            if cid not in credits:
                credits.append(cid)
        return credits

    def expected_owned_counts(self, label: str, split: bool = False) -> dict[tuple[str, str], int]:
        """(student id, path) -> surviving line count at a checkpoint.

        Applies the documented round-robin split rule: walking the
        snapshot in (path, line number) order, the Nth line owned by a
        commit goes to the Nth entry (mod size) of its credit list.
        """
        counts: dict[tuple[str, str], int] = {}
        seen_per_step: dict[int, int] = {}
        files = self.checkpoints[label]
        for path in sorted(files, key=lambda p: p.encode()):
            for line in files[path]:
                credits = self.credit_list(line.step, split)
                idx = seen_per_step.get(line.step, 0)
                seen_per_step[line.step] = idx + 1
                student = credits[idx % len(credits)]
                counts[(student, path)] = counts.get((student, path), 0) + 1
        return counts

    def zero_commit_ids(self) -> set[str]:
        """Roster students with no main-reachable commits or co-author credit."""
        active: set[str] = set()
        for meta in self.steps:
            if meta.is_merge or meta.index not in self.main_steps:
                continue
            if meta.student_id is not None:
                active.add(meta.student_id)
            active.update(meta.coauthor_ids)
        return {s.id for s in self.roster.students} - active


# --- replay (the oracle) --------------------------------------------------

_BranchState = dict[str, list[TruthLine]]


def _copy_state(state: _BranchState) -> _BranchState:
    """A copy whose line lists can change apart; `TruthLine`s are frozen,
    so they are shared."""
    return {path: list(lines) for path, lines in state.items()}


class _Replay:
    """Pure line-operation replay over the script; produces ground truth."""

    def __init__(self, script: RepoScript):
        self.script = script
        self.roster = script.roster
        self.branches: dict[str, _BranchState] = {DEFAULT_BRANCH: {}}
        self.fork_base: dict[str, _BranchState] = {}
        self.branch_steps: dict[str, set[int]] = {DEFAULT_BRANCH: set()}
        self.current = DEFAULT_BRANCH
        self.metas: list[StepMeta] = []
        self.checkpoints: dict[str, dict[str, list[TruthLine]]] = {}
        # per-step: path -> full post-step lines, or None for a deletion
        self.touched_per_step: list[dict[str, list[str] | None]] = []

    def run(self) -> GroundTruth:
        marks: dict[int, list[str]] = {}
        for after_step, label in self.script.checkpoints:
            marks.setdefault(after_step, []).append(label)
        for index, step in enumerate(self.script.steps):
            self.apply_step(index, step)
            for label in marks.get(index, []):
                self.checkpoint(label)
        return GroundTruth(
            roster=self.roster,
            steps=self.metas,
            checkpoints=self.checkpoints,
            main_steps=frozenset(self.branch_steps[DEFAULT_BRANCH]),
        )

    def checkpoint(self, label: str) -> None:
        self.checkpoints[label] = _copy_state(self.branches[self.current])

    def apply_step(self, index: int, step: Step) -> None:
        if step.checkout is not None:
            if step.checkout not in self.branches:
                raise ScriptError(index, f"checkout of unknown branch {step.checkout!r}")
            self.current = step.checkout
        if step.create_branch is not None:
            if step.create_branch in self.branches:
                raise ScriptError(index, f"branch {step.create_branch!r} already exists")
            snapshot = _copy_state(self.branches[self.current])
            self.branches[step.create_branch] = snapshot
            self.fork_base[step.create_branch] = _copy_state(snapshot)
            self.branch_steps[step.create_branch] = set(self.branch_steps[self.current])
            self.current = step.create_branch

        state = self.branches[self.current]
        touched: dict[str, list[str] | None] = {}

        if step.merge is not None:
            if step.ops:
                raise ScriptError(index, "merge steps may not carry file edits")
            if step.merge not in self.branches:
                raise ScriptError(index, f"merge of unknown branch {step.merge!r}")
            merged, touched = self._merge(
                index, state, self.branches[step.merge], self.fork_base.get(step.merge, {})
            )
            self.branches[self.current] = merged
            self.branch_steps[self.current] |= self.branch_steps[step.merge]
        else:
            for op in step.ops:
                self._apply_op(index, state, op, touched)

        student = resolve(self.roster, step.author_name, step.author_email)
        coauthor_ids = []
        for name, email in step.coauthors:
            co = resolve(self.roster, name, email)
            if co is not None and co.id not in coauthor_ids:
                coauthor_ids.append(co.id)
        self.metas.append(
            StepMeta(
                index=index,
                student_id=student.id if student else None,
                coauthor_ids=tuple(coauthor_ids),
                authored_at=step.date or (_BASE_DATE + timedelta(hours=index)),
                is_merge=step.merge is not None,
            )
        )
        self.branch_steps[self.current].add(index)
        self.touched_per_step.append(touched)

    def _apply_op(self, index: int, state: _BranchState, op: LineOp, touched: dict) -> None:
        if isinstance(op, SetFile):
            if op.path in state:
                raise ScriptError(index, f"set on existing file {op.path!r}; use insert/replace")
            state[op.path] = [TruthLine(l, index) for l in op.lines]
            touched[op.path] = list(op.lines)
        elif isinstance(op, Insert):
            lines = state.get(op.path)
            if lines is None or not 1 <= op.at <= len(lines) + 1:
                raise ScriptError(index, f"insert out of range in {op.path!r}")
            state[op.path] = (
                lines[: op.at - 1]
                + [TruthLine(l, index) for l in op.lines]
                + lines[op.at - 1:]
            )
            touched[op.path] = [t.content for t in state[op.path]]
        elif isinstance(op, Delete):
            lines = state.get(op.path)
            if lines is None or not 1 <= op.at <= len(lines) - op.count + 1:
                raise ScriptError(index, f"delete out of range in {op.path!r}")
            del lines[op.at - 1: op.at - 1 + op.count]
            touched[op.path] = [t.content for t in lines]
        elif isinstance(op, Replace):
            lines = state.get(op.path)
            if lines is None or not 1 <= op.at <= len(lines) - len(op.lines) + 1:
                raise ScriptError(index, f"replace out of range in {op.path!r}")
            for offset, new in enumerate(op.lines):
                pos = op.at - 1 + offset
                old = lines[pos]
                if new.rstrip() != old.content.rstrip():
                    lines[pos] = TruthLine(new, index)
                else:
                    # whitespace-only change: text updates, ownership stays
                    lines[pos] = TruthLine(new, old.step)
            touched[op.path] = [t.content for t in lines]
        elif isinstance(op, Rename):
            if op.old not in state:
                raise ScriptError(index, f"rename of missing file {op.old!r}")
            if op.new in state:
                raise ScriptError(index, f"rename target exists: {op.new!r}")
            state[op.new] = state.pop(op.old)
            touched[op.old] = None
            touched[op.new] = [t.content for t in state[op.new]]
        elif isinstance(op, Remove):
            lines = state.pop(op.path, None)
            if lines is None:
                raise ScriptError(index, f"remove of missing file {op.path!r}")
            touched[op.path] = None
        else:
            raise ScriptError(index, f"unknown operation {op!r}")

    def _merge(
        self, index: int, ours: _BranchState, theirs: _BranchState, base: _BranchState
    ) -> tuple[_BranchState, dict]:
        merged: _BranchState = {}
        touched: dict[str, list[str] | None] = {}
        for path in sorted(set(ours) | set(theirs) | set(base)):
            a = ours.get(path)
            b = theirs.get(path)
            c = base.get(path)
            if a == b:
                pick = a
            elif b == c:
                pick = a  # only our side touched it
            elif a == c:
                pick = b  # only their side touched it
                touched[path] = None if pick is None else [t.content for t in pick]
            else:
                raise ScriptError(
                    index,
                    f"both sides of the merge touched {path!r}; scripts must keep merges clean",
                )
            if pick is not None:
                merged[path] = list(pick)
        return merged, touched


# --- builder --------------------------------------------------------------

def _data(payload: bytes) -> bytes:
    return b"data %d\n" % len(payload) + payload + b"\n"


def build(script: RepoScript, destination: str | Path) -> tuple[RepoHandle, GroundTruth]:
    """Materialize the script as a bare repository; returns handle + truth.

    Deterministic: fixed author/committer timestamps from the script make
    commit hashes identical across runs. The script is replayed and the
    stream built before the repository is made, and a repository git
    refuses to make is removed, so a failed build leaves `destination` as
    it found it: absent or empty.
    """
    # absolute: `git -C dest` would resolve a relative marks path against dest
    dest = Path(destination).absolute()
    if dest.exists() and any(dest.iterdir()):
        raise ScriptError("build", f"destination not empty: {dest}")
    if not script.steps:
        raise ScriptError("build", "script has no steps")

    checkpoint_marks: dict[int, list[str]] = {}
    for after_step, label in script.checkpoints:
        checkpoint_marks.setdefault(after_step, []).append(label)

    replay = _Replay(script)
    # commit i is mark i + 1; each file version gets the next mark past the commits
    commits = bytearray()
    # path -> (mark, lines) of each version; paths in the order first touched
    versions: dict[str, list[tuple[int, list[str]]]] = {}
    blob_mark = len(script.steps)
    branch_marks: dict[str, int] = {}
    current_branch = DEFAULT_BRANCH

    for index, step in enumerate(script.steps):
        if step.checkout is not None:
            current_branch = step.checkout
        if step.create_branch is not None:
            branch_marks[step.create_branch] = branch_marks.get(current_branch, 0)
            current_branch = step.create_branch

        replay.apply_step(index, step)
        for label in checkpoint_marks.get(index, []):
            replay.checkpoint(label)
        meta = replay.metas[index]
        touched = replay.touched_per_step[index]

        message = step.message
        trailers = [f"Co-authored-by: {n} <{e}>" for n, e in step.coauthors]
        if trailers:
            message = message.rstrip("\n") + "\n\n" + "\n".join(trailers)

        mark = index + 1
        when = int(meta.authored_at.timestamp())
        commits += b"commit refs/heads/%s\n" % current_branch.encode()
        commits += b"mark :%d\n" % mark
        commits += b"author %s <%s> %d +0000\n" % (
            step.author_name.encode(),
            step.author_email.encode(),
            when,
        )
        commits += b"committer %s %d +0000\n" % (_COMMITTER.encode(), when)
        commits += _data(message.encode())
        parent = branch_marks.get(current_branch, 0)
        if parent:
            commits += b"from :%d\n" % parent
        if step.merge is not None:
            other = branch_marks.get(step.merge, 0)
            if not other:
                raise ScriptError(index, f"merge of branch with no commits: {step.merge!r}")
            commits += b"merge :%d\n" % other
        for path, lines in sorted(touched.items()):
            if lines is None:
                commits += b"D %s\n" % path.encode()
            else:
                blob_mark += 1
                versions.setdefault(path, []).append((blob_mark, lines))
                commits += b"M 100644 :%d %s\n" % (blob_mark, path.encode())
        commits += b"\n"
        branch_marks[current_branch] = mark

    # every version of a path back to back, so each is deltaed against the one before
    stream = bytearray()
    for path_versions in versions.values():
        for blob, lines in path_versions:
            stream += b"blob\nmark :%d\n" % blob
            stream += _data(("\n".join(lines) + "\n" if lines else "").encode())
    stream += commits
    del commits
    stream += b"done\n"
    marks_file = dest / "fixture-marks.txt"
    existed = dest.exists()
    try:
        dest.mkdir(parents=True, exist_ok=True)
        subprocess.run(
            ["git", "init", "--bare", "--quiet", "--template=",
             f"--initial-branch={DEFAULT_BRANCH}", str(dest)],
            check=True,
            capture_output=True,
        )
        imported = subprocess.run(
            [
                "git", "-C", str(dest), "fast-import",
                "--quiet", "--done", f"--export-marks={marks_file}",
            ],
            input=stream,
            capture_output=True,
        )
        if imported.returncode != 0:
            reason = "; ".join(
                line for line in imported.stderr.decode("utf-8", "replace").splitlines()
                if line.strip() and "crash report" not in line
            )
            raise ScriptError("build", f"git fast-import refused the history: {reason}")
    except BaseException:
        # the entry check found `dest` absent or empty, so all of it is ours
        shutil.rmtree(dest, ignore_errors=True)
        if existed:
            dest.mkdir()
        raise

    hashes_by_mark: dict[int, str] = {}
    for line in marks_file.read_text().splitlines():
        mark_text, sha = line.split()
        hashes_by_mark[int(mark_text.lstrip(":"))] = sha

    truth = GroundTruth(
        roster=replay.roster,
        steps=replay.metas,
        checkpoints=replay.checkpoints,
        main_steps=frozenset(replay.branch_steps[DEFAULT_BRANCH]),
        step_hashes=[hashes_by_mark[i + 1] for i in range(len(script.steps))],
    )
    return open_repo(str(dest), DEFAULT_BRANCH), truth


def replay_truth(script: RepoScript) -> GroundTruth:
    """Ground truth without building anything (commit hashes unbound)."""
    return _Replay(script).run()


# --- script text format ----------------------------------------------------

def parse_script(text: str, name: str = "script") -> RepoScript:
    """Parse the declarative one-step-per-block text format."""
    roster_lines: list[str] = []
    steps: list[Step] = []
    checkpoints: list[tuple[int, str]] = []
    current: dict | None = None
    pending_op: dict | None = None

    def flush_op():
        nonlocal pending_op
        if pending_op is None or current is None:
            pending_op = None
            return
        kind = pending_op["kind"]
        lines = tuple(pending_op["lines"])
        if kind == "set":
            current["ops"].append(SetFile(pending_op["path"], lines))
        elif kind == "insert":
            current["ops"].append(Insert(pending_op["path"], pending_op["at"], lines))
        elif kind == "replace":
            current["ops"].append(Replace(pending_op["path"], pending_op["at"], lines))
        pending_op = None

    def flush_step():
        nonlocal current
        flush_op()
        if current is None:
            return
        if not current.get("author"):
            raise ScriptError(len(steps), "step missing author")
        author_name, author_email = _split_signature(current["author"], len(steps))
        steps.append(
            Step(
                author_name=author_name,
                author_email=author_email,
                message=current.get("message", ""),
                date=current.get("date"),
                coauthors=tuple(current.get("coauthors", [])),
                create_branch=current.get("create_branch"),
                checkout=current.get("checkout"),
                merge=current.get("merge"),
                ops=tuple(current["ops"]),
            )
        )
        current = None

    fixture_name = name
    for line_no, raw in enumerate(text.splitlines(), start=1):
        if raw.startswith(". ") or raw == ".":
            if pending_op is None:
                raise ScriptError(line_no, "content line outside a file operation")
            pending_op["lines"].append(raw[2:] if raw != "." else "")
            continue
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        keyword, _, rest = line.partition(" ")
        rest = rest.strip()
        if keyword == "fixture":
            fixture_name = rest
        elif keyword == "roster":
            roster_lines.append(rest)
        elif keyword in ("commit", "merge"):
            flush_step()
            current = {"ops": [], "coauthors": []}
            if keyword == "merge":
                if not rest:
                    raise ScriptError(line_no, "merge requires a branch name")
                current["merge"] = rest
        elif keyword == "checkpoint":
            flush_step()
            if not steps:
                raise ScriptError(line_no, "checkpoint before any step")
            checkpoints.append((len(steps) - 1, rest or "final"))
        elif current is not None and keyword == "author":
            current["author"] = rest
        elif current is not None and keyword == "date":
            current["date"] = datetime.fromisoformat(rest.replace("Z", "+00:00"))
        elif current is not None and keyword == "message":
            current["message"] = rest
        elif current is not None and keyword == "coauthor":
            current["coauthors"].append(_split_signature(rest, line_no))
        elif current is not None and keyword == "branch":
            current["create_branch"] = rest
        elif current is not None and keyword == "checkout":
            current["checkout"] = rest
        elif current is not None and keyword in ("set", "insert", "replace"):
            flush_op()
            parts = rest.split()
            if keyword == "set":
                pending_op = {"kind": "set", "path": parts[0], "lines": []}
            else:
                if len(parts) != 2:
                    raise ScriptError(line_no, f"{keyword} needs '<path> <line>'")
                pending_op = {"kind": keyword, "path": parts[0], "at": int(parts[1]), "lines": []}
        elif current is not None and keyword == "delete":
            flush_op()
            parts = rest.split()
            count = int(parts[2]) if len(parts) > 2 else 1
            current["ops"].append(Delete(parts[0], int(parts[1]), count))
        elif current is not None and keyword == "rename":
            flush_op()
            old, new = rest.split()
            current["ops"].append(Rename(old, new))
        elif current is not None and keyword == "remove":
            flush_op()
            current["ops"].append(Remove(rest))
        else:
            raise ScriptError(line_no, f"unrecognized directive: {line!r}")
    flush_step()

    return RepoScript(
        name=fixture_name,
        roster_text="\n".join(roster_lines) + "\n",
        steps=steps,
        checkpoints=checkpoints,
    )


def _split_signature(signature: str, where) -> tuple[str, str]:
    lt = signature.rfind("<")
    gt = signature.rfind(">")
    if not 0 <= lt < gt:
        raise ScriptError(where, f"bad signature {signature!r}; expected 'Name <email>'")
    return signature[:lt].strip(), signature[lt + 1:gt].strip()


# --- shipped fixtures -------------------------------------------------------

STANDARD_FIXTURES = (
    "sole_author",
    "interleaved_edits",
    "rename_keeps_authors",
    "merged_branch",
    "coauthored_commit",
    "comment_injection",
    "unmerged_branch",
    "zero_commit_student",
    "whitespace_only_change",
    "generated_file_exclusion",
)


def load_fixture_text(name: str) -> str:
    return resources.files("contribsum.fixtures").joinpath(f"{name}.repo").read_text(
        encoding="utf-8"
    )


def standard_suite() -> list[tuple[RepoScript, GroundTruth]]:
    """The named fixture scripts with unbound (hash-free) ground truths.

    Covers the documented failure modes: sole author, interleaved edits,
    rename, merge, co-authored commit, comment injection, unmerged
    branch, zero-commit student, whitespace-only change, generated-file
    exclusion. Tests that need commit hashes build the fixture instead.
    """
    suite = []
    for name in STANDARD_FIXTURES:
        script = parse_script(load_fixture_text(name), name)
        suite.append((script, replay_truth(script)))
    return suite


def build_standard_fixture(name: str, destination: str | Path) -> tuple[RepoHandle, GroundTruth]:
    return build(parse_script(load_fixture_text(name), name), destination)
