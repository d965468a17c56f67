"""Blame engine vs the script-replay oracle, evidence aggregation."""

from __future__ import annotations

import os
import subprocess
from collections import Counter
from datetime import datetime, timedelta, timezone
from fnmatch import fnmatch

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    JUNE,
    PRUNE_MAX_FILE_BYTES,
    ROSTER_TEXT,
    random_pruning_script,
    random_script,
    tree_files,
)
from contribsum import attribution, gitio, ingest, metrics as metrics_module, synthfix
from contribsum.attribution import (
    AttributionOptions,
    DEFAULT_EXCLUDE_GLOBS,
    MAX_BLAME_FILE_BYTES,
    blame_snapshot,
    build_contribution_set,
    is_blamable,
    is_excluded,
)
from contribsum.errors import UnknownCommit
from contribsum.identity import UNMAPPED, load_roster
from contribsum.ingest import AnalysisWindow
from contribsum.metrics import compute_file_metrics
from contribsum.synthfix import Delete, Insert, RepoScript, Replace, SetFile, Step


def _blame_map(handle, truth, roster, excludes=()):
    attrs = blame_snapshot(handle, handle.head_ref, roster, excludes=excludes)
    got = {}
    for a in attrs:
        got.setdefault(a.path, []).append((a.content, a.commit))
    return got


def _truth_map(truth, label="final"):
    return {
        path: [(tl.content, truth.hash_of(tl.step)) for tl in lines]
        for path, lines in truth.expected_lines(label).items()
    }


class TestBlameOracleEquivalence:
    def test_every_standard_fixture_matches_exactly(self, built_fixtures):
        for name, (handle, truth) in built_fixtures.items():
            got = _blame_map(handle, truth, truth.roster)
            want = _truth_map(truth)
            assert got == want, f"fixture {name}: blame deviates from oracle"

    def test_single_author_three_lines(self, tmp_path):
        script = RepoScript(
            name="tiny",
            roster_text=ROSTER_TEXT,
            steps=[
                Step(
                    author_name="Alice Lee",
                    author_email="alice@campus.edu",
                    message="one file",
                    ops=(SetFile("notes.py", ("a = 1", "b = 2", "c = 3")),),
                )
            ],
        )
        handle, truth = synthfix.build(script, tmp_path / "tiny")
        attrs = blame_snapshot(handle, handle.head_ref, truth.roster, excludes=())
        assert len(attrs) == 3
        assert all(a.student and a.student.id == "alice" for a in attrs)
        assert [a.line_no for a in attrs] == [1, 2, 3]

    def test_interleaved_split_seven_three(self, built_fixtures):
        handle, truth = built_fixtures["interleaved_edits"]
        attrs = blame_snapshot(handle, handle.head_ref, truth.roster, excludes=())
        by_student = {}
        for a in attrs:
            by_student[a.student.id] = by_student.get(a.student.id, 0) + 1
        assert by_student == {"alice": 7, "bob": 3}

    def test_rename_keeps_original_authors(self, built_fixtures):
        handle, truth = built_fixtures["rename_keeps_authors"]
        attrs = blame_snapshot(handle, handle.head_ref, truth.roster, excludes=())
        assert {a.path for a in attrs} == {"helpers.py"}
        assert all(a.student.id == "alice" for a in attrs)

    def test_comment_injection_credits_committer(self, built_fixtures):
        handle, truth = built_fixtures["comment_injection"]
        attrs = blame_snapshot(handle, handle.head_ref, truth.roster, excludes=())
        export_lines = [a for a in attrs if a.path == "export.py"]
        assert export_lines, "fixture must contain export.py"
        # the first line claims Alice wrote it; ownership says Bob
        claim = next(a for a in export_lines if "written by Alice" in a.content)
        assert claim.student.id == "bob"
        assert all(a.student.id == "bob" for a in export_lines)

    def test_whitespace_only_change_does_not_transfer(self, built_fixtures):
        handle, truth = built_fixtures["whitespace_only_change"]
        attrs = blame_snapshot(handle, handle.head_ref, truth.roster, excludes=())
        bonus = next(a for a in attrs if a.content.startswith("BONUS_POINTS"))
        assert bonus.student.id == "alice"
        assert bonus.content.endswith("   "), "snapshot text keeps the new whitespace"

    def test_unknown_commit_raises(self, built_fixtures):
        handle, truth = built_fixtures["sole_author"]
        with pytest.raises(UnknownCommit):
            blame_snapshot(handle, "f" * 40, truth.roster)

    def test_merge_earns_merger_nothing(self, built_fixtures):
        handle, truth = built_fixtures["merged_branch"]
        attrs = blame_snapshot(handle, handle.head_ref, truth.roster, excludes=())
        merge_hashes = {truth.hash_of(m.index) for m in truth.steps if m.is_merge}
        assert not any(a.commit in merge_hashes for a in attrs)
        pages = [a for a in attrs if a.path == "pages.html"]
        assert pages and all(a.student.id == "bob" for a in pages)


class _PlumbingRepo:
    """A repository whose commits are written with `git commit-tree`, so a
    merge's tree and parents are exactly what a test asks for."""

    def __init__(self, root):
        self.root = str(root)
        subprocess.run(["git", "init", "-q", self.root], check=True)
        self.hour = 0

    def _git(self, *args: str, stdin: bytes = b"", env=None) -> str:
        out = subprocess.run(
            ["git", "-C", self.root, *args], input=stdin, env=env,
            capture_output=True, check=True,
        ).stdout
        return out.decode().strip()

    def commit(self, author: tuple[str, str], files: dict[str, list[str]], *parents: str) -> str:
        """A commit by `author` whose tree is `files` (path -> lines)."""
        entries = "".join(
            f"100644 blob {self._git('hash-object', '-w', '--stdin', stdin=text)}\t{path}\n"
            for path, text in (
                (path, "".join(line + "\n" for line in lines).encode())
                for path, lines in sorted(files.items())
            )
        )
        tree = self._git("mktree", stdin=entries.encode())
        self.hour += 1
        date = f"2024-06-10T{self.hour:02d}:00:00+00:00"
        env = {
            **os.environ,
            "GIT_AUTHOR_NAME": author[0], "GIT_AUTHOR_EMAIL": author[1],
            "GIT_AUTHOR_DATE": date,
            "GIT_COMMITTER_NAME": author[0], "GIT_COMMITTER_EMAIL": author[1],
            "GIT_COMMITTER_DATE": date,
        }
        parent_args = [arg for parent in parents for arg in ("-p", parent)]
        return self._git("commit-tree", tree, *parent_args, "-m", "work", env=env)

    def blame(self, tip: str) -> dict[str, list[tuple[str, str]]]:
        """path -> (content, owning commit) per line at `tip`, the tip of main."""
        self._git("update-ref", "refs/heads/main", tip)
        handle = ingest.open_repo(self.root, "main")
        roster = load_roster(ROSTER_TEXT)
        got: dict[str, list[tuple[str, str]]] = {}
        for a in blame_snapshot(handle, tip, roster, excludes=()):
            got.setdefault(a.path, []).append((a.content, a.commit))
        return got


ALICE = ("Alice Lee", "alice@campus.edu")
BOB = ("Bob Roy", "bob@campus.edu")
CAROL = ("Carol Weiss", "carol@campus.edu")


class TestMergeAdoption:
    """The two ways a merge's changed file finds owners in its other parents."""

    def test_whitespace_equal_file_keeps_side_owners(self, tmp_path):
        repo = _PlumbingRepo(tmp_path / "repo")
        base = repo.commit(ALICE, {"f.py": ["def f():", "    return 0"]})
        # main and side both append `x = 1`; the merge takes the side's
        # file, which differs from main's only in trailing whitespace
        main = repo.commit(CAROL, {"f.py": ["def f():", "    return 0", "", "x = 1"]}, base)
        side = repo.commit(BOB, {"f.py": ["def f():", "    return 0  ", "", "x = 1"]}, base)
        merge = repo.commit(
            CAROL, {"f.py": ["def f():", "    return 0\t", "", "x = 1 "]}, main, side
        )
        assert repo.blame(merge)["f.py"] == [
            ("def f():", base), ("    return 0\t", base), ("", side), ("x = 1 ", side),
        ]

    def test_line_by_line_adoption(self, tmp_path):
        repo = _PlumbingRepo(tmp_path / "repo")
        lines = [f"v{n} = {n}" for n in range(10)]
        base = repo.commit(ALICE, {"f.py": lines})
        main_lines = lines[:1] + ["v1 = 'main'"] + lines[2:]
        side_lines = lines[:7] + ["v7 = 'side'"] + lines[8:]
        main = repo.commit(ALICE, {"f.py": main_lines}, base)
        side = repo.commit(BOB, {"f.py": side_lines}, base)
        merged = main_lines[:7] + ["v7 = 'side'"] + main_lines[8:] + ["resolved = True"]
        merge = repo.commit(CAROL, {"f.py": merged}, main, side)
        owners = [base] * 11
        owners[1], owners[7], owners[10] = main, side, merge
        assert repo.blame(merge)["f.py"] == list(zip(merged, owners))


class TestExclusions:
    def test_default_globs_drop_lockfile(self, built_fixtures):
        handle, truth = built_fixtures["generated_file_exclusion"]
        attrs = blame_snapshot(handle, handle.head_ref, truth.roster)  # default excludes
        assert {a.path for a in attrs} == {"app.py"}
        unfiltered = blame_snapshot(handle, handle.head_ref, truth.roster, excludes=())
        assert "package-lock.json" in {a.path for a in unfiltered}

    def test_binary_files_skipped(self, tmp_path):
        script = RepoScript(
            name="binary",
            roster_text=ROSTER_TEXT,
            steps=[
                Step(
                    author_name="Alice Lee",
                    author_email="alice@campus.edu",
                    message="binary-ish content",
                    ops=(
                        SetFile("data.bin", ("\x00\x01\x02binary",)),
                        SetFile("ok.py", ("x = 1",)),
                    ),
                )
            ],
        )
        handle, truth = synthfix.build(script, tmp_path / "binary")
        attrs = blame_snapshot(handle, handle.head_ref, truth.roster, excludes=())
        assert {a.path for a in attrs} == {"ok.py"}

    def test_oversized_files_skipped(self, tmp_path):
        script = RepoScript(
            name="big",
            roster_text=ROSTER_TEXT,
            steps=[
                Step(
                    author_name="Alice Lee",
                    author_email="alice@campus.edu",
                    message="large generated file",
                    ops=(
                        SetFile("big.txt", tuple(f"row {i}" for i in range(300))),
                        SetFile("ok.py", ("x = 1",)),
                    ),
                )
            ],
        )
        handle, truth = synthfix.build(script, tmp_path / "big")
        attrs = blame_snapshot(
            handle, handle.head_ref, truth.roster, excludes=(), max_file_bytes=500
        )
        assert {a.path for a in attrs} == {"ok.py"}


_GLOB_ALPHABET = ("a", "b", "x", "/", ".", "*", "?", "[", "]", "!", "-", "é", "ß", "日")
_PATH_PARTS = ("node_modules", "vendor", "dist", "build", "src", "a.min.js", "b.min.css",
               "package-lock.json", "yarn.lock", ".ipynb_checkpoints", "x.py", "é.py")


@st.composite
def _paths(draw, parts=_PATH_PARTS) -> str:
    """Path-like text: "/"-joined parts, each a sampled one or random text."""
    return "/".join(draw(st.lists(
        st.one_of(st.sampled_from(parts), st.text(st.sampled_from(_GLOB_ALPHABET), max_size=6)),
        min_size=1, max_size=4,
    )))


_GLOBS = st.lists(_paths(_PATH_PARTS + ("*", "?", "*.py", "[a-x]*", "[!a]", "src/*")), max_size=4)


class TestExcludeMatcher:
    """The one compiled pattern answers as the per-glob `fnmatch` form."""

    @staticmethod
    def _per_glob(path: str, globs: tuple[str, ...]) -> bool:
        name = path.rsplit("/", 1)[-1]
        return any(fnmatch(path, g) or fnmatch(name, g) for g in globs)

    @settings(max_examples=300, deadline=None)
    @given(path=_paths())
    def test_default_globs(self, path):
        assert is_excluded(path, DEFAULT_EXCLUDE_GLOBS) == self._per_glob(path, DEFAULT_EXCLUDE_GLOBS)

    @settings(max_examples=300, deadline=None)
    @given(
        path=_paths(),
        globs=_GLOBS.map(tuple),
    )
    def test_random_globs(self, path, globs):
        assert is_excluded(path, globs) == self._per_glob(path, globs)


class TestPrunedReplay:
    """Replay covers only paths that reach a kept snapshot file; the result
    must equal a replay of every path, filtered afterwards."""

    def test_pruned_blame_equals_filtered_full_blame(self, tmp_path):
        for seed in range(100):  # the partition sweep's seeds
            handle, truth = synthfix.build(random_pruning_script(seed), tmp_path / f"h{seed}")
            pruned = blame_snapshot(
                handle, handle.head_ref, truth.roster,
                excludes=DEFAULT_EXCLUDE_GLOBS, max_file_bytes=PRUNE_MAX_FILE_BYTES,
            )
            full = blame_snapshot(
                handle, handle.head_ref, truth.roster,
                excludes=(), max_file_bytes=PRUNE_MAX_FILE_BYTES,
            )
            assert pruned == [
                a for a in full if not is_excluded(a.path, DEFAULT_EXCLUDE_GLOBS)
            ], f"seed {seed}"

            got: dict[str, list] = {}
            for a in pruned:
                got.setdefault(a.path, []).append((a.content, a.commit))
            want = {
                path: [(tl.content, truth.hash_of(tl.step)) for tl in lines]
                for path, lines in truth.expected_lines("final").items()
                if not is_excluded(path, DEFAULT_EXCLUDE_GLOBS)
                and is_blamable(
                    ("".join(tl.content + "\n" for tl in lines)).encode(), PRUNE_MAX_FILE_BYTES
                )
            }
            assert got == want, f"seed {seed}: blame deviates from oracle"
            assert {"app/widget.py", "app/tool.py", "app/gone.py", "app/shared.js"} <= set(got)
            assert "app/shrinks.py" in got and "app/grows.py" not in got


def _reference_kept(handle, at, excludes, max_file_bytes) -> list[tuple[str, bytes]]:
    """The kept files by an independent tree reader and the same predicate."""
    return [
        (path, content)
        for path, content in tree_files(handle, at)
        if not is_excluded(path, excludes) and is_blamable(content, max_file_bytes)
    ]


def _kept(cset) -> list[tuple[str, bytes]]:
    for file in cset.files:
        assert file.metrics == compute_file_metrics(file.path, file.content), file.path
    return [(file.path, file.content) for file in cset.files]


class TestKeptFiles:
    """`ContributionSet.files`, the kept files replay hands back, equal an
    `ls-tree` + `cat-file` listing of the window-end snapshot filtered by
    `is_excluded` + `is_blamable`."""

    def test_standard_fixtures(self, built_fixtures):
        for name, (handle, truth) in built_fixtures.items():
            cset = build_contribution_set(handle, JUNE, truth.roster)
            assert cset.head == handle.head_ref, name
            want = _reference_kept(handle, cset.head, DEFAULT_EXCLUDE_GLOBS, MAX_BLAME_FILE_BYTES)
            assert _kept(cset) == want, name

    def test_pruning_scripts(self, tmp_path):
        options = AttributionOptions(max_file_bytes=PRUNE_MAX_FILE_BYTES)
        for seed in range(100):
            handle, truth = synthfix.build(random_pruning_script(seed), tmp_path / f"k{seed}")
            cset = build_contribution_set(handle, JUNE, truth.roster, options)
            assert cset.head == handle.head_ref, f"seed {seed}"
            want = _reference_kept(handle, cset.head, DEFAULT_EXCLUDE_GLOBS, PRUNE_MAX_FILE_BYTES)
            assert _kept(cset) == want, f"seed {seed}"

    @staticmethod
    def _files_after(handle, truth, step: int) -> list[tuple[str, bytes]]:
        """Kept files of a window that ends just after `step`."""
        end = truth.steps[step].authored_at + timedelta(seconds=1)
        window = AnalysisWindow(start=JUNE.start, end=end, label="cut")
        cset = build_contribution_set(handle, window, truth.roster)
        assert cset.head == truth.hash_of(step)
        return _kept(cset)

    def test_initial_commit_single_file(self, built_fixtures):
        handle, truth = built_fixtures["sole_author"]
        files = self._files_after(handle, truth, 0)
        assert [path for path, _ in files] == ["app.py"]
        assert b"booting application" in files[0][1]

    def test_rename_shows_new_path_only(self, built_fixtures):
        handle, truth = built_fixtures["rename_keeps_authors"]
        files = dict(self._files_after(handle, truth, 1))
        assert "helpers.py" in files
        assert "util.py" not in files

    def test_paths_bytewise_sorted(self, built_fixtures):
        handle, truth = built_fixtures["generated_file_exclusion"]
        cset = build_contribution_set(handle, JUNE, truth.roster)
        paths = [file.path for file in cset.files]
        assert paths == sorted(paths, key=lambda p: p.encode())


class TestEvidenceNamesKeptFiles:
    """Every evidence entry with lines names a kept file, so the Contribution
    Table can quote each one's Functionality Table row by path."""

    def test_random_histories(self, tmp_path):
        checked = 0
        kept_files = {MAX_BLAME_FILE_BYTES: 0, 100: 0}
        for seed in range(25):
            for kind, script in (("r", random_script), ("p", random_pruning_script)):
                handle, truth = synthfix.build(script(seed), tmp_path / f"{kind}{seed}")
                for max_file_bytes in kept_files:
                    options = AttributionOptions(max_file_bytes=max_file_bytes)
                    cset = build_contribution_set(handle, JUNE, truth.roster, options)
                    kept = {file.path for file in cset.files}
                    kept_files[max_file_bytes] += len(kept)
                    for rows in cset.per_student.values():
                        for ev in rows:
                            if ev.lines_owned + ev.lines_added_in_window > 0:
                                assert ev.path in kept, (kind, seed, max_file_bytes, ev.path)
                                checked += 1
        assert checked > 500
        assert kept_files[100] < kept_files[MAX_BLAME_FILE_BYTES]  # the small limit skips files


class TestReplayBound:
    """Blame work does not grow with edits to excluded files, nor with the
    length of an edited file."""

    @staticmethod
    def _history(lock_edits: int) -> RepoScript:
        lock = tuple(f'    "dep-{i}": "1.{i}.0",' for i in range(5000))
        steps = [
            Step("Alice Lee", "alice@campus.edu", "scaffold",
                 ops=(SetFile("app.py", ("a = 1",)), SetFile("package-lock.json", lock))),
            Step("Bob Roy", "bob@campus.edu", "app work", ops=(Insert("app.py", 2, ("b = 2",)),)),
        ]
        for n in range(lock_edits):
            steps.append(
                Step("CI Bot", "bot@nowhere.invalid", f"bump {n}",
                     ops=(Replace("package-lock.json", 1 + 200 * n, (f'    "dep-x{n}": "2.0",',)),))
            )
        steps.append(
            Step("Alice Lee", "alice@campus.edu", "more app", ops=(Insert("app.py", 1, ("c = 3",)),))
        )
        return RepoScript(name=f"lock-{lock_edits}", roster_text=ROSTER_TEXT, steps=steps)

    def test_work_independent_of_lockfile_edits(self, tmp_path, monkeypatch):
        read: list[str] = []
        matched: list[int] = []
        real_blob = gitio.ObjectReader.blob

        def counting_blob(self, sha):
            read.append(sha)
            return real_blob(self, sha)

        monkeypatch.setattr(gitio.ObjectReader, "blob", counting_blob)
        self._count_matched(monkeypatch, matched)
        work = {}
        for edits in (2, 20):
            handle, truth = synthfix.build(self._history(edits), tmp_path / f"lock-{edits}")
            lock_blobs = {
                blob
                for commit in handle.history.commits
                for change in commit.changes
                if change.path == "package-lock.json"
                for blob in (change.old_blob, change.new_blob)
            }
            read.clear()
            matched.clear()
            cset = build_contribution_set(handle, JUNE, truth.roster)
            assert sum(ev.lines_owned for ev in cset.evidence_for("alice")) == 2
            assert not lock_blobs & set(read), "a blob of an excluded path was read"
            work[edits] = (len(read), sum(matched))
        assert work[2] == work[20]

    def test_matcher_lines_independent_of_file_length(self, tmp_path, monkeypatch):
        """A one-line edit hands the matcher the same few lines whatever the
        file's length: the common prefix and suffix never reach it."""
        matched: list[int] = []
        self._count_matched(monkeypatch, matched)
        work = {}
        for size in (100, 10_000):
            script = RepoScript(
                name=f"long-{size}",
                roster_text=ROSTER_TEXT,
                steps=[
                    Step("Alice Lee", "alice@campus.edu", "write",
                         ops=(SetFile("long.py", tuple(f"v{i} = {i}" for i in range(size))),)),
                    Step("Bob Roy", "bob@campus.edu", "edit one line",
                         ops=(Replace("long.py", size // 2, ("v = 'edited'",)),)),
                ],
            )
            handle, truth = synthfix.build(script, tmp_path / f"long-{size}")
            matched.clear()
            cset = build_contribution_set(handle, JUNE, truth.roster)
            assert [ev.lines_owned for ev in cset.evidence_for("bob")] == [1]
            work[size] = sum(matched)
        assert work[100] == work[10_000]
        assert 0 < work[100] <= 4

    @staticmethod
    def _count_matched(monkeypatch, matched: list[int]) -> None:
        """Record the lines each SequenceMatcher built by replay is handed."""

        class CountingMatcher(attribution.SequenceMatcher):
            def __init__(self, isjunk=None, a="", b="", autojunk=True):
                matched.append(len(a) + len(b))
                super().__init__(isjunk, a, b, autojunk)

        monkeypatch.setattr(attribution, "SequenceMatcher", CountingMatcher)


class TestBlobRequests:
    """Replay requests its blobs up front, so writes to `cat-file` grow with
    the request bytes, not with the number of blobs."""

    def test_writes_grow_with_request_bytes(self, tmp_path, monkeypatch):
        files = tuple(f"src/mod_{i}.py" for i in range(5))
        steps = [Step("Alice Lee", "alice@campus.edu", "scaffold",
                      ops=tuple(SetFile(p, ("x = 0",)) for p in files))]
        for n in range(1, 600):
            steps.append(Step("Bob Roy", "bob@campus.edu", f"edit {n}",
                              ops=(Insert(files[n % 5], 1, (f"v_{n} = {n}",)),)))
        handle, truth = synthfix.build(
            RepoScript(name="six-hundred", roster_text=ROSTER_TEXT, steps=steps), tmp_path / "repo"
        )
        stdin_writes: list[int] = []
        reads: list[str] = []

        class CountingOs:
            def __getattr__(self, name):
                return getattr(os, name)

            def write(self, fd, data):
                stdin_writes.append(len(data))
                return os.write(fd, data)

        real_get = gitio.ObjectReader.get

        def counting_get(self, ref):
            reads.append(ref)
            return real_get(self, ref)

        monkeypatch.setattr(gitio, "os", CountingOs())
        monkeypatch.setattr(gitio.ObjectReader, "get", counting_get)
        cset = build_contribution_set(handle, JUNE, truth.roster)
        assert sum(ev.lines_owned for ev in cset.evidence_for("bob")) == 599
        assert len(reads) >= 595
        assert sum(stdin_writes) == 41 * len(reads)  # each read requested once
        assert len(stdin_writes) <= 15


# A small vocabulary, blank and whitespace-only lines included, so edits
# meet many equal lines and the tie rule decides which one an old line is.
_VOCAB = ("", "    ", "x = 1", "return x", "pass", "# note", "    y = 2", "else:", "}", "z = 3")


@st.composite
def _edit_history(draw):
    """(ops, versions, whitespace_only) for one file `f.py`: a first version,
    then one insert, delete, replace or trailing-whitespace rewrite per step."""
    lines = draw(st.lists(st.sampled_from(_VOCAB), max_size=20))
    ops, versions, whitespace_only = [SetFile("f.py", tuple(lines))], [lines], [False]
    for _ in range(draw(st.integers(1, 5))):
        cur = versions[-1]
        kind = draw(st.sampled_from(("insert", "delete", "replace", "whitespace")) if cur
                    else st.just("insert"))
        at = draw(st.integers(1, len(cur) + (kind == "insert")))
        if kind == "insert":
            new = draw(st.lists(st.sampled_from(_VOCAB), min_size=1, max_size=4))
            ops.append(Insert("f.py", at, tuple(new)))
            cur = cur[:at - 1] + new + cur[at - 1:]
        else:
            span = draw(st.integers(1, len(cur) - at + 1))
            if kind == "delete":
                ops.append(Delete("f.py", at, span))
                cur = cur[:at - 1] + cur[at - 1 + span:]
            else:
                if kind == "replace":
                    new = draw(st.lists(st.sampled_from(_VOCAB), min_size=span, max_size=span))
                else:
                    pad = draw(st.sampled_from((" ", "\t", "  ")))
                    new = [l.rstrip() if l != l.rstrip() else l + pad for l in cur[at - 1:at - 1 + span]]
                ops.append(Replace("f.py", at, tuple(new)))
                cur = cur[:at - 1] + new + cur[at - 1 + span:]
        versions.append(cur)
        whitespace_only.append(kind == "whitespace")
    return ops, versions, whitespace_only


def _check_edit(old: list[tuple[str, str]], new: list[str], got: list[tuple[str, str]],
                commit: str, whitespace_only: bool) -> None:
    """The tie rule on one edit, `old` and `got` as (content, owner) lines:
    the common prefix and suffix, compared with trailing whitespace
    stripped, keep their owners; everything else is an old owner or `commit`."""
    assert [content for content, _ in got] == new  # one owner per line, none lost
    a, b = [c.rstrip() for c, _ in old], [c.rstrip() for c in new]
    head = 0
    while head < min(len(a), len(b)) and a[head] == b[head]:
        head += 1
    tail = 0
    while tail < min(len(a), len(b)) - head and a[-1 - tail] == b[-1 - tail]:
        tail += 1
    owners = [owner for _, owner in got]
    before = [owner for _, owner in old]
    assert owners[:head] == before[:head]
    assert owners[len(owners) - tail:] == before[len(before) - tail:]
    assert set(owners) <= set(before) | {commit}
    if whitespace_only:
        assert owners == before


def _step(parent_states: list[dict], lines: list[str], commit: str) -> dict:
    """`attribution._commit_state` for a commit that writes `lines` to
    `f.py`: an add when the first parent lacks the file, else an edit."""
    blob = "".join(f"{line}\n" for line in lines).encode()
    assert metrics_module.text_lines(blob) == lines
    status = "M" if parent_states and "f.py" in parent_states[0] else "A"
    change = gitio.TreeChange(status, "f.py", None, "100644", "100644", "0" * 40, commit)
    return attribution._commit_state(parent_states, [change], commit, {commit: blob}.__getitem__)


class TestTieRule:
    """Repeated lines tie; the common ends of an edit keep their owners, as
    in git's xdiff (`xdl_trim_ends`), and the partition stays exact."""

    @settings(max_examples=500, deadline=None)
    @given(_edit_history())
    def test_line_diff(self, history):
        _, versions, whitespace_only = history
        owned = (versions[0], ["c0"] * len(versions[0]))
        for k, new in enumerate(versions[1:], start=1):
            out = _step([{"f.py": owned}], new, f"c{k}")["f.py"]
            _check_edit(list(zip(*owned)), new, list(zip(*out, strict=True)), f"c{k}",
                        whitespace_only[k])
            owned = out

    @settings(max_examples=200, deadline=None)
    @given(_edit_history())
    def test_merge_with_empty_other_parent_is_one_parent_step(self, history):
        """A one-parent commit is a merge whose other parents hold nothing:
        the root's add and every edit give the same owners both ways."""
        _, versions, _ = history
        state: dict = {}
        for k, lines in enumerate(versions):
            alone = _step([state] if k else [], lines, f"c{k}")
            for others in ([{}], [{}, {"g.py": (lines, ["x"] * len(lines))}]):
                assert _step([state, *others], lines, f"c{k}") == alone, (k, len(others))
            state = alone

    @settings(max_examples=60, deadline=None)
    @given(history=_edit_history())
    def test_replayed_history(self, history, tmp_path_factory):
        ops, versions, whitespace_only = history
        authors = (("Alice Lee", "alice@campus.edu"), ("Bob Roy", "bob@campus.edu"))
        script = RepoScript(
            name="ties",
            roster_text=ROSTER_TEXT,
            steps=[Step(*authors[k % 2], f"step {k}", ops=(op,)) for k, op in enumerate(ops)],
            checkpoints=[(len(ops) - 1, "final")],
        )
        handle, truth = synthfix.build(script, tmp_path_factory.mktemp("ties"))
        blamed = []
        for k in range(len(ops)):
            attrs = blame_snapshot(handle, truth.hash_of(k), truth.roster, excludes=())
            blamed.append([(a.content, a.commit) for a in attrs])
        for k in range(1, len(ops)):
            _check_edit(blamed[k - 1], versions[k], blamed[k], truth.hash_of(k), whitespace_only[k])
        # the partition invariant: every line of the file owned exactly once
        final = truth.expected_lines("final").get("f.py", [])
        assert [content for content, _ in blamed[-1]] == [tl.content for tl in final]


class TestPartitionInvariant:
    def test_standard_fixtures_partition(self, built_fixtures):
        for name, (handle, truth) in built_fixtures.items():
            attrs = blame_snapshot(handle, handle.head_ref, truth.roster, excludes=())
            per_file: dict[str, int] = {}
            for a in attrs:
                per_file[a.path] = per_file.get(a.path, 0) + 1
            want = {
                path: len(lines) for path, lines in truth.expected_lines("final").items()
            }
            assert per_file == want, name


class TestDeterminism:
    def test_contribution_set_serialization_stable(self, built_fixtures):
        handle, truth = built_fixtures["coauthored_commit"]
        options = AttributionOptions()
        first = build_contribution_set(handle, JUNE, truth.roster, options).to_json()
        second = build_contribution_set(handle, JUNE, truth.roster, options).to_json()
        assert first == second


class TestBuildContributionSet:
    def test_zero_commit_student_listed(self, built_fixtures):
        handle, truth = built_fixtures["zero_commit_student"]
        cset = build_contribution_set(handle, JUNE, truth.roster)
        assert [s.id for s in cset.zero_commit_students] == ["carol"]
        # exhaustive over the roster: every student has a per_student entry
        for student in truth.roster.students:
            assert student.id in cset.per_student

    def test_coauthor_split_on_gives_both_evidence(self, built_fixtures):
        handle, truth = built_fixtures["coauthored_commit"]
        cset = build_contribution_set(
            handle, JUNE, truth.roster, AttributionOptions(split_coauthors=True)
        )
        owned = {
            (sid, ev.path): ev.lines_owned
            for sid, rows in cset.per_student.items()
            for ev in rows
            if ev.lines_owned
        }
        assert owned == truth.expected_owned_counts("final", split=True)
        assert owned[("alice", "query.py")] == 5
        assert owned[("bob", "query.py")] == 5

    def test_coauthor_split_off_reproduces_omission(self, built_fixtures):
        handle, truth = built_fixtures["coauthored_commit"]
        cset = build_contribution_set(
            handle, JUNE, truth.roster, AttributionOptions(split_coauthors=False)
        )
        bob_rows = [ev for ev in cset.evidence_for("bob") if ev.lines_owned > 0]
        assert bob_rows == []
        alice = next(ev for ev in cset.evidence_for("alice") if ev.path == "query.py")
        assert alice.lines_owned == 10
        # the co-author gets no message row either, yet counts as active
        assert cset.evidence_for("bob") == []
        assert alice.commit_messages == [
            "build query screen together\n\nCo-authored-by: Bob Roy <bob@campus.edu>"
        ]
        assert cset.zero_commit_students == []

    def test_lines_added_in_window_only_counts_window_commits(self, tmp_path):
        may = datetime(2024, 5, 10, tzinfo=timezone.utc)
        june = datetime(2024, 6, 10, tzinfo=timezone.utc)
        script = RepoScript(
            name="windowed",
            roster_text=ROSTER_TEXT,
            steps=[
                Step(
                    author_name="Alice Lee",
                    author_email="alice@campus.edu",
                    message="may work",
                    date=may,
                    ops=(SetFile("app.py", ("base_one = 1", "base_two = 2")),),
                ),
                Step(
                    author_name="Bob Roy",
                    author_email="bob@campus.edu",
                    message="june work",
                    date=june,
                    ops=(Insert("app.py", 3, ("june_line = 3",)),),
                ),
            ],
        )
        handle, truth = synthfix.build(script, tmp_path / "windowed")
        cset = build_contribution_set(handle, JUNE, truth.roster)
        alice = next(ev for ev in cset.evidence_for("alice") if ev.path == "app.py")
        bob = next(ev for ev in cset.evidence_for("bob") if ev.path == "app.py")
        assert (alice.lines_owned, alice.lines_added_in_window) == (2, 0)
        assert (bob.lines_owned, bob.lines_added_in_window) == (1, 1)
        # alice owns surviving lines but made no window commits
        assert [s.id for s in cset.zero_commit_students] == ["alice", "carol"]

    def test_commit_messages_attached_to_touched_paths(self, built_fixtures):
        handle, truth = built_fixtures["interleaved_edits"]
        cset = build_contribution_set(handle, JUNE, truth.roster)
        bob = next(ev for ev in cset.evidence_for("bob") if ev.path == "parser.py")
        assert bob.commit_messages == ["harden header parsing"]

    def test_solo_functions_detected(self, tmp_path):
        script = RepoScript(
            name="solo",
            roster_text=ROSTER_TEXT,
            steps=[
                Step(
                    author_name="Alice Lee",
                    author_email="alice@campus.edu",
                    message="two functions",
                    ops=(
                        SetFile(
                            "calc.py",
                            (
                                "def first():",
                                "    return 1",
                                "",
                                "",
                                "def second():",
                                "    return 2",
                            ),
                        ),
                    ),
                ),
                Step(
                    author_name="Bob Roy",
                    author_email="bob@campus.edu",
                    message="tweak second",
                    ops=(Replace("calc.py", 6, ("    return 2 + 20",)),),
                ),
            ],
        )
        handle, truth = synthfix.build(script, tmp_path / "solo")
        cset = build_contribution_set(handle, JUNE, truth.roster)
        alice = next(ev for ev in cset.evidence_for("alice") if ev.path == "calc.py")
        assert alice.solo_functions == [("first", 1)]
        bob = next(ev for ev in cset.evidence_for("bob") if ev.path == "calc.py")
        assert bob.solo_functions == []  # second() is mixed-authorship

    def test_comment_only_evidence_flagged(self, tmp_path):
        script = RepoScript(
            name="comments",
            roster_text=ROSTER_TEXT,
            steps=[
                Step(
                    author_name="Alice Lee",
                    author_email="alice@campus.edu",
                    message="real code",
                    ops=(SetFile("logic.py", ("def go():", "    return 1")),),
                ),
                Step(
                    author_name="Bob Roy",
                    author_email="bob@campus.edu",
                    message="add commentary",
                    ops=(Insert("logic.py", 1, ("# this module computes things",)),),
                ),
            ],
        )
        handle, truth = synthfix.build(script, tmp_path / "comments")
        cset = build_contribution_set(handle, JUNE, truth.roster)
        bob = next(ev for ev in cset.evidence_for("bob") if ev.path == "logic.py")
        assert bob.comment_only
        alice = next(ev for ev in cset.evidence_for("alice") if ev.path == "logic.py")
        assert not alice.comment_only

    def test_unmapped_author_aggregated_not_dropped(self, tmp_path):
        script = RepoScript(
            name="botwork",
            roster_text=ROSTER_TEXT,
            steps=[
                Step(
                    author_name="CI Bot",
                    author_email="bot@nowhere.invalid",
                    message="generated scaffolding",
                    ops=(SetFile("scaffold.py", ("auto_one = 1", "auto_two = 2")),),
                )
            ],
        )
        handle, truth = synthfix.build(script, tmp_path / "botwork")
        cset = build_contribution_set(handle, JUNE, truth.roster)
        unmapped = cset.per_student[UNMAPPED.id]
        assert sum(ev.lines_owned for ev in unmapped) == 2


class TestUnmergedBranch:
    def test_branch_lines_absent_by_default(self, built_fixtures):
        handle, truth = built_fixtures["unmerged_branch"]
        attrs = blame_snapshot(handle, handle.head_ref, truth.roster, excludes=())
        assert "cache.py" not in {a.path for a in attrs}

    def test_include_branch_surfaces_extra_lines(self, built_fixtures):
        handle, truth = built_fixtures["unmerged_branch"]
        cset = build_contribution_set(handle, JUNE, truth.roster, branches=("experiment",))
        lines, files = cset.branches["experiment"]
        assert set(files) == {"cache.py"}
        assert [name for name, _ in lines] == [truth.roster.by_id("bob").display_name]


def _ownership_at(root, heads, excludes, max_file_bytes) -> dict:
    """Each head's kept files and skipped paths (`attribution._read_head`)
    and its ownership from one replay of every head (`attribution._replay`),
    on a reader of its own: head -> (kept files, skipped paths, ownership)."""
    blobs: dict = {}
    with gitio.ObjectReader(root) as reader:
        read = {
            at: attribution._read_head(reader, history, at, excludes, max_file_bytes, blobs)
            for history, at in heads
        }
        states = attribution._replay(
            reader, {at: history.ancestors(at) for history, at in heads},
            {at: kept for at, (kept, _) in read.items()}, blobs,
        )
    return {at: (*read[at], states[at]) for at in read}


class TestBranchReplay:
    """One replay serves every head of a team: each head comes out as if
    replayed alone, and a commit the heads share is replayed once."""

    def test_each_head_as_replayed_alone(self, branch_repos):
        ancestor_cases = 0
        for seed, (handle, truth, feature) in enumerate(branch_repos):
            main = handle.history
            heads = [(main, main.window_head(JUNE)), (feature, feature.window_head(JUNE))]
            together = _ownership_at(
                handle.root_path, heads, DEFAULT_EXCLUDE_GLOBS, MAX_BLAME_FILE_BYTES
            )
            for history, at in heads:
                kept, skipped, state = _ownership_at(
                    handle.root_path, [(history, at)], DEFAULT_EXCLUDE_GLOBS, MAX_BLAME_FILE_BYTES
                )[at]
                assert together[at][:2] == (kept, skipped), f"seed {seed}"
                assert {p: together[at][2][p] for p in kept} == {p: state[p] for p in kept}
            ancestor_cases += heads[0][1] in feature.ancestors(heads[1][1]).by_sha

            kept, _, state = together[heads[1][1]]
            lines = {path: list(zip(*state[path])) for path in kept}
            assert lines == _truth_map(truth, "branch"), f"seed {seed}"
            owners = [sha for path in kept for sha in state[path][1]]
            credits = attribution._credit_lists(
                (feature.by_sha[sha] for sha in owners), truth.roster
            )
            owned = Counter(
                (credits[sha][0].id, path) for path in kept for sha in state[path][1]
            )
            assert owned == truth.expected_owned_counts("branch"), f"seed {seed}"
        assert ancestor_cases >= 6  # main's head is an ancestor of the branch head

    def test_shared_commits_replayed_once(self, branch_repos, monkeypatch):
        replayed: list[str] = []
        readers: list[str] = []
        real_step = attribution._commit_state
        real_reader = gitio.ObjectReader.__init__

        def counting_step(parents, changes, commit, read):
            replayed.append(commit)
            return real_step(parents, changes, commit, read)

        def counting_reader(self, root):
            readers.append(root)
            real_reader(self, root)

        monkeypatch.setattr(attribution, "_commit_state", counting_step)
        monkeypatch.setattr(gitio.ObjectReader, "__init__", counting_reader)
        for seed, (handle, truth, feature) in enumerate(branch_repos):
            replayed.clear()
            readers.clear()
            cset = build_contribution_set(handle, JUNE, truth.roster, branches=("feature",))
            main = handle.history
            union = set(main.ancestors(main.window_head(JUNE)).by_sha)
            union |= set(feature.ancestors(feature.window_head(JUNE)).by_sha)
            assert sorted(replayed) == sorted(union), f"seed {seed}"
            assert len(readers) == 1

            # the section: lines at the branch head that main never saw
            names = Counter()
            files = set()
            for path, truth_lines in truth.expected_lines("branch").items():
                for line in truth_lines:
                    if line.step not in truth.main_steps:
                        student = truth.roster.by_id(truth.credit_list(line.step, False)[0])
                        names[(student or UNMAPPED).display_name] += 1
                        files.add(path)
            assert cset.branches["feature"] == (
                tuple(sorted(names.items())), tuple(sorted(files))
            ), f"seed {seed}"
