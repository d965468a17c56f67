"""The one-stream history reader against a per-commit reference, git errors
and the streamed blob reader."""

from __future__ import annotations

import subprocess
import time
from datetime import datetime, timezone

import pytest

from conftest import hang_cat_file, random_script
from contribsum import gitio, synthfix
from contribsum.errors import GitError, UnknownCommit
from contribsum.gitio import Commit, TreeChange


def _git(root: str, *args: str) -> bytes:
    return subprocess.run(["git", "-C", root, *args], capture_output=True, check=True).stdout


def _reference_changes(root: str, commit: str, parent: str | None) -> tuple[TreeChange, ...]:
    """`git diff-tree` of one commit against its first parent (or the empty tree)."""
    against = [parent, commit] if parent else ["--root", commit]
    fields = _git(root, "diff-tree", "-r", "-z", "-M50%", "--no-commit-id", *against).split(b"\0")
    changes = []
    i = 0
    while i < len(fields) and fields[i]:
        old_mode, new_mode, old_blob, new_blob, status = fields[i].decode().lstrip(":").split()
        modes_blobs = (old_mode, new_mode, old_blob, new_blob)
        if status[0] in ("R", "C"):
            old_path, path = fields[i + 1].decode(), fields[i + 2].decode()
            changes.append(TreeChange("R", path, old_path, *modes_blobs))
            i += 3
        else:
            kind = status[0] if status[0] in ("A", "M", "D") else "M"
            changes.append(TreeChange(kind, fields[i + 1].decode(), None, *modes_blobs))
            i += 2
    return tuple(changes)


def _reference_log(root: str, tip: str) -> list[Commit]:
    """`rev-list` + `cat-file commit` + one `diff-tree` per commit."""
    commits = []
    for sha in _git(root, "rev-list", "--topo-order", "--reverse", tip).decode().split():
        header, _, message = _git(root, "cat-file", "commit", sha).decode().partition("\n\n")
        parents = []
        author = ""
        for line in header.splitlines():
            if line.startswith("parent "):
                parents.append(line[len("parent "):])
            elif line.startswith("author "):
                author = line[len("author "):]
        name, _, rest = author.rpartition(" <")
        email, _, stamp = rest.partition("> ")
        commits.append(
            Commit(
                hash=sha,
                parents=tuple(parents),
                author_name=name,
                author_email=email,
                authored_at=datetime.fromtimestamp(int(stamp.split()[0]), tz=timezone.utc),
                message=message,
                changes=_reference_changes(root, sha, parents[0] if parents else None),
            )
        )
    return commits


def _tips(root: str) -> list[str]:
    return _git(root, "for-each-ref", "--format=%(refname)", "refs/heads").decode().split()


class TestLogEquivalence:
    def test_standard_fixtures(self, built_fixtures):
        for name, (handle, _) in built_fixtures.items():
            for tip in _tips(handle.root_path):
                assert gitio.log(handle.root_path, tip) == _reference_log(
                    handle.root_path, tip
                ), f"{name}:{tip}"

    def test_random_histories(self, tmp_path):
        for seed in range(24):
            handle, _ = synthfix.build(random_script(seed), tmp_path / f"r{seed}")
            for tip in _tips(handle.root_path):
                assert gitio.log(handle.root_path, tip) == _reference_log(
                    handle.root_path, tip
                ), f"seed {seed}:{tip}"

    def test_changes_cover_root_and_merge(self, built_fixtures):
        handle, _ = built_fixtures["merged_branch"]
        commits = gitio.log(handle.root_path, handle.head_ref)
        assert commits[0].parents == () and commits[0].changes
        merge = next(c for c in commits if c.is_merge)
        assert [c.path for c in merge.changes] == ["pages.html"]


class TestLogErrors:
    def test_unknown_tip(self, built_fixtures):
        handle, _ = built_fixtures["sole_author"]
        for tip in ("0" * 40, "refs/heads/no-such-branch", "--all"):
            with pytest.raises(UnknownCommit):
                gitio.log(handle.root_path, tip)

    def test_blob_tip(self, built_fixtures):
        handle, _ = built_fixtures["sole_author"]
        blob = _git(handle.root_path, "rev-parse", f"{handle.head_ref}:app.py").decode().strip()
        with pytest.raises(UnknownCommit):
            gitio.log(handle.root_path, blob)


class TestGitErrors:
    def test_failed_command_raises_git_error(self, built_fixtures):
        handle, _ = built_fixtures["sole_author"]
        with pytest.raises(GitError) as err:
            gitio.git(handle.root_path, "cat-file", "-t", "0" * 40)
        assert handle.root_path in str(err.value)
        assert gitio.git(handle.root_path, "cat-file", "-t", "0" * 40, check=False) is None

    def test_dead_reader_names_repository(self, built_fixtures):
        handle, _ = built_fixtures["sole_author"]
        blob = handle.history.commits[0].changes[0].new_blob
        reader = gitio.ObjectReader(handle.root_path)
        assert reader.blob(blob)
        reader._proc.kill()
        reader._proc.wait()
        with pytest.raises(GitError) as err:
            reader.blob(blob)
        assert handle.root_path in str(err.value)
        reader.close()


def _blob_repo(tmp_path, sizes: tuple[int, ...]) -> tuple[str, list[tuple[str, bytes]]]:
    """A one-commit repo plus loose blobs of the given sizes: (root, [(sha, content)])."""
    handle, _ = synthfix.build(
        synthfix.RepoScript(
            name="blobs",
            roster_text="",
            steps=[synthfix.Step("Alice Lee", "alice@campus.edu", "start",
                                 ops=(synthfix.SetFile("a.py", ("x = 1",)),))],
        ),
        tmp_path / "repo",
    )
    root = handle.root_path
    blobs = []
    for n, size in enumerate(sizes):
        content = (f"{n:04d}" * size)[:size].encode()
        sha = subprocess.run(
            ["git", "-C", root, "hash-object", "-w", "--stdin"],
            input=content, capture_output=True, check=True,
        ).stdout.decode().strip()
        blobs.append((sha, content))
    return root, blobs


def _closes_quickly(reader: gitio.ObjectReader) -> float:
    start = time.monotonic()
    reader.close()
    return time.monotonic() - start


class TestStreamedReader:
    """Requests written ahead and answers read back in order, and the ways
    that can fail."""

    def test_requested_reads_equal_single_reads(self, tmp_path):
        root, blobs = _blob_repo(tmp_path, (10, 0, 70_000, 3, 5_000) * 60)
        with gitio.ObjectReader(root) as reader:
            reader.request(sha for sha, _ in blobs)
            assert [reader.get(sha) for sha, _ in blobs] == [("blob", c) for _, c in blobs]
        with gitio.ObjectReader(root) as reader:  # nothing requested: one write per read
            assert [reader.blob(sha) for sha, _ in blobs[:5]] == [c for _, c in blobs[:5]]

    def test_read_out_of_order_drops_the_rest(self, tmp_path):
        root, blobs = _blob_repo(tmp_path, (10, 20, 30, 40))
        (a, a_bytes), (b, b_bytes), (c, c_bytes), (d, d_bytes) = blobs
        with gitio.ObjectReader(root) as reader:
            reader.request([a, b, c])
            assert reader.blob(a) == a_bytes
            assert reader.blob(c) == c_bytes  # b's answer is read and dropped
            assert reader.blob(d) == d_bytes  # never requested
            assert reader.blob(b) == b_bytes

    def test_missing_blob_mid_batch(self, tmp_path):
        root, blobs = _blob_repo(tmp_path, (10, 100_000, 100_000, 100_000))
        missing = "1" * 40
        reader = gitio.ObjectReader(root)
        reader.request([blobs[0][0], missing, *(sha for sha, _ in blobs[1:])])
        assert reader.blob(blobs[0][0]) == blobs[0][1]
        with pytest.raises(UnknownCommit) as err:
            reader.blob(missing)
        assert missing in str(err.value)
        # 300 kB of answers unread: more than the stdout pipe holds
        assert _closes_quickly(reader) < 1.0

    def test_non_blob_answer(self, tmp_path):
        root, blobs = _blob_repo(tmp_path, (100_000, 100_000))
        head = _git(root, "rev-parse", "HEAD").decode().strip()
        reader = gitio.ObjectReader(root)
        reader.request([head, *(sha for sha, _ in blobs)])
        with pytest.raises(UnknownCommit) as err:
            reader.blob(head)
        assert head in str(err.value)
        assert _closes_quickly(reader) < 1.0

    def test_silent_cat_file_times_out(self, tmp_path, monkeypatch):
        root, blobs = _blob_repo(tmp_path, (10, 20))
        hang_cat_file(tmp_path, monkeypatch, root)
        reader = gitio.ObjectReader(root)
        reader.request(sha for sha, _ in blobs)
        start = time.monotonic()
        with pytest.raises(GitError) as err:
            reader.blob(blobs[0][0])
        assert time.monotonic() - start < 5.0
        assert "git cat-file" in str(err.value) and root in str(err.value)
        assert _closes_quickly(reader) < 1.0
        assert _closes_quickly(gitio.ObjectReader(root)) < 1.0  # never asked anything

    def test_hung_command_raises_git_error(self, tmp_path, monkeypatch):
        root, _ = _blob_repo(tmp_path, ())
        hang_cat_file(tmp_path, monkeypatch, root)
        with pytest.raises(GitError) as err:
            gitio.git(root, "cat-file", "--batch-all-objects", "--batch-check")
        assert "git cat-file" in str(err.value) and root in str(err.value)
