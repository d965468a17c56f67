"""Shared fixtures: built standard repos, windows, random history scripts."""

from __future__ import annotations

import dataclasses
import os
import random
import shlex
import shutil
import sqlite3
import subprocess
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest

from contribsum.ingest import AnalysisWindow
from contribsum import gitio, ingest, synthfix
from contribsum.agents import chain
from contribsum.store import DB_NAME, CostLedger, Store
from contribsum.synthfix import (
    Delete,
    Insert,
    Rename,
    Remove,
    RepoScript,
    Replace,
    SetFile,
    Step,
)

JUNE = AnalysisWindow(
    start=datetime(2024, 6, 1, tzinfo=timezone.utc),
    end=datetime(2024, 7, 1, tzinfo=timezone.utc),
    label="week-1",
)

# JSON nested past the interpreter's recursion limit
NESTED = b"[" * 100_000 + b"]" * 100_000


def store_rows(directory) -> dict[str, object]:
    """Every row of the `Store` database in `directory`, key -> body, read
    past the store's API; {} when there is no database."""
    path = Path(directory) / DB_NAME
    if not path.exists():
        return {}
    db = sqlite3.connect(path)
    try:
        return dict(db.execute("SELECT key, body FROM entries"))
    finally:
        db.close()


def set_store_row(directory, key: str, body) -> None:
    """Write one row of the `Store` database in `directory` past the store's
    API: text as TEXT, bytes as a BLOB."""
    db = sqlite3.connect(Path(directory) / DB_NAME, isolation_level=None)
    try:
        db.execute("INSERT OR REPLACE INTO entries (key, body) VALUES (?, ?)", (key, body))
    finally:
        db.close()



class Recorder:
    """A provider that keeps every request it sends on to `inner`, for tests
    to read: `calls` holds one `{"model", "messages"}` dict per send."""

    def __init__(self, inner):
        self.inner = inner
        self.calls: list[dict] = []

    def send(self, messages: list[dict], model_id: str):
        self.calls.append({"model": model_id, "messages": messages})
        return self.inner.send(messages, model_id)


class HalfWriter:
    """A file that takes half of what it is given, then fails as a full disk does."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[: len(data) // 2])
        self.fh.flush()
        raise OSError(28, "No space left on device")


def write_file_layout(directory, rows: dict[str, str]) -> None:
    """Write `rows`, key -> body, as a release before the `Store` database
    kept them: one file each at `<key[:2]>/<key[2:]>.json`, beside a temp
    file that a killed write left."""
    for key, body in rows.items():
        path = Path(directory) / key[:2] / f"{key[2:]}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(body, encoding="utf-8")
        (path.parent / f".{path.name}.123.456.tmp").write_text(body[:10], encoding="utf-8")


@pytest.fixture(autouse=True)
def _isolated_env(monkeypatch):
    # stray state/credentials in the environment must never steer tests
    monkeypatch.delenv("CONTRIBSUM_STATE", raising=False)
    monkeypatch.delenv("LLM_API_KEY", raising=False)


@pytest.fixture
def june_window() -> AnalysisWindow:
    return JUNE


@pytest.fixture
def pool(tmp_path_factory):
    """`pool(provider, store=None, ledger=None)`: a send pool over them for
    `chain.fill_tables` and `chain.synthesize`, as a run has, with a fresh
    `Store` and `CostLedger` for each one not given. Each pool is shut down
    after the test, and each store it made closed."""
    pools: list[chain.SendPool] = []
    stores: list[Store] = []

    def make(provider, store=None, ledger=None) -> chain.SendPool:
        if store is None:
            store = Store(tmp_path_factory.mktemp("pool-store"))
            stores.append(store)
        ledger = CostLedger() if ledger is None else ledger
        pools.append(chain.SendPool(2, provider, store, ledger))
        return pools[-1]

    yield make
    for sends in pools:
        sends.shutdown()
    for store in stores:
        store.close()


def tree_files(handle, at: str) -> list[tuple[str, bytes]]:
    """(path, content) of every blob in commit `at`'s tree, bytewise path
    order: `git ls-tree` plus one `git cat-file --batch`, a reader
    independent of blame replay."""
    root = handle.root_path
    listing = subprocess.run(
        ["git", "-C", root, "ls-tree", "-r", "-z", at], capture_output=True, check=True
    ).stdout
    entries = []
    for record in listing.split(b"\0"):
        if not record:
            continue
        meta, _, path = record.partition(b"\t")
        _mode, kind, sha = meta.decode().split()
        if kind == "blob":
            entries.append((path.decode("utf-8", "replace"), sha))
    entries.sort(key=lambda e: e[0].encode("utf-8", "replace"))
    batch = subprocess.run(
        ["git", "-C", root, "cat-file", "--batch"],
        input="".join(sha + "\n" for _, sha in entries).encode(),
        capture_output=True,
        check=True,
    ).stdout
    files = []
    pos = 0
    for path, _ in entries:
        header_end = batch.index(b"\n", pos)
        size = int(batch[pos:header_end].split()[2])
        files.append((path, batch[header_end + 1:header_end + 1 + size]))
        pos = header_end + 2 + size  # payload and its trailing newline
    return files


@pytest.fixture(scope="session")
def built_fixtures(tmp_path_factory):
    """Every standard fixture built once per session: name -> (handle, truth)."""
    root = tmp_path_factory.mktemp("fixture-repos")
    built = {}
    for name in synthfix.STANDARD_FIXTURES:
        built[name] = synthfix.build_standard_fixture(name, root / name)
    return built


ROSTER_TEXT = (
    "alice | Alice Lee | alice@campus.edu\n"
    "bob | Bob Roy | bob@campus.edu\n"
    "carol | Carol Weiss | carol@campus.edu\n"
)

_AUTHORS = (
    ("Alice Lee", "alice@campus.edu"),
    ("Bob Roy", "bob@campus.edu"),
    ("Carol Weiss", "carol@campus.edu"),
)
_UNKNOWN = ("CI Bot", "bot@nowhere.invalid")


def with_tree_entries(tmp_path, *entries: tuple[str, str, str | bytes]) -> str:
    """Root of a two-file repo by Alice plus `commit_tree_entries(entries)`."""
    script = RepoScript(
        name="entry",
        roster_text=ROSTER_TEXT,
        steps=[Step(*_AUTHORS[0], message="start",
                    ops=(SetFile("ok.py", ("x = 1",)), SetFile("app.py", ("y = 2",))))],
    )
    handle, _ = synthfix.build(script, tmp_path / "repo")
    commit_tree_entries(handle.root_path, tmp_path / "entry.index", *entries)
    return handle.root_path


def commit_tree_entries(
    root: str, index, *entries: tuple[str, str, str | bytes], date: str = "2024-06-20T12:00:00+00:00",
    branch: str = "main",
) -> None:
    """On `refs/heads/<branch>` of `root`, one commit by Bob at `date` per raw
    tree entry (mode, path, object): an object id, or bytes written as a
    blob first. `index` is a scratch index file."""
    env = {
        **os.environ,
        "GIT_INDEX_FILE": str(index),
        "GIT_AUTHOR_NAME": _AUTHORS[1][0],
        "GIT_AUTHOR_EMAIL": _AUTHORS[1][1],
        "GIT_AUTHOR_DATE": date,
        "GIT_COMMITTER_NAME": _AUTHORS[1][0],
        "GIT_COMMITTER_EMAIL": _AUTHORS[1][1],
        "GIT_COMMITTER_DATE": date,
    }

    def git(*args: str, stdin: bytes = b"") -> str:
        out = subprocess.run(
            ["git", "-C", root, *args], env=env, input=stdin, capture_output=True, check=True
        ).stdout
        return out.decode().strip()

    for mode, path, obj in entries:
        if isinstance(obj, bytes):
            obj = git("hash-object", "-w", "--stdin", stdin=obj)
        git("read-tree", f"refs/heads/{branch}")
        git("update-index", "--add", "--cacheinfo", f"{mode},{obj},{path}")
        commit = git("commit-tree", git("write-tree"), "-p", f"refs/heads/{branch}", "-m", path)
        git("update-ref", f"refs/heads/{branch}", commit)


def hang_cat_file(tmp_path, monkeypatch, root: str, timeout: float = 0.5) -> None:
    """Put a fake `git` first on PATH: `git -C <root> cat-file ...` sleeps
    without a word, every other command runs the real git. `gitio`'s
    timeout drops to `timeout` seconds."""
    real_git = shutil.which("git")
    assert real_git is not None
    bin_dir = tmp_path / "fake-bin"
    bin_dir.mkdir()
    fake = bin_dir / "git"
    fake.write_text(
        "#!/bin/sh\n"
        f'if [ "$1" = -C ] && [ "$2" = {shlex.quote(root)} ] && [ "$3" = cat-file ]; then\n'
        "    exec sleep 60\n"
        "fi\n"
        f'exec {shlex.quote(real_git)} "$@"\n',
        encoding="utf-8",
    )
    fake.chmod(0o755)
    monkeypatch.setenv("PATH", f"{bin_dir}{os.pathsep}{os.environ.get('PATH', '')}")
    monkeypatch.setattr(gitio, "_GIT_TIMEOUT", timeout)


def random_script(seed: int) -> RepoScript:
    """Random but always-legal history: unique line content avoids diff
    ambiguity, side branches touch only their own files so merges stay
    clean. Used for partition-invariant property runs."""
    rng = random.Random(seed)
    counter = 0

    def fresh_lines(n: int) -> tuple[str, ...]:
        nonlocal counter
        lines = []
        for _ in range(n):
            counter += 1
            lines.append(f"line_{seed}_{counter} = {counter}")
        return tuple(lines)

    def signature():
        if rng.random() < 0.10:
            return _UNKNOWN
        return rng.choice(_AUTHORS)

    steps: list[Step] = []
    files: dict[str, int] = {}  # main-branch file -> line count
    when = datetime(2024, 6, 2, 8, 0, tzinfo=timezone.utc)

    def next_date() -> datetime:
        nonlocal when
        when += timedelta(hours=1)
        return when

    def random_ops() -> list:
        ops = []
        for _ in range(rng.randint(1, 3)):
            choices = ["new"]
            if files:
                choices += ["insert", "replace", "whitespace"]
                if any(n >= 2 for n in files.values()):
                    choices.append("delete")
                if len(files) > 1 and rng.random() < 0.2:
                    choices.append("remove")
                if rng.random() < 0.15:
                    choices.append("rename")
            kind = rng.choice(choices)
            if kind == "new":
                counter_name = f"src/mod_{seed}_{len(files)}_{rng.randint(0, 999)}.py"
                if counter_name in files:
                    continue
                lines = fresh_lines(rng.randint(1, 6))
                files[counter_name] = len(lines)
                ops.append(SetFile(counter_name, lines))
            elif kind == "insert":
                path = rng.choice(sorted(files))
                lines = fresh_lines(rng.randint(1, 3))
                at = rng.randint(1, files[path] + 1)
                files[path] += len(lines)
                ops.append(Insert(path, at, lines))
            elif kind == "replace":
                path = rng.choice(sorted(p for p in files if files[p] >= 1))
                count = rng.randint(1, min(2, files[path]))
                at = rng.randint(1, files[path] - count + 1)
                ops.append(Replace(path, at, fresh_lines(count)))
            elif kind == "whitespace":
                # whitespace-only rewrite; needs the current content, which the
                # generator does not track, so emulate by replacing with a
                # fresh line then re-replacing with its padded twin
                path = rng.choice(sorted(files))
                at = rng.randint(1, files[path])
                base = fresh_lines(1)[0]
                ops.append(Replace(path, at, (base,)))
                ops.append(Replace(path, at, (base + "   ",)))
            elif kind == "delete":
                path = rng.choice(sorted(p for p in files if files[p] >= 2))
                count = rng.randint(1, min(2, files[path] - 1))
                at = rng.randint(1, files[path] - count + 1)
                files[path] -= count
                ops.append(Delete(path, at, count))
            elif kind == "rename":
                path = rng.choice(sorted(files))
                new = f"renamed/{path.rsplit('/', 1)[-1]}"
                if new in files:
                    continue
                files[new] = files.pop(path)
                ops.append(Rename(path, new))
            elif kind == "remove":
                path = rng.choice(sorted(files))
                del files[path]
                ops.append(Remove(path))
        return ops

    def make_step(**kwargs) -> Step:
        name, email = signature()
        coauthors = ()
        if rng.random() < 0.2:
            other = rng.choice([a for a in _AUTHORS if a[1] != email])
            coauthors = (other,)
        return Step(
            author_name=name,
            author_email=email,
            message=f"step {len(steps)} work",
            date=next_date(),
            coauthors=coauthors,
            **kwargs,
        )

    for _ in range(rng.randint(2, 5)):
        steps.append(make_step(ops=tuple(random_ops())))

    if rng.random() < 0.4:
        # side branch touching only its own files, then a clean merge
        side_file = f"side/branch_{seed}.py"
        steps.append(
            make_step(create_branch="side", ops=(SetFile(side_file, fresh_lines(rng.randint(1, 4))),))
        )
        steps.append(make_step(checkout="main", ops=tuple(random_ops())))
        name, email = rng.choice(_AUTHORS)
        steps.append(
            Step(
                author_name=name,
                author_email=email,
                message="merge side work",
                date=next_date(),
                merge="side",
            )
        )
        files[side_file] = 1  # present on main after the merge

    script = RepoScript(
        name=f"random-{seed}", roster_text=ROSTER_TEXT, steps=steps
    )
    script.checkpoints.append((len(steps) - 1, "final"))
    return script


@pytest.fixture(scope="session")
def branch_repos(tmp_path_factory):
    """(handle, truth, feature branch History) of 24 `random_branch_script` seeds."""
    root = tmp_path_factory.mktemp("branch-repos")
    built = []
    for seed in range(24):
        handle, truth = synthfix.build(random_branch_script(seed), root / f"b{seed}")
        feature = ingest.History(gitio.log(handle.root_path, handle.tips["feature"]))
        built.append((handle, truth, feature))
    return built


def random_branch_script(seed: int) -> RepoScript:
    """`random_script(seed)` with an unmerged `feature` branch forked after a
    random step that leaves `main` checked out. Checkpoint "final" stays at
    main's head and checkpoint "branch" marks the branch head. On every
    fourth seed the fork follows main's last step, so main's head is an
    ancestor of the branch head.

    The branch's one to four steps insert, replace and delete lines of
    main's files, rename files and add files of their own, all with lines
    no other step wrote.
    """
    script = random_script(seed)
    rng = random.Random(20_000 + seed)
    forks = []
    current = "main"
    for index, step in enumerate(script.steps):
        current = step.create_branch or step.checkout or current
        if current == "main":
            forks.append(index)
    fork = forks[-1] if seed % 4 == 0 else rng.choice(forks)
    prefix = RepoScript("prefix", ROSTER_TEXT, script.steps[:fork + 1], [(fork, "fork")])
    at_fork = synthfix.replay_truth(prefix).expected_lines("fork")
    files = {path: len(lines) for path, lines in at_fork.items()}  # path -> line count
    counter = 0
    names: list[str] = []  # branch paths handed out

    def fresh(n: int) -> tuple[str, ...]:
        nonlocal counter
        counter += n
        return tuple(f"branch_{seed}_{k} = {k}" for k in range(counter - n + 1, counter + 1))

    def op(kind: str):
        path = rng.choice(sorted(files)) if files else ""
        if kind == "insert" and files:
            lines = fresh(rng.randint(1, 3))
            at = rng.randint(1, files[path] + 1)
            files[path] += len(lines)
            return Insert(path, at, lines)
        if kind == "replace" and files:
            return Replace(path, rng.randint(1, files[path]), fresh(1))
        if kind == "delete" and files.get(path, 0) >= 2:
            files[path] -= 1
            return Delete(path, rng.randint(1, files[path] + 1), 1)
        new = f"feature/file_{len(names)}.py"
        names.append(new)
        if kind == "rename" and files:
            files[new] = files.pop(path)
            return Rename(path, new)
        lines = fresh(rng.randint(1, 4))
        files[new] = len(lines)
        return SetFile(new, lines)

    def ops() -> tuple:
        # a rename is a step of its own, so git sees the unchanged content move
        if rng.random() < 0.2:
            return (op("rename"),)
        return tuple(
            op(rng.choice(("new", "insert", "replace", "delete")))
            for _ in range(rng.randint(1, 3))
        )

    when = script.steps[fork].date
    branch = []
    for n in range(rng.randint(1, 4)):
        name, email = _UNKNOWN if rng.random() < 0.1 else rng.choice(_AUTHORS)
        branch.append(
            Step(name, email, f"feature {n}", date=when + timedelta(minutes=n + 1),
                 create_branch="feature" if n == 0 else None,
                 ops=ops())
        )
    rest = script.steps[fork + 1:]
    if rest:
        rest[0] = dataclasses.replace(rest[0], checkout=rest[0].checkout or "main")
    script.steps = [*script.steps[:fork + 1], *branch, *rest]
    final = len(script.steps) - 1 if rest else fork
    script.checkpoints = [(final, "final"), (fork + len(branch), "branch")]
    script.name = f"branch-{seed}"
    return script


PRUNE_MAX_FILE_BYTES = 1000  # the size limit random_pruning_script is built around


def random_pruning_script(seed: int) -> RepoScript:
    """`random_script(seed)` followed by the paths that pruned blame replay
    must get right, their steps interleaved in a seeded random order:

    * `vendor/` files and a `package-lock.json` a bot edits;
    * renames from an excluded path to a kept one and back, and a
      deleted path that a rename later fills again;
    * a merged side branch that renames a vendored file into a kept path;
    * one file over PRUNE_MAX_FILE_BYTES mid-history but small at the
      head, one the other way round, and a binary file.
    """
    script = random_script(seed)
    rng = random.Random(10_000 + seed)
    counter = 0
    sizes: dict[str, int] = {}

    def fresh(n: int) -> tuple[str, ...]:
        nonlocal counter
        lines = []
        for _ in range(n):
            counter += 1
            lines.append(f"pruned_{seed}_{counter} = {counter}  # padding to about 40 bytes")
        return tuple(lines)

    def set_file(path: str, n: int) -> SetFile:
        sizes[path] = n
        return SetFile(path, fresh(n))

    def insert(path: str, n: int) -> Insert:
        at = rng.randint(1, sizes[path] + 1)
        sizes[path] += n
        return Insert(path, at, fresh(n))

    def replace(path: str) -> Replace:
        return Replace(path, rng.randint(1, sizes[path]), fresh(1))

    def delete(path: str, count: int) -> Delete:
        at = rng.randint(1, sizes[path] - count + 1)
        sizes[path] -= count
        return Delete(path, at, count)

    def rename(old: str, new: str) -> Rename:
        sizes[new] = sizes.pop(old)
        return Rename(old, new)

    # each feature is a list of units; a unit is a run of steps kept
    # together, each step given as (step options, ops factory)
    def one(factory) -> list:
        return [({}, factory)]

    features = [
        [  # excluded -> kept
            one(lambda: (set_file("vendor/widget.py", rng.randint(2, 6)),)),
            one(lambda: (insert("vendor/widget.py", rng.randint(1, 3)),)),
            one(lambda: (rename("vendor/widget.py", "app/widget.py"),)),
            one(lambda: (insert("app/widget.py", rng.randint(1, 2)),)),
        ],
        [  # kept -> excluded, then renamed back into the path it left
            one(lambda: (set_file("app/tool.py", rng.randint(2, 6)),)),
            one(lambda: (replace("app/tool.py"),)),
            one(lambda: (rename("app/tool.py", "vendor/tool.py"),)),
            one(lambda: (insert("vendor/tool.py", rng.randint(1, 3)),)),
            one(lambda: (rename("vendor/tool.py", "app/tool.py"),)),
        ],
        [  # a deleted path later filled by a rename from an excluded path
            one(lambda: (set_file("app/gone.py", rng.randint(2, 5)),)),
            one(lambda: (Remove("app/gone.py"),)),
            one(lambda: (set_file("dist/bundle.py", rng.randint(2, 5)),)),
            one(lambda: (replace("dist/bundle.py"),)),
            one(lambda: (rename("dist/bundle.py", "app/gone.py"),)),
        ],
        [  # generated files that stay excluded
            one(lambda: (set_file("package-lock.json", rng.randint(5, 15)),)),
            one(lambda: (replace("package-lock.json"), insert("package-lock.json", 2))),
            one(lambda: (set_file("vendor/keep.js", rng.randint(1, 4)),)),
            one(lambda: (replace("package-lock.json"), insert("vendor/keep.js", 1))),
        ],
        [  # over the size limit mid-history, small at the head
            one(lambda: (set_file("app/shrinks.py", rng.randint(2, 5)),)),
            one(lambda: (insert("app/shrinks.py", 40),)),
            one(lambda: (replace("app/shrinks.py"),)),
            one(lambda: (delete("app/shrinks.py", 38),)),
        ],
        [  # small mid-history, over the size limit at the head
            one(lambda: (set_file("app/grows.py", rng.randint(2, 5)),)),
            one(lambda: (replace("app/grows.py"),)),
            one(lambda: (insert("app/grows.py", 40),)),
        ],
        [  # binary content
            one(lambda: (SetFile("assets/logo.bin", (f"\x00\x01{seed}binary",)),)),
            one(lambda: (Replace("assets/logo.bin", 1, (f"\x00\x02{seed}binary",)),)),
        ],
        [  # a side branch renames a vendored file into a kept path, then merges
            one(lambda: (set_file("vendor/shared.js", rng.randint(2, 4)),)),
            [
                (
                    {"create_branch": "topic"},
                    lambda: (
                        rename("vendor/shared.js", "app/shared.js"),
                        set_file("app/topic.py", rng.randint(1, 4)),
                    ),
                ),
                ({}, lambda: (insert("app/topic.py", 1),)),
                ({"checkout": "main"}, lambda: (set_file("app/mainline.py", rng.randint(1, 3)),)),
                ({"merge": "topic"}, lambda: ()),
            ],
        ],
    ]

    when = script.steps[-1].date
    pending = features
    while pending:
        feature = rng.choice(pending)
        for options, factory in feature.pop(0):
            when += timedelta(hours=1)
            name, email = _UNKNOWN if rng.random() < 0.1 else rng.choice(_AUTHORS)
            script.steps.append(
                Step(
                    author_name=name,
                    author_email=email,
                    message=f"step {len(script.steps)} work",
                    date=when,
                    ops=factory(),
                    **options,
                )
            )
        if not feature:
            pending.remove(feature)
    script.name = f"pruning-{seed}"
    script.checkpoints = [(len(script.steps) - 1, "final")]
    return script
