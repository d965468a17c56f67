"""Seeded course histories for the benchmark, written as synthfix scripts.

Every generated line carries a serial number, so no two lines of a
repository are alike and the line-level replay oracle is exact. Branches
only touch files they created themselves, so every merge is clean. The
last step of every script is on `main` and carries the checkpoint the
oracle reads, which is the window head of the analysed week.

A history's shape (who edits which file, how, and when) comes from a
random stream fixed per workload and team; the seed picks the text of
every line, file name and message. So every seed gives the program the
same amount of work and the same cache misses, and the spread between
runs measures the machine rather than the draw of the input.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone

from contribsum.synthfix import Delete, Insert, Rename, RepoScript, Replace, SetFile, Step

SPRINT_START = datetime(2024, 1, 8, 9, 0, tzinfo=timezone.utc)
CHECKPOINT = "window-head"
LOCKFILE = "package-lock.json"
LOCKFILE_EDIT = 200  # lines replaced per lockfile edit
LOCKFILE_EVERY = 40  # main commits between lockfile edits
STUDENTS = (
    ("ana", "Ana Ruiz"),
    ("ben", "Ben Okafor"),
    ("chloe", "Chloe Park"),
    ("dev", "Dev Malhotra"),
)
AUTHOR_WEIGHTS = (4, 3, 2, 2)  # students contribute unevenly
BOT = ("deps-bot", "deps-bot@ci.invalid")  # edits the lockfile; deliberately not on the roster
WORDS = (
    "login", "route", "query", "cache", "token", "plot",
    "parse", "render", "score", "upload", "search", "export",
)


@dataclass(frozen=True)
class TeamShape:
    commits: int  # non-merge commits on main
    files: int  # .py files main creates over the history
    weeks: int  # the history fills this many sprint weeks
    lockfile_lines: int = 0  # the bot edits LOCKFILE_EDIT lines every LOCKFILE_EVERY commits
    side_commits: int = 0  # commits on `side`, merged into main mid-history
    feature_commits: int = 0  # commits on `feature`
    feature_merged: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    teams: tuple[TeamShape, ...]
    week: int  # the measured run analyses this sprint week
    prime_week: int | None  # an untimed run of this week fills the cache first
    delay_s: float  # fixed sleep in front of every provider call
    include_branches: tuple[str, ...] = ()


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="history-warm",
            teams=(
                TeamShape(
                    commits=500, files=50, weeks=4, lockfile_lines=20_000, side_commits=20,
                ),
            ),
            week=4,
            prime_week=4,
            delay_s=0.0,
        ),
        Workload(
            name="latency-cold",
            teams=(TeamShape(commits=60, files=10, weeks=2),) * 3,
            week=2,
            prime_week=None,
            delay_s=0.025,
        ),
        Workload(
            name="weekly-rerun",
            teams=(
                TeamShape(commits=120, files=16, weeks=12, feature_commits=16),
                TeamShape(commits=120, files=16, weeks=12, feature_commits=16),
                TeamShape(
                    commits=120, files=16, weeks=12, feature_commits=16, feature_merged=True
                ),
            ),
            week=12,
            prime_week=11,
            delay_s=0.025,
            include_branches=("feature",),
        ),
    )
}

ROSTER_TEXT = "".join(f"{sid} | {name} | {sid}@uni.example\n" for sid, name in STUDENTS)


class _FileModel:
    """A .py file as blocks: a header line, then one block per function."""

    def __init__(self, blocks: list[list[str]]):
        self.blocks = blocks

    def lines(self) -> tuple[str, ...]:
        return tuple(line for block in self.blocks for line in block)

    def position(self, block: int) -> int:
        return 1 + sum(len(b) for b in self.blocks[:block])


class _Generator:
    def __init__(self, rng: random.Random, text: random.Random):
        self.rng = rng  # shape
        self.text = text
        self.serial = text.randrange(10**6, 2 * 10**6)
        self.files: dict[str, dict[str, _FileModel]] = {"main": {}}
        self.touched: dict[tuple[str, str], int] = {}  # (author or "", path) -> serial
        self.readme_lines = 0

    def next(self) -> int:
        self.serial += 1
        return self.serial

    def function(self) -> list[str]:
        word = self.text.choice(WORDS)
        return [
            f"def {word}_{self.next()}(a, b):",
            f"    if a > {self.next()}:",
            f"        return b + {self.next()}",
            f"    for i in range({self.next()}):",
            f"        b += i * {self.next()}",
            f"    return b - {self.next()}",
        ]

    def new_file(self, branch: str, directory: str) -> SetFile:
        path = f"{directory}/{self.text.choice(WORDS)}_{self.next()}.py"
        model = _FileModel(
            [[f'"""Module {path} ({self.next()})."""']]
            + [self.function() for _ in range(self.rng.randint(2, 5))]
        )
        self.files[branch][path] = model
        return SetFile(path, model.lines())

    def edit(self, branch: str, author: str) -> list:
        """Two edits to files the branch owns.

        The first goes to the file the author touched least recently, the
        second to the file anyone touched least recently. So every student
        owns lines in most files and each week touches a similar number of
        files, whatever the seed; the seed picks authors, edits and names.
        """
        ops = []
        for who in (author, ""):
            # ties go to the older file, so names (seeded text) never steer the shape
            path = min(self.files[branch], key=lambda p: self.touched.get((who, p), 0))
            self.touched[(author, path)] = self.touched[("", path)] = self.next()
            model = self.files[branch][path]
            roll = self.rng.random()
            if roll < 0.01 and branch == "main":
                new = f"pkg/moved_{self.next()}.py"
                self.files[branch][new] = self.files[branch].pop(path)
                ops.append(Rename(path, new))
            elif roll < 0.45:
                block = self.rng.randint(1, len(model.blocks))
                lines = self.function()
                ops.append(Insert(path, model.position(block), tuple(lines)))
                model.blocks.insert(block, lines)
            elif roll < 0.9 or len(model.blocks) <= 3:
                block = self.rng.randint(1, len(model.blocks) - 1)
                offset = self.rng.choice((2, 4))
                old = model.blocks[block][offset]
                new_line = old[: old.rindex(" ") + 1] + str(self.next())
                ops.append(Replace(path, model.position(block) + offset, (new_line,)))
                model.blocks[block][offset] = new_line
            else:
                block = self.rng.randint(1, len(model.blocks) - 1)
                ops.append(Delete(path, model.position(block), len(model.blocks[block])))
                del model.blocks[block]
        return ops

    def lockfile_lines(self, count: int) -> tuple[str, ...]:
        return tuple(f'  "pkg-{n}": "^1.{n}.0",' for n in (self.next() for _ in range(count)))


def _signature(student: tuple[str, str]) -> tuple[str, str]:
    return student[1], f"{student[0]}@uni.example"


def team_script(seed: int, workload: str, team_index: int) -> RepoScript:
    """The history of one team: the same (seed, workload, team) gives the same script."""
    shape = WORKLOADS[workload].teams[team_index]
    rng = random.Random(f"{workload}:{team_index}")
    gen = _Generator(rng, random.Random(f"{seed}:{workload}:{team_index}"))

    # branch commits are hung after main commits; the last main commit comes last
    after: dict[int, list[str]] = {}

    def spread(kind: str, count: int, start: float, end: float) -> None:
        first, last = int(start * shape.commits), int(end * shape.commits)
        for j in range(count):
            after.setdefault(first + j * (last - first) // count, []).append(kind)

    if shape.side_commits:
        spread("side", shape.side_commits, 0.4, 0.6)
        after.setdefault(int(0.6 * shape.commits), []).append("merge:side")
    if shape.feature_commits:
        end = 0.9 if shape.feature_merged else 0.95
        spread("feature", shape.feature_commits, 0.5, end)
        if shape.feature_merged:
            after.setdefault(int(end * shape.commits), []).append("merge:feature")
    kinds: list[str] = []
    for i in range(shape.commits):
        kinds.append("main")
        kinds.extend(after.get(i, []))

    creations = max(0, shape.files - 5)
    create_at = {
        1 + k * int(0.7 * shape.commits) // max(1, creations) for k in range(creations)
    }
    span = timedelta(weeks=shape.weeks) - timedelta(hours=1)
    steps: list[Step] = []
    branch = "main"
    main_index = 0

    for kind in kinds:
        date = SPRINT_START + span * (len(steps) + 1) / (len(kinds) + 1)
        checkout = None
        name, email = _signature(rng.choices(STUDENTS, AUTHOR_WEIGHTS)[0])
        coauthors: tuple[tuple[str, str], ...] = ()
        if rng.random() < 0.05:
            other = _signature(rng.choice(STUDENTS))
            if other[1] != email:
                coauthors = (other,)
        message = f"{gen.text.choice(WORDS)} work {gen.next()}"
        if kind.startswith("merge:"):
            other_branch = kind.split(":", 1)[1]
            steps.append(
                Step(name, email, f"Merge branch '{other_branch}'", date=date,
                     checkout="main", merge=other_branch)
            )
            gen.files["main"].update(gen.files.pop(other_branch))
            branch = "main"
            continue
        if kind != branch:
            checkout = kind
        create = None
        if kind != "main" and kind not in gen.files:
            gen.files[kind] = {}
            create, checkout = kind, "main"
        branch = kind
        ops: list = []
        if kind == "main" and main_index == 0:
            ops.append(SetFile("README.md", (f"# Team project {gen.next()}",)))
            for _ in range(min(5, shape.files)):
                ops.append(gen.new_file("main", "app"))
            if shape.lockfile_lines:
                ops.append(SetFile(LOCKFILE, gen.lockfile_lines(shape.lockfile_lines)))
        elif kind == "main" and shape.lockfile_lines and main_index % LOCKFILE_EVERY == 0:
            name, email = BOT
            coauthors = ()
            at = rng.randint(1, shape.lockfile_lines - LOCKFILE_EDIT + 1)
            ops.append(Replace(LOCKFILE, at, gen.lockfile_lines(LOCKFILE_EDIT)))
            ops.extend(gen.edit("main", email))
        elif kind == "main":
            if main_index in create_at:
                ops.append(gen.new_file("main", rng.choice(("app", "pkg", "tests"))))
            ops.extend(gen.edit("main", email))
            if main_index % 10 == 0:
                gen.readme_lines += 1
                ops.append(Insert("README.md", 1 + gen.readme_lines, (f"- note {gen.next()}",)))
        elif not gen.files[kind] or rng.random() < 0.2:
            ops.append(gen.new_file(kind, kind))
        else:
            ops.extend(gen.edit(kind, email))
        if kind == "main":
            main_index += 1
        steps.append(
            Step(name, email, message, date=date, coauthors=coauthors,
                 create_branch=create, checkout=checkout, ops=tuple(ops))
        )

    script = RepoScript(name=f"{workload}-{team_index}", roster_text=ROSTER_TEXT, steps=steps)
    script.checkpoints.append((len(steps) - 1, CHECKPOINT))
    return script
