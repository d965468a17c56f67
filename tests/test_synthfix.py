"""The fixture builder itself: determinism, parsing, oracle consistency."""

from __future__ import annotations

import dataclasses
import subprocess

import pytest

from conftest import JUNE, ROSTER_TEXT, random_script, tree_files
from contribsum import synthfix
from contribsum.errors import ScriptError
from contribsum.ingest import list_commits
from contribsum.synthfix import (
    Delete,
    Insert,
    Rename,
    RepoScript,
    Replace,
    SetFile,
    Step,
    build,
    parse_script,
    replay_truth,
    standard_suite,
)


ALICE, BOB = ("Alice Lee", "alice@campus.edu"), ("Bob Roy", "bob@campus.edu")
TABLE = "data/table.txt"


def _long_file_script(lines: int = 5_000, edits: int = 10) -> RepoScript:
    """A history whose `TABLE` of `lines` lines is edited `edits` times, each
    edit followed by edits to two small files, with a rename, a co-authored
    commit and a side branch merged into main."""
    steps = [
        Step(*ALICE, "start", ops=(
            SetFile(TABLE, tuple(f"row {n}: {n * 7919 % 100_003}" for n in range(lines))),
            SetFile("app/main.py", ("import sys",)),
            SetFile("app/util.py", ("def util():", "    return 1")),
        ))
    ]
    util = "app/util.py"
    for edit in range(1, edits + 1):
        at = 1 + edit * lines // (edits + 1)
        steps.append(Step(
            *(ALICE if edit % 2 else BOB), f"table edit {edit}",
            coauthors=(BOB,) if edit == 3 else (),
            ops=(Replace(TABLE, at, (f"row {at - 1}: edited {edit}",)),),
        ))
        steps.append(
            Step(*BOB, f"main edit {edit}", ops=(Insert("app/main.py", edit + 1, (f"print({edit})",)),))
        )
        if edit == 4:
            steps.append(Step(*ALICE, "rename util", ops=(Rename(util, "app/helpers.py"),)))
            util = "app/helpers.py"
        steps.append(Step(*ALICE, f"util edit {edit}", ops=(Insert(util, 1, (f"# note {edit}",)),)))
        if edit == 6:
            steps += [
                Step(*BOB, "side work", create_branch="side",
                     ops=(SetFile("side/feature.py", ("def feature():", "    return 2")),)),
                Step(*BOB, "side more", ops=(Insert("side/feature.py", 3, ("# more",)),)),
                Step(*ALICE, "Merge branch 'side'", checkout="main", merge="side"),
            ]
    return RepoScript("long-file", ROSTER_TEXT, steps, [(len(steps) - 1, "final")])


def _one_file_per_step(count: int) -> RepoScript:
    return RepoScript("flat", ROSTER_TEXT, [
        Step(*ALICE, f"step {n}", ops=(SetFile(f"f{n}.txt", (str(n),)),)) for n in range(count)
    ])


class TestStandardSuite:
    def test_at_least_ten_fixtures(self):
        suite = standard_suite()
        assert len(suite) >= 10
        names = [script.name for script, _ in suite]
        assert len(set(names)) == len(names)

    def test_every_truth_is_internally_consistent(self):
        # every checkpoint file's line count is positive and owners exist
        for script, truth in standard_suite():
            assert truth.checkpoints, script.name
            for label, files in truth.checkpoints.items():
                for path, lines in files.items():
                    assert lines, f"{script.name}:{label}:{path} empty"
                    for line in lines:
                        assert 0 <= line.step < len(truth.steps)

    def test_zero_commit_fixture_lists_idle_student(self):
        suite = dict((script.name, truth) for script, truth in standard_suite())
        assert suite["zero_commit_student"].zero_commit_ids() == {"carol"}

    def test_unbound_truth_refuses_hashes(self):
        _, truth = standard_suite()[0]
        with pytest.raises(ScriptError):
            truth.hash_of(0)


class TestBuildDeterminism:
    # Head hashes, pinned: however `build` writes its stream, the commits
    # it makes must not move.
    STANDARD_TIPS = {
        "sole_author": {"main": "0e9e355e30f8acb063720e7e8eaa44dee68a05df"},
        "interleaved_edits": {"main": "6e69477fd8a5125ffe99c5723818bd2e1d17ea4f"},
        "rename_keeps_authors": {"main": "8cd60e4836bf4364f067b7f78ded6234d5dc728f"},
        "merged_branch": {
            "feature-pages": "dc76e95566e567fc664d3cbcbde3345a22bd53d8",
            "main": "8beb6da6e510f3037560d0b34c608db03df4066b",
        },
        "coauthored_commit": {"main": "b8c8a047b39e5cbd441a5aa486ec43f8d02da8a7"},
        "comment_injection": {"main": "428e09470759102f9f91c99368ab2963f3889728"},
        "unmerged_branch": {
            "experiment": "9e504823185dd36f9560759c408ef8d2da505d13",
            "main": "fbacd628287d4d5e54642b7db80a09cad4536df0",
        },
        "zero_commit_student": {"main": "61ea837a5c4c61a9354d8bfa1370a90c28345d16"},
        "whitespace_only_change": {"main": "44f72d675c022858f32111fa1e900aa874676b62"},
        "generated_file_exclusion": {"main": "ce28dacc608ce0b8835ad302cb7614e039cdbc12"},
    }
    LONG_FILE_HEAD = "e9e4f9cdd81d2b5d098b9f48a4944909250dbf4a"

    def test_same_script_same_hashes(self, tmp_path):
        script_a = parse_script(synthfix.load_fixture_text("sole_author"), "a")
        script_b = parse_script(synthfix.load_fixture_text("sole_author"), "b")
        _, truth_a = build(script_a, tmp_path / "one")
        _, truth_b = build(script_b, tmp_path / "two")
        assert truth_a.step_hashes == truth_b.step_hashes

    def test_standard_fixture_tips_pinned(self, built_fixtures):
        assert {name: handle.tips for name, (handle, _) in built_fixtures.items()} == (
            self.STANDARD_TIPS
        )

    def test_long_file_history_head_pinned(self, tmp_path):
        handle, truth = build(_long_file_script(), tmp_path / "long")
        assert handle.head_ref == truth.step_hashes[-1] == self.LONG_FILE_HEAD

    def test_relative_destination(self, tmp_path, monkeypatch):
        """A destination relative to the working directory builds what an
        absolute one does, and the handle names it by its absolute path."""
        expected, expected_truth = synthfix.build_standard_fixture(
            "merged_branch", tmp_path / "absolute"
        )
        (tmp_path / "cwd").mkdir()
        monkeypatch.chdir(tmp_path / "cwd")
        handle, truth = synthfix.build_standard_fixture("merged_branch", "origin")
        assert truth == expected_truth
        assert handle == dataclasses.replace(expected, root_path=str(tmp_path / "cwd" / "origin"))
        assert handle.tips == expected.tips

    def test_nonempty_destination_rejected(self, tmp_path):
        dest = tmp_path / "occupied"
        dest.mkdir()
        (dest / "junk").write_text("x")
        script = parse_script(synthfix.load_fixture_text("sole_author"))
        with pytest.raises(ScriptError):
            build(script, dest)

    def test_empty_script_rejected(self, tmp_path):
        with pytest.raises(ScriptError):
            build(RepoScript("empty", ROSTER_TEXT, []), tmp_path / "e")


class TestBuildBounds:
    """Structural costs of `build`, counted rather than timed."""

    def test_git_processes_do_not_grow_with_steps(self, tmp_path, monkeypatch):
        started: list[list[str]] = []
        real_popen = subprocess.Popen

        def counting_popen(args, *rest, **kwargs):
            started.append(list(args))
            return real_popen(args, *rest, **kwargs)

        monkeypatch.setattr(subprocess, "Popen", counting_popen)
        counts = []
        for steps in (10, 200):
            started.clear()
            build(_one_file_per_step(steps), tmp_path / f"s{steps}")
            assert all(args[0] == "git" for args in started), started
            counts.append(len(started))
        # init, fast-import, and open_repo's ref listing
        assert counts[0] == counts[1] <= 3, counts

    def test_each_version_stored_as_a_delta_of_the_one_before(self, tmp_path):
        """fast-import deltas a blob only against the blob it stored just
        before, so every later version of a large file must be a small delta."""
        handle, truth = build(_long_file_script(lines=5_000, edits=10), tmp_path / "long")

        def git(*args: str) -> str:
            return subprocess.run(
                ["git", "-C", handle.root_path, *args], capture_output=True, text=True, check=True
            ).stdout

        versions = {
            line.split(" ", 1)[0]
            for line in git("rev-list", "--objects", "--all").splitlines()
            if line.endswith(f" {TABLE}")
        }
        first = git("rev-parse", f"{truth.hash_of(0)}:{TABLE}").strip()
        assert len(versions) == 11 and first in versions
        sizes = {}
        for line in git(
            "cat-file", "--batch-all-objects",
            "--batch-check=%(objectname) %(objecttype) %(objectsize) %(objectsize:disk)",
        ).splitlines():
            name, kind, size, disk = line.split()
            sizes[name] = (kind, int(size), int(disk))
        for version in versions - {first}:
            kind, size, disk = sizes[version]
            assert kind == "blob" and size > 5_000 * 10
            assert disk < 0.05 * size, (version, size, disk)


class TestScriptErrors:
    def _step(self, **kwargs):
        defaults = dict(
            author_name="Alice Lee",
            author_email="alice@campus.edu",
            message="step",
        )
        defaults.update(kwargs)
        return Step(**defaults)

    def test_insert_out_of_range_names_step(self, tmp_path):
        script = RepoScript(
            "bad",
            ROSTER_TEXT,
            [self._step(ops=(Insert("missing.py", 1, ("x",)),))],
        )
        with pytest.raises(ScriptError) as err:
            build(script, tmp_path / "bad")
        assert err.value.step == 0

    def test_set_on_existing_file_rejected(self, tmp_path):
        script = RepoScript(
            "bad2",
            ROSTER_TEXT,
            [
                self._step(ops=(SetFile("a.py", ("one",)),)),
                self._step(ops=(SetFile("a.py", ("two",)),)),
            ],
        )
        with pytest.raises(ScriptError) as err:
            build(script, tmp_path / "bad2")
        assert err.value.step == 1

    def test_fast_import_refusal_names_gits_reason(self, tmp_path):
        script = parse_script(
            "roster alice | Alice Lee | alice@campus.edu\n"
            "commit\n"
            "author Alice Lee <alice@campus.edu>\n"
            "set app//x.py\n"
            ". x\n"
        )
        dest = tmp_path / "bad"
        with pytest.raises(ScriptError, match="Empty path component found in input") as err:
            build(script, dest)
        assert err.value.step == "build"
        assert not list(dest.glob("fast_import_crash_*"))

    def _good(self) -> RepoScript:
        return RepoScript("good", ROSTER_TEXT, [self._step(ops=(SetFile("a.py", ("one",)),))])

    def test_script_error_leaves_no_repository(self, tmp_path):
        """A step that fails after others replayed leaves the destination as
        it was, absent or empty, so a build into it can follow."""
        script = RepoScript(
            "late",
            ROSTER_TEXT,
            [
                self._step(ops=(SetFile("a.py", ("one",)),)),
                self._step(ops=(Insert("a.py", 9, ("x",)),)),
            ],
        )
        absent, empty = tmp_path / "absent", tmp_path / "empty"
        empty.mkdir()
        for dest in (absent, empty):
            with pytest.raises(ScriptError) as err:
                build(script, dest)
            assert err.value.step == 1
        assert not absent.exists()
        assert list(empty.iterdir()) == []
        for dest in (absent, empty):
            handle, _ = build(self._good(), dest)
            assert handle.head_ref

    def test_fast_import_refusal_leaves_no_repository(self, tmp_path):
        """What `build` made before git refused the stream is removed, marks
        file included, so a build into the destination can follow."""
        script = parse_script(
            "roster alice | Alice Lee | alice@campus.edu\n"
            "commit\n"
            "author Alice Lee <alice@campus.edu>\n"
            "set app//x.py\n"
            ". x\n"
        )
        absent, empty = tmp_path / "absent", tmp_path / "empty"
        empty.mkdir()
        for dest in (absent, empty):
            with pytest.raises(ScriptError, match="refused the history"):
                build(script, dest)
        assert not absent.exists()
        assert list(empty.iterdir()) == []
        for dest in (absent, empty):
            handle, _ = build(self._good(), dest)
            assert handle.head_ref

    def test_conflicting_merge_rejected(self, tmp_path):
        script = RepoScript(
            "conflict",
            ROSTER_TEXT,
            [
                self._step(ops=(SetFile("a.py", ("base_line",)),)),
                self._step(create_branch="side", ops=(Replace("a.py", 1, ("side_version",)),)),
                self._step(checkout="main", ops=(Replace("a.py", 1, ("main_version",)),)),
                self._step(merge="side"),
            ],
        )
        with pytest.raises(ScriptError):
            replay_truth(script)

    def test_merge_step_with_edits_rejected(self):
        script = RepoScript(
            "evil-merge",
            ROSTER_TEXT,
            [
                self._step(ops=(SetFile("a.py", ("one",)),)),
                self._step(create_branch="side", ops=(SetFile("b.py", ("two",)),)),
                self._step(
                    checkout="main", merge="side", ops=(SetFile("c.py", ("three",)),)
                ),
            ],
        )
        with pytest.raises(ScriptError):
            replay_truth(script)


class TestParseScript:
    def test_round_trips_fixture_semantics(self):
        script = parse_script(synthfix.load_fixture_text("coauthored_commit"))
        assert script.name == "coauthored_commit"
        assert len(script.steps) == 1
        step = script.steps[0]
        assert step.coauthors == (("Bob Roy", "bob@campus.edu"),)
        assert isinstance(step.ops[0], SetFile)
        assert script.checkpoints == [(0, "final")]

    def test_unknown_directive_rejected(self):
        with pytest.raises(ScriptError):
            parse_script("frobnicate everything\n")

    def test_content_line_outside_op_rejected(self):
        with pytest.raises(ScriptError):
            parse_script(". stray content\n")

    def test_empty_content_line_variants(self):
        script = parse_script(
            "roster a | A B | a@x.com\n"
            "commit\n"
            "author A B <a@x.com>\n"
            "message with blank lines\n"
            "set f.txt\n"
            ". first\n"
            ".\n"
            ". third\n"
        )
        assert script.steps[0].ops[0].lines == ("first", "", "third")


class TestBuiltRepoMatchesGitView:
    def test_trailers_land_in_commit_message(self, built_fixtures):
        handle, _ = built_fixtures["coauthored_commit"]
        records = list_commits(handle, JUNE)
        assert "Co-authored-by: Bob Roy <bob@campus.edu>" in records[0].message

    def test_snapshot_equals_truth_content(self, built_fixtures):
        for name, (handle, truth) in built_fixtures.items():
            files = dict(tree_files(handle, handle.head_ref))
            want = {
                path: ("\n".join(t.content for t in lines) + "\n").encode()
                for path, lines in truth.expected_lines("final").items()
            }
            assert files == want, name

    def test_merge_described_as_two_parents(self, built_fixtures):
        handle, truth = built_fixtures["merged_branch"]
        merge_step = next(m for m in truth.steps if m.is_merge)
        out = subprocess.run(
            ["git", "-C", handle.root_path, "rev-list", "--parents", "-1",
             truth.hash_of(merge_step.index)],
            capture_output=True, text=True, check=True,
        )
        assert len(out.stdout.split()) == 3  # self + two parents


class TestRandomScripts:
    def test_generator_produces_buildable_histories(self, tmp_path):
        for seed in range(5):
            script = random_script(seed)
            handle, truth = build(script, tmp_path / f"r{seed}")
            assert truth.step_hashes
            files = dict(tree_files(handle, handle.head_ref))
            want_files = set(truth.expected_lines("final"))
            assert set(files) == want_files
