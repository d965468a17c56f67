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
    RepoScript,
    Replace,
    SetFile,
    Step,
    build,
    parse_script,
    replay_truth,
    standard_suite,
)


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
    def test_same_script_same_hashes(self, tmp_path):
        script_a = parse_script(synthfix.load_fixture_text("sole_author"), "a")
        script_b = parse_script(synthfix.load_fixture_text("sole_author"), "b")
        _, truth_a = build(script_a, tmp_path / "one")
        _, truth_b = build(script_b, tmp_path / "two")
        assert truth_a.step_hashes == truth_b.step_hashes

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
