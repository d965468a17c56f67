"""End-to-end CLI runs in mock mode against built fixtures."""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import contribsum
from conftest import NESTED, commit_tree_entries
from contribsum import synthfix
from contribsum.agents.provider import HttpProvider, TokenBucket
from contribsum.cli import _lock, build_provider, main
from contribsum.config import load_config
from contribsum.errors import ConfigError
from contribsum.store import CostLedger

CONFIG_TEMPLATE = """\
[run]
roster = roster.txt
window_start = 2024-06-01T00:00:00+00:00
window_end = 2024-07-01T00:00:00+00:00
window_label = week-1
sprint_instructions = sprint.md
project_description = project.md
out_dir = {out_dir}
state_dir = {state_dir}
provider = mock

[repos]
{repos}

[analysis_model]
model_id = mini-model
max_input_tokens = 128000
cost_per_1k_input = 0.15
cost_per_1k_output = 0.6

[synthesis_model]
model_id = big-model
max_input_tokens = 128000
cost_per_1k_input = 2.5
cost_per_1k_output = 10.0
"""

ROSTER = (
    "alice | Alice Lee | alice@campus.edu\n"
    "bob | Bob Roy | bob@campus.edu\n"
    "carol | Carol Weiss | carol@campus.edu\n"
)


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv("CONTRIBSUM_STATE", raising=False)
    monkeypatch.delenv("LLM_API_KEY", raising=False)


def make_workspace(
    root: Path,
    teams: dict[str, str],
    out_dir: str = "out",
    state_dir: str = "state",
    extra: str = "",
) -> Path:
    root.mkdir(parents=True, exist_ok=True)
    (root / "roster.txt").write_text(ROSTER)
    (root / "sprint.md").write_text("Build the query portal MVP this week.\n")
    (root / "project.md").write_text(
        "A portal to manage and query clinical trial information.\n"
    )
    repo_lines = []
    for team, fixture in teams.items():
        dest = root / "repos" / team
        synthfix.build_standard_fixture(fixture, dest)
        repo_lines.append(f"{team} = {dest}")
    config = CONFIG_TEMPLATE.format(
        out_dir=out_dir, state_dir=state_dir, repos="\n".join(repo_lines)
    )
    if extra:
        config += extra
    path = root / "contribsum.ini"
    path.write_text(config)
    return path


EXPECTED_ARTIFACTS = ("functionality.csv", "contribution.csv", "report.md")


class TestAnalyze:
    def test_two_teams_mock_mode_full_outputs_zero_cost(self, tmp_path, capsys):
        config = make_workspace(
            tmp_path, {"team-alpha": "merged_branch", "team-beta": "zero_commit_student"}
        )
        exit_code = main(["analyze", "--config", str(config)])
        assert exit_code == 0
        for team in ("team-alpha", "team-beta"):
            for name in EXPECTED_ARTIFACTS:
                artifact = tmp_path / "out" / team / "week-1" / name
                assert artifact.exists(), f"{team}/{name} missing"
                assert artifact.stat().st_size > 0
        ledger = (tmp_path / "state" / "ledger.jsonl").read_text().splitlines()
        assert ledger, "mock calls must still append ledger entries"
        assert all(json.loads(line)["cost"] == 0.0 for line in ledger)
        out = capsys.readouterr().out
        assert "2/2 teams analyzed" in out

    def test_missing_roster_is_config_error(self, tmp_path, capsys):
        """A roster that does not parse, is not UTF-8 or is missing fails
        `analyze` as a configuration error, before any output; `check`
        names it in a failed roster line, once the config names a file."""
        config = make_workspace(tmp_path, {"team-alpha": "sole_author"})
        roster_path = tmp_path / "roster.txt"
        rosters = {
            "two-fields": b"alice | Alice Lee\n",
            "duplicate-alias": ROSTER.encode() + b"alex | Alice Lee | alex@campus.edu\n",
            "not-utf8": b"\xff" + ROSTER.encode(),
            "missing": None,
        }
        for case, roster in rosters.items():
            if roster is None:
                roster_path.unlink()
            else:
                roster_path.write_bytes(roster)
            assert main(["analyze", "--config", str(config)]) == 2, case
            assert capsys.readouterr().err.startswith("config error: roster"), case
            assert not (tmp_path / "out").exists(), case
            if roster is not None:
                assert main(["check", "--config", str(config)]) == 1, case
                assert f"[fail] roster: {roster_path}: " in capsys.readouterr().out, case

    def test_unreadable_instructions_are_config_errors(self, tmp_path, capsys):
        """An instruction file that is missing, cannot be read or is not
        UTF-8 fails `analyze` as a configuration error naming it, before any
        output or state; `check` names an unreadable or non-UTF-8 one in a
        failed line, and a missing one fails the config as `analyze` does."""
        config = make_workspace(tmp_path, {"team-alpha": "sole_author"})
        for key, name in (
            ("sprint_instructions", "sprint.md"), ("project_description", "project.md")
        ):
            path = tmp_path / name
            text = path.read_bytes()
            for case in ("missing", "unreadable", "not-utf8"):
                label = f"{name} {case}"
                path.unlink()
                if case == "unreadable":
                    path.mkdir()  # opening a directory fails
                elif case == "not-utf8":
                    path.write_bytes(b"\xff" + text)
                assert main(["analyze", "--config", str(config)]) == 2, label
                err = capsys.readouterr().err
                assert err.startswith("config error: ") and str(path) in err, label
                assert not (tmp_path / "out").exists() and not (tmp_path / "state").exists(), label
                if case == "missing":
                    assert main(["check", "--config", str(config)]) == 2, label
                    assert str(path) in capsys.readouterr().err, label
                else:
                    assert main(["check", "--config", str(config)]) == 1, label
                    assert f"[fail] {key}: {path}: " in capsys.readouterr().out, label
                if path.is_dir():
                    path.rmdir()
                path.write_bytes(text)
        assert main(["check", "--config", str(config)]) == 0
        assert capsys.readouterr().out.endswith("ok\n")

    def test_state_dir_in_use_exits_2(self, tmp_path, capsys):
        """While another holder has the state dir's lock, `analyze` exits 2
        naming the holder's pid, before any output or ledger line; once it
        is released, `analyze` runs."""
        config = make_workspace(tmp_path, {"team-alpha": "sole_author"})
        state = tmp_path / "state"
        state.mkdir()
        with open(state / "lock", "a+", encoding="utf-8") as lock:
            assert _lock(lock)
            assert main(["analyze", "--config", str(config)]) == 2
        assert capsys.readouterr().err == (
            f"state dir {state} is in use by another analyze (pid {os.getpid()})\n"
        )
        assert sorted(p.name for p in state.iterdir()) == ["lock"]
        assert not (tmp_path / "out").exists()
        assert main(["analyze", "--config", str(config)]) == 0
        assert (state / "ledger.jsonl").read_text().splitlines()

    def test_killed_holder_does_not_block_the_next_run(self, tmp_path, capsys):
        """The kernel drops the lock of an analyze killed with SIGKILL."""
        config = make_workspace(tmp_path, {"team-alpha": "sole_author"})
        state = tmp_path / "state"
        state.mkdir()
        hold = (
            "import sys, time\nfrom contribsum.cli import _lock\n"
            "lock = open(sys.argv[1], 'a+')\nassert _lock(lock)\nprint('held', flush=True)\n"
            "time.sleep(60)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(contribsum.__file__).parents[1])}
        child = subprocess.Popen(
            [sys.executable, "-c", hold, str(state / "lock")], stdout=subprocess.PIPE, env=env
        )
        try:
            assert child.stdout.readline() == b"held\n"
            assert main(["analyze", "--config", str(config)]) == 2
            assert f"(pid {child.pid})" in capsys.readouterr().err
        finally:
            child.kill()
            child.wait(timeout=30)
            child.stdout.close()
        assert child.returncode == -signal.SIGKILL
        assert main(["analyze", "--config", str(config)]) == 0

    def test_corrupt_repo_isolated_from_healthy_one(self, tmp_path, capsys):
        config = make_workspace(
            tmp_path, {"team-bad": "sole_author", "team-good": "merged_branch"}
        )
        shutil.rmtree(tmp_path / "repos" / "team-bad" / "objects")
        exit_code = main(["analyze", "--config", str(config)])
        assert exit_code == 1
        for name in EXPECTED_ARTIFACTS:
            assert (tmp_path / "out" / "team-good" / "week-1" / name).exists()
        out = capsys.readouterr().out
        assert "[fail] team-bad" in out
        assert "[ok]   team-good" in out

    def test_state_flag_beats_env_var(self, tmp_path, monkeypatch):
        config = make_workspace(tmp_path, {"team-alpha": "sole_author"})
        monkeypatch.setenv("CONTRIBSUM_STATE", str(tmp_path / "from-env"))
        assert main(["analyze", "--config", str(config), "--state", str(tmp_path / "flag")]) == 0
        assert (tmp_path / "flag" / "ledger.jsonl").exists()
        assert not (tmp_path / "from-env").exists()
        # without the flag, the variable beats [run] state_dir
        assert main(["analyze", "--config", str(config), "--out", str(tmp_path / "out-2")]) == 0
        assert (tmp_path / "from-env" / "ledger.jsonl").exists()
        assert not (tmp_path / "state").exists()

    def test_path_flags_taken_from_the_working_directory(self, tmp_path, monkeypatch):
        """`--state`, `--out` and `--roster` are the working directory's;
        the paths in the config file, one directory down, are the file's."""
        config = make_workspace(tmp_path / "course", {"team-alpha": "sole_author"})
        shutil.copy(tmp_path / "course" / "roster.txt", tmp_path / "flag-roster.txt")
        (tmp_path / "course" / "roster.txt").unlink()
        monkeypatch.chdir(tmp_path)
        flags = ["--state", "st", "--out", "o", "--roster", "flag-roster.txt"]
        assert main(["analyze", "--config", "course/contribsum.ini", *flags]) == 0
        assert (tmp_path / "st" / "ledger.jsonl").exists()
        assert (tmp_path / "o" / "team-alpha" / "week-1" / "report.md").exists()
        assert not (tmp_path / "course" / "st").exists()
        assert not (tmp_path / "course" / "o").exists()
        # without flags, the file's own paths
        shutil.copy(tmp_path / "flag-roster.txt", tmp_path / "course" / "roster.txt")
        assert main(["analyze", "--config", "course/contribsum.ini"]) == 0
        assert (tmp_path / "course" / "state" / "ledger.jsonl").exists()
        assert (tmp_path / "course" / "out" / "team-alpha" / "week-1" / "report.md").exists()

    def test_mock_runs_byte_reproducible(self, tmp_path):
        config_a = make_workspace(
            tmp_path / "a", {"team-alpha": "merged_branch"}, out_dir="out"
        )
        config_b = make_workspace(
            tmp_path / "b", {"team-alpha": "merged_branch"}, out_dir="out"
        )
        assert main(["analyze", "--config", str(config_a)]) == 0
        assert main(["analyze", "--config", str(config_b)]) == 0
        # the manifest too: its bytes do not depend on where the repository is
        for name in (*EXPECTED_ARTIFACTS, "run_manifest.json"):
            first = (tmp_path / "a" / "out" / "team-alpha" / "week-1" / name).read_bytes()
            second = (tmp_path / "b" / "out" / "team-alpha" / "week-1" / name).read_bytes()
            assert first == second, f"{name} differs between identical runs"

    def test_second_window_writes_delta(self, tmp_path):
        config = make_workspace(tmp_path, {"team-alpha": "interleaved_edits"})
        assert main(["analyze", "--config", str(config)]) == 0
        assert not (tmp_path / "out" / "team-alpha" / "week-1" / "delta.md").exists()
        exit_code = main(
            [
                "analyze",
                "--config",
                str(config),
                "--window-start",
                "2024-07-01T00:00:00+00:00",
                "--window-end",
                "2024-08-01T00:00:00+00:00",
                "--window-label",
                "week-2",
            ]
        )
        assert exit_code == 0
        delta = tmp_path / "out" / "team-alpha" / "week-2" / "delta.md"
        assert delta.exists()

    def test_manifest_records_artifact_hashes(self, tmp_path):
        config = make_workspace(tmp_path, {"team-alpha": "sole_author"})
        assert main(["analyze", "--config", str(config)]) == 0
        manifest = json.loads(
            (tmp_path / "out" / "team-alpha" / "week-1" / "run_manifest.json").read_text()
        )
        assert set(EXPECTED_ARTIFACTS) <= set(manifest["artifacts"])
        for digest in manifest["artifacts"].values():
            assert len(digest) == 64

    def test_include_branch_adds_labeled_section(self, tmp_path):
        config = make_workspace(tmp_path, {"team-alpha": "unmerged_branch"})
        assert (
            main(
                ["analyze", "--config", str(config), "--include-branch", "experiment"]
            )
            == 0
        )
        report = (tmp_path / "out" / "team-alpha" / "week-1" / "report.md").read_text()
        assert "## Unmerged branch: experiment" in report
        assert "cache.py" in report

    def test_repeated_include_branch_kept_once(self, tmp_path):
        config = make_workspace(tmp_path, {"team-alpha": "unmerged_branch"})
        listed = "include_branches = experiment, main, experiment\n"
        text = config.read_text().replace("provider = mock\n", "provider = mock\n" + listed)
        config.write_text(text)
        assert load_config(config).include_branches == ("experiment", "main")
        repeated = ["--include-branch", "experiment"] * 2
        assert main(["analyze", "--config", str(config), *repeated]) == 0
        out = tmp_path / "out" / "team-alpha" / "week-1"
        report = (out / "report.md").read_text()
        assert report.count("## Unmerged branch: experiment") == 1
        assert report.count("- included unmerged branch: experiment") == 1
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["include_branches"] == ["experiment"]


class TestUnchangedRerun:
    def test_unchanged_teams_are_skipped(self, tmp_path, capsys, caplog):
        """A second `analyze` prints the same, rewrites nothing and adds no
        ledger line; `render` in between changes nothing of that; after one
        team's new commit only that team runs again."""
        config = make_workspace(
            tmp_path, {"team-alpha": "merged_branch", "team-beta": "zero_commit_student"}
        )
        out, ledger = tmp_path / "out", tmp_path / "state" / "ledger.jsonl"

        def files() -> dict:
            return {p: (p.read_bytes(), p.stat().st_mtime_ns) for p in out.rglob("*") if p.is_file()}

        def analyze() -> tuple[str, list[str]]:
            caplog.clear()
            with caplog.at_level("INFO", logger="contribsum.pipeline"):
                assert main(["analyze", "--config", str(config)]) == 0
            return capsys.readouterr().out, [
                m for m in caplog.messages if m.startswith("team outputs")
            ]

        printed, _ = analyze()
        first, lines = files(), ledger.read_text()
        assert lines
        both = ["team outputs unchanged: team-alpha", "team outputs unchanged: team-beta"]
        assert analyze() == (printed, both)
        assert files() == first and ledger.read_text() == lines

        assert main(["render", "--config", str(config)]) == 0
        capsys.readouterr()
        rendered = files()
        assert analyze() == (printed, both)
        assert files() == rendered and ledger.read_text() == lines

        entry = ("100644", "more.py", b"m = 1\n")
        commit_tree_entries(str(tmp_path / "repos" / "team-alpha"), tmp_path / "index", entry)
        assert analyze()[1] == [
            "team outputs stale: team-alpha (inputs)", "team outputs unchanged: team-beta"
        ]
        after = files()
        beta = {p: v for p, v in rendered.items() if "team-beta" in p.parts}
        assert {p: v for p, v in after.items() if "team-beta" in p.parts} == beta
        manifest = out / "team-alpha" / "week-1" / "run_manifest.json"
        assert after[manifest] != rendered[manifest]  # a new window head


class TestConfigErrors:
    @pytest.mark.parametrize(
        "option, value",
        [("analysis_workers", "2.5"), ("rate_limit", "fast")],
    )
    def test_non_numeric_option_is_config_error(self, tmp_path, capsys, option, value):
        config = make_workspace(tmp_path, {"team-alpha": "sole_author"})
        text = config.read_text().replace("provider = mock\n", f"provider = mock\n{option} = {value}\n")
        config.write_text(text)
        assert main(["analyze", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert f"config error: [run] {option}: expected a number, got {value!r}" in err

    @pytest.mark.parametrize("line", ["jobs = 3", "coauthor_splt = off"])
    def test_unread_run_key_loads_with_a_warning(self, tmp_path, caplog, line):
        config = make_workspace(tmp_path, {"team-alpha": "sole_author"})
        config.write_text(config.read_text().replace("provider = mock\n", f"provider = mock\n{line}\n"))
        with caplog.at_level("WARNING", logger="contribsum.config"):
            cfg = load_config(config)
        key = line.split(" = ")[0]
        assert caplog.messages == [f"[run] {key} is not a known option; ignored"]
        assert cfg.coauthor_split  # the misspelt key changed nothing

    def test_jobs_flag_is_rejected(self, tmp_path, capsys):
        config = make_workspace(tmp_path, {"team-alpha": "sole_author"})
        with pytest.raises(SystemExit) as exit_info:
            main(["analyze", "--config", str(config), "--jobs", "2"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err

    def test_analysis_workers_bounded(self, tmp_path):
        config = make_workspace(tmp_path, {"team-alpha": "sole_author"})
        cfg = load_config(config)
        assert cfg.analysis_workers == 8
        cfg.analysis_workers = 64
        cfg.validate()
        for bad in (0, 65):
            cfg.analysis_workers = bad
            with pytest.raises(ConfigError, match="analysis_workers must be between 1 and 64"):
                cfg.validate()

    @pytest.mark.parametrize("rate", [-1.0, float("nan"), float("inf")])
    def test_rate_limit_finite_and_non_negative(self, tmp_path, rate):
        cfg = load_config(make_workspace(tmp_path, {"team-alpha": "sole_author"}))
        cfg.rate_limit = rate
        with pytest.raises(ConfigError, match="rate_limit"):
            cfg.validate()


class TestBuildProvider:
    def _live(self, tmp_path, monkeypatch, rate_limit: float):
        monkeypatch.setenv("LLM_API_KEY", "test-key")
        cfg = load_config(make_workspace(tmp_path, {"team-alpha": "sole_author"}))
        cfg.provider_mode = "live"
        cfg.endpoint = "http://localhost:9/v1"
        cfg.rate_limit = rate_limit
        cfg.validate()
        return build_provider(cfg)

    def test_rate_limit_hands_one_bucket_to_the_live_provider(self, tmp_path, monkeypatch):
        live = self._live(tmp_path, monkeypatch, 2.5)
        assert isinstance(live, HttpProvider)
        assert isinstance(live.rate_limiter, TokenBucket)
        assert live.rate_limiter.rate == 2.5

    def test_zero_rate_limit_means_no_bucket(self, tmp_path, monkeypatch):
        assert self._live(tmp_path, monkeypatch, 0.0).rate_limiter is None


class TestCheck:
    def test_valid_config_ok(self, tmp_path, capsys):
        config = make_workspace(tmp_path, {"team-alpha": "sole_author"})
        assert main(["check", "--config", str(config)]) == 0
        out = capsys.readouterr().out
        assert "ok" in out

    def test_unmapped_author_warns_exit_zero(self, tmp_path, capsys):
        from contribsum.synthfix import RepoScript, SetFile, Step, build

        root = tmp_path
        config = make_workspace(root, {})
        dest = root / "repos" / "team-bot"
        build(
            RepoScript(
                "bot",
                ROSTER,
                [
                    Step(
                        author_name="CI Bot",
                        author_email="bot@nowhere.invalid",
                        message="generated",
                        ops=(SetFile("gen.py", ("auto = 1",)),),
                    )
                ],
            ),
            dest,
        )
        text = config.read_text().replace("[repos]\n", f"[repos]\nteam-bot = {dest}\n")
        config.write_text(text)
        assert main(["check", "--config", str(config)]) == 0
        out = capsys.readouterr().out
        assert "unmapped authors: CI Bot <bot@nowhere.invalid>" in out

    def test_unreachable_live_provider_fails(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("LLM_API_KEY", "test-key")
        extra = "\n[provider]\nendpoint = http://127.0.0.1:9/nothing\n"
        config = make_workspace(tmp_path, {"team-alpha": "sole_author"}, extra=extra)
        exit_code = main(["check", "--config", str(config), "--provider", "live"])
        assert exit_code == 1
        assert "unreachable" in capsys.readouterr().out

    def test_broken_repo_fails(self, tmp_path, capsys):
        config = make_workspace(tmp_path, {"team-alpha": "sole_author"})
        shutil.rmtree(tmp_path / "repos" / "team-alpha")
        assert main(["check", "--config", str(config)]) == 1


class TestCost:
    def test_state_flag_beats_env_var(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "flag").mkdir()
        ledger = CostLedger(tmp_path / "flag" / "ledger.jsonl")
        ledger.add("analysis", "m", 10, 10, 0.5, team="alpha")
        monkeypatch.setenv("CONTRIBSUM_STATE", str(tmp_path / "from-env"))
        assert main(["cost", "--state", str(tmp_path / "flag")]) == 0
        assert "team alpha: 1 calls, $0.50" in capsys.readouterr().out

    def test_state_flag_read_from_the_working_directory(self, tmp_path, monkeypatch, capsys):
        """`cost --state st` reads the ledger that `analyze --state st` wrote
        with its config one directory down."""
        make_workspace(tmp_path / "course", {"team-alpha": "merged_branch"})
        monkeypatch.chdir(tmp_path)
        assert main(["analyze", "--config", "course/contribsum.ini", "--state", "st"]) == 0
        capsys.readouterr()
        assert main(["cost", "--state", "st"]) == 0
        out = capsys.readouterr().out
        assert "(no entries)" not in out and "team team-alpha:" in out

    def test_fresh_state_zero_totals(self, tmp_path, capsys):
        assert main(["cost", "--state", str(tmp_path / "state")]) == 0
        out = capsys.readouterr().out
        assert "total: $0.00" in out

    def test_mock_run_stays_free(self, tmp_path, capsys):
        config = make_workspace(tmp_path, {"team-alpha": "merged_branch"})
        assert main(["analyze", "--config", str(config)]) == 0
        capsys.readouterr()
        assert main(["cost", "--state", str(tmp_path / "state")]) == 0
        out = capsys.readouterr().out
        assert "total: $0.00" in out
        assert "(no entries)" not in out  # calls were made, they were just free


# a report_state.json in the format saved before `window_end`,
# `unmapped_authors` and `branch_sections` were kept
OLD_FORMAT_STATE = """\
{
  "roles_enabled": false,
  "student_files": {
    "alice": {"parser.py": [5, 5]},
    "carol": {"notes.py": [4, 4]}
  },
  "student_names": {"alice": "Alice Lee", "carol": "Carol Weiss"},
  "summaries": [
    {
      "bullets": [["parser.py", "Alice Lee started the parser."]],
      "flags": [],
      "headline": "Alice Lee started the parser.",
      "id": "alice",
      "name": "Alice Lee",
      "role": null
    },
    {
      "bullets": [["notes.py", "Carol Weiss kept notes."]],
      "flags": [["notes.py: Carol Weiss kept notes.", "zero-lines"]],
      "headline": "Carol Weiss kept notes.",
      "id": "carol",
      "name": "Carol Weiss",
      "role": null
    }
  ],
  "team": "team-alpha",
  "team_summary": {"bullets": ["Parser begun."], "narrative": "The team set up the parser."},
  "window_label": "week-0",
  "window_start": "2024-05-01T00:00:00+00:00"
}
"""

# what the state above gives as the prior window of `interleaved_edits` in June
OLD_FORMAT_DELTA = """\
Changes for team-alpha from week-0 to week-1:

Alice Lee:
- `parser.py`: lines owned 5 -> 7

Bob Roy:
- touched new file `parser.py` (3 lines owned)

Carol Weiss:
- no longer owns lines in `notes.py`
"""

OLD_FORMAT_REPORT = """\
# Contribution report: team-alpha (week-0)

## Alice Lee

Summary: Alice Lee started the parser.

Contributions:

- `parser.py`: Alice Lee started the parser.

## Carol Weiss

Summary: Carol Weiss kept notes.

Contributions:

- `notes.py`: Carol Weiss kept notes. **[caution: zero-lines]**

## Overall contribution of the team

The team set up the parser.

- Parser begun.

## Warnings

- Carol Weiss: claim about `notes.py` is unsupported (zero-lines)
"""


class TestRender:
    def _rerendered(self, root: Path, config: Path, *args: str, between=None) -> str:
        """Analyze, clobber report.md, render; assert the bytes came back."""
        assert main(["analyze", "--config", str(config), *args]) == 0
        report_path = root / "out" / "team-alpha" / "week-1" / "report.md"
        original = report_path.read_bytes()
        report_path.write_bytes(b"clobbered\n")
        if between is not None:
            between()
        assert main(["render", "--config", str(config), *args]) == 0
        assert report_path.read_bytes() == original
        return original.decode("utf-8")

    def test_rerender_matches_original_report(self, tmp_path):
        config = make_workspace(tmp_path, {"team-alpha": "merged_branch"})
        self._rerendered(tmp_path, config)

    @pytest.mark.parametrize("fixture", synthfix.STANDARD_FIXTURES)
    @pytest.mark.parametrize("args", [(), ("--include-branch", "experiment", "--roles")])
    def test_rerender_matches_on_every_fixture(self, tmp_path, fixture, args):
        config = make_workspace(tmp_path, {"team-alpha": fixture})
        self._rerendered(tmp_path, config, *args)

    def test_rerender_keeps_unmerged_branch_section(self, tmp_path):
        config = make_workspace(tmp_path, {"team-alpha": "unmerged_branch"})
        report = self._rerendered(tmp_path, config, "--include-branch", "experiment")
        assert "## Unmerged branch: experiment" in report
        assert "- included unmerged branch: experiment" in report

    def test_rerender_keeps_unmapped_author_warning(self, tmp_path):
        from contribsum.synthfix import RepoScript, SetFile, Step, build

        config = make_workspace(tmp_path, {})
        dest = tmp_path / "repos" / "team-alpha"
        steps = [
            Step("Alice Lee", "alice@campus.edu", "start", ops=(SetFile("app.py", ("x = 1",)),)),
            Step("CI Bot", "bot@nowhere.invalid", "gen", ops=(SetFile("gen.py", ("y = 2",)),)),
        ]
        build(RepoScript("bot", ROSTER, steps), dest)
        text = config.read_text().replace("[repos]\n", f"[repos]\nteam-alpha = {dest}\n")
        config.write_text(text)
        report = self._rerendered(tmp_path, config)
        assert "- unmapped author signature: CI Bot <bot@nowhere.invalid>" in report

    def test_rerender_ignores_roster_edits(self, tmp_path):
        config = make_workspace(tmp_path, {"team-alpha": "merged_branch"})

        def edit_roster():
            # rename one student, drop another
            (tmp_path / "roster.txt").write_text(
                "alice | Alicia Lee | alice@campus.edu\ncarol | Carol Weiss | carol@campus.edu\n"
            )

        report = self._rerendered(tmp_path, config, between=edit_roster)
        assert "## Alice Lee" in report and "## Bob Roy" in report

    def test_rerender_without_roster(self, tmp_path):
        config = make_workspace(tmp_path, {"team-alpha": "merged_branch"})
        roster = tmp_path / "roster.txt"

        def move_roster():
            roster.rename(tmp_path / "roster.moved")

        self._rerendered(tmp_path, config, between=move_roster)
        assert main(["analyze", "--config", str(config)]) == 2  # analyze still needs it

    def test_rerender_needs_no_provider_credentials(self, tmp_path):
        config = make_workspace(tmp_path, {"team-alpha": "sole_author"})

        def go_live():
            # a live provider with neither endpoint nor API key
            config.write_text(config.read_text().replace("provider = mock", "provider = live"))

        self._rerendered(tmp_path, config, between=go_live)
        assert main(["analyze", "--config", str(config)]) == 2

    def test_old_format_state_is_still_the_prior_window(self, tmp_path):
        config = make_workspace(tmp_path, {"team-alpha": "interleaved_edits"})
        old_dir = tmp_path / "out" / "team-alpha" / "week-0"
        old_dir.mkdir(parents=True)
        (old_dir / "report_state.json").write_text(OLD_FORMAT_STATE, encoding="utf-8")
        assert main(["analyze", "--config", str(config)]) == 0
        delta = tmp_path / "out" / "team-alpha" / "week-1" / "delta.md"
        assert delta.read_text(encoding="utf-8") == OLD_FORMAT_DELTA
        week_0 = ["--window-label", "week-0", "--window-start", "2024-05-01T00:00:00+00:00",
                  "--window-end", "2024-06-01T00:00:00+00:00"]
        assert main(["render", "--config", str(config), *week_0]) == 0
        assert (old_dir / "report.md").read_text(encoding="utf-8") == OLD_FORMAT_REPORT

    def test_render_without_state_fails(self, tmp_path, capsys):
        config = make_workspace(tmp_path, {"team-alpha": "sole_author"})
        assert main(["render", "--config", str(config)]) == 1
        assert "run analyze first" in capsys.readouterr().out

    def test_render_with_unreadable_state_fails(self, tmp_path, capsys):
        config = make_workspace(tmp_path, {"team-alpha": "sole_author"})
        assert main(["analyze", "--config", str(config)]) == 0
        state = tmp_path / "out" / "team-alpha" / "week-1" / "report_state.json"
        state.write_text(state.read_text(encoding="utf-8")[:40], encoding="utf-8")
        assert main(["render", "--config", str(config)]) == 1
        assert "unreadable saved state" in capsys.readouterr().out

    def test_render_with_misshapen_state_fails(self, tmp_path, capsys):
        """A field of the wrong shape fails the team, not the command."""
        config = make_workspace(tmp_path, {"team-alpha": "sole_author"})
        assert main(["analyze", "--config", str(config)]) == 0
        state = tmp_path / "out" / "team-alpha" / "week-1" / "report_state.json"
        saved = json.loads(state.read_text(encoding="utf-8"))
        saved["student_files"][next(iter(saved["student_files"]))] = [1, 2]
        state.write_text(json.dumps(saved), encoding="utf-8")
        capsys.readouterr()
        assert main(["render", "--config", str(config)]) == 1
        assert capsys.readouterr().out.startswith("[fail] team-alpha: unreadable saved state")

    def test_render_with_nested_state_fails_only_that_team(self, tmp_path, capsys):
        """A state nested past the recursion limit fails its team, not the command."""
        config = make_workspace(tmp_path, {"team-alpha": "sole_author", "team-beta": "sole_author"})
        assert main(["analyze", "--config", str(config)]) == 0
        (tmp_path / "out" / "team-alpha" / "week-1" / "report_state.json").write_bytes(NESTED)
        capsys.readouterr()
        assert main(["render", "--config", str(config)]) == 1
        out = capsys.readouterr().out
        assert out.startswith("[fail] team-alpha: unreadable saved state")
        assert "[ok]   team-beta: re-rendered" in out
