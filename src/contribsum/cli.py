"""Command-line entry point: analyze, check, cost, render.

`render` rewrites each team's `report.md` from the `report_state.json`
that `analyze` saved beside it, byte for byte as `analyze` wrote it,
without reading the roster or calling the provider. `cost` prints the
ledger's calls and spend per tier and per team.

Every command takes a path given as a flag (`--state`, `--out`,
`--roster`, `--config`) from the working directory, and a path written
in the config file from the file's directory.

One `analyze` runs on a state dir at a time: it holds an exclusive
`flock` on `<state>/lock`, which names its pid, from before the store
and ledger are opened until the run ends, and another `analyze` on that
state dir exits 2 at once. The kernel drops the lock when its holder
dies, so a killed run leaves none. `flock` makes this POSIX-only.
`check`, `cost` and `render` take no lock.

Exit codes: 0 success, 1 partial failure (some team failed or a check
found problems), 2 configuration error, unknown flag or a state dir in
use by another `analyze`.
"""

from __future__ import annotations

import argparse
import dataclasses
import fcntl
import os
import sys
from pathlib import Path

from . import ingest, pipeline
from .agents import chain
from .agents.provider import HttpProvider, MockProvider, ReplayProvider, TokenBucket
from .config import RunConfig, load_config
from .errors import ConfigError, ContribSumError
from .identity import load_roster, unmapped_signatures
from .report import ReportState
from .store import CostLedger, Store, ledger_report, resolve_state_dir, write_atomic


def build_provider(cfg: RunConfig):
    if cfg.provider_mode == "mock":
        budgets = {
            cfg.analysis_tier.model_id: cfg.analysis_tier.max_input_tokens,
            cfg.synthesis_tier.model_id: cfg.synthesis_tier.max_input_tokens,
        }
        return MockProvider(budgets=budgets)
    if cfg.provider_mode == "replay":
        return ReplayProvider(cfg.replay_dir)
    # one bucket paces every send thread; none at 0, which means unlimited
    limiter = TokenBucket(cfg.rate_limit) if cfg.rate_limit > 0 else None
    return HttpProvider(
        endpoint=cfg.endpoint, api_key=cfg.resolved_api_key(), rate_limiter=limiter
    )


def _effective_config(cfg: RunConfig) -> RunConfig:
    # mock calls are free by definition; zero the rates so ledger totals
    # stay honest no matter what the config file says
    if cfg.provider_mode == "mock":
        cfg.analysis_tier = dataclasses.replace(
            cfg.analysis_tier, cost_per_1k_input=0.0, cost_per_1k_output=0.0
        )
        cfg.synthesis_tier = dataclasses.replace(
            cfg.synthesis_tier, cost_per_1k_input=0.0, cost_per_1k_output=0.0
        )
    return cfg


def _read_roster(cfg: RunConfig):
    """The run's roster; one that cannot be read, is not UTF-8 text or does
    not parse raises ConfigError."""
    try:
        return load_roster(Path(cfg.roster_path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, ContribSumError) as exc:
        raise ConfigError(f"roster: {cfg.roster_path}: {exc}") from exc


def _lock(file) -> bool:
    """Take an exclusive `flock` on `file` and write this process's pid in
    it; False, writing nothing, while another process holds it. The lock
    lasts until the file is closed or the process dies."""
    try:
        fcntl.flock(file, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except BlockingIOError:
        return False
    file.truncate(0)
    file.write(f"{os.getpid()}\n")
    file.flush()
    return True


def cmd_analyze(cfg: RunConfig, state_flag: str | None = None) -> int:
    """Run every team, holding the state dir's lock; `state_flag`, a
    `--state` flag's directory, beats CONTRIBSUM_STATE."""
    cfg = _effective_config(cfg)
    try:
        roster = _read_roster(cfg)
        pipeline.read_instructions(cfg)  # a config error leaves no state dir
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    state_dir = resolve_state_dir(cfg.state_dir, state_flag)
    state_dir.mkdir(parents=True, exist_ok=True)
    with open(state_dir / "lock", "a+", encoding="utf-8") as lock:
        if not _lock(lock):
            lock.seek(0)
            holder = lock.read().strip()
            print(
                f"state dir {state_dir} is in use by another analyze (pid {holder})",
                file=sys.stderr,
            )
            return 2
        store = Store(state_dir / "cache")
        ledger = CostLedger(state_dir / "ledger.jsonl")
        try:
            results = pipeline.run_analysis(cfg, roster, build_provider(cfg), store, ledger)
        except ConfigError as exc:  # an instruction file changed since it was read
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        finally:
            store.close()
    failed = 0
    for result in results:
        if result.ok:
            print(f"[ok]   {result.team}: {len(result.artifacts)} artifacts")
            for warning in result.warnings:
                print(f"       warning: {warning}")
        else:
            failed += 1
            print(f"[fail] {result.team}: {result.error}")
    print(f"{len(results) - failed}/{len(results)} teams analyzed; ledger total ${ledger.total:.2f}")
    return 0 if failed == 0 else 1


def cmd_check(cfg: RunConfig) -> int:
    problems = 0
    roster = None
    try:
        roster = _read_roster(cfg)
        print(f"[ok]   roster: {len(roster.students)} students")
    except ConfigError as exc:
        problems += 1
        print(f"[fail] {exc}")

    try:
        pipeline.read_instructions(cfg)
    except ConfigError as exc:
        problems += 1
        print(f"[fail] {exc}")

    for name in ("system", "summarize_file", "describe_contribution", "synthesize", "repair"):
        try:
            chain.load_template(name)
        except OSError as exc:
            problems += 1
            print(f"[fail] prompt template {name}: {exc}")

    for team, path in cfg.repos:
        try:
            repo = ingest.open_repo(path, cfg.branch)
        except ContribSumError as exc:
            problems += 1
            print(f"[fail] {team}: {exc}")
            continue
        unmapped = unmapped_signatures(roster, repo.history.commits) if roster else []
        if unmapped:
            print(f"[warn] {team}: unmapped authors: {', '.join(unmapped)}")
        else:
            print(f"[ok]   {team}: branch {repo.default_branch} at {repo.head_ref[:10]}")

    if cfg.provider_mode == "live":
        import requests

        try:
            requests.get(cfg.endpoint, timeout=10)
            print(f"[ok]   provider endpoint reachable: {cfg.endpoint}")
        except requests.RequestException as exc:
            problems += 1
            print(f"[fail] provider endpoint unreachable: {exc}")

    print("ok" if problems == 0 else f"{problems} problem(s) found")
    return 0 if problems == 0 else 1


def cmd_cost(state_dir_arg: str | None) -> int:
    state_dir = resolve_state_dir(flag=state_dir_arg)
    ledger = CostLedger(state_dir / "ledger.jsonl")
    print(ledger_report(ledger))
    return 0


def cmd_render(cfg: RunConfig) -> int:
    """Rewrite report.md from the saved state, without roster or provider."""
    failed = 0
    for team, _path in cfg.repos:
        out_dir = pipeline.window_dir(cfg, team)
        state_path = out_dir / pipeline.STATE_NAME
        if not state_path.exists():
            print(f"[fail] {team}: no saved state at {state_path}; run analyze first")
            failed += 1
            continue
        try:
            state = ReportState.from_json(state_path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            print(f"[fail] {team}: unreadable saved state at {state_path}: {exc!r}")
            failed += 1
            continue
        write_atomic(out_dir / "report.md", state.render().markdown)
        print(f"[ok]   {team}: re-rendered {out_dir / 'report.md'}")
    return 0 if failed == 0 else 1


def _add_config_arguments(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", "-c", default="contribsum.ini", help="run configuration file")
    sub.add_argument("--week", type=int, help="window preset: week N of the configured sprint")
    sub.add_argument("--window-start", dest="window_start")
    sub.add_argument("--window-end", dest="window_end")
    sub.add_argument("--window-label", dest="window_label")
    sub.add_argument("--provider", choices=("mock", "replay", "live"))
    sub.add_argument("--roster")
    sub.add_argument("--out", dest="out_dir")
    sub.add_argument("--state", dest="state_dir")
    sub.add_argument("--branch", help="analyze this branch instead of the default")
    sub.add_argument(
        "--roles", action="store_const", const="on", help="enable role classification"
    )
    sub.add_argument(
        "--no-coauthor-split",
        dest="coauthor_split",
        action="store_const",
        const="off",
        help="reproduce the legacy behavior that drops co-author credit",
    )
    sub.add_argument(
        "--include-branch",
        dest="include_branches_list",
        action="append",
        metavar="BRANCH",
        help="add a labeled supplementary section for an unmerged branch",
    )
    sub.add_argument("--exclude", dest="exclude_list", action="append", metavar="GLOB")


def _overrides_from(args: argparse.Namespace) -> dict:
    overrides = {
        "week": args.week,
        "window_start": args.window_start,
        "window_end": args.window_end,
        "window_label": args.window_label,
        "provider": args.provider,
        "roster": args.roster,
        "out_dir": args.out_dir,
        "state_dir": args.state_dir,
        "branch": args.branch,
        "roles": args.roles,
        "coauthor_split": args.coauthor_split,
    }
    if args.include_branches_list:
        overrides["include_branches"] = ",".join(args.include_branches_list)
    if args.exclude_list:
        overrides["exclude_globs"] = ",".join(args.exclude_list)
    return overrides


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="contribsum",
        description="Summarize per-student code contributions in team git repositories.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (
        ("analyze", "run the full pipeline and write reports"),
        ("check", "validate configuration, repos, and identities without provider calls"),
        ("render", "rewrite report.md as analyze wrote it, without roster or provider"),
    ):
        sub = commands.add_parser(name, help=help_text)
        _add_config_arguments(sub)

    cost = commands.add_parser("cost", help="print the cost ledger")
    cost.add_argument("--state", dest="state_dir", default=None)

    args = parser.parse_args(argv)

    if args.command == "cost":
        return cmd_cost(args.state_dir)

    try:
        # render reads only saved state: no roster, no provider
        cfg = load_config(args.config, _overrides_from(args), inputs=args.command != "render")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    if args.command == "analyze":
        return cmd_analyze(cfg, args.state_dir)
    if args.command == "check":
        return cmd_check(cfg)
    if args.command == "render":
        return cmd_render(cfg)
    return 2


if __name__ == "__main__":
    sys.exit(main())
