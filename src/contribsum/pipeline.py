"""Per-team pipeline: repository -> tables -> summaries -> report files.

One team's failure never aborts the others; the CLI collects TeamResult
objects and reports per-team outcomes. All artifacts land under
out/<team>/<window-label>/ and every run writes a manifest with artifact
hashes so a run can be reproduced and verified exactly. A team's default
and included branches are replayed once, together, on one `cat-file` reader.
Re-running a window repeats no git log, replay or measurement: each
ref's `git log` output and each window head's line owners and file
metrics are remembered in the run's `Store` (see `memo`), so a fully
remembered team spawns two git processes, the branch listing and the
reader of its head blobs.

Teams overlap: `run_analysis` replays one team at a time on the calling
thread, in `cfg.repos` order, and hands the rest of each team but the
last to one of at most `min(teams - 1, analysis_workers)` team threads,
so a replay overlaps the earlier teams' provider waits while one
replay's memory is held at a time. The calling thread finishes the last
team itself once fewer than `analysis_workers` others are unfinished, so
at most `analysis_workers` teams are in their provider stages and a
one-team run starts no team thread. Every team shares one
`chain.SendPool` of `analysis_workers` threads, and only `provider.send`
of a cache miss runs on it. A team's tables are filled in one place,
`chain.fill_tables`, which sends the analysis-tier calls in two batches,
the file rows and then the contribution rows that quote them; the
pipeline wraps its rows in `tables.FunctionalityTable` and
`tables.ContributionTable` where it writes the CSVs. Prompt rendering,
budget checks, cache reads and writes, ledger entries and response
parsing stay on the team's own thread in row order, so outputs and each
team's ledger entries are the same for any pool size (across teams the
ledger follows completion order), and a fully cached team starts no send
thread. Synthesis and its
repair retry go to the same pool, so `analysis_workers` caps every
provider request of the run, and a request in flight for one team is not
sent again for another.
"""

from __future__ import annotations

import hashlib
import json
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from pathlib import Path

from . import attribution, ingest, tables
from .agents import chain
from .agents.chain import SynthesisBundle
from .config import RunConfig
from .errors import ContribSumError
from .identity import UNMAPPED, Roster, unmapped_signatures
from .report import ReportState, RunMeta, diff_windows
from .store import CostLedger, Store, write_atomic

MANIFEST_NAME = "run_manifest.json"
STATE_NAME = "report_state.json"


@dataclass
class TeamResult:
    team: str
    ok: bool
    error: str = ""
    artifacts: dict[str, str] = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)


def window_dir(cfg: RunConfig, team: str) -> Path:
    return Path(cfg.out_dir) / team / (cfg.window.label or "window")


def _read_optional(path: str | None) -> str:
    if not path:
        return ""
    return Path(path).read_text(encoding="utf-8")


def _recorded(result: TeamResult, step, *args):
    """`step(*args)`, or None with its failure recorded in `result`."""
    try:
        return step(*args)
    except ContribSumError as exc:
        result.ok = False
        result.error = str(exc)
    except Exception as exc:  # corrupt repos raise plumbing errors
        result.ok = False
        result.error = f"{type(exc).__name__}: {exc}"
    return None


def _load_team(
    repo_path: str, cfg: RunConfig, roster: Roster, store: Store
) -> tuple[ingest.RepoHandle, attribution.ContributionSet]:
    """The team's history and its replay: the repo handle and contribution
    set. The repository is opened with `store`, the run's memo (see
    `memo`)."""
    repo = ingest.open_repo(repo_path, cfg.branch, store)
    options = attribution.AttributionOptions(
        split_coauthors=cfg.coauthor_split,
        exclude_globs=cfg.exclude_globs,
    )
    cset = attribution.build_contribution_set(
        repo, cfg.window, roster, options, cfg.include_branches
    )
    return repo, cset


def _finish_team(
    result: TeamResult, repo: ingest.RepoHandle, cset: attribution.ContributionSet, cfg: RunConfig,
    roster: Roster, provider, store: Store, ledger: CostLedger, pool: chain.SendPool,
) -> None:
    """Tables, synthesis, validation, render and write of a replayed team."""
    team = result.team
    functionality_rows, contribution_rows = chain.fill_tables(
        provider, cfg.analysis_tier, cset, roster, pool, ledger=ledger, store=store, team=team
    )
    bundle = SynthesisBundle(
        functionality_rows=functionality_rows,
        contribution_rows=contribution_rows,
        sprint_instructions=_read_optional(cfg.sprint_instructions_path),
        project_description=_read_optional(cfg.project_description_path),
        roles_enabled=cfg.roles_enabled,
        roster=roster,
        contribution_set=cset,
    )
    summaries, team_summary = chain.synthesize(
        provider, cfg.synthesis_tier, bundle, pool, ledger=ledger, store=store, team=team
    )
    for summary in summaries:
        summary.validation = chain.validate_summary(summary, cset)

    unmapped = unmapped_signatures(roster, ingest.list_commits(repo, cfg.window))
    if UNMAPPED.id in cset.per_student:
        owned = sum(ev.lines_owned for ev in cset.per_student[UNMAPPED.id])
        if owned:
            result.warnings.append(f"{owned} lines owned by unmapped authors")

    for branch, section in cset.branches.items():
        if section is None:
            result.warnings.append(f"branch {branch} not found; no section for it")

    evidence_map = {
        sid: {ev.path: (ev.lines_owned, ev.lines_added_in_window) for ev in rows}
        for sid, rows in cset.per_student.items()
        if rows
    }
    meta = RunMeta(
        team=team,
        window=cfg.window,
        roles_enabled=cfg.roles_enabled,
        unmapped_authors=tuple(unmapped),
        branch_sections=tuple((b, *section) for b, section in cset.branches.items() if section),
        evidence=evidence_map,
    )
    state = ReportState(tuple(summaries), team_summary, meta)
    document = state.render()
    result.warnings.extend(document.warnings)

    out_dir = window_dir(cfg, team)
    out_dir.mkdir(parents=True, exist_ok=True)

    functionality_table = tables.FunctionalityTable(tuple(functionality_rows))
    contribution_table = tables.ContributionTable(tuple(contribution_rows))
    tables.write_csv(functionality_table, out_dir / "functionality.csv")
    tables.write_csv(contribution_table, out_dir / "contribution.csv")
    write_atomic(out_dir / "report.md", document.markdown)
    write_atomic(out_dir / "contribution_set.json", cset.to_json())
    write_atomic(out_dir / STATE_NAME, state.to_json())

    prior = _find_prior_state(cfg, team)
    if prior is not None:
        delta = diff_windows(prior, state)
        write_atomic(out_dir / "delta.md", delta or "No changes between windows.\n")

    artifact_names = ["functionality.csv", "contribution.csv", "report.md", "contribution_set.json"]
    if prior is not None:
        artifact_names.append("delta.md")
    manifest = {
        "team": team,
        "window": {
            "start": cfg.window.start.isoformat(),
            "end": cfg.window.end.isoformat(),
            "label": cfg.window.label,
        },
        "repo_head": repo.head_ref,
        "window_head": cset.head,
        "provider_mode": cfg.provider_mode,
        "roles": cfg.roles_enabled,
        "coauthor_split": cfg.coauthor_split,
        "exclude_globs": list(cfg.exclude_globs),
        "include_branches": list(cfg.include_branches),
        "models": {
            "analysis": cfg.analysis_tier.model_id,
            "synthesis": cfg.synthesis_tier.model_id,
        },
        "artifacts": {
            name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
            for name in artifact_names
        },
    }
    write_atomic(out_dir / MANIFEST_NAME, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    result.artifacts = {name: str(out_dir / name) for name in artifact_names}


def _find_prior_state(cfg: RunConfig, team: str) -> ReportState | None:
    """Most recent earlier window's report state for this team, if any."""
    team_dir = Path(cfg.out_dir) / team
    if not team_dir.exists():
        return None
    # window starts may carry different UTC offsets: compare instants, not strings
    best: ReportState | None = None
    for state_path in team_dir.glob(f"*/{STATE_NAME}"):
        try:
            state = ReportState.from_json(state_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            continue
        start = state.meta.window.start
        if start < cfg.window.start and (best is None or start > best.meta.window.start):
            best = state
    return best


def run_analysis(cfg: RunConfig, roster: Roster, provider, store: Store, ledger: CostLedger) -> list[TeamResult]:
    """Analyze every configured team, as the module docstring describes;
    results in `cfg.repos` order. On an interrupt no team or send that has
    not started runs, a team thread's next send raises, and the interrupt
    is raised once the sends in flight are back."""
    sends = chain.SendPool(cfg.analysis_workers)
    # threads start on demand, so a one-team run starts none
    teams = ThreadPoolExecutor(
        max_workers=max(1, min(len(cfg.repos) - 1, cfg.analysis_workers)),
        thread_name_prefix="contribsum-team",
    )
    results = [TeamResult(team=team, ok=True) for team, _ in cfg.repos]
    try:
        finishing = []
        for n, (result, (_, path)) in enumerate(zip(results, cfg.repos), start=1):
            loaded = _recorded(result, _load_team, path, cfg, roster, store)
            if loaded is None:
                continue
            args = (result, *loaded, cfg, roster, provider, store, ledger, sends)
            if n < len(cfg.repos):
                finishing.append(teams.submit(_recorded, result, _finish_team, *args))
            else:  # the last team, once fewer than `analysis_workers` others are unfinished
                pending = finishing
                while len(pending) >= cfg.analysis_workers:
                    pending = wait(pending, return_when=FIRST_COMPLETED).not_done
                _recorded(result, _finish_team, *args)
        for future in finishing:
            future.result()
    finally:
        sends.shutdown(wait=False, cancel_futures=True)  # a later send raises
        teams.shutdown(cancel_futures=True)
        sends.shutdown()
    return results
