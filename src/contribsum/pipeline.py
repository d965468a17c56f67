"""Per-team pipeline: repository -> tables -> summaries -> report files.

One team's failure never aborts the others; the CLI collects TeamResult
objects and reports per-team outcomes. All artifacts land under
out/<team>/<window-label>/ and every run writes a manifest with artifact
hashes so a run can be reproduced and verified exactly. A team's default
and included branches are replayed once, together, on one `cat-file`
reader, so a team spawns three git processes, the branch listing, the
default branch's `git log` and the reader, and one more `git log` per
included branch the repository has. The run's `Store` holds only
provider answers.

A team whose inputs and outputs are unchanged since its last run of the
window is not run at all. The window's `run_manifest.json` is its
outputs record: every run writes into it, last, the team's inputs digest
(`_inputs_digest`), its warnings and the sha256 of each file, so a failed
run leaves a record its new files do not match. The record is read only
for a history that is not cut (`may_be_shallow`), after the branch
listing. It stands in for the team while its digest is the team's and
the window directory holds each file it lists with the recorded bytes
and no artifact it does not list: the team then spawns one git process,
makes no `Store` call and loads, sends, renders and writes nothing. A
manifest that is not a JSON object, or a record whose names are not
artifact names, whose hashes are not sha256 or whose warnings are not
text, is dropped with a warning; any other miss, such as a manifest
written before records were, is logged at INFO. Deleting a window's
`run_manifest.json` or its directory, not the state dir, forces that
window to run again.

`run_analysis` gathers the run's inputs once, before any team, into one
`RunInputs`: the config, the roster, the attribution options, the two
instruction files' text (`read_instructions`: one that cannot be read
or is not UTF-8 text is a `ConfigError` that names it) and the inputs
digest's run-wide material: the code (`code_digest`), the window's
bounds and label, both model tiers, the provider mode, the roles,
co-author and exclude options, the roster and the texts. A team's
digest adds its own: the default and included branches and their tips,
whether the history may be cut (a cut history's outputs change when it
is deepened, its tips not) and the prior window's saved state as read.
It leaves out where the repository (a full history is decided by its
tips), out dir and state dir are, so the manifest's bytes do not depend
on them; the pool size and rate limit (outputs are equal for any); the
endpoint, key and replay directory (the model ids name the answers, as
in the provider cache's keys); and the other teams.

Teams overlap: `run_analysis` loads one team at a time on the calling
thread, in `cfg.repos` order, and hands the rest of each team but the
last to one of at most `min(teams - 1, analysis_workers)` team threads,
so a load overlaps the earlier teams' provider waits while one replay's
memory is held at a time. A load is split at the window head
(`attribution.read_snapshot`): once the kept head files are read and
measured, the team's file rows are asked for (`SendPool.ask`), and only
then are the included branches loaded, the history replayed and the
evidence aggregated, while those requests are in flight. So the first
request of a run leaves before the first replay, and a team's replay
overlaps its own file rows. The team's `_finish_team` takes their
answers; a replay that fails, or an interrupt before a team's finish
has started, lets go of them (`SendPool.drop`), cancelling the sends
not yet started. The calling thread finishes the last team itself once
fewer than `analysis_workers` others are unfinished, so at most
`analysis_workers` teams are in their provider stages, the file rows
asked at load aside, and a one-team run starts no team thread.
Every team shares one `chain.SendPool` of `analysis_workers` threads,
made once per run with the run's provider, `Store` and `CostLedger`. It
answers every request of the run, table rows, synthesis and its repair
retry alike, so `analysis_workers` caps them all. A request key is
looked up once per run: its first call reads the store, and later calls,
of any team, join that answer or its send, so a request is sent at most
once per run. Only `provider.send` runs on the pool's threads, and the
record of a send let go of, once it is answered; rendering, budget
checks, cache reads and writes, ledger entries and parsing stay on the
team's thread in row order, so outputs and each team's ledger entries
are the same for any pool size. A call that joins another team's send
waits for its record, so teams that ask for shared requests in one order
ledger them in that order. A fully cached team starts no send thread.
`chain.fill_tables` fills a team's tables in two batches, the file rows
asked at load and then the contribution rows that quote them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import logging
import os
import re
from concurrent.futures import FIRST_COMPLETED, wait
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

from . import attribution, gitio, ingest, tables
from .agents import chain
from .agents.chain import SynthesisBundle
from .config import RunConfig
from .errors import ConfigError, ContribSumError
from .identity import UNMAPPED, Roster, unmapped_signatures
from .report import ReportState, RunMeta, diff_windows
from .store import CostLedger, Store, write_atomic

logger = logging.getLogger(__name__)

MANIFEST_NAME = "run_manifest.json"
STATE_NAME = "report_state.json"
# every artifact a team may write, in write order; delta.md only after a prior window
ARTIFACT_NAMES = (
    "functionality.csv", "contribution.csv", "report.md", "contribution_set.json", "delta.md"
)

_SHA256 = re.compile(r"[0-9a-f]{64}")

# the package whose modules and prompt templates `code_digest` covers
PACKAGE = Path(__file__).resolve().parent


@dataclass
class TeamResult:
    team: str
    ok: bool
    error: str = ""
    artifacts: dict[str, str] = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)


def window_dir(cfg: RunConfig, team: str) -> Path:
    return Path(cfg.out_dir) / team / (cfg.window.label or "window")


def read_instructions(cfg: RunConfig) -> tuple[str, str]:
    """The sprint-instructions and project-description texts, "" for one
    not configured; a file that cannot be read or is not UTF-8 text raises
    ConfigError naming it."""
    texts = []
    for key, path in (
        ("sprint_instructions", cfg.sprint_instructions_path),
        ("project_description", cfg.project_description_path),
    ):
        try:
            texts.append(Path(path).read_text(encoding="utf-8") if path else "")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"{key}: {path}: {exc}") from exc
    return texts[0], texts[1]


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


@lru_cache(maxsize=1)
def code_digest() -> str:
    """sha256 over the relative path and bytes of every module and prompt
    template of the package, read once per process: an edit to any of them
    retires every team window's outputs record."""
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*")):
        name = path.relative_to(PACKAGE).as_posix()
        if "__pycache__" in name or not (
            path.suffix == ".py" or name.startswith("agents/prompts/")
        ):
            continue
        data = path.read_bytes()
        digest.update(f"{name}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


def may_be_shallow(root: str) -> bool:
    """Whether the repository at `root` is a shallow clone or has a graft
    file, or its git directory is not where a plain clone, a linked
    worktree or a bare repository keeps it. Read from the file system, with
    no git process. Such a history is cut short: its boundary commits show
    no parents and own every line they hold."""
    git_dir = os.path.join(root, ".git")
    if os.path.isfile(git_dir):  # a linked worktree or submodule: "gitdir: <path>"
        with open(git_dir, encoding="utf-8") as f:
            git_dir = os.path.join(root, f.read().partition("gitdir:")[2].strip())
    elif not os.path.isdir(git_dir):
        git_dir = root  # a bare repository
    if not os.path.isfile(os.path.join(git_dir, "HEAD")):
        return True
    common = os.path.join(git_dir, "commondir")  # a linked worktree's shared directory
    if os.path.isfile(common):
        with open(common, encoding="utf-8") as f:
            git_dir = os.path.join(git_dir, f.read().strip())
    return any(os.path.exists(os.path.join(git_dir, name)) for name in ("shallow", "info/grafts"))


@dataclass(frozen=True)
class RunInputs:
    """What every team of a run is made from besides its own repository and
    prior state, gathered once, before any team (`gather`, which reads the
    instruction files): the config, the roster, both instruction texts,
    the attribution options and the inputs digest's run-wide material."""

    cfg: RunConfig
    roster: Roster
    sprint_instructions: str
    project_description: str
    options: attribution.AttributionOptions
    material: dict  # `_inputs_digest`'s keys that every team shares

    @classmethod
    def gather(cls, cfg: RunConfig, roster: Roster) -> RunInputs:
        texts = read_instructions(cfg)
        options = attribution.AttributionOptions(cfg.coauthor_split, cfg.exclude_globs)
        material = {
            "code": code_digest(),
            "window": [cfg.window.start.isoformat(), cfg.window.end.isoformat(), cfg.window.label],
            "tiers": [dataclasses.asdict(cfg.analysis_tier), dataclasses.asdict(cfg.synthesis_tier)],
            "provider_mode": cfg.provider_mode,
            "roles_enabled": cfg.roles_enabled,
            "coauthor_split": cfg.coauthor_split,
            "exclude_globs": list(cfg.exclude_globs),
            "roster": [[[s.id, s.display_name] for s in roster.students], sorted(roster.aliases.items())],
            "texts": list(texts),
        }
        return cls(cfg, roster, *texts, options, material)


def _inputs_digest(run: RunInputs, repo: ingest.RepoHandle, cut: bool, prior_sha: str | None) -> str:
    """sha256 over what the team's outputs are made from (see the module
    docstring): the run's material and the team's branches and tips; `cut`
    is whether its history may be cut (`may_be_shallow`), and `prior_sha`
    the prior window's saved state's."""
    material = {
        **run.material,
        "default_branch": [repo.default_branch, repo.head_ref],
        "include_branches": [[b, repo.tips.get(b)] for b in run.cfg.include_branches],
        "cut": cut,
        "prior": prior_sha,
    }
    return hashlib.sha256(json.dumps(material, sort_keys=True).encode()).hexdigest()


def _recorded_outputs(manifest: object) -> tuple[str, list[str], dict[str, str]] | None:
    """(inputs digest, warnings, file name -> sha256) that a window's
    manifest records, or None when it holds no record. ValueError says why
    the record is not trusted."""
    if not isinstance(manifest, dict):
        raise ValueError("not a dict")
    if "inputs_digest" not in manifest:
        return None
    inputs, warnings, artifacts = map(manifest.get, ("inputs_digest", "warnings", "artifacts"))
    if not isinstance(inputs, str):
        raise ValueError("inputs digest is not text")
    if not isinstance(warnings, list) or not all(isinstance(w, str) for w in warnings):
        raise ValueError("warnings are not a list of text")
    # names only, so no file outside the window directory is ever read
    if not isinstance(artifacts, dict) or not artifacts.keys() <= set(ARTIFACT_NAMES):
        raise ValueError("artifacts are not artifact names")
    files = {**artifacts, STATE_NAME: manifest.get("state_sha256")}
    if not all(isinstance(sha, str) and _SHA256.fullmatch(sha) for sha in files.values()):
        raise ValueError("a file hash is not a sha256")
    return inputs, warnings, files


def _unchanged_outputs(team: str, directory: Path, inputs: str) -> tuple[list[str], list[str]] | None:
    """(artifact names in write order, warnings) of `team`'s last run of the
    window whose outputs are in `directory`, when the manifest there holds a
    trusted record written from `inputs` and every file it lists holds the
    recorded bytes; else None."""
    try:
        manifest = json.loads((directory / MANIFEST_NAME).read_bytes())
    except FileNotFoundError:
        return None  # a window not run before
    except (OSError, ValueError, RecursionError):
        logger.info("team outputs stale: %s (%s)", team, MANIFEST_NAME)
        return None
    try:
        record = _recorded_outputs(manifest)
    except ValueError as exc:
        logger.warning("team outputs record dropped: %s (%s)", team, exc)
        return None
    if record is None:
        logger.info("team outputs stale: %s (no record)", team)
        return None
    recorded, warnings, files = record
    if recorded != inputs:
        logger.info("team outputs stale: %s (inputs)", team)
        return None
    # every listed file as recorded, and no artifact the last run did not
    # write, such as an old delta
    for name in dict.fromkeys([*files, *ARTIFACT_NAMES]):
        try:
            sha = hashlib.sha256((directory / name).read_bytes()).hexdigest()
        except OSError:
            sha = None
        if sha != files.get(name):
            logger.info("team outputs stale: %s (%s)", team, name)
            return None
    logger.info("team outputs unchanged: %s", team)
    return [name for name in ARTIFACT_NAMES if name in files], warnings


@dataclass(frozen=True)
class LoadedTeam:
    """A replayed team's load, which its `_finish_team` takes."""

    repo: ingest.RepoHandle
    prior: ReportState | None  # the most recent earlier window's saved state
    digest: str
    file_rows: chain.Batch
    cset: attribution.ContributionSet


def _load_team(
    result: TeamResult, repo_path: str, run: RunInputs, pool: chain.SendPool
) -> LoadedTeam | None:
    """The team's load; or None, with `result` taken from the window's
    outputs record, when its inputs and outputs are unchanged. The record
    is read only for a history that is not cut. The file rows are asked for
    once the window head is read and measured, so they are in flight while
    the replay runs; if the replay fails, they are let go of, and each
    one in flight records itself once it is answered."""
    cfg = run.cfg
    repo = ingest.open_repo(repo_path, cfg.branch)
    cut = may_be_shallow(repo_path)
    prior, prior_sha = _find_prior_state(cfg, result.team) or (None, None)
    digest = _inputs_digest(run, repo, cut, prior_sha)
    if not cut:
        out_dir = window_dir(cfg, result.team)
        remembered = _unchanged_outputs(result.team, out_dir, digest)
        if remembered is not None:
            artifacts, result.warnings = remembered
            result.artifacts = {name: str(out_dir / name) for name in artifacts}
            return None
    with gitio.ObjectReader(repo.root_path) as reader:
        snapshot = attribution.read_snapshot(repo, cfg.window, run.options, reader)
        file_rows = pool.ask(chain.file_calls(cfg.analysis_tier, snapshot.files), result.team)
        try:
            cset = attribution.build_contribution_set(
                repo, cfg.window, run.roster, run.options, cfg.include_branches, snapshot
            )
        except BaseException:
            pool.drop(file_rows)
            raise
    return LoadedTeam(repo, prior, digest, file_rows, cset)


def _finish_team(
    result: TeamResult, loaded: LoadedTeam, run: RunInputs, pool: chain.SendPool
) -> None:
    """Tables, synthesis, validation, render and write of a replayed team
    whose file rows were asked for at its load; its manifest, which holds
    the outputs record, is written last."""
    cfg, roster, repo, cset = run.cfg, run.roster, loaded.repo, loaded.cset
    team = result.team
    functionality_rows, contribution_rows = chain.fill_tables(
        pool, cfg.analysis_tier, loaded.file_rows, cset, roster, team
    )
    bundle = SynthesisBundle(
        functionality_rows=functionality_rows,
        contribution_rows=contribution_rows,
        sprint_instructions=run.sprint_instructions,
        project_description=run.project_description,
        roles_enabled=cfg.roles_enabled,
        roster=roster,
        contribution_set=cset,
    )
    summaries, team_summary = chain.synthesize(pool, cfg.synthesis_tier, bundle, team)
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

    # name -> sha256 of the bytes written, each file written as soon as it is made
    written: dict[str, str] = {}

    def write(name: str, data: bytes | str) -> None:
        data = data.encode("utf-8") if isinstance(data, str) else data
        write_atomic(out_dir / name, data)
        written[name] = hashlib.sha256(data).hexdigest()

    for name, table in (
        ("functionality.csv", tables.FunctionalityTable(tuple(functionality_rows))),
        ("contribution.csv", tables.ContributionTable(tuple(contribution_rows))),
    ):
        csv = io.BytesIO()
        tables.write_csv(table, csv)
        write(name, csv.getvalue())
    write("report.md", document.markdown)
    write("contribution_set.json", cset.to_json())
    write(STATE_NAME, state.to_json())
    if loaded.prior is not None:
        write("delta.md", diff_windows(loaded.prior, state) or "No changes between windows.\n")
    else:  # a delta left by a run that found a prior window since removed
        (out_dir / "delta.md").unlink(missing_ok=True)

    artifact_names = [name for name in ARTIFACT_NAMES if name in written]
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
        "artifacts": {name: written[name] for name in artifact_names},
        # the outputs record (`_recorded_outputs`)
        "inputs_digest": loaded.digest,
        "state_sha256": written[STATE_NAME],
        "warnings": result.warnings,
    }
    write(MANIFEST_NAME, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    result.artifacts = {name: str(out_dir / name) for name in artifact_names}


def _find_prior_state(cfg: RunConfig, team: str) -> tuple[ReportState, str] | None:
    """Most recent earlier window's report state for this team, if any, and
    the sha256 of its bytes as read; the state in the window's own directory
    is never one, as this run replaces it."""
    team_dir = Path(cfg.out_dir) / team
    if not team_dir.exists():
        return None
    own = window_dir(cfg, team)
    # window starts may carry different UTC offsets: compare instants, not strings
    best: tuple[ReportState, bytes] | None = None
    for state_path in team_dir.glob(f"*/{STATE_NAME}"):
        if state_path.parent == own:
            continue
        try:
            data = state_path.read_bytes()
            state = ReportState.from_json(data.decode("utf-8"))
        except (OSError, ValueError):
            continue
        start = state.meta.window.start
        if start < cfg.window.start and (best is None or start > best[0].meta.window.start):
            best = state, data
    return best and (best[0], hashlib.sha256(best[1]).hexdigest())


def run_analysis(cfg: RunConfig, roster: Roster, provider, store: Store, ledger: CostLedger) -> list[TeamResult]:
    """Analyze every configured team, as the module docstring describes;
    results in `cfg.repos` order. The run's inputs are gathered first
    (`RunInputs.gather`), once. On an interrupt no team or send that has
    not started runs, a team thread's next send raises, a loaded team's
    file rows not yet taken are let go of, and the interrupt is raised once
    the sends in flight are back and have recorded themselves."""
    run = RunInputs.gather(cfg, roster)
    sends = chain.SendPool(cfg.analysis_workers, provider, store, ledger)
    # threads start on demand, so a one-team run starts none
    teams = chain.ThreadPool(
        max(1, min(len(cfg.repos) - 1, cfg.analysis_workers)), "contribsum-team"
    )
    results = [TeamResult(team=team, ok=True) for team, _ in cfg.repos]
    loads: list[LoadedTeam] = []
    try:
        finishing = []
        for n, (result, (_, path)) in enumerate(zip(results, cfg.repos), start=1):
            loaded = _recorded(result, _load_team, result, path, run, sends)
            if loaded is None:  # failed, or its outputs are unchanged
                continue
            loads.append(loaded)
            args = (result, loaded, run, sends)
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
        for loaded in loads:  # on an interrupt, a team whose finish never started
            sends.drop(loaded.file_rows)
        sends.shutdown()
    return results
