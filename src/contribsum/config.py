"""Run configuration: one INI-style file per course, env vars for secrets.

Sections: [run] (paths, window, flags), [repos] (team = clone path),
[analysis_model] / [synthesis_model] (tiers with rates), [provider]
(endpoint, replay directory). LLM_API_KEY overrides any configured key.
The state directory is a `--state` flag's, else CONTRIBSUM_STATE, else
[run] state_dir, else `.contribsum`. A path in the file is taken from its
directory, and a path given as a flag from the working directory. A
[run] key that no option reads loads with a warning, so an old config
still runs and a misspelt key shows.
"""

from __future__ import annotations

import configparser
import logging
import math
import os
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path

from .agents.provider import ModelTier
from .attribution import DEFAULT_EXCLUDE_GLOBS
from .errors import ConfigError
from .ingest import AnalysisWindow

logger = logging.getLogger(__name__)

API_KEY_ENV_VAR = "LLM_API_KEY"

PROVIDER_MODES = ("mock", "replay", "live")

MAX_ANALYSIS_WORKERS = 64


@dataclass
class RunConfig:
    repos: list[tuple[str, str]]  # (team id, clone path)
    roster_path: str
    window: AnalysisWindow
    analysis_tier: ModelTier
    synthesis_tier: ModelTier
    provider_mode: str = "mock"
    sprint_instructions_path: str | None = None
    project_description_path: str | None = None
    roles_enabled: bool = False
    coauthor_split: bool = True
    include_branches: tuple[str, ...] = ()
    exclude_globs: tuple[str, ...] = DEFAULT_EXCLUDE_GLOBS
    endpoint: str = ""
    api_key: str = ""
    replay_dir: str = ""
    out_dir: str = "out"
    state_dir: str = ".contribsum"
    analysis_workers: int = 8  # provider requests in flight per run, and teams sending at once
    rate_limit: float = 0.0  # provider requests/second, 0 = unlimited
    branch: str | None = None  # explicit default branch override

    def validate(self, inputs: bool = True) -> None:
        """Reject an unusable configuration; with `inputs`, also require what
        `analyze` and `check` read and `render` does not: the roster and
        instruction files, the provider's endpoint, key or replay directory."""
        if not self.repos:
            raise ConfigError("no repositories configured ([repos] section empty)")
        paths = [p for _, p in self.repos]
        if len(set(paths)) != len(paths):
            raise ConfigError("repository paths must be distinct")
        if self.provider_mode not in PROVIDER_MODES:
            raise ConfigError(f"provider must be one of {PROVIDER_MODES}, got {self.provider_mode!r}")
        if not 1 <= self.analysis_workers <= MAX_ANALYSIS_WORKERS:
            raise ConfigError(f"analysis_workers must be between 1 and {MAX_ANALYSIS_WORKERS}")
        if not 0 <= self.rate_limit < math.inf:
            raise ConfigError("rate_limit must be a finite, non-negative number")
        if not inputs:
            return
        if self.provider_mode == "live":
            if not self.endpoint:
                raise ConfigError("live provider requires [provider] endpoint")
            if not self.resolved_api_key():
                raise ConfigError(
                    f"live provider requires an API key ({API_KEY_ENV_VAR} or [provider] api_key)"
                )
        if self.provider_mode == "replay" and not self.replay_dir:
            raise ConfigError("replay provider requires [provider] replay_dir")
        if not Path(self.roster_path).exists():
            raise ConfigError(f"roster file not found: {self.roster_path}")
        for key in ("sprint_instructions_path", "project_description_path"):
            value = getattr(self, key)
            if value and not Path(value).exists():
                raise ConfigError(f"{key.replace('_path', '')} file not found: {value}")

    def resolved_api_key(self) -> str:
        return os.environ.get(API_KEY_ENV_VAR) or self.api_key


def _parse_bool(raw: str, what: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"{what}: expected on/off, got {raw!r}")


def _parse_when(raw: str, what: str) -> datetime:
    try:
        moment = datetime.fromisoformat(raw.replace("Z", "+00:00"))
    except ValueError:
        raise ConfigError(f"{what}: not an ISO timestamp: {raw!r}")
    if moment.tzinfo is None:
        moment = moment.replace(tzinfo=timezone.utc)
    return moment


def _parse_number(raw: str, kind: type, what: str):
    try:
        return kind(raw)
    except ValueError:
        raise ConfigError(f"{what}: expected a number, got {raw!r}")


def _tier(parser: configparser.ConfigParser, section: str, tier_name: str) -> ModelTier:
    if not parser.has_section(section):
        raise ConfigError(f"missing [{section}] section")
    try:
        return ModelTier(
            tier=tier_name,
            model_id=parser.get(section, "model_id"),
            max_input_tokens=parser.getint(section, "max_input_tokens"),
            cost_per_1k_input=parser.getfloat(section, "cost_per_1k_input", fallback=0.0),
            cost_per_1k_output=parser.getfloat(section, "cost_per_1k_output", fallback=0.0),
        )
    except (configparser.Error, ValueError) as exc:
        raise ConfigError(f"[{section}]: {exc}")


def resolve_window(
    *,
    window_start: str | None,
    window_end: str | None,
    window_label: str | None,
    sprint_start: str | None,
    week: int | None,
) -> AnalysisWindow:
    """Explicit bounds, or a --week preset against the sprint start date."""
    if week is not None:
        if not sprint_start:
            raise ConfigError("--week requires sprint_start in the [run] section")
        if week < 1:
            raise ConfigError("--week must be 1 or greater")
        start = _parse_when(sprint_start, "sprint_start") + timedelta(weeks=week - 1)
        return AnalysisWindow(start=start, end=start + timedelta(weeks=1), label=f"week-{week}")
    if not window_start or not window_end:
        raise ConfigError("window_start and window_end (or --week) are required")
    start = _parse_when(window_start, "window_start")
    end = _parse_when(window_end, "window_end")
    if not start < end:
        raise ConfigError("window_start must precede window_end")
    return AnalysisWindow(start=start, end=end, label=window_label or "window")


def load_config(path: str | Path, overrides: dict | None = None, inputs: bool = True) -> RunConfig:
    """Parse and validate the run configuration file.

    `overrides` carries CLI flag values (same key names as [run] options,
    plus `week`); only non-None entries take effect. `inputs` is passed
    to `RunConfig.validate`. Each [run] key that no option reads, such as
    a misspelt one or the removed `jobs`, is logged as a warning.
    """
    overrides = {k: v for k, v in (overrides or {}).items() if v is not None}
    config_path = Path(path)
    if not config_path.exists():
        raise ConfigError(f"config file not found: {config_path}")
    parser = configparser.ConfigParser()
    try:
        parser.read(config_path, encoding="utf-8")
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {config_path}: {exc}")
    if not parser.has_section("run"):
        raise ConfigError("missing [run] section")

    base = config_path.parent

    def rel(value: str | None) -> str | None:
        if not value:
            return None
        p = Path(value)
        return str(p if p.is_absolute() else base / p)

    read: set[str] = set()

    def run_opt(key: str, fallback: str | None = None, path: bool = False) -> str | None:
        read.add(key)
        if key in overrides:
            return str(overrides[key])  # a flag's path is the working directory's
        value = parser.get("run", key, fallback=fallback)
        return rel(value) if path else value

    repos: list[tuple[str, str]] = []
    if parser.has_section("repos"):
        for team, repo_path in parser.items("repos"):
            repos.append((team, rel(repo_path) or repo_path))

    window = resolve_window(
        window_start=run_opt("window_start"),
        window_end=run_opt("window_end"),
        window_label=run_opt("window_label"),
        sprint_start=run_opt("sprint_start"),
        week=overrides.get("week"),
    )

    roster = run_opt("roster", path=True)
    if not roster:
        raise ConfigError("[run] roster is required")

    include_raw = run_opt("include_branches", "") or ""
    # the first of each name, in order
    include_branches = tuple(dict.fromkeys(b.strip() for b in include_raw.split(",") if b.strip()))
    exclude_raw = run_opt("exclude_globs", "") or ""
    if exclude_raw.strip():
        exclude_globs = tuple(g.strip() for g in exclude_raw.split(",") if g.strip())
    else:
        exclude_globs = DEFAULT_EXCLUDE_GLOBS

    cfg = RunConfig(
        repos=repos,
        roster_path=roster,
        window=window,
        analysis_tier=_tier(parser, "analysis_model", "analysis"),
        synthesis_tier=_tier(parser, "synthesis_model", "synthesis"),
        provider_mode=(run_opt("provider", "mock") or "mock").lower(),
        sprint_instructions_path=run_opt("sprint_instructions", path=True),
        project_description_path=run_opt("project_description", path=True),
        roles_enabled=_parse_bool(run_opt("roles", "off") or "off", "[run] roles"),
        coauthor_split=_parse_bool(run_opt("coauthor_split", "on") or "on", "[run] coauthor_split"),
        include_branches=include_branches,
        exclude_globs=exclude_globs,
        endpoint=parser.get("provider", "endpoint", fallback=""),
        api_key=parser.get("provider", "api_key", fallback=""),
        replay_dir=rel(parser.get("provider", "replay_dir", fallback="")) or "",
        out_dir=run_opt("out_dir", "out", path=True) or "out",
        state_dir=run_opt("state_dir", ".contribsum", path=True) or ".contribsum",
        analysis_workers=_parse_number(
            run_opt("analysis_workers") or str(RunConfig.analysis_workers),
            int,
            "[run] analysis_workers",
        ),
        rate_limit=_parse_number(run_opt("rate_limit") or "0", float, "[run] rate_limit"),
        branch=run_opt("branch"),
    )
    for key in parser.options("run"):
        if key not in read:
            logger.warning("[run] %s is not a known option; ignored", key)
    cfg.validate(inputs)
    return cfg
