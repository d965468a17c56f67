"""Exception types shared across the package."""

from __future__ import annotations


class ContribSumError(Exception):
    """Base class for every error this package raises deliberately."""


class NotARepository(ContribSumError):
    """The given path does not contain a readable git object store."""


class GitError(ContribSumError):
    """A git process failed or died; the message names the repository."""


class BranchNotFound(ContribSumError):
    def __init__(self, branch: str):
        super().__init__(f"branch not found: {branch}")
        self.branch = branch


class UnknownCommit(ContribSumError):
    def __init__(self, ref: str):
        super().__init__(f"unknown commit: {ref}")
        self.ref = ref


class DuplicateAlias(ContribSumError):
    def __init__(self, alias: str, first: str, second: str):
        super().__init__(f"alias {alias!r} claimed by both {first!r} and {second!r}")
        self.alias = alias


class MalformedRoster(ContribSumError):
    def __init__(self, line_no: int, reason: str):
        super().__init__(f"roster line {line_no}: {reason}")
        self.line_no = line_no


class MalformedNotebook(ContribSumError):
    """The document is not a parseable notebook JSON container."""


class ProviderError(ContribSumError):
    """A model provider call failed after the configured retries."""

    def __init__(self, message: str, attempts: int = 1):
        super().__init__(f"{message} (after {attempts} attempt{'s' if attempts != 1 else ''})")
        self.attempts = attempts


class BudgetExceeded(ContribSumError):
    """Request content cannot fit the tier's input budget even after truncation."""


class TemplateViolation(ContribSumError):
    """Synthesis output does not match the required section structure."""


class ScriptError(ContribSumError):
    def __init__(self, step: int | str, reason: str):
        super().__init__(f"script step {step}: {reason}")
        self.step = step


class TeamMismatch(ContribSumError):
    """Attempted to diff report documents belonging to different teams."""


class ConfigError(ContribSumError):
    """Run configuration is invalid; raised before any provider call."""
