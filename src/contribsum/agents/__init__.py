"""LLM agent chain: tiered providers, analysis rows, synthesis, validation."""

from .chain import (
    RoleAssignment,
    StudentSummary,
    SynthesisBundle,
    TeamSummary,
    ValidationReport,
    record_usage,
    synthesize,
    validate_summary,
)
from .provider import (
    HttpProvider,
    MockProvider,
    ModelTier,
    ProviderResponse,
    ReplayProvider,
    TokenBucket,
    estimate_tokens,
)

__all__ = [
    "HttpProvider",
    "MockProvider",
    "ModelTier",
    "ProviderResponse",
    "ReplayProvider",
    "RoleAssignment",
    "StudentSummary",
    "SynthesisBundle",
    "TeamSummary",
    "TokenBucket",
    "ValidationReport",
    "estimate_tokens",
    "record_usage",
    "synthesize",
    "validate_summary",
]
