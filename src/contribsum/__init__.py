"""contribsum: summarize per-student code contributions in team repositories.

Pipeline: mine local git clones for line-level authorship, compress the
evidence into functionality/contribution tables, synthesize per-student
and team summaries through a tiered model chain, and cross-validate every
claim against the attribution ground truth.
"""

__version__ = "0.1.0"

from .attribution import (
    AttributionOptions,
    ContributionEvidence,
    ContributionSet,
    LineAttribution,
    blame_snapshot,
    build_contribution_set,
)
from .identity import CoAuthorTag, Roster, StudentId, load_roster, parse_coauthors, resolve
from .gitio import Commit
from .ingest import AnalysisWindow, RepoHandle, list_commits, open_repo
from .metrics import (
    ComplexityReport,
    FileMetrics,
    classify_file,
    compute_file_metrics,
    cyclomatic,
    function_spans,
    notebook_complexity,
    tag_count,
)

__all__ = [
    "AnalysisWindow",
    "AttributionOptions",
    "CoAuthorTag",
    "Commit",
    "ComplexityReport",
    "ContributionEvidence",
    "ContributionSet",
    "FileMetrics",
    "LineAttribution",
    "RepoHandle",
    "Roster",
    "StudentId",
    "blame_snapshot",
    "build_contribution_set",
    "classify_file",
    "compute_file_metrics",
    "cyclomatic",
    "function_spans",
    "list_commits",
    "load_roster",
    "notebook_complexity",
    "open_repo",
    "parse_coauthors",
    "resolve",
    "tag_count",
]
