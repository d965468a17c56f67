"""Shared definition of the recorded demo session (record + replay sides).

The session analyzes a two-student security-focused repository: one
student builds authentication across backend and frontend, the other
makes one small frontend change. Both the recorder script and the
cost-ledger acceptance test drive providers through this exact sequence,
so the recorded request digests always line up.
"""

from __future__ import annotations

from contextlib import closing
from datetime import datetime, timezone
from pathlib import Path

from contribsum import synthfix
from contribsum.agents import chain
from contribsum.agents.provider import ModelTier
from contribsum.attribution import build_contribution_set
from contribsum.ingest import AnalysisWindow
from contribsum.store import CostLedger, Store
from contribsum.synthfix import Insert, RepoScript, SetFile, Step

SESSION_DIR_NAME = "replay_session"
SESSION_TEAM = "security_focus"

SESSION_WINDOW = AnalysisWindow(
    start=datetime(2024, 6, 1, tzinfo=timezone.utc),
    end=datetime(2024, 7, 1, tzinfo=timezone.utc),
    label="week-2",
)

# realistic per-1k rates for a cheap analysis model and a strong one
ANALYSIS_TIER = ModelTier("analysis", "mini-model", 128_000, 0.00015, 0.0006)
SYNTHESIS_TIER = ModelTier("synthesis", "big-model", 128_000, 0.0025, 0.01)

ROSTER = (
    "dave | John Doe | dave@campus.edu\n"
    "mia | Mia Park | mia@campus.edu\n"
)


def session_script() -> RepoScript:
    return RepoScript(
        name="security_focus",
        roster_text=ROSTER,
        steps=[
            Step(
                author_name="John Doe",
                author_email="dave@campus.edu",
                message="backend auth module with token checks",
                ops=(
                    SetFile(
                        "auth.py",
                        (
                            "import secrets",
                            "",
                            "def issue_token(user):",
                            "    token = secrets.token_hex(16)",
                            "    SESSIONS[token] = user",
                            "    return token",
                            "",
                            "def check_token(token):",
                            "    return token in SESSIONS",
                            "",
                            "SESSIONS = {}",
                        ),
                    ),
                ),
            ),
            Step(
                author_name="John Doe",
                author_email="dave@campus.edu",
                message="password recovery flow",
                ops=(
                    SetFile(
                        "rec_password.py",
                        (
                            "from auth import issue_token",
                            "",
                            "def start_recovery(email):",
                            "    code = issue_token(email)",
                            "    send_mail(email, code)",
                            "    return code",
                            "",
                            "def send_mail(email, code):",
                            "    OUTBOX.append((email, code))",
                            "",
                            "OUTBOX = []",
                        ),
                    ),
                ),
            ),
            Step(
                author_name="John Doe",
                author_email="dave@campus.edu",
                message="user store with password hashing",
                ops=(
                    SetFile(
                        "mongo_users.py",
                        (
                            "import hashlib",
                            "",
                            "USERS = {}",
                            "",
                            "def hash_password(raw):",
                            "    return hashlib.sha256(raw.encode()).hexdigest()",
                            "",
                            "def update_password(user, raw):",
                            "    if user not in USERS:",
                            "        raise KeyError(user)",
                            "    USERS[user] = hash_password(raw)",
                            "",
                            "def update_recovery_code(user, code):",
                            "    USERS.setdefault(user, '')",
                            "    RECOVERY[user] = code",
                            "",
                            "RECOVERY = {}",
                        ),
                    ),
                ),
            ),
            Step(
                author_name="John Doe",
                author_email="dave@campus.edu",
                message="frontend login form",
                ops=(
                    SetFile(
                        "pages/login.html",
                        (
                            "<html>",
                            "  <body>",
                            '    <form action="/login" method="post">',
                            '      <input name="user" type="text">',
                            '      <input name="password" type="password">',
                            "      <button>Sign in</button>",
                            "    </form>",
                            "  </body>",
                            "</html>",
                        ),
                    ),
                ),
            ),
            Step(
                author_name="John Doe",
                author_email="dave@campus.edu",
                message="frontend password recovery page",
                ops=(
                    SetFile(
                        "pages/rec_password.html",
                        (
                            "<html>",
                            "  <body>",
                            "    <h1>Recover your password</h1>",
                            '    <form action="/recover" method="post">',
                            '      <input name="email" type="email">',
                            "      <button>Send code</button>",
                            "    </form>",
                            "  </body>",
                            "</html>",
                        ),
                    ),
                ),
            ),
            Step(
                author_name="Mia Park",
                author_email="mia@campus.edu",
                message="welcome blurb on the login page",
                ops=(
                    Insert(
                        "pages/login.html",
                        3,
                        ("    <p>Welcome back! Please sign in.</p>",),
                    ),
                ),
            ),
        ],
        checkpoints=[(5, "final")],
    )


def analysis_rows(pool, cset, roster):
    """Functionality and contribution rows of the session window, filled
    as the pipeline fills them."""
    file_rows = pool.ask(chain.file_calls(ANALYSIS_TIER, cset.files), SESSION_TEAM)
    return chain.fill_tables(pool, ANALYSIS_TIER, file_rows, cset, roster, SESSION_TEAM)


def run_session(provider, workdir: Path, ledger: CostLedger) -> dict[str, int]:
    """Drive the full chain once, on a send pool over a fresh `Store` under
    `workdir` and `ledger`; returns aggregate token totals."""
    handle, truth = synthfix.build(session_script(), workdir / SESSION_TEAM)
    roster = truth.roster
    cset = build_contribution_set(handle, SESSION_WINDOW, roster)

    store = Store(workdir / "cache")
    with closing(store), chain.SendPool(2, provider, store, ledger) as pool:
        functionality, contribution_rows = analysis_rows(pool, cset, roster)
        bundle = chain.SynthesisBundle(
            functionality_rows=functionality,
            contribution_rows=contribution_rows,
            sprint_instructions="Ship login and recovery flows.",
            project_description="A clinical trials portal with secure access.",
            roles_enabled=False,
            roster=roster,
            contribution_set=cset,
        )
        chain.synthesize(pool, SYNTHESIS_TIER, bundle, SESSION_TEAM)

    return {"summaries": sum(1 for s in roster.students)}
