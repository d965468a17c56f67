"""Regenerate the recorded provider session under tests/data/replay_session/.

Run from the repository root after changing prompt templates (recorded
request digests pin the exact prompts):

    python3 tests/data/record_session.py

The session records every provider call for one analysis of the
security-focused demo team, using the deterministic mock as the inner
provider, so the recording itself is reproducible.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))  # session_common lives in tests/

from contribsum.agents.provider import MockProvider, ReplayProvider  # noqa: E402
from contribsum.store import CostLedger  # noqa: E402

from session_common import SESSION_DIR_NAME, run_session  # noqa: E402


def main() -> None:
    session_dir = HERE / SESSION_DIR_NAME
    if session_dir.exists():
        shutil.rmtree(session_dir)
    with tempfile.TemporaryDirectory() as tmp:
        inner = MockProvider()
        recorder = ReplayProvider(session_dir, inner=inner)
        totals = run_session(recorder, Path(tmp), CostLedger())
    print(f"recorded {len(list(session_dir.glob('*.json')))} requests")
    print(f"session token totals: {totals}")


if __name__ == "__main__":
    main()
