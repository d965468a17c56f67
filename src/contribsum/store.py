"""The run's `Store`, a digest-checked key -> JSON cache, plus the cost ledger.

One `Store` holds the provider cache, whose keys `cache_key` derives from
each request, and the run's memo of what git decides (see `memo`). Cache
layout: one JSON file per entry under a two-level hex fanout
(`cache/ab/cdef...json`), each carrying its payload digest so tampering
is detected on read. The ledger is append-only line-delimited JSON:
crash-safe appends, trivially auditable.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path

logger = logging.getLogger(__name__)

STATE_ENV_VAR = "CONTRIBSUM_STATE"
DEFAULT_STATE_DIR = ".contribsum"


def resolve_state_dir(configured: str | None = None, flag: str | None = None) -> Path:
    """State directory: a `--state` flag beats CONTRIBSUM_STATE env beats
    config beats default."""
    env = os.environ.get(STATE_ENV_VAR)
    return Path(flag or env or configured or DEFAULT_STATE_DIR)


def cache_key(template_hash: str, model_id: str, payload: str) -> str:
    """Collision-resistant digest over everything that shapes a response."""
    material = "\x1f".join(
        # the empty first field keeps the keys of existing caches
        ["", template_hash, model_id, hashlib.sha256(payload.encode()).hexdigest()]
    )
    return hashlib.sha256(material.encode()).hexdigest()


def write_atomic(path: str | Path, data: bytes | str) -> None:
    """Replace `path` with `data` (text as UTF-8) by renaming a temp file
    written beside it, so a reader never sees a partly written file."""
    path = Path(path)
    if isinstance(data, str):
        data = data.encode("utf-8")
    # unique temp name: concurrent writers of the same path must not clash
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


class Store:
    """Durable key → JSON payload cache with digest verification."""

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)

    def _path(self, key: str) -> Path:
        return self.directory / key[:2] / f"{key[2:]}.json"

    def get(self, key: str) -> dict | None:
        """Cached payload, or None when absent or corrupt (corrupt warns).
        An entry that is valid JSON of the wrong shape, or nested past the
        interpreter's recursion limit, is corrupt too."""
        path = self._path(key)
        try:
            wrapped = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            return None
        except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError):
            wrapped = None
        payload_text = wrapped.get("payload_json") if isinstance(wrapped, dict) else None
        if not isinstance(payload_text, str):
            logger.warning("corrupt cache entry dropped: %s", path)
            return None
        digest = hashlib.sha256(payload_text.encode()).hexdigest()
        if digest != wrapped.get("digest"):
            logger.warning("cache digest mismatch, entry dropped: %s", path)
            return None
        return json.loads(payload_text)

    def put(self, key: str, payload: dict) -> None:
        """Idempotent store; equal payloads overwrite with identical bytes."""
        payload_text = json.dumps(payload, sort_keys=True)
        wrapped = {
            "digest": hashlib.sha256(payload_text.encode()).hexdigest(),
            "payload_json": payload_text,
        }
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        write_atomic(path, json.dumps(wrapped, sort_keys=True))


@dataclass(frozen=True)
class LedgerEntry:
    timestamp: float
    tier: str
    model_id: str
    input_tokens: int
    output_tokens: int
    cost: float
    team: str = ""  # the team whose call sent the request; "" in ledgers written without it


# the types a ledger line's fields must have to load as a LedgerEntry
_FIELD_TYPES = {
    "timestamp": (int, float),
    "tier": str,
    "model_id": str,
    "input_tokens": int,
    "output_tokens": int,
    "cost": (int, float),
    "team": str,
}


class CostLedger:
    """Append-only usage ledger with running totals per tier.

    When constructed with a path, every append is persisted immediately;
    without one the ledger is memory-only (handy in tests). Appends are
    safe from several threads. A line cut short by a killed run, one that
    is not UTF-8, one nested past the interpreter's recursion limit, or
    one that is valid JSON but no entry (a field missing or of the wrong
    type), is skipped with a warning, and the next append
    starts on a fresh line so a fragment never fuses with an entry.
    """

    def __init__(self, path: str | Path | None = None):
        self.path = Path(path) if path else None
        self.entries: list[LedgerEntry] = []
        self._fresh_line = True
        self._lock = threading.Lock()
        if self.path and self.path.exists():
            data = self.path.read_bytes()
            self._fresh_line = not data or data.endswith(b"\n")
            for no, line in enumerate(data.splitlines(), start=1):
                if not line.strip():
                    continue
                try:
                    entry = LedgerEntry(**json.loads(line.decode("utf-8")))
                    if not all(isinstance(getattr(entry, f), t) for f, t in _FIELD_TYPES.items()):
                        raise TypeError(f"ledger line {no} has a field of the wrong type")
                    self.entries.append(entry)
                except (UnicodeDecodeError, json.JSONDecodeError, TypeError, RecursionError):
                    logger.warning("truncated ledger line %d skipped: %s", no, self.path)

    def add(
        self,
        tier: str,
        model_id: str,
        input_tokens: int,
        output_tokens: int,
        cost: float,
        timestamp: float | None = None,
        team: str = "",
    ) -> LedgerEntry:
        if input_tokens < 0 or output_tokens < 0:
            raise ValueError("token counts must be non-negative")
        entry = LedgerEntry(
            timestamp=time.time() if timestamp is None else timestamp,
            tier=tier,
            model_id=model_id,
            input_tokens=input_tokens,
            output_tokens=output_tokens,
            cost=cost,
            team=team,
        )
        # every team thread of a run records into one ledger: the list, the
        # file and the fresh-line flag change together
        with self._lock:
            self.entries.append(entry)
            if self.path:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                with open(self.path, "a", encoding="utf-8") as fh:
                    if not self._fresh_line:
                        fh.write("\n")
                    fh.write(json.dumps(entry.__dict__, sort_keys=True) + "\n")
                self._fresh_line = True
        return entry

    def totals_by_tier(self) -> dict[str, float]:
        totals: dict[str, float] = {}
        for entry in self.entries:
            totals[entry.tier] = totals.get(entry.tier, 0.0) + entry.cost
        return totals

    @property
    def total(self) -> float:
        return sum(e.cost for e in self.entries)


def ledger_report(ledger: CostLedger) -> str:
    """Human-readable per-tier, per-team and grand-total cost summary; entries
    that name no team are listed as `(no team)`."""
    lines = ["Cost ledger"]
    totals = ledger.totals_by_tier()
    tokens_in = sum(e.input_tokens for e in ledger.entries)
    tokens_out = sum(e.output_tokens for e in ledger.entries)
    for tier in sorted(totals):
        count = sum(1 for e in ledger.entries if e.tier == tier)
        lines.append(f"  {tier}: {count} calls, ${totals[tier]:.2f}")
    for team in sorted({e.team for e in ledger.entries}):
        entries = [e for e in ledger.entries if e.team == team]
        cost = sum(e.cost for e in entries)
        lines.append(f"  team {team or '(no team)'}: {len(entries)} calls, ${cost:.2f}")
    if not totals:
        lines.append("  (no entries)")
    lines.append(f"  tokens: {tokens_in} in / {tokens_out} out")
    lines.append(f"  total: ${ledger.total:.2f}")
    return "\n".join(lines)
