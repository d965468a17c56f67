"""The run's `Store`, a digest-checked key -> JSON cache, plus the cost ledger.

One `Store` holds the provider cache, whose keys `cache_key` derives from
each request; `chain.SendPool` alone reads and writes it. Rows an earlier
release wrote for its memo of `git log` output and window heads stay in
an existing database, and are never read again.

Cache layout: one SQLite database per store directory
(`cache/store.sqlite3`), write-ahead logged, with one row per entry in
`entries(key, body)`. Each body carries its payload digest, so tampering
is detected on read; a put is one statement, so a killed run keeps every
put that completed. A database that is not one, or is cut short, is
moved aside with its log, both as found, with a warning, and the store
starts empty; so is one that SQLite finds malformed on a later `get` or
`put`. Files of the one-file-per-entry layout that came before the
database (`cache/ab/cdef...json`) are left where they are and never
read, so a run over such a directory sends, and pays for, their
requests once more. The ledger is append-only line-delimited JSON:
crash-safe appends, trivially auditable.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import shutil
import threading
import time
import typing
from contextlib import closing
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


DB_NAME = "store.sqlite3"
_CACHE_KIB = 64  # the connection's page cache; entries are read once per run


def _payload_text(body, where: str) -> str | None:
    """The payload JSON text of a stored body, or None with a warning when
    the body is corrupt: not UTF-8 JSON text, of the wrong shape, nested
    past the interpreter's recursion limit, or not matching its digest."""
    try:
        wrapped = json.loads(body.decode("utf-8") if isinstance(body, bytes) else body)
    except (TypeError, UnicodeDecodeError, json.JSONDecodeError, RecursionError):
        wrapped = None
    payload_text = wrapped.get("payload_json") if isinstance(wrapped, dict) else None
    if not isinstance(payload_text, str):
        logger.warning("corrupt cache entry dropped: %s", where)
        return None
    if hashlib.sha256(payload_text.encode()).hexdigest() != wrapped.get("digest"):
        logger.warning("cache digest mismatch, entry dropped: %s", where)
        return None
    return payload_text


def _probe(sqlite3, path: Path) -> None:
    """Read the schema of `path` and its log read-only: closing a writer
    that failed to read them would fold the log into the file."""
    with closing(sqlite3.connect(f"{path.absolute().as_uri()}?mode=ro", uri=True)) as db:
        db.execute("SELECT count(*) FROM sqlite_master")


def _connect(sqlite3, path: Path):
    db = sqlite3.connect(path, isolation_level=None, check_same_thread=False)
    try:
        # Switching a new database to write-ahead logging locks it, and SQLite
        # fails a second connection that asks at once without waiting; that
        # one asks again until sqlite3.connect's busy timeout (5 s) has passed.
        deadline = time.monotonic() + 5.0
        while True:
            try:
                db.execute("PRAGMA journal_mode=WAL")
                break
            except sqlite3.OperationalError as exc:
                if "locked" not in str(exc) or time.monotonic() > deadline:
                    raise
            time.sleep(0.001)
        db.execute("PRAGMA synchronous=NORMAL")
        db.execute(f"PRAGMA cache_size=-{_CACHE_KIB}")
        db.execute("CREATE TABLE IF NOT EXISTS entries (key TEXT PRIMARY KEY, body)")
    except BaseException:
        db.close()
        raise
    return db


class Store:
    """Durable key → JSON payload cache with digest verification.

    The database is opened on the first `get` or `put`, over one
    connection that the store's threads share under a lock; `close` ends
    it, and a later call opens it again."""

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self.path = self.directory / DB_NAME
        self._log, self._index = (self.path.with_name(DB_NAME + end) for end in ("-wal", "-shm"))
        self._lock = threading.Lock()
        self._db = None

    def get(self, key: str) -> dict | None:
        """Cached payload, or None when absent or corrupt (corrupt warns).
        An entry that is valid JSON of the wrong shape, or nested past the
        interpreter's recursion limit, is corrupt too."""
        with self._lock:
            row = self._execute("SELECT body FROM entries WHERE key = ?", (key,))
        if row is None:
            return None
        payload_text = _payload_text(row[0], f"{self.path} [{key}]")
        return None if payload_text is None else json.loads(payload_text)

    def put(self, key: str, payload: dict) -> None:
        """Idempotent store; equal payloads overwrite with identical bytes."""
        payload_text = json.dumps(payload, sort_keys=True)
        wrapped = {
            "digest": hashlib.sha256(payload_text.encode()).hexdigest(),
            "payload_json": payload_text,
        }
        body = json.dumps(wrapped, sort_keys=True)
        with self._lock:
            self._execute("INSERT OR REPLACE INTO entries (key, body) VALUES (?, ?)", (key, body))

    def close(self) -> None:
        with self._lock:
            if self._db is not None:
                self._db.close()
                self._db = None

    def _connection(self):
        """The open connection; the caller holds the lock."""
        if self._db is None:
            # imported here, so a run that never reads or writes a store does not load it
            import sqlite3

            self.directory.mkdir(parents=True, exist_ok=True)
            if self.path.exists():
                found = self._found()
                try:
                    _probe(sqlite3, self.path)
                except sqlite3.OperationalError:  # locked, unreadable: not the file's fault
                    raise
                except sqlite3.DatabaseError:  # not a database, or cut short
                    self._set_aside(found)
            self._db = _connect(sqlite3, self.path)
        return self._db

    def _execute(self, sql: str, parameters: tuple):
        """The first row `sql` yields; the caller holds the lock. A database
        that SQLite finds malformed (a page cut off past the schema that
        `_probe` read) is set aside, and `sql` runs again on an empty one."""
        import sqlite3

        try:
            return self._connection().execute(sql, parameters).fetchone()
        except sqlite3.OperationalError:  # locked, unreadable: not the file's fault
            raise
        except sqlite3.DatabaseError:
            self._set_aside(self._found())
        return self._connection().execute(sql, parameters).fetchone()

    def _found(self) -> list[Path]:
        return [path for path in (self.path, self._log) if path.exists()]

    def _set_aside(self, found: list[Path]) -> None:
        """Keep the `found` files as `<name>.corrupt`, with a warning, and
        remove the database; the caller holds the lock. They are copied
        before the connection closes, as closing a writer folds the log into
        the file and deletes the log."""
        logger.warning("corrupt cache database moved aside: %s", self.path)
        for path in found:
            shutil.copyfile(path, path.with_name(f"{path.name}.corrupt"))
        if self._db is not None:
            self._db.close()
            self._db = None
        # with the log and index the database had, or the probe made
        for path in (self.path, self._log, self._index):
            path.unlink(missing_ok=True)


@dataclass(frozen=True)
class LedgerEntry:
    timestamp: float
    tier: str
    model_id: str
    input_tokens: int
    output_tokens: int
    cost: float
    team: str = ""  # the team whose call sent the request; "" in ledgers written without it


# the type each field of a ledger line must have to load: its declared one, or for a float an int
_FIELD_TYPES = {
    name: (int, float) if kind is float else kind
    for name, kind in typing.get_type_hints(LedgerEntry).items()
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
        team: str = "",
    ) -> LedgerEntry:
        if input_tokens < 0 or output_tokens < 0:
            raise ValueError("token counts must be non-negative")
        entry = LedgerEntry(time.time(), tier, model_id, input_tokens, output_tokens, cost, team)
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
    that name no team are listed as `(no team)`, and a file's ledger is named."""
    lines = ["Cost ledger"]
    if ledger.path is not None:
        lines.append(f"  file: {ledger.path}{'' if ledger.path.exists() else ' (not found)'}")
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
