"""Cache durability, tamper detection, and the cost ledger."""

from __future__ import annotations

import json
import os
import random
import signal
import sqlite3
import subprocess
import sys
import threading

import pytest

from conftest import NESTED, set_store_row, store_rows
from contribsum.cli import main
from contribsum.store import (
    CostLedger,
    Store,
    cache_key,
    ledger_report,
    resolve_state_dir,
)


class TestCacheKey:
    def test_equal_inputs_equal_keys(self):
        a = cache_key("tmpl", "model", "payload")
        b = cache_key("tmpl", "model", "payload")
        assert a == b and len(a) == 64

    def test_any_input_change_changes_key(self):
        base = cache_key("tmpl", "model", "payload")
        assert cache_key("tmpl2", "model", "payload") != base
        assert cache_key("tmpl", "model2", "payload") != base
        assert cache_key("tmpl", "model", "payload2") != base

    def test_keys_of_existing_caches_kept(self):
        # the key an older release wrote for the same request
        assert cache_key("tmpl", "model", "payload") == (
            "82c23456c618f28310cb30e198ae4a7907a3ba7cf1b3fe3448a500c67b55f998"
        )


class TestStore:
    def test_get_on_empty_store_absent(self, tmp_path):
        assert Store(tmp_path / "cache").get("a" * 64) is None

    def test_put_then_get_identical(self, tmp_path):
        store = Store(tmp_path / "cache")
        key = cache_key("t", "m", "p")
        payload = {"text": "hello", "input_tokens": 10, "output_tokens": 3}
        store.put(key, payload)
        assert store.get(key) == payload

    def test_put_idempotent(self, tmp_path):
        store = Store(tmp_path / "cache")
        key = cache_key("t", "m", "p")
        store.put(key, {"text": "same"})
        before = store_rows(store.directory)
        store.put(key, {"text": "same"})
        assert store_rows(store.directory) == before and list(before) == [key]

    def test_tampered_entry_treated_as_absent(self, tmp_path):
        store = Store(tmp_path / "cache")
        key = cache_key("t", "m", "p")
        store.put(key, {"text": "authentic"})
        raw = json.loads(store_rows(store.directory)[key])
        raw["payload_json"] = raw["payload_json"].replace("authentic", "tampered!")
        set_store_row(store.directory, key, json.dumps(raw))
        assert store.get(key) is None

    @pytest.mark.parametrize(
        "body",
        ["[]", '"str"', '{"payload_json": 5, "digest": 1}', b"\xff\xfe garbage", NESTED.decode(),
         None, 7],
        ids=["list", "string", "non-text-payload", "not-utf8", "nested", "null", "integer"],
    )
    def test_wrong_shape_entry_warns_and_reads_absent(self, tmp_path, caplog, body):
        store = Store(tmp_path / "cache")
        key = cache_key("t", "m", "p")
        store.put(key, {"text": "x"})
        set_store_row(store.directory, key, body)
        with caplog.at_level("WARNING", logger="contribsum.store"):
            assert store.get(key) is None
        assert f"corrupt cache entry dropped: {store.path} [{key}]" in caplog.text
        store.put(key, {"text": "y"})  # the next put replaces it
        assert store.get(key) == {"text": "y"}

    def test_survives_reopen(self, tmp_path):
        key = cache_key("t", "m", "p")
        Store(tmp_path / "cache").put(key, {"text": "durable"})
        assert Store(tmp_path / "cache").get(key) == {"text": "durable"}

    def test_two_stores_open_one_new_database_at_once(self, tmp_path):
        """Two stores on one new directory make their first put at once, 300
        times over, and every put succeeds: switching a new database to
        write-ahead logging locks it, and SQLite fails the second connection
        that asks without waiting for the first."""
        errors = []
        for trial in range(300):
            stores = [Store(tmp_path / str(trial)), Store(tmp_path / str(trial))]
            barrier = threading.Barrier(2)

            def first_put(store, n):
                barrier.wait()
                try:
                    store.put(cache_key("t", "m", str(n)), {"text": str(n)})
                except sqlite3.Error as exc:  # reported by the assertion below
                    errors.append((trial, exc))

            threads = [threading.Thread(target=first_put, args=pair) for pair in zip(stores, "ab")]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            for store in stores:
                store.close()
        assert errors == []
        assert len(store_rows(tmp_path / "299")) == 2

    def test_threads_share_a_store_while_another_reads(self, tmp_path):
        """8 threads put and read 200 keys, 10 of them put by every thread
        with equal payloads, while a second store on the directory reads."""
        store, reader = Store(tmp_path / "cache"), Store(tmp_path / "cache")
        keys = [cache_key("t", "m", str(n)) for n in range(200)]

        def payload(key):
            return {"text": key * 20}

        errors, done = [], threading.Event()

        def guarded(work):
            def run():
                try:
                    work()
                except BaseException as exc:  # reported by the assertion below
                    errors.append(exc)
            return run

        def write(n):
            for key in keys[n * 25:(n + 1) * 25] + keys[:10]:
                store.put(key, payload(key))
                assert store.get(key) == payload(key)

        def read():
            while not done.is_set():
                for key in keys:
                    assert reader.get(key) in (None, payload(key))

        writers = [threading.Thread(target=guarded(lambda n=n: write(n))) for n in range(8)]
        reading = threading.Thread(target=guarded(read))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            reading.start()
            for thread in writers:
                thread.start()
            for thread in writers:
                thread.join(timeout=60)
        finally:
            done.set()
            reading.join(timeout=60)
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in (*writers, reading))
        assert errors == []
        for key in keys:
            assert store.get(key) == reader.get(key) == payload(key)
        store.close()
        reader.close()

    def test_malformed_mid_run_set_aside_once(self, tmp_path, caplog):
        """A database cut short past its schema, beside the log a killed run
        leaves, opens; the first read that reaches a page the cut took sets
        it aside as found, once, while 8 threads read, and the store goes on
        empty: every get reads its payload or None, and a put reads back."""
        cache = tmp_path / "cache"
        keys = [cache_key("t", "m", str(n)) for n in range(300)]
        store = Store(cache)
        for key in keys:
            store.put(key, {"text": key * 20})
        store.close()
        store = Store(cache)
        store.put(cache_key("t", "m", "last"), {"text": "in the log"})
        log = (cache / "store.sqlite3-wal").read_bytes()
        store.close()
        whole = store.path.read_bytes()
        found = whole[: len(whole) // 2]
        store.path.write_bytes(found)
        (cache / "store.sqlite3-wal").write_bytes(log)

        store, errors, read = Store(cache), [], []

        def reader(n):
            try:
                read.extend(store.get(key) in (None, {"text": key * 20}) for key in keys[n::8])
            except BaseException as exc:  # reported by the assertion below
                errors.append(exc)

        threads = [threading.Thread(target=reader, args=(n,)) for n in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with caplog.at_level("WARNING", logger="contribsum.store"):
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == [] and read == [True] * len(keys)
        assert [r.getMessage() for r in caplog.records] == [
            f"corrupt cache database moved aside: {store.path}"
        ]
        assert (cache / "store.sqlite3.corrupt").read_bytes() == found
        assert (cache / "store.sqlite3-wal.corrupt").read_bytes() == log
        assert all(store.get(key) is None for key in keys)
        store.put(keys[0], {"text": "again"})
        store.close()
        assert Store(cache).get(keys[0]) == {"text": "again"}

    def test_open_get_and_put_list_no_directory(self, tmp_path, monkeypatch):
        """A store opens its one database file by name: neither the first
        open nor a later `get` or `put` lists its directory."""
        listed = []
        for name in ("scandir", "listdir"):
            real = getattr(os, name)
            monkeypatch.setattr(os, name, lambda path=".", real=real: listed.append(path) or real(path))
        store = Store(tmp_path / "cache")
        for n in range(3):
            store.put(cache_key("t", "m", str(n)), {"n": n})
            assert store.get(cache_key("t", "m", str(n))) == {"n": n}
        store.close()
        store.get(cache_key("t", "m", "0"))  # opened again
        store.close()
        assert listed == []

    def test_one_database_file_and_no_entry_files(self, tmp_path):
        store = Store(tmp_path / "cache")
        keys = ["ab" + "c" * 62, "cd" + "e" * 62]
        for key in keys:
            store.put(key, {"text": key})
        store.close()
        assert [p.name for p in (tmp_path / "cache").iterdir()] == ["store.sqlite3"]
        assert sorted(store_rows(tmp_path / "cache")) == keys


# Runs the puts of a JSON file on a `Store`, killing itself with SIGKILL
# just before or just after the statement of the k-th put:
# `python -c KILLED_PUTS <store dir> <puts.json> <k> before|after`.
KILLED_PUTS = r"""
import json, os, signal, sqlite3, sys

from contribsum.store import Store

directory, puts_path, k, when = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4]
connect = sqlite3.connect


class Killing(sqlite3.Connection):
    puts = 0

    def execute(self, sql, *args):
        if not sql.startswith("INSERT"):
            return super().execute(sql, *args)
        Killing.puts += 1
        if (Killing.puts, when) == (k, "before"):
            os.kill(os.getpid(), signal.SIGKILL)
        cursor = super().execute(sql, *args)
        if (Killing.puts, when) == (k, "after"):
            os.kill(os.getpid(), signal.SIGKILL)
        return cursor


sqlite3.connect = lambda *args, **kwargs: connect(*args, factory=Killing, **kwargs)
store = Store(directory)
for key, payload in json.loads(open(puts_path, encoding="utf-8").read()):
    store.put(key, payload)
"""


def _seeded_puts(seed: int, count: int = 40) -> list[tuple[str, dict]]:
    """`count` puts over 25 keys, so some overwrite; some bodies span many pages."""
    rng = random.Random(seed)
    keys = [cache_key("t", "m", str(n)) for n in range(25)]
    return [
        (rng.choice(keys), {"n": n, "text": "".join(rng.choices("abcdef\n", k=rng.randint(0, 20_000)))})
        for n in range(count)
    ]


class TestKilledPuts:
    @pytest.mark.parametrize("when", ["before", "after"])
    @pytest.mark.parametrize("k", [1, 17, 40])
    def test_every_completed_put_reads_back(self, tmp_path, caplog, k, when):
        puts = _seeded_puts(seed=k)
        puts_path = tmp_path / "puts.json"
        puts_path.write_text(json.dumps(puts), encoding="utf-8")
        directory = tmp_path / "cache"
        child = subprocess.run(
            [sys.executable, "-c", KILLED_PUTS, str(directory), str(puts_path), str(k), when],
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
            capture_output=True, text=True, timeout=120,
        )
        assert child.returncode == -signal.SIGKILL, child.stderr
        completed = dict(puts[: k if when == "after" else k - 1])
        store = Store(directory)
        with caplog.at_level("WARNING", logger="contribsum.store"):
            for key, _ in puts:
                assert store.get(key) == completed.get(key), key
        assert caplog.records == []
        store.close()
        db = sqlite3.connect(directory / "store.sqlite3")
        try:
            assert db.execute("PRAGMA integrity_check").fetchall() == [("ok",)]
        finally:
            db.close()
        assert [p.name for p in directory.iterdir()] == ["store.sqlite3"]


class TestCostLedger:
    def test_zero_tokens_zero_cost(self):
        ledger = CostLedger()
        entry = ledger.add("analysis", "m", 0, 0, 0.0)
        assert entry.cost == 0.0
        assert ledger.total == 0.0

    def test_totals_are_sum_of_entries(self):
        ledger = CostLedger()
        ledger.add("analysis", "m", 1000, 0, 0.15)
        ledger.add("analysis", "m", 0, 1000, 0.60)
        ledger.add("synthesis", "big", 1000, 0, 2.50)
        assert ledger.total == 0.15 + 0.60 + 2.50
        assert ledger.totals_by_tier() == {"analysis": 0.75, "synthesis": 2.50}

    def test_persisted_and_reloaded(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        ledger = CostLedger(path)
        ledger.add("analysis", "m", 10_000, 0, 1.50)
        again = CostLedger(path)
        assert len(again.entries) == 1
        assert again.total == 1.50

    def test_append_is_crash_safe_lines(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        ledger = CostLedger(path)
        ledger.add("analysis", "m", 1, 2, 0.1)
        ledger.add("synthesis", "n", 3, 4, 0.2)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        for line in lines:
            json.loads(line)  # each line independently parseable

    def test_truncated_final_line_skipped(self, tmp_path, caplog, capsys):
        # a killed append, and a final line that is not UTF-8
        for name, cut in (("half", lambda whole: whole[: len(whole) // 2]),
                          ("not-utf8", lambda _: b'{"tier": "\xff')):
            path = tmp_path / name / "ledger.jsonl"
            CostLedger(path).add("analysis", "m", 1, 2, 0.25)
            whole = path.read_bytes()
            path.write_bytes(whole + cut(whole))
            caplog.clear()
            with caplog.at_level("WARNING", logger="contribsum.store"):
                ledger = CostLedger(path)
            assert [e.cost for e in ledger.entries] == [0.25], name
            assert "truncated ledger line 2" in caplog.text, name
            ledger.add("synthesis", "n", 3, 4, 0.5)
            # the fragment keeps its own line; the new entry is whole
            assert json.loads(path.read_bytes().splitlines()[-1])["cost"] == 0.5, name
            again = CostLedger(path)
            assert [e.cost for e in again.entries] == [0.25, 0.5], name
            assert main(["cost", "--state", str(path.parent)]) == 0
            assert "total: $0.75" in capsys.readouterr().out, name

    @pytest.mark.parametrize(
        "line",
        [
            b"[]",
            b'{"tier": "analysis"}',
            b'{"timestamp": 1.0, "tier": "analysis", "model_id": "m", "input_tokens": 1,'
            b' "output_tokens": 2, "cost": "0.25"}',
            b'{"timestamp": 1.0, "tier": "analysis", "model_id": "m", "input_tokens": 1,'
            b' "output_tokens": 2, "cost": 0.25, "team": 7}',
            b'{"timestamp": 1.0, "tier": "analysis", "model_id": "\xff", "input_tokens": 1,'
            b' "output_tokens": 2, "cost": 0.25}',
            NESTED,
            b'{"timestamp": 1.0, "tier": "analysis", "model_id": "m", "input_tokens": 1.0,'
            b' "output_tokens": 2, "cost": 0.25}',
            b'{"timestamp": "1.0", "tier": "analysis", "model_id": "m", "input_tokens": 1,'
            b' "output_tokens": 2, "cost": 0.25}',
            b'{"timestamp": 1.0, "tier": null, "model_id": "m", "input_tokens": 1,'
            b' "output_tokens": 2, "cost": 0.25}',
            b'{"timestamp": 1.0, "tier": "analysis", "model_id": "m", "input_tokens": 1,'
            b' "output_tokens": 2, "cost": 0.25, "spare": 1}',
        ],
        ids=["list", "missing-fields", "wrong-type", "wrong-type-team", "not-utf8", "nested",
             "float-tokens", "text-timestamp", "null-tier", "unknown-field"],
    )
    def test_wrong_shape_line_skipped(self, tmp_path, caplog, capsys, line):
        path = tmp_path / "ledger.jsonl"
        CostLedger(path).add("analysis", "m", 1, 2, 0.25)
        path.write_bytes(path.read_bytes() + line + b"\n")
        with caplog.at_level("WARNING", logger="contribsum.store"):
            ledger = CostLedger(path)
        assert [e.cost for e in ledger.entries] == [0.25]
        assert "truncated ledger line 2" in caplog.text
        assert main(["cost", "--state", str(tmp_path)]) == 0
        assert "total: $0.25" in capsys.readouterr().out

    def test_lines_load_as_the_declared_field_types_admit(self, tmp_path):
        """Each field set in turn to a value of each JSON type: a line loads
        exactly when every field has the type a ledger line was checked
        against before those types were read from `LedgerEntry`, where a
        float field takes an int too."""
        before = {
            "timestamp": (int, float), "tier": str, "model_id": str, "input_tokens": int,
            "output_tokens": int, "cost": (int, float), "team": str,
        }
        base = {"timestamp": 1.5, "tier": "analysis", "model_id": "m", "input_tokens": 1,
                "output_tokens": 2, "cost": 0.25, "team": "t"}
        records = [
            {**base, name: value}
            for name in base
            for value in (0, 7, 2.5, True, "x", "", None, [], {})
        ]
        path = tmp_path / "ledger.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        loaded = [vars(entry) for entry in CostLedger(path).entries]
        admitted = [r for r in records if all(isinstance(r[f], t) for f, t in before.items())]
        assert loaded == admitted
        assert 0 < len(admitted) < len(records)

    def test_line_without_team_loads_with_no_team(self, tmp_path, capsys):
        path = tmp_path / "ledger.jsonl"
        path.write_text(
            '{"timestamp": 1.0, "tier": "analysis", "model_id": "m", "input_tokens": 1,'
            ' "output_tokens": 2, "cost": 0.25}\n'
        )
        ledger = CostLedger(path)
        ledger.add("synthesis", "n", 3, 4, 0.5, team="alpha")
        assert [e.team for e in CostLedger(path).entries] == ["", "alpha"]
        assert main(["cost", "--state", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "team (no team): 1 calls, $0.25" in out
        assert "team alpha: 1 calls, $0.50" in out

    def test_concurrent_adds_all_land_whole(self, tmp_path, caplog):
        path = tmp_path / "ledger.jsonl"
        ledger = CostLedger(path)
        threads = [
            threading.Thread(
                target=lambda n=n: [ledger.add("analysis", f"m{n}", i, 1, 0.0) for i in range(200)]
            )
            for n in range(8)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(ledger.entries) == 1600
        with caplog.at_level("WARNING", logger="contribsum.store"):
            again = CostLedger(path)
        assert "truncated ledger line" not in caplog.text
        assert len(again.entries) == 1600
        assert len(path.read_text().splitlines()) == 1600
        assert sorted((e.model_id, e.input_tokens) for e in again.entries) == sorted(
            (f"m{n}", i) for n in range(8) for i in range(200)
        )

    def test_negative_tokens_rejected(self):
        ledger = CostLedger()
        try:
            ledger.add("analysis", "m", -1, 0, 0.0)
        except ValueError:
            pass
        else:
            raise AssertionError("expected ValueError")


class TestLedgerReport:
    def test_empty_ledger_all_zeros(self):
        text = ledger_report(CostLedger())
        assert "$0.00" in text
        assert "(no entries)" in text

    def test_per_tier_subtotals_sum_to_total(self):
        ledger = CostLedger()
        ledger.add("analysis", "m", 1000, 1000, 1.25)
        ledger.add("synthesis", "big", 1000, 500, 2.75)
        text = ledger_report(ledger)
        assert "$1.25" in text
        assert "$2.75" in text
        assert "total: $4.00" in text

    def test_one_line_per_team(self):
        ledger = CostLedger()
        ledger.add("analysis", "m", 1000, 1000, 1.25, team="beta")
        ledger.add("synthesis", "big", 1000, 500, 2.75, team="alpha")
        ledger.add("analysis", "m", 10, 10, 0.5, team="beta")
        lines = ledger_report(ledger).splitlines()
        assert [line for line in lines if line.lstrip().startswith("team ")] == [
            "  team alpha: 1 calls, $2.75",
            "  team beta: 2 calls, $1.75",
        ]


class TestStateDir:
    def test_env_var_overrides(self, monkeypatch, tmp_path):
        monkeypatch.setenv("CONTRIBSUM_STATE", str(tmp_path / "from-env"))
        assert resolve_state_dir("configured") == tmp_path / "from-env"

    def test_configured_beats_default(self, monkeypatch):
        monkeypatch.delenv("CONTRIBSUM_STATE", raising=False)
        assert str(resolve_state_dir("configured")) == "configured"
        assert str(resolve_state_dir(None)) == ".contribsum"
