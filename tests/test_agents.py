"""Provider implementations and the analysis/synthesis chain."""

from __future__ import annotations

import json
import random
import re
import sys
import threading
import types

import pytest
from hypothesis import example, given, settings, strategies as st

import contribsum
import contribsum.agents
from conftest import JUNE, NESTED, HalfWriter, Recorder
from contribsum import store as store_module
from contribsum.agents import chain
from contribsum.agents import provider as provider_module
from contribsum.agents.chain import (
    ROLES,
    SENIORITIES,
    SynthesisBundle,
    contribution_call,
    contribution_row,
    file_call,
    functionality_row,
    record_usage,
    synthesize,
    validate_summary,
)
from contribsum.agents.provider import (
    HttpProvider,
    MockProvider,
    ModelTier,
    ProviderResponse,
    ReplayProvider,
    TokenBucket,
    estimate_tokens,
)
from contribsum.attribution import ContributionEvidence, ContributionSet, build_contribution_set
from contribsum.errors import BudgetExceeded, ProviderError, TemplateViolation
from contribsum.identity import StudentId, load_roster
from contribsum.metrics import compute_file_metrics
from contribsum.store import CostLedger, Store

ANALYSIS = ModelTier("analysis", "mini-model", 128_000, 0.15 / 1000 * 1000, 0.6)
SYNTHESIS = ModelTier("synthesis", "big-model", 128_000, 2.5, 10.0)

ROSTER = load_roster(
    "alice | Alice Lee | alice@campus.edu\n"
    "bob | Bob Roy | bob@campus.edu\n"
    "carol | Carol Weiss | carol@campus.edu\n"
)
ALICE, BOB, CAROL = ROSTER.students
TEAM = "team"  # the team every request here is made for

FLASK_LIKE = """from flask import Flask
import redis
import pymongo

app = Flask(__name__)
cache = redis.Redis()
db = pymongo.MongoClient().records

@app.route("/login", methods=["POST"])
def login():
    return "ok"

@app.route("/admin")
def admin():
    return "admin panel"
"""


def _mock() -> Recorder:
    return Recorder(
        MockProvider(budgets={t.model_id: t.max_input_tokens for t in (ANALYSIS, SYNTHESIS)})
    )


def _file_row(pool, tier, path, content, metrics):
    """One Functionality Table row, answered as the pipeline answers its batch."""
    [text] = pool.answer_all([file_call(tier, path, content, metrics)], TEAM)
    return functionality_row(path, metrics, text)


def _contribution_row(pool, tier, row, evidence):
    """One Contribution Table row, answered as the pipeline answers its batch."""
    [text] = pool.answer_all([contribution_call(tier, row.functionality, evidence)], TEAM)
    return contribution_row(evidence, text)


def _evidence(student, path, owned=5, added=3, messages=None, solos=None, comment_only=False):
    return ContributionEvidence(
        student=student,
        path=path,
        lines_owned=owned,
        lines_added_in_window=added,
        commit_messages=messages or ["implement feature"],
        solo_functions=solos or [],
        comment_only=comment_only,
    )


def _cset(per_student, zero=()):
    return ContributionSet(
        window=JUNE,
        per_student=per_student,
        zero_commit_students=list(zero),
    )


class TestModelTier:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            ModelTier("other", "m", 100, 0, 0)
        with pytest.raises(ValueError):
            ModelTier("analysis", "m", 0, 0, 0)
        with pytest.raises(ValueError):
            ModelTier("analysis", "m", 100, -1, 0)
        for rate in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                ModelTier("analysis", "m", 100, rate, 0)
            with pytest.raises(ValueError, match="finite"):
                ModelTier("analysis", "m", 100, 0, rate)

    def test_budget_is_eighty_percent(self):
        assert ModelTier("analysis", "m", 1000, 0, 0).input_budget == 800


class TestSummarizeFile:
    def test_flask_like_file_mentions_moving_parts(self, pool):
        mock = _mock()
        metrics = compute_file_metrics("app.py", FLASK_LIKE.encode())
        row = _file_row(pool(mock), ANALYSIS, "app.py", FLASK_LIKE, metrics)
        lowered = row.functionality.lower()
        for expected in ("server", "route", "database", "cache"):
            assert expected in lowered
        assert row.difficulty
        assert (row.filename, row.byte_size, row.line_count, row.tag_count) == (
            "app.py", metrics.byte_size, metrics.line_count, metrics.tag_count
        )
        assert row.complexity == metrics.complexity.file_score

    def test_empty_file_short_circuits(self, pool):
        mock = _mock()
        metrics = compute_file_metrics("empty.py", b"")
        row = _file_row(pool(mock), ANALYSIS, "empty.py", "", metrics)
        assert row.functionality == "empty file"
        assert row.difficulty == "none"
        assert mock.calls == []

    def test_deterministic_across_runs(self, pool):
        metrics = compute_file_metrics("app.py", FLASK_LIKE.encode())
        rows = [
            _file_row(pool(_mock()), ANALYSIS, "app.py", FLASK_LIKE, metrics)
            for _ in range(2)
        ]
        assert rows[0] == rows[1]

    def test_oversized_content_clipped_to_budget(self, pool):
        tiny = ModelTier("analysis", "tiny", 2000, 0, 0)
        mock = Recorder(MockProvider(budgets={"tiny": 2000}))
        big = "\n".join(f"statement_{i} = {i}" for i in range(5000))
        metrics = compute_file_metrics("big.py", big.encode())
        row = _file_row(pool(mock), tiny, "big.py", big, metrics)
        assert row.functionality  # call went through clipped
        sent = mock.calls[0]["messages"][1]["content"]
        assert "lines clipped" in sent
        assert estimate_tokens(sent) <= tiny.input_budget

    def test_clip_halves_until_the_request_fits(self, pool):
        """At a budget that rejects 200 and 100 head and tail lines, the
        request sent keeps 50 of each."""
        small = ModelTier("analysis", "small", 1000, 0, 0)
        mock = Recorder(MockProvider(budgets={"small": 1000}))
        big = "\n".join(f"statement_{i} = {i}" for i in range(1000))
        metrics = compute_file_metrics("big.py", big.encode())

        def prompt(clip: int) -> str:
            data = {
                "task": "summarize-file",
                "path": "big.py",
                "metrics": chain._metrics_payload(metrics),
                "content": chain.clip_content(big, clip),
            }
            return chain._render("summarize_file", data)

        system = estimate_tokens(chain.load_template("system"))
        assert system + estimate_tokens(prompt(100)) > small.input_budget
        _file_row(pool(mock), small, "big.py", big, metrics)
        [call] = mock.calls
        assert call["messages"][1]["content"] == prompt(50)
        assert "... [900 lines clipped] ..." in prompt(50)

    def test_budget_exceeded_when_even_clipping_cannot_fit(self, pool):
        micro = ModelTier("analysis", "micro", 200, 0, 0)
        mock = Recorder(MockProvider(budgets={"micro": 200}))
        wide = "x" * 100_000  # one unsplittable enormous line
        metrics = compute_file_metrics("wide.py", wide.encode())
        with pytest.raises(
            BudgetExceeded, match="^wide.py: content cannot fit tier budget even fully clipped$"
        ):
            _file_row(pool(mock), micro, "wide.py", wide, metrics)
        assert mock.calls == []  # guarded before any provider call


class TestEvidenceWithLines:
    @pytest.mark.parametrize(
        "owned, added, expected", [(0, 0, False), (3, 0, True), (0, 2, True), (3, 2, True)]
    )
    def test_lines_owned_or_added(self, owned, added, expected):
        assert _evidence(ALICE, "app.py", owned=owned, added=added).has_lines is expected


class TestDescribeContribution:
    def _row(self, pool):
        metrics = compute_file_metrics("app.py", FLASK_LIKE.encode())
        return _file_row(pool(_mock()), ANALYSIS, "app.py", FLASK_LIKE, metrics)

    def test_strong_contributor_description(self, pool):
        evidence = _evidence(
            ALICE, "app.py", owned=40, added=25,
            messages=["add login route", "add admin route"],
        )
        row = _contribution_row(pool(_mock()), ANALYSIS, self._row(pool), evidence)
        assert "Alice Lee" in row.description
        assert "40" in row.description
        assert (row.student, row.file, row.lines_owned, row.lines_added_in_window) == (
            "alice", "app.py", 40, 25
        )

    def test_solo_function_complexities_mentioned(self, pool):
        evidence = _evidence(ALICE, "app.py", solos=[("login", 3)])
        row = _contribution_row(pool(_mock()), ANALYSIS, self._row(pool), evidence)
        assert "login" in row.description
        assert "3" in row.description
        assert row.solo_functions == "login:3"

    def test_zero_line_evidence_never_sent(self, pool):
        mock = _mock()
        evidence = _evidence(ALICE, "app.py", owned=0, added=0)
        with pytest.raises(ValueError):
            _contribution_row(pool(mock), ANALYSIS, self._row(pool), evidence)
        assert mock.calls == []


class TestFillTables:
    def test_row_order_and_quoted_functionality(self, built_fixtures, pool):
        # alice's only file sorts after bob's: roster order is not path order
        handle, truth = built_fixtures["comment_injection"]
        cset = build_contribution_set(handle, JUNE, truth.roster)
        mock = _mock()
        sends = pool(mock)
        file_rows = sends.ask(chain.file_calls(ANALYSIS, cset.files), TEAM)
        files, contributions = chain.fill_tables(
            sends, ANALYSIS, file_rows, cset, truth.roster, TEAM
        )
        assert [row.filename for row in files] == [f.path for f in cset.files]
        evidence = [
            ev
            for student in truth.roster.students
            for ev in cset.evidence_for(student.id)
            if ev.lines_owned + ev.lines_added_in_window > 0
        ]
        assert evidence
        assert [(row.student, row.file) for row in contributions] == [
            (ev.student.id, ev.path) for ev in evidence
        ]
        assert len(mock.calls) == len(files) + len(evidence)
        # each contribution request quotes its file's Functionality Table text
        functionality = {row.filename: row.functionality for row in files}
        prompts = [call["messages"][1]["content"] for call in mock.calls[len(files):]]
        for ev, prompt in zip(evidence, prompts):
            assert json.dumps(functionality[ev.path], ensure_ascii=False) in prompt


def _bundle(per_student, pool, zero=(), roles=False):
    cset = _cset(per_student, zero)
    functionality = []
    contribution_rows = []
    sends = pool(_mock())
    for sid, rows in per_student.items():
        for ev in rows:
            if not any(f.filename == ev.path for f in functionality):
                metrics = compute_file_metrics(ev.path, FLASK_LIKE.encode())
                functionality.append(
                    _file_row(sends, ANALYSIS, ev.path, FLASK_LIKE, metrics)
                )
            if ev.lines_owned + ev.lines_added_in_window > 0:
                row = next(f for f in functionality if f.filename == ev.path)
                contribution_rows.append(_contribution_row(sends, ANALYSIS, row, ev))
    return SynthesisBundle(
        functionality_rows=functionality,
        contribution_rows=contribution_rows,
        sprint_instructions="Build the clinical trials portal MVP.",
        project_description="A portal to manage and query clinical trial information.",
        roles_enabled=roles,
        roster=ROSTER,
        contribution_set=cset,
    )


class TestSynthesize:
    def test_one_summary_per_roster_student(self, pool):
        bundle = _bundle(
            {
                "alice": [_evidence(ALICE, "auth.py"), _evidence(ALICE, "login.html")],
                "bob": [_evidence(BOB, "app.py")],
                "carol": [],
            },
            pool,
            zero=(CAROL,),
        )
        summaries, team = synthesize(pool(_mock()), SYNTHESIS, bundle, TEAM)
        assert [s.student.id for s in summaries] == ["alice", "bob", "carol"]
        carol = summaries[-1]
        assert carol.headline == chain.NO_CONTRIBUTION_TEXT
        assert carol.per_file_bullets == []
        assert team.narrative
        assert team.progress_bullets

    def test_security_focus_headline(self, pool):
        evidence = [
            _evidence(ALICE, "auth.py", messages=["add token auth"]),
            _evidence(ALICE, "rec_password.py", messages=["password recovery"]),
        ]
        bundle = _bundle({"alice": evidence, "bob": [], "carol": []}, pool, zero=(BOB, CAROL))
        summaries, _ = synthesize(pool(_mock()), SYNTHESIS, bundle, TEAM)
        alice = summaries[0]
        assert "security and authentication" in alice.headline
        assert {p for p, _ in alice.per_file_bullets} == {"auth.py", "rec_password.py"}

    def test_roles_flag_on_assigns_from_closed_enum(self, pool):
        bundle = _bundle(
            {"alice": [_evidence(ALICE, "app.py")], "bob": [], "carol": []},
            pool,
            zero=(BOB, CAROL),
            roles=True,
        )
        summaries, _ = synthesize(pool(_mock()), SYNTHESIS, bundle, TEAM)
        alice = summaries[0]
        assert alice.role is not None
        assert alice.role.role in ROLES
        assert alice.role.seniority in SENIORITIES

    def test_roles_flag_off_no_role(self, pool):
        bundle = _bundle(
            {"alice": [_evidence(ALICE, "app.py")], "bob": [], "carol": []},
            pool,
            zero=(BOB, CAROL),
        )
        summaries, _ = synthesize(pool(_mock()), SYNTHESIS, bundle, TEAM)
        assert summaries[0].role is None

    def test_no_active_students_fixed_team_summary(self, pool):
        bundle = _bundle({"alice": [], "bob": [], "carol": []}, pool, zero=tuple(ROSTER.students))
        mock = _mock()
        summaries, team = synthesize(pool(mock), SYNTHESIS, bundle, TEAM)
        assert len(summaries) == 3
        assert all(s.headline == chain.NO_CONTRIBUTION_TEXT for s in summaries)
        assert mock.calls == []
        assert "No recorded team contributions" in team.narrative

    def test_template_violation_repaired_once(self, pool):
        class FlakyProvider:
            def __init__(self):
                self.inner = _mock()
                self.calls = 0

            def send(self, messages, model_id):
                self.calls += 1
                if self.calls == 1:
                    return ProviderResponse("complete nonsense", 10, 2)
                return self.inner.send(messages, model_id)

        flaky = FlakyProvider()
        bundle = _bundle(
            {"alice": [_evidence(ALICE, "app.py")], "bob": [], "carol": []},
            pool,
            zero=(BOB, CAROL),
        )
        summaries, _ = synthesize(pool(flaky), SYNTHESIS, bundle, TEAM)
        assert flaky.calls == 2
        assert summaries[0].headline

    def test_template_violation_after_repair_raises(self, pool):
        class BrokenProvider:
            def __init__(self):
                self.calls = 0

            def send(self, messages, model_id):
                self.calls += 1
                return ProviderResponse("still nonsense", 10, 2)

        broken = BrokenProvider()
        bundle = _bundle(
            {"alice": [_evidence(ALICE, "app.py")], "bob": [], "carol": []},
            pool,
            zero=(BOB, CAROL),
        )
        with pytest.raises(TemplateViolation):
            synthesize(pool(broken), SYNTHESIS, bundle, TEAM)
        assert broken.calls == 2  # exactly one repair retry


class TestValidateSummary:
    def test_clean_when_all_paths_evidenced(self):
        cset = _cset({"alice": [_evidence(ALICE, "auth.py")], "bob": [], "carol": []})
        summary = chain.StudentSummary(
            student=ALICE,
            headline="worked on auth",
            per_file_bullets=[("auth.py", "implemented login")],
        )
        report = validate_summary(summary, cset)
        assert report.status == "clean"
        assert report.flags == ()

    def test_untouched_file_flagged(self):
        cset = _cset({"alice": [_evidence(ALICE, "auth.py")], "bob": [], "carol": []})
        summary = chain.StudentSummary(
            student=ALICE,
            headline="claims big things",
            per_file_bullets=[("payments.py", "built the payment flow")],
        )
        report = validate_summary(summary, cset)
        assert report.status == "flagged"
        assert report.flags[0][1] == "file-not-touched"

    def test_zero_line_evidence_flagged(self):
        cset = _cset(
            {"alice": [_evidence(ALICE, "gone.py", owned=0, added=0)], "bob": [], "carol": []}
        )
        summary = chain.StudentSummary(
            student=ALICE,
            headline="ghost work",
            per_file_bullets=[("gone.py", "major rework")],
        )
        report = validate_summary(summary, cset)
        assert report.flags[0][1] == "zero-lines"

    def test_comment_only_evidence_flagged(self):
        cset = _cset(
            {"alice": [_evidence(ALICE, "logic.py", comment_only=True)], "bob": [], "carol": []}
        )
        summary = chain.StudentSummary(
            student=ALICE,
            headline="annotated",
            per_file_bullets=[("logic.py", "implemented the core logic")],
        )
        report = validate_summary(summary, cset)
        assert report.flags[0][1] == "comment-only-evidence"

    def test_noncomment_window_lines_never_flagged(self):
        cset = _cset(
            {"alice": [_evidence(ALICE, "real.py", owned=4, added=4)], "bob": [], "carol": []}
        )
        summary = chain.StudentSummary(
            student=ALICE,
            headline="real work",
            per_file_bullets=[("real.py", "wrote the parser")],
        )
        assert validate_summary(summary, cset).status == "clean"


class TestRecordUsage:
    def test_zero_tokens_zero_cost(self):
        ledger = CostLedger()
        entry = record_usage(ledger, ANALYSIS, 0, 0, TEAM)
        assert entry.cost == 0.0

    def test_arithmetic(self):
        ledger = CostLedger()
        tier = ModelTier("analysis", "m", 100_000, 0.15, 0.0)
        entry = record_usage(ledger, tier, 10_000, 0, TEAM)
        assert entry.cost == pytest.approx(1.50)

    def test_additivity(self):
        ledger = CostLedger()
        tier = ModelTier("analysis", "m", 100_000, 0.15, 0.60)
        record_usage(ledger, tier, 1000, 0, TEAM)
        record_usage(ledger, tier, 0, 1000, TEAM)
        assert ledger.total == pytest.approx(0.15 + 0.60)


class TestCaching:
    def test_cached_rerun_zero_calls_zero_entries(self, tmp_path, pool):
        store = Store(tmp_path / "cache")
        ledger = CostLedger()
        metrics = compute_file_metrics("app.py", FLASK_LIKE.encode())

        mock1 = _mock()
        first = _file_row(pool(mock1, store, ledger), ANALYSIS, "app.py", FLASK_LIKE, metrics)
        assert len(mock1.calls) == 1
        assert len(ledger.entries) == 1

        mock2 = _mock()
        second = _file_row(pool(mock2, store, ledger), ANALYSIS, "app.py", FLASK_LIKE, metrics)
        assert mock2.calls == []  # served from cache
        assert len(ledger.entries) == 1  # no new entry
        assert first == second

    def test_every_provider_call_appends_one_entry(self, tmp_path, pool):
        ledger = CostLedger()
        mock = _mock()
        metrics = compute_file_metrics("app.py", FLASK_LIKE.encode())
        sends = pool(mock, ledger=ledger)
        _file_row(sends, ANALYSIS, "app.py", FLASK_LIKE, metrics)
        _file_row(sends, ANALYSIS, "app.py", FLASK_LIKE * 2, metrics)
        assert len(mock.calls) == len(ledger.entries) == 2


class TestSingleFlight:
    """A request that several calls need at once is sent once."""

    @staticmethod
    def _call():
        metrics = compute_file_metrics("app.py", FLASK_LIKE.encode())
        return file_call(ANALYSIS, "app.py", FLASK_LIKE, metrics)

    def test_answer_stored_meanwhile_is_read_back(self, tmp_path):
        store, ledger, mock = Store(tmp_path / "cache"), CostLedger(), _mock()
        first, second = self._call(), self._call()  # both made before either is answered
        with chain.SendPool(2, mock, store, ledger) as pool:
            [a] = pool.answer_all([first], TEAM)
            [b] = pool.answer_all([second], TEAM)
        assert a == b
        assert len(mock.calls) == len(ledger.entries) == 1

    def test_repeated_request_in_one_batch_sent_once(self, pool):
        ledger, mock = CostLedger(), _mock()
        a, b = pool(mock, ledger=ledger).answer_all([self._call(), self._call()], TEAM)
        assert a == b
        assert len(mock.calls) == len(ledger.entries) == 1

    def test_each_request_sent_once_under_contention(self, tmp_path):
        """Eight threads ask for the same ten requests in shuffled batches;
        with a store, each request is read from it once and reaches the
        provider and the ledger once. A second pool over the primed store
        reads each request once and sends none."""
        ledger = CostLedger()
        lock = threading.Lock()
        sent: list[str] = []
        reads: list[str] = []

        class Counting:
            inner = _mock()

            def send(self, messages, model_id):
                with lock:
                    sent.append(messages[-1]["content"])
                return self.inner.send(messages, model_id)

        class CountingStore(Store):
            def get(self, key):
                with lock:
                    reads.append(key)
                return super().get(key)

        store = CountingStore(tmp_path / "cache")
        contents = [FLASK_LIKE + f"\nVERSION = {n}\n" for n in range(10)]
        metrics = compute_file_metrics("app.py", FLASK_LIKE.encode())
        keys = sorted(file_call(ANALYSIS, "app.py", c, metrics).key for c in contents)
        answers: list[tuple[str, str]] = []

        def work(seed: int) -> None:
            order = random.Random(seed).sample(contents, len(contents))
            for start in range(0, len(order), 3):
                batch = order[start:start + 3]
                calls = [file_call(ANALYSIS, "app.py", c, metrics) for c in batch]
                texts = pool.answer_all(calls, TEAM)
                with lock:
                    answers.extend(zip(batch, texts))

        for _ in ("cold", "warm"):
            reads.clear()
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                with chain.SendPool(4, Counting(), store, ledger) as pool:
                    threads = [threading.Thread(target=work, args=(n,)) for n in range(8)]
                    for thread in threads:
                        thread.start()
                    for thread in threads:
                        thread.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
            assert sorted(reads) == keys
            assert len(sent) == len(set(sent)) == len(ledger.entries) == len(contents)
        assert len(answers) == 2 * 8 * len(contents)
        assert len(set(answers)) == len(contents)  # one answer per request

    def test_failed_shared_send_is_sent_again(self, tmp_path, monkeypatch):
        """A call waiting for another call's send, which fails, sends the
        request itself; only the failing call sees the error."""
        started, joined, release = threading.Event(), threading.Event(), threading.Event()
        real_join = chain.SendPool._join

        def signalling_join(self, *args):
            send = real_join(self, *args)
            if send is not None and not send[1]:
                joined.set()
            return send

        monkeypatch.setattr(chain.SendPool, "_join", signalling_join)

        class FailFirst:
            def __init__(self):
                self.inner = _mock()
                self.sends = 0

            def send(self, messages, model_id):
                self.sends += 1
                if self.sends == 1:
                    started.set()
                    assert release.wait(timeout=30)
                    raise ProviderError("HTTP 503")
                return self.inner.send(messages, model_id)

        provider, ledger = FailFirst(), CostLedger()
        outcomes: dict[str, object] = {}

        def run(name):
            try:
                outcomes[name] = pool.answer_all([self._call()], TEAM)
            except ProviderError as exc:
                outcomes[name] = exc

        with chain.SendPool(2, provider, Store(tmp_path / "cache"), ledger) as pool:
            failing = threading.Thread(target=run, args=("failing",))
            failing.start()
            assert started.wait(timeout=30)
            waiting = threading.Thread(target=run, args=("waiting",))
            waiting.start()
            assert joined.wait(timeout=30)
            release.set()
            for thread in (failing, waiting):
                thread.join(timeout=30)
        assert isinstance(outcomes["failing"], ProviderError)
        call = self._call()
        assert outcomes["waiting"] == [_mock().send(call.messages, ANALYSIS.model_id).text]
        assert provider.sends == 2 and len(ledger.entries) == 1

    def test_send_of_an_interrupted_ask_records_itself(self, tmp_path):
        """An `ask` interrupted at its second call's cache read, while its
        first call's send is held in flight, lets go of that send: once
        answered it records itself for the asking team, and another team's
        call of the same request takes its text from it, with one provider
        call, one ledger entry and one cache row."""
        metrics = compute_file_metrics("app.py", FLASK_LIKE.encode())
        second = file_call(ANALYSIS, "app.py", FLASK_LIKE + "\nVERSION = 2\n", metrics)
        release = threading.Event()

        class Held:
            inner, sends = _mock(), 0

            def send(self, messages, model_id):
                self.sends += 1
                assert release.wait(timeout=30), "send never released"
                return self.inner.send(messages, model_id)

        class InterruptedStore(Store):
            def get(self, key):
                if key == second.key:
                    raise KeyboardInterrupt
                return super().get(key)

        provider, ledger = Held(), CostLedger()
        with chain.SendPool(2, provider, InterruptedStore(tmp_path / "cache"), ledger) as pool:
            with pytest.raises(KeyboardInterrupt):
                pool.ask([self._call(), second], "asking")
            release.set()
            [text] = pool.answer_all([self._call()], "other")
        call = self._call()
        assert text == _mock().send(call.messages, ANALYSIS.model_id).text
        assert provider.sends == 1
        assert [entry.team for entry in ledger.entries] == ["asking"]
        assert Store(tmp_path / "cache").get(call.key) is not None


class TestReplayProvider:
    MESSAGES = [{"role": "user", "content": "[[DATA]]\n{\"task\": \"x\"}\n[[/DATA]]"}]

    def test_record_then_replay_identical(self, tmp_path):
        inner = _mock()
        recorder = ReplayProvider(tmp_path / "replays", inner=inner)
        recorded = recorder.send(self.MESSAGES, "mini-model")

        replayer = ReplayProvider(tmp_path / "replays")
        replayed = replayer.send(self.MESSAGES, "mini-model")
        assert recorded == replayed

    def test_replay_miss_is_an_error(self, tmp_path):
        replayer = ReplayProvider(tmp_path / "empty")
        with pytest.raises(ProviderError):
            replayer.send([{"role": "user", "content": "never recorded"}], "m")

    @pytest.mark.parametrize(
        "spoil",
        [
            lambda text: text[: len(text) // 2],
            lambda text: "",
            lambda text: json.dumps({"request": json.loads(text)["request"]}),
            lambda text: json.dumps([json.loads(text)["response"]]),
            lambda text: json.dumps({"response": {"text": "only text"}}),
            lambda text: NESTED.decode(),
        ],
        ids=["cut-in-half", "empty", "no-response", "not-an-object", "response-cut", "nested"],
    )
    def test_unreadable_recording_is_a_clear_error(self, tmp_path, spoil):
        directory = tmp_path / "replays"
        ReplayProvider(directory, inner=_mock()).send(self.MESSAGES, "mini-model")
        [recording] = directory.glob("*.json")
        recording.write_text(spoil(recording.read_text(encoding="utf-8")), encoding="utf-8")
        digest = recording.stem
        message = rf"^unreadable recording {digest[:12]} in {re.escape(str(directory))} "
        with pytest.raises(ProviderError, match=message):
            ReplayProvider(directory).send(self.MESSAGES, "mini-model")

    def test_failed_recording_write_leaves_no_recording(self, tmp_path, monkeypatch):
        """A recording whose write fails half-way, as on a full disk, leaves
        no file, so a later recording run records that request afresh."""
        directory = tmp_path / "replays"
        with monkeypatch.context() as patch:
            patch.setattr(
                store_module, "open", lambda *a, **k: HalfWriter(open(*a, **k)), raising=False
            )
            with pytest.raises(OSError, match="No space left"):
                ReplayProvider(directory, inner=_mock()).send(self.MESSAGES, "mini-model")
        assert list(directory.iterdir()) == []
        recorded = ReplayProvider(directory, inner=_mock()).send(self.MESSAGES, "mini-model")
        assert ReplayProvider(directory).send(self.MESSAGES, "mini-model") == recorded


# The theme rule with no literal gate, the reference `_themes_of` must
# equal: all 17 patterns, in order, each run on the lowered text.
REFERENCE_THEMES = (
    (r"\bflask\b|\bfastapi\b|\bserver", "server setup"),
    (r"\broute|\bendpoint", "route registration"),
    (r"\bmongo|\bsql|\bdatabase", "database initialization"),
    (r"\bredis\b|\bcache", "cache initialization"),
    (r"\bauth(?!or)|\blogin", "authentication"),
    (r"\bpassword", "password handling"),
    (r"\btoken", "token handling"),
    (r"\bsecret", "secrets handling"),
    (r"\brecover", "account recovery"),
    (r"<form|\bforms?\b", "form handling"),
    (r"\bbutton", "interface controls"),
    (r"\bparagraph", "page content"),
    (r"<html|<div|\bhtml\b", "page structure"),
    (r"\bpandas\b|\bdataframe", "data analysis"),
    (r"\bplot", "data visualization"),
    (r"\btest", "tests"),
    (r"\breadme\b", "documentation"),
)


def _reference_themes(text: str) -> list[str]:
    lower = text.lower()
    found: list[str] = []
    for pattern, theme in REFERENCE_THEMES:
        if theme not in found and re.search(pattern, lower):
            found.append(theme)
    return found


# every literal of the theme patterns, then near-misses and edge cases
THEME_WORDS = (
    "flask", "fastapi", "server", "route", "endpoint", "mongo", "sql", "database",
    "redis", "cache", "auth", "login", "password", "token", "secret", "recover",
    "<form", "form", "forms", "button", "paragraph", "<html", "<div", "html",
    "pandas", "dataframe", "plot", "test", "readme",
    "author", "authority", "Authorize", "formula", "formsy", "html5", "sqlalchemy",
    "mysql", "_login", "testing", "unittest", "flasks", "xform", "div", "<di",
    "READMEs", "Redis", "FastAPI", "DataFrame", "<FORM", "auth0", "re", "or",
)
SEPARATORS = ("", " ", "_", "-", "<", ">", "0", "7", ".", "/", "\n", "\u0130")


@st.composite
def _theme_texts(draw) -> str:
    parts = draw(st.lists(st.one_of(st.sampled_from(THEME_WORDS), st.text(max_size=3)), max_size=8))
    text = draw(st.sampled_from(SEPARATORS))
    for part in parts:
        case = draw(st.sampled_from((str, str.upper, str.title)))
        text += case(part) + draw(st.sampled_from(SEPARATORS))
    return text


class TestMockThemes:
    """The literal gate in front of each theme's regex changes no theme."""

    @settings(max_examples=600, deadline=None)
    @given(text=_theme_texts())
    @example(text="fastapi")
    @example(text="author authority formula")
    @example(text="<form_login-html5 sqlalchemy")
    def test_gate_matches_the_plain_patterns(self, text):
        assert provider_module._themes_of(text) == _reference_themes(text)

    def test_every_word_alone_and_between_separators(self):
        for word in THEME_WORDS:
            for sep in SEPARATORS:
                for text in (word, sep + word + sep, word.upper() + sep + word):
                    assert provider_module._themes_of(text) == _reference_themes(text), text

    def test_patterns_are_the_reference_rule(self):
        assert [(p, t) for p, _, t in provider_module._THEMES] == list(REFERENCE_THEMES)


class TestMockCost:
    """The mock computes a request digest only for its `[mock:<digest>]` answer."""

    @staticmethod
    def _data_prompt(data: dict) -> list[dict]:
        block = "[[DATA]]\n" + json.dumps(data, sort_keys=True, indent=1) + "\n[[/DATA]]"
        return [
            {"role": "system", "content": "You summarize code."},
            {"role": "user", "content": f"Answer from the data.\n{block}"},
        ]

    def test_digest_only_without_a_data_block(self, monkeypatch):
        digests = []
        real = provider_module.request_digest

        def counting(messages, model_id):
            digests.append(model_id)
            return real(messages, model_id)

        monkeypatch.setattr(provider_module, "request_digest", counting)
        mock = MockProvider()
        tasks = [
            {"task": "summarize-file", "path": "app/login.py", "content": FLASK_LIKE},
            {
                "task": "describe-contribution",
                "student_name": "Alice Lee",
                "path": "app/login.py",
                "lines_owned": 12,
                "lines_added_in_window": 4,
                "file_functionality": "login routes",
                "commit_messages": ["add login form"],
                "solo_functions": [["login", 2]],
            },
            {
                "task": "synthesize",
                "students": [{"id": "alice", "name": "Alice Lee", "files": [
                    {"path": "app/login.py", "description": "Alice wrote the login.", "lines_owned": 12}
                ]}],
                "project_description": "a web app",
                "roles_requested": True,
            },
        ]
        for n in range(30):
            data = dict(tasks[n % 3], n=n)
            mock.send(self._data_prompt(data), "mini-model")
        assert digests == []

        bare = [{"role": "system", "content": "You summarize code."},
                {"role": "user", "content": "no data block here"}]
        answer = mock.send(bare, "mini-model")
        assert digests == ["mini-model"]
        # pinned: recorded sessions and goldens hold the mock's texts
        assert answer.text == "[mock:a7a2c6dc49e9]" == f"[mock:{real(bare, 'mini-model')[:12]}]"
        assert (answer.input_tokens, answer.output_tokens) == (10, 5)

    def test_unknown_task_answers_with_the_digest(self):
        answer = MockProvider().send(TestReplayProvider.MESSAGES, "mini-model")
        assert answer.text == "[mock:7a8911fdd1d8]"


class TestBudgetAssertion:
    def test_mock_asserts_budget_rule(self):
        mock = MockProvider(budgets={"tiny": 100})
        huge = [{"role": "user", "content": "y" * 10_000}]
        with pytest.raises(AssertionError):
            mock.send(huge, "tiny")


class FakeClock:
    """Stands in for the `time` module of agents.provider: sleeping only advances the clock."""

    def __init__(self):
        self.now = 1000.0
        self.sleeps: list[float] = []

    def monotonic(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.sleeps.append(seconds)
        self.now += seconds


class TestRateLimit:
    def test_bucket_paces_to_its_rate(self, monkeypatch):
        clock = FakeClock()
        monkeypatch.setattr(provider_module, "time", clock)
        bucket = TokenBucket(4.0)
        granted = []
        for _ in range(9):
            bucket.acquire()
            granted.append(clock.now)
        assert granted[0] == 1000.0  # a full bucket grants at once
        gaps = [b - a for a, b in zip(granted, granted[1:])]
        assert gaps == pytest.approx([0.25] * 8)

    def test_http_sends_wait_for_the_bucket(self, monkeypatch):
        clock = FakeClock()
        monkeypatch.setattr(provider_module, "time", clock)
        posted = []

        class Response:
            status_code = 200

            def json(self):
                return {
                    "choices": [{"message": {"content": "ok"}}],
                    "usage": {"prompt_tokens": 3, "completion_tokens": 1},
                }

        def post(url, json, headers, timeout):
            posted.append(clock.now)
            return Response()

        fake_requests = types.SimpleNamespace(post=post, RequestException=OSError)
        monkeypatch.setitem(sys.modules, "requests", fake_requests)
        live = HttpProvider("http://localhost/v1", "key", rate_limiter=TokenBucket(2.0))
        for _ in range(4):
            assert live.send([{"role": "user", "content": "hi"}], "m").text == "ok"
        assert posted == pytest.approx([1000.0, 1000.5, 1001.0, 1001.5])


class Answer:
    """A `requests` response as HttpProvider reads it."""

    def __init__(self, status_code: int, headers: dict | None = None, text: str = "ok"):
        self.status_code = status_code
        self.headers = headers or {}
        self.text = text

    def json(self):
        return {
            "choices": [{"message": {"content": self.text}}],
            "usage": {"prompt_tokens": 3, "completion_tokens": 1},
        }


def _endpoint(monkeypatch, answers: list[Answer]) -> FakeClock:
    """Serve `answers` in turn to HttpProvider's posts; sleeping only advances a fake clock."""
    clock = FakeClock()
    monkeypatch.setattr(provider_module, "time", clock)
    pending = iter(answers)
    fake_requests = types.SimpleNamespace(
        post=lambda url, json, headers, timeout: next(pending), RequestException=OSError
    )
    monkeypatch.setitem(sys.modules, "requests", fake_requests)
    return clock


class TestHttpRetries:
    MESSAGES = [{"role": "user", "content": "hi"}]

    def test_no_wait_after_the_last_attempt(self, monkeypatch):
        clock = _endpoint(monkeypatch, [Answer(503)] * 3)
        live = HttpProvider("http://localhost/v1", "key")
        with pytest.raises(ProviderError, match=r"HTTP 503 \(after 3 attempts\)"):
            live.send(self.MESSAGES, "m")
        assert clock.sleeps == [2.0, 4.0]

    @pytest.mark.parametrize(
        "retry_after, waited",
        [
            ("7", 7.0),
            ("3600", provider_module.MAX_RETRY_AFTER),
            ("Wed, 21 Oct 2015 07:28:00 GMT", 2.0),  # a date: the default backoff
            ("nan", 2.0),
        ],
    )
    def test_429_waits_as_told_then_sends_one_at_a_time(self, monkeypatch, retry_after, waited):
        clock = _endpoint(monkeypatch, [Answer(429, {"Retry-After": retry_after}), Answer(200)])
        live = HttpProvider("http://localhost/v1", "key")
        assert not live.one_at_a_time
        assert live.send(self.MESSAGES, "m").text == "ok"
        assert clock.sleeps == [waited]
        assert live.one_at_a_time

    def test_server_error_keeps_sends_concurrent(self, monkeypatch):
        _endpoint(monkeypatch, [Answer(503), Answer(200)])
        live = HttpProvider("http://localhost/v1", "key")
        assert live.send(self.MESSAGES, "m").text == "ok"
        assert not live.one_at_a_time

    @pytest.mark.parametrize(
        "body",
        [b"not json", b'{"choices": []}', b'{"choices": [{"message": {}}]}', NESTED],
        ids=["not-json", "no-choice", "no-content", "nested"],
    )
    def test_malformed_answer_is_a_provider_error(self, monkeypatch, body):
        """An answer that is not JSON, lacks its text or is nested past the
        recursion limit fails the send with `ProviderError`, not retried."""

        class Body(Answer):
            def json(self):
                return json.loads(body)

        _endpoint(monkeypatch, [Body(200)])
        live = HttpProvider("http://localhost/v1", "key")
        message = r"^malformed provider response: .*\(after 1 attempt\)$"
        with pytest.raises(ProviderError, match=message):
            live.send(self.MESSAGES, "m")


class TestPublicNames:
    @pytest.mark.parametrize("module", [contribsum, contribsum.agents])
    def test_every_exported_name_resolves(self, module):
        assert module.__all__
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert missing == []
