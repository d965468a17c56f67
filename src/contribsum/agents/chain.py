"""The agent chain: per-file analysis, per-student synthesis, validation.

Raw blame output is never sent to a model; every prompt carries only the
compressed evidence (tables, counts, messages). Prompts are versioned
template files shipped with the package and referenced by hash in the
cache key, so editing a template invalidates exactly the affected
responses.

Every request goes one way: `prepare` renders it and alone checks the
tier budget, and the run's `SendPool` answers it (`answer_all`, or `ask`
and later `answers`). `SendPool._settle` alone records a send's usage
and cache entries, for the team that asked: in `answers`, on the calling
thread in call order, or, for a batch let go of (`drop`), on the send's
thread once it is answered. A key is looked up once per run: its first
call reads the provider cache, and later calls, of any team, join that
answer or its send. The pool holds the run's provider, provider cache
and ledger, so nothing else in this module reads or writes the cache or
the ledger. Table rows and synthesis, with its repair retry, all take
that path, so the pool's size caps every request of a run, and a
request that several teams need is sent once per run; its ledger entry
names the team whose call sent it.

`fill_tables` is the one place the Functionality and Contribution Tables
are filled: two batches, each answer parsed straight into a `tables`
row. The file rows need only the window-head files and their metrics,
so they are asked for (`SendPool.ask`) before the team's history is
replayed, and are in flight while it runs; the contribution rows, which
quote them, wait for the replayed `ContributionSet` and the file rows'
answers.
"""

from __future__ import annotations

import functools
import hashlib
import json
import re
import threading
from collections.abc import Iterable
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from importlib import resources

from ..attribution import ContributionEvidence, ContributionSet, KeptFile
from ..errors import BudgetExceeded, TemplateViolation
from ..identity import Roster, StudentId
from ..ingest import AnalysisWindow
from ..metrics import FileMetrics
from ..store import CostLedger, Store, cache_key
from ..tables import ContributionTableRow, FunctionalityTableRow, solo_functions_text
from .provider import ModelTier, ProviderResponse, estimate_tokens

ROLES = (
    "Technical Leader",
    "Data Engineer",
    "Security Engineer",
    "DevOps Engineer",
    "Backend Engineer",
    "Frontend Engineer",
    "Documenter",
)
SENIORITIES = ("Junior", "Senior")

NO_CONTRIBUTION_TEXT = "No recorded contributions in this window."

DEFAULT_CLIP_LINES = 200  # head and tail lines kept when clipping file content


@dataclass(frozen=True)
class RoleAssignment:
    role: str
    seniority: str

    def __post_init__(self):
        if self.role not in ROLES:
            raise ValueError(f"unknown role {self.role!r}")
        if self.seniority not in SENIORITIES:
            raise ValueError(f"unknown seniority {self.seniority!r}")


@dataclass(frozen=True)
class ValidationReport:
    status: str  # "clean" | "flagged"
    flags: tuple[tuple[str, str], ...] = ()  # (claim text, reason)


@dataclass
class StudentSummary:
    student: StudentId
    headline: str
    per_file_bullets: list[tuple[str, str]] = field(default_factory=list)
    role: RoleAssignment | None = None
    validation: ValidationReport | None = None


@dataclass(frozen=True)
class TeamSummary:
    window: AnalysisWindow
    narrative: str
    progress_bullets: tuple[str, ...] = ()


@dataclass
class SynthesisBundle:
    functionality_rows: list[FunctionalityTableRow]
    contribution_rows: list[ContributionTableRow]
    sprint_instructions: str
    project_description: str
    roles_enabled: bool
    roster: Roster
    contribution_set: ContributionSet


@functools.cache
def load_template(name: str) -> str:
    """A shipped prompt template, read once per process."""
    return resources.files("contribsum.agents.prompts").joinpath(f"{name}.txt").read_text(
        encoding="utf-8"
    )


@functools.cache
def template_hash(name: str) -> str:
    return hashlib.sha256(load_template(name).encode()).hexdigest()


def clip_content(text: str, clip: int = DEFAULT_CLIP_LINES) -> str:
    """First and last `clip` lines with an elision marker in between."""
    lines = text.splitlines()
    if len(lines) <= 2 * clip:
        return text
    elided = len(lines) - 2 * clip
    kept = lines[:clip] + [f"... [{elided} lines clipped] ..."] + lines[len(lines) - clip:]
    return "\n".join(kept)


def _render(template_name: str, data: dict) -> str:
    template = load_template(template_name)
    block = "[[DATA]]\n" + json.dumps(data, sort_keys=True, ensure_ascii=False, indent=1) + "\n[[/DATA]]"
    return template.replace("<<DATA>>", block)


@dataclass
class Call:
    """One budgeted request; `text` once the `SendPool` has answered it."""

    tier: ModelTier
    key: str
    messages: list[dict] | None  # only while the request still has to be answered
    text: str | None = None


def prepare(
    tier: ModelTier,
    template_name: str,
    data: dict,
    *,
    prompt_override: str | None = None,
) -> Call:
    """Render one request and check it against the tier budget."""
    prompt = prompt_override if prompt_override is not None else _render(template_name, data)
    system = load_template("system")
    estimate = estimate_tokens(system) + estimate_tokens(prompt)
    if estimate > tier.input_budget:
        raise BudgetExceeded(
            f"estimated {estimate} tokens exceeds budget {tier.input_budget} "
            f"for {tier.model_id}"
        )
    messages = [{"role": "system", "content": system}, {"role": "user", "content": prompt}]
    return Call(tier, cache_key(template_hash(template_name), tier.model_id, prompt), messages)


def _started_by(threads: list[threading.Thread]) -> None:
    threads.append(threading.current_thread())


class ThreadPool(ThreadPoolExecutor):
    """A ThreadPoolExecutor whose `shutdown(wait=True)` joins every thread
    it started.

    The executor lists a new thread only after `Thread.start` returns, and
    `shutdown` joins the listed ones alone, so an interrupt that lands in
    between would leave a thread running after `shutdown`. Here each thread
    records itself as it starts, before it takes any work: a thread that
    runs a task is joined.
    """

    def __init__(self, max_workers: int, thread_name_prefix: str):
        self._started: list[threading.Thread] = []
        super().__init__(
            max_workers, thread_name_prefix, initializer=_started_by, initargs=(self._started,)
        )

    def shutdown(self, wait: bool = True, *, cancel_futures: bool = False) -> None:
        super().shutdown(wait, cancel_futures=cancel_futures)
        if wait:
            for thread in list(self._started):
                thread.join()


@dataclass
class Batch:
    """Calls joined to their answers in the run for `team` (`SendPool.ask`),
    whose answers `SendPool.answers` takes or `SendPool.drop` lets go of."""

    calls: list[Call | None]
    team: str
    joins: list[tuple[Future, Future | None] | None] = field(default_factory=list)


class SendPool(ThreadPool):
    """The run's one request path: its send threads, its provider, provider
    cache and ledger, and every send of the run by cache key.

    A request whose key was read or sent before in the run takes that
    answer, so teams that need one answer make one cache read and at most
    one provider call and ledger entry. A send that failed or was
    cancelled is made anew. Once the pool is shut down, a new send raises
    `RuntimeError`.
    """

    def __init__(self, workers: int, provider, store: Store, ledger: CostLedger):
        super().__init__(workers, "contribsum-send")
        self._provider = provider
        self._store = store
        self._ledger = ledger
        self._lock = threading.Lock()
        self._claims = threading.Lock()
        self._sends: dict[str, Future] = {}

    def answer_all(self, calls: list[Call | None], team: str) -> list[str | None]:
        """Response text of every call, in order; a None call stays None:
        `answers` of `ask(calls, team)`."""
        return self.answers(self.ask(calls, team))

    def ask(self, calls: list[Call | None], team: str) -> Batch:
        """`calls` joined to their answers in the run for `team`, in call order
        (`_join`): a key the cache does not hold is sent at once, on the
        pool's threads, for `answers` to take; an interrupt drops the batch."""
        batch = Batch(calls, team)
        try:
            for call in calls:
                batch.joins.append(self._join(call) if call is not None else None)
        except BaseException:
            self.drop(batch)
            raise
        return batch

    def answers(self, batch: Batch) -> list[str | None]:
        """Response text of every call of `batch`, in order; a None call
        stays None.

        Only `provider.send` of a key the cache did not hold runs on the
        pool's threads, once per run, whichever team asks. The batch's own
        sends are settled (`_settle`) on the calling thread in call order,
        each recorded for the batch's team before a call that joined it takes
        its answer. So ledger and cache come out the same for any pool size,
        and across teams that ask for shared requests in one order the ledger
        follows that order. A call whose shared send failed or was cancelled
        sends on its own. When a send fails or is cancelled, this batch's
        sends not yet started are cancelled, the answers already in are still
        recorded, and the first error is raised. On an interrupt the sends
        not yet settled are let go of (`drop`).
        """
        calls, joins = batch.calls, batch.joins
        error = None
        try:
            for i, call in enumerate(calls):
                while error is None and joins[i] is not None and joins[i][1] is None:
                    try:  # another call's send of the same request
                        call.text, call.messages = joins[i][0].result().text, None
                        joins[i] = None
                    except Exception:  # it failed or was cancelled: send it here
                        joins[i] = self._join(call)
                if joins[i] is None or joins[i][1] is None:
                    continue
                failure = self._settle(call, batch.team, *joins[i])
                if failure is not None:
                    error = error or failure
                    _cancel(joins)
        finally:
            self.drop(batch)
        if error is not None:
            raise error
        return [call and call.text for call in calls]

    def drop(self, batch: Batch) -> None:
        """Let go of `batch`, whose answers no call will take, without waiting:
        its sends not yet started are cancelled, and each one not yet settled
        settles itself for the batch's team (`_settle`) on its send thread
        once it is done. Settled answers are left as they are."""
        _cancel(batch.joins)
        for call, join in zip(batch.calls, batch.joins):
            if join is not None and join[1] is not None:
                join[1].add_done_callback(functools.partial(self._settle, call, batch.team, join[0]))

    def _join(self, call: Call) -> tuple[Future, Future | None]:
        """The answer to `call` and, when `call` sends it, the send: `(answer,
        send)`; `(answer, None)` when the cache or another call holds it.
        Only a key's first call reads the cache, and a hit is kept as a done
        answer that later calls join; a sent answer is set by `_settle`."""
        with self._lock:  # two calls never both read or send one key
            answer = self._sends.get(call.key)
            hit = self._store.get(call.key) if answer is None else None
            if hit is not None:
                answer = self._sends[call.key] = Future()
                answer.set_result(ProviderResponse(**hit))
            if answer is not None and not (answer.done() and answer.exception() is not None):
                return answer, None
            send = self.submit(self._provider.send, call.messages, call.tier.model_id)
            answer = self._sends[call.key] = Future()
            return answer, send

    def _settle(self, call: Call, team: str, answer: Future, send: Future) -> BaseException | None:
        """Settle `answer` from `call`'s `send` once the send is done: the one
        place a sent answer is recorded. The first caller claims the answer,
        records the response (one ledger entry for `team`, one cache put) and
        only then sets it, or sets a failed or cancelled send's error; it
        returns that error or one from recording. A later caller returns
        None."""
        try:
            response, error = send.result(), None  # a cancelled send raises CancelledError
        except Exception as exc:
            response, error = None, exc
        with self._claims:  # not `_lock`: a `_join` holding it may wait on the store
            if answer.running() or answer.done():
                return None
            answer.set_running_or_notify_cancel()
        try:
            if error is None:
                record_usage(self._ledger, call.tier, response.input_tokens, response.output_tokens, team)
                self._store.put(call.key, asdict(response))  # the payload `_join` reads back
                call.text, call.messages = response.text, None  # answered: the prompt is not kept
        except Exception as exc:
            return exc
        finally:  # also when recording fails: a joined call must not wait forever
            if error is None:
                answer.set_result(response)
            else:
                answer.set_exception(error)
        return error


def _cancel(sends: list[tuple[Future, Future | None] | None]) -> None:
    """Cancel the sends this call makes that have not started."""
    for send in sends:
        if send is not None and send[1] is not None:
            send[1].cancel()


def record_usage(
    ledger: CostLedger, tier: ModelTier, input_tokens: int, output_tokens: int, team: str
):
    """Append one usage entry, for `team`, priced at the tier's per-1k rates."""
    cost = (
        input_tokens / 1000.0 * tier.cost_per_1k_input
        + output_tokens / 1000.0 * tier.cost_per_1k_output
    )
    return ledger.add(tier.tier, tier.model_id, input_tokens, output_tokens, cost, team=team)


def _metrics_payload(metrics: FileMetrics) -> dict:
    return {
        "byte_size": metrics.byte_size,
        "line_count": metrics.line_count,
        "kind": metrics.kind,
        "complexity": metrics.complexity.file_score if metrics.complexity else None,
        "tag_count": metrics.tag_count,
    }


def file_call(
    tier: ModelTier,
    path: str,
    content: str,
    metrics: FileMetrics,
) -> Call | None:
    """The request behind one Functionality Table row; None for an empty file.

    Content is clipped to the first and last N lines; N halves while
    `prepare` finds the request over budget, down to 3.
    """
    if not content.strip():
        return None
    clip = DEFAULT_CLIP_LINES
    while True:
        data = {
            "task": "summarize-file",
            "path": path,
            "metrics": _metrics_payload(metrics),
            "content": clip_content(content, clip),
        }
        try:
            return prepare(tier, "summarize_file", data)
        except BudgetExceeded:
            if clip <= 4:
                raise BudgetExceeded(
                    f"{path}: content cannot fit tier budget even fully clipped"
                ) from None
            clip //= 2


def functionality_row(path: str, metrics: FileMetrics, text: str | None) -> FunctionalityTableRow:
    """Functionality Table row from the answer to `file_call` (None: empty file)."""
    if text is None:
        functionality, difficulty = "empty file", "none"
    else:
        functionality, difficulty = _parse_two_fields(text)
    return FunctionalityTableRow(
        filename=path,
        functionality=functionality,
        difficulty=difficulty,
        byte_size=metrics.byte_size,
        line_count=metrics.line_count,
        complexity=metrics.complexity.file_score if metrics.complexity else None,
        tag_count=metrics.tag_count,
    )


def _parse_two_fields(text: str) -> tuple[str, str]:
    functionality = difficulty = ""
    for line in text.splitlines():
        stripped = line.strip()
        if stripped.lower().startswith("functionality:"):
            functionality = stripped.split(":", 1)[1].strip()
        elif stripped.lower().startswith("difficulty:"):
            difficulty = stripped.split(":", 1)[1].strip()
    if not functionality:
        functionality = text.strip() or "(no response)"
    if not difficulty:
        difficulty = "(not stated)"
    return functionality, difficulty


def contribution_call(
    tier: ModelTier, functionality: str, evidence: ContributionEvidence
) -> Call:
    """The request behind one Contribution Table row; `functionality` is
    the file's Functionality Table text."""
    if not evidence.has_lines:
        raise ValueError(
            f"no measurable lines for {evidence.student.id} in {evidence.path}; "
            "caller must not request a description"
        )
    data = {
        "task": "describe-contribution",
        "student_id": evidence.student.id,
        "student_name": evidence.student.display_name,
        "path": evidence.path,
        "file_functionality": functionality,
        "lines_owned": evidence.lines_owned,
        "lines_added_in_window": evidence.lines_added_in_window,
        "commit_messages": evidence.commit_messages[:20],
        "solo_functions": [[n, s] for n, s in evidence.solo_functions],
    }
    return prepare(tier, "describe_contribution", data)


def contribution_row(evidence: ContributionEvidence, text: str) -> ContributionTableRow:
    """Contribution Table row from the answer to `contribution_call`."""
    return ContributionTableRow(
        student=evidence.student.id,
        file=evidence.path,
        description=text.strip(),
        lines_owned=evidence.lines_owned,
        lines_added_in_window=evidence.lines_added_in_window,
        solo_functions=solo_functions_text(evidence.solo_functions),
    )


def file_calls(tier: ModelTier, files: Iterable[KeptFile]) -> list[Call | None]:
    """The requests behind the Functionality Table rows of `files`, in order."""
    return [file_call(tier, f.path, f.content.decode("utf-8", "replace"), f.metrics) for f in files]


def fill_tables(
    pool: SendPool, tier: ModelTier, file_rows: Batch, cset: ContributionSet, roster: Roster,
    team: str,
) -> tuple[list[FunctionalityTableRow], list[ContributionTableRow]]:
    """Functionality and Contribution Table rows of one contribution set,
    answered on `pool` for `team`.

    `file_rows` is `pool.ask(file_calls(tier, cset.files), team)`, asked as soon
    as the snapshot's files were measured: its answers are taken first, in
    `cset.files` order, then one `answer_all` batch of contribution rows,
    in roster order, for every evidence entry with lines; each of those
    names a kept file, so its row quotes that file's functionality.
    """
    answers = pool.answers(file_rows)
    functionality_rows = [
        functionality_row(f.path, f.metrics, answer) for f, answer in zip(cset.files, answers)
    ]
    functionality = {row.filename: row.functionality for row in functionality_rows}

    evidence = [
        ev
        for student in roster.students
        for ev in cset.evidence_for(student.id)
        if ev.has_lines
    ]
    calls = [contribution_call(tier, functionality[ev.path], ev) for ev in evidence]
    answers = pool.answer_all(calls, team)
    contribution_rows = [contribution_row(ev, answer) for ev, answer in zip(evidence, answers)]
    return functionality_rows, contribution_rows


def synthesize(
    pool: SendPool, tier: ModelTier, bundle: SynthesisBundle, team: str
) -> tuple[list[StudentSummary], TeamSummary]:
    """Synthesis-tier call producing every student summary plus the team's.

    The request, like its repair retry, is answered by `pool.answer_all`
    for `team`. Students without window evidence get a fixed
    no-contribution summary without touching the provider. A malformed
    response triggers exactly one corrective repair retry before
    TemplateViolation is raised.
    """
    active: list[StudentId] = []
    idle: list[StudentId] = []
    for student in bundle.roster.students:
        rows = bundle.contribution_set.evidence_for(student.id)
        (active if any(r.has_lines or r.commit_messages for r in rows) else idle).append(student)

    summaries: list[StudentSummary] = [
        StudentSummary(student=s, headline=NO_CONTRIBUTION_TEXT) for s in idle
    ]

    if not active:
        team_summary = TeamSummary(
            window=bundle.contribution_set.window,
            narrative="No recorded team contributions in this window.",
            progress_bullets=(),
        )
        return _in_roster_order(summaries, bundle.roster), team_summary

    described = {(r.student, r.file): r.description for r in bundle.contribution_rows}
    students_payload = []
    for student in active:
        files = []
        for ev in bundle.contribution_set.evidence_for(student.id):
            if not ev.has_lines and not ev.commit_messages:
                continue
            files.append(
                {
                    "path": ev.path,
                    "description": described.get((student.id, ev.path), ""),
                    "lines_owned": ev.lines_owned,
                    "lines_added_in_window": ev.lines_added_in_window,
                    "solo_functions": [[n, s] for n, s in ev.solo_functions],
                }
            )
        students_payload.append(
            {"id": student.id, "name": student.display_name, "files": files}
        )

    data = {
        "task": "synthesize",
        "students": students_payload,
        "functionality": [
            {"path": r.filename, "functionality": r.functionality, "complexity": r.complexity}
            for r in bundle.functionality_rows
        ],
        "sprint_instructions": bundle.sprint_instructions,
        "project_description": bundle.project_description,
        "roles_requested": bundle.roles_enabled,
        "template_instructions": load_template("synthesize"),
    }

    [text] = pool.answer_all([prepare(tier, "synthesize", data)], team)
    try:
        parsed, team_summary = _parse_synthesis(text, [s.id for s in active], bundle)
    except TemplateViolation as first_error:
        repair = load_template("repair")
        prompt = repair.replace("<<PROBLEMS>>", str(first_error)).replace(
            "<<ORIGINAL>>", _render("synthesize", data)
        )
        [text] = pool.answer_all([prepare(tier, "repair", data, prompt_override=prompt)], team)
        parsed, team_summary = _parse_synthesis(text, [s.id for s in active], bundle)

    summaries.extend(parsed)
    return _in_roster_order(summaries, bundle.roster), team_summary


def _in_roster_order(summaries: list[StudentSummary], roster: Roster) -> list[StudentSummary]:
    order = {s.id: i for i, s in enumerate(roster.students)}
    return sorted(summaries, key=lambda s: order.get(s.student.id, len(order)))


_SECTION_RE = re.compile(r"^### (STUDENT (\S+)|TEAM)\s*$", re.MULTILINE)
_ROLE_RE = re.compile(r"^Role:\s*(Junior|Senior)\s+(.+?)\s*$", re.MULTILINE)


def _parse_synthesis(
    text: str, expected_ids: list[str], bundle: SynthesisBundle
) -> tuple[list[StudentSummary], TeamSummary]:
    matches = list(_SECTION_RE.finditer(text))
    if not matches:
        raise TemplateViolation("no '### STUDENT' or '### TEAM' sections found")
    sections: list[tuple[str | None, str]] = []
    for i, match in enumerate(matches):
        end = matches[i + 1].start() if i + 1 < len(matches) else len(text)
        body = text[match.end():end].strip()
        sections.append((match.group(2), body))  # group(2) is None for TEAM

    student_bodies = {sid: body for sid, body in sections if sid is not None}
    team_bodies = [body for sid, body in sections if sid is None]
    missing = [sid for sid in expected_ids if sid not in student_bodies]
    if missing:
        raise TemplateViolation(f"missing student sections: {', '.join(missing)}")
    if len(team_bodies) != 1:
        raise TemplateViolation(f"expected exactly one TEAM section, found {len(team_bodies)}")

    students_by_id = {s.id: s for s in bundle.roster.students}
    summaries: list[StudentSummary] = []
    for sid in expected_ids:
        body = student_bodies[sid]
        headline, bullets = _parse_student_body(sid, body)
        role = None
        if bundle.roles_enabled:
            role_match = _ROLE_RE.search(body)
            if not role_match:
                raise TemplateViolation(f"student {sid}: missing Role line")
            seniority, role_name = role_match.group(1), role_match.group(2).strip()
            if role_name not in ROLES:
                raise TemplateViolation(f"student {sid}: role {role_name!r} not in enumeration")
            role = RoleAssignment(role=role_name, seniority=seniority)
        summaries.append(
            StudentSummary(
                student=students_by_id[sid],
                headline=headline,
                per_file_bullets=bullets,
                role=role,
            )
        )

    team_lines = team_bodies[0].splitlines()
    narrative_lines = [l for l in team_lines if l.strip() and not l.strip().startswith("- ")]
    bullet_lines = [l.strip()[2:].strip() for l in team_lines if l.strip().startswith("- ")]
    narrative = " ".join(l.strip() for l in narrative_lines).strip()
    if not narrative:
        raise TemplateViolation("TEAM section has no narrative paragraph")
    team = TeamSummary(bundle.contribution_set.window, narrative, tuple(bullet_lines))
    return summaries, team


def _parse_student_body(sid: str, body: str) -> tuple[str, list[tuple[str, str]]]:
    summary_match = re.search(r"^Summary:\s*(.+?)(?=^Contributions:|\Z)", body, re.MULTILINE | re.DOTALL)
    if not summary_match:
        raise TemplateViolation(f"student {sid}: missing 'Summary:' paragraph")
    headline = " ".join(summary_match.group(1).split())
    if "Contributions:" not in body:
        raise TemplateViolation(f"student {sid}: missing 'Contributions:' list")
    bullets: list[tuple[str, str]] = []
    in_bullets = False
    for line in body.splitlines():
        stripped = line.strip()
        if stripped.startswith("Contributions:"):
            in_bullets = True
            continue
        if in_bullets and stripped.startswith("- "):
            item = stripped[2:]
            path, sep, desc = item.partition(":")
            if not sep:
                raise TemplateViolation(f"student {sid}: bullet without '<path>: <text>': {item!r}")
            bullets.append((path.strip().strip("`"), desc.strip()))
        elif in_bullets and stripped and not stripped.startswith("- "):
            in_bullets = False
    return headline, bullets


def validate_summary(summary: StudentSummary, contribution_set: ContributionSet) -> ValidationReport:
    """Deterministic cross-check of summary claims against blame evidence.

    Never raises; every unsupported claim becomes a flag. This is the
    safety net against models being led by untrue source-code comments.
    """
    evidence = {ev.path: ev for ev in contribution_set.evidence_for(summary.student.id)}
    flags: list[tuple[str, str]] = []
    for path, text in summary.per_file_bullets:
        claim = f"{path}: {text}"
        ev = evidence.get(path)
        if ev is None:
            flags.append((claim, "file-not-touched"))
        elif not ev.has_lines:
            flags.append((claim, "zero-lines"))
        elif ev.comment_only:
            flags.append((claim, "comment-only-evidence"))
    return ValidationReport(status="flagged" if flags else "clean", flags=tuple(flags))
