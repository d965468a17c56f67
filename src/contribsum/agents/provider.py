"""Model providers: live HTTP, record/replay fixtures, deterministic mock.

All three expose one call, `send(messages, model_id) -> ProviderResponse`.
The wire format of the live provider is a JSON chat completion: POST
{model, messages:[{role, content}]}, response carrying the text plus
input/output token counts.

The mock costs near-zero CPU per call (tens of microseconds), so when a
benchmark puts a fixed delay in front of it to stand in for a live
endpoint, that delay is what a send costs, and the send threads leave
the interpreter lock to the threads that replay and record.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from ..errors import ProviderError
from ..store import write_atomic

ANALYSIS_TIER = "analysis"
SYNTHESIS_TIER = "synthesis"

# Conservative estimation rule used for every budget decision: one token
# per four characters, rounded up.
def estimate_tokens(text: str) -> int:
    return (len(text) + 3) // 4


# Requests never use more than this share of a tier's context window.
BUDGET_FRACTION = 0.8


@dataclass(frozen=True)
class ModelTier:
    tier: str  # "analysis" | "synthesis"
    model_id: str
    max_input_tokens: int
    cost_per_1k_input: float
    cost_per_1k_output: float

    def __post_init__(self):
        if self.tier not in (ANALYSIS_TIER, SYNTHESIS_TIER):
            raise ValueError(f"unknown tier {self.tier!r}")
        if self.max_input_tokens <= 0:
            raise ValueError("max_input_tokens must be positive")
        rates = (self.cost_per_1k_input, self.cost_per_1k_output)
        if not all(0 <= rate < math.inf for rate in rates):
            raise ValueError("rates must be finite, non-negative numbers")

    @property
    def input_budget(self) -> int:
        return int(self.max_input_tokens * BUDGET_FRACTION)


@dataclass(frozen=True)
class ProviderResponse:
    text: str
    input_tokens: int
    output_tokens: int


def request_digest(messages: list[dict], model_id: str) -> str:
    material = json.dumps({"model": model_id, "messages": messages}, sort_keys=True)
    return hashlib.sha256(material.encode()).hexdigest()


class TokenBucket:
    """Token-bucket rate limiter of capacity one, shared by concurrent workers."""

    def __init__(self, rate_per_second: float):
        self.rate = rate_per_second
        self._tokens = 1.0
        self._last = time.monotonic()
        self._lock = threading.Lock()

    def acquire(self) -> None:
        while True:
            with self._lock:
                now = time.monotonic()
                self._tokens = min(1.0, self._tokens + (now - self._last) * self.rate)
                self._last = now
                if self._tokens >= 1:
                    self._tokens -= 1
                    return
                wait = (1 - self._tokens) / self.rate
            time.sleep(wait)


# Seconds one HTTP request may take before it counts as a transport failure.
REQUEST_TIMEOUT = 120.0
# Attempts per request, the first one included.
MAX_ATTEMPTS = 3
# Longest server-requested wait honored between two attempts, in seconds.
MAX_RETRY_AFTER = 60.0


def _retry_delay(resp, attempt: int) -> float:
    """Seconds to wait before the next attempt: the answer's Retry-After
    when it gives one in whole seconds, else 2, 4, 8."""
    try:
        return float(min(max(int(resp.headers["Retry-After"]), 0), MAX_RETRY_AFTER))
    except (KeyError, ValueError):
        return min(2.0 ** attempt, 8.0)


class HttpProvider:
    """Live chat-completion provider over HTTP JSON.

    One provider serves every send thread of a run. The first 429 answer
    turns it to one request at a time for the rest of its life, so an
    endpoint that refuses the run's concurrency is then sent to as a
    sequential client would: a refused request's retry goes out alone.
    """

    def __init__(
        self,
        endpoint: str,
        api_key: str,
        rate_limiter: TokenBucket | None = None,
    ):
        self.endpoint = endpoint
        self.api_key = api_key
        self.rate_limiter = rate_limiter
        self.one_at_a_time = False
        self._in_flight = 0
        self._turn = threading.Condition()

    @contextmanager
    def _slot(self):
        """Hold one request in flight; once throttled, only while no other is."""
        with self._turn:
            while self.one_at_a_time and self._in_flight:
                self._turn.wait()
            self._in_flight += 1
        try:
            yield
        finally:
            with self._turn:
                self._in_flight -= 1
                self._turn.notify_all()

    def send(self, messages: list[dict], model_id: str) -> ProviderResponse:
        import requests

        last_error = "no attempt made"
        delay = 0.0  # before the next attempt; none after the last
        for attempt in range(1, MAX_ATTEMPTS + 1):
            if attempt > 1:
                time.sleep(delay)
            if self.rate_limiter:
                self.rate_limiter.acquire()
            try:
                with self._slot():
                    resp = requests.post(
                        self.endpoint,
                        json={"model": model_id, "messages": messages},
                        headers={"Authorization": f"Bearer {self.api_key}"},
                        timeout=REQUEST_TIMEOUT,
                    )
            except requests.RequestException as exc:
                last_error = f"transport failure: {exc}"
                delay = min(2.0 ** attempt, 8.0)
                continue
            if resp.status_code == 429 or resp.status_code >= 500:
                if resp.status_code == 429:
                    with self._turn:
                        self.one_at_a_time = True
                last_error = f"HTTP {resp.status_code}"
                delay = _retry_delay(resp, attempt)
                continue
            if resp.status_code != 200:
                raise ProviderError(f"HTTP {resp.status_code}: {resp.text[:200]}", attempt)
            try:
                body = resp.json()
                text = body["choices"][0]["message"]["content"]
                usage = body.get("usage", {})
                return ProviderResponse(
                    text=text,
                    input_tokens=int(usage.get("prompt_tokens", 0)),
                    output_tokens=int(usage.get("completion_tokens", 0)),
                )
            except (KeyError, IndexError, TypeError, ValueError, RecursionError) as exc:
                raise ProviderError(f"malformed provider response: {exc}", attempt)
        raise ProviderError(last_error, MAX_ATTEMPTS)


class ReplayProvider:
    """Record/replay fixture provider.

    In record mode it forwards to an inner provider and writes one JSON
    file per request into the replay directory, each by an atomic rename.
    In replay mode (no inner provider) a missing recording is an error, so
    tests never silently hit the network; so is a recording that is not
    JSON or holds no response, such as one cut short.
    """

    def __init__(self, directory: str | Path, inner=None):
        self.directory = Path(directory)
        self.inner = inner

    def _path(self, digest: str) -> Path:
        return self.directory / f"{digest}.json"

    def send(self, messages: list[dict], model_id: str) -> ProviderResponse:
        digest = request_digest(messages, model_id)
        path = self._path(digest)
        if path.exists():
            try:
                r = json.loads(path.read_text(encoding="utf-8"))["response"]
                return ProviderResponse(r["text"], r["input_tokens"], r["output_tokens"])
            except (ValueError, KeyError, TypeError, RecursionError) as exc:
                # not JSON text, no response in it (a recording cut short), or
                # nested past the interpreter's recursion limit
                raise ProviderError(
                    f"unreadable recording {digest[:12]} in {self.directory}"
                ) from exc
        if self.inner is None:
            raise ProviderError(f"no recording for request {digest[:12]} in {self.directory}")
        response = self.inner.send(messages, model_id)
        self.directory.mkdir(parents=True, exist_ok=True)
        write_atomic(
            path,
            json.dumps(
                {
                    "request": {"model": model_id, "messages": messages},
                    "response": {
                        "text": response.text,
                        "input_tokens": response.input_tokens,
                        "output_tokens": response.output_tokens,
                    },
                },
                sort_keys=True,
                indent=2,
            ),
        )
        return response


_DATA_RE = re.compile(r"\[\[DATA\]\]\n(.*)\n\[\[/DATA\]\]", re.DOTALL)


def extract_data_block(prompt: str) -> dict | None:
    match = _DATA_RE.search(prompt)
    if not match:
        return None
    try:
        return json.loads(match.group(1))
    except json.JSONDecodeError:
        return None


class MockProvider:
    """Deterministic offline provider: hashed request -> generated text.

    Responses are pure functions of the request, so the whole pipeline
    becomes reproducible byte for byte. When constructed with per-model
    budgets it asserts the documented budget rule on every call, which
    is how the acceptance suite enforces the invariant.

    A call costs near-zero CPU: each theme's regex runs only on a text
    holding one of its literals, and the request digest is computed only
    for the `[mock:<digest>]` answer to a request with no known task. It
    keeps nothing of a request once answered.
    """

    def __init__(self, budgets: dict[str, int] | None = None):
        self.budgets = budgets or {}

    def send(self, messages: list[dict], model_id: str) -> ProviderResponse:
        joined = "".join(m.get("content", "") for m in messages)
        if model_id in self.budgets:
            limit = int(self.budgets[model_id] * BUDGET_FRACTION)
            assert estimate_tokens(joined) <= limit, (
                f"request estimate {estimate_tokens(joined)} exceeds "
                f"{BUDGET_FRACTION:.0%} budget {limit} for {model_id}"
            )
        data = extract_data_block(joined)
        text = _generate(data) if data else None
        if text is None:
            text = f"[mock:{request_digest(messages, model_id)[:12]}]"
        return ProviderResponse(
            text=text,
            input_tokens=estimate_tokens(joined),
            output_tokens=estimate_tokens(text),
        )


# Mock text generation: keyword-driven so dry runs read plausibly and so
# deterministic fixtures can assert on meaningful phrases. Word-anchored
# patterns: "auth" must not fire inside "author". Each pattern is the
# theme's rule; beside it stand literals that every match of the pattern
# contains, so a text holding none of them cannot match and the regex is
# run only on a text that holds one.

_THEMES = (
    (r"\bflask\b|\bfastapi\b|\bserver", ("flask", "fastapi", "server"), "server setup"),
    (r"\broute|\bendpoint", ("route", "endpoint"), "route registration"),
    (r"\bmongo|\bsql|\bdatabase", ("mongo", "sql", "database"), "database initialization"),
    (r"\bredis\b|\bcache", ("redis", "cache"), "cache initialization"),
    (r"\bauth(?!or)|\blogin", ("auth", "login"), "authentication"),
    (r"\bpassword", ("password",), "password handling"),
    (r"\btoken", ("token",), "token handling"),
    (r"\bsecret", ("secret",), "secrets handling"),
    (r"\brecover", ("recover",), "account recovery"),
    (r"<form|\bforms?\b", ("form",), "form handling"),
    (r"\bbutton", ("button",), "interface controls"),
    (r"\bparagraph", ("paragraph",), "page content"),
    (r"<html|<div|\bhtml\b", ("html", "<div"), "page structure"),
    (r"\bpandas\b|\bdataframe", ("pandas", "dataframe"), "data analysis"),
    (r"\bplot", ("plot",), "data visualization"),
    (r"\btest", ("test",), "tests"),
    (r"\breadme\b", ("readme",), "documentation"),
)

_THEME_RULES = tuple(
    (re.compile(pattern), literals, theme) for pattern, literals, theme in _THEMES
)

_SECURITY_THEMES = {
    "authentication",
    "password handling",
    "token handling",
    "secrets handling",
    "account recovery",
}


def _themes_of(text: str) -> list[str]:
    """The themes whose patterns match the lowered text, in `_THEMES` order."""
    lower = text.lower()
    return [
        theme
        for pattern, literals, theme in _THEME_RULES
        if any(literal in lower for literal in literals) and pattern.search(lower)
    ]


def _generate(data: dict) -> str | None:
    """The text for a `[[DATA]]` block's task; None for a task it does not know."""
    task = data.get("task", "")
    if task == "summarize-file":
        return _gen_summary(data)
    if task == "describe-contribution":
        return _gen_description(data)
    if task == "synthesize":
        return _gen_synthesis(data)
    return None


def _gen_summary(data: dict) -> str:
    path = data.get("path", "file")
    themes = _themes_of(data.get("content", "") + " " + path) or ["core project logic"]
    functionality = f"The file {path} implements {', '.join(themes)}."
    hardest = themes[0]
    difficulty = (
        f"Main challenges involve getting {hardest} right and keeping the "
        f"remaining parts ({', '.join(themes[1:]) or 'supporting logic'}) consistent."
    )
    return f"Functionality: {functionality}\nDifficulty: {difficulty}"


def _gen_description(data: dict) -> str:
    name = data.get("student_name", "The student")
    path = data.get("path", "the file")
    owned = data.get("lines_owned", 0)
    added = data.get("lines_added_in_window", 0)
    themes = _themes_of(
        data.get("file_functionality", "")
        + " "
        + " ".join(data.get("commit_messages", []))
        + " "
        + path
    )
    text = (
        f"{name} wrote {owned} of the surviving lines in {path}"
        f" ({added} added this window)"
    )
    if themes:
        text += f", contributing to {', '.join(themes)}"
    text += "."
    solos = data.get("solo_functions", [])
    if solos:
        listed = ", ".join(f"{n} (complexity {s})" for n, s in solos)
        text += f" Sole author of {listed}."
    return text


def _role_for(themes: list[str], paths: list[str], total_lines: int) -> str:
    seniority = "Senior" if total_lines >= 120 else "Junior"
    markup = sum(1 for p in paths if p.endswith((".html", ".htm", ".css")))
    docs = sum(1 for p in paths if p.endswith((".md", ".rst", ".txt")))
    data_files = sum(1 for p in paths if p.endswith((".ipynb", ".csv")))
    if _SECURITY_THEMES & set(themes):
        role = "Security Engineer"
    elif docs and docs >= len(paths) - docs:
        role = "Documenter"
    elif markup and markup >= len(paths) - markup:
        role = "Frontend Engineer"
    elif data_files:
        role = "Data Engineer"
    else:
        role = "Backend Engineer"
    return f"Role: {seniority} {role}"


def _gen_synthesis(data: dict) -> str:
    blocks: list[str] = []
    roles_requested = bool(data.get("roles_requested"))
    for student in data.get("students", []):
        files = student.get("files", [])
        paths = [f["path"] for f in files]
        themes = _themes_of(" ".join(f.get("description", "") + " " + f["path"] for f in files))
        total = sum(f.get("lines_owned", 0) for f in files)
        name = student.get("name", student.get("id", "student"))
        if _SECURITY_THEMES & set(themes):
            focus = "security and authentication"
        elif themes:
            focus = " and ".join(themes[:2])
        else:
            focus = "general project work"
        lines = [f"### STUDENT {student['id']}"]
        lines.append(
            f"Summary: {name} focused on {focus}, contributing {total} surviving "
            f"lines across {len(files)} file{'s' if len(files) != 1 else ''}."
        )
        lines.append("Contributions:")
        for f in files:
            desc = f.get("description") or "contributed changes"
            first = desc.split(". ")[0].rstrip(".")
            lines.append(f"- {f['path']}: {first}.")
        if roles_requested:
            lines.append(_role_for(themes, paths, total))
        blocks.append("\n".join(lines))

    team_themes = _themes_of(
        " ".join(
            f.get("description", "")
            for s in data.get("students", [])
            for f in s.get("files", [])
        )
        + " "
        + data.get("project_description", "")
    )
    narrative = (
        "This window moved the project forward: "
        + (", ".join(team_themes[:4]) if team_themes else "groundwork across the codebase")
        + " advanced in line with the project goals."
    )
    team = ["### TEAM", narrative]
    for theme in team_themes[:4] or ["initial project setup"]:
        team.append(f"- Progress on {theme}.")
    blocks.append("\n".join(team))
    return "\n\n".join(blocks)
