"""Outside-in tracer: times and counts calls into a program's modules.

Wrappers are installed from outside the program by rebinding names. A
function imported by name into another module (`from .ingest import
walk_history`) is a second binding of the same object, so every binding
of the original in the given namespaces is pointed at one shared wrapper.
Methods are wrapped on their class, which every caller shares.

Each call becomes a span (name, start, end, parent, team). Parents come
from a per-thread stack, so spans stay correctly nested when the traced
program runs work on several threads. A wrapped function that returns a
generator is timed only until the generator is created.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from types import ModuleType


class Span:
    __slots__ = ("name", "start", "end", "parent", "team")

    def __init__(self, name: str, start: float, parent: int, team: str | None):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent  # index into Tracer.spans, -1 for a root
        self.team = team


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []
        self._wrapped: set[int] = set()  # ids of wrapped originals and of wrappers

    # --- recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, team: str | None = None):
        stack = self._stack()
        parent = stack[-1] if stack else -1
        if team is None and parent >= 0:
            team = self.spans[parent].team
        record = Span(name, self.clock(), parent, team)
        with self._lock:
            self.spans.append(record)
            index = len(self.spans) - 1
        stack.append(index)
        try:
            yield record
        finally:
            record.end = self.clock()
            stack.pop()

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counts[name] += n

    # --- installing ----------------------------------------------------------

    def rebind(self, original, replacement, namespaces) -> int:
        """Point every binding of `original` in `namespaces` at `replacement`."""
        bound = 0
        for namespace in namespaces:
            for key, value in list(vars(namespace).items()):
                if value is original:
                    setattr(namespace, key, replacement)
                    self._undo.append((namespace, key, original))
                    bound += 1
        return bound

    def wrap(self, owner, attr: str, name: str, namespaces=(), *, on_call=None, team_arg=None) -> bool:
        """Wrap `owner.attr` (a module function or a class method) as span `name`.

        `on_call(tracer, args, result)` runs after each call, for counts
        derived from arguments or results. `team_arg` names the positional
        argument that labels the span's team. Returns False, and records
        the name as absent, when the target does not exist.
        """
        original = getattr(owner, attr, None) if owner is not None else None
        if not callable(original):
            self.absent.append(name)
            return False
        if id(original) in self._wrapped:
            return True
        self._wrapped.add(id(original))

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            team = None
            if team_arg is not None and len(args) > team_arg:
                team = str(args[team_arg])
            with self.span(name, team):
                result = original(*args, **kwargs)
            if on_call is not None:
                on_call(self, args, result)
            return result

        self._wrapped.add(id(wrapper))
        if isinstance(owner, type):
            setattr(owner, attr, wrapper)
            self._undo.append((owner, attr, original))
        else:
            self.rebind(original, wrapper, {id(ns): ns for ns in (owner, *namespaces)}.values())
        return True

    def wrap_module(self, module: ModuleType, layer: str, namespaces=()) -> None:
        """Wrap every public function and public method defined in `module`."""
        for attr, value in sorted(vars(module).items()):
            if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(value):
                self.wrap(module, attr, f"{layer}.{attr}", namespaces)
            elif inspect.isclass(value):
                for method, func in sorted(vars(value).items()):
                    if not method.startswith("_") and inspect.isfunction(func):
                        self.wrap(value, method, f"{layer}.{attr}.{method}")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        self._wrapped.clear()

    # --- reading -------------------------------------------------------------

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def durations(self, name: str) -> list[float]:
        return [s.end - s.start for s in self.spans if s.name == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def median(self, name: str) -> float:
        values = self.durations(name)
        return statistics.median(values) if values else 0.0

    def self_times(self) -> list[float]:
        """Per span: its duration minus the union of its children's intervals."""
        children: dict[int, list[int]] = defaultdict(list)
        for index, record in enumerate(self.spans):
            if record.parent >= 0:
                children[record.parent].append(index)
        out = []
        for index, record in enumerate(self.spans):
            covered = 0.0
            reach = record.start
            intervals = sorted(
                (max(self.spans[c].start, record.start), min(self.spans[c].end, record.end))
                for c in children.get(index, ())
            )
            for start, end in intervals:
                start = max(start, reach)
                if end > start:
                    covered += end - start
                    reach = end
            out.append(record.end - record.start - covered)
        return out

    def layer_self_time(self) -> dict[str, float]:
        """Self time summed per layer, the span name's first dotted part."""
        totals: dict[str, float] = defaultdict(float)
        for record, own in zip(self.spans, self.self_times()):
            totals[record.name.split(".", 1)[0]] += own
        return dict(totals)
