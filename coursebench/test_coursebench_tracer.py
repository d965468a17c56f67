"""The outside-in tracer, checked against stand-in modules (not contribsum)."""

from __future__ import annotations

import threading
import types

import pytest

from tracer import Tracer


def _standin():
    """A module with a function that another module imports by name."""
    lib = types.ModuleType("standin_lib")
    exec(
        "def inner(x):\n"
        "    return x + 1\n"
        "def outer(team, x):\n"
        "    return inner(x) + inner(x)\n"
        "def _private():\n"
        "    return 0\n"
        "class Box:\n"
        "    def get(self, x):\n"
        "        return inner(x)\n",
        lib.__dict__,
    )
    user = types.ModuleType("standin_user")
    user.inner = lib.inner  # as `from standin_lib import inner` would bind it
    return lib, user


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_name_imported_elsewhere_is_wrapped_everywhere():
    lib, user = _standin()
    tracer = Tracer()
    assert tracer.wrap(lib, "inner", "lib.inner", [lib, user])
    assert user.inner is lib.inner
    lib.outer("t", 1)
    user.inner(2)
    assert tracer.calls("lib.inner") == 3
    tracer.uninstall()
    lib.inner(3)
    assert tracer.calls("lib.inner") == 3


def test_spans_nest_and_carry_team():
    lib, user = _standin()
    tracer = Tracer()
    tracer.wrap(lib, "inner", "lib.inner", [lib, user])
    tracer.wrap(lib, "outer", "lib.outer", [lib, user], team_arg=0)
    assert lib.outer("team-a", 1) == 4
    outer = [i for i, s in enumerate(tracer.spans) if s.name == "lib.outer"]
    inner = [s for s in tracer.spans if s.name == "lib.inner"]
    assert len(outer) == 1 and len(inner) == 2
    assert tracer.spans[outer[0]].parent == -1
    assert all(s.parent == outer[0] and s.team == "team-a" for s in inner)


def test_methods_and_on_call_counts():
    lib, user = _standin()
    tracer = Tracer()
    tracer.wrap(lib.Box, "get", "lib.Box.get", on_call=lambda t, args, r: t.count("got", r))
    assert lib.Box().get(4) == 5
    assert tracer.calls("lib.Box.get") == 1
    assert tracer.counts["got"] == 5


def test_self_time_subtracts_union_of_children():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    with tracer.span("a.parent"):
        clock.now = 1.0
        with tracer.span("b.child"):
            clock.now = 3.0
        clock.now = 4.0
    # a second root whose children overlap, as concurrent children would
    with tracer.span("a.root"):
        pass
    root = len(tracer.spans) - 1
    tracer.spans[root].start, tracer.spans[root].end = 10.0, 20.0
    for start, end in ((11.0, 15.0), (13.0, 17.0), (19.0, 25.0)):
        with tracer.span("b.late"):
            pass
        tracer.spans[-1].parent = root
        tracer.spans[-1].start, tracer.spans[-1].end = start, end
    own = tracer.self_times()
    assert own[0] == pytest.approx(2.0)  # 4 s minus the 2 s child
    assert own[root] == pytest.approx(10.0 - 6.0 - 1.0)  # [11, 17] and [19, 20]
    layers = tracer.layer_self_time()
    assert layers["a"] == pytest.approx(5.0)


def test_threads_keep_their_own_parents():
    lib, user = _standin()
    tracer = Tracer()
    tracer.wrap(lib, "inner", "lib.inner", [lib, user])
    tracer.wrap(lib, "outer", "lib.outer", [lib, user], team_arg=0)
    start = threading.Barrier(4)

    def work(team):
        start.wait(timeout=10)
        for _ in range(200):
            lib.outer(team, 1)

    threads = [threading.Thread(target=work, args=(f"t{i}",)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert not any(t.is_alive() for t in threads)
    spans = tracer.spans
    assert sum(1 for s in spans if s.name == "lib.outer") == 800
    for s in spans:
        if s.name == "lib.inner":
            parent = spans[s.parent]
            assert parent.name == "lib.outer" and parent.team == s.team
            assert parent.start <= s.start <= s.end <= parent.end


def test_missing_target_is_reported_absent():
    lib, user = _standin()
    tracer = Tracer()
    assert not tracer.wrap(lib, "deleted_function", "lib.deleted_function", [lib])
    assert not tracer.wrap(None, "get", "lib.Gone.get")
    assert tracer.absent == ["lib.deleted_function", "lib.Gone.get"]
    assert tracer.calls("lib.deleted_function") == 0


def test_wrap_module_skips_private_and_never_wraps_twice():
    lib, user = _standin()
    tracer = Tracer()
    tracer.wrap(lib, "inner", "lib.inner", [lib, user])
    tracer.wrap_module(lib, "lib", [lib, user])
    lib.outer("t", 1)
    lib.Box().get(1)
    lib._private()
    names = sorted(s.name for s in tracer.spans)
    assert names == ["lib.Box.get", "lib.inner", "lib.inner", "lib.inner", "lib.outer"]
