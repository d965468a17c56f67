"""The memo's code digest."""

from __future__ import annotations

import types

from contribsum import memo

SOURCES = ("attribution.py", "gitio.py", "ingest.py", "memo.py", "metrics.py")


def test_digest_changes_with_each_source(monkeypatch):
    """One more byte in any one of the sources the memo holds the output
    of gives another digest, so an edit to it retires every memo entry."""
    package = memo.resources.files(memo.__package__)

    def sources(edited: str | None):
        """`importlib.resources` with `edited` read one byte longer."""
        def read(name: str) -> bytes:
            return package.joinpath(name).read_bytes() + (b"\n" if name == edited else b"")

        def joinpath(name: str):
            return types.SimpleNamespace(read_bytes=lambda: read(name))

        return types.SimpleNamespace(files=lambda _: types.SimpleNamespace(joinpath=joinpath))

    digests = {}
    try:
        for edited in (None, *SOURCES):
            monkeypatch.setattr(memo, "resources", sources(edited))
            memo.code_digest.cache_clear()
            digests[edited] = memo.code_digest()
    finally:
        memo.code_digest.cache_clear()
    assert len(set(digests.values())) == len(SOURCES) + 1
