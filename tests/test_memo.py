"""The memo's code digest."""

from __future__ import annotations

import shutil

from contribsum import memo


def _digest(monkeypatch, package) -> str:
    monkeypatch.setattr(memo, "PACKAGE", package)
    memo.code_digest.cache_clear()
    try:
        return memo.code_digest()
    finally:
        memo.code_digest.cache_clear()


def test_digest_changes_with_each_source(tmp_path, monkeypatch):
    """One more byte in any one module or prompt template of the package
    gives another digest, so an edit to it retires every memo entry."""
    package = tmp_path / "contribsum"
    shutil.copytree(memo.PACKAGE, package, ignore=shutil.ignore_patterns("__pycache__"))
    sources = sorted(
        path for path in package.rglob("*")
        if path.suffix == ".py" or path.parent.name == "prompts"
    )
    names = {path.relative_to(package).as_posix() for path in sources}
    assert {"memo.py", "pipeline.py", "report.py", "tables.py", "agents/chain.py"} <= names
    assert {"agents/prompts/synthesize.txt", "agents/prompts/system.txt"} <= names
    digests = {None: _digest(monkeypatch, package)}
    for path in sources:
        original = path.read_bytes()
        path.write_bytes(original + b"\n")
        digests[path] = _digest(monkeypatch, package)
        path.write_bytes(original)
    assert len(set(digests.values())) == len(sources) + 1
    assert _digest(monkeypatch, package) == digests[None]


def test_digest_ignores_caches_and_other_files(tmp_path, monkeypatch):
    """Compiled caches and the fixture scripts shape no output the memo
    holds; a renamed module does."""
    package = tmp_path / "contribsum"
    shutil.copytree(memo.PACKAGE, package, ignore=shutil.ignore_patterns("__pycache__"))
    before = _digest(monkeypatch, package)
    (package / "__pycache__").mkdir()
    (package / "__pycache__" / "memo.cpython-311.pyc").write_bytes(b"\0")
    (package / "fixtures" / "extra.repo").write_text("# a fixture\n")
    assert _digest(monkeypatch, package) == before
    (package / "tables.py").rename(package / "tables_renamed.py")
    assert _digest(monkeypatch, package) != before
