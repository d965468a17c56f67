"""Correctness gate: every measured analysis is checked before it counts.

A team's output passes when its `contribution_set.json` matches the
synthfix ground truth at the window head line for line (oracle
equivalence) and each file's owned lines add up to the file's counted
lines (partition invariant). Budget violations and program errors are
reported by the worker; the digest ties outputs to one program version.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from collections import defaultdict
from pathlib import Path

from contribsum.synthfix import GroundTruth

from workloads import CHECKPOINT, LOCKFILE


def counted_files(truth: GroundTruth) -> dict[str, list]:
    """Window-head files the analysis counts.

    The generator writes `.py` files, `README.md` and the lockfile; of these
    only the lockfile is excluded by contribsum's defaults. The set is fixed
    here rather than asked of the program, so an exclusion that grows too
    broad shows as a mismatch.
    """
    return {
        path: lines
        for path, lines in truth.expected_lines(CHECKPOINT).items()
        if path != LOCKFILE
    }


def check_team(out_dir: Path, truth: GroundTruth) -> tuple[int, list[str]]:
    """(oracle mismatch lines, problems) for one team's window output."""
    try:
        cset = json.loads((out_dir / "contribution_set.json").read_text(encoding="utf-8"))
        got: dict[tuple[str, str], int] = {}
        for sid, rows in cset["per_student"].items():
            for row in rows:
                if row["lines_owned"]:
                    got[(sid, row["path"])] = int(row["lines_owned"])
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        return 0, [f"unreadable contribution_set.json: {exc!r}"]

    files = counted_files(truth)
    counted = dataclasses.replace(truth, checkpoints={CHECKPOINT: files})
    want = counted.expected_owned_counts(CHECKPOINT, split=True)
    mismatch = sum(abs(got.get(key, 0) - want.get(key, 0)) for key in set(got) | set(want))

    per_file: dict[str, int] = defaultdict(int)
    for (_sid, path), owned in got.items():
        per_file[path] += owned
    problems = [
        f"partition broken in {path}: {per_file.get(path, 0)} owned of {len(files.get(path, ()))}"
        for path in sorted(set(per_file) | set(files))
        if per_file.get(path, 0) != len(files.get(path, ()))
    ]
    if mismatch:
        problems.append(f"{mismatch} lines differ from the replay oracle")
    return mismatch, problems


def digest(*roots: Path) -> str:
    """sha256 over every file under the roots but `__pycache__`: relative path, then bytes."""
    h = hashlib.sha256()
    for root in roots:
        for path in sorted(p for p in root.rglob("*") if p.is_file()):
            if "__pycache__" not in path.relative_to(root).parts:
                h.update(path.relative_to(root).as_posix().encode() + b"\0")
                h.update(path.read_bytes())
    return h.hexdigest()
