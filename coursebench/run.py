"""Course-run benchmark for contribsum.

    python3 coursebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a contribsum checkout. `--workload all` runs every
workload in turn and prints each one's metrics.

A run builds the workload's repositories from the seed with synthfix and
runs its untimed priming analysis, at least three times and for at least
three seconds; `setup_s` is the median. For `--seconds` and at least
three times, it repeats the measured analysis, each in a fresh worker
process on a fresh copy of the latest primed state, and checks every
output against the replay oracle. The set-ups are spread over the
measured time. With `--trace 0` it reports the
end-to-end metrics; with `--trace 1` it alternates untraced and traced
analyses and reports the per-layer metrics of the traced ones. The last
line of standard output is one JSON object. Scratch files live under
`.coursebench/` in the checkout and are removed at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".coursebench"
SETUP_REPS = 3  # set up at least this often ...
SETUP_MIN_S = 3.0  # ... and for at least this long, so small set-ups get a steady median
MIN_ROUNDS = 3  # medians need at least three measured analyses
MIN_ROUNDS_TRACED = 2  # rounds of one untraced and one traced analysis
RUN_LIMIT_S = 165  # a run must end within 180 s, set-up included

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def fail(message: str) -> None:
    print(f"coursebench: {message}", file=sys.stderr)
    sys.exit(2)


def environment() -> str:
    git = subprocess.run(["git", "--version"], capture_output=True, text=True, check=True)
    return (
        f"{git.stdout.strip()}; python {platform.python_version()}; "
        f"nproc {len(os.sched_getaffinity(0))}"
    )


class Workspace:
    """One built and primed copy of a workload, plus its ground truths."""

    def __init__(self, directory: Path, workload, seed: int, deadline: float):
        from contribsum import synthfix

        import workloads

        self.directory = directory
        self.workload = workload
        self.deadline = deadline  # time.monotonic() by which every worker has ended
        self.repos = []
        self.truths = {}
        (directory / "repos").mkdir(parents=True)
        for index in range(len(workload.teams)):
            team = f"team-{index + 1}"
            path = directory / "repos" / team
            _, self.truths[team] = synthfix.build(
                workloads.team_script(seed, workload.name, index), path
            )
            self.repos.append((team, str(path)))

    def analyse(self, week: int, delay_s: float, trace: bool, directory: Path | None = None) -> dict:
        """Run the worker once in `directory` (default: the workspace itself)."""
        import workloads

        directory = directory or self.directory
        spec = {
            "src": str(SRC),
            "workspace": str(directory),
            "sprint_start": workloads.SPRINT_START.isoformat(),
            "week": week,
            "delay_s": delay_s,
            "include_branches": list(self.workload.include_branches),
            "repos": self.repos,
            "trace": trace,
            "result": str(directory / "result.json"),
        }
        spec_path = directory / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        (directory / "result.json").unlink(missing_ok=True)
        (directory / "roster.txt").write_text(workloads.ROSTER_TEXT, encoding="utf-8")
        log = directory / "worker.log"
        with open(log, "wb") as sink:
            # a session of its own, so a hung worker goes down with its git children
            worker = subprocess.Popen(
                [sys.executable, str(BENCH_DIR / "worker.py"), str(spec_path)],
                stdout=sink,
                stderr=subprocess.STDOUT,
                start_new_session=True,
            )
            try:
                worker.wait(timeout=max(1.0, self.deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                os.killpg(worker.pid, signal.SIGKILL)
                worker.wait()
                raise
        if worker.returncode != 0:
            tail = log.read_text(encoding="utf-8", errors="replace")[-2000:]
            raise RuntimeError(f"worker exited with {worker.returncode}:\n{tail}")
        return json.loads((directory / "result.json").read_text(encoding="utf-8"))


def set_up(workload, seed: int, directory: Path, deadline: float) -> tuple[Workspace, float]:
    """Build and prime one copy of the workload; (workspace, seconds taken)."""
    started = time.perf_counter()
    space = Workspace(directory, workload, seed, deadline)
    if workload.prime_week is not None:
        primed = space.analyse(workload.prime_week, 0.0, trace=False)
        failed = [t for t in primed["teams"] if not t["ok"]]
        if failed:
            raise RuntimeError(f"priming run failed: {failed}")
    return space, time.perf_counter() - started


def measured_once(space: Workspace, scratch: Path, trace: bool) -> dict:
    """One analysis on a fresh copy of the primed state, gated."""
    import gate

    run_dir = scratch / "run"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir()
    for name in ("state", "out"):
        if (space.directory / name).exists():
            shutil.copytree(space.directory / name, run_dir / name)
    result = space.analyse(space.workload.week, space.workload.delay_s, trace, run_dir)
    mismatch = 0
    problems = []
    failed = 0
    for team in result["teams"]:
        if not team["ok"]:
            failed += 1
            problems.append(f"{team['team']}: {team['error']}")
            continue
        out_dir = run_dir / "out" / team["team"] / f"week-{space.workload.week}"
        team_mismatch, team_problems = gate.check_team(out_dir, space.truths[team["team"]])
        mismatch += team_mismatch
        if team_problems:
            failed += 1
            problems.extend(f"{team['team']}: {p}" for p in team_problems)
    if result["provider"]["budget_failures"]:
        problems.append(f"{result['provider']['budget_failures']} requests over the token budget")
    result.update(
        attempted=len(result["teams"]),
        failed=failed,
        oracle_mismatch_lines=mismatch,
        problems=problems,
        digest=gate.digest(run_dir / "out"),
    )
    return result


def check_digest(key: str, value: str) -> bool:
    """True unless an earlier run of the same program and seed wrote other outputs."""
    registry_path = WORK / "digests.json"
    try:
        registry = json.loads(registry_path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        registry = {}
    if key in registry:
        return registry[key] == value
    registry[key] = value
    tmp = registry_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(registry, indent=1, sort_keys=True), encoding="utf-8")
    tmp.replace(registry_path)
    return True


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import gate
    import workloads

    workload = workloads.WORKLOADS[name]
    deadline = time.monotonic() + RUN_LIMIT_S
    scratch = WORK / str(os.getpid())
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    try:
        space = None
        setup_times: list[float] = []
        runs = []
        rounds = 0
        measured_s = 0.0
        min_rounds = MIN_ROUNDS_TRACED if trace else MIN_ROUNDS
        # The first SETUP_REPS set-ups are spread evenly over the measured
        # time, so a swing in machine speed that lasts a few seconds averages
        # out of both medians rather than landing on one of them.
        while True:
            setups_due = len(setup_times) < SETUP_REPS or sum(setup_times) < SETUP_MIN_S
            if setups_due and (
                len(setup_times) >= SETUP_REPS
                or measured_s >= len(setup_times) * seconds / SETUP_REPS
            ):
                if space is not None:
                    shutil.rmtree(space.directory, ignore_errors=True)
                space, took = set_up(
                    workload, seed, scratch / f"setup-{len(setup_times)}", deadline
                )
                setup_times.append(took)
                continue
            if not setups_due and rounds >= min_rounds and measured_s >= seconds:
                break
            rounds += 1
            started = time.perf_counter()
            for traced in ((False, True) if trace else (False,)):
                run = measured_once(space, scratch, traced)
                run["traced"] = traced
                runs.append(run)
                print(
                    f"{name}: {'traced ' if traced else ''}analysis {run['wall_s']:.3f} s, "
                    f"{run['peak_rss_mb']:.1f} MB, {run['provider']['calls']} provider calls, "
                    f"{run['failed']}/{run['attempted']} teams failed",
                    flush=True,
                )
                for problem in run["problems"]:
                    print(f"{name}:   {problem}", flush=True)
            measured_s += time.perf_counter() - started
        print(
            f"{name}: set up {len(setup_times)} times, {min(setup_times):.3f} to "
            f"{max(setup_times):.3f} s",
            flush=True,
        )
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        # the program under test broke or hung: report it as incorrect
        print(f"{name}: gate FAILED: {exc}", flush=True)
        teams = len(workload.teams)
        units = END_TO_END_UNITS if not trace else {}
        return {
            "correct": False,
            "attempted": teams,
            "failed": teams,
            "metrics": {key: {"value": 0.0, "unit": unit} for key, unit in units.items()},
        }
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    digests = {run["digest"] for run in runs}
    registry_key = f"{name}:{seed}:{gate.digest(SRC / 'contribsum', BENCH_DIR)}"
    consistent = len(digests) == 1 and check_digest(registry_key, runs[0]["digest"])
    print(f"{name}: output digest {runs[0]['digest']} ({'consistent' if consistent else 'DIFFERS'})")
    plain = [run for run in runs if not run["traced"]]
    traced = [run for run in runs if run["traced"]]
    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    mismatch = max(run["oracle_mismatch_lines"] for run in runs)
    correct = consistent and failed == 0 and not any(run["problems"] for run in runs)
    print(
        f"{name}: gate {'passed' if correct else 'FAILED'}: oracle_mismatch_lines {mismatch}, "
        f"failed_share {failed / attempted:.3f} ({failed}/{attempted} team analyses), "
        f"provider_calls {plain[-1]['provider']['calls']}, "
        f"provider_tokens_in {plain[-1]['provider']['tokens_in']}"
    )
    if trace:
        layers = {
            key: median([run["layers"][key] for run in traced]) for key in traced[0]["layers"]
        }
        layers["provider.calls"] = median([run["provider"]["calls"] for run in traced])
        layers["provider.tokens_in"] = median([run["provider"]["tokens_in"] for run in traced])
        layers["gate.oracle_mismatch_lines"] = mismatch
        layers["gate.failed_share"] = failed / attempted
        layers["trace.wall_s"] = median([run["wall_s"] for run in traced])
        layers["trace.overhead_s"] = layers["trace.wall_s"] - median([r["wall_s"] for r in plain])
        absent = sorted({target for run in traced for target in run["absent"]})
        if absent:
            print(f"{name}: absent trace targets: {', '.join(absent)}")
        metrics = {key: {"value": value, "unit": layer_unit(key)} for key, value in layers.items()}
    else:
        values = {
            "wall_s": median([run["wall_s"] for run in plain]),
            "setup_s": median(setup_times),
            "peak_rss_mb": median([run["peak_rss_mb"] for run in plain]),
        }
        metrics = {key: {"value": v, "unit": END_TO_END_UNITS[key]} for key, v in values.items()}
    for key, metric in metrics.items():
        print(f"{name}: {key} = {metric['value']:.6g} {metric['unit']}")
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def layer_unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("ratio", "share")):
        return "ratio"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "contribsum" / "__init__.py").is_file():
        fail(f"no contribsum sources at {SRC}; run from a contribsum checkout")
    if shutil.which("git") is None:
        fail("git is not on PATH")
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        fail(f"unknown workload {unknown[0]!r}; choose from {', '.join(workloads.WORKLOADS)}")
    # results must not depend on the user's or the system's git configuration
    os.environ.update(GIT_CONFIG_NOSYSTEM="1", GIT_CONFIG_GLOBAL=os.devnull)
    print(f"coursebench: {environment()}; seed {args.seed}", flush=True)

    WORK.mkdir(exist_ok=True)
    results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names}
    if len(results) == 1:
        summary = next(iter(results.values()))
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}/{key}": metric
                for name, result in results.items()
                for key, metric in result["metrics"].items()
            },
        }
    print(json.dumps(summary))


if __name__ == "__main__":
    main()
