"""One measured analysis, in a fresh process: `python3 worker.py SPEC.json`.

The worker drives contribsum the way `contribsum analyze` does: it writes
a contribsum INI file, loads it with `config.load_config`, builds the
on-disk `Store` and `CostLedger` the way `cli.cmd_analyze` does and calls
`pipeline.run_analysis`. Only the provider differs: the mock provider
that `cli.build_provider` returns sits behind a fixed per-call sleep.
With tracing on, wrappers around the program's modules record spans and
counts. The result goes to the JSON file the spec names.
"""

from __future__ import annotations

import difflib
import importlib
import json
import os
import pkgutil
import subprocess
import sys
import threading
import time
from pathlib import Path

CONFIG = """\
[run]
roster = roster.txt
sprint_start = {sprint_start}
out_dir = out
state_dir = state
provider = mock
include_branches = {include_branches}

[repos]
{repos}

[analysis_model]
model_id = mini-model
max_input_tokens = 128000

[synthesis_model]
model_id = big-model
max_input_tokens = 128000
"""

# layer name -> module; spans are named after the layer
LAYERS = {
    "gitio": "contribsum.gitio",
    "ingest": "contribsum.ingest",
    "attribution": "contribsum.attribution",
    "metrics": "contribsum.metrics",
    "identity": "contribsum.identity",
    "chain": "contribsum.agents.chain",
    "store": "contribsum.store",
    "report": "contribsum.report",
    "tables": "contribsum.tables",
    "pipeline": "contribsum.pipeline",
}


class DelayedProvider:
    """A provider behind a fixed sleep per call, standing in for a live endpoint."""

    def __init__(self, inner, delay_s: float):
        self.inner = inner
        self.delay_s = delay_s
        self.calls = 0
        self.tokens_in = 0
        self.tokens_out = 0
        self.wait_s = 0.0
        self.in_flight = 0
        self.max_in_flight = 0
        self.budget_failures = 0
        self._lock = threading.Lock()

    def send(self, messages, model_id):
        started = time.perf_counter()
        with self._lock:
            self.in_flight += 1
            self.max_in_flight = max(self.max_in_flight, self.in_flight)
        try:
            time.sleep(self.delay_s)
            response = self.inner.send(messages, model_id)
        except AssertionError:  # the mock's per-model budget check
            with self._lock:
                self.budget_failures += 1
            raise
        finally:
            with self._lock:
                self.in_flight -= 1
                self.wait_s += time.perf_counter() - started
        with self._lock:
            self.calls += 1
            self.tokens_in += response.input_tokens
            self.tokens_out += response.output_tokens
        return response


def peak_rss_mb() -> float:
    """This process's peak resident memory since it started the worker program.

    `ru_maxrss` would not do: Linux carries the parent's peak across exec.
    """
    for line in Path("/proc/self/status").read_text(encoding="ascii").splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def _program_modules() -> list:
    import contribsum

    for info in pkgutil.walk_packages(contribsum.__path__, "contribsum."):
        importlib.import_module(info.name)
    return [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "contribsum"]


def install_tracer(tracer, provider_class) -> None:
    """Wrap the program's layers; named targets carry the per-layer counters."""
    modules = _program_modules()

    def module(name):
        return sys.modules.get(name)

    def lines_of(t, args, result):
        t.count("metrics.cyclomatic.lines", args[0].count("\n") + 1 if args and args[0] else 0)

    def object_read(t, args, result):
        t.count("gitio.cat_file.bytes", len(result[1]))

    def cache_get(t, args, result):
        t.count("store.get.hits", result is not None)

    gitio = module(LAYERS["gitio"])
    reader = getattr(gitio, "ObjectReader", None)
    store = module(LAYERS["store"])
    targets = [
        (gitio, "diff_tree", "gitio.diff_tree", {}),
        (gitio, "rev_list", "gitio.rev_list", {}),
        (reader, "__init__", "gitio.ObjectReader.__init__", {}),
        (reader, "get", "gitio.ObjectReader.get", {"on_call": object_read}),
        (module(LAYERS["ingest"]), "walk_history", "ingest.walk_history", {}),
        (module(LAYERS["ingest"]), "snapshot", "ingest.snapshot", {}),
        (module(LAYERS["attribution"]), "build_contribution_set",
         "attribution.build_contribution_set", {}),
        (module(LAYERS["attribution"]), "branch_extra_attributions",
         "attribution.branch_extra_attributions", {}),
        (module(LAYERS["metrics"]), "cyclomatic", "metrics.cyclomatic", {"on_call": lines_of}),
        (module(LAYERS["identity"]), "resolve", "identity.resolve", {}),
        (module(LAYERS["chain"]), "summarize_file", "chain.summarize_file", {}),
        (module(LAYERS["chain"]), "describe_contribution", "chain.describe_contribution", {}),
        (module(LAYERS["chain"]), "synthesize", "chain.synthesize", {}),
        (getattr(store, "Store", None), "get", "store.Store.get", {"on_call": cache_get}),
        (getattr(store, "Store", None), "put", "store.Store.put", {}),
        (getattr(store, "CostLedger", None), "add", "store.CostLedger.add", {}),
        (module(LAYERS["pipeline"]), "run_analysis", "pipeline.run_analysis", {}),
        (module(LAYERS["pipeline"]), "analyze_team", "pipeline.analyze_team", {"team_arg": 0}),
        (provider_class, "send", "provider.send", {}),
    ]
    for owner, attr, name, options in targets:
        tracer.wrap(owner, attr, name, modules, **options)
    for layer, name in LAYERS.items():
        if module(name) is not None:
            tracer.wrap_module(module(name), layer, modules)

    class CountingPopen(subprocess.Popen):
        def __init__(self, args, *rest, **kwargs):
            program = args if isinstance(args, (str, bytes)) else args[0]
            if os.path.basename(os.fsdecode(program)).split()[:1] == ["git"]:
                tracer.count("gitio.spawns")
            super().__init__(args, *rest, **kwargs)

    class CountingMatcher(difflib.SequenceMatcher):
        def __init__(self, isjunk=None, a="", b="", autojunk=True):
            tracer.count("attribution.line_diffs")
            tracer.count("attribution.line_diff_lines", len(a) + len(b))
            super().__init__(isjunk, a, b, autojunk)

    tracer.rebind(subprocess.Popen, CountingPopen, [subprocess, *modules])
    tracer.rebind(difflib.SequenceMatcher, CountingMatcher, modules)


def layer_metrics(tracer, provider) -> dict[str, float]:
    own = tracer.layer_self_time()
    gets = tracer.calls("store.Store.get")
    return {
        "gitio.self_s": own.get("gitio", 0.0),
        "gitio.spawns": tracer.counts["gitio.spawns"],
        "gitio.diff_tree.calls": tracer.calls("gitio.diff_tree"),
        "gitio.rev_list.calls": tracer.calls("gitio.rev_list"),
        "gitio.cat_file.objects": tracer.calls("gitio.ObjectReader.get"),
        "gitio.cat_file.bytes": tracer.counts["gitio.cat_file.bytes"],
        "gitio.readers": tracer.calls("gitio.ObjectReader.__init__"),
        "ingest.self_s": own.get("ingest", 0.0),
        "ingest.walk_history.calls": tracer.calls("ingest.walk_history"),
        "ingest.walk_history.s": tracer.total("ingest.walk_history"),
        "ingest.snapshot.s": tracer.total("ingest.snapshot"),
        "attribution.self_s": own.get("attribution", 0.0),
        "attribution.build_contribution_set.s": tracer.total("attribution.build_contribution_set"),
        "attribution.line_diffs": tracer.counts["attribution.line_diffs"],
        "attribution.line_diff_lines": tracer.counts["attribution.line_diff_lines"],
        "attribution.branch_extra_attributions.s": tracer.total(
            "attribution.branch_extra_attributions"
        ),
        "metrics.self_s": own.get("metrics", 0.0),
        "metrics.cyclomatic.calls": tracer.calls("metrics.cyclomatic"),
        "metrics.cyclomatic.lines": tracer.counts["metrics.cyclomatic.lines"],
        "identity.resolve.calls": tracer.calls("identity.resolve"),
        "chain.self_s": own.get("chain", 0.0),
        "chain.summarize_file.calls": tracer.calls("chain.summarize_file"),
        "chain.describe_contribution.calls": tracer.calls("chain.describe_contribution"),
        "chain.synthesize.calls": tracer.calls("chain.synthesize"),
        "provider.wait_s": provider.wait_s,
        "provider.max_in_flight": provider.max_in_flight,
        "provider.tokens_out": provider.tokens_out,
        "store.self_s": own.get("store", 0.0),
        "store.get.calls": gets,
        "store.hit_ratio": tracer.counts["store.get.hits"] / gets if gets else 0.0,
        "store.put.calls": tracer.calls("store.Store.put"),
        "store.ledger.appends": tracer.calls("store.CostLedger.add"),
        "report.self_s": own.get("report", 0.0),
        "tables.self_s": own.get("tables", 0.0),
        "pipeline.self_s": own.get("pipeline", 0.0),
        "pipeline.analyze_team.s": tracer.median("pipeline.analyze_team"),
    }


def main(spec_path: str) -> None:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    sys.path.insert(0, spec["src"])
    os.environ.pop("CONTRIBSUM_STATE", None)
    from contribsum import cli, pipeline
    from contribsum.config import load_config
    from contribsum.identity import load_roster
    from contribsum.store import CostLedger, Store, resolve_state_dir

    tracer = None
    if spec["trace"]:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracer import Tracer

        tracer = Tracer()
        install_tracer(tracer, DelayedProvider)

    workspace = Path(spec["workspace"])
    config_path = workspace / "contribsum.ini"
    config_path.write_text(
        CONFIG.format(
            sprint_start=spec["sprint_start"],
            include_branches=", ".join(spec["include_branches"]),
            repos="\n".join(f"{team} = {path}" for team, path in spec["repos"]),
        ),
        encoding="utf-8",
    )
    cfg = load_config(config_path, {"week": spec["week"]})
    roster = load_roster(Path(cfg.roster_path).read_text(encoding="utf-8"))
    state_dir = resolve_state_dir(cfg.state_dir)
    store = Store(state_dir / "cache")
    ledger = CostLedger(state_dir / "ledger.jsonl")
    provider = DelayedProvider(cli.build_provider(cfg), spec["delay_s"])

    started = time.perf_counter()
    results = pipeline.run_analysis(cfg, roster, provider, store, ledger)
    wall_s = time.perf_counter() - started

    out = {
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb(),
        "teams": [{"team": r.team, "ok": r.ok, "error": r.error} for r in results],
        "provider": {
            "calls": provider.calls,
            "tokens_in": provider.tokens_in,
            "budget_failures": provider.budget_failures,
        },
    }
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = layer_metrics(tracer, provider)
        out["absent"] = tracer.absent
    Path(spec["result"]).write_text(json.dumps(out), encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1])
