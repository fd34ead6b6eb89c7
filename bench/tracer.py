"""Outside-in tracer for one `siotsim` CLI stage.

Run as a script, it wraps the public functions of each module of the
program from outside, runs one CLI stage in this process and writes the
recorded spans and counts once, when the stage ends:

    python3 bench/tracer.py --spans OUT.json --workload NAME -- run --config ...

A span is (name, start, end, parent) in `perf_counter_ns` units; every
span of a file belongs to the file's workload. Spans are kept in flat
arrays so that a few million of them fit in tens of megabytes. Counts are
recorded by the same wrappers, at the same boundaries, from the wrapped
function's arguments or result.

A function is replaced in every program module that holds it, which is
where its callers look it up: `siotsim.experiment` imports
`run_cior_round` and `interest_reach` by name, for example, while
`siotsim.cli` looks `trace.parse_checkins` up on the module. Methods are
replaced on their class.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import pkgutil
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path
from typing import Callable, Iterable, Sequence

PROGRAM = "siotsim"


class Tracer:
    """In-memory span and count recorder for one process."""

    def __init__(self, workload: str):
        self.workload = workload
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("i")
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def span(self, name: str, fn: Callable,
             count: Callable[[dict, tuple, object], None] | None = None) -> Callable:
        """Wrap `fn` so that each call records one span named `name`;
        `count(counts, args, result)` adds counts after the call."""
        nid = self._name_id(name)
        clock = time.perf_counter_ns
        names, starts, ends, parents = (self.span_name, self.span_start,
                                        self.span_end, self.span_parent)
        stack, counts = self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(-1)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if count is not None:
                count(counts, args, result)
            return result
        return wrapper

    def counter(self, name: str, fn: Callable) -> Callable:
        """Wrap a hot leaf function with a call counter only. Its time stays
        in the self time of the span that calls it."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def to_json(self) -> dict:
        return {"workload": self.workload, "names": self.names,
                "name": self.span_name.tolist(), "start": self.span_start.tolist(),
                "end": self.span_end.tolist(), "parent": self.span_parent.tolist(),
                "counts": dict(self.counts)}


def self_times(start: Sequence[int], end: Sequence[int],
               parent: Sequence[int]) -> list[int]:
    """Self time of each span: its duration minus the length of the union
    of its children's intervals, clipped to the span itself."""
    n = len(start)
    covered = [0] * n
    frontier = list(start)
    for i in sorted(range(n), key=lambda k: start[k]):
        p = parent[i]
        if p < 0:
            continue
        lo = max(start[i], frontier[p])
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
            frontier[p] = hi
    return [end[i] - start[i] - covered[i] for i in range(n)]


def summarize(dump: dict) -> dict[str, dict[str, float]]:
    """Per span name: calls, total (inclusive) seconds and self seconds."""
    own = self_times(dump["start"], dump["end"], dump["parent"])
    out: dict[str, dict[str, float]] = {}
    for nid, s, e, o in zip(dump["name"], dump["start"], dump["end"], own):
        agg = out.setdefault(dump["names"][nid],
                             {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["total_s"] += (e - s) / 1e9
        agg["self_s"] += o / 1e9
    return out


# --- what is wrapped ---------------------------------------------------------

def _add(key: str, measure: Callable[[tuple, object], float]):
    def count(counts: dict, args: tuple, result: object) -> None:
        counts[key] += measure(args, result)
    return count


# (module, attribute, span name, count); attribute "Class.method" is a method
SPANS: tuple = (
    ("cli", "cmd_synth", "cli.synth", None),
    ("cli", "cmd_ingest", "cli.ingest", None),
    ("cli", "cmd_build_graph", "cli.build_graph", None),
    ("cli", "cmd_run", "cli.run", None),
    ("trace", "parse_checkins", "trace.parse_checkins",
     _add("trace.checkins", lambda a, r: len(r.checkins))),
    ("trace", "filter_active_users", "trace.filter_active_users",
     _add("trace.active_users", lambda a, r: len(r.users))),
    ("trace", "detect_colocations", "trace.detect_colocations",
     _add("trace.colocations", lambda a, r: len(r))),
    ("trace", "compute_home_points", "trace.compute_home_points", None),
    ("interests", "assign_colocation_interests", "interests.assign_colocation_interests",
     _add("interests.assignments", lambda a, r: len(r))),
    ("interests", "build_profiles", "interests.build_profiles",
     _add("interests.holders", lambda a, r: sum(1 for d in r.values() if d.held))),
    ("siotgraph", "build_siot_graph", "siotgraph.build_siot_graph", None),
    ("siotgraph", "establish_por", "siotgraph.establish_por",
     _add("siotgraph.por_pairs", lambda a, r: len(r))),
    ("siotgraph", "establish_clor", "siotgraph.establish_clor",
     _add("siotgraph.clor_pairs", lambda a, r: len(r))),
    ("siotgraph", "establish_oor", "siotgraph.establish_oor",
     _add("siotgraph.oor_pairs", lambda a, r: len(r))),
    ("siotgraph", "establish_sor", "siotgraph.establish_sor",
     _add("siotgraph.sor_pairs", lambda a, r: len(r))),
    ("siotgraph", "write_siot_graph", "siotgraph.write_siot_graph", None),
    ("siotgraph", "read_siot_graph", "siotgraph.read_siot_graph", None),
    ("siotgraph", "SIoTView.neighbors", "siotgraph.neighbors", None),
    ("siotgraph", "SIoTView.owner_contacts", "siotgraph.owner_contacts", None),
    ("siotgraph", "SIoTGraph.copy", "siotgraph.copy", None),
    ("scenario", "read_scenario_dir", "scenario.read_scenario_dir", None),
    ("scenario", "write_scenario_dir", "scenario.write_scenario_dir", None),
    ("humangraph", "interest_reach", "humangraph.interest_reach",
     _add("humangraph.reached_nodes", lambda a, r: len(r[1]))),
    ("humangraph", "ReachContext.for_graph", "humangraph.for_graph", None),
    ("rng", "unit_draw", "rng.unit_draw", None),
    ("protocol", "run_cior_round", "protocol.run_cior_round", None),
    ("protocol", "propagate_vuip", "protocol.propagate_vuip",
     _add("protocol.receivers", lambda a, r: len(r.records))),
    ("protocol", "evaluate_candidates", "protocol.evaluate_candidates",
     _add("protocol.requests", lambda a, r: len(r))),
    ("protocol", "backpropagate", "protocol.backpropagate",
     _add("protocol.walk_length_sum", lambda a, r: r.walk_length)),
    ("experiment", "run_campaign", "experiment.run_campaign", None),
    ("experiment", "build_reach_context", "experiment.build_reach_context", None),
    ("experiment", "run_source", "experiment.run_source", None),
    ("experiment", "write_result_csv", "experiment.write_result_csv", None),
    ("report", "mean_irn_pct", "report.mean_irn_pct", None),
    ("report", "irn_by_hop", "report.irn_by_hop", None),
    ("report", "emit_csv", "report.emit_csv", None),
    ("report", "emit_plot_data", "report.emit_plot_data", None),
)

# hot leaves: counted, not timed
COUNTERS: tuple = (
    ("humangraph", "AuthorizationMap.authorizes", "humangraph.authorizes_calls"),
    ("rng", "token_hex", "rng.token_hex_calls"),
)


def _replace_everywhere(modules: Iterable, original: Callable, wrapped: Callable) -> None:
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapped)


def install(tracer: Tracer) -> None:
    """Wrap every entry of SPANS and COUNTERS in the loaded program."""
    package = importlib.import_module(PROGRAM)
    modules = {info.name: importlib.import_module(f"{PROGRAM}.{info.name}")
               for info in pkgutil.iter_modules(package.__path__)}
    entries = [(m, a, functools.partial(tracer.span, n, count=c)) for m, a, n, c in SPANS]
    entries += [(m, a, functools.partial(tracer.counter, n)) for m, a, n in COUNTERS]
    for mod_name, attr, wrap in entries:
        mod = modules[mod_name]
        if "." not in attr:
            original = getattr(mod, attr)
            _replace_everywhere(modules.values(), original, wrap(original))
            continue
        cls_name, meth = attr.split(".")
        cls = getattr(mod, cls_name)
        raw = cls.__dict__[meth]
        if isinstance(raw, staticmethod):
            setattr(cls, meth, staticmethod(wrap(raw.__func__)))
        else:
            setattr(cls, meth, wrap(raw))


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description="run one siotsim CLI stage traced")
    p.add_argument("--spans", required=True, help="JSON file the spans go to")
    p.add_argument("--workload", required=True)
    p.add_argument("stage", nargs=argparse.REMAINDER,
                   help="-- followed by the siotsim CLI arguments")
    args = p.parse_args(argv)
    stage = args.stage[1:] if args.stage[:1] == ["--"] else args.stage
    tracer = Tracer(args.workload)
    install(tracer)
    from siotsim import cli
    try:
        code = cli.main(stage)
    finally:
        Path(args.spans).write_text(json.dumps(tracer.to_json()), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
