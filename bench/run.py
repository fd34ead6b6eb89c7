"""Benchmark of the `siotsim` pipeline `ingest -> build-graph -> run`.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Drives the real CLI stages, each in its own process with `--threads 1`,
one after another (a closed loop with one client). It sets the workload up
from the seed, repeats the pipeline for up to S seconds, checks every
pass's outputs and prints, as its last line, one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.

With `--trace 0` the metrics are the end-to-end ones, from untraced passes.
With `--trace 1` untraced and traced passes alternate. In a traced pass
`bench/tracer.py` wraps the public functions of every module from outside;
the metrics are then the per-layer ones, plus the tracing overhead.
See bench/README.md for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import gen_trace
import tracer

BENCH_DIR = Path(__file__).resolve().parent

REFERENCES_FILE = BENCH_DIR / "references.json"
RESULT_HEADER = ["campaign", "interest", "mode", "kinds", "sweep_var",
                 "sweep_value", "replicate", "source", "reached",
                 "denominator", "irn_pct", "mean_hops"]
SETUP_REPEATS, SETUP_SECONDS = 5, 2.0  # set up at least this often and this long
DEADLINE_S = 170.0  # every stage process is killed by then


@dataclass(frozen=True)
class Workload:
    """One closed-loop pipeline. `trace` is None for the synthetic scenario,
    which `synth` writes during set-up; otherwise the trace generator writes
    the inputs and each pass runs ingest and build-graph before run."""

    name: str
    config: str            # experiment config, `{seed}` is the run seed
    rows: int              # results.csv rows every pass must produce
    trace: gen_trace.TraceSpec | None = None
    synth: tuple[str, ...] = ()

    def run_seed(self, seed: int) -> int:
        # criterion 11 synthesises with seed 1100 and runs with seed 1101
        return seed + 1 if self.trace is None else seed


WORKLOADS = {w.name: w for w in (
    Workload(
        name="campaign-synth",
        synth=("--communities", "40", "--nodes", "50", "--intra-prob", "0.08",
               "--cross", "POR=30,SOR=20", "--interest-prob", "0.2",
               "--noise-interests", "1"),
        config="""campaign = campaign-synth
interest = 3
replicates = 30
seed = {seed}
sweep = spread
spread_values = 1.0, 0.9, 0.6, 0.3, 0.1
auth_prob_per_hop = 1.0, 0.9, 0.8, 0.7
sources = 20
max_hops = 4
""",
        rows=5 * 2 * 30 * 20),
    Workload(
        name="trace-pipeline",
        trace=gen_trace.TraceSpec(users=450, pois=270, days=12),
        config="""campaign = trace-pipeline
interest = 6
cior = false
sweep = auth
auth_values = 1.0,0.9,0.8,0.7 ; 0.8,0.6,0.4,0.2
replicates = 3
seed = {seed}
sources = 20
""",
        rows=2 * 2 * 3 * 20),
    Workload(
        name="trace-kinds",
        trace=gen_trace.TraceSpec(users=150, pois=90, days=9),
        config="""campaign = trace-kinds
interest = 4
cior = true
sweep = kinds
kind_sets = OOR,SOR ; OOR,C-LOR,SOR ; POR,OOR,C-LOR,SOR
spread_prob_per_hop = 0.6
replicates = 2
seed = {seed}
sources = 20
""",
        rows=3 * 2 * 2 * 20),
)}


# --- running stages ----------------------------------------------------------

@dataclass
class StageRun:
    stage: str
    start: float
    end: float
    code: int
    maxrss_kb: int

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class Pass:
    traced: bool
    stages: list[StageRun] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    spans: list[dict] = field(default_factory=list)
    outputs: dict | None = None  # what a reference records, see observed()

    @property
    def completed(self) -> bool:
        return bool(self.stages) and all(s.code == 0 for s in self.stages)

    @property
    def wall_s(self) -> float:
        return self.stages[-1].end - self.stages[0].start

    def seconds(self, stage: str) -> float:
        return sum(s.seconds for s in self.stages if s.stage == stage)


class Runner:
    """Starts stage processes of one checkout and keeps the tally of
    attempted and failed operations: stage invocations and output checks."""

    def __init__(self, root: Path, work: Path, deadline: float, references: dict):
        self.root = root
        self.work = work
        self.deadline = deadline
        self.references = references
        self.attempted = 0
        self.failed = 0
        self.env = dict(os.environ)
        src = str(root / "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src if not old else src + os.pathsep + old

    def stage(self, args: list[str], log_name: str, spans: Path | None = None,
              workload: str = "") -> StageRun:
        if spans is None:
            argv = [sys.executable, "-m", "siotsim.cli", *args]
        else:
            argv = [sys.executable, str(BENCH_DIR / "tracer.py"), "--spans", str(spans),
                    "--workload", workload, "--", *args]
        argv += ["--threads", "1"]
        self.attempted += 1
        log = self.work / f"{log_name}.log"
        with open(log, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT,
                                    env=self.env, cwd=self.root)
            timer = threading.Timer(max(0.0, self.deadline - start), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            end = time.perf_counter()
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        if code != 0:
            self.failed += 1
            tail = log.read_text(encoding="utf-8", errors="replace")[-2000:]
            print(f"stage {args[0]} exited {code}:\n{tail}", file=sys.stderr)
        return StageRun(args[0], start, end, code, usage.ru_maxrss)

    def record_check(self, problems: list[str]) -> None:
        """Count one output check, failed when it found problems."""
        self.attempted += 1
        if problems:
            self.failed += 1
            for p in problems:
                print(f"check failed: {p}", file=sys.stderr)


def setup(workload: Workload, seed: int, runner: Runner) -> tuple[list[float], dict]:
    """Make the workload's inputs in `input0`, repeatedly (see SETUP_REPEATS);
    return the times and the input sizes. Every repeat must give identical
    bytes."""
    times, digests, sizes = [], set(), {}
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_SECONDS:
        out = runner.work / ("input0" if not times else "repeat")
        start = time.perf_counter()
        if workload.trace is not None:
            sizes = gen_trace.generate(workload.trace, seed, out)
            ok = True
        else:
            run = runner.stage(["synth", *workload.synth, "--seed", str(seed),
                                "--out", str(out)], "setup-synth")
            ok = run.code == 0
        times.append(time.perf_counter() - start)
        if not ok:
            break
        digests.add(_tree_digest(out))
        if len(times) > 1:
            shutil.rmtree(out)
    runner.record_check([] if len(digests) == 1 else
                      [f"set-up repeats differ or failed ({len(digests)} digests)"])
    if workload.trace is None and digests:
        sizes = {"users": _count_lines(runner.work / "input0" / "devices.csv", 1) // 2,
                 "device_edges": _count_lines(runner.work / "input0" / "siot_graph.csv")}
    return times, sizes


def run_pass(workload: Workload, seed: int, runner: Runner, index: int,
             traced: bool) -> Pass:
    p = Pass(traced)
    base = runner.work / f"pass{index}"
    base.mkdir(parents=True, exist_ok=True)
    inputs = runner.work / "input0"
    cfg = base / "campaign.cfg"
    cfg.write_text(workload.config.format(seed=workload.run_seed(seed)), encoding="utf-8")
    stages: list[list[str]] = []
    if workload.trace is None:
        scenario = inputs
        if traced:  # set-up is untraced, so trace one synth here for its layers
            stages.append(["synth", *workload.synth, "--seed", str(seed),
                           "--out", str(base / "synth")])
    else:
        scenario = base / "scenario"
        stages.append(["ingest", "--checkins", str(inputs / gen_trace.CHECKINS_FILE),
                       "--friendships", str(inputs / gen_trace.FRIENDSHIPS_FILE),
                       "--poi", str(inputs / gen_trace.POI_FILE),
                       "--out", str(base / "ingest")])
        stages.append(["build-graph", "--ingest", str(base / "ingest"),
                       "--models", str(inputs / gen_trace.MODELS_FILE),
                       "--seed", str(seed), "--out", str(scenario)])
    stages.append(["run", "--config", str(cfg), "--scenario", str(scenario),
                   "--out", str(base / "results")])
    for k, args in enumerate(stages):
        spans = base / f"spans{k}.json" if traced else None
        run = runner.stage(args, f"pass{index}-{args[0]}", spans, workload.name)
        p.stages.append(run)
        if run.code != 0:
            return p
        if spans is not None:
            p.spans.append(json.loads(spans.read_text(encoding="utf-8")))
    try:
        p.problems = check_outputs(workload, seed, base, scenario, runner.references)
        p.outputs = observed(workload, base, scenario)
    except (OSError, ValueError) as exc:
        p.problems.append(f"unreadable outputs: {exc}")
    runner.record_check(p.problems)
    return p


# --- output checks -------------------------------------------------------------

def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _tree_digest(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(path.rglob("*")):
        if f.is_file():
            h.update(f.relative_to(path).as_posix().encode())
            h.update(f.read_bytes())
    return h.hexdigest()


def _count_lines(path: Path, header: int = 0) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh) - header


def load_references() -> dict:
    if REFERENCES_FILE.is_file():
        return json.loads(REFERENCES_FILE.read_text(encoding="utf-8"))
    return {}


def read_stats(path: Path) -> dict[str, int]:
    stats = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        key, value = line.split()
        stats[key] = int(value)
    return stats


def observed(workload: Workload, base: Path, scenario: Path) -> dict:
    """What the reference records: the results.csv digest, its row count and,
    for the trace workloads, the kind counts of stats.txt."""
    obs = {"results_sha256": _sha256(base / "results" / "results.csv"),
           "rows": _count_lines(base / "results" / "results.csv", 1)}
    if workload.trace is not None:
        obs["stats"] = read_stats(scenario / "stats.txt")
    return obs


def check_outputs(workload: Workload, seed: int, base: Path, scenario: Path,
                  references: dict) -> list[str]:
    """Problems found in one pass's outputs; empty when they are correct.

    Checked on every seed: the result header and row count, each row's
    IRN arithmetic, mode dominance (enhanced reach is never below
    friendships reach for the same replicate, sweep point and source), and
    for the trace workloads the POR and OOR counts of stats.txt against the
    device list. Where `references` holds the seed, the results.csv sha256
    and the stats.txt counts must equal it. irn_by_hop.csv is not compared,
    because fixing its known truncation will change it legitimately.
    """
    problems: list[str] = []
    results = base / "results" / "results.csv"
    with open(results, encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != RESULT_HEADER:
        return [f"{results}: bad header"]
    rows = rows[1:]
    if len(rows) != workload.rows:
        problems.append(f"results.csv has {len(rows)} rows, expected {workload.rows}")
    reach: dict[tuple, dict[str, int]] = defaultdict(dict)
    for rec in rows:
        if len(rec) != len(RESULT_HEADER):
            problems.append(f"malformed result row {rec}")
            continue
        row = dict(zip(RESULT_HEADER, rec))
        try:
            reached, denom = int(row["reached"]), int(row["denominator"])
            irn = float(row["irn_pct"])
        except ValueError:
            problems.append(f"non-numeric result row {rec}")
            continue
        expect = 100.0 * reached / denom if denom else 0.0
        if not 0 <= reached <= max(denom, 0) or abs(irn - expect) > 1e-4 * max(1.0, expect):
            problems.append(f"inconsistent result row {rec}")
        key = (row["sweep_value"], row["replicate"], row["source"])
        reach[key][row["mode"]] = reached
    for key, modes in reach.items():
        if modes.get("enhanced", 0) < modes.get("friendships", 0):
            problems.append(f"enhanced reach below friendships reach at {key}")
    if workload.trace is not None:
        problems += _check_stats(scenario)
    ref = references.get(workload.name, {}).get(str(seed))
    if ref is not None:
        obs = observed(workload, base, scenario)
        for key, value in ref.items():
            if obs.get(key) != value:
                problems.append(f"{key} differs from the reference for seed {seed}")
    return problems


def _check_stats(scenario: Path) -> list[str]:
    stats = read_stats(scenario / "stats.txt")
    models: dict[str, int] = defaultdict(int)
    owners: dict[str, int] = defaultdict(int)
    with open(scenario / "devices.csv", encoding="utf-8") as fh:
        for rec in list(csv.reader(fh))[1:]:
            models[rec[3]] += 1
            owners[rec[1]] += 1
    problems = []
    por = sum(n * (n - 1) // 2 for n in models.values())
    if stats.get("POR") != por:
        problems.append(f"stats.txt POR {stats.get('POR')} != {por} same-model pairs")
    oor = sum(1 for n in owners.values() if n == 2)
    if stats.get("OOR") != oor:
        problems.append(f"stats.txt OOR {stats.get('OOR')} != {oor} owners")
    if stats.get("C-IOR") != 0:
        problems.append("build-graph wrote C-IOR edges")
    return problems


# --- metrics ---------------------------------------------------------------------

def end_to_end(workload: Workload, done: list[Pass], setup_times: list[float]) -> dict:
    """End-to-end metrics over completed untraced passes."""
    return {
        "wall_s": (statistics.median(p.wall_s for p in done), "s"),
        "source_runs_per_s": (statistics.median(workload.rows / p.seconds("run")
                                                for p in done), "1/s"),
        "peak_rss_mb": (max(s.maxrss_kb for p in done for s in p.stages) / 1024.0, "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }


# per-layer time metric -> (span name, "total_s" or "self_s")
LAYER_TIMES = {
    "humangraph.interest_reach_s": ("humangraph.interest_reach", "total_s"),
    "humangraph.for_graph_s": ("humangraph.for_graph", "total_s"),
    "rng.unit_draw_s": ("rng.unit_draw", "total_s"),
    "protocol.run_cior_round_s": ("protocol.run_cior_round", "total_s"),
    "protocol.flood_s": ("protocol.propagate_vuip", "total_s"),
    "protocol.gate_s": ("protocol.evaluate_candidates", "total_s"),
    "protocol.backprop_s": ("protocol.backpropagate", "total_s"),
    "protocol.merge_s": ("protocol.run_cior_round", "self_s"),
    "siotgraph.neighbors_s": ("siotgraph.neighbors", "total_s"),
    "siotgraph.copy_s": ("siotgraph.copy", "total_s"),
    "siotgraph.owner_contacts_s": ("siotgraph.owner_contacts", "total_s"),
    "experiment.build_reach_context_s": ("experiment.build_reach_context", "total_s"),
    "experiment.run_source_s": ("experiment.run_source", "self_s"),
    "experiment.write_result_csv_s": ("experiment.write_result_csv", "total_s"),
    "trace.parse_checkins_s": ("trace.parse_checkins", "total_s"),
    "trace.detect_colocations_s": ("trace.detect_colocations", "total_s"),
    "trace.compute_home_points_s": ("trace.compute_home_points", "total_s"),
    "interests.assign_colocation_interests_s": ("interests.assign_colocation_interests",
                                                "total_s"),
    "interests.build_profiles_s": ("interests.build_profiles", "total_s"),
    "siotgraph.build_siot_graph_s": ("siotgraph.build_siot_graph", "total_s"),
    "siotgraph.establish_por_s": ("siotgraph.establish_por", "total_s"),
    "siotgraph.establish_clor_s": ("siotgraph.establish_clor", "total_s"),
    "siotgraph.establish_oor_s": ("siotgraph.establish_oor", "total_s"),
    "siotgraph.establish_sor_s": ("siotgraph.establish_sor", "total_s"),
    "siotgraph.write_siot_graph_s": ("siotgraph.write_siot_graph", "total_s"),
    "siotgraph.read_siot_graph_s": ("siotgraph.read_siot_graph", "total_s"),
    "scenario.read_scenario_dir_s": ("scenario.read_scenario_dir", "total_s"),
    "scenario.write_scenario_dir_s": ("scenario.write_scenario_dir", "total_s"),
    "report.mean_irn_pct_s": ("report.mean_irn_pct", "total_s"),
    "report.irn_by_hop_s": ("report.irn_by_hop", "total_s"),
    "cli.synth_s": ("cli.synth", "total_s"),
    "cli.ingest_s": ("cli.ingest", "total_s"),
    "cli.build_graph_s": ("cli.build_graph", "total_s"),
    "cli.run_s": ("cli.run", "total_s"),
}
# per-layer count metric -> span name whose calls it counts
LAYER_CALLS = {
    "humangraph.reach_calls": "humangraph.interest_reach",
    "rng.unit_draw_calls": "rng.unit_draw",
    "protocol.rounds": "protocol.run_cior_round",
    "protocol.tokens": "protocol.propagate_vuip",
    "protocol.cior_edges": "protocol.backpropagate",
    "siotgraph.neighbors_calls": "siotgraph.neighbors",
    "siotgraph.copies": "siotgraph.copy",
    "experiment.contexts": "experiment.build_reach_context",
    "experiment.source_runs": "experiment.run_source",
}
# per-layer count metric -> count recorded by a wrapper
LAYER_COUNTS = ("humangraph.reached_nodes", "humangraph.authorizes_calls",
                "rng.token_hex_calls", "protocol.receivers", "protocol.requests",
                "trace.checkins", "trace.active_users", "trace.colocations",
                "interests.holders", "siotgraph.por_pairs", "siotgraph.clor_pairs",
                "siotgraph.oor_pairs", "siotgraph.sor_pairs")


def pass_layers(p: Pass) -> tuple[dict[str, dict], dict[str, float]]:
    """Span summary and counts of one traced pass, over all its stages."""
    spans: dict[str, dict] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    counts: dict[str, float] = defaultdict(float)
    for dump in p.spans:
        for name, agg in tracer.summarize(dump).items():
            for key, value in agg.items():
                spans[name][key] += value
        for name, value in dump["counts"].items():
            counts[name] += value
    return spans, counts


def per_layer(untraced: list[Pass], traced: list[Pass]) -> dict:
    """Per-layer metrics: medians over the traced passes, except
    `checkins_per_s` and the tracing overhead, which also use the
    untraced passes. All passes must have completed."""
    layers = [pass_layers(p) for p in traced]
    spans, counts = layers[0]
    metrics: dict[str, tuple[float, str]] = {}
    for metric, (span, key) in LAYER_TIMES.items():
        metrics[metric] = (statistics.median(s[span][key] if span in s else 0.0
                                             for s, _ in layers), "s")
    metrics["report.emit_s"] = (statistics.median(
        sum(s[n]["total_s"] for n in ("report.emit_csv", "report.emit_plot_data") if n in s)
        for s, _ in layers), "s")
    for metric, span in LAYER_CALLS.items():
        metrics[metric] = (spans[span]["calls"] if span in spans else 0, "count")
    for metric in LAYER_COUNTS:
        metrics[metric] = (int(counts.get(metric, 0)), "count")
    receivers = counts.get("protocol.receivers", 0)
    metrics["protocol.request_ratio"] = (
        counts.get("protocol.requests", 0) / receivers if receivers else 0.0, "ratio")
    edges = spans["protocol.backpropagate"]["calls"] if "protocol.backpropagate" in spans else 0
    metrics["protocol.mean_walk_length"] = (
        counts.get("protocol.walk_length_sum", 0) / edges if edges else 0.0, "hops")
    colocs = counts.get("trace.colocations", 0)
    metrics["interests.assigned_ratio"] = (
        counts.get("interests.assignments", 0) / colocs if colocs else 0.0, "ratio")
    prep = statistics.median(p.seconds("ingest") + p.seconds("build-graph") for p in untraced)
    metrics["checkins_per_s"] = (counts.get("trace.checkins", 0) / prep if prep else 0.0,
                                 "1/s")
    common = [s.stage for s in untraced[0].stages]
    traced_wall, untraced_wall = (statistics.median(sum(p.seconds(s) for s in common)
                                                    for p in group)
                                  for group in (traced, untraced))
    metrics["tracing_overhead_pct"] = (100.0 * (traced_wall - untraced_wall)
                                       / untraced_wall, "%")
    return metrics


def self_time_ranking(p: Pass) -> dict[str, list[tuple[str, float]]]:
    """Largest self times in each stage of a traced pass."""
    out = {}
    for run, dump in zip(p.stages, p.spans):
        summary = tracer.summarize(dump)
        ranked = sorted(((n, a["self_s"]) for n, a in summary.items()),
                        key=lambda kv: -kv[1])
        out[run.stage] = [(n, round(s, 4)) for n, s in ranked[:6]]
    return out


# --- provenance ------------------------------------------------------------------

def provenance(root: Path, workload: Workload, seed: int, sizes: dict) -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "missing"
    src_lines = sum(_count_lines(f) for f in sorted((root / "src" / "siotsim").rglob("*.py")))
    return {"workload": workload.name, "seed": seed, "input_sizes": sizes,
            "python": platform.python_version(), "numpy": numpy_version,
            "nproc": os.cpu_count(), "commit": commit, "src_siotsim_lines": src_lines}


# --- main ------------------------------------------------------------------------

def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            root: Path) -> tuple[dict, Runner, dict]:
    started = time.perf_counter()
    work = root / ".bench_work" / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(root, work, started + DEADLINE_S, load_references())
    setup_times, sizes = setup(workload, seed, runner)
    passes: list[Pass] = []
    first = time.perf_counter()
    while runner.failed == 0:
        # a traced run alternates untraced and traced passes, so that their
        # medians give the tracing overhead
        p = run_pass(workload, seed, runner, len(passes), traced=trace and len(passes) % 2 == 1)
        if passes and p.outputs is not None:
            runner.record_check([] if p.outputs == passes[0].outputs else
                              [f"pass {len(passes)} outputs differ from pass 0"])
        passes.append(p)
        if trace and len(passes) < 2:
            continue
        now, last = time.perf_counter(), max(q.wall_s for q in passes[-2:])
        if now - first + last > seconds or now + last > runner.deadline:
            break
    for k, p in enumerate(passes):
        times = " ".join(f"{s.stage}={s.seconds:.3f}s" for s in p.stages)
        print(f"pass {k}{' traced' if p.traced else ''}: {times}")
    info = {"provenance": provenance(root, workload, seed, sizes),
            "setup_s": setup_times,
            "passes": [{"traced": p.traced, "problems": p.problems,
                        "stages": {s.stage: round(s.seconds, 4) for s in p.stages}}
                       for p in passes]}
    untraced = [p for p in passes if not p.traced and p.completed]
    traced_done = [p for p in passes if p.traced and p.completed]
    if not untraced or (trace and not traced_done):
        return {}, runner, info
    if trace:
        metrics = per_layer(untraced, traced_done)
        info["self_time_top"] = self_time_ranking(traced_done[0])
    else:
        metrics = end_to_end(workload, untraced, setup_times)
    return metrics, runner, info


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    root = BENCH_DIR.parent
    if not (root / "src" / "siotsim" / "cli.py").is_file():
        print(f"bench: no program source under {root / 'src' / 'siotsim'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    metrics, runner, info = measure(workload, args.seed, args.seconds, bool(args.trace), root)
    (runner.work / "result.json").write_text(
        json.dumps({**info, "metrics": metrics}, indent=1), encoding="utf-8")
    print(json.dumps(info["provenance"]))
    if "self_time_top" in info:
        print(json.dumps({"self_time_top": info["self_time_top"]}))
    result = {"correct": runner.failed == 0 and bool(metrics),
              "attempted": runner.attempted, "failed": runner.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())
