"""Tests of the benchmark's own code: input generator, tracer arithmetic,
metric names and output checks."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import gen_trace  # noqa: E402
import run as bench  # noqa: E402
import tracer  # noqa: E402

ROOT = BENCH_DIR.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")

TINY = bench.Workload(
    name="tiny",
    synth=("--communities", "2", "--nodes", "10", "--intra-prob", "0.5",
           "--cross", "POR=1", "--interest-prob", "0.6"),
    config="campaign = tiny\nreplicates = 2\nseed = {seed}\nsources = 4\n",
    rows=2 * 2 * 4)


def _files(path: Path) -> dict[str, bytes]:
    return {f.name: f.read_bytes() for f in sorted(path.iterdir())}


def test_generator_is_deterministic_in_its_seed(tmp_path):
    spec = gen_trace.TraceSpec(users=60, pois=40, days=3)
    sizes = gen_trace.generate(spec, 5, tmp_path / "a")
    gen_trace.generate(spec, 5, tmp_path / "b")
    gen_trace.generate(spec, 6, tmp_path / "c")
    a, b, c = (_files(tmp_path / d) for d in "abc")
    assert set(a) == {gen_trace.CHECKINS_FILE, gen_trace.FRIENDSHIPS_FILE,
                      gen_trace.POI_FILE, gen_trace.MODELS_FILE}
    assert a == b
    assert a[gen_trace.CHECKINS_FILE] != c[gen_trace.CHECKINS_FILE]
    assert sizes["checkins"] == 60 * 40
    assert len(a[gen_trace.CHECKINS_FILE].splitlines()) == 60 * 40


def test_self_time_subtracts_the_union_of_children():
    # root [0,100]: a [10,40] and b [30,60] overlap, c [70,80], and d [95,120]
    # runs past the root's end; a has child e [15,25]
    start = [0, 10, 30, 70, 95, 15]
    end = [100, 40, 60, 80, 120, 25]
    parent = [-1, 0, 0, 0, 0, 1]
    own = tracer.self_times(start, end, parent)
    assert own == [100 - (50 + 10 + 5), 30 - 10, 30, 10, 25, 10]


def test_tracer_records_nesting_and_counts():
    t = tracer.Tracer("w")
    inner = t.span("inner", lambda x: [x] * x,
                   tracer._add("items", lambda a, r: len(r)))
    outer = t.span("outer", lambda: [inner(2), inner(3)])
    hot = t.counter("hot_calls", lambda: None)
    outer()
    hot()
    hot()
    dump = t.to_json()
    assert [dump["names"][n] for n in dump["name"]] == ["outer", "inner", "inner"]
    assert dump["parent"] == [-1, 0, 0]
    assert dump["counts"] == {"items": 5, "hot_calls": 2}
    summary = tracer.summarize(dump)
    assert summary["inner"]["calls"] == 2
    assert summary["outer"]["self_s"] <= summary["outer"]["total_s"]


def test_metric_names_match_the_benchmark_file():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    run = bench.StageRun("run", 0.0, 2.0, 0, 1024)
    untraced = bench.Pass(False, [run])
    traced = bench.Pass(True, [run], spans=[tracer.Tracer("w").to_json()])
    e2e = bench.end_to_end(TINY, [untraced], [0.5])
    layers = bench.per_layer([untraced], [traced])
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(NAME.fullmatch(n) for n in names + list(e2e) + list(layers))
    assert len(set(names)) == len(names)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        {k: u for k, (_, u) in e2e.items()}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {k: u for k, (_, u) in layers.items()}


def test_tampered_results_count_as_failed(tmp_path):
    runner = bench.Runner(ROOT, tmp_path, time.perf_counter() + 120, {})
    bench.setup(TINY, 3, runner)
    p = bench.run_pass(TINY, 3, runner, 0, traced=False)
    assert p.completed and p.problems == []
    base, scenario = tmp_path / "pass0", tmp_path / "input0"
    refs = {"tiny": {"3": bench.observed(TINY, base, scenario)}}
    assert bench.check_outputs(TINY, 3, base, scenario, refs) == []
    assert runner.failed == 0

    results = base / "results" / "results.csv"
    results.write_text(results.read_text(encoding="utf-8").replace("tiny,", "tinx,", 1),
                       encoding="utf-8")
    problems = bench.check_outputs(TINY, 3, base, scenario, refs)
    assert any("results_sha256" in p for p in problems)
    runner.record_check(problems)
    assert runner.failed == 1 and runner.failed / runner.attempted > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "trace-kinds",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
