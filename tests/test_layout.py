"""Source layout checks: every module-level function and class in
`src/siotsim`, and every method, is used by the program itself (or, for a
method, wrapped by the bench tracer), not only by its tests, no pipeline
stage imports numpy, every name the bench tracer wraps exists, and the
tracer's counts work on a real pipeline."""

from __future__ import annotations

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "siotsim"

# Secondary metrics of the paper that `run` does not write yet; ROADMAP
# direction 8 has the CLI write them.
ALLOWED_UNUSED = {"giant_component_pct", "mean_hops_comparison"}


def _referenced_names(node: ast.AST) -> set[str]:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer",
                                                  ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def unused_definitions() -> list[str]:
    """`module.name` of each module-level function or class whose name no
    other top-level statement of the package refers to, and
    `module.Class.method` of each method whose name no other statement
    refers to, a method of its class included, and that the bench tracer
    does not wrap. Dunder methods are called by Python itself."""
    tracer = _load_tracer()
    wrapped = {f"{module}.{attr}" for module, attr, *_ in tracer.SPANS + tracer.COUNTERS}
    statements = []  # (module, definition name or None, referenced names)
    methods = []  # (module, class, method, names the rest of the class refers to)
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            defined = node.name if isinstance(node, _DEFINITIONS) else None
            statements.append((path.stem, defined, _referenced_names(node)))
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if isinstance(item, _DEFINITIONS) and not item.name.startswith("__"):
                    rest = [n for n in (*node.decorator_list, *node.bases,
                                        *node.keywords, *node.body) if n is not item]
                    methods.append((path.stem, node.name, item.name,
                                    set().union(*map(_referenced_names, rest))))
    unused = []
    for i, (module, name, _) in enumerate(statements):
        if name is None or name in ALLOWED_UNUSED:
            continue
        if not any(name in refs for j, (_, _, refs) in enumerate(statements) if j != i):
            unused.append(f"{module}.{name}")
    for module, cls, name, class_refs in methods:
        if f"{module}.{cls}.{name}" in wrapped or name in class_refs:
            continue
        if not any(name in refs for _, defined, refs in statements if defined != cls):
            unused.append(f"{module}.{cls}.{name}")
    return unused


def test_every_module_level_definition_is_used_by_the_package():
    assert unused_definitions() == []


# Runs every CLI stage in one fresh interpreter, then names the heavy
# modules any of them imported.
_ALL_STAGES = """
import sys
from pathlib import Path
import gen_trace
from siotsim import cli

tmp = Path(sys.argv[1])
gen_trace.generate(gen_trace.TraceSpec(users=30, pois=20, days=3), 0, tmp / "in")
stages = [
    ["synth", "--out", tmp / "synth"],
    ["ingest", "--checkins", tmp / "in" / gen_trace.CHECKINS_FILE,
     "--friendships", tmp / "in" / gen_trace.FRIENDSHIPS_FILE,
     "--poi", tmp / "in" / gen_trace.POI_FILE, "--out", tmp / "ingest"],
    ["build-graph", "--ingest", tmp / "ingest",
     "--models", tmp / "in" / gen_trace.MODELS_FILE, "--out", tmp / "scenario"],
    ["run", "--scenario", tmp / "synth", "--out", tmp / "results"],
    ["report", "--results", tmp / "results" / "results.csv", "--out", tmp / "report"],
]
for stage in stages:
    assert cli.main([str(a) for a in stage]) == 0, stage
print(sorted(name for name in sys.modules if name.split(".")[0] == "numpy"))
"""


def test_no_stage_imports_numpy(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), str(ROOT / "bench"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _ALL_STAGES, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
    assert (tmp_path / "report" / "irn_series.csv").is_file()


def test_every_name_the_bench_tracer_wraps_resolves():
    tracer = _load_tracer()
    missing = []
    for module, attr, *_ in tracer.SPANS + tracer.COUNTERS:
        mod = importlib.import_module(f"{tracer.PROGRAM}.{module}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            found = meth in vars(getattr(mod, cls_name, object))
        else:
            found = callable(getattr(mod, attr, None))
        if not found:
            missing.append(f"{module}.{attr}")
    assert missing == []


def test_bench_tracer_counts_a_real_pipeline(tmp_path, monkeypatch):
    """`ingest -> build-graph -> run` through `bench/tracer.py`, each stage
    in its own process: every stage exits 0 and the dumps hold every count
    the bench reports, including C-IOR requests and their walks back."""
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    gen_trace = importlib.import_module("gen_trace")
    bench = importlib.import_module("run")
    inputs = tmp_path / "inputs"
    gen_trace.generate(gen_trace.TraceSpec(users=30, pois=20, days=3), 0, inputs)
    cfg = tmp_path / "campaign.cfg"
    cfg.write_text("interest = 4\ncior = true\nreplicates = 1\nsources = 3\n",
                   encoding="utf-8")
    stages = [
        ["ingest", "--checkins", inputs / gen_trace.CHECKINS_FILE,
         "--friendships", inputs / gen_trace.FRIENDSHIPS_FILE,
         "--poi", inputs / gen_trace.POI_FILE, "--out", tmp_path / "ingest"],
        ["build-graph", "--ingest", tmp_path / "ingest",
         "--models", inputs / gen_trace.MODELS_FILE, "--out", tmp_path / "scenario"],
        ["run", "--config", cfg, "--scenario", tmp_path / "scenario",
         "--out", tmp_path / "results"],
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    counts: dict[str, float] = {}
    for k, stage in enumerate(stages):
        spans = tmp_path / f"spans{k}.json"
        proc = subprocess.run(
            [sys.executable, str(ROOT / "bench" / "tracer.py"), "--spans", str(spans),
             "--workload", "layout", "--", *map(str, stage)],
            env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        dump = json.loads(spans.read_text(encoding="utf-8"))
        for name, value in dump["counts"].items():
            counts[name] = counts.get(name, 0) + value
    assert [n for n in bench.LAYER_COUNTS if n not in counts] == []
    assert counts["protocol.requests"] > 0
    assert counts["protocol.walk_length_sum"] > 0  # each request is walked back
