"""Source layout checks: every module-level function and class in
`src/siotsim`, and every method, is used by the program itself (or, for a
method, wrapped by the bench tracer), not only by its tests, every parameter
and every dataclass field with a default is passed by some caller in the
package, only `trace` reads and writes CSV, no pipeline stage imports numpy
or a process pool, every name the bench tracer wraps exists, and the
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

# The console entry point calls `main()` bare; the bench tracer and the
# tests pass `argv`.
ALLOWED_UNPASSED = {"cli.main(argv)"}


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


def _package_trees() -> list[tuple[str, ast.Module]]:
    return [(path.stem, ast.parse(path.read_text(encoding="utf-8")))
            for path in sorted(SRC.glob("*.py"))]


def _called_name(node: ast.AST) -> str | None:
    """The name a call or a decorator refers to: `f` in `f(...)`,
    `module.f(...)` and `@f`."""
    func = node.func if isinstance(node, ast.Call) else node
    return getattr(func, "id", getattr(func, "attr", None))


def _passes(call: ast.Call, index: int | None, name: str) -> bool:
    """Whether `call` passes the parameter `name`, which is positional
    parameter `index` (None for keyword-only)."""
    return ((index is not None and index < len(call.args))
            or any(isinstance(a, ast.Starred) for a in call.args)
            or any(k.arg in (name, None) for k in call.keywords))


def unpassed_parameters() -> list[str]:
    """`module.function(param)` or `module.Class.method(param)` of each
    parameter with a default that no call in the package passes, by
    position or by keyword. Calls match a function by name, as in
    `unused_definitions`; a call of a class matches its `__init__`, and a
    call with `*args` or `**kwargs` passes every parameter."""
    functions = []  # (label, called name, leading parameters no call passes, def)
    calls = []
    for stem, tree in _package_trees():
        calls += [node for node in ast.walk(tree) if isinstance(node, ast.Call)]
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                functions.append((f"{stem}.{node.name}", node.name, 0, node))
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    static = any(getattr(d, "id", None) == "staticmethod"
                                 for d in item.decorator_list)
                    called = node.name if item.name == "__init__" else item.name
                    functions.append((f"{stem}.{node.name}.{item.name}", called,
                                      0 if static else 1, item))
    unpassed = []
    for label, name, skip, fn in functions:
        positional = [*fn.args.posonlyargs, *fn.args.args]
        first = len(positional) - len(fn.args.defaults)
        defaulted = [(i - skip, a.arg) for i, a in enumerate(positional) if i >= first]
        defaulted += [(None, a.arg) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                      if d is not None]
        named = [c for c in calls if _called_name(c) == name]
        for index, arg in defaulted:
            if not any(_passes(c, index, arg) for c in named):
                unpassed.append(f"{label}({arg})")
    return unpassed


def test_every_parameter_default_is_overridden_by_some_caller():
    """A default that no caller in the package overrides is an option with
    one value in use: a constant, or a parameter kept alive by tests."""
    assert [p for p in unpassed_parameters() if p not in ALLOWED_UNPASSED] == []


def unpassed_fields() -> list[str]:
    """`module.Class(field)` of each dataclass field with a default, set by
    `__init__`, that no call in the package passes: a call of the class,
    by position or by keyword, or a `dataclasses.replace` keyword. Calls
    match by name, as in `unpassed_parameters`."""
    classes = []  # (label, class name, [(position, field)] of defaulted fields)
    calls = []
    for stem, tree in _package_trees():
        calls += [node for node in ast.walk(tree) if isinstance(node, ast.Call)]
        for node in tree.body:
            if not (isinstance(node, ast.ClassDef)
                    and any(_called_name(d) == "dataclass" for d in node.decorator_list)):
                continue
            defaulted, position = [], 0
            for item in node.body:
                if not (isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)):
                    continue
                value = item.value
                is_field = isinstance(value, ast.Call) and _called_name(value) == "field"
                options = {k.arg: k.value for k in value.keywords} if is_field else {}
                if getattr(options.get("init"), "value", True) is False:
                    continue
                if value is not None and (not is_field
                                          or {"default", "default_factory"} & options.keys()):
                    defaulted.append((position, item.target.id))
                position += 1
            classes.append((f"{stem}.{node.name}", node.name, defaulted))
    replaced = {k.arg for c in calls if _called_name(c) == "replace" for k in c.keywords}
    unpassed = []
    for label, name, defaulted in classes:
        named = [c for c in calls if _called_name(c) == name]
        for index, field in defaulted:
            if field not in replaced and not any(_passes(c, index, field) for c in named):
                unpassed.append(f"{label}({field})")
    return unpassed


def test_every_dataclass_field_default_is_overridden_by_some_caller():
    """The same for the fields of a dataclass: a cache or a store that no
    caller fills is `field(init=False)`, not a constructor argument."""
    assert unpassed_fields() == []


def _csv_reader_and_writer_uses(path: Path) -> list[int]:
    """Lines of `path` that refer to `csv.reader` or `csv.writer`, as an
    attribute of `csv` or imported from it."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            names = [node.attr] if node.value.id == "csv" else []
        elif isinstance(node, ast.ImportFrom) and node.module == "csv":
            names = [alias.name for alias in node.names]
        else:
            continue
        if {"reader", "writer"} & set(names):
            lines.append(node.lineno)
    return lines


def test_only_trace_reads_and_writes_csv():
    """`trace.read_csv_rows` and `trace.write_csv_rows` hold the on-disk CSV
    format, so no other module forks it with a reader or writer of its own."""
    uses = {path.stem: _csv_reader_and_writer_uses(path) for path in SRC.glob("*.py")}
    assert uses.pop("trace")
    assert {module: lines for module, lines in uses.items() if lines} == {}


# Runs every CLI stage in one fresh interpreter, then names the modules of
# numpy and of process pools that any of them imported.
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
print(sorted(name for name in sys.modules
             if name.split(".")[0] in ("numpy", "concurrent", "multiprocessing")))
"""


def test_no_stage_imports_numpy_or_a_process_pool(tmp_path):
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
