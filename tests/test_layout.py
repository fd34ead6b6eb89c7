"""Source layout checks: every module-level function and class in
`src/siotsim` is used by the program itself, not only by its tests, and
every name the bench tracer wraps exists."""

from __future__ import annotations

import ast
import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "siotsim"

# Secondary metrics of the paper that `run` does not write yet; ROADMAP
# direction 4 has the CLI write them.
ALLOWED_UNUSED = {"giant_component_pct", "mean_hops_comparison"}


def _referenced_names(node: ast.AST) -> set[str]:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def unused_definitions() -> list[str]:
    """`module.name` of each module-level function or class whose name no
    other top-level statement of the package refers to."""
    statements = []  # (module, definition name or None, referenced names)
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            defined = (node.name if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else None)
            statements.append((path.stem, defined, _referenced_names(node)))
    unused = []
    for i, (module, name, _) in enumerate(statements):
        if name is None or name in ALLOWED_UNUSED:
            continue
        if not any(name in refs for j, (_, _, refs) in enumerate(statements) if j != i):
            unused.append(f"{module}.{name}")
    return unused


def test_every_module_level_definition_is_used_by_the_package():
    assert unused_definitions() == []


def test_every_name_the_bench_tracer_wraps_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracer",
                                                  ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
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
