"""Source layout checks: every module-level function and class in
`src/siotsim` is used by the program itself, not only by its tests."""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "siotsim"

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
