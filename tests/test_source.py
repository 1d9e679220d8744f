"""Checks on the package source itself."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "sdcat"


def _names(node):
    """Every identifier that ``node`` reads, imports or looks up as an
    attribute."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name)
    return out


def test_every_private_module_level_definition_is_used():
    # (module, name, names read by every other top-level statement of src/)
    defs, uses = [], []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            named = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            if named and node.name.startswith("_") and not node.name.startswith("__"):
                defs.append((path.name, node))
            uses.append((node, _names(node)))
    unused = [f"{mod}:{node.name}" for mod, node in defs
              if not any(node.name in names for other, names in uses if other is not node)]
    assert not unused, f"defined but never referenced in src/: {unused}"
