"""The library's surface: every function, class and method in src/lexifuse
is referred to by name from src/ or bench/, so nothing is kept only for tests.

A name counts as referred to when some other code in those files uses it as a
variable, as an attribute, or as a whole string constant (bench/tracing.py
names its patch points as strings); the CLI's parser reaches its commands
through `set_defaults(func=...)` in cli.py.  Uses inside the definition
itself do not count, and neither do imports.  Dunder methods are called by
Python itself and are not checked.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Names without a caller yet, each with the reason it stays.
ALLOWED = {
    # rebuilds the optimizer state from a checkpoint; `lexifuse train
    # --resume` will call it
    "adam_from_extra",
}


def _definitions(tree: ast.Module):
    """Module-level functions and classes, and the methods of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (m for m in node.body if isinstance(m, ast.FunctionDef))


def _uses(tree: ast.Module):
    """(line, name) of every variable, attribute and string constant."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute):
            yield node.lineno, node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.lineno, node.value


def unreferenced() -> dict[str, str]:
    """name -> its module, for each definition that nothing else uses."""
    library = sorted((ROOT / "src" / "lexifuse").glob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in library + sorted((ROOT / "bench").glob("*.py"))}
    uses = [(path, line, name) for path, tree in trees.items() for line, name in _uses(tree)]
    out = {}
    for path in library:
        for node in _definitions(trees[path]):
            if node.name.startswith("__"):
                continue
            if not any(name == node.name and not (at == path and node.lineno <= line <= node.end_lineno)
                       for at, line, name in uses):
                out[node.name] = path.name
    return out


def test_every_library_name_has_a_caller():
    found = unreferenced()
    assert {name: module for name, module in found.items() if name not in ALLOWED} == {}
    # an allowlisted name that gains a caller, or goes, leaves the list
    assert ALLOWED <= found.keys()
