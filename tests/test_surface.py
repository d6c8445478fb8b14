"""The library's surface: every function, class and method in src/lexifuse
is referred to by name from src/ or bench/, so nothing is kept only for tests.

A function, class or property counts as referred to when some other code in
those files uses its name as a variable, as an attribute, or as a whole
string constant (bench/tracing.py names its patch points as strings); the
CLI's parser reaches its commands through `set_defaults(func=...)` in
cli.py.  A plain method counts only where it is called (`x.name(...)`) or
named by a string constant, as `name` or `Class.name`: reading an attribute
of the same name, such as a field, is not a use of it.  Uses inside the
definition itself do not count, and neither do imports.  Dunder methods are
called by Python itself and are not checked.
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
    """(class name or None, definition) of module-level functions and classes,
    and of the methods of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield None, node
        if isinstance(node, ast.ClassDef):
            yield from ((node.name, m) for m in node.body if isinstance(m, ast.FunctionDef))


def _is_property(node: ast.FunctionDef) -> bool:
    names = {d.id if isinstance(d, ast.Name) else getattr(d, "attr", None) for d in node.decorator_list}
    return bool(names & {"property", "cached_property"})


def _uses(tree: ast.Module):
    """(line, name, how) of every variable, attribute, called attribute and
    string constant."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.lineno, node.id, "name"
        elif isinstance(node, ast.Attribute):
            yield node.lineno, node.attr, "attribute"
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.lineno, node.value, "string"
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            yield node.lineno, node.func.attr, "call"


def _refers(owner: str | None, node, name: str, how: str) -> bool:
    """Whether a use (name, how) refers to the definition node of class owner."""
    if owner is None or isinstance(node, ast.ClassDef) or _is_property(node):
        return name == node.name
    return (how == "call" and name == node.name) or (how == "string" and name in (node.name, f"{owner}.{node.name}"))


def unreferenced() -> dict[str, str]:
    """name -> its module, for each definition that nothing else uses."""
    library = sorted((ROOT / "src" / "lexifuse").glob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in library + sorted((ROOT / "bench").glob("*.py"))}
    uses = [(path, line, name, how) for path, tree in trees.items() for line, name, how in _uses(tree)]
    out = {}
    for path in library:
        for owner, node in _definitions(trees[path]):
            if node.name.startswith("__"):
                continue
            if not any(_refers(owner, node, name, how) and not (at == path and node.lineno <= line <= node.end_lineno)
                       for at, line, name, how in uses):
                out[node.name] = path.name
    return out


def test_every_library_name_has_a_caller():
    found = unreferenced()
    assert {name: module for name, module in found.items() if name not in ALLOWED} == {}
    # an allowlisted name that gains a caller, or goes, leaves the list
    assert ALLOWED <= found.keys()
