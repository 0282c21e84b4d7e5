"""Code with no caller outside the tests is deleted: every top-level
function and class of ``src/nidpipe``, and every method and property of
such a class bar the dunders, must be referenced somewhere other than
its own definition, in ``src/nidpipe``, ``nidbench/`` or ``tools/``.
A reference is a name, an attribute or an import of that name, or, in
``nidbench/``, a string that names it, as the benchmark's traced targets
do; a method or property is reached through an attribute, so a bare
name does not reference it."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "nidpipe"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _references(node: ast.AST, strings: bool, names: bool = True) -> set[str]:
    """The names that node and its children reference (bare names only
    when ``names``), less the name of each definition among them within
    that definition."""
    if isinstance(node, ast.Name):
        return {node.id} if names else set()
    if isinstance(node, ast.alias):
        return {node.name.rsplit(".", 1)[-1]} if names else set()
    if strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
        return {node.value}
    found = {node.attr} if isinstance(node, ast.Attribute) else set()
    for child in ast.iter_child_nodes(node):
        found |= _references(child, strings, names)
    if isinstance(node, DEFINITIONS):
        found.discard(node.name)  # a reference from its own definition does not count
    return found


def _members(cls: ast.ClassDef) -> list[ast.FunctionDef]:
    """The methods and properties of a class, bar the dunders."""
    return [
        stmt
        for stmt in cls.body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (stmt.name.startswith("__") and stmt.name.endswith("__"))
    ]


def test_every_function_class_method_and_property_has_a_caller_outside_the_tests():
    defined, referenced, attributes = [], set(), set()
    for folder in (PACKAGE, ROOT / "nidbench", ROOT / "tools"):
        for path in sorted(folder.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            strings = folder.name == "nidbench"
            for stmt in tree.body:
                referenced |= _references(stmt, strings)
                attributes |= _references(stmt, strings, names=False)
                if folder == PACKAGE and isinstance(stmt, DEFINITIONS):
                    defined.append((stmt.name, False, f"{stmt.name} ({path.name}:{stmt.lineno})"))
                    if isinstance(stmt, ast.ClassDef):
                        defined.extend(
                            (m.name, True, f"{stmt.name}.{m.name} ({path.name}:{m.lineno})") for m in _members(stmt)
                        )
    unused = [where for name, member, where in defined if name not in (attributes if member else referenced)]
    assert sorted(unused) == []
