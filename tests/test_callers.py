"""Code with no caller outside the tests is deleted: every top-level
function and class of ``src/nidpipe`` must be referenced somewhere other
than its own definition, in ``src/nidpipe``, ``nidbench/`` or ``tools/``.
A reference is a name, an attribute or an import of that name, or, in
``nidbench/``, a string that names it, as the benchmark's traced targets
do."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "nidpipe"


def _references(node: ast.AST, strings: bool) -> set[str]:
    """The names that node and its children reference."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name.rsplit(".", 1)[-1])
        elif strings and isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            names.add(sub.value)
    return names


def test_every_top_level_function_and_class_has_a_caller_outside_the_tests():
    defined, referenced = [], set()
    for folder in (PACKAGE, ROOT / "nidbench", ROOT / "tools"):
        for path in sorted(folder.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for stmt in tree.body:
                names = _references(stmt, strings=folder.name == "nidbench")
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    names.discard(stmt.name)  # a reference from its own definition does not count
                    if folder == PACKAGE:
                        defined.append((stmt.name, f"{path.name}:{stmt.lineno}"))
                referenced |= names
    assert sorted(f"{name} ({where})" for name, where in defined if name not in referenced) == []
