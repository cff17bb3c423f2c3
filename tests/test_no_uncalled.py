"""Every module-level function in ``libpysal_ray`` has a caller.

A def counts as used when its name appears anywhere in the repo's ``.py``
files as a ``Name``, as an ``Attribute`` or as an equal string constant
(the string case covers by-name lookups such as ``getattr(joins, fn)``).
The def statement itself does not count; dunder hooks such as a module
``__getattr__`` are called by the interpreter and are skipped."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _py_files():
    for p in ROOT.rglob("*.py"):
        rel = p.relative_to(ROOT).parts
        if any(part.startswith(".") or part == "__pycache__" for part in rel):
            continue
        yield p


def test_no_module_level_function_without_caller():
    defs: list[tuple[str, str, int]] = []
    used: set[str] = set()
    for p in _py_files():
        tree = ast.parse(p.read_text(), filename=str(p))
        if p.is_relative_to(ROOT / "libpysal_ray"):
            defs.extend(
                (node.name, str(p.relative_to(ROOT)), node.lineno)
                for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            )
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.add(node.value)
    assert defs, "scan found no functions"
    uncalled = [
        f"{f}:{ln} {name}" for name, f, ln in defs
        if name not in used and not name.startswith("__")
    ]
    assert not uncalled, "functions without callers:\n" + "\n".join(uncalled)
