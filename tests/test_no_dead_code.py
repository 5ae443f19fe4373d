"""Every public top-level function and class of the library, and every
public method of its classes, has a caller in the library or its scripts;
tests alone do not keep code alive.  Callers are matched by name."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "stab23"

def _is_click_command(node) -> bool:
    return any(
        isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
        and d.func.attr in ("command", "group")
        for d in node.decorator_list
    )


def _public(node) -> bool:
    return isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")


def _definitions():
    """(file, dotted name, node) of each public definition: top-level
    functions and classes, and the methods in class bodies."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if _public(node) and not _is_click_command(node):
                yield path, node.name, node
            if isinstance(node, ast.ClassDef):
                for method in node.body:
                    if _public(method):
                        yield path, f"{node.name}.{method.name}", method


def _references():
    """(file, line) of every identifier that code, not a string, names."""
    refs: dict = {}
    for path in sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name
            else:
                continue
            refs.setdefault(name, []).append((path, node.lineno))
    return refs


def test_every_public_definition_has_a_caller_outside_the_tests():
    refs = _references()
    unreferenced = set()
    for path, name, node in _definitions():
        first = node.lineno - len(node.decorator_list)
        if all(p == path and first <= line <= node.end_lineno for p, line in refs.get(node.name, [])):
            unreferenced.add(f"{path.stem}.{name}")
    assert unreferenced == set()
