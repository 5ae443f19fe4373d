"""Every public top-level function and class of the library, and every
public method of its classes, has a caller in the library or its scripts;
tests alone do not keep code alive.

A top-level definition counts as called only through its own module: a
bare name there, ``alias.name`` with ``alias`` an import of the module,
or ``from .module import name``.  A method counts as called by any
attribute of its name, and a public dataclass field counts as read by any
attribute load of its name that is not called: ``x.name(...)`` calls a
method, it does not read a field."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "stab23"


def _sources():
    """The library's modules, then its scripts."""
    return sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))


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


def _package_module(module, level: int):
    """The package module that ``from <level dots><module> import`` names:
    its stem, "" for the package itself, None outside the package."""
    if level:
        return module or ""
    if module == "stab23" or (module or "").startswith("stab23."):
        return module[len("stab23."):]
    return None


def _references():
    """(file, line) of each reference that code, not a string, makes:
    keyed by (module stem, name) for the names of package modules, and by
    (None, identifier) for every identifier, as methods are matched."""
    refs: dict = {}

    def add(key, path, node):
        refs.setdefault(key, []).append((path, node.lineno))

    for path in _sources():
        tree = ast.parse(path.read_text())
        own = path.stem if path.parent == PACKAGE else None
        aliases = {}  # local name -> stem of the package module it imports
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                module = _package_module(node.module, node.level)
                for a in node.names if module is not None else ():
                    if module:
                        add((module, a.name), path, node)
                    else:
                        aliases[a.asname or a.name] = a.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                add((None, node.id), path, node)
                if own:
                    add((own, node.id), path, node)
            elif isinstance(node, ast.Attribute):
                add((None, node.attr), path, node)
                if isinstance(node.value, ast.Name) and node.value.id in aliases:
                    add((aliases[node.value.id], node.attr), path, node)
            elif isinstance(node, ast.alias):
                add((None, node.name), path, node)
    return refs


def test_every_public_definition_has_a_caller_outside_the_tests():
    refs = _references()
    unreferenced = set()
    for path, name, node in _definitions():
        key = (None, node.name) if "." in name else (path.stem, node.name)
        first = node.lineno - len(node.decorator_list)
        if all(p == path and first <= line <= node.end_lineno for p, line in refs.get(key, [])):
            unreferenced.add(f"{path.stem}.{name}")
    assert unreferenced == set()


def _is_dataclass(decorator) -> bool:
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return getattr(target, "id", getattr(target, "attr", None)) == "dataclass"


def _dataclass_fields():
    """(file, Class.field) of each public annotated field of a dataclass."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef) and any(map(_is_dataclass, node.decorator_list)):
                for stmt in node.body:
                    if isinstance(stmt, ast.AnnAssign) and not stmt.target.id.startswith("_"):
                        yield path, f"{node.name}.{stmt.target.id}"


def test_every_dataclass_field_is_read_outside_the_tests():
    reads = set()
    for path in _sources():
        nodes = list(ast.walk(ast.parse(path.read_text())))
        called = {id(node.func) for node in nodes if isinstance(node, ast.Call)}
        reads |= {
            node.attr
            for node in nodes
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and id(node) not in called
        }
    unread = {f"{path.stem}.{name}" for path, name in _dataclass_fields() if name.split(".")[1] not in reads}
    assert unread == set()
