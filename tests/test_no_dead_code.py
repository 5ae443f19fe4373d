"""Every public top-level function, class and constant of the library, and
every public method of its classes, has a reader in the library or its
scripts; tests alone do not keep code alive.  Every private top-level
function and constant of the library, and every private method of its
classes, has a reader in its own module.

A top-level name counts as read only through its own module: a bare name
loaded there, ``alias.name`` with ``alias`` an import of the module, or
``from .module import name``.  A method counts as called by an attribute
of its name on a receiver of its class.  The receiver's class is known for
``self`` (or ``cls``) in a method, a parameter annotated with the class,
the class itself, a constructor call, a call to a function or method
whose return annotation names the class, and a dataclass field annotated
with the class, each directly or through a local name bound once; an
attribute on any other receiver counts for every method of its name.

A public dataclass field counts as read only by an attribute of its name
loaded, and not called, on a receiver of its class: ``x.name(...)`` calls
a method, and a field name such as ``shape`` or ``rows`` is loaded on
arrays everywhere.  A field read only on receivers of unknown class fails,
and annotating the receiver (a parameter, or a field that holds it) makes
its class known."""

import ast
from collections import Counter
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


def _private(name: str) -> bool:
    """A name with a leading underscore that is not a dunder."""
    return name.startswith("_") and not name.startswith("__")


def _constant_targets(node) -> list:
    """The names a module-level assignment binds."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _definitions():
    """(file, dotted name, node) of each public definition: top-level
    functions, classes and constants, and the methods in class bodies."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if _public(node) and not _is_click_command(node):
                yield path, node.name, node
            for name in _constant_targets(node):
                if not name.startswith("_"):
                    yield path, name, node
            if isinstance(node, ast.ClassDef):
                for method in node.body:
                    if _public(method):
                        yield path, f"{node.name}.{method.name}", method


def _private_definitions():
    """(file, name, node) of each private top-level function and constant
    of the package; methods and dunders such as ``__all__`` are left out."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and _private(node.name):
                yield path, node.name, node
            for name in filter(_private, _constant_targets(node)):
                yield path, name, node


def _private_methods():
    """(file, Class.method, node) of each private method of the package's
    classes; dunders such as ``__post_init__`` are left out."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef):
                for method in node.body:
                    if isinstance(method, ast.FunctionDef) and _private(method.name):
                        yield path, f"{node.name}.{method.name}", method


def _package_module(module, level: int):
    """The package module that ``from <level dots><module> import`` names:
    its stem, "" for the package itself, None outside the package."""
    if level:
        return module or ""
    if module == "stab23" or (module or "").startswith("stab23."):
        return module[len("stab23."):]
    return None


def _annotated_class(node, classes):
    """The library class that an annotation names, or None."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        name = node.value.rpartition(".")[2]
    elif isinstance(node, ast.Attribute):
        name = node.attr
    elif isinstance(node, ast.Name):
        name = node.id
    else:
        return None
    return name if name in classes else None


def _is_method(func, owner) -> bool:
    """Whether the first parameter of ``func`` is its class or instance."""
    return isinstance(func, ast.FunctionDef) and owner is not None and not any(
        getattr(d, "id", None) == "staticmethod" for d in func.decorator_list
    )


def _library(trees=None):
    """(classes, returns): the names of the package's classes, which must
    be distinct, and the class that the return annotation of each function
    or method, or the annotation of each dataclass field, names, keyed by
    (module stem or class, name).  ``trees`` maps module stems to parsed
    modules, the package's own by default."""
    if trees is None:
        trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    names = [n.name for tree in trees.values() for n in tree.body if isinstance(n, ast.ClassDef)]
    assert len(names) == len(set(names)), "receiver types are matched by class name"
    classes = set(names)
    returns = {}
    for stem, tree in trees.items():
        for node in tree.body:
            owner, body = (node.name, node.body) if isinstance(node, ast.ClassDef) else (stem, [node])
            for item in body:
                if isinstance(item, ast.FunctionDef) and item.returns is not None:
                    returns[(owner, item.name)] = _annotated_class(item.returns, classes)
                elif isinstance(item, ast.AnnAssign) and isinstance(node, ast.ClassDef) and any(
                    map(_is_dataclass, node.decorator_list)
                ):
                    returns[(owner, item.target.id)] = _annotated_class(item.annotation, classes)
    return classes, returns


class _Scope:
    """The module, one function or one lambda: the names it binds, and the
    class of each whose class the rules of this file's docstring decide."""

    def __init__(self, node, owner, resolver):
        self.resolver = resolver
        self.params = {}
        self.bound_once = {}
        stores = Counter(
            n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
        )
        args = getattr(node, "args", None)
        args = args.posonlyargs + args.args + args.kwonlyargs if args else []
        for i, arg in enumerate(args):
            if stores[arg.arg]:
                continue
            if i == 0 and _is_method(node, owner):
                self.params[arg.arg] = owner
            elif arg.annotation is not None:
                self.params[arg.arg] = _annotated_class(arg.annotation, resolver.classes)
        for n in ast.walk(node):
            if isinstance(n, ast.Assign) and len(n.targets) == 1:
                target = n.targets[0]
            elif isinstance(n, ast.AnnAssign) and n.value is not None:
                target = n.target
            else:
                continue
            if isinstance(target, ast.Name) and stores[target.id] == 1:
                self.bound_once[target.id] = n.value
        self.local = set(stores) | {arg.arg for arg in args}
        self.resolving = set()

    def name_class(self, name):
        if name in self.params:
            return self.params[name]
        if name in self.bound_once and name not in self.resolving:
            self.resolving.add(name)
            try:
                return self.resolver.expr_class(self.bound_once[name], self)
            finally:
                self.resolving.discard(name)
        if name in self.resolver.classes and name not in self.local:
            return name
        return None


class _Resolver:
    """Receiver classes in one source file."""

    def __init__(self, own, aliases, imported, library):
        self.own, self.aliases, self.imported = own, aliases, imported
        self.classes, self.returns = library

    def module_of(self, expr):
        """The package module that ``expr`` names, or None."""
        return self.aliases.get(expr.id) if isinstance(expr, ast.Name) else None

    def expr_class(self, expr, scope):
        """The library class of the value of ``expr`` (a class stands for
        itself), or None where the rules do not decide it."""
        if isinstance(expr, ast.Name):
            return scope.name_class(expr.id)
        if isinstance(expr, ast.Attribute):
            if self.module_of(expr.value) is not None:
                return _annotated_class(expr, self.classes)
            return self.returns.get((self.expr_class(expr.value, scope), expr.attr))
        if not isinstance(expr, ast.Call):
            return None
        func = expr.func
        if isinstance(func, ast.Name):
            if func.id in scope.local:
                return None
            if func.id in self.classes:
                return func.id
            return self.returns.get(self.imported.get(func.id, (self.own, func.id)))
        if not isinstance(func, ast.Attribute):
            return None
        module = self.module_of(func.value)
        if module is not None:
            return func.attr if func.attr in self.classes else self.returns.get((module, func.attr))
        return self.returns.get((self.expr_class(func.value, scope), func.attr))


def _scoped_nodes(node, scope, resolver):
    """(node, scope) for every node below ``node``, each in the innermost
    function or lambda around it, or in the module."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.Lambda)):
            owner = node.name if isinstance(node, ast.ClassDef) else None
            inner = _Scope(child, owner, resolver)
        yield child, inner
        yield from _scoped_nodes(child, inner, resolver)


def _references():
    """(file, line) of each reference that code, not a string, makes:
    keyed by (module stem, name) for the names of package modules, by
    (class, name) for an attribute on a receiver of known class, and by
    (None, name) for an attribute on any other receiver."""
    refs: dict = {}
    library = _library()

    def add(key, path, node):
        refs.setdefault(key, []).append((path, node.lineno))

    for path in _sources():
        tree = ast.parse(path.read_text())
        own = path.stem if path.parent == PACKAGE else None
        aliases = {}  # local name -> stem of the package module it imports
        imported = {}  # local name -> (stem, name) of the package name it imports
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                module = _package_module(node.module, node.level)
                for a in node.names if module is not None else ():
                    if module:
                        add((module, a.name), path, node)
                        imported[a.asname or a.name] = (module, a.name)
                    else:
                        aliases[a.asname or a.name] = a.name
        resolver = _Resolver(own, aliases, imported, library)
        nodes = list(_scoped_nodes(tree, _Scope(tree, None, resolver), resolver))
        called = {id(node.func) for node, _ in nodes if isinstance(node, ast.Call)}
        for node, scope in nodes:
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and own:
                add((own, node.id), path, node)
            elif isinstance(node, ast.Attribute):
                owner = resolver.module_of(node.value) or resolver.expr_class(node.value, scope)
                add((owner, node.attr), path, node)
                if owner is not None and isinstance(node.ctx, ast.Load) and id(node) not in called:
                    add(("field", owner, node.attr), path, node)
    return refs


def test_library_scan_takes_a_module_level_annotated_assignment():
    # a module-level AnnAssign is a one-item body with no decorators; only
    # the fields of a dataclass are recorded
    tree = ast.parse(
        "from dataclasses import dataclass\n"
        "_CACHE: dict = {}\n"
        "class Row:\n    pass\n"
        "@dataclass\nclass Box:\n    row: Row\n"
        "def make() -> Box:\n    return Box(Row())\n"
    )
    classes, returns = _library({"mod": tree})
    assert classes == {"Row", "Box"}
    assert returns == {("Box", "row"): "Row", ("mod", "make"): "Box"}


def test_every_public_definition_has_a_caller_outside_the_tests():
    refs = _references()
    unreferenced = set()
    for path, name, node in _definitions():
        owner, _, attr = name.rpartition(".")
        keys = [(owner, attr), (None, attr)] if owner else [(path.stem, name)]
        first = node.lineno - len(getattr(node, "decorator_list", ()))
        if all(
            p == path and first <= line <= node.end_lineno
            for key in keys for p, line in refs.get(key, [])
        ):
            unreferenced.add(f"{path.stem}.{name}")
    assert unreferenced == set()


def test_every_private_function_and_constant_is_read_in_its_own_module():
    # read outside its own definition: a private name that only the tests
    # or another module read, such as a leftover blocking constant, is dead
    refs = _references()
    unread = set()
    for path, name, node in _private_definitions():
        first = node.lineno - len(getattr(node, "decorator_list", ()))
        if all(
            p != path or first <= line <= node.end_lineno
            for p, line in refs.get((path.stem, name), [])
        ):
            unread.add(f"{path.stem}.{name}")
    assert unread == set()


def test_every_private_method_is_read_in_its_own_module():
    # read outside its own body, on a receiver of its class or of unknown
    # class: a private method that only the tests call is dead
    refs = _references()
    unread = set()
    for path, name, node in _private_methods():
        owner, _, attr = name.partition(".")
        first = node.lineno - len(node.decorator_list)
        if all(
            p != path or first <= line <= node.end_lineno
            for key in [(owner, attr), (None, attr)] for p, line in refs.get(key, [])
        ):
            unread.add(f"{path.stem}.{name}")
    assert unread == set()


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
    refs = _references()
    unread = set()
    for path, name in _dataclass_fields():
        owner, attr = name.split(".")
        if not refs.get(("field", owner, attr)):
            unread.add(f"{path.stem}.{name}")
    assert unread == set()
