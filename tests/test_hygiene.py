"""Source hygiene: every name a module of the package imports is used in
that module, and every function or method of the engine is referenced
somewhere in the package.  Standard-library `ast` only, so it runs with
the tests."""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "toricgit"
MODULES = sorted(PACKAGE.glob("*.py"))

# Kept without a caller in the package: the engine-free checkers, the
# console entry point, the README's example, and every function the
# benchmark's tracer wraps by name (TRACED in perfbench/tracer.py).
UNREFERENCED_MODULES = {"oracle", "certcheck"}
UNREFERENCED_OK = {"cli.main", "actions.Linearization.canonical"}


def _imported(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line for every import outside `__future__`."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                out[(a.asname or a.name).split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                out[a.asname or a.name] = node.lineno
    return out


def _used(tree: ast.Module) -> set[str]:
    """Names read anywhere, including inside quoted annotations and
    `__all__`."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # a quoted forward reference such as "Cone" or "list[Vec]"
            try:
                expr = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            names.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return names


def test_package_has_modules():
    assert len(MODULES) > 5


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    unused = sorted(f"{name} (line {line})"
                    for name, line in _imported(tree).items()
                    if name not in used)
    assert not unused, f"{path.name} imports unused names: {unused}"


def _traced() -> set[str]:
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    table = next(n.value for n in tree.body if isinstance(n, ast.Assign)
                 and any(getattr(t, "id", None) == "TRACED" for t in n.targets))
    return {f"{mod}.{attr}" for mod, attr, _, _ in ast.literal_eval(table)}


def _references(node: ast.AST) -> Counter:
    """Names read and attributes taken anywhere under node."""
    out = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out[n.id] += 1
        elif isinstance(n, ast.Attribute):
            out[n.attr] += 1
    return out


def _definitions(tree: ast.Module):
    """(qualified name, def node) for module functions and class methods."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for m in node.body:
                if isinstance(m, ast.FunctionDef):
                    yield f"{node.name}.{m.name}", m


def test_every_function_is_referenced():
    trees = {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in MODULES}
    everywhere = sum((_references(t) for t in trees.values()), Counter())
    exempt = _traced() | UNREFERENCED_OK
    defined = set()
    unreferenced = []
    for mod, tree in trees.items():
        for qual, node in _definitions(tree):
            name = f"{mod}.{qual}"
            defined.add(name)
            if (node.name.startswith("__") or mod in UNREFERENCED_MODULES
                    or name in exempt):
                continue
            # a reference from inside its own body does not count
            if everywhere[node.name] == _references(node)[node.name]:
                unreferenced.append(name)
    assert not unreferenced, f"functions nothing in src/ references: {unreferenced}"
    assert UNREFERENCED_OK <= defined, "stale allowlist entry"


@pytest.mark.parametrize("name", sorted(UNREFERENCED_MODULES))
def test_checkers_import_no_engine_module(name):
    # agreement with the engine is evidence only while the checkers share
    # no code with it; they may share code with each other
    tree = ast.parse((PACKAGE / f"{name}.py").read_text())
    package = {n.module for n in ast.walk(tree)
               if isinstance(n, ast.ImportFrom) and n.level > 0}
    assert package <= UNREFERENCED_MODULES, package
