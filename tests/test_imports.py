"""Every module-level import in the package is used or exported, and every
exported name is defined where it is exported."""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "seplift"


def _imported_names(tree: ast.Module) -> dict[str, int]:
    names: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                names[bound] = node.lineno
    return names


def _exported_names(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def _used_names(tree: ast.Module) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_module_level_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    unused = {
        name: line
        for name, line in _imported_names(tree).items()
        if name not in _used_names(tree) and name not in _exported_names(tree)
    }
    assert not unused, f"{path.name}: unused imports {sorted(unused.items(), key=lambda kv: kv[1])}"


def _defined_names(node: ast.stmt) -> list[str]:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def _defined_private_names(node: ast.stmt) -> list[str]:
    return [n for n in _defined_names(node) if n.startswith("_") and not n.endswith("__")]


def _referenced_names(node: ast.stmt) -> set[str]:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
    return names


def test_every_module_level_private_name_is_referenced():
    # A private name that no other top-level statement of the package uses
    # is a leftover: its last caller is gone.
    statements = [
        (path.name, node, _referenced_names(node))
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.parse(path.read_text(encoding="utf-8")).body
    ]
    unreferenced = [
        f"{module}: {name}"
        for module, node, _ in statements
        for name in _defined_private_names(node)
        if not any(name in refs for _, other, refs in statements if other is not node)
    ]
    assert not unreferenced, f"unreferenced private names: {unreferenced}"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_imports_are_at_module_level(path):
    # An import inside a function escapes the unused-import check above.
    tree = ast.parse(path.read_text(encoding="utf-8"))
    nested = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and node not in tree.body
    ]
    assert not nested, f"{path.name}: imports inside functions at lines {nested}"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_all_lists_only_names_the_module_defines(path):
    # One import path per name: a module exports what it defines, and the
    # package root exports its submodules, not their names.
    tree = ast.parse(path.read_text(encoding="utf-8"))
    if path.name == "__init__.py":
        allowed = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
    else:
        allowed = {name for node in tree.body for name in _defined_names(node)}
    foreign = sorted(_exported_names(tree) - allowed)
    assert not foreign, f"{path.name}: __all__ lists names defined elsewhere: {foreign}"
