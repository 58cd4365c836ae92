"""Static guards: no module of the package imports a name it never uses,
and no module keeps a private helper it never calls.

Merging two code paths into one tends to leave the imports and the helpers
of the deleted path behind. These scans use only the standard library `ast`
module. A name counts as used when it appears as a name anywhere in the
module's code, including inside a quoted annotation; docstrings and comments
do not count. A private function, class or method (one underscore, not a
dunder) counts as used when its name appears as a name or an attribute
elsewhere in its own module; a caller only in tests does not count.
`__init__.py` files are skipped by the import scan, because they import
names to re-export them.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "anoncrowd"
SOURCES = sorted(PACKAGE.rglob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import -> the line it is imported on."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def used_names(tree: ast.Module) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation) if annotation is not None else ():
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                used.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return used


def private_definitions(tree: ast.Module) -> dict[str, int]:
    """Private module-level functions and classes, and private methods of
    module-level classes -> the line each is defined on."""
    nodes = [n for n in tree.body if isinstance(n, _DEFS)]
    nodes += [m for c in nodes if isinstance(c, ast.ClassDef) for m in c.body if isinstance(m, _DEFS)]
    return {n.name: n.lineno for n in nodes if n.name.startswith("_") and not n.name.endswith("__")}


def test_the_scan_sees_modules():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = used_names(tree)
    unused = [f"{name} (line {line})" for name, line in imported_names(tree).items() if name not in used]
    assert unused == [], f"{path.name} imports names it never uses: {', '.join(unused)}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_no_unreferenced_private_helpers(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = used_names(tree) | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    unused = [f"{name} (line {line})" for name, line in private_definitions(tree).items() if name not in used]
    assert unused == [], f"{path.name} defines private helpers it never references: {', '.join(unused)}"
