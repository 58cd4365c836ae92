"""Static guards: no module of the package imports a name it never uses,
no module keeps a private helper it never calls, and no public definition
goes unnamed outside tests.

Merging two code paths into one tends to leave the imports and the helpers
of the deleted path behind. These scans use only the standard library `ast`
module. A name counts as used when it appears as a name anywhere in the
module's code, including inside a quoted annotation; docstrings and comments
do not count. A private function, class or method (one underscore, not a
dunder) counts as used when its name appears as a name or an attribute
elsewhere in its own module; a caller only in tests does not count.
`__init__.py` files are skipped by the import scan, because they import
names to re-export them. A public function, class or method counts as used
when its name appears as a name, an attribute or a whole string constant
(an `__all__` entry, a metric's target) anywhere in `src/` or `perfbench/`;
the few kept for tests alone are listed in TEST_ONLY with their reason.
No module but `group.py` and `primitives.py` names a group multiplication
(MULTIPLICATIONS), as a name or an attribute, so the protocol layers do no
group arithmetic of their own; the uses kept are listed in MULTIPLYING with
their reason, and each must be the function a `memo` call runs.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "anoncrowd"
SOURCES = sorted(PACKAGE.rglob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

# public definitions only tests call -> why each stays
TEST_ONLY = {
    "primitives.pair_add": "the tests' oracle for a quality step, independent of pair_step",
}

MULTIPLICATIONS = {"lincomb", "mul", "mul_gen", "mul_blind", "dual_mul", "multiples", "neg"}
ARITHMETIC = {"group.py", "primitives.py"}
# (module, multiplication) named outside ARITHMETIC -> why
MULTIPLYING = {
    ("relations.py", "mul_gen"): "the requester-key check memo(ctx.group.mul_gen, sk): the requester "
    "checkers compare sk * G with the statement's key, through the memo so each key is multiplied once",
}


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


def definitions(tree: ast.Module) -> dict[str, int]:
    """Module-level functions and classes, and methods of module-level
    classes -> the line each is defined on."""
    nodes = [n for n in tree.body if isinstance(n, _DEFS)]
    nodes += [m for c in nodes if isinstance(c, ast.ClassDef) for m in c.body if isinstance(m, _DEFS)]
    return {n.name: n.lineno for n in nodes}


def private_definitions(tree: ast.Module) -> dict[str, int]:
    return {name: line for name, line in definitions(tree).items() if name.startswith("_") and not name.endswith("__")}


def referenced_names(paths) -> set[str]:
    """Every name, attribute and whole string constant in the files at paths."""
    out = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                out.add(node.value)
    return out


def public_definitions() -> dict[str, int]:
    """'module.name' of each public function, class and method in the package -> its line."""
    out = {}
    for path in SOURCES:
        module = path.relative_to(PACKAGE).with_suffix("").as_posix().replace("/", ".")
        tree = ast.parse(path.read_text(), filename=str(path))
        out.update({f"{module}.{name}": line for name, line in definitions(tree).items() if not name.startswith("_")})
    return out


def named_multiplications(tree: ast.Module):
    """(name, line, whether it is the function a memo call runs) of each
    group multiplication the module names."""
    memo_fns = {
        id(node.args[0])
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "memo" and node.args
    }
    for node in ast.walk(tree):
        name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
        if name in MULTIPLICATIONS:
            yield name, node.lineno, id(node) in memo_fns


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


def test_every_public_definition_is_named_outside_tests():
    referenced = referenced_names([*SOURCES, *sorted((ROOT / "perfbench").rglob("*.py"))])
    unnamed = {q: line for q, line in public_definitions().items() if q.rsplit(".", 1)[1] not in referenced}
    assert unnamed.keys() == TEST_ONLY.keys(), f"named only in tests, or no longer so: {unnamed}"


def test_only_group_and_primitives_multiply():
    named, kept = [], set()
    for path in SOURCES:
        module = path.relative_to(PACKAGE).as_posix()
        if module in ARITHMETIC:
            continue
        for name, line, memo_fn in named_multiplications(ast.parse(path.read_text(), filename=str(path))):
            if memo_fn and (module, name) in MULTIPLYING:
                kept.add((module, name))
            else:
                named.append(f"{module}: {name} (line {line})")
    assert named == [], f"group multiplication outside {sorted(ARITHMETIC)}: {', '.join(named)}"
    assert kept == MULTIPLYING.keys(), f"MULTIPLYING entries no longer used: {MULTIPLYING.keys() - kept}"
