"""Every public function and class of the package is used somewhere.

A public module-level definition of ``src/hyposym/*.py`` (``__init__.py``
aside) counts as used when another definition or statement in ``src/``
refers to it by name, or when a module in ``perfbench/`` or ``scripts/``
imports it.  Tests do not count: a per-point path that only tests reach
belongs in ``tests/`` as an oracle.  The allow-list names the exceptions and
why each stays.  The other way round, every name that ``perfbench/`` or
``scripts/`` imports from the package must exist.
"""

import ast
import importlib
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hyposym"

ALLOWED = {
    # the known-red acceptance criterion 7 measures near-diagonality with it
    "near_diagonal_constant": "imported by tests/test_acceptance.py, criterion 7",
    # ROADMAP item 1's telemetry sidecar may stack both health residuals
    "char_coeffs": "health residual planned for the telemetry sidecar",
    "cayley_hamilton_residual": "health residual planned for the telemetry sidecar",
}


def _public_definitions(tree: ast.Module) -> list:
    return [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def _names_used(node) -> set:
    """Every name and attribute a statement refers to."""
    used = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            used.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            used.add(sub.attr)
    return used


def _package_imports(path: Path) -> list:
    """(module, name) of each ``from hyposym... import name`` in a module, and
    (module, None) of each ``import hyposym...``, function-local ones too."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("hyposym"):
            found += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            found += [(alias.name, None) for alias in node.names
                      if alias.name.split(".")[0] == "hyposym"]
    return found


def _tooling_modules() -> list:
    return [path for folder in ("perfbench", "scripts")
            for path in sorted((ROOT / folder).glob("*.py"))]


def unused_public_names() -> dict:
    """{name: module} of public definitions that nothing outside tests uses."""
    modules = {path.stem: ast.parse(path.read_text())
               for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}
    imported = {name for path in _tooling_modules() for _, name in _package_imports(path)}
    # statements per name that refer to it, over every module's statements
    referring = Counter()
    for tree in modules.values():
        for node in tree.body:
            referring.update(_names_used(node))
    unused = {}
    for module, tree in modules.items():
        for definition in _public_definitions(tree):
            itself = definition.name in _names_used(definition)
            if referring[definition.name] == itself and definition.name not in imported:
                unused[definition.name] = module
    return unused


def test_every_public_definition_is_used():
    unused = unused_public_names()
    stray = {name: module for name, module in unused.items() if name not in ALLOWED}
    assert not stray, f"public definitions only tests reach (move them into tests/): {stray}"


def test_allow_list_is_current():
    # an allowed name that is used now, or gone, leaves the list
    assert set(ALLOWED) <= set(unused_public_names())


def test_tooling_imports_resolve():
    # The benchmark and the scripts import from the package, some of them
    # inside functions (perfbench's child and tracer); a deleted or renamed
    # name fails here, not first in a benchmark run.
    missing = []
    for path in _tooling_modules():
        for module, name in _package_imports(path):
            try:
                found = name is None or hasattr(importlib.import_module(module), name)
            except ImportError:
                found = False
            if not found:
                missing.append(f"{path.relative_to(ROOT)}: {module} {name or ''}".rstrip())
    assert not missing, f"names the tooling imports that the package lacks: {missing}"
