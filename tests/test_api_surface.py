"""Every public function and class of the package is used somewhere.

A public module-level definition of ``src/hyposym/*.py`` (``__init__.py``
aside) counts as used when another definition or statement in ``src/``
refers to it by name, or when a module in ``perfbench/`` or ``scripts/``
imports it.  Tests do not count: a per-point path that only tests reach
belongs in ``tests/`` as an oracle.  The allow-list names the exceptions and
why each stays.
"""

import ast
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


def _names_imported(path: Path) -> set:
    """Names a module imports from the package."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("hyposym"):
            names.update(alias.name for alias in node.names)
    return names


def unused_public_names() -> dict:
    """{name: module} of public definitions that nothing outside tests uses."""
    modules = {path.stem: ast.parse(path.read_text())
               for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}
    imported = set()
    for folder in ("perfbench", "scripts"):
        for path in sorted((ROOT / folder).glob("*.py")):
            imported |= _names_imported(path)
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
