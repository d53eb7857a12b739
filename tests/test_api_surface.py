"""Every public function and class of the package is used somewhere.

A public module-level definition of ``src/hyposym/*.py`` (``__init__.py``
aside) counts as used when another definition or statement in ``src/``
reads its name (an ``ast.Name`` in ``Load`` context), or when a module in
``perfbench/`` or ``scripts/`` imports it.  A dataclass field, keyword
argument or attribute of the same name does not count, and neither do tests:
a per-point path that only tests reach belongs in ``tests/`` as an oracle.
The other way round, every name that ``perfbench/`` or ``scripts/`` imports
from the package must exist, and so must every name of ``hyposym.__all__``.
Each recursion of the reduction has one producer: only the definitions
pinned in ``PRODUCERS`` read ``faddeev_leverrier`` or ``adjugate_coeffs``,
and only ``PathAssembler.__init__`` calls ``time_derivative``.
No module imports ``hashlib``, which loads OpenSSL, except as the fallback
of CPython's built-in SHA-256 module.  ``src/`` holds no ``assert``
statement: ``python -O`` drops them, so a check that must hold raises.
"""

import ast
import importlib
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hyposym"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _public_definitions(tree: ast.Module) -> list:
    return [node for node in tree.body
            if isinstance(node, FUNCTIONS + (ast.ClassDef,))
            and not node.name.startswith("_")]


def _names_read(node) -> set:
    """Every name a statement reads: its ``ast.Name`` nodes in ``Load`` context."""
    return {sub.id for sub in ast.walk(node)
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}


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
    # statements per name that read it, over every module's statements
    referring = Counter()
    for tree in modules.values():
        for node in tree.body:
            referring.update(_names_read(node))
    unused = {}
    for module, tree in modules.items():
        for definition in _public_definitions(tree):
            itself = definition.name in _names_read(definition)
            if referring[definition.name] == itself and definition.name not in imported:
                unused[definition.name] = module
    return unused


# the definitions of src/ that may read each recursion
PRODUCERS = {
    # the spectra of one frequency, the reduction's kernel, and the
    # conditions grid's rescaled coefficients at every direction
    "faddeev_leverrier": {"symbols.rescaled_spectra", "reduction._bold_B_terms",
                          "conditions.evaluate_grid"},
    "adjugate_coeffs": {"reduction._bold_B_terms"},
}


def readers(name: str) -> set:
    """Where src/ reads ``name``: ``module.function`` or ``module.Class.method``
    for a definition, the bare module for any other statement."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef):
                members, prefix = node.body, f"{path.stem}.{node.name}."
            else:
                members, prefix = [node], f"{path.stem}."
            for sub in members:
                if name in _names_read(sub):
                    found.add(prefix + sub.name if isinstance(sub, FUNCTIONS) else path.stem)
    return found


def occurrences(text: str) -> set:
    """Where ``text`` occurs in src/: ``module.function`` or
    ``module.Class.method`` of the definition holding the line, else the bare
    module."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        spans = []
        for node in tree.body:
            for sub in [node] + (node.body if isinstance(node, ast.ClassDef) else []):
                if isinstance(sub, FUNCTIONS):
                    name = sub.name if sub is node else f"{node.name}.{sub.name}"
                    spans.append((sub.lineno, sub.end_lineno, f"{path.stem}.{name}"))
        for lineno, line in enumerate(path.read_text().splitlines(), start=1):
            if text in line:
                found |= {name for lo, hi, name in spans if lo <= lineno <= hi} or {path.stem}
    return found


def test_one_builder_of_the_derivative_symbols():
    # PathAssembler builds the table of d^k/dt^k A that reduce, lift, the
    # separable last rows and evaluate_grid read; it stops before the first
    # zero derivative, and a second table beside it would form zero paths again
    assert occurrences("time_derivative(") == {"symbols.time_derivative",
                                               "reduction.PathAssembler.__init__"}


def test_one_lifting_of_u_hat():
    # PathAssembler.lift replaced the free lift_states, and its powers of <xi>
    # the overflow helper _power
    import hyposym.reduction as reduction

    assert not hasattr(reduction, "lift_states")
    assert not hasattr(reduction, "_power")


def test_one_producer_per_recursion():
    # reduce, last_rows and evaluate_grid take c and bold_A from the kernel
    # _bold_B_terms; a second recursion beside it fails here
    for name, producers in PRODUCERS.items():
        assert readers(name) == producers, name


def test_every_public_definition_is_used():
    unused = unused_public_names()
    assert not unused, f"public definitions only tests reach (move them into tests/): {unused}"


def test_package_all_is_current():
    # A name deleted from a module but left in __all__ fails here, not first
    # at ``from hyposym import *``.
    import hyposym

    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    repeated = [name for name, count in Counter(hyposym.__all__).items() if count > 1]
    assert not repeated, f"names listed more than once in hyposym.__all__: {repeated}"
    stray = [name for name in hyposym.__all__
             if name not in imported or not hasattr(hyposym, name)]
    assert not stray, f"names in hyposym.__all__ that __init__.py does not import: {stray}"


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


# CPython's built-in SHA-256 module: _sha256 up to 3.11, _sha2 from 3.12
BUILTIN_SHA256 = {"_sha2", "_sha256"}


def _modules_imported(*nodes) -> set:
    """Top-level names of the modules that the imports under ``nodes`` load."""
    found = set()
    for sub in (sub for node in nodes for sub in ast.walk(node)):
        if isinstance(sub, ast.ImportFrom) and sub.module:
            found.add(sub.module.split(".")[0])
        elif isinstance(sub, ast.Import):
            found.update(alias.name.split(".")[0] for alias in sub.names)
    return found


def hashlib_imports() -> list:
    """``module:line`` of each import of hashlib in src/ that is not in the
    ``except ImportError`` handler of a ``try`` importing the built-in module."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        fallback = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Try) and BUILTIN_SHA256 & _modules_imported(*node.body):
                fallback.update(id(sub) for handler in node.handlers
                                if isinstance(handler.type, ast.Name)
                                and handler.type.id in ("ImportError", "ModuleNotFoundError")
                                for sub in ast.walk(handler))
        found += [f"{path.stem}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, (ast.Import, ast.ImportFrom))
                  and "hashlib" in _modules_imported(node) and id(node) not in fallback]
    return found


def test_hashlib_only_as_the_builtin_sha256_fallback():
    # config_hash's one digest a run would otherwise load OpenSSL's libcrypto
    # into solve, growth and reduce, which never sample.
    stray = hashlib_imports()
    assert not stray, f"imports of hashlib outside the built-in SHA-256 fallback: {stray}"


def test_no_assert_statements():
    # An assert guarding input vanishes under python -O; the package raises
    # its errors (DomainError, NumericError, ValueError) instead.
    found = [f"{path.stem}:{node.lineno}" for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in src/: {found}"
