"""Every function, method, property and alias of the package has a caller in the package.

Each module of ``src/cycindex`` is parsed with ``ast``.  A definition is a
function, a method, a property, or a module-level alias ``name = Class.attr``.
It counts as called when its name is loaded, as a bare name or as an
attribute, somewhere in ``src/cycindex`` outside ``__init__.py``.  The check
is by name only: a definition whose name collides with another loaded name
(``value``, ``order``, ``entry``) passes even when nothing calls it.  Helpers
that only the tests need belong in ``tests/oracles.py``.
"""

import ast
from pathlib import Path

import cycindex

SRC = Path(cycindex.__file__).resolve().parent

# definitions with no caller in the package, each with its reason
ALLOWED = {
    "random_gamma_family": "builds the paper's cocycle-twisted modules",
    "nnz": "SparseMatrix.nnz is read by perfbench/tracer.py",
    "is_symmetric": "public check on a MonomialPoly, called by the tests",
}


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _is_alias(node):
    """A module-level ``name = Class.attr`` assignment."""
    return (isinstance(node, ast.Assign) and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Attribute)
            and isinstance(node.value.value, ast.Name))


def test_every_definition_is_loaded_by_name_in_the_package():
    defined, loaded = set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined.update((path.name, node.targets[0].id)
                       for node in tree.body if _is_alias(node))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not _is_dunder(node.name):
                    defined.add((path.name, node.name))
            elif path.name == "__init__.py":
                continue
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    uncalled = sorted(f"{module}:{name}" for module, name in defined
                      if name not in loaded and name not in ALLOWED)
    assert uncalled == []
    # the allowlist names only definitions that exist and still lack a caller
    stale = sorted(set(ALLOWED) - {name for _, name in defined} | (set(ALLOWED) & loaded))
    assert stale == []
