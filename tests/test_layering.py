"""Matrices on numerators stay inside ``linalg``, and the package runs on
the standard library alone.

The (P + Q*sqrt d)/den storage of ``Matrix`` and the helpers that read or
build it are private to ``linalg``; the other modules reach them through
``Matrix`` arithmetic, ``running_mul``, ``product``, ``signed_sum``,
``units``, ``sym_power`` and ``nonzero_row_of_product``.  The package
source is scanned for the names and imports, not imported.
"""

import ast
import os
import sys

import torsioncert

PACKAGE = os.path.dirname(torsioncert.__file__)
OWNERS = {"linalg.py"}
PRIVATE = {"_parts", "_denom", "_entries", "_new", "_finish",
           "_from_entries", "_materialize", "_sym_rows", "_binomial_powers",
           "_echelon"}


def _names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name, node.lineno


def test_numerator_names_stay_in_their_modules():
    modules = sorted(f for f in os.listdir(PACKAGE) if f.endswith(".py"))
    assert OWNERS < set(modules)
    found = []
    for name in sorted(set(modules) - OWNERS):
        with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        found += [(name, line, ident) for ident, line in _names(tree)
                  if ident in PRIVATE]
    assert found == []


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, node.lineno
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module, node.lineno


def test_package_imports_only_the_standard_library():
    # every import, at module level or inside a function, is either the
    # package's own or a standard-library module
    allowed = sys.stdlib_module_names | {"torsioncert"}
    found = []
    for name in sorted(f for f in os.listdir(PACKAGE) if f.endswith(".py")):
        with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        found += [(name, line, module)
                  for module, line in _imported_modules(tree)
                  if module.partition(".")[0] not in allowed]
    assert found == []
