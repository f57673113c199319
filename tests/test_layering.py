"""Matrices on numerators stay inside ``linalg``.

The (P + Q*sqrt d)/den storage of ``Matrix`` and the helpers that read or
build it are private to ``linalg``; the other modules reach them through
``Matrix`` arithmetic, ``running_mul``, ``product``, ``signed_sum``,
``units``, ``sym_power`` and ``nonzero_row_of_product``.  The package
source is scanned for the names, not imported.
"""

import ast
import os

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
