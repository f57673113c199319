"""Matrices on numerators stay inside ``linalg`` and ``representation``.

The (P, Q, den) numerator format of the kernel, and the representation
helpers that read it, are private to the two modules that define them; the
other modules reach them through ``Representation.fox_blocks``,
``Representation.extended`` and ``linalg.nonzero_row_of_product``.  The
package source is scanned for the names, not imported.
"""

import ast
import os

import torsioncert

PACKAGE = os.path.dirname(torsioncert.__file__)
OWNERS = {"linalg.py", "representation.py"}
PRIVATE = {"_numerators", "_from_numerators", "_numerator_mul",
           "_row_numerators", "_one_numerators", "_letter_numerators",
           "_trusted_rep", "_unit_numerators", "_word_numerators",
           "_derive"}


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
