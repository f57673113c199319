"""Matrices on numerators stay inside ``linalg``, the package runs on the
standard library alone, and each module imports only the layers below it.

The (P + Q*sqrt d)/den storage of ``Matrix`` and the helpers that read or
build it are private to ``linalg``; the other modules reach them through
``Matrix`` arithmetic, ``running_mul``, ``product``, ``sweep_mul``,
``signed_blocks``, ``units``, ``sym_power`` and ``fox_formula_row``.
Only ``scalar`` reads the zero tolerance; every other module decides a
float zero through ``scalar.zero_test``.
The package source is scanned for the names and imports, not imported.
"""

import ast
import os
import re
import sys

import torsioncert

PACKAGE = os.path.dirname(torsioncert.__file__)
OWNERS = {"linalg.py"}
PRIVATE = {"_parts", "_denom", "_entries", "_new", "_finish",
           "_from_entries", "_materialize", "_sym_rows", "_binomial_powers",
           "_sym_pairs", "_echelon"}


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


def test_only_scalar_reads_the_zero_tolerance():
    found = []
    for name in sorted(f for f in os.listdir(PACKAGE)
                       if f.endswith(".py") and f != "scalar.py"):
        with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        found += [(name, line, ident) for ident, line in _names(tree)
                  if ident in ("zero_tolerance", "_tolerance")]
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


# bottom up, as the package docstring lists them
LAYERS = ("errors", "seeds", "scalar", "freegroup", "linalg", "polynomial",
          "representation", "twisted", "suturedcert", "charvar", "cli")


def _package_imports(tree):
    """The package modules a module imports, relatively or absolutely."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            dotted = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            dotted = [base + "." + alias.name for alias in node.names] \
                if base.strip(".") in ("", "torsioncert") else [base]
        else:
            continue
        for name in dotted:
            if name.startswith("torsioncert."):
                name = "." + name[len("torsioncert."):]
            if name.startswith("."):
                yield name.lstrip(".").partition(".")[0], node.lineno


def test_each_module_imports_only_the_layers_below_it():
    modules = sorted(f[:-3] for f in os.listdir(PACKAGE)
                     if f.endswith(".py") and f != "__init__.py")
    assert sorted(LAYERS) == modules
    found = []
    for rank, name in enumerate(LAYERS):
        with open(os.path.join(PACKAGE, name + ".py"), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        found += [(name, line, module)
                  for module, line in _package_imports(tree)
                  if module not in LAYERS[:rank]]
    assert found == []


def test_the_package_docstring_lists_the_layers_in_order():
    doc = torsioncert.__doc__.partition("bottom up")[2]
    places = [re.search(r"\b%s\b" % name, doc).start() for name in LAYERS]
    assert places == sorted(places)
