"""Every name the benchmark's span tracer wraps must exist in the package.

``bench/spans.py`` wraps functions and methods by name and raises on a
missing one, so a rename in the package would only surface in a traced
benchmark run.  The table is read from the source file, not imported, so
the test leaves ``bench/`` untouched.
"""

import ast
import importlib
import os

SPANS_FILE = os.path.join(os.path.dirname(__file__), os.pardir, "bench",
                          "spans.py")


def _tables():
    with open(SPANS_FILE, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    out = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("SPANS", "CONSTRUCTIONS"):
                out[name] = ast.literal_eval(node.value)
    return out


def _module(name):
    return importlib.import_module("torsioncert." + name)


def test_every_span_resolves():
    spans = _tables()["SPANS"]
    assert spans
    for mod, attr, _ in spans:
        owner = _module(mod)
        if "." in attr:
            # methods are wrapped on the class that defines them
            cls_name, meth = attr.split(".")
            owner, attr = getattr(owner, cls_name), meth
            assert attr in vars(owner), (mod, cls_name, attr)
        assert callable(getattr(owner, attr)), (mod, attr)


def test_every_counted_construction_resolves():
    constructions = _tables()["CONSTRUCTIONS"]
    assert constructions
    for mod, cls_name, _ in constructions:
        assert "__init__" in vars(getattr(_module(mod), cls_name))
