"""The ``>>>`` examples in the package's docstrings run and hold."""

import doctest
import importlib
import pkgutil

import torsioncert

MODULES = sorted(info.name for info in
                 pkgutil.iter_modules(torsioncert.__path__, "torsioncert."))


def test_every_docstring_example_passes():
    attempted = 0
    for name in MODULES:
        result = doctest.testmod(importlib.import_module(name))
        assert result.failed == 0, name
        attempted += result.attempted
    # freegroup has 13 examples and polynomial 4
    assert attempted >= 16
