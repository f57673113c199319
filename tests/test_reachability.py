"""The committed reachability census stays in step with the package.

``tests/reachability_census.py`` profiles the runs that define what the
package is for and writes ``fixtures/reachability.json``.  These tests
read the package source only, with no profiling: a function added,
removed or renamed since the last census run fails them until the census
is run again.
"""

import json

import pytest

from reachability_census import FIXTURE, keep_rule, package_functions


@pytest.fixture(scope="module")
def status():
    with open(FIXTURE, encoding="utf-8") as fh:
        return json.load(fh)


def test_the_census_names_every_package_function_and_no_other(status):
    names = {f[0] for f in package_functions()}
    assert sorted(names - set(status)) == []
    assert sorted(set(status) - names) == []


def test_every_unreached_function_is_kept_by_its_rule(status):
    assert [(name, rule) for name, rule in status.items()
            if rule != "reached" and (rule is None
                                      or rule != keep_rule(name))] == []
