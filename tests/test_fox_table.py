"""Byte-for-byte guard on the ``fox`` command over a table of words.

Each word is differentiated by each generator listed with it, in human and
in ``--structured`` mode; the exit code and stdout must equal the recorded
fixture.  The table covers the identity, single letters, a word that
cancels, the two-bridge relators of the trefoil and of K(11/3), a generator
that does not occur in the word, and a word over three letters.

To re-record after a deliberate output change::

    PYTHONPATH=src python tests/test_fox_table.py
"""

import contextlib
import io
import json
import os

import pytest

from torsioncert import cli

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "fox_table.json")

WORDS = [
    ("1", "xy"),
    ("x", "xy"),
    ("X", "xy"),
    ("xX", "xy"),
    ("xyX", "xy"),
    ("yxyXY", "xy"),
    ("abaBAB", "ab"),
    # the relator of the two-bridge knot K(11/3), 22 letters
    ("ababABABabaBABAbabaBAB", "ab"),
    ("xyz", "w"),
    ("xyzXzYZyx", "xyz"),
]

ARGVS = [mode + ["fox", word, gen]
         for word, gens in WORDS for gen in gens
         for mode in ([], ["--structured"])]


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return {"argv": argv, "exit": code, "stdout": out.getvalue()}


def _recorded():
    with open(FIXTURE, encoding="utf-8") as fh:
        return {tuple(r["argv"]): r for r in json.load(fh)}


@pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
def test_fox_output_matches_fixture(argv):
    assert run(argv) == _recorded()[tuple(argv)]


if __name__ == "__main__":
    with open(FIXTURE, "w", encoding="utf-8") as fh:
        json.dump([run(a) for a in ARGVS], fh, indent=1)
        fh.write("\n")
