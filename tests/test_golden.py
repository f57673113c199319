"""Byte-for-byte guard on the ``--structured`` output of the CLI.

Each argv in ``ARGVS`` runs in-process through ``cli.main`` on the bundled
data files; its exit code and stdout must equal the recorded fixture.  The
list leaves out inputs on which float certificates are unreliable (large
symmetric powers), so that the fixture records only trustworthy output.

To re-record after a deliberate output change::

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import os

import pytest

from torsioncert import cli

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures",
                       "golden_structured.json")

ARGVS = [
    ["fox", "yxyXY", "y"],
    ["certify", "pants.sut", "--char", "(4, 4, 5)"],
    ["certify", "pants.sut", "--char", "(4, 4, 5)", "--oracle"],
    ["certify", "pants.sut", "--char", "(4, 4, 5)", "--sym-power", "3"],
    ["certify", "pants.sut", "--char", "(4, 4, 5)", "--sym-power", "4"],
    ["certify", "pants.sut", "--char", "(1.5+0.5i, 2.0, 3.25-1i)"],
    ["certify", "pants.sut", "--rep", "schottky.rep", "--oracle"],
    ["torsion", "trefoil.pres", "--trivial-rep"],
    ["torsion", "trefoil.pres", "--trivial-rep2"],
    ["torsion", "trefoil.pres", "--parabolic", "--genus-check"],
    ["torsion", "fig8.pres", "--trivial-rep"],
    ["torsion", "fig8.pres", "--trivial-rep2"],
    ["torsion", "fig8.pres", "--parabolic", "--genus-check"],
    ["locus", "--N", "2"],
    ["locus", "--N", "3", "--samples", "5"],
    ["locus", "--N", "6", "--scan", "--samples", "5"],
    ["charlift", "(4, 4, 5)"],
    ["validate"],
    ["certify", "pants.sut", "--char", "(1, 1, 1)", "--sym-power", "5"],
    ["certify", "pants.sut", "--char", "(1, 1, 1)", "--oracle"],
    ["certify", "pants.sut", "--char", "(3/2, 1, 5/2)", "--sym-power", "4",
     "--oracle"],
    ["charlift", "(1, 1, 1)", "--sym-power", "3"],
    ["certify", "pants.sut", "--char", "(4, 4, 5)", "--sym-power", "6"],
    ["charlift", "(3.0, 1.0, 2.0)"],
    ["charlift", "(1.5+0.5i, 2.0, 3.25-1i)", "--sym-power", "3"],
    ["certify", "pants.sut", "--char", "(3.0, 1.0, 2.0)"],
    ["certify", "pants.sut", "--char", "(0.25, -1.75, 2.5)", "--sym-power",
     "3"],
    ["locus", "--N", "4", "--samples", "10"],
    ["certify", "pants.sut", "--char", "(1/2, 1/3, 5/2)", "--sym-power", "7",
     "--oracle"],
    ["certify", "pants.sut", "--char", "(4, 4, 5)", "--sym-power", "10",
     "--oracle"],
    ["certify", "pants.sut", "--char", "(-7, 2, 17/4)", "--oracle"],
    ["certify", "pants.sut", "--char", "(2/3, -5/4, 7/2)", "--sym-power",
     "5"],
    ["certify", "pants.sut", "--char", "(1.5+0.5i, 2.0, 3.25-1i)",
     "--oracle"],
    ["certify", "pants.sut", "--char", "(1.5+0.5i, 2.0, 3.25-1i)",
     "--sym-power", "3", "--oracle"],
    ["certify", "pants.sut", "--char", "(3.0, 1.0, 2.0)", "--oracle"],
    ["certify", "pants.sut", "--char", "(5, 1, 21/5)", "--sym-power", "12"],
    ["certify", "pants.sut", "--char", "(3/2, -4/3, 7/2)", "--sym-power",
     "8", "--oracle"],
    ["charlift", "(2/3, -5/4, 7/2)", "--sym-power", "4"],
    ["certify", "pants.sut", "--rep", "schottky.rep", "--sym-power", "4",
     "--oracle"],
]


def run_structured(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["--structured"] + argv)
    return {"argv": argv, "exit": code, "stdout": out.getvalue()}


def _recorded():
    with open(FIXTURE, encoding="utf-8") as fh:
        return {tuple(r["argv"]): r for r in json.load(fh)}


@pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
def test_structured_output_matches_fixture(argv):
    assert run_structured(argv) == _recorded()[tuple(argv)]


if __name__ == "__main__":
    with open(FIXTURE, "w", encoding="utf-8") as fh:
        json.dump([run_structured(a) for a in ARGVS], fh, indent=1)
        fh.write("\n")
