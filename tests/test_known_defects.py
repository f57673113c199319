"""Known float defects, pinned byte for byte until they are mended.

Each argv in ``DEFECTS`` runs in-process through ``cli.main`` on the
bundled data files; its exit code, stdout and stderr must equal the
recorded fixture.  The inputs are float defects (ROADMAP items 4 and 12):
a float determinant called zero where the exact twin is a product, images
of determinant 1 called singular, and a float oracle that disagrees with
its own determinant.  The oracle's is still wrong.  The others are mended,
and their records pin the mended output: ``certify`` decides a float zero
or a singular image on real literals again on their exact twin, and a
symmetric power's images are checked on its base alone.  A change that
mends one re-records the fixture on purpose, and says so; any other change
to these bytes is a regression in the float paths.

To re-record after a deliberate output change::

    PYTHONPATH=src python tests/test_known_defects.py
"""

import contextlib
import io
import json
import os

import pytest

from torsioncert import cli

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures",
                       "known_float_defects.json")

DEFECTS = [
    # mended: against a noise scale of about 4e19 the float determinant
    # -257230.99997... is called zero; the exact twin (3, 1, 2) prints
    # -257231 and a product
    ["certify", "pants.sut", "--char", "(3.0, 1.0, 2.0)", "--sym-power", "8"],
    # mended: every image has det 1, yet the tol * max_row_norm test on the
    # 20 x 20 images called x singular; the base's images pass it
    ["charlift", "(5.0, 5.0, 5.5)", "--sym-power", "20"],
    # |det| = 255.5 called zero against a scale of 2.15e13, so the float
    # oracle's rank disagrees with the determinant
    ["certify", "pants.sut", "--char", "(1.5+0.5i, 2.0, 3.25-1i)",
     "--sym-power", "4", "--oracle"],
    # mended: the singularity test calls the base image of x singular at a
    # character far from the origin; the exact twin is a product
    ["certify", "pants.sut", "--char", "(1e300, 1, 1)"],
]


def run_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return {"argv": argv, "exit": code, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


def _recorded():
    with open(FIXTURE, encoding="utf-8") as fh:
        return {tuple(r["argv"]): r for r in json.load(fh)}


@pytest.mark.parametrize("argv", DEFECTS, ids=" ".join)
def test_known_defect_output_is_unchanged(argv):
    assert run_captured(argv) == _recorded()[tuple(argv)]


def test_every_defect_is_recorded():
    assert sorted(_recorded()) == sorted(map(tuple, DEFECTS))


if __name__ == "__main__":
    with open(FIXTURE, "w", encoding="utf-8") as fh:
        json.dump([run_captured(a) for a in DEFECTS], fh, indent=1)
        fh.write("\n")
