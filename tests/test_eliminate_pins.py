"""Printed guard on the symbolic N = 2 elimination.

``multi_str(eliminate_L2(data))`` is recorded in
``fixtures/eliminate_L2.json`` for the pants data, for 31 fixed pairs of
images of one to three letters, and for 40 seeded random pairs of the same
lengths, and must come back byte for byte.

The certificate determinant of rank-2 data, reduced modulo
u^2 - z u + 1, is invariant under u -> z - u (the lifts through u and
through 1/u are conjugate), so its u-coefficient vanishes at both roots of
the relation and hence identically.  That is checked on the same data.

To re-record after a deliberate change of the polynomials::

    PYTHONPATH=src python tests/test_eliminate_pins.py
"""

import json
import os
import random

import pytest

from torsioncert.charvar import eliminate_L2, reduce_u, sym_fox_grid
from torsioncert.freegroup import Alphabet, Word
from torsioncert.polynomial import multi_str, poly_matrix_det
from torsioncert.suturedcert import SuturedHandlebodyData

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures",
                       "eliminate_L2.json")
XY = Alphabet("x y")

# fixed image pairs of one to three letters, each a free rank-2 image
FIXED = [
    ("x", "Y"), ("yX", "Y"), ("Yxx", "x"), ("y", "yx"), ("xy", "Xy"),
    ("yXY", "yx"), ("y", "yyx"), ("XX", "Yxy"), ("yxY", "xYY"), ("X", "Y"),
    ("yX", "y"), ("XXy", "X"), ("y", "XX"), ("xy", "Yx"), ("yXy", "YX"),
    ("x", "xYX"), ("XX", "Xyx"), ("XXY", "YYY"), ("x", "Y"), ("yx", "Y"),
    ("xxy", "Y"), ("x", "XY"), ("YX", "yx"), ("Yxy", "yy"), ("X", "XYY"),
    ("xx", "xYx"), ("yxx", "yxY"), ("X", "Y"), ("YX", "y"), ("XyX", "y"),
    ("x", "YX"),
]


def _reduced_word(rng, length):
    letters = []
    while len(letters) < length:
        l = rng.choice((1, -1, 2, -2))
        if not letters or letters[-1] != -l:
            letters.append(l)
    return Word(XY, letters)


def random_pairs(count=40, seed=11):
    """Seeded pairs of reduced words of one to three letters that do not
    commute, so that their certificate determinant is not zero."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        a = _reduced_word(rng, rng.randint(1, 3))
        b = _reduced_word(rng, rng.randint(1, 3))
        if a * b != b * a:
            out.append((str(a), str(b)))
    return out


def cases():
    out = {"pants": ("x", "yxyXY")}
    for i, pair in enumerate(FIXED):
        out["fixed%02d %s/%s" % ((i,) + pair)] = pair
    for i, pair in enumerate(random_pairs()):
        out["random%02d %s/%s" % ((i,) + pair)] = pair
    return out


def _data(pair):
    return SuturedHandlebodyData(XY, [Word.from_string(XY, w) for w in pair])


def printed(pair):
    return multi_str(eliminate_L2(_data(pair)))


def _recorded():
    with open(FIXTURE, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(cases()))
def test_eliminated_polynomial_matches_fixture(name):
    assert printed(cases()[name]) == _recorded()[name]


@pytest.mark.parametrize("name", sorted(cases()))
def test_reduced_determinant_is_free_of_u(name):
    det = reduce_u(poly_matrix_det(sym_fox_grid(_data(cases()[name]))))
    assert not det.is_zero()
    assert det.degree_in("u") == 0


if __name__ == "__main__":
    table = {name: printed(pair) for name, pair in sorted(cases().items())}
    with open(FIXTURE, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
