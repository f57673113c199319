"""Bit-for-bit guard on the parabolic root finder.

The roots that ``parabolic_roots`` returns for the bundled trefoil and
figure-eight presentations and for fourteen two-bridge knots K(p/q)
(p = 5, 7, ..., 17, the two smallest odd q prime to p) are recorded as
float hex in ``fixtures/parabolic_roots.json`` and must come back with
every bit equal.  The integer Riley polynomial behind them must equal the
gcd that ``grid_mul`` and ``mp_gcd`` give over MultiPoly on the same
knots.

To re-record after a deliberate change of the roots::

    PYTHONPATH=src python tests/test_parabolic_roots.py
"""

import json
import math
import os

import pytest

import torsioncert
from torsioncert.freegroup import Alphabet, Word
from torsioncert.polynomial import MultiPoly, grid_mul, mp_gcd
from torsioncert.representation import parabolic_roots, riley_polynomial
from torsioncert.twisted import Presentation, presentation_from_text

from helpers import two_bridge_relator

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures",
                       "parabolic_roots.json")
DATA = os.path.join(os.path.dirname(torsioncert.__file__), "data")
AB = Alphabet("a b")
TWO_BRIDGE = [(p, q) for p in range(5, 18, 2)
              for q in [q for q in range(1, p, 2) if math.gcd(p, q) == 1][:2]]


def _bundled(name):
    with open(os.path.join(DATA, name), encoding="utf-8") as fh:
        return presentation_from_text(fh.read())


def knots():
    out = {"trefoil": _bundled("trefoil.pres"), "fig8": _bundled("fig8.pres")}
    for p, q in TWO_BRIDGE:
        out["K(%d/%d)" % (p, q)] = Presentation(
            AB, [Word(AB, two_bridge_relator(p, q))])
    return out


def hex_roots(pres):
    return [[y.real.hex(), y.imag.hex()] for y in parabolic_roots(pres)]


def _recorded():
    with open(FIXTURE, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(knots()))
def test_roots_match_fixture_bit_for_bit(name):
    assert hex_roots(knots()[name]) == _recorded()[name]


def multipoly_riley(relator):
    one, zero = MultiPoly.constant(1), MultiPoly.zero()
    y = MultiPoly.variable("u")
    table = {1: [[one, one], [zero, one]], -1: [[one, -one], [zero, one]],
             2: [[one, zero], [y, one]], -2: [[one, zero], [-y, one]]}
    acc = [[one, zero], [zero, one]]
    for l in relator.letters:
        acc = grid_mul(acc, table[l])
    g = zero
    for entry in (acc[0][0] - one, acc[0][1], acc[1][0], acc[1][1] - one):
        g = mp_gcd(g, entry)
    return g


@pytest.mark.parametrize("name", sorted(knots()))
def test_integer_riley_polynomial_matches_multipoly_gcd(name):
    relator = knots()[name].relators[0]
    g = riley_polynomial(relator)
    assert MultiPoly({(0, 0, 0, i): c for i, c in enumerate(g) if c}) \
        == multipoly_riley(relator)


if __name__ == "__main__":
    with open(FIXTURE, "w", encoding="utf-8") as fh:
        json.dump({name: hex_roots(pres) for name, pres in knots().items()},
                  fh, indent=1)
        fh.write("\n")
