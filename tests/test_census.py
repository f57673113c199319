"""Two-bridge census: the hyperbolic torsion polynomial detects the genus
and fibredness at every parabolic root.

For every two-bridge knot K(p/q) with odd q and p <= 21, and at every
irreducible root y of its Riley polynomial, the torsion T of the parabolic
representation a -> ((1,1),(0,1)), b -> ((1,0),(y,1)) must have

* deg T = 4g - 2, where g is half the span of the Alexander polynomial
  Delta (two-bridge knots are alternating, so their genus is half the span:
  Crowell 1959, Murasugi 1958);
* |leading coefficient of T| = 1 exactly when Delta is monic, which for an
  alternating knot means fibred (Murasugi 1963).

Delta comes from Hartley's formula, computed here, so the check never
reads a genus the package was given.  The roots are found once per knot.
"""

import math

import pytest

from torsioncert.freegroup import Alphabet, Word
from torsioncert.linalg import Matrix
from torsioncert.representation import Representation, parabolic_roots
from torsioncert.twisted import Presentation, wada_torsion

from helpers import two_bridge_relator

AB = Alphabet("a b")
CENSUS = [(p, q) for p in range(3, 22, 2)
          for q in range(1, p, 2) if math.gcd(p, q) == 1]


def hartley_alexander(p, q):
    """Delta of K(p/q) as {exponent: coefficient}: the sum over i < p of
    (-1)^i t^(e_1 + ... + e_i), with e_j = (-1)^floor(j q / p)."""
    out = {}
    exponent = 0
    for i in range(p):
        if i:
            exponent += -1 if (i * q // p) % 2 else 1
        out[exponent] = out.get(exponent, 0) + (-1) ** i
    return {e: c for e, c in out.items() if c}


def parabolic_rep(y):
    return Representation(AB, [Matrix([[1 + 0j, 1 + 0j], [0j, 1 + 0j]]),
                               Matrix([[1 + 0j, 0j], [y, 1 + 0j]])],
                          sl_flag=True)


def leading(p):
    return p.coeffs[max(p.coeffs)] if p.coeffs else 0


@pytest.mark.parametrize("p,q", CENSUS)
def test_torsion_detects_genus_and_fibredness(p, q):
    alex = hartley_alexander(p, q)
    genus = (max(alex) - min(alex)) // 2
    monic = abs(alex[max(alex)]) == 1
    pres = Presentation(AB, [Word(AB, two_bridge_relator(p, q))])
    roots = [y for y in parabolic_roots(pres) if abs(y) > 1e-8]
    assert roots
    for y in roots:
        result = wada_torsion(pres, parabolic_rep(y))
        assert result.degree == 4 * genus - 2, y
        lead = abs(leading(result.numerator) / leading(result.denominator))
        assert (abs(lead - 1) < 1e-6) == monic, (y, lead)
