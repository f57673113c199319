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
The symmetric powers Sym^(N-1) of the same representations, at N = 3 and
4, must meet Friedl and Kim's bound deg T <= N (2g - 1) with equality.
"""

import math

import pytest

from torsioncert.errors import TorsionCertError
from torsioncert.freegroup import Alphabet, Word
from torsioncert.linalg import Matrix
from torsioncert.representation import (Representation, SymPowerRep,
                                        parabolic_roots)
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


def test_sym_power_torsion_meets_the_friedl_kim_bound():
    # the N-dimensional representation Sym^(N-1) of the holonomy at every
    # irreducible root: deg T = N (2g - 1), Friedl and Kim's bound
    # (Topology 45, 2006) met with equality.  At N = 3 every one of the
    # 320 knot-root pairs returns and meets it.  At N = 4 every pair that
    # returns meets it, 316 with each Fox prefix taken on the rank-2 base
    # and raised to Sym^N once; the float route raises on the others,
    # which are counted apart and pinned, never passed
    degrees = {3: [], 4: []}
    raised = []
    for p, q in CENSUS:
        alex = hartley_alexander(p, q)
        genus = (max(alex) - min(alex)) // 2
        pres = Presentation(AB, [Word(AB, two_bridge_relator(p, q))])
        for y in parabolic_roots(pres):
            if abs(y) <= 1e-8:
                continue
            for N in (3, 4):
                try:
                    result = wada_torsion(
                        pres, SymPowerRep(parabolic_rep(y), N))
                except TorsionCertError as exc:
                    raised.append((p, q, N, type(exc).__name__))
                    continue
                degrees[N].append((result.degree, N * (2 * genus - 1)))
    assert len(degrees[3]) == 320
    assert all(got == want for got, want in degrees[3] + degrees[4])
    assert (len(degrees[4]), len(raised)) == (316, 4)
    assert sorted({(N, name) for *_, N, name in raised}) \
        == [(4, "OracleMismatch")]
