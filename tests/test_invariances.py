"""Exact certificates under exact symmetries.

Each symmetry here acts on the representation or on the surface words by
an exact identity, so ``certify``'s exact determinant must move by it to
the bit:

* conjugation rho -> g rho g^-1 with g in SL2(Z) conjugates every Fox block
  of a symmetric power by Sym^N g, so det m is unchanged;
* the other branch u -> 1/u of ``charvar.trace_lift`` has the same
  character, and is conjugate to the first for an irreducible one (det m
  unchanged);
* the dual rho -> (rho^-1)^T equals J rho J^-1 on SL2, a conjugation;
* Galois conjugation sqrt d -> -sqrt d on a Q(sqrt d) lift conjugates
  det m;
* inverting one surface word w multiplies its block row by -rho(w)^-1,
  since d(w^-1)/dx = -w^-1 dw/dx, so det m gains the factor
  det(-rho(w)^-1).

The symmetric powers run the duality inverses of ``SymPowerRep`` and the
Fox matrices the sweep without identity factors, so both rules meet every
symmetry.  The inputs are seeded: integer, rational and Q(sqrt d) lifts
and the bundled ``schottky.rep``, at N = 2..10, on the pants data and on
random pairs of surface words.
"""

from fractions import Fraction
from pathlib import Path

import pytest

from torsioncert.charvar import Character, trace_lift
from torsioncert.freegroup import Alphabet, Word
from torsioncert.linalg import Matrix
from torsioncert.representation import (Representation, SymPowerRep,
                                        rep_from_text)
from torsioncert.seeds import rng_for
from torsioncert.suturedcert import (SuturedHandlebodyData, certify,
                                     pants_example)

from helpers import (conjugate, conjugated, random_fraction, random_sl2,
                     random_word)

XY = Alphabet("x y")
DATA = Path(__file__).resolve().parents[1] / "src" / "torsioncert" / "data"
KINDS = ("integer", "rational", "quadext", "rep_file")
INPUTS_PER_KIND = 130


def base_of_kind(rng, kind):
    """A seeded exact SL2 base: a lift whose entries are integers,
    rationals or in Q(sqrt d), or the bundled representation."""
    if kind == "rep_file":
        return rep_from_text((DATA / "schottky.rep").read_text())
    if kind == "integer":
        c = Character(rng.randint(-4, 4), rng.randint(-4, 4),
                      rng.choice((-2, 2)))
    elif kind == "rational":
        a = random_fraction(rng, 5, 4) or Fraction(3)
        c = Character(random_fraction(rng, 6, 3), random_fraction(rng, 6, 3),
                      a + 1 / a)
    else:
        c = Character(rng.randint(-4, 4), rng.randint(-4, 4),
                      rng.choice((-7, -5, -3, 3, 5, 6, 7)))
    base = trace_lift(c, warn=False)
    assert base.scalar_kind == ("quadext" if kind == "quadext"
                                else "rational")
    return base


def surface_data(rng):
    """The pants data, or two random nonempty surface words."""
    if rng.random() < 0.4:
        return pants_example()
    words = []
    while len(words) < 2:
        w = random_word(rng, XY, 5)
        if w.letters:
            words.append(w)
    return SuturedHandlebodyData(XY, words)


def power(base, N):
    return base if N == 2 else SymPowerRep(base, N)


def det_of(data, base, N):
    return certify(data, power(base, N)).determinant


def other_branch(base):
    """The lift with u and 1/u swapped: y -> [[ybar, -1/u], [u, 0]]."""
    ax, ay = base.images
    (y, minus_u), (uin, _) = ay.entries
    return Representation(XY, [ax, Matrix([[y, -uin], [-minus_u, 0]])],
                          sl_flag=True)


def dual(base):
    return Representation(XY, [base.image_inverse(i).transpose()
                               for i in range(2)], sl_flag=True)


def galois(base):
    return Representation(XY, [Matrix([[conjugate(x) for x in r]
                                       for r in m.entries])
                               for m in base.images],
                          sl_flag=True)


def inputs(kind):
    rng = rng_for(97, KINDS.index(kind))
    for _ in range(INPUTS_PER_KIND):
        yield (base_of_kind(rng, kind), surface_data(rng), rng.randint(2, 10),
               random_sl2(rng, 2, 3), rng.randrange(2))


@pytest.mark.parametrize("kind", KINDS)
def test_exact_symmetries_move_the_determinant_by_their_identities(kind):
    nonzero = 0
    for base, data, N, g, i in inputs(kind):
        d = det_of(data, base, N)
        nonzero += d != 0
        where = (kind, base, data, N)
        assert det_of(data, conjugated(base, g), N) == d, where + (g,)
        assert det_of(data, dual(base), N) == d, where
        if kind in ("rational", "quadext"):
            assert det_of(data, other_branch(base), N) == d, where
        if kind == "quadext":
            assert det_of(data, galois(base), N) == conjugate(d), where
        w = data.images[i]
        flipped = list(data.images)
        flipped[i] = w.inverse()
        rep = power(base, N)
        factor = (-rep.eval_word(w.inverse())).det()
        assert factor in (1, -1)
        assert certify(SuturedHandlebodyData(XY, flipped), rep).determinant \
            == factor * d, where + (i,)
    assert nonzero >= INPUTS_PER_KIND // 2
