"""The exact kernel on integer numerators against brute-force oracles.

Exact Fox blocks, determinants and ranks run on integer numerators: letter
images and matrix rows are scaled by the lcm of their denominators, and
elimination runs over Z or over Z[sqrt d].  The representations here are
GL, not SL, and each letter has its own denominator, so inverse images and
products bring new ones.  The oracles are term-by-term evaluation of
``helpers.fox_terms``, the permutation expansion and minor enumeration.
"""

from fractions import Fraction

import pytest

from torsioncert import linalg as linalg_module
from torsioncert.freegroup import Alphabet, GroupRingElem, Word
from torsioncert.linalg import Matrix, det, rank
from torsioncert.representation import Representation, SymPowerRep
from torsioncert.scalar import QuadExt
from torsioncert.seeds import rng_for
from torsioncert.suturedcert import SuturedHandlebodyData, certify, extend_rep

from helpers import fox_terms, minor_rank, perm_det, random_word

XY = Alphabet("x y")
XYZ = Alphabet("x y z")

# one denominator per letter, so products and inverses mix them
LETTER_DENS = (2, 3, 5)
DISCRIMINANTS = (2, -1, 5)


def rational_entry(rng, den):
    return Fraction(rng.randint(-7, 7), den)


def quad_entry(d):
    # half the entries rational, so that rational pivots of either sign
    # occur among the irrational ones
    def draw(rng, den):
        b = rng.randint(-3, 3) if rng.random() < 0.5 else 0
        return QuadExt(Fraction(rng.randint(-4, 4), den), Fraction(b, den), d)
    return draw


def gl_rep(rng, alphabet, n, entry):
    """A GL representation whose k-th image has entries over LETTER_DENS[k]
    and a determinant other than +-1."""
    images = []
    for den in LETTER_DENS[:len(alphabet)]:
        while True:
            rows = [[entry(rng, den) for _ in range(n)] for _ in range(n)]
            value = perm_det(rows)
            if value != 0 and value != 1 and value != -1:
                break
        images.append(Matrix(rows))
    return Representation(alphabet, images)


def exact_reps(rng):
    reps = [gl_rep(rng, XY, 2, rational_entry),
            gl_rep(rng, XYZ, 3, rational_entry)]
    reps += [gl_rep(rng, XY, 2, quad_entry(d)) for d in DISCRIMINANTS]
    reps.append(gl_rep(rng, XYZ, 2, quad_entry(5)))
    reps += [SymPowerRep(reps[0], 3), SymPowerRep(reps[2], 4),
             SymPowerRep(reps[4], 3)]
    return reps


def words(rng, alphabet):
    k = len(alphabet)
    out = [alphabet.identity(), Word(alphabet, (-1,)),
           Word(alphabet, (-k, -1, -k)), Word(alphabet, (1, 2, -1, -2))]
    out += [random_word(rng, alphabet, 7) for _ in range(5)]
    return out


def test_fox_blocks_equal_term_by_term_evaluation():
    for case in range(3):
        rng = rng_for(73, case)
        for rep in exact_reps(rng):
            for w in words(rng, rep.alphabet):
                blocks = rep.fox_blocks(w)
                assert len(blocks) == len(rep.alphabet)
                for j, block in enumerate(blocks):
                    terms = fox_terms(w, j)
                    oracle = rep.eval_ring_elem(
                        GroupRingElem(rep.alphabet, terms))
                    assert block.scalar_kind == rep.scalar_kind
                    assert block == oracle, (rep, w, j)
                    if any(v.letters for v in terms):
                        assert list(map(repr, sum(block.entries, ()))) == \
                            list(map(repr, sum(oracle.entries, ())))


def row_scaled(rng, m, draw):
    """m with each row multiplied by its own nonzero scalar."""
    factors = []
    for _ in range(m.rows):
        f = 0
        while f == 0:
            f = draw(rng, rng.choice((1, 2, 3, 4, 6, 7)))
        factors.append(f)
    return Matrix([[f * e for e in row] for f, row in zip(factors, m.entries)])


def low_rank(rng, rows, cols, inner, draw):
    a = [[draw(rng, 1) for _ in range(inner)] for _ in range(rows)]
    b = [[draw(rng, 1) for _ in range(cols)] for _ in range(inner)]
    return Matrix([[sum((a[i][t] * b[t][j] for t in range(1, inner)),
                        a[i][0] * b[0][j])
                    for j in range(cols)] for i in range(rows)])


@pytest.mark.parametrize("kind", ["integer", "rational", "quadext"])
def test_det_and_rank_on_row_scaled_matrices(kind):
    rng = rng_for(73, 10 + ["integer", "rational", "quadext"].index(kind))
    draw = {"integer": lambda g, den: g.randint(-5, 5),
            "rational": rational_entry,
            "quadext": quad_entry(rng.choice(DISCRIMINANTS))}[kind]
    for n in range(1, 8):
        for trial in range(4 if n < 6 else 2):
            m = Matrix([[draw(rng, rng.choice(LETTER_DENS))
                         for _ in range(n)] for _ in range(n)])
            if trial % 2 and n > 1:
                m = low_rank(rng, n, n, rng.randint(1, n - 1), draw)
            m = row_scaled(rng, m, draw)
            assert det(m) == perm_det(m.entries)
            if n <= 6 or not trial % 2:
                assert rank(m) == minor_rank(m)
        if n < 6:
            r = low_rank(rng, n, n + 2, rng.randint(1, n), draw)
            r = row_scaled(rng, r, draw)
            assert rank(r) == minor_rank(r) == rank(r.transpose())


def test_determinant_keeps_its_kind():
    # a Q(sqrt d) determinant stays a QuadExt, also when it is rational;
    # a whole rational one is an int
    m = Matrix([[QuadExt(1, 1, 5), QuadExt(2, 0, 5)],
                [QuadExt(0, 1, 5), QuadExt(Fraction(1, 2), 0, 5)]])
    value = det(m)
    assert isinstance(value, QuadExt) and value == perm_det(m.entries)
    assert type(det(Matrix([[Fraction(1, 2), 3], [1, 8]]))) is int
    assert det(Matrix([[Fraction(1, 2), 3], [1, 1]])) == Fraction(-5, 2)


@pytest.mark.parametrize("cancelling, h1_per_n", [(("xX", "yY"), 2),
                                                  (("xX", "yxY"), 1)])
def test_certificate_with_cancelling_surface_words(cancelling, h1_per_n):
    # a surface word that reduces to 1 kills its Fox rows; the oracle still
    # runs in the representation's own kind and counts the lost rank
    rng = rng_for(73, 20)
    data = SuturedHandlebodyData(XY, [Word.from_string(XY, w)
                                      for w in cancelling])
    for rep in exact_reps(rng):
        if rep.alphabet != XY:
            continue
        cert = certify(data, rep, with_oracle=True)
        assert cert.determinant == 0 and not cert.is_product
        assert cert.oracle_h1 == h1_per_n * rep.n


def test_extended_images_come_with_their_inverses():
    rng = rng_for(73, 30)
    for rep in exact_reps(rng):
        if rep.alphabet != XY:
            continue
        data = SuturedHandlebodyData(XY, [random_word(rng, XY, 5),
                                          Word.from_string(XY, "xX")])
        big = extend_rep(data, rep)
        eye = Matrix.identity(rep.n)
        for i, m in enumerate(big.images):
            assert m.scalar_kind == rep.scalar_kind
            assert big.image_inverse(i).scalar_kind == rep.scalar_kind
            assert m * big.image_inverse(i) == eye


def test_one_determinant_and_no_inversion_per_certificate(monkeypatch):
    # the images of symmetric powers and of the enlarged alphabet follow
    # from checked ones, so only the certificate takes a determinant
    rng = rng_for(73, 40)
    bases = [rep for rep in exact_reps(rng)[:6] if rep.alphabet == XY]
    for base in bases:
        for i in range(2):
            base.image_inverse(i)
    calls = {"det": 0, "inverse": 0}
    real_det, real_inverse = linalg_module._bareiss_det, linalg_module.inverse

    def counted(name, fn):
        def wrapped(m):
            calls[name] += 1
            return fn(m)
        return wrapped

    monkeypatch.setattr(linalg_module, "_bareiss_det",
                        counted("det", real_det))
    monkeypatch.setattr(linalg_module, "inverse",
                        counted("inverse", real_inverse))
    data = SuturedHandlebodyData(XY, [Word.from_string(XY, "xyX"),
                                      Word.from_string(XY, "yxxY")])
    runs = 0
    for base in bases:
        for N in (2, 3, 5):
            rep = base if N == 2 else SymPowerRep(base, N)
            certify(data, rep, with_oracle=True)
            runs += 1
    assert calls == {"det": runs, "inverse": 0}
