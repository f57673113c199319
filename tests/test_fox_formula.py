"""Fox's fundamental formula on numerators against the route it replaced.

``linalg.fox_formula_row`` compares m . D1 with W - 1 row by row, D1 and
W - 1 built by ``linalg.less_one`` and m . D1 one ``running_mul``: on
numerators for exact kinds, and on a complex matrix's own rows against a
tolerance read from the rows of [m | W - 1] and [D1; -1].  The reference,
``helpers.fox_formula_reference``, assembles those two matrices and
multiplies them as one ``running_mul`` (m . D1 without words).  Both must
name the same first row, or None, on the Fox matrices of seeded sutured
data and on the same matrices with a unit added to one entry, and the
oracle's ``ChainCondition`` must name the relator of that row.

The surface words' images come from ``eval_word``, not from the Fox sweep
that builds m, so a defect in the sweep fails the check.
"""

from fractions import Fraction

import pytest

from torsioncert import linalg as linalg_module
from torsioncert import representation as representation_module
from torsioncert.charvar import Character, lift
from torsioncert.errors import (ChainCondition, DimensionMismatch,
                               MixedScalarKind)
from torsioncert.freegroup import Alphabet
from torsioncert.linalg import Matrix, fox_formula_row, less_one
from torsioncert.representation import Representation, SymPowerRep
from torsioncert.seeds import rng_for
from torsioncert.suturedcert import (SuturedHandlebodyData, _relative_h1,
                                     certify, fox_matrix, oracle_dims,
                                     pants_example)

from helpers import (float_bits, fox_formula_reference, lift_of_kind,
                     random_word)

XY = Alphabet("x y")
XYZ = Alphabet("x y z")
KINDS = ("integer", "rational", "quadext", "complex")


def rep_of(rng, kind, alphabet, N):
    """A seeded lift of one kind, on (a, b, ab) over a rank-3 alphabet,
    raised to Sym^N."""
    rep = lift_of_kind(rng, kind)
    if len(alphabet) == 3:
        a, b = rep.images
        rep = Representation(alphabet, [a, b, a * b])
    return rep if N == 2 else SymPowerRep(rep, N)


def with_entry_moved(rng, m, step):
    """m with ``step`` added to one entry at a random position."""
    rows = [list(r) for r in m.entries]
    i, j = rng.randrange(m.rows), rng.randrange(m.cols)
    rows[i][j] = rows[i][j] + step
    return Matrix(rows)


@pytest.mark.parametrize("kind", KINDS)
def test_the_check_names_the_first_row_of_the_former_route(kind):
    # 150 inputs of each kind, each honest and with a unit added to one
    # entry; complex ones also with 10^-k added, k in 0..12, so that the
    # moved entry's residual falls on both sides of the tolerance
    rng = rng_for(97, KINDS.index(kind))
    steps = (0, 1) + (("small",) if kind == "complex" else ())
    inputs = 0
    failed = dict.fromkeys(steps, 0)
    for alphabet in (XY, XYZ):
        for N in (2, 3, 4):
            for _ in range(5):
                rep = rep_of(rng, kind, alphabet, N)
                for _ in range(5):
                    data = SuturedHandlebodyData(
                        alphabet, [random_word(rng, alphabet, 7)
                                   for _ in alphabet.names])
                    honest = fox_matrix(data, rep)
                    words = [rep.eval_word(w) for w in data.images]
                    d1, w1 = less_one(rep.images), less_one(words)
                    for step in steps:
                        m = honest if step == 0 else with_entry_moved(
                            rng, honest,
                            10.0 ** -rng.randint(0, 12) if step == "small"
                            else step)
                        want = fox_formula_reference(m, rep.images, words)
                        assert fox_formula_row(m, d1, w1) == want
                        assert fox_formula_row(m, d1) == \
                            fox_formula_reference(m, rep.images)
                        _assert_oracle_names(data, rep, m, want)
                        failed[step] += want is not None
                    inputs += 1
    assert inputs == 150
    # a unit added where D1's row is zero, or below a large tolerance,
    # keeps the formula
    assert failed[0] == 0 and failed[1] >= 130
    if kind == "complex":
        assert 20 <= failed["small"] <= 130


def test_images_near_the_identity_keep_the_norm_of_the_rows_of_minus_one():
    # with every rho(x_j) - 1 of norm below 1, the rows of -1 set the max
    # row norm of [D1; -1]; entries moved so that their residual falls
    # near the tolerance are judged as the former route judges them
    rng = rng_for(97, 9)

    def near_identity():
        return Matrix([[complex(i == j) + complex(rng.uniform(-1e-3, 1e-3),
                                                  rng.uniform(-1e-3, 1e-3))
                        for j in range(2)] for i in range(2)])

    rep = Representation(XY, [near_identity(), near_identity()])
    outcomes = {True: 0, False: 0}
    for _ in range(80):
        data = SuturedHandlebodyData(XY, [random_word(rng, XY, 5)
                                          for _ in range(2)])
        m = with_entry_moved(rng, fox_matrix(data, rep),
                             10.0 ** rng.uniform(-7, -5))
        words = [rep.eval_word(w) for w in data.images]
        want = fox_formula_reference(m, rep.images, words)
        assert fox_formula_row(m, less_one(rep.images),
                               less_one(words)) == want
        outcomes[want is None] += 1
    assert min(outcomes.values()) >= 10


@pytest.mark.parametrize("kind", KINDS)
def test_blocks_of_the_wrong_shape_are_a_dimension_mismatch(kind):
    # pants: m is 4 x 4 in 2 x 2 blocks, D1 4 x 2 and W - 1 4 x 2.  A D1
    # or a W - 1 with a block too few or too many raises before the
    # product, which would otherwise zip rows of unequal length
    rep = lift_of_kind(rng_for(97, 11), kind)
    data = pants_example()
    m = fox_matrix(data, rep)
    words = [rep.eval_word(w) for w in data.images]
    d1, w1 = less_one(rep.images), less_one(words)
    assert fox_formula_row(m, d1, w1) is None
    for bad_d1, bad_w1 in ((less_one(rep.images[:1]), w1),
                           (less_one(rep.images * 2), None),
                           (d1, less_one(words[:1])),
                           (d1, less_one(words * 2))):
        with pytest.raises(DimensionMismatch,
                           match="Fox formula on a 4x4 matrix"):
            fox_formula_row(m, bad_d1, bad_w1)


@pytest.mark.parametrize("kind, other", [("integer", "complex"),
                                         ("rational", "quadext"),
                                         ("quadext", "complex"),
                                         ("complex", "rational")])
def test_operands_over_two_fields_are_mixed_scalar_kinds(kind, other):
    # a D1 or a W - 1 over another field than m's, of the right shape
    data = pants_example()
    rep = lift_of_kind(rng_for(97, 12), kind)
    alien = lift_of_kind(rng_for(97, 13), other)
    assert alien.field != rep.field
    m = fox_matrix(data, rep)
    d1 = less_one(rep.images)
    w1 = less_one([rep.eval_word(w) for w in data.images])
    alien_w1 = less_one([alien.eval_word(w) for w in data.images])
    for bad_d1, bad_w1 in ((less_one(alien.images), None),
                           (less_one(alien.images), w1),
                           (d1, alien_w1)):
        with pytest.raises(MixedScalarKind,
                           match="Fox formula over two fields"):
            fox_formula_row(m, bad_d1, bad_w1)


@pytest.mark.parametrize("kind", KINDS)
def test_the_oracle_builds_d1_and_w1_once_each(kind, monkeypatch):
    # one certify with the oracle, and one oracle_dims, build D1 from the
    # generator images and W - 1 from the surface words' images with one
    # less_one each, and subtract no matrix; oracle_dims ranks the same two
    data = pants_example()
    rep = lift_of_kind(rng_for(97, 11), kind)
    words = tuple(rep.eval_word(w) for w in data.images)
    real_less_one, real_sub = linalg_module.less_one, Matrix.__sub__
    built, subtracted = [], []

    def counted_less_one(mats):
        built.append(tuple(mats))
        return real_less_one(mats)

    def counted_sub(a, b):
        subtracted.append((a, b))
        return real_sub(a, b)

    monkeypatch.setattr(linalg_module, "less_one", counted_less_one)
    monkeypatch.setattr(Matrix, "__sub__", counted_sub)
    for run in (lambda: certify(data, rep, with_oracle=True),
                lambda: oracle_dims(data, rep)):
        built.clear()
        run()
        assert built == [words, rep.images]
        assert subtracted == []


def test_complex_less_one_has_the_bits_of_x_minus_the_identity():
    # seeded complex blocks of sizes 1 to 4 whose entries include zeros of
    # both signs and whole numbers: the numerator path over den 1 takes 1
    # from each diagonal entry and leaves the others, bit for bit
    # x - (i == j) in float hex
    rng = rng_for(97, 14)
    parts = (0.0, -0.0, 1.0, -1.0, 0.5, -2.0)
    for _ in range(200):
        n = rng.randint(1, 4)
        mats = [Matrix([[complex(*(rng.choice(parts) if rng.random() < 0.7
                                   else rng.uniform(-3, 3)
                                   for _ in range(2)))
                         for _ in range(n)] for _ in range(n)])
                for _ in range(rng.randint(1, 3))]
        got = less_one(mats)
        want = [[x - (i == j) for j, x in enumerate(r)]
                for b in mats for i, r in enumerate(b.entries)]
        assert got.field == "complex"
        assert float_bits(got) == [[(x.real.hex(), x.imag.hex()) for x in r]
                                   for r in want]


def _assert_oracle_names(data, rep, m, row):
    """The oracle raises on the relator of ``row``, or passes without
    one; the rank does not enter the check, so a stand-in is passed."""
    if row is None:
        _relative_h1(data, rep, m, rank=0)
        return
    with pytest.raises(ChainCondition) as err:
        _relative_h1(data, rep, m, rank=0)
    assert str(err.value) == ("d2 . d1 != 0: representation does not "
                              "kill relator %d" % (row // rep.n))


def _sweep_skipping_a_product(w, image, one, mul):
    """``freegroup.fox_sweep`` with the product after the second letter
    left out, so every later prefix misses that letter."""
    prefix = one
    last = len(w.letters) - 1
    for k, l in enumerate(w.letters):
        if l > 0:
            yield l - 1, 1, k, prefix
            if k == last:
                return
        if k != 1:
            prefix = mul(prefix, image(l)) if k else image(l)
        if l < 0:
            yield -l - 1, -1, k + 1, prefix


@pytest.mark.parametrize("char", [(3, 1, 2),
                                  (Fraction(3, 2), 1, Fraction(5, 2)),
                                  (4, 4, 5)],
                         ids=["integer", "rational", "quadext"])
def test_a_defective_sweep_fails_the_oracles_check(char, monkeypatch):
    # the surface word yxyXY has a wrong Fox row under the defect, and
    # eval_word, which does not sweep, still gives its true image
    rep = lift(Character(*char), warn=False)
    assert certify(pants_example(), rep, with_oracle=True).oracle_h1 \
        is not None
    monkeypatch.setattr(representation_module, "fox_sweep",
                        _sweep_skipping_a_product)
    certify(pants_example(), rep)
    with pytest.raises(ChainCondition, match="relator 1$"):
        certify(pants_example(), rep, with_oracle=True)
