"""The prefix sweep against term-by-term evaluation of Fox derivatives.

Every Fox derivative and Jacobian in the package comes from
``freegroup.fox_sweep``; the oracle here expands the prefix-word rule of
``helpers.fox_terms`` into group-ring terms and evaluates each term from
scratch.  Scalar blocks must agree entry for entry, floating ones down to
the sign of zero, since the sweep performs the same products and sums in
the same order.
"""

import operator
from fractions import Fraction

import pytest

from torsioncert import representation as representation_module
from torsioncert.charvar import (_SYM_ONE, _SYM_TABLE, Character, _sym_mul,
                                 lift, reduce_u, sym_fox_grid)
from torsioncert.errors import NonFinite
from torsioncert.freegroup import (Alphabet, GroupRingElem, Word,
                                  fox_derivative, fox_sweep)
from torsioncert.linalg import Matrix, running_mul
from torsioncert.polynomial import LaurentPoly, MultiPoly
from torsioncert.representation import (Representation, SymPowerRep,
                                        solve_parabolic)
from torsioncert.scalar import ComplexF, QuadExt
from torsioncert.seeds import rng_for
from torsioncert.suturedcert import SuturedHandlebodyData
from torsioncert.twisted import (AbelianizationMap, Presentation,
                                 twisted_fox_row)

from helpers import (float_bits, fox_matrix_reference, fox_terms, mat2_mul,
                     random_fraction, random_sl2, random_word, row_blocks,
                     two_bridge_relator, word_image_reference)

XY = Alphabet("x y")
XYZ = Alphabet("x y z")


def entries(m):
    return [[repr(e) for e in row] for row in m.entries]


def coefficients(grid):
    return [[repr(sorted(p.coeffs.items())) for p in row] for row in grid]


def random_invertible(rng, n, draw):
    while True:
        m = Matrix([[draw() for _ in range(n)] for _ in range(n)])
        if m.det() != 0:
            return m


def scalar_reps(rng):
    """Representations over every scalar kind, at ranks 2, 3 and 4."""
    integer = Representation(XY, [random_sl2(rng), random_sl2(rng)])
    fraction = Representation(XYZ, [
        random_invertible(rng, 3, lambda: random_fraction(rng, 5, 4))
        for _ in range(3)])
    quad = Representation(XY, [
        random_invertible(rng, 2, lambda: QuadExt(random_fraction(rng, 3, 2),
                                                  random_fraction(rng, 3, 2),
                                                  7))
        for _ in range(2)])
    sqrt21 = lift(Character(4, 4, 5), warn=False)
    complexf = lift(Character(ComplexF(rng.uniform(-3, 3), rng.uniform(-1, 1)),
                              ComplexF(rng.uniform(-3, 3)),
                              ComplexF(rng.uniform(-3, 3), 0.5)), warn=False)
    return [integer, fraction, quad, sqrt21, SymPowerRep(sqrt21, 3),
            complexf, SymPowerRep(complexf, 3), SymPowerRep(complexf, 4)]


def test_generic_sweep_in_the_integers():
    # the rank-1 image x -> 2, y -> 3: d(xyX)/dx = 1 - xyX -> 1 - 3
    images = {1: Fraction(2), -1: Fraction(1, 2), 2: Fraction(3),
              -2: Fraction(1, 3)}
    terms = list(fox_sweep(XY.word("xyX"), images.__getitem__, 1,
                           operator.mul))
    assert terms == [(0, 1, 0, 1), (1, 1, 1, 2), (0, -1, 3, 3)]


def test_generic_sweep_skips_the_product_after_a_positive_last_letter():
    # the first prefix is the first letter's image itself, and no term
    # reads the prefix times a positive last letter, so a word of two or
    # more letters ending in one takes len(w) - 2 products, one ending in
    # an inverse len(w) - 1, and a word of at most one letter none
    images = {1: 2, -1: Fraction(1, 2), 2: 3, -2: Fraction(1, 3)}
    products = []

    def mul(a, b):
        products.append((a, b))
        return a * b

    for text, count, terms in (
            ("xyx", 1, [(0, 1, 0, 1), (1, 1, 1, 2), (0, 1, 2, 6)]),
            ("y", 0, [(1, 1, 0, 1)]),
            ("X", 0, [(0, -1, 1, Fraction(1, 2))]),
            ("xyX", 2, [(0, 1, 0, 1), (1, 1, 1, 2), (0, -1, 3, 3)]),
            ("1", 0, [])):
        products.clear()
        w = XY.word(text)
        assert list(fox_sweep(w, images.__getitem__, 1, mul)) == terms
        assert len(products) == count
        assert count == max(0, len(w.letters) - 1 - (text[-1] in "xy"))


def test_fox_sweep_never_multiplies_by_one():
    # over ints, words, MultiPoly grids and matrices of every kind: the
    # identity is the prefix of length 0, a term and never a factor, so a
    # word of m letters takes m - 1 products, one fewer for a positive last
    # letter, and the first prefix is the first letter's image itself
    rng = rng_for(41, 31)
    ints = {1: 2, -1: Fraction(1, 2), 2: 3, -2: Fraction(1, 3)}
    rings = [(XY, ints.__getitem__, 1, operator.mul),
             (XY, lambda l: Word(XY, (l,)), XY.identity(), Word.__mul__),
             (XY, _SYM_TABLE.__getitem__, _SYM_ONE, _sym_mul)]
    rings += [(rep.alphabet, rep.letter_image, rep.units[0], running_mul)
              for rep in scalar_reps(rng)]
    factors = []
    swept = 0
    for alphabet, image, one, mul in rings:
        def counted(a, b, mul=mul):
            factors.append((a, b))
            return mul(a, b)

        words = [alphabet.identity(), Word(alphabet, (1,)),
                 Word(alphabet, (-2,)), Word(alphabet, (1, 2, -1))]
        for w in words + [random_word(rng, alphabet, 8) for _ in range(12)]:
            factors.clear()
            terms = list(fox_sweep(w, image, one, counted))
            assert not any(a is one or b is one for a, b in factors)
            assert [k == 0 for *_, k, _ in terms] \
                == [p is one for *_, p in terms]
            last = w.letters[-1] if w.letters else 0
            assert len(factors) == max(0, len(w) - 1 - (last > 0))
            swept += len(terms)
    assert swept > 300


def test_fox_terms_carry_the_image_of_their_prefix(monkeypatch):
    # every term (i, j, sign, k, P) of fox_terms comes from a letter of
    # words[i], and P is eval_word of that word's first k letters: the same
    # value for every kind, over C too, where eval_word's product from the
    # identity moves no value, only signs of zero.  A fresh symmetric power
    # raises each nonempty prefix once, keyed by its letters, and a second
    # call raises none
    real_sym = representation_module.sym_power
    raised = []

    def counted_sym(m, n):
        raised.append(n)
        return real_sym(m, n)

    monkeypatch.setattr(representation_module, "sym_power", counted_sym)
    compared = 0
    for case in range(3):
        rng = rng_for(41, 32 + case)
        for rep in scalar_reps(rng):
            words = [random_word(rng, rep.alphabet, 10) for _ in range(3)]
            ref = rep
            if isinstance(rep, SymPowerRep):
                rep, ref = (SymPowerRep(rep.base, rep.N) for _ in range(2))
            raised.clear()
            terms = rep.fox_terms(words)
            assert len(terms) == sum(map(len, words))
            prefixes = {words[i].letters[:k] for i, _, _, k, _ in terms}
            if isinstance(rep, SymPowerRep):
                assert len(raised) == len(prefixes - {()})
                assert set(rep._raised) == prefixes | {()}
                rep.fox_terms(words)
                assert len(raised) == len(prefixes - {()})
            for i, j, sign, k, p in terms:
                letters = words[i].letters
                assert letters[k if sign > 0 else k - 1] == sign * (j + 1)
                want = ref.eval_word(Word(rep.alphabet, letters[:k]))
                assert p.field == want.field and p == want, (rep, letters, k)
                compared += 1
    assert compared > 300


def test_group_ring_derivative_equals_prefix_rule():
    # the sweep over words against the prefix-word rule, on the identity,
    # on reduced words and on letter strings that cancel as they reduce
    rng = rng_for(41, 30)
    words = [XYZ.identity(), XYZ.word("xX"), XYZ.word("xyzZYX")]
    for _ in range(300):
        words.append(random_word(rng, XYZ, 12))
        words.append(Word(XYZ, [rng.choice((-3, -2, -1, 1, 2, 3))
                                for _ in range(rng.randint(0, 12))]))
    for w in words:
        for j in range(3):
            assert fox_derivative(w, j).terms == fox_terms(w, j)


def test_matrix_blocks_equal_evaluated_derivatives():
    # a block with no term, or whose one term is the empty prefix, is the
    # zero or identity of the representation's kind where term-by-term
    # evaluation gives the rational one, so only its value is compared
    for case in range(4):
        rng = rng_for(41, case)
        for rep in scalar_reps(rng):
            for _ in range(6):
                w = random_word(rng, rep.alphabet, 10)
                row = row_blocks(rep.fox_matrix([w]), rep.n)
                for j in range(len(rep.alphabet)):
                    terms = fox_terms(w, j)
                    oracle = rep.eval_ring_elem(
                        GroupRingElem(rep.alphabet, terms))
                    assert row[j] == oracle
                    if any(v.letters for v in terms):
                        assert entries(row[j]) == entries(oracle)


def test_one_pass_fox_matrix_equals_the_per_block_route():
    # the one grid against block rows of per-block signed sums from the
    # identity joined by block_assemble, and word images against the
    # product from the identity: equal values over exact kinds, and the
    # same bits over C, where the grid's sums from +0j erase the signed
    # zeros of identity products and word images keep the identity factor
    for case in range(4):
        rng = rng_for(41, case)
        for rep in scalar_reps(rng):
            for count in (1, 2, 3):
                words = [random_word(rng, rep.alphabet, 10)
                         for _ in range(count)]
                m = rep.fox_matrix(words)
                ref = fox_matrix_reference(rep, words)
                assert m.field == ref.field and m == ref
                images = [(rep.eval_word(w), word_image_reference(rep, w))
                          for w in words]
                assert all(a == b for a, b in images)
                if rep.field == "complex":
                    assert float_bits(m) == float_bits(ref)
                    assert all(float_bits(a) == float_bits(b)
                               for a, b in images)


def test_complex_fox_matrix_keeps_the_per_block_bits_on_signed_zeros():
    # characters whose parts are signed zeros and half-integers, so that
    # the products of either route make zeros of both signs
    rng = rng_for(41, 12)
    parts = (0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 1.5, -2.0)
    for _ in range(100):
        base = lift(Character(*[ComplexF(rng.choice(parts), rng.choice(parts))
                                for _ in range(3)]), warn=False)
        rep = SymPowerRep(base, rng.randint(2, 5))
        words = [random_word(rng, XY, 8) for _ in range(2)]
        assert float_bits(rep.fox_matrix(words)) \
            == float_bits(fox_matrix_reference(rep, words))


def test_fox_matrix_names_a_non_finite_entry_block_by_block():
    # d(xyxy)/dx = 1 + xy and d(xyxy)/dy = x + xyx on diagonal images:
    # row 1 of block (0, 0) is 1 + 1e320, row 0 of block (0, 1) is
    # 1e130 i + (1e130 i)^2 1e130; as on the per-block route, the error
    # names the entry of the first block, not the first of the grid's rows
    zero = ComplexF(0)
    big = ComplexF(1e160)
    rep = Representation(XY, [
        Matrix([[ComplexF(0, 1e130), zero], [zero, big]]),
        Matrix([[ComplexF(1e130), zero], [zero, big]])])
    w = XY.word("xyxy")
    with pytest.raises(NonFinite) as one_pass:
        rep.fox_matrix([w])
    with pytest.raises(NonFinite) as per_block:
        fox_matrix_reference(rep, [w])
    assert str(one_pass.value) == str(per_block.value) \
        == "non-finite complex value inf + nan i"


def twisted_oracle(w, j, rep, twist):
    # sum of c * t^phi(v) * alpha(v) over the terms c v of dw/dx_j
    n = rep.n
    grid = [[LaurentPoly.zero() for _ in range(n)] for _ in range(n)]
    for v, c in fox_terms(w, j).items():
        m = rep.eval_word(v)
        shift = twist.weight(v)
        for i in range(n):
            for l in range(n):
                grid[i][l] = grid[i][l] + LaurentPoly({shift: m[i, l] * c})
    return grid


def test_twisted_blocks_equal_evaluated_derivatives():
    ab = Alphabet("a b")
    rng = rng_for(41, 10)
    trefoil = Word.from_string(ab, "abaBAB")
    parabolic = solve_parabolic(Presentation(ab, [trefoil]))
    reps = [Representation(ab, [random_sl2(rng), random_sl2(rng)]),
            parabolic, SymPowerRep(parabolic, 3)]
    for rep in reps:
        for twist in (AbelianizationMap((1, 1)), AbelianizationMap((2, -3))):
            for w in [trefoil] + [random_word(rng, ab, 10) for _ in range(6)]:
                row = twisted_fox_row(w, rep, twist)
                for j in range(2):
                    oracle = twisted_oracle(w, j, rep, twist)
                    assert row[j] == oracle
                    assert coefficients(row[j]) == coefficients(oracle)


def laurent_sum_row(w, rep, twist):
    # twisted_fox_row as it was before its dict sums: every term of the
    # representation's Fox terms is added to its entry as a LaurentPoly,
    # at the t-exponent of its prefix, the weight sum of its first k letters
    n = rep.n
    weights = twist.exponents
    blocks = [[[LaurentPoly.zero()] * n for _ in range(n)]
              for _ in rep.alphabet.names]
    for _, j, sign, k, m in rep.fox_terms([w]):
        shift = sum(weights[abs(l) - 1] * (1 if l > 0 else -1)
                    for l in w.letters[:k])
        grid = blocks[j]
        for i, row in enumerate(m.entries):
            for l, e in enumerate(row):
                grid[i][l] = grid[i][l] + LaurentPoly({shift: e * sign})
    return blocks


def typed(c):
    # a coefficient by type and value, floats by hex down to signed zeros
    if isinstance(c, complex):
        return type(c), c.real.hex(), c.imag.hex()
    return type(c), repr(c)


def typed_coefficients(blocks):
    return [[[[(e, typed(c)) for e, c in p.coeffs.items()] for p in row]
             for row in grid] for grid in blocks]


def test_twisted_row_dict_sums_equal_laurent_sums():
    # integer, Fraction, Q(sqrt d) and complex representations at ranks 2
    # to 4, on random words and two-bridge relators of up to 34 letters;
    # twists with zero and opposite exponents put many terms on one
    # exponent, some of which cancel
    for case in range(3):
        rng = rng_for(43, case)
        for rep in scalar_reps(rng):
            k = len(rep.alphabet)
            words = [random_word(rng, rep.alphabet, 34) for _ in range(4)]
            words += [Word(rep.alphabet, two_bridge_relator(p, q))
                      for p, q in ((9, 5), (17, 3), (17, 11))]
            for w in words:
                twist = AbelianizationMap([rng.randint(-2, 2)
                                           for _ in range(k)])
                row = twisted_fox_row(w, rep, twist)
                oracle = laurent_sum_row(w, rep, twist)
                assert row == oracle
                assert typed_coefficients(row) == typed_coefficients(oracle)


def test_twisted_row_restarts_an_entry_that_cancels():
    # y -> I and t-weights (1, 0, 0): d(xxyXyzx)/dx has the terms A, -A
    # and A C at t^1, where A = x and C = z.  The (0, 1) entries 1/3 and
    # -1/3 cancel, and the entry restarts from the int 2 of A C, not from
    # Fraction(0) + 2
    a = Matrix([[Fraction(1, 2), Fraction(1, 3)], [0, 2]])
    rep = Representation(XYZ, [a, Matrix.identity(2),
                               Matrix([[1, 2], [0, 3]])])
    w, twist = XYZ.word("xxyXyzx"), AbelianizationMap((1, 0, 0))
    row = twisted_fox_row(w, rep, twist)
    assert row[0][0][1].coeffs == {1: 2}
    assert type(row[0][0][1].coeffs[1]) is int
    assert typed_coefficients(row) \
        == typed_coefficients(laurent_sum_row(w, rep, twist))


def test_twisted_row_raises_on_a_non_finite_partial_sum():
    # d(xyyy)/dy = x + xy + xyy, all at t^1 and all the same finite entry
    # 1e308 + i: the first sum overflows to inf + 2i, where the error is
    # raised, and no later sum turns it finite again
    one, zero = ComplexF(1), ComplexF(0)
    rep = Representation(XY, [
        Matrix([[ComplexF(1e308, 1), zero], [zero, one]]),
        Matrix([[one, zero], [zero, one]])])
    w, twist = XY.word("xyyy"), AbelianizationMap((1, 0))
    with pytest.raises(NonFinite) as sums:
        twisted_fox_row(w, rep, twist)
    with pytest.raises(NonFinite) as oracle:
        laurent_sum_row(w, rep, twist)
    assert str(sums.value) == str(oracle.value) \
        == "non-finite complex value inf + 2.0 i"


_X, _Y, _Z, _U = (MultiPoly.variable(v) for v in "xyzu")
_ONE, _ZERO = MultiPoly.constant(1), MultiPoly.zero()
# the lift x -> [[0, 1], [-1, x]], y -> [[y, -u], [1/u, 0]] with 1/u = z - u
_LETTERS = {1: ((_ZERO, _ONE), (-_ONE, _X)), -1: ((_X, -_ONE), (_ONE, _ZERO)),
            2: ((_Y, -_U), (_Z - _U, _ZERO)),
            -2: ((_ZERO, _U), (_U - _Z, _Y))}


def symbolic_word(w):
    acc = ((_ONE, _ZERO), (_ZERO, _ONE))
    for l in w.letters:
        acc = tuple(tuple(reduce_u(e) for e in row)
                    for row in mat2_mul(acc, _LETTERS[l]))
    return acc


def test_symbolic_blocks_equal_evaluated_derivatives():
    rng = rng_for(41, 20)
    for _ in range(12):
        data = SuturedHandlebodyData(XY, [random_word(rng, XY, 6)
                                          for _ in range(2)])
        grid = sym_fox_grid(data)
        for i, w in enumerate(data.images):
            for j in range(2):
                oracle = [[_ZERO, _ZERO], [_ZERO, _ZERO]]
                for v, c in fox_terms(w, j).items():
                    m = symbolic_word(v)
                    for bi in range(2):
                        for bj in range(2):
                            oracle[bi][bj] = oracle[bi][bj] + m[bi][bj].scale(c)
                block = [row[2 * j:2 * j + 2] for row in grid[2 * i:2 * i + 2]]
                assert block == oracle
