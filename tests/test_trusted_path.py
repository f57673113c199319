"""Matrix arithmetic on operands of one kind skips entry promotion.

Each operation is compared with ``Matrix(rows)``, the full path, built from
the rows the operation computes: the scalar kind, the type of every entry,
its value and, for floats, its hex digits down to the sign of zero must
agree.  A guard counts the entries that still pass through promotion in a
float certificate.
"""

import operator
from fractions import Fraction

import pytest

from torsioncert import linalg
from torsioncert.charvar import Character, lift
from torsioncert.errors import MixedExtension, NonFinite
from torsioncert.freegroup import Alphabet, Word
from torsioncert.linalg import Matrix, block_assemble, inverse
from torsioncert.representation import Representation, SymPowerRep, sym_power
from torsioncert.scalar import ComplexF, QuadExt
from torsioncert.seeds import rng_for
from torsioncert.suturedcert import (SuturedHandlebodyData, certify,
                                     fox_matrix, pants_example)

from helpers import random_fraction

SIGNED = (0.0, -0.0, 1.0, -1.0, 0.5, -2.25, 3.0)


def draw(rng, kind):
    if kind == "rational":
        return random_fraction(rng, 5, 3) if rng.random() < 0.5 \
            else rng.randint(-4, 4)
    if kind in (2, -3):
        return QuadExt(random_fraction(rng, 4, 3), random_fraction(rng, 4, 3),
                       kind)
    # signed zeros in either part, so that sums and products make them
    return complex(rng.choice(SIGNED) * rng.randint(1, 3),
                   rng.choice(SIGNED))


def random_matrix(rng, kind, rows, cols):
    return Matrix([[draw(rng, kind) for _ in range(cols)]
                   for _ in range(rows)])


def rows_of(m):
    return [list(r) for r in m.entries]


def assert_same(m, ref):
    assert m.scalar_kind == ref.scalar_kind
    assert (m.rows, m.cols) == (ref.rows, ref.cols)
    for r, s in zip(m.entries, ref.entries):
        for x, y in zip(r, s):
            assert type(x) is type(y)
            assert x == y
            if isinstance(x, QuadExt):
                assert x.d == y.d
            if isinstance(x, complex):
                assert (x.real.hex(), x.imag.hex()) == \
                    (y.real.hex(), y.imag.hex())


def product_rows(a, b):
    out = []
    for ra in a.entries:
        row = []
        for cb in zip(*b.entries):
            acc = ra[0] * cb[0]
            for x, y in zip(ra[1:], cb[1:]):
                acc = acc + x * y
            row.append(acc)
        out.append(row)
    return out


def elementwise(op, a, b):
    return [[op(x, y) for x, y in zip(ra, rb)]
            for ra, rb in zip(a.entries, b.entries)]


KINDS = ("rational", 2, -3, "complex")


@pytest.mark.parametrize("kind", KINDS, ids=str)
def test_one_kind_operations_equal_the_full_path(kind):
    rng = rng_for(71, KINDS.index(kind))
    for _ in range(12):
        n, k = rng.randint(1, 4), rng.randint(1, 4)
        a, b = random_matrix(rng, kind, n, k), random_matrix(rng, kind, n, k)
        c = random_matrix(rng, kind, k, rng.randint(1, 4))
        s = draw(rng, kind)
        assert_same(a * c, Matrix(product_rows(a, c)))
        assert_same(a + b, Matrix(elementwise(operator.add, a, b)))
        assert_same(a - b, Matrix(elementwise(operator.sub, a, b)))
        assert_same(-a, Matrix([[-x for x in r] for r in a.entries]))
        for factor in (-1, 3, s):
            assert_same(a.scale(factor),
                        Matrix([[factor * x for x in r] for r in a.entries]))
        assert_same(a.transpose(), Matrix(list(zip(*a.entries))))
        rsel = sorted(rng.sample(range(n), rng.randint(1, n)))
        csel = sorted(rng.sample(range(k), rng.randint(1, k)))
        assert_same(a.submatrix(rsel, csel),
                    Matrix([[a[i, j] for j in csel] for i in rsel]))
        if k > 1:
            j = rng.randrange(k)
            assert_same(a.submatrix(range(n), [c for c in range(k) if c != j]),
                        Matrix([r[:j] + r[j + 1:] for r in a.entries]))
        assert_same(block_assemble([[a, b], [b, a]]),
                    Matrix([ra + rb for ra, rb in zip(a.entries, b.entries)]
                           + [rb + ra for ra, rb in zip(a.entries, b.entries)]))
        if n == k and a.det() != 0:
            inv = inverse(a)
            assert_same(inv, Matrix(rows_of(inv)))
        if n == k == 2:
            sym = sym_power(a, rng.randint(2, 5))
            assert_same(sym, Matrix(rows_of(sym)))


def test_identity_and_zero_are_rational():
    assert_same(Matrix.identity(3), Matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    ones = Matrix([[1, 1, 1], [1, 1, 1]])
    assert_same(ones - ones, Matrix([[0, 0, 0], [0, 0, 0]]))
    with pytest.raises(ValueError, match="at least one row"):
        Matrix([])


def test_rational_results_are_reduced():
    half = Matrix([[Fraction(1, 2), Fraction(3, 2)]])
    for m in (half + half, half.scale(2), half * Matrix([[2], [0]])):
        assert all(type(e) is int for e in m.entries[0])


def test_mixed_kinds_take_the_full_path():
    rng = rng_for(71, 9)
    rational = random_matrix(rng, "rational", 2, 2)
    for kind in (2, "complex"):
        rich = random_matrix(rng, kind, 2, 2)
        assert_same(rational * rich, Matrix(product_rows(rational, rich)))
        assert_same(rich + rational,
                    Matrix(elementwise(operator.add, rich, rational)))
        s = draw(rng, kind)
        assert_same(rational.scale(s),
                    Matrix([[s * e for e in r] for r in rational.entries]))
        assert_same(block_assemble([[rational, rich]]),
                    Matrix([ra + rb for ra, rb
                            in zip(rational.entries, rich.entries)]))


def test_two_extensions_do_not_mix():
    for blocks in ([[Matrix([[QuadExt(0, 1, 2)]]),
                     Matrix([[QuadExt(0, 1, 3)]])]],
                   [[Matrix([[QuadExt(0, 1, 3)]]),
                     Matrix([[QuadExt(0, 1, 2)]])]]):
        with pytest.raises(MixedExtension,
                           match=r"cannot mix sqrt\(2\) with sqrt\(3\)"):
            block_assemble(blocks)
    with pytest.raises(MixedExtension,
                       match=r"cannot mix sqrt\(2\) with sqrt\(3\)"):
        Matrix([[QuadExt(1, 1, 3), 1], [QuadExt(0, 1, 2), 0]])


def nonfinite_message(build):
    with pytest.raises(NonFinite) as err:
        build()
    return str(err.value)


BIG = Matrix([[1e200 + 0j, 1.0], [-0.0, 1e300 - 1e300j]])
WIDE = Matrix([[1e308 + 0j, -0.0], [1.0, 1e308j]])

# each overflowing operation, and the rows it computes
OVERFLOWS = {
    "product": (lambda: BIG * BIG, lambda: product_rows(BIG, BIG)),
    "sum": (lambda: WIDE + WIDE,
            lambda: elementwise(operator.add, WIDE, WIDE)),
    "int scale": (lambda: BIG.scale(10 ** 10),
                  lambda: [[10 ** 10 * x for x in r] for r in BIG.entries]),
    "float scale": (lambda: BIG.scale(1e10),
                    lambda: [[1e10 * x for x in r] for r in BIG.entries]),
}


@pytest.mark.parametrize("name", sorted(OVERFLOWS))
def test_overflow_raises_the_message_of_the_full_path(name):
    run, rows = OVERFLOWS[name]
    assert nonfinite_message(run) == nonfinite_message(lambda: Matrix(rows()))


def test_finite_entries_whose_sum_overflows_are_kept():
    a = Matrix([[1e308 + 0j, 1e308 + 0j]])
    assert_same(a + a.scale(0.5), Matrix([[1.5e308 + 0j, 1.5e308 + 0j]]))


def test_overflowing_block_assembly():
    # one kind: the blocks were checked when they were built, so an
    # overflow shows at the product that made the Fox block ...
    xy = Alphabet("x y")
    rep = Representation(xy, [Matrix([[2.0, 1.0], [1.0, 1.0]]),
                              Matrix([[1.0, 0.0], [0.0, 1.0]])])
    # the prefixes x^k of x^800 grow like 2.618^k and overflow near k = 737
    data = SuturedHandlebodyData(xy, [Word(xy, (1,) * 800), Word(xy, (2,))])
    with pytest.raises(NonFinite):
        fox_matrix(data, rep)
    # ... and a rational block joining complex ones must embed as floats
    huge = Matrix([[Fraction(10 ** 400, 3)]])
    assert nonfinite_message(
        lambda: block_assemble([[huge, Matrix([[1.0]])]])) == \
        nonfinite_message(lambda: Matrix([[Fraction(10 ** 400, 3), 1.0]]))


def test_float_pants_certificate_promotes_only_its_lift(monkeypatch):
    promoted = []

    def counting(rows):
        promoted.append(sum(map(len, rows)))
        return promote(rows)

    promote = linalg._promote_entries
    monkeypatch.setattr(linalg, "_promote_entries", counting)
    base = lift(Character(ComplexF(3.0), ComplexF(1.0), ComplexF(2.0)),
                warn=False)
    cert = certify(pants_example(), SymPowerRep(base, 4))
    assert cert.is_product
    # only the two 2x2 images that lift builds from the traces; the
    # symmetric powers, their inverses, the Fox sweep, the block assembly
    # and the identity and zero it starts from all keep the complex kind
    assert promoted == [4, 4]
