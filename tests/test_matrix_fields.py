"""Matrices over different fields: the typed error when Q(sqrt d) meets
complex in arithmetic, and equality and hashing across fields.

The answers across fields are those of the entries: a rational matrix
equals its copies over Q(sqrt 2) and over the complex floats, which hash
alike, while a complex entry never equals a ``QuadExt`` one.
"""

from fractions import Fraction

import pytest

from torsioncert.errors import MixedScalarKind, ScalarEmbedding
from torsioncert.freegroup import Alphabet, GroupRingElem
from torsioncert.linalg import Matrix, block_assemble
from torsioncert.representation import Representation
from torsioncert.scalar import ComplexF, QuadExt

Q = Matrix([[QuadExt(1, 1, 2), 0], [0, 1]])
C = Matrix([[1.5, 0], [0, 1]])

MIXED = {
    "q + c": lambda: Q + C,
    "c - q": lambda: C - Q,
    "q * c": lambda: Q * C,
    "c * q": lambda: C * Q,
    "q.scale(1.5)": lambda: Q.scale(1.5),
    "c.scale(sqrt 2)": lambda: C.scale(QuadExt(0, 1, 2)),
}


@pytest.mark.parametrize("name", sorted(MIXED))
def test_quadratic_and_complex_operands_raise_mixed_scalar_kind(name):
    with pytest.raises(MixedScalarKind,
                       match="quadratic-extension and complex entries mixed"):
        MIXED[name]()


def test_block_assembly_and_construction_raise_the_same_error():
    for build in (lambda: block_assemble([[Q, C]]),
                  lambda: Matrix([[QuadExt(1, 1, 2), 1.5]])):
        with pytest.raises(MixedScalarKind,
                           match="quadratic-extension and complex entries"):
            build()


def test_a_complex_coefficient_does_not_embed_over_q_sqrt_d():
    xy = Alphabet("x y")
    rep = Representation(xy, [Q, Matrix.identity(2)])
    with pytest.raises(ScalarEmbedding):
        rep.eval_ring_elem(GroupRingElem(xy, {xy.word("x"): 1.5}))


R = Matrix([[1, Fraction(1, 2)], [0, 3]])
R_SQRT2 = Matrix([[QuadExt(v, 0, 2) for v in r] for r in R.entries])
R_COMPLEX = Matrix([[ComplexF(v) for v in r] for r in R.entries])


def test_copies_over_other_fields_keep_their_fields():
    assert (R.scalar_kind, R_SQRT2.scalar_kind, R_COMPLEX.scalar_kind) == \
        ("rational", "quadext", "complex")


def test_rational_matrix_equals_its_copies_over_other_fields():
    assert R == R_SQRT2 and R_SQRT2 == R
    assert R == R_COMPLEX and R_COMPLEX == R


def test_complex_and_quadratic_copies_are_not_equal():
    assert not R_COMPLEX == R_SQRT2
    assert not R_SQRT2 == R_COMPLEX


def test_equal_matrices_hash_alike():
    assert hash(R) == hash(R_SQRT2) == hash(R_COMPLEX)
