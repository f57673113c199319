"""Product certificates for sutured handlebodies and their homology oracle."""

from fractions import Fraction

import pytest

from torsioncert.charvar import Character, lift
from torsioncert.errors import AlphabetMismatch, ChainCondition, ParseError
from torsioncert.freegroup import Alphabet, Word
from torsioncert.linalg import Matrix, det, matrix_str
from torsioncert.representation import Representation, SymPowerRep
from torsioncert.scalar import ComplexF
from torsioncert.seeds import rng_for
from torsioncert.twisted import Presentation, build_complex
from torsioncert.suturedcert import (
    SuturedHandlebodyData,
    _relative_h1,
    certify,
    enlarged_presentation,
    extend_rep,
    fox_matrix,
    oracle_dims,
    pants_example,
    sutured_from_text,
    sutured_to_text,
)

from helpers import random_fraction, random_sl2, random_word

XY = Alphabet("x y")
XYZ = Alphabet("x y z")


def schottky_rep():
    return Representation(XY, [Matrix([[1, 1], [2, 3]]),
                               Matrix([[1, -2], [-1, 3]])], sl_flag=True)


class TestData:
    def test_pants_shape(self):
        data = pants_example()
        assert data.ambient_rank == 2 and data.surface_rank == 2
        assert str(data.images[0]) == "x"
        assert str(data.images[1]) == "yxyXY"

    def test_balance_enforced(self):
        with pytest.raises(ValueError):
            SuturedHandlebodyData(XY, [Word.from_string(XY, "x")])

    def test_alphabet_guard(self):
        with pytest.raises(AlphabetMismatch):
            SuturedHandlebodyData(
                XY, [Word.from_string(XY, "x"),
                     Word.from_string(Alphabet("a b"), "a")])


class TestFoxMatrix:
    def test_schottky_frozen_matrix(self):
        m = fox_matrix(pants_example(), schottky_rep())
        assert matrix_str(m) == "1,0,0,0;0,1,0,0;-23,9,-63,-42;36,-14,99,66"
        assert det(m) == 0

    def test_identity_images_give_identity(self):
        data = SuturedHandlebodyData(
            XY, [Word.from_string(XY, "x"), Word.from_string(XY, "y")])
        rng = rng_for(31, 0)
        rep = Representation(XY, [random_sl2(rng), random_sl2(rng)],
                             sl_flag=True)
        assert fox_matrix(data, rep) == Matrix.identity(4)

    def test_swapped_images_give_block_antidiagonal(self):
        data = SuturedHandlebodyData(
            XY, [Word.from_string(XY, "y"), Word.from_string(XY, "x")])
        rng = rng_for(31, 1)
        rep = Representation(XY, [random_sl2(rng), random_sl2(rng)],
                             sl_flag=True)
        m = fox_matrix(data, rep)
        for i in range(2):
            for j in range(2):
                assert m[i, j] == 0 and m[i + 2, j + 2] == 0
                assert m[i, j + 2] == Matrix.identity(2)[i, j]
                assert m[i + 2, j] == Matrix.identity(2)[i, j]


class TestCertify:
    def test_schottky_is_not_a_product(self):
        cert = certify(pants_example(), schottky_rep(), with_oracle=True)
        assert cert.determinant == 0
        assert not cert.is_product
        assert cert.oracle_h1 == 1

    def test_central_character_is_a_product(self):
        rep = lift(Character(0, 0, 0), warn=False)
        cert = certify(pants_example(), rep, with_oracle=True)
        assert cert.determinant == 3
        assert cert.is_product
        assert cert.oracle_h1 == 0

    def test_verdict_conjugation_invariant(self):
        rng = rng_for(31, 2)
        data = pants_example()
        for _ in range(10):
            rep = Representation(XY, [random_sl2(rng), random_sl2(rng)],
                                 sl_flag=True)
            base = certify(data, rep)
            p = Matrix([[1, 1], [1, 2]])
            conj = certify(data, rep.conjugated(p))
            assert base.is_product == conj.is_product
            assert base.determinant == conj.determinant

    def test_determinant_against_direct_fox_route(self):
        rng = rng_for(31, 3)
        data = pants_example()
        for _ in range(10):
            rep = Representation(XY, [random_sl2(rng), random_sl2(rng)],
                                 sl_flag=True)
            cert = certify(data, rep)
            assert cert.determinant == det(fox_matrix(data, rep))


class TestOracle:
    def test_enlarged_presentation_shape(self):
        big, relators = enlarged_presentation(pants_example())
        # two ambient and two fresh surface generators, one relator per image
        assert len(big) == 4
        assert len(relators) == 2
        names = big.names
        assert names[:2] == ("x", "y")
        assert set(names[2:]).isdisjoint({"x", "y"})
        # each relator reads the image word then the surface edge backwards
        data = pants_example()
        for i, r in enumerate(relators):
            assert r.letters[:-1] == data.images[i].letters
            assert r.letters[-1] == -(2 + i + 1)

    def test_extend_rep_respects_relators(self):
        data = pants_example()
        rep = schottky_rep()
        _, relators = enlarged_presentation(data)
        ext = extend_rep(data, rep)
        for r in relators:
            assert ext.eval_word(r) == Matrix.identity(2)

    def test_schottky_dims(self):
        dims, rel_h1, chi = oracle_dims(pants_example(), schottky_rep())
        assert dims == (0, 2, 0)
        assert rel_h1 == 1
        assert chi == -1
        h0, h1, h2 = dims
        assert h0 - h1 + h2 == 2 * chi

    def test_oracle_agrees_with_determinant(self):
        rng = rng_for(31, 4)
        data = pants_example()
        for _ in range(15):
            rep = Representation(XY, [random_sl2(rng), random_sl2(rng)],
                                 sl_flag=True)
            cert = certify(data, rep, with_oracle=True)
            assert cert.is_product == (cert.oracle_h1 == 0)

    @pytest.mark.parametrize("N", [2, 3])
    @pytest.mark.parametrize("kind", ["integer", "rational", "quadext",
                                      "complex"])
    def test_ambient_block_is_the_fox_matrix(self, kind, N):
        # the columns of the ambient edges in the enlarged complex are the
        # certificate's own Fox matrix, bit for bit: the oracle's relative
        # h1 is k*n minus the rank of the matrix whose determinant decides
        rng = rng_for(31, 6)
        for _ in range(10):
            rep = _lift_of_kind(rng, kind)
            if N > 2:
                rep = SymPowerRep(rep, N)
            images = [random_word(rng, XY, 6) for _ in range(2)]
            data = SuturedHandlebodyData(XY, images)
            big, relators = enlarged_presentation(data)
            d2, _ = build_complex(Presentation(big, relators),
                                  rep.extended(big, data.images))
            kn = len(XY) * rep.n
            ambient = d2.submatrix(range(d2.rows), range(kn))
            fox = fox_matrix(data, rep)
            assert ambient == fox
            assert [list(map(repr, r)) for r in ambient.entries] == \
                [list(map(repr, r)) for r in fox.entries]

    @pytest.mark.parametrize("rank", [2, 3])
    @pytest.mark.parametrize("N", [2, 3])
    @pytest.mark.parametrize("kind", ["integer", "rational", "quadext",
                                      "complex"])
    def test_oracle_complex_is_the_enlarged_build_complex(self, kind, N,
                                                          rank):
        # the oracle assembles d2 = [m | S] from the certificate's Fox
        # matrix m; build_complex on the enlarged presentation, the route
        # it replaced, gives the same (d2, d1) bit for bit
        rng = rng_for(31, 7)
        raised = 0
        for _ in range(8):
            rep = _lift_of_kind(rng, kind)
            if rank == 3:
                a, b = rep.images
                rep = Representation(XYZ, [a, b, a * b])
            if N > 2:
                rep = SymPowerRep(rep, N)
            alphabet = rep.alphabet
            data = SuturedHandlebodyData(
                alphabet, [random_word(rng, alphabet, 6)
                           for _ in alphabet.names])
            got = _complex_or_error(lambda: _relative_h1(
                data, rep, fox_matrix(data, rep))[1:])
            want = _complex_or_error(lambda: build_complex(
                Presentation(*enlarged_presentation(data)),
                extend_rep(data, rep)))
            assert got == want
            raised += got[0] == "raised"
        # a float chain check may fail on long words (ROADMAP item 4),
        # the same way on both routes
        assert raised <= (2 if kind == "complex" else 0)

    @pytest.mark.parametrize("kind", ["integer", "rational", "quadext",
                                      "complex"])
    def test_the_chain_check_guards_the_certificates_matrix(
            self, kind, monkeypatch):
        # one unit added to one entry of the certificate's own Fox blocks,
        # and to no other representation's, breaks Fox's fundamental
        # formula on the oracle's complex; without the oracle nothing is
        # checked
        rng = rng_for(31, 8)
        rep = _lift_of_kind(rng, kind)
        data = pants_example()
        honest = certify(data, rep)
        real = Representation.fox_blocks

        def perturbed(self, w):
            blocks = real(self, w)
            if self is rep:
                unit = [[int(i == j == 0) for j in range(self.n)]
                        for i in range(self.n)]
                blocks[0] = blocks[0] + Matrix(unit)
            return blocks

        monkeypatch.setattr(Representation, "fox_blocks", perturbed)
        assert certify(data, rep).determinant != honest.determinant
        with pytest.raises(ChainCondition, match="relator 0$"):
            certify(data, rep, with_oracle=True)
        with pytest.raises(ChainCondition, match="relator 0$"):
            oracle_dims(data, rep)

    def test_oracle_dims_guards_the_alphabet(self):
        # the complex is assembled from fox_matrix, which checks it
        ab = Alphabet("a b")
        rep = Representation(ab, [Matrix([[1, 1], [0, 1]]),
                                  Matrix([[1, 0], [1, 1]])])
        with pytest.raises(AlphabetMismatch):
            oracle_dims(pants_example(), rep)

    def test_euler_identity_random_images(self):
        # h0 - h1 + h2 = n * chi for every rep, product or not
        rng = rng_for(31, 5)
        for _ in range(10):
            images = [random_word(rng, XY, 6) for _ in range(2)]
            data = SuturedHandlebodyData(XY, images)
            rep = Representation(XY, [random_sl2(rng), random_sl2(rng)],
                                 sl_flag=True)
            dims, rel_h1, chi = oracle_dims(data, rep)
            h0, h1, h2 = dims
            assert h0 - h1 + h2 == rep.n * chi
            assert chi == -1


def _complex_or_error(build):
    """The reprs of each entry of the (d2, d1) that ``build`` returns, or
    the ``ChainCondition`` it raises."""
    try:
        d2, d1 = build()
    except ChainCondition as exc:
        return "raised", str(exc)
    return "built", [[list(map(repr, r)) for r in m.entries]
                     for m in (d2, d1)]


def _lift_of_kind(rng, kind):
    """The lift of a seeded character whose entries are of one kind:
    integers (z = +-2), rationals (z = a + 1/a), Q(sqrt d) (z^2 - 4 not a
    square) or complex floats."""
    x, y = rng.randint(-5, 5), rng.randint(-5, 5)
    if kind == "integer":
        c = Character(x, y, rng.choice((-2, 2)))
    elif kind == "rational":
        a = Fraction(rng.randint(1, 9), rng.randint(2, 9))
        c = Character(random_fraction(rng), random_fraction(rng), a + 1 / a)
    elif kind == "quadext":
        c = Character(x, y, rng.randint(3, 9))
    else:
        c = Character(*(ComplexF(rng.uniform(-4, 4), rng.uniform(-4, 4))
                        for _ in range(3)))
    rep = lift(c, warn=False)
    entries = [e for m in rep.images for r in m.entries for e in r]
    assert {"integer": all(type(e) is int for e in entries),
            "rational": rep.field == "rational",
            "quadext": type(rep.field) is int,
            "complex": rep.field == "complex"}[kind]
    return rep


class TestSerialization:
    def test_round_trip(self):
        data = pants_example()
        text = sutured_to_text(data)
        back = sutured_from_text(text)
        assert back.images == data.images
        assert back.name == data.name
        assert sutured_to_text(back) == text

    @pytest.mark.parametrize("text, expected", [
        ("ambient: x y\nambient: x y z\nimages:\nx\ny\nz\n",
         "error: line 2: duplicate 'ambient'"),
        ("name: one\nname: two\nambient: x y\nimages:\nx\ny\n",
         "error: line 2: duplicate 'name'"),
        ("ambient: x y\nimages:\nx\nimages:\ny\n",
         "error: line 4: duplicate 'images'"),
        ("ambient: x y\ngenus: 1\nimages:\nx\ny\n",
         "error: line 2: unknown key 'genus'"),
    ], ids=range(4))
    def test_reader(self, text, expected):
        try:
            got = sutured_to_text(sutured_from_text(text))
        except ParseError as exc:
            got = "error: %s" % exc
        assert got == expected

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            sutured_from_text("name: broken\nambient: x y\nimages:\n  x\n")
        with pytest.raises(ParseError):
            sutured_from_text("ambient: x y\n")
        with pytest.raises(ParseError):
            sutured_from_text("name: bad\nambient: x y\nimages:\n  x\n  q\n")
