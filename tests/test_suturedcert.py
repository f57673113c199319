"""Product certificates for sutured handlebodies and their homology oracle."""

import pytest

from torsioncert.charvar import Character, lift
from torsioncert.errors import (AlphabetMismatch, ChainCondition,
                               OracleMismatch, ParseError)
from torsioncert.freegroup import Alphabet, Word
from torsioncert.linalg import Matrix, block_assemble, det, matrix_str
from torsioncert.representation import Representation, SymPowerRep
from torsioncert.scalar import ComplexF
from torsioncert.seeds import rng_for
from torsioncert.twisted import Presentation, build_complex, homology_dims
from torsioncert.suturedcert import (
    SuturedHandlebodyData,
    _relative_h1,
    certify,
    fox_matrix,
    oracle_dims,
    pants_example,
    sutured_from_text,
    sutured_to_text,
)

from helpers import (conjugated, enlarged_presentation, extend_rep,
                     random_sl2, random_word)
from helpers import lift_of_kind as _lift_of_kind

XY = Alphabet("x y")
XYZ = Alphabet("x y z")


def schottky_rep():
    return Representation(XY, [Matrix([[1, 1], [2, 3]]),
                               Matrix([[1, -2], [-1, 3]])], sl_flag=True)


class TestData:
    def test_pants_shape(self):
        data = pants_example()
        assert len(data.alphabet) == 2 and len(data.images) == 2
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
            conj = certify(data, conjugated(rep, p))
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
        # the columns of the ambient edges in the enlarged complex of the
        # reference route are the certificate's own Fox matrix, bit for
        # bit, and its edge boundary is the oracle's: so the relative h1,
        # k*n minus the rank of the ambient columns, is the oracle's
        rng = rng_for(31, 6)
        for _ in range(10):
            rep = _lift_of_kind(rng, kind)
            if N > 2:
                rep = SymPowerRep(rep, N)
            images = [random_word(rng, XY, 6) for _ in range(2)]
            data = SuturedHandlebodyData(XY, images)
            d2, d1 = build_complex(Presentation(*enlarged_presentation(data)),
                                   extend_rep(data, rep))
            kn = len(XY) * rep.n
            ambient = d2.submatrix(range(d2.rows), range(kn))
            fox = fox_matrix(data, rep)
            assert _reprs(ambient) == _reprs(fox)
            rel_h1, *edges = _relative_h1(data, rep, fox)
            assert _reprs(_column(edges)) == _reprs(d1)
            assert rel_h1 == kn - ambient.rank()
            _assert_certify_reads(data, rep, rel_h1)

    @pytest.mark.parametrize("rank", [2, 3])
    @pytest.mark.parametrize("N", [2, 3])
    @pytest.mark.parametrize("kind", ["integer", "rational", "quadext",
                                      "complex"])
    def test_oracle_complex_is_the_enlarged_build_complex(self, kind, N,
                                                          rank):
        # oracle_dims reads the dimensions of the enlarged complex off the
        # Fox matrix and the edge boundary alone; build_complex on the
        # enlarged presentation, the route it replaced, and homology_dims
        # give the same dimensions, and certify the same relative h1
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
            want = _reference_dims(data, rep)
            if want is None:
                raised += 1
                continue
            assert oracle_dims(data, rep) == want
            _assert_certify_reads(data, rep, want[1])
        # a float chain check may fail on long words (ROADMAP item 4)
        assert raised <= (2 if kind == "complex" else 0)

    def test_a_large_surface_image_passes_the_float_chain_check(self):
        # the rank-3 representation (a, b, ab) of a complex Sym^3 lift:
        # the surface image of YZZZXy has entries up to 1.1e7, and the
        # reference route's chain check, whose residual carries the
        # rounding of -rho(w) rho(w)^-1 . (rho(w) - 1), rejects it; Fox's
        # formula on the Fox matrix accepts it
        rep = lift(Character(
            ComplexF(3.6618470153429792, -1.8270747632039903),
            ComplexF(-2.9720840621446865, 2.9904093091850532),
            ComplexF(0.74659941088102233, -2.7533788590432184)), warn=False)
        a, b = SymPowerRep(rep, 3).images
        rep = Representation(XYZ, [a, b, a * b])
        data = SuturedHandlebodyData(
            XYZ, [XYZ.word(w) for w in ("YYXXZ", "YZZZXy", "yZxy")])
        cert = certify(data, rep, with_oracle=True)
        assert not cert.is_product and cert.oracle_h1 == 1
        assert oracle_dims(data, rep) == ((0, 6, 0), 1, -2)
        with pytest.raises(ChainCondition, match="relator 1$"):
            build_complex(Presentation(*enlarged_presentation(data)),
                          extend_rep(data, rep))

    @pytest.mark.parametrize("k", [14, 20])
    def test_alphabets_past_thirteen_generators(self, k):
        # the relative h1 needs no fresh letter per surface word, so an
        # alphabet of 14 or more generators has an oracle too
        rng = rng_for(31, 9)
        alphabet = Alphabet("abcdefghijklmnopqrstuvwxyz"[:k])
        seen = set()
        for trial in range(3):
            rep = Representation(alphabet, [random_sl2(rng) for _ in range(k)],
                                 sl_flag=True)
            images = [random_word(rng, alphabet, 4) for _ in range(k)]
            if trial == 0:
                images[-1] = images[0]
            data = SuturedHandlebodyData(alphabet, images)
            cert = certify(data, rep, with_oracle=True)
            assert cert.is_product == (cert.oracle_h1 == 0)
            assert cert.is_product == (det(fox_matrix(data, rep)) != 0)
            (h0, h1, h2), rel_h1, chi = oracle_dims(data, rep)
            assert rel_h1 == cert.oracle_h1 and chi == 1 - k
            assert h0 - h1 + h2 == chi * rep.n
            seen.add(cert.is_product)
        assert False in seen

    @pytest.mark.parametrize("kind, N", [
        *(pytest.param(kind, 2, id=kind)
          for kind in ("integer", "rational", "quadext", "complex")),
        *(pytest.param(kind, N, id="%s-sym%d" % (kind, N))
          for kind in ("integer", "rational", "quadext") for N in (3, 4))])
    def test_the_chain_check_guards_the_certificates_matrix(
            self, kind, N, monkeypatch):
        # one unit added to one entry of the certificate's own Fox blocks,
        # and to no other representation's, breaks Fox's fundamental
        # formula on the oracle's complex; without the oracle nothing is
        # checked.  An exact symmetric power's Fox matrix is built from its
        # base's sweep, and perturbed alike
        rng = rng_for(31, 8)
        rep = _lift_of_kind(rng, kind)
        if N > 2:
            rep = SymPowerRep(rep, N)
        data = pants_example()
        honest = certify(data, rep)
        real = Representation.fox_matrix

        def perturbed(self, words):
            m = real(self, words)
            if self is rep:
                # entry (0, 0) of block (i, 0), for every word i
                unit = [[int(j == 0 and i % self.n == 0)
                         for j in range(m.cols)] for i in range(m.rows)]
                m = m + Matrix(unit)
            return m

        monkeypatch.setattr(Representation, "fox_matrix", perturbed)
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


def _reprs(m):
    return [list(map(repr, r)) for r in m.entries]


def _column(blocks):
    return block_assemble([[b] for b in blocks])


def _assert_certify_reads(data, rep, rel_h1):
    """``certify`` with the oracle returns rel_h1, or raises
    ``OracleMismatch`` where the float determinant's zero test disagrees
    with it (ROADMAP item 4)."""
    if certify(data, rep).is_product == (rel_h1 == 0):
        assert certify(data, rep, with_oracle=True).oracle_h1 == rel_h1
    else:
        with pytest.raises(OracleMismatch):
            certify(data, rep, with_oracle=True)


def _reference_dims(data, rep):
    """What :func:`oracle_dims` returns, by the reference route: the
    homology of the enlarged complex from ``build_complex`` and its
    relative h1, k*n minus the rank of d2's ambient columns; None when
    that route's chain check raises."""
    try:
        d2, d1 = build_complex(Presentation(*enlarged_presentation(data)),
                               extend_rep(data, rep))
    except ChainCondition:
        return None
    kn = len(data.alphabet) * rep.n
    k = len(data.alphabet)
    return (homology_dims(d2, d1),
            kn - d2.submatrix(range(d2.rows), range(kn)).rank(), 1 - k)


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
