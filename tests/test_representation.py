"""Matrix representations, symmetric powers, parabolic solving."""

import cmath
from fractions import Fraction

import pytest

from torsioncert.charvar import Character, lift
from torsioncert.errors import (
    AlphabetMismatch,
    MixedExtension,
    MixedScalarKind,
    NoRootFound,
    NotSL2,
    NotSquare,
    NotTwoByTwo,
    ParseError,
    ReducibleOnly,
    SingularImage,
    TorsionCertError,
)
from torsioncert.freegroup import Alphabet, Word, parse_ring_elem
from torsioncert.linalg import Matrix, det
from torsioncert.representation import (
    Representation,
    SymPowerRep,
    check_self_dual,
    circle_homology,
    parabolic_roots,
    rep_from_text,
    rep_to_text,
    riley_polynomial,
    solve_parabolic,
    sym_power,
)
from torsioncert.scalar import ComplexF, QuadExt, to_complexf
from torsioncert.seeds import rng_for
from torsioncert.twisted import Presentation

from helpers import (RingElem, conjugated, float_bits, mat2_mul,
                     random_sl2, random_word, two_bridge_relator)

XY = Alphabet("x y")
AB = Alphabet("a b")


def rand_rep(rng, alphabet=XY):
    return Representation(alphabet,
                          [random_sl2(rng) for _ in alphabet.names],
                          sl_flag=True)


class TestRepresentation:
    def test_eval_word_is_homomorphism(self):
        rng = rng_for(23, 0)
        rep = rand_rep(rng)
        for _ in range(40):
            u = random_word(rng, XY)
            v = random_word(rng, XY)
            assert rep.eval_word(u * v) == rep.eval_word(u) * rep.eval_word(v)
            wi = rep.eval_word(u.inverse())
            assert rep.eval_word(u) * wi == Matrix.identity(2)

    def test_eval_word_against_tuple_oracle(self):
        rng = rng_for(23, 1)
        rep = rand_rep(rng)
        imgs = {}
        for i in range(len(XY.names)):
            m = rep.images[i]
            imgs[i + 1] = ((m[0, 0], m[0, 1]), (m[1, 0], m[1, 1]))
            mi = rep.image_inverse(i)
            imgs[-(i + 1)] = ((mi[0, 0], mi[0, 1]), (mi[1, 0], mi[1, 1]))
        for _ in range(30):
            w = random_word(rng, XY)
            acc = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
            for letter in w.letters:
                acc = mat2_mul(acc, imgs[letter])
            got = rep.eval_word(w)
            assert all(got[i, j] == acc[i][j] for i in range(2) for j in range(2))

    def test_eval_ring_elem_is_ring_hom(self):
        rng = rng_for(23, 2)
        rep = rand_rep(rng)
        for _ in range(20):
            a = RingElem.of(parse_ring_elem(XY, "1")) - \
                parse_ring_elem(XY, "x")
            w = random_word(rng, XY, 5)
            b = RingElem.from_word(w, rng.randint(-3, 3))
            assert rep.eval_ring_elem(a * b) == \
                rep.eval_ring_elem(a) * rep.eval_ring_elem(b)
            assert rep.eval_ring_elem(a + b) == \
                rep.eval_ring_elem(a) + rep.eval_ring_elem(b)

    def test_singular_image_rejected(self):
        with pytest.raises(Exception) as exc_info:
            Representation(XY, [Matrix([[1, 1], [1, 1]]), Matrix.identity(2)])
        assert "singular" in str(exc_info.value)

    def test_sl_flag_enforced(self):
        with pytest.raises(ValueError) as exc_info:
            Representation(XY, [Matrix([[2, 0], [0, 1]]),
                                Matrix.identity(2)], sl_flag=True)
        assert "det" in str(exc_info.value)

    def test_a_singular_float_lift_raises_a_typed_error(self):
        # the determinant check of a float lift far from the origin
        # (ROADMAP item 4) fails with a TorsionCertError, still a
        # ValueError for callers that catch one
        with pytest.raises(TorsionCertError) as exc_info:
            lift(Character(1e300, 1, 1), warn=False)
        assert type(exc_info.value) is SingularImage
        assert isinstance(exc_info.value, ValueError)
        assert str(exc_info.value) == "image of generator 'x' is singular"
        with pytest.raises(SingularImage, match="^sl_flag set but det"):
            Representation(XY, [Matrix([[2, 0], [0, 1]]),
                                Matrix.identity(2)], sl_flag=True)

    def test_alphabet_guard(self):
        rep = rand_rep(rng_for(23, 3))
        with pytest.raises(AlphabetMismatch):
            rep.eval_word(Word.from_string(AB, "a"))

    def test_kind_promotion(self):
        rep = Representation(XY, [Matrix([[1, 1], [0, 1]]),
                                  Matrix([[QuadExt(0, 1, -1), QuadExt(0, 0, -1)],
                                          [QuadExt(0, 0, -1), QuadExt(0, -1, -1)]])])
        assert rep.scalar_kind == "quadext"
        cf = Representation(XY, [Matrix([[to_complexf(x) for x in r]
                                         for r in m.entries])
                                 for m in rep.images])
        assert cf.scalar_kind == "complex"
        got = cf.eval_word(Word.from_string(XY, "y"))
        assert abs(complex(got[0, 0]) - 1j) < 1e-12

    def test_mixed_extensions_rejected(self):
        # sqrt(5) and sqrt(-3) images cannot share a representation
        with pytest.raises(MixedExtension,
                           match=r"cannot mix sqrt\(-3\) with sqrt\(5\)"):
            Representation(
                XY, [Matrix([[QuadExt(1, 1, 5), QuadExt(0, 0, 5)],
                             [QuadExt(0, 0, 5), QuadExt(1, -1, 5)]]),
                     Matrix([[QuadExt(1, 1, -3), QuadExt(0, 0, -3)],
                             [QuadExt(0, 0, -3), QuadExt(1, -1, -3)]])])

    def test_quadext_and_complex_images_rejected(self):
        # the same operands raise the same error in Matrix arithmetic
        q = Matrix([[QuadExt(1, 1, 2), QuadExt(0, 0, 2)],
                    [QuadExt(0, 0, 2), QuadExt(-1, 1, 2)]])
        c = Matrix([[ComplexF(1.0, 1.0), ComplexF(0.0)],
                    [ComplexF(0.0), ComplexF(0.5, -0.5)]])
        with pytest.raises(MixedScalarKind):
            q * c
        for images in ([q, c], [c, q], [Matrix.identity(2), q, c]):
            with pytest.raises(MixedScalarKind):
                Representation(Alphabet("xyz"[:len(images)]), images)

    def test_conjugated(self):
        rng = rng_for(23, 4)
        rep = rand_rep(rng)
        p = Matrix([[1, 1], [1, 2]])
        conj = conjugated(rep, p)
        w = random_word(rng, XY)
        lhs = conj.eval_word(w)
        pinv = p.inverse()
        assert lhs == p * rep.eval_word(w) * pinv


class TestSymPower:
    def test_sym2_is_identity_functor(self):
        rng = rng_for(23, 5)
        for _ in range(10):
            m = random_sl2(rng)
            assert sym_power(m, 2) == m

    def test_homomorphism_property(self):
        rng = rng_for(23, 6)
        for N in (3, 4, 5):
            for _ in range(10):
                a = random_sl2(rng)
                b = random_sl2(rng)
                assert sym_power(a * b, N) == sym_power(a, N) * sym_power(b, N)
                assert det(sym_power(a, N)) == 1

    def test_sym3_trace_identity(self):
        rng = rng_for(23, 7)
        for _ in range(20):
            m = random_sl2(rng)
            assert sym_power(m, 3).trace() == m.trace() ** 2 - 1

    def test_identity_maps_to_identity(self):
        for N in (2, 3, 4):
            assert sym_power(Matrix.identity(2), N) == Matrix.identity(N)

    def test_rejects_wrong_size(self):
        with pytest.raises(NotTwoByTwo):
            sym_power(Matrix.identity(3), 3)

    def test_rep_wrapper(self):
        rng = rng_for(23, 8)
        base = rand_rep(rng)
        rep3 = SymPowerRep(base, 3)
        assert rep3.n == 3
        w = random_word(rng, XY)
        assert rep3.eval_word(w) == sym_power(base.eval_word(w), 3)

    def test_exact_inverse_images_equal_gauss_jordan(self):
        # Sym(A)^-1 = Sym(A^-1); entries must agree in value and in type
        rng = rng_for(23, 9)
        bases = [rand_rep(rng),
                 Representation(XY, [Matrix([[Fraction(2, 3), 5],
                                             [Fraction(-1, 4), 1]]),
                                     Matrix([[3, Fraction(1, 2)],
                                             [Fraction(7, 5), -2]])]),
                 Representation(XY, [Matrix([[QuadExt(1, 1, 2), 3],
                                             [QuadExt(0, -1, 2), 2]]),
                                     Matrix([[1, QuadExt(Fraction(1, 2), 1, 2)],
                                             [QuadExt(0, 1, 2), -1]])]),
                 Representation(XY, [Matrix([[QuadExt(1, 1, -3), 3],
                                             [QuadExt(0, -1, -3), 2]]),
                                     Matrix([[2, 1], [1, 1]])])]
        for base in bases:
            for N in range(2, 7):
                rep = SymPowerRep(base, N)
                for i in range(2):
                    closed = rep.image_inverse(i)
                    gauss = rep.images[i].inverse()
                    assert closed.scalar_kind == gauss.scalar_kind
                    assert [[repr(e) for e in r] for r in closed.entries] == \
                        [[repr(e) for e in r] for r in gauss.entries]

    def test_float_inverse_images_keep_gauss_jordan(self):
        # the base's inverse is Gauss-Jordan's, and the inverse image its
        # Sym^N bit for bit; Gauss-Jordan on the N x N image agrees within
        # 4 N u |A| |A^-1|^2 in max row norms (u = 2^-53)
        base = Representation(XY, [Matrix([[0.5 + 1j, 2.0], [1.0, 3.0]]),
                                   Matrix([[1.0, -1.5], [0.25j, 2.0]])])
        rep = SymPowerRep(base, 4)
        for i in range(2):
            assert base.image_inverse(i) == base.images[i].inverse()
            closed = rep.image_inverse(i)
            assert float_bits(closed) == \
                float_bits(sym_power(base.image_inverse(i), 4))
            gauss = rep.images[i].inverse()
            bound = 4 * 4 * 2.0 ** -53 * rep.images[i].max_row_norm() \
                * closed.max_row_norm() ** 2
            assert 0 < (closed - gauss).max_row_norm() <= bound


class TestCircleHomology:
    def test_identity_gives_full_rank(self):
        assert circle_homology(Matrix.identity(2)) == (2, 2)

    def test_parabolic_gives_one(self):
        assert circle_homology(Matrix([[1, 1], [0, 1]])) == (1, 1)

    def test_negative_parabolic_gives_zero(self):
        assert circle_homology(Matrix([[-1, 1], [0, -1]])) == (0, 0)

    def test_non_square_monodromy_is_a_typed_error(self):
        for bad in (Matrix([[1, 2]]), [[1, 0], [0, 1]]):
            with pytest.raises(NotSquare):
                circle_homology(bad)

    def test_trace_dichotomy(self):
        rng = rng_for(23, 9)
        for _ in range(60):
            m = random_sl2(rng)
            h0, h1 = circle_homology(m)
            assert h0 == h1
            if m.trace() != 2:
                assert (h0, h1) == (0, 0)
            else:
                assert h0 >= 1


class TestSelfDuality:
    def test_exact_sl2_is_self_dual(self):
        rng = rng_for(23, 10)
        for _ in range(25):
            rep = rand_rep(rng)
            assert check_self_dual(rep) == 0

    def test_det_two_counterexample(self):
        rep = Representation(XY, [Matrix([[2, 0], [0, 1]]),
                                  Matrix([[1, 1], [0, 1]])])
        dev = check_self_dual(rep)
        assert dev != 0

    def test_rank3_rejected(self):
        rep = Representation(XY, [Matrix.identity(3), Matrix.identity(3)])
        with pytest.raises(NotSL2):
            check_self_dual(rep)


class TestSolveParabolic:
    def test_trefoil_root(self):
        pres = Presentation(AB, [Word.from_string(AB, "abaBAB")])
        rep = solve_parabolic(pres)
        assert rep.scalar_kind == "complex"
        # the off-diagonal parameter solves the Riley equation; trefoil: y = -1
        b = rep.images[1]
        assert abs(complex(b[1, 0]) - (-1)) < 1e-8
        # images satisfy the relator
        r = rep.eval_word(pres.relators[0])
        dev = max(abs(complex(r[i, j] - Matrix.identity(2)[i, j]))
                  for i in range(2) for j in range(2))
        assert dev < 1e-10

    def test_figure_eight_roots(self):
        pres = Presentation(AB, [Word.from_string(AB, "aBAbaBabAB")])
        rep0 = solve_parabolic(pres, which=0)
        rep1 = solve_parabolic(pres, which=1)
        ys = sorted([complex(rep0.images[1][1, 0]), complex(rep1.images[1][1, 0])],
                    key=lambda c: c.imag)
        assert ys[0] == pytest.approx((1 - 1j * cmath.sqrt(3).real) / 2, abs=1e-8)
        assert ys[1] == pytest.approx((1 + 1j * cmath.sqrt(3).real) / 2, abs=1e-8)

    @pytest.mark.parametrize("p,q", [(13, 11), (17, 13), (17, 15), (19, 7),
                                     (19, 15), (19, 17)])
    def test_two_bridge_roots_kill_the_relator(self, p, q):
        # on these knots a tolerance growing like |y|^len(relator) once let
        # through Newton iterates that never converged
        pres = Presentation(AB, [Word(AB, two_bridge_relator(p, q))])
        g = riley_polynomial(pres.relators[0])
        roots = parabolic_roots(pres)
        assert len(g) - 1 == len(roots) == (p - 1) // 2
        for y in roots:
            assert abs(sum(c * y ** i for i, c in enumerate(g))) < 1e-9
        for k in range(len(roots)):
            rep = solve_parabolic(pres, which=k)
            r = rep.eval_word(pres.relators[0])
            dev = max(abs(complex(r[i, j] - Matrix.identity(2)[i, j]))
                      for i in range(2) for j in range(2))
            assert dev < 1e-10

    def test_single_generator_is_reducible_only(self):
        pres = Presentation(Alphabet("a"), [])
        with pytest.raises(ReducibleOnly):
            solve_parabolic(pres)

    def test_no_root_when_equation_has_none(self):
        # both meridians forced parabolic around a trivial relator: the
        # Riley polynomial for abAB is y alone, whose only root is reducible
        pres = Presentation(AB, [Word.from_string(AB, "abAB")])
        with pytest.raises((NoRootFound, ReducibleOnly)):
            solve_parabolic(pres)


class TestSerialization:
    def test_round_trip(self):
        rng = rng_for(23, 11)
        rep = rand_rep(rng)
        text = rep_to_text(rep)
        back = rep_from_text(text)
        assert back.alphabet == rep.alphabet
        assert all(back.images[i] == rep.images[i] for i in range(2))
        assert back.sl_flag == rep.sl_flag
        assert rep_to_text(back) == text

    @pytest.mark.parametrize("text, expected", [
        ("alphabet: x\nalphabet: x y\nscalar: rational\nx: 1,0;0,1\n",
         "error: line 2: duplicate 'alphabet'"),
        ("alphabet: x\nscalar: rational\nscalar: complex\nx: 1,0;0,1\n",
         "error: line 3: duplicate 'scalar'"),
        ("alphabet: x\nscalar: rational\nx: 1,0;0,1\nx: 2,0;0,1\n",
         "error: line 4: duplicate 'x'"),
        ("alphabet: x\nscalar: rational\nfoo: 1,0;0,1\n",
         "error: line 3: unknown key 'foo'"),
        ("alphabet: x\nscalar: rational\nsl: maybe\nx: 1,0;0,1\n",
         "error: line 3: sl must be true or false, got 'maybe'"),
        # each matrix is read under the file's scalar kind
        ("alphabet: x\nx: 1.5,0;0,2\nscalar: rational\n",
         "error: line 2: bad rational literal '1.5'"),
        ("alphabet: x\nx: 1,1;0,1\nscalar: complex\n",
         "alphabet: x\nscalar: complex\nx: 1+0i,1+0i;0+0i,1+0i\n"),
        ("x: 1,1;0,1\nsl: true\nalphabet: x\nscalar: rational\n",
         "alphabet: x\nscalar: rational\nsl: true\nx: 1,1;0,1\n"),
    ], ids=range(8))
    def test_reader(self, text, expected):
        try:
            got = rep_to_text(rep_from_text(text))
        except ParseError as exc:
            got = "error: %s" % exc
        assert got == expected

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            rep_from_text("alphabet: x y\nscalar: rational\nsl: false\n")
        with pytest.raises(ParseError):
            rep_from_text("alphabet: x y\nscalar: rational\nsl: false\n"
                          "x: 1,0;0,1\nx: 1,0;0,1\ny: 1,0;0,1\n")
        with pytest.raises(ParseError):
            rep_from_text("alphabet: x\nscalar: rational\nsl: false\n"
                          "x: 1,0;0\n")
