"""Trace characters, exact lifts, and the elimination of the base locus."""

import time
import warnings
from fractions import Fraction

import pytest

from torsioncert.charvar import (
    Character,
    commutator_trace,
    eliminate_L2,
    is_reducible_character,
    lift,
    locus_det_with_scale,
    locus_polynomial,
    locus_verify,
    parse_character,
    sym_fox_grid,
)
from torsioncert.errors import (
    DegenerateInput,
    EliminationDegenerate,
    IrreducibilityWarning,
)
from torsioncert.freegroup import Alphabet, Word
from torsioncert.linalg import det
from torsioncert.polynomial import parse_multi
from torsioncert.scalar import zero_test
from torsioncert.seeds import rng_for
from torsioncert.suturedcert import SuturedHandlebodyData, pants_example

from helpers import conjugated, random_fraction

XY = Alphabet("x y")


def rand_char(rng):
    return Character(random_fraction(rng, 8, 4), random_fraction(rng, 8, 4),
                     random_fraction(rng, 8, 4))


class TestCharacter:
    def test_parse_round_trip(self):
        c = parse_character("(4, 4, 5)")
        assert c.as_tuple() == (Fraction(4), Fraction(4), Fraction(5))
        assert parse_character("(-1/2, 3, 0)").as_tuple() == \
            (Fraction(-1, 2), Fraction(3), Fraction(0))

    def test_parse_rejects_garbage(self):
        with pytest.raises(Exception):
            parse_character("(1, 2)")
        with pytest.raises(Exception):
            parse_character("1, 2, 3, 4")

    def test_kind(self):
        assert Character(1, 2, 3).kind == "rational"
        assert Character(0.5, 1.0, 2.0).kind == "complex"


class TestLift:
    def test_traces_recovered_exactly(self):
        rng = rng_for(29, 0)
        for _ in range(25):
            c = rand_char(rng)
            rep = lift(c, warn=False)
            got_x = rep.eval_word(Word.from_string(XY, "x")).trace()
            got_y = rep.eval_word(Word.from_string(XY, "y")).trace()
            got_z = rep.eval_word(Word.from_string(XY, "xy")).trace()
            assert got_x == c.xbar and got_y == c.ybar and got_z == c.zbar
            for g in range(2):
                assert det(rep.images[g]) == 1

    def test_double_root_character(self):
        # zbar^2 = 4 makes the eigenvalue equation degenerate; the lift
        # must still exist with u = zbar/2
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IrreducibilityWarning)
            rep = lift(Character(2, 2, 2))
        assert rep.eval_word(Word.from_string(XY, "xy")).trace() == 2

    def test_float_characters(self):
        rep = lift(Character(0.5, -1.25, 3.0), warn=False)
        tr = rep.eval_word(Word.from_string(XY, "xy")).trace()
        assert abs(complex(tr) - 3.0) < 1e-10

    def test_reducible_warns(self):
        with pytest.warns(IrreducibilityWarning):
            lift(Character(2, 2, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lift(Character(4, 4, 5))

    def test_commutator_trace_matches_lift(self):
        rng = rng_for(29, 1)
        comm = Word.from_string(XY, "xyXY")
        for _ in range(20):
            c = rand_char(rng)
            expect = commutator_trace(c)
            rep = lift(c, warn=False)
            assert rep.eval_word(comm).trace() == expect

    def test_reducibility_is_commutator_trace_two(self):
        assert is_reducible_character(Character(2, 2, 2))
        assert not is_reducible_character(Character(4, 4, 5))
        assert not is_reducible_character(Character(3, 3, 3))
        assert commutator_trace(Character(4, 4, 5)) == -25


class TestLocusDet:
    def test_frozen_values(self):
        data = pants_example()
        assert locus_det_with_scale(Character(4, 4, 5), data)[0] == 0
        assert locus_det_with_scale(Character(0, 0, 0), data)[0] == 3
        assert locus_det_with_scale(Character(3, 3, 3), data)[0] == 0

    def test_plane_membership_exact(self):
        rng = rng_for(29, 2)
        data = pants_example()
        hits = 0
        for _ in range(60):
            x = random_fraction(rng, 8, 4)
            y = random_fraction(rng, 8, 4)
            if rng.random() < 0.5:
                z = x + y - 3
                hits += 1
            else:
                z = x + y - 3 + rng.choice([1, -1, Fraction(1, 7)])
            d = locus_det_with_scale(Character(x, y, z), data)[0]
            assert (d == 0) == (z == x + y - 3)
        assert hits > 5

    def test_point_in_higher_loci(self):
        data = pants_example()
        c = Character(2, 2, 1)
        for N in range(2, 6):
            assert zero_test(locus_det_with_scale(c, data, N=N)[0])

    def test_conjugation_invariance(self):
        # the eigenvalue branch choice in the lift only changes the rep by
        # conjugation, and conjugation cannot move the determinant
        rng = rng_for(29, 3)
        data = pants_example()
        for _ in range(15):
            c = rand_char(rng)
            rep = lift(c, warn=False)
            alt = conjugated(rep, rep.images[1])
            from torsioncert.suturedcert import fox_matrix
            d1 = det(fox_matrix(data, rep))
            d2 = det(fox_matrix(data, alt))
            assert d1 == d2


class TestEliminateL2:
    def test_pants_gives_the_plane(self):
        poly = eliminate_L2(pants_example())
        assert poly == parse_multi("x + y - z - 3")

    def test_identity_inclusion_has_empty_locus(self):
        data = SuturedHandlebodyData(
            Alphabet("x y"),
            [Word.from_string(XY, "x"), Word.from_string(XY, "y")])
        assert eliminate_L2(data) == parse_multi("1")

    def test_single_generator_image(self):
        data = SuturedHandlebodyData(
            Alphabet("x y"),
            [Word.from_string(XY, "x"), Word.from_string(XY, "yxY")])
        assert eliminate_L2(data) == parse_multi("x - 2")

    def test_degenerate_image_rejected(self):
        data = SuturedHandlebodyData(
            Alphabet("x y"),
            [Word.from_string(XY, ""), Word.from_string(XY, "y")])
        with pytest.raises(EliminationDegenerate):
            eliminate_L2(data)

    def test_rank_mismatch_rejected(self):
        abc = Alphabet("x y z")
        data = SuturedHandlebodyData(
            abc, [Word.from_string(abc, "x"), Word.from_string(abc, "y"),
                  Word.from_string(abc, "z")])
        with pytest.raises(DegenerateInput):
            eliminate_L2(data)

    def test_sampling_agreement(self):
        # the eliminated polynomial vanishes exactly where the determinant does
        rng = rng_for(29, 4)
        data = SuturedHandlebodyData(
            Alphabet("x y"),
            [Word.from_string(XY, "xy"), Word.from_string(XY, "yx")])
        poly = eliminate_L2(data)
        for _ in range(40):
            c = rand_char(rng)
            dval = locus_det_with_scale(c, data)[0]
            pval = poly.evaluate((c.xbar, c.ybar, c.zbar, 0))
            assert (dval == 0) == (pval == 0)

    def test_longer_images_match_sympy(self):
        # with the integer content left in its pseudo-remainders, mp_gcd
        # ran past 60 s on these images
        sympy = pytest.importorskip("sympy")
        from sympy.polys.matrices import DomainMatrix
        data = SuturedHandlebodyData(
            XY, [Word.from_string(XY, "XXY"),
                 Word.from_string(XY, "YXYxxY")])
        t0 = time.perf_counter()
        poly = eliminate_L2(data)
        elapsed = time.perf_counter() - t0
        gens = sympy.symbols("x y z u")
        z, u = gens[2:]

        def as_sympy(p):
            return sympy.Poly.from_dict(
                {ex: sympy.Rational(c.numerator, c.denominator)
                 for ex, c in p.terms.items()}, *gens)

        # sympy's own determinant of the certificate grid, reduced modulo
        # u^2 - z u + 1; it has no u term left, so no resultant is needed
        grid = DomainMatrix.from_Matrix(sympy.Matrix(
            [[as_sympy(e).as_expr() for e in row]
             for row in sym_fox_grid(data)]))
        full = sympy.Poly(grid.domain.to_sympy(grid.det()), u).rem(
            sympy.Poly(u ** 2 - z * u + 1, u))
        assert full.degree() == 0
        expect = sympy.sqf_part(sympy.Poly(full.as_expr(), *gens))
        assert as_sympy(poly).monic() == expect.monic()
        assert elapsed < 10


class TestLocusPolynomials:
    def test_known_point_memberships(self):
        pt = (Fraction(2), Fraction(2), Fraction(1), 0)
        assert locus_polynomial(2).evaluate(pt) == 0
        assert locus_polynomial(3).evaluate(pt) == 0
        assert locus_polynomial(4).evaluate(pt) == 0

    def test_l3_off_locus_value(self):
        assert locus_polynomial(3).evaluate((4, 4, 5, 0)) == 56

    def test_l2_is_the_plane(self):
        assert locus_polynomial(2) == parse_multi("x + y - z - 3")

    def test_unknown_index_rejected(self):
        with pytest.raises(Exception):
            locus_polynomial(5)


class TestLocusVerify:
    def test_small_clean_run(self):
        report = locus_verify(3, samples=20, seed=11)
        assert report.ok()
        assert report.on_checked == 40 and report.on_passed == 40
        assert report.off_checked == 40 and report.off_passed == 40

    def test_corrupt_run_fails(self):
        report = locus_verify(3, samples=10, seed=11, corrupt=True)
        assert not report.ok()
        assert report.on_passed < report.on_checked
        assert report.failures

    def test_deterministic(self):
        a = locus_verify(4, samples=8, seed=5)
        b = locus_verify(4, samples=8, seed=5)
        assert a.on_passed == b.on_passed and a.off_passed == b.off_passed
        assert a.ok() and b.ok()
