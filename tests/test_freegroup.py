"""Free groups, the integral group ring, and Fox derivatives."""

import pytest

from torsioncert.errors import AlphabetMismatch, ParseError
from torsioncert.freegroup import (
    Alphabet,
    Word,
    fox_derivative,
    parse_ring_elem,
)
from torsioncert.seeds import rng_for

from helpers import RingElem, random_word

XY = Alphabet("x y")
AB = Alphabet("a b")


class TestWord:
    def test_free_reduction(self):
        w = Word.from_string(XY, "xyYXxy")
        assert str(w) == "xy"
        assert Word.from_string(XY, "xX").is_identity()

    def test_round_trip(self):
        rng = rng_for(13, 0)
        for _ in range(50):
            w = random_word(rng, XY)
            assert Word.from_string(XY, str(w)) == w

    def test_group_laws(self):
        rng = rng_for(13, 1)
        for _ in range(50):
            u = random_word(rng, AB)
            v = random_word(rng, AB)
            assert (u * v).inverse() == v.inverse() * u.inverse()
            assert (u * u.inverse()).is_identity()

    def test_exponent_sum(self):
        w = Word.from_string(XY, "xyxYx")
        assert w.exponent_sum()[0] == 3
        assert w.exponent_sum()[1] == 0
        assert w.exponent_sum() == (3, 0)

    def test_cyclic_reduction_flag(self):
        assert Word.from_string(AB, "abAB").is_cyclically_reduced()
        assert not Word.from_string(AB, "Aba").is_cyclically_reduced()
        assert Word.from_string(AB, "").is_cyclically_reduced()

    def test_alphabet_guard(self):
        with pytest.raises(AlphabetMismatch):
            Word.from_string(XY, "x") * Word.from_string(AB, "a")

    def test_unknown_letter(self):
        with pytest.raises(ParseError):
            Word.from_string(XY, "xz")


class TestGroupRing:
    def test_ring_laws(self):
        rng = rng_for(13, 2)
        for _ in range(30):
            def rand_elem():
                e = RingElem.zero(XY)
                for _ in range(rng.randint(0, 3)):
                    e = e + RingElem.from_word(
                        random_word(rng, XY, 4), rng.randint(-3, 3))
                return e
            a, b, c = rand_elem(), rand_elem(), rand_elem()
            assert a + b == b + a
            assert (a + b) * c == a * c + b * c
            assert a * (b * c) == (a * b) * c
            assert a - a == RingElem.zero(XY)

    def test_augmentation_is_ring_hom(self):
        rng = rng_for(13, 3)
        for _ in range(30):
            a = RingElem.from_word(random_word(rng, XY, 5), rng.randint(-4, 4))
            b = RingElem.from_word(random_word(rng, XY, 5), rng.randint(-4, 4))
            s = a + b
            p = a * b
            assert s.augmentation() == a.augmentation() + b.augmentation()
            assert p.augmentation() == a.augmentation() * b.augmentation()

    def test_parse_round_trip(self):
        samples = [
            "1 + y*x - y*x*y*X*Y",
            "- 2 + 3*x",
            "x - X",
            "0",
        ]
        for text in samples:
            e = parse_ring_elem(XY, text)
            assert parse_ring_elem(XY, str(e)) == e

    def test_parse_rejects_garbage(self):
        with pytest.raises(ParseError):
            parse_ring_elem(XY, "2 +")
        with pytest.raises(ParseError):
            parse_ring_elem(XY, "q")
        # a sign right after a star does not split: no x - y here
        with pytest.raises(ParseError):
            parse_ring_elem(XY, "x*-y")
        # malformed coefficients: a zero denominator, a slash without a
        # number on one side, a doubled slash
        for text in ("1/0*x", "/x", "2/*x", "1//2*x"):
            with pytest.raises(ParseError):
                parse_ring_elem(XY, text)
        # a group-ring coefficient has no decimal form, bounded or not
        for text in ("0.5*x", "1e3*x", "1e4000000*x"):
            with pytest.raises(ParseError, match="not in alphabet"):
                parse_ring_elem(XY, text)


class TestFoxCalculus:
    def test_generator_rules(self):
        x = Word.from_string(XY, "x")
        xinv = Word.from_string(XY, "X")
        assert fox_derivative(x, 0) == RingElem.one(XY)
        assert fox_derivative(x, 1) == RingElem.zero(XY)
        assert fox_derivative(xinv, 0) == RingElem.from_word(xinv, -1)

    def test_known_values(self):
        w = Word.from_string(XY, "yxyXY")
        assert str(fox_derivative(w, 1)) == "1 + y*x - y*x*y*X*Y"
        assert str(fox_derivative(w, 0)) == "y - y*x*y*X"
        v = Word.from_string(XY, "xyX")
        assert str(fox_derivative(v, 1)) == "x"
        assert str(fox_derivative(v, 0)) == "1 - x*y*X"

    def test_product_rule(self):
        rng = rng_for(13, 4)
        for _ in range(60):
            u = random_word(rng, XY)
            v = random_word(rng, XY)
            for j in (0, 1):
                lhs = fox_derivative(u * v, j)
                rhs = RingElem.of(fox_derivative(u, j)) + \
                    RingElem.from_word(u) * fox_derivative(v, j)
                assert lhs == rhs

    def test_fundamental_formula(self):
        # sum_i d(w)/dx_i * (x_i - 1) recovers w - 1 in the group ring
        rng = rng_for(13, 5)
        for _ in range(60):
            w = random_word(rng, XY, 10)
            total = RingElem.zero(XY)
            for j in (0, 1):
                gen = RingElem.from_word(Word(XY, (j + 1,)))
                total = total + RingElem.of(fox_derivative(w, j)) * (
                    gen - RingElem.one(XY))
            assert total == RingElem.from_word(w) - RingElem.one(XY)
