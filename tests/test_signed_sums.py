"""One reader for signed sums: ``scalar.split_sum`` reads what
``scalar.sum_str`` prints, for group-ring, Laurent and multivariate
literals alike."""

from fractions import Fraction

import pytest

from torsioncert.errors import ParseError
from torsioncert.freegroup import Alphabet, GroupRingElem, parse_ring_elem
from torsioncert.polynomial import (LaurentPoly, MultiPoly, laurent_str,
                                    multi_str, parse_laurent, parse_multi)
from torsioncert.scalar import (ComplexF, QuadExt, integral_to_int,
                                split_sum, sum_str)
from torsioncert.seeds import rng_for

from helpers import random_fraction, random_word


class TestSplitSum:
    @pytest.mark.parametrize("text, terms", [
        ("a", [(1, "a")]),
        ("-a + b - c", [(-1, "a"), (1, "b"), (-1, "c")]),
        ("+ 2*t^-3", [(1, "2*t^-3")]),
        ("(1.5-2i)*t - 1", [(1, "(1.5-2i)*t"), (-1, "1")]),
        ("1.5e-3*t + 2E+4", [(1, "1.5e-3*t"), (1, "2E+4")]),
        ("e - f + x*E - 1", [(1, "e"), (-1, "f"), (1, "x*E"), (-1, "1")]),
        ("x*-y", [(1, "x*-y")]),
    ])
    def test_terms(self, text, terms):
        assert split_sum(text) == terms

    @pytest.mark.parametrize("text", ["", "-", "a +", "a + + b", "--a"])
    def test_sign_without_a_term(self, text):
        with pytest.raises(ParseError, match="sign without a term"):
            split_sum(text)

    def test_reads_what_sum_str_prints(self):
        rng = rng_for(29, 0)
        for _ in range(200):
            pairs = [(rng.random() < 0.5, rng.choice(["a", "2*b", "(1-i)*t",
                                                      "E", "3/4*e*f"]))
                     for _ in range(rng.randint(1, 5))]
            assert split_sum(sum_str(pairs)) == [
                (-1 if neg else 1, body) for neg, body in pairs]


def test_integral_to_int():
    assert type(integral_to_int(Fraction(6, 3))) is int
    assert integral_to_int(Fraction(6, 3)) == 2
    assert integral_to_int(Fraction(1, 2)) == Fraction(1, 2)
    for x in (3, ComplexF(2.0), QuadExt(1, 1, 2)):
        assert integral_to_int(x) is x


def _random_ring_elem(rng, alphabet):
    terms = {}
    for _ in range(rng.randint(0, 5)):
        w = random_word(rng, alphabet)
        terms[w] = terms.get(w, 0) + rng.choice(
            [rng.randint(-4, 4), random_fraction(rng, 5, 3)])
    return GroupRingElem(alphabet, terms)


class TestRoundTrips:
    """Every printed element parses back to itself."""

    @pytest.mark.parametrize("names", ["x y", "d e f", "a b c e"])
    def test_group_ring(self, names):
        # the generator e and its inverse E are letters, not exponents
        alphabet = Alphabet(names)
        rng = rng_for(29, 1)
        for _ in range(200):
            elem = _random_ring_elem(rng, alphabet)
            assert parse_ring_elem(alphabet, str(elem)) == elem

    def test_laurent(self):
        rng = rng_for(29, 2)
        kinds = [lambda: rng.randint(-5, 5),
                 lambda: random_fraction(rng, 7, 4),
                 lambda: QuadExt(random_fraction(rng, 3, 2),
                                 random_fraction(rng, 3, 2), 7),
                 lambda: ComplexF(rng.uniform(-9, 9) * 10.0 ** rng.randint(
                     -30, 30), rng.uniform(-2, 2))]
        for _ in range(200):
            coeff = rng.choice(kinds)
            p = LaurentPoly({rng.randint(-4, 4): coeff()
                             for _ in range(rng.randint(0, 4))})
            assert parse_laurent(laurent_str(p)) == p

    def test_multi(self):
        rng = rng_for(29, 3)
        for _ in range(200):
            terms = {}
            for _ in range(rng.randint(0, 5)):
                ex = tuple(rng.randint(0, 3) for _ in range(4))
                terms[ex] = random_fraction(rng, 9, 4)
            p = MultiPoly(terms)
            assert parse_multi(multi_str(p)) == p

