"""Laurent polynomials in t and exact multivariate polynomials."""

import cmath
import time
from fractions import Fraction

import pytest

from torsioncert.errors import (DivisionByZero, InexactDivision,
                                MixedScalarKind, NonFinite, NotSquare,
                                ParseError, TorsionCertError,
                                ZeroDenominator)
from torsioncert.polynomial import (
    _newton_run,
    LaurentPoly,
    MultiPoly,
    aberth_roots,
    horner_within_rounding,
    inclusion_radius,
    int_poly_gcd,
    laurent_str,
    laurent_unit_match,
    left_root_count,
    mp_divexact,
    mp_gcd,
    multi_str,
    newton_basin_radius,
    parse_laurent,
    parse_multi,
    poly_matrix_det,
    primitive_normalize,
    rational_degree,
    resultant_in_u,
    squarefree_part,
)
from torsioncert.scalar import (MAX_EXPONENT, ComplexF, QuadExt,
                                set_zero_tolerance)
from torsioncert.seeds import rng_for

from helpers import perm_det, power

sympy = pytest.importorskip("sympy")


def rand_laurent(rng, span=3, coeff=4):
    coeffs = {}
    for _ in range(rng.randint(0, 4)):
        coeffs[rng.randint(-span, span)] = Fraction(rng.randint(-coeff, coeff))
    return LaurentPoly(coeffs)


def rand_multi(rng, nvars=2, nterms=3, deg=2):
    names = ("x", "y", "z", "u")[:nvars]
    p = MultiPoly.zero()
    for _ in range(rng.randint(0, nterms)):
        term = MultiPoly.constant(Fraction(rng.randint(-4, 4)))
        for nm in names:
            term = term * power(MultiPoly.variable(nm), rng.randint(0, deg))
        p = p + term
    return p


def to_sympy_laurent(p, t):
    expr = sympy.Integer(0)
    for e, c in p.coeffs.items():
        expr += sympy.Rational(c) * t ** e
    return expr


def to_sympy_multi(p, syms):
    expr = sympy.Integer(0)
    for ex, c in p.terms.items():
        term = sympy.Rational(c)
        for nm, e in zip(("x", "y", "z", "u"), ex):
            term *= syms[nm] ** e
        expr += term
    return expr


SX, SY, SZ, SU, ST = sympy.symbols("x y z u t")
SYMS = {"x": SX, "y": SY, "z": SZ, "u": SU}


def rand_rational_multi(rng, nvars=2, nterms=3, deg=2):
    """A random MultiPoly whose coefficients are ints or Fractions."""
    p = MultiPoly.zero()
    for _ in range(rng.randint(0, nterms)):
        term = MultiPoly.constant(Fraction(rng.randint(-6, 6),
                                           rng.choice((1, 1, 2, 3))))
        for nm in ("x", "y", "z", "u")[:nvars]:
            term = term * power(MultiPoly.variable(nm), rng.randint(0, deg))
        p = p + term
    return p


def stored_canonically(p):
    """Every coefficient an int, or a Fraction that is not integral."""
    return all(type(c) is int
               or (type(c) is Fraction and c.denominator != 1)
               for c in p.terms.values())


class TestLaurentPoly:
    def test_known_product(self):
        p = parse_laurent("t - 1") * parse_laurent("t^2 + t + 1")
        assert p == parse_laurent("t^3 - 1")

    def test_ring_laws(self):
        rng = rng_for(19, 0)
        for _ in range(30):
            a, b, c = (rand_laurent(rng) for _ in range(3))
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c
            assert (a * b) * c == a * (b * c)

    def test_shift_and_pow(self):
        p = parse_laurent("1 + t")
        assert p.shift(-2) == parse_laurent("t^-2 + t^-1")
        assert p * p * p == parse_laurent("1 + 3*t + 3*t^2 + t^3")

    def test_degree_span(self):
        p = parse_laurent("t^-2 + 5*t^3")
        assert p.min_degree() == -2 and max(p.coeffs) == 3
        assert p.degree_span() == 5
        assert LaurentPoly.zero().degree_span() == float("-inf")

    def test_trim_float_noise(self):
        p = LaurentPoly({0: ComplexF(1.0), 5: ComplexF(1e-14)})
        assert max(p.trim().coeffs) == 0
        exact = LaurentPoly({0: Fraction(1), 5: Fraction(1, 10 ** 18)})
        assert max(exact.trim().coeffs) == 5

    def test_trim_reads_the_module_tolerance(self):
        p = LaurentPoly({0: ComplexF(1.0), 5: ComplexF(1e-6)})
        assert max(p.trim().coeffs) == 5
        set_zero_tolerance(1e-3)
        assert max(p.trim().coeffs) == 0

    def test_str_parse_round_trip(self):
        rng = rng_for(19, 2)
        for _ in range(30):
            p = rand_laurent(rng)
            assert parse_laurent(laurent_str(p)) == p
        q = LaurentPoly({-1: ComplexF(0.5, -1.0), 2: ComplexF(3.0)})
        back = parse_laurent(laurent_str(q), kind="complex")
        assert all(abs(back.coeffs[e] - q.coeffs[e]).__abs__() < 1e-12
                   for e in (-1, 2))

    def test_rational_degree(self):
        num = parse_laurent("t^-2 + t^2")
        den = parse_laurent("1 - 2*t + t^2")
        assert rational_degree(num, den) == 2
        assert rational_degree(parse_laurent("3"), parse_laurent("t - 1")) == -1

    @pytest.mark.parametrize("num", ["0", "t^-2 + t^2", "(1.5+2i)*t"])
    def test_rational_degree_of_a_zero_denominator(self, num):
        # the zero numerator's sentinel does not pass a zero denominator
        with pytest.raises(ZeroDenominator,
                           match="torsion denominator is the zero polynomial"):
            rational_degree(parse_laurent(num, kind="complex"),
                            LaurentPoly.zero())


class TestLaurentGuards:
    """Arithmetic results skip the exponent check of the public
    constructor, and keep every coefficient check."""

    @pytest.mark.parametrize("op", ["+", "*"])
    def test_quadext_meets_complex(self, op):
        q = LaurentPoly({0: QuadExt(1, 1, 2), 1: 1})
        c = LaurentPoly({0: 1j})
        apply = (lambda a, b: a + b) if op == "+" else (lambda a, b: a * b)
        with pytest.raises(MixedScalarKind,
                           match="^cannot combine quadext and complex "
                                 "coefficients$"):
            apply(q, c)
        with pytest.raises(MixedScalarKind,
                           match="^cannot combine complex and quadext "
                                 "coefficients$"):
            apply(c, q)

    def test_a_product_whose_sum_mixes_kinds(self):
        # every product is defined; adding 1j to sqrt(2) at t^1 is not
        mixed = LaurentPoly({0: QuadExt(0, 1, 2), 1: 1j})
        with pytest.raises(MixedScalarKind,
                           match="^cannot combine quadext and complex "
                                 "coefficients$"):
            mixed * parse_laurent("1 + t")

    @pytest.mark.parametrize("kind", [complex, ComplexF])
    def test_overflowing_product_is_not_finite(self, kind):
        big = LaurentPoly({0: kind(1e200, 1e200), 1: kind(1.0)})
        with pytest.raises(NonFinite):
            big * big
        with pytest.raises(NonFinite):
            big * LaurentPoly({0: kind(1e200)})

    def test_overflowing_float_sum_is_not_finite(self):
        big = LaurentPoly({0: 1e308})
        with pytest.raises(NonFinite):
            big + big
        with pytest.raises(NonFinite):
            big - (-big)

    def test_public_constructor_checks_exponents(self):
        with pytest.raises(TypeError, match="exponent 0.5 is not an integer"):
            LaurentPoly({0.5: 1})
        with pytest.raises(TypeError, match="exponent 1.5 is not an integer"):
            LaurentPoly({1: 1}).shift(0.5)
        with pytest.raises(ValueError, match="bad exponent vector"):
            MultiPoly({(0.5, 0, 0, 0): 1})
        with pytest.raises(ValueError, match="bad exponent vector"):
            MultiPoly({(0, -1, 0, 0): 1})

    def test_zeros_are_dropped(self):
        p = parse_laurent("1 + t")
        assert (p - p).coeffs == {}
        assert (p * parse_laurent("1 - t")).coeffs == {0: 1, 2: -1}
        one = LaurentPoly({0: ComplexF(1.0)})
        assert (one - one).coeffs == {}


class TestUnitMatch:
    def test_exact_match_up_to_units(self):
        p = parse_laurent("1 - t + t^2")
        ok, k, sign = laurent_unit_match(p, p.shift(4))
        assert (ok, k, sign) == (True, -4, 1)
        ok, k, sign = laurent_unit_match(p, (-p).shift(-2))
        assert (ok, k, sign) == (True, 2, -1)
        assert not laurent_unit_match(p, p + parse_laurent("1"))[0]
        assert not laurent_unit_match(p, p + p)[0]

    def test_float_match_with_tol(self):
        p = LaurentPoly({0: ComplexF(1.0), 1: ComplexF(-3.0), 2: ComplexF(1.0)})
        q = LaurentPoly({3: ComplexF(-1.0 + 1e-12), 4: ComplexF(3.0), 5: ComplexF(-1.0)})
        ok, k, sign = laurent_unit_match(p, q)
        assert ok and k == -3 and sign == -1

    def test_float_match_reads_the_module_tolerance(self):
        p = LaurentPoly({0: ComplexF(1.0), 1: ComplexF(2.0)})
        q = LaurentPoly({0: ComplexF(1.0), 1: ComplexF(2.0 + 1e-6)})
        assert not laurent_unit_match(p, q)[0]
        set_zero_tolerance(1e-3)
        assert laurent_unit_match(p, q) == (True, 0, 1)

    def test_zero_cases(self):
        z = LaurentPoly.zero()
        assert laurent_unit_match(z, z)[0]
        assert not laurent_unit_match(z, LaurentPoly.one())[0]


class TestPolyMatrixDet:
    def test_against_permutation_expansion(self):
        rng = rng_for(19, 3)
        for _ in range(20):
            n = rng.randint(1, 3)
            rows = [[rand_laurent(rng, 2, 3) for _ in range(n)] for _ in range(n)]
            assert poly_matrix_det(rows) == perm_det(rows)

    def test_against_sympy(self):
        rng = rng_for(19, 4)
        for _ in range(10):
            n = rng.randint(2, 3)
            rows = [[rand_laurent(rng, 2, 3) for _ in range(n)] for _ in range(n)]
            ours = to_sympy_laurent(poly_matrix_det(rows), ST)
            theirs = sympy.Matrix(
                [[to_sympy_laurent(e, ST) for e in row] for row in rows]).det()
            assert sympy.simplify(ours - theirs) == 0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            poly_matrix_det([])

    def test_non_square_grids_are_not_square(self):
        # a typed error, not an assert, which python -O skips
        t, two = LaurentPoly({1: 1}), LaurentPoly({0: 2})
        for rows in ([[t, two]], [[t], [two]], [[t, two], [two]]):
            with pytest.raises(NotSquare):
                poly_matrix_det(rows)


class TestMultiPoly:
    def test_ring_laws(self):
        rng = rng_for(19, 5)
        for _ in range(25):
            a, b, c = (rand_multi(rng) for _ in range(3))
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c

    def test_evaluate_matches_sympy(self):
        rng = rng_for(19, 6)
        for _ in range(20):
            p = rand_multi(rng, nvars=3)
            pt = {nm: Fraction(rng.randint(-3, 3)) for nm in ("x", "y", "z")}
            ours = p.evaluate((pt["x"], pt["y"], pt["z"], 0))
            theirs = to_sympy_multi(p, SYMS).subs(
                {SYMS[nm]: sympy.Rational(v) for nm, v in pt.items()})
            assert sympy.Rational(ours) == theirs

    def test_derivative_matches_sympy(self):
        rng = rng_for(19, 7)
        for _ in range(15):
            p = rand_multi(rng, nvars=2)
            ours = to_sympy_multi(p.derivative("x"), SYMS)
            theirs = sympy.diff(to_sympy_multi(p, SYMS), SX)
            assert sympy.expand(ours - theirs) == 0

    def test_coeff_in(self):
        p = parse_multi("x^2*z + 3*z^2 - y")
        assert p.coeff_in("z", 1) == parse_multi("x^2")
        assert p.coeff_in("z", 0) == parse_multi("-y")

    def test_str_parse_round_trip(self):
        rng = rng_for(19, 8)
        for _ in range(25):
            p = rand_multi(rng, nvars=3)
            assert parse_multi(multi_str(p)) == p

    def test_integral_coefficients_are_stored_as_ints(self):
        e = (1, 0, 2, 0)
        a, b = MultiPoly({e: Fraction(2)}), MultiPoly({e: 2})
        assert a == b and hash(a) == hash(b) and multi_str(a) == multi_str(b)
        assert type(a.terms[e]) is int
        assert type(MultiPoly({e: Fraction(1, 2)}).terms[e]) is Fraction
        rng = rng_for(19, 12)
        for _ in range(20):
            p, q = rand_rational_multi(rng), rand_rational_multi(rng)
            x = MultiPoly.variable("x")
            for r in (p + q, p - q, p * q, p.scale(Fraction(2, 3)),
                      p.scale(3), p.derivative("x"), p.coeff_in("y", 1),
                      mp_divexact(p * (x + 1), x + 1), -p):
                assert stored_canonically(r)
            if not p.is_zero():
                assert stored_canonically(primitive_normalize(p))
                assert all(type(c) is int
                           for c in primitive_normalize(p).terms.values())
        # 1/2 + 1/2 is the int 1
        half = MultiPoly.constant(Fraction(1, 2))
        assert type((half + half).terms[(0, 0, 0, 0)]) is int

    def test_product_matches_sympy(self):
        rng = rng_for(19, 13)
        for _ in range(25):
            p, q = rand_rational_multi(rng), rand_rational_multi(rng)
            ours = to_sympy_multi(p * q, SYMS)
            theirs = to_sympy_multi(p, SYMS) * to_sympy_multi(q, SYMS)
            assert sympy.expand(ours - theirs) == 0

    def test_grlex_leading_term(self):
        p = parse_multi("x*y + x^3 + y^2")
        ex, c = p.leading_term()
        assert c == 1 and p.degree_in("x") == 3


class TestLiteralSigns:
    @pytest.mark.parametrize("parse, text", [
        (parse_laurent, "1 + t +"), (parse_laurent, "t - "),
        (parse_laurent, "1 ++ t"), (parse_laurent, "1 + + t"),
        (parse_laurent, "--t"), (parse_laurent, "-"),
        (parse_multi, "1 + x +"), (parse_multi, "x - "),
        (parse_multi, "1 ++ x"), (parse_multi, "1 + + x"),
        (parse_multi, "--x"), (parse_multi, "+"),
    ])
    def test_sign_without_a_term_is_rejected(self, parse, text):
        with pytest.raises(ParseError, match="sign without a term"):
            parse(text)

    def test_leading_and_exponent_signs_still_parse(self):
        assert parse_laurent("- 2 + 3*t") == LaurentPoly({0: -2, 1: 3})
        assert parse_laurent("+t") == LaurentPoly({1: 1})
        assert parse_laurent("t^-2") == LaurentPoly({-2: 1})
        assert abs(parse_laurent("1e-5*t").coeffs.get(1, 0) - 1e-5) < 1e-20
        assert parse_laurent("(1.5+0.5i)*t") == \
            LaurentPoly({1: ComplexF(1.5, 0.5)})
        assert parse_multi("- 2*x + y") == \
            MultiPoly.variable("y") - MultiPoly.variable("x").scale(2)

    def test_zero_denominator_is_a_parse_error(self):
        with pytest.raises(ParseError, match="zero denominator"):
            parse_multi("1/0*x")

    def test_coefficients_read_what_fraction_reads(self):
        assert parse_multi("0.5*x") == parse_multi("1/2*x")
        assert parse_multi("1e3*x") == parse_multi("1000*x")
        assert parse_multi("25e-2*x") == parse_multi("1/4*x")

    def test_exponents_up_to_the_bound_read_exactly(self):
        big = parse_multi("1e%d*x" % MAX_EXPONENT)
        assert big == MultiPoly.variable("x").scale(Fraction(10)
                                                    ** MAX_EXPONENT)
        assert parse_multi("1e-%d*x" % MAX_EXPONENT) == \
            MultiPoly.variable("x").scale(Fraction(1, 10 ** MAX_EXPONENT))

    @pytest.mark.parametrize("text", [
        "1e%d*x" % (MAX_EXPONENT + 1), "1e-%d*x" % (MAX_EXPONENT + 1),
        "1e4_301*x", "1e4000000*x", "2 + 1E%s*y" % ("9" * 40)])
    def test_an_exponent_past_the_bound_fails_at_once(self, text):
        # read exactly, 1e4000000 alone builds a 13-million-bit numerator
        t0 = time.perf_counter()
        with pytest.raises(ParseError, match="exponent past 4300"):
            parse_multi(text)
        assert time.perf_counter() - t0 < 0.5


class TestFactorTools:
    def test_resultant_matches_sympy(self):
        rng = rng_for(19, 9)
        checked = 0
        while checked < 12:
            p = rand_multi(rng, nvars=4, nterms=3, deg=2)
            q = rand_multi(rng, nvars=4, nterms=2, deg=2)
            if p.is_zero() or q.is_zero():
                continue
            if p.degree_in("u") <= 0 or q.degree_in("u") <= 0:
                continue
            checked += 1
            ours = to_sympy_multi(resultant_in_u(p, q), SYMS)
            theirs = sympy.resultant(to_sympy_multi(p, SYMS),
                                     to_sympy_multi(q, SYMS), SU)
            assert sympy.expand(ours - theirs) == 0

    def test_gcd_recovers_common_factor(self):
        rng = rng_for(19, 10)
        checked = 0
        while checked < 12:
            g = rand_multi(rng, nvars=2, nterms=2, deg=2)
            a = rand_multi(rng, nvars=2, nterms=2, deg=1)
            b = rand_multi(rng, nvars=2, nterms=2, deg=1)
            if g.is_zero() or g.is_constant() or a.is_zero() or b.is_zero():
                continue
            checked += 1
            ours = to_sympy_multi(mp_gcd(g * a, g * b), SYMS)
            theirs = sympy.gcd(to_sympy_multi(g * a, SYMS),
                               to_sympy_multi(g * b, SYMS))
            # both are content-normalized only up to a rational unit
            quot = sympy.simplify(ours / theirs)
            assert quot.is_rational and quot != 0

    def test_gcd_remainders_are_made_primitive(self):
        # the remainder -3u - 3 loses its content before the next division
        assert mp_gcd(parse_multi("u^2 - 1"),
                      parse_multi("3*u^2 + 3*u")) == parse_multi("u + 1")

    def test_gcd_and_squarefree_part_match_sympy(self):
        rng = rng_for(19, 14)
        checked = 0
        while checked < 12:
            g = rand_rational_multi(rng, nvars=3, nterms=3, deg=2)
            a = rand_rational_multi(rng, nvars=3, nterms=2, deg=1)
            b = rand_rational_multi(rng, nvars=3, nterms=2, deg=1)
            if any(f.is_zero() or f.is_constant() for f in (g, a, b)):
                continue
            checked += 1
            pa, pb = g * a, g * b
            sa, sb = to_sympy_multi(pa, SYMS), to_sympy_multi(pb, SYMS)
            # both sides are fixed up to a rational unit only
            quot = sympy.cancel(to_sympy_multi(mp_gcd(pa, pb), SYMS)
                                / sympy.gcd(sa, sb))
            assert quot.is_rational and quot != 0
            p = pa * g * a
            quot = sympy.cancel(to_sympy_multi(squarefree_part(p), SYMS)
                                / sympy.sqf_part(to_sympy_multi(p, SYMS)))
            assert quot.is_rational and quot != 0

    def test_squarefree_part(self):
        x = MultiPoly.variable("x")
        y = MultiPoly.variable("y")
        p = power(x + y, 3) * (x - 2)
        sf = primitive_normalize(squarefree_part(p))
        assert sf == primitive_normalize((x + y) * (x - 2))

    def test_primitive_normalize(self):
        p = parse_multi("4*x^2 - 8*x")
        q = primitive_normalize(p)
        assert q == parse_multi("x^2 - 2*x")
        assert primitive_normalize(-q) == q


class TestDenseUnivariate:
    def test_int_gcd_matches_sympy(self):
        rng = rng_for(19, 11)
        t = sympy.Symbol("t")
        for _ in range(30):
            g, a, b = ([rng.randint(-4, 4) for _ in range(rng.randint(1, 4))]
                       for _ in range(3))
            pa = sympy.Poly(g[::-1], t) * sympy.Poly(a[::-1], t)
            pb = sympy.Poly(g[::-1], t) * sympy.Poly(b[::-1], t)
            ours = int_poly_gcd(pa.all_coeffs()[::-1], pb.all_coeffs()[::-1])
            theirs = sympy.gcd(pa, pb)
            if theirs.is_zero:
                assert ours == []
                continue
            theirs = theirs.primitive()[1]
            if theirs.LC() < 0:
                theirs = -theirs
            assert ours == [int(c) for c in theirs.all_coeffs()[::-1]]

    def test_int_gcd_normalization(self):
        assert int_poly_gcd([], [0, 0]) == []
        assert int_poly_gcd([], [-4, -6, 0]) == [2, 3]
        assert int_poly_gcd([2, 2], [4, 4]) == [1, 1]
        assert int_poly_gcd([1, 1], [1, -1]) == [1]
        # (y - 1)^2 (y + 2) against its derivative leaves y - 1
        g = [2, -3, 0, 1]
        assert int_poly_gcd(g, [-3, 0, 3]) == [-1, 1]

    def test_newton_polish_and_root_test(self):
        # y^2 + y + 1 from near its root exp(2 pi i / 3)
        coeffs = [1 + 0j, 1 + 0j, 1 + 0j]
        dcoeffs = [1 + 0j, 2 + 0j]
        y = _newton_run(coeffs, dcoeffs, complex(0, 1), 80, 1e-15, None)[0]
        assert y == pytest.approx(complex(-0.5, 3 ** 0.5 / 2), abs=1e-15)
        assert horner_within_rounding(coeffs, y)
        assert not horner_within_rounding(coeffs, y + 1e-9)
        # a capped iteration is returned unconverged, and the test says so
        far = _newton_run(coeffs, dcoeffs, complex(3, 3), 2, 1e-15, None)[0]
        assert not horner_within_rounding(coeffs, far)
        assert horner_within_rounding([0j, 1 + 0j], 0j)

    def test_newton_polish_stops_inside_a_basin(self):
        coeffs = [1 + 0j, 1 + 0j, 1 + 0j]
        dcoeffs = [1 + 0j, 2 + 0j]
        r = complex(-0.5, 3 ** 0.5 / 2)
        rho = newton_basin_radius(coeffs, r)
        basins = [(r, rho)]
        start = r + 0.5 * rho
        assert _newton_run(coeffs, dcoeffs, start, 80, 1e-15,
                           basins)[0] is None
        # with fewer than six steps left the run goes on to its end
        y = _newton_run(coeffs, dcoeffs, start, 5, 1e-15, basins)[0]
        assert y == pytest.approx(r, abs=1e-12)
        # a run that never enters a radius is the plain run
        far = complex(3, -3)
        assert _newton_run(coeffs, dcoeffs, far, 80, 1e-15, basins)[0] \
            == _newton_run(coeffs, dcoeffs, far, 80, 1e-15, None)[0]

    def test_aberth_roots_match_an_oracle(self):
        # seeded polynomials of degree 1..8 against mpmath at 200 extra bits
        mpmath = pytest.importorskip("mpmath")
        for coeffs in aberth_cases(rng_for(23, 18)):
            deg = len(coeffs) - 1
            roots = aberth_roots(coeffs)
            assert len(roots) == deg
            assert all(cmath.isfinite(r) for r in roots)
            dcoeffs = [k * c for k, c in enumerate(coeffs)][1:]
            polished = [_newton_run(coeffs, dcoeffs, r, 40, 1e-14, None)[0]
                        for r in roots]
            oracle = [complex(r) for r in mpmath.polyroots(
                coeffs[::-1], maxsteps=500, extraprec=200)]
            oracle = [(r, sum(abs(s - r) < 1e-6 * max(1.0, abs(r))
                              for s in oracle)) for r in oracle]
            for r in polished:
                assert_matches_one(r, oracle)
            assert oracle == []

    def test_left_root_count_matches_an_oracle(self):
        # seeded integer polynomials of degree 1..23 at dyadic lines,
        # against the real parts of mpmath's roots
        mpmath = pytest.importorskip("mpmath")
        rng = rng_for(37, 23)
        decided = tried = 0
        for deg in range(1, 24):
            g = [rng.randint(-9, 9) for _ in range(deg)] + [
                rng.choice((-3, -2, -1, 1, 2, 3))]
            reals = [float(mpmath.re(r)) for r in mpmath.polyroots(
                g[::-1], maxsteps=200, extraprec=60)]
            for k in (0, 3, 12):
                for _ in range(4):
                    a = rng.randint(-3 << k, 3 << k)
                    c = a / 2 ** k
                    if any(abs(x - c) < 1e-9 for x in reals):
                        continue
                    tried += 1
                    count = left_root_count(g, a, k)
                    if count is not None:
                        decided += 1
                        assert count == sum(x < c for x in reals), (g, a, k)
        assert decided >= 0.9 * tried

    def test_left_root_count_decides_nothing_on_the_line(self):
        # y^2 + 1 has both roots on Re y = 0, y^2 - 1 one root on each side
        # but a zero entry in its Routh column
        assert left_root_count([1, 0, 1], 0, 0) is None
        assert left_root_count([-1, 0, 1], 0, 0) is None
        assert left_root_count([-1, 0, 1], 1, 1) == 1
        assert left_root_count([1, 0, 1], 1, 4) == 2
        assert left_root_count([1, 0, 1], -1, 4) == 0
        assert left_root_count([5], 0, 0) == 0

    def test_inclusion_radius_holds_a_root(self):
        # near each root of a seeded polynomial, and at the root's float,
        # the disk of the inclusion radius holds a root
        mpmath = pytest.importorskip("mpmath")
        rng = rng_for(41, 23)
        for deg in (1, 4, 9, 16):
            g = [rng.randint(-9, 9) for _ in range(deg)] + [1]
            roots = [complex(r) for r in mpmath.polyroots(
                g[::-1], maxsteps=200, extraprec=60)]
            coeffs = [complex(c) for c in g]
            dcoeffs = [i * c for i, c in enumerate(coeffs)][1:]
            for r in roots:
                for e in (0.0, 1e-12, 1e-6 * (1 + 1j), 0.1j):
                    y = r + e
                    rad = inclusion_radius(coeffs, dcoeffs, y)
                    assert min(abs(y - z) for z in roots) <= rad
                assert inclusion_radius(coeffs, dcoeffs, r) < 1e-6
        # at a double root the derivative bound does not clear 0
        assert inclusion_radius([1 + 0j, -2 + 0j, 1 + 0j], [-2 + 0j, 2 + 0j],
                                1 + 0j) == float("inf")

    def test_aberth_roots_of_a_polynomial_with_only_zero_roots(self):
        assert aberth_roots([0j, 0j, 0j, 2 + 0j]) == [0j, 0j, 0j]
        assert aberth_roots([0j, 3 + 0j]) == [0j]


def from_roots(roots, lead=1):
    """Coefficients, low degree first, of lead * prod (y - r)."""
    coeffs = [complex(lead)]
    for r in roots:
        coeffs = [0j] + coeffs
        for i in range(len(coeffs) - 1):
            coeffs[i] -= r * coeffs[i + 1]
    return coeffs


def aberth_cases(rng):
    yield from_roots([1, 1, 1, 1])
    yield from_roots([2, 2, -1, 0.5j])
    yield from_roots([0, 0, 1.5, -2 + 1j])
    yield from_roots([1e-3, -1e3, 7, 0.25j], lead=1e-6)
    for _ in range(60):
        deg = rng.randint(1, 8)
        # magnitudes from 1e-6 to 1e6; real coefficients half the time
        real = rng.random() < 0.5
        coeffs = [cmath.rect(10 ** rng.uniform(-6, 6),
                             rng.choice((0, cmath.pi)) if real
                             else rng.uniform(-cmath.pi, cmath.pi))
                  for _ in range(deg + 1)]
        if rng.random() < 0.3:
            coeffs[0] = 0j
        yield coeffs


def assert_matches_one(r, oracle):
    """Remove from ``oracle``, a list of (root, multiplicity) pairs, the
    root nearest to r, which must lie within 1e-9 * max(1, |r|), or its
    m-th root for an m-fold root: a rounding perturbation e moves an m-fold
    root by about e^(1/m)."""
    scale = max(1.0, abs(r))
    near = min(oracle, key=lambda p: abs(p[0] - r))
    assert abs(near[0] - r) <= 1e-9 ** (1.0 / near[1]) * scale, (r, near)
    oracle.remove(near)


def test_divexact_divides_exactly():
    x, y = MultiPoly.variable("x"), MultiPoly.variable("y")
    one = MultiPoly.constant(1)
    third = mp_divexact(x + one, x.scale(3) + MultiPoly.constant(3))
    assert third == MultiPoly.constant(Fraction(1, 3))
    assert type(third.terms[(0, 0, 0, 0)]) is Fraction
    # quotients far beyond the float range, with non-dyadic coefficients
    big = 10 ** 400
    for quot in (x * y + MultiPoly.constant(big) - y.scale(3 * big + 1),
                 x.scale(Fraction(big, 7)) + y.scale(Fraction(1, 3 * big))):
        divisor = x.scale(big) + y - MultiPoly.constant(Fraction(big, 11))
        assert mp_divexact(quot * divisor, divisor) == quot
    p = power(x - MultiPoly.constant(big), 2) * (y + one)
    assert squarefree_part(p) == primitive_normalize(
        (x - MultiPoly.constant(big)) * (y + one))


def test_divexact_raises_typed_errors():
    x, y = MultiPoly.variable("x"), MultiPoly.variable("y")
    assert mp_divexact(x * y - x, y - MultiPoly.constant(1)) == x
    with pytest.raises(InexactDivision) as err:
        mp_divexact(x + y, x)
    assert isinstance(err.value, TorsionCertError)
    assert isinstance(err.value, ArithmeticError)
    with pytest.raises(DivisionByZero) as err:
        mp_divexact(x, MultiPoly.zero())
    assert isinstance(err.value, TorsionCertError)
    assert isinstance(err.value, ZeroDivisionError)
