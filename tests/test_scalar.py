"""Scalar tower: quadratic extensions, checked complex floats, zero tests."""

import math
import time
from fractions import Fraction

import pytest

from torsioncert import scalar as scalar_module
from torsioncert.charvar import Character, lift
from torsioncert.errors import (DivisionByZero, FactorBound, MixedExtension,
                               NonFinite, ParseError)
from torsioncert.linalg import Matrix
from torsioncert.polynomial import LaurentPoly
from torsioncert.scalar import (
    TRIAL_BOUND,
    ComplexF,
    QuadExt,
    conic_point,
    hilbert_symbol,
    kind_of,
    magnitude,
    parse_scalar,
    scalar_str,
    sqrt_decompose,
    sum_str,
    to_complex,
    zero_test,
)
from torsioncert.seeds import rng_for

from helpers import conjugate, random_fraction


class TestQuadExt:
    def test_known_inverse(self):
        # (1 + sqrt(-3))^-1 = 1/4 - (1/4) sqrt(-3)
        x = QuadExt(1, 1, -3)
        inv = x.inverse()
        assert inv == QuadExt(Fraction(1, 4), Fraction(-1, 4), -3)
        assert x * inv == QuadExt(1, 0, -3)

    def test_norm_formula(self):
        rng = rng_for(11, 0)
        for _ in range(50):
            a = random_fraction(rng)
            b = random_fraction(rng)
            d = rng.choice([-3, -1, 2, 5, 21])
            x = QuadExt(a, b, d)
            assert x * conjugate(x) == QuadExt(a * a - d * b * b, 0, d)

    def test_field_axioms_sampled(self):
        rng = rng_for(11, 1)
        for _ in range(40):
            d = rng.choice([-3, 5])
            x = QuadExt(random_fraction(rng), random_fraction(rng), d)
            y = QuadExt(random_fraction(rng), random_fraction(rng), d)
            z = QuadExt(random_fraction(rng), random_fraction(rng), d)
            assert x + y == y + x
            assert x * y == y * x
            assert (x + y) + z == x + (y + z)
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z
            if y != QuadExt(0, 0, d):
                assert (x / y) * y == x

    def test_division_and_pow(self):
        x = QuadExt(2, 1, 5)
        assert x.inverse() * x.inverse() == (x * x).inverse()
        with pytest.raises(ZeroDivisionError):
            QuadExt(0, 0, 5).inverse()

    def test_mixed_extension_rejected(self):
        with pytest.raises(MixedExtension):
            QuadExt(1, 1, 5) + QuadExt(1, 1, -3)
        # the guard is strict even when one side is rationally embedded;
        # promotion across extensions happens above the scalar layer
        with pytest.raises(MixedExtension):
            QuadExt(2, 0, 5) + QuadExt(1, 1, -3)
        assert QuadExt(2, 0, 5) + Fraction(1) == QuadExt(3, 0, 5)

    def test_discriminant_must_be_an_int_even_when_cached(self):
        QuadExt(1, 1, 7)
        with pytest.raises(ValueError):
            QuadExt(1, 1, 7.0)

    def test_rational_embedding_eq_hash(self):
        assert QuadExt(Fraction(3, 2), 0, 5) == Fraction(3, 2)
        assert hash(QuadExt(2, 0, -3)) == hash(Fraction(2))

    def test_numeric_value(self):
        x = QuadExt(1, 2, 5)
        assert to_complex(x) == pytest.approx(1 + 2 * math.sqrt(5))
        y = QuadExt(0, 1, -3)
        assert to_complex(y) == pytest.approx(1j * math.sqrt(3))


# -- QuadExt against a Fraction-pair reference ------------------------------

def _ref_mul(x, y, d):
    return (x[0] * y[0] + x[1] * y[1] * d, x[0] * y[1] + x[1] * y[0])


def _ref_norm(x, d):
    return x[0] * x[0] - d * x[1] * x[1]


def _ref_inverse(x, d):
    n = _ref_norm(x, d)
    return (x[0] / n, -x[1] / n)


def _ref_str(x, d):
    a, b = x
    if b == 0:
        return str(a)
    root = "sqrt(%d)" % d
    bpart = root if abs(b) == 1 else "%s*%s" % (abs(b), root)
    if a == 0:
        return bpart if b > 0 else "-" + bpart
    return "%s %s %s" % (a, "+" if b > 0 else "-", bpart)


def _pair(v):
    """A rational operand as a Fraction pair."""
    return (Fraction(v), Fraction(0))


def _check(x, ref, d):
    """x equals the reference pair and keeps the stored invariants."""
    assert isinstance(x, QuadExt) and x.d == d
    p, q, den = x._p, x._q, x._den
    assert type(p) is int and type(q) is int and type(den) is int
    assert den > 0 and math.gcd(p, q, den) == 1
    assert (x.a, x.b) == ref
    assert type(x.a) is Fraction and type(x.b) is Fraction
    assert bool(x) == (ref != (0, 0))
    assert str(x) == _ref_str(ref, d)
    assert repr(x) == "QuadExt(%r, %r, %d)" % (ref[0], ref[1], d)
    assert hash(x) == (hash(ref[0]) if ref[1] == 0
                       else hash((ref[0], ref[1], d)))


def _random_pair(rng):
    # zeros often enough to hit the rational embedding and zero itself
    a = random_fraction(rng) if rng.random() < 0.8 else Fraction(0)
    b = random_fraction(rng) if rng.random() < 0.7 else Fraction(0)
    return (a, b)


def _random_rational(rng):
    return rng.choice([rng.randint(-9, 9), random_fraction(rng)])


@pytest.mark.parametrize("d", [-3, -1, 2, 5, 21])
class TestQuadExtAgainstFractionPairs:
    def test_construction(self, d):
        rng = rng_for(12, d)
        for _ in range(60):
            ref = _random_pair(rng)
            _check(QuadExt(*ref, d), ref, d)
            _check(QuadExt(str(ref[0]), ref[1].limit_denominator(), d),
                   ref, d)

    def test_binary_operations(self, d):
        rng = rng_for(13, d)
        for _ in range(60):
            xr, yr = _random_pair(rng), _random_pair(rng)
            x, y = QuadExt(*xr, d), QuadExt(*yr, d)
            _check(x + y, (xr[0] + yr[0], xr[1] + yr[1]), d)
            _check(x - y, (xr[0] - yr[0], xr[1] - yr[1]), d)
            _check(x * y, _ref_mul(xr, yr, d), d)
            if yr != (0, 0):
                _check(x / y, _ref_mul(xr, _ref_inverse(yr, d), d), d)
            else:
                with pytest.raises(DivisionByZero):
                    x / y
            assert (x == y) == (xr == yr)
            assert (x != y) == (xr != yr)

    def test_rational_operands_on_either_side(self, d):
        rng = rng_for(14, d)
        for _ in range(60):
            xr, v = _random_pair(rng), _random_rational(rng)
            x, vr = QuadExt(*xr, d), _pair(v)
            _check(x + v, (xr[0] + v, xr[1]), d)
            _check(v + x, (xr[0] + v, xr[1]), d)
            _check(x - v, (xr[0] - v, xr[1]), d)
            _check(v - x, (v - xr[0], -xr[1]), d)
            _check(x * v, _ref_mul(xr, vr, d), d)
            _check(v * x, _ref_mul(vr, xr, d), d)
            if v != 0:
                _check(x / v, _ref_mul(xr, _ref_inverse(vr, d), d), d)
            else:
                with pytest.raises(DivisionByZero):
                    x / v
            if xr != (0, 0):
                _check(v / x, _ref_mul(vr, _ref_inverse(xr, d), d), d)
            else:
                with pytest.raises(DivisionByZero):
                    v / x
            assert (x == v) == (xr == vr)
            assert (v == x) == (xr == vr)
            if xr[1] == 0:
                assert x == xr[0] and hash(x) == hash(xr[0])

    def test_unary_operations_and_powers(self, d):
        rng = rng_for(15, d)
        for _ in range(60):
            xr = _random_pair(rng)
            x = QuadExt(*xr, d)
            _check(-x, (-xr[0], -xr[1]), d)
            _check(conjugate(x), (xr[0], -xr[1]), d)
            if xr == (0, 0):
                with pytest.raises(DivisionByZero):
                    x.inverse()
                continue
            _check(x.inverse(), _ref_inverse(xr, d), d)

    def test_arithmetic_builds_no_fraction(self, d, monkeypatch):
        rng = rng_for(16, d)
        pairs = [_random_pair(rng) for _ in range(20)]
        values = [QuadExt(*r, d) for r in pairs]

        class NoFraction(Fraction):
            def __new__(cls, *args, **kwargs):
                raise AssertionError("Fraction built in QuadExt arithmetic")

        monkeypatch.setattr(scalar_module, "Fraction", NoFraction)
        for x, xr, y, yr in zip(values, pairs, values[1:], pairs[1:]):
            out = [x + y, x - y, x * y, -x, x + 2, 3 - x, 2 * x, x * -5]
            if yr != (0, 0):
                out += [x / y, y.inverse(), 7 / y]
            assert all(isinstance(v, QuadExt) for v in out)


class TestSqrtDecompose:
    def test_round_trip(self):
        rng = rng_for(11, 2)
        for _ in range(60):
            q = random_fraction(rng, num=40, den=12)
            if q == 0:
                continue
            s, d = sqrt_decompose(q)
            assert s * s * d == q
            # d is a squarefree integer
            assert d == int(d)
            for p in (2, 3, 5, 7, 11, 13):
                assert int(d) % (p * p) != 0

    def test_perfect_squares(self):
        assert sqrt_decompose(Fraction(9, 4)) == (Fraction(3, 2), 1)
        assert sqrt_decompose(Fraction(-1)) == (1, -1)
        with pytest.raises(ValueError):
            sqrt_decompose(Fraction(0))

    def test_trial_division_stops_at_its_bound(self):
        # primes past the bound: one below its square, one square of one,
        # and a product of two that trial division cannot split
        p, q = 65537, 65539
        assert p > TRIAL_BOUND and p * p > TRIAL_BOUND ** 2
        assert sqrt_decompose(Fraction(12 * 4099 * 4111)) == \
            (2, 3 * 4099 * 4111)
        assert sqrt_decompose(Fraction(5 * p * p, 4)) == (Fraction(p, 2), 5)
        with pytest.raises(FactorBound):
            sqrt_decompose(p * q)
        # (10^38 + 1)^2 - 4 gives up in well under a second
        elapsed = []
        for _ in range(2):
            t0 = time.perf_counter()
            with pytest.raises(FactorBound):
                sqrt_decompose((10 ** 38 + 1) ** 2 - 4)
            elapsed.append(time.perf_counter() - t0)
        assert min(elapsed) < 0.5


def _places(a, b):
    """-1 and every prime dividing 2ab."""
    n, primes, p = abs(2 * a * b), {-1}, 2
    while n > 1:
        while n % p == 0:
            primes.add(p)
            n //= p
        p += 1
    return primes


class TestHilbertSymbol:
    def test_known_symbols(self):
        # the algebra of (5, 1, 21/5) is ramified at 2 and 233
        assert [hilbert_symbol(21, 466, p) for p in (-1, 2, 3, 7, 233)] == \
            [1, -1, 1, 1, -1]
        # (-1, -1) is Hamilton's quaternions: ramified at infinity and 2
        assert [hilbert_symbol(-1, -1, p) for p in (-1, 2, 3, 5)] == \
            [-1, -1, 1, 1]
        assert hilbert_symbol(2, 3, 3) == -1 and hilbert_symbol(5, 7, 5) == -1

    def test_product_formula(self):
        # Hilbert reciprocity: the product over every place is 1
        for a in range(-40, 41):
            for b in range(-40, 41, 3):
                if a and b:
                    prod = 1
                    for p in _places(a, b):
                        prod *= hilbert_symbol(a, b, p)
                    assert prod == 1, (a, b)

    def test_conic_points_agree_with_a_search(self):
        # w^2 = a x^2 + b y^2 over |a|, |b| <= 20, searched to 20 in x, y
        hits = 0
        for a in range(-20, 21):
            for b in range(-20, 21):
                if not (a and b):
                    continue
                found = any(math.isqrt(v) ** 2 == v
                            for x in range(21) for y in range(1, 21)
                            for v in [a * x * x + b * y * y] if v >= 0)
                point = conic_point(a, b)
                assert (point is not None) == found, (a, b)
                if point is not None:
                    w, x, y = point
                    assert w * w == a * x * x + b * y * y and y != 0
                    hits += 1
        assert 500 < hits < 1600

    def test_conic_points_of_large_coefficients(self):
        rng = rng_for(36, 3)
        for _ in range(200):
            a = rng.randint(-10 ** 6, 10 ** 6) or 1
            b = rng.randint(-10 ** 6, 10 ** 6) or 1
            point = conic_point(a, b)
            if point is not None:
                w, x, y = point
                assert w * w == a * x * x + b * y * y and y != 0


class TestComplexF:
    def test_arithmetic(self):
        a = ComplexF(1.0, 2.0)
        b = ComplexF(-3.0, 0.5)
        assert complex(a * b) == pytest.approx(complex(1, 2) * complex(-3, 0.5))
        assert complex(a / b) == pytest.approx(complex(1, 2) / complex(-3, 0.5))
        assert complex(a - b) == pytest.approx(complex(4, 1.5))
        assert abs(ComplexF(3.0, 4.0)) == pytest.approx(5.0)

    def test_nonfinite_guard(self):
        with pytest.raises(NonFinite):
            ComplexF(float("inf"), 0.0)
        with pytest.raises(NonFinite):
            ComplexF(complex(1.0, float("nan")))
        # arithmetic may overflow; storing the result may not
        big = ComplexF(1e200)
        with pytest.raises(NonFinite):
            Matrix([[big]]) * Matrix([[big]])
        with pytest.raises(NonFinite):
            LaurentPoly({0: big, 1: 1.0}) * LaurentPoly({0: big})
        with pytest.raises(NonFinite):
            Matrix([[big, 0], [0, big]]).det()
        with pytest.raises(NonFinite):
            Matrix([[ComplexF(1e308), 0], [0, ComplexF(1e308)]]).trace()

    def test_conjugate_inverse(self):
        a = ComplexF(2.0, -1.0)
        assert conjugate(a) == complex(2, 1)
        rep = lift(Character(1.0, 1.0, ComplexF(3.0, -1.0)), warn=False)
        (_, minus_u), (u_inverse, _) = rep.images[1].entries
        assert -minus_u * u_inverse == pytest.approx(1 + 0j)
        # u = 0 here: the lift raises the typed error, not ZeroDivisionError
        with pytest.raises(DivisionByZero):
            lift(Character(1.0, 1.0, -1e150), warn=False)


# -- ComplexF against the formulas of its former arithmetic -------------------

class _OldComplexF:
    """Textbook complex arithmetic, one operation at a time, on a pair of
    floats: the bit-level reference for the builtin ``complex``."""

    def __init__(self, re, im=0.0):
        if isinstance(re, complex):
            re, im = re.real, re.imag + im
        self.re, self.im = float(re), float(im)

    @staticmethod
    def _coerce(other):
        if isinstance(other, _OldComplexF):
            return other
        if isinstance(other, (int, float, Fraction)):
            return _OldComplexF(float(other), 0.0)
        return _OldComplexF(other.real, other.imag)

    def __add__(self, other):
        o = self._coerce(other)
        return _OldComplexF(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return _OldComplexF(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        return _OldComplexF(o.re - self.re, o.im - self.im)

    def __mul__(self, other):
        o = self._coerce(other)
        return _OldComplexF(self.re * o.re - self.im * o.im,
                            self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __neg__(self):
        return _OldComplexF(-self.re, -self.im)

    def inverse(self):
        one, o = _OldComplexF(1.0, 0.0), self
        den = o.re * o.re + o.im * o.im
        return _OldComplexF((one.re * o.re + one.im * o.im) / den,
                            (one.im * o.re - one.re * o.im) / den)


def _bits(z):
    if isinstance(z, _OldComplexF):
        return (z.re.hex(), z.im.hex())
    assert type(z) in (complex, ComplexF)
    return (z.real.hex(), z.imag.hex())


def _random_part(rng):
    return rng.choice([0.0, -0.0, rng.uniform(-4.0, 4.0),
                       rng.uniform(-1e60, 1e60), rng.uniform(-1e-60, 1e-60),
                       float(rng.randint(-5, 5))])


def _random_complexf_pair(rng):
    re, im = _random_part(rng), _random_part(rng)
    return ComplexF(re, im), _OldComplexF(re, im)


def _random_real_operand(rng):
    return rng.choice([rng.randint(-9, 9), random_fraction(rng),
                       rng.uniform(-4.0, 4.0), 0.0, -0.0])


class TestComplexFMatchesFormerArithmetic:
    """Sums, differences and products of ComplexF values are the builtin
    ``complex``'s; these compare them by float hex, signed zeros included,
    with the formulas ComplexF used to carry."""

    def test_operations(self):
        rng = rng_for(17, 0)
        for _ in range(400):
            x, xr = _random_complexf_pair(rng)
            y, yr = _random_complexf_pair(rng)
            z, zr = _random_complexf_pair(rng)
            assert type(x * y) is complex
            for new, old in [(x + y, xr + yr), (x - y, xr - yr),
                             (x * y, xr * yr), (-x, -xr),
                             (x * x + y * y + z * z - x * y * z - 2,
                              xr * xr + yr * yr + zr * zr - xr * yr * zr - 2)]:
                assert _bits(new) == _bits(old)

    def test_real_operands_on_either_side(self):
        rng = rng_for(17, 1)
        for _ in range(400):
            x, xr = _random_complexf_pair(rng)
            v = _random_real_operand(rng)
            for new, old in [(x + v, xr + v), (v + x, v + xr),
                             (x - v, xr - v), (v - x, v - xr),
                             (x * v, xr * v), (v * x, v * xr)]:
                assert _bits(new) == _bits(old)

    def test_construction_from_complex(self):
        rng = rng_for(17, 2)
        for _ in range(200):
            z = complex(_random_part(rng), _random_part(rng))
            assert _bits(ComplexF(z)) == _bits(_OldComplexF(z))
        assert _bits(ComplexF(complex(1.0, -0.0))) == ((1.0).hex(), "0x0.0p+0")

    def test_lift_inverse(self):
        """The lift's 1/u is the former textbook quotient to the bit; the
        builtin's Smith division differs from it on about half the draws."""
        rng = rng_for(17, 3)
        smith_differs = 0
        for _ in range(200):
            z = ComplexF(rng.uniform(-6.0, 6.0), rng.uniform(-3.0, 3.0))
            rep = lift(Character(ComplexF(1.0), ComplexF(1.0), z), warn=False)
            (_, minus_u), (u_inverse, _) = rep.images[1].entries
            u = -minus_u
            assert _bits(u_inverse) == _bits(_OldComplexF(u).inverse())
            smith_differs += _bits(1 / u) != _bits(u_inverse)
        assert smith_differs > 0


class TestParseScalar:
    @pytest.mark.parametrize("text", ["1/0", "0/0", "-3/0",
                                      "1+1/0*sqrt(2)", "1/0+sqrt(2)"])
    def test_zero_denominator_is_a_parse_error(self, text):
        with pytest.raises(ParseError, match="zero denominator"):
            parse_scalar(text)

    def test_zero_denominator_under_a_forced_kind(self):
        with pytest.raises(ParseError):
            parse_scalar("2/0", kind="quadext")

    def test_spaces_around_signs(self):
        assert parse_scalar(" 1 + 2 i ") == parse_scalar("1+2i")
        assert parse_scalar("- 2.5 i") == parse_scalar("-2.5i")

    @pytest.mark.parametrize("text, signed", [
        ("2i", "+2i"), (".5i", "+.5i"), ("1e300i", "+1e300i"),
        ("1e+5i", "+1e5i"), ("2.i", "+2.0i"), ("i", "+1i")])
    def test_unsigned_imaginary_literal(self, text, signed):
        assert parse_scalar(text) == parse_scalar(signed) == \
            parse_scalar(text, kind="complex")
        assert parse_scalar(text).real == 0.0

    @pytest.mark.parametrize("text", ["1+e5i", "e5i", "1+2+3i", "ii", "+-2i",
                                      ".i", "1 2i", "1 2.5", "1e 5", "1. 5i"])
    def test_bad_complex_literal(self, text):
        with pytest.raises(ParseError, match="bad complex literal"):
            parse_scalar(text)


class TestHelpers:
    def test_kind_of(self):
        assert kind_of(Fraction(1)) == "rational"
        assert kind_of(3) == "rational"
        assert kind_of(QuadExt(1, 1, 5)) == "quadext"
        assert kind_of(ComplexF(1.0)) == "complex"

    def test_zero_test_modes(self):
        assert zero_test(Fraction(0))
        assert not zero_test(Fraction(1, 10 ** 20))
        assert zero_test(ComplexF(1e-12, 0.0))
        assert not zero_test(ComplexF(1e-6, 0.0))
        # scale widens the float window but leaves exact values alone
        assert zero_test(ComplexF(5e-7, 0.0), scale=1e3)
        assert not zero_test(Fraction(1, 10 ** 20), scale=1e9)

    def test_zero_test_calls_a_scale_function_for_floats_only(self):
        calls = []

        def scale():
            calls.append(1)
            return 1e3

        assert not zero_test(Fraction(1, 10 ** 20), scale=scale)
        assert not zero_test(QuadExt(0, 1, 5), scale=scale)
        assert calls == []
        assert zero_test(ComplexF(5e-7, 0.0), scale=scale)
        assert not zero_test(5e-6, scale=scale)
        assert calls == [1, 1]
        with pytest.raises(TypeError):
            zero_test("0", scale=scale)

    def test_sum_str(self):
        assert sum_str([]) == "0"
        assert sum_str([(True, "a")]) == "-a"
        assert sum_str([(False, "a"), (True, "b"), (False, "c")]) == \
            "a - b + c"
        assert sum_str(iter([(True, "a"), (False, "2*x")])) == "-a + 2*x"

    def test_magnitude_and_conjugate(self):
        assert magnitude(QuadExt(1, 1, -3)) == pytest.approx(2.0)
        assert conjugate(ComplexF(1.0, 1.0)) == ComplexF(1.0, -1.0)

    def test_str_parse_round_trip(self):
        samples = [
            Fraction(-7, 3),
            QuadExt(Fraction(1, 2), Fraction(-5, 4), 21),
            QuadExt(0, 1, -1),
            ComplexF(0.125, -3.5),
            ComplexF(1.0 / 3.0, 0.0),
        ]
        for x in samples:
            back = parse_scalar(scalar_str(x), kind=kind_of(x))
            assert back == x
