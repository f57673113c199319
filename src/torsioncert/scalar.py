"""Field arithmetic underneath every matrix in the package.

Three scalar kinds share one zero-test contract:

* exact rationals, which are plain ``fractions.Fraction`` (``int`` is accepted
  anywhere a rational is),
* ``QuadExt``, elements a + b*sqrt(d) of a quadratic field Q(sqrt(d)) with a
  fixed squarefree discriminant d (mixing two different d is an error),
* floats, which are Python ``complex`` (``float`` is accepted anywhere a
  complex is).  Arithmetic is the builtin's; finiteness is checked where
  the package stores a float value: matrix entries (``to_complexf``),
  Laurent coefficients, ``ComplexF`` construction, and the traces that
  reach output without being stored (``check_finite``).

A ``QuadExt`` stores four integers ``(p, q, den, d)`` with value
(p + q*sqrt(d))/den, kept reduced: ``den > 0`` and ``gcd(p, q, den) == 1``.
The form is unique, so equality compares integers, and arithmetic never
builds a Fraction: results are reduced by one three-argument gcd, and the
discriminant, checked once when a value is built from rationals, is not
checked again.  ``a`` and ``b`` give the rational parts as Fractions.

Exact kinds test zero exactly.  Floats test ``|x| <= tol * scale`` where
``scale`` is a caller-supplied magnitude reference (say, a matrix norm) and
``tol`` defaults to the module tolerance, 1e-9.  The module tolerance is set
once at program start and treated as read-only afterwards.

Text grammar: rationals ``p/q``, quadratic elements ``a + b*sqrt(d)``,
complex numbers ``re+imi`` printed with 17 significant digits.
"""

import cmath
import math
import re as _re
from fractions import Fraction

from .errors import DivisionByZero, MixedExtension, NonFinite, ParseError

DEFAULT_TOLERANCE = 1e-9
_tolerance = DEFAULT_TOLERANCE


def zero_tolerance():
    """The module-wide relative tolerance for float zero tests."""
    return _tolerance


def set_zero_tolerance(tol):
    """Set the module tolerance.  Meant to be called once, at startup."""
    global _tolerance
    if not (isinstance(tol, (int, float)) and tol > 0 and math.isfinite(tol)):
        raise ValueError("tolerance must be a positive finite number")
    _tolerance = float(tol)


def _squarefree_factor(n):
    # n > 0; returns (s, d) with n = s*s*d and d squarefree
    s, d = 1, 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            s *= p ** (e // 2)
            if e % 2:
                d *= p
        p += 1 if p == 2 else 2
    return s, d * n


def sqrt_decompose(q):
    """Write a nonzero rational q as s^2 * d with d a squarefree integer.

    Returns (s, d), s a positive Fraction.  Used to put square roots of
    rational discriminants into Q(sqrt(d)) canonical form.
    """
    q = Fraction(q)
    if q == 0:
        raise ValueError("cannot decompose zero")
    sign = -1 if q < 0 else 1
    n, m = abs(q.numerator), q.denominator
    # sqrt(n/m) = sqrt(n*m)/m
    s, d = _squarefree_factor(n * m)
    return Fraction(s, m), sign * d


_valid_d = set()


def _check_discriminant(d):
    # 7.0 == 7 and hash alike: the cache must not admit a float
    if d in _valid_d and isinstance(d, int):
        return d
    if not isinstance(d, int) or d in (0, 1):
        raise ValueError("discriminant must be a squarefree integer, not 0 or 1")
    _, sf = _squarefree_factor(abs(d))
    if sf != abs(d):
        raise ValueError("discriminant %d is not squarefree" % d)
    _valid_d.add(d)
    return d


class QuadExt:
    """a + b*sqrt(d), stored as integers (p + q*sqrt(d))/den in lowest terms."""

    __slots__ = ("_p", "_q", "_den", "d")

    def __init__(self, a, b, d):
        a, b = Fraction(a), Fraction(b)
        den = math.lcm(a.denominator, b.denominator)
        # a lcm of coprime pairs leaves gcd(p, q, den) == 1 already
        _store(self, a.numerator * (den // a.denominator),
               b.numerator * (den // b.denominator), den,
               _check_discriminant(d))

    def __setattr__(self, name, value):
        raise AttributeError("QuadExt values are immutable")

    @property
    def a(self):
        return Fraction(self._p, self._den)

    @property
    def b(self):
        return Fraction(self._q, self._den)

    def _coerce(self, other):
        """(p, q, den) of an operand in this field, or None."""
        if isinstance(other, QuadExt):
            if other.d != self.d:
                raise MixedExtension(
                    "cannot mix sqrt(%d) with sqrt(%d)" % (self.d, other.d))
            return other._p, other._q, other._den
        if isinstance(other, int):
            return other, 0, 1
        if isinstance(other, Fraction):
            return other.numerator, 0, other.denominator
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _add(self._p, self._q, self._den, *o, self.d)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p, q, den = o
        return _add(self._p, self._q, self._den, -p, -q, den, self.d)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _add(*o, -self._p, -self._q, self._den, self.d)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p, q, den = o
        sp, sq = self._p, self._q
        return _quad(sp * p + sq * q * self.d, sp * q + sq * p,
                     self._den * den, self.d)

    __rmul__ = __mul__

    def __neg__(self):
        return _quad(-self._p, -self._q, self._den, self.d)

    def inverse(self):
        return _divide(1, 0, 1, self._p, self._q, self._den, self.d)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _divide(self._p, self._q, self._den, *o, self.d)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _divide(*o, self._p, self._q, self._den, self.d)

    def __eq__(self, other):
        if isinstance(other, QuadExt):
            return (self.d == other.d or not (self._q or other._q)) \
                and self._p == other._p and self._q == other._q \
                and self._den == other._den
        if isinstance(other, int):
            return not self._q and self._den == 1 and self._p == other
        if isinstance(other, Fraction):
            return not self._q and self._den == other.denominator \
                and self._p == other.numerator
        return NotImplemented

    def __hash__(self):
        if not self._q:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def __bool__(self):
        return self._p != 0 or self._q != 0

    def __str__(self):
        return scalar_str(self)

    def __repr__(self):
        return "QuadExt(%r, %r, %d)" % (self.a, self.b, self.d)


_new_quad = object.__new__
_set_p = QuadExt._p.__set__
_set_q = QuadExt._q.__set__
_set_den = QuadExt._den.__set__
_set_d = QuadExt.d.__set__


def _store(x, p, q, den, d):
    _set_p(x, p)
    _set_q(x, q)
    _set_den(x, den)
    _set_d(x, d)


def _quad(p, q, den, d):
    """(p + q*sqrt(d))/den reduced; den != 0 and d already checked."""
    if den < 0:
        p, q, den = -p, -q, -den
    g = math.gcd(p, q, den)
    if g != 1:
        p, q, den = p // g, q // g, den // g
    x = _new_quad(QuadExt)
    _store(x, p, q, den, d)
    return x


def _add(p1, q1, den1, p2, q2, den2, d):
    """(p1 + q1*sqrt(d))/den1 + (p2 + q2*sqrt(d))/den2."""
    if den1 == den2:
        return _quad(p1 + p2, q1 + q2, den1, d)
    return _quad(p1 * den2 + p2 * den1, q1 * den2 + q2 * den1, den1 * den2, d)


def _divide(p1, q1, den1, p2, q2, den2, d):
    """((p1 + q1*sqrt(d))/den1) / ((p2 + q2*sqrt(d))/den2).

    Multiplies through by the conjugate: the divisor's norm times den2^2
    is the integer p2^2 - d*q2^2.
    """
    n = p2 * p2 - d * q2 * q2
    if n == 0:
        raise DivisionByZero("inverse of zero in Q(sqrt(%d))" % d)
    return _quad(den2 * (p1 * p2 - d * q1 * q2), den2 * (q1 * p2 - p1 * q2),
                 den1 * n, d)


class ComplexF(complex):
    """A finite double-precision complex number, checked when it is built.

    Arithmetic is the builtin ``complex``'s and returns a plain ``complex``.
    ``ComplexF(z)`` on a complex ``z`` stores ``z.imag + 0.0``, which turns
    a negative zero imaginary part into +0.0.
    """

    __slots__ = ()

    def __new__(cls, re, im=0.0):
        if isinstance(re, complex):
            re, im = re.real, re.imag + im
        return complex.__new__(cls, float(re), float(im))

    def __init__(self, re, im=0.0):
        check_finite(self)

    def __str__(self):
        return scalar_str(self)

    def __repr__(self):
        return "ComplexF(%r, %r)" % (self.real, self.imag)


def kind_of(x):
    """Scalar kind tag: 'rational', 'quadext', or 'complex'."""
    if isinstance(x, (int, Fraction)):
        return "rational"
    if isinstance(x, QuadExt):
        return "quadext"
    if isinstance(x, (float, complex)):
        return "complex"
    raise TypeError("not a scalar: %r" % (x,))


def is_exact(x):
    return kind_of(x) != "complex"


def zero_test(x, tol=None, scale=1.0):
    """True when x counts as zero.

    Exact kinds compare exactly; complex kinds compare |x| <= tol * scale.
    ``scale`` is the caller's magnitude reference, e.g. a matrix norm
    (callers should clamp it below by 1 so the test stays meaningful for
    small data).
    """
    k = kind_of(x)
    if k == "rational":
        return x == 0
    if k == "quadext":
        return not x
    if tol is None:
        tol = _tolerance
    return abs(complex(x)) <= tol * scale


def magnitude(x):
    """|x| as a float, through the complex embedding for exact kinds."""
    return abs(to_complex(x))


def to_complex(x):
    """Embed any scalar kind into a Python complex; an exact value beyond
    the float range raises NonFinite."""
    k = kind_of(x)
    try:
        if k == "rational":
            return complex(float(x), 0.0)
        if k == "quadext":
            root = math.sqrt(abs(x.d))
            if x.d > 0:
                return complex(float(x.a) + float(x.b) * root, 0.0)
            return complex(float(x.a), float(x.b) * root)
    except OverflowError:
        raise NonFinite("exact value too large for a float") from None
    return complex(x)


def check_finite(x):
    """x itself; a float or complex x must be finite (else NonFinite)."""
    if isinstance(x, (float, complex)) and not cmath.isfinite(x):
        raise NonFinite("non-finite complex value %r + %r i"
                        % (x.real, x.imag))
    return x


def to_complexf(x):
    """Embed any scalar kind as a finite complex: complex input is returned
    as it is once checked finite, any other kind becomes a ComplexF."""
    if isinstance(x, complex):
        return check_finite(x)
    return ComplexF(to_complex(x))


# text form

def scalar_str(x):
    k = kind_of(x)
    if k == "rational":
        f = Fraction(x)
        return str(f.numerator) if f.denominator == 1 else \
            "%d/%d" % (f.numerator, f.denominator)
    if k == "quadext":
        if x.b == 0:
            return scalar_str(x.a)
        root = "sqrt(%d)" % x.d
        mag = abs(x.b)
        bpart = root if mag == 1 else "%s*%s" % (scalar_str(mag), root)
        if x.a == 0:
            return bpart if x.b > 0 else "-" + bpart
        op = " + " if x.b > 0 else " - "
        return scalar_str(x.a) + op + bpart
    x = to_complexf(x)
    return "%.17g%+.17gi" % (x.real, x.imag)


def sum_str(terms):
    """The text of a signed sum from ``(negative, body)`` pairs in order,
    such as ``-a + b - c``; ``0`` when there are none."""
    pieces = []
    for neg, body in terms:
        if pieces:
            pieces.append(("- " if neg else "+ ") + body)
        else:
            pieces.append("-" + body if neg else body)
    return " ".join(pieces) or "0"


def split_sum(text):
    """The ``(sign, term)`` pairs of a signed sum such as ``-a + b - c``,
    the reading twin of :func:`sum_str`; each term is stripped and the
    sign is 1 or -1.

    Only a top-level ``+`` or ``-`` splits: not one inside parentheses,
    nor one right after ``^``, ``*``, ``(`` or ``,``, nor the sign of a
    float exponent (an ``e`` or ``E`` right after a digit or ``.``).  One
    leading sign is allowed; any other sign needs a term on each side.
    """
    terms, sign, buf, depth = [], 1, [], 0
    # the last two characters that are not spaces
    prev = before = ""
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch in "+-" and depth == 0 and not (
                prev in ("^", "*", "(", ",")
                or prev in ("e", "E") and (before.isdigit() or before == ".")):
            term = "".join(buf).strip()
            if term:
                terms.append((sign, term))
            elif prev:
                raise ParseError("sign without a term in %r" % text)
            sign = -1 if ch == "-" else 1
            buf = []
        else:
            buf.append(ch)
        if not ch.isspace():
            prev, before = ch, prev
    term = "".join(buf).strip()
    if not term:
        raise ParseError("sign without a term in %r" % text)
    terms.append((sign, term))
    return terms


def integral_to_int(x):
    """x, or its int when x is a Fraction with denominator 1."""
    if isinstance(x, Fraction) and x.denominator == 1:
        return x.numerator
    return x


_RATIONAL_RE = _re.compile(r"^[+-]?\d+(/\d+)?$")
_UNSIGNED_FLOAT = r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
# a real part must be followed by a signed imaginary part; alone, the
# imaginary part may be unsigned ("2i") or bare ("i", "-i")
_COMPLEX_RE = _re.compile(
    r"^(?:(?P<re>[+-]?%s)(?=[+-]))?(?P<im>[+-]?(?:%s)?)i$"
    % (_UNSIGNED_FLOAT, _UNSIGNED_FLOAT))
_QUAD_RE = _re.compile(
    r"^(?:(?P<a>[+-]?\d+(?:/\d+)?)\s*(?=$|[+-]))?\s*"
    r"(?:(?P<sign>[+-])?\s*(?:(?P<b>\d+(?:/\d+)?)\s*\*\s*)?"
    r"sqrt\(\s*(?P<d>-?\d+)\s*\))?$")


# the largest decimal exponent a fraction literal may carry, Python's
# default limit on the digits of an int read from text: "1e4000000" would
# otherwise build a 13-million-bit numerator
MAX_EXPONENT = 4300
_EXPONENT_RE = _re.compile(r"[eE][+-]?([\d_]+)\s*$")


def parse_fraction(text, literal):
    """``text`` read as ``Fraction(text)`` reads it: the one reader of a
    fraction literal.  Text that ``Fraction`` rejects, a zero denominator,
    or a decimal exponent past ``MAX_EXPONENT`` in size raises
    ``ParseError`` naming ``literal``, the literal that ``text`` was cut
    from."""
    exp = _EXPONENT_RE.search(text)
    if exp:
        digits = exp.group(1).replace("_", "").lstrip("0")
        if (len(digits) > len(str(MAX_EXPONENT))
                or int(digits or 0) > MAX_EXPONENT):
            raise ParseError("exponent past %d in literal %r"
                             % (MAX_EXPONENT, literal))
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ParseError("zero denominator in literal %r" % literal) from None
    except ValueError:
        raise ParseError("bad number %r in literal %r"
                         % (text, literal)) from None


def parse_scalar(text, kind=None):
    """Parse a scalar literal; ``kind`` forces one grammar when given.

    Without ``kind``, the shape of the text decides: a ``sqrt`` makes it a
    quadratic element, a trailing ``i`` or a decimal point makes it complex,
    otherwise it is rational.
    """
    s = text.strip()
    if not s:
        raise ParseError("empty scalar literal")
    if kind is None:
        if "sqrt" in s:
            kind = "quadext"
        elif s.endswith("i") or "." in s or "e" in s or "E" in s:
            kind = "complex"
        else:
            kind = "rational"
    if kind == "rational":
        if not _RATIONAL_RE.match(s):
            raise ParseError("bad rational literal %r" % text)
        return parse_fraction(s, text)
    if kind == "quadext":
        compact = s.replace(" ", "")
        if "sqrt" not in compact:
            # rationally embedded entry; the matrix layer promotes it
            if not _RATIONAL_RE.match(compact):
                raise ParseError("bad quadratic literal %r" % text)
            return parse_fraction(compact, text)
        m = _QUAD_RE.match(compact)
        if not m or (m.group("a") is None and m.group("d") is None):
            raise ParseError("bad quadratic literal %r" % text)
        a = parse_fraction(m.group("a"), text) if m.group("a") else Fraction(0)
        if m.group("d") is None:
            raise ParseError("quadratic literal %r lacks a sqrt part" % text)
        b = parse_fraction(m.group("b"), text) if m.group("b") else Fraction(1)
        if m.group("sign") == "-":
            b = -b
        try:
            return QuadExt(a, b, int(m.group("d")))
        except ValueError as e:
            raise ParseError(str(e)) from None
    if kind == "complex":
        # spaces may stand around signs and before the i, not inside a number
        if _re.search(r"[\d.eE]\s+[\d.eE]", s):
            raise ParseError("bad complex literal %r" % text)
        compact = s.replace(" ", "")
        if compact.endswith("i"):
            m = _COMPLEX_RE.match(compact)
            if m:
                re_part = float(m.group("re")) if m.group("re") else 0.0
                im_text = m.group("im")
                if im_text in ("", "+", "-"):
                    im_text += "1"
                return ComplexF(re_part, float(im_text))
            raise ParseError("bad complex literal %r" % text)
        try:
            return ComplexF(float(compact), 0.0)
        except ValueError:
            raise ParseError("bad complex literal %r" % text) from None
    raise ParseError("unknown scalar kind %r" % kind)
