"""Laurent polynomials in t over any scalar kind, and multivariate
polynomials over the rationals in the four variables x, y, z, u (trace
coordinates plus the auxiliary eigenvalue u).

Laurent polynomials are dictionaries exponent -> coefficient with no zero
coefficients stored; the zero polynomial is the empty map and its degree
span is the NEG_INFINITY sentinel.  Torsion quotients are only defined up
to units +-t^k, so polynomials are never normalized behind the caller's
back; the unit-invariant quantity is the degree span (max minus min
exponent).  Float coefficients are checked finite as they are stored, so
an overflowing product raises ``NonFinite``.  The public constructors check
their exponents and then build, as arithmetic does, through the trusted
``_lp`` and ``_mp``, which only drop zeros (and check floats finite, or make
integral Fractions ints), since sums of int exponents need no check.

Multivariate polynomials keep exact rational coefficients only, since the
locus identities they exist to express are exact.  A coefficient is stored
as a Python int when it is integral and as a Fraction otherwise, so the
integer polynomials of the elimination run on int arithmetic; exact
division divides ints with ``divmod`` and falls back to a Fraction only
for a non-integral quotient, never to a float.  No elimination step is
needed for u: the certificate determinant, reduced modulo u^2 - z u + 1, is
already free of u.  The squarefree/content normalization uses a
primitive-PRS gcd which, with its integer twin for dense polynomials below,
is the only factorization machinery in the package.

Determinants of matrices with polynomial entries are computed division-free
(dynamic programming over column subsets), which treats t exactly for every
coefficient kind.

Dense univariate polynomials (coefficient lists, low degree first) serve
the root finders: an integer primitive-PRS gcd for the Riley polynomial,
the Newton run of the parabolic scan (which can stop inside the
gamma-theorem basin of a root already found), a Horner root test with a
rounding-error bound, an inclusion radius, an exact count of the roots
left of a vertical line (a fraction-free Routh array), and an
Aberth-Ehrlich solver for all roots at once.
"""

import re as _re
from cmath import isfinite as _isfinite, rect as _rect
from fractions import Fraction
from functools import cache
from math import gcd as _int_gcd, lcm as _lcm, pi as _PI

from . import scalar as _s
from .errors import (DegenerateInput, DivisionByZero, InexactDivision,
                     MixedScalarKind, NotSquare, ParseError, ZeroDenominator)

NEG_INFINITY = float("-inf")


def _mixed(a, b):
    return MixedScalarKind("cannot combine %s and %s coefficients"
                           % (_s.kind_of(a), _s.kind_of(b)))


def _lp(coeffs):
    # a LaurentPoly on int exponents: zeros are dropped, floats checked
    # finite (a zero is finite, so only nonzero ones need the check)
    clean = {}
    for e, c in coeffs.items():
        if c:
            if isinstance(c, (float, complex)) and not _isfinite(c):
                _s.check_finite(c)
            clean[e] = c
    p = object.__new__(LaurentPoly)
    object.__setattr__(p, "coeffs", clean)
    return p


class LaurentPoly:
    """A Laurent polynomial in t: finite map exponent -> coefficient.

    >>> p = LaurentPoly({1: 1, -1: 1})
    >>> print(p * p)
    t^-2 + 2 + t^2
    >>> (p * p).degree_span()
    4
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        coeffs = coeffs or {}
        for e in coeffs:
            if not isinstance(e, int):
                raise TypeError("exponent %r is not an integer" % (e,))
        object.__setattr__(self, "coeffs", _lp(coeffs).coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("polynomials are immutable")

    @staticmethod
    def zero():
        return _lp({})

    @staticmethod
    def one():
        return _lp({0: 1})

    def is_zero(self):
        return not self.coeffs

    def __add__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        coeffs = dict(self.coeffs)
        try:
            for e, c in other.coeffs.items():
                if e in coeffs:
                    coeffs[e] = coeffs[e] + c
                else:
                    coeffs[e] = c
        except TypeError:
            raise _mixed(coeffs[e], c) from None
        return _lp(coeffs)

    def __sub__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return _lp({e: -c for e, c in self.coeffs.items()})

    def __mul__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        coeffs = {}
        try:
            for e1, c1 in self.coeffs.items():
                for e2, c2 in other.coeffs.items():
                    e = e1 + e2
                    t = c1 * c2
                    if e in coeffs:
                        coeffs[e] = coeffs[e] + t
                    else:
                        coeffs[e] = t
        except TypeError:
            # the product failed, or else the sum after it did
            try:
                t = c1 * c2
            except TypeError:
                raise _mixed(c1, c2) from None
            raise _mixed(coeffs[e], t) from None
        return _lp(coeffs)

    def shift(self, k):
        """Multiply by t^k."""
        coeffs = {e + k: c for e, c in self.coeffs.items()}
        # a non-int k makes non-int exponents, which the constructor rejects
        return _lp(coeffs) if isinstance(k, int) else LaurentPoly(coeffs)

    def min_degree(self):
        return min(self.coeffs) if self.coeffs else NEG_INFINITY

    def degree_span(self):
        if not self.coeffs:
            return NEG_INFINITY
        return max(self.coeffs) - min(self.coeffs)

    def max_coeff_magnitude(self):
        if not self.coeffs:
            return 0.0
        return max(_s.magnitude(c) for c in self.coeffs.values())

    def trim(self):
        """Drop the coefficients that test zero against the largest
        coefficient magnitude, unclamped.

        Floating pipelines use this before reading degrees off, so that
        numerically induced phantom leading/trailing terms do not inflate
        the span.  Exact coefficients pass through untouched.
        """
        scale = cache(self.max_coeff_magnitude)
        return _lp({e: c for e, c in self.coeffs.items()
                    if not _s.zero_test(c, scale=scale)})

    def __eq__(self, other):
        return isinstance(other, LaurentPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __str__(self):
        return laurent_str(self)

    def __repr__(self):
        return "LaurentPoly(%r)" % laurent_str(self)


def rational_degree(num, den):
    """Degree of the quotient num/den: span(num) - span(den).

    The zero numerator passes the NEG_INFINITY sentinel through.
    """
    if den.is_zero():
        raise ZeroDenominator("torsion denominator is the zero polynomial")
    if num.is_zero():
        return NEG_INFINITY
    return num.degree_span() - den.degree_span()


def _coeff_str(c):
    text = _s.scalar_str(c)
    # wrap anything whose body contains a sign, so terms stay parseable
    if any(ch in "+-" for ch in text[1:]):
        return "(%s)" % text
    return text


def _laurent_term(e, c):
    text = _coeff_str(c)
    neg = text.startswith("-")
    mag = text[1:] if neg else text
    if e == 0:
        return neg, mag
    tpart = "t" if e == 1 else "t^%d" % e
    return neg, tpart if mag == "1" else "%s*%s" % (mag, tpart)


def laurent_str(p):
    return _s.sum_str(_laurent_term(e, p.coeffs[e]) for e in sorted(p.coeffs))


_T_RE = _re.compile(r"^(?:(?P<coeff>.+?)\s*\*\s*)?t(?:\^(?P<exp>-?\d+))?$")


def parse_laurent(text, kind=None):
    """Parse ``3*t^-2 + 1 - t^4`` style Laurent literals."""
    s = text.strip()
    if not s:
        raise ParseError("empty Laurent literal")
    if s == "0":
        return LaurentPoly.zero()
    coeffs = {}
    for sign, term in _s.split_sum(s):
        m = _T_RE.match(term)
        if m:
            e = int(m.group("exp")) if m.group("exp") else 1
            ctext = m.group("coeff")
            c = _parse_poly_coeff(ctext, kind) if ctext else 1
        else:
            e = 0
            c = _parse_poly_coeff(term, kind)
        c = sign * c if sign < 0 else c
        if e in coeffs:
            coeffs[e] = coeffs[e] + c
        else:
            coeffs[e] = c
    return LaurentPoly(coeffs)


def _parse_poly_coeff(text, kind):
    t = text.strip()
    if t.startswith("(") and t.endswith(")"):
        t = t[1:-1]
    return _s.integral_to_int(_s.parse_scalar(t, kind=kind))


def laurent_unit_match(p, q):
    """Is p = +- t^k q for some k?  Returns (True, k, sign) or (False, 0, 0).

    Each coefficient of the difference must test zero against the largest
    coefficient magnitude of p, clamped below by 1.
    """
    if p.is_zero() or q.is_zero():
        ok = p.is_zero() and q.is_zero()
        return (ok, 0, 1 if ok else 0)
    if p.degree_span() != q.degree_span():
        return (False, 0, 0)
    k = p.min_degree() - q.min_degree()
    shifted = q.shift(k)
    scale = cache(lambda: max(1.0, p.max_coeff_magnitude()))
    for sign in (1, -1):
        diff = p - (shifted if sign == 1 else -shifted)
        if all(_s.zero_test(c, scale=scale) for c in diff.coeffs.values()):
            return (True, k, sign)
    return (False, 0, 0)


def poly_matrix_det(rows):
    """Determinant of a square grid of LaurentPoly or MultiPoly entries.

    Division-free: dynamic programming over column subsets, so degrees stay
    exact whatever the coefficients are.  Cost n * 2^n ring products, fine
    at deficiency-one desk scale.
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise NotSquare("determinant of a grid of %d rows, not all of %d "
                        "entries" % (n, n))
    if n == 0:
        raise ValueError("empty matrix")
    # each row's nonzero entries with their column and column bit
    nonzero = [[(j, 1 << j, e) for j, e in enumerate(row) if not e.is_zero()]
               for row in rows]
    cur = {bit: e for _, bit, e in nonzero[0]}
    for row in nonzero[1:]:
        nxt = {}
        for mask, val in cur.items():
            for j, bit, e in row:
                if mask & bit:
                    continue
                term = val * e
                # the sign of the permutation counts the columns already
                # taken to the right of j
                if (mask >> (j + 1)).bit_count() & 1:
                    term = -term
                key = mask | bit
                if key in nxt:
                    nxt[key] = nxt[key] + term
                else:
                    nxt[key] = term
        cur = nxt
    return cur.get((1 << n) - 1, rows[0][0] - rows[0][0])


# ---------------------------------------------------------------------------
# multivariate polynomials over Q in x, y, z, u

MP_VARS = ("x", "y", "z", "u")
_ARITY = 4


class MultiPoly:
    """Polynomial in x, y, z, u with exact rational coefficients.

    Terms map exponent 4-tuples to nonzero coefficients: an int when the
    coefficient is integral, a Fraction otherwise (the two compare and hash
    alike, so ``MultiPoly({e: Fraction(2)}) == MultiPoly({e: 2})``).
    Printed in graded lexicographic order, highest first:
    ``2*x*y*z - x^2 - y^2 - 3*z^2 + 3``.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        terms = {tuple(ex): c for ex, c in (terms or {}).items()}
        for ex in terms:
            if len(ex) != _ARITY or any(not isinstance(e, int) or e < 0
                                        for e in ex):
                raise ValueError("bad exponent vector %r" % (ex,))
        object.__setattr__(self, "terms", _mp(terms).terms)

    def __setattr__(self, name, value):
        raise AttributeError("polynomials are immutable")

    @classmethod
    def zero(cls):
        return cls({})

    @classmethod
    def constant(cls, c):
        return cls({_ZERO_EX: c})

    @classmethod
    def variable(cls, name):
        i = MP_VARS.index(name)
        ex = [0] * _ARITY
        ex[i] = 1
        return cls({tuple(ex): 1})

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return all(all(e == 0 for e in ex) for ex in self.terms)

    def __add__(self, other):
        other = _mp_coerce(other)
        if other is None:
            return NotImplemented
        terms = dict(self.terms)
        for ex, c in other.terms.items():
            terms[ex] = terms.get(ex, 0) + c
        return _mp(terms)

    __radd__ = __add__

    def __sub__(self, other):
        other = _mp_coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return _mp({ex: -c for ex, c in self.terms.items()})

    def __mul__(self, other):
        other = _mp_coerce(other)
        if other is None:
            return NotImplemented
        terms = {}
        get = terms.get
        for (a0, a1, a2, a3), c1 in self.terms.items():
            for (b0, b1, b2, b3), c2 in other.terms.items():
                ex = (a0 + b0, a1 + b1, a2 + b2, a3 + b3)
                terms[ex] = get(ex, 0) + c1 * c2
        return _mp(terms)

    __rmul__ = __mul__

    def scale(self, c):
        if c.__class__ is not int:
            c = Fraction(c)
        return _mp({ex: c * cc for ex, cc in self.terms.items()})

    def degree_in(self, var):
        i = MP_VARS.index(var) if isinstance(var, str) else var
        if not self.terms:
            return -1
        return max(ex[i] for ex in self.terms)

    def derivative(self, var):
        i = MP_VARS.index(var) if isinstance(var, str) else var
        terms = {}
        for ex, c in self.terms.items():
            if ex[i] == 0:
                continue
            nex = list(ex)
            nex[i] -= 1
            terms[tuple(nex)] = c * ex[i]
        return _mp(terms)

    def coeff_in(self, var, k):
        """The coefficient of var^k, a MultiPoly with that variable cleared."""
        i = MP_VARS.index(var) if isinstance(var, str) else var
        terms = {}
        for ex, c in self.terms.items():
            if ex[i] == k:
                nex = list(ex)
                nex[i] = 0
                terms[tuple(nex)] = c
        return _mp(terms)

    def evaluate(self, point):
        return multi_eval(self, point)

    def leading_term(self):
        """(exponent, coefficient) of the graded-lex largest term."""
        ex = max(self.terms, key=_grlex_key)
        return ex, self.terms[ex]

    def __eq__(self, other):
        other = _mp_coerce(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __str__(self):
        return multi_str(self)

    def __repr__(self):
        return "MultiPoly(%r)" % multi_str(self)


_ZERO_EX = (0, 0, 0, 0)


def _mp(terms):
    """A MultiPoly on trusted terms: exponent 4-tuples of ints mapped to
    ints or Fractions.  Zeros are dropped and integral Fractions become
    ints; nothing else is checked."""
    clean = {}
    for ex, c in terms.items():
        if c:
            if c.__class__ is not int and c.denominator == 1:
                c = c.numerator
            clean[ex] = c
    p = object.__new__(MultiPoly)
    object.__setattr__(p, "terms", clean)
    return p


def _mp_coerce(v):
    if isinstance(v, MultiPoly):
        return v
    if isinstance(v, (int, Fraction)):
        return _mp({_ZERO_EX: v})
    return None


def _grlex_key(ex):
    return (sum(ex), ex)


def _multi_term(ex, c):
    mag = abs(c)
    factors = []
    for name, e in zip(MP_VARS, ex):
        if e == 1:
            factors.append(name)
        elif e > 1:
            factors.append("%s^%d" % (name, e))
    if not factors:
        return c < 0, _s.scalar_str(mag)
    vpart = "*".join(factors)
    return c < 0, vpart if mag == 1 else "%s*%s" % (_s.scalar_str(mag), vpart)


def multi_str(p):
    return _s.sum_str(_multi_term(ex, p.terms[ex])
                      for ex in sorted(p.terms, key=_grlex_key, reverse=True))


_MP_FACTOR_RE = _re.compile(r"^(?P<var>[xyzu])(?:\^(?P<exp>\d+))?$")


def parse_multi(text):
    """Parse ``2*x*y*z - x^2 - y^2 - 3*z^2 + 3`` style literals."""
    s = text.strip()
    if not s:
        raise ParseError("empty polynomial literal")
    if s == "0":
        return MultiPoly.zero()
    out = {}
    for sign, term in _s.split_sum(s):
        coeff = 1
        ex = [0] * _ARITY
        saw = False
        for factor in term.replace(" ", "").split("*"):
            if not factor:
                raise ParseError("bad term %r" % term)
            m = _MP_FACTOR_RE.match(factor)
            if m:
                i = MP_VARS.index(m.group("var"))
                ex[i] += int(m.group("exp") or 1)
            else:
                coeff *= _s.parse_fraction(factor, text)
            saw = True
        if not saw:
            raise ParseError("empty term in %r" % text)
        key = tuple(ex)
        out[key] = out.get(key, 0) + sign * coeff
    return MultiPoly(out)


def multi_eval(p, point):
    """Evaluate at four scalars (any kind); exact stays exact."""
    if len(point) != _ARITY:
        raise ValueError("need exactly four coordinates")
    out = None
    powers = [dict() for _ in range(_ARITY)]

    def pw(i, e):
        if e == 0:
            return 1
        if e not in powers[i]:
            powers[i][e] = point[i] * pw(i, e - 1)
        return powers[i][e]

    for ex, c in p.terms.items():
        term = c
        for i, e in enumerate(ex):
            if e:
                term = term * pw(i, e)
        out = term if out is None else out + term
    if out is None:
        return Fraction(0)
    return _s.integral_to_int(out)


def resultant_in_u(p, q):
    """Sylvester resultant eliminating u; the result is u-free.

    Both inputs must actually involve u.
    """
    m, n = p.degree_in("u"), q.degree_in("u")
    if m <= 0 or n <= 0:
        raise DegenerateInput("resultant_in_u needs positive u-degree "
                              "in both polynomials")
    pc = [p.coeff_in("u", m - i) for i in range(m + 1)]
    qc = [q.coeff_in("u", n - i) for i in range(n + 1)]
    size = m + n
    zero = MultiPoly.zero()
    rows = []
    for i in range(n):
        rows.append([zero] * i + pc + [zero] * (n - 1 - i))
    for i in range(m):
        rows.append([zero] * i + qc + [zero] * (m - 1 - i))
    return poly_matrix_det(rows)


# gcd machinery: enough for content/primitive normalization and the
# squarefree part, nothing more.

def _first_var(p, q=None):
    for i in range(_ARITY):
        if p.degree_in(i) > 0 or (q is not None and q.degree_in(i) > 0):
            return i
    return None


def _as_univar(p, i):
    out = {}
    for ex, c in p.terms.items():
        k = ex[i]
        nex = list(ex)
        nex[i] = 0
        out.setdefault(k, {})[tuple(nex)] = c
    return {k: _mp(t) for k, t in out.items()}


def mp_content(p, i):
    """Content of p seen as univariate in variable i: gcd of coefficients."""
    coeffs = list(_as_univar(p, i).values())
    g = MultiPoly.zero()
    for c in coeffs:
        g = mp_gcd(g, c)
    return g


def mp_divexact(p, q):
    """Exact division p / q; raises InexactDivision on a remainder and
    DivisionByZero on a zero q."""
    if q.is_zero():
        raise DivisionByZero("division by the zero polynomial")
    if p.is_zero():
        return p
    rem = dict(p.terms)
    quot = {}
    (q0, q1, q2, q3), qc = q.leading_term()
    qterms = q.terms.items()
    while rem:
        rex = max(rem, key=_grlex_key)
        rc = rem[rex]
        d0, d1, d2, d3 = (rex[0] - q0, rex[1] - q1, rex[2] - q2, rex[3] - q3)
        if d0 < 0 or d1 < 0 or d2 < 0 or d3 < 0:
            raise InexactDivision("division is not exact")
        # an int quotient when the division of ints leaves no remainder
        if rc.__class__ is int and qc.__class__ is int:
            c, m = divmod(rc, qc)
            if m:
                c = Fraction(rc, qc)
        else:
            c = Fraction(rc, qc)
        quot[(d0, d1, d2, d3)] = c
        # subtract c * x^d * q; the leading terms cancel exactly
        for (e0, e1, e2, e3), qv in qterms:
            ex = (e0 + d0, e1 + d1, e2 + d2, e3 + d3)
            v = rem.get(ex, 0) - c * qv
            if v:
                rem[ex] = v
            else:
                del rem[ex]
    return _mp(quot)


def _pseudo_rem(p, q, i):
    # remainder of lc(q)^k * p under division by q, univariate in variable i
    n = q.degree_in(i)
    d = q.coeff_in(i, n)
    r = p
    vi = [0] * _ARITY
    vi[i] = 1
    while not r.is_zero() and r.degree_in(i) >= n:
        m = r.degree_in(i)
        lr = r.coeff_in(i, m)
        shift = _mp({tuple(e * (m - n) for e in vi): 1})
        r = d * r - lr * shift * q
    return r


def mp_gcd(p, q):
    """A gcd over Q[x, y, z, u] by a primitive pseudo-remainder sequence.

    Each pseudo-remainder is divided by its content in the main variable
    and then made integer-primitive (``primitive_normalize``), so the
    coefficients stay small.  The result is fixed up to a rational factor
    only: its leading coefficient is positive, but a gcd read off an input
    unchanged keeps that input's rational content (the content of a
    polynomial with constant coefficients counts as 1).  So
    ``mp_gcd(u^2 - 1, 3u^2 + 3u)`` is ``u + 1`` while
    ``mp_gcd(2u + 2, 4u + 4)`` is ``4*u + 4``.  ``primitive_normalize``
    gives the canonical form.
    """
    if p.is_zero():
        return _normalize_sign(q)
    if q.is_zero():
        return _normalize_sign(p)
    i = _first_var(p, q)
    if i is None:
        return MultiPoly.constant(1)
    if p.degree_in(i) == 0:
        return mp_gcd(p, mp_content(q, i))
    if q.degree_in(i) == 0:
        return mp_gcd(mp_content(p, i), q)
    cp = mp_content(p, i)
    cq = mp_content(q, i)
    c = mp_gcd(cp, cq)
    a = mp_divexact(p, cp)
    b = mp_divexact(q, cq)
    if a.degree_in(i) < b.degree_in(i):
        a, b = b, a
    while not b.is_zero():
        r = _pseudo_rem(a, b, i)
        if r.is_zero():
            a, b = b, r
            break
        rc = mp_content(r, i)
        a, b = b, primitive_normalize(mp_divexact(r, rc))
    g = mp_divexact(a, mp_content(a, i))
    return _normalize_sign(c * g)


def _normalize_sign(p):
    if p.is_zero():
        return p
    _, lc = p.leading_term()
    return -p if lc < 0 else p


def primitive_normalize(p):
    """Integer-primitive form with positive leading coefficient.

    Clears denominators, divides out the integer content, and flips the
    sign so the graded-lex leading coefficient is positive.
    """
    if p.is_zero():
        return p
    # an int is its own numerator over 1
    den = _lcm(*(c.denominator for c in p.terms.values()))
    ints = {ex: c.numerator * (den // c.denominator)
            for ex, c in p.terms.items()}
    g = _int_gcd(*ints.values())
    _, lc = p.leading_term()
    if lc < 0:
        g = -g
    return _mp({ex: c // g for ex, c in ints.items()})


def squarefree_part(p):
    """The product of the distinct irreducible factors of p, primitive.

    Computed as p / gcd(p, all first partials), then normalized.
    """
    if p.is_zero():
        raise ValueError("squarefree part of zero")
    p = primitive_normalize(p)
    g = p
    for v in range(_ARITY):
        if p.degree_in(v) > 0:
            g = mp_gcd(g, p.derivative(v))
    if g.is_constant():
        return p
    return primitive_normalize(mp_divexact(p, g))


# ---------------------------------------------------------------------------
# dense univariate polynomials: coefficient lists, low degree first

def _int_primitive(a):
    # a nonzero and trimmed: divide out the content, leading coefficient > 0
    c = 0
    for x in a:
        c = _int_gcd(c, x)
    if a[-1] < 0:
        c = -c
    return [x // c for x in a]


def _int_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def int_poly_gcd(a, b):
    """Primitive-PRS gcd of two integer polynomials given as coefficient
    lists, low degree first; primitive with positive leading coefficient,
    ``[]`` when both are zero."""
    a, b = _int_trim(list(a)), _int_trim(list(b))
    if not b:
        return _int_primitive(a) if a else []
    if not a:
        return _int_primitive(b)
    if len(a) < len(b):
        a, b = b, a
    a, b = _int_primitive(a), _int_primitive(b)
    n, lb = len(b) - 1, b[-1]
    while True:
        # pseudo-remainder of a by b: each round cancels the top coefficient
        r = a
        while len(r) > n:
            lr, shift = r[-1], len(r) - 1 - n
            r = [lb * x for x in r]
            for i, x in enumerate(b):
                r[shift + i] -= lr * x
            _int_trim(r)
        if not r:
            return b
        a, b = b, _int_primitive(r)
        n, lb = len(b) - 1, b[-1]


def _newton_run(coeffs, dcoeffs, y, steps, rtol, basins):
    """Newton iteration from ``y`` on the complex polynomial ``coeffs`` with
    derivative ``dcoeffs`` (both low degree first, so ``dcoeffs`` is one
    shorter), as the parabolic scan runs it: a pair (the result, None), or
    (None, the iterate) when a basin stopped the run.

    Stops after ``steps`` steps, at a zero derivative, or once a step falls
    below ``rtol * max(1, |y|)``.  One Horner loop, written out here, gives
    the value and the derivative together; each accumulator runs the same
    operations in the same order as a loop of its own, so the bits are
    those of two separate evaluations.

    ``basins`` is None or a list of pairs (r, rho), a root already found
    and its radius from :func:`newton_basin_radius`.  An iterate within
    rho of some r, with at least six steps still to run, ends the run at
    once: from inside that radius Newton converges to r quadratically, so
    the full run would have ended next to r anyway.  The basins are only
    looked at when the step from the iterate is below 4 max rho: from
    within rho of a simple root the Newton step is below about 1.2 rho, so
    a longer step rules out every basin.
    """
    lead = coeffs[-1]
    pairs = list(zip(coeffs[-2::-1], dcoeffs[::-1]))
    # a basin can end the run at steps 0 .. watch - 1
    watch = steps - _BASIN_STEPS + 1 if basins else 0
    near = 4 * max(rho for _, rho in basins) if basins else 0.0
    for k in range(steps):
        v = 0j * y + lead
        dv = 0j
        for c, d in pairs:
            dv = dv * y + d
            v = v * y + c
        if dv == 0:
            if k < watch:
                for r, rho in basins:
                    if abs(y - r) < rho:
                        return None, y
            break
        step = v / dv
        size = abs(step)
        if k < watch and size < near:
            for r, rho in basins:
                if abs(y - r) < rho:
                    return None, y
        y = y - step
        # max(1.0, |y|) without the builtin call, NaN included
        ay = abs(y)
        if size < rtol * (ay if ay > 1.0 else 1.0):
            break
    return y, None


def _in_basin(y, basins):
    for r, rho in basins:
        if abs(y - r) < rho:
            return True
    return False


# steps a run must have left to stop inside a basin: from within the
# radius, six exact Newton steps shrink the distance by 2^-63
_BASIN_STEPS = 6

# Smale's gamma-theorem: Newton converges quadratically to a simple root
# from within (3 - sqrt 7) / (2 gamma) of it
_GAMMA_THEOREM = (3 - 7 ** 0.5) / 2


def newton_basin_radius(coeffs, r):
    """Half the gamma-theorem radius (3 - sqrt 7) / (2 gamma) of ``r`` as a
    root of the complex polynomial ``coeffs`` (low degree first), where
    gamma = max_{k >= 2} |g^(k)(r) / (k! g'(r))|^(1/(k-1)); 0 when the
    computed g'(r) is 0.

    Smale's gamma-theorem (Blum, Cucker, Shub and Smale, *Complexity and
    Real Computation*, 1998, ch. 8, Thm 1): from any z within that radius
    of a simple root, the Newton iterates z_k satisfy
    |z_k - r| <= 2^(1 - 2^k) |z - r|.  The factor one half leaves room for
    r being a float approximation of the root and for the rounding of the
    Taylor coefficients g^(k)(r) / k!, which come from repeated synthetic
    division by (y - r), O(deg^2) work.
    """
    rest = list(reversed(coeffs))
    taylor = []
    while rest:
        acc = 0j
        quot = []
        for c in rest:
            acc = acc * r + c
            quot.append(acc)
        taylor.append(quot.pop())
        rest = quot
    if len(taylor) < 2 or taylor[1] == 0:
        return 0.0
    d1 = abs(taylor[1])
    gamma = max([(abs(a) / d1) ** (1.0 / (k - 1))
                 for k, a in enumerate(taylor[2:], 2)], default=0.0)
    if gamma == 0:
        # g is linear: one Newton step from anywhere lands on r
        return float("inf")
    return 0.5 * _GAMMA_THEOREM / gamma


# unit roundoff of IEEE double precision
_UNIT_ROUNDOFF = 2.0 ** -53


def _horner_bound(coeffs, y):
    # the Horner value of coeffs at y and sum |c_i| |y|^i, its error scale
    v = 0j
    mag = 0.0
    ay = abs(y)
    for c in reversed(coeffs):
        v = v * y + c
        mag = mag * ay + abs(c)
    return v, mag


def horner_within_rounding(coeffs, y):
    """Whether the Horner value of ``coeffs`` (complex, low degree first) at
    ``y`` is within its rounding-error bound gamma_4n * sum |c_i| |y|^i, so
    y is an exact root of a polynomial whose coefficients differ from
    ``coeffs`` by relative amounts below 2 gamma_4n.

    Higham, *Accuracy and Stability of Numerical Algorithms* (2nd ed.),
    5.1: Horner's rule in degree n computes g(y) with error at most
    gamma_2n * sum |c_i| |y|^i in real arithmetic.  A complex product is
    exact to a factor 1 + delta with |delta| <= sqrt(2) gamma_2 (3.6),
    below gamma_3, so complex Horner has gamma_4n in place of gamma_2n.
    """
    v, mag = _horner_bound(coeffs, y)
    nu = 4 * (len(coeffs) - 1) * _UNIT_ROUNDOFF
    return abs(v) <= nu / (1 - nu) * mag


def inclusion_radius(coeffs, dcoeffs, r):
    """A radius around ``r`` within which the complex polynomial ``coeffs``
    (low degree first, degree n, derivative ``dcoeffs``) has a root: an
    upper bound on n |g(r)| / |g'(r)|; infinite when the bound on |g'(r)|
    does not clear 0.

    g'/g = sum_j 1 / (z - zeta_j) over the n roots zeta_j, so
    |g'(r) / g(r)| <= n / min_j |r - zeta_j|.  Both values carry the
    Horner rounding term of :func:`horner_within_rounding`, here with
    gamma_8n, which also covers the rounding of the magnitude sums, of
    ``abs`` and of integer coefficients past 2^53.
    """
    n = len(coeffs) - 1
    v, mag = _horner_bound(coeffs, r)
    dv, dmag = _horner_bound(dcoeffs, r)
    nu = 8 * n * _UNIT_ROUNDOFF
    nu = nu / (1 - nu)
    lower = abs(dv) - nu * (abs(dv) + dmag)
    if lower <= 0:
        return float("inf")
    return n * (abs(v) + nu * (abs(v) + mag)) / lower * (1 + nu)


def left_root_count(g, a, k):
    """The number of roots y of the integer polynomial ``g`` (low degree
    first, nonzero leading coefficient), with multiplicity, such that
    Re y < a / 2^k; None when the count is not decided at that line.

    The roots of h(s) = 2^(kn) g((a + s) / 2^k), an integer polynomial,
    are s = 2^k y - a, so the count is that of h in the open left
    half-plane.  Routh's theorem (Gantmacher, *The Theory of Matrices*,
    vol. 2, ch. XV, 6): when no entry of the first column of the Routh
    array is zero, h has no root on the imaginary axis and as many roots
    with Re s > 0 as that column has changes of sign.  A zero entry, which
    a root on the line always makes, returns None.

    The Routh array is Gaussian elimination on the Hurwitz matrix of h
    (ibid.), so it runs fraction-free as Bareiss does: row i + 1 is
    (row_i[0] row_(i-1)[j + 1] - row_(i-1)[0] row_i[j + 1]) / D_(i-2),
    which divides exactly.  Row i >= 1 is then D_(i-1) times the Routh row,
    with D_i, the i-th leading principal minor of the Hurwitz matrix (D_0 =
    1), as its first entry; the Routh entry D_i / D_(i-1) has the sign of
    D_i D_(i-1), the sign correction.
    """
    n = len(g) - 1
    # h, high degree first, by Horner in s: h <- h (s + a) + g_i 2^(k (n - i))
    h = [g[-1]]
    for i in range(n - 1, -1, -1):
        h = [x + a * y for x, y in zip(h + [0], [0] + h)]
        h[-1] += g[i] << (k * (n - i))
    top, row = h[0::2], h[1::2]
    row += [0] * (len(top) - len(row))
    positive = top[0] > 0
    minor_positive = True
    changes = 0
    div = 1
    for i in range(1, n + 1):
        lead = row[0]
        if lead == 0:
            return None
        was, positive = positive, (lead > 0) == minor_positive
        changes += was != positive
        minor_positive = lead > 0
        if i < n:
            nxt = [(lead * top[j + 1] - top[0] * row[j + 1]) // div
                   for j in range(len(row) - 1)] + [0]
            div = top[0] if i > 1 else 1
            top, row = row, nxt
    return n - changes


# sweeps of the Aberth-Ehrlich iteration before it stops: simple roots
# converge cubically, in about ten, multiple roots linearly until their
# values reach the rounding bound
_ABERTH_SWEEPS = 100

# angle of the first start on the circle: no rational multiple of pi, so no
# start is real and no two are complex conjugates
_ABERTH_OFFSET = 0.7


def aberth_roots(coeffs):
    """The deg roots of the complex polynomial ``coeffs`` (low degree first,
    nonzero leading coefficient), repeated by multiplicity, by the
    Aberth-Ehrlich iteration.

    Bini, *Numer. Algorithms* 13 (1996): every approximation z_k moves by
    w_k = g(z_k) / (g'(z_k) - g(z_k) sum_{j != k} 1 / (z_k - z_j)), a
    Newton step repelled by the other approximations.  Trailing zero
    coefficients give exact zero roots.  The others start on the circle of
    radius half the Fujiwara bound 2 max(|c_(n-k) / c_n|^(1/k),
    |c_0 / (2 c_n)|^(1/n)), which every root lies within, at equal angles
    from ``_ABERTH_OFFSET``.  Each sweep updates them in place, in order.
    An approximation is final once its Horner value is within the rounding
    bound of :func:`horner_within_rounding` or its step falls below the
    unit roundoff relative to it; after ``_ABERTH_SWEEPS`` sweeps all are.

    Returns exactly deg finite values and never raises on multiple or zero
    roots: an update whose denominator is 0, or that would leave the finite
    range, is skipped.  A root of multiplicity m comes back as m
    approximations within about the m-th root of the rounding error, as
    from any solver in double precision.

    >>> sorted(round(r.real, 12) for r in aberth_roots([2, -3, 1]))
    [1.0, 2.0]
    """
    zeros = 0
    while coeffs[zeros] == 0:
        zeros += 1
    rc = coeffs[zeros:][::-1]
    n = len(rc) - 1
    if n == 0:
        return [0j] * zeros
    lead = rc[0]
    half_bound = max([abs(rc[k] / lead) ** (1.0 / k) for k in range(1, n)]
                     + [abs(rc[n] / (2 * lead)) ** (1.0 / n)])
    z = [_rect(half_bound, 2 * _PI * k / n + _ABERTH_OFFSET)
         for k in range(n)]
    mags = [abs(c) for c in rc]
    nu = 4 * n * _UNIT_ROUNDOFF
    nu = nu / (1 - nu)
    live = range(n)
    for _ in range(_ABERTH_SWEEPS):
        if not live:
            break
        moving = []
        for k in live:
            zk = z[k]
            az = abs(zk)
            v = dv = 0j
            mag = 0.0
            for c, m in zip(rc, mags):
                dv = dv * zk + v
                v = v * zk + c
                mag = mag * az + m
            if abs(v) <= nu * mag:
                continue
            s = 0j
            for zj in z:
                if zj != zk:
                    s += 1 / (zk - zj)
            den = dv - v * s
            if den == 0:
                moving.append(k)
                continue
            w = v / den
            new = zk - w
            if not _isfinite(new):
                continue
            z[k] = new
            if abs(w) > _UNIT_ROUNDOFF * abs(new):
                moving.append(k)
        live = moving
    return [0j] * zeros + z
