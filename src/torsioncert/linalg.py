"""Dense matrices over the scalar kinds, with exact and floating kernels.

A ``Matrix`` stores what its kernels compute on: over Q or Q(sqrt d),
integer numerators over one denominator, (P + Q*sqrt d)/den, reduced so
that den is the lcm of the entries' denominators; over C, its own rows
over 1.  ``field`` is ``'rational'``, ``'complex'`` or d.  Arithmetic,
submatrices, block assembly, symmetric powers (over Q(sqrt d) on the int
pairs (P, Q)), determinants, ranks and the chain check run on that
storage, and ``entries`` is built from it only when read.  Complex
arithmetic performs the entries' own float operations in their order, and
its results are checked finite once (``NonFinite``);
running products (``running_mul``) are reduced or checked only where
``product`` keeps them, or ``signed_blocks`` adds them into one grid of
blocks.

Exact determinants and ranks share one Bareiss single-step fraction-free
row echelon (Bareiss, *Math. Comp.* 22, 1968) over Z, or over Z[sqrt d] on
pairs of ints, on the numerators with each row divided by its content.
Every entry is a minor, so the division by the previous pivot is exact (a
remainder raises ``InexactDivision``), and a step whose pivot equals the
previous one touches only the entries it changes; columns without a pivot
are skipped, so rectangular matrices work too.  Fox's fundamental formula
(``fox_formula_row``) is checked on numerators too, and on a complex
matrix's own rows.  Float determinants use partial
pivoting, floating ranks a largest-pivot threshold scaled by the max row
norm, and inverses of every kind one Gauss-Jordan loop, whose complex
results are checked finite once as well.

Matrices are immutable.  ``Matrix(rows)`` (parsing, callers' matrices)
promotes every entry, ints riding along as honorary rationals.
Operands over two fields take that full path, except that Q(sqrt d) and
complex ones raise ``MixedScalarKind``.

Text form: rows separated by ``;``, entries by ``,``, scalars in the scalar
grammar, e.g. ``0,1;-1,4``.
"""

import cmath
import math
import operator
from fractions import Fraction
from functools import reduce
from itertools import chain
from operator import add, mul

from . import scalar as _s
from .errors import (DimensionMismatch, DivisionByZero, InexactDivision,
                     MixedExtension, MixedScalarKind, NonFinite, NotSquare,
                     NotTwoByTwo, ParseError)


def _promote_entries(rows):
    kinds = set()
    quad_d = set()
    for row in rows:
        for e in row:
            k = _s.kind_of(e)
            kinds.add(k)
            if k == "quadext":
                quad_d.add(e.d)
    if "quadext" in kinds and "complex" in kinds:
        raise MixedScalarKind("quadratic-extension and complex entries mixed")
    if len(quad_d) > 1:
        a, b = sorted(quad_d)[:2]
        raise MixedExtension("cannot mix sqrt(%d) with sqrt(%d)" % (a, b))
    if "complex" in kinds:
        return [[_s.to_complexf(e) for e in row] for row in rows], "complex"
    if "quadext" in kinds:
        d = quad_d.pop()
        return [[e if isinstance(e, _s.QuadExt) else _s.QuadExt(e, 0, d)
                 for e in row] for row in rows], d
    return [list(map(_s.integral_to_int, row)) for row in rows], "rational"


class Matrix:
    """An immutable rows x cols matrix over one field: ``_parts`` is (P,),
    or (P, Q) over Q(sqrt d), grids of ints (complex values over C) over
    the int ``_denom``."""

    __slots__ = ("rows", "cols", "field", "_parts", "_denom", "_entries")

    def __init__(self, rows_of_entries):
        rows = [list(r) for r in rows_of_entries]
        if not rows or not rows[0]:
            raise ValueError("matrix needs at least one row and column")
        w = len(rows[0])
        if any(len(r) != w for r in rows):
            raise DimensionMismatch("ragged rows")
        rows, field = _promote_entries(rows)
        _from_entries(tuple(map(tuple, rows)), field, self)

    def __setattr__(self, name, value):
        raise AttributeError("matrices are immutable")

    @classmethod
    def identity(cls, n):
        return units(n, "rational")[0]

    @property
    def scalar_kind(self):
        """'rational', 'quadext' or 'complex'."""
        return "quadext" if type(self.field) is int else self.field

    @property
    def entries(self):
        """The rows of entries, built from the numerators once."""
        e = self._entries
        if e is None:
            e = _materialize(self)
            _set_entries(self, e)
        return e

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def _same_shape(self, other):
        if not isinstance(other, Matrix):
            raise TypeError("expected a Matrix")
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch(
                "%dx%d vs %dx%d" % (self.rows, self.cols, other.rows, other.cols))

    def _pointwise(self, other, op):
        """self op other entrywise, for op add or sub."""
        self._same_shape(other)
        f = self.field
        if f != other.field:
            return _across_fields(f, other.field, lambda: [
                list(map(op, ra, rb))
                for ra, rb in zip(self.entries, other.entries)])
        den = math.lcm(self._denom, other._denom)
        fa, fb = den // self._denom, den // other._denom
        return _finish(_new(f, [
            [list(map(op, ra, rb)) for ra, rb in zip(_scaled(a, fa),
                                                     _scaled(b, fb))]
            for a, b in zip(self._parts, other._parts)], den))

    def __add__(self, other):
        return self._pointwise(other, add)

    def __sub__(self, other):
        return self._pointwise(other, operator.sub)

    def __neg__(self):
        # negation keeps the numerators reduced and the entries finite
        return _new(self.field, [[[-x for x in r] for r in part]
                                 for part in self._parts], self._denom)

    def scale(self, c):
        f = self.field
        cf = c.d if isinstance(c, _s.QuadExt) else _s.kind_of(c)
        if f == "complex" and cf in (f, "rational"):
            return _finish(_new(f, ([[c * a for a in r]
                                     for r in self._parts[0]],)))
        if cf == "rational":
            return _finish(_new(f, [_scaled(part, c.numerator)
                                    for part in self._parts],
                                self._denom * c.denominator))
        if cf == f:
            # (P + Q sqrt d)(p + q sqrt d) = Pp + dQq + (Pq + Qp) sqrt d
            cp, cq = c._p, c._q
            rows = list(zip(*self._parts))
            return _finish(_new(f, (
                [[x * cp + f * y * cq for x, y in zip(*r)] for r in rows],
                [[x * cq + y * cp for x, y in zip(*r)] for r in rows]),
                self._denom * c._den))
        return _across_fields(f, cf, lambda: [[c * a for a in r]
                                              for r in self.entries])

    __rmul__ = scale

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return self.scale(other)
        if self.cols != other.rows:
            raise DimensionMismatch(
                "%dx%d times %dx%d" % (self.rows, self.cols, other.rows, other.cols))
        if self.field != other.field:
            return _across_fields(self.field, other.field,
                                  lambda: grid_mul(self.entries, other.entries))
        return _finish(running_mul(self, other))

    def transpose(self):
        return _new(self.field, [tuple(zip(*part)) for part in self._parts],
                    self._denom)

    def trace(self):
        if self.rows != self.cols:
            raise NotSquare("trace of a %dx%d matrix" % (self.rows, self.cols))
        t = self.entries[0][0]
        for i in range(1, self.rows):
            t = t + self.entries[i][i]
        return _s.check_finite(_s.integral_to_int(t))

    def max_row_norm(self):
        """Largest row 2-norm of a complex matrix, as a float; an entry
        whose modulus passes the float range raises ``NonFinite``."""
        return _max_row_norm(self._parts[0])

    def submatrix(self, row_idx, col_idx):
        row_idx, col_idx = list(row_idx), list(col_idx)
        m = _new(self.field, [[[part[i][j] for j in col_idx] for i in row_idx]
                              for part in self._parts], self._denom)
        # complex entries were checked when self was built
        return m if self.field == "complex" else _finish(m)

    def det(self):
        return det(self)

    def rank(self):
        return rank(self)

    def inverse(self):
        return inverse(self)

    def __str__(self):
        return matrix_str(self)

    def __repr__(self):
        return "Matrix(%r)" % matrix_str(self)


_set_rows = Matrix.rows.__set__
_set_cols = Matrix.cols.__set__
_set_field = Matrix.field.__set__
_set_parts = Matrix._parts.__set__
_set_denom = Matrix._denom.__set__
_set_entries = Matrix._entries.__set__


def _new(field, parts, den=1, entries=None, m=None):
    """The matrix of the grids ``parts`` over ``den`` as given, neither
    reduced nor checked finite; the grids are never changed afterwards."""
    p = parts[0]
    if not p or not p[0]:
        raise ValueError("matrix needs at least one row and column")
    if m is None:
        m = object.__new__(Matrix)
    _set_rows(m, len(p))
    _set_cols(m, len(p[0]))
    _set_field(m, field)
    _set_parts(m, parts)
    _set_denom(m, den)
    _set_entries(m, entries)
    return m


def _finish(m):
    """m reduced by the gcd of its numerators and denominator, or, over C,
    checked finite: a non-finite sum takes the full path, which names the
    entry in ``NonFinite`` (or keeps finite entries whose sum overflows)."""
    if m.field == "complex":
        rows = m._parts[0]
        return m if cmath.isfinite(sum(map(sum, rows))) else Matrix(rows)
    g = m._denom
    for r in chain.from_iterable(m._parts):
        if g == 1:
            return m
        g = math.gcd(g, *r)
    if g == 1:
        return m
    return _new(m.field, [[[x // g for x in r] for r in part]
                          for part in m._parts], m._denom // g)


def _scaled(rows, f):
    return rows if f == 1 else [[x * f for x in r] for r in rows]


def _from_entries(entries, field, m=None):
    """The matrix of promoted ``entries`` over ``field``, which it keeps;
    exact ones are put over the lcm of their denominators."""
    if field == "complex":
        return _new(field, (entries,), 1, entries, m)
    if field == "rational":
        den = math.lcm(*(e.denominator for r in entries for e in r))
        parts = (entries if den == 1 else
                 [[e.numerator * (den // e.denominator) for e in r]
                  for r in entries],)
    else:
        den = math.lcm(*(e._den for r in entries for e in r))
        parts = ([[e._p * (den // e._den) for e in r] for r in entries],
                 [[e._q * (den // e._den) for e in r] for r in entries])
    return _new(field, parts, den, entries, m)


def _materialize(m):
    """The entries of m from its numerators: ints or Fractions over Q,
    ``QuadExt`` values over Q(sqrt d), the rows themselves over C."""
    den = m._denom
    if den == 1 and len(m._parts) == 1:
        # complex rows and integer matrices are their own entries
        return tuple(map(tuple, m._parts[0]))
    if len(m._parts) == 1:
        return tuple(tuple(_ratio(x, den) for x in r) for r in m._parts[0])
    quad, d = _s._quad, m.field
    return tuple(tuple(quad(x, y, den, d) for x, y in zip(*rows))
                 for rows in zip(*m._parts))


def _across_fields(fa, fb, rows):
    """The full path for operands over two fields: ``Matrix(rows())``;
    Q(sqrt d) and complex operands raise ``MixedScalarKind``."""
    if "complex" in (fa, fb) and (type(fa) is int or type(fb) is int):
        raise MixedScalarKind("quadratic-extension and complex entries mixed")
    return Matrix(rows())


def running_mul(a, b):
    """a . b over one field as a step of a running product, neither reduced
    nor checked finite until :func:`product` or :func:`signed_blocks`
    keeps it."""
    den = a._denom * b._denom
    if len(a._parts) == 1:
        return _new(a.field, (grid_mul(a._parts[0], b._parts[0]),), den)
    d = a.field
    bp, bq = b._parts
    cols = list(zip(zip(*bp), zip(*bq)))
    rows = list(zip(*a._parts))
    # (P + Q sqrt d)(P' + Q' sqrt d) = PP' + dQQ' + (PQ' + QP') sqrt d
    return _new(d, (
        [[sum(map(mul, rp, cp)) + d * sum(map(mul, rq, cq))
          for cp, cq in cols] for rp, rq in rows],
        [[sum(map(mul, rp, cq)) + sum(map(mul, rq, cp))
          for cp, cq in cols] for rp, rq in rows]), den)


def product(factors, start):
    """The left fold of ``running_mul`` over ``factors`` from ``start``,
    reduced or checked finite once."""
    return _finish(reduce(running_mul, factors, start))


def sweep_mul(a, b):
    """:func:`running_mul` with None for the identity, as
    :func:`signed_blocks` reads it: 1 . b is b without a product."""
    return b if a is None else running_mul(a, b)


def signed_blocks(terms, rows, cols, n, field):
    """The rows x cols grid of n x n blocks over ``field`` whose block
    (i, j) sums sign * m over the terms ``(i, j, sign, m)`` in order, m
    None the identity: exact terms over the lcm of all their denominators,
    reduced once; complex ones as ``a + sign * x`` from 0j, checked finite
    once, and a non-finite entry named from the first block, in (i, j)
    order, that holds one."""
    den = math.lcm(*[m._denom for *_, m in terms if m is not None])
    zero = 0j if field == "complex" else 0
    parts = [[[zero] * (cols * n) for _ in range(rows * n)]
             for _ in range(1 + (type(field) is int))]
    for i, j, sign, m in terms:
        if m is None:
            for r in range(n):
                parts[0][i * n + r][j * n + r] += sign * den
            continue
        f, lo, hi = sign * (den // m._denom), j * n, j * n + n
        for grid, block in zip(parts, m._parts):
            for row, r in zip(grid[i * n:i * n + n], block):
                row[lo:hi] = [a + f * x for a, x in zip(row[lo:hi], r)]
    if field == "complex" and not cmath.isfinite(sum(map(sum, parts[0]))):
        for i in range(0, rows * n, n):
            for j in range(0, cols * n, n):
                Matrix([r[j:j + n] for r in parts[0][i:i + n]])
    return _finish(_new(field, parts, den))


def units(n, field):
    """The n x n identity and zero matrices over ``field``."""
    unit = complex if field == "complex" else int
    one = [[unit(i == j) for j in range(n)] for i in range(n)]
    zero = [[unit(0)] * n for _ in range(n)]
    surd = (zero,) if type(field) is int else ()
    return _new(field, (one,) + surd), _new(field, (zero,) + surd)


def grid_mul(a, b):
    """Product of two grids (lists of rows) of ring elements, as a grid;
    each entry is the left fold of its products, from the first one."""
    cols = list(zip(*b))
    return [[reduce(add, map(mul, row, col)) for col in cols] for row in a]


def det(m):
    """Determinant: Bareiss for exact kinds, partial pivoting for floats."""
    return det_rank_with_scale(m)[0]


def det_rank_with_scale(m):
    """The determinant of m, a noise scale for relative zero tests, and
    the rank where the same elimination gives it.

    The float scale is the product over elimination steps of the largest
    entry magnitude in the remaining submatrix (clamped below by 1), which
    tracks the size of the terms whose cancellation produces the
    determinant; the float result is trustworthy down to roughly
    eps * scale.  Exact kinds return scale 1.0.  The rank is that of the
    Bareiss echelon whose last pivot is the determinant for exact kinds,
    and None for floats: a float rank (:func:`rank`, complete pivoting
    against the zero tolerance) is a decision of its own, not a by-product
    of the partially pivoted determinant."""
    if not isinstance(m, Matrix):
        raise TypeError("expected a Matrix")
    if m.rows != m.cols:
        raise NotSquare("determinant of a %dx%d matrix" % (m.rows, m.cols))
    if m.field != "complex":
        d, found = _bareiss_det(m)
        return d, 1.0, found
    return _float_det(m) + (None,)


def _echelon(m):
    """Fraction-free (Bareiss) row echelon form of an exact matrix, on its
    numerators with each row divided by its content.

    Returns (rank, last pivot, sign of the row swaps, product of the row
    contents).  The pivot is an int, or a (p, q) pair standing for
    p + q*sqrt(d) over Q(sqrt d).  A column with no pivot at or below the
    current row is skipped; every entry stays a minor of the divided
    numerators, so the division by the previous pivot is exact.  A step
    whose pivot p equals the previous one is plain elimination,
    x - a_ic*y/p: rows with a_ic = 0 stay as they are, and the others
    change only where the pivot row's y is nonzero, to the same minors.
    For a square m of full rank, det(m) is that sign times the last pivot
    times the contents, over den^rows.
    """
    contents = [math.gcd(*chain(*rows)) or 1 for rows in zip(*m._parts)]
    a = [[list(r) if c == 1 else [x // c for x in r]
          for r, c in zip(part, contents)] for part in m._parts]
    if len(a) == 1:
        found, pivot, sign = _echelon_z(a[0], m.cols)
    else:
        found, pivot, sign = _echelon_zd(*a, m.field, m.cols)
    return found, pivot, sign, math.prod(contents)


def _echelon_z(a, nc):
    """Bareiss on the int rows ``a`` in place: (rank, last pivot, sign)."""
    nr = len(a)
    r, sign, denom = 0, 1, 1
    for c in range(nc):
        piv = next((i for i in range(r, nr) if a[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            sign = -sign
        pk = a[r][c]
        if pk == denom:
            # a unit-ratio step: (x*pk - a_ic*y)/pk = x - a_ic*y/pk, so
            # only rows with a_ic != 0 change, and only where y != 0
            hits = [(j, y) for j, y in enumerate(a[r][c + 1:], c + 1) if y]
            for rowi in a[r + 1:] if hits else ():
                aik = rowi[c]
                if not aik:
                    continue
                new = [aik * y for _, y in hits]
                if pk != 1:
                    new = _exact_quotients(new, pk)
                for (j, _), q in zip(hits, new):
                    rowi[j] -= q
        else:
            tail = a[r][c + 1:]
            for i in range(r + 1, nr):
                rowi = a[i]
                aik = rowi[c]
                new = [x * pk - aik * y for x, y in zip(rowi[c + 1:], tail)]
                rowi[c + 1:] = new if denom == 1 else \
                    _exact_quotients(new, denom)
        denom = pk
        r += 1
        if r == nr:
            break
    return r, denom, sign


def _echelon_zd(ap, aq, d, nc):
    """Bareiss over Z[sqrt d] in place, on rows ``ap[i] + aq[i]*sqrt d``
    of ints: (rank, last pivot as a (p, q) pair, sign); unit-ratio steps
    as in :func:`_echelon_z`."""
    nr = len(ap)
    r, sign, dp, dq = 0, 1, 1, 0
    for c in range(nc):
        piv = next((i for i in range(r, nr) if ap[i][c] or aq[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            ap[r], ap[piv] = ap[piv], ap[r]
            aq[r], aq[piv] = aq[piv], aq[r]
            sign = -sign
        kp, kq = ap[r][c], aq[r][c]
        tp, tq = ap[r][c + 1:], aq[r][c + 1:]
        if (kp, kq) == (dp, dq):
            hits = [(j, u, v) for j, (u, v) in enumerate(zip(tp, tq), c + 1)
                    if u or v]
            for rp, rq in zip(ap[r + 1:], aq[r + 1:]) if hits else ():
                ip, iq = rp[c], rq[c]
                if not (ip or iq):
                    continue
                diq = d * iq
                xp, xq = _zd_divided(
                    [ip * u + diq * v for _, u, v in hits],
                    [ip * v + iq * u for _, u, v in hits], dp, dq, d)
                for (j, _, _), x, y in zip(hits, xp, xq):
                    rp[j] -= x
                    rq[j] -= y
        else:
            dkq = d * kq
            for rp, rq in zip(ap[r + 1:], aq[r + 1:]):
                ip, iq = rp[c], rq[c]
                diq = d * iq
                cols = list(zip(rp[c + 1:], rq[c + 1:], tp, tq))
                # row_i * pivot - a_ic * row_k
                rp[c + 1:], rq[c + 1:] = _zd_divided(
                    [x * kp + y * dkq - ip * u - diq * v
                     for x, y, u, v in cols],
                    [x * kq + y * kp - ip * v - iq * u
                     for x, y, u, v in cols], dp, dq, d)
        dp, dq = kp, kq
        r += 1
        if r == nr:
            break
    return r, (dp, dq), sign


def _zd_divided(xp, xq, dp, dq, d):
    """The numbers xp[i] + xq[i]*sqrt d divided by the pivot dp + dq*sqrt d,
    which must divide each: through its conjugate, the numerator is
    multiplied by dp - dq*sqrt d and both of its parts divided by the
    integer norm dp^2 - d*dq^2, nonzero because d is not a square."""
    if dq:
        xp, xq = ([u * dp - d * v * dq for u, v in zip(xp, xq)],
                  [v * dp - u * dq for u, v in zip(xp, xq)])
        div = dp * dp - d * dq * dq
    else:
        div = dp
    if div == 1:
        return xp, xq
    return _exact_quotients(xp, div), _exact_quotients(xq, div)


def _exact_quotients(values, denom):
    """Each of the ints ``values`` divided by ``denom``, which must divide
    every one of them: a remainder raises InexactDivision."""
    out = []
    for v in values:
        q, rem = divmod(v, denom)
        if rem:
            raise InexactDivision("Bareiss division of %d by %d leaves %d"
                                  % (v, denom, rem))
        out.append(q)
    return out


def _bareiss_det(m):
    """(det, rank) of a square exact m from one :func:`_echelon`."""
    found, pivot, sign, content = _echelon(m)
    if found < m.rows:
        return 0, found
    den = m._denom ** m.rows
    if len(m._parts) == 2:
        p, q = pivot
        return _s._quad(sign * content * p, sign * content * q, den,
                        m.field), found
    return _ratio(sign * content * pivot, den), found


def _ratio(num, den):
    """num/den for ints, den > 0: an int where it is whole, else a
    Fraction."""
    if den == 1:
        return num
    q, rem = divmod(num, den)
    return Fraction(num, den) if rem else q


def fox_formula_row(m, images, words=None):
    """The first row where m . D1 differs from W - 1, or None.

    m has n x n blocks, a block column per generator image in ``images``.
    D1 stacks rho(x_j) - 1 for those images, and W - 1 stacks
    rho(w_i) - 1 for ``words``, an image per block row of m, or is 0
    without them.  When m holds the evaluated Fox derivatives of the
    words, Fox's fundamental formula says that the two are equal.

    Exact kinds compare numerators, with no matrix built: D1 and W - 1
    over the lcm of the images' denominators, and W - 1 times m's.  A
    float row differs when an entry of the residual m . D1 - (W - 1) does
    not test zero against the scale ``max(1, |[m | W - 1]| |[D1; -1]|)``
    in max row norms, or ``max(1, |m| |D1|)`` without words; a non-finite
    entry never does.
    """
    n = images[0].rows
    if m.cols != len(images) * n or (words is not None
                                     and m.rows != len(words) * n):
        raise DimensionMismatch("Fox formula on a %dx%d matrix with %d x %d"
                                " blocks" % (m.rows, m.cols, n, n))
    blocks = list(chain(images, words or ()))
    if any(b.field != m.field for b in blocks):
        raise MixedScalarKind("Fox formula over two fields")
    if m.field == "complex":
        return _float_fox_formula_row(m, images, words)
    den = math.lcm(*[b._denom for b in blocks])
    cols = [list(zip(*part)) for part in _less_one(images, den)]
    if words is None:
        want = [[[0] * n] * m.rows] * len(cols)
    else:
        want = [[[x * m._denom for x in r] for r in part]
                for part in _less_one(words, den)]
    if len(cols) == 1:
        for i, (row, w) in enumerate(zip(m._parts[0], want[0])):
            if [sum(map(mul, row, col)) for col in cols[0]] != w:
                return i
        return None
    d = m.field
    cols = list(zip(*cols))
    # (P + Q sqrt d)(P' + Q' sqrt d) = PP' + dQQ' + (PQ' + QP') sqrt d
    for i, (rp, rq, wp, wq) in enumerate(zip(*m._parts, *want)):
        if [sum(map(mul, rp, cp)) + d * sum(map(mul, rq, cq))
                for cp, cq in cols] != wp or \
                [sum(map(mul, rp, cq)) + sum(map(mul, rq, cp))
                 for cp, cq in cols] != wq:
            return i
    return None


def _less_one(mats, den):
    """The parts of the column of the exact square ``mats`` minus 1, on
    numerators over den, a multiple of each one's denominator."""
    parts = []
    for k in range(len(mats[0]._parts)):
        rows = []
        for b in mats:
            f = den // b._denom
            for i, r in enumerate(b._parts[k]):
                r = [x * f for x in r]
                if k == 0:
                    r[i] -= den
                rows.append(r)
        parts.append(rows)
    return parts


def _float_fox_formula_row(m, images, words):
    """:func:`fox_formula_row` of complex m: each residual entry is the
    left fold of its products, as in :func:`grid_mul`, minus the entry of
    W - 1, so its modulus is that of the row of [m | W - 1] . [D1; -1]."""
    n = images[0].rows
    one = units(n, "complex")[0]._parts[0]
    d1 = _float_less_one(images, one)
    rows = m._parts[0]
    if words is None:
        w1 = [(0j,) * n] * m.rows
        scale = _max_row_norm(rows) * _max_row_norm(d1)
    else:
        w1 = _float_less_one(words, one)
        # the rows of -1 under D1 have norm 1
        scale = _max_row_norm(map(chain, rows, w1)) * max(_max_row_norm(d1),
                                                          1.0)
    scale = max(1.0, scale)
    cols = list(zip(*d1))
    for i, (row, w) in enumerate(zip(rows, w1)):
        if not all(_s.zero_test(reduce(add, map(mul, row, col)) - x,
                                scale=scale)
                   for col, x in zip(cols, w)):
            return i
    return None


def _float_less_one(mats, one):
    """The rows of the column of the complex ``mats`` minus the rows
    ``one`` of 1, entry by entry as ``Matrix`` subtraction takes them."""
    return [[x - u for x, u in zip(r, ur)]
            for b in mats for r, ur in zip(b._parts[0], one)]


def _max_row_norm(rows):
    """Largest 2-norm of the complex ``rows``, as a float; an entry whose
    modulus passes the float range raises ``NonFinite``."""
    try:
        return max([math.hypot(*map(abs, r)) for r in rows])
    except OverflowError:
        raise NonFinite("complex modulus beyond the float range") from None


def _float_det(m):
    """:func:`det_rank_with_scale` of a complex m, without the rank, by
    partial pivoting on the rows left, each cut to the columns left.  The
    pivot is the first entry of largest modulus in its column.  Each
    step's factor of the scale is the largest modulus left, found from 1.0
    up by strict comparisons, so a NaN from overflow never enters it."""
    a = list(m._parts[0])
    sign = 1
    scale = 1.0
    prod = complex(1.0)
    while a:
        col = [abs(r[0]) for r in a]
        best = max(col)
        scale *= max(1.0, *map(abs, chain.from_iterable(a)))
        if best == 0.0:
            return _s.ComplexF(0.0, 0.0), scale
        piv = col.index(best)
        if piv:
            a[0], a[piv] = a[piv], a[0]
            sign = -sign
        top = a[0]
        pk = top[0]
        prod *= pk
        rest = top[1:]
        left = []
        for r in a[1:]:
            f = r[0] / pk
            left.append([x - f * y for x, y in zip(r[1:], rest)])
        a = left
    return _s.ComplexF(sign * prod), scale


def rank(m):
    """Row rank; exact elimination for exact kinds, thresholded at the zero
    tolerance for floats."""
    if not isinstance(m, Matrix):
        raise TypeError("expected a Matrix")
    if m.field != "complex":
        return _exact_rank(m)
    return _float_rank(m)


def _exact_rank(m):
    return _echelon(m)[0]


def _float_rank(m):
    """Rank of a complex m by complete pivoting on its unused rows, in
    their order: the first largest modulus is the pivot, unless it tests
    zero against the scale max(1, max row norm)."""
    scale = max(1.0, m.max_row_norm())
    left = [list(r) for r in m._parts[0]]
    rank_count = 0
    for _ in range(min(m.rows, m.cols)):
        best, bi, bj = 0.0, None, None
        for i, r in enumerate(left):
            for j, x in enumerate(r):
                if abs(x) > best:
                    best, bi, bj = abs(x), i, j
        if _s.zero_test(best, scale=scale):
            break
        rank_count += 1
        top = left.pop(bi)
        piv = top[bj]
        for r in left:
            f = r[bj] / piv
            if f != 0:
                r[:] = [x - f * y for x, y in zip(r, top)]
    return rank_count


def inverse(m):
    """Matrix inverse by Gauss-Jordan elimination (field division).

    The pivot is the entry of largest modulus for floats and the first
    nonzero one for exact kinds, whose ints are lifted to Fractions so that
    the division is exact.  Each step cuts the rows to the columns from the
    pivot's on, the only ones later steps read.  Complex results are stored
    as ``ComplexF`` stores them, a negative zero imaginary part turned into
    +0.0, and checked finite once (``NonFinite``).
    """
    if not isinstance(m, Matrix):
        raise TypeError("expected a Matrix")
    if m.rows != m.cols:
        raise NotSquare("inverse of a %dx%d matrix" % (m.rows, m.cols))
    n = m.rows
    if m.field == "complex":
        size, lift, one, zero = abs, complex, 1 + 0j, 0j
    else:
        size, lift, one, zero = bool, _to_field, 1, 0
    aug = [[lift(e) for e in row] + [one if i == j else zero for j in range(n)]
           for i, row in enumerate(m.entries)]
    for k in range(n):
        col = [size(row[0]) for row in aug[k:]]
        best = max(col)
        if not best:
            raise DivisionByZero("matrix is singular")
        piv = k + col.index(best)
        aug[k], aug[piv] = aug[piv], aug[k]
        pk = aug[k][0]
        top = [x / pk for x in aug[k][1:]]
        for r, row in enumerate(aug):
            f = row[0]
            if r == k:
                aug[r] = top
            elif f:
                aug[r] = [x - f * y for x, y in zip(row[1:], top)]
            else:
                aug[r] = row[1:]
    if m.field != "complex":
        return _from_entries(
            tuple(tuple(map(_s.integral_to_int, row)) for row in aug), m.field)
    # adding complex(-0.0, 0.0) keeps x.real bit for bit and adds 0.0 to
    # x.imag, which is what ComplexF(x) stores
    return _finish(_from_entries(
        tuple(tuple([x + _IMAG_ZERO_ADDEND for x in row]) for row in aug),
        "complex"))


_IMAG_ZERO_ADDEND = complex(-0.0, 0.0)


def _to_field(x):
    return Fraction(x) if isinstance(x, int) else x


def block_assemble(blocks):
    """Concatenate a grid of matrices into one matrix.

    ``blocks`` is a list of block-rows; heights must agree along each block
    row and widths along each block column.  Blocks over one field are
    joined on their numerators, put over the lcm of their denominators;
    blocks over several take the full path of ``Matrix(rows)``.
    """
    if not blocks or not blocks[0]:
        raise ValueError("empty block grid")
    widths = [b.cols for b in blocks[0]]
    for brow in blocks:
        if len(brow) != len(widths):
            raise DimensionMismatch("ragged block grid")
        h = brow[0].rows
        for b, w in zip(brow, widths):
            if b.rows != h:
                raise DimensionMismatch("block heights differ within a row")
            if b.cols != w:
                raise DimensionMismatch("block widths differ within a column")
    fields = {b.field for brow in blocks for b in brow}
    if len(fields) > 1:
        return Matrix(_joined(blocks, lambda b: b.entries))
    den = math.lcm(*[b._denom for brow in blocks for b in brow])
    # the lcm of reduced denominators leaves the numerators reduced
    return _new(fields.pop(), [
        _joined(blocks, lambda b: _scaled(b._parts[k], den // b._denom))
        for k in range(len(blocks[0][0]._parts))], den)


def _joined(blocks, grid_of):
    """The rows of the block grid, each block read through ``grid_of``."""
    out = []
    for brow in blocks:
        grids = [grid_of(b) for b in brow]
        for i in range(len(grids[0])):
            row = []
            for grid in grids:
                row += grid[i]
            out.append(row)
    return out


def sym_power(m, N):
    """Action of a 2x2 matrix on degree-(N-1) forms in e1, e2.

    Basis order e1^(N-1), e1^(N-2)e2, ..., e2^(N-1); the image of the k-th
    basis vector is (m11 e1 + m21 e2)^(N-1-k) (m12 e1 + m22 e2)^k expanded
    binomially.  No normalization factors, so integer input gives integer
    entries.  sym_power(m, 2) is m itself.  The expansion runs on the
    numerators, over den^(N-1): on ints over Q and on a complex matrix's
    own rows (:func:`_sym_rows`), and over Q(sqrt d) on the int pairs
    (P, Q) standing for P + Q*sqrt d, in a loop of its own
    (:func:`_sym_pairs`).  The result is reduced once, or, over C, checked
    finite once.
    """
    if not isinstance(m, Matrix) or m.rows != 2 or m.cols != 2:
        raise NotTwoByTwo("sym_power needs a 2x2 matrix")
    if not isinstance(N, int) or N < 2:
        raise ValueError("N must be an integer >= 2")
    d, parts = m.field, m._parts
    if len(parts) == 1:
        parts = (_sym_rows(parts[0], N),)
    else:
        parts = _sym_pairs(*parts, N, d)
    return _finish(_new(d, parts, m._denom ** (N - 1)))


def _sym_rows(entries, N):
    """The rows of the symmetric power of the 2x2 ``entries`` by the
    binomial rule of :func:`sym_power`."""
    (a, c), (b, d) = entries  # column 1 is (a, b), column 2 is (c, d)
    left = _binomial_powers(a, b, N - 1)
    right = _binomial_powers(c, d, N - 1)
    cols = []
    for k in range(N):
        col = [0] * N
        for i, ci in enumerate(left[N - 1 - k]):
            for j, cj in enumerate(right[k], i):
                col[j] += ci * cj
        cols.append(col)
    return [list(r) for r in zip(*cols)]


def _binomial_powers(p, q, n):
    """The coefficients of (p e1 + q e2)^e by e2-degree for e = 0..n:
    [p^e, e p^(e-1) q, ...]."""
    out = [[1]]
    for _ in range(n):
        prev = out[-1]
        nxt = [0] * (len(prev) + 1)
        for i, c in enumerate(prev):
            nxt[i] += c * p
            nxt[i + 1] += c * q
        out.append(nxt)
    return out


def _sym_pairs(P, Q, N, d):
    """The P and Q grids of the symmetric power of the 2x2 matrix
    P + Q*sqrt d by the binomial rule of :func:`sym_power`, on ints:
    (x + y sqrt d)(u + v sqrt d) = xu + d yv + (xv + yu) sqrt d."""
    # powers[c][e]: the (P, Q) coefficient lists of column c to the e-th,
    # by e2-degree, as in _binomial_powers
    powers = []
    for c in (0, 1):
        px, py, qx, qy = P[0][c], Q[0][c], P[1][c], Q[1][c]
        dpy, dqy = d * py, d * qy
        out = [([1], [0])]
        for _ in range(N - 1):
            xs, ys = out[-1]
            nx, ny = [0] * (len(xs) + 1), [0] * (len(xs) + 1)
            for i, (x, y) in enumerate(zip(xs, ys)):
                nx[i] += x * px + y * dpy
                ny[i] += x * py + y * px
                nx[i + 1] = x * qx + y * dqy
                ny[i + 1] = x * qy + y * qx
            out.append((nx, ny))
        powers.append(out)
    left, right = powers
    cols_p, cols_q = [], []
    for k in range(N):
        cp, cq = [0] * N, [0] * N
        rx, ry = right[k]
        for i, (x, y) in enumerate(zip(*left[N - 1 - k])):
            dy = d * y
            for j, (u, v) in enumerate(zip(rx, ry), i):
                cp[j] += x * u + dy * v
                cq[j] += x * v + y * u
        cols_p.append(cp)
        cols_q.append(cq)
    return ([list(r) for r in zip(*cols_p)], [list(r) for r in zip(*cols_q)])


def matrix_str(m):
    return ";".join(",".join(_s.scalar_str(e) for e in row)
                    for row in m.entries)


def parse_matrix(text, kind=None):
    """Parse the ``row;row`` / ``entry,entry`` matrix grammar."""
    rows = []
    for chunk in text.strip().split(";"):
        if not chunk.strip():
            raise ParseError("empty row in matrix literal")
        rows.append([_s.parse_scalar(e, kind=kind)
                     for e in chunk.split(",")])
    return Matrix(rows)
