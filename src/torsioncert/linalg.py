"""Dense matrices over the scalar kinds, with exact and floating kernels.

Exact determinants and ranks share one Bareiss single-step fraction-free
row echelon (Bareiss, *Math. Comp.* 22, 1968) that runs on integer
numerators: each row is multiplied by the lcm of its denominators, and the
elimination then runs over Z, or over Z[sqrt d] on pairs of ints, where
the division by the previous pivot is exact (every entry is a minor), so
no Fraction or ``QuadExt`` is built until the determinant is divided by
the row multipliers at the end.  Intermediate entries stay
polynomial-sized instead of blowing up the way naive Gaussian elimination
does on Fox matrices, and a division that leaves a remainder raises
``InexactDivision``.  The echelon skips columns without a pivot, so it runs
on rectangular matrices too.  Fox blocks, symmetric powers, surface
images and chain checks of every kind run on numerators too
(``_numerators``, ``_numerator_mul``, ``_from_numerators``, keyed on
``_field``): a complex matrix is its own rows over 1, multiplied by the
left folds of ``grid_mul`` as in ``Matrix.__mul__``.  Float determinants
use partially pivoted elimination, and floating ranks use a largest-pivot
threshold rule scaled by the max row norm.  Inverses of every kind come
from one Gauss-Jordan loop.

Matrices are immutable.  Entries are promoted once, where they enter the
package: ``Matrix(rows)`` (parsing, matrices built by callers, ``map``)
looks at every entry, lets plain ints ride along as honorary rationals that
are promoted when other entries are richer, and rejects quadratic-extension
entries mixed with floating complex ones.  Results built from matrices of
one kind (sums, products, scalings by an int or a scalar of that kind,
negation, transposes, submatrices, deleted columns, block assemblies,
inverses) keep that kind without looking at every entry again: rational
arithmetic results are only reduced to ints where they are whole, and
complex ones only checked finite, so an overflowing product or sum still
raises ``NonFinite``.  Operands of two kinds take the full path of
``Matrix(rows)``.

Text form: rows separated by ``;``, entries by ``,``, scalars in the scalar
grammar, e.g. ``0,1;-1,4``.
"""

import cmath
import math
from fractions import Fraction
from functools import reduce
from operator import add, mul

from . import scalar as _s
from .errors import (DimensionMismatch, DivisionByZero, InexactDivision,
                     MixedExtension, MixedScalarKind, NotSquare, ParseError)


def _simplify(x):
    if isinstance(x, Fraction) and x.denominator == 1:
        return int(x)
    return x


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
                 for e in row] for row in rows], "quadext"
    return [[_simplify(Fraction(e) if isinstance(e, Fraction) else e)
             for e in row] for row in rows], "rational"


# the scalar kind of an operand, by exact type; others take the full path
_KIND_OF_TYPE = {int: "rational", Fraction: "rational",
                 _s.QuadExt: "quadext", float: "complex", complex: "complex",
                 _s.ComplexF: "complex"}


class Matrix:
    """An immutable rows x cols matrix with uniform scalar entries."""

    __slots__ = ("rows", "cols", "entries", "scalar_kind")

    def __init__(self, rows_of_entries):
        rows = [list(r) for r in rows_of_entries]
        if not rows or not rows[0]:
            raise ValueError("matrix needs at least one row and column")
        w = len(rows[0])
        if any(len(r) != w for r in rows):
            raise DimensionMismatch("ragged rows")
        rows, kind = _promote_entries(rows)
        _store(self, tuple(tuple(r) for r in rows), kind)

    @classmethod
    def _of(cls, rows, kind):
        """The matrix of ``rows``, ring-arithmetic results on entries that
        all had the scalar kind ``kind``.

        Rational entries are reduced to ints where they are whole, and
        complex entries are checked finite; rows with a non-finite entry
        take the full path, which raises ``NonFinite`` naming it.
        """
        if kind == "rational":
            return _trusted(tuple(tuple(map(_simplify, r)) for r in rows),
                            kind)
        # a non-finite entry makes the sum non-finite; finite entries whose
        # sum overflows only cost the full path
        if kind == "complex" and not cmath.isfinite(sum(map(sum, rows))):
            return cls(rows)
        return _trusted(tuple(map(tuple, rows)), kind)

    def __setattr__(self, name, value):
        raise AttributeError("matrices are immutable")

    @classmethod
    def identity(cls, n):
        return _trusted(tuple(tuple(1 if i == j else 0 for j in range(n))
                              for i in range(n)), "rational")

    @classmethod
    def zero(cls, rows, cols=None):
        return _trusted(((0,) * (rows if cols is None else cols),) * rows,
                        "rational")

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

    def _result(self, rows, other_kind):
        """The matrix of ``rows``: trusted when this matrix and the other
        operand had one kind, else through the full path."""
        if other_kind == self.scalar_kind:
            return Matrix._of(rows, other_kind)
        return Matrix(rows)

    def __add__(self, other):
        self._same_shape(other)
        return self._result([[a + b for a, b in zip(ra, rb)]
                             for ra, rb in zip(self.entries, other.entries)],
                            other.scalar_kind)

    def __sub__(self, other):
        self._same_shape(other)
        return self._result([[a - b for a, b in zip(ra, rb)]
                             for ra, rb in zip(self.entries, other.entries)],
                            other.scalar_kind)

    def __neg__(self):
        # negation keeps entries whole, reduced and finite
        return _trusted(tuple(tuple(-a for a in r) for r in self.entries),
                        self.scalar_kind)

    def scale(self, c):
        rows = [[c * a for a in r] for r in self.entries]
        if type(c) is int:
            return Matrix._of(rows, self.scalar_kind)
        return self._result(rows, _KIND_OF_TYPE.get(type(c)))

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return self.scale(other)
        if self.cols != other.rows:
            raise DimensionMismatch(
                "%dx%d times %dx%d" % (self.rows, self.cols, other.rows, other.cols))
        return self._result(grid_mul(self.entries, other.entries),
                            other.scalar_kind)

    def __rmul__(self, other):
        return self.scale(other)

    def transpose(self):
        return _trusted(tuple(zip(*self.entries)), self.scalar_kind)

    def trace(self):
        if self.rows != self.cols:
            raise NotSquare("trace of a %dx%d matrix" % (self.rows, self.cols))
        t = self.entries[0][0]
        for i in range(1, self.rows):
            t = t + self.entries[i][i]
        return _s.check_finite(_simplify(t))

    def map(self, fn):
        return Matrix([[fn(a) for a in r] for r in self.entries])

    def max_row_norm(self):
        """Largest row 2-norm, as a float through the complex embedding."""
        return max(math.hypot(*map(_s.magnitude, r)) for r in self.entries)

    def delete_column(self, j):
        if not 0 <= j < self.cols:
            raise IndexError("no column %d" % j)
        if self.cols == 1:
            raise DimensionMismatch("cannot delete the only column")
        return _trusted(tuple(r[:j] + r[j + 1:] for r in self.entries),
                        self.scalar_kind)

    def submatrix(self, row_idx, col_idx):
        return _trusted(tuple(tuple(self.entries[i][j] for j in col_idx)
                              for i in row_idx), self.scalar_kind)

    def det(self):
        return det(self)

    def rank(self, tol=None):
        return rank(self, tol=tol)

    def inverse(self):
        return inverse(self)

    def __str__(self):
        return matrix_str(self)

    def __repr__(self):
        return "Matrix(%r)" % matrix_str(self)


_set_rows = Matrix.rows.__set__
_set_cols = Matrix.cols.__set__
_set_entries = Matrix.entries.__set__
_set_kind = Matrix.scalar_kind.__set__


def _store(m, entries, kind):
    _set_rows(m, len(entries))
    _set_cols(m, len(entries[0]))
    _set_entries(m, entries)
    _set_kind(m, kind)


def _trusted(entries, kind):
    """The matrix of a tuple of row tuples whose entries already have the
    scalar kind ``kind`` and are reduced and finite; no entry is read."""
    if not entries or not entries[0]:
        raise ValueError("matrix needs at least one row and column")
    m = object.__new__(Matrix)
    _store(m, entries, kind)
    return m


def _field(m):
    """The scalar kind of m, or the discriminant d for Q(sqrt d) entries."""
    return m.entries[0][0].d if m.scalar_kind == "quadext" else m.scalar_kind


def grid_mul(a, b):
    """Product of two grids (lists of rows) of ring elements, as a grid;
    each entry is the left fold of its products, from the first one."""
    cols = list(zip(*b))
    return [[reduce(add, map(mul, row, col)) for col in cols] for row in a]


def det(m):
    """Determinant: Bareiss for exact kinds, partial pivoting for floats."""
    return det_with_scale(m)[0]


def det_with_scale(m):
    """Float determinant plus a noise scale for relative zero tests.

    The scale is the product over elimination steps of the largest entry
    magnitude in the remaining submatrix (clamped below by 1), which tracks
    the size of the terms whose cancellation produces the determinant; the
    float result is trustworthy down to roughly eps * scale.  Exact kinds
    return scale 1.0.
    """
    if not isinstance(m, Matrix):
        raise TypeError("expected a Matrix")
    if m.rows != m.cols:
        raise NotSquare("determinant of a %dx%d matrix" % (m.rows, m.cols))
    if m.scalar_kind != "complex":
        return _bareiss_det(m), 1.0
    return _float_det(m)


def _echelon(m):
    """Fraction-free (Bareiss) row echelon form of an exact matrix, on
    integer numerators.

    Returns (rank, last pivot, sign of the row swaps, product of the row
    multipliers).  The pivot is an int, or a (p, q) pair standing for
    p + q*sqrt(d) over Q(sqrt d).  A column with no pivot at or below the
    current row is skipped; every entry stays a minor of the scaled
    matrix, so the division by the previous pivot is exact.  For a square
    m of full rank the last pivot over the multipliers is det(m) up to
    that sign.
    """
    rows = [_row_numerators(r) for r in m.entries]
    scale = math.prod(den for _, _, den in rows)
    if m.scalar_kind == "quadext":
        found, pivot, sign = _echelon_zd([p for p, _, _ in rows],
                                         [q for _, q, _ in rows],
                                         _field(m), m.cols)
    else:
        found, pivot, sign = _echelon_z([p for p, _, _ in rows], m.cols)
    return found, pivot, sign, scale


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
        tail = a[r][c + 1:]
        for i in range(r + 1, nr):
            rowi = a[i]
            aik = rowi[c]
            new = [x * pk - aik * y for x, y in zip(rowi[c + 1:], tail)]
            rowi[c + 1:] = new if denom == 1 else _exact_quotients(new, denom)
        denom = pk
        r += 1
        if r == nr:
            break
    return r, denom, sign


def _echelon_zd(ap, aq, d, nc):
    """Bareiss over Z[sqrt d] in place, on rows ``ap[i] + aq[i]*sqrt d``
    of ints: (rank, last pivot as a (p, q) pair, sign).

    The previous pivot p + q*sqrt d divides through its conjugate: the
    numerator is multiplied by p - q*sqrt d, and both of its parts by the
    integer norm p^2 - d*q^2, which is nonzero because d is not a square.
    """
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
        dkq = d * kq
        tp, tq = ap[r][c + 1:], aq[r][c + 1:]
        div = dp * dp - d * dq * dq if dq else dp
        for i in range(r + 1, nr):
            rp, rq = ap[i], aq[i]
            ip, iq = rp[c], rq[c]
            diq = d * iq
            cols = list(zip(rp[c + 1:], rq[c + 1:], tp, tq))
            # row_i * pivot - a_ic * row_k
            xp = [x * kp + y * dkq - ip * u - diq * v for x, y, u, v in cols]
            xq = [x * kq + y * kp - ip * v - iq * u for x, y, u, v in cols]
            if dq:
                xp, xq = ([u * dp - d * v * dq for u, v in zip(xp, xq)],
                          [v * dp - u * dq for u, v in zip(xp, xq)])
            if div != 1:
                xp = _exact_quotients(xp, div)
                xq = _exact_quotients(xq, div)
            rp[c + 1:] = xp
            rq[c + 1:] = xq
        dp, dq = kp, kq
        r += 1
        if r == nr:
            break
    return r, (dp, dq), sign


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
    found, pivot, sign, scale = _echelon(m)
    if found < m.rows:
        return 0
    if m.scalar_kind == "quadext":
        p, q = pivot
        return _s._quad(sign * p, sign * q, scale, _field(m))
    return _ratio(sign * pivot, scale)


def _ratio(num, den):
    """num/den for ints, den > 0: an int where it is whole, else a
    Fraction."""
    if den == 1:
        return num
    q, rem = divmod(num, den)
    return Fraction(num, den) if rem else q


def _row_numerators(row):
    """(P, Q, den) with row = (P + Q*sqrt d)/den entrywise, P and Q lists of
    ints and den > 0 the lcm of the row's denominators; Q is None for a
    rational row."""
    if type(row[0]) is _s.QuadExt:
        den = math.lcm(*(e._den for e in row))
        return ([e._p * (den // e._den) for e in row],
                [e._q * (den // e._den) for e in row], den)
    den = math.lcm(*(e.denominator for e in row))
    if den == 1:
        return list(row), None, 1
    return [e.numerator * (den // e.denominator) for e in row], None, den


def _numerators(m):
    """m on numerators: (P, Q, den) with m = (P + Q*sqrt d)/den, P and Q
    lists of int rows, den > 0 the lcm of all denominators and Q None for
    rational matrices; a complex matrix is its own rows over 1."""
    if m.scalar_kind == "complex":
        return [list(r) for r in m.entries], None, 1
    rows = [_row_numerators(r) for r in m.entries]
    den = math.lcm(*(dr for _, _, dr in rows))

    def lift(part, dr):
        return part if dr == den else [x * (den // dr) for x in part]

    p = [lift(pr, dr) for pr, _, dr in rows]
    if m.scalar_kind != "quadext":
        return p, None, den
    return p, [lift(qr, dr) for _, qr, dr in rows], den


def _numerator_mul(a, b, field):
    """The product of two (P, Q, den) triples of :func:`_numerators` over
    one :func:`_field`; complex entries are the left folds of
    :func:`grid_mul`, as in ``Matrix.__mul__``."""
    ap, aq, ad = a
    bp, bq, bd = b
    if aq is None:
        return grid_mul(ap, bp), None, ad * bd
    cols = list(zip(zip(*bp), zip(*bq)))
    return ([[sum(map(mul, rp, cp)) + field * sum(map(mul, rq, cq))
              for cp, cq in cols] for rp, rq in zip(ap, aq)],
            [[sum(map(mul, rp, cq)) + sum(map(mul, rq, cp))
              for cp, cq in cols] for rp, rq in zip(ap, aq)],
            ad * bd)


def _from_numerators(p, q, den, field):
    """The matrix (p + q*sqrt d)/den over :func:`_field` ``field``, with
    one reduction per exact entry; complex rows (den 1) are checked finite
    once, through ``Matrix._of``."""
    if field == "complex":
        return Matrix._of(p, field)
    if field == "rational":
        return _trusted(tuple(tuple(_ratio(x, den) for x in r) for r in p),
                        "rational")
    quad = _s._quad
    return _trusted(tuple(tuple(quad(x, y, den, field) for x, y in zip(rp, rq))
                          for rp, rq in zip(p, q)), "quadext")


def nonzero_row_of_product(a, b):
    """The first row of a . b with an entry that is not zero, or None.

    The product runs on :func:`_numerators`, unreduced: (P + Q*sqrt d)/den
    is zero exactly when P and Q are.  A float entry is zero when its
    modulus is at most ``zero_tolerance() * max(1, |a| |b|)`` in max row
    norms, which a non-finite one never is.
    """
    p, q, _ = _numerator_mul(_numerators(a), _numerators(b), _field(a))
    tol = 0
    if a.scalar_kind == "complex":
        tol = _s.zero_tolerance() * max(1.0, a.max_row_norm()
                                        * b.max_row_norm())
    rows = p if q is None else [rp + rq for rp, rq in zip(p, q)]
    return next((i for i, row in enumerate(rows)
                 if not all(abs(x) <= tol for x in row)), None)


def _float_det(m):
    n = m.rows
    a = [[complex(e) for e in r] for r in m.entries]
    sign = 1
    scale = 1.0
    prod = complex(1.0)
    for k in range(n):
        piv, best = k, abs(a[k][k])
        step_max = 0.0
        for r in range(k, n):
            for c in range(k, n):
                step_max = max(step_max, abs(a[r][c]))
            if abs(a[r][k]) > best:
                piv, best = r, abs(a[r][k])
        scale *= max(step_max, 1.0)
        if best == 0.0:
            return _s.ComplexF(0.0, 0.0), scale
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        pk = a[k][k]
        prod *= pk
        for i in range(k + 1, n):
            f = a[i][k] / pk
            for j in range(k + 1, n):
                a[i][j] -= f * a[k][j]
    return _s.ComplexF(sign * prod), scale


def rank(m, tol=None):
    """Row rank; exact elimination for exact kinds, thresholded for floats."""
    if not isinstance(m, Matrix):
        raise TypeError("expected a Matrix")
    if m.scalar_kind != "complex":
        return _exact_rank(m)
    return _float_rank(m, tol)


def _exact_rank(m):
    return _echelon(m)[0]


def _float_rank(m, tol):
    if tol is None:
        tol = _s.zero_tolerance()
    cutoff = tol * max(1.0, m.max_row_norm())
    a = [[complex(e) for e in r] for r in m.entries]
    nr, nc = m.rows, m.cols
    rank_count = 0
    used_rows = set()
    for _ in range(min(nr, nc)):
        best, bi, bj = 0.0, None, None
        for i in range(nr):
            if i in used_rows:
                continue
            for j in range(nc):
                if abs(a[i][j]) > best:
                    best, bi, bj = abs(a[i][j]), i, j
        if best <= cutoff:
            break
        rank_count += 1
        used_rows.add(bi)
        piv = a[bi][bj]
        for i in range(nr):
            if i in used_rows:
                continue
            f = a[i][bj] / piv
            if f != 0:
                for j in range(nc):
                    a[i][j] -= f * a[bi][j]
    return rank_count


def inverse(m):
    """Matrix inverse by Gauss-Jordan elimination (field division).

    The pivot is the entry of largest modulus for floats and the first
    nonzero one for exact kinds, whose ints are lifted to Fractions so that
    the division is exact.  Float results are rebuilt as ``ComplexF``, which
    checks them finite.
    """
    if not isinstance(m, Matrix):
        raise TypeError("expected a Matrix")
    if m.rows != m.cols:
        raise NotSquare("inverse of a %dx%d matrix" % (m.rows, m.cols))
    n = m.rows
    if m.scalar_kind == "complex":
        size, lift, out, one, zero = abs, complex, _s.ComplexF, 1 + 0j, 0j
    else:
        size, lift, out, one, zero = bool, _to_field, _simplify, 1, 0
    aug = [[lift(e) for e in row] + [one if i == j else zero for j in range(n)]
           for i, row in enumerate(m.entries)]
    for k in range(n):
        col = [size(row[k]) for row in aug[k:]]
        best = max(col)
        if not best:
            raise DivisionByZero("matrix is singular")
        piv = k + col.index(best)
        aug[k], aug[piv] = aug[piv], aug[k]
        pk = aug[k][k]
        aug[k] = [x / pk for x in aug[k]]
        for r in range(n):
            f = aug[r][k]
            if r != k and f:
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[k])]
    return _trusted(tuple(tuple(map(out, row[n:])) for row in aug),
                    m.scalar_kind)


def _to_field(x):
    return Fraction(x) if isinstance(x, int) else x


def block_assemble(blocks):
    """Concatenate a grid of matrices into one matrix.

    ``blocks`` is a list of block-rows; heights must agree along each block
    row and widths along each block column.  Blocks of one kind (and one
    Q(sqrt d)) keep their entries as they are; blocks of several kinds take
    the full path of ``Matrix(rows)``.
    """
    if not blocks or not blocks[0]:
        raise ValueError("empty block grid")
    widths = [b.cols for b in blocks[0]]
    fields = set()
    out_rows = []
    for brow in blocks:
        if len(brow) != len(widths):
            raise DimensionMismatch("ragged block grid")
        h = brow[0].rows
        for b, w in zip(brow, widths):
            fields.add(_field(b))
            if b.rows != h:
                raise DimensionMismatch("block heights differ within a row")
            if b.cols != w:
                raise DimensionMismatch("block widths differ within a column")
        for i in range(h):
            row = []
            for b in brow:
                row.extend(b.entries[i])
            out_rows.append(tuple(row))
    if len(fields) == 1:
        return _trusted(tuple(out_rows), blocks[0][0].scalar_kind)
    return Matrix(out_rows)


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
