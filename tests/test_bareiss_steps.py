"""Unit-ratio Bareiss steps against the expansions and a full-step echelon.

A Bareiss step whose pivot equals the previous pivot divides by what it
multiplied by, so ``linalg`` runs it as plain elimination: rows with a zero
in the pivot column stay, and the others change only where the pivot row
is nonzero.  Determinants and ranks are compared with the permutation and
Laplace expansions, minor enumeration and Gauss elimination of
``helpers``, and the rank, last pivot and sign of the echelon with those
of a textbook echelon that runs every step in full.  The matrices have identity block rows, runs of equal pivots and
rank deficiency, as the Fox matrices of the pants data have.
"""

from fractions import Fraction
from math import gcd, lcm

import pytest

from torsioncert import linalg as linalg_module
from torsioncert.charvar import Character, lift
from torsioncert.linalg import Matrix, det, rank
from torsioncert.representation import SymPowerRep
from torsioncert.scalar import QuadExt
from torsioncert.seeds import rng_for
from torsioncert.suturedcert import fox_matrix, pants_example

from helpers import elimination_rank, laplace_det, minor_rank, perm_det

KINDS = ("integer", "rational", "quadext")


def entry_draw(kind, rng):
    if kind == "integer":
        return lambda: rng.randint(-4, 4)
    if kind == "rational":
        return lambda: Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 4)))
    d = rng.choice((2, -1, 5))

    def quad():
        den = rng.choice((1, 2, 3))
        b = rng.randint(-3, 3) if rng.random() < 0.5 else 0
        return QuadExt(Fraction(rng.randint(-4, 4), den), Fraction(b, den), d)
    return quad


def identity_block_rows(rng, n, draw):
    """[[I, 0], [B1, B2]] with an identity of random height h < n, and at
    most 7 rows below it."""
    h = rng.randint(max(1, n - 7), n - 1)
    return ([[int(i == j) for j in range(n)] for i in range(h)]
            + [[draw() for _ in range(n)] for _ in range(n - h)])


def equal_pivot_rows(rng, n, draw):
    """L . U for L unit lower triangular with about a third of its
    entries below the diagonal zero, and U upper triangular with a
    diagonal of mostly ones, so that leading minors repeat and rows have
    zeros in the pivot column; rows swapped now and then."""
    lower = [[(draw() if rng.random() < 0.7 else 0) if j < i
              else int(i == j) for j in range(n)] for i in range(n)]
    diag = [rng.choice((1, 1, 1, 2, -3)) for _ in range(n)]
    upper = [[draw() if j > i else diag[i] * (i == j) for j in range(n)]
             for i in range(n)]
    rows = [[sum((lower[i][t] * upper[t][j] for t in range(1, n)),
                 lower[i][0] * upper[0][j]) for j in range(n)]
            for i in range(n)]
    if n > 1 and rng.random() < 0.3:
        i, j = rng.sample(range(n), 2)
        rows[i], rows[j] = rows[j], rows[i]
    return rows


def low_rank_rows(rng, rows, cols, draw):
    inner = rng.randint(1, max(1, min(rows, cols) - 1))
    a = [[draw() for _ in range(inner)] for _ in range(rows)]
    b = [[draw() for _ in range(cols)] for _ in range(inner)]
    return [[sum((a[i][t] * b[t][j] for t in range(1, inner)),
                 a[i][0] * b[0][j]) for j in range(cols)]
            for i in range(rows)]


def expansion_det(rows):
    return perm_det(rows) if len(rows) <= 6 else laplace_det(rows)


def expansion_rank(m):
    return minor_rank(m) if min(m.rows, m.cols) <= 5 \
        else elimination_rank(m.entries)


def full_step_echelon(m):
    """(rank, last pivot, sign, unit-ratio steps) of the textbook
    single-step Bareiss echelon, every step in full, as ``linalg._echelon``
    takes it: on the numerators of the exact m over the lcm of its
    denominators, as ``QuadExt`` values over Q(sqrt d), with each row
    divided by the gcd of its numerators' parts, and the first nonzero
    entry at or below the current row as the pivot.  Each division must
    leave an algebraic integer."""
    d = m.field if type(m.field) is int else None
    entries = [[(e.a, e.b) if d else (Fraction(e), Fraction(0)) for e in r]
               for r in m.entries]
    den = lcm(*(x.denominator for r in entries for e in r for x in e))
    rows = []
    for r in entries:
        ints = [(int(a * den), int(b * den)) for a, b in r]
        g = gcd(*(x for e in ints for x in e)) or 1
        rows.append([QuadExt(a // g, b // g, d) if d else Fraction(a // g)
                     for a, b in ints])
    found, sign, unit_steps = 0, 1, []
    prev = QuadExt(1, 0, d) if d else Fraction(1)
    for c in range(m.cols):
        piv = next((i for i in range(found, m.rows) if rows[i][c] != 0),
                   None)
        if piv is None:
            continue
        if piv != found:
            rows[found], rows[piv] = rows[piv], rows[found]
            sign = -sign
        top = rows[found]
        p = top[c]
        if p == prev:
            unit_steps.append(p)
        for i in range(found + 1, m.rows):
            rows[i] = [(x * p - rows[i][c] * y) / prev
                       for x, y in zip(rows[i], top)]
            assert all(_integral(x) for x in rows[i])
        prev = p
        found += 1
    pivot = (int(prev.a), int(prev.b)) if d else int(prev)
    return found, pivot, sign, unit_steps


def _integral(x):
    if isinstance(x, QuadExt):
        return x.a.denominator == x.b.denominator == 1
    return x.denominator == 1


def seeded_matrices(kind):
    """118 square and rectangular matrices of one kind, up to 12 x 12;
    from 10 x 10 on, only those whose expansion is cheap: identity block
    rows over at most 7 dense ones, and singular ones."""
    rng = rng_for(89, KINDS.index(kind))
    draw = entry_draw(kind, rng)
    out = []
    for n in range(1, 13):
        for _ in range(3 if n <= 6 else 2):
            if n < 10:
                out.append([[draw() for _ in range(n)] for _ in range(n)])
                out.append(equal_pivot_rows(rng, n, draw))
            if n > 1:
                out.append(identity_block_rows(rng, n, draw))
                out.append(low_rank_rows(rng, n, n, draw))
        if n <= 8:
            out.append(low_rank_rows(rng, n, n + 2, draw))
            out.append(low_rank_rows(rng, n + 1, n, draw))
    return [Matrix(rows) for rows in out]


@pytest.mark.parametrize("kind", KINDS)
def test_determinants_and_ranks_equal_the_expansions(kind):
    matrices = seeded_matrices(kind)
    assert len(matrices) == 118
    assert max(m.rows for m in matrices) == 12
    deficient = unit_steps = scaled_unit_steps = 0
    for m in matrices:
        r = expansion_rank(m)
        assert rank(m) == r == rank(m.transpose())
        if m.rows == m.cols:
            # a singular m has det 0 by its rank
            value = det(m)
            assert (value != 0) == (r == m.rows)
            if value:
                assert value == expansion_det(m.entries)
            if m.rows <= 6:
                assert laplace_det(m.entries) == perm_det(m.entries)
        deficient += r < min(m.rows, m.cols)
        found, pivot, sign, steps = full_step_echelon(m)
        assert linalg_module._echelon(m)[:3] == (found, pivot, sign)
        unit_steps += len(steps)
        scaled_unit_steps += sum(p != 1 and p != -1 for p in steps)
    assert deficient >= 30
    # the runs of equal pivots reach the unit-ratio branch, with pivots
    # other than +-1 too: 178 and 32 steps on integer input, 120 and 1 on
    # rational and 111 and 3 on Q(sqrt d) input, whose rows lose their
    # contents
    least, scaled = {"integer": (150, 30), "rational": (100, 1),
                     "quadext": (100, 3)}[kind]
    assert unit_steps >= least and scaled_unit_steps >= scaled


PANTS_CHARACTERS = {
    "integer": [(3, 1, 2), (3, 2, 2)],
    "rational": [(Fraction(3, 2), 1, Fraction(5, 2)),
                 (Fraction(1, 2), Fraction(-2, 3), Fraction(10, 3))],
    "quadext": [(4, 4, 5), (1, 3, 3)],
}


@pytest.mark.parametrize("kind", KINDS)
def test_pants_fox_matrices(kind):
    # m = [[I, 0], [B1, B2]]: its first N steps are unit-ratio steps on
    # identity rows, det(m) = det(B2) and rank(m) = N + rank(B2)
    for char in PANTS_CHARACTERS[kind]:
        base = lift(Character(*char), warn=False)
        assert base.scalar_kind == ("quadext" if kind == "quadext"
                                    else "rational")
        for N in range(2, 9):
            rep = base if N == 2 else SymPowerRep(base, N)
            m = fox_matrix(pants_example(), rep)
            rows = m.entries
            assert all(rows[i][j] == (i == j)
                       for i in range(N) for j in range(2 * N))
            b2 = [list(r[N:]) for r in rows[N:]]
            assert det(m) == expansion_det(b2)
            assert rank(m) == N + (minor_rank(Matrix(b2)) if N <= 4
                                   else elimination_rank(b2))
            found, pivot, sign, steps = full_step_echelon(m)
            assert linalg_module._echelon(m)[:3] == (found, pivot, sign)
            assert len(steps) >= N
