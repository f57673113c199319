"""Exact and floating linear algebra against brute-force oracles."""

import cmath
import math
from fractions import Fraction

import pytest

from torsioncert import linalg as linalg_module
from torsioncert.errors import (DivisionByZero, DimensionMismatch,
                               InexactDivision, NonFinite, NotSquare)
from torsioncert.linalg import (
    Matrix,
    block_assemble,
    det,
    det_with_scale,
    inverse,
    matrix_str,
    parse_matrix,
    rank,
)
from torsioncert.scalar import (DEFAULT_TOLERANCE, ComplexF, QuadExt,
                                magnitude, set_zero_tolerance, zero_test,
                                zero_tolerance)
from torsioncert.seeds import rng_for

from helpers import minor_rank, perm_det, random_fraction, random_sl2


def rand_rational_matrix(rng, rows, cols):
    return Matrix([[random_fraction(rng) for _ in range(cols)]
                   for _ in range(rows)])


def rand_quadext(rng):
    return QuadExt(random_fraction(rng, 4, 3), random_fraction(rng, 4, 3), 5)


def low_rank_product(rng, rows, cols, inner, entry):
    """A rows x cols product of rows x inner and inner x cols factors, with
    about a third of its columns zeroed so that elimination skips them."""
    a = [[entry(rng) for _ in range(inner)] for _ in range(rows)]
    b = [[entry(rng) for _ in range(cols)] for _ in range(inner)]
    zeroed = {j for j in range(cols) if rng.random() < 0.35}
    return Matrix([[0 * a[0][0] if j in zeroed else
                    sum((a[i][t] * b[t][j] for t in range(1, inner)),
                        a[i][0] * b[0][j])
                    for j in range(cols)] for i in range(rows)])


class TestDeterminant:
    def test_against_permutation_expansion(self):
        rng = rng_for(17, 0)
        for _ in range(40):
            n = rng.randint(1, 4)
            m = rand_rational_matrix(rng, n, n)
            rows = [[m[i, j] for j in range(n)] for i in range(n)]
            assert det(m) == perm_det(rows)

    def test_quadext_entries(self):
        rng = rng_for(17, 1)
        for _ in range(20):
            n = rng.randint(1, 3)
            rows = [[QuadExt(random_fraction(rng, 4, 3),
                             random_fraction(rng, 4, 3), 5)
                     for _ in range(n)] for _ in range(n)]
            assert det(Matrix(rows)) == perm_det(rows)

    def test_rational_entries_with_fractional_quotients(self):
        # Bareiss quotients of rational matrices are exact in Q, not in Z:
        # the N = 2 certificate matrix of images YX, yx at (-7, 2, 17/4)
        q = Fraction(1, 4)
        rows = [[-4, 0, 0, -4], [-15 * q, -q, q, -2], [2, -4, 1, 0],
                [q, 0, 0, 1]]
        assert det(Matrix(rows)) == perm_det(rows) == Fraction(-9, 4)

    def test_multiplicative(self):
        rng = rng_for(17, 2)
        for _ in range(25):
            a = rand_rational_matrix(rng, 3, 3)
            b = rand_rational_matrix(rng, 3, 3)
            assert det(a * b) == det(a) * det(b)

    def test_float_route(self):
        rng = rng_for(17, 3)
        for _ in range(20):
            n = rng.randint(1, 4)
            exact = rand_rational_matrix(rng, n, n)
            approx = Matrix([[ComplexF(float(x), 0.0) for x in r]
                             for r in exact.entries])
            d, scale = det_with_scale(approx)
            assert complex(d).real == pytest.approx(float(det(exact)), abs=1e-9 * max(1.0, scale))

    def test_sl2_shift_identity(self):
        # det(A - I) = 2 - tr A whenever det A = 1
        rng = rng_for(17, 4)
        for _ in range(50):
            a = random_sl2(rng)
            assert det(a - Matrix.identity(2)) == 2 - a.trace()

    def test_non_square_rejected(self):
        with pytest.raises(NotSquare):
            det(Matrix([[1, 2, 3], [4, 5, 6]]))

    def test_non_matrix_rejected(self):
        for fn in (det, det_with_scale, rank, inverse):
            with pytest.raises(TypeError):
                fn([[1]])


class TestRank:
    def test_against_minor_enumeration(self):
        rng = rng_for(17, 5)
        for _ in range(30):
            r = rng.randint(1, 4)
            c = rng.randint(1, 4)
            m = Matrix([[Fraction(rng.randint(-3, 3)) for _ in range(c)]
                        for _ in range(r)])
            assert rank(m) == minor_rank(m)

    def test_float_rank_with_cutoff(self):
        m = Matrix([[ComplexF(1.0), ComplexF(2.0)],
                    [ComplexF(0.5), ComplexF(1.0 + 1e-13)]])
        assert rank(m) == 1
        set_zero_tolerance(1e-15)
        assert rank(m) == 2

    def test_rank_deficient_product(self):
        rng = rng_for(17, 6)
        for _ in range(15):
            a = rand_rational_matrix(rng, 3, 1)
            b = rand_rational_matrix(rng, 1, 3)
            assert rank(a * b) <= 1

    def test_fraction_entries(self):
        rng = rng_for(17, 11)
        for _ in range(30):
            r, c = rng.randint(1, 4), rng.randint(1, 4)
            m = rand_rational_matrix(rng, r, c)
            assert rank(m) == minor_rank(m)

    def test_quadext_entries(self):
        rng = rng_for(17, 12)
        for _ in range(30):
            r, c = rng.randint(1, 4), rng.randint(1, 4)
            m = Matrix([[rand_quadext(rng) for _ in range(c)]
                        for _ in range(r)])
            assert m.scalar_kind == "quadext"
            assert rank(m) == minor_rank(m)

    def test_low_rank_products_skip_columns(self):
        # rank below the number of rows and of columns, with zero columns
        # anywhere, so that pivot-free columns are skipped mid-elimination
        rng = rng_for(17, 13)
        entries = [lambda g: g.randint(-3, 3), random_fraction, rand_quadext]
        for trial in range(60):
            entry = entries[trial % 3]
            r, c = rng.randint(2, 5), rng.randint(2, 5)
            inner = rng.randint(1, min(r, c) - 1) if min(r, c) > 1 else 1
            m = low_rank_product(rng, r, c, inner, entry)
            assert rank(m) == minor_rank(m) <= inner
            assert rank(m.transpose()) == rank(m)

    def test_integer_input_gives_integer_quotients(self, monkeypatch):
        # every Bareiss division is exact in Z, on integer, Fraction and
        # Q(sqrt 5) input (rows scaled to integer numerators), singular and
        # rectangular input too; the kernel divides only through
        # _exact_quotients, so recording it sees every division
        seen = []
        real_div = linalg_module._exact_quotients

        def recording_div(values, denom):
            out = real_div(values, denom)
            seen.append((values, denom, out))
            return out

        monkeypatch.setattr(linalg_module, "_exact_quotients", recording_div)
        rng = rng_for(17, 14)
        entries = [lambda g: g.randint(-4, 4),
                   lambda g: random_fraction(g, 4, 3), rand_quadext]
        for entry in entries:
            del seen[:]
            for _ in range(100):
                r, c = rng.randint(1, 5), rng.randint(1, 5)
                if rng.random() < 0.5:
                    m = low_rank_product(rng, r, c, rng.randint(1, 3), entry)
                else:
                    m = Matrix([[entry(rng) for _ in range(c)]
                                for _ in range(r)])
                assert rank(m) == minor_rank(m)
                if r == c:
                    assert det(m) == perm_det(m.entries)
            quotients = [(v, denom, q) for values, denom, out in seen
                         for v, q in zip(values, out)]
            assert sum(abs(denom) > 1 for _, denom, _ in quotients) > 100
            for num, denom, q in quotients:
                assert type(q) is int and q * denom == num, (num, denom, q)

    def test_inexact_division_raises(self):
        assert linalg_module._exact_quotients([6, -9], 3) == [2, -3]
        with pytest.raises(InexactDivision):
            linalg_module._exact_quotients([6, 7], 3)


class TestInverse:
    def test_round_trip(self):
        rng = rng_for(17, 7)
        count = 0
        while count < 20:
            m = rand_rational_matrix(rng, 3, 3)
            if det(m) == 0:
                continue
            count += 1
            assert m * inverse(m) == Matrix.identity(3)
            assert inverse(m) * m == Matrix.identity(3)

    def test_singular_rejected(self):
        with pytest.raises(DivisionByZero):
            inverse(Matrix([[1, 2], [2, 4]]))

    def test_quadext_inverse(self):
        u = QuadExt(Fraction(5, 2), Fraction(1, 2), 21)
        m = Matrix([[QuadExt(4, 0, 21), -u], [u.inverse(), QuadExt(0, 0, 21)]])
        assert m * inverse(m) == Matrix.identity(2)


def _former_complex_inverse(rows):
    """The Gauss-Jordan loop complex inverses used to have, frozen as the
    bit-level reference: partial pivoting on the largest modulus, the first
    one on ties.  None when a column has no nonzero pivot."""
    n = len(rows)
    a = [[complex(e) for e in r] for r in rows]
    aug = [row + [1.0 + 0j if i == j else 0j for j in range(n)]
           for i, row in enumerate(a)]
    for k in range(n):
        piv, best = None, 0.0
        for r in range(k, n):
            if abs(aug[r][k]) > best:
                piv, best = r, abs(aug[r][k])
        if piv is None or best == 0.0:
            return None
        aug[k], aug[piv] = aug[piv], aug[k]
        pk = aug[k][k]
        aug[k] = [x / pk for x in aug[k]]
        for r in range(n):
            if r != k and aug[r][k] != 0:
                f = aug[r][k]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[k])]
    return [[ComplexF(aug[i][n + j]) for j in range(n)] for i in range(n)]


def _hex_rows(rows):
    return [[(z.real.hex(), z.imag.hex()) for z in r] for r in rows]


def _random_complex_entry(rng):
    # zeros, signed zeros and repeated moduli exercise pivot ties and skips
    return rng.choice([
        complex(rng.uniform(-3, 3), rng.uniform(-3, 3)),
        complex(rng.uniform(-3, 3), rng.uniform(-3, 3)),
        complex(rng.randint(-2, 2), rng.randint(-2, 2)),
        complex(rng.uniform(-1e3, 1e3), rng.uniform(-1e-3, 1e-3)),
        complex(0.0, -0.0), complex(-0.0, 0.0)])


class TestFloatInverseMatchesFormerLoop:
    """The float branch of the one Gauss-Jordan loop gives the inverses of
    the former complex-only loop, compared by float hex."""

    def test_random_matrices(self):
        # up to 12, the largest float SymPowerRep the CLI builds
        rng = rng_for(17, 15)
        inverted = 0
        for _ in range(400):
            n = rng.randint(1, 12)
            rows = [[_random_complex_entry(rng) for _ in range(n)]
                    for _ in range(n)]
            want = _former_complex_inverse(rows)
            if want is None:
                with pytest.raises(DivisionByZero):
                    inverse(Matrix(rows))
                continue
            got = inverse(Matrix(rows))
            assert got.scalar_kind == "complex"
            assert _hex_rows(got.entries) == _hex_rows(want)
            inverted += 1
        assert inverted > 300

    def test_singular_rejected(self):
        rng = rng_for(17, 16)
        for n in range(1, 13):
            row = [_random_complex_entry(rng) for _ in range(n)]
            cases = [[[0j] * n for _ in range(n)]]
            if n > 1:
                cases.append([list(row) for _ in range(n)])
            for rows in cases:
                assert _former_complex_inverse(rows) is None
                with pytest.raises(DivisionByZero):
                    inverse(Matrix(rows))

    def test_entry_past_the_float_range_raises(self):
        # 1/1e-310 overflows: the entry is named, as ComplexF names it
        rows = [[complex(1e-310), 0j], [0j, 1 + 0j]]
        with pytest.raises(NonFinite) as got:
            inverse(Matrix(rows))
        with pytest.raises(NonFinite) as want:
            _former_complex_inverse(rows)
        assert str(got.value) == str(want.value)

    def test_finite_entries_whose_sum_overflows_pass(self):
        # each entry is about 1.49e308; their sum is not finite
        rows = [[complex(6.7e-309), 0j], [0j, complex(6.7e-309)]]
        got = inverse(Matrix(rows))
        assert not cmath.isfinite(sum(map(sum, got.entries)))
        assert _hex_rows(got.entries) == _hex_rows(
            _former_complex_inverse(rows))

    def test_zero_signs(self):
        # ComplexF turns a negative zero imaginary part into +0.0 and keeps
        # the sign of a zero real part
        got = inverse(Matrix([[complex(-1.0, -0.0)]])).entries[0][0]
        assert (got.real.hex(), got.imag.hex()) == ((-1.0).hex(), (0.0).hex())
        got = inverse(Matrix([[complex(0.0, 1.0)]])).entries[0][0]
        assert (got.real.hex(), got.imag.hex()) == ((0.0).hex(), (-1.0).hex())
        rng = rng_for(17, 19)
        signed = 0
        for _ in range(300):
            n = rng.randint(1, 4)
            rows = [[rng.choice([0j, complex(-0.0, 0.0), complex(0.0, -0.0),
                                 complex(-0.0, -0.0), 1 + 0j, -1 + 0j,
                                 1j, -1j]) for _ in range(n)]
                    for _ in range(n)]
            want = _former_complex_inverse(rows)
            if want is None:
                continue
            got = inverse(Matrix(rows)).entries
            assert _hex_rows(got) == _hex_rows(want)
            signed += any(z.real.hex() == "-0x0.0p+0" for r in got for z in r)
        assert signed > 10


def _former_float_det(rows):
    """The triple loop float determinants used to have, frozen as the
    bit-level reference: (determinant, scale), the scale the product of
    each step's largest entry modulus, clamped below by 1."""
    n = len(rows)
    a = [[complex(e) for e in r] for r in rows]
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
            return ComplexF(0.0, 0.0), scale
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        pk = a[k][k]
        prod *= pk
        for i in range(k + 1, n):
            f = a[i][k] / pk
            for j in range(k + 1, n):
                a[i][j] -= f * a[k][j]
    return ComplexF(sign * prod), scale


def _outcome(fn, rows):
    """fn's result by float hex, or the error it raised."""
    try:
        d, scale = fn(rows)
    except ArithmeticError as exc:
        return type(exc).__name__, str(exc)
    return d.real.hex(), d.imag.hex(), scale.hex()


class TestFloatDetMatchesFormerLoop:
    """Float determinants and scales by elimination on cut rows equal the
    former triple loop's, compared by float hex."""

    @staticmethod
    def _det(rows):
        return det_with_scale(Matrix(rows))

    def test_random_matrices(self):
        rng = rng_for(17, 17)
        singular = 0
        for n in range(1, 17):
            for _ in range(40):
                rows = [[_random_complex_entry(rng) for _ in range(n)]
                        for _ in range(n)]
                want = _outcome(_former_float_det, rows)
                assert _outcome(self._det, rows) == want
                singular += want[:2] == ((0.0).hex(), (0.0).hex())
        assert singular > 10

    def test_zero_column_returns_the_scale_so_far(self):
        rng = rng_for(17, 18)
        for n in range(2, 9):
            for j in range(n):
                rows = [[_random_complex_entry(rng) for _ in range(n)]
                        for _ in range(n)]
                for r in rows:
                    r[j] = complex(-0.0, 0.0) if j % 2 else 0j
                d, scale = self._det(rows)
                assert (d.real, d.imag) == (0.0, 0.0) and scale >= 1.0
                assert _outcome(self._det, rows) == _outcome(
                    _former_float_det, rows)

    def test_entries_near_overflow(self):
        # steps may overflow to inf or NaN; both loops give the same value,
        # scale or error
        rng = rng_for(17, 20)
        failed = 0
        for _ in range(300):
            n = rng.randint(2, 6)
            big = rng.choice([1e150, 1e300, 1e305])
            rows = [[_random_complex_entry(rng) * big for _ in range(n)]
                    for _ in range(n)]
            want = _outcome(_former_float_det, rows)
            assert _outcome(self._det, rows) == want
            failed += want[0] in ("NonFinite", "OverflowError")
        assert failed > 20


class TestMaxRowNorm:
    def test_complex_rows_match_the_magnitude_route(self):
        rng = rng_for(17, 21)
        for _ in range(300):
            r, c = rng.randint(1, 6), rng.randint(1, 6)
            size = rng.choice([1.0, 1e300, 1e-300, 1e-320])
            rows = [[_random_complex_entry(rng) * size for _ in range(c)]
                    for _ in range(r)]
            want = max(math.hypot(*map(magnitude, row)) for row in rows)
            assert Matrix(rows).max_row_norm().hex() == want.hex()

    def test_modulus_past_the_float_range_raises(self):
        m = Matrix([[complex(1.5e308, 1.5e308), 0j], [0j, 1 + 0j]])
        with pytest.raises(NonFinite, match="modulus"):
            m.max_row_norm()


def _former_float_rank(rows, tol):
    """The float rank loop over entry copies and a set of used rows, frozen
    as the reference: complete pivoting, first maximum, full-width
    updates."""
    cutoff = tol * max(1.0, max(math.hypot(*map(abs, r)) for r in rows))
    a = [[complex(e) for e in r] for r in rows]
    nr, nc = len(a), len(a[0])
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


class TestFloatRankMatchesFormerLoop:
    """Float ranks on the matrix's own rows equal the former loop's on
    rectangular, rank-deficient and tied-modulus matrices, at the default
    zero tolerance (None) and at two others."""

    @pytest.mark.parametrize("tol", [None, 1e-15, 1e-6])
    def test_random_matrices(self, tol):
        set_zero_tolerance(DEFAULT_TOLERANCE if tol is None else tol)
        rng = rng_for(17, 22)
        deficient = 0
        for _ in range(300):
            r, c = rng.randint(1, 8), rng.randint(1, 8)
            if rng.random() < 0.5:
                m = low_rank_product(rng, r, c, rng.randint(1, 3),
                                     _random_complex_entry)
            else:
                m = Matrix([[_random_complex_entry(rng) for _ in range(c)]
                            for _ in range(r)])
            want = _former_float_rank(m.entries, zero_tolerance())
            assert rank(m) == want
            deficient += want < min(r, c)
        assert deficient > 100

    def test_tied_moduli_pick_the_first_maximum(self):
        # every entry has modulus 1: the pivot is the first one met
        rng = rng_for(17, 23)
        for _ in range(200):
            r, c = rng.randint(1, 6), rng.randint(1, 6)
            rows = [[rng.choice([1 + 0j, -1 + 0j, 1j, -1j])
                     for _ in range(c)] for _ in range(r)]
            for tol in (None, 1e-15, 1e-6):
                set_zero_tolerance(DEFAULT_TOLERANCE if tol is None else tol)
                assert rank(Matrix(rows)) == _former_float_rank(
                    rows, zero_tolerance())


class TestStructure:
    def test_block_assemble(self):
        a = Matrix([[1, 2], [3, 4]])
        b = Matrix([[5, 6], [7, 8]])
        big = block_assemble([[a, b], [b, a]])
        assert big.rows == 4 and big.cols == 4
        assert big[0, 2] == 5 and big[3, 1] == 8 and big[2, 2] == 1

    def test_block_assemble_shape_guard(self):
        a = Matrix([[1, 2], [3, 4]])
        c = Matrix([[1], [2]])
        with pytest.raises(DimensionMismatch):
            block_assemble([[a], [Matrix([[1, 2, 3]])]])
        ok = block_assemble([[a, c]])
        assert ok.cols == 3

    def test_delete_column_and_submatrix(self):
        m = Matrix([[1, 2, 3], [4, 5, 6]])
        assert m.submatrix(range(2), [0, 2]) == Matrix([[1, 3], [4, 6]])
        assert m.submatrix([1], [0, 2]) == Matrix([[4, 6]])

    def test_matmul_shapes(self):
        with pytest.raises(DimensionMismatch):
            Matrix([[1, 2]]) * Matrix([[1, 2]])

    def test_trace_and_transpose(self):
        m = Matrix([[1, 2], [3, 4]])
        assert m.trace() == 5
        assert m.transpose() == Matrix([[1, 3], [2, 4]])

    def test_zero_shapes(self):
        for rows in ([], [[]], [[], []]):
            with pytest.raises(ValueError):
                Matrix(rows)

    def test_mixed_entry_promotion(self):
        m = Matrix([[1, Fraction(1, 2)], [QuadExt(0, 1, 5), 0]])
        assert det(m) == QuadExt(0, Fraction(-1, 2), 5)


class TestSerialization:
    def test_round_trip_rational(self):
        m = Matrix([[Fraction(1, 3), -2], [0, Fraction(7, 5)]])
        assert parse_matrix(matrix_str(m)) == m

    def test_round_trip_quadext(self):
        u = QuadExt(Fraction(5, 2), Fraction(-1, 2), 21)
        v = QuadExt(Fraction(5, 2), Fraction(1, 2), 21)
        m = Matrix([[u, QuadExt(1, 0, 21)], [QuadExt(0, 0, 21), v]])
        assert parse_matrix(matrix_str(m), kind="quadext") == m

    def test_round_trip_complex(self):
        m = Matrix([[ComplexF(0.5, -1.25), ComplexF(3.0)],
                    [ComplexF(0.0, 2.0), ComplexF(-1.0 / 3.0)]])
        back = parse_matrix(matrix_str(m), kind="complex")
        for i in range(2):
            for j in range(2):
                assert zero_test(back[i, j] - m[i, j])

    def test_known_format(self):
        assert matrix_str(Matrix([[1, 0], [0, 1]])) == "1,0;0,1"
