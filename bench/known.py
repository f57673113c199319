"""Known answers for benchmark verdicts, reached by routes the timed
verdicts do not take.

Certificates are re-derived from the 2x2 base matrices: a symmetric power
written here, a one-pass prefix sweep for the Fox Jacobian (the evaluated
derivative of w = l_1...l_m by x_j is the sum of P_{i-1} where l_i = x_j,
minus the sum of P_i where l_i = x_j^-1, P_i being the image of the first i
letters), and Gaussian elimination with field division instead of Bareiss.
Torsion numerators are compared with the two-bridge Alexander polynomial
(Hartley's formula), not with the package's own stored or computed one.

Only the standard library is used, so no check changes what a workload
imports.
"""

from fractions import Fraction


# -- exact matrices as nested lists over Fraction / QuadExt ---------------

def _identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _mat_mul(a, b):
    bt = list(zip(*b))
    return [[sum((x * y for x, y in zip(row, col)), 0) for col in bt]
            for row in a]


def _mat_add(a, b, sign=1):
    return [[x + sign * y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _field(e):
    # ints would divide into floats
    return Fraction(e) if isinstance(e, int) else e


def inverse2(m):
    """Inverse of a 2x2 matrix by the adjugate."""
    (a, b), (c, d) = m
    det = _field(a * d - b * c)
    return [[d / det, -b / det], [-c / det, a / det]]


def sym_power(m, N):
    """Action of a 2x2 matrix on degree-(N-1) forms in e1, e2.

    Column k is the image of e1^(N-1-k) e2^k, that is
    (a e1 + c e2)^(N-1-k) (b e1 + d e2)^k, with (a, c) and (b, d) the
    columns of m; row l collects the coefficient of e1^(N-1-l) e2^l.
    """
    (a, b), (c, d) = m

    def power(p, q, n):
        out = [1]
        for _ in range(n):
            out = [(out[i] if i < len(out) else 0) * p
                   + (out[i - 1] if i else 0) * q
                   for i in range(len(out) + 1)]
        return out

    cols = []
    for k in range(N):
        left, right = power(a, c, N - 1 - k), power(b, d, k)
        col = [0] * N
        for i, x in enumerate(left):
            for j, y in enumerate(right):
                col[i + j] = col[i + j] + x * y
        cols.append(col)
    return [[cols[k][l] for k in range(N)] for l in range(N)]


def fox_jacobian(words, images):
    """Block matrix of evaluated Fox derivatives by the prefix sweep.

    ``words`` are tuples of signed 1-based letters, ``images`` the generator
    matrices; block (i, j) is the derivative of word i by generator j.
    """
    n = len(images[0])
    k = len(images)
    inverses = [inverse_exact(m) for m in images]
    rows = []
    for w in words:
        blocks = [[[0] * n for _ in range(n)] for _ in range(k)]
        prefix = _identity(n)
        for l in w:
            step = images[l - 1] if l > 0 else inverses[-l - 1]
            after = _mat_mul(prefix, step)
            if l > 0:
                blocks[l - 1] = _mat_add(blocks[l - 1], prefix)
            else:
                blocks[-l - 1] = _mat_add(blocks[-l - 1], after, -1)
            prefix = after
        for i in range(n):
            rows.append([e for b in blocks for e in b[i]])
    return rows


def inverse_exact(m):
    """Gauss-Jordan inverse over the rationals or Q(sqrt d)."""
    n = len(m)
    if n == 2:
        return inverse2(m)
    aug = [[_field(e) for e in r] + [1 if i == j else 0 for j in range(n)]
           for i, r in enumerate(m)]
    for k in range(n):
        piv = next(r for r in range(k, n) if aug[r][k] != 0)
        aug[k], aug[piv] = aug[piv], aug[k]
        pk = aug[k][k]
        aug[k] = [x / pk for x in aug[k]]
        for r in range(n):
            if r != k and aug[r][k] != 0:
                f = aug[r][k]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[k])]
    return [row[n:] for row in aug]


def gauss_det(rows):
    """Determinant by Gaussian elimination with field division."""
    a = [[_field(e) for e in r] for r in rows]
    n = len(a)
    det = Fraction(1)
    for k in range(n):
        piv = next((r for r in range(k, n) if a[r][k] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        pk = a[k][k]
        det = det * pk
        for i in range(k + 1, n):
            if a[i][k] != 0:
                f = a[i][k] / pk
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return det


def certificate_nonzero(words, base, N):
    """Exact product verdict for the N-th symmetric power of a rank-2
    representation given by its 2x2 generator matrices."""
    images = base if N == 2 else [sym_power(m, N) for m in base]
    return gauss_det(fox_jacobian(words, images)) != 0


def eval_poly(terms, point):
    """Value of a polynomial given as {exponent tuple: coefficient}."""
    total = 0
    for ex, c in terms.items():
        term = c
        for v, e in zip(point, ex):
            term = term * v ** e
        total = total + term
    return total


# -- Laurent polynomials as {exponent: coefficient} ------------------------

def laurent_mul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c != 0}


def laurent_pow(p, n):
    out = {0: 1}
    for _ in range(n):
        out = laurent_mul(out, p)
    return out


def unit_multiple(p, q):
    """Whether p = +-t^k q for some k, exactly."""
    if not p or not q or len(p) != len(q):
        return False
    k = min(p) - min(q)
    for sign in (1, -1):
        if all(p.get(e + k) == sign * c for e, c in q.items()):
            return True
    return False


def two_bridge_word(p, q):
    """Letters of w in the two-bridge relator a w b^-1 w^-1 of K(p/q):
    w = b^e1 a^e2 b^e3 ... with e_i = (-1)^floor(i q / p), i < p."""
    letters = []
    for i in range(1, p):
        sign = -1 if (i * q // p) % 2 else 1
        letters.append(sign * (2 if i % 2 else 1))
    return letters


def two_bridge_alexander(p, q):
    """Hartley's formula: sum over i < p of (-1)^i t^(e_1 + ... + e_i)."""
    out = {}
    sigma = 0
    for i in range(p):
        if i:
            sigma += -1 if ((i * q) // p) % 2 else 1
        out[sigma] = out.get(sigma, 0) + (-1) ** i
    return {e: c for e, c in out.items() if c != 0}
