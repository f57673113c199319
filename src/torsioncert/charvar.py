"""Trace coordinates on the rank-2 character variety, explicit lifts to
matrix pairs, and the loci L_N where the pants certificate degenerates.

A character is the triple (tr x, tr y, tr xy).  Lifting rebuilds a matrix
pair realizing those traces, exactly over the rationals (passing to a
quadratic extension when the middle trace forces one) and in complex
floats otherwise; float values are Python ``complex``, checked finite
where they are stored.  The locus machinery evaluates certificate
determinants through symmetric powers of the lift, eliminates the
extension variable symbolically for N = 2, and verifies the printed
N = 3, 4 surfaces by sampling.  The symbolic N = 2 certificate matrix
comes from the same prefix sweep as every other Fox Jacobian
(``freegroup.fox_sweep``), run over 2 x 2 grids of polynomials reduced
modulo u^2 - z u + 1; the identity grid is a term of the sweep and never
a factor of its products.
"""

import cmath
import warnings
from fractions import Fraction

from . import scalar as _s
from .errors import (DegenerateInput, DivisionByZero, EliminationDegenerate,
                     IrreducibilityWarning)
from .freegroup import Alphabet, fox_sweep
from .linalg import Matrix, det_rank_with_scale, grid_mul
from .polynomial import (MultiPoly, _mp, aberth_roots, multi_eval,
                         poly_matrix_det, squarefree_part)
from .representation import Representation, SymPowerRep
from .seeds import rng_for
from .suturedcert import fox_matrix, pants_example


class Character:
    """A point (xbar, ybar, zbar) of the trace-coordinate variety.

    Components are normalized to one scalar kind: integers become
    rationals, and any float or complex component pushes all three into
    finite complex floats.
    """

    def __init__(self, xbar, ybar, zbar):
        vals = [xbar, ybar, zbar]
        vals = [Fraction(v) if isinstance(v, int) else v for v in vals]
        kinds = {_s.kind_of(v) for v in vals}
        if "complex" in kinds and len(kinds) > 1:
            vals = [_s.to_complexf(v) for v in vals]
        elif "quadext" in kinds and "rational" in kinds:
            d = next(v.d for v in vals if isinstance(v, _s.QuadExt))
            vals = [v if isinstance(v, _s.QuadExt) else _s.QuadExt(v, 0, d)
                    for v in vals]
        self.xbar, self.ybar, self.zbar = vals
        self.kind = _s.kind_of(vals[0])

    def as_tuple(self):
        return (self.xbar, self.ybar, self.zbar)

    def __eq__(self, other):
        return (isinstance(other, Character)
                and self.as_tuple() == other.as_tuple())

    def __repr__(self):
        return "Character(%s, %s, %s)" % tuple(
            _s.scalar_str(v) for v in self.as_tuple())


def parse_character(text):
    """A character from a literal like ``(4, 4, 5)``."""
    text = text.strip()
    if text.startswith("(") and text.endswith(")"):
        text = text[1:-1]
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 3:
        raise ValueError("character literal needs three components")
    return Character(*[_s.parse_scalar(p) for p in parts])


def exact_twin(text):
    """The rational character of a float literal whose components are all
    real, read from the same text by ``scalar.parse_fraction`` (0.1 is
    1/10, not the float's bits); None for an exact, complex or surd one."""
    if (parse_character(text).kind != "complex" or "i" in text
            or "sqrt" in text):
        return None
    return Character(*[_s.parse_fraction(p.replace(" ", ""), p)
                       for p in text.strip().strip("()").split(",")])


def commutator_trace(c):
    """tr of the commutator through the trace identity
    xbar^2 + ybar^2 + zbar^2 - xbar ybar zbar - 2."""
    x, y, z = c.as_tuple()
    return _s.check_finite(x * x + y * y + z * z - x * y * z - 2)


def is_reducible_character(c):
    """Whether the character's lifts share an eigenvector, detected by the
    commutator trace landing on 2."""
    t = commutator_trace(c)
    return _s.zero_test(t - 2, scale=lambda: max(1.0, _s.magnitude(t)))


_XY = Alphabet("x y")


def lift(c, warn=True):
    """A matrix pair with the given traces: x maps to [[0,1],[-1,xbar]]
    and y to [[ybar,-u],[1/u,0]] where u + 1/u = zbar.

    Rational characters lift exactly, with u in a quadratic extension when
    zbar^2 - 4 is not a rational square; everything else lifts in complex
    floats with the principal branch picking u.  Reducible characters are
    flagged through a warning and still lifted.
    """
    x, y, z = c.as_tuple()
    if c.kind == "rational":
        disc = z * z - 4
        if disc == 0:
            u = z / 2  # the double root, +-1, is its own inverse
            uin = u
        else:
            s, d = _s.sqrt_decompose(disc)
            if d == 1:
                u = (z + s) / 2
                uin = 1 / u
            else:
                u = _s.QuadExt(z / 2, s / 2, d)
                uin = u.inverse()
    else:
        zc = _s.to_complex(z)
        u = _s.ComplexF((zc + cmath.sqrt(zc * zc - 4)) / 2)
        # the textbook quotient, not the builtin's 1 / u (Smith's
        # algorithm), whose last bits differ
        den = u.real * u.real + u.imag * u.imag
        if den == 0.0:
            raise DivisionByZero("complex division by zero")
        uin = _s.ComplexF((u.real + 0.0 * u.imag) / den,
                          (0.0 * u.real - u.imag) / den)
        x = _s.to_complexf(x)
        y = _s.to_complexf(y)
    ax = Matrix([[0, 1], [-1, x]])
    ay = Matrix([[y, -u], [uin, 0]])
    rep = Representation(_XY, [ax, ay], sl_flag=True)
    if warn and is_reducible_character(c):
        warnings.warn(IrreducibilityWarning(
            "character %r is reducible; the lift is one of several "
            "non-conjugate choices" % (c,)))
    return rep


def locus_det_with_scale(c, data, N=2):
    """Certificate determinant of ``data`` through the N-th symmetric power
    of the lift, with the noise scale of the elimination."""
    if N < 2:
        raise ValueError("N must be at least 2")
    rep = lift(c, warn=False)
    if N != 2:
        rep = SymPowerRep(rep, N)
    return det_rank_with_scale(fox_matrix(data, rep))[:2]


# symbolic elimination for N = 2: work in Q[x, y, z, u] modulo the trace
# relation u^2 - z u + 1, which keeps inverse entries polynomial

_PX = MultiPoly.variable("x")
_PY = MultiPoly.variable("y")
_PZ = MultiPoly.variable("z")
_PU = MultiPoly.variable("u")


def reduce_u(p):
    """Rewrite u-powers above 1 through u^2 = z u - 1."""
    while p.degree_in("u") >= 2:
        terms = {}
        get = terms.get
        for ex, cf in p.terms.items():
            a, b, c, k = ex
            if k < 2:
                terms[ex] = get(ex, 0) + cf
            else:
                # cf x^a y^b z^c u^k = cf x^a y^b z^c u^(k-2) (z u - 1)
                hi = (a, b, c + 1, k - 1)
                lo = (a, b, c, k - 2)
                terms[hi] = get(hi, 0) + cf
                terms[lo] = get(lo, 0) - cf
        p = _mp(terms)
    return p


_ZERO_P = MultiPoly.zero()
_ONE_P = MultiPoly.constant(1)
_SYM_ONE = [[_ONE_P, _ZERO_P], [_ZERO_P, _ONE_P]]
_SYM_TABLE = {
    1: [[_ZERO_P, _ONE_P], [-_ONE_P, _PX]],
    -1: [[_PX, -_ONE_P], [_ONE_P, _ZERO_P]],
    2: [[_PY, -_PU], [_PZ - _PU, _ZERO_P]],
    -2: [[_ZERO_P, _PU], [_PU - _PZ, _PY]],
}


def _sym_mul(a, b):
    return [[reduce_u(e) for e in row] for row in grid_mul(a, b)]


def sym_fox_grid(data):
    """The N = 2 certificate matrix of rank-2 ``data`` over the quotient
    ring, as a 4 x 4 grid of polynomials."""
    grid = [[_ZERO_P] * 4 for _ in range(4)]
    for i, w in enumerate(data.images):
        for j, sign, _, p in fox_sweep(w, _SYM_TABLE.__getitem__, _SYM_ONE,
                                       _sym_mul):
            for bi in range(2):
                for bj in range(2):
                    grid[2 * i + bi][2 * j + bj] += p[bi][bj].scale(sign)
    return grid


def eliminate_L2(data):
    """The u-free defining polynomial of the N = 2 failure locus.

    Evaluates the certificate matrix symbolically over the quotient ring
    and takes its determinant.  Both roots u of u^2 - z u + 1 lift the same
    character, to conjugate pairs at generic points, and the determinant is
    a conjugation invariant; so after reduction it has no u term.  Returns
    1 for a nonzero constant determinant and the squarefree primitive
    normalization otherwise.  The pants instance must come out as the plane
    x + y - z - 3 up to sign.
    """
    if len(data.alphabet) != 2:
        raise DegenerateInput("symbolic elimination handles rank 2 only")
    det = reduce_u(poly_matrix_det(sym_fox_grid(data)))
    if det.is_zero():
        raise EliminationDegenerate("certificate determinant is "
                                    "identically zero")
    if det.is_constant():
        return _ONE_P
    return squarefree_part(det)


# the printed failure loci for the third and fourth symmetric powers,
# exponent order (x, y, z, u)

L3_POLY = MultiPoly({
    (1, 1, 1, 0): 2, (2, 0, 0, 0): -1, (0, 2, 0, 0): -1,
    (0, 0, 2, 0): -3, (0, 0, 0, 0): 3,
})

L4_POLY = MultiPoly({
    (2, 2, 1, 0): 3, (2, 1, 2, 0): -3, (1, 2, 2, 0): -3,
    (4, 0, 0, 0): 1, (3, 1, 0, 0): -2, (1, 3, 0, 0): -2, (0, 4, 0, 0): 1,
    (3, 0, 1, 0): 2, (2, 1, 1, 0): 3, (1, 2, 1, 0): 3, (0, 3, 1, 0): 2,
    (1, 1, 2, 0): -3, (1, 0, 3, 0): 2, (0, 1, 3, 0): 2, (0, 0, 4, 0): 1,
    (3, 0, 0, 0): -3, (0, 3, 0, 0): -3, (0, 0, 3, 0): 3,
    (2, 0, 0, 0): -3, (1, 1, 0, 0): 6, (0, 2, 0, 0): -3,
    (1, 0, 1, 0): -6, (0, 1, 1, 0): -6, (0, 0, 2, 0): -3,
    (1, 0, 0, 0): 6, (0, 1, 0, 0): 6, (0, 0, 1, 0): -6,
    (0, 0, 0, 0): 9,
})

L2_POLY = MultiPoly({
    (1, 0, 0, 0): 1, (0, 1, 0, 0): 1, (0, 0, 1, 0): -1, (0, 0, 0, 0): -3,
})


def locus_polynomial(N):
    if N == 2:
        return L2_POLY
    if N == 3:
        return L3_POLY
    if N == 4:
        return L4_POLY
    raise ValueError("printed locus polynomials exist for N = 2, 3, 4 only")


class LocusReport:
    """Aggregated pass/fail counts of a sampling verification run."""

    def __init__(self, N, samples, seed, corrupt):
        self.N = N
        self.samples = samples
        self.seed = seed
        self.corrupt = corrupt
        self.on_checked = 0
        self.on_passed = 0
        self.off_checked = 0
        self.off_passed = 0
        self.failures = []

    def ok(self):
        return (self.on_passed == self.on_checked
                and self.off_passed == self.off_checked
                and self.on_checked > 0)

    def __repr__(self):
        return ("LocusReport(N=%d, on %d/%d, off %d/%d%s)"
                % (self.N, self.on_passed, self.on_checked,
                   self.off_passed, self.off_checked,
                   ", corrupted" if self.corrupt else ""))


def _z_root_candidates(poly, xv, yv):
    zdeg = poly.degree_in("z")
    coeffs = []
    for k in range(zdeg, -1, -1):
        coeffs.append(complex(multi_eval(poly.coeff_in("z", k),
                                         (xv, yv, 0, 0))))
    while coeffs and _s.zero_test(coeffs[0], tol=1e-13):
        coeffs = coeffs[1:]
    if len(coeffs) <= 1:
        return []
    return aberth_roots(coeffs[::-1])


# how far off the surface, in z, each on-locus root is moved for the
# off-locus check
_OFF_DELTA = 0.35


def locus_verify(N, samples=100, seed=7, tol=1e-6, off_tol=1e-3,
                 corrupt=False):
    """Sample the printed locus polynomial for one symmetric power.

    For each sample an (x, y) pair is drawn, the polynomial is solved for
    z numerically, and the pants certificate determinant is required to
    vanish relatively at each root and to exceed off_tol at that root moved
    by _OFF_DELTA.  ``corrupt`` bumps the polynomial's constant term as a
    negative control, so on-locus checks must fail.
    """
    if N not in (3, 4):
        raise ValueError("verification targets the printed N = 3, 4 loci")
    poly = locus_polynomial(N)
    if corrupt:
        poly = poly + _ONE_P
    data = pants_example()
    report = LocusReport(N, samples, seed, corrupt)
    for i in range(samples):
        rng = rng_for(seed, i)
        xv = rng.uniform(-3.0, 3.0)
        yv = rng.uniform(-3.0, 3.0)
        for z in _z_root_candidates(poly, xv, yv):
            c = Character(_s.ComplexF(xv), _s.ComplexF(yv), _s.ComplexF(z))
            det, scale = locus_det_with_scale(c, data, N)
            report.on_checked += 1
            if _s.zero_test(det, tol=tol, scale=max(1.0, scale)):
                report.on_passed += 1
            elif len(report.failures) < 10:
                report.failures.append(
                    ("on", i, xv, yv, z, abs(det), scale))
            zoff = z + _OFF_DELTA
            coff = Character(_s.ComplexF(xv), _s.ComplexF(yv),
                             _s.ComplexF(zoff))
            doff, soff = locus_det_with_scale(coff, data, N)
            report.off_checked += 1
            # off-locus values are compared absolutely: determinants away
            # from the surface are order-one or larger
            if not _s.zero_test(doff, tol=off_tol):
                report.off_passed += 1
            elif len(report.failures) < 10:
                report.failures.append(
                    ("off", i, xv, yv, zoff, abs(doff), soff))
    return report
