"""Presentation 2-complexes with coefficients twisted by a matrix
representation and a homomorphism to the infinite cyclic group.

The chain groups come from a one-vertex CW structure: one 0-cell, an edge
per generator, a face per relator.  Boundary matrices are Fox-derivative
blocks pushed through t^phi . alpha, acting on row vectors from the left;
each relator's blocks come from one prefix sweep (``freegroup.fox_sweep``)
whose ring elements are monomials t^phi(p) alpha(p).  The scalar complex
checks d2 . d1 = 0 with one zero test for every kind.
From the deficiency-1 case we extract the torsion polynomial ratio whose
degree bounds the complexity of spanning surfaces, and the genus check
comparing that degree against 4g - 2.
"""

import itertools
import math
from fractions import Fraction
from functools import cache

from . import linalg as _la
from . import scalar as _s
from .errors import (AlphabetMismatch, AllColumnsDegenerate, ChainCondition,
                     LongitudeTraceViolation, MissingGenusHint,
                     NotDeficiencyOne, NotInfiniteCyclic, OracleMismatch,
                     ParseError)
from .freegroup import (Alphabet, Word, fox_sweep, parse_at,
                        read_sections)
from .linalg import Matrix, grid_mul
from .polynomial import (LaurentPoly, NEG_INFINITY, _lp, laurent_str,
                         laurent_unit_match, parse_laurent, poly_matrix_det,
                         rational_degree)
from .representation import Representation


class Presentation:
    """A finite presentation with optional knot-theoretic decorations.

    Relators must come in freely and cyclically reduced; meridian and
    longitude are words in the same generators, genus_hint a nonnegative
    integer, and alexander_check an optional polynomial used by file
    validation.
    """

    def __init__(self, alphabet, relators, name="", meridian=None,
                 longitude=None, genus_hint=None, alexander_check=None):
        self.alphabet = alphabet
        self.relators = tuple(relators)
        for r in self.relators:
            if not isinstance(r, Word) or r.alphabet != alphabet:
                raise AlphabetMismatch("relator %r over the wrong alphabet"
                                       % (r,))
            if len(r) == 0:
                raise ValueError("trivial relator")
            if not r.is_cyclically_reduced():
                raise ValueError("relator %s is not cyclically reduced" % r)
        for w in (meridian, longitude):
            if w is not None and (not isinstance(w, Word)
                                  or w.alphabet != alphabet):
                raise AlphabetMismatch("decoration word over wrong alphabet")
        if genus_hint is not None and (not isinstance(genus_hint, int)
                                       or genus_hint < 0):
            raise ValueError("genus_hint must be a nonnegative integer")
        self.name = name
        self.meridian = meridian
        self.longitude = longitude
        self.genus_hint = genus_hint
        self.alexander_check = alexander_check

    def deficiency(self):
        return len(self.alphabet) - len(self.relators)

    def __repr__(self):
        return "Presentation(<%s | %s>%s)" % (
            ", ".join(self.alphabet.names),
            ", ".join(str(r) for r in self.relators),
            " %r" % self.name if self.name else "")


class AbelianizationMap:
    """Generator exponents for the map onto the infinite cyclic group."""

    def __init__(self, exponents):
        self.exponents = tuple(int(e) for e in exponents)

    def weight(self, word):
        es = word.exponent_sum()
        return sum(e * s for e, s in zip(self.exponents, es))

    def __eq__(self, other):
        return (isinstance(other, AbelianizationMap)
                and self.exponents == other.exponents)

    def __repr__(self):
        return "AbelianizationMap(%r)" % (self.exponents,)


def abelianization(pres):
    """The generator-exponent vector of the abelianization onto Z.

    Requires the abelianized group to be infinite cyclic: the exponent-sum
    matrix must have corank exactly one and unit elementary divisors, the
    latter checked through the gcd of its maximal minors.  The maximal
    minors of k - 1 rows are the cofactors of their generalized cross
    product, so the first such rows with a nonzero minor give the kernel:
    their signed minors, divided by their gcd, leading entry positive.
    """
    k = len(pres.alphabet)
    rows = [r.exponent_sum() for r in pres.relators]
    rank = Matrix(rows).rank() if rows else 0
    if rank != k - 1:
        raise NotInfiniteCyclic(
            "abelianization has rank %d relations on %d generators"
            % (rank, k))

    kernel = None
    g = 0
    for rsel in itertools.combinations(rows, rank):
        minors = [(-1) ** j * _minor(rsel, j) for j in range(k)]
        if kernel is None and any(minors):
            kernel = minors
        g = math.gcd(g, *minors)
        if g == 1:
            break
    if g != 1:
        raise NotInfiniteCyclic(
            "abelianization has torsion (minor gcd %d)" % g)

    g = math.gcd(*kernel)
    if next(v for v in kernel if v) < 0:
        g = -g
    phi = AbelianizationMap(v // g for v in kernel)
    for r in pres.relators:
        if phi.weight(r) != 0:
            raise NotInfiniteCyclic("relator %s has nonzero weight" % r)
    return phi


def _minor(rows, j):
    """The integer determinant of ``rows`` with column j deleted."""
    if not rows:
        return 1
    return int(Matrix([r[:j] + r[j + 1:] for r in rows]).det())


def trivial_rep(alphabet, n=1):
    """The rank-n representation sending every generator to the identity."""
    return Representation(alphabet,
                          [Matrix.identity(n) for _ in alphabet.names],
                          sl_flag=(n == 2))


# twisted evaluation: words and Fox derivatives through t^phi . alpha

def _monomial_mul(a, b):
    # (alpha(p), phi(p)) pairs multiply as t^phi alpha does
    return a[0] * b[0], a[1] + b[1]


def twisted_fox_row(w, rep, twist):
    """The Fox derivatives of w by each generator through the composite of
    t^phi and alpha: a list of n x n grids of Laurent polynomials."""
    n = rep.n

    def image(l):
        weight = twist.exponents[abs(l) - 1]
        return rep.letter_image(l), weight if l > 0 else -weight

    # each entry's coefficients are summed in a plain dict by the rules of
    # LaurentPoly.__add__: a float sum is checked finite, a new exponent
    # takes the term itself and a sum that cancels is dropped; a term is
    # +-1 times an entry of a Matrix product, already checked finite
    sums = [[[{} for _ in range(n)] for _ in range(n)]
            for _ in rep.alphabet.names]
    for j, sign, (m, shift) in fox_sweep(w, image, (rep.units[0], 0),
                                         _monomial_mul):
        grid = sums[j]
        for acc_row, row in zip(grid, m.entries):
            for acc, e in zip(acc_row, row):
                c = e * sign
                if not c:
                    continue
                if shift in acc:
                    c = acc[shift] + c
                    if not c:
                        del acc[shift]
                        continue
                    _s.check_finite(c)
                acc[shift] = c
    return [[[_lp(acc) for acc in acc_row] for acc_row in grid]
            for grid in sums]


def _poly_grid_max_mag(grid):
    mags = [e.max_coeff_magnitude() for row in grid for e in row]
    return max(mags) if mags else 0.0


def _same_alphabet(pres, rep):
    if rep.alphabet != pres.alphabet:
        raise AlphabetMismatch("representation over %r, presentation over %r"
                               % (rep.alphabet, pres.alphabet))


def build_complex(pres, rep):
    """Scalar boundary matrices (d2, d1) of the presentation complex
    through rep, after verifying the chain condition d2 . d1 = 0.

    d2 has a block row per relator and a block column per generator
    (Fox-derivative blocks), and is None when there are no relators.  d1
    is the block column of generator images minus the identity.  Block
    row i of d2 times d1 is rho(r_i) - 1 by Fox's fundamental formula,
    sum_j (dr/dx_j)(rho(x_j) - 1) = rho(r) - 1.  So the chain condition
    holds exactly when rep kills every relator (within tolerance in
    floating kinds): it checks that rep really is a representation of the
    presented group.  The product is never formed as a matrix:
    ``linalg.fox_formula_row`` compares each row of d2 . d1 with 0, on
    numerators for exact kinds.
    """
    _same_alphabet(pres, rep)
    d1 = _la.block_assemble([[rep.image(j) - rep.units[0]]
                             for j in range(len(rep.alphabet))])
    if not pres.relators:
        return None, d1
    d2 = rep.fox_matrix(pres.relators)
    bad = _la.fox_formula_row(d2, rep.images)
    if bad is not None:
        raise ChainCondition("d2 . d1 != 0: representation does not "
                             "kill relator %d" % (bad // rep.n))
    return d2, d1


def twisted_boundaries(pres, rep, phi):
    """Boundary grids (d2, d1) of Laurent polynomials through the composite
    of t^phi and rep, laid out as in :func:`build_complex` (d2 has no rows
    without relators), after verifying the chain condition."""
    _same_alphabet(pres, rep)
    n = rep.n
    k = len(pres.alphabet)
    d1 = []
    for j in range(k):
        d1.extend(twisted_eval_word_minus_one(Word(pres.alphabet, (j + 1,)),
                                              rep, phi))
    d2 = []
    for rel in pres.relators:
        row_blocks = twisted_fox_row(rel, rep, phi)
        for i in range(n):
            d2.append([row_blocks[j][i][l] for j in range(k)
                       for l in range(n)])
    prod = grid_mul(d2, d1)
    scale = cache(lambda: max(
        1.0, k * n * _poly_grid_max_mag(d2) * _poly_grid_max_mag(d1)))
    for i, row in enumerate(prod):
        for e in row:
            for c in e.coeffs.values():
                if not _s.zero_test(c, scale=scale):
                    raise ChainCondition(
                        "d2 . d1 != 0: twisted system does not kill "
                        "relator %d" % (i // n))
    return d2, d1


def twisted_eval_word_minus_one(w, rep, twist):
    """t^phi(w) alpha(w) - I as an n x n Laurent-polynomial grid."""
    m = rep.eval_word(w)
    shift = twist.weight(w)
    out = [[_lp({shift: e}) for e in row] for row in m.entries]
    for i in range(rep.n):
        out[i][i] = out[i][i] - LaurentPoly.one()
    return out


def homology_dims(d2, d1):
    """(h0, h1, h2) by rank-nullity on the scalar boundary matrices of
    :func:`build_complex`."""
    r1 = d1.rank()
    c2, r2 = (d2.rows, d2.rank()) if d2 is not None else (0, 0)
    return (d1.cols - r1, d1.rows - r1 - r2, c2 - r2)


class TorsionResult:
    """Numerator/denominator pair of the torsion ratio with its degree and
    the bounds that degree implies."""

    def __init__(self, numerator, denominator, column_deleted, degree,
                 norm_bound, genus_bound):
        self.numerator = numerator
        self.denominator = denominator
        self.column_deleted = column_deleted
        self.degree = degree
        self.norm_bound = norm_bound
        self.genus_bound = genus_bound

    def genus_bound_int(self):
        """The genus bound rounded up to an integer, or None."""
        if self.genus_bound is None:
            return None
        return max(0, math.ceil(self.genus_bound))

    def __repr__(self):
        return ("TorsionResult(num=%s, den=%s, column=%d, degree=%s)"
                % (laurent_str(self.numerator),
                   laurent_str(self.denominator),
                   self.column_deleted, self.degree))


def _poly_is_zero(p, scale):
    # stored coefficients are nonzero, so only a float one can test zero
    return all(_s.zero_test(c, scale=scale) for c in p.coeffs.values())


def wada_torsion(pres, rep):
    """Torsion polynomial ratio of a deficiency-1 presentation.

    Numerator: determinant of the twisted Fox matrix with one block column
    deleted; denominator: determinant of the deleted generator's twisted
    image minus the identity.  The column is the smallest index whose
    denominator is a nonzero polynomial; when a second valid column exists
    the two ratios are checked to agree up to a unit +-t^k.
    """
    if pres.deficiency() != 1:
        raise NotDeficiencyOne("deficiency %d, need 1" % pres.deficiency())
    d2, d1 = twisted_boundaries(pres, rep, abelianization(pres))
    n = rep.n
    k = len(pres.alphabet)
    scale = cache(lambda: max(1.0, _poly_grid_max_mag(d1)) ** n)

    dens = []
    for j in range(k):
        dens.append(poly_matrix_det(d1[j * n:(j + 1) * n]))
    valid = [j for j in range(k)
             if not _poly_is_zero(dens[j], scale)]
    if not valid:
        raise AllColumnsDegenerate(
            "every generator image has det(t^phi a(g) - 1) = 0")

    def numerator_for(j):
        rows = [row[:j * n] + row[(j + 1) * n:] for row in d2]
        if not rows:
            # one free generator, no relators: empty determinant is 1
            return LaurentPoly.one()
        return poly_matrix_det(rows)

    j = valid[0]
    num = numerator_for(j)
    den = dens[j]

    if len(valid) > 1:
        j2 = valid[1]
        num2 = numerator_for(j2)
        ok, _, _ = laurent_unit_match(num * dens[j2], num2 * den)
        if not ok:
            raise OracleMismatch(
                "torsion ratio differs between deleted columns %d and %d"
                % (j, j2))

    num = num.trim()
    den = den.trim()
    if _poly_is_zero(den, 1.0):
        raise AllColumnsDegenerate("chosen denominator vanished numerically")
    degree = rational_degree(num, den)
    if degree == NEG_INFINITY:
        norm_bound = None
        genus_bound = None
    else:
        norm_bound = Fraction(degree, n)
        genus_bound = (norm_bound + 1) / 2
    return TorsionResult(num, den, j, degree, norm_bound, genus_bound)


class GenusVerdict:
    """Outcome of comparing the torsion degree with 4 g - 2."""

    def __init__(self, verdict, degree, target, genus_hint, longitude_trace):
        self.verdict = verdict  # "equality" | "below" | "above"
        self.degree = degree
        self.target = target
        self.genus_hint = genus_hint
        self.longitude_trace = longitude_trace

    def __repr__(self):
        return ("GenusVerdict(%s: degree %s vs 4g-2 = %d, g = %d)"
                % (self.verdict, self.degree, self.target, self.genus_hint))


def conjecture_check(pres, rep, result=None):
    """Compare the torsion degree against 4 genus - 2.

    Requires a genus hint.  When a longitude is recorded and the
    representation is rank 2 with determinant 1, its trace must be -2
    within 1e-6; a violation signals a bad lift rather than a genus
    discrepancy, and is raised as its own error.  ``result`` is the
    :func:`wada_torsion` of pres and rep, computed after those checks
    unless the caller has it already.
    """
    if pres.genus_hint is None:
        raise MissingGenusHint("presentation carries no genus hint")
    longitude_trace = None
    if pres.longitude is not None and rep.n == 2 and rep.sl_flag:
        tr = rep.eval_word(pres.longitude).trace()
        longitude_trace = tr
        if not _s.zero_test(tr + 2, tol=1e-6, scale=1.0):
            raise LongitudeTraceViolation(
                "longitude trace %s, expected -2" % _s.scalar_str(tr))
    if result is None:
        result = wada_torsion(pres, rep)
    target = 4 * pres.genus_hint - 2
    if result.degree == target:
        verdict = "equality"
    elif result.degree == NEG_INFINITY or result.degree < target:
        verdict = "below"
    else:
        verdict = "above"
    return GenusVerdict(verdict, result.degree, target, pres.genus_hint,
                        longitude_trace)


_PRES_KEYS = ("name", "generators", "relators", "meridian", "longitude",
              "genus", "alexander")


def presentation_to_text(pres):
    lines = []
    if pres.name:
        lines.append("name: %s" % pres.name)
    lines.append("generators: %s" % " ".join(pres.alphabet.names))
    lines.append("relators:")
    for r in pres.relators:
        lines.append(str(r))
    if pres.meridian is not None:
        lines.append("meridian: %s" % pres.meridian)
    if pres.longitude is not None:
        lines.append("longitude: %s" % pres.longitude)
    if pres.genus_hint is not None:
        lines.append("genus: %d" % pres.genus_hint)
    if pres.alexander_check is not None:
        lines.append("alexander: %s" % laurent_str(pres.alexander_check))
    return "\n".join(lines) + "\n"


def presentation_from_text(text):
    """A presentation from the ``.pres`` format of
    :func:`~torsioncert.freegroup.read_sections`, with a ``relators:``
    block of words."""
    fields, relator_lines = read_sections(text, _PRES_KEYS, block="relators")
    if "generators" not in fields:
        raise ParseError("missing generators line")
    alphabet = parse_at(Alphabet, *fields["generators"])
    relators = [parse_at(alphabet.word, *line) for line in relator_lines]
    meridian = longitude = genus = alexander = None
    if "meridian" in fields:
        meridian = parse_at(alphabet.word, *fields["meridian"])
    if "longitude" in fields:
        longitude = parse_at(alphabet.word, *fields["longitude"])
    if "genus" in fields:
        ln, val = fields["genus"]
        try:
            genus = int(val)
        except ValueError:
            raise ParseError("line %d: genus must be an integer" % ln) \
                from None
        if genus < 0:
            raise ParseError("line %d: genus must be nonnegative" % ln)
    if "alexander" in fields:
        alexander = parse_at(lambda s: parse_laurent(s, kind="rational"),
                             *fields["alexander"])
    name = fields["name"][1] if "name" in fields else ""
    try:
        return Presentation(alphabet, relators, name=name, meridian=meridian,
                            longitude=longitude, genus_hint=genus,
                            alexander_check=alexander)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def check_alexander(pres):
    """Whether the recorded classical polynomial matches the computed one.

    The rank-1 trivial representation turns the torsion ratio into
    Delta(t)/(t - 1); cross-multiplying avoids polynomial division.
    Returns True when no polynomial is recorded.
    """
    if pres.alexander_check is None:
        return True
    result = wada_torsion(pres, trivial_rep(pres.alphabet, 1))
    t_minus_1 = LaurentPoly({1: 1}) - LaurentPoly.one()
    lhs = result.numerator * t_minus_1
    rhs = pres.alexander_check * result.denominator
    ok, _, _ = laurent_unit_match(lhs, rhs)
    return ok
