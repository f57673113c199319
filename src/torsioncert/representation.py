"""Matrix representations of free groups: evaluation of words and
group-ring elements, symmetric powers, duality and circle-homology checks,
and numeric solving for parabolic representations of two-bridge-style
presentations.

A representation assigns an invertible n x n matrix over one scalar kind to
each generator of an alphabet.  ``sl_flag`` asserts determinant-1 images,
which is checked at construction, except where it follows from images
already checked: symmetric powers.  Words are products of ``Matrix``
objects, which keep their own numerators (``linalg.running_mul``,
``linalg.product``).  One Fox sweep per word (``fox_terms``) gives every
Fox term with the length of its prefix, the identity a term and never a
factor, and a Fox matrix is their signed sums, added into one grid
(``linalg.signed_blocks``).  A symmetric power of every kind takes those
products on its rank-2 base and raises each one to Sym^N
(``linalg.sym_power``) once, keyed by its prefix; it builds its own images
and inverse images only when they are read.
"""

import string
from functools import cached_property
from itertools import product

from . import linalg as _la
from . import scalar as _s
from .errors import (AlphabetMismatch, IncompleteRootScan, MixedExtension,
                     MixedScalarKind, NoRootFound, NotSL2, NotTwoByTwo,
                     ParseError, ReducibleOnly, ScalarEmbedding,
                     SingularImage)
from .freegroup import (Alphabet, GroupRingElem, Word, fox_sweep, parse_at,
                        read_sections)
from .linalg import Matrix, sym_power
from .polynomial import (_in_basin, _newton_run, horner_within_rounding,
                         int_poly_gcd, newton_basin_radius)


class Representation:
    """Generator-to-matrix assignment, evaluated on words multiplicatively.

    Images are immutable; inverse images are computed once and cached.
    """

    def __init__(self, alphabet, images, sl_flag=False):
        images = list(images)
        if len(images) != len(alphabet):
            raise ValueError("need one image per generator")
        n = images[0].rows
        for m in images:
            if not isinstance(m, Matrix) or m.rows != m.cols or m.rows != n:
                raise ValueError("images must be square matrices of one size")
        if len({m.field for m in images}) > 1:
            # one column of blocks over several fields takes the promotion
            # of Matrix(rows); cut the images back out of it
            column = _la.block_assemble([[m] for m in images])
            images = [column.submatrix(range(i * n, (i + 1) * n), range(n))
                      for i in range(len(images))]
        self.images = tuple(images)
        self._store(alphabet, n, self.images[0].field, sl_flag)
        self._check_images()

    def _check_images(self):
        """Raise ``SingularImage`` unless every image is nonsingular, and
        of determinant 1 under ``sl_flag``."""
        for i, m in enumerate(self.images):
            # exact kinds test zero exactly, whatever the scale; the norm
            # comes first, to raise NonFinite on a modulus past the range
            scale = max(1.0, m.max_row_norm()) \
                if self.scalar_kind == "complex" else 1.0
            d = m.det()
            if _s.zero_test(d, scale=scale):
                raise SingularImage("image of generator %r is singular"
                                    % self.alphabet.names[i])
            if self.sl_flag and not _s.zero_test(d - 1, scale=scale):
                raise SingularImage("sl_flag set but det(image %r) = %s"
                                    % (self.alphabet.names[i], d))

    def _store(self, alphabet, n, field, sl_flag):
        """Set every field but the images, of size n over ``field``: an
        empty cache of inverse images and the identity and zero over that
        field, so that arithmetic with the images keeps it."""
        self.alphabet = alphabet
        self.n = n
        self.sl_flag = bool(sl_flag)
        self.field = field
        self.units = _la.units(n, field)
        self.scalar_kind = self.units[0].scalar_kind
        self._inv = {}

    def image_inverse(self, i):
        """The inverse image of generator i, by Gauss-Jordan, computed
        once."""
        if i not in self._inv:
            self._inv[i] = self.images[i].inverse()
        return self._inv[i]

    def letter_image(self, l):
        """Image of the signed letter l: generator l - 1 or its inverse."""
        return self.images[l - 1] if l > 0 else self.image_inverse(-l - 1)

    def _check_word(self, w):
        if not isinstance(w, Word):
            raise TypeError("expected a Word")
        if w.alphabet != self.alphabet:
            raise AlphabetMismatch("word over %r, rep over %r"
                                   % (w.alphabet, self.alphabet))

    def eval_word(self, w):
        """The product of generator images along the word, from the first
        letter's image over exact kinds (1 . B = B exactly) and from the
        identity over C and for the empty word, in the images' kind."""
        self._check_word(w)
        one = self.units[0]
        factors = map(self.letter_image, w.letters)
        return _la.product(factors, one if self.field == "complex"
                           else next(factors, one))

    def fox_matrix(self, words):
        """The Fox matrix of ``words``: block (i, j) is the image of the
        derivative of words[i] by generator j, the signed prefix products
        of :meth:`fox_terms` added into one grid
        (``linalg.signed_blocks``)."""
        return _la.signed_blocks(self.fox_terms(words), len(words),
                                 len(self.alphabet), self.n, self.field)

    def fox_terms(self, words):
        """The terms (i, j, sign, k, P) of the Fox derivatives of ``words``,
        which ``fox_matrix`` and ``twisted.twisted_fox_row`` sum: each
        word's :func:`fox_sweep`, P the image of the prefix of words[i] of
        length k, an unreduced running product (``linalg.running_mul``)
        or the identity, which no product takes as a factor."""
        terms = []
        for i, w in enumerate(words):
            self._check_word(w)
            terms += [(i, *t) for t in fox_sweep(
                w, self.letter_image, self.units[0], _la.running_mul)]
        return terms

    def eval_ring_elem(self, e):
        """Sum of coeff * eval_word over the terms; a ring homomorphism."""
        if not isinstance(e, GroupRingElem):
            raise TypeError("expected a GroupRingElem")
        if e.alphabet != self.alphabet:
            raise AlphabetMismatch("element over %r, rep over %r"
                                   % (e.alphabet, self.alphabet))
        out = self.units[1]
        try:
            for w, c in e.terms.items():
                out = out + self.eval_word(w).scale(c)
        except (TypeError, MixedScalarKind, MixedExtension):
            raise ScalarEmbedding(
                "coefficient does not embed into %s entries"
                % self.scalar_kind) from None
        return out

    def description(self):
        tag = "SL" if self.sl_flag else "GL"
        return "rank-%d %s(%d) representation of <%s>" % (
            self.n, tag, self.n, ", ".join(self.alphabet.names))

    def __repr__(self):
        return "Representation(%s, %s)" % (
            self.description(),
            "; ".join(_la.matrix_str(m) for m in self.images))


class SymPowerRep(Representation):
    """The N-dimensional symmetric-power representation of a rank-2 base.

    Sym^N is a ring homomorphism GL2 -> GLN, so every matrix is one
    :func:`sym_power` of a 2 x 2 matrix of the base, over every kind: a
    word is evaluated on the base (``eval_word``), and so are the prefix
    products of the Fox sweeps (``fox_terms``), each raised to Sym^N on
    its own before any sum.  Each such 2 x 2 matrix is the product
    of the base's letter images along a word, from its first letter's, so
    its Sym^N is raised once per word and kept, keyed by the word's letters
    (a Fox term's prefix ``words[i].letters[:k]``): an image, the first
    prefix of a sweep and a one-letter word share one, and so do a word
    and the last prefix of its sweep.  The empty word's is the identity
    from the start.  The images and inverse images
    (Sym(A)^-1 = Sym(A^-1)) are built on first use.  They are not checked:
    det Sym(A) = det(A)^(N(N-1)/2), so the base's check covers them.  N and
    the base's rank are checked at once.
    """

    def __init__(self, base, N):
        if base.n != 2:
            raise NotTwoByTwo("symmetric powers take a rank-2 base")
        if not isinstance(N, int) or N < 2:
            raise ValueError("N must be an integer >= 2")
        self.base = base
        self.N = N
        self._store(base.alphabet, N, base.field, base.sl_flag)
        self._raised = {(): self.units[0]}

    def _raise(self, letters, m):
        """Sym^N of m, the base's image of the word ``letters``, once."""
        out = self._raised.get(letters)
        if out is None:
            out = self._raised[letters] = sym_power(m, self.N)
        return out

    @cached_property
    def images(self):
        return tuple(self._raise((i + 1,), m)
                     for i, m in enumerate(self.base.images))

    def image_inverse(self, i):
        return self._raise((-i - 1,), self.base.image_inverse(i))

    def eval_word(self, w):
        self._check_word(w)
        letters = w.letters
        if letters in self._raised:
            return self._raised[letters]
        image = self.base.letter_image
        return self._raise(letters, _la.product(map(image, letters[1:]),
                                                image(letters[0])))

    def fox_terms(self, words):
        # the base's terms, each prefix raised as the image of its word
        return [(i, j, sign, k, self._raise(words[i].letters[:k], p))
                for i, j, sign, k, p in self.base.fox_terms(words)]

    def description(self):
        return "symmetric power N=%d of %s" % (self.N, self.base.description())


def circle_homology(m):
    """Twisted homology dimensions of a circle whose monodromy is m.

    Returns (h0, h1) = (dim coker(m - I), dim ker(m - I)); both vanish for
    an SL2 matrix exactly when its trace is not 2.
    """
    if not isinstance(m, Matrix) or m.rows != m.cols:
        raise ValueError("need a square matrix")
    r = _la.less_one([m]).rank()
    return (m.rows - r, m.rows - r)


def check_self_dual(rep):
    """Max entry deviation of J g J^-1 - (g^-1)^T over the generators.

    J is the standard symplectic form on C^2; the identity characterizes
    SL2, so the defect is exactly zero for honest sl_flag representations
    and nonzero as soon as some determinant is not 1.  Rank-2 only; reps
    without sl_flag are accepted so the failure mode is observable.
    """
    if rep.n != 2:
        raise NotSL2("self-duality check is for rank-2 representations")
    J = Matrix([[0, 1], [-1, 0]])
    Jinv = Matrix([[0, -1], [1, 0]])
    defects = [_s.magnitude(e) for i, g in enumerate(rep.images)
               for row in (J * g * Jinv
                           - rep.image_inverse(i).transpose()).entries
               for e in row if e]
    return max(defects, default=0)


# parabolic solving

def _add_shifted(a, b, sign, shift):
    # a + sign * y^shift * b on integer coefficient lists, low degree first
    out = a + [0] * (len(b) + shift - len(a))
    for i, x in enumerate(b):
        out[i + shift] += sign * x
    return out


def riley_polynomial(relator):
    """The gcd of the four entries of R - I, where R is the image of the
    relator under a -> ((1,1),(0,1)), b -> ((1,0),(y,1)).

    Integer coefficients, low degree first, primitive with positive leading
    coefficient; ``[]`` when the relator dies identically.
    """
    # the running product as two columns (m00, m10) and (m01, m11); a letter
    # multiplies on the right, which is one column operation
    m00, m01, m10, m11 = [1], [0], [0], [1]
    for l in relator.letters:
        if l in (1, -1):
            # a^+-1: col2 +-= col1
            m01 = _add_shifted(m01, m00, l, 0)
            m11 = _add_shifted(m11, m10, l, 0)
        else:
            # b^+-1: col1 +-= y col2
            m00 = _add_shifted(m00, m01, l // 2, 1)
            m10 = _add_shifted(m10, m11, l // 2, 1)
    g = []
    for entry in (_add_shifted(m00, [1], -1, 0), m01, m10,
                  _add_shifted(m11, [1], -1, 0)):
        g = int_poly_gcd(g, entry)
    return g


# Newton starts for the parabolic scan: a grid of step 1/4 over the box
# [-4, 4]^2.  The two parabolics freely generate a free group when
# |y| >= 4 (Lyndon and Ullman, Canad. J. Math. 21, 1969), so a y that
# kills a nontrivial relator has |y| < 4 and lies in the box.
_GRID_LO = -4.0
_GRID_HI = 4.0
_GRID_STEP = 0.25


def parabolic_roots(pres):
    """All parameters y in the grid box making a ((1,1),(0,1)), ((1,0),(y,1))
    pair kill the relator, sorted by (real, imaginary).

    The roots are those of the Riley polynomial g, the gcd of the relator
    defect entries (:func:`riley_polynomial`); g divides every entry, so a
    root of g kills the relator.  Newton iteration with the exact
    derivative runs from each grid start in turn.  An iterate is kept if it
    lies in the box, is not within 1e-7 of a kept root, and its Horner
    value is within the rounding-error bound of Horner's rule
    (:func:`~torsioncert.polynomial.horner_within_rounding`), so iterates
    that never converged are dropped.  The scan stops once it has kept as
    many roots as g has distinct roots, deg g - deg gcd(g, g'), counted
    exactly; a scan that ends with fewer raises ``IncompleteRootScan``
    rather than return a short list.

    Each kept root r also gets a basin radius rho_r, half of Smale's
    gamma-theorem radius (:func:`~torsioncert.polynomial.newton_basin_radius`;
    Blum, Cucker, Shub and Smale, *Complexity and Real Computation*, ch. 8).
    A later run that comes within rho_r of r with at least six steps left
    stops there as a duplicate: Newton from inside that radius converges to
    r quadratically, so the full run would have ended within 1e-7 of r (or
    outside the box, with r on its edge) and been dropped.  On every
    two-bridge knot K(p/q) with odd q and p <= 31 the returned bits are
    those of the scan without radii.  From p = 33 on they differ on 59 of
    the 128 knots up to p = 47: on each, the scan without radii keeps two
    roots less than 2e-4 apart.  On 53 of them g has no two roots within
    1e-3, so the pair are two copies of one ill-conditioned root, which
    the basin stop keeps once.  When g has a repeated
    root no radius is kept: a float root of a multiple factor has no
    quadratic basin.

    The grid is symmetric about the real axis and g has integer
    coefficients.  IEEE rounding commutes with negation, so complex
    products, quotients and ``abs`` commute with conjugation on nonzero
    parts, and the run from a start above the axis is, step for step, the
    conjugate of the run from its mirror image below, run earlier in the
    same column.  When that run stopped in a basin at z, the start above is
    skipped if conj(z) lies in a basin kept by now: its own run would stop
    there, or earlier.  Skipping runs whose result is None changes no kept
    root, no order and no early stop; on the knots up to p = 47 the scan
    makes 54% of the Newton runs it would make without it.

    The scan keeps its own Newton starts rather than the simultaneous
    solver :func:`~torsioncert.polynomial.aberth_roots`, since the roots
    here are pinned to the bit.
    """
    alphabet = pres.alphabet
    if len(alphabet) < 2:
        raise ReducibleOnly("a cyclic presentation has abelian image only")
    if len(alphabet) != 2 or len(pres.relators) != 1:
        raise ValueError("parabolic solving wants two generators, one relator")
    relator = pres.relators[0]
    es = relator.exponent_sum()
    if es[0] + es[1] != 0:
        raise ValueError("generators are not both meridional "
                         "(relator exponent sums %r)" % (es,))

    g = riley_polynomial(relator)
    if not g:
        # relator dies identically; any irreducible parameter works
        g = [0, 1]
    if len(g) == 1:
        raise NoRootFound("defect polynomials share no root")
    dg = [i * c for i, c in enumerate(g)][1:]
    distinct = len(g) - len(int_poly_gcd(g, dg))

    coeffs = [complex(c) for c in g]
    dcoeffs = [i * c for i, c in enumerate(coeffs)][1:]
    squarefree = distinct == len(g) - 1
    roots = []
    basins = []
    # start -> the iterate at which a basin stopped its run, for the starts
    # below the real axis
    stops = {}
    steps = int(round((_GRID_HI - _GRID_LO) / _GRID_STEP)) + 1
    for ri, ii in product(range(steps), repeat=2):
        start = complex(_GRID_LO + ri * _GRID_STEP, _GRID_LO + ii * _GRID_STEP)
        stop = stops.get(start.conjugate())
        if stop is not None and _in_basin(stop.conjugate(), basins):
            # the run from the mirror image start stopped at stop, so this
            # run would stop at its conjugate, or earlier
            continue
        y, stop = _newton_run(coeffs, dcoeffs, start, 80, 1e-15, basins)
        if y is None:
            if start.imag < 0:
                stops[start] = stop
            continue
        if not (_GRID_LO - 1e-6 <= y.real <= _GRID_HI + 1e-6 and
                _GRID_LO - 1e-6 <= y.imag <= _GRID_HI + 1e-6):
            continue
        if any(abs(y - r) < 1e-7 for r in roots):
            continue
        if horner_within_rounding(coeffs, y):
            roots.append(y)
            if len(roots) == distinct:
                break
            if squarefree:
                basins.append((y, newton_basin_radius(coeffs, y)))
    if len(roots) < distinct:
        raise IncompleteRootScan(
            "the grid scan kept %d of the %d distinct roots of the Riley "
            "polynomial" % (len(roots), distinct))
    return sorted(roots, key=lambda z: (z.real, z.imag))


def solve_parabolic(pres, which=0):
    """A parabolic complex-float representation of a two-generator
    one-relator presentation with meridional generators.

    Images are [[1,1],[0,1]] and [[1,0],[y,1]] (traces exactly 2 by
    construction) with y the ``which``-th root from :func:`parabolic_roots`;
    irreducible roots only.
    """
    roots = parabolic_roots(pres)
    irreducible = [y for y in roots if not _s.zero_test(y, tol=1e-8)]
    if not irreducible:
        if roots:
            raise ReducibleOnly("every root shares an eigenvector (y = 0)")
        raise NoRootFound("no parabolic parameter found in the grid")
    y = irreducible[which % len(irreducible)]
    A = Matrix([[_s.ComplexF(1), _s.ComplexF(1)],
                [_s.ComplexF(0.0), _s.ComplexF(1)]])
    B = Matrix([[_s.ComplexF(1), _s.ComplexF(0.0)],
                [_s.ComplexF(y), _s.ComplexF(1)]])
    return Representation(pres.alphabet, [A, B], sl_flag=True)


# every other key of a .rep file names a generator, a single letter
_REP_KEYS = ("alphabet", "scalar", "sl", *string.ascii_lowercase)


def rep_to_text(rep):
    lines = ["alphabet: %s" % " ".join(rep.alphabet.names),
             "scalar: %s" % rep.scalar_kind]
    if rep.sl_flag:
        lines.append("sl: true")
    for name, m in zip(rep.alphabet.names, rep.images):
        lines.append("%s: %s" % (name, _la.matrix_str(m)))
    return "\n".join(lines) + "\n"


def rep_from_text(text):
    """A representation from the ``.rep`` format of
    :func:`~torsioncert.freegroup.read_sections`: ``alphabet:``,
    ``scalar:``, an optional ``sl:`` and one ``<generator>: <matrix>`` line
    per generator, each matrix read under the file's scalar kind."""
    fields, _ = read_sections(text, _REP_KEYS)
    if "alphabet" not in fields or "scalar" not in fields:
        raise ParseError("missing alphabet or scalar header")
    alphabet = parse_at(Alphabet, *fields.pop("alphabet"))
    ln, kind = fields.pop("scalar")
    if kind not in ("rational", "quadext", "complex"):
        raise ParseError("line %d: unknown scalar kind %r" % (ln, kind))
    ln, sl = fields.pop("sl", (0, "false"))
    if sl not in ("true", "false"):
        raise ParseError("line %d: sl must be true or false, got %r"
                         % (ln, sl))
    body = {}
    for key, (ln, val) in fields.items():
        if key not in alphabet.names:
            raise ParseError("line %d: %r is not a generator" % (ln, key))
        body[key] = parse_at(lambda s: _la.parse_matrix(s, kind=kind), ln,
                             val)
    missing = [n for n in alphabet.names if n not in body]
    if missing:
        raise ParseError("no matrix for generator(s) %s" % ", ".join(missing))
    try:
        return Representation(alphabet, [body[n] for n in alphabet.names],
                              sl_flag=sl == "true")
    except ValueError as exc:
        raise ParseError(str(exc)) from None
