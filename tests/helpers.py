"""Shared test utilities: independent little oracles and random generators.

The oracles here deliberately avoid the package's own linear algebra and
Fox calculus so that agreement between the two routes means something:
determinants come from the permutation expansion, ranks from minor
enumeration, matrix products from plain tuple arithmetic, and Fox
derivatives from the textbook prefix-word rule.  The enlarged presentation
of sutured data is a reference route of another kind: the complex the
homology oracle of ``suturedcert`` stands for, built with the package's own
``build_complex`` on an alphabet with a letter per surface word.  So is
the chain check by one product of assembled matrices, the route that
``linalg.fox_formula_row`` replaced, the Fox matrix block by block,
the route that ``Representation.fox_matrix`` replaced, the rank-N route
of symmetric powers, which ``SymPowerRep`` left for its rank-2 base,
and the expansion of ``linalg.sym_power`` over Q(sqrt d) in a ring of
tuples, which its int-pair loop replaced.  ``conjugate`` and
``conjugated``, the Galois conjugate and the change of basis that the
invariance tests apply, and ``RingElem``, the group ring's arithmetic,
left the package because no command, workload or criterion calls them.
"""

import math

from fractions import Fraction
from functools import reduce
from itertools import combinations, permutations
from math import comb
from operator import add

from torsioncert.charvar import Character, lift
from torsioncert.errors import AlphabetMismatch
from torsioncert.freegroup import Alphabet, GroupRingElem, Word, fox_sweep
from torsioncert.linalg import (Matrix, _finish, _new, block_assemble,
                                product, running_mul, sym_power, units)
from torsioncert.representation import Representation, SymPowerRep
from torsioncert.scalar import ComplexF, QuadExt, zero_tolerance


def perm_det(rows):
    """Determinant by the permutation expansion; entries of any ring."""
    n = len(rows)
    total = None
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = rows[0][perm[0]]
        for i in range(1, n):
            term = term * rows[i][perm[i]]
        if sign < 0:
            term = -term
        total = term if total is None else total + term
    return total


def minor_rank(m):
    """Rank by enumerating square minors with the permutation determinant;
    entries of any ring."""
    rows = m.entries
    for size in range(min(m.rows, m.cols), 0, -1):
        for rsel in combinations(range(m.rows), size):
            for csel in combinations(range(m.cols), size):
                sub = [[rows[i][j] for j in csel] for i in rsel]
                if perm_det(sub) != 0:
                    return size
    return 0


def laplace_det(rows):
    """Determinant by Laplace expansion along the rows, the minor on each
    set of columns left computed once: at most n 2^(n-1) products where
    the permutation expansion takes n!, and none for a zero entry;
    entries of any ring."""
    n = len(rows)
    minors = {(): 1}
    for i in range(n - 1, -1, -1):
        below = minors
        minors = {}
        for cols in combinations(range(n), n - i):
            total = 0
            for pos, j in enumerate(cols):
                if rows[i][j] == 0:
                    continue
                term = rows[i][j] * below[cols[:pos] + cols[pos + 1:]]
                total = total - term if pos % 2 else total + term
            minors[cols] = total
    return minors[tuple(range(n))]


def elimination_rank(rows):
    """Rank by Gauss elimination with the entries' own division; entries
    of a field, ints lifted to Fractions."""
    left = [[Fraction(e) if isinstance(e, int) else e for e in r]
            for r in rows]
    found = 0
    for c in range(len(left[0]) if left else 0):
        piv = next((i for i, r in enumerate(left) if r[c] != 0), None)
        if piv is None:
            continue
        top = left.pop(piv)
        found += 1
        left = [[x - r[c] / top[c] * y for x, y in zip(r, top)]
                for r in left]
    return found


class RingElem(GroupRingElem):
    """The integer group ring's arithmetic on ``GroupRingElem`` terms, the
    reference algebra of the Fox-calculus tests; ``RingElem.of(e)`` reads
    a package element, such as a ``fox_derivative``, into it."""

    __slots__ = ()

    @classmethod
    def of(cls, e):
        return cls(e.alphabet, e.terms)

    @classmethod
    def zero(cls, alphabet):
        return cls(alphabet, {})

    @classmethod
    def one(cls, alphabet):
        return cls(alphabet, {alphabet.identity(): 1})

    @classmethod
    def from_word(cls, w, coeff=1):
        return cls(w.alphabet, {w: coeff})

    def _check(self, other):
        if not isinstance(other, GroupRingElem):
            raise TypeError("expected a GroupRingElem, got %r" % (other,))
        if other.alphabet != self.alphabet:
            raise AlphabetMismatch(
                "elements over %r and %r" % (self.alphabet, other.alphabet))

    def __add__(self, other):
        self._check(other)
        terms = dict(self.terms)
        for w, c in other.terms.items():
            terms[w] = terms.get(w, 0) + c
        return RingElem(self.alphabet, terms)

    def __sub__(self, other):
        self._check(other)
        return self + -RingElem.of(other)

    def __neg__(self):
        return RingElem(self.alphabet, {w: -c for w, c in self.terms.items()})

    def __mul__(self, other):
        self._check(other)
        terms = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = w1 * w2
                terms[w] = terms.get(w, 0) + c1 * c2
        return RingElem(self.alphabet, terms)

    def augmentation(self):
        """Sum of the coefficients (image under all-generators-to-1)."""
        return sum(self.terms.values())


def fox_formula_reference(m, images, words=None):
    """The first row of m . D1 that differs from W - 1, or None, by the
    route of ``linalg.fox_formula_row`` before it: one running product
    [m | W - 1] . [D1; -1], or m . D1 without words, whose entries are
    tested against 0, or for floats against ``zero_tolerance() *
    max(1, |left| |right|)`` in max row norms."""
    one = units(images[0].rows, m.field)[0]
    d1 = [b - one for b in images]
    if words is None:
        left, right = m, column(d1)
    else:
        left = block_assemble([[m, column([w - one for w in words])]])
        right = column(d1 + [-one])
    prod = running_mul(left, right)
    if m.field != "complex":
        return next((i for i, row in enumerate(prod.entries) if any(row)),
                    None)
    tol = zero_tolerance() * max(1.0, left.max_row_norm()
                                 * right.max_row_norm())
    return next((i for i, row in enumerate(prod.entries)
                 if not all(abs(x) <= tol for x in row)), None)


def column(blocks):
    """The blocks stacked in one block column."""
    return block_assemble([[b] for b in blocks])


def lift_of_kind(rng, kind):
    """The lift of a seeded character whose entries are of one kind:
    integers (z = +-2), rationals (z = a + 1/a), Q(sqrt d) (z^2 - 4 not a
    square) or complex floats."""
    x, y = rng.randint(-5, 5), rng.randint(-5, 5)
    if kind == "integer":
        c = Character(x, y, rng.choice((-2, 2)))
    elif kind == "rational":
        a = Fraction(rng.randint(1, 9), rng.randint(2, 9))
        c = Character(random_fraction(rng), random_fraction(rng), a + 1 / a)
    elif kind == "quadext":
        c = Character(x, y, rng.randint(3, 9))
    else:
        c = Character(*(ComplexF(rng.uniform(-4, 4), rng.uniform(-4, 4))
                        for _ in range(3)))
    rep = lift(c, warn=False)
    entries = [e for m in rep.images for r in m.entries for e in r]
    assert {"integer": all(type(e) is int for e in entries),
            "rational": rep.field == "rational",
            "quadext": type(rep.field) is int,
            "complex": rep.field == "complex"}[kind]
    return rep


def fox_terms(w, j):
    """The terms {word: coefficient} of the Fox derivative of ``w`` by
    generator number ``j``, by the prefix-word rule: each letter x_j adds
    the prefix before it, each x_j^-1 subtracts the prefix through it."""
    alphabet = w.alphabet
    want = j + 1
    terms = {}
    prefix = alphabet.identity()
    for l in w.letters:
        if l == want:
            terms[prefix] = terms.get(prefix, 0) + 1
        elif l == -want:
            key = prefix * Word(alphabet, (-want,))
            terms[key] = terms.get(key, 0) - 1
        prefix = prefix * Word(alphabet, (l,))
    return {v: c for v, c in terms.items() if c}


def sym_power_oracle(rows, N):
    """The N-th symmetric power of the 2x2 ``rows`` by the binomial
    theorem, entries of any ring: column k is (a e1 + b e2)^(N-1-k)
    (c e1 + d e2)^k for the columns (a, b) and (c, d), and row l takes its
    coefficient of e1^(N-1-l) e2^l."""
    (a, c), (b, d) = rows
    out = []
    for l in range(N):
        row = []
        for k in range(N):
            total = 0
            for i in range(max(0, l - k), min(l, N - 1 - k) + 1):
                j = l - i
                total = total + (comb(N - 1 - k, i) * comb(k, j)
                                 * power(a, N - 1 - k - i) * power(b, i)
                                 * power(c, k - j) * power(d, j))
            row.append(total)
        out.append(row)
    return out


def power(x, n):
    """x ** n for n >= 0 by repeated products, entries of any ring."""
    out = 1
    for _ in range(n):
        out = out * x
    return out


def conjugate(x):
    """The Galois conjugate sqrt d -> -sqrt d of a Q(sqrt d) scalar, the
    complex conjugate of a complex one; a rational is its own."""
    if isinstance(x, QuadExt):
        return QuadExt(x.a, -x.b, x.d)
    return x.conjugate()


def conjugated(rep, p):
    """p . rep . p^-1, the representation in another basis."""
    pinv = p.inverse()
    return Representation(rep.alphabet, [p * m * pinv for m in rep.images],
                          sl_flag=rep.sl_flag)


def mat2_mul(a, b):
    """2x2 product on plain tuples, no package code."""
    return ((a[0][0] * b[0][0] + a[0][1] * b[1][0],
             a[0][0] * b[0][1] + a[0][1] * b[1][1]),
            (a[1][0] * b[0][0] + a[1][1] * b[1][0],
             a[1][0] * b[0][1] + a[1][1] * b[1][1]))


def random_sl2(rng, size=3, steps=4):
    """An integer SL2 matrix as a product of elementary shears."""
    m = Matrix.identity(2)
    for _ in range(steps):
        k = rng.randint(-size, size)
        if rng.random() < 0.5:
            e = Matrix([[1, k], [0, 1]])
        else:
            e = Matrix([[1, 0], [k, 1]])
        m = m * e
    return m


def random_word(rng, alphabet, max_len=8):
    """A freely reduced random word."""
    letters = []
    k = len(alphabet)
    for _ in range(rng.randint(0, max_len)):
        choices = [l for l in range(-k, k + 1) if l != 0]
        if letters:
            choices = [l for l in choices if l != -letters[-1]]
        letters.append(rng.choice(choices))
    return Word(alphabet, tuple(letters))


def random_fraction(rng, num=12, den=6):
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def two_bridge_relator(p, q):
    """Letters of the two-bridge relator a w b^-1 w^-1 of K(p/q) over the
    generators a = 1, b = 2, where w = b^e1 a^e2 b^e3 ... has i-th exponent
    e_i = (-1)^floor(i q / p) for 0 < i < p."""
    w = [(-1 if (i * q // p) % 2 else 1) * (2 if i % 2 else 1)
         for i in range(1, p)]
    return tuple([1] + w + [-2] + [-l for l in reversed(w)])


def enlarged_presentation(data):
    """The 2-complex presentation of sutured data: the ambient alphabet
    extended by a fresh surface letter s_i per image w_i, the surface
    letters after the ambient ones, and a relator w_i . s_i^-1 each.

    The letters are the first unused ones of a-z, so an ambient alphabet
    of 14 or more generators has no enlarged presentation."""
    k = len(data.alphabet)
    fresh = [c for c in "abcdefghijklmnopqrstuvwxyz"
             if c not in data.alphabet][:k]
    big = Alphabet(list(data.alphabet.names) + fresh)
    return big, [Word(big, tuple(w.letters) + (-(k + i + 1),))
                 for i, w in enumerate(data.images)]


def extend_rep(data, rep):
    """The representation of the enlarged alphabet that agrees with rep on
    the ambient generators and sends s_i to rep's image of w_i, so every
    relator of :func:`enlarged_presentation` dies; built by the public
    constructor, which checks every image and inverts by Gauss-Jordan.  A
    symmetric power extends its base by the 2 x 2 products it raises
    (:func:`base_word_product`) and raises that."""
    if isinstance(rep, SymPowerRep):
        base = rep.base
        return SymPowerRep(Representation(
            enlarged_presentation(data)[0], list(base.images)
            + [base_word_product(base, w) for w in data.images]), rep.N)
    return Representation(enlarged_presentation(data)[0],
                          list(rep.images)
                          + [rep.eval_word(w) for w in data.images])


def signed_sum(terms, zero):
    """``zero`` plus sign * m over the ``(sign, m)`` terms over ``zero``'s
    field: exact terms over the lcm of their denominators, reduced once;
    complex ones as ``a + sign * x`` in order, checked finite once."""
    if not terms:
        return zero
    den = math.lcm(*[m._denom for _, m in terms])
    parts = []
    for k, acc in enumerate(zero._parts):
        for sign, m in terms:
            f = sign * (den // m._denom)
            acc = [[a + f * x for a, x in zip(ra, r)]
                   for ra, r in zip(acc, m._parts[k])]
        parts.append(acc)
    return _finish(_new(zero.field, parts, den))


def fox_blocks(rep, w):
    """The Fox blocks of w by each generator, block by block: the signed
    sums of the images of the prefixes that ``fox_sweep`` names, each a
    product from the identity, reduced or checked finite on its own.  A
    symmetric power takes each prefix on its base, from the first letter's
    image, and raises it to Sym^N; its empty prefix is the identity."""
    terms = [[] for _ in rep.alphabet.names]
    for j, sign, _, letters in fox_sweep(w, lambda l: (l,), (), add):
        if not isinstance(rep, SymPowerRep):
            prefix = reduce(running_mul, map(rep.letter_image, letters),
                            rep.units[0])
        elif letters:
            images = list(map(rep.base.letter_image, letters))
            prefix = sym_power(reduce(running_mul, images[1:], images[0]),
                               rep.N)
        else:
            prefix = rep.units[0]
        terms[j].append((sign, prefix))
    return [signed_sum(t, rep.units[1]) for t in terms]


def fox_matrix_reference(rep, words):
    """The Fox matrix of ``words`` by the per-block route: a block row of
    :func:`fox_blocks` per word, joined by ``block_assemble``."""
    return block_assemble([fox_blocks(rep, w) for w in words])


def word_image_reference(rep, w):
    """The image of w as the product of its letters' images from the
    identity, the route of ``Representation.eval_word`` on every kind
    before exact kinds dropped the identity factor; through a symmetric
    power, Sym^N of :func:`base_word_product`."""
    if isinstance(rep, SymPowerRep):
        return sym_power(base_word_product(rep.base, w), rep.N)
    return product(map(rep.letter_image, w.letters), rep.units[0])


def base_word_product(base, w):
    """The image of the word w under the rank-2 ``base`` as the product of
    its letters' images from the first letter's, the 2 x 2 product that a
    symmetric power raises; the identity for the empty word."""
    if not w.letters:
        return base.units[0]
    image = base.letter_image
    return product(map(image, w.letters[1:]), image(w.letters[0]))


def row_blocks(m, n):
    """Block row 0 of m, cut into n x n blocks."""
    return [m.submatrix(range(n), range(j, j + n))
            for j in range(0, m.cols, n)]


def float_bits(m):
    """The entries of a complex matrix as hex pairs, so signed zeros
    count."""
    return [[(x.real.hex(), x.imag.hex()) for x in r] for r in m.entries]


def sym_power_rank_n(base, N):
    """The symmetric power of ``base`` by the rank-N route: a plain
    representation of the N x N images, whose words and Fox prefixes are
    products of N x N matrices and whose inverse images are Gauss-Jordan's,
    the route that ``SymPowerRep`` left for its base."""
    return Representation(base.alphabet,
                          [sym_power(m, N) for m in base.images],
                          sl_flag=base.sl_flag)


def sym_power_over_tuples(m, N):
    """``linalg.sym_power`` of a 2x2 matrix over Q(sqrt d) by its former
    expansion, frozen here: the binomial rule in a ring of (p, q) tuples
    with lambda operations, reduced once."""
    d = m.field
    ring = (lambda x, y: (x[0] * y[0] + d * x[1] * y[1],
                          x[0] * y[1] + x[1] * y[0]),
            lambda x, y: (x[0] + y[0], x[1] + y[1]), (1, 0), (0, 0))
    pairs = _ring_sym_rows([list(zip(*rows)) for rows in zip(*m._parts)], N,
                           ring)
    return _finish(_new(d, ([[x for x, _ in r] for r in pairs],
                            [[y for _, y in r] for r in pairs]),
                        m._denom ** (N - 1)))


def _ring_sym_rows(entries, N, ring):
    mul_, add_, _, zero = ring
    (a, c), (b, d) = entries  # column 1 is (a, b), column 2 is (c, d)
    left = _ring_binomial_powers(a, b, N - 1, ring)
    right = _ring_binomial_powers(c, d, N - 1, ring)
    cols = []
    for k in range(N):
        col = [zero] * N
        for i, ci in enumerate(left[N - 1 - k]):
            for j, cj in enumerate(right[k]):
                col[i + j] = add_(col[i + j], mul_(ci, cj))
        cols.append(col)
    return [[cols[k][l] for k in range(N)] for l in range(N)]


def _ring_binomial_powers(p, q, n, ring):
    mul_, add_, one, zero = ring
    out = [[one]]
    for _ in range(n):
        prev = out[-1]
        nxt = [zero] * (len(prev) + 1)
        for i, c in enumerate(prev):
            nxt[i] = add_(nxt[i], mul_(c, p))
            nxt[i + 1] = add_(nxt[i + 1], mul_(c, q))
        out.append(nxt)
    return out
