"""Seeded inputs for the three benchmark workloads.

Each workload is a list of cases.  A case's ``run`` is the timed verdict:
one call into the package's public entry points on inputs built during
set-up.  After timing, ``answer`` reduces each returned result to a
comparable value and ``known`` gives the set of acceptable values by a
route the verdict did not take (see ``known.py``).  ``planted`` is the
answer fixed by construction where one exists (points planted on or off a
locus); it must agree with ``known``, which keeps the checker honest.

The composition of every workload (classes, N, scalar kinds, counts) is
fixed; the seed draws only the values, so runs with different seeds load
the same layers in the same proportions.

Why these workloads:

* ``certify_exact`` runs exact scalars, Bareiss and exact rank, and no
  float code: integer, Fraction and Q(sqrt d) lifts, N = 2..6, the homology
  oracle on the N <= 3 share.
* ``locus_float`` runs ComplexF, the float determinant and numpy root
  finding, and no Bareiss: one-sample ``locus_verify`` calls and float
  certificates whose exact twins decide the known answer.
* ``torsion_symbolic`` runs Laurent determinants, MultiPoly gcd and
  squarefree parts, the parabolic grid Newton solver and twisted complexes,
  and hardly any linalg determinant.  Sutured images for ``eliminate_L2`` are
  capped at ``ELIM_MAX_LETTERS`` letters: longer words fall off a cliff in
  ``squarefree_part`` (see NOTES.md).
"""

import math
import os
import random
from fractions import Fraction

import known

WORKLOADS = ("certify_exact", "locus_float", "torsion_symbolic")

# images of more letters than this make eliminate_L2 cliff-prone
ELIM_MAX_LETTERS = 3


class Case:
    """One timed verdict with its known-answer routes."""

    __slots__ = ("cls", "label", "run", "answer", "known", "planted",
                 "float_twin")

    def __init__(self, cls, label, run, answer, known, planted=None,
                 float_twin=False):
        self.cls = cls
        self.label = label
        self.run = run
        self.answer = answer
        self.known = known
        self.planted = planted
        self.float_twin = float_twin


def _rng(workload, seed):
    return random.Random("%s:%d" % (workload, seed))


def _is_square_rational(q):
    return _is_square(q.numerator) and _is_square(q.denominator)


def _is_square(n):
    return n >= 0 and math.isqrt(n) ** 2 == n


# value pools: x and y traces, rational u (u != +-1, so the lift through
# z = u + 1/u stays rational), and z whose lift needs Q(sqrt d)
RATIONALS = sorted({Fraction(p, q) for p in range(-7, 8) for q in range(1, 5)})
RATIONAL_U = [u for u in RATIONALS if u and abs(u) != 1]
QUADEXT_Z = sorted(z for z in {Fraction(p, q) for p in range(-9, 10)
                               for q in (1, 2)}
                   if z * z != 4 and not _is_square_rational(z * z - 4))


def _stratified(rng, pool, n):
    """n draws from a sorted pool, one from each of n equal slices, in
    random order: every seed covers the pool's range alike."""
    k = len(pool)
    out = [pool[int((i + rng.random()) * k / n)] for i in range(n)]
    rng.shuffle(out)
    return out


def _chars(rng, kind, n):
    """n characters (x, y, z) whose exact lifts have the given entry kind,
    as a Latin hypercube over the pools."""
    if kind == "integer":
        ints = list(range(-6, 7))
        zs = [2 if i % 2 else -2 for i in range(n)]
        return list(zip(_stratified(rng, ints, n), _stratified(rng, ints, n),
                        zs))
    if kind == "fraction":
        zs = [u + 1 / u for u in _stratified(rng, RATIONAL_U, n)]
    else:
        zs = _stratified(rng, QUADEXT_Z, n)
    return list(zip(_stratified(rng, RATIONALS, n),
                    _stratified(rng, RATIONALS, n), zs))


def _mixed_chars(rng, n):
    """n characters cycling through the integer, Fraction and Q(sqrt d)
    lift kinds."""
    kinds = [iter(_chars(rng, k, -(-n // 3)))
             for k in ("integer", "fraction", "quadext")]
    return [next(kinds[i % 3]) for i in range(n)]


def _reduced_word(rng, length):
    letters = []
    while len(letters) < length:
        l = rng.choice((1, -1, 2, -2))
        if not letters or letters[-1] != -l:
            letters.append(l)
    return tuple(letters)


def _commute(a, b):
    # two reduced words commute exactly when ab and ba reduce alike
    def reduce(ls):
        out = []
        for l in ls:
            if out and out[-1] == -l:
                out.pop()
            else:
                out.append(l)
        return out
    return reduce(a + b) == reduce(b + a)


def _random_images(rng, la, lb):
    """Two reduced, non-commuting words in x, y of the given lengths: a
    free rank-2 image, so the certificate determinant is not identically
    zero."""
    while True:
        a, b = _reduced_word(rng, la), _reduced_word(rng, lb)
        if not _commute(a, b):
            return a, b


def _lengths(i, cap):
    # the i-th pair of word lengths, cycling through all pairs up to cap
    return 1 + i % cap, 1 + (i // cap) % cap


def _exact_base(x, y, u):
    """The 2x2 lift matrices of (x, y, u + 1/u) with u rational."""
    return [[[0, 1], [-1, x]], [[y, -u], [1 / u, 0]]]


def _data_path(src, name):
    return os.path.join(src, "torsioncert", "data", name)


def _read(path):
    with open(path) as fh:
        return fh.read()


def build(workload, seed, src):
    """The cases of one workload for one seed; ``src`` holds the package."""
    if workload not in WORKLOADS:
        raise ValueError("unknown workload %r" % workload)
    return globals()["_build_" + workload](_rng(workload, seed), src)


def _build_certify_exact(rng, src):
    from torsioncert import charvar as cv
    from torsioncert import suturedcert as sc
    from torsioncert.freegroup import Alphabet, Word
    from torsioncert.representation import SymPowerRep

    pants = sc.sutured_from_text(_read(_data_path(src, "pants.sut")))
    loci = {2: cv.L2_POLY.terms, 3: cv.L3_POLY.terms, 4: cv.L4_POLY.terms}
    cases = []

    def add(cls, data, char, N, oracle, planted=None):
        base = cv.lift(cv.Character(*char), warn=False)
        words = [w.letters for w in data.images]
        base_entries = [[list(r) for r in m.entries] for m in base.images]

        def run():
            rep = base if N == 2 else SymPowerRep(base, N)
            return sc.certify(data, rep, with_oracle=oracle)

        name = data.name or "/".join(map(str, data.images))
        cases.append(Case(
            cls, "%s %s N=%d%s" % (name, char, N, " oracle" if oracle else ""),
            run, lambda cert: cert.is_product,
            lambda: {known.certificate_nonzero(words, base_entries, N)},
            planted))

    def pants_planted(char, N):
        if N in loci:
            value = known.eval_poly(loci[N], tuple(map(Fraction, char))
                                    + (Fraction(0),))
            return {value != 0}
        return None

    # N = 2 with the oracle: points planted on the plane x + y - z = 3 ...
    for x, _, z in _mixed_chars(rng, 10):
        add("pants_oracle", pants, (x, 3 + z - x, z), 2, True, {False})
    # ... and off it
    for N, count, cls in ((2, 6, "pants_oracle"), (3, 12, "pants_oracle"),
                          (4, 12, "pants_sym"), (5, 12, "pants_sym"),
                          (6, 12, "pants_sym")):
        for char in _mixed_chars(rng, count):
            add(cls, pants, char, N, N <= 3, pants_planted(char, N))
    # (2, 2, 1) lies on every L_N
    for N in range(2, 7):
        add("pants_oracle" if N <= 3 else "pants_sym", pants, (2, 2, 1), N,
            N <= 3, {False})
    xy = Alphabet("x y")
    for i, char in enumerate(_mixed_chars(rng, 52)):
        a, b = _random_images(rng, *_lengths(i, 4))
        data = sc.SuturedHandlebodyData(xy, [Word(xy, a), Word(xy, b)])
        add("random_oracle", data, char, 2 if i < 40 else 3, True)
    # the reproducer of the Bareiss assertion on rational input, so that every
    # run counts that defect; random inputs hit it about once in 1000
    data = sc.SuturedHandlebodyData(xy, [Word.from_string(xy, "YX"),
                                         Word.from_string(xy, "yx")])
    add("random_oracle", data, (-7, 2, Fraction(17, 4)), 2, True)
    return cases


def _build_locus_float(rng, src):
    from torsioncert import charvar as cv
    from torsioncert import suturedcert as sc
    from torsioncert.representation import SymPowerRep
    from torsioncert.scalar import ComplexF

    pants = sc.sutured_from_text(_read(_data_path(src, "pants.sut")))
    words = [w.letters for w in pants.images]
    cases = []
    for N in (3, 4):
        for _ in range(10):
            s = rng.getrandbits(32)
            cases.append(Case(
                "locus_verify", "locus_verify N=%d seed=%d" % (N, s),
                lambda N=N, s=s: cv.locus_verify(N, samples=1, seed=s),
                lambda report: report.ok(), lambda: {True}, {True}))
    # the share of wrong float verdicts depends on the size of the
    # character, so every N covers the value pools alike
    for N, count in ((3, 30), (4, 100), (6, 16), (8, 10)):
        draws = zip(_stratified(rng, RATIONALS, count),
                    _stratified(rng, RATIONALS, count),
                    _stratified(rng, RATIONAL_U, count))
        for x, y, u0 in draws:
            z = u0 + 1 / u0
            u = (z + abs(u0 - 1 / u0)) / 2  # the root the lift picks
            exact = _exact_base(x, y, u)
            base = cv.lift(cv.Character(ComplexF(float(x)),
                                        ComplexF(float(y)),
                                        ComplexF(float(z))), warn=False)
            cases.append(Case(
                "float_cert", "float (%s, %s, %s) N=%d" % (x, y, z, N),
                lambda base=base, N=N: sc.certify(pants, SymPowerRep(base, N)),
                lambda cert: cert.is_product,
                lambda exact=exact, N=N: {
                    known.certificate_nonzero(words, exact, N)},
                float_twin=True))
    return cases


def two_bridge_knots(rng, per_p):
    """``per_p`` two-bridge knots K(p/q) for every odd p from 3 to 17, with
    odd q drawn at random: relators of at most 34 letters, and the same
    spread of relator lengths for every seed."""
    out = []
    for p in range(3, 18, 2):
        qs = [q for q in range(1, p, 2) if math.gcd(p, q) == 1]
        out.extend((p, rng.choice(qs)) for _ in range(per_p))
    return out


# the cost of eliminate_L2 varies a hundredfold between images of one length,
# so it runs on fixed images, drawn once, and the seed picks the points its
# polynomial is checked at
_elim_rng = random.Random("eliminate_L2 images")
ELIM_IMAGES = [_random_images(_elim_rng, *_lengths(i, ELIM_MAX_LETTERS))
               for i in range(31)]

# the cost of the parabolic genus check varies widely between knots of one
# p, so it runs on fixed knots (two per p) and the seed picks the parabolic
# representation: which root of the defect polynomial
PARABOLIC_KNOTS = [(p, q) for p in range(5, 18, 2)
                   for q in [q for q in range(1, p, 2)
                             if math.gcd(p, q) == 1][:2]]


def _build_torsion_symbolic(rng, src):
    from torsioncert import charvar as cv
    from torsioncert import representation as rp
    from torsioncert import suturedcert as sc
    from torsioncert import twisted as tw
    from torsioncert.freegroup import Alphabet, Word

    ab = Alphabet("a b")

    def two_bridge(p, q):
        w = known.two_bridge_word(p, q)
        relator = [1] + w + [-2] + [-l for l in reversed(w)]
        alex = known.two_bridge_alexander(p, q)
        genus = (max(alex) - min(alex)) // 2
        return tw.Presentation(ab, [Word(ab, relator)],
                               name="K(%d/%d)" % (p, q), genus_hint=genus)

    bundled = [(tw.presentation_from_text(_read(_data_path(src, name))), pq)
               for name, pq in (("trefoil.pres", (3, 1)),
                                ("fig8.pres", (5, 3)))]
    knots = bundled + [(two_bridge(p, q), (p, q))
                       for p, q in two_bridge_knots(rng, 3)]
    cases = []
    t_minus_1 = {1: 1, 0: -1}
    for pres, (p, q) in knots:
        alex = known.two_bridge_alexander(p, q)
        for n in (1, 2):
            def answer(result, n=n, alex=alex):
                lhs = known.laurent_mul(result.numerator.coeffs,
                                        known.laurent_pow(t_minus_1, n))
                rhs = known.laurent_mul(known.laurent_pow(alex, n),
                                        result.denominator.coeffs)
                return known.unit_multiple(lhs, rhs)
            cases.append(Case(
                "wada%d" % n, "wada rank %d %s" % (n, pres.name),
                lambda pres=pres, n=n: tw.wada_torsion(
                    pres, tw.trivial_rep(pres.alphabet, n)),
                answer, lambda: {True}, {True}))
    # fibered (monic Alexander polynomial, since two-bridge knots are
    # alternating) forces degree 4g - 2; otherwise the degree can only fall
    # short of it
    for pres, (p, q) in bundled + [(two_bridge(p, q), (p, q))
                                   for p, q in PARABOLIC_KNOTS]:
        alex = known.two_bridge_alexander(p, q)
        monic = abs(alex[max(alex)]) == 1
        expect = {"equality"} if monic else {"equality", "below"}
        which = rng.randrange(16)
        cases.append(Case(
            "parabolic", "parabolic genus check %s root %d"
            % (pres.name, which),
            lambda pres=pres, which=which: tw.conjecture_check(
                pres, rp.solve_parabolic(pres, which=which)),
            lambda verdict: verdict.verdict, lambda e=expect: e, expect))

    pants = sc.sutured_from_text(_read(_data_path(src, "pants.sut")))
    plane = cv.L2_POLY
    cases.append(Case(
        "eliminate", "eliminate_L2 pants", lambda: cv.eliminate_L2(pants),
        lambda poly: poly == plane or poly == -plane, lambda: {True}, {True}))
    xy = Alphabet("x y")
    rationals = iter(_stratified(rng, RATIONALS, 2 * 3 * 31))
    us = iter(_stratified(rng, RATIONAL_U, 3 * 31))
    for a, b in ELIM_IMAGES:
        data = sc.SuturedHandlebodyData(xy, [Word(xy, a), Word(xy, b)])
        points = [(next(rationals), next(rationals), next(us))
                  for _ in range(3)]

        def answer(poly, points=points):
            return tuple(known.eval_poly(poly.terms, (x, y, u + 1 / u, 0)) == 0
                         for x, y, u in points)

        def expect(words=(a, b), points=points):
            # the resultant in u is the product of the certificate
            # determinants of the two lifts, through u and through 1/u
            return {tuple(not (known.certificate_nonzero(
                                   words, _exact_base(x, y, u), 2)
                               and known.certificate_nonzero(
                                   words, _exact_base(x, y, 1 / u), 2))
                          for x, y, u in points)}

        cases.append(Case(
            "eliminate", "eliminate_L2 %s" % "/".join(map(str, data.images)),
            lambda data=data: cv.eliminate_L2(data), answer, expect))
    return cases
