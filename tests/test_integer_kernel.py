"""The exact kernel on integer numerators against brute-force oracles.

Exact Fox blocks, determinants and ranks run on integer numerators: letter
images and matrix rows are scaled by the lcm of their denominators, and
elimination runs over Z or over Z[sqrt d].  The representations here are
GL, not SL, and each letter has its own denominator, so inverse images and
products bring new ones.  The oracles are term-by-term evaluation of
``helpers.fox_terms``, the permutation expansion and minor enumeration.
"""

import operator
import os
from fractions import Fraction

import pytest

import torsioncert
from torsioncert import linalg as linalg_module
from torsioncert import representation as representation_module
from torsioncert.charvar import Character, lift
from torsioncert.errors import ChainCondition, NotTwoByTwo
from torsioncert.freegroup import Alphabet, GroupRingElem, Word, fox_sweep
from torsioncert.linalg import Matrix, det, rank
from torsioncert.representation import (Representation, SymPowerRep,
                                        rep_from_text, sym_power)
from torsioncert.scalar import ComplexF, QuadExt
from torsioncert.seeds import rng_for
from torsioncert.suturedcert import (SuturedHandlebodyData, certify,
                                     oracle_dims, pants_example)
from torsioncert.twisted import (AbelianizationMap, Presentation,
                                 build_complex, twisted_fox_row)

from helpers import (RingElem, fox_matrix_reference, fox_terms,
                     lift_of_kind, mat2_mul, minor_rank, perm_det,
                     random_fraction, random_sl2, random_word, row_blocks,
                     sym_power_oracle, sym_power_over_tuples,
                     sym_power_rank_n)

XY = Alphabet("x y")
XYZ = Alphabet("x y z")

# one denominator per letter, so products and inverses mix them
LETTER_DENS = (2, 3, 5)
DISCRIMINANTS = (2, -1, 5)


def rational_entry(rng, den):
    return Fraction(rng.randint(-7, 7), den)


def quad_entry(d):
    # half the entries rational, so that rational pivots of either sign
    # occur among the irrational ones
    def draw(rng, den):
        b = rng.randint(-3, 3) if rng.random() < 0.5 else 0
        return QuadExt(Fraction(rng.randint(-4, 4), den), Fraction(b, den), d)
    return draw


def gl_rep(rng, alphabet, n, entry):
    """A GL representation whose k-th image has entries over LETTER_DENS[k]
    and a determinant other than +-1."""
    images = []
    for den in LETTER_DENS[:len(alphabet)]:
        while True:
            rows = [[entry(rng, den) for _ in range(n)] for _ in range(n)]
            value = perm_det(rows)
            if value != 0 and value != 1 and value != -1:
                break
        images.append(Matrix(rows))
    return Representation(alphabet, images)


def exact_reps(rng):
    reps = [gl_rep(rng, XY, 2, rational_entry),
            gl_rep(rng, XYZ, 3, rational_entry)]
    reps += [gl_rep(rng, XY, 2, quad_entry(d)) for d in DISCRIMINANTS]
    reps.append(gl_rep(rng, XYZ, 2, quad_entry(5)))
    reps += [SymPowerRep(reps[0], 3), SymPowerRep(reps[2], 4),
             SymPowerRep(reps[4], 3)]
    return reps


def words(rng, alphabet):
    k = len(alphabet)
    out = [alphabet.identity(), Word(alphabet, (-1,)),
           Word(alphabet, (-k, -1, -k)), Word(alphabet, (1, 2, -1, -2))]
    out += [random_word(rng, alphabet, 7) for _ in range(5)]
    return out


def test_fox_blocks_equal_term_by_term_evaluation():
    for case in range(3):
        rng = rng_for(73, case)
        for rep in exact_reps(rng):
            for w in words(rng, rep.alphabet):
                blocks = row_blocks(rep.fox_matrix([w]), rep.n)
                assert len(blocks) == len(rep.alphabet)
                for j, block in enumerate(blocks):
                    terms = fox_terms(w, j)
                    oracle = rep.eval_ring_elem(
                        GroupRingElem(rep.alphabet, terms))
                    assert block.scalar_kind == rep.scalar_kind
                    assert block == oracle, (rep, w, j)
                    if any(v.letters for v in terms):
                        assert list(map(repr, sum(block.entries, ()))) == \
                            list(map(repr, sum(oracle.entries, ())))


def storage(m):
    """A matrix's field, numerator grids and denominator, as lists."""
    return m.field, [[list(r) for r in part] for part in m._parts], m._denom


def test_one_pass_fox_matrix_equals_the_per_block_route():
    # equal Matrix values, storage included, for one to three words at once
    for case in range(3):
        rng = rng_for(73, case)
        for rep in exact_reps(rng):
            ws = words(rng, rep.alphabet)
            for lo, hi in ((0, 1), (1, 3), (3, 6), (0, len(ws))):
                m = rep.fox_matrix(ws[lo:hi])
                ref = fox_matrix_reference(rep, ws[lo:hi])
                assert m == ref, (rep, ws[lo:hi])
                assert storage(m) == storage(ref)


def row_scaled(rng, m, draw):
    """m with each row multiplied by its own nonzero scalar."""
    factors = []
    for _ in range(m.rows):
        f = 0
        while f == 0:
            f = draw(rng, rng.choice((1, 2, 3, 4, 6, 7)))
        factors.append(f)
    return Matrix([[f * e for e in row] for f, row in zip(factors, m.entries)])


def low_rank(rng, rows, cols, inner, draw):
    a = [[draw(rng, 1) for _ in range(inner)] for _ in range(rows)]
    b = [[draw(rng, 1) for _ in range(cols)] for _ in range(inner)]
    return Matrix([[sum((a[i][t] * b[t][j] for t in range(1, inner)),
                        a[i][0] * b[0][j])
                    for j in range(cols)] for i in range(rows)])


@pytest.mark.parametrize("kind", ["integer", "rational", "quadext"])
def test_det_and_rank_on_row_scaled_matrices(kind):
    rng = rng_for(73, 10 + ["integer", "rational", "quadext"].index(kind))
    draw = {"integer": lambda g, den: g.randint(-5, 5),
            "rational": rational_entry,
            "quadext": quad_entry(rng.choice(DISCRIMINANTS))}[kind]
    for n in range(1, 8):
        for trial in range(4 if n < 6 else 2):
            m = Matrix([[draw(rng, rng.choice(LETTER_DENS))
                         for _ in range(n)] for _ in range(n)])
            if trial % 2 and n > 1:
                m = low_rank(rng, n, n, rng.randint(1, n - 1), draw)
            m = row_scaled(rng, m, draw)
            assert det(m) == perm_det(m.entries)
            if n <= 6 or not trial % 2:
                assert rank(m) == minor_rank(m)
        if n < 6:
            r = low_rank(rng, n, n + 2, rng.randint(1, n), draw)
            r = row_scaled(rng, r, draw)
            assert rank(r) == minor_rank(r) == rank(r.transpose())


def test_determinant_keeps_its_kind():
    # a Q(sqrt d) determinant stays a QuadExt, also when it is rational;
    # a whole rational one is an int
    m = Matrix([[QuadExt(1, 1, 5), QuadExt(2, 0, 5)],
                [QuadExt(0, 1, 5), QuadExt(Fraction(1, 2), 0, 5)]])
    value = det(m)
    assert isinstance(value, QuadExt) and value == perm_det(m.entries)
    assert type(det(Matrix([[Fraction(1, 2), 3], [1, 8]]))) is int
    assert det(Matrix([[Fraction(1, 2), 3], [1, 1]])) == Fraction(-5, 2)


@pytest.mark.parametrize("cancelling, h1_per_n", [(("xX", "yY"), 2),
                                                  (("xX", "yxY"), 1)])
def test_certificate_with_cancelling_surface_words(cancelling, h1_per_n):
    # a surface word that reduces to 1 kills its Fox rows; the oracle still
    # runs in the representation's own kind and counts the lost rank
    rng = rng_for(73, 20)
    data = SuturedHandlebodyData(XY, [Word.from_string(XY, w)
                                      for w in cancelling])
    for rep in exact_reps(rng):
        if rep.alphabet != XY:
            continue
        cert = certify(data, rep, with_oracle=True)
        assert cert.determinant == 0 and not cert.is_product
        assert cert.oracle_h1 == h1_per_n * rep.n


def test_one_determinant_and_no_inversion_per_certificate(monkeypatch):
    # the images of symmetric powers and of the surface words follow from
    # checked ones, so only the certificate takes a determinant; the
    # oracle reads its rank off the determinant's own Bareiss echelon
    rng = rng_for(73, 40)
    bases = [rep for rep in exact_reps(rng)[:6] if rep.alphabet == XY]
    for base in bases:
        for i in range(2):
            base.image_inverse(i)
    calls = {"det": 0, "echelon": 0, "inverse": 0}
    real = {"det": linalg_module._bareiss_det,
            "echelon": linalg_module._echelon,
            "inverse": linalg_module.inverse}

    def counted(name):
        def wrapped(m):
            calls[name] += 1
            return real[name](m)
        return wrapped

    monkeypatch.setattr(linalg_module, "_bareiss_det", counted("det"))
    monkeypatch.setattr(linalg_module, "_echelon", counted("echelon"))
    monkeypatch.setattr(linalg_module, "inverse", counted("inverse"))
    data = SuturedHandlebodyData(XY, [Word.from_string(XY, "xyX"),
                                      Word.from_string(XY, "yxxY")])
    runs = 0
    for base in bases:
        for N in (2, 3, 5):
            rep = base if N == 2 else SymPowerRep(base, N)
            for with_oracle in (False, True):
                certify(data, rep, with_oracle=with_oracle)
                runs += 1
    assert calls == {"det": runs, "echelon": runs, "inverse": 0}


@pytest.mark.parametrize("kind, calls, with_identity", [
    ("integer", 8, 0), ("rational", 8, 0), ("quadext", 8, 0),
    ("complex", 10, 2)])
def test_exact_products_take_no_identity_factor(kind, calls, with_identity,
                                                monkeypatch):
    # pants with the oracle: the rank-N route of Sym^4 takes ``calls``
    # 4 x 4 products, 4 in the sweeps of x and yxyXY after their first
    # letters' images and 4 in the oracle's images of the two words, 6 over
    # C, where both word images start from the identity (``with_identity``
    # products take it).  SymPowerRep takes the sweeps' 4 products on its
    # base on every kind, none with the identity, and reads the oracle's
    # word images off the image of x and the sweep of yxyXY.  The chain
    # check's m . D1, 8 x 8 by 8 x 4, is the one product whose right
    # factor is not square, and is counted apart
    base = lift_of_kind(rng_for(73, 60), kind)
    real = linalg_module.running_mul
    for rep, want in ((sym_power_rank_n(base, 4), (4, calls, with_identity)),
                      (SymPowerRep(base, 4), (2, 4, 0))):
        ones = {2: base.units[0], 4: rep.units[0]}
        seen, checks = [], []

        def counted(a, b):
            if b.rows != b.cols:
                checks.append((a.rows, a.cols, b.rows, b.cols))
            else:
                seen.append((a.rows, ones[a.rows] in (a, b)))
            return real(a, b)

        monkeypatch.setattr(linalg_module, "running_mul", counted)
        certify(pants_example(), rep, with_oracle=True)
        assert ({n for n, _ in seen}, len(seen), sum(i for _, i in seen)) \
            == ({want[0]}, *want[1:])
        assert checks == [(8, 8, 8, 4)]


@pytest.mark.parametrize("kind", ["integer", "rational", "quadext",
                                  "complex"])
@pytest.mark.parametrize("N, with_oracle, powers", [(6, False, 4),
                                                    (3, True, 8)])
def test_exact_sym_power_words_run_on_the_base(kind, N, with_oracle, powers,
                                               monkeypatch):
    # pants: the Fox sweeps take 4 2 x 2 products of the base's images and
    # read 4 prefixes through Sym^N; the oracle reads the images of the two
    # surface words and of the two generators, ``powers`` Sym^N matrices
    # in all.  Each one raises the base's image of a word, and Sym^N runs
    # once per word: the image of y is the first prefix of yxyXY's sweep,
    # yxyXY its last, and x the image of a one-letter word, 5 of 8.  The
    # oracle takes one further product, its chain check's 2N x 2N by
    # 2N x N m . D1, and no N x N product is taken
    data = pants_example()
    read = [w.letters[:k] for w in data.images
            for _, _, k, _ in fox_sweep(w, lambda l: (l,), (),
                                        operator.add) if k]
    if with_oracle:
        read += [w.letters for w in data.images] + [(1,), (2,)]
    assert len(read) == powers
    rep = SymPowerRep(lift_of_kind(rng_for(73, 60), kind), N)
    products, raised = [], []
    real_mul = linalg_module.running_mul
    real_sym = representation_module.sym_power

    def counted_mul(a, b):
        products.append((a.rows, b.rows, b.cols))
        return real_mul(a, b)

    def counted_sym(m, n):
        raised.append((m.rows, n))
        return real_sym(m, n)

    monkeypatch.setattr(linalg_module, "running_mul", counted_mul)
    monkeypatch.setattr(representation_module, "sym_power", counted_sym)
    certify(data, rep, with_oracle=with_oracle)
    assert raised == [(2, N)] * len(set(read))
    assert products == [(2, 2, 2)] * 4 + [(2 * N, 2 * N, N)] * with_oracle


@pytest.mark.parametrize("kind", ["integer", "rational", "quadext",
                                  "complex"])
def test_twisted_fox_rows_take_no_identity_factor(kind, monkeypatch):
    # d(yxyXY)/dx and d(yxyXY)/dy through t^phi: the representation's Fox
    # sweep yields the identity as a term, never as a factor, and its
    # prefix y is the image itself, so the 4 products y.x, yx.y, yxy.X and yxyX.Y take no
    # identity as their left factor, on the base, on the rank-N route of
    # Sym^3 and, on the base, for SymPowerRep
    base = lift_of_kind(rng_for(73, 62), kind)
    w, twist = XY.word("yxyXY"), AbelianizationMap((1, -1))
    real = linalg_module.running_mul
    for rep, n in ((base, 2), (sym_power_rank_n(base, 3), 3),
                   (SymPowerRep(base, 3), 2)):
        ones = {2: base.units[0], 3: rep.units[0]}
        seen = []

        def counted(a, b):
            seen.append((a.rows, b.rows, a == ones[a.rows]))
            return real(a, b)

        monkeypatch.setattr(linalg_module, "running_mul", counted)
        twisted_fox_row(w, rep, twist)
        assert seen == [(n, n, False)] * 4


@pytest.mark.parametrize("kind", ["integer", "rational", "quadext",
                                  "complex"])
@pytest.mark.parametrize("N", [3, 4, 6])
def test_sym_power_twisted_rows_run_on_the_base(kind, N, monkeypatch):
    # Sym^N torsion: twisted_fox_row takes the 4 products of yxyXY's sweep
    # on the rank-2 base and raises its 4 terms' prefixes y, yx, yxyX and
    # yxyXY to Sym^N once each; the prefix yxy is no term's and is not
    # raised.  fox_matrix sweeps the base again and eval_word reads the
    # last prefix; both read the same raised matrices, and no N x N
    # product is taken.  Over exact kinds the rows are those of
    # the rank-N route, whose products are N x N
    base = lift_of_kind(rng_for(73, 63), kind)
    w, twist = XY.word("yxyXY"), AbelianizationMap((1, -1))
    rep = SymPowerRep(base, N)
    products, raised = [], []
    real_mul = linalg_module.running_mul
    real_sym = representation_module.sym_power

    def counted_mul(a, b):
        products.append((a.rows, b.rows, b.cols))
        return real_mul(a, b)

    def counted_sym(m, n):
        raised.append((m.rows, n))
        return real_sym(m, n)

    monkeypatch.setattr(linalg_module, "running_mul", counted_mul)
    monkeypatch.setattr(representation_module, "sym_power", counted_sym)
    row = twisted_fox_row(w, rep, twist)
    assert products == [(2, 2, 2)] * 4
    assert raised == [(2, N)] * 4
    rep.fox_matrix([w])
    rep.eval_word(w)
    assert products == [(2, 2, 2)] * 8
    assert raised == [(2, N)] * 4
    monkeypatch.undo()
    if kind != "complex":
        assert row == twisted_fox_row(w, sym_power_rank_n(base, N), twist)


@pytest.mark.parametrize("kind", ["integer", "rational", "quadext",
                                  "complex"])
def test_sym_power_rep_checks_its_arguments_at_construction(kind):
    # the images of an exact symmetric power are built on first use, its
    # degree and its base's rank are checked before that
    base = lift_of_kind(rng_for(73, 61), kind)
    for N in (1, 0, -3, 3.0, "3", None):
        with pytest.raises(ValueError, match="N must be an integer >= 2"):
            SymPowerRep(base, N)
    rank3 = Representation(XY, [Matrix.identity(3), Matrix.identity(3)])
    with pytest.raises(NotTwoByTwo):
        SymPowerRep(rank3, 3)


def integer_entry(rng, den):
    return rng.randint(-5, 5)


def exact_bases(rng):
    """Rank-2 GL bases over Z, over Q with a denominator per letter, and
    over Q(sqrt d) for each d of DISCRIMINANTS."""
    draws = [integer_entry, rational_entry]
    draws += [quad_entry(d) for d in DISCRIMINANTS]
    return [gl_rep(rng, XY, 2, draw) for draw in draws]


def entry_reprs(rows):
    return [[repr(e) for e in row] for row in rows]


def test_exact_sym_power_equals_the_binomial_theorem():
    rng = rng_for(73, 50)
    for base in exact_bases(rng):
        for i, a in enumerate(base.images):
            ainv = base.image_inverse(i)
            for N in range(2, 9):
                sym = sym_power(a, N)
                assert sym.scalar_kind == base.scalar_kind
                assert entry_reprs(sym.entries) == \
                    entry_reprs(Matrix(sym_power_oracle(a.entries, N)).entries)
                assert sym * sym_power(ainv, N) == Matrix.identity(N)


def test_exact_sym_power_rep_seeds_its_numerators(monkeypatch):
    # images and inverse images come from the base's numerators, and the
    # Fox blocks run on them without building a Fraction or QuadExt entry
    rng = rng_for(73, 51)
    made = []
    real = linalg_module._materialize
    monkeypatch.setattr(linalg_module, "_materialize",
                        lambda m: made.append(m) or real(m))
    for base in exact_bases(rng):
        for N in (3, 6):
            rep = SymPowerRep(base, N)
            for i in range(2):
                assert rep.images[i] == Matrix(
                    sym_power_oracle(base.images[i].entries, N))
                inv = rep.image_inverse(i)
                assert inv.scalar_kind == rep.scalar_kind
                assert inv == Matrix(
                    sym_power_oracle(base.image_inverse(i).entries, N))
                assert rep.images[i] * inv == Matrix.identity(N)
            del made[:]
            rep.fox_matrix([random_word(rng, XY, 8)])
            assert made == []


SCHOTTKY = os.path.join(os.path.dirname(torsioncert.__file__), "data",
                        "schottky.rep")


def sym_bases(rng):
    """Rank-2 bases: integer, rational and Q(sqrt d) lifts, two lifts over
    Q(sqrt d) with d < 0, schottky.rep, and the GL bases of
    :func:`exact_bases`, without sl_flag and of determinant other than
    +-1."""
    bases = [lift_of_kind(rng, kind)
             for kind in ("integer", "rational", "quadext")]
    bases += [lift(Character(random_fraction(rng), random_fraction(rng), z),
                   warn=False)
              for z in (rng.choice((-1, 0, 1)), Fraction(rng.randint(-7, 7), 4))]
    with open(SCHOTTKY, encoding="utf-8") as fh:
        bases.append(rep_from_text(fh.read()))
    return bases + exact_bases(rng)


def reduced_word(rng, length):
    letters = []
    while len(letters) < length:
        l = rng.choice((1, 2, -1, -2))
        if not letters or l != -letters[-1]:
            letters.append(l)
    return Word(XY, tuple(letters))


def test_exact_sym_power_rep_equals_the_rank_n_route():
    # 297 seeded inputs, 11 bases at N = 2..10 in each of 3 cases, with
    # words of 1 to 6 letters: the base route and the route of N x N
    # products and Gauss-Jordan inverses give equal matrices, stored alike.
    # The images and inverse images are read last, after the routes that
    # build them on first use
    inputs = 0
    for case in range(3):
        rng = rng_for(73, 70 + case)
        for base in sym_bases(rng):
            assert base.n == 2 and base.field != "complex"
            for N in range(2, 11):
                rep, ref = SymPowerRep(base, N), sym_power_rank_n(base, N)
                ws = [reduced_word(rng, rng.randint(1, 6)) for _ in range(3)]
                pairs = [(rep.fox_matrix(ws), ref.fox_matrix(ws)),
                         (rep.fox_matrix(ws[:1]), ref.fox_matrix(ws[:1]))]
                pairs += [(rep.eval_word(w), ref.eval_word(w)) for w in ws]
                pairs += [(rep.image_inverse(i), ref.image_inverse(i))
                          for i in (1, 0)]
                pairs += list(zip(rep.images, ref.images))
                for got, want in pairs:
                    assert got == want, (base, N, ws)
                    assert storage(got) == storage(want)
                assert rep.scalar_kind == ref.scalar_kind
                inputs += 1
    assert inputs == 297


def _abs_sym(base, letters, N):
    """Sym^N of |A_1| ... |A_k|, the entrywise moduli of the base's images
    of ``letters`` multiplied in floats: a bound on the entries of every
    product of the Sym^N images along the word."""
    m = [[1.0, 0.0], [0.0, 1.0]]
    for l in letters:
        a = [[abs(x) for x in r] for r in base.letter_image(l).entries]
        m = mat2_mul(m, a)
    return sym_power_oracle(m, N)


def test_complex_sym_power_rep_is_the_rank_n_route_within_rounding():
    # 400 seeded complex lifts at N = 2..8, a word of up to 8 letters each.
    # With the same N x N inverse images, a word image and the Fox blocks
    # of the base route and of the rank-N route are within 4 L N u B of
    # each other entry by entry, u = 2^-53, L the word's length and B the
    # sum over the terms of _abs_sym: each route is within about L N u B
    # of the exact product (Higham, Accuracy and Stability, 2nd ed., 3.5).
    # Gauss-Jordan on the N x N image gives the inverse image within
    # 4 N u |A| |A^-1|^2 in max row norms
    u = 2.0 ** -53
    compared = 0
    for case in range(400):
        rng = rng_for(97, case)
        base = lift(Character(*(ComplexF(rng.uniform(-4, 4),
                                         rng.uniform(-4, 4))
                                for _ in range(3))), warn=False)
        N = rng.randint(2, 8)
        rep, ref = SymPowerRep(base, N), sym_power_rank_n(base, N)
        for i in range(2):
            closed, gauss = rep.image_inverse(i), ref.image_inverse(i)
            assert (closed - gauss).max_row_norm() <= 4 * N * u \
                * rep.images[i].max_row_norm() * closed.max_row_norm() ** 2
            ref._inv[i] = closed
        w = random_word(rng, XY, 8)
        if not w.letters:
            continue
        scale = 4 * len(w.letters) * N * u
        bound = [[0.0] * 2 * N for _ in range(N)]
        for j, _, k, _ in fox_sweep(w, lambda l: (l,), (), operator.add):
            for row, b in zip(bound, _abs_sym(base, w.letters[:k], N)):
                row[j * N:j * N + N] = map(operator.add, row[j * N:j * N + N],
                                           b)
        for got, want, b in (
                (rep.eval_word(w), ref.eval_word(w),
                 _abs_sym(base, w.letters, N)),
                (rep.fox_matrix([w]), ref.fox_matrix([w]), bound)):
            for r, (gr, wr, br) in enumerate(zip(got.entries, want.entries,
                                                 b)):
                assert all(abs(g - x) <= scale * e
                           for g, x, e in zip(gr, wr, br)), (case, N, w, r)
        compared += 1
    assert compared > 350


def test_sym_power_over_q_sqrt_d_equals_the_tuple_expansion():
    # 308 seeded 2 x 2 matrices over Q(sqrt d), N = 2..12: the int-pair
    # loop and the former expansion in a ring of tuples, stored alike
    rng = rng_for(73, 57)
    inputs = 0
    for d in (2, 3, 5, 341, -1, -3, -7):
        draw = quad_entry(d)
        for _ in range(4):
            m = Matrix([[draw(rng, rng.choice(LETTER_DENS)) for _ in range(2)]
                        for _ in range(2)])
            for N in range(2, 13):
                got, want = sym_power(m, N), sym_power_over_tuples(m, N)
                assert got.scalar_kind == "quadext"
                assert storage(got) == storage(want), (m, N)
                inputs += 1
    assert inputs == 308


def unit_reps(rng):
    integer = Representation(XY, [random_sl2(rng), random_sl2(rng)])
    sqrt21 = lift(Character(4, 4, 5), warn=False)
    complexf = lift(Character(ComplexF(2.5, 0.5), ComplexF(-1.0),
                              ComplexF(0.75, 1.0)), warn=False)
    return [integer, sqrt21, SymPowerRep(sqrt21, 3), complexf]


def test_the_empty_word_has_the_representations_kind():
    rng = rng_for(73, 52)
    kinds = []
    for rep in unit_reps(rng):
        one = rep.eval_word(XY.identity())
        unit = rep.eval_ring_elem(RingElem.one(XY))
        for m in (one, unit):
            assert m.scalar_kind == rep.scalar_kind
            assert m == Matrix.identity(rep.n)
        kinds.append(rep.scalar_kind)
    assert kinds == ["rational", "quadext", "quadext", "complex"]


def test_the_zero_element_has_the_representations_kind():
    rng = rng_for(73, 56)
    for rep in unit_reps(rng):
        zero = rep.eval_ring_elem(RingElem.zero(XY))
        assert zero.scalar_kind == rep.scalar_kind
        assert zero == Matrix([[0] * rep.n for _ in range(rep.n)])
        assert all(type(e) is type(rep.units[1][0, 0])
                   for row in zero.entries for e in row)


def commuting_rep(rng, draw):
    """x -> A, y -> A^2 for a GL image A other than the identity."""
    a = gl_rep(rng, XY, 2, draw).images[0]
    return Representation(XY, [a, a * a])


@pytest.mark.parametrize("kind", ["integer", "rational"]
                         + ["sqrt%d" % d for d in DISCRIMINANTS])
def test_exact_chain_condition_names_the_relator(kind):
    # x -> A, y -> A^2 kills the commutator, x^2 y^-1 and y x^-2, but not
    # x^3 y^-1
    rng = rng_for(73, 53)
    draw = {"integer": integer_entry, "rational": rational_entry,
            **{"sqrt%d" % d: quad_entry(d) for d in DISCRIMINANTS}}[kind]
    rep = commuting_rep(rng, draw)
    killed = [XY.word(w) for w in ("xyXY", "xxY", "yXX")]
    for bad in range(4):
        pres = Presentation(XY, killed[:bad] + [XY.word("xxxY")]
                            + killed[bad:])
        with pytest.raises(ChainCondition, match="relator %d$" % bad):
            build_complex(pres, rep)
    d2, d1 = build_complex(Presentation(XY, killed), rep)
    assert d2.scalar_kind == d1.scalar_kind == rep.scalar_kind
    if kind.startswith("sqrt"):
        # x -> y -> ((1, sqrt d), (0, 1)) misses the relator x only in the
        # sqrt d part of d2 . d1
        d = int(kind[4:])
        shear = Matrix([[QuadExt(1, 0, d), QuadExt(0, 1, d)],
                        [QuadExt(0, 0, d), QuadExt(1, 0, d)]])
        pres = Presentation(XY, [XY.word("xY"), XY.word("x")])
        with pytest.raises(ChainCondition, match="relator 1$"):
            build_complex(pres, Representation(XY, [shear, shear]))


def test_an_oracle_verdict_builds_no_second_representation(monkeypatch):
    # the oracle reads the surface words' images off rep itself: no
    # representation of an enlarged alphabet is set up
    stored = []
    real = Representation._store
    monkeypatch.setattr(Representation, "_store",
                        lambda self, *args: stored.append(self)
                        or real(self, *args))
    rng = rng_for(73, 55)
    reps = exact_reps(rng) + unit_reps(rng)
    for rep in reps:
        alphabet = rep.alphabet
        data = SuturedHandlebodyData(alphabet, [random_word(rng, alphabet, 5)
                                                for _ in alphabet.names])
        del stored[:]
        certify(data, rep, with_oracle=True)
        oracle_dims(data, rep)
        assert stored == []


def test_a_float_oracle_verdict_checks_only_the_surface_images(
        monkeypatch):
    # the ambient images passed the determinant check when the lift was
    # built, and the surface images are products of them, which the
    # oracle takes as they are: only the certificate takes a determinant
    calls = []
    real = linalg_module._float_det
    monkeypatch.setattr(linalg_module, "_float_det",
                        lambda m: calls.append(m.rows) or real(m))
    rep = lift(Character(ComplexF(1.5, 0.5), ComplexF(2.0),
                         ComplexF(3.25, -1.0)), warn=False)
    assert calls == [2, 2]
    del calls[:]
    cert = certify(pants_example(), rep, with_oracle=True)
    assert calls == [4]
    assert cert.oracle_h1 is not None


def test_certificate_oracle_reads_the_relative_h1_of_oracle_dims():
    # 306 seeded exact representations, rank-3 alphabets among them; a
    # repeated surface word makes a share of them non-products
    seen = {True: 0, False: 0}
    for case in range(34):
        rng = rng_for(73, 100 + case)
        for rep in exact_reps(rng):
            alphabet = rep.alphabet
            images = [random_word(rng, alphabet, 6) for _ in alphabet.names]
            if rng.random() < 0.3:
                images[-1] = images[0]
            data = SuturedHandlebodyData(alphabet, images)
            cert = certify(data, rep, with_oracle=True)
            dims, rel_h1, chi = oracle_dims(data, rep)
            assert cert.oracle_h1 == rel_h1
            assert dims[0] - dims[1] + dims[2] == chi * rep.n
            seen[cert.is_product] += 1
    assert sum(seen.values()) == 306 and min(seen.values()) > 30
