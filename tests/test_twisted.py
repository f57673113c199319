"""Twisted chain complexes, Wada torsion, and the genus comparison."""

import math
from fractions import Fraction

import pytest

from torsioncert.errors import (
    ChainCondition,
    LongitudeTraceViolation,
    MissingGenusHint,
    NotDeficiencyOne,
    NotInfiniteCyclic,
    ParseError,
)
from torsioncert.freegroup import Alphabet, Word
from torsioncert.linalg import Matrix, grid_mul
from torsioncert.polynomial import (
    LaurentPoly,
    laurent_unit_match,
    parse_laurent,
    poly_matrix_det,
)
from torsioncert.representation import Representation, solve_parabolic
from torsioncert.seeds import rng_for
from torsioncert.twisted import (
    Presentation,
    abelianization,
    build_complex,
    check_alexander,
    conjecture_check,
    homology_dims,
    presentation_from_text,
    presentation_to_text,
    trivial_rep,
    twisted_boundaries,
    twisted_eval_word_minus_one,
    twisted_fox_row,
    wada_torsion,
)

from helpers import minor_rank, random_sl2, random_word

AB = Alphabet("a b")


def trefoil():
    return Presentation(
        AB, [Word.from_string(AB, "abaBAB")], name="trefoil",
        meridian=Word.from_string(AB, "a"),
        longitude=Word.from_string(AB, "abababAAAAAA"),
        genus_hint=1,
        alexander_check=parse_laurent("1 - t + t^2"))


def fig8(genus=1, longitude=True):
    return Presentation(
        AB, [Word.from_string(AB, "aBAbaBabAB")], name="fig8",
        meridian=Word.from_string(AB, "a"),
        longitude=Word.from_string(AB, "bABaaBAb") if longitude else None,
        genus_hint=genus)


def seifert_torsion(v_rows):
    """det(V - t V^T), the Alexander polynomial from a Seifert matrix."""
    v = v_rows
    n = len(v)
    rows = [[LaurentPoly({0: Fraction(v[i][j]), 1: -Fraction(v[j][i])})
             for j in range(n)] for i in range(n)]
    return poly_matrix_det(rows)


class TestPresentation:
    def test_relator_must_be_cyclically_reduced(self):
        with pytest.raises(ValueError):
            Presentation(AB, [Word.from_string(AB, "Aba")])

    def test_deficiency(self):
        assert trefoil().deficiency() == 1
        assert Presentation(AB, []).deficiency() == 2

    def test_genus_hint_validation(self):
        with pytest.raises(ValueError):
            Presentation(AB, [], genus_hint=-1)


class TestAbelianization:
    def test_trefoil_weights(self):
        phi = abelianization(trefoil())
        assert phi.exponents == (1, 1)
        assert phi.weight(Word.from_string(AB, "ab")) == 2
        assert phi.weight(Word.from_string(AB, "aB")) == 0

    def test_figure_eight_weights(self):
        assert abelianization(fig8()).exponents == (1, 1)

    def test_unequal_weights(self):
        pres = Presentation(AB, [Word.from_string(AB, "aaB")])
        phi = abelianization(pres)
        assert phi.exponents == (1, 2)
        assert phi.weight(pres.relators[0]) == 0

    def test_free_rank_one(self):
        phi = abelianization(Presentation(Alphabet("a"), []))
        assert phi.exponents == (1,)

    def test_rank_two_rejected(self):
        with pytest.raises(NotInfiniteCyclic):
            abelianization(Presentation(AB, [Word.from_string(AB, "abAB")]))

    def test_torsion_rejected(self):
        # a^2 b^2 abelianizes to Z + Z/2
        with pytest.raises(NotInfiniteCyclic):
            abelianization(Presentation(AB, [Word.from_string(AB, "aabb")]))

    def test_against_sympy(self):
        """Exponents equal sympy's primitive kernel vector, and
        NotInfiniteCyclic is raised exactly when sympy finds the wrong
        rank or an invariant factor above 1."""
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import invariant_factors
        rng = rng_for(23, 0)
        outcomes = {"cyclic": 0, "rank": 0, "torsion": 0}
        for _ in range(600):
            k = rng.randint(1, 4)
            alphabet = Alphabet(" ".join("abcd"[:k]))
            count = rng.randint(0, 5)
            relators = []
            while len(relators) < count:
                w = random_word(rng, alphabet, max_len=7)
                if len(w) and w.is_cyclically_reduced():
                    relators.append(w)
            pres = Presentation(alphabet, relators)
            rows = [r.exponent_sum() for r in relators]
            m = sympy.Matrix(rows) if rows else sympy.zeros(1, k)
            if m.rank() != k - 1:
                outcomes["rank"] += 1
                with pytest.raises(NotInfiniteCyclic):
                    abelianization(pres)
                continue
            if any(f > 1 for f in invariant_factors(m, domain=sympy.ZZ)):
                outcomes["torsion"] += 1
                with pytest.raises(NotInfiniteCyclic):
                    abelianization(pres)
                continue
            (v,) = m.nullspace()
            v = [int(x * math.lcm(*(int(y.q) for y in v))) for x in v]
            g = math.gcd(*v) * (1 if next(x for x in v if x) > 0 else -1)
            outcomes["cyclic"] += 1
            assert abelianization(pres).exponents == tuple(x // g for x in v)
        assert min(outcomes.values()) >= 25, outcomes


class TestTwistedComplex:
    def test_twisted_eval_of_generator(self):
        pres = trefoil()
        phi = abelianization(pres)
        rep = trivial_rep(AB, n=1)
        # d(ab)/da = 1 and d(ab)/db = a, which phi sends to t
        blocks = twisted_fox_row(Word.from_string(AB, "ab"), rep, phi)
        assert blocks == [[[LaurentPoly.one()]],
                          [[LaurentPoly({1: Fraction(1)})]]]

    def test_chain_condition_holds(self):
        pres = trefoil()
        rep = solve_parabolic(pres)
        d2, d1 = twisted_boundaries(pres, rep, abelianization(pres))
        assert len(d2) == 2 and len(d2[0]) == 4
        assert len(d1) == 4 and len(d1[0]) == 2

    def test_chain_condition_catches_non_representation(self):
        pres = trefoil()
        rng = rng_for(37, 0)
        bad = Representation(AB, [random_sl2(rng), random_sl2(rng)],
                             sl_flag=True)
        with pytest.raises(ChainCondition):
            twisted_boundaries(pres, bad, abelianization(pres))

    def test_float_chain_condition_names_the_relator(self):
        # a -> A, b -> A^2 kills the commutator, a^2 b^-1 and b a^-2 up to
        # rounding, but not a^3 b^-1
        a = Matrix([[1.5 + 0.5j, 2.0], [-1.0, 0.25j]])
        rep = Representation(AB, [a, a * a])
        killed = [AB.word(w) for w in ("abAB", "aaB", "bAA")]
        for bad in range(4):
            pres = Presentation(AB, killed[:bad] + [AB.word("aaaB")]
                                + killed[bad:])
            with pytest.raises(ChainCondition, match="relator %d$" % bad):
                build_complex(pres, rep)
        d2, d1 = build_complex(Presentation(AB, killed), rep)
        assert d2.scalar_kind == d1.scalar_kind == "complex"

    def test_no_relators_gives_no_d2(self):
        # the free group of rank 2: a wedge of two circles
        free = Presentation(AB, [])
        assert homology_dims(*build_complex(free, trivial_rep(AB))) \
            == (1, 2, 0)
        rng = rng_for(37, 2)
        rep = Representation(AB, [random_sl2(rng), random_sl2(rng)],
                             sl_flag=True)
        d2, d1 = build_complex(free, rep)
        assert d2 is None and (d1.rows, d1.cols) == (4, 2)
        r1 = minor_rank(d1)
        assert homology_dims(d2, d1) == (2 - r1, 4 - r1, 0)

    def test_word_minus_one_matches_fox_expansion(self):
        # Phi(w) - I = sum_j Phi(dw/dx_j) (Phi(x_j) - I) after twisting
        phi = abelianization(trefoil())
        rng = rng_for(37, 1)
        reps = [trivial_rep(AB, n=1),
                Representation(AB, [random_sl2(rng), random_sl2(rng)])]
        for rep in reps:
            gens = [twisted_eval_word_minus_one(Word(AB, (j + 1,)), rep, phi)
                    for j in range(2)]
            for w in [Word.from_string(AB, "abA")] + \
                    [random_word(rng, AB, 9) for _ in range(10)]:
                blocks = twisted_fox_row(w, rep, phi)
                terms = [grid_mul(d, g) for d, g in zip(blocks, gens)]
                total = [[a + b for a, b in zip(r0, r1)]
                         for r0, r1 in zip(*terms)]
                assert twisted_eval_word_minus_one(w, rep, phi) == total


class TestWadaTorsion:
    def test_trefoil_classical(self):
        result = wada_torsion(trefoil(), trivial_rep(AB, n=1))
        ok, _, _ = laurent_unit_match(result.numerator,
                                      parse_laurent("1 - t + t^2"))
        assert ok
        ok, _, _ = laurent_unit_match(result.denominator,
                                      parse_laurent("t - 1"))
        assert ok
        assert result.degree == 1
        assert result.norm_bound == 1
        assert result.genus_bound == 1

    def test_trefoil_matches_seifert_oracle(self):
        result = wada_torsion(trefoil(), trivial_rep(AB, n=1))
        oracle = seifert_torsion([[-1, 1], [0, -1]])
        ok, _, _ = laurent_unit_match(result.numerator, oracle)
        assert ok

    def test_figure_eight_matches_seifert_oracle(self):
        result = wada_torsion(fig8(), trivial_rep(AB, n=1))
        oracle = seifert_torsion([[1, 1], [0, -1]])
        ok, _, _ = laurent_unit_match(result.numerator, oracle)
        assert ok

    def test_rank_two_trivial_is_square_of_classical(self):
        result = wada_torsion(trefoil(), trivial_rep(AB, n=2))
        classical = parse_laurent("1 - t + t^2")
        ok, _, _ = laurent_unit_match(result.numerator, classical * classical)
        assert ok
        assert result.degree == 2
        assert result.norm_bound == 1

    def test_free_generator(self):
        pres = Presentation(Alphabet("a"), [])
        result = wada_torsion(pres, trivial_rep(Alphabet("a"), n=1))
        assert result.numerator == LaurentPoly.one()
        assert result.degree == -1

    def test_deficiency_guard(self):
        pres = Presentation(AB, [Word.from_string(AB, "abaBAB"),
                                 Word.from_string(AB, "ab")])
        with pytest.raises(NotDeficiencyOne):
            wada_torsion(pres, trivial_rep(AB, n=1))

    def test_parabolic_figure_eight_degree(self):
        result = wada_torsion(fig8(), solve_parabolic(fig8()))
        assert result.degree == 2
        assert result.norm_bound == 1
        assert result.genus_bound_int() == 1


class TestConjectureCheck:
    def test_parabolic_equality(self):
        verdict = conjecture_check(fig8(), solve_parabolic(fig8()))
        assert verdict.verdict == "equality"
        assert verdict.degree == 2 and verdict.target == 2
        assert abs(complex(verdict.longitude_trace) + 2) < 1e-6

    def test_inflated_genus_reads_below(self):
        verdict = conjecture_check(fig8(genus=2), solve_parabolic(fig8()))
        assert verdict.verdict == "below"
        assert verdict.target == 6

    def test_deflated_genus_reads_above(self):
        # a genus-0 hint puts the target at -2, below any knot-like degree
        verdict = conjecture_check(fig8(genus=0), trivial_rep(AB, n=1))
        assert verdict.verdict == "above"
        assert verdict.degree == 1 and verdict.target == -2

    def test_longitude_trace_gate(self):
        d = Matrix([[2, 0], [0, Fraction(1, 2)]])
        rep = Representation(AB, [d, d], sl_flag=True)
        with pytest.raises(LongitudeTraceViolation):
            conjecture_check(fig8(), rep)

    def test_missing_genus_hint(self):
        pres = Presentation(AB, [Word.from_string(AB, "abaBAB")])
        with pytest.raises(MissingGenusHint):
            conjecture_check(pres, trivial_rep(AB, n=1))


class TestSerialization:
    def test_round_trip(self):
        pres = trefoil()
        text = presentation_to_text(pres)
        back = presentation_from_text(text)
        assert back.alphabet == pres.alphabet
        assert back.relators == pres.relators
        assert back.meridian == pres.meridian
        assert back.longitude == pres.longitude
        assert back.genus_hint == pres.genus_hint
        assert back.alexander_check == pres.alexander_check
        assert presentation_to_text(back) == text

    def test_alexander_check_passes_on_good_data(self):
        assert check_alexander(trefoil())

    def test_alexander_check_fails_on_bad_data(self):
        pres = Presentation(
            AB, [Word.from_string(AB, "abaBAB")], name="broken",
            alexander_check=parse_laurent("1 + t"))
        assert not check_alexander(pres)

    @pytest.mark.parametrize("text, expected", [
        ("generators: a b\ngenerators: a b c\nrelators:\nabAB\n",
         "error: line 2: duplicate 'generators'"),
        ("name: one\nname: two\ngenerators: a b\nrelators:\nabAB\n",
         "error: line 2: duplicate 'name'"),
        ("generators: a b\nrelators:\nabAB\nrelators:\nbaBA\n",
         "error: line 4: duplicate 'relators'"),
        ("generators: a b\nsl: true\nrelators:\nabAB\n",
         "error: line 2: unknown key 'sl'"),
    ], ids=range(4))
    def test_reader(self, text, expected):
        try:
            got = presentation_to_text(presentation_from_text(text))
        except ParseError as exc:
            got = "error: %s" % exc
        assert got == expected

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            presentation_from_text("relators:\nabAB\n")
        with pytest.raises(ParseError):
            presentation_from_text("generators: a b\nrelators:\nabc\n")
        with pytest.raises(ParseError):
            presentation_from_text("generators: a b\nrelators:\nabAB\n"
                                   "genus: -3\n")
