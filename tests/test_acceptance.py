"""Acceptance criteria, one test per criterion.

Each test prints one summary line (visible with -s or -rA) and enforces
both the mathematical check and its time budget.
"""

import os
import time
from fractions import Fraction

from torsioncert.charvar import (
    Character,
    eliminate_L2,
    lift,
    locus_det_with_scale,
    locus_verify,
)
from torsioncert.cli import main
from torsioncert.freegroup import Alphabet, Word, parse_ring_elem
from torsioncert.linalg import Matrix, det
from torsioncert.polynomial import (
    LaurentPoly,
    laurent_unit_match,
    parse_laurent,
    parse_multi,
    poly_matrix_det,
)
from torsioncert.representation import (
    Representation,
    check_self_dual,
    circle_homology,
    rep_from_text,
    solve_parabolic,
)
from torsioncert.scalar import magnitude
from torsioncert.seeds import rng_for
from torsioncert.suturedcert import (
    SuturedHandlebodyData,
    certify,
    oracle_dims,
    pants_example,
    sutured_from_text,
    sutured_to_text,
)
from torsioncert.twisted import (
    presentation_from_text,
    presentation_to_text,
    trivial_rep,
    wada_torsion,
)

from helpers import random_fraction, random_sl2, random_word

import torsioncert

DATA = os.path.join(os.path.dirname(torsioncert.__file__), "data")
FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
XY = Alphabet("x y")


def _data(name):
    with open(os.path.join(DATA, name), "r", encoding="utf-8") as fh:
        return fh.read()


def _finish(num, label, failures, t0, budget):
    elapsed = time.monotonic() - t0
    status = "PASS" if not failures else "FAIL"
    print("criterion %2d %s: %s (%.2fs, budget %ds)"
          % (num, status, label, elapsed, budget))
    assert not failures, failures[:5]
    assert elapsed < budget, "criterion %d took %.2fs" % (num, elapsed)


def test_criterion_01_plane_certificates_exact():
    t0 = time.monotonic()
    rng = rng_for(43, 1)
    data = pants_example()
    failures = []
    for i in range(200):
        x = random_fraction(rng, 10, 5)
        y = random_fraction(rng, 10, 5)
        rep = lift(Character(x, y, x + y - 3), warn=False)
        if certify(data, rep).determinant != 0:
            failures.append(("on", i, x, y))
    for i in range(200):
        x = random_fraction(rng, 10, 5)
        y = random_fraction(rng, 10, 5)
        delta = Fraction(rng.randint(1, 9), rng.randint(1, 4)) * rng.choice([1, -1])
        rep = lift(Character(x, y, x + y - 3 + delta), warn=False)
        if certify(data, rep).determinant == 0:
            failures.append(("off", i, x, y, delta))
    _finish(1, "200 on-plane and 200 off-plane exact certificates",
            failures, t0, 5)


def test_criterion_02_elimination_recovers_the_plane():
    t0 = time.monotonic()
    poly = eliminate_L2(pants_example())
    plane = parse_multi("x + y - z - 3")
    failures = [] if poly in (plane, -plane) else [str(poly)]
    _finish(2, "eliminated locus is +-(x + y - z - 3)", failures, t0, 5)


def test_criterion_03_schottky_arithmetic():
    t0 = time.monotonic()
    rep = rep_from_text(_data("schottky.rep"))
    failures = []
    xw = Word.from_string(XY, "x")
    yw = Word.from_string(XY, "y")
    if rep.eval_word(xw).trace() != 4:
        failures.append("trace x")
    if rep.eval_word(yw).trace() != 4:
        failures.append("trace y")
    if rep.eval_word(Word.from_string(XY, "xy")).trace() != 5:
        failures.append("trace xy")
    if rep.eval_word(Word.from_string(XY, "xyXY")).trace() != -25:
        failures.append("commutator trace")
    elem = parse_ring_elem(XY, "1 + x*y - x*y*X")
    if det(rep.eval_ring_elem(elem)) != 0:
        failures.append("group ring determinant")
    for g in range(2):
        if det(rep.images[g]) != 1:
            failures.append("det image %d" % g)
    _finish(3, "Schottky traces, commutator, and singular ring element",
            failures, t0, 1)


def test_criterion_04_higher_locus_sampling_and_membership():
    t0 = time.monotonic()
    failures = []
    for N in (3, 4):
        report = locus_verify(N, samples=100, seed=7, tol=1e-6, off_tol=1e-3)
        if not report.ok():
            failures.append(("verify", N, report.failures[:3]))
    data = pants_example()
    c = Character(2, 2, 1)
    for N in range(2, 11):
        d, scale = locus_det_with_scale(c, data, N)
        if magnitude(d) > 1e-8 * max(1.0, scale):
            failures.append(("membership", N, d))
    _finish(4, "L3/L4 sampling at 1e-6 and (2,2,1) in L_N for N=2..10",
            failures, t0, 60)


def test_criterion_05_circle_homology_dichotomy():
    t0 = time.monotonic()
    rng = rng_for(43, 5)
    failures = []
    for i in range(500):
        a = random_sl2(rng)
        if det(a - Matrix.identity(2)) != 2 - a.trace():
            failures.append(("det identity", i))
        h0, h1 = circle_homology(a)
        if h0 != h1:
            failures.append(("asymmetric", i))
        if a.trace() != 2 and (h0, h1) != (0, 0):
            failures.append(("nonparabolic", i))
        if a.trace() == 2 and h0 < 1 and a != Matrix.identity(2):
            failures.append(("parabolic", i))
    if circle_homology(Matrix([[-1, 1], [0, -1]])) != (0, 0):
        failures.append("negative parabolic")
    _finish(5, "500 SL2 samples: det(A - I) = 2 - tr A and fixed spaces",
            failures, t0, 2)


def test_criterion_06_self_duality():
    t0 = time.monotonic()
    rng = rng_for(43, 6)
    failures = []
    for i in range(200):
        rep = Representation(XY, [random_sl2(rng), random_sl2(rng)],
                             sl_flag=True)
        if check_self_dual(rep) != 0:
            failures.append(i)
    counter = Representation(XY, [Matrix([[2, 0], [0, 1]]),
                                  Matrix([[1, 1], [0, 1]])])
    if check_self_dual(counter) == 0:
        failures.append("determinant-2 counterexample was not detected")
    _finish(6, "200 SL2 reps exactly self-dual, GL2 counterexample is not",
            failures, t0, 2)


def _seifert_torsion(v):
    n = len(v)
    rows = [[LaurentPoly({0: Fraction(v[i][j]), 1: -Fraction(v[j][i])})
             for j in range(n)] for i in range(n)]
    return poly_matrix_det(rows)


def test_criterion_07_classical_polynomials_vs_seifert_oracle():
    t0 = time.monotonic()
    failures = []
    for name, v in (("trefoil.pres", [[-1, 1], [0, -1]]),
                    ("fig8.pres", [[1, 1], [0, -1]])):
        pres = presentation_from_text(_data(name))
        result = wada_torsion(pres, trivial_rep(pres.alphabet, n=1))
        ok, _, _ = laurent_unit_match(result.numerator, _seifert_torsion(v))
        if not ok:
            failures.append((name, str(result.numerator)))
        if result.degree != 1:
            failures.append((name, "degree", result.degree))
    _finish(7, "trefoil and figure-eight match Seifert matrix oracles",
            failures, t0, 2)


def test_criterion_08_parabolic_figure_eight():
    t0 = time.monotonic()
    pres = presentation_from_text(_data("fig8.pres"))
    rep = solve_parabolic(pres)
    failures = []
    r = rep.eval_word(pres.relators[0])
    defect = max(abs(complex(r[i, j] - Matrix.identity(2)[i, j]))
                 for i in range(2) for j in range(2))
    if defect >= 1e-10:
        failures.append(("relator defect", defect))
    lam = complex(rep.eval_word(pres.longitude).trace())
    if abs(lam + 2) >= 1e-6:
        failures.append(("longitude trace", lam))
    result = wada_torsion(pres, rep)
    if result.degree != 2:
        failures.append(("degree", result.degree))
    _finish(8, "parabolic figure-eight: defect, longitude trace, degree 2",
            failures, t0, 10)


def test_criterion_09_oracle_agreement_and_euler():
    t0 = time.monotonic()
    rng = rng_for(43, 9)
    data = pants_example()
    failures = []
    for i in range(200):
        c = Character(random_fraction(rng, 8, 4), random_fraction(rng, 8, 4),
                      random_fraction(rng, 8, 4))
        rep = lift(c, warn=False)
        cert = certify(data, rep, with_oracle=True)
        if cert.is_product != (cert.oracle_h1 == 0):
            failures.append(("pants", i))
        dims, rel_h1, chi = oracle_dims(data, rep)
        if dims[0] - dims[1] + dims[2] != rep.n * chi:
            failures.append(("pants euler", i, dims))
    for i in range(50):
        images = [random_word(rng, XY, 6) for _ in range(2)]
        inst = SuturedHandlebodyData(XY, images)
        rep = Representation(XY, [random_sl2(rng), random_sl2(rng)],
                             sl_flag=True)
        cert = certify(inst, rep, with_oracle=True)
        if cert.is_product != (cert.oracle_h1 == 0):
            failures.append(("random", i, [str(w) for w in images]))
        dims, rel_h1, chi = oracle_dims(inst, rep)
        if dims[0] - dims[1] + dims[2] != rep.n * chi:
            failures.append(("random euler", i, dims))
    _finish(9, "250 instances: determinant verdict matches homology oracle",
            failures, t0, 30)


def test_criterion_10_serialization_and_validation():
    t0 = time.monotonic()
    failures = []
    for name in ("trefoil.pres", "fig8.pres"):
        pres = presentation_from_text(_data(name))
        text = presentation_to_text(pres)
        if presentation_to_text(presentation_from_text(text)) != text:
            failures.append((name, "round trip"))
    sut = sutured_from_text(_data("pants.sut"))
    if sutured_to_text(sutured_from_text(sutured_to_text(sut))) \
            != sutured_to_text(sut):
        failures.append(("pants.sut", "round trip"))
    rep = rep_from_text(_data("schottky.rep"))
    from torsioncert.representation import rep_to_text
    if rep_to_text(rep_from_text(rep_to_text(rep))) != rep_to_text(rep):
        failures.append(("schottky.rep", "round trip"))
    if main(["validate"]) != 0:
        failures.append("bundle validation")
    for bad in ("bad_relator.pres", "bad_letter.pres", "bad_alexander.pres",
                "bad_images.sut", "bad_matrix.rep"):
        if main(["validate", os.path.join(FIXTURES, bad)]) != 2:
            failures.append((bad, "expected exit 2"))
    _finish(10, "round trips stable, bundle clean, corrupted files exit 2",
            failures, t0, 1)
