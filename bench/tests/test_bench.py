"""The benchmark's own tests: seeded inputs, the known-answer checker and
its negative control, defect classification, calm time, and tracer
hygiene.

    python3 -m pytest -q bench/tests
"""

import os
import signal
import sys
from fractions import Fraction
from time import perf_counter

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import known  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from torsioncert import charvar as cv  # noqa: E402
from torsioncert import linalg, suturedcert as sc  # noqa: E402
from torsioncert.freegroup import Alphabet, Word  # noqa: E402
from torsioncert.representation import SymPowerRep  # noqa: E402
from torsioncert.scalar import ComplexF  # noqa: E402


def _labels(workload, seed):
    return [c.label for c in workloads.build(workload, seed, run.SRC)]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs_other_seed_other_inputs(workload):
    first = _labels(workload, 3)
    assert len(first) >= 100
    assert _labels(workload, 3) == first
    assert _labels(workload, 4) != first


def _run_once(cases):
    results = [[] for _ in cases]
    run.run_pass(cases, range(len(cases)), results, [[] for _ in cases])
    return results


def test_checker_passes_true_answers_and_catches_a_planted_wrong_one():
    cases = workloads.build("torsion_symbolic", 5, run.SRC)[:6]
    results = _run_once(cases)
    expected, consistent = run.known_answers(cases)
    assert consistent
    assert run.check(cases, results, expected)[0]
    corrupted = [{run._Corrupt()}] + expected[1:]
    ok, tally, signatures = run.check(cases, results, corrupted)
    assert not ok and tally["wrong"] == 1 and signatures == {"unexpected": 1}
    assert run.negative_control(cases, results, expected)


def test_inputs_count_once_whatever_the_passes_and_must_agree_across_them():
    cases = workloads.build("torsion_symbolic", 5, run.SRC)[:4]
    results = [[] for _ in cases]
    for _ in range(3):
        run.run_pass(cases, range(len(cases)), results, [[] for _ in cases])
    expected = run.known_answers(cases)[0]
    ok, tally, _ = run.check(cases, results, expected)
    assert ok and tally["attempted"] == len(cases) == tally["right"]
    # an input whose verdict changes between passes fails the check
    results[0][1] = (None, ("RuntimeError", "flaky"))
    assert not run.check(cases, results, expected)[0]


def test_calm_time_scales_by_the_ticks_inside_or_nearest_a_span():
    clock = speed.Speed()
    slow = 2 * speed.TICK_CALM_MS
    clock.ms = [speed.TICK_CALM_MS] * 4 + [slow] * 4 + [speed.TICK_CALM_MS] * 4
    # a span with the four slow ticks inside: their time is left out, and
    # the rest is halved
    net = 0.1 - 4 * slow / 1e3
    assert clock.net(0.1, 4, 8) == pytest.approx(net)
    assert clock.calm(0.1, 4, 8) == pytest.approx(net / 2)
    # a span with no tick inside takes the ticks around it
    assert clock.calm(0.002, 6, 6) == pytest.approx(0.001)
    assert clock.calm(0.002, 0, 0) == pytest.approx(0.002)
    assert clock.calm(0.002, 12, 12) == pytest.approx(0.002)


def test_speed_ticks_while_entered_and_restores_the_signal_handler():
    before = signal.getsignal(signal.SIGALRM)
    with speed.Speed() as clock:
        t0 = perf_counter()
        while perf_counter() - t0 < 5 * speed.TICK_S:
            pass
    assert clock.mark() >= 2
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_planted_answer_that_contradicts_the_route_is_reported():
    case = workloads.build("certify_exact", 5, run.SRC)[0]
    assert case.planted == {False}  # planted on the plane
    case.planted = {True}
    assert not run.known_answers([case])[1]


def _case(run_fn, exact_base, words, N, float_twin):
    return workloads.Case(
        "probe", "probe", run_fn, lambda cert: cert.is_product,
        lambda: {known.certificate_nonzero(words, exact_base, N)},
        float_twin=float_twin)


def test_bareiss_assertion_on_rational_input_is_a_counted_known_defect():
    xy = Alphabet("x y")
    data = sc.SuturedHandlebodyData(xy, [Word.from_string(xy, "YX"),
                                         Word.from_string(xy, "yx")])
    rep = cv.lift(cv.Character(-7, 2, Fraction(17, 4)), warn=False)
    words = [w.letters for w in data.images]
    base = [[list(r) for r in m.entries] for m in rep.images]
    case = _case(lambda: sc.certify(data, rep, with_oracle=True), base,
                 words, 2, False)
    results = _run_once([case])
    answer, err = results[0][0]
    assert run.grade(case, answer, err, case.known()) == (
        "raised", "bareiss_rational_assert")
    ok, tally, _ = run.check([case], results, [case.known()])
    assert ok and tally["raised"] == 1


def test_float_false_zero_is_a_counted_known_defect():
    pants = sc.pants_example()
    base = cv.lift(cv.Character(ComplexF(3.0), ComplexF(1.0), ComplexF(2.0)),
                   warn=False)
    exact = [[[0, 1], [-1, 3]], [[1, -1], [1, 0]]]
    case = _case(lambda: sc.certify(pants, SymPowerRep(base, 8)), exact,
                 [w.letters for w in pants.images], 8, True)
    results = _run_once([case])
    answer, err = results[0][0]
    assert case.known() == {True} and answer is False
    assert run.grade(case, answer, err, {True}) == (
        "wrong", "float_false_zero")
    # the same wrong answer against a planted expectation is not excused
    assert run.grade(case, answer, err, {run._Corrupt()})[1] == "unexpected"


def test_known_routes_match_the_package_on_a_quadext_lift():
    pants = sc.pants_example()
    for char, N in (((4, 4, 5), 2), ((4, 4, 5), 3), ((2, 2, 1), 4),
                    ((1, 2, 3), 3)):
        rep = cv.lift(cv.Character(*char), warn=False)
        base = [[list(r) for r in m.entries] for m in rep.images]
        big = rep if N == 2 else SymPowerRep(rep, N)
        assert known.certificate_nonzero(
            [w.letters for w in pants.images], base, N) == \
            sc.certify(pants, big).is_product


def test_hartley_formula_matches_the_bundled_alexander_polynomials():
    assert known.unit_multiple(known.two_bridge_alexander(3, 1),
                               {0: 1, 1: -1, 2: 1})
    assert known.unit_multiple(known.two_bridge_alexander(5, 3),
                               {0: 1, 1: -3, 2: 1})


def test_tracer_counts_spans_and_restores_the_package():
    before = (linalg._bareiss_det, sc.fox_matrix, cv.fox_matrix)
    tracer = spans.Tracer()
    tracer.install()
    try:
        sc.certify(sc.pants_example(),
                   SymPowerRep(cv.lift(cv.Character(4, 4, 5), warn=False), 3))
    finally:
        tracer.uninstall()
    assert (linalg._bareiss_det, sc.fox_matrix, cv.fox_matrix) == before
    m = tracer.metrics(1, 0.0)
    assert set(m) == {name for name, _, _ in spans.METRICS}
    assert m["linalg.det_exact.calls"]["value"] >= 1
    assert m["freegroup.fox_derivative.calls"]["value"] == 4
    assert m["scalar.quadext_made"]["value"] > 0
    assert m["scalar.complexf_made"]["value"] == 0
    assert m["suturedcert.fox_matrix.self_ms"]["value"] > 0
