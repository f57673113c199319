"""Bit-for-bit guard on the parabolic root finder.

The roots that ``parabolic_roots`` returns for the bundled trefoil and
figure-eight presentations and for fourteen two-bridge knots K(p/q)
(p = 5, 7, ..., 17, the two smallest odd q prime to p) are recorded as
float hex in ``fixtures/parabolic_roots.json`` and must come back with
every bit equal.  The integer Riley polynomial behind them must equal the
gcd that ``grid_mul`` and ``mp_gcd`` give over MultiPoly on the same
knots.

The scan stops a Newton run early once it enters the gamma-theorem basin
of a root already kept.  That must change no returned bit: a copy of the
scan without the basin stop is compared with it on every K(p/q) with odd
q and p <= 21, and the radius itself is checked to be one that short
Newton runs from its rim come home from.

The scan also skips a start above the real axis when the run from its
mirror image stopped in a basin, and evaluates value and derivative in one
Horner loop.  A copy of the scan before both is compared with it bit for
bit on all 106 K(p/q) with odd q and p <= 31, and on K(17/3) the scan must
make at most 60% of the copy's Newton runs.

A scan that ends with fewer roots than the Riley polynomial has distinct
roots raises; K(37/1), the first knot where the grid misses a root, must,
and K(37/1) and K(47/3) must raise the same message as the copy.

Asked for one root, the scan stops once that root's place is proved.
``solve_parabolic`` must take the root that the full list gives, by float
hex, for every ``which`` on every K(p/q) with odd q and p <= 21 and on the
sixteen knots above, and on those sixteen the scans must make at most 60%
of the full scans' Newton runs.  The early stop leans on inclusion radii,
which must rule out the non-root that the full scan keeps on K(41/37).

To re-record after a deliberate change of the roots::

    PYTHONPATH=src python tests/test_parabolic_roots.py

To compare the scan with both copies, and ``solve_parabolic`` for every
``which`` with the full list's pick, on every K(p/q) with odd q and
p <= 47, with Newton-run counts, writing nothing::

    PYTHONPATH=src python tests/test_parabolic_roots.py --census 47
"""

import json
import math
import os
from itertools import product

import pytest

import torsioncert
from torsioncert import representation
from torsioncert.cli import main
from torsioncert.errors import IncompleteRootScan, NoRootFound
from torsioncert.freegroup import Alphabet, Word
from torsioncert.linalg import grid_mul
from torsioncert.polynomial import (MultiPoly, _newton_run,
                                    horner_within_rounding, inclusion_radius,
                                    int_poly_gcd, mp_gcd, newton_basin_radius)
from torsioncert.representation import (parabolic_roots, riley_polynomial,
                                        solve_parabolic)
from torsioncert.twisted import Presentation, presentation_from_text

from helpers import two_bridge_relator

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures",
                       "parabolic_roots.json")
DATA = os.path.join(os.path.dirname(torsioncert.__file__), "data")
AB = Alphabet("a b")
TWO_BRIDGE = [(p, q) for p in range(5, 18, 2)
              for q in [q for q in range(1, p, 2) if math.gcd(p, q) == 1][:2]]


def census(top):
    """Every two-bridge knot K(p/q) with odd q and p <= top."""
    return [(p, q) for p in range(3, top + 1, 2)
            for q in range(1, p, 2) if math.gcd(p, q) == 1]


# p <= 17: 32 knots; p <= 21: 47 knots; p <= 31: 106 knots
CENSUS = census(17)
BASIN_CENSUS = census(21)
MIRROR_CENSUS = census(31)


def _bundled(name):
    with open(os.path.join(DATA, name), encoding="utf-8") as fh:
        return presentation_from_text(fh.read())


def knots():
    out = {"trefoil": _bundled("trefoil.pres"), "fig8": _bundled("fig8.pres")}
    for p, q in TWO_BRIDGE:
        out["K(%d/%d)" % (p, q)] = Presentation(
            AB, [Word(AB, two_bridge_relator(p, q))])
    return out


def _hex(roots):
    return [[y.real.hex(), y.imag.hex()] for y in roots]


def hex_roots(pres):
    return _hex(parabolic_roots(pres))


def _recorded():
    with open(FIXTURE, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(knots()))
def test_roots_match_fixture_bit_for_bit(name):
    assert hex_roots(knots()[name]) == _recorded()[name]


def multipoly_riley(relator):
    one, zero = MultiPoly.constant(1), MultiPoly.zero()
    y = MultiPoly.variable("u")
    table = {1: [[one, one], [zero, one]], -1: [[one, -one], [zero, one]],
             2: [[one, zero], [y, one]], -2: [[one, zero], [-y, one]]}
    acc = [[one, zero], [zero, one]]
    for l in relator.letters:
        acc = grid_mul(acc, table[l])
    g = zero
    for entry in (acc[0][0] - one, acc[0][1], acc[1][0], acc[1][1] - one):
        g = mp_gcd(g, entry)
    return g


@pytest.mark.parametrize("name", sorted(knots()))
def test_integer_riley_polynomial_matches_multipoly_gcd(name):
    relator = knots()[name].relators[0]
    g = riley_polynomial(relator)
    assert MultiPoly({(0, 0, 0, i): c for i, c in enumerate(g) if c}) \
        == multipoly_riley(relator)


def _two_bridge(p, q):
    return Presentation(AB, [Word(AB, two_bridge_relator(p, q))])


def outcome(roots, distinct):
    """The float hex of the sorted roots, or the message of the
    IncompleteRootScan that a scan keeping fewer than ``distinct`` raises."""
    if len(roots) < distinct:
        return ("the grid scan kept %d of the %d distinct roots of the Riley "
                "polynomial" % (len(roots), distinct))
    return _hex(sorted(roots, key=lambda z: (z.real, z.imag)))


def reference_scan(pres, radii=True):
    """The grid scan of ``parabolic_roots`` as it was before the mirror
    reuse and the fused Horner loop: every start runs its own Newton
    iteration, with two Horner loops and a look at the basins before every
    step, and the same box filter, 1e-7 de-duplication, root test and
    early stop.  With ``radii`` false no basin is kept, as before the basin
    stop.

    Returns the :func:`outcome` and the number of Newton runs.
    """
    g = riley_polynomial(pres.relators[0])
    dg = [i * c for i, c in enumerate(g)][1:]
    distinct = len(g) - len(int_poly_gcd(g, dg))
    coeffs = [complex(c) for c in g]
    rc = coeffs[::-1]
    rd = [i * c for i, c in enumerate(coeffs)][1:][::-1]
    squarefree = radii and distinct == len(g) - 1
    roots = []
    basins = []
    runs = 0
    for ri, ii in product(range(33), repeat=2):
        y = complex(-4.0 + ri * 0.25, -4.0 + ii * 0.25)
        runs += 1
        for k in range(80):
            if k < 75 and any(abs(y - r) < rho for r, rho in basins):
                y = None
                break
            dv = 0j
            for c in rd:
                dv = dv * y + c
            if dv == 0:
                break
            v = 0j
            for c in rc:
                v = v * y + c
            step = v / dv
            y = y - step
            if abs(step) < 1e-15 * max(1.0, abs(y)):
                break
        if y is None:
            continue
        if not (-4.0 - 1e-6 <= y.real <= 4.0 + 1e-6 and
                -4.0 - 1e-6 <= y.imag <= 4.0 + 1e-6):
            continue
        if any(abs(y - r) < 1e-7 for r in roots):
            continue
        if horner_within_rounding(coeffs, y):
            roots.append(y)
            if len(roots) == distinct:
                break
            if squarefree:
                basins.append((y, newton_basin_radius(coeffs, y)))
    return outcome(roots, distinct), runs


def counted(fn):
    """The result of fn() and the number of Newton runs it made; the
    message of the IncompleteRootScan in place of a result that raised."""
    runs = 0
    run = representation._newton_run

    def counting(*args):
        nonlocal runs
        runs += 1
        return run(*args)

    representation._newton_run = counting
    try:
        return fn(), runs
    except IncompleteRootScan as exc:
        return str(exc), runs
    finally:
        representation._newton_run = run


def counted_scan(pres):
    """The :func:`outcome` of ``parabolic_roots`` on pres and the number of
    Newton runs it made."""
    return counted(lambda: hex_roots(pres))


def full_pick(roots, which):
    """The float hex of the ``which``-th irreducible root (|y| > 1e-8) of
    the full list ``roots``, counted modulo their number: the root that
    ``solve_parabolic`` must take."""
    irreducible = [y for y in roots if abs(y) > 1e-8]
    y = irreducible[which % len(irreducible)]
    return y.real.hex(), y.imag.hex()


def solved_pick(pres, which):
    y = complex(solve_parabolic(pres, which).images[1][1, 0])
    return y.real.hex(), y.imag.hex()


@pytest.mark.parametrize("p,q", BASIN_CENSUS)
def test_basin_stop_changes_no_root(p, q):
    pres = _two_bridge(p, q)
    assert hex_roots(pres) == reference_scan(pres, radii=False)[0]


@pytest.mark.parametrize("p,q", MIRROR_CENSUS)
def test_mirror_reuse_changes_no_bit(p, q):
    pres = _two_bridge(p, q)
    assert hex_roots(pres) == reference_scan(pres)[0]


@pytest.mark.parametrize("p,q,kept,distinct", [(37, 1, 17, 18),
                                               (47, 3, 21, 23)])
def test_mirror_reuse_raises_the_same_short_scan(p, q, kept, distinct):
    pres = _two_bridge(p, q)
    message = ("the grid scan kept %d of the %d distinct roots of the Riley "
               "polynomial" % (kept, distinct))
    assert counted_scan(pres)[0] == reference_scan(pres)[0] == message


def test_mirror_reuse_skips_runs():
    # census-wide the mirrored scan makes 54% of the runs
    pres = _two_bridge(17, 3)
    roots, runs = counted_scan(pres)
    reference, reference_runs = reference_scan(pres)
    assert roots == reference
    assert runs <= 0.6 * reference_runs


@pytest.mark.parametrize("p,q", CENSUS)
def test_short_runs_from_the_basin_rim_come_home(p, q):
    # the radius is half the gamma-theorem one; six steps from just inside
    # it must land where the de-duplication would have caught the run
    pres = _two_bridge(p, q)
    g = riley_polynomial(pres.relators[0])
    coeffs = [complex(c) for c in g]
    dcoeffs = [i * c for i, c in enumerate(coeffs)][1:]
    for r in parabolic_roots(pres):
        rho = newton_basin_radius(coeffs, r)
        assert rho > 0
        if rho == math.inf:
            # a linear g: one step from anywhere lands on r
            assert len(g) == 2
            continue
        for k in range(8):
            start = r + 0.99 * rho * complex(math.cos(k * math.pi / 4),
                                             math.sin(k * math.pi / 4))
            y = _newton_run(coeffs, dcoeffs, start, 6, 1e-15, None)[0]
            assert abs(y - r) < 1e-7


def test_no_basin_at_a_double_root():
    # (y - 1)^2 (y + 2): g'(1) = 0, so runs never stop early near 1
    coeffs = [2 + 0j, -3 + 0j, 0j, 1 + 0j]
    assert newton_basin_radius(coeffs, 1 + 0j) == 0.0
    assert newton_basin_radius(coeffs, -2 + 0j) > 0.0


def test_a_short_scan_raises_rather_than_return_a_short_list(tmp_path,
                                                             capsys):
    # the Riley polynomial of K(37/1) has 18 distinct roots; no grid start
    # reaches the one near y = -3.885757
    pres = _two_bridge(37, 1)
    g = riley_polynomial(pres.relators[0])
    dg = [i * c for i, c in enumerate(g)][1:]
    assert len(g) - len(int_poly_gcd(g, dg)) == 18
    with pytest.raises(IncompleteRootScan,
                       match="kept 17 of the 18 distinct roots"):
        parabolic_roots(pres)
    assert issubclass(IncompleteRootScan, NoRootFound)
    letters = {1: "a", -1: "A", 2: "b", -2: "B"}
    path = tmp_path / "k37.pres"
    path.write_text("generators: a b\nrelators:\n%s\n" % "".join(
        letters[l] for l in two_bridge_relator(37, 1)))
    code = main(["torsion", str(path), "--parabolic"])
    out = capsys.readouterr()
    assert code == 2 and out.out == ""
    assert out.err == ("error: the grid scan kept 17 of the 18 distinct "
                       "roots of the Riley polynomial\n")


@pytest.mark.parametrize("p,q", BASIN_CENSUS)
def test_solve_parabolic_takes_the_full_lists_root(p, q):
    pres = _two_bridge(p, q)
    roots = parabolic_roots(pres)
    for which in range(len(riley_polynomial(pres.relators[0]))):
        assert solved_pick(pres, which) == full_pick(roots, which)


@pytest.mark.parametrize("name", sorted(knots()))
def test_solve_parabolic_takes_the_full_lists_root_on_bench_knots(name):
    pres = knots()[name]
    roots = parabolic_roots(pres)
    for which in range(16):
        assert solved_pick(pres, which) == full_pick(roots, which)


def test_the_early_stop_fires():
    # the bench's parabolic inputs ask for which = 0..15; the scans make
    # about 41% of the full scans' Newton runs
    runs = full = 0
    for pres in knots().values():
        roots, n = counted(lambda: parabolic_roots(pres))
        full += 16 * n
        for which in range(16):
            short, n = counted(lambda: parabolic_roots(pres, which))
            assert short == roots[:len(short)]
            runs += n
    assert runs <= 0.6 * full


def test_an_early_list_ends_at_the_requested_root():
    # K(17/1) asked for its first root stops after keeping a few of its 8
    pres = _two_bridge(17, 1)
    full = parabolic_roots(pres)
    short = parabolic_roots(pres, 0)
    assert len(short) < len(full)
    assert short == full[:len(short)]
    assert (short[-1].real.hex(), short[-1].imag.hex()) == full_pick(full, 0)


def test_the_inclusion_radius_rules_out_a_kept_non_root():
    # on K(41/37) the full scan keeps 3.6305315927197843 among 20 of 20
    # distinct roots, though every root of g is 0.0231 away from it; its
    # inclusion radius is far above the 1e-7 that the early stop allows
    pres = _two_bridge(41, 37)
    y = complex(3.6305315927197843, 0.0)
    assert y in parabolic_roots(pres)
    g = riley_polynomial(pres.relators[0])
    coeffs = [complex(c) for c in g]
    dcoeffs = [i * c for i, c in enumerate(coeffs)][1:]
    assert inclusion_radius(coeffs, dcoeffs, y) > 1e-7


def solve_census(pres):
    """For every ``which`` from 0 to deg g: whether ``solve_parabolic``
    takes the full list's root (on a short full scan, whether it raises
    too), with the Newton runs of the solves and of the full scans."""
    full, full_runs = counted(lambda: parabolic_roots(pres))
    agree = 0
    runs = 0
    whiches = range(len(riley_polynomial(pres.relators[0])))
    for which in whiches:
        pick, n = counted(lambda: solved_pick(pres, which))
        runs += n
        agree += pick == (full if isinstance(full, str)
                          else full_pick(full, which))
    return agree, len(whiches), runs, len(whiches) * full_runs


def print_census(top):
    """Print, for every K(p/q) with odd q and p <= top, whether the scan
    agrees bit for bit with the scan before the mirror reuse (mirror),
    whether that scan agrees with the scan without basins (basin), the
    Newton runs of the scan and of the scan before the mirror reuse, the
    ``which`` from 0 to deg g on which ``solve_parabolic`` takes another
    root than the full list's, or returns where the full scan raises
    (solve), the Newton runs of those solves against as many full scans,
    and the IncompleteRootScan message where there is one."""
    totals = [0, 0, 0, 0]
    solves = [0, 0, 0, 0]
    short = 0
    knots_ = census(top)
    print("knot      mirror basin  runs  unmirrored solve  runs  full")
    for p, q in knots_:
        pres = _two_bridge(p, q)
        roots, runs = counted_scan(pres)
        reference, reference_runs = reference_scan(pres)
        mirror = roots == reference
        basin = reference == reference_scan(pres, radii=False)[0]
        for i, x in enumerate((mirror, basin, runs, reference_runs)):
            totals[i] += x
        solve = solve_census(pres)
        for i, x in enumerate(solve):
            solves[i] += x
        if isinstance(roots, str):
            short += solve[1] - solve[0]
        print("%-9s %-6s %-6s %5d %6d     %5d %6d %6d  %s"
              % ("K(%d/%d)" % (p, q), mirror, basin, runs, reference_runs,
                 solve[1] - solve[0], solve[2], solve[3],
                 roots if isinstance(roots, str) else ""))
    print("%d knots: mirror agrees on %d, basin on %d; %d runs against %d "
          "unmirrored (%.1f%%)" % (len(knots_), totals[0], totals[1],
                                   totals[2], totals[3],
                                   100 * totals[2] / totals[3]))
    print("%d solves: %d take another root than the full list's, %d return "
          "where the full scan raises; %d runs against %d in full scans "
          "(%.1f%%)" % (solves[1], solves[1] - solves[0] - short, short,
                        solves[2], solves[3], 100 * solves[2] / solves[3]))


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(
        description="Re-record fixtures/parabolic_roots.json, or with "
        "--census compare the scan with its reference copies and write "
        "nothing.")
    parser.add_argument("--census", type=int, metavar="P",
                        help="check every K(p/q) with odd q and p <= P")
    args = parser.parse_args()
    if args.census:
        print_census(args.census)
    else:
        with open(FIXTURE, "w", encoding="utf-8") as fh:
            json.dump({name: hex_roots(pres)
                       for name, pres in knots().items()}, fh, indent=1)
            fh.write("\n")
