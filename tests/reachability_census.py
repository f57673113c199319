"""Reachability census: which package functions does no real run call?

Profiles, with ``sys.setprofile``, the runs that define what the package is
for, and prints every function of ``src/torsioncert`` that none of them
called, with its line count and the rule that keeps it, if any::

    PYTHONPATH=src python tests/reachability_census.py

The runs:

* every argv of ``tests/test_golden.py`` through ``cli.main``, in
  structured mode, plus ``EXTRA_ARGVS``, which reach the commands and
  options the golden list leaves out (human output, ``--tol``, ``--seed``,
  ``--data-dir``, ``locus --corrupt``, ``torsion --char`` and ``--rep``,
  ``validate`` on named files);
* the three bench workloads at seeds 5521 and 1: each case's ``run()``,
  ``answer()`` of what it returned and ``known()``;
* ``tests/test_acceptance.py`` under pytest (its time budgets may fail
  under the profiler; the census reports the outcome and goes on).

An unreached function stays in the package when one of these rules keeps
it, and the report names the rule:

* dunders: ``__repr__``, ``__str__``, ``__eq__``, ``__hash__`` and the
  ``__setattr__`` immutability guards (operator methods such as
  ``__pow__`` are not kept by this rule);
* typed-error guards, such as ``_mixed`` and ``_across_fields``;
* docstring examples (``Word.inverse``);
* ``LaurentPoly.zero``, which ``parse_laurent`` calls;
* ``Matrix.__neg__``, which the reference routes of ``tests/helpers.py``
  and the invariance tests take;
* ``SymPowerRep.image_inverse``, Sym^N of the base's inverse: no package
  path reads it, since every word and Fox prefix of a symmetric power is
  evaluated on its base, but it keeps ``letter_image`` right for an
  inverse letter, and ``test_float_inverse_images_keep_gauss_jordan`` and
  ``test_complex_sym_power_rep_is_the_rank_n_route_within_rounding`` pin
  its bits as Sym^N of the base's inverse;
* the functions ``bench/spans.py`` wraps by name (``fox_derivative``,
  ``resultant_in_u``, ``build_complex``, ``homology_dims``); they leave
  only in a change to the benchmark.

Anything else it lists is a candidate for deletion, or for a move to
``tests/helpers.py`` where tests use it as a reference.  The census is a
report, not a test: pytest does not collect it.  It writes
``tests/fixtures/reachability.json``, which maps each package function to
``"reached"``, to the rule that keeps it, or to null when none does.
``tests/test_reachability.py`` checks that fixture against the package
source without profiling, so a function added or removed comes with a
census run.
"""

import ast
import contextlib
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "torsioncert")
BENCH = os.path.join(ROOT, "bench")
FIXTURE = os.path.join(HERE, "fixtures", "reachability.json")
SEEDS = (5521, 1)

EXTRA_ARGVS = [
    ["fox", "xyXY", "x"],
    ["certify", "pants.sut", "--char", "(4, 4, 5)"],
    ["--tol", "1e-8", "certify", "pants.sut", "--char", "(3.0, 1.0, 2.0)"],
    ["--seed", "3", "locus", "--N", "3", "--samples", "3"],
    ["locus", "--N", "2", "--samples", "3", "--corrupt"],
    ["locus", "--N", "3", "--samples", "3", "--corrupt"],
    ["torsion", "trefoil.pres", "--char", "(1, 1, 1)"],
    ["torsion", "fig8.pres", "--rep", "schottky.rep"],
    ["--data-dir", PACKAGE + os.sep + "data", "charlift", "(4, 4, 5)"],
    ["validate"] + [os.path.join(PACKAGE, "data", f)
                    for f in ("pants.sut", "fig8.pres", "schottky.rep")],
]

DUNDERS = {"__repr__", "__str__", "__eq__", "__hash__", "__setattr__"}

KEEP = {
    "polynomial._mixed": "typed-error guard",
    "linalg._across_fields": "typed-error guard",
    "freegroup.Word.inverse": "docstring example",
    "polynomial.LaurentPoly.zero": "parse_laurent calls it",
    "linalg.Matrix.__neg__": "tests/helpers.py's reference routes negate",
    "representation.SymPowerRep.image_inverse":
        "tests pin it as Sym^N of the base's inverse",
    "freegroup.fox_derivative": "bench/spans.py wraps it",
    "polynomial.resultant_in_u": "bench/spans.py wraps it",
    "twisted.build_complex": "bench/spans.py wraps it",
    "twisted.homology_dims": "bench/spans.py wraps it",
}


def package_functions():
    """(module.qualname, file, first line, line count) of every function
    and method defined in the package, nested ones included; the first
    line is that of the code object, a decorator's where there is one."""
    out = []
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        module = name[:-3]

        def walk(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in
                                                  child.decorator_list])
                    qual = prefix + child.name
                    out.append((module + "." + qual, path, first,
                                child.end_lineno - first + 1))
                    walk(child, qual + ".")
                elif isinstance(child, ast.ClassDef):
                    walk(child, prefix + child.name + ".")

        walk(tree, "")
    return out


def keep_rule(qualname):
    """The rule that keeps an unreached function, or None."""
    if qualname in KEEP:
        return KEEP[qualname]
    if qualname.rsplit(".", 1)[-1] in DUNDERS:
        return "dunder"
    return None


def _cli_runs():
    sys.path.insert(0, HERE)
    from test_golden import ARGVS
    from torsioncert import cli

    for argv in [["--structured"] + a for a in ARGVS] + EXTRA_ARGVS:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            cli.main(argv)
    return "%d CLI runs" % (len(ARGVS) + len(EXTRA_ARGVS))


def _bench_runs():
    sys.path.insert(0, BENCH)
    import workloads

    count = 0
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            for case in workloads.build(workload, seed, SRC):
                try:
                    case.answer(case.run())
                except Exception:
                    pass  # known defects raise; the call still counts
                case.known()
                count += 1
    return "%d bench cases" % count


def _acceptance_runs():
    import pytest

    with contextlib.redirect_stdout(io.StringIO()):
        code = pytest.main([os.path.join(HERE, "test_acceptance.py"), "-q",
                            "-p", "no:cacheprovider"])
    return "acceptance criteria (pytest exit %d)" % code


def census():
    """Run everything under the profiler; return the set of
    (file, first line) of the package code objects that were called."""
    reached = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code.co_filename.startswith(PACKAGE):
                reached.add((code.co_filename, code.co_firstlineno))

    sys.path.insert(0, SRC)
    notes = []
    sys.setprofile(profile)
    try:
        for run in (_cli_runs, _bench_runs, _acceptance_runs):
            notes.append(run())
    finally:
        sys.setprofile(None)
    return reached, notes


def main():
    functions = package_functions()
    reached, notes = census()
    unreached = [f for f in functions if (f[1], f[2]) not in reached]
    print("runs: " + "; ".join(notes))
    print("%-48s %5s  %s" % ("unreached function", "lines", "kept by"))
    for qual, _, _, lines in unreached:
        print("%-48s %5d  %s" % (qual, lines, keep_rule(qual) or "-"))
    cut = [f for f in unreached if keep_rule(f[0]) is None]
    print("%d of %d functions (%d lines) unreached; %d (%d lines) kept by "
          "no rule" % (len(unreached), len(functions),
                       sum(f[3] for f in unreached), len(cut),
                       sum(f[3] for f in cut)))
    status = {f[0]: "reached" if (f[1], f[2]) in reached else keep_rule(f[0])
              for f in functions}
    with open(FIXTURE, "w", encoding="utf-8") as fh:
        json.dump(status, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("wrote " + os.path.relpath(FIXTURE, ROOT))


if __name__ == "__main__":
    sys.dont_write_bytecode = True
    main()
