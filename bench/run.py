"""Closed-loop benchmark of torsioncert verdicts.

    python3 bench/run.py --workload certify_exact --seed 1 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

One process, one thread, one caller: each verdict starts when the previous
one has returned.  Inputs come from ``--seed``; the package is imported
from ``src/`` next to this directory, never from an installed copy.  The
timed section makes interleaved passes over every input, each pass in a
fresh seeded order, for about ``--seconds``.  A timer runs a fixed
calibration loop every 10 ms (``speed.py``); each verdict's time is its
calm time, its wall time scaled to the calibration loop's uncontended
speed, and an input's latency is the median of its passes.  Afterwards
every verdict is checked against a known answer reached by another route
(``known.py``).

The last line of output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of ``spans.py`` with ``--trace 1``.

An input counts once in ``attempted`` and ``failed``, whatever the
number of passes: every pass must give it the same verdict, so the counts
depend on the seed only.  A failed verdict raised or contradicted its
known answer.  Failures that match a reproduced defect are counted and
reported, never filtered; any
other failure, a checker whose planted answers disagree with its own
routes, or a planted wrong answer that the checker lets through makes
``correct`` false.
"""

import argparse
import compileall
import contextlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from importlib import metadata
from time import perf_counter

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# one BLAS thread (numpy.roots calls LAPACK) and a fixed hash seed
PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

SETUP_LAUNCHES = 9
MIN_PASSES = 3

# signatures of the reproduced defects; see NOTES.md
BAREISS_ASSERT = ("AssertionError", "Bareiss division not exact")
KNOWN_DEFECTS = ("bareiss_rational_assert", "float_false_zero")

END_TO_END = (
    ("verdicts_per_s", "1/s"),
    ("verdict_ms_p50", "ms"),
    ("verdict_ms_p90", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("right_share", "share"),
    ("returned_share", "share"),
)


class _Corrupt:
    """An expected answer no verdict can give: the checker's negative
    control."""

    def __repr__(self):
        return "<corrupt>"


def _pin_environment():
    env = dict(os.environ)
    if all(env.get(k) == v for k, v in PINNED_ENV.items()):
        return
    env.update(PINNED_ENV)
    os.execve(sys.executable, [sys.executable] + sys.argv, env)


def _import_package():
    if not os.path.isfile(os.path.join(SRC, "torsioncert", "__init__.py")):
        sys.exit("bench: no torsioncert package under %s" % SRC)
    compileall.compile_dir(os.path.join(SRC, "torsioncert"), quiet=1)
    compileall.compile_dir(HERE, quiet=1, maxlevels=0)
    sys.path.insert(0, SRC)
    import torsioncert
    if os.path.dirname(os.path.dirname(torsioncert.__file__)) != SRC:
        sys.exit("bench: imported torsioncert from %s" % torsioncert.__file__)


def setup(workload, seed):
    """Set-up as a fresh interpreter pays it: import the CLI, parse the
    bundled data, build and lift the inputs, warm one input per class."""
    import torsioncert.cli  # noqa: F401  (its import time is set-up cost)
    import workloads
    cases = workloads.build(workload, seed, SRC)
    warmed = set()
    for case in cases:
        if case.cls not in warmed:
            warmed.add(case.cls)
            try:
                case.run()
            except Exception:
                pass  # the timed passes count every failure
    return cases


def setup_probe(args):
    """One launch of ``measure_setup``, launched at ``args.setup_probe`` on
    the system-wide clock ``perf_counter`` reads: set up, sampling the speed
    of the CPU this process runs on (it may be more or less contended than
    its parent's), and print the wall and calm times until the first
    verdict is ready."""
    with speed.Speed() as clock:
        _import_package()
        setup(args.workload, args.seed)
        seconds = perf_counter() - args.setup_probe
        k = clock.mark()
    print(json.dumps({"wall_s": clock.net(seconds, 0, k),
                      "calm_s": clock.calm(seconds, 0, k)}))


def measure_setup(args):
    """(median wall time, median calm time) of fresh interpreters, one after
    another, from launch until their first verdict is ready."""
    wall, calm = [], []
    for _ in range(SETUP_LAUNCHES):
        cmd = [sys.executable, os.path.abspath(__file__), "--workload",
               args.workload, "--seed", str(args.seed), "--setup-probe",
               repr(perf_counter())]
        # no timeout: with one, the wait polls in steps of up to 50 ms
        proc = subprocess.run(cmd, check=True, stdout=subprocess.PIPE,
                              text=True)
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        wall.append(probe["wall_s"])
        calm.append(probe["calm_s"])
    return statistics.median(wall), statistics.median(calm)


def run_pass(cases, order, results, times, clock=None):
    """One pass over every case in ``order``; returns its timed seconds.

    Each verdict is kept as its answer (or the error it raised), not as the
    returned object, so memory does not grow with the number of passes;
    its time is kept with the marks of a ``speed.Speed`` ``clock`` around
    it, if one is entered.
    """
    total = 0.0
    mark = clock.mark if clock is not None else (lambda: 0)
    for i in order:
        run = cases[i].run
        k0 = mark()
        t0 = perf_counter()
        try:
            out = run()
            err = None
        except Exception as exc:  # a verdict that raised is a counted failure
            out, err = None, (type(exc).__name__, str(exc))
        dt = perf_counter() - t0
        total += dt
        times[i].append((dt, k0, mark()))
        results[i].append((None if err else cases[i].answer(out), err))
    return total


def grade(case, answer, err, expected):
    """(status, signature) of one verdict against its expected answers."""
    if err is not None:
        return "raised", ("bareiss_rational_assert" if err == BAREISS_ASSERT
                          else "unexpected")
    if answer in expected:
        return "right", None
    if case.float_twin and answer is False and expected == {True}:
        return "wrong", "float_false_zero"
    return "wrong", "unexpected"


def check(cases, results, expected):
    """Tally every input once; ``ok`` only if all failures are known
    defects and every input gave the same outcome on every pass."""
    tally = {"attempted": 0, "right": 0, "raised": 0, "wrong": 0}
    signatures = {}
    ok = True
    for case, outs, exp in zip(cases, results, expected):
        seen = {grade(case, answer, err, exp) for answer, err in outs}
        ok = ok and len(seen) == 1
        status, sig = min(seen, key=repr)
        tally["attempted"] += 1
        tally[status] += 1
        if sig is not None:
            signatures[sig] = signatures.get(sig, 0) + 1
            ok = ok and sig in KNOWN_DEFECTS
    return ok, tally, signatures


def known_answers(cases):
    """Expected answers by the independent routes, cross-checked with the
    answers planted by construction."""
    expected, consistent = [], True
    for case in cases:
        exp = case.known()
        if case.planted is not None and exp != case.planted:
            consistent = False
            print("checker: %s: planted %r but known route says %r"
                  % (case.label, case.planted, exp))
        expected.append(exp)
    return expected, consistent


def negative_control(cases, results, expected):
    """Plant a wrong expected answer on one verdict that returned and was
    right; the check must then fail."""
    for i, outs in enumerate(results):
        answer, err = outs[0]
        if grade(cases[i], answer, err, expected[i])[0] == "right":
            corrupted = list(expected)
            corrupted[i] = {_Corrupt()}
            return not check(cases, results, corrupted)[0]
    return False


def _environment():
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "absent"
    return ("python %s, numpy %s, nproc %d (affinity %d), %s"
            % (platform.python_version(), numpy_version, os.cpu_count(),
               len(os.sched_getaffinity(0)), platform.machine()))


def run_workload(args):
    setup_wall, setup_s = (measure_setup(args) if not args.trace
                           else (None, None))
    cases = setup(args.workload, args.seed)
    n = len(cases)
    results = [[] for _ in range(n)]
    times = [[] for _ in range(n)]
    order_rng = random.Random("order:%d" % args.seed)
    order = list(range(n))

    tracer = clock = None
    untraced = traced = 0.0
    traced_verdicts = passes = 0
    if args.trace:
        import spans
        tracer = spans.Tracer()
        run_pass(cases, order, [[] for _ in range(n)], [[] for _ in range(n)])
    else:
        clock = speed.Speed()
    with clock or contextlib.nullcontext():
        start = perf_counter()
        while True:
            order_rng.shuffle(order)
            if tracer is None:
                run_pass(cases, order, results, times, clock)
            else:
                untraced += run_pass(cases, order, results, times)
                tracer.install()
                try:
                    traced += run_pass(cases, order, results, times)
                finally:
                    tracer.uninstall()
                traced_verdicts += n
            passes += 1
            # stop before a pass that would end past --seconds
            per_pass = (perf_counter() - start) / passes
            if passes >= MIN_PASSES and per_pass * (passes + 1) > args.seconds:
                break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    expected, consistent = known_answers(cases)
    ok, tally, signatures = check(cases, results, expected)
    control = negative_control(cases, results, expected)
    correct = ok and consistent and control

    attempted = tally["attempted"]
    failed = tally["raised"] + tally["wrong"]
    print("environment: %s" % _environment())
    print("workload %s, seed %d: %d inputs, %d passes, %d verdicts"
          % (args.workload, args.seed, n, passes, n * passes))
    print("inputs failed %d (raised %d, wrong %d): failed_share %.6f, "
          "wrong_share %.6f; by signature %s"
          % (failed, tally["raised"], tally["wrong"], failed / attempted,
             tally["wrong"] / attempted,
             json.dumps(signatures, sort_keys=True)))
    print("checker: routes consistent %s, negative control caught %s"
          % (consistent, control))

    if tracer is not None:
        metrics = tracer.metrics(traced_verdicts, traced / untraced - 1.0)
    else:
        # an input's latency is the median of its passes, each in calm time
        # (see speed.py and NOTES.md)
        per_input = [statistics.median(clock.calm(*t) for t in ts)
                     for ts in times]
        wall = [statistics.median(clock.net(*t) for t in ts) for ts in times]
        print("wall time: %.4g verdicts/s, p50 %.4g ms, p90 %.4g ms, "
              "set-up %.4g s; %d ticks, median %.4g ms (calm %.4g ms)"
              % (n / sum(wall), statistics.median(wall) * 1e3,
                 statistics.quantiles(wall, n=10)[8] * 1e3, setup_wall,
                 len(clock.ms), statistics.median(clock.ms),
                 speed.TICK_CALM_MS))
        values = {
            "verdicts_per_s": n / sum(per_input),
            "verdict_ms_p50": statistics.median(per_input) * 1e3,
            "verdict_ms_p90": statistics.quantiles(per_input, n=10)[8] * 1e3,
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
            "right_share": tally["right"] / attempted,
            "returned_share": (attempted - tally["raised"]) / attempted,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
    for name, m in metrics.items():
        print("%-48s %14.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def run_all(args):
    """Every workload in turn, each in its own process; a table at the end."""
    import workloads
    rows, status = [], 0
    for w in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", w,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=600)
        sys.stdout.write(proc.stdout)
        if proc.returncode:
            status = proc.returncode
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        status = status or (0 if result["correct"] else 1)
        rows.append((w, result))
    print("\n%-18s %-48s %14s %s" % ("workload", "metric", "value", "unit"))
    for w, result in rows:
        print("%-18s %-48s %14d inputs (%d failed, correct %s)"
              % (w, "attempted", result["attempted"], result["failed"],
                 result["correct"]))
        for name, m in result["metrics"].items():
            print("%-18s %-48s %14.6g %s" % (w, name, m["value"], m["unit"]))
    return status


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("certify_exact", "locus_float", "torsion_symbolic",
                            "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", type=float, help=argparse.SUPPRESS)
    args = p.parse_args()
    _pin_environment()
    if args.setup_probe is not None:
        setup_probe(args)
        return 0
    _import_package()
    if args.workload == "all":
        return run_all(args)
    run_workload(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
