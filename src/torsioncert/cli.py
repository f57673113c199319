"""Command-line surface: Fox derivatives, product certification, torsion
degrees, locus verification, character lifting, and data-file linting.

Exit codes are 0 for an affirmative result, 1 for a valid negative
(not a product, a failed sample run, a non-equality genus verdict), and 2
for any error.  Structured mode prints one JSON document with sorted keys
so identical seeds and flags give byte-identical output.
"""

import argparse
import json
import os
import sys

from . import charvar as _cv
from . import representation as _rp
from . import scalar as _s
from . import suturedcert as _sc
from . import twisted as _tw
from .errors import NonFinite, SingularImage, TorsionCertError
from .freegroup import Alphabet, Word, fox_derivative
from .linalg import matrix_str
from .polynomial import laurent_str, multi_str
from .seeds import rng_for

DEFAULT_SEED = 7


def _emit(args, pairs):
    """Print a report: key/value lines, or one JSON object."""
    if args.structured:
        sys.stdout.write(json.dumps(dict(pairs), sort_keys=True,
                                    separators=(",", ":")) + "\n")
    else:
        for key, value in pairs:
            if isinstance(value, bool):
                value = "true" if value else "false"
            sys.stdout.write("%s: %s\n" % (key, value))


def _read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _locate(args, path):
    """A bare filename that is not present locally falls back to the
    bundled data directory."""
    if os.path.exists(path) or os.sep in path:
        return path
    candidate = os.path.join(args.data_dir, path)
    if os.path.exists(candidate):
        return candidate
    return path


def _word_alphabet(word_text, extra):
    letters = {c.lower() for c in word_text if c.isalpha()}
    letters.update(c.lower() for c in extra if c.isalpha())
    if not letters:
        letters = {"x"}
    return Alphabet(" ".join(sorted(letters)))


def cmd_fox(args):
    alphabet = _word_alphabet(args.word, args.generator)
    w = Word.from_string(alphabet, args.word)
    gen = args.generator.strip()
    if len(gen) != 1 or gen not in alphabet.names:
        raise TorsionCertError("generator must be a single letter of %r"
                               % " ".join(alphabet.names))
    d = fox_derivative(w, alphabet.names.index(gen))
    _emit(args, [("word", str(w)), ("generator", gen),
                 ("derivative", str(d))])
    return 0


def _rep_for_alphabet(rep, alphabet):
    """The same images read over another alphabet of equal rank."""
    if rep.alphabet == alphabet:
        return rep
    if len(rep.alphabet) != len(alphabet):
        raise TorsionCertError(
            "representation rank %d does not fit alphabet %r"
            % (len(rep.alphabet), " ".join(alphabet.names)))
    return _rp.Representation(alphabet, rep.images, sl_flag=rep.sl_flag)


def _rep_from_args(args, alphabet, pres=None):
    sources = [bool(args.char), bool(args.rep_file),
               bool(getattr(args, "parabolic", False)),
               bool(getattr(args, "trivial_rep", False)),
               bool(getattr(args, "trivial_rep2", False))]
    if sum(sources) != 1:
        raise TorsionCertError("pick exactly one representation source")
    if args.char:
        c = _cv.parse_character(args.char)
        return _rep_for_alphabet(_cv.lift(c, warn=False), alphabet), c
    if args.rep_file:
        rep = _rp.rep_from_text(_read(_locate(args, args.rep_file)))
        return _rep_for_alphabet(rep, alphabet), None
    if getattr(args, "parabolic", False):
        return _rp.solve_parabolic(pres), None
    if getattr(args, "trivial_rep", False):
        return _tw.trivial_rep(alphabet, 1), None
    return _tw.trivial_rep(alphabet, 2), None


def cmd_certify(args):
    """A float "not a product", singular image or non-finite value on real
    literals is decided again on their exact twin, whose report is
    printed."""
    data = _sc.sutured_from_text(_read(_locate(args, args.sutured_file)))
    twin = _cv.exact_twin(args.char) if args.char else None
    try:
        pairs, product = _certificate(args, data,
                                      *_rep_from_args(args, data.alphabet))
    except (SingularImage, NonFinite):
        if twin is None:
            raise
        product = False
    if twin is not None and not product:
        pairs, product = _certificate(args, data, _rep_for_alphabet(
            _cv.lift(twin, warn=False), data.alphabet), twin)
    _emit(args, pairs)
    return 0 if product else 1


def _certificate(args, data, rep, char):
    """The report of ``certify`` on data through rep, and its verdict."""
    N = args.sym_power
    if N is not None:
        if N < 2:
            raise TorsionCertError("--sym-power needs N >= 2")
        if rep.n != 2:
            raise TorsionCertError("--sym-power needs a rank-2 base")
        if N != 2:
            rep = _rp.SymPowerRep(rep, N)
    cert = _sc.certify(data, rep, with_oracle=args.oracle)
    pairs = [("data", data.name or args.sutured_file),
             ("representation", cert.rep_description)]
    if char is not None:
        pairs.append(("character", repr(char)))
    if N is not None:
        pairs.append(("sym_power", N))
    pairs += [("determinant", _s.scalar_str(cert.determinant)),
              ("is_product", cert.is_product)]
    if cert.oracle_h1 is not None:
        pairs.append(("oracle_h1", cert.oracle_h1))
    if cert.extended:
        pairs.append(("extended", True))
    return pairs, cert.is_product


def cmd_torsion(args):
    pres = _tw.presentation_from_text(
        _read(_locate(args, args.presentation_file)))
    rep, char = _rep_from_args(args, pres.alphabet, pres=pres)
    result = _tw.wada_torsion(pres, rep)
    pairs = [("presentation", pres.name or args.presentation_file),
             ("representation", rep.description())]
    if char is not None:
        pairs.append(("character", repr(char)))
    pairs += [("numerator", laurent_str(result.numerator)),
              ("denominator", laurent_str(result.denominator)),
              ("column_deleted", result.column_deleted),
              ("degree", result.degree if result.degree > float("-inf")
               else "-infinity"),
              ("norm_bound", str(result.norm_bound)),
              ("genus_bound", str(result.genus_bound_int()))]
    code = 0
    if args.genus_check:
        verdict = _tw.conjecture_check(pres, rep, result)
        pairs += [("genus_hint", verdict.genus_hint),
                  ("target_degree", verdict.target),
                  ("verdict", verdict.verdict)]
        if verdict.longitude_trace is not None:
            pairs.append(("longitude_trace",
                          _s.scalar_str(verdict.longitude_trace)))
        code = 0 if verdict.verdict == "equality" else 1
    _emit(args, pairs)
    return code


def cmd_locus(args):
    N = args.N
    if N < 2:
        raise TorsionCertError("--N must be at least 2")
    if args.samples < 0:
        raise TorsionCertError("--samples must be at least 0")
    if args.corrupt and (args.scan or N == 2 or N > 4):
        raise TorsionCertError("--corrupt applies to the --N 3 and --N 4 "
                               "sampling only")
    pants = _sc.pants_example()
    if args.scan or N > 4:
        zeros = 0
        for i in range(args.samples):
            rng = rng_for(args.seed, i)
            c = _cv.Character(rng.randint(-5, 5), rng.randint(-5, 5),
                              rng.randint(-5, 5))
            det, scale = _cv.locus_det_with_scale(c, pants, N)
            if _s.zero_test(det, scale=scale):
                zeros += 1
        det221, scale221 = _cv.locus_det_with_scale(
            _cv.Character(2, 2, 1), pants, N)
        member = _s.zero_test(det221, scale=scale221)
        _emit(args, [("N", N), ("samples", args.samples),
                     ("seed", args.seed), ("zero_count", zeros),
                     ("point_2_2_1_in_locus", member)])
        return 0 if member else 1
    if N == 2:
        plane = _cv.eliminate_L2(pants)
        agree = 0
        for i in range(args.samples):
            rng = rng_for(args.seed, i)
            c = _cv.Character(rng.randint(-6, 6), rng.randint(-6, 6),
                              rng.randint(-6, 6))
            det = _cv.locus_det_with_scale(c, pants, 2)[0]
            on_plane = plane.evaluate((c.xbar, c.ybar, c.zbar, 0)) == 0
            if (det == 0) == on_plane:
                agree += 1
        _emit(args, [("N", 2), ("plane", multi_str(plane)),
                     ("samples", args.samples), ("seed", args.seed),
                     ("agreements", agree)])
        return 0 if agree == args.samples else 1
    # the sampling verifier has its own default tolerance; an explicit
    # tolerance, from --tol or TORSION_CERT_TOL, overrides it
    ltol = args.tol if args.tol is not None else 1e-6
    report = _cv.locus_verify(N, samples=args.samples, seed=args.seed,
                              tol=ltol, corrupt=args.corrupt)
    _emit(args, [("N", report.N), ("samples", report.samples),
                 ("seed", report.seed),
                 ("on_checked", report.on_checked),
                 ("on_passed", report.on_passed),
                 ("off_checked", report.off_checked),
                 ("off_passed", report.off_passed),
                 ("corrupt", report.corrupt),
                 ("ok", report.ok())])
    return 0 if report.ok() else 1


def cmd_charlift(args):
    """The trace-normal-form lift of a character (``charvar.trace_lift``),
    not the smallest field's that ``certify`` takes: its images and their
    symmetric powers, with the character's commutator trace."""
    c = _cv.parse_character(args.character)
    reducible = _cv.is_reducible_character(c)
    rep = _cv.trace_lift(c, warn=False)
    pairs = [("character", repr(c)),
             ("scalar_kind", rep.scalar_kind),
             ("reducible", reducible),
             ("commutator_trace", _s.scalar_str(_cv.commutator_trace(c)))]
    for name, m in zip(rep.alphabet.names, rep.images):
        pairs.append(("image_%s" % name, matrix_str(m)))
    if args.sym_power is not None:
        if args.sym_power < 2:
            raise TorsionCertError("--sym-power needs N >= 2")
        big = _rp.SymPowerRep(rep, args.sym_power)
        for name, m in zip(big.alphabet.names, big.images):
            pairs.append(("sym%d_image_%s" % (args.sym_power, name),
                          matrix_str(m)))
    _emit(args, pairs)
    return 1 if reducible else 0


# data-file suffix -> (reader, writer, description of what was read)
_FORMATS = {
    ".pres": (_tw.presentation_from_text, _tw.presentation_to_text,
              lambda pres: "presentation %r" % (pres.name or "unnamed")),
    ".sut": (_sc.sutured_from_text, _sc.sutured_to_text,
             lambda data: "sutured data %r" % (data.name or "unnamed")),
    ".rep": (_rp.rep_from_text, _rp.rep_to_text,
             lambda rep: rep.description()),
}


def _validate_one(path):
    text = _read(path)
    suffix = next((s for s in _FORMATS if path.endswith(s)), None)
    if suffix is None:
        raise TorsionCertError("%s: unknown file type (want .pres/.sut/.rep)"
                               % path)
    read, write, describe = _FORMATS[suffix]
    try:
        obj = read(text)
    except (TorsionCertError, ValueError) as exc:
        raise TorsionCertError("%s: %s" % (path, exc)) from None
    if write(read(write(obj))) != write(obj):
        raise TorsionCertError("%s: print/parse round trip drifted" % path)
    if suffix == ".pres" and not _tw.check_alexander(obj):
        raise TorsionCertError(
            "%s: recorded polynomial disagrees with the computed one" % path)
    return describe(obj)


def cmd_validate(args):
    paths = args.files
    if not paths:
        paths = sorted(
            os.path.join(args.data_dir, f)
            for f in os.listdir(args.data_dir)
            if f.endswith(tuple(_FORMATS)))
    pairs = []
    for path in paths:
        located = _locate(args, path)
        pairs.append((os.path.basename(path), _validate_one(located)))
    _emit(args, pairs)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="torsioncert",
        description="certificates, torsion polynomials, and failure loci "
                    "for sutured handlebodies and knot groups")
    parser.add_argument("--tol", type=float, default=None,
                        help="zero-test tolerance (env TORSION_CERT_TOL)")
    parser.add_argument("--seed", type=int, default=None,
                        help="master random seed (env TORSION_CERT_SEED)")
    parser.add_argument("--structured", action="store_true",
                        help="machine-readable JSON output")
    parser.add_argument("--data-dir", default=None,
                        help="directory of bundled data files")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fox", help="one Fox derivative of a word")
    p.add_argument("word")
    p.add_argument("generator")

    p = sub.add_parser("certify", help="homology-product certificate")
    p.add_argument("sutured_file")
    p.add_argument("--char", default=None,
                   help="character literal like '(4, 4, 5)'")
    p.add_argument("--rep", dest="rep_file", default=None,
                   help="representation file")
    p.add_argument("--oracle", action="store_true",
                   help="cross-check with the rank oracle")
    p.add_argument("--sym-power", dest="sym_power", type=int, default=None)

    p = sub.add_parser("torsion", help="torsion polynomial of a "
                                       "deficiency-1 presentation")
    p.add_argument("presentation_file")
    p.add_argument("--char", default=None)
    p.add_argument("--rep", dest="rep_file", default=None)
    p.add_argument("--parabolic", action="store_true",
                   help="solve for a parabolic representation")
    p.add_argument("--trivial-rep", dest="trivial_rep", action="store_true",
                   help="rank-1 trivial coefficients")
    p.add_argument("--trivial-rep2", dest="trivial_rep2",
                   action="store_true", help="rank-2 trivial coefficients")
    p.add_argument("--genus-check", dest="genus_check", action="store_true")

    p = sub.add_parser("locus", help="verify or scan a failure locus")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--corrupt", action="store_true",
                   help="negative control: corrupt the polynomial "
                        "(--N 3 and --N 4 sampling only)")
    p.add_argument("--scan", action="store_true",
                   help="pointwise membership scan instead of polynomial "
                        "verification")

    p = sub.add_parser("charlift", help="explicit lift of a character")
    p.add_argument("character")
    p.add_argument("--sym-power", dest="sym_power", type=int, default=None)

    p = sub.add_parser("validate", help="lint data files (bundled ones "
                                        "when none are given)")
    p.add_argument("files", nargs="*")
    return parser


_COMMANDS = {
    "fox": cmd_fox,
    "certify": cmd_certify,
    "torsion": cmd_torsion,
    "locus": cmd_locus,
    "charlift": cmd_charlift,
    "validate": cmd_validate,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.tol is None and "TORSION_CERT_TOL" in os.environ:
            args.tol = float(os.environ["TORSION_CERT_TOL"])
        _s.set_zero_tolerance(_s.DEFAULT_TOLERANCE if args.tol is None
                              else args.tol)
        if args.seed is None:
            args.seed = int(os.environ.get("TORSION_CERT_SEED", DEFAULT_SEED))
        args.seed &= (1 << 64) - 1
        if args.data_dir is None:
            args.data_dir = os.path.join(os.path.dirname(__file__), "data")
        return _COMMANDS[args.command](args)
    except (TorsionCertError, OSError, ValueError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
