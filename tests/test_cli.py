"""The command line surface: outputs, exit codes, determinism."""

import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import torsioncert
from torsioncert import twisted
from torsioncert.charvar import Character, lift, parse_character
from torsioncert.cli import main
from torsioncert.representation import SymPowerRep
from torsioncert.seeds import rng_for
from torsioncert.suturedcert import certify, pants_example

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def assert_leaves_numpy_unimported(argv):
    """Run ``main(argv)`` in a fresh interpreter: it must exit 0 without
    importing numpy."""
    script = ("import contextlib, io, sys\n"
              "from torsioncert import cli\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    code = cli.main(%r)\n"
              "assert code == 0, code\n"
              "assert 'numpy' not in sys.modules\n" % (argv,))
    src = os.path.dirname(os.path.dirname(torsioncert.__file__))
    path = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)
    subprocess.run([sys.executable, "-c", script], check=True,
                   env=dict(os.environ, PYTHONPATH=path))


class TestFox:
    def test_known_derivative(self, capsys):
        code, out, _ = run(capsys, "fox", "yxyXY", "y")
        assert code == 0
        assert "derivative: 1 + y*x - y*x*y*X*Y" in out

    def test_inferred_alphabet(self, capsys):
        code, out, _ = run(capsys, "fox", "abaBAB", "a")
        assert code == 0
        assert "derivative: 1 + a*b - a*b*a*B*A" in out

    def test_structured(self, capsys):
        code, out, _ = run(capsys, "--structured", "fox", "yxyXY", "x")
        assert code == 0
        doc = json.loads(out)
        assert doc["derivative"] == "y - y*x*y*X"


class TestCertify:
    def test_product_character(self, capsys):
        code, out, _ = run(capsys, "certify", "pants.sut",
                           "--char", "(0, 0, 0)")
        assert code == 0
        assert "determinant: 3" in out
        assert "is_product: true" in out

    def test_non_product_character(self, capsys):
        code, out, _ = run(capsys, "certify", "pants.sut",
                           "--char", "(4, 4, 5)")
        assert code == 1
        assert "is_product: false" in out

    def test_oracle_column(self, capsys):
        code, out, _ = run(capsys, "certify", "pants.sut",
                           "--rep", "schottky.rep", "--oracle")
        assert code == 1
        assert "oracle_h1: 1" in out

    def test_sym_power(self, capsys):
        code, out, _ = run(capsys, "certify", "pants.sut",
                           "--char", "(2, 2, 1)", "--sym-power", "3")
        assert code == 1

    def test_rational_character_with_fractional_bareiss_quotients(
            self, capsys, tmp_path):
        path = tmp_path / "yx.sut"
        path.write_text("ambient: x y\nimages:\nYX\nyx\n")
        code, out, err = run(capsys, "certify", str(path),
                             "--char", "(-7, 2, 17/4)", "--oracle")
        assert (code, err) == (0, "")
        assert "is_product: true" in out
        assert "oracle_h1: 0" in out

    def test_oracle_on_fourteen_generators(self, capsys, tmp_path):
        # the oracle takes no fresh letter per surface word, so it runs on
        # an alphabet of 14 generators, where a-z has no room for 14 more
        names = "abcdefghijklmn"
        shears = ("1,1;0,1", "1,0;1,1", "2,1;1,1", "1,-1;0,1", "1,0;-2,1")
        sut = _write(tmp_path, "big.sut", "ambient: %s\nimages:\n%s\n" % (
            " ".join(names),
            "\n".join(a + b.upper() + a for a, b in zip(names, names[1:]
                                                        + names[0]))))
        rep = _write(tmp_path, "big.rep",
                     "alphabet: %s\nscalar: rational\nsl: true\n%s\n" % (
                         " ".join(names),
                         "\n".join("%s: %s" % (a, shears[i % len(shears)])
                                   for i, a in enumerate(names))))
        code, out, err = run(capsys, "certify", sut, "--rep", rep,
                             "--oracle")
        assert (code, err) == (0, "")
        assert "oracle_h1: 0" in out.splitlines()

    def test_rejects_rep_and_char_together(self, capsys):
        code, _, err = run(capsys, "certify", "pants.sut",
                           "--char", "(0, 0, 0)", "--rep", "schottky.rep")
        assert code == 2
        assert "error" in err


class TestExactTwin:
    """A float "not a product" or singular image on real literals is
    decided again on their exact twin, read from the same text."""

    @pytest.mark.parametrize("char, N, twin", [
        ("(5.0, 5.0, 5.5)", "20", "(5, 5, 11/2)"),
        ("(3.0, 1.0, 2.0)", "8", "(3, 1, 2)"),
        ("(5.0, 1.0, 4.2)", "4", "(5, 1, 21/5)"),
        ("(1e300, 1, 1)", None, "(1%s, 1, 1)" % ("0" * 300)),
        ("(1e300, 1.0, 2.0)", None, "(1%s, 1, 2)" % ("0" * 300)),
        ("(1e200, 1.0, 2.0)", None, "(1%s, 1, 2)" % ("0" * 200))])
    def test_prints_the_report_of_the_exact_literal(self, capsys, char, N,
                                                    twin):
        # float zeros and images called singular; each twin is a product
        tail = ["--sym-power", N] if N else []
        code, out, err = run(capsys, "certify", "pants.sut", "--char", char,
                             *tail)
        assert (code, err) == (0, "")
        assert out == run(capsys, "certify", "pants.sut", "--char", twin,
                          *tail)[1]

    @pytest.mark.parametrize("char, N, code", [
        ("(0.1, -2.5, 1.5)", "3", 0),
        ("(1.5+0.5i, 2.0, 3.25-1i)", "8", 1)])
    def test_float_products_and_complex_literals_keep_the_float_report(
            self, capsys, char, N, code):
        # a float product needs no twin, and a complex literal has none
        # (ROADMAP item 12, Stage 2), so its float zero stands
        got, out, err = run(capsys, "certify", "pants.sut", "--char", char,
                            "--sym-power", N)
        assert (got, err) == (code, "")
        assert "character: Character(%s" % char[1:4] in out

    def test_float_verdicts_equal_the_exact_twin(self, capsys):
        # 200 seeded characters whose literals are integers or tenths in
        # [-6, 6], all written as decimals, at N = 2..8: the exit code of
        # the float command is the exact twin's verdict
        rng = rng_for(31, 1)
        wrong_float = 0
        pants = pants_example()
        for _ in range(200):
            tenths = [rng.randint(-6, 6) * 10 if rng.random() < 0.5
                      else rng.randint(-60, 60) for _ in range(3)]
            N = rng.randint(2, 8)
            char = "(%s)" % ", ".join("%.1f" % (t / 10) for t in tenths)
            twin = Character(*[Fraction(t, 10) for t in tenths])
            rep = lift(twin, warn=False)
            want = certify(pants, rep if N == 2 else SymPowerRep(rep, N))
            code, _, err = run(capsys, "certify", "pants.sut", "--char",
                               char, "--sym-power", str(N))
            assert (code, err) == (0 if want.is_product else 1, ""), char
            base = lift(parse_character(char), warn=False)
            wrong_float += want.is_product != certify(
                pants, base if N == 2 else SymPowerRep(base, N)).is_product
        # the float route alone is wrong on 134 of them (ROADMAP item 4)
        assert wrong_float >= 100


class TestTorsion:
    def test_trefoil_classical(self, capsys):
        code, out, _ = run(capsys, "torsion", "trefoil.pres", "--trivial-rep")
        assert code == 0
        assert "degree: 1" in out

    def test_fig8_rank_two(self, capsys):
        code, out, _ = run(capsys, "torsion", "fig8.pres", "--trivial-rep2")
        assert code == 0
        assert "t^-2 - 6*t^-1 + 11 - 6*t + t^2" in out

    def test_parabolic_genus_check(self, capsys):
        code, out, _ = run(capsys, "torsion", "fig8.pres", "--parabolic",
                           "--genus-check")
        assert code == 0
        assert "verdict: equality" in out

    @pytest.mark.parametrize("argv", [
        ["fig8.pres", "--parabolic"], ["trefoil.pres", "--parabolic"],
        ["trefoil.pres", "--trivial-rep"]], ids=" ".join)
    def test_genus_check_computes_the_torsion_once(self, capsys, monkeypatch,
                                                   argv):
        calls = []
        real = twisted.wada_torsion
        monkeypatch.setattr(twisted, "wada_torsion",
                            lambda pres, rep: calls.append(1)
                            or real(pres, rep))
        code, out, _ = run(capsys, "torsion", *argv, "--genus-check")
        assert code in (0, 1) and "verdict: " in out
        assert len(calls) == 1

    def test_torsion_errors_come_before_the_genus_hint(self, capsys,
                                                       tmp_path):
        pres = tmp_path / "free.pres"
        pres.write_text("generators: a b c\nrelators:\nabAB\n")
        code, _, err = run(capsys, "torsion", str(pres), "--trivial-rep",
                           "--genus-check")
        assert code == 2
        assert err == "error: deficiency 2, need 1\n"

    def test_parabolic_genus_check_leaves_numpy_unimported(self):
        # importing numpy costs about as much as this whole command
        assert_leaves_numpy_unimported(
            ["torsion", "fig8.pres", "--parabolic", "--genus-check"])

    def test_structured_fields(self, capsys):
        code, out, _ = run(capsys, "--structured", "torsion", "trefoil.pres",
                           "--parabolic")
        assert code == 0
        doc = json.loads(out)
        assert doc["degree"] == 2
        assert doc["norm_bound"] == "1"


class TestLocus:
    def test_plane_echo(self, capsys):
        code, out, _ = run(capsys, "locus", "--N", "2")
        assert code == 0
        assert "x + y - z - 3" in out
        assert "samples: 100" in out
        assert "agreements: 100" in out

    def test_plane_samples_check_the_printed_polynomial(self, capsys,
                                                        monkeypatch):
        # a wrong eliminated plane must show up as disagreeing samples
        from torsioncert import charvar
        from torsioncert.polynomial import parse_multi
        monkeypatch.setattr(charvar, "eliminate_L2",
                            lambda data: parse_multi("x + y - z - 4"))
        code, out, _ = run(capsys, "--structured", "locus", "--N", "2",
                           "--samples", "40")
        doc = json.loads(out)
        assert doc["plane"] == "x + y - z - 4"
        assert (code, doc["agreements"]) == (1, 38)

    def test_verify_small(self, capsys):
        code, out, _ = run(capsys, "locus", "--N", "3", "--samples", "10")
        assert code == 0
        assert "ok: true" in out

    def test_corrupt_fails(self, capsys):
        code, out, _ = run(capsys, "locus", "--N", "3", "--samples", "10",
                           "--corrupt")
        assert code == 1
        assert "ok: false" in out

    def test_scan_membership(self, capsys):
        code, out, _ = run(capsys, "locus", "--N", "6", "--scan",
                           "--samples", "5")
        assert code == 0
        assert "point_2_2_1_in_locus: true" in out

    def test_bad_index(self, capsys):
        code, _, err = run(capsys, "locus", "--N", "1")
        assert code == 2

    def test_locus_leaves_numpy_unimported(self):
        # the sampled z roots come from polynomial.aberth_roots
        assert_leaves_numpy_unimported(["locus", "--N", "3", "--samples", "5"])

    @pytest.mark.parametrize("argv", [["--N", "2"], ["--N", "3"],
                                      ["--N", "6", "--scan"]], ids=" ".join)
    def test_negative_samples_rejected(self, capsys, argv):
        code, out, err = run(capsys, "locus", *argv, "--samples", "-1")
        assert code == 2
        assert out == ""
        assert err == "error: --samples must be at least 0\n"


class TestCharlift:
    def test_quadext_lift(self, capsys):
        code, out, _ = run(capsys, "charlift", "(4, 4, 5)")
        assert code == 0
        assert "scalar_kind: quadext" in out
        assert "reducible: false" in out
        assert "sqrt(21)" in out

    def test_reducible_exit(self, capsys):
        code, out, _ = run(capsys, "charlift", "(2, 2, 2)")
        assert code == 1
        assert "reducible: true" in out

    def test_sym_power_images(self, capsys):
        code, out, _ = run(capsys, "charlift", "(3, 3, 3)", "--sym-power", "3")
        assert code == 0
        assert "sym3_image_x" in out


MALFORMED_LITERALS = ["1/0", "0/0", "1+1/0*sqrt(2)", "sqrt(4)", "sqrt(1)",
                      "1//2", "", "1e999"]


def _literal_kind(text):
    if "sqrt" in text:
        return "quadext"
    return "complex" if "e" in text else "rational"


class TestMalformedLiterals:
    """A bad scalar literal anywhere exits 2 with a one-line error."""

    @pytest.mark.parametrize("route", ["certify --char", "charlift", ".rep"])
    @pytest.mark.parametrize("literal", MALFORMED_LITERALS)
    def test_exit_two_with_one_error_line(self, capsys, tmp_path, literal,
                                          route):
        if route == ".rep":
            rep = tmp_path / "bad.rep"
            rep.write_text("alphabet: x y\nscalar: %s\nsl: false\n"
                           "x: %s,0;0,1\ny: 1,0;0,1\n"
                           % (_literal_kind(literal), literal))
            argv = ["certify", "pants.sut", "--rep", str(rep)]
        elif route == "charlift":
            argv = ["charlift", "(%s, 1, 2)" % literal]
        else:
            argv = ["certify", "pants.sut", "--char", "(%s, 1, 2)" % literal]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert err.count("\n") == 1
        assert "Traceback" not in err


# float characters whose values overflow, or whose lift divides by zero:
# each must end in a typed error, not a traceback
OVERFLOWING_FLOAT_RUNS = [
    # complex literals have no exact twin (ROADMAP item 12, Stage 2), so the
    # tol * max_row_norm test of the lift still calls x singular; the real
    # literals (1e300, 1.0, 2.0) and (1e200, 1.0, 2.0) are decided on their
    # twins (TestExactTwin)
    ["certify", "pants.sut", "--char", "(1e300+1i, 1.0, 2.0)"],
    ["certify", "pants.sut", "--char", "(1e200+1i, 1.0, 2.0)"],
    ["torsion", "fig8.pres", "--char", "(1e200, 1.0, 2.0)"],
    ["charlift", "(1e200, 1.0, 1.0)"],
    ["charlift", "(1.0, 1.0, -1e150)"],
    ["certify", "pants.sut", "--char", "(1.0, 1.0, -1e150)"],
    ["charlift", "(1.0, 1.0, -1e170)"],
    # finite parts whose modulus passes the float range
    ["certify", "pants.sut", "--char", "(1.5e308+1.5e308i, 2.0, 3.0)"],
]


class TestOverflowingFloats:
    """A float input that overflows, or that the float singularity test
    rejects, exits 2 with a one-line error."""

    @pytest.mark.parametrize("argv", OVERFLOWING_FLOAT_RUNS, ids=" ".join)
    def test_exit_two_with_one_error_line(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert err.count("\n") == 1
        assert "Traceback" not in err


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestArgumentErrors:
    """Arguments that do not fit exit 2 with a one-line error."""

    @pytest.mark.parametrize("argv, message", [
        (["certify", "pants.sut", "--char", "(3, 1, 2)", "--sym-power", "1"],
         "--sym-power needs N >= 2"),
        (["charlift", "(1, 1, 1)", "--sym-power", "1"],
         "--sym-power needs N >= 2"),
        (["certify", "pants.sut", "--rep", "{three_by_three}",
          "--sym-power", "3"], "--sym-power needs a rank-2 base"),
        (["certify", "pants.sut", "--rep", "{three_letters}"],
         "representation rank 3 does not fit alphabet 'x y'"),
        (["validate", "{notes}"],
         "{notes}: unknown file type (want .pres/.sut/.rep)"),
        (["fox", "xyz", "xy"], "generator must be a single letter of 'x y z'"),
        (["fox", "x", ""], "generator must be a single letter of 'x'"),
        (["torsion", "fig8.pres", "--rep", "schottky.rep"],
         "d2 . d1 != 0: twisted system does not kill relator 0"),
        (["locus", "--N", "2", "--corrupt"],
         "--corrupt applies to the --N 3 and --N 4 sampling only"),
        (["locus", "--N", "6", "--scan", "--corrupt"],
         "--corrupt applies to the --N 3 and --N 4 sampling only"),
        (["locus", "--N", "5", "--corrupt"],
         "--corrupt applies to the --N 3 and --N 4 sampling only"),
    ])
    def test_exit_two_with_one_error_line(self, capsys, tmp_path, argv,
                                          message):
        paths = {
            "three_by_three": _write(
                tmp_path, "three.rep", "alphabet: x y\nscalar: rational\n"
                "x: 1,0,0;0,1,0;0,0,1\ny: 2,0,0;0,1,0;0,0,1\n"),
            "three_letters": _write(
                tmp_path, "xyz.rep", "alphabet: x y z\nscalar: rational\n"
                "x: 1,1;0,1\ny: 1,0;1,1\nz: 2,0;0,1\n"),
            "notes": _write(tmp_path, "notes.txt", "not a data file\n"),
        }
        argv = [a.format(**paths) for a in argv]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == "error: %s\n" % message.format(**paths)


class TestUnsignedImaginaryLiterals:
    """``2i`` means ``+2i`` in a character, and ``1e300i`` overflows."""

    @pytest.mark.parametrize("route", ["certify", "charlift"])
    @pytest.mark.parametrize("text, signed", [("2i", "+2i"), (".5i", "+.5i")])
    def test_same_output_as_the_signed_literal(self, capsys, route, text,
                                               signed):
        def argv(literal):
            char = "(%s, 1.0, 2.0)" % literal
            if route == "certify":
                return ["certify", "pants.sut", "--char", char]
            return ["charlift", char]

        code, out, err = run(capsys, *argv(text))
        assert code in (0, 1) and err == ""
        assert (code, out) == run(capsys, *argv(signed))[:2]

    @pytest.mark.parametrize("argv", [
        ["certify", "pants.sut", "--char", "(1.0, 1.0, 1e300i)"],
        ["charlift", "(1.0, 1.0, 1e300i)"]], ids=" ".join)
    def test_overflow_exits_two_with_one_error_line(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "literal" not in err
        assert err.count("\n") == 1


class TestHugeExactValues:
    """Exact characters never pass through floats; mixed with floats, an
    exact value beyond the float range is a typed error."""

    BIG = "1" + "0" * 400

    @pytest.mark.parametrize("command, line", [
        (["certify", "pants.sut", "--char"], "is_product: true"),
        (["charlift"], "scalar_kind: rational")], ids=str)
    def test_exact_character(self, capsys, command, line):
        code, out, err = run(capsys, *command, "(%s, 1, 2)" % self.BIG)
        assert code == 0 and err == ""
        assert line in out.splitlines()

    def test_exact_oracle(self, capsys):
        # the oracle's chain condition tests exact zeros without a float
        # noise scale
        char = "(1%s, 1, 2)" % ("0" * 310)
        code, plain, _ = run(capsys, "--structured", "certify", "pants.sut",
                             "--char", char)
        assert code == 0
        code, out, err = run(capsys, "--structured", "certify", "pants.sut",
                             "--char", char, "--oracle")
        assert code == 0 and err == ""
        doc = json.loads(out)
        assert doc["oracle_h1"] == 0 and doc["is_product"] is True
        assert doc["determinant"] == json.loads(plain)["determinant"]

    @pytest.mark.parametrize("power", [200, 400])
    def test_exact_torsion_of_a_conjugated_representation(self, capsys,
                                                          tmp_path, power):
        # exact Wada torsion reads no float noise scale, so entries beyond
        # the float range (or whose scale ** n would be) change nothing
        from torsioncert.linalg import Matrix, matrix_str
        a, b = Matrix([[1, 1], [0, 1]]), Matrix([[1, 0], [-1, 1]])
        p = Matrix([[10 ** power, 1], [0, 1]])
        outs = []
        for images in ([a, b], [p * m * p.inverse() for m in (a, b)]):
            path = tmp_path / "rep.rep"
            path.write_text("alphabet: a b\nscalar: rational\nsl: true\n"
                            "a: %s\nb: %s\n" % tuple(map(matrix_str, images)))
            code, out, err = run(capsys, "torsion", "trefoil.pres", "--rep",
                                 str(path), "--genus-check")
            assert code == 0 and err == ""
            outs.append(out)
        assert outs[1] == outs[0]
        lines = outs[1].splitlines()
        for line in ["numerator: 1 - 2*t + 2*t^2 - 2*t^3 + t^4",
                     "denominator: 1 - 2*t + t^2", "degree: 2",
                     "verdict: equality"]:
            assert line in lines

    @pytest.mark.parametrize("command", [["certify", "pants.sut", "--char"],
                                         ["charlift"]], ids=" ".join)
    def test_mixed_with_a_float(self, capsys, command):
        code, out, err = run(capsys, *command, "(%s, 1.0, 2)" % self.BIG)
        assert code == 2 and out == ""
        assert err == "error: exact value too large for a float\n"


class TestValidate:
    def test_bundle_is_clean(self, capsys):
        code, out, _ = run(capsys, "validate")
        assert code == 0
        for name in ("trefoil.pres", "fig8.pres", "pants.sut",
                     "schottky.rep"):
            assert name in out

    def test_each_fixture_fails(self, capsys):
        for name in ("bad_relator.pres", "bad_letter.pres",
                     "bad_alexander.pres", "bad_images.sut",
                     "bad_matrix.rep"):
            code, _, err = run(capsys, "validate",
                               os.path.join(FIXTURES, name))
            assert code == 2, name
            assert err.startswith("error:"), name

    def test_good_file_by_path(self, capsys):
        import torsioncert
        path = os.path.join(os.path.dirname(torsioncert.__file__),
                            "data", "trefoil.pres")
        code, out, _ = run(capsys, "validate", path)
        assert code == 0

    @pytest.mark.parametrize("name, message", [
        ("bad_alexander.pres",
         "%s: recorded polynomial disagrees with the computed one"),
        ("bad_images.sut",
         "need 2 images for rank 2, got 1 (unbalanced data)"),
        ("bad_letter.pres",
         "line 4: letter 'c' not in alphabet Alphabet('a b')"),
        ("bad_matrix.rep", "image of generator 'x' is singular"),
        ("bad_relator.pres", "relator Aba is not cyclically reduced"),
        ("bad_sign.pres",
         "line 8: sign without a term in '1 - t + t^2 -'"),
        ("mixed_field.rep", "cannot mix sqrt(2) with sqrt(3)"),
    ])
    def test_fixture_message(self, capsys, name, message):
        path = os.path.join(FIXTURES, name)
        code, out, err = run(capsys, "validate", path)
        assert (code, out) == (2, "")
        # every message names the file first; a reader's message follows
        expected = message if "%s" in message else "%s: " + message
        assert err == "error: %s\n" % expected.replace("%s", path)


BUNDLED_TEXT = {
    "trefoil.pres": "name: trefoil\ngenerators: a b\nrelators:\nabaBAB\n"
                    "meridian: a\nlongitude: abababAAAAAA\ngenus: 1\n"
                    "alexander: 1 - t + t^2\n",
    "fig8.pres": "name: fig8\ngenerators: a b\nrelators:\naBAbaBabAB\n"
                 "meridian: a\nlongitude: bABaaBAb\ngenus: 1\n"
                 "alexander: 1 - 3*t + t^2\n",
    "pants.sut": "name: pants\nambient: x y\nimages:\nx\nyxyXY\n",
    "schottky.rep": "alphabet: x y\nscalar: rational\nsl: true\n"
                    "x: 1,1;2,3\ny: 1,-2;-1,3\n",
}


@pytest.mark.parametrize("name", sorted(BUNDLED_TEXT))
def test_bundled_file_prints_pinned_bytes(name):
    from torsioncert import representation, suturedcert, twisted
    read, write = {
        ".pres": (twisted.presentation_from_text,
                  twisted.presentation_to_text),
        ".sut": (suturedcert.sutured_from_text, suturedcert.sutured_to_text),
        ".rep": (representation.rep_from_text, representation.rep_to_text),
    }[os.path.splitext(name)[1]]
    path = os.path.join(os.path.dirname(torsioncert.__file__), "data", name)
    with open(path, encoding="utf-8") as fh:
        assert write(read(fh.read())) == BUNDLED_TEXT[name]


class TestConfig:
    def test_structured_output_is_deterministic(self, capsys):
        code1, out1, _ = run(capsys, "--structured", "locus", "--N", "3",
                             "--samples", "6")
        code2, out2, _ = run(capsys, "--structured", "locus", "--N", "3",
                             "--samples", "6")
        assert code1 == code2 == 0
        assert out1 == out2

    def test_seed_changes_draws(self, capsys):
        _, out1, _ = run(capsys, "--structured", "--seed", "1", "locus",
                         "--N", "2")
        _, out2, _ = run(capsys, "--structured", "--seed", "2", "locus",
                         "--N", "2")
        d1 = json.loads(out1)
        d2 = json.loads(out2)
        assert d1["plane"] == d2["plane"]
        assert d1["agreements"] == d2["agreements"] == 100

    def test_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("TORSION_CERT_SEED", "99")
        code, out, _ = run(capsys, "--structured", "locus", "--N", "3",
                           "--samples", "4")
        assert code == 0
        assert json.loads(out)["seed"] == 99

    def test_tol_does_not_leak_into_a_later_call(self, capsys, monkeypatch):
        # a later call without --tol runs at the default tolerance, not at
        # the one an earlier call in the same process set
        monkeypatch.delenv("TORSION_CERT_TOL", raising=False)
        argv = ["certify", "pants.sut", "--char", "(3.0, 1.0, 2.0)"]
        fresh = run(capsys, *argv)
        assert fresh[0] in (0, 1) and fresh[2] == ""
        run(capsys, "--tol", "0.5", *argv)
        assert run(capsys, *argv) == fresh

    def test_env_tol_must_be_positive(self, capsys, monkeypatch):
        monkeypatch.setenv("TORSION_CERT_TOL", "-1")
        code, _, err = run(capsys, "fox", "xy", "x")
        assert code == 2

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "certify", "no_such_file.sut",
                           "--char", "(0, 0, 0)")
        assert code == 2
        assert "error" in err
