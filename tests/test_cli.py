import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from wordmaps.cli import main

from conftest import POW2_STUCK_SYS


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


GOLDEN = [
    (("eval", "factorial", "FC", "3"), "24\n"),
    (("eval", "factorial", "FC", "0"), "1\n"),
    (("eval", "npown", "f", "3"), "aaabccc\n"),
    (("eval", "fib", "F", "0"), "1\n"),
    (("eval", "fib", "F", "10"), "89\n"),
    (("eval", "factorial", "u", "2"), "babaab\n"),
    (("eval", "factorial", "UV", "babaab"), "6\n"),
    (("eval", "npown", "H", "bcc"), "{x -> x x; y -> x}\n"),
    (("eval", "npown", "H", "ccc"), "{x -> x; y -> x x x y}\n"),
    (("eval", "fib", "Fword.f", "6"), "bbbbbbbbbbbbb\n"),
    (("run-pda", "identity-pda", "id1", "abba"), "Accepted abba\n"),
    (("run-pda", "pow2-pda", "pow2", "aaa"), "Accepted bbbbbbbb\n"),
    (("compose", "gmap", "nu", "fibrep", "101"), "8\n"),
    (("compose", "gmap", "nu", "fibword", "101", "--as-length"), "8\n"),
    (("eval", "gmap", "fibrep", "12"), "233\n"),
    (("compose", "gmap", "nu", "fibword", "10111", "--as-length"), "46368\n"),
    (("run-pda", "pow2-pda", "pow2", "3"), "Accepted bbbbbbbb\n"),
    (("eval", "gmap", "fibword", "4"), "bbbbb\n"),
    # the length of an hdt0l value comes from its length representation; the
    # word b^F(101) fits no memory
    (("eval", "gmap", "fibword", "101", "--as-length"), "927372692193078999176\n"),
]


@pytest.mark.parametrize("argv,expected", GOLDEN)
def test_golden_outputs(capsys, argv, expected):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    assert out == expected


def test_equiv_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "equiv", "fibonacci", "F", "fibonacci", "F3")
    assert code == 0 and out == "Equal\n"
    code, out, _ = run_cli(capsys, "equiv", "fibonacci", "F", "fibonacci", "Fbad")
    assert code == 1 and out == "NotEqual a\n"


def test_equiv_fraction_targets(capsys, tmp_path):
    text = """
poly pair {
  input: a
  ring: N
  Hi(eps) = 2
  Lo(eps) = 1
  Two(eps) = 2
  One(eps) = 1
  Hi(a w) = 2 * Hi
  Lo(a w) = 2 * Lo
  Two(a w) = Two
  One(a w) = One
}

poly direct {
  input: a
  ring: N
  E(eps) = 1
  Z(eps) = 0
  One(eps) = 1
  E(a w) = 2 * E
  Z(a w) = Z
  One(a w) = One
}

frac telescoped {
  system: pair
  g: Hi
  h: Lo
  fp: Two
  gp: One
}

frac plain {
  system: direct
  g: E
  h: Z
  fp: One
  gp: Z
}
"""
    path = tmp_path / "fracs.sys"
    path.write_text(text)
    code, out, _ = run_cli(capsys, "equiv", str(path), "telescoped", str(path), "plain")
    assert code == 0 and out == "Equal\n"


TWO_ALPHABETS = """
poly P {
  input: a
  X(eps) = 1
  X(a w) = 2 * X
}

poly Q {
  input: b
  X(eps) = 1
  X(b w) = X + 2
}
"""


def test_equiv_parses_a_file_named_by_both_targets_once(capsys, monkeypatch, tmp_path):
    import wordmaps.cli as cli

    parsed = []
    parse = cli.parse_file
    monkeypatch.setattr(cli, "parse_file", lambda text, filename: parsed.append(filename) or parse(text, filename))
    path = tmp_path / "two.sys"
    path.write_text(TWO_ALPHABETS.replace("input: b", "input: a").replace("(b w)", "(a w)"))
    cases = [
        (("fibonacci", "F", "fibonacci", "F3"), (0, "Equal\n", ""), ["fibonacci"]),
        (("fibonacci", "F", "fibonacci", "Fbad"), (1, "NotEqual a\n", ""), ["fibonacci"]),
        (("skolem-demo", "fibz", "fibonacci", "F"), (0, "Equal\n", ""), ["skolem-demo", "fibonacci"]),
        ((str(path), "P", str(path), "Q"), (1, "NotEqual a\n", ""), [str(path)]),
    ]
    for argv, result, files in cases:
        parsed.clear()
        assert run_cli(capsys, "equiv", *argv) == result
        assert parsed == files


def test_equiv_refuses_systems_over_different_alphabets(capsys, tmp_path):
    path = tmp_path / "two.sys"
    path.write_text(TWO_ALPHABETS)
    assert run_cli(capsys, "equiv", str(path), "P", str(path), "Q") == (
        2, "", "error: product systems must share their input alphabet\n"
    )


def test_equiv_rejects_a_target_that_is_neither_poly_nor_frac(capsys):
    for argv in (("gmap", "nu", "gmap", "nu"), ("fibonacci", "F", "fibonacci", "fibrep")):
        code, out, err = run_cli(capsys, "equiv", *argv)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "cannot decide" in err


MIXED = """
poly X {
  input: a b
  ring: N
  X(eps) = 1
  X(a w) = 2 * X
  X(b w) = X + 1
}

poly quot {
  input: a b
  ring: N
  N(eps) = 1
  M(eps) = 1
  D(eps) = 1
  C(eps) = 0
  Z(eps) = 0
  N(a w) = 4 * N
  N(b w) = N + D
  M(a w) = 4 * M
  M(b w) = M + D + C
  D(a w) = 2 * D
  D(b w) = D
  C(a w) = C + D
  C(b w) = C
  Z(a w) = Z
  Z(b w) = Z
}

frac same {
  system: quot
  g: N
  h: Z
  fp: D
  gp: Z
}

frac drifts {
  system: quot
  g: M
  h: Z
  fp: D
  gp: Z
}
"""


def test_equiv_decides_a_frac_against_an_indexed_poly_target(capsys, tmp_path):
    from fractions import Fraction
    from itertools import product

    from wordmaps.cli import load_file
    from wordmaps.recurrences import eval_polynomial_vector
    from wordmaps.words import show_word

    path = tmp_path / "mixed.sys"
    path.write_text(MIXED)
    sf = load_file(str(path))
    quot, x = sf.resolve("quot", "poly")[1], sf.resolve("X", "poly")[1]
    words = [w for n in range(9) for w in product("ab", repeat=n)]

    def brute(frac):
        spec = sf.resolve(frac, "frac")[1]
        for w in words:
            v = eval_polynomial_vector(quot, w)
            q = Fraction(v[spec.num_plus] - v[spec.num_minus], v[spec.den_plus] - v[spec.den_minus])
            if q != eval_polynomial_vector(x, w)["X"]:
                return 1, f"NotEqual {show_word(w)}\n"
        return 0, "Equal\n"

    expected = {frac: brute(frac) for frac in ("same", "drifts")}
    assert expected["same"] == (0, "Equal\n") and expected["drifts"][0] == 1
    for frac, verdict in expected.items():
        for argv in ((str(path), frac, str(path), "X"), (str(path), "X.X", str(path), frac)):
            code, out, _ = run_cli(capsys, "equiv", *argv)
            assert (code, out) == verdict, argv


def test_main_builds_its_parser_once_and_reuses_it_after_an_error(capsys, monkeypatch):
    import wordmaps.cli as cli

    with pytest.raises(SystemExit) as exc:
        main(["eval", "fib"])  # too few arguments: argparse exits 2
    assert exc.value.code == 2
    capsys.readouterr()

    def forbidden():
        raise AssertionError("main built a second parser")

    monkeypatch.setattr(cli, "build_parser", forbidden)
    # alternating subcommands and options: none leaks into the next call
    calls = [
        (("eval", "factorial", "u", "4", "--as-length"), 0, "15\n"),
        (("run-pda", "pow2-pda", "pow2", "aaa"), 0, "Accepted bbbbbbbb\n"),
        (("eval", "factorial", "u", "2"), 0, "babaab\n"),
        (("equiv", "fibonacci", "F", "fibonacci", "Fbad"), 1, "NotEqual a\n"),
        (("compose", "gmap", "nu", "fibword", "101", "--as-length"), 0, "8\n"),
        (("equiv", "fibonacci", "F", "fibonacci", "F3"), 0, "Equal\n"),
        (("eval", "fibonacci", "Nope", "3"), 2, ""),
        (("eval", "fib", "F", "10"), 0, "89\n"),
    ]
    for argv, code, out in calls * 2:
        assert run_cli(capsys, *argv)[:2] == (code, out)


def test_error_exit_code(capsys):
    code, out, err = run_cli(capsys, "eval", "fibonacci", "Nope", "3")
    assert code == 2
    assert "Nope" in err


@pytest.mark.parametrize(
    "argv",
    [("eval", "factorial", "FC", "2000"), ("compose", "gmap", "nu", "fibrep", "1111111111111111")],
)
def test_integer_beyond_the_digit_limit_is_an_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "digits" in err


@pytest.mark.parametrize("command", [("eval", "fibonacci", "F"), ("run-pda", "pow2-pda", "pow2")])
def test_an_integer_argument_too_large_for_a_word_is_an_error(capsys, command):
    # 10^20 does not fit an index
    code, out, err = run_cli(capsys, *command, str(10**20))
    assert (code, out) == (2, "")
    assert err == "error: an integer argument of 21 digits is too large for a word\n"


@pytest.mark.parametrize("argument, expected", [
    ("٠" * 19, "1\n"),  # 19 Arabic-Indic zeros: the count 0
    ("٠٠٥", "8\n"),
    ("0" * 19 + "5", "8\n"),
    ("0" * 5000 + "7", "21\n"),  # more digits than int() takes from a string
])
def test_an_integer_argument_is_read_by_its_significant_digits(capsys, argument, expected):
    assert run_cli(capsys, "eval", "fibonacci", "F", argument) == (0, expected, "")


def test_an_integer_argument_that_fits_no_memory_is_an_error(capsys):
    # 18 digits fit an index, and the allocator refuses the word at once; a
    # count that an address space could map would be allocated, so none is tried
    code, out, err = run_cli(capsys, "eval", "fibonacci", "F", "999999999999999999")
    assert (code, out) == (2, "")
    assert err == "error: a word of 999999999999999999 letters does not fit in memory\n"


def test_a_result_that_fits_no_memory_is_an_error():
    # the word b^F(101) outgrows a 400 MB address space, which the child
    # process sets for itself alone
    pytest.importorskip("resource")
    script = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (400 << 20, 400 << 20))\n"
        "from wordmaps.cli import main\n"
        "sys.exit(main(['eval', 'gmap', 'fibword', '101']))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == "error: the result does not fit in memory\n"


def test_a_digit_that_is_not_decimal_is_not_an_integer_argument(capsys):
    code, out, err = run_cli(capsys, "eval", "fibonacci", "F", "²")
    assert (code, out, err) == (2, "", "error: letter '²' is outside the input alphabet\n")


def test_a_digit_that_is_not_decimal_in_a_rule_is_a_parse_error(capsys, tmp_path):
    path = tmp_path / "p.sys"
    path.write_text("poly p {\n  input: a\n  p(eps) = 1\n  p(a w) = p^²\n}\n")
    code, out, err = run_cli(capsys, "eval", str(path), "p", "3")
    assert (code, out) == (2, "")
    assert err == f"error: {path}:4: in rule p(a w): unexpected character '²' in expression\n"


@pytest.mark.parametrize(
    "argv,expected",
    [
        (("compose", "gmap", "nu", "fibrep", "0" * 64 + "1"), "1\n"),
        (("compose", "gmap", "nu", "fibword", "0" * 64 + "1"), "b\n"),
        (("eval", "gmap", "nu", "0" * 64), "eps\n"),
    ],
)
def test_evaluation_computes_only_the_indices_it_reads(capsys, argv, expected):
    # the helper p(w) = x^(2^|w|) is never read here; computing it would
    # build 2^64 letters, or their Fibonacci matrix
    began = time.perf_counter()
    assert run_cli(capsys, *argv)[:2] == (0, expected)
    assert time.perf_counter() - began < 2


_DIGIT_LINREPS = """
linrep r {
  letters: 1
  dim: 1
  row: 1
  mat 1 = [ 2 ]
  col: 1
}

linrep two {
  letters: 1 x
  dim: 1
  row: 1
  mat 1 = [ 2 ]
  mat x = [ 3 ]
  col: 1
}
"""


def test_linrep_arguments_read_digit_letters_as_a_word(capsys, tmp_path):
    path = tmp_path / "digits.sys"
    path.write_text(_DIGIT_LINREPS)
    assert run_cli(capsys, "eval", str(path), "r", "11")[:2] == (0, "4\n")
    assert run_cli(capsys, "eval", str(path), "r", "3")[:2] == (0, "8\n")
    assert run_cli(capsys, "eval", str(path), "two", "1x1")[:2] == (0, "12\n")
    assert run_cli(capsys, "eval", "gmap", "fibrep", "5")[:2] == (0, "8\n")
    code, out, err = run_cli(capsys, "eval", str(path), "two", "3")
    assert code == 2 and out == ""
    assert err == "error: an integer argument needs a unary input alphabet; give a word instead\n"


_MULTI_CHARACTER_LETTERS = """
cat g {
  input: a
  output: x y
  f1(eps) = x
  g(eps) = y
  f1(a w) = g(w)
  g(a w) = f1(w)
}

cat f {
  input: a1 b1
  output: x
  f(eps) = x
  f(a1 w) = f(w) f(w)
  f(b1 w) = f(w)
}
"""


def test_a_one_letter_word_of_a_multi_character_letter_survives_printing_and_arguments(capsys, tmp_path):
    path, lowered = tmp_path / "multi.sys", tmp_path / "lowered.sys"
    path.write_text(_MULTI_CHARACTER_LETTERS)
    assert run_cli(capsys, "lower", "cat-to-hdt0l", str(path), "g", "-o", str(lowered))[0] == 0
    assert "table a = { f1 -> g; g -> f1 }" in lowered.read_text()
    assert run_cli(capsys, "eval", str(lowered), "g_hdt0l", "aa")[:2] == (0, "y\n")
    assert run_cli(capsys, "eval", str(lowered), "g_hdt0l", "a")[:2] == (0, "x\n")
    assert run_cli(capsys, "eval", str(path), "f", "a1")[:2] == (0, "xx\n")
    assert run_cli(capsys, "eval", str(path), "f", "a1 b1 a1")[:2] == (0, "xxxx\n")


def test_paper_literal_flag(capsys):
    code, out, _ = run_cli(capsys, "eval", "factorial", "UV", "babaab", "--paper-literal")
    assert code == 0 and out == "1\n"


def test_as_length(capsys):
    code, out, _ = run_cli(capsys, "eval", "factorial", "u", "4", "--as-length")
    #  u(4) = b ab aab aaab aaaab
    assert code == 0 and out == f"{len('babaabaaabaaaab')}\n"


def test_fuel_flag_reports_exhaustion(capsys):
    import textwrap
    import tempfile, os

    text = textwrap.dedent(
        """
        reg loop {
          input: a
          output: b
          classes: c
          start: c
          step: c a -> c
          f(eps) = b
          f(a w) @c = f(a w)
        }
        """
    )
    with tempfile.NamedTemporaryFile("w", suffix=".sys", delete=False) as fh:
        fh.write(text)
        path = fh.name
    try:
        code, out, err = run_cli(capsys, "eval", path, "loop.f", "1", "--fuel", "100")
        assert code == 1
        assert "FuelExhausted" in err
    finally:
        os.unlink(path)


def test_fuel_counts_every_rewrite_of_a_reused_term(capsys, tmp_path):
    # f(a^18) takes 2^18 - 1 rewrites, most of them by reused terms
    path = tmp_path / "dbl.sys"
    path.write_text(
        "reg dbl {\n  input: a\n  output: b\n  classes: c\n  start: c\n  step: c a -> c\n"
        "  f(eps) = b\n  f(a w) @c = f(w) f(w)\n}\n"
    )
    argv = ("eval", str(path), "dbl.f", "a" * 18, "--as-length", "--fuel")
    assert run_cli(capsys, *argv, "262143") == (0, "262144\n", "")
    code, out, err = run_cli(capsys, *argv, "262142")
    assert code == 1 and out == "" and "FuelExhausted" in err


SHIFT_SYS =str(Path(__file__).resolve().parents[1] / "perfbench" / "data" / "shift.sys")


@pytest.mark.parametrize(
    "argv",
    [("eval", SHIFT_SYS, "shift.f", "ab"), ("run-pda", "pow2-pda", "pow2", "aa")],
    ids=["eval", "run-pda"],
)
def test_negative_fuel_is_a_usage_error_and_zero_fuel_is_legal(capsys, argv):
    for fuel, why in (("-1", "must be >= 0, not -1"), ("abc", "invalid int value: 'abc'")):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--fuel", fuel])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and f"argument --fuel: {why}" in err
    code, out, err = run_cli(capsys, *argv, "--fuel", "0")
    assert code == 1 and "FuelExhausted" in out + err


def test_lower_emits_reparseable_files(capsys, tmp_path):
    out_file = tmp_path / "lowered.sys"
    code, _, _ = run_cli(capsys, "lower", "unary", "gmap", "fibword", "-o", str(out_file))
    assert code == 0
    from wordmaps.systemfile import parse_file
    from wordmaps.morphisms import linear_eval

    sf = parse_file(out_file.read_text())
    _, rep = sf.resolve("fibword_rep", "linrep")
    fib = [1, 1]
    while len(fib) < 12:
        fib.append(fib[-1] + fib[-2])
    for n in range(12):
        assert linear_eval(rep, ("x",) * n) == fib[n]


def test_lower_series_takes_an_hdt0l_second_stage(capsys, tmp_path):
    out_file = tmp_path / "series.sys"
    code, _, _ = run_cli(capsys, "lower", "series", "gmap", "nu", "fibword", "-o", str(out_file))
    assert code == 0
    from wordmaps.systemfile import parse_file
    from wordmaps.polynomials import parse_polynomial
    from wordmaps.recurrences import eval_polynomial_vector

    text = out_file.read_text()
    _, low = parse_file(text).resolve("nu_poly", "poly")
    form = parse_polynomial(text.split("# output form: ")[1])
    fib = [1, 1]
    while len(fib) < 64:
        fib.append(fib[-1] + fib[-2])
    for n in range(64):
        w = tuple(format(n, "b")) if n else ()
        assert form.evaluate_int(eval_polynomial_vector(low, w)) == fib[n]


def test_lower_cat_to_hdt0l_round(capsys, tmp_path):
    out_file = tmp_path / "h.sys"
    code, _, _ = run_cli(capsys, "lower", "cat-to-hdt0l", "npown", "f", "-o", str(out_file))
    assert code == 0
    from wordmaps.systemfile import parse_file
    from wordmaps.morphisms import eval_hdt0l

    sf = parse_file(out_file.read_text())
    _, sys = sf.resolve("f_hdt0l", "hdt0l")
    assert eval_hdt0l(sys, ("a",) * 4) == tuple("aaaabcccc")


def test_lower_skolem(capsys, tmp_path):
    out_file = tmp_path / "sk.sys"
    code, _, _ = run_cli(
        capsys, "lower", "skolem", "skolem-demo", "pow2.U", "lin.V", "-o", str(out_file)
    )
    assert code == 0
    from wordmaps.systemfile import parse_file
    from wordmaps.recurrences import eval_polynomial

    sf = parse_file(out_file.read_text())
    _, sk = sf.resolve("skolem_product", "poly")
    assert eval_polynomial(sk, "w_acc", ("a",) * 3) == 1 * 2 * 5 * 12


@pytest.mark.parametrize(
    "argv, wanted",
    [(("series", "npown", "f"), "second stage"), (("skolem", "skolem-demo", "pow2.U"), "second target")],
)
def test_lower_without_its_second_argument_is_an_error(capsys, argv, wanted):
    code, out, err = run_cli(capsys, "lower", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and wanted in err


def test_groebner_subcommand(capsys, tmp_path):
    path = tmp_path / "ideal.sys"
    path.write_text("ideal tc {\n  vars: x y z\n  gen: y - x^2\n  gen: z - x^3\n}\n")
    code, out, _ = run_cli(capsys, "groebner", str(path), "tc")
    assert code == 0
    assert out.strip()
    code2, out2, _ = run_cli(capsys, "groebner", str(path), "tc", "--order", "lex")
    assert code2 == 0 and out2.strip()


POW2_AA_TRACE = """\
q0 | tops S a -> q1 | out eps
q1 | tops S a -> q0 | out eps
q0 | tops S a -> q1 | out eps
q1 | tops S -> q0 | out eps
q0 | tops S -> q0 | out b
q0 | tops S -> q0 | out bb
q0 | tops S a -> q1 | out bb
q1 | tops S -> q0 | out bb
q0 | tops S -> q0 | out bbb
q0 | tops S -> q0 | out bbbb
Accepted bbbb
"""


def test_run_pda_trace(capsys):
    code, out, _ = run_cli(capsys, "run-pda", "pow2-pda", "pow2", "aa", "--trace")
    assert code == 0
    assert out == POW2_AA_TRACE


@pytest.mark.parametrize(
    "text",
    [
        "poly f { input: a ; f(eps) = 1 ; f(a w) = f ; f(b w) = f }",
        "cat f {\n  input: a\n  output: x\n  f(eps) = x\n  f(a w) = f(w)\n  g(a w) = f(w)\n}",
    ],
)
def test_a_rule_outside_the_indices_and_letters_is_an_error(capsys, tmp_path, text):
    path = tmp_path / "extra.sys"
    path.write_text(text + "\n")
    code, out, err = run_cli(capsys, "equiv", str(path), "f", str(path), "f")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "outside its indices and letters" in err


@pytest.mark.parametrize(
    "text,argv,wanted",
    [
        ("comp f {\n  input: a\n  working: x\n  f(eps) = { x -> x }\n  f(a w) = zz(w)\n}",
         ("f", "a"), "mentions unknown index 'zz'"),
        ("reg r {\n  input: a b\n  output: c\n  classes: q\n  start: q\n  step: q a -> q\n"
         "  f(eps) = c\n  f(a w) = f(w) f(w)\n  f(b w) = f(w)\n}",
         ("r.f", "ba"), "classifier has no transition for letter 'b'"),
    ],
    ids=["comp", "reg"],
)
def test_a_system_defined_on_some_words_only_is_an_error(capsys, tmp_path, text, argv, wanted):
    path = tmp_path / "partial.sys"
    path.write_text(text + "\n")
    code, out, err = run_cli(capsys, "eval", str(path), *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and wanted in err


def test_a_directory_is_not_a_file(capsys, tmp_path):
    code, out, err = run_cli(capsys, "eval", str(tmp_path), "f", "3")
    assert (code, out) == (2, "")
    assert err == f"error: cannot read {str(tmp_path)!r}: Is a directory\n"


def test_a_file_that_is_not_utf8_is_an_error(capsys, tmp_path):
    path = tmp_path / "bom.sys"
    path.write_bytes(b"\xff\xfe")
    for argv in (("eval", str(path), "f", "3"), ("lower", "skolem", "skolem-demo", "pow2.U", "lin.V", "--file-b", str(path))):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot read {str(path)!r}: 'utf-8' codec can't decode")


def test_an_unwritable_output_path_is_an_error(capsys, tmp_path):
    target = tmp_path / "missing" / "x"
    code, out, err = run_cli(capsys, "lower", "unary", "gmap", "fibword", "-o", str(target))
    assert (code, out) == (2, "")
    assert err == f"error: cannot write {str(target)!r}: No such file or directory\n"
    assert not target.parent.exists()


def test_run_pda_prints_the_traced_outcome_and_exit_code_through_kpda_run(capsys, tmp_path, monkeypatch):
    import wordmaps.cli as cli
    from wordmaps import kpda

    path = tmp_path / "dead.sys"
    path.write_text("pda dead {\n  level: 1\n  states: q0 q1\n  terminals: x\n  input: a\n"
                    "  gamma 1: a\n  start: q0\n  q0 , x , a -> q1 , pop_1\n}\n")
    stuck = tmp_path / "pow2stuck.sys"
    stuck.write_text(POW2_STUCK_SYS)
    calls = []
    monkeypatch.setattr(cli, "run", lambda *args, **kw: calls.append(args) or kpda.run(*args, **kw))
    cases = [
        (("pow2-pda", "pow2", "aaa"), 0, "Accepted bbbbbbbb\n"),
        (("pow2-pda", "pow2", "aaa", "--fuel", "20"), 1, "FuelExhausted\n"),
        ((str(path), "dead", "aa"), 1, "Stuck in state q1 after x\n"),
        ((str(path), "dead", "a"), 1, "Stuck in state q1 after x\n"),
        ((str(stuck), "pow2stuck", "aaa"), 1, "Stuck in state q2 after bbbbbbbb\n"),
    ]
    for argv, code, last in cases:
        assert run_cli(capsys, "run-pda", *argv) == (code, last, "")
        traced = run_cli(capsys, "run-pda", *argv, "--trace")
        assert traced[0] == code and traced[1].endswith("\n" + last)
    assert len(calls) == len(cases)  # --trace steps instead


def test_run_pda_trace_rejects_a_machine_that_is_not_strongly_deterministic(capsys, tmp_path):
    path = tmp_path / "two.sys"
    path.write_text(
        "pda two {\n  level: 1\n  states: q\n  terminals: a b\n  input: A\n"
        "  gamma 1: A\n  start: q\n  q , a , A -> q , pop_1\n  q , b , A -> q , pop_1\n}\n"
    )
    code, out, err = run_cli(capsys, "run-pda", str(path), "two", "A", "--trace")
    assert code == 2
    assert out == ""
    assert err == "error: run requires a strongly deterministic machine\n"


@pytest.mark.parametrize("argv", [("gmap", "fibword", "fibrep", "3"), ("npown", "H", "out", "bcc")])
def test_compose_rejects_a_first_stage_that_is_not_catenative(capsys, argv):
    code, out, err = run_cli(capsys, "compose", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: the first stage must be a cat declaration")


def test_linrep_of_dimension_zero_is_an_error(capsys, tmp_path):
    path = tmp_path / "zero.sys"
    path.write_text("linrep z {\n  dim: 0\n  row:\n  mat x = [ ]\n  col:\n}\n")
    code, out, err = run_cli(capsys, "eval", str(path), "z", "xx")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "dimension 0" in err


XY_CAT = """
cat twoletters {
  input: a
  output: x y
  f(eps) = eps
  g(eps) = y
  f(a w) = g(w) f(w)
  g(a w) = g(w)
}

linrep fibrep {
  dim: 2
  row: 1 0
  mat x = [ 1 1 / 1 0 ]
  col: 1 0
}
"""


@pytest.mark.parametrize("argument", ["eps", "a", "20"])
def test_compose_rejects_a_representation_missing_a_stage1_letter(capsys, tmp_path, argument):
    path = tmp_path / "xy.sys"
    path.write_text(XY_CAT)
    code, out, err = run_cli(capsys, "compose", str(path), "twoletters", "fibrep", argument)
    assert code == 2
    assert out == ""
    assert err == "error: the representation must cover the catenative output alphabet\n"


@pytest.mark.parametrize(
    "text,argv",
    [
        ("linrep r {\n  dim: x\n  row: 1\n  mat a = [ 1 ]\n  col: 1\n}\n", ("eval", "r", "3")),
        (
            "pda p {\n  level: two\n  states: q\n  terminals: a\n  gamma 1: A\n  start: q\n}\n",
            ("run-pda", "p", "A"),
        ),
    ],
    ids=["linrep-dim", "pda-level"],
)
def test_a_malformed_integer_directive_is_a_parse_error(capsys, tmp_path, text, argv):
    path = tmp_path / "bad.sys"
    path.write_text(text)
    command, *rest = argv
    code, out, err = run_cli(capsys, command, str(path), *rest)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {path}:2: ") and "expected an integer" in err


# (n+1)! beside M = n + 1 rather than factorial.sys's L = n + 2: equal to FC,
# but no index of one presentation joins one of the other's
FACTORIAL_BY_M = """
poly FM {
  input: a
  M(eps) = 1
  FC(eps) = 1
  M(a w) = M + 1
  FC(a w) = (M + 1) * FC
}
"""


@pytest.mark.parametrize("budget", ["-5", "-1"])
def test_negative_budget_is_a_usage_error_and_zero_budget_is_legal(capsys, budget, tmp_path):
    path = tmp_path / "fm.sys"
    path.write_text(FACTORIAL_BY_M)
    argv = ("equiv", "factorial", "FC", str(path), "FM.FC")
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--budget", budget])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and f"argument --budget: must be >= 0, not {budget}" in err
    # a zero budget reaches the decision, whose budget error names the limit
    assert run_cli(capsys, *argv, "--budget", "0") == (2, "", "error: Groebner basis exceeded the size budget (0)\n")
    assert run_cli(capsys, *argv) == (0, "Equal\n", "")


LITERAL = """
poly P {
  input: a
  X(eps) = 1
  X(a w) = 2 * X
}

poly P_literal {
  input: a
  X(eps) = 1
  X(a w) = X * X + 1
}

poly Q {
  input: a
  X(eps) = 1
  X(a w) = X + X
}
"""


def test_paper_literal_applies_to_every_target(capsys, tmp_path):
    path = tmp_path / "literal.sys"
    path.write_text(LITERAL)
    argv = ("equiv", str(path), "P", str(path), "Q")
    assert run_cli(capsys, *argv) == (0, "Equal\n", "")
    # P_literal runs 1, 2, 5, ... against Q's 1, 2, 4, ...: the shortest
    # witness is aa
    assert run_cli(capsys, *argv, "--paper-literal") == (1, "NotEqual aa\n", "")


REPO = Path(__file__).resolve().parents[1]
# one file with a declaration of every kind: the bundled npown, gmap and
# pow2-pda next to the benchmark's fraction, regular and ideal files
ALL_KINDS_FILES = [
    *(REPO / "src" / "wordmaps" / "data" / f"{n}.sys" for n in ("npown", "gmap", "pow2-pda")),
    *(REPO / "perfbench" / "data" / f"{n}.sys" for n in ("fractions", "shift", "ideals")),
]
KIND_TARGET = {
    "cat": "f", "comp": "H", "reg": "shift", "poly": "pair", "hdt0l": "fibword",
    "linrep": "fibrep", "pda": "pow2", "hom": "out", "frac": "telescoped", "ideal": "katsura2",
}
UNINDEXED = ("hdt0l", "linrep", "pda", "hom", "frac", "ideal")
# every target position of every command: the kinds it takes, and its argv
# around the target T in the file F
POSITIONS = [
    ("eval", {"cat", "comp", "reg", "poly", "hdt0l", "linrep"}, ("eval", "F", "T", "3")),
    ("equiv.a", {"poly", "frac"}, ("equiv", "F", "T", "F", "pair")),
    ("equiv.b", {"poly", "frac"}, ("equiv", "F", "pair", "F", "T")),
    ("compose.first", {"cat"}, ("compose", "F", "T", "fibrep", "101")),
    ("compose.second", {"hdt0l", "linrep"}, ("compose", "F", "nu", "T", "101")),
    ("cat-to-hdt0l", {"cat"}, ("lower", "cat-to-hdt0l", "F", "T")),
    ("hdt0l-to-cat", {"hdt0l"}, ("lower", "hdt0l-to-cat", "F", "T")),
    ("unary", {"hdt0l"}, ("lower", "unary", "F", "T")),
    ("series.first", {"cat"}, ("lower", "series", "F", "T", "fibrep")),
    ("series.second", {"hdt0l", "linrep"}, ("lower", "series", "F", "nu", "T")),
    ("skolem.first", {"poly"}, ("lower", "skolem", "F", "T", "pair")),
    ("skolem.second", {"poly"}, ("lower", "skolem", "F", "pair", "T")),
    ("run-pda", {"pda"}, ("run-pda", "F", "T", "aa")),
    ("groebner", {"ideal"}, ("groebner", "F", "T")),
]
REFUSED = [
    pytest.param(argv, kind, target, id=f"{position}-{target}")
    for position, takes, argv in POSITIONS
    for kind, name in KIND_TARGET.items()
    for target in ([name] if kind not in takes else []) + ([name + ".x"] if kind in UNINDEXED else [])
]


@pytest.mark.parametrize("argv,kind,target", REFUSED)
def test_every_refused_target_is_one_error_line(capsys, tmp_path, argv, kind, target):
    path = tmp_path / "kinds.sys"
    path.write_text("\n".join(f.read_text() for f in ALL_KINDS_FILES))
    argv = [str(path) if a == "F" else target if a == "T" else a for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    name, dot, _ = target.partition(".")
    if dot:  # an index is refused before the kind
        assert err == f"error: {kind} target {name!r} takes no index\n"


@pytest.mark.parametrize(
    "argv,wanted",
    [
        (("eval", "fib", "Fword.zz", "3"), "'Fword' has no index 'zz'"),
        (("eval", "nosuch", "F", "3"), "no file 'nosuch'; bundled examples: factorial, fibonacci, gmap, "
                                       "identity-pda, npown, pow2-pda, skolem-demo"),
        (("run-pda", "pow2-pda", "pow2", "ab"), "input letter 'b' is not in the machine's input alphabet"),
        (("run-pda", "LEVEL1", "pow2", "aS"), "input letter 'S' must be a level-2 pushdown symbol"),
    ],
    ids=["unknown-index", "unknown-file", "run-pda-letter", "run-pda-level"],
)
def test_a_refused_argument_is_one_error_line(capsys, tmp_path, argv, wanted):
    # LEVEL1 is pow2 with its level-1 symbol S among the input letters
    path = tmp_path / "level1.sys"
    pow2 = (REPO / "src" / "wordmaps" / "data" / "pow2-pda.sys").read_text()
    path.write_text(pow2.replace("input: a", "input: a S"))
    argv = [str(path) if a == "LEVEL1" else a for a in argv]
    assert run_cli(capsys, *argv) == (2, "", f"error: {wanted}\n")


def _readme_cli_lines():
    text = (REPO / "README.md").read_text()
    block = text[text.index("## CLI"):].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("wordmaps ") and "FILE IDEAL" not in line]


@pytest.mark.parametrize("line", _readme_cli_lines())
def test_readme_cli_block(capsys, line):
    command, _, comment = line.partition("#")
    comment = comment.strip()
    code, out, err = run_cli(capsys, *shlex.split(command)[1:])
    assert code == (1 if comment.startswith("NotEqual") else 0), err
    emits = re.match(r"emits an? (\w+) block", comment)
    if emits:
        assert out.startswith(f"{emits.group(1)} ")
    elif comment:
        # the expected value runs up to a gap of two spaces, " = " or " ("
        assert out == re.split(r"\s{2,}| = | \(", comment)[0] + "\n"
