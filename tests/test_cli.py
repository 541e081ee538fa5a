import time

import pytest

from wordmaps.cli import main


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
