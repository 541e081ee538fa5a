import math
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from itertools import chain, product
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from wordmaps import equivalence, recurrences
from wordmaps.equivalence import Budget, reachable_points
from wordmaps.errors import DomainError, FuelExhaustedError
from wordmaps.lowering import compositional_to_level3
from wordmaps.morphisms import Homomorphism, compose
from wordmaps.polynomials import Polynomial, _powers
from wordmaps.recurrences import (
    CatenativeSystem,
    CompositionalSystem,
    DfaClassifier,
    PolynomialSystem,
    RegularSystem,
    catenative_to_regular,
    eval_catenative,
    eval_compositional,
    eval_polynomial,
    eval_polynomial_vector,
    eval_regular,
    is_strict,
    product_system,
    rename_system,
)
from wordmaps.words import word

SHIFT_SYS = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "shift.sys"


# ---------------------------------------------------------------------------
# reference systems


def factorial_words():
    return CatenativeSystem.make(
        ("u", "v", "A"), {"a"}, {"a", "b"},
        {("u", "a"): ("u", "v"), ("v", "a"): ("A", "v"), ("A", "a"): ("A",)},
        {"u": word("b"), "v": word("ab"), "A": word("a")},
    )


def npown_f():
    return CatenativeSystem.make(
        ("f", "A", "C"), {"a"}, {"a", "b", "c"},
        {("f", "a"): ("A", "f", "C"), ("A", "a"): ("A",), ("C", "a"): ("C",)},
        {"f": word("b"), "A": word("a"), "C": word("c")},
    )


def npown_h():
    idx = ("H", "K", "Kp", "P")
    rules = {(j, a): (j,) for j in idx for a in "abc"}
    rules[("H", "a")] = ("H", "H")
    rules[("H", "b")] = ("P", "H", "Kp")
    rules[("H", "c")] = ("H", "K")
    return CompositionalSystem.make(
        idx, set("abc"), {"x", "y"}, rules,
        {
            "H": Homomorphism.identity({"x", "y"}),
            "K": Homomorphism.bracket("x", "xy"),
            "Kp": Homomorphism.bracket("x", ""),
            "P": Homomorphism.bracket("y", "x"),
        },
    )


def _random_catenative(rng, n_idx=3, n_letters=2, max_rule=3, max_base=2):
    indices = tuple(f"i{k}" for k in range(rng.randrange(1, n_idx + 1)))
    letters = tuple("ab"[: rng.randrange(1, n_letters + 1)])
    out = ("x", "y")
    rules = {
        (i, a): tuple(rng.choice(indices) for _ in range(rng.randrange(max_rule + 1)))
        for i in indices
        for a in letters
    }
    base = {
        i: tuple(rng.choice(out) for _ in range(rng.randrange(max_base + 1)))
        for i in indices
    }
    return CatenativeSystem.make(indices, letters, out, rules, base)


# ---------------------------------------------------------------------------
# catenative


def test_factorial_u_v_words():
    sys = factorial_words()
    assert eval_catenative(sys, "u", word("aa")) == word("babaab")
    assert eval_catenative(sys, "v", word("aaa")) == word("aaaab")
    for n in range(11):
        expected_u = tuple(chain.from_iterable(["a"] * m + ["b"] for m in range(n + 1)))
        assert eval_catenative(sys, "u", ("a",) * n) == expected_u
        assert eval_catenative(sys, "v", ("a",) * n) == ("a",) * (n + 1) + ("b",)


def test_catenative_base_case():
    sys = factorial_words()
    assert eval_catenative(sys, "u", ()) == word("b")


def test_catenative_unknown_index_or_letter():
    sys = factorial_words()
    with pytest.raises(DomainError):
        eval_catenative(sys, "nope", ())
    with pytest.raises(DomainError):
        eval_catenative(sys, "u", word("z"))


def test_catenative_definitional_unfolding():
    rng = random.Random(21)
    for _ in range(40):
        sys = _random_catenative(rng)
        a = sorted(sys.input_alphabet)[0]
        for i in sys.indices:
            for n in range(4):
                w = tuple(rng.choice(sorted(sys.input_alphabet)) for _ in range(n))
                direct = eval_catenative(sys, i, (a,) + w)
                unfolded = tuple(
                    chain.from_iterable(eval_catenative(sys, j, w) for j in sys.rule_map[(i, a)])
                )
                assert direct == unfolded


# ---------------------------------------------------------------------------
# compositional


def test_h_closed_forms():
    sys = npown_h()
    for q in range(9):
        h = eval_compositional(sys, "H", word("c" * q))
        assert h.images["x"] == ("x",)
        assert h.images["y"] == ("x",) * q + ("y",)
        h = eval_compositional(sys, "H", word("b" + "c" * q))
        assert h.images["x"] == ("x",) * q
        assert h.images["y"] == ("x",)


def test_h_base_is_identity():
    sys = npown_h()
    assert eval_compositional(sys, "H", ()) == Homomorphism.identity(sys.working)


def test_h_rule_products_equal_the_fold_from_the_identity():
    # a rule product starts at its first factor; the value, repr included, is
    # the one folded from the identity over every factor
    from functools import reduce

    from wordmaps.morphisms import suffix_walk

    sys = npown_h()
    identity = Homomorphism.identity(sys.working)
    for n in range(6):
        for w in product("abc", repeat=n):
            folded = suffix_walk(sys, "H", w, sys.base_map, lambda hs: reduce(compose, hs, identity))
            assert repr(eval_compositional(sys, "H", w)) == repr(folded), w


def test_h_literal_self_composition_squares_exponents():
    # brute-forcing the a-rule H(a u) = H(u) H(u): exponents square with
    # each a, so H(a^p b c^q) = [x^(q^(2^p)), x^(q^(2^p - 1))]
    sys = npown_h()
    for p in range(0, 4):
        for q in range(0, 4):
            h = eval_compositional(sys, "H", word("a" * p + "b" + "c" * q))
            assert h.images["x"] == ("x",) * (q ** (2 ** p))
            assert h.images["y"] == ("x",) * (q ** (2 ** p - 1))


def test_auxiliary_maps_are_constant():
    sys = npown_h()
    rng = random.Random(9)
    for _ in range(25):
        u = tuple(rng.choice("abc") for _ in range(rng.randrange(6)))
        for j in ("K", "Kp", "P"):
            assert eval_compositional(sys, j, u) == eval_compositional(sys, j, ())


def test_compositional_unfolding_extensional():
    sys = npown_h()
    rng = random.Random(10)
    for _ in range(20):
        u = tuple(rng.choice("abc") for _ in range(rng.randrange(4)))
        a = rng.choice("abc")
        lhs = eval_compositional(sys, "H", (a,) + u)
        rhs = Homomorphism.identity(sys.working)
        for j in sys.rule_map[("H", a)]:
            rhs = compose(rhs, eval_compositional(sys, j, u))
        assert lhs == rhs


def test_eval_level3():
    sys = npown_h()
    out = Homomorphism({"x": ("b",), "y": ("b",)}, source={"x", "y"}, target={"b"})
    for n in range(0, 3):
        u = word("a" * n + "b" + "c" * n)
        value = compositional_to_level3(sys, "H", out, "x").eval(u)
        assert value == ("b",) * (n ** (2 ** n))


# ---------------------------------------------------------------------------
# regular


def _looping_regular():
    classifier = DfaClassifier.single_class({"a"})
    (label,) = classifier.states
    return RegularSystem.make(
        ("f",), {"a"}, {"b"}, classifier,
        {("f", "a", label): (("f", ("a",)),)},
        {"f": word("b")},
    )


def test_regular_loop_exhausts_fuel_at_every_budget():
    sys = _looping_regular()
    for fuel in (1, 2, 5, 10, 100, 1000):
        with pytest.raises(FuelExhaustedError):
            eval_regular(sys, "f", ("a",), fuel=fuel)


def test_regular_strict_systems_terminate():
    rng = random.Random(31)
    for _ in range(30):
        cat = _random_catenative(rng)
        reg = catenative_to_regular(cat)
        assert is_strict(reg)
        for n in range(5):
            w = tuple(rng.choice(sorted(cat.input_alphabet)) for _ in range(n))
            assert eval_regular(reg, cat.indices[0], w, fuel=10**5) == eval_catenative(
                cat, cat.indices[0], w
            )


def test_regular_single_class_matches_catenative_50_systems():
    rng = random.Random(32)
    for _ in range(50):
        cat = _random_catenative(rng)
        reg = catenative_to_regular(cat)
        for n in range(4):
            w = tuple(rng.choice(sorted(cat.input_alphabet)) for _ in range(n))
            for i in cat.indices:
                assert eval_regular(reg, i, w, fuel=10**5) == eval_catenative(cat, i, w)


def test_is_strict_flags():
    sys = _looping_regular()
    assert not is_strict(sys)
    strict = catenative_to_regular(factorial_words())
    assert is_strict(strict)


def test_regular_value_stable_under_larger_fuel():
    reg = catenative_to_regular(factorial_words())
    small = eval_regular(reg, "u", ("a",) * 4, fuel=10**4)
    for fuel in (10**5, 10**6):
        assert eval_regular(reg, "u", ("a",) * 4, fuel=fuel) == small


def test_classifier_over_bracket_words():
    # classifiers are plain DFAs over arbitrary letters, including the
    # extended bracket alphabet of serialized stores; here: does the word
    # start with an opening bracket after its first symbol run or not
    from wordmaps.pushdown import IteratedPushdown, serialize

    states = {"start", "sym", "deep", "flat"}
    trans = {}
    for a in ("A", "B"):
        trans[("start", a)] = "sym"
        trans[("sym", a)] = "flat"
        trans[("deep", a)] = "deep"
        trans[("flat", a)] = "flat"
    for b in ("[", "]"):
        trans[("start", b)] = "flat"
        trans[("sym", b)] = "deep"
        trans[("deep", b)] = "deep"
        trans[("flat", b)] = "flat"
    classifier = DfaClassifier.make(states, "start", trans)
    nested = IteratedPushdown(2, (("A", IteratedPushdown.from_word(("B",), 1)),))
    flat = IteratedPushdown.from_word(("A", "B"), 1)
    assert classifier.classify(tuple(serialize(nested))) == "deep"
    assert classifier.classify(tuple(serialize(flat))) == "flat"


def test_regular_class_selection_uses_the_tail():
    # rule choice keyed by the class of w in f(a w): tail parity here
    classifier = DfaClassifier.make(
        {"even", "odd"}, "even",
        {("even", "a"): "odd", ("odd", "a"): "even"},
    )
    sys = RegularSystem.make(
        ("f",), {"a"}, {"x", "y"}, classifier,
        {
            ("f", "a", "even"): (("f", ()),),
            ("f", "a", "odd"): (("f", ()), ("f", ())),
        },
        {"f": word("x")},
    )
    # f(a) tail eps is even: one copy of f(eps) = x
    assert eval_regular(sys, "f", ("a",), fuel=100) == word("x")
    # f(aa) tail a is odd: two copies of f(a) = xx
    assert eval_regular(sys, "f", ("a", "a"), fuel=100) == word("xx")


def _splice_rewriter(sys, i, w, fuel):
    """The former list-splice rewriter, as a reference: the value and the
    rewrites it took, or the partial terms when the fuel ran out."""
    terms, pos, used = [(i, tuple(w))], 0, 0
    while True:
        while pos < len(terms) and not terms[pos][1]:
            pos += 1
        if pos == len(terms):
            return tuple(chain.from_iterable(sys.base_map[j] for j, _ in terms)), used
        if fuel <= 0:
            return "partial", tuple(terms)
        j, v = terms[pos]
        a, tail = v[0], v[1:]
        terms[pos:pos + 1] = [(k, u + tail) for k, u in sys.rule_map[(j, a, sys.classifier.classify(tail))]]
        fuel -= 1
        used += 1


def _regular_outcome(sys, i, w, fuel):
    try:
        return eval_regular(sys, i, w, fuel)
    except FuelExhaustedError as e:
        return "partial", e.partial


def _unary_regular(rhs):
    """f(eps) = b and f(a w) = rhs over the letter a, in one class."""
    classifier = DfaClassifier.single_class({"a"})
    (label,) = classifier.states
    return RegularSystem.make(("f",), {"a"}, {"b"}, classifier, {("f", "a", label): rhs}, {"f": word("b")})


def _shift_system():
    from wordmaps.cli import load_file

    return load_file(str(SHIFT_SYS)).resolve("shift", "reg")[1]


def test_regular_matches_the_splice_rewriter_on_the_shift_system():
    shift = _shift_system()
    for n in range(9):
        for w in product("ab", repeat=n):
            for i in shift.indices:
                value, _ = _splice_rewriter(shift, i, w, 10**5)
                assert eval_regular(shift, i, w) == value


def test_regular_partial_terms_match_the_splice_rewriter_at_every_fuel():
    shift = _shift_system()
    w = tuple("abab")
    value, rewrites = _splice_rewriter(shift, "f", w, 10**5)
    assert rewrites > 5
    for fuel in range(rewrites + 1):
        expected = _splice_rewriter(shift, "f", w, fuel)
        assert _regular_outcome(shift, "f", w, fuel) == (expected if fuel < rewrites else value)
        assert expected[0] == "partial" or fuel == rewrites
    # f(a w) = f(a a w) never finishes: one term, a letter longer per rewrite
    growing = _unary_regular((("f", ("a", "a")),))
    for fuel in (0, 1, 10, 100):
        expected = _splice_rewriter(growing, "f", ("a",), fuel)
        assert _regular_outcome(growing, "f", ("a",), fuel) == expected
        assert expected == ("partial", (("f", ("a",) * (fuel + 1)),))


def test_regular_rewrites_each_distinct_term_once():
    # f(a w) = f(w) f(w): f(a^16) is 2^16 - 1 rewrites over 16 distinct terms
    class Counting(dict):
        lookups = 0

        def __getitem__(self, key):
            Counting.lookups += 1
            return dict.__getitem__(self, key)

    double = _unary_regular((("f", ()), ("f", ())))
    double.__dict__["rule_map"] = Counting(double.rule_map)
    assert eval_regular(double, "f", ("a",) * 16, fuel=2**16 - 1) == ("b",) * 2**16
    assert Counting.lookups == 16
    with pytest.raises(FuelExhaustedError):
        eval_regular(double, "f", ("a",) * 16, fuel=2**16 - 2)


def test_regular_growing_system_holds_only_its_pending_terms():
    # f(a w) = f(a a w): neither its terms nor its tails are kept, which at
    # fuel 6,000 would take more than 100 MB
    import tracemalloc

    growing = _unary_regular((("f", ("a", "a")),))
    expected = _splice_rewriter(growing, "f", ("a",), 6000)
    tracemalloc.start()
    try:
        outcome = _regular_outcome(growing, "f", ("a",), 6000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert outcome == expected
    assert peak < 2 * 2**20


@st.composite
def _parity_systems(draw):
    """Regular systems over {a, b} with the parity of the a's as classes:
    1-3 indices, right-hand sides of 0-3 terms with shift words of length
    0-2, base words of length 0-2; non-terminating systems included."""
    indices = ("f", "g", "h")[: draw(st.integers(1, 3))]
    classifier = DfaClassifier.make(
        {"even", "odd"}, "even",
        {("even", "a"): "odd", ("odd", "a"): "even", ("even", "b"): "even", ("odd", "b"): "odd"},
    )
    shift = st.lists(st.sampled_from("ab"), max_size=2).map(tuple)
    rhs = st.lists(st.tuples(st.sampled_from(indices), shift), max_size=3).map(tuple)
    rules = {(i, a, d): draw(rhs) for i in indices for a in "ab" for d in ("even", "odd")}
    base = {i: tuple(draw(st.lists(st.sampled_from("xy"), max_size=2))) for i in indices}
    return RegularSystem.make(indices, {"a", "b"}, {"x", "y"}, classifier, rules, base)


@settings(deadline=None, max_examples=300)
@given(_parity_systems(), st.lists(st.sampled_from("ab"), max_size=5).map(tuple), st.integers(0, 300), st.data())
def test_regular_matches_the_splice_rewriter_on_random_systems(sys, w, fuel, data):
    i = data.draw(st.sampled_from(sys.indices))
    expected = _splice_rewriter(sys, i, w, fuel)
    assert _regular_outcome(sys, i, w, fuel) == (expected if expected[0] == "partial" else expected[0])


# ---------------------------------------------------------------------------
# polynomial


def test_polynomial_factorial():
    L, FC = Polynomial.var("L"), Polynomial.var("FC")
    sys = PolynomialSystem.make(
        ("L", "FC"), {"a"},
        {("L", "a"): L + 1, ("FC", "a"): L * FC},
        {"L": 2, "FC": 1},
    )
    assert eval_polynomial(sys, "FC", ("a",) * 3) == 24
    for n in range(11):
        assert eval_polynomial(sys, "FC", ("a",) * n) == math.factorial(n + 1)


def test_polynomial_fibonacci():
    F, G = Polynomial.var("F"), Polynomial.var("G")
    sys = PolynomialSystem.make(
        ("F", "G"), {"a"}, {("F", "a"): G, ("G", "a"): F + G}, {"F": 1, "G": 1}
    )
    fib = [1, 1]
    while len(fib) < 12:
        fib.append(fib[-1] + fib[-2])
    assert eval_polynomial(sys, "F", ("a",) * 10) == 89
    for n in range(12):
        assert eval_polynomial(sys, "F", ("a",) * n) == fib[n]


def test_polynomial_base_and_errors():
    sys = PolynomialSystem.make(("X",), {"a"}, {("X", "a"): Polynomial.var("X")}, {"X": 7})
    assert eval_polynomial(sys, "X", ()) == 7
    with pytest.raises(DomainError):
        eval_polynomial(sys, "Y", ())
    with pytest.raises(DomainError):
        PolynomialSystem.make(("X",), {"a"}, {("X", "a"): -Polynomial.var("X")}, {"X": 1}, ring="N")


@pytest.mark.parametrize("value", [Fraction(5, 2), 2.9, "7", True, False])
def test_polynomial_rejects_a_non_int_base(value):
    # int(value) would store Fraction(5, 2) and 2.9 as 2, and "7" < 0 raises a
    # TypeError; a bool passes isinstance(value, int), and the reprint's line
    # X(eps) = True does not parse back
    with pytest.raises(DomainError, match=re.escape(f"base of 'X' must be an int, got {value!r}")):
        PolynomialSystem.make(("X",), {"a"}, {("X", "a"): 2 * Polynomial.var("X")}, {"X": value})


@pytest.mark.parametrize("index", ["1", "07", "٣"])
def test_polynomial_rejects_a_numeral_index(index):
    # the rule 2·X would print as "2 * 1", which reads back as the constant 2
    with pytest.raises(DomainError, match=re.escape(f"index {index!r} is a numeral")):
        PolynomialSystem.make((index,), {"a"}, {(index, "a"): 2 * Polynomial.var(index)}, {index: 1})


def test_polynomial_linear_matches_linear_eval():
    # a unary linear system is a linear representation: the selector row,
    # the coefficient matrix of the rules, and the base vector as column
    from wordmaps.morphisms import LinearRepresentation, linear_eval

    F, G = Polynomial.var("F"), Polynomial.var("G")
    sys = PolynomialSystem.make(
        ("F", "G"), {"a"}, {("F", "a"): G, ("G", "a"): F + G}, {"F": 1, "G": 1}
    )
    rep_f = LinearRepresentation.make((1, 0), {"a": ((0, 1), (1, 1))}, (1, 1))
    rep_g = LinearRepresentation.make((0, 1), {"a": ((0, 1), (1, 1))}, (1, 1))
    for n in range(13):
        w = ("a",) * n
        assert linear_eval(rep_f, w) == eval_polynomial(sys, "F", w)
        assert linear_eval(rep_g, w) == eval_polynomial(sys, "G", w)


# ---------------------------------------------------------------------------
# rule keys beyond indices x letters (x classes)


def test_catenative_rejects_a_rule_for_an_index_without_a_base():
    with pytest.raises(DomainError, match=r"rule for \('g', 'a'\) outside"):
        CatenativeSystem.make(
            ("f",), {"a"}, {"a"}, {("f", "a"): ("f",), ("g", "a"): ("f",)}, {"f": word("a")}
        )


def test_compositional_rejects_a_rule_for_an_unknown_letter():
    ident = Homomorphism.identity({"x"})
    with pytest.raises(DomainError, match=r"rule for \('f', 'b'\) outside"):
        CompositionalSystem.make(("f",), {"a"}, {"x"}, {("f", "a"): ("f",), ("f", "b"): ()}, {"f": ident})


def test_regular_rejects_a_rule_for_an_unknown_letter():
    classifier = DfaClassifier.single_class({"a"})
    rules = {("f", "a", "all"): (("f", ()),), ("f", "b", "all"): ()}
    with pytest.raises(DomainError, match=r"rule for \('f', 'b', 'all'\) outside"):
        RegularSystem.make(("f",), {"a"}, {"c"}, classifier, rules, {"f": word("c")})


def test_regular_rejects_a_classifier_without_a_transition_for_an_input_letter():
    # the classifier reads a only: the system would be defined on a* alone
    classifier = DfaClassifier.make({"q"}, "q", {("q", "a"): "q"})
    rules = {("f", "a", "q"): (("f", ()),), ("f", "b", "q"): (("f", ()), ("f", ()))}
    with pytest.raises(DomainError, match="classifier has no transition for letter 'b'"):
        RegularSystem.make(("f",), {"a", "b"}, {"c"}, classifier, rules, {"f": word("c")})


def test_polynomial_rejects_a_rule_for_an_unknown_letter():
    X = Polynomial.var("X")
    with pytest.raises(DomainError, match=r"rule for \('X', 'b'\) outside"):
        PolynomialSystem.make(("X",), {"a"}, {("X", "a"): X, ("X", "b"): X}, {"X": 1})
    # a missing rule is still named first
    with pytest.raises(DomainError, match=r"no rule for \('Y', 'a'\)"):
        PolynomialSystem.make(("X", "Y"), {"a"}, {("X", "a"): X, ("X", "b"): X}, {"X": 1, "Y": 1})


# ---------------------------------------------------------------------------
# base keys beyond the indices


def test_catenative_rejects_a_base_for_an_unknown_index():
    # the stray base word even uses a letter outside the output alphabet
    with pytest.raises(DomainError, match=r"base value for 'g' outside its indices"):
        CatenativeSystem.make(("f",), {"a"}, {"a"}, {("f", "a"): ("f",)}, {"f": word("a"), "g": word("z")})


def test_compositional_rejects_a_base_for_an_unknown_index():
    ident = Homomorphism.identity({"x"})
    with pytest.raises(DomainError, match=r"base value for 'g' outside its indices"):
        CompositionalSystem.make(("f",), {"a"}, {"x"}, {("f", "a"): ("f",)}, {"f": ident, "g": ident})


def test_regular_rejects_a_base_for_an_unknown_index():
    classifier = DfaClassifier.single_class({"a"})
    rules = {("f", "a", "all"): (("f", ()),)}
    with pytest.raises(DomainError, match=r"base value for 'g' outside its indices"):
        RegularSystem.make(("f",), {"a"}, {"c"}, classifier, rules, {"f": word("c"), "g": word("c")})


def test_polynomial_rejects_a_base_for_an_unknown_index():
    x = Polynomial.var("x")
    with pytest.raises(DomainError, match=r"base value for 'y' outside its indices"):
        PolynomialSystem.make(("x",), {"a"}, {("x", "a"): x + 1}, {"x": 1, "y": 5})
    # a missing base is still named first
    with pytest.raises(DomainError, match=r"no base value for index 'x'"):
        PolynomialSystem.make(("x",), {"a"}, {("x", "a"): x + 1}, {"y": 5})


# ---------------------------------------------------------------------------
# renaming


@st.composite
def _z_systems(draw):
    """Polynomial systems with coefficients of either sign, degree <= 3, and
    beside the indices the rules read an index "u" that no rule reads; ring
    N when every coefficient and base value allows it and a draw asks for it."""
    names = st.sampled_from(["x", "Y", "a1", "b_0", "Z9"])
    read = tuple(draw(st.lists(names, min_size=1, max_size=3, unique=True)))
    letters = ("a", "b")[: draw(st.integers(1, 2))]

    def poly():
        p = Polynomial.const(draw(st.integers(-3, 3)))
        for _ in range(draw(st.integers(0, 3))):
            term = Polynomial.const(draw(st.integers(-3, 3)))
            for _ in range(draw(st.integers(0, 3))):
                term = term * Polynomial.var(draw(st.sampled_from(read)))
            p = p + term
        return p

    indices = read + ("u",)
    rules = {(i, a): poly() for i in indices for a in letters}
    base = {i: draw(st.integers(-3, 3)) for i in indices}
    signs = [c for p in rules.values() for c in p.terms.values()] + list(base.values())
    ring = "N" if min(signs, default=0) >= 0 and draw(st.booleans()) else "Z"
    return PolynomialSystem.make(indices, letters, rules, base, ring=ring)


@settings(deadline=None, max_examples=100)
@given(_z_systems(), st.sampled_from(["A_", "B_", "p"]))
def test_rename_system_matches_the_substituted_rename(sys, prefix):
    env = {i: Polynomial.var(prefix + i) for i in sys.indices}
    expected = PolynomialSystem.make(
        tuple(prefix + i for i in sys.indices),
        sys.input_alphabet,
        {(prefix + i, a): p.substitute(env) for (i, a), p in sys.rules},
        {prefix + i: v for i, v in sys.base},
        ring=sys.ring,
    )
    assert rename_system(sys, prefix) == expected


@settings(deadline=None, max_examples=100)
@given(_z_systems(), _z_systems())
def test_rename_and_product_equal_the_made_systems(sys_a, sys_b):
    # both skip make's checks, so they must build exactly what make builds
    assume(sys_a.input_alphabet == sys_b.input_alphabet)
    a, b = rename_system(sys_a, "A_"), rename_system(sys_b, "B_")
    # B_ before A_ merges pairs that are out of order
    cases = [(a, [a]), (b, [b]), (product_system(a, b), [a, b]), (product_system(b, a), [b, a])]
    for built, parts in cases:
        made = PolynomialSystem.make(
            built.indices,
            built.input_alphabet,
            {key: p for part in parts for key, p in part.rules},
            {i: v for part in parts for i, v in part.base},
            ring="Z" if any(part.ring == "Z" for part in parts) else "N",
        )
        assert built == made and hash(built) == hash(made)


def _reference_vector(sys, w):
    values = dict(sys.base)
    for a in reversed(w):
        values = {i: sys.rule_map[(i, a)].evaluate_int(values) for i in sys.indices}
    return values


@settings(deadline=None, max_examples=60)
@given(_z_systems())
def test_integer_step_matches_evaluate_int(sys):
    # every word up to length 6 in shortlex order, and the vectors the orbit
    # walk must visit: each one at its first word
    letters = sorted(sys.input_alphabet)
    words = [w for n in range(7) for w in product(letters, repeat=n)]
    first, seen = [], set()
    for w in words:
        vec = _reference_vector(sys, w)
        assert eval_polynomial_vector(sys, w) == vec
        key = tuple(vec[i] for i in sys.indices)
        if key not in seen:
            seen.add(key)
            first.append(vec)
    budget = Budget(sample_points=len(first), max_point_bits=10**6)
    assert reachable_points(sys, budget)[0] == first


# ---------------------------------------------------------------------------
# polynomial evaluation against evaluate_int, letter by letter


@st.composite
def _dense_systems(draw, degree):
    """Ring-Z systems over {a, b} on 1-4 indices, with coefficients and
    constant terms of either sign: affine rules, plus for degree 2 one
    quadratic term in the (x, a) rule."""
    indices = ("x", "y", "z", "t")[: draw(st.integers(1, 4))]
    coeff = st.integers(-3, 3)

    def poly():
        p = Polynomial.const(draw(coeff))
        for i in indices:
            p = p + draw(coeff) * Polynomial.var(i)
        return p

    rules = {(i, a): poly() for i in indices for a in "ab"}
    if degree == 2:
        square = Polynomial.var("x") * Polynomial.var(draw(st.sampled_from(indices)))
        rules[("x", "a")] = rules[("x", "a")] + draw(st.sampled_from([-2, -1, 1, 2])) * square
    return PolynomialSystem.make(indices, "ab", rules, {i: draw(coeff) for i in indices}, ring="Z")


@settings(deadline=None, max_examples=40)
@given(_dense_systems(1), st.lists(st.tuples(st.sampled_from("ab"), st.integers(1, 300)), max_size=8))
def test_affine_runs_match_evaluate_int_letter_by_letter(sys, runs):
    assert sys.affine
    w = tuple(chain.from_iterable((a,) * k for a, k in runs))
    assert eval_polynomial_vector(sys, w) == _reference_vector(sys, w)


def test_affine_runs_square_each_letters_map_once_per_call(monkeypatch):
    # (a^5 b)^3, stepped last letter first: a's runs share the maps of a^2
    # and a^4; b's runs of one square nothing
    P = Polynomial.var
    sys = PolynomialSystem.make(
        ("x", "y"), "ab",
        {("x", "a"): P("x") + P("y"), ("y", "a"): P("x") + 1, ("x", "b"): 2 * P("y"), ("y", "b"): P("x") - 3},
        {"x": 1, "y": 2}, ring="Z",
    )
    squared = []

    def recording(env):
        squared.append(env)
        return _powers(env)

    monkeypatch.setattr(recurrences, "_powers", recording)
    w = (("a",) * 5 + ("b",)) * 3
    assert eval_polynomial_vector(sys, w) == _reference_vector(sys, w)
    assert len(squared) == 2 and squared[0] is sys.maps["a"]


@settings(deadline=None, max_examples=40)
@given(_dense_systems(2), st.lists(st.sampled_from("ab"), max_size=12))
def test_polynomial_vector_matches_evaluate_int_on_degree_two_systems(sys, w):
    assert not sys.affine and max(p.degree() for _, p in sys.rules) == 2
    assert eval_polynomial_vector(sys, tuple(w)) == _reference_vector(sys, tuple(w))


@settings(deadline=None, max_examples=60)
@given(_z_systems(), st.lists(st.sampled_from("ab"), max_size=10), st.data())
def test_wanted_indices_equal_the_full_vector(sys, w, data):
    # letter by letter only the indices the wanted ones read are stepped;
    # u, which no rule reads, drops out after the first letter
    w = tuple(a for a in w if a in sys.input_alphabet)
    full = _reference_vector(sys, w)
    wanted = data.draw(st.sets(st.sampled_from(sys.indices), min_size=1))
    values = eval_polynomial_vector(sys, w, wanted)
    assert {i: values[i] for i in wanted} == {i: full[i] for i in wanted}
    if not sys.affine and w:
        assert set(values) == wanted
    assert {i: eval_polynomial(sys, i, w) for i in sys.indices} == full == eval_polynomial_vector(sys, w)


def test_fibonacci_on_long_runs_matches_the_closed_form():
    # F(a^n) = Fib(n + 1) = B / 2^n where (1 + sqrt 5)^(n + 1) = A + B sqrt 5
    from wordmaps.cli import load_file

    fib = load_file("fibonacci").resolve("F", "poly")[1]
    for n in (0, 1, 2, 3, 4, 1000, 4097):
        a, b = 1, 0
        for _ in range(n + 1):
            a, b = a + 5 * b, a + b
        assert b % 2**n == 0
        assert eval_polynomial(fib, "F", ("a",) * n) == b >> n


_P = Polynomial.var
_ONE_CLASS = DfaClassifier.single_class("a")


def _poly(rule=None, base=1, ring="N"):
    """A one-index system F(a w) = rule (2 * F by default), F(eps) = base."""
    return PolynomialSystem.make(("F",), "a", {("F", "a"): 2 * _P("F") if rule is None else rule}, {"F": base}, ring)


@pytest.mark.parametrize(
    "call,error,message",
    [
        (lambda: CatenativeSystem.make(("f",), "a", "x", {("f", "a"): ("f",)}, {"f": ("x", "y")}), DomainError,
         "base of 'f' uses letter 'y' outside the output alphabet"),
        (lambda: CompositionalSystem.make(("H",), "a", "xy", {("H", "a"): ("H",)}, {"H": Homomorphism({"x": "z"})}),
         DomainError, "base of 'H' is not an endomorphism of the working alphabet"),
        (lambda: DfaClassifier.make({"e"}, "o", {("e", "a"): "e"}), DomainError, "start state 'o' unknown"),
        (lambda: DfaClassifier.make({"e", "o"}, "e", {("e", "a"): "o"}), DomainError,
         "classifier is not complete: missing ('o', 'a')"),
        (lambda: DfaClassifier.make({"e"}, "e", {("e", "a"): "o"}), DomainError,
         "classifier transition (e,a) -> o uses unknown states"),
        (lambda: _ONE_CLASS.classify(("a", "b")), DomainError, "classifier has no transition for letter 'b'"),
        (lambda: RegularSystem.make(("f",), "a", "x", _ONE_CLASS, {("f", "a", "all"): (("f", ("b",)),)},
                                    {"f": ("x",)}), DomainError, "shift word letter 'b' outside the input alphabet"),
        (lambda: RegularSystem.make(("f",), "a", "x", _ONE_CLASS, {("f", "a", "all"): (("f", ()),)},
                                    {"f": ("z",)}), DomainError, "base of 'f' uses letter 'z' outside the output alphabet"),
        (lambda: _poly(ring="Q"), DomainError, "ring must be 'N' or 'Z'"),
        (lambda: _poly(_P("F") + _P("G")), DomainError, "rule (F,a) uses variables ['G'] outside the index set"),
        (lambda: _poly(Fraction(1, 2) * _P("F")), DomainError, "rule (F,a) has a non-integer coefficient 1/2"),
        (lambda: _poly(base=-1), DomainError, "base of 'F' is negative in ring N"),
        (lambda: PolynomialSystem.make(("1x",), "a", {("1x", "a"): 2 * _P("1x")}, {"1x": 1}), DomainError,
         "index '1x' is not an identifier, a symbol that starts with a letter or '_'"),
        (lambda: product_system(_poly(), _poly()), DomainError, "product systems must have disjoint index sets"),
    ],
    ids=["cat-base-letter", "comp-base", "dfa-start", "dfa-incomplete", "dfa-states", "classify-letter",
         "reg-shift-letter", "reg-base-letter", "poly-ring", "poly-variable", "poly-coefficient",
         "poly-negative-base", "poly-identifier", "product-overlap"],
)
def test_every_recurrence_refusal_names_its_cause(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert str(err.value) == message



def test_a_refusal_names_its_least_offender_under_any_hash_seed():
    # each refusal finds its offender in a set, whose order changes with the
    # hash seed; two processes with different seeds must print one message
    script = """
from wordmaps.morphisms import Homomorphism, HDT0LSystem
from wordmaps.systemfile import parse_file
reg = "reg r {\\n  input: a\\n  output: a\\n  classes: p q s\\n  start: p\\n  step: p a -> q\\n"
cases = [
    lambda: Homomorphism({"x": "x"}, source="xyzw"),
    lambda: HDT0LSystem.make("abcd", "V", {"a": Homomorphism({"V": "V"})}, Homomorphism({"V": "b"}), "V"),
    lambda: parse_file(reg + "  f(eps) = a\\n  f(a w) = f(w)\\n}\\n"),
    lambda: parse_file(reg + "  step: q a -> q\\n  step: s a -> q\\n  f(eps) = a\\n  f(a w) = g(w)\\n}\\n"),
]
for case in cases:
    try:
        case()
    except Exception as e:
        print(e)
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    runs = [subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60,
                           env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed}).stdout
            for seed in ("1", "2")]
    assert runs[0] == runs[1] == (
        "no image given for source letter 'w'\n"
        "no table for input letter 'b'\n"
        "1: classifier is not complete: missing ('q', 'a')\n"
        "1: rule (f,a,p) mentions unknown index 'g'\n"
    )

def test_a_quotient_folds_constant_indices_and_joins_bisimilar_ones():
    P = Polynomial.var
    # C stays 1 and Z stays 0; X and Dup swap roles at b but agree at every word
    sys = PolynomialSystem.make(
        ("X", "Dup", "C", "Z"), "ab",
        {("X", "a"): P("X") + P("C"), ("X", "b"): 2 * P("Dup"), ("Dup", "a"): P("Dup") + P("C"),
         ("Dup", "b"): 2 * P("X"), ("C", "a"): P("C") ** 2, ("C", "b"): P("C"),
         ("Z", "a"): P("Z") * P("X"), ("Z", "b"): P("Z")},
        {"X": 1, "Dup": 1, "C": 1, "Z": 0},
    )
    # beside the system with no indices, which adds no class, and with a t
    # that reads every index, so the cone keeps every class not constant
    empty, one = PolynomialSystem((), sys.input_alphabet, (), ()), Polynomial.const(1)
    of = equivalence._congruence((sys, empty))
    assert of == [{"X": "A_X", "Dup": "A_X", "C": 1, "Z": 0}, {}]
    t = P("X") + P("Dup") + P("C") + P("Z")
    reduced, reduced_t = equivalence._reduced((sys, t, one), (empty, Polynomial.zero(), one))
    assert reduced_t == 2 * P("A_X") + 1
    assert reduced.indices == ("A_X",) and reduced.base == (("A_X", 1),)
    assert reduced.rule_map == {("A_X", "a"): P("A_X") + 1, ("A_X", "b"): 2 * P("A_X")}
    for n in range(5):
        for w in product("ab", repeat=n):
            values, folded = eval_polynomial_vector(sys, w), eval_polynomial_vector(reduced, w)
            assert all(values[i] == (k if type(k) is int else folded[k]) for i, k in of[0].items())
    assert sys.first_steps == {a: eval_polynomial_vector(sys, (a,)) for a in "ab"}
