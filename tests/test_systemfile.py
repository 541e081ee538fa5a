import math
from importlib import resources

import pytest
from hypothesis import given, settings, strategies as st

from wordmaps.errors import DomainError, ParseError, WordmapsError
from wordmaps.groebner import Ideal
from wordmaps.kpda import KPda, Pop, Push
from wordmaps.morphisms import HDT0LSystem, Homomorphism, LinearRepresentation
from wordmaps.polynomials import Polynomial
from wordmaps.pushdown import GradedAlphabet
from wordmaps.recurrences import (
    CatenativeSystem,
    CompositionalSystem,
    DfaClassifier,
    PolynomialSystem,
    RegularSystem,
    catenative_to_regular,
    eval_catenative,
    eval_polynomial,
)
from wordmaps.systemfile import FractionSpec, format_declaration, format_file, parse_file
from wordmaps.words import show_word, word

BUNDLED = ["fibonacci", "factorial", "npown", "gmap", "skolem-demo", "identity-pda", "pow2-pda"]


def _text(name):
    return resources.files("wordmaps").joinpath("data", name + ".sys").read_text()


@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_files_parse(name):
    sf = parse_file(_text(name), filename=name)
    assert sf.declarations


def test_fibonacci_file_contents():
    sf = parse_file(_text("fibonacci"))
    kind, fib = sf.resolve("F", "poly")
    assert eval_polynomial(fib, "F", ("a",) * 10) == 89
    kind, fword = sf.resolve("Fword", "cat")
    assert len(eval_catenative(fword, "f", ("a",) * 6)) == 13


UNKNOWN_INDEX = {
    "cat": "cat bad {\n  input: a\n  output: b\n  f(eps) = b\n  f(a w) = f(w) g(w)\n}\n",
    "comp": "comp bad {\n  input: a\n  working: x\n  f(eps) = { x -> x }\n  f(a w) = f(w) g(w)\n}\n",
}


@pytest.mark.parametrize("kind", sorted(UNKNOWN_INDEX))
def test_unknown_index_is_named_in_the_error(kind):
    # the error of the system's own check, placed at the block's header line
    with pytest.raises(ParseError, match=r"^bad\.sys:1: rule \(f,a\) mentions unknown index 'g'$") as err:
        parse_file(UNKNOWN_INDEX[kind], filename="bad.sys")
    assert (err.value.filename, err.value.line) == ("bad.sys", 1)
    assert isinstance(err.value.__cause__, DomainError)


def test_parse_error_positions():
    with pytest.raises(ParseError) as err:
        parse_file("cat oops {\n  input: a\n", filename="f.sys")
    assert "f.sys" in str(err.value)
    with pytest.raises(ParseError) as err:
        parse_file("cat x {\n  ???\n}\n")
    assert "2" in str(err.value)


@pytest.mark.parametrize(
    "text,wanted",
    [
        ("alphabet A { a }\n\n  oops here # note\n", "f.sys:3: expected a block header 'kind name {', got 'oops here'"),
        ("alphabet A { a }\ncat c { input: a\n}\n", "f.sys:2: a block header must end its line with '{'"),
        ("hom h { x -> x } y\n", "f.sys:1: a block header must end its line with '{'"),
        ("alphabet A { a }\n# c\ncat c {\n  input: a\n  } ;\n", "f.sys:3: block 'c' is missing its closing '}'"),
        ("hom h { x -> x ; { ; y -> y }\n", "f.sys:1: a block header must end its line with '{'"),
        ("hom h {\n  x -> x ; { ; y -> y }\n}\n", "f.sys:2: cannot parse statement '{ ; y -> y }'"),
        ("alphabet A { a }\nnope n {\n}\n", "f.sys:2: unknown block kind 'nope'"),
    ],
)
def test_block_scanning_errors_name_their_line(text, wanted):
    with pytest.raises(ParseError) as err:
        parse_file(text, filename="f.sys")
    assert str(err.value) == wanted


def test_a_semicolon_splits_statements_only_where_the_braces_before_it_balance():
    one_line = "comp c { input: a ; working: x y ; H(eps) = { x -> x y ; y -> eps } ; H(a w) = H(w) }\n"
    lines = "comp c {\n  input: a\n  working: x y\n  H(eps) = { x -> x y ; y -> eps }\n  H(a w) = H(w)\n}\n"
    assert parse_file(one_line).resolve("c") == parse_file(lines).resolve("c")
    # after an unbalanced '}' the rest of the line is one statement
    _, h = parse_file("hom h {\n  x -> x } ; y\n}\n").resolve("h")
    assert h.images == {"x": ("x", "}", ";", "y")}


def test_duplicate_declaration_rejected():
    text = "alphabet A { letters: a }\nalphabet A { letters: b }\n"
    with pytest.raises(ParseError):
        parse_file(text)


# lookup maps built on first use; they are not fields
CACHED_MAPS = ("moves", "rule_map", "base_map", "maps", "table_map", "matrix_map")


@pytest.mark.parametrize("name", BUNDLED)
def test_reprint_round_trip_stable(name):
    sf = parse_file(_text(name), filename=name)
    printed = format_file(sf)
    sf2 = parse_file(printed, filename=name + ":printed")
    assert list(sf.declarations) == list(sf2.declarations)
    for key in sf.declarations:
        kind1, obj1 = sf.declarations[key]
        kind2, obj2 = sf2.declarations[key]
        assert kind1 == kind2
        for attr in CACHED_MAPS:
            if hasattr(type(obj1), attr):
                getattr(obj1, attr)
        assert obj1 == obj2, key
        if kind1 in ("pda", "poly", "cat"):
            assert hash(obj1) == hash(obj2), key
    # printing is idempotent
    assert format_file(sf2) == printed


def test_paper_literal_resolution():
    sf = parse_file(_text("factorial"))
    kind, corrected = sf.resolve("UV")
    kind, literal = sf.resolve("UV", paper_literal=True)
    assert corrected != literal
    word_ab = word("babaab")
    assert eval_polynomial(corrected, "U", word_ab) == 6
    assert eval_polynomial(literal, "U", word_ab) == 1


def test_prefix_resolution():
    sf = parse_file(_text("fibonacci"))
    kind, obj = sf.resolve("fibr")
    assert kind == "linrep"


def test_inline_and_multiline_hom_blocks():
    sf = parse_file("hom f { x -> x y ; y -> eps }")
    _, h = sf.resolve("f")
    assert h.images == {"x": ("x", "y"), "y": ()}
    sf2 = parse_file("hom f {\n  x -> x y\n  y -> eps\n}")
    assert sf2.resolve("f")[1] == h
    # the colon form is also accepted
    sf3 = parse_file("hom f : { x -> x y ; y -> eps }")
    assert sf3.resolve("f")[1] == h


# kinds the bundled files do not contain
INLINE_KINDS = """
reg parity {
  input: a b
  output: x
  classes: even odd
  start: even
  step: even a -> odd
  step: odd a -> even
  step: even b -> even
  step: odd b -> odd
  f(eps) = x
  f(a w) @even = f(b w) f(w)
  f(a w) @odd = f(w)
  f(b w) = eps
}

frac half {
  system: halves
  g: F
  h: Z
  fp: Two
  gp: One
}

ideal twisted {
  vars: x y z
  gen: y - x^2
  gen: x * z - 1
}

alphabet letters { a b ; letters: c }

graded stack {
  1: A B
  2: C
}

poly halves {
  input: a
  F(eps) = 1
  Z(eps) = 0
  Two(eps) = 2
  One(eps) = 1
  F(a w) = Two * F
  Z(a w) = Z
  Two(a w) = Two
  One(a w) = One
}
"""


def _comparable(kind, obj):
    return (obj.variables(), obj.generators) if kind == "ideal" else obj


def test_reprint_round_trip_of_the_kinds_outside_the_bundled_files():
    sf = parse_file(INLINE_KINDS, filename="inline.sys")
    assert [sf.declarations[n][0] for n in sf.declarations] == ["reg", "frac", "ideal", "alphabet", "graded", "poly"]
    printed = format_file(sf)
    sf2 = parse_file(printed, filename="inline.sys:printed")
    assert list(sf.declarations) == list(sf2.declarations)
    for key in sf.declarations:
        kind, obj = sf.declarations[key]
        assert sf2.declarations[key][0] == kind
        assert _comparable(kind, obj) == _comparable(kind, sf2.declarations[key][1]), key
    assert format_file(sf2) == printed
    # a library-built regular system: its classes are its classifier's states
    reg = catenative_to_regular(parse_file(_text("fibonacci")).resolve("Fword", "cat")[1])
    assert parse_file(format_declaration("reg", "r", reg)).resolve("r", "reg")[1] == reg


# kind -> (a valid body, index of a single-valued directive, index of a
# required directive, an unparsable statement).  The repeated cases include a
# cat block with two 'input:' lines and a frac block with two 'g:' lines.  An
# alphabet has neither a single-valued nor a required directive, and any bare
# statement lists letters; a hom block has no directives, so its repeated
# case is a letter given two images.
VALID_BODIES = {
    "alphabet": (["letters: a b", "c"], None, None, None),
    "graded": (["1: A B", "2: C"], 0, 0, "A B"),
    "hom": (["x -> a", "y -> eps"], 0, None, "x y"),
    "cat": (["input: a", "output: b", "f(eps) = b", "f(a w) = f(w)"], 0, 1, "f(a) = b"),
    "comp": (["input: a", "working: x", "H(eps) = { x -> x x }", "H(a w) = H(w)"], 1, 0, "H(a w) H(w)"),
    "reg": (
        ["input: a", "output: b", "classes: c", "start: c", "step: c a -> c", "f(eps) = b",
         "f(a w) @c = f(w)"],
        3,
        2,
        "f(a w) @ = f(w)",
    ),
    "poly": (["input: a", "ring: Z", "F(eps) = 1", "F(a w) = 2 * F"], 1, 0, "F(a w) 2 * F"),
    "hdt0l": (
        ["input: x", "working: p q", "output: b", "seed: q", "table x = { p -> p q ; q -> p }",
         "final = { p -> b ; q -> b }"],
        3,
        1,
        "table = { p -> q }",
    ),
    "linrep": (
        ["letters: x", "dim: 2", "row: 1 0", "mat x = [ 1 1 / 1 0 ]", "col: 1 0"], 1, 2, "mat x = 1 1"
    ),
    "pda": (
        ["level: 1", "states: q", "terminals: a", "input: A", "gamma 1: A", "start: q",
         "q , a , A -> q , pop_1"],
        0,
        1,
        "q , a -> q , pop_1",
    ),
    "ideal": (["vars: x y", "gen: x - y"], 0, 0, "x - y"),
    "frac": (["system: s", "g: A", "h: B", "fp: C", "gp: D"], 1, 2, "g = A"),
}


def _block(kind, body):
    return f"{kind} k {{\n" + "".join(f"  {line}\n" for line in body) + "}\n"


# (kind, a last statement that the valid body of VALID_BODIES refuses, the
# refusal, the case id): a statement that repeats or contradicts another
REFUSED_LAST_LINES = [
    ("cat", "f(eps) = b", "two base cases for 'f'", "cat-two-base-cases"),
    ("cat", "f(a w) = f(w) f(w)", "duplicate rule for f(a w)", "cat-two-rules"),
    ("cat", "f(a w) @c = f(w)", "cat rules take no @class", "cat-class"),
    ("poly", "F(a w) @c = F", "poly rules take no @class", "poly-class"),
    ("hdt0l", "table x = { p -> p ; q -> q }", "two tables for letter 'x'", "hdt0l-two-tables"),
    ("hdt0l", "final = { p -> b ; q -> b }", "repeated 'final ='", "hdt0l-two-finals"),
    ("linrep", "mat x = [ 1 0 / 0 1 ]", "two matrices for letter 'x'", "linrep-two-mats"),
    ("reg", "step: c a -> c", "two steps for state 'c' on letter 'a'", "reg-two-steps"),
    ("pda", "q , a , A -> q , push_1()", "push needs at least one symbol", "pda-empty-push"),
    ("reg", "f(eps) @q = b", "base cases take no @class", "reg-base-class"),
    ("reg", "step: q a q", "classifier step must be 'STATE LETTER -> STATE'", "reg-step-arrow"),
]

# (kind, a whole body that is refused, the line of the refusal, the refusal,
# the case id): a statement that cannot stand, or a directive that is missing
# or contradicts the data
REFUSED_BODIES = [
    ("cat", ["input: a", "output: b", "f(eps) = b", "f(a w) = f(a w)"], 5, "cat rules take no shift letters",
     "cat-shift"),
    ("comp", ["input: a", "working: x", "H(eps) = { x y }", "H(a w) = H(w)"], 4, "bad homomorphism rule 'x y'",
     "comp-base-no-arrow"),
    ("comp", ["input: a", "working: x", "H(eps) = x -> x", "H(a w) = H(w)"], 4, "expected a homomorphism body",
     "comp-base-no-braces"),
    ("hdt0l", VALID_BODIES["hdt0l"][0][:-1], 1, "hdt0l k needs 'final ='", "hdt0l-no-final"),
    ("linrep", ["letters: x", "dim: 2", "row: 1 0", "col: 1 0"], 1, "linrep k needs at least one 'mat'",
     "linrep-no-mat"),
    ("linrep", ["dim: 2", "row: 1", "mat x = [ 1 ]", "col: 1"], 2, "declared dim 2 does not match the data",
     "linrep-dim"),
    ("cat", ["input: a", "output: b", "f(eps) = b", "f(a w) = f(w) +"], 5, "cannot parse right-hand side 'f(w) +'",
     "cat-rhs"),
    ("cat", ["input: a", "output: b", "f(eps) = b", "f(a w) = f(a)"], 5, "rule argument 'a' must end in 'w'",
     "cat-rule-argument"),
]


def _malformed_cases():
    for kind, (body, single, required, bad) in VALID_BODIES.items():
        end = len(body) + 2  # the line after the body (the header is line 1)
        unknown = _block(kind, body + ["bogus: x"])
        yield pytest.param(unknown, end, "unknown directive", id=f"{kind}-unknown")
        if single is not None:
            repeated = _block(kind, body[: single + 1] + body[single:])
            wanted = "two images" if kind == "hom" else "repeated"
            yield pytest.param(repeated, single + 3, wanted, id=f"{kind}-repeated")
        if required is not None:
            missing = _block(kind, body[:required] + body[required + 1 :])
            yield pytest.param(missing, 1, "needs", id=f"{kind}-missing")
        if bad is not None:
            yield pytest.param(_block(kind, body + [bad]), end, "cannot parse", id=f"{kind}-unparsable")
    for kind, last, wanted, case in REFUSED_LAST_LINES:
        body = VALID_BODIES[kind][0]
        yield pytest.param(_block(kind, body + [last]), len(body) + 2, wanted, id=case)
    for kind, body, line, wanted, case in REFUSED_BODIES:
        yield pytest.param(_block(kind, body), line, wanted, id=case)


@pytest.mark.parametrize("kind", VALID_BODIES)
def test_the_valid_bodies_parse(kind):
    # a frac block's system: must name a poly block of the same file, which
    # has the frac's g:, h:, fp: and gp: indices
    rules = "".join(f"  {i}(eps) = 1\n  {i}(a w) = {i}\n" for i in "ABCD")
    poly = "poly s {\n  input: a\n" + rules + "}\n" if kind == "frac" else ""
    sf = parse_file(_block(kind, VALID_BODIES[kind][0]) + poly, filename="f.sys")
    assert list(sf.declarations) == ["k"] + ["s"] * bool(poly)


@pytest.mark.parametrize("system", ["pa", "nope", "F"])
def test_a_frac_must_name_a_poly_block_of_its_file_exactly(system):
    # pa only prefixes pair, nope names nothing and F is an alphabet
    text = "poly pair {\n  input: a\n  A(eps) = 1\n  A(a w) = A\n}\nalphabet F { a }\n"
    text += _block("frac", [f"system: {system}", "g: A", "h: A", "fp: A", "gp: A"])
    with pytest.raises(ParseError) as err:
        parse_file(text, filename="f.sys")
    assert str(err.value) == f"f.sys:7: frac k names no poly block {system!r}"
    assert list(parse_file(text.replace(f"system: {system}", "system: pair")).declarations) == ["pair", "F", "k"]


@pytest.mark.parametrize("key", ["g", "h", "fp", "gp"])
def test_a_frac_must_name_indices_of_its_poly_block(key):
    # the file is refused when it is read, at the frac header, not when an
    # equiv target resolves the frac
    text = "poly pair {\n  input: a\n  A(eps) = 1\n  A(a w) = A\n}\n"
    body = ["system: pair"] + [f"{k}: {'Nope' if k == key else 'A'}" for k in ("g", "h", "fp", "gp")]
    with pytest.raises(ParseError) as err:
        parse_file(text + _block("frac", body), filename="f.sys")
    assert str(err.value) == "f.sys:6: frac k names index 'Nope', which poly block 'pair' lacks"


@pytest.mark.parametrize("text,line,wanted", _malformed_cases())
def test_every_kind_rejects_malformed_input_at_its_line(text, line, wanted):
    with pytest.raises(ParseError) as err:
        parse_file(text, filename="f.sys")
    assert str(err.value).startswith(f"f.sys:{line}: ")
    assert wanted in str(err.value)


def test_ideal_vars_apply_wherever_they_stand():
    _, ideal = parse_file("ideal i {\n  gen: x*y - 1\n  vars: x y\n}\n").resolve("i")
    assert ideal.variables() == ("x", "y")
    with pytest.raises(ParseError) as err:
        parse_file("ideal i {\n  gen: x*y - 1\n  vars: x\n}\n", filename="f.sys")
    assert str(err.value).startswith("f.sys:2: ") and "'y'" in str(err.value)


def test_reg_rule_with_an_unknown_class_is_rejected():
    text = (
        "reg r {\n  input: a\n  output: b\n  classes: c\n  start: c\n  step: c a -> c\n"
        "  f(eps) = b\n  f(a w) = f(w)\n  f(a w) @zz = f(w)\n}\n"
    )
    with pytest.raises(ParseError) as err:
        parse_file(text, filename="f.sys")
    assert str(err.value).startswith("f.sys:9: ") and "'zz'" in str(err.value)


def test_linrep_letters_must_match_the_matrices():
    text = "linrep r {\n  letters: a b\n  dim: 1\n  row: 1\n  mat a = [ 1 ]\n  col: 1\n}\n"
    with pytest.raises(ParseError) as err:
        parse_file(text, filename="f.sys")
    assert str(err.value).startswith("f.sys:2: ")
    _, rep = parse_file(text.replace("letters: a b", "letters: a")).resolve("r")
    assert rep.letters == {"a"}


@pytest.mark.parametrize("level", [0, -1])
def test_pda_level_below_one_is_rejected_at_its_line(level):
    text = _block("pda", ["states: q", "terminals: a", f"level: {level}", "start: q"])
    with pytest.raises(ParseError) as err:
        parse_file(text, filename="f.sys")
    assert str(err.value).startswith("f.sys:4: ") and "at least 1" in str(err.value)


@pytest.mark.parametrize(
    "text,line",
    [
        ("alphabet A { x -> y }\n", 1),
        (_block("alphabet", ["letters: a b", "c ->"]), 3),
        (_block("cat", ["input: a ->", "output: x", "f(eps) = x", "f(a w) = f(w)"]), 2),
        (_block("poly", ["input: a", "f(eps) = 1", "f(-> w) = f"]), 4),
        (_block("graded", ["1: A ->", "2: B"]), 2),
    ],
)
def test_letters_must_be_identifiers(text, line):
    with pytest.raises(ParseError) as err:
        parse_file(text, filename="f.sys")
    assert str(err.value).startswith(f"f.sys:{line}: ")


def test_a_graded_level_key_must_be_a_decimal_number():
    with pytest.raises(ParseError) as err:
        parse_file(_block("graded", ["1: A", "²: B"]), filename="f.sys")
    assert str(err.value) == "f.sys:3: unknown directive '²'"


def _comparable(kind, obj):
    # an Ideal compares by identity; its variables and generators are its data
    return (obj.variables(), obj.generators) if kind == "ideal" else obj


# (kind, a body with a symbol in one statement form, how to read its symbols
# off the parsed object, the symbols): one case per statement form
PRIMED_SYMBOLS = [
    ("alphabet", ["letters: x′ y_1 z'"], lambda o: o, {"x′", "y_1", "z'"}),
    ("reg", ["input: a", "output: b", "classes: q q'", "start: q", "step: q a -> q'", "step: q' a -> q",
             "f(eps) = b", "f(a w) @q = f(w)", "f(a w) @q' = f(w) f(w)"], lambda o: o.classifier.states, {"q", "q'"}),
    ("hdt0l", ["input: a′", "working: x", "output: b", "seed: x", "table a′ = { x -> x x }", "final = { x -> b }"],
     lambda o: o.input_alphabet, {"a′"}),
    ("linrep", ["row: 1 0", "col: 0 1", "mat a′ = [ 1 1 / 1 0 ]"], lambda o: o.letters, {"a′"}),
    ("pda", ["level: 2", "states: q′", "terminals: a", "input: a", "gamma 1: a", "gamma 2: S′", "bottoms: S′",
             "start: q′", "q′ , a , a S′ -> q′ , pop_1", "q′ , eps , S′ -> q′ , push_2(S′ S′)"],
     lambda o: o.states | o.gamma.levels[1], {"q′", "S′"}),
    ("cat", ["input: a", "output: b", "f′(eps) = b", "f′(a w) = f′(w) f′(w)"], lambda o: set(o.indices), {"f′"}),
    ("poly", ["input: a", "X′(eps) = 1", "X′(a w) = 2 * X′ + 1"], lambda o: set(o.indices), {"X′"}),
    ("ideal", ["vars: x′", "gen: x′^2 - 1"], lambda o: set(o.variables()), {"x′"}),
]


@pytest.mark.parametrize("kind,body,read,symbols", PRIMED_SYMBOLS, ids=[c[0] for c in PRIMED_SYMBOLS])
def test_letters_may_carry_primes_and_underscores(kind, body, read, symbols):
    obj = parse_file(_block(kind, body)).resolve("k", kind)[1]
    assert read(obj) == symbols
    back = parse_file(format_declaration(kind, "k", obj)).resolve("k", kind)[1]
    assert _comparable(kind, back) == _comparable(kind, obj)


# symbol characters: letters, a digit, '_', "'", '′' and a Greek letter; no
# symbol spells eps, the empty word
_CHARS = "abxX0_'′α"
_SYMBOLS = st.text(_CHARS, min_size=1, max_size=3)
# a polynomial variable starts with a letter or '_'
_VARIABLES = st.builds(str.__add__, st.sampled_from("abxX_α"), st.text(_CHARS, max_size=2))


def _alphabets(symbols=_SYMBOLS):
    # a multi-character letter that the alphabet's one-character letters spell
    # does not survive printing, so no alphabet holds one
    return st.frozensets(symbols, min_size=1, max_size=3).filter(
        lambda alphabet: not any(len(a) > 1 and set(a) <= alphabet for a in alphabet))


def _words(alphabet):
    return st.lists(st.sampled_from(sorted(alphabet)), max_size=3).map(tuple)


def _polynomials(variables, coefficients):
    monomials = st.lists(st.tuples(st.sampled_from(variables), st.integers(1, 2)), max_size=2)
    terms = st.lists(st.tuples(coefficients, monomials), max_size=3)
    return terms.map(lambda ts: sum((c * math.prod((Polynomial.var(v) ** e for v, e in m), start=Polynomial.const(1))
                                     for c, m in ts), Polynomial.const(0)))


@st.composite
def _declarations(draw, kind):
    """A random object of ``kind``, as the library builds it."""
    def endomorphism(working, target=None):
        images = {v: draw(_words(target or working)) for v in working}
        return Homomorphism(images, source=working, target=target or working)

    if kind == "alphabet":
        return draw(_alphabets())
    if kind == "graded":
        height = draw(st.integers(1, 3))
        symbols = draw(st.lists(_SYMBOLS, min_size=height, max_size=6, unique=True))
        return GradedAlphabet.of(*(symbols[i::height] for i in range(height)))
    if kind == "hom":
        letters = draw(_alphabets())
        return Homomorphism({a: draw(_words(letters)) for a in letters})
    if kind == "frac":
        # a frac names four indices of a poly block, drawn with it
        poly = draw(_declarations("poly"))
        return poly, FractionSpec("p", *(draw(st.sampled_from(poly.indices)) for _ in range(4)))
    if kind in ("cat", "comp", "reg", "poly"):
        indices = tuple(sorted(draw(st.frozensets(_VARIABLES if kind == "poly" else _SYMBOLS, min_size=1,
                                                  max_size=3))))
        inp = draw(_alphabets())
        products = st.lists(st.sampled_from(indices), max_size=3).map(tuple)
    if kind == "cat":
        out = draw(_alphabets())
        return CatenativeSystem.make(indices, inp, out, {(i, a): draw(products) for i in indices for a in inp},
                                     {i: draw(_words(out)) for i in indices})
    if kind == "comp":
        working = draw(_alphabets())
        return CompositionalSystem.make(indices, inp, working, {(i, a): draw(products) for i in indices for a in inp},
                                        {i: endomorphism(working) for i in indices})
    if kind == "reg":
        out, states = draw(_alphabets()), sorted(draw(_alphabets()))
        classifier = DfaClassifier.make(states, draw(st.sampled_from(states)),
                                        {(q, a): draw(st.sampled_from(states)) for q in states for a in inp})
        terms = st.lists(st.tuples(st.sampled_from(indices), _words(inp)), max_size=2).map(tuple)
        rules = {(i, a, d): draw(terms) for i in indices for a in inp for d in states}
        return RegularSystem.make(indices, inp, out, classifier, rules, {i: draw(_words(out)) for i in indices})
    if kind == "poly":
        ring = draw(st.sampled_from("NZ"))
        coefficients = st.integers(0 if ring == "N" else -3, 3)
        rules = {(i, a): draw(_polynomials(indices, coefficients)) for i in indices for a in inp}
        return PolynomialSystem.make(indices, inp, rules, {i: draw(coefficients) for i in indices}, ring)
    if kind == "hdt0l":
        inp, working, out = draw(_alphabets()), draw(_alphabets()), draw(_alphabets())
        return HDT0LSystem.make(inp, working, {a: endomorphism(working) for a in inp}, endomorphism(working, out),
                                draw(st.sampled_from(sorted(working))))
    if kind == "linrep":
        d = draw(st.integers(1, 2))
        vectors = st.lists(st.integers(-3, 3), min_size=d, max_size=d).map(tuple)
        mats = {a: tuple(draw(vectors) for _ in range(d)) for a in draw(_alphabets())}
        return LinearRepresentation.make(draw(vectors), mats, draw(vectors))
    if kind == "pda":
        level = draw(st.integers(1, 2))
        states, terminals = sorted(draw(_alphabets())), sorted(draw(_alphabets()))
        symbols = draw(st.lists(_SYMBOLS, min_size=level, max_size=4, unique=True))
        stack = st.lists(st.sampled_from(symbols), min_size=1, max_size=level).map(tuple)
        key = st.tuples(st.sampled_from(states), st.sampled_from(["", *terminals]), stack)
        op = st.one_of(st.builds(Pop, st.integers(1, level)), st.builds(Push, st.integers(1, level), stack))
        delta = draw(st.dictionaries(key, st.sets(st.tuples(st.sampled_from(states), op), min_size=1, max_size=2),
                                     max_size=3))
        gamma = GradedAlphabet.of(*(symbols[i::level] for i in range(level)))
        return KPda.make(level, states, terminals, gamma, delta, draw(st.sampled_from(states)),
                         input_alphabet=draw(st.frozensets(st.sampled_from(terminals))),
                         bottom_symbols=[draw(st.sampled_from(symbols)) for _ in range(level - 1)], name="t")
    variables = tuple(draw(st.lists(_VARIABLES, min_size=1, max_size=3, unique=True)))
    return Ideal(draw(st.lists(_polynomials(variables, st.integers(-3, 3)), max_size=3)), variables)


@pytest.mark.parametrize("kind", ["alphabet", "graded", "hom", "cat", "comp", "reg", "poly", "hdt0l", "linrep",
                                  "pda", "ideal", "frac"])
@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_a_printed_declaration_reads_back_equal(kind, data):
    obj, text = data.draw(_declarations(kind)), ""
    if kind == "frac":
        poly, obj = obj
        text = format_declaration("poly", "p", poly) + "\n\n"
    back = parse_file(text + format_declaration(kind, "t", obj)).resolve("t", kind)[1]
    assert _comparable(kind, back) == _comparable(kind, obj)


@pytest.mark.parametrize("kind,body,what", [
    ("ideal", ["vars: x 1", "gen: x - 1"], "variable '1'"),
    ("poly", ["input: a", "1(eps) = 1", "1(a w) = 2 * 1"], "index '1'"),
], ids=["ideal", "poly"])
def test_a_numeral_variable_or_index_is_refused(kind, body, what):
    # "2 * 1" would read back as the constant 2, with no error
    with pytest.raises(ParseError, match=f"^f.sys:1: {what} is a numeral, which an expression reads as a number$"):
        parse_file(_block(kind, body), filename="f.sys")


@pytest.mark.parametrize("kind,body,what", [
    ("ideal", ["vars: x 1x", "gen: x - 1"], "variable '1x'"),
    ("poly", ["input: a", "1x(eps) = 1", "1x(a w) = 2"], "index '1x'"),
], ids=["ideal", "poly"])
def test_a_variable_or_index_that_is_not_an_identifier_is_refused(kind, body, what):
    # an expression reads 1x as 1 then x, so "2 * 1x" would not read back
    with pytest.raises(ParseError, match=f"^f.sys:1: {what} is not an identifier, a symbol that starts with a letter "
                                         "or '_'$"):
        parse_file(_block(kind, body), filename="f.sys")


_EDITS = st.tuples(
    st.integers(0, 10**6),
    st.sampled_from(["", "x", "1", ":", "{", "}", "(", ";", "=", "->", "\n", "²", "٣", "é", "′", "#"]),
)


@settings(deadline=None, max_examples=300)
@given(st.sampled_from(BUNDLED), st.lists(_EDITS, min_size=1, max_size=3))
def test_an_edited_file_parses_or_raises_a_library_error(name, edits):
    text = _text(name)
    for at, replacement in edits:
        at %= len(text)
        text = text[:at] + replacement + text[at + 1 :]
    try:
        parse_file(text, filename="edited.sys")
    except WordmapsError:
        pass


# (kind, a body with one-letter words of the multi-character letters x1 and
# p1, how to read those words off the parsed object)
ONE_LETTER_WORDS = [
    ("cat", ["input: a", "output: x1 y", "f(eps) = x1", "f(a w) = f(w)"], lambda o: [dict(o.base)["f"]]),
    ("reg", ["input: a", "output: x1 y", "classes: c", "start: c", "step: c a -> c", "f(eps) = x1",
             "f(a w) = f(w)"], lambda o: [dict(o.base)["f"]]),
    ("comp", ["input: a", "working: x1 y", "H(eps) = { y -> x1 }", "H(a w) = H(w)"],
     lambda o: [dict(o.base)["H"].images["y"]]),
    ("hdt0l", ["input: a", "working: p1 q", "output: x1 y", "seed: q", "table a = { q -> p1 }",
               "final = { p1 -> x1 ; q -> y }"], lambda o: [o.table("a").images["q"], o.final.images["p1"]]),
]


@pytest.mark.parametrize("kind,body,read", ONE_LETTER_WORDS, ids=[c[0] for c in ONE_LETTER_WORDS])
def test_a_one_letter_word_of_a_multi_character_letter_reads_back(kind, body, read):
    obj = parse_file(_block(kind, body)).resolve("k", kind)[1]
    assert all(len(w) == 1 and w[0] in ("x1", "p1") for w in read(obj))
    printed = format_declaration(kind, "k", obj)
    assert parse_file(printed).resolve("k", kind)[1] == obj


def test_a_token_spelled_by_one_character_letters_still_splits():
    # over {a, b, ab} the token ab reads as a b, as it did without the alphabet
    cat = parse_file(_block("cat", ["input: a", "output: a b ab", "f(eps) = ab", "f(a w) = f(w) f(w)"]))
    assert dict(cat.resolve("k", "cat")[1].base)["f"] == ("a", "b")
    assert word("f1") == ("f", "1") and word("f1", {"f1", "g"}) == ("f1",)
    assert word("ab", {"a", "b", "ab"}) == ("a", "b") and word("f1 g", {"f1"}) == ("f1", "g")
    assert show_word(("f1", "g")) == "f1 g" and show_word(("f", "1")) == "f1"


@pytest.mark.parametrize("indices", [("f1", "g"), ("F0", "F1", "F2"), ("x", "yy")])
def test_hdt0l_lowering_round_trips_through_the_file_format(indices):
    from wordmaps.lowering import catenative_to_hdt0l, hdt0l_to_catenative

    # each index steps to the next on a and to itself twice on b; the bases
    # are one-letter words of multi-character output letters
    nxt = dict(zip(indices, indices[1:] + indices[:1]))
    rules = {**{(i, "a"): (nxt[i],) for i in indices}, **{(i, "b"): (i, i) for i in indices}}
    base = {i: (f"o{k}",) for k, i in enumerate(indices)}
    cat = CatenativeSystem.make(indices, ("a", "b"), tuple(base[i][0] for i in indices), rules, base)
    hdt0l = catenative_to_hdt0l(cat, indices[0])
    back = parse_file(format_declaration("hdt0l", "h", hdt0l)).resolve("h", "hdt0l")[1]
    assert back == hdt0l
    again = parse_file(format_declaration("cat", "c", hdt0l_to_catenative(back))).resolve("c", "cat")[1]
    assert again == hdt0l_to_catenative(hdt0l)
    for w in [(), ("a",), ("b", "a"), ("a", "b", "a")]:
        assert eval_catenative(again, indices[0], w) == eval_catenative(cat, indices[0], w)


def test_an_ideal_with_rational_generators_prints_integer_generators_that_read_back():
    from wordmaps.groebner import points_ideal

    fitted = Ideal(points_ideal([{"x": 0, "y": 0}, {"x": 2, "y": 1}, {"x": 3, "y": 5}], ("x", "y")))
    printed = format_declaration("ideal", "j", fitted)
    assert "/" not in printed and "gen: 7 * y^2 + 20 * x - 47 * y" in printed
    assert parse_file(printed).resolve("j", "ideal")[1].same_ideal(fitted)


def test_a_pda_without_its_bottom_symbols_is_refused_at_its_header():
    text = "\n".join(line for line in _text("pow2-pda").splitlines() if "bottoms:" not in line)
    with pytest.raises(ParseError) as err:
        parse_file(text, filename="pow2.sys")
    header = next(n for n, line in enumerate(text.splitlines(), 1) if line.startswith("pda "))
    assert str(err.value) == f"pow2.sys:{header}: a level-2 machine needs 1 designated bottom symbol, got 0"
