import pytest
from importlib import resources

from hypothesis import given, settings, strategies as st

from wordmaps.errors import DomainError, ParseError, WordmapsError
from wordmaps.recurrences import catenative_to_regular, eval_catenative, eval_polynomial
from wordmaps.systemfile import format_declaration, format_file, parse_file
from wordmaps.words import word

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


def test_letters_may_carry_primes_and_underscores():
    assert parse_file(_block("alphabet", ["letters: x′ y_1 z'"])).resolve("k")[1] == {"x′", "y_1", "z'"}


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
