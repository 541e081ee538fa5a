import pytest
from importlib import resources

from wordmaps.errors import DomainError, ParseError
from wordmaps.recurrences import eval_catenative, eval_polynomial
from wordmaps.systemfile import format_file, parse_file
from wordmaps.words import word

BUNDLED = ["fibonacci", "factorial", "npown", "gmap", "skolem-demo", "identity-pda", "pow2-pda"]


def _text(name):
    return resources.files("wordmaps").joinpath("data", name + ".sys").read_text()


@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_files_parse(name):
    sf = parse_file(_text(name), filename=name)
    assert sf.names()


def test_fibonacci_file_contents():
    sf = parse_file(_text("fibonacci"))
    kind, fib = sf.resolve("F", "poly")
    assert eval_polynomial(fib, "F", ("a",) * 10) == 89
    kind, fword = sf.resolve("Fword", "cat")
    assert len(eval_catenative(fword, "f", ("a",) * 6)) == 13


def test_unknown_index_is_named_in_the_error():
    text = """
cat bad {
  input: a
  output: b
  f(eps) = b
  f(a w) = f(w) g(w)
}
"""
    with pytest.raises(DomainError) as err:
        parse_file(text)
    assert "g" in str(err.value)


def test_parse_error_positions():
    with pytest.raises(ParseError) as err:
        parse_file("cat oops {\n  input: a\n", filename="f.sys")
    assert "f.sys" in str(err.value)
    with pytest.raises(ParseError) as err:
        parse_file("cat x {\n  ???\n}\n")
    assert "2" in str(err.value)


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
    assert sf.order == sf2.order
    for key in sf.order:
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
