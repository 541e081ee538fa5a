import random
import re
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from wordmaps import morphisms
from wordmaps.errors import DomainError
from wordmaps.morphisms import (
    HDT0LSystem,
    Homomorphism,
    LinearRepresentation,
    compose,
    dot,
    eval_hdt0l,
    incidence,
    linear_eval,
    mat_mul,
    parikh,
    vec_mat,
)
from wordmaps.words import word


def _random_hom(rng, letters="xy", max_image=3):
    return Homomorphism(
        {
            a: tuple(rng.choice(letters) for _ in range(rng.randrange(max_image + 1)))
            for a in letters
        },
        source=frozenset(letters),
        target=frozenset(letters),
    )


def test_apply_examples():
    k = Homomorphism.bracket("x", "xy")
    assert k(word("y")) == word("xy")
    ident = Homomorphism.identity({"x", "y"})
    assert ident(word("xyxy")) == word("xyxy")
    kp = Homomorphism.bracket("x", "")
    assert kp(word("xxxy")) == word("xxx")
    assert k(()) == ()


def test_apply_outside_source():
    k = Homomorphism.bracket("x", "xy")
    with pytest.raises(DomainError):
        k(word("z"))


def test_compose_applies_left_factor_first():
    p = Homomorphism.bracket("y", "x")
    h = Homomorphism.bracket("x", "xxy")
    assert compose(p, h).images["x"] == word("xxy")


def test_compose_identity_laws():
    rng = random.Random(3)
    ident = Homomorphism.identity({"x", "y"})
    for _ in range(20):
        g = _random_hom(rng)
        assert compose(ident, g) == g
        assert compose(g, ident) == g


def test_compose_associative():
    rng = random.Random(4)
    for _ in range(30):
        f, g, h = (_random_hom(rng) for _ in range(3))
        assert compose(compose(f, g), h) == compose(f, compose(g, h))


def test_compose_coherence_with_apply():
    rng = random.Random(5)
    for _ in range(30):
        f, g = _random_hom(rng), _random_hom(rng)
        w = tuple(rng.choice("xy") for _ in range(rng.randrange(6)))
        assert compose(f, g)(w) == g(f(w))


def test_compose_alphabet_mismatch():
    f = Homomorphism({"x": ("z",)}, source={"x"}, target={"z"})
    g = Homomorphism({"x": ("x",)}, source={"x"}, target={"x"})
    with pytest.raises(DomainError):
        compose(f, g)


def _fib_word_system():
    working = frozenset({"p", "q"})
    table = Homomorphism({"p": ("p", "q"), "q": ("p",)}, source=working, target=working)
    final = Homomorphism({"p": ("b",), "q": ("b",)}, source=working, target={"b"})
    return HDT0LSystem.make({"x"}, working, {"x": table}, final, "q")


def test_hdt0l_edges():
    sys = _fib_word_system()
    assert eval_hdt0l(sys, ()) == sys.final(("q",))
    assert eval_hdt0l(sys, ("x",)) == sys.final(sys.table("x")(("q",)))


def _seed_image(sys, w):
    """H^w(seed): sys evaluated with the identity as its final homomorphism."""
    working = HDT0LSystem.make(sys.input_alphabet, sys.working, sys.table_map,
                               Homomorphism.identity(sys.working), sys.seed)
    return eval_hdt0l(working, w)


def test_image_prefix_first_on_random_splits():
    rng = random.Random(6)
    sys = _fib_word_system()
    for _ in range(20):
        n = rng.randrange(8)
        cut = rng.randrange(n + 1)
        w = ("x",) * n
        u, v = w[:cut], w[cut:]
        hu = reduce(compose, [sys.table(a) for a in u], Homomorphism.identity(sys.working))
        hv = reduce(compose, [sys.table(a) for a in v], Homomorphism.identity(sys.working))
        assert _seed_image(sys, w) == hv(hu((sys.seed,)))


@st.composite
def _hdt0l_and_word(draw):
    """1-3 working letters, 1-2 input letters, images of length 0-3 (erasing
    tables and finals included), words up to length 8."""
    working = "pqr"[: draw(st.integers(1, 3))]
    inputs = "xy"[: draw(st.integers(1, 2))]

    def hom(letters):
        images = {v: draw(st.lists(st.sampled_from(letters), max_size=3)) for v in working}
        return Homomorphism(images, source=working, target=letters)

    tables = {a: hom(working) for a in inputs}
    sys = HDT0LSystem.make(inputs, working, tables, hom("bc"), draw(st.sampled_from(working)))
    return sys, tuple(draw(st.lists(st.sampled_from(inputs), max_size=8)))


@settings(deadline=None, max_examples=200)
@given(_hdt0l_and_word())
def test_hdt0l_evaluation_matches_a_letter_by_letter_loop(case):
    sys, w = case
    cur = (sys.seed,)
    for a in w:
        cur = sys.table(a)(cur)
    assert _seed_image(sys, w) == cur
    assert eval_hdt0l(sys, w) == sys.final(cur)


def test_hdt0l_evaluation_skips_working_letters_the_seed_never_reaches():
    # z doubles at every letter: a walk computing every working letter would
    # build a 2^200-letter image of z
    working = frozenset({"s", "z"})
    table = Homomorphism({"s": ("s",), "z": ("z", "z")}, source=working, target=working)
    final = Homomorphism({"s": ("b",), "z": ("b",)}, source=working, target={"b"})
    sys = HDT0LSystem.make({"x"}, working, {"x": table}, final, "s")
    assert _seed_image(sys, ("x",) * 200) == ("s",)
    assert eval_hdt0l(sys, ("x",) * 200) == ("b",)


def test_hdt0l_unknown_letter_after_an_erasing_table():
    working = frozenset({"q"})
    erase = Homomorphism({"q": ()}, source=working, target=working)
    sys = HDT0LSystem.make({"x"}, working, {"x": erase}, Homomorphism.identity(working), "q")
    assert eval_hdt0l(sys, ("x", "x")) == ()
    with pytest.raises(DomainError, match="letter 'y' is outside the input alphabet"):
        eval_hdt0l(sys, ("x", "y"))


def test_parikh_and_incidence():
    assert parikh(word("xxy"), ("x", "y")) == (2, 1)
    ident = Homomorphism.identity({"x", "y"})
    assert incidence(ident) == ((1, 0), (0, 1))
    rng = random.Random(7)
    for _ in range(30):
        h = _random_hom(rng)
        w = tuple(rng.choice("xy") for _ in range(rng.randrange(8)))
        order = ("x", "y")
        m = incidence(h, order)
        lhs = parikh(h(w), order)
        row = parikh(w, order)
        rhs = tuple(sum(row[k] * m[k][j] for k in range(2)) for j in range(2))
        assert lhs == rhs


def test_linear_eval_examples():
    rep = LinearRepresentation.make((1, 0), {"a": ((1, 0), (0, 1))}, (1, 1))
    assert linear_eval(rep, ()) == 1
    zero = LinearRepresentation.make((1, 0), {"a": ((1, 1), (1, 0))}, (0, 0))
    assert linear_eval(zero, ("a",) * 5) == 0


def _fib_pair(n):
    """(F(n), F(n+1)) with F(0) = 0, F(1) = 1, by fast doubling."""
    if n == 0:
        return 0, 1
    a, b = _fib_pair(n // 2)
    c = a * (2 * b - a)
    d = a * a + b * b
    return (d, c + d) if n % 2 else (c, d)


def test_linear_eval_fibonacci():
    rep = LinearRepresentation.make((1, 0), {"x": ((1, 1), (1, 0))}, (1, 0))
    fib = [1, 1]
    while len(fib) < 65536:
        fib.append(fib[-1] + fib[-2])
    for n in range(21):
        assert linear_eval(rep, ("x",) * n) == fib[n]
    assert linear_eval(rep, ("x",) * 65535) == fib[65535]
    # row . M^n . col = F(n+1); an iterative loop to 2^18 would take seconds
    assert linear_eval(rep, ("x",) * 2**18) == _fib_pair(2**18 + 1)[0]


@st.composite
def _rep_and_run_word(draw):
    """Entries -2..2 (zero and identity matrices included); 0-8 runs of length 1..300."""
    d = draw(st.integers(1, 3))
    letters = "abc"[: draw(st.integers(1, 3))]
    vector = st.lists(st.integers(-2, 2), min_size=d, max_size=d)
    matrix = st.lists(vector, min_size=d, max_size=d)
    rep = LinearRepresentation.make(
        draw(vector), draw(st.fixed_dictionaries({a: matrix for a in letters})), draw(vector)
    )
    runs = draw(st.lists(st.tuples(st.sampled_from(letters), st.integers(1, 300)), max_size=8))
    return rep, tuple(a for a, k in runs for _ in range(k))


@settings(deadline=None, max_examples=150)
@given(_rep_and_run_word())
def test_linear_eval_matches_a_letter_by_letter_product(case):
    rep, w = case
    v = rep.row
    for a in w:
        v = vec_mat(v, rep.matrix(a))
    assert linear_eval(rep, w) == sum(x * y for x, y in zip(v, rep.col))


def test_linear_eval_squares_each_letters_matrix_once_per_call(monkeypatch):
    # (a^5 b)^3: a's runs share M_a^2 and M_a^4; b's runs of one square nothing
    ma, mb = ((1, 1), (1, 0)), ((2, 0), (1, 1))
    rep = LinearRepresentation.make((1, 0), {"a": ma, "b": mb}, (1, 1))
    squared = []

    def recording(x, y):
        if x is y:
            squared.append(x)
        return mat_mul(x, y)

    monkeypatch.setattr(morphisms, "mat_mul", recording)
    w = ("a",) * 5 + ("b",)
    assert linear_eval(rep, w * 3) == dot(reduce(vec_mat, [rep.matrix(a) for a in w * 3], rep.row), rep.col)
    assert squared == [ma, mat_mul(ma, ma)]


def test_linear_eval_unknown_letter_after_a_long_run():
    rep = LinearRepresentation.make((1, 0), {"x": ((1, 1), (1, 0))}, (1, 0))
    with pytest.raises(DomainError, match="no matrix for letter 'y'"):
        linear_eval(rep, ("x",) * 5000 + ("y",))


def test_linear_representation_rejects_dimension_zero():
    with pytest.raises(DomainError, match="dimension 0"):
        LinearRepresentation.make((), {"x": ()}, ())


@pytest.mark.parametrize("row,matrices,col,message", [
    ((1, 0.5), {"a": ((1, 1), (0, 1))}, (1, 1), "row has a non-int entry 0.5"),
    ((1, 0), {"a": ((1, 1), (0, Fraction(1, 3)))}, (1, 1), "matrix for 'a' has a non-int entry Fraction(1, 3)"),
    ((1, 0), {"a": ((1, 1), (0, 1))}, ("1", 1), "column has a non-int entry '1'"),
    ((True, False), {"a": ((1, 1), (0, 1))}, (1, 1), "row has a non-int entry True"),
    ((1, 0), {"a": ((1, True), (0, 1))}, (1, 1), "matrix for 'a' has a non-int entry True"),
    ((1, 0), {"a": ((1, 1), (0, 1))}, (1, False), "column has a non-int entry False"),
])
def test_linear_representation_rejects_non_int_entries(row, matrices, col, message):
    # a float or Fraction entry would make linear_eval return a non-integer
    # (2.388888888888889 on the first two cases' data together, at aa); a bool
    # passes isinstance(value, int), and the reprint read "row: True False"
    with pytest.raises(DomainError, match=re.escape(message)):
        LinearRepresentation.make(row, matrices, col)


def test_homomorphism_extensional_equality():
    a = Homomorphism({"x": ("x", "y"), "y": ()})
    b = Homomorphism({"x": ("x", "y"), "y": ()})
    assert a == b and hash(a) == hash(b)
    c = Homomorphism({"x": ("x",), "y": ()})
    assert a != c


_SWAP = Homomorphism({"p": ("q",), "q": ("p",)})


def _hdt0l(**changes):
    """HDT0LSystem.make over working letters p, q with one table, some arguments changed."""
    args = dict(input_alphabet=("a",), working=("p", "q"), tables={"a": _SWAP},
                final=Homomorphism({"p": ("x",), "q": ("y",)}), seed="p")
    return HDT0LSystem.make(**{**args, **changes})


@pytest.mark.parametrize(
    "call,error,message",
    [
        (lambda: Homomorphism({"x": ("y",)}, source="xz"), DomainError, "no image given for source letter 'z'"),
        (lambda: Homomorphism({"x": ("y",), "z": ()}, source="x"), DomainError,
         "image given for 'z' which is not a source letter"),
        (lambda: Homomorphism({"x": ("y", "z")}, target="xy"), DomainError,
         "image letters ['z'] outside the target alphabet"),
        (lambda: setattr(_SWAP, "images", {}), AttributeError, "Homomorphism is immutable"),
        (lambda: _hdt0l(input_alphabet=("a", "b")), DomainError, "no table for input letter 'b'"),
        (lambda: _hdt0l(tables={"a": Homomorphism({"p": ("r",), "q": ()})}), DomainError,
         "table for 'a' is not an endomorphism of the working alphabet"),
        (lambda: _hdt0l(tables={"a": _SWAP, "c": _SWAP}), DomainError, "table for 'c' outside the input alphabet"),
        (lambda: _hdt0l(final=Homomorphism({"p": ("x",)})), DomainError,
         "the final homomorphism must be defined on the working alphabet"),
        (lambda: _hdt0l(seed="x"), DomainError, "seed 'x' is not a working letter"),
        (lambda: _hdt0l().table("b"), DomainError, "no table for input letter 'b'"),
        (lambda: parikh(("x", "z"), "xy"), DomainError, "letter 'z' is outside the alphabet ('x', 'y')"),
        (lambda: LinearRepresentation.make((1, 0), {"a": ((1, 0), (0, 1))}, (1,)), DomainError,
         "row and column dimensions differ"),
        (lambda: LinearRepresentation.make((1, 0), {"a": ((1, 0), (0,))}, (1, 0)), DomainError,
         "matrix for 'a' is not 2x2"),
        (lambda: LinearRepresentation.make((1, 0), {"a": ((1, 0),)}, (1, 0)), DomainError,
         "matrix for 'a' is not 2x2"),
    ],
    ids=["hom-no-image", "hom-outside-source", "hom-outside-target", "hom-immutable", "hdt0l-no-table", "hdt0l-table",
         "hdt0l-stray-table", "hdt0l-final", "hdt0l-seed", "hdt0l-table-lookup", "parikh-letter", "linrep-row-col",
         "linrep-ragged", "linrep-rows"],
)
def test_every_morphism_refusal_names_its_cause(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert str(err.value) == message
