import random
import tracemalloc
from functools import reduce

import pytest

from wordmaps import lowering
from wordmaps.cli import load_file
from wordmaps.errors import DomainError
from wordmaps.lowering import (
    catenative_to_hdt0l,
    compose_level3,
    hdt0l_to_catenative,
    series_to_polynomial_system,
    skolem_product_system,
    unary_lowering,
)
from wordmaps.morphisms import (
    HDT0LSystem,
    Homomorphism,
    LinearRepresentation,
    eval_hdt0l,
    linear_eval,
    mat_mul,
    word_product,
)
from wordmaps.polynomials import Polynomial
from wordmaps.recurrences import (
    CatenativeSystem,
    PolynomialSystem,
    eval_catenative,
    eval_polynomial_vector,
)
from wordmaps.words import word

from test_morphisms import _fib_pair
from test_recurrences import _random_catenative, npown_f


def _all_words(letters, up_to):
    level = [()]
    for _ in range(up_to + 1):
        yield from level
        level = [(a,) + w for a in letters for w in level]


# ---------------------------------------------------------------------------
# catenative <-> hdt0l


def test_fibonacci_catenative_to_hdt0l_lengths():
    sys = CatenativeSystem.make(
        ("f", "g"), {"a"}, {"b"},
        {("f", "a"): ("f", "g"), ("g", "a"): ("f",)},
        {"f": word("b"), "g": ()},
    )
    h = catenative_to_hdt0l(sys, "f")
    fib = [1, 1]
    while len(fib) < 16:
        fib.append(fib[-1] + fib[-2])
    for n in range(16):
        got = eval_hdt0l(h, ("a",) * n)
        assert got == eval_catenative(sys, "f", ("a",) * n)
        assert len(got) == fib[n]


def test_doubling_single_index():
    sys = CatenativeSystem.make(("f",), {"a"}, {"b"}, {("f", "a"): ("f", "f")}, {"f": word("b")})
    h = catenative_to_hdt0l(sys, "f")
    for n in range(12):
        assert eval_hdt0l(h, ("a",) * n) == ("b",) * (2 ** n)


def test_empty_input_alphabet_gives_constant():
    sys = CatenativeSystem.make(("f",), set(), {"b"}, {}, {"f": word("bb")})
    h = catenative_to_hdt0l(sys, "f")
    assert eval_hdt0l(h, ()) == word("bb")


def test_hdt0l_identity_tables_round():
    working = frozenset({"u", "v"})
    sys = HDT0LSystem.make(
        {"a"}, working,
        {"a": Homomorphism.identity(working)},
        Homomorphism.identity(working), "u",
    )
    cat = hdt0l_to_catenative(sys)
    for n in range(6):
        assert eval_catenative(cat, "u", ("a",) * n) == ("u",)
        assert eval_catenative(cat, "v", ("a",) * n) == ("v",)


def test_npown_f_converts_and_agrees():
    sys = npown_f()
    h = catenative_to_hdt0l(sys, "f")
    for n in range(11):
        assert eval_hdt0l(h, ("a",) * n) == word("a" * n + "b" + "c" * n)


def test_round_trip_random_systems():
    rng = random.Random(41)
    for _ in range(40):
        sys = _random_catenative(rng)
        i0 = rng.choice(sys.indices)
        h = catenative_to_hdt0l(sys, i0)
        back = hdt0l_to_catenative(h)
        for w in _all_words(sorted(sys.input_alphabet), 5):
            reference = eval_catenative(sys, i0, w)
            assert eval_hdt0l(h, w) == reference
            assert eval_catenative(back, i0, w) == reference


# ---------------------------------------------------------------------------
# level-3 composition


def test_compose_level3_identity_first_stage():
    ident = CatenativeSystem.make(("i",), {"x"}, {"x"}, {("i", "x"): ("i",)}, {"i": ("x",)})
    # i(w) = x for every w, so the pipeline is the second stage at "x"
    second = CatenativeSystem.make(("q",), {"x"}, {"z"}, {("q", "x"): ("q", "q")}, {"q": ("z",)})
    h = catenative_to_hdt0l(second, "q")
    m = compose_level3(ident, "i", h)
    for n in range(5):
        assert m.eval(("x",) * n) == eval_hdt0l(h, ("x",))


def test_compose_level3_alphabet_mismatch():
    g = CatenativeSystem.make(("i",), {"x"}, {"y"}, {("i", "x"): ("i",)}, {"i": ("y",)})
    second = CatenativeSystem.make(("q",), {"x"}, {"z"}, {("q", "x"): ("q",)}, {"q": ("z",)})
    with pytest.raises(DomainError, match="stage mismatch"):
        compose_level3(g, "i", catenative_to_hdt0l(second, "q"))
    rep = LinearRepresentation.make((1,), {"x": ((1,),)}, (1,))
    with pytest.raises(DomainError, match="must cover"):
        compose_level3(g, "i", rep)


def test_compose_level3_staged_equals_direct():
    rng = random.Random(42)
    for _ in range(15):
        g = _random_catenative(rng)
        # second stage over the first stage's output letters
        hsys = CatenativeSystem.make(
            ("p", "q"), {"x", "y"}, {"z"},
            {("p", "x"): ("p", "q"), ("p", "y"): ("q",),
             ("q", "x"): ("q",), ("q", "y"): ("p",)},
            {"p": ("z",), "q": ()},
        )
        h = catenative_to_hdt0l(hsys, "p")
        i0 = rng.choice(g.indices)
        m = compose_level3(g, i0, h)
        for w in _all_words(sorted(g.input_alphabet), 4):
            assert m.eval(w) == eval_hdt0l(h, eval_catenative(m.first, m.first_index, w))
            assert m.value(w) == len(m.eval(w))


def _gmap_nu():
    """nu_g(w) = x^(value of w in base 2); p tracks x^(2^|w|)."""
    return CatenativeSystem.make(
        ("g", "p"), {"0", "1"}, {"x"},
        {("g", "0"): ("g",), ("g", "1"): ("p", "g"),
         ("p", "0"): ("p", "p"), ("p", "1"): ("p", "p")},
        {"g": (), "p": ("x",)},
    )


def test_level3_value_does_not_build_the_stage1_word():
    rep = LinearRepresentation.make((1, 0), {"x": ((1, 1), (1, 0))}, (1, 0))
    m = compose_level3(_gmap_nu(), "g", rep)
    # the stage-1 word would have 2^20 - 1 letters, a tuple of 8 MB
    tracemalloc.start()
    try:
        value = m.value(("1",) * 20)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert value == _fib_pair(2**20)[0]
    assert peak < 8 * 2**20
    # x^(2^64 - 1) and x^(2^64 - 2) through a parity representation
    parity = compose_level3(
        _gmap_nu(), "g", LinearRepresentation.make((1, 0), {"x": ((0, 1), (1, 0))}, (0, 1))
    )
    assert parity.value(("1",) * 64) == 1
    assert parity.value(("1",) * 63 + ("0",)) == 0


# ---------------------------------------------------------------------------
# unary lowering


def test_unary_lowering_identity_tables():
    working = frozenset({"u", "v"})
    sys = HDT0LSystem.make(
        {"a"}, working, {"a": Homomorphism.identity(working)},
        Homomorphism({"u": ("b", "b"), "v": ("b",)}, source=working, target={"b"}), "u",
    )
    rep = unary_lowering(sys)
    for n in range(6):
        assert linear_eval(rep, ("a",) * n) == 2


def test_unary_lowering_doubling():
    sys = CatenativeSystem.make(("f",), {"a"}, {"b"}, {("f", "a"): ("f", "f")}, {"f": word("b")})
    rep = unary_lowering(catenative_to_hdt0l(sys, "f"))
    for n in range(16):
        assert linear_eval(rep, ("a",) * n) == 2 ** n


def test_unary_lowering_rejects_non_unary():
    sys = npown_f()
    with pytest.raises(DomainError):
        unary_lowering(catenative_to_hdt0l(sys, "f"))


def test_unary_lowering_random_exactness():
    rng = random.Random(43)
    for _ in range(30):
        cat = _random_catenative(rng)
        # replace the two-letter output by a unary coding
        unary = CatenativeSystem.make(
            cat.indices, cat.input_alphabet, {"z"},
            {k: rhs for k, rhs in cat.rules},
            {i: ("z",) * len(w) for i, w in cat.base},
        )
        i0 = rng.choice(unary.indices)
        h = catenative_to_hdt0l(unary, i0)
        rep = unary_lowering(h)
        for w in _all_words(sorted(unary.input_alphabet), 6):
            assert linear_eval(rep, w) == len(eval_hdt0l(h, w))


# ---------------------------------------------------------------------------
# series lowering


def test_series_lowering_scalar_doubling():
    dbl = CatenativeSystem.make(("f",), {"a"}, {"b"}, {("f", "a"): ("f", "f")}, {"f": word("b")})
    rep = LinearRepresentation.make((1,), {"b": ((2,),)}, (1,))
    low = series_to_polynomial_system(dbl, rep, "f")
    (rule,) = [p for (_, _), p in [((k), p) for k, p in low.system.rules]]
    assert rule.degree() == 2  # the rule length
    for n in range(8):
        assert low.eval(("a",) * n) == linear_eval(rep, eval_catenative(dbl, "f", ("a",) * n))


def test_series_lowering_empty_rule_is_identity_constants():
    sys = CatenativeSystem.make(("f",), {"a"}, {"b"}, {("f", "a"): ()}, {"f": word("bb")})
    rep = LinearRepresentation.make((1, 0), {"b": ((1, 1), (0, 1))}, (1, 1))
    low = series_to_polynomial_system(sys, rep, "f")
    rules = dict(low.system.rules)
    assert rules[("u_f_0_0", "a")] == Polynomial.const(1)
    assert rules[("u_f_0_1", "a")] == Polynomial.const(0)
    assert rules[("u_f_1_1", "a")] == Polynomial.const(1)
    for n in range(4):
        assert low.eval(("a",) * n) == linear_eval(rep, eval_catenative(sys, "f", ("a",) * n))


def test_level3_value_of_an_empty_rule_product_is_the_identity():
    sys = CatenativeSystem.make(("f",), {"a"}, {"b"}, {("f", "a"): ()}, {"f": word("bb")})
    rep = LinearRepresentation.make((1, 0), {"b": ((1, 1), (0, 1))}, (1, 1))
    mapping = compose_level3(sys, "f", rep)
    for n in range(4):
        assert mapping.value(("a",) * n) == linear_eval(rep, eval_catenative(sys, "f", ("a",) * n))


def test_series_lowering_fibonacci_dtol():
    nu = _gmap_nu()
    rep = LinearRepresentation.make((1, 0), {"x": ((1, 1), (1, 0))}, (1, 0))
    low = series_to_polynomial_system(nu, rep, "g")
    for w in _all_words(("0", "1"), 8):
        assert low.eval(w) == linear_eval(rep, eval_catenative(nu, "g", w))


def test_series_lowering_steps_only_the_indices_its_output_form_reads():
    nu = _gmap_nu()
    rep = LinearRepresentation.make((1, 0), {"x": ((1, 1), (1, 0))}, (1, 0))
    low = series_to_polynomial_system(nu, rep, "g")
    wanted = low.output_form.variables()
    assert not low.system.affine and len(wanted) < len(low.system.indices)
    for w in _all_words(("0", "1"), 6):
        values = eval_polynomial_vector(low.system, w, wanted)
        full = eval_polynomial_vector(low.system, w)
        assert set(values) == (wanted if w else set(full))
        assert {i: full[i] for i in wanted} == {i: values[i] for i in wanted}


def test_series_lowering_random_instances():
    rng = random.Random(44)
    for _ in range(25):
        cat = _random_catenative(rng)
        d = rng.randrange(1, 4)
        mats = {
            b: tuple(tuple(rng.randrange(3) for _ in range(d)) for _ in range(d))
            for b in cat.output_alphabet
        }
        rep = LinearRepresentation.make(
            tuple(rng.randrange(2) for _ in range(d)), mats, tuple(rng.randrange(3) for _ in range(d))
        )
        i0 = rng.choice(cat.indices)
        low = series_to_polynomial_system(cat, rep, i0)
        for w in _all_words(sorted(cat.input_alphabet), 4):
            staged = linear_eval(rep, eval_catenative(cat, i0, w))
            assert low.eval(w) == staged


def test_series_lowering_base_matrices_are_the_word_products():
    rng = random.Random(45)
    for _ in range(25):
        d = rng.randrange(1, 4)
        base = {
            i: tuple(
                a for _ in range(rng.randrange(4)) for a in rng.choice("xy") * rng.randrange(1, 40)
            )
            for i in ("f", "g")
        }
        cat = CatenativeSystem.make(
            ("f", "g"), {"a"}, {"x", "y"}, {("f", "a"): ("g", "f"), ("g", "a"): ("g",)}, base
        )
        mats = {
            b: tuple(tuple(rng.randrange(-2, 3) for _ in range(d)) for _ in range(d)) for b in "xy"
        }
        rep = LinearRepresentation.make((1,) * d, mats, (1,) * d)
        low = series_to_polynomial_system(cat, rep, "f")
        identity = tuple(tuple(int(k == l) for l in range(d)) for k in range(d))
        for i, w in base.items():
            expected = reduce(mat_mul, (mats[a] for a in w), identity)
            for k in range(d):
                for l in range(d):
                    assert low.system.base_map[f"u_{i}_{k}_{l}"] == expected[k][l]


def test_level3_base_matrices_are_built_once_for_value_and_lower(monkeypatch):
    calls = []

    def recording(*args):
        calls.append(args[1])
        return word_product(*args)

    monkeypatch.setattr(lowering, "word_product", recording)
    gmap = load_file("gmap")
    nu, fibrep = gmap.resolve("nu", "cat")[1], gmap.resolve("fibrep", "linrep")[1]
    m = compose_level3(nu, "g", fibrep)
    values = [m.value(tuple(w)) for w in ("1", "10", "1101")]
    low = m.lower()
    assert sorted(calls) == sorted(w for _, w in nu.base)
    assert values == [linear_eval(fibrep, eval_catenative(nu, "g", tuple(w))) for w in ("1", "10", "1101")]
    assert [low.eval(tuple(w)) for w in ("1", "10", "1101")] == values


def test_series_lowering_size_is_polynomial():
    cat = npown_f()
    rep = LinearRepresentation.make((1, 0), {a: ((1, 0), (0, 1)) for a in "abc"}, (1, 1))
    low = series_to_polynomial_system(cat, rep, "f")
    d = rep.dimension
    assert len(low.system.indices) == len(cat.indices) * d * d
    for (i, a), p in low.system.rules:
        stem = i.split("_")[1]
        assert p.degree() <= len(cat.rule_map[(stem, a)])


# ---------------------------------------------------------------------------
# skolem product


def _pow2_z(base=2):
    return PolynomialSystem.make(
        ("U",), {"a"}, {("U", "a"): 2 * Polynomial.var("U")}, {"U": base}, ring="Z"
    )


def _linear_z(start=1):
    return PolynomialSystem.make(
        ("V", "One"), {"a"},
        {("V", "a"): Polynomial.var("V") + Polynomial.var("One"),
         ("One", "a"): Polynomial.var("One")},
        {"V": start, "One": 1}, ring="Z",
    )


def test_skolem_equal_inputs_vanish():
    u = _pow2_z()
    sk = skolem_product_system(u, "U", u, "U")
    for n in range(8):
        assert sk.eval(n) == 0


def test_skolem_running_product():
    # u(n) = 2^(n+1), v(n) = n+1: differences 1, 2, 5, 12, ...
    sk = skolem_product_system(_pow2_z(2), "U", _linear_z(1), "V")
    acc = None
    for n in range(8):
        diff = 2 ** (n + 1) - (n + 1)
        acc = diff if acc is None else acc * diff
        assert sk.eval(n) == acc
    assert sk.eval(3) == 1 * 2 * 5 * 12


def test_skolem_first_zero_matches_first_agreement():
    fib = PolynomialSystem.make(
        ("F", "G"), {"a"},
        {("F", "a"): Polynomial.var("G"), ("G", "a"): Polynomial.var("F") + Polynomial.var("G")},
        {"F": 1, "G": 1}, ring="Z",
    )
    n_id = PolynomialSystem.make(
        ("N", "One"), {"a"},
        {("N", "a"): Polynomial.var("N") + Polynomial.var("One"),
         ("One", "a"): Polynomial.var("One")},
        {"N": 0, "One": 1}, ring="Z",
    )
    sk = skolem_product_system(fib, "F", n_id, "N")
    fibs = [1, 1]
    while len(fibs) < 14:
        fibs.append(fibs[-1] + fibs[-2])
    first_agree = min(n for n in range(13) if fibs[n] == n)
    for n in range(13):
        value = sk.eval(n)
        assert (value == 0) == (n >= first_agree), n


def test_skolem_rejects_nonlinear():
    bad = PolynomialSystem.make(
        ("U",), {"a"}, {("U", "a"): Polynomial.var("U") * Polynomial.var("U")}, {"U": 2}, ring="Z"
    )
    with pytest.raises(DomainError):
        skolem_product_system(bad, "U", _pow2_z(), "U")


def _counter(letters):
    """X(c w) = X + 1 for every letter c, X(eps) = 0: linear over any alphabet."""
    X = Polynomial.var("X")
    return PolynomialSystem.make(("X",), letters, {("X", c): X + 1 for c in letters}, {"X": 0})


@pytest.mark.parametrize(
    "call,error,message",
    [
        (lambda: skolem_product_system(_counter("ab"), "X", _counter("a"), "X"), DomainError,
         "first system must have a unary input alphabet"),
        (lambda: skolem_product_system(_counter("a"), "X", _counter("ab"), "X"), DomainError,
         "second system must have a unary input alphabet"),
        (lambda: skolem_product_system(_counter("a"), "X", _counter("b"), "X"), DomainError,
         "the two systems must share their unary input alphabet"),
    ],
    ids=["first-alphabet", "second-alphabet", "shared-alphabet"],
)
def test_every_skolem_refusal_names_its_cause(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert str(err.value) == message
