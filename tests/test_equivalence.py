import collections
import itertools
import random
import time
from fractions import Fraction
from functools import partial
from importlib import resources

import pytest

from wordmaps import equivalence
from wordmaps.equivalence import (
    Budget,
    Equal,
    FractionPresentation,
    NotEqual,
    _saturate,
    decide_equal,
    decide_equal_fractions,
    decide_zero_on_reachables,
    find_witness,
    reachable_points,
    vanishes_on_reachables,
    zariski_closure,
)
from wordmaps.errors import BudgetExceededError, DomainError, WordmapsError
from wordmaps.groebner import GroebnerBasis, Ideal, groebner, normal_form, points_ideal, s_polynomial
from wordmaps.lowering import catenative_to_hdt0l, compose_level3, skolem_product_system
from wordmaps.morphisms import LinearRepresentation
from wordmaps.polynomials import Polynomial
from wordmaps.recurrences import (
    CatenativeSystem,
    PolynomialSystem,
    eval_polynomial,
    eval_polynomial_vector,
    product_system,
    rename_system,
)
from wordmaps.systemfile import format_declaration, parse_file

from conftest import standard_monomial_count

P = Polynomial.var


def fib_pair(second_base=1):
    return PolynomialSystem.make(
        ("F", "G"), {"a"},
        {("F", "a"): P("G"), ("G", "a"): P("F") + P("G")},
        {"F": 1, "G": second_base},
    )


def fib_triple():
    return PolynomialSystem.make(
        ("F", "H2", "H3"), {"a"},
        {("F", "a"): P("H2"), ("H2", "a"): P("H3"), ("H3", "a"): P("F") + 2 * P("H2")},
        {"F": 1, "H2": 1, "H3": 2},
    )


def _paired(sys_a, sys_b):
    """The two systems side by side, their indices prefixed A_ and B_: the
    product that a comparison of two shapes reads t over."""
    return product_system(rename_system(sys_a, "A_"), rename_system(sys_b, "B_"))


def _no_answer(terms):
    """A probe that never answers: ``_saturate`` runs the saturation pass alone."""
    return None


def _brute_equal(sys_a, i_a, sys_b, i_b, up_to):
    letters = sorted(sys_a.input_alphabet)
    level = [()]
    for _ in range(up_to + 1):
        for w in level:
            if eval_polynomial(sys_a, i_a, w) != eval_polynomial(sys_b, i_b, w):
                return w
        level = [(a,) + w for a in letters for w in level]
    return None


# ---------------------------------------------------------------------------
# decide_equal


def test_fibonacci_presentations_equal():
    verdict = decide_equal(fib_pair(), "F", fib_triple(), "F")
    assert isinstance(verdict, Equal)
    assert _brute_equal(fib_pair(), "F", fib_triple(), "F", 8) is None


def test_perturbed_fibonacci_not_equal_with_minimal_witness():
    verdict = decide_equal(fib_pair(), "F", fib_pair(second_base=2), "F")
    assert verdict == NotEqual(("a",))


def test_system_equals_itself():
    sys = fib_pair()
    assert isinstance(decide_equal(sys, "F", sys, "F"), Equal)


def test_two_letter_alphabet_decision():
    def counters(literal):
        return PolynomialSystem.make(
            ("U", "V"), {"a", "b"},
            {("U", "a"): P("U") + P("V"), ("V", "a"): P("V"), ("U", "b"): P("U"),
             ("V", "b"): (P("V") if literal else P("U"))},
            {"U": 1, "V": 0},
        )

    corrected = counters(literal=False)
    literal = counters(literal=True)
    # first disagreement is U(ab): 2 against 1; everything shorter agrees
    verdict = decide_equal(corrected, "U", literal, "U")
    assert verdict == NotEqual(("a", "b"))

    dup_rules = dict(corrected.rules)
    dup_rules.update({("W", x): dict(corrected.rules)[("U", x)] for x in ("a", "b")})
    dup = PolynomialSystem.make(
        ("U", "V", "W"), {"a", "b"}, dup_rules, {"U": 1, "V": 0, "W": 1}
    )
    assert isinstance(decide_equal(corrected, "U", dup, "W"), Equal)


def test_alphabet_mismatch_rejected():
    other = PolynomialSystem.make(("X",), {"b"}, {("X", "b"): P("X")}, {"X": 1})
    message = "product systems must share their input alphabet"
    with pytest.raises(DomainError) as err:
        decide_equal(fib_pair(), "F", other, "X")
    assert str(err.value) == message
    with pytest.raises(DomainError) as err:
        decide_equal_fractions(
            FractionPresentation(fib_pair(), "F", "G", "G", "F"), FractionPresentation(other, "X", "X", "X", "X")
        )
    assert str(err.value) == message


def _cubes():
    """x(aw) = z - y^3 on y = n, z = n^3: x vanishes on the orbit, but its
    pull-back z - y^3 is of degree 3, so at degree 2 the candidate <x> is
    not inductive and no candidate is refuted."""
    y, z = P("y"), P("z")
    rules = {("x", "a"): z - y * y * y, ("y", "a"): y + 1, ("z", "a"): z + 3 * y * y + 3 * y + 1}
    return PolynomialSystem.make(("x", "y", "z"), {"a"}, rules, {"x": 0, "y": 0, "z": 0}, ring="Z")


def _stage1():
    return CatenativeSystem.make(("f",), {"a"}, {"b"}, {("f", "a"): ("f", "f")}, {"f": ("b",)})


_FIB_REP = LinearRepresentation.make((1, 0), {"b": ((1, 1), (1, 0))}, (1, 0))


@pytest.mark.parametrize(
    "call,error,message",
    [
        (lambda: decide_equal(fib_pair(), "zz", fib_pair(), "F"), DomainError, "unknown index 'zz'"),
        (lambda: decide_equal(fib_pair(), "F", fib_pair(), "zz"), DomainError, "unknown index 'zz'"),
        (lambda: FractionPresentation(fib_pair(), "F", "G", "zz", "G"), DomainError, "unknown index 'zz'"),
        (lambda: compose_level3(_stage1(), "zz", _FIB_REP), DomainError, "unknown index 'zz'"),
        (lambda: catenative_to_hdt0l(_stage1(), "zz"), DomainError, "unknown index 'zz'"),
        (lambda: skolem_product_system(fib_pair(), "zz", fib_pair(), "F"), DomainError, "unknown index 'zz'"),
        (lambda: skolem_product_system(fib_pair(), "F", fib_pair(), "zz"), DomainError, "unknown index 'zz'"),
        (lambda: zariski_closure(_cubes(), Budget(max_degree=2)), BudgetExceededError,
         "closure generators above the degree budget remain; raise the budget"),
        (lambda: find_witness(fib_pair(), P("F") - P("zz")), DomainError,
         "test polynomial mentions variables outside the system"),
        (lambda: parse_file("poly p {\n  input: a\n  A(eps) = 1\n  A(a w) = A\n}\n").resolve("p", "cat"),
         DomainError, "'p' is a poly, expected cat"),
        (lambda: format_declaration("nope", "k", fib_pair()), DomainError, "cannot format kind 'nope'"),
        # a repeated variable would give two fields to one name
        (lambda: GroebnerBasis([P("x") - 1], ("x", "y", "x")), DomainError,
         "variable 'x' repeats in the variable sequence"),
        (lambda: groebner([P("x") - 1], ("y", "x", "y"), "lex"), DomainError,
         "variable 'y' repeats in the variable sequence"),
        (lambda: normal_form(P("x"), [P("x") - 1], ("x", "x")), DomainError,
         "variable 'x' repeats in the variable sequence"),
        (lambda: s_polynomial(P("x"), P("x") - 1, ("x", "x")), DomainError,
         "variable 'x' repeats in the variable sequence"),
        (lambda: points_ideal([{"x": 1}, {"x": 2}], ["x", "x"]), DomainError,
         "variable 'x' repeats in the variable sequence"),
        (lambda: points_ideal([{"x": True}, {"x": 2}], ["x"]), DomainError,
         "points_ideal needs integer coordinates; 'x' is True"),
        (lambda: points_ideal([{"x": 1}, {"x": Fraction(1, 2)}], ["x"]), DomainError,
         "points_ideal needs integer coordinates; 'x' is Fraction(1, 2)"),
        (lambda: Ideal([P("x") - 1], ("x", "x")), DomainError, "variable 'x' repeats in the variable sequence"),
        # an unbounded sample would step points until max_point_bits stops it
        (lambda: zariski_closure(fib_pair(), Budget(sample_points=-1)), DomainError,
         "budget sample_points must be an int >= 0, not -1"),
        (lambda: zariski_closure(fib_pair(), Budget(sample_points=2.5)), DomainError,
         "budget sample_points must be an int >= 0, not 2.5"),
        (lambda: Budget(chain_additions=True), DomainError, "budget chain_additions must be an int >= 0, not True"),
        (lambda: Budget(max_point_bits=None), DomainError, "budget max_point_bits must be an int >= 0, not None"),
    ],
    ids=["decide_equal.a", "decide_equal.b", "FractionPresentation", "compose_level3", "catenative_to_hdt0l",
         "skolem.u", "skolem.v", "zariski_closure-degree", "find_witness-variable", "resolve-kind",
         "format_declaration-kind", "GroebnerBasis-repeat", "groebner-repeat", "normal_form-repeat",
         "s_polynomial-repeat", "points_ideal-repeat", "points_ideal-bool", "points_ideal-fraction",
         "Ideal-repeat", "Budget-negative", "Budget-fraction", "Budget-bool", "Budget-none"],
)
def test_every_library_refusal_names_its_cause(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert str(err.value) == message


def test_a_verdict_is_true_iff_it_is_equal():
    assert bool(Equal()) is True and bool(NotEqual(("a",))) is False and bool(NotEqual(())) is False


def test_budget_error_propagates():
    tiny = Budget(chain_additions=0)
    with pytest.raises(BudgetExceededError):
        # quick scan is disabled by the witness distance: equal systems
        vanishes_on_reachables(fib_pair(), P("F") - P("G"), tiny)


def _with_square(sys):
    """sys beside an index Q that squares from 2 at every letter."""
    rules = {**dict(sys.rules), **{("Q", a): P("Q") * P("Q") for a in sys.input_alphabet}}
    return PolynomialSystem.make(sys.indices + ("Q",), sys.input_alphabet, rules, {**dict(sys.base), "Q": 2})


def test_basis_budget_fires_inside_the_saturation_engine():
    # the Fibonacci pair against its triple presentation, each value times
    # its side's squaring index Q.  The two Q are one class, the two
    # presentations are not, so t keeps the non-affine Q and takes the
    # saturation pass; the chain's basis collects three pull-backs
    pair = _paired(_with_square(fib_pair()), _with_square(fib_triple()))
    t = P("A_F") * P("A_Q") - P("B_F") * P("B_Q")
    assert vanishes_on_reachables(pair, t, Budget(max_basis=3))
    with pytest.raises(BudgetExceededError, match="size budget"):
        vanishes_on_reachables(pair, t, Budget(max_basis=2))


def _reference_chain(sys, t, budget):
    """The saturation pass with a normal form against the last reduced basis
    and a basis recomputed from scratch for every addition: (verdict, number
    of additions), with verdict None once the addition budget is exceeded.
    Generators are taken first in, first out, and the first one outside the
    ideal that is nonzero at the base vector ends the pass with False."""
    variables = tuple(sys.indices)
    letters = sorted(sys.input_alphabet)
    point = sys.base_vector()
    gens, basis, worklist = [], [], collections.deque([t])
    while worklist:
        g = worklist.popleft()
        if not normal_form(g, basis, variables).is_zero():
            if g.evaluate(point) != 0:
                return False, len(gens)
            gens.append(g)
            if len(gens) > budget.chain_additions:
                return None, len(gens)
            basis = groebner(basis + [g], variables)
            worklist.extend(g.substitute(sys.maps[a]) for a in letters)
    return True, len(gens)


def test_saturation_engine_matches_the_from_scratch_chain():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @st.composite
    def cases(draw):
        indices = ("X0", "X1", "X2")[: draw(st.sampled_from([3, 2, 1]))]
        letters = ("a", "b")[: draw(st.integers(1, 2))]

        def poly(max_degree):
            p = Polynomial.const(draw(st.integers(-2, 2)))
            for _ in range(draw(st.integers(1, 3))):
                term = Polynomial.const(draw(st.sampled_from([1, -1, 2])))
                for _ in range(draw(st.integers(0, max_degree))):
                    term = term * P(draw(st.sampled_from(indices)))
                p = p + term
            return p

        # at most one nonlinear map keeps the pulled-back degrees small
        nonlinear = draw(st.sampled_from([None, *[(i, a) for i in indices for a in letters]]))
        rules = {(i, a): poly(2 if (i, a) == nonlinear else 1) for i in indices for a in letters}
        base = {i: draw(st.integers(-2, 2)) for i in indices}
        sys = PolynomialSystem.make(indices, letters, rules, base, ring="Z")
        if draw(st.booleans()):
            return sys, poly(2)
        # a coordinate against its copy in a second, possibly perturbed system
        i = draw(st.sampled_from(indices))
        copy = {**base, i: base[i] + draw(st.sampled_from([0, 0, 1]))}
        pair = product_system(
            rename_system(sys, "A_"),
            rename_system(PolynomialSystem.make(indices, letters, rules, copy, ring="Z"), "B_"),
        )
        return pair, P("A_" + i) - P("B_" + i)

    @settings(deadline=None, max_examples=60)
    @given(cases())
    def check(case):
        sys, t = case
        budget = Budget(chain_additions=10)
        # the saturation pass itself: affine draws would take the span walk
        verdict, additions = _reference_chain(sys, t, budget)
        if verdict is None:
            with pytest.raises(BudgetExceededError, match="addition budget"):
                _saturate(sys, t, budget, _no_answer)
            return
        assert (_saturate(sys, t, budget, _no_answer) is None) == verdict
        # the chain makes exactly as many additions
        if additions:
            with pytest.raises(BudgetExceededError, match="addition budget"):
                fewer = Budget(additions - 1, budget.max_basis, budget.max_degree, budget.sample_points,
                               budget.max_point_bits)
                _saturate(sys, t, fewer, _no_answer)

    check()


def test_pull_backs_from_shared_power_tables_match_sympy():
    sympy = pytest.importorskip("sympy")
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from wordmaps.equivalence import _sigma, _tables

    @st.composite
    def cases(draw):
        indices = ("X0", "X1", "X2")[: draw(st.integers(1, 3))]
        letters = ("a", "b")[: draw(st.integers(1, 2))]

        def poly(max_degree):
            p = Polynomial.const(draw(st.integers(-2, 2)))
            for _ in range(draw(st.integers(1, 3))):
                term = Polynomial.const(draw(st.sampled_from([1, -1, 2, -3])))
                for _ in range(draw(st.integers(0, max_degree))):
                    term = term * P(draw(st.sampled_from(indices)))
                p = p + term
            return p

        # identity images are skipped by the tables; at most one nonlinear map
        # keeps the composed degrees small
        nonlinear = draw(st.sampled_from([None, *[(i, a) for i in indices for a in letters]]))
        rules = {
            (i, a): P(i) if draw(st.integers(0, 3)) == 0 else poly(2 if (i, a) == nonlinear else 1)
            for i in indices for a in letters
        }
        sys = PolynomialSystem.make(indices, letters, rules, {i: 0 for i in indices}, ring="Z")
        words = draw(st.lists(st.lists(st.sampled_from(letters), max_size=4), min_size=1, max_size=4))
        return sys, poly(2), words

    @settings(deadline=None, max_examples=80)
    @given(cases())
    def check(case):
        sys, t, words = case
        symbols = {i: sympy.Symbol(i) for i in sys.indices}

        def to_sympy(p):
            return sum(
                (c * sympy.Mul(*(symbols[v] ** e for v, e in m)) for m, c in p.terms.items()),
                sympy.Integer(0),
            )

        # one table per letter for all the chains, as in one saturation pass
        tables = _tables(sys)
        for w in words:
            ours, theirs = t, to_sympy(t)
            for a in w:
                ours = _sigma(tables, a, ours)
                theirs = theirs.subs(
                    {symbols[i]: to_sympy(p) for i, p in sys.maps[a].items()}, simultaneous=True
                )
            assert all(type(c) is int and c for c in ours.terms.values())
            assert sympy.expand(theirs - to_sympy(ours)) == 0

    check()


def test_deep_pair_builds_each_power_of_an_image_once(monkeypatch):
    import wordmaps.equivalence as equivalence
    from wordmaps.polynomials import _powers

    built = []

    class Powers(list):
        def append(self, terms):
            built.append((id(self[1]), len(self)))  # (image, exponent)
            super().append(terms)

    def recording(env):
        return {v: Powers(pw) for v, pw in _powers(env).items()}

    monkeypatch.setattr(equivalence, "_powers", recording)
    sys_y = PolynomialSystem.make(
        ("Y",), {"a", "b"}, {("Y", "a"): P("Y") + 1, ("Y", "b"): P("Y") + _falling("Y", 8)},
        {"Y": 0}, ring="Z",
    )
    # the saturation pass alone: beside it, the orbit walk meets the witness
    # after two pull-backs
    pair = _paired(_counter(), sys_y)
    assert _saturate(pair, P("A_X") - P("B_Y"), Budget(), _no_answer) == ("b",) + ("a",) * 8
    # B_Y's two images, each raised to the powers 2..8 once; A_X's b-image is
    # A_X itself and builds none
    assert len(built) == len(set(built)) == 14


def _random_system(rng, n_vars=3, letters=("a", "b"), degree=2):
    indices = tuple(f"X{k}" for k in range(rng.randrange(1, n_vars + 1)))
    letters = letters[: rng.randrange(1, len(letters) + 1)]

    def rand_poly():
        p = Polynomial.const(rng.randrange(0, 3))
        for _ in range(rng.randrange(1, 3)):
            term = Polynomial.const(rng.randrange(1, 3))
            for _ in range(rng.randrange(0, degree + 1)):
                term = term * P(rng.choice(indices))
            p = p + term
        return p

    rules = {(i, a): rand_poly() for i in indices for a in letters}
    base = {i: rng.randrange(0, 3) for i in indices}
    return PolynomialSystem.make(indices, letters, rules, base)


def _random_linear_system(rng, n_vars=3, letters=("a", "b")):
    indices = tuple(f"X{k}" for k in range(rng.randrange(1, n_vars + 1)))
    letters = letters[: rng.randrange(1, len(letters) + 1)]

    def rand_linear():
        p = Polynomial.const(rng.randrange(0, 2))
        for i in indices:
            c = rng.randrange(0, 3)
            if c:
                p = p + c * P(i)
        return p

    rules = {(i, a): rand_linear() for i in indices for a in letters}
    base = {i: rng.randrange(0, 3) for i in indices}
    return PolynomialSystem.make(indices, letters, rules, base)


def test_soundness_cross_check_on_random_pairs():
    rng = random.Random(61)
    checked = 0
    for trial in range(30):
        if trial % 2 == 0:
            # an equal-by-construction pair: the same linear system with a
            # redundant duplicated coordinate on one side
            sys_a = _random_linear_system(rng)
            i = rng.choice(sys_a.indices)
            dup_rules = dict(sys_a.rules)
            dup_base = dict(sys_a.base)
            dup_rules.update({("Dup", a): dict(sys_a.rules)[(i, a)] for a in sys_a.input_alphabet})
            dup_base["Dup"] = dup_base[i]
            sys_b = PolynomialSystem.make(
                sys_a.indices + ("Dup",), sys_a.input_alphabet, dup_rules, dup_base
            )
            i_a, i_b = i, "Dup"
        else:
            sys_a = _random_system(rng)
            sys_b = _random_system(rng, letters=tuple(sorted(sys_a.input_alphabet)))
            if sys_a.input_alphabet != sys_b.input_alphabet:
                continue
            i_a = rng.choice(sys_a.indices)
            i_b = rng.choice(sys_b.indices)
        verdict = decide_equal(sys_a, i_a, sys_b, i_b)
        brute = _brute_equal(sys_a, i_a, sys_b, i_b, 8)
        if isinstance(verdict, Equal):
            assert brute is None
        else:
            w = verdict.witness
            assert eval_polynomial(sys_a, i_a, w) != eval_polynomial(sys_b, i_b, w)
            # minimality: everything shorter agrees
            letters = sorted(sys_a.input_alphabet)
            level = [()]
            for _ in range(len(w)):
                for v in level:
                    assert eval_polynomial(sys_a, i_a, v) == eval_polynomial(sys_b, i_b, v)
                level = [(a,) + u for a in letters for u in level]
        checked += 1
    assert checked >= 25


# ---------------------------------------------------------------------------
# fraction presentations


def test_fraction_identical_quadruples_equal():
    sys = PolynomialSystem.make(
        ("A", "B", "C", "D"), {"a"},
        {("A", "a"): 2 * P("A"), ("B", "a"): P("B"),
         ("C", "a"): P("C"), ("D", "a"): P("D")},
        {"A": 1, "B": 0, "C": 2, "D": 1},
    )
    p = FractionPresentation(sys, "A", "B", "C", "D")
    assert isinstance(decide_equal_fractions(p, p), Equal)


def test_fraction_telescoped_power_equals_direct():
    # (2^(n+1) - 2^n) / (2 - 1) against 2^n directly
    lhs_sys = PolynomialSystem.make(
        ("Hi", "Lo", "Two", "One"), {"a"},
        {("Hi", "a"): 2 * P("Hi"), ("Lo", "a"): 2 * P("Lo"),
         ("Two", "a"): P("Two"), ("One", "a"): P("One")},
        {"Hi": 2, "Lo": 1, "Two": 2, "One": 1},
    )
    rhs_sys = PolynomialSystem.make(
        ("E", "Z", "One"), {"a"},
        {("E", "a"): 2 * P("E"), ("Z", "a"): P("Z"), ("One", "a"): P("One")},
        {"E": 1, "Z": 0, "One": 1},
    )
    p = FractionPresentation(lhs_sys, "Hi", "Lo", "Two", "One")
    q = FractionPresentation(rhs_sys, "E", "Z", "One", "Z")
    for n in range(21):
        w = ("a",) * n
        assert p.eval(w) == q.eval(w) == 2 ** n
    assert isinstance(decide_equal_fractions(p, q), Equal)


def test_fraction_numerators_differ_at_length_two():
    # numerators agree at lengths 0 and 1 and split at length 2
    lhs = PolynomialSystem.make(
        ("N", "Z", "One"), {"a"},
        {("N", "a"): P("N") + P("One"), ("Z", "a"): P("Z"), ("One", "a"): P("One")},
        {"N": 0, "Z": 0, "One": 1},
    )
    rhs = PolynomialSystem.make(
        ("M", "Z", "One"), {"a"},
        {("M", "a"): P("M") + P("M") * P("M"), ("Z", "a"): P("Z"), ("One", "a"): P("One")},
        {"M": 0, "Z": 0, "One": 1},
    )
    # lhs numerator: 0,1,2,3,...; rhs numerator: 0,1... then 0+0=... build: 0, then?
    p = FractionPresentation(lhs, "N", "Z", "One", "Z")
    q = FractionPresentation(rhs, "M", "Z", "One", "Z")
    values_p = [p.eval(("a",) * n) for n in range(4)]
    values_q = [q.eval(("a",) * n) for n in range(4)]
    first_diff = next(n for n in range(4) if values_p[n] != values_q[n])
    verdict = decide_equal_fractions(p, q)
    assert isinstance(verdict, NotEqual)
    assert len(verdict.witness) == first_diff


# ---------------------------------------------------------------------------
# zariski closure


def test_closure_constant_system():
    sys = PolynomialSystem.make(("x",), {"a"}, {("x", "a"): P("x")}, {"x": 5})
    assert zariski_closure(sys).same_ideal(Ideal([P("x") - 5]))


def test_closure_doubling_is_zero_ideal():
    sys = PolynomialSystem.make(("x",), {"a"}, {("x", "a"): 2 * P("x")}, {"x": 1})
    assert not zariski_closure(sys).generators


def test_closure_idempotent_point():
    sys = PolynomialSystem.make(("x",), {"a"}, {("x", "a"): P("x") * P("x")}, {"x": 1})
    assert zariski_closure(sys).same_ideal(Ideal([P("x") - 1]))


def test_closure_generators_vanish_on_samples():
    # fibonacci pair: generators of the closure ideal must vanish at every
    # sampled reachable point
    sys = fib_pair()
    j = zariski_closure(sys)
    points, _ = reachable_points(sys, Budget(sample_points=200))
    assert len(points) >= 200
    for g in j.generators:
        for pt in points:
            assert g.evaluate(pt) == 0


def test_closure_fibonacci_catches_the_quartic_invariant():
    # (F^2 + F G - G^2)^2 = 1 holds along the whole orbit
    sys = fib_pair()
    j = zariski_closure(sys)
    invariant = (P("F") ** 2 + P("F") * P("G") - P("G") ** 2) ** 2 - 1
    assert j.contains(invariant)
    assert not j.contains(P("F") - P("G"))
    # indices out of name order change nothing, the spelling of monomials included
    swapped = PolynomialSystem.make(("G", "F"), sys.input_alphabet, dict(sys.rules), sys.base_map)
    assert zariski_closure(swapped).generators == j.generators == (invariant,)


def _rotation12():
    # x4' = x3 - x1 has order 12: the orbit of the base vector is 12 points
    return PolynomialSystem.make(
        ("x1", "x2", "x3", "x4"), {"a"},
        {("x1", "a"): P("x2"), ("x2", "a"): P("x3"),
         ("x3", "a"): P("x4"), ("x4", "a"): P("x3") - P("x1")},
        {"x1": 1, "x2": 0, "x3": 0, "x4": 0}, ring="Z",
    )


def _rotations6x8():
    # letter a rotates (x1, x2) with order 6, letter b rotates (x3..x6)
    # with order 8: a closed orbit of 48 points
    vs = ("x1", "x2", "x3", "x4", "x5", "x6")
    a = {"x1": -P("x2"), "x2": P("x1") + P("x2")}
    b = {"x3": P("x4"), "x4": P("x5"), "x5": P("x6"), "x6": -P("x3")}
    rules = {(v, letter): m.get(v, P(v)) for v in vs for letter, m in (("a", a), ("b", b))}
    return PolynomialSystem.make(
        vs, {"a", "b"}, rules, {"x1": 1, "x2": 0, "x3": 1, "x4": 0, "x5": 0, "x6": 0}, ring="Z"
    )


@pytest.mark.parametrize(
    "make_system,orbit_size", [(_rotation12, 12), (_rotations6x8, 48)], ids=["order12", "order6x8"]
)
def test_closure_deep_finite_orbit_is_exact(make_system, orbit_size):
    # an orbit enumerated by sampling gets the exact ideal of its points:
    # every generator vanishes on the orbit, and one standard monomial per
    # point leaves no room for a larger variety
    sys = make_system()
    points, closed = reachable_points(sys)
    assert closed and len(points) == orbit_size
    j = zariski_closure(sys)
    for pt in points:
        for g in j.generators:
            assert g.evaluate(pt) == 0
    assert standard_monomial_count(j.groebner_basis(), sys.indices) == orbit_size


def test_closure_parabola_orbit():
    # x' = x + 1, y' = (x + 1)^2 starting on the parabola: the closure is
    # the parabola itself, found at degree 2 of the sweep
    sys = PolynomialSystem.make(
        ("x", "y"), {"a"},
        {("x", "a"): P("x") + 1, ("y", "a"): (P("x") + 1) * (P("x") + 1)},
        {"x": 0, "y": 0},
    )
    j = zariski_closure(sys)
    assert j.same_ideal(Ideal([P("y") - P("x") * P("x")]))
    # with no sampled point the first fit is <1>, inductive but not zero at
    # the base vector: its refutation at eps starts the fit from the base
    j = zariski_closure(sys, Budget(sample_points=0))
    assert j.same_ideal(Ideal([P("y") - P("x") * P("x")])) and repr(j) == "<x^2 - y>"


def test_closure_truncation_semantics_at_tiny_degree_budget():
    # with the degree budget below the parabola's equation, the sweep
    # correctly reports that no constraints of degree <= 1 exist
    sys = PolynomialSystem.make(
        ("x", "y"), {"a"},
        {("x", "a"): P("x") + 1, ("y", "a"): (P("x") + 1) * (P("x") + 1)},
        {"x": 0, "y": 0},
    )
    j = zariski_closure(sys, Budget(max_degree=1))
    assert not j.generators


def test_fraction_denominator_vanishing_is_an_error():
    sys = PolynomialSystem.make(
        ("A", "B"), {"a"},
        {("A", "a"): P("A") + 1, ("B", "a"): P("B")},
        {"A": 0, "B": 0},
    )
    p = FractionPresentation(sys, "A", "B", "B", "B")
    with pytest.raises(DomainError):
        p.eval(("a",))


def test_decide_equal_across_rings():
    n_ring = fib_pair()
    z_ring = PolynomialSystem.make(
        ("F", "G"), {"a"},
        {("F", "a"): P("G"), ("G", "a"): P("F") + P("G")},
        {"F": 1, "G": 1}, ring="Z",
    )
    assert isinstance(decide_equal(n_ring, "F", z_ring, "F"), Equal)


def test_vanishing_engine_agrees_with_sampling():
    rng = random.Random(62)
    for _ in range(20):
        sys = _random_linear_system(rng)
        i = rng.choice(sys.indices)
        t = P(i) - Polynomial.const(eval_polynomial(sys, i, ()))
        vanish = vanishes_on_reachables(sys, t)
        # brute force over every word up to length 6 finds the same first
        # nonzero word, and none where t vanishes
        words = _shortlex(sys.input_alphabet, 6)
        first = next((w for w in words if t.evaluate({i: eval_polynomial(sys, i, w)}) != 0), None)
        assert (first is None) == vanish
        assert find_witness(sys, t) == first


def test_rename_and_product_systems():
    sys = fib_pair()
    renamed = rename_system(sys, "L_")
    assert set(renamed.indices) == {"L_F", "L_G"}
    prod = product_system(rename_system(sys, "A_"), rename_system(sys, "B_"))
    assert len(prod.indices) == 4
    for n in range(5):
        w = ("a",) * n
        assert eval_polynomial(prod, "A_F", w) == eval_polynomial(sys, "F", w)


# ---------------------------------------------------------------------------
# the orbit walk behind witnesses, sampling and refutations


def _counter():
    return PolynomialSystem.make(
        ("X",), {"a", "b"}, {("X", "a"): P("X") + 1, ("X", "b"): P("X")}, {"X": 0}, ring="Z"
    )


def _falling(var, length):
    out = Polynomial.const(1)
    for k in range(length):
        out = out * (P(var) - k)
    return out


def _shortlex(letters, max_length):
    for n in range(max_length + 1):
        yield from itertools.product(sorted(letters), repeat=n)


def test_counter_witness_is_found_without_enumerating_words():
    # the walk meets one new vector per length, X = 0, 1, ..., 24, where a
    # walk over words would try the 2^24 words of length 24 alone
    start = time.perf_counter()
    verdict = decide_zero_on_reachables(_counter(), _falling("X", 24))
    assert verdict == NotEqual(("a",) * 24)
    assert time.perf_counter() - start < 2.0


def _gmap(name, kind):
    text = resources.files("wordmaps").joinpath("data", "gmap.sys").read_text()
    return parse_file(text, filename="gmap").resolve(name, kind)[1]


def _lowered_gmap_pair():
    """nu:(fibrep + C(n,4)) against nu:fibrep, both lowered: 106 variables,
    and t = the difference of the output forms = C(value(w), 4)."""
    fibrep = _gmap("fibrep", "linrep")
    # fibrep's 2x2 matrix beside the 5x5 Pascal matrix, whose corner entry
    # of its n-th power is C(n, 4)
    (fib,) = (m for _, m in fibrep.matrices)
    pascal = [[1 if k in (l, l - 1) else 0 for l in range(5)] for k in range(5)]
    block = [list(row) + [0] * 5 for row in fib] + [[0, 0] + row for row in pascal]
    both = LinearRepresentation.make(
        fibrep.row + (1, 0, 0, 0, 0), {"x": tuple(map(tuple, block))}, fibrep.col + (0, 0, 0, 0, 1)
    )
    return _lowered_nu_pair(both, fibrep)


def _lowered_nu_pair(second_a, second_b):
    """nu:second_a against nu:second_b, both lowered and side by side, and t
    the difference of their output forms."""
    nu = _gmap("nu", "cat")
    sides = [compose_level3(nu, "g", second).lower() for second in (second_a, second_b)]
    renamed = [rename_system(low.system, prefix) for low, prefix in zip(sides, ("A_", "B_"))]
    t = Polynomial.zero()
    for low, prefix, sign in zip(sides, ("A_", "B_"), (1, -1)):
        t = t + sign * low.output_form.substitute({i: P(prefix + i) for i in low.system.indices})
    return product_system(*renamed), t


def test_lowered_gmap_pair_is_answered_by_the_quick_scan():
    # without the orbit walk's head start, the saturation pass would pull t
    # back through the degree-doubling maps of these 106 variables; the head
    # start meets the witness 1 0 0 (value 4) first
    pair, t = _lowered_gmap_pair()
    assert len(pair.indices) == 106
    start = time.perf_counter()
    assert decide_zero_on_reachables(pair, t) == NotEqual(("1", "0", "0"))
    assert time.perf_counter() - start < 2.0


def test_lowered_gmap_equal_pair_is_decided_by_the_saturation_pass(monkeypatch):
    # the paper's example: G(w) = F(value of w) through a linear
    # representation and through an HDT0L system.  The maps agree on an
    # infinite orbit, so the walk finds nothing and the saturation pass must
    # close its chain
    pair, t = _lowered_nu_pair(_gmap("fibrep", "linrep"), _gmap("fibword", "hdt0l"))
    assert len(pair.indices) == 16
    assert t == P("A_u_g_0_0") - P("B_u_g_1_0") - P("B_u_g_1_1")
    passes = []
    saturate = equivalence._saturate
    monkeypatch.setattr(equivalence, "_saturate", lambda *args: passes.append(args) or saturate(*args))
    start = time.perf_counter()
    assert decide_zero_on_reachables(pair, t) == Equal()
    assert time.perf_counter() - start < 1.0
    assert len(passes) == 1


def test_a_point_too_large_to_step_leaves_the_sample_open():
    # X flips between 0 and 300: at 8 bits the walk does not step 300, so it
    # ends with both points but proves nothing about the orbit
    flip = PolynomialSystem.make(("X",), {"a"}, {("X", "a"): 300 - P("X")}, {"X": 0}, ring="Z")
    assert reachable_points(flip) == ([{"X": 0}, {"X": 300}], True)
    assert reachable_points(flip, Budget(max_point_bits=8)) == ([{"X": 0}, {"X": 300}], False)
    assert reachable_points(flip, Budget(max_point_bits=9)) == ([{"X": 0}, {"X": 300}], True)


def test_a_system_with_no_indices():
    # the 0/1 side of every find_witness: its orbit is the one empty vector
    empty = PolynomialSystem((), frozenset("ab"), (), ())
    assert empty == PolynomialSystem.make((), "ab", {}, {})
    assert find_witness(empty, Polynomial.const(3)) == ()
    assert find_witness(empty, Polynomial.zero()) is None
    closure = zariski_closure(empty)
    assert closure.generators == () and closure.variables() == ()
    assert repr(closure) == "<0>"


def test_closure_refutation_comes_from_the_saturation_pass():
    # three sampled points fit x(x-1)(x-2), refuted only at a^3; the
    # refuting point comes from the minimal witness, with no further search
    counter = PolynomialSystem.make(("X",), {"a"}, {("X", "a"): P("X") + 1}, {"X": 0})
    closure = zariski_closure(counter, Budget(sample_points=3))
    assert not closure.generators
    assert repr(closure) == "<0>"


def test_decisions_are_not_bounded_by_the_orbit_walk():
    t = _falling("X", 6)
    assert decide_zero_on_reachables(_counter(), t) == NotEqual(("a",) * 6)
    # squaring from 2: 256 needs 9 bits, so at 8 bits the walk does not step
    # a^3 and cannot see a^4, but the saturation pass evaluates at the base only
    square = PolynomialSystem.make(("X",), {"a"}, {("X", "a"): P("X") * P("X")}, {"X": 2})
    t = (P("X") - 2) * (P("X") - 4) * (P("X") - 16) * (P("X") - 256)
    assert decide_zero_on_reachables(square, t, Budget(max_point_bits=8)) == NotEqual(("a",) * 4)
    assert find_witness(square, t, Budget(max_point_bits=8)) == ("a",) * 4
    # squaring from 16: a (X = 256) needs 9 bits, so only at 9 bits does the
    # walk step it and meet a a; at 8 bits the saturation pass must find it
    square = PolynomialSystem.make(("X",), {"a"}, {("X", "a"): P("X") * P("X")}, {"X": 16})
    t = (P("X") - 16) * (P("X") - 256)
    assert find_witness(square, t, Budget(max_point_bits=9, chain_additions=0)) == ("a", "a")
    with pytest.raises(BudgetExceededError):
        find_witness(square, t, Budget(max_point_bits=8, chain_additions=0))
    assert find_witness(square, t, Budget(max_point_bits=8)) == ("a", "a")


def test_witness_search_stops_where_unstepped_values_could_hide_a_smaller_witness():
    # t vanishes on every word up to length 2.  At 4 bits a a (X = 16) is not
    # stepped, and a walk that went on would report a a b (X = 81), though
    # a a a (X = 256) precedes it
    sys = PolynomialSystem.make(
        ("X",), {"a", "b"}, {("X", "a"): P("X") * P("X"), ("X", "b"): P("X") + 1}, {"X": 2}
    )
    t = Polynomial.const(1)
    for w in _shortlex("ab", 2):
        t = t * (P("X") - eval_polynomial(sys, "X", w))
    assert find_witness(sys, t) == ("a", "a", "a")
    assert find_witness(sys, t, Budget(max_point_bits=4)) == ("a", "a", "a")


def test_every_exact_entry_runs_the_shallow_scan():
    # squaring from 2: t = X - 2 vanishes at the base, so the saturation pass
    # would add t to its chain and exceed a budget of no additions; the
    # walk's head start meets a (X = 4) first
    square = PolynomialSystem.make(("X",), {"a"}, {("X", "a"): P("X") * P("X")}, {"X": 2})
    t, budget = P("X") - 2, Budget(chain_additions=0)
    with pytest.raises(BudgetExceededError):
        _saturate(square, t, budget, _no_answer)
    assert find_witness(square, t, budget) == ("a",)
    assert vanishes_on_reachables(square, t, budget) is False
    assert decide_zero_on_reachables(square, t, budget) == NotEqual(("a",))


def test_the_exact_entries_agree_with_each_other_and_brute_force():
    from hypothesis import assume, given, settings
    from hypothesis import strategies as st

    @st.composite
    def case(draw):
        indices = ("x", "y")[: draw(st.integers(1, 2))]
        letters = ("a", "b")[: draw(st.integers(1, 2))]
        monomials = [Polynomial.const(1)] + [P(i) for i in indices]
        monomials += [P(i) * P(j) for k, i in enumerate(indices) for j in indices[k:]]

        def poly(coefficients, degree=2):
            return sum((draw(coefficients) * m for m in monomials if m.degree() <= degree), Polynomial.zero())

        rules = {(i, a): poly(st.integers(-2, 2)) for i in indices for a in letters}
        base = {i: draw(st.integers(-3, 3)) for i in indices}
        sys = PolynomialSystem.make(indices, letters, rules, base, ring="Z")
        assume(not sys.affine)
        # t vanishes at two words of length <= 3, or at one when it is a
        # quadratic q - q(v(w)); the k-th factor often at the k-th word, so
        # that witnesses lie deeper
        words = list(_shortlex(letters, 3))
        t = Polynomial.const(1)
        for k, degree in enumerate((1, 1) if draw(st.booleans()) else (2,)):
            q = poly(st.integers(-2, 2), degree)
            w = words[k] if draw(st.booleans()) else draw(st.sampled_from(words))
            t = t * (q - q.evaluate(eval_polynomial_vector(sys, w)))
        budget = Budget(chain_additions=draw(st.sampled_from([0, 1, 3, 20])),
                        max_basis=draw(st.sampled_from([2, 200])))
        return sys, t, budget

    def outcome(call):
        try:
            return call()
        except WordmapsError as e:
            return type(e)

    @settings(deadline=None, max_examples=200)
    @given(case())
    def check(drawn):
        sys, t, budget = drawn
        witness = outcome(lambda: find_witness(sys, t, budget))
        vanishes = outcome(lambda: vanishes_on_reachables(sys, t, budget))
        verdict = outcome(lambda: decide_zero_on_reachables(sys, t, budget))
        if isinstance(witness, type):
            assert vanishes is verdict is witness
            return
        assert vanishes == (witness is None)
        assert verdict == (Equal() if witness is None else NotEqual(witness))
        first = next(
            (w for w in _shortlex(sys.input_alphabet, 5) if t.evaluate(eval_polynomial_vector(sys, w)) != 0),
            None,
        )
        if witness is None or len(witness) > 5:
            assert first is None
        else:
            assert witness == first

    check()


def test_the_walk_matches_brute_force_over_words():
    from hypothesis import assume, given, settings
    from hypothesis import strategies as st

    letters = ("a", "b")

    @st.composite
    def affine_or_quadratic(draw):
        indices = ("x", "y")[: draw(st.integers(1, 2))]

        def poly():
            p = Polynomial.const(draw(st.integers(-2, 2)))
            for i in indices:
                p = p + draw(st.integers(-2, 2)) * P(i)
            if draw(st.booleans()):
                p = p + draw(st.sampled_from([1, -1])) * P(draw(st.sampled_from(indices))) * P(
                    draw(st.sampled_from(indices))
                )
            return p

        rules = {(i, a): poly() for i in indices for a in letters}
        base = {i: draw(st.integers(-2, 2)) for i in indices}
        sys = PolynomialSystem.make(indices, letters, rules, base, ring="Z")
        # t vanishes on the words up to length k but for a few, so the
        # witness may lie deeper
        i = draw(st.sampled_from(indices))
        words = list(_shortlex(letters, draw(st.integers(0, 3))))
        skip = draw(st.sets(st.sampled_from(words), max_size=2))
        t = Polynomial.const(1)
        for value in {eval_polynomial(sys, i, w) for w in words if w not in skip}:
            t = t * (P(i) - value)
        return sys, t

    @st.composite
    def finite_orbit(draw):
        # signed monomials and constants over values in {-1, 0, 1}, or signed
        # variables and constants over small values: every orbit is finite
        indices = ("x", "y")[: draw(st.integers(1, 2))]
        quadratic = draw(st.booleans())
        values = st.integers(-1, 1) if quadratic else st.integers(-3, 3)

        def rule():
            if draw(st.booleans()):
                return Polynomial.const(draw(values))
            m = P(draw(st.sampled_from(indices)))
            if quadratic and draw(st.booleans()):
                m = m * P(draw(st.sampled_from(indices)))
            return draw(st.sampled_from([1, -1])) * m

        rules = {(i, a): rule() for i in indices for a in letters}
        base = {i: draw(values) for i in indices}
        return PolynomialSystem.make(indices, letters, rules, base, ring="Z")

    @settings(deadline=None, max_examples=80)
    @given(affine_or_quadratic())
    def witnesses(case):
        sys, t = case
        first = next(
            (w for w in _shortlex(letters, 5) if t.evaluate(eval_polynomial_vector(sys, w)) != 0),
            None,
        )
        # the orbit walk, every point stepped, read up to length 5
        walk = equivalence._orbit((sys,), lambda point: True)
        short = itertools.takewhile(lambda item: len(item[0]) <= 5, walk)
        assert next((w for w, (vec,) in short if t.evaluate(vec) != 0), None) == first

    @settings(deadline=None, max_examples=80)
    @given(finite_orbit())
    def orbits(sys):
        # the orbit in order of first appearance over all words, level by
        # level until a whole level adds nothing
        orbit, length, grew = [], 0, True
        while grew:
            assume(length <= 12)
            grew = False
            for w in itertools.product(letters, repeat=length):
                v = eval_polynomial_vector(sys, w)
                if v not in orbit:
                    orbit.append(v)
                    grew = True
            length += 1
        points, closed = reachable_points(sys)
        assert closed
        assert points == orbit

    witnesses()
    orbits()


def test_saturation_witnesses_match_brute_force_over_words():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    letters = ("a", "b")

    @st.composite
    def deep_witness(draw):
        # affine maps of one or two variables, or quadratic ones of one, with
        # small coefficients; t vanishes on every word up to length 3 (up to
        # 4 or 5 for one affine variable), so the witness lies past the orbit
        # walk's head start
        shape = draw(st.sampled_from(["affine", "quadratic", "affine2"]))
        indices = ("x", "y") if shape == "affine2" else ("x",)
        small = st.integers(-1, 1)

        def poly():
            p = Polynomial.const(draw(small))
            for i in indices:
                p = p + draw(small) * P(i)
            if shape == "quadratic" and draw(st.booleans()):
                p = p + draw(st.sampled_from([1, -1])) * P("x") * P("x")
            return p

        rules = {(i, a): poly() for i in indices for a in letters}
        base = {i: draw(small) for i in indices}
        sys = PolynomialSystem.make(indices, letters, rules, base, ring="Z")
        i = draw(st.sampled_from(indices))
        depth = draw(st.integers(4, 5)) if shape == "affine" else 3
        t = Polynomial.const(1)
        for value in {eval_polynomial(sys, i, w) for w in _shortlex(letters, depth)}:
            t = t * (P(i) - value)
        return sys, t

    @settings(deadline=None, max_examples=100)
    @given(deep_witness())
    def check(case):
        sys, t = case
        first = next(
            (w for w in _shortlex(letters, 6) if t.evaluate(eval_polynomial_vector(sys, w)) != 0),
            None,
        )
        verdict = decide_zero_on_reachables(sys, t)
        if first is not None:
            assert verdict == NotEqual(first)
        elif verdict != Equal():
            assert len(verdict.witness) > 6
            assert t.evaluate(eval_polynomial_vector(sys, verdict.witness)) != 0

    check()


# ---------------------------------------------------------------------------
# the span walk on affine systems


def test_span_walk_matches_the_saturation_pass_and_brute_force():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @st.composite
    def affine_case(draw):
        indices = ("x", "y", "z")[: draw(st.integers(1, 3))]
        letters = ("a", "b")[: draw(st.integers(1, 2))]
        small = st.integers(-1, 1)

        def linear(lead=None):
            p = Polynomial.const(draw(small))
            for i in indices:
                p = p + (draw(st.sampled_from([1, -1])) if i == lead else draw(small)) * P(i)
            return p

        # an identity rule now and then leaves invariants, hence Equal cases
        rules = {
            (i, a): P(i) if draw(st.integers(0, 3)) == 0 else linear()
            for i in indices for a in letters
        }
        base = {i: draw(small) for i in indices}
        sys = PolynomialSystem.make(indices, letters, rules, base, ring="Z")
        # t of degree 1-3: its k-th factor is a nonconstant linear form minus
        # its value at the k-th word or at a random short one, so that t
        # vanishes there and witnesses lie deeper
        words = list(_shortlex(letters, 3))
        t = Polynomial.const(1)
        for k in range(draw(st.integers(1, 3))):
            form = linear(lead=draw(st.sampled_from(indices)))
            w = words[k] if draw(st.booleans()) else draw(st.sampled_from(words))
            t = t * (form - form.evaluate(eval_polynomial_vector(sys, w)))
        return sys, t

    @settings(deadline=None, max_examples=150)
    @given(affine_case())
    def check(case):
        sys, t = case
        witness = find_witness(sys, t)
        assert witness == _saturate(sys, t, Budget(), _no_answer)
        letters = sorted(sys.input_alphabet)
        first = next(
            (w for w in _shortlex(letters, 6) if t.evaluate(eval_polynomial_vector(sys, w)) != 0),
            None,
        )
        if witness is None or len(witness) > 6:
            assert first is None
        else:
            assert witness == first

    check()


def test_addition_budget_bounds_the_span_rank():
    # X = 0, 1, ..., 5 give six independent moment vectors (1, X, ..., X^6)
    # before t is nonzero at X = 6
    t = _falling("X", 6)
    assert decide_zero_on_reachables(_counter(), t, Budget(chain_additions=6)) == NotEqual(("a",) * 6)
    with pytest.raises(BudgetExceededError, match="addition budget"):
        decide_zero_on_reachables(_counter(), t, Budget(chain_additions=5))


def test_affine_decisions_build_no_basis_and_no_pull_back(monkeypatch):
    import wordmaps.equivalence as equivalence
    import wordmaps.polynomials as polynomials

    def forbidden(*args, **kwargs):
        raise AssertionError("an affine decision reached the saturation engine")

    monkeypatch.setattr(equivalence, "GroebnerBasis", forbidden)
    # every pull-back goes through _sigma or Polynomial.substitute, both of
    # them through polynomials._substitute
    monkeypatch.setattr(equivalence, "_sigma", forbidden)
    monkeypatch.setattr(equivalence, "_substitute", forbidden)
    monkeypatch.setattr(polynomials, "_substitute", forbidden)
    monkeypatch.setattr(Polynomial, "substitute", forbidden)
    assert decide_equal(fib_pair(), "F", fib_triple(), "F") == Equal()
    assert decide_equal(fib_pair(), "F", fib_pair(second_base=2), "F") == NotEqual(("a",))
    assert decide_zero_on_reachables(_counter(), _falling("X", 6)) == NotEqual(("a",) * 6)


def test_two_letter_affine_witness_is_quick():
    sys = PolynomialSystem.make(
        ("X", "Y"), {"a", "b"},
        {("X", "a"): P("X") + 1, ("X", "b"): P("X") + P("Y"), ("Y", "a"): P("Y"), ("Y", "b"): P("Y") + 1},
        {"X": 0, "Y": 0}, ring="Z",
    )
    start = time.perf_counter()
    assert decide_zero_on_reachables(sys, _falling("X", 14)) == NotEqual(("b",) * 6)
    assert time.perf_counter() - start < 0.5


# ---------------------------------------------------------------------------
# quotient comparisons walk the two systems side by side


def _renamed_product_decision(p, q, budget):
    """The decision of two (system, num, den) shapes on the renamed product
    system, with t prefixed through ``Polynomial.substitute``."""
    pair = product_system(rename_system(p[0], "A_"), rename_system(q[0], "B_"))
    return decide_zero_on_reachables(pair, _renamed_t(p, q), budget)


def _renamed_t(p, q):
    """t of two (system, num, den) shapes over the renamed product system,
    prefixed through ``Polynomial.substitute``."""
    (sys_p, num_p, den_p), (sys_q, num_q, den_q) = p, q

    def prefixed(f, sys, prefix):
        return f.substitute({i: P(prefix + i) for i in sys.indices})

    return prefixed(num_p, sys_p, "A_") * prefixed(den_q, sys_q, "B_") - prefixed(num_q, sys_q, "B_") * prefixed(
        den_p, sys_p, "A_"
    )


def _outcome(call):
    try:
        return call()
    except BudgetExceededError as e:
        return ("budget", str(e))


def test_quotient_decisions_match_the_renamed_product_system():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @st.composite
    def system(draw, indices, letters, quadratic):
        small = st.integers(-1, 1)

        def linear():
            p = Polynomial.const(draw(small))
            for i in indices:
                p = p + draw(small) * P(i)
            return p

        rules = {(i, a): linear() for i in indices for a in letters}
        if quadratic:
            key = draw(st.sampled_from(sorted(rules)))
            rules[key] = rules[key] + draw(st.sampled_from([1, -1])) * P(draw(st.sampled_from(indices))) * P(
                draw(st.sampled_from(indices))
            )
        base = {i: draw(st.integers(-2, 2)) for i in indices}
        return PolynomialSystem.make(indices, letters, rules, base, ring="Z")

    @st.composite
    def case(draw):
        # the sides often share index names, which the renamed product keeps apart
        shape = draw(st.sampled_from(["affine", "quadratic", "fractions", "cancel"]))
        letters = ("a", "b")[: draw(st.integers(1, 2))]
        quadratic = shape == "quadratic" or (shape == "fractions" and draw(st.booleans()))
        on_p, least = draw(st.booleans()), 1 if shape in ("affine", "quadratic") else 2
        sys_p = draw(system(("x", "y")[: draw(st.integers(least, 2))], letters, quadratic and on_p))
        sys_q = draw(system(("x", "y", "z")[: draw(st.integers(least, 3))], letters, quadratic and not on_p))
        if draw(st.integers(0, 3)) == 0:
            # one system on both sides: equal pairs, which the head start cannot settle
            sys_q = sys_p
        if shape in ("affine", "quadratic"):
            i, j = draw(st.sampled_from(sys_p.indices)), draw(st.sampled_from(sys_q.indices))
            p, q = (sys_p, P(i), Polynomial.const(1)), (sys_q, P(j), Polynomial.const(1))
            decide = partial(decide_equal, sys_p, i, sys_q, j)
        else:
            fracs = []
            for sys in (sys_p, sys_q):
                num = [draw(st.sampled_from(sys.indices)) for _ in range(2)]
                # a nonconstant denominator, or num/num, whose cross products cancel
                den = num if shape == "cancel" else draw(st.permutations(sys.indices))[:2]
                fracs.append(FractionPresentation(sys, *num, *den))
            p, q = (f._shape() for f in fracs)
            decide = partial(decide_equal_fractions, *fracs)
        chain = draw(st.sampled_from([0, 1, 2, 3, 5, 8] + ([] if quadratic else [400])))
        budget = Budget(chain_additions=chain, max_basis=60) if quadratic else Budget(chain_additions=chain)
        return p, q, decide, budget

    @settings(deadline=None, max_examples=400)
    @given(case())
    def check(drawn):
        p, q, decide, budget = drawn
        assert _outcome(lambda: decide(budget)) == _outcome(lambda: _renamed_product_decision(p, q, budget))

    check()


def test_cancelling_cross_products_leave_the_true_degree():
    # (X - U)/(X - U) against (Y - U)/(Y - U): the cross products cancel, so
    # t is 0 and the verdict is Equal without a walk, however small the budget
    sys_p = PolynomialSystem.make(("X", "U"), {"a"}, {("X", "a"): P("X") + 1, ("U", "a"): P("U")}, {"X": 1, "U": 0})
    sys_q = PolynomialSystem.make(("Y", "U"), {"a"}, {("Y", "a"): 2 * P("Y"), ("U", "a"): P("U")}, {"Y": 1, "U": 0})
    p, q = FractionPresentation(sys_p, "X", "U", "X", "U"), FractionPresentation(sys_q, "Y", "U", "Y", "U")
    for chain in (0, 1):
        budget = Budget(chain_additions=chain)
        got = _outcome(lambda: decide_equal_fractions(p, q, budget))
        assert got == _outcome(lambda: _renamed_product_decision(p._shape(), q._shape(), budget))
        assert got == Equal()
    # terms that cancel once Dup and X are one class: t of degree 2 becomes
    # s = Y - X - 1, and the span walk reads moments (1, X, Y), of rank 2 on
    # the orbit (n, n, n + 1); moments of degree 2 would add X^2, of rank 3
    sys = PolynomialSystem.make(
        ("X", "Dup", "Y"), {"a"}, {("X", "a"): P("X") + 1, ("Dup", "a"): P("Dup") + 1, ("Y", "a"): P("Y") + 1},
        {"X": 0, "Dup": 0, "Y": 1},
    )
    s = P("Y") - P("X") - 1
    t = s * P("Dup") - s * P("X") + s
    assert decide_zero_on_reachables(sys, t, Budget(chain_additions=2)) == Equal()
    with pytest.raises(BudgetExceededError, match="moment span"):
        decide_zero_on_reachables(sys, t, Budget(chain_additions=1))


def _factorials():
    """(n+1)! beside L = n + 2 and beside M = n + 1: equal sequences, but L
    and M differ at every word, so no index of one side joins the other's."""
    sys_p = PolynomialSystem.make(
        ("L", "FC"), {"a"}, {("L", "a"): P("L") + 1, ("FC", "a"): P("L") * P("FC")}, {"L": 2, "FC": 1})
    sys_q = PolynomialSystem.make(
        ("M", "FC"), {"a"}, {("M", "a"): P("M") + 1, ("FC", "a"): (P("M") + 1) * P("FC")}, {"M": 1, "FC": 1})
    return sys_p, sys_q


def test_quotient_pairs_build_the_product_only_for_the_saturation_pass(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a quotient comparison built the reduced product before the saturation pass")

    # the walk's head start meeting its witness reduces nothing
    monkeypatch.setattr(equivalence, "_reduced", forbidden)
    square = PolynomialSystem.make(("X",), {"a"}, {("X", "a"): P("X") * P("X")}, {"X": 2})
    cube = PolynomialSystem.make(("X",), {"a"}, {("X", "a"): P("X") * P("X") * P("X")}, {"X": 2})
    assert decide_equal(square, "X", cube, "X") == NotEqual(("a",))
    monkeypatch.undo()

    reduced, passes = [], []
    reduce, saturate = equivalence._reduced, equivalence._saturate
    monkeypatch.setattr(equivalence, "_reduced", lambda *args: reduced.append(reduce(*args)) or reduced[-1])
    monkeypatch.setattr(equivalence, "_saturate", lambda *args: passes.append(args) or saturate(*args))
    # affine pairs are reduced before the span walk, and take no pass
    assert decide_equal(fib_pair(), "F", fib_triple(), "F") == Equal()
    assert decide_equal(fib_pair(), "F", fib_pair(second_base=2), "F") == NotEqual(("a",))
    assert len(reduced) == 2 and passes == []
    # an equal non-affine pair: the walk finds nothing, and the pass runs
    # once, over the reduced product and the reduced t
    reduced.clear()
    sys_p, sys_q = _factorials()
    assert decide_equal(sys_p, "FC", sys_q, "FC") == Equal()
    assert len(reduced) == 1 and [args[:2] for args in passes] == [reduced[0]]
    assert reduced[0][0].indices == ("A_L", "A_FC", "B_M", "B_FC")
    # one system against itself: its indices join their copies, t is 0
    passes.clear()
    assert decide_equal(square, "X", square, "X") == Equal()
    assert passes == []


# ---------------------------------------------------------------------------
# the orbit walk beside the saturation pass


def _deep_y(length):
    return PolynomialSystem.make(
        ("Y",), {"a", "b"}, {("Y", "a"): P("Y") + 1, ("Y", "b"): P("Y") + _falling("Y", length)},
        {"Y": 0}, ring="Z",
    )


def _pair_differs(sys_p, i, sys_q, j):
    return lambda w: eval_polynomial(sys_p, i, w) != eval_polynomial(sys_q, j, w)


def test_the_walk_beside_the_pass_meets_a_deep_witness_after_few_pull_backs(monkeypatch):
    # X counts a's against Y(b w) = Y + Y(Y-1)...(Y-7): one new point a^k per
    # length, then b a^8.  The pass alone dequeues 17 pull-backs to reach it
    pulled = []
    sigma = equivalence._sigma
    monkeypatch.setattr(equivalence, "_sigma", lambda *args: pulled.append(args[1]) or sigma(*args))
    witness = ("b",) + ("a",) * 8
    assert decide_equal(_counter(), "X", _deep_y(8), "Y") == NotEqual(witness)
    assert len(pulled) <= 3
    pulled.clear()
    pair = _paired(_counter(), _deep_y(8))
    assert _saturate(pair, P("A_X") - P("B_Y"), Budget(), _no_answer) == witness
    assert len(pulled) == 17
    # the pass alone stops at its second addition; the walk answers first,
    # and brute force confirms its witness
    budget = Budget(chain_additions=1)
    with pytest.raises(BudgetExceededError, match="addition budget"):
        _saturate(pair, P("A_X") - P("B_Y"), budget, _no_answer)
    assert decide_equal(_counter(), "X", _deep_y(8), "Y", budget) == NotEqual(witness)
    differs = _pair_differs(_counter(), "X", _deep_y(8), "Y")
    assert next(w for w in _shortlex("ab", 9) if differs(w)) == witness
    assert decide_equal(_counter(), "X", _deep_y(36), "Y") == NotEqual(("b",) + ("a",) * 36)


def test_a_finite_non_affine_orbit_is_equal_without_a_basis(monkeypatch):
    # X(a) = X^2, X(b) = -X against Y(a) = Y^4, Y(b) = -Y^3, both from -1: the
    # orbit is (-1, -1), (1, 1), and the head start steps all of it
    def forbidden(*args, **kwargs):
        raise AssertionError("a finite orbit reached the saturation pass")

    monkeypatch.setattr(equivalence, "GroebnerBasis", forbidden)
    monkeypatch.setattr(equivalence, "_reduced", forbidden)
    sys_p = PolynomialSystem.make(("X",), {"a", "b"}, {("X", "a"): P("X") ** 2, ("X", "b"): -P("X")}, {"X": -1}, ring="Z")
    sys_q = PolynomialSystem.make(("Y",), {"a", "b"}, {("Y", "a"): P("Y") ** 4, ("Y", "b"): -P("Y") ** 3}, {"Y": -1}, ring="Z")
    assert not sys_p.affine and not sys_q.affine
    assert decide_equal(sys_p, "X", sys_q, "Y") == Equal()
    assert decide_zero_on_reachables(sys_p, P("X") ** 2 - 1) == Equal()
    # at 0 bits no value fits, so no point is stepped and the pass must run
    with pytest.raises(AssertionError, match="saturation pass"):
        decide_equal(sys_p, "X", sys_q, "Y", Budget(max_point_bits=0))


def test_the_walk_beside_the_pass_agrees_with_the_pass_alone_and_brute_force():
    from hypothesis import assume, given, settings
    from hypothesis import strategies as st

    letters = ("a", "b")

    @st.composite
    def system(draw, finite):
        indices = ("x", "y")[: draw(st.integers(1, 2))]
        values = st.integers(-1, 1) if finite else st.integers(-2, 2)

        def rule():
            if finite:
                # signed monomials of degree <= 2 and constants over {-1, 0, 1}
                if draw(st.booleans()):
                    return Polynomial.const(draw(values))
                m = P(draw(st.sampled_from(indices)))
                if draw(st.booleans()):
                    m = m * P(draw(st.sampled_from(indices)))
                return draw(st.sampled_from([1, -1])) * m
            p = Polynomial.const(draw(values))
            for i in indices:
                p = p + draw(values) * P(i)
            if draw(st.booleans()):
                p = p + draw(st.sampled_from([1, -1])) * P(draw(st.sampled_from(indices))) * P(
                    draw(st.sampled_from(indices))
                )
            return p

        rules = {(i, a): rule() for i in indices for a in letters}
        base = {i: draw(values) for i in indices}
        return PolynomialSystem.make(indices, letters, rules, base, ring="Z")

    @st.composite
    def case(draw):
        finite = draw(st.booleans())
        sys_p = draw(system(finite))
        # one system on both sides gives equal pairs, which only a finite
        # orbit lets the walk settle
        sys_q = sys_p if draw(st.integers(0, 2)) == 0 else draw(system(finite))
        assume(not (sys_p.affine and sys_q.affine))
        i, j = draw(st.sampled_from(sys_p.indices)), draw(st.sampled_from(sys_q.indices))
        budget = Budget(chain_additions=draw(st.sampled_from([0, 1, 3, 20])), max_basis=60,
                        max_point_bits=draw(st.sampled_from([1, 4, 8, 4096])))
        return sys_p, i, sys_q, j, budget

    def finite_orbit_agrees(sys_p, i, sys_q, j):
        """Whether the pair's orbit, stepped to its end, is finite with X_i =
        Y_j at every point; None when it has more than 200 points or a value
        over 64 bits."""
        def key(point):
            return tuple(sorted(point[0].items())), tuple(sorted(point[1].items()))

        start = (sys_p.base_vector(), sys_q.base_vector())
        seen, todo = {key(start)}, collections.deque([start])
        while todo:
            v_p, v_q = todo.popleft()
            if v_p[i] != v_q[j]:
                return False
            for a in letters:
                new = ({k: p.evaluate(v_p) for k, p in sys_p.maps[a].items()},
                       {k: p.evaluate(v_q) for k, p in sys_q.maps[a].items()})
                if key(new) not in seen:
                    if len(seen) == 200 or max(abs(x) for v in new for x in v.values()) >> 64:
                        return None
                    seen.add(key(new))
                    todo.append(new)
        return True

    @settings(deadline=None, max_examples=300)
    @given(case())
    def check(drawn):
        sys_p, i, sys_q, j, budget = drawn
        lockstep = _outcome(lambda: decide_equal(sys_p, i, sys_q, j, budget))
        pair = _paired(sys_p, sys_q)
        alone = _outcome(lambda: equivalence._verdict(
            _saturate(pair, P("A_" + i) - P("B_" + j), budget, _no_answer)))
        if not isinstance(alone, tuple) or isinstance(lockstep, tuple):
            # a budget stop of the pass alone that the walk did not beat is
            # the same stop
            assert lockstep == alone
            if isinstance(lockstep, tuple):
                return
        # every verdict, also one the walk gave where the pass alone stopped
        differs = _pair_differs(sys_p, i, sys_q, j)
        first = next((w for w in _shortlex(letters, 6) if differs(w)), None)
        if lockstep == Equal():
            assert first is None
            assert finite_orbit_agrees(sys_p, i, sys_q, j) in (True, None)
        else:
            assert differs(lockstep.witness)
            assert lockstep.witness == first if len(lockstep.witness) <= 6 else first is None

    check()


# ---------------------------------------------------------------------------
# the reduction before the engines: bisimilar and constant indices, then the
# cone of influence


def _pair_632():
    """Pair 632 of a grid of seeded non-affine pairs: a system and the same
    system with X0 copied into Dup."""
    rules = {
        ("X0", "a"): P("X0") * P("X1") + 2 * P("X1") ** 2 - 1, ("X0", "b"): Polynomial.const(2),
        ("X1", "a"): P("X0") * P("X1") + 2 * P("X0") - 1, ("X1", "b"): Polynomial.const(-3),
    }
    base = {"X0": 0, "X1": 2}
    copy = {**rules, ("Dup", "a"): rules["X0", "a"], ("Dup", "b"): rules["X0", "b"]}
    return (PolynomialSystem.make(("X0", "X1"), "ab", rules, base, ring="Z"),
            PolynomialSystem.make(("X0", "X1", "Dup"), "ab", copy, {**base, "Dup": 0}, ring="Z"))


def test_a_copied_index_is_equal_at_the_default_budget():
    # the saturation pass over the product pulls back pull-backs whose
    # coefficients grow past 50,000 bits; Dup joins X0 and t is 0
    sys, copy = _pair_632()
    start = time.perf_counter()
    assert decide_equal(sys, "X0", copy, "Dup") == Equal()
    assert time.perf_counter() - start < 0.05


def _padded_fibrep(k):
    """gmap's fibrep beside a k x k Pascal block, which its row starts at 1
    and its column never reads."""
    fibrep = _gmap("fibrep", "linrep")
    (fib,) = (m for _, m in fibrep.matrices)
    pascal = [[1 if a in (b, b - 1) else 0 for b in range(k)] for a in range(k)]
    block = [list(row) + [0] * k for row in fib] + [[0, 0] + row for row in pascal]
    return LinearRepresentation.make(
        fibrep.row + (1,) + (0,) * (k - 1), {"x": tuple(map(tuple, block))}, fibrep.col + (0,) * k
    )


@pytest.mark.parametrize("k", [1, 2, 5])
def test_a_padding_that_t_never_reads_costs_nothing(k):
    # nu:fibrep padded against nu:fibword, lowered: the pass over the padded
    # product took seconds at k = 1
    pair, t = _lowered_nu_pair(_padded_fibrep(k), _gmap("fibword", "hdt0l"))
    start = time.perf_counter()
    assert decide_zero_on_reachables(pair, t) == Equal()
    assert time.perf_counter() - start < 0.05


def _renamed_copy(sys, order, names, dup):
    """sys with its indices renamed by ``names``, listed in ``order``, and
    index ``dup`` copied into an index Dup."""
    rename = {i: P(names[i]) for i in sys.indices}
    rules = {(names[i], a): p.substitute(rename) for (i, a), p in sys.rules}
    rules.update({("Dup", a): rules[names[dup], a] for a in sys.input_alphabet})
    base = {**{names[i]: v for i, v in sys.base}, "Dup": sys.base_map[dup]}
    return PolynomialSystem.make(tuple(names[i] for i in order) + ("Dup",), sys.input_alphabet, rules, base, ring="Z")


def test_a_renamed_permuted_copy_with_a_duplicate_needs_no_engine(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("an engine ran on a pair that the reduction answers")

    monkeypatch.setattr(equivalence, "_span_walk", forbidden)
    monkeypatch.setattr(equivalence, "_saturate", forbidden)
    names = {"F": "U", "H2": "V", "H3": "W"}
    copy = _renamed_copy(fib_triple(), ("H3", "F", "H2"), names, "H2")
    for i in fib_triple().indices:
        assert decide_equal(fib_triple(), i, copy, names[i]) == Equal()
    assert decide_equal(fib_triple(), "H2", copy, "Dup") == Equal()
    # non-affine: the walk's head start finds nothing on the infinite orbit
    sys = PolynomialSystem.make(
        ("X", "Y", "Z"), "ab",
        {("X", "a"): P("X") * P("Y") + 1, ("Y", "a"): P("Z"), ("Z", "a"): P("X") + P("Y"),
         ("X", "b"): P("Z") ** 2, ("Y", "b"): P("Y"), ("Z", "b"): P("X") - 1},
        {"X": 1, "Y": 2, "Z": 1}, ring="Z",
    )
    copy = _renamed_copy(sys, ("Z", "X", "Y"), {"X": "R", "Y": "S", "Z": "T"}, "Z")
    assert decide_equal(sys, "X", copy, "R") == Equal()
    assert decide_equal(sys, "Z", copy, "Dup") == Equal()
    assert decide_equal_fractions(FractionPresentation(sys, "X", "Y", "Z", "Y"),
                                  FractionPresentation(copy, "R", "S", "Dup", "S")) == Equal()


def test_constant_indices_fold_and_the_cone_drops_the_rest():
    # C is 1 at every word (C*C from 1) and K is 0 (K*X from 0), so X(a) =
    # X + C counts a's; the cone of t leaves out the quadratic Q, so the
    # reduced system is affine and takes the span walk
    sys = PolynomialSystem.make(
        ("X", "C", "K", "Q"), "ab",
        {("X", "a"): P("X") + P("C"), ("X", "b"): P("X") + P("K"), ("C", "a"): P("C") * P("C"),
         ("C", "b"): P("C"), ("K", "a"): P("K") * P("X"), ("K", "b"): P("K") + P("K") * P("Q"),
         ("Q", "a"): P("Q") ** 2 + 1, ("Q", "b"): P("Q")},
        {"X": 0, "C": 1, "K": 0, "Q": 1}, ring="Z",
    )
    empty = PolynomialSystem((), sys.input_alphabet, (), ())
    assert equivalence._congruence((sys, empty)) == [{"X": "A_X", "C": 1, "K": 0, "Q": "A_Q"}, {}]
    t = _falling("X", 3) * P("C") + P("K") * P("Q")
    reduced, reduced_t = equivalence._reduced((sys, t, Polynomial.const(1)), (empty, Polynomial.zero(), Polynomial.const(1)))
    assert reduced.indices == ("A_X",) and reduced.affine and reduced_t == _falling("A_X", 3)
    assert reduced.rule_map["A_X", "a"] == P("A_X") + 1 and reduced.rule_map["A_X", "b"] == P("A_X")
    assert decide_zero_on_reachables(sys, t) == NotEqual(("a",) * 3)
    assert decide_zero_on_reachables(sys, P("C") - 1) == Equal()
    assert decide_zero_on_reachables(sys, P("C") * P("Q") - 1) == NotEqual(("a",))
    # X is a counter of a's, index for index
    counter = PolynomialSystem.make(("Y",), "ab", {("Y", "a"): P("Y") + 1, ("Y", "b"): P("Y")}, {"Y": 0}, ring="Z")
    assert decide_equal(sys, "X", counter, "Y") == Equal()


def test_the_reduction_keeps_every_verdict_and_witness():
    from hypothesis import assume, example, given, settings
    from hypothesis import strategies as st

    @st.composite
    def system(draw, letters):
        indices = tuple(f"x{k}" for k in range(draw(st.integers(1, 4))))

        def rule():
            kind = draw(st.sampled_from(["constant", "copy", "absorbing", "linear", "quadratic"]))
            if kind == "constant":
                return Polynomial.const(draw(st.integers(-1, 2)))
            if kind == "copy":
                return P(draw(st.sampled_from(indices)))
            if kind == "absorbing":
                # constant from a base of 0 or 1, and a multiple of another index
                i, j = draw(st.sampled_from(indices)), draw(st.sampled_from(indices))
                return P(i) * P(j) if draw(st.booleans()) else P(i) * P(i)
            p = Polynomial.const(draw(st.integers(-1, 1)))
            for i in indices:
                p = p + draw(st.integers(-1, 1)) * P(i)
            if kind == "quadratic":
                p = p + draw(st.sampled_from([1, -1])) * P(draw(st.sampled_from(indices))) * P(
                    draw(st.sampled_from(indices)))
            return p

        rules = {(i, a): rule() for i in indices for a in letters}
        base = {i: draw(st.sampled_from([0, 0, 1, 1, -1, 2])) for i in indices}
        return PolynomialSystem.make(indices, letters, rules, base, ring="Z")

    @st.composite
    def case(draw):
        letters = ("a", "b")[: draw(st.integers(1, 2))]
        sys_p = draw(system(letters))
        shape = draw(st.sampled_from(["copy", "copy", "perturbed", "other"]))
        if shape == "other":
            sys_q = draw(system(letters))
            i, j = draw(st.sampled_from(sys_p.indices)), draw(st.sampled_from(sys_q.indices))
            return sys_p, i, sys_q, j
        # a renamed copy in another order, with one index duplicated
        names = {i: f"y{k}" for k, i in enumerate(draw(st.permutations(sys_p.indices)))}
        sys_q = _renamed_copy(sys_p, draw(st.permutations(sys_p.indices)), names, draw(st.sampled_from(sys_p.indices)))
        if shape == "perturbed":
            rules, base = dict(sys_q.rules), dict(sys_q.base)
            if draw(st.booleans()):
                k = draw(st.sampled_from(sys_q.indices))
                base[k] += draw(st.sampled_from([1, -1]))
            else:
                key = draw(st.sampled_from(sorted(rules)))
                rules[key] = rules[key] + draw(st.sampled_from([1, -1])) * P(draw(st.sampled_from(sys_q.indices)))
            sys_q = PolynomialSystem.make(sys_q.indices, letters, rules, base, ring="Z")
        i = draw(st.sampled_from(sys_p.indices))
        j = draw(st.sampled_from([names[i], "Dup"]))
        return sys_p, i, sys_q, j

    def one_letter(indices, rules, base):
        return PolynomialSystem.make(indices, "a", rules, base, ring="Z")

    # Dup reads y1 at a, whose base differs from Dup's; x0 reads its base
    # value 0 at a but x1 at a a, which is 1 there
    copy = one_letter(("y0", "y1", "Dup"), {("y0", "a"): Polynomial.zero(), ("y1", "a"): P("y1"), ("Dup", "a"): P("y1")},
                      {"y0": 0, "y1": 1, "Dup": 0})
    late = one_letter(("x0", "x1"), {("x0", "a"): P("x1"), ("x1", "a"): P("x1") + 1}, {"x0": 0, "x1": 0})

    # a verdict the walk returns after a budget stop of the pass is checked too
    @settings(deadline=None, max_examples=300)
    @given(case(), st.sampled_from([0, 1, 8]))
    @example((one_letter(("x0", "x1"), {("x0", "a"): Polynomial.zero(), ("x1", "a"): P("x1")}, {"x0": 0, "x1": 0}),
              "x0", copy, "Dup"), 8)
    @example((late, "x0", one_letter(("y0",), {("y0", "a"): P("y0")}, {"y0": 0}), "y0"), 8)
    def check(drawn, chain):
        sys_p, i, sys_q, j = drawn
        budget = Budget(chain_additions=chain, max_basis=60)
        verdict = _outcome(lambda: decide_equal(sys_p, i, sys_q, j, budget))
        assume(not isinstance(verdict, tuple))
        differs = _pair_differs(sys_p, i, sys_q, j)
        first = next((w for w in _shortlex(sorted(sys_p.input_alphabet), 5) if differs(w)), None)
        if verdict == Equal():
            assert first is None
        else:
            assert differs(verdict.witness)
            assert verdict.witness == first if len(verdict.witness) <= 5 else first is None
        # the unreduced engines on the renamed product, at a small budget
        pair, t = _paired(sys_p, sys_q), P("A_" + i) - P("B_" + j)
        small = Budget(chain_additions=2, max_basis=20)
        if pair.affine:
            unreduced = _outcome(lambda: equivalence._verdict(equivalence._span_walk(pair, t, small)))
        else:
            unreduced = _outcome(lambda: equivalence._verdict(_saturate(pair, t, small, _no_answer)))
        if not isinstance(unreduced, tuple):
            assert verdict == unreduced

    check()


def test_a_reduced_pass_that_stops_on_a_budget_lets_the_walk_go_on_alone(monkeypatch):
    # X0 against Dup(a) = X0(a) + Dup (Dup + 1), which agrees with X0 while
    # Dup stays in {-1, 0}: they differ first at a^5.  The copy's X0 and X1
    # join the first system's, and at one addition the reduced pass stops
    # before the walk beside it reaches a^5; the walk then goes on alone for
    # as much credit again as the pass paid it, and answers, with no second
    # pass
    rules = {("X0", "a"): -P("X0") * P("X1") - 1, ("X1", "a"): P("X0")}
    sys = PolynomialSystem.make(("X0", "X1"), "a", rules, {"X0": -1, "X1": 1}, ring="Z")
    rules[("Dup", "a")] = rules["X0", "a"] + P("Dup") * (P("Dup") + 1)
    copy = PolynomialSystem.make(("X0", "X1", "Dup"), "a", rules, {"X0": -1, "X1": 1, "Dup": -1}, ring="Z")
    passes = []
    saturate = equivalence._saturate
    monkeypatch.setattr(equivalence, "_saturate", lambda *args: passes.append(args[0].indices) or saturate(*args))
    assert decide_equal(sys, "X0", copy, "Dup", Budget(chain_additions=1)) == NotEqual(("a",) * 5)
    assert passes == [("A_X0", "A_X1", "B_Dup")]
    assert next(w for w in _shortlex("a", 6) if _pair_differs(sys, "X0", copy, "Dup")(w)) == ("a",) * 5


def test_the_walk_after_a_budget_stop_ends_and_the_stop_is_raised(monkeypatch):
    # S = X^2 beside S = S + 2X + 1: equal at every word, an infinite orbit of
    # small values (n, n^2, n^2), and a reduced system that keeps the square;
    # the pass stops at its first addition, the walk gets its allowance of
    # the pass's two terms, finds nothing, and the pass's stop is raised
    square = PolynomialSystem.make(
        ("X", "S"), "a", {("X", "a"): P("X") + 1, ("S", "a"): (P("X") + 1) ** 2}, {"X": 0, "S": 0}, ring="Z")
    steps = PolynomialSystem.make(
        ("X", "S"), "a", {("X", "a"): P("X") + 1, ("S", "a"): P("S") + 2 * P("X") + 1}, {"X": 0, "S": 0}, ring="Z")
    passes = []
    saturate = equivalence._saturate
    monkeypatch.setattr(equivalence, "_saturate", lambda *args: passes.append(args[0].indices) or saturate(*args))
    with pytest.raises(BudgetExceededError, match="ideal chain did not stabilize within the addition budget"):
        decide_equal(square, "S", steps, "S", Budget(chain_additions=0))
    assert passes == [("A_X", "A_S", "B_S")]
    assert decide_equal(square, "S", steps, "S") == Equal()
