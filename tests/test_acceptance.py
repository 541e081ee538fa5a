"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see every line; the
assertions are the gate either way.
"""

import functools
import math
import random
import time
from itertools import chain, combinations

from wordmaps.equivalence import (
    Equal,
    NotEqual,
    decide_equal,
)
from wordmaps.errors import FuelExhaustedError
from wordmaps.groebner import (
    Ideal,
    groebner,
    normal_form,
    s_polynomial,
)
from wordmaps.kpda import (
    Accepted,
    Configuration,
    check_derivation_computation_agreement,
    initial_store,
    run,
    step,
)
from wordmaps.lowering import (
    catenative_to_hdt0l,
    compose_level3,
    compositional_to_level3,
    hdt0l_to_catenative,
    series_to_polynomial_system,
)
from wordmaps.morphisms import (
    Homomorphism,
    LinearRepresentation,
    eval_hdt0l,
    linear_eval,
)
from wordmaps.polynomials import Polynomial
from wordmaps.pushdown import (
    IteratedPushdown,
    Variable,
    is_graded,
    parse,
    pop,
    push,
    serialize,
    substitute,
    substitute_word,
    topsyms,
)
from wordmaps.recurrences import (
    CatenativeSystem,
    DfaClassifier,
    PolynomialSystem,
    RegularSystem,
    catenative_to_regular,
    eval_catenative,
    eval_compositional,
    eval_polynomial,
    eval_regular,
    is_strict,
)
from wordmaps.words import word

from conftest import WORKED_GAMMA, WORKED_SYMBOLS, WORKED_UNDET, pt, random_store
from test_recurrences import _random_catenative, factorial_words, npown_f, npown_h


def criterion(number, description):
    def wrap(fn):
        @functools.wraps(fn)
        def runner(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL  criterion {number:2d}: {description}")
                raise
            print(f"PASS  criterion {number:2d}: {description}")

        return runner

    return wrap


def _all_words(letters, up_to):
    level = [()]
    for _ in range(up_to + 1):
        yield from level
        level = [(a,) + w for a in letters for w in level]


OMEGA_TEXT = "A1[A2[A3C3]B2[D3C3]]B1[B2[B3D3]]"


@criterion(1, "pushdown operations reproduce the seven worked results, < 1 ms")
def test_criterion_01_pushdown_operations():
    omega = parse(OMEGA_TEXT, 3, WORKED_SYMBOLS)

    def all_seven():
        return (
            topsyms(omega),
            serialize(pop(1, omega)),
            serialize(pop(2, omega)),
            serialize(pop(3, omega)),
            serialize(push(1, ("A", "B"), omega)),
            serialize(push(2, ("A", "B"), omega)),
            serialize(push(3, ("A", "B"), omega)),
        )

    results = all_seven()
    assert results == (
        ("A1", "A2", "A3"),
        "B1[B2[B3D3]]",
        "A1[B2[D3C3]]B1[B2[B3D3]]",
        "A1[A2[C3]B2[D3C3]]B1[B2[B3D3]]",
        "A[A2[A3C3]B2[D3C3]]B[A2[A3C3]B2[D3C3]]B1[B2[B3D3]]",
        "A1[A[A3C3]B[A3C3]B2[D3C3]]B1[B2[B3D3]]",
        "A1[A2[ABC3]B2[D3C3]]B1[B2[B3D3]]",
    )
    best = min(_timed(all_seven) for _ in range(9))
    assert best < 1e-3, f"seven operations took {best * 1e3:.3f} ms"


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


@criterion(2, "serialization matches the displayed bracket word; 200 round-trips")
def test_criterion_02_serialization():
    omega = parse(OMEGA_TEXT, 3, WORKED_SYMBOLS)
    assert serialize(omega) == OMEGA_TEXT
    rng = random.Random(77)
    for _ in range(200):
        level = rng.choice([1, 2, 3])
        store = random_store(rng, level)
        assert parse(serialize(store), level, "ABCD") == store


@criterion(3, "substitution worked example and the seven grading verdicts")
def test_criterion_03_substitution_and_grading():
    t = pt("A1[A2[A3O3]B2[D3C3]]O1")
    bindings = {
        "O1": pt("B1[B2[O3]]", 3),
        "O2": pt("C2[A3B3O3p]", 2),
        "O3": pt("C3C3C3O3", 1),
    }
    assert serialize(substitute(t, bindings)) == "A1[A2[A3C3C3C3O3]B2[D3C3]]B1[B2[O3]]"
    w = (Variable("p", t, "q"), Variable("q", pt("A1[O2]"), "p"))
    w2 = substitute_word(w, bindings)
    assert serialize(w2[0].store) == "A1[A2[A3C3C3C3O3]B2[D3C3]]B1[B2[O3]]"
    assert serialize(w2[1].store) == "A1[C2[A3B3O3p]]"

    g, u = WORKED_GAMMA, WORKED_UNDET
    verdicts = [
        (pt("A1[A2[A3O3]B2[D3C3]]O1"), True),
        (pt("A1[A1[A3]]"), False),
        (pt("A2[A3B3O3]O2", 2), True),
        (pt("A3B3O3", 1), True),
        (pt("A1[O2[A3O3]]"), False),
        (pt("A1[A2[A3O2]]"), False),
        (pt("A1[A2[]B2[]]"), True),
    ]
    for store, expected in verdicts:
        assert bool(is_graded(store, g, u)) == expected, serialize(store)


@criterion(4, "catenative words u(n) = b ab aab ... a^n b and v(n) = a^(n+1) b, n <= 10")
def test_criterion_04_catenative_words():
    sys = factorial_words()
    for n in range(11):
        expected_u = tuple(chain.from_iterable(["a"] * m + ["b"] for m in range(n + 1)))
        assert eval_catenative(sys, "u", ("a",) * n) == expected_u
        assert eval_catenative(sys, "v", ("a",) * n) == ("a",) * (n + 1) + ("b",)


def _uv_system(literal):
    u, v = Polynomial.var("U"), Polynomial.var("V")
    return PolynomialSystem.make(
        ("U", "V"), {"a", "b"},
        {("U", "a"): u + v, ("V", "a"): v, ("U", "b"): u,
         ("V", "b"): (v if literal else u)},
        {"U": 1, "V": 0},
    )


@criterion(5, "U(u(n)) = (n+1)! matches the polynomial factorial; the literal b-rule gives U = 1")
def test_criterion_05_factorial():
    words_sys = factorial_words()
    corrected = _uv_system(literal=False)
    literal = _uv_system(literal=True)
    fc = PolynomialSystem.make(
        ("L", "FC"), {"a"},
        {("L", "a"): Polynomial.var("L") + 1, ("FC", "a"): Polynomial.var("L") * Polynomial.var("FC")},
        {"L": 2, "FC": 1},
    )
    for n in range(11):
        u_n = eval_catenative(words_sys, "u", ("a",) * n)
        through_words = eval_polynomial(corrected, "U", u_n)
        assert through_words == math.factorial(n + 1)
        assert through_words == eval_polynomial(fc, "FC", ("a",) * n)
        assert eval_polynomial(literal, "U", u_n) == 1


def _naive_hom_unfold(u):
    """Independent oracle: unfold the homomorphism rules literally on dicts
    of plain strings, no sharing, no memoization."""
    base = {"H": {"x": "x", "y": "y"}, "K": {"x": "x", "y": "xy"},
            "Kp": {"x": "x", "y": ""}, "P": {"x": "y", "y": "x"}}

    def ap(h, s):
        return "".join(h[c] for c in s)

    def comp(f, g):  # f first
        return {c: ap(g, f[c]) for c in "xy"}

    def ev(name, u):
        if not u:
            return dict(base[name])
        a, rest = u[0], u[1:]
        if name != "H":
            return ev(name, rest)
        if a == "a":
            return comp(ev("H", rest), ev("H", rest))
        if a == "b":
            return comp(comp(ev("P", rest), ev("H", rest)), ev("Kp", rest))
        return comp(ev("H", rest), ev("K", rest))

    return ev("H", u)


def _rle_hom_unfold(u):
    """The same literal unfolding with run-length-encoded image words, so
    astronomically long images stay representable; exact content, not just
    counts."""

    def rle(s):
        runs = []
        for c in s:
            if runs and runs[-1][0] == c:
                runs[-1] = (c, runs[-1][1] + 1)
            else:
                runs.append((c, 1))
        return tuple(runs)

    base = {
        "H": {"x": rle("x"), "y": rle("y")},
        "K": {"x": rle("x"), "y": rle("xy")},
        "Kp": {"x": rle("x"), "y": ()},
        "P": {"x": rle("y"), "y": rle("x")},
    }

    def scale(runs, n):
        out = []
        for _ in range(n):
            for c, k in runs:
                if out and out[-1][0] == c:
                    out[-1] = (c, out[-1][1] + k)
                else:
                    out.append((c, k))
        return out

    def ap(h, runs):
        out = []
        for c, k in runs:
            for c2, k2 in scale_once(h[c], k):
                if out and out[-1][0] == c2:
                    out[-1] = (c2, out[-1][1] + k2)
                else:
                    out.append([c2, k2])
        return tuple((c, k) for c, k in out)

    def scale_once(runs, n):
        # image of a run (c, n): the image word of c repeated n times
        if len(runs) == 1:
            return ((runs[0][0], runs[0][1] * n),)
        return tuple((c, k) for c, k in scale(list(runs), n))

    def comp(f, g):
        return {c: ap(g, f[c]) for c in "xy"}

    def ev(name, u):
        if not u:
            return dict(base[name])
        a, rest = u[0], u[1:]
        if name != "H":
            return ev(name, rest)
        if a == "a":
            return comp(ev("H", rest), ev("H", rest))
        if a == "b":
            return comp(comp(ev("P", rest), ev("H", rest)), ev("Kp", rest))
        return comp(ev("H", rest), ev("K", rest))

    return ev("H", u)


def _naive_count_unfold(u):
    """Independent 2x2 letter-count recursion, plain tuples, no library code."""
    base = {"H": ((1, 0), (0, 1)), "K": ((1, 0), (1, 1)), "Kp": ((1, 0), (0, 0)),
            "P": ((0, 1), (1, 0))}

    def mul(a, b):
        return tuple(
            tuple(sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2)) for i in range(2)
        )

    def ev(name, u):
        if not u:
            return base[name]
        a, rest = u[0], u[1:]
        if name != "H":
            return ev(name, rest)
        if a == "a":
            m = ev("H", rest)
            return mul(m, m)
        if a == "b":
            return mul(mul(base["P"], ev("H", rest)), base["Kp"])
        return mul(ev("H", rest), base["K"])

    return ev("H", u)


@criterion(6, "composition pipeline: closed forms, f(n), pipeline = oracle, resolution documented")
def test_criterion_06_npown():
    hsys = npown_h()
    for q in range(9):
        h = eval_compositional(hsys, "H", word("c" * q))
        assert h == Homomorphism.bracket("x", "x" * q + "y")
        h = eval_compositional(hsys, "H", word("b" + "c" * q))
        assert h == Homomorphism.bracket("x" * q, "x")

    fsys = npown_f()
    for n in range(11):
        assert eval_catenative(fsys, "f", ("a",) * n) == word("a" * n + "b" + "c" * n)

    out = Homomorphism({"x": ("b",), "y": ("b",)}, source={"x", "y"}, target={"b"})
    level3 = compositional_to_level3(hsys, "H", out, "x")

    # explicit pipeline against the string-level unfolding oracle (n <= 3),
    # then the run-length oracle for n = 4, where the value has 4^16 letters
    for n in range(4):
        u = word("a" * n + "b" + "c" * n)
        pipeline = level3.eval(u)
        oracle = _naive_hom_unfold("a" * n + "b" + "c" * n)["x"]
        assert pipeline == tuple("b" * len(oracle))
        assert eval_compositional(hsys, "H", u).images["x"] == tuple(oracle)

    rle = _rle_hom_unfold("aaaab" + "cccc")["x"]
    assert rle == (("x", 4 ** 16),)
    assert level3.value(word("aaaabcccc")) == 4 ** 16

    # n <= 12 through the letter-count (matrix) path, against an independent
    # naive count recursion and the resolved closed form n^(2^n)
    for n in range(13):
        u = word("a" * n + "b" + "c" * n)
        lowered = level3.value(u)
        counts = _naive_count_unfold("a" * n + "b" + "c" * n)
        assert lowered == counts[0][0]  # letters of x in the image of x
        assert lowered == n ** (2 ** n)

    # the closed-form resolution of the a-rule (documented in the README):
    # H(a^p b c^q) = [x^(q^(2^p)), x^(q^(2^p - 1))]
    for p in range(4):
        for q in range(4):
            h = eval_compositional(hsys, "H", word("a" * p + "b" + "c" * q))
            assert h.images["x"] == ("x",) * (q ** (2 ** p))
            assert h.images["y"] == ("x",) * (q ** (2 ** p - 1))


@criterion(7, "G(w) = F(binary value of w) for every w up to length 10")
def test_criterion_07_gmap():
    nu = CatenativeSystem.make(
        ("g", "p"), {"0", "1"}, {"x"},
        {("g", "0"): ("g",), ("g", "1"): ("p", "g"),
         ("p", "0"): ("p", "p"), ("p", "1"): ("p", "p")},
        {"g": (), "p": ("x",)},
    )
    rep = LinearRepresentation.make((1, 0), {"x": ((1, 1), (1, 0))}, (1, 0))
    fib = [1, 1]
    while len(fib) < 1024:
        fib.append(fib[-1] + fib[-2])
    cache = {}
    for w in _all_words(("0", "1"), 10):
        stage1 = eval_catenative(nu, "g", w)
        value = int("".join(w), 2) if w else 0
        assert stage1 == ("x",) * value
        if value not in cache:
            cache[value] = linear_eval(rep, stage1)
        assert cache[value] == fib[value]


@criterion(8, "catenative <-> HDT0L round-trips agree on 100 random systems, |w| <= 5")
def test_criterion_08_representation_roundtrips():
    start = time.perf_counter()
    rng = random.Random(88)
    for _ in range(100):
        sys = _random_catenative(rng, n_idx=4, n_letters=3, max_rule=3)
        i0 = rng.choice(sys.indices)
        h = catenative_to_hdt0l(sys, i0)
        back = hdt0l_to_catenative(h)
        for w in _all_words(sorted(sys.input_alphabet), 5):
            reference = eval_catenative(sys, i0, w)
            assert eval_hdt0l(h, w) == reference
            assert eval_catenative(back, i0, w) == reference
    assert time.perf_counter() - start < 60


@criterion(9, "series lowering agrees with staged evaluation on 50 random instances, |w| <= 6")
def test_criterion_09_series_lowering():
    rng = random.Random(99)
    for _ in range(50):
        cat = _random_catenative(rng)
        d = rng.randrange(1, 4)
        mats = {
            b: tuple(tuple(rng.randrange(3) for _ in range(d)) for _ in range(d))
            for b in cat.output_alphabet
        }
        rep = LinearRepresentation.make(
            tuple(rng.randrange(2) for _ in range(d)),
            mats,
            tuple(rng.randrange(3) for _ in range(d)),
        )
        i0 = rng.choice(cat.indices)
        lowered = series_to_polynomial_system(cat, rep, i0)
        level3 = compose_level3(cat, i0, rep)
        assert len(lowered.system.indices) == len(cat.indices) * d * d
        for w in _all_words(sorted(cat.input_alphabet), 6):
            staged = linear_eval(rep, eval_catenative(cat, i0, w))
            assert lowered.eval(w) == staged
            assert level3.value(w) == staged


@criterion(10, "Groebner suite: zero reductions, membership invariance, spot memberships")
def test_criterion_10_groebner():
    x, y = Polynomial.var("x"), Polynomial.var("y")
    assert groebner([x]) == [x]
    assert groebner([Polynomial.const(1)]) == [Polynomial.const(1)]
    assert Ideal([x]).contains(x * x)
    assert not Ideal([x, y]).contains(Polynomial.const(1))
    assert normal_form(y, groebner([x * x - y]), ("x", "y")) == y

    rng = random.Random(1010)
    variables = ("x", "y", "z", "w")

    def random_poly(nvars):
        pool = variables[:nvars]
        terms = {}
        for _ in range(rng.randrange(1, 4)):
            mono_vars = rng.sample(pool, rng.randrange(0, min(3, nvars) + 1))
            mono = []
            total = 0
            for v in mono_vars:
                e = rng.randrange(1, 4 - len(mono_vars) + 1)
                if total + e > 3:
                    e = max(1, 3 - total)
                mono.append((v, e))
                total += e
            terms[tuple(sorted(mono))] = terms.get(tuple(sorted(mono)), 0) + rng.randrange(-3, 4)
        return Polynomial(terms)

    for _ in range(50):
        nvars = rng.randrange(2, 5)
        pool = variables[:nvars]
        gens = [p for p in (random_poly(nvars) for _ in range(rng.randrange(1, 4))) if p]
        if not gens:
            continue
        basis = groebner(gens, pool)
        for f, g in combinations(basis, 2):
            assert normal_form(s_polynomial(f, g, pool), basis, pool).is_zero()
        probes = [random_poly(nvars) for _ in range(3)] + [gens[0] * random_poly(nvars)]
        reference = Ideal(gens, pool)
        shuffled = list(gens)
        rng.shuffle(shuffled)
        permuted = Ideal(shuffled, pool)
        for p in probes:
            expected = reference.contains(p)
            assert permuted.contains(p) == expected
            assert normal_form(p, groebner(gens, pool, "lex"), pool, "lex").is_zero() == expected


def _fib_pair(second_base=1):
    return PolynomialSystem.make(
        ("F", "G"), {"a"},
        {("F", "a"): Polynomial.var("G"), ("G", "a"): Polynomial.var("F") + Polynomial.var("G")},
        {"F": 1, "G": second_base},
    )


def _fib_triple():
    return PolynomialSystem.make(
        ("F", "H2", "H3"), {"a"},
        {("F", "a"): Polynomial.var("H2"), ("H2", "a"): Polynomial.var("H3"),
         ("H3", "a"): Polynomial.var("F") + 2 * Polynomial.var("H2")},
        {"F": 1, "H2": 1, "H3": 2},
    )


@criterion(11, "equality decision: Fibonacci presentations, perturbed witness, 30 random pairs")
def test_criterion_11_equality_decision():
    start = time.perf_counter()
    assert isinstance(decide_equal(_fib_pair(), "F", _fib_triple(), "F"), Equal)
    assert time.perf_counter() - start < 60

    verdict = decide_equal(_fib_pair(), "F", _fib_pair(second_base=2), "F")
    assert verdict == NotEqual(("a",))

    from test_equivalence import _brute_equal, _random_linear_system, _random_system

    rng = random.Random(1111)
    for trial in range(30):
        if trial % 2 == 0:
            sys_a = _random_linear_system(rng)
            i = rng.choice(sys_a.indices)
            rules = dict(sys_a.rules)
            base = dict(sys_a.base)
            rules.update({("Dup", a): dict(sys_a.rules)[(i, a)] for a in sys_a.input_alphabet})
            base["Dup"] = base[i]
            sys_b = PolynomialSystem.make(
                sys_a.indices + ("Dup",), sys_a.input_alphabet, rules, base
            )
            i_a, i_b = i, "Dup"
        else:
            sys_a = _random_system(rng)
            sys_b = _random_system(rng, letters=tuple(sorted(sys_a.input_alphabet)))
            if sys_a.input_alphabet != sys_b.input_alphabet:
                continue
            i_a, i_b = rng.choice(sys_a.indices), rng.choice(sys_b.indices)
        verdict = decide_equal(sys_a, i_a, sys_b, i_b)
        if isinstance(verdict, Equal):
            assert _brute_equal(sys_a, i_a, sys_b, i_b, 8) is None
        else:
            w = verdict.witness
            assert eval_polynomial(sys_a, i_a, w) != eval_polynomial(sys_b, i_b, w)
            letters = sorted(sys_a.input_alphabet)
            level = [()]
            for _ in range(len(w)):
                for v in level:
                    assert eval_polynomial(sys_a, i_a, v) == eval_polynomial(sys_b, i_b, v)
                level = [(a,) + u for a in letters for u in level]


@criterion(12, "runner: identity and doubling machines, determinism, grammar agreement")
def test_criterion_12_kpda_runner():
    from test_kpda import _bundled

    ident = _bundled("identity-pda").resolve("id1", "pda")[1]
    for w in _all_words(("a", "b"), 8):
        assert run(ident, w) == Accepted(w)

    pow2 = _bundled("pow2-pda").resolve("pow2", "pda")[1]
    for n in range(11):
        assert run(pow2, ("a",) * n) == Accepted(("b",) * (2 ** n))
        # at most one successor from every configuration along the run
        c = Configuration("q0", (), initial_store(pow2, ("a",) * n))
        while not c.store.is_empty():
            succ = step(pow2, c)
            assert len(succ) <= 1
            if not succ:
                break
            (c,) = succ

    # derivation/computation agreement on bounded instances
    for w in _all_words(("a", "b"), 3):
        if not w:
            continue
        store = IteratedPushdown.from_word(w, 1)
        good = check_derivation_computation_agreement(ident, "q0", store, "q0", w, 16)
        assert good.agree is True and good.derives is True
        bad = check_derivation_computation_agreement(ident, "q0", store, "q0", w + ("a",), 16)
        assert bad.agree is True and bad.derives is False
    store = initial_store(pow2, ("a",))
    res = check_derivation_computation_agreement(pow2, "q0", store, "q0", ("b", "b"), 40)
    assert res.agree is True and res.derives is True


@criterion(13, "fuel: a looping regular system always exhausts, strict systems never do")
def test_criterion_13_fuel_semantics():
    classifier = DfaClassifier.single_class({"a"})
    (label,) = classifier.states
    loop = RegularSystem.make(
        ("f",), {"a"}, {"b"}, classifier,
        {("f", "a", label): (("f", ("a",)),)},
        {"f": word("b")},
    )
    for fuel in (1, 2, 7, 31, 100, 1000, 10000):
        try:
            eval_regular(loop, "f", ("a",), fuel=fuel)
            assert False, "the looping system terminated"
        except FuelExhaustedError:
            pass

    rng = random.Random(1313)
    for _ in range(30):
        cat = _random_catenative(rng)
        reg = catenative_to_regular(cat)
        assert is_strict(reg)
        for w in _all_words(sorted(cat.input_alphabet), 6):
            value = eval_regular(reg, cat.indices[0], w, fuel=10**6)
            assert value == eval_catenative(cat, cat.indices[0], w)
