import random
import time
from itertools import count, product

import pytest
from importlib import resources

from wordmaps import kpda, pushdown
from wordmaps.errors import DomainError
from wordmaps.kpda import (
    Accepted,
    Configuration,
    FuelExhausted,
    KPda,
    Pop,
    Push,
    Stuck,
    check_derivation_computation_agreement,
    initial_store,
    run,
    step,
    steps,
    validate_level_partitioned,
    validate_normal_form,
    validate_strongly_deterministic,
)
from wordmaps.pushdown import (
    GradedAlphabet,
    IteratedPushdown,
    Variable,
    is_graded,
    substitute,
    substitute_word,
    topsyms,
)
from wordmaps.systemfile import parse_file

from conftest import POW2_STUCK_SYS


def _bundled(name):
    text = resources.files("wordmaps").joinpath("data", name + ".sys").read_text()
    return parse_file(text, filename=name)


@pytest.fixture(scope="module")
def identity_pda():
    return _bundled("identity-pda").resolve("id1", "pda")[1]


@pytest.fixture(scope="module")
def pow2_pda():
    return _bundled("pow2-pda").resolve("pow2", "pda")[1]


@pytest.fixture(scope="module")
def pow2_stuck_pda():
    return parse_file(POW2_STUCK_SYS).resolve("pow2stuck", "pda")[1]


def _toy(delta, states=("q0", "q1"), terminals=("a", "b")):
    gamma = GradedAlphabet.of(["S"], ["a", "b"])
    return KPda.make(2, states, terminals, gamma, delta, "q0",
                     input_alphabet=["a", "b"], bottom_symbols=["S"])


# ---------------------------------------------------------------------------
# validation


def test_determinism_flags(identity_pda):
    assert validate_strongly_deterministic(identity_pda)
    two = _toy({("q0", "a", ("S",)): {("q0", Pop(1)), ("q1", Pop(1))}})
    assert not validate_strongly_deterministic(two)
    empty = _toy({})
    assert validate_strongly_deterministic(empty)
    mixed = _toy({("q0", "", ("S",)): {("q0", Pop(1))},
                  ("q0", "a", ("S",)): {("q0", Pop(1))}})
    assert not validate_strongly_deterministic(mixed)


def test_level_partition_and_normal_form(pow2_pda):
    assert validate_level_partitioned(pow2_pda)
    report = validate_normal_form(pow2_pda)
    assert report and report.level_partitioned and report.reads_pop1_only and report.pushes_pairs

    bad_push = _toy({("q0", "", ("S",)): {("q0", Push(1, ("a", "b")))}})
    assert not validate_level_partitioned(bad_push)  # pushes level-2 letters at level 1

    bad_read = _toy({("q0", "a", ("S",)): {("q0", Push(1, ("S", "S")))}})
    rep = validate_normal_form(bad_read)
    assert not rep.reads_pop1_only

    bad_arity = _toy({("q0", "", ("S", "a")): {("q0", Push(2, ("a", "b", "a")))}})
    rep = validate_normal_form(bad_arity)
    assert not rep.pushes_pairs


# ---------------------------------------------------------------------------
# configuration semantics


def test_step_empty_store(identity_pda):
    c = Configuration("q0", (), IteratedPushdown.empty(1))
    assert step(identity_pda, c) == set()


def test_step_identity_one_move(identity_pda):
    # one step from (q0, eps emitted, store ab): emit a, keep b
    c = Configuration("q0", (), IteratedPushdown.from_word(("a", "b"), 1))
    succ = step(identity_pda, c)
    assert succ == {Configuration("q0", ("a",), IteratedPushdown.from_word(("b",), 1))}


def test_step_nondeterministic_two_successors():
    m = _toy({("q0", "", ("S",)): {("q0", Pop(1)), ("q1", Push(1, ("S", "S")))}})
    c = Configuration("q0", (), initial_store(m, ()))
    assert len(step(m, c)) == 2


def test_run_identity_all_short_words(identity_pda):
    rng = random.Random(5)
    for n in range(9):
        for _ in range(6):
            w = tuple(rng.choice("ab") for _ in range(n))
            outcome = run(identity_pda, w)
            assert outcome == Accepted(w)


def test_run_empty_input_accepts_immediately(identity_pda):
    assert run(identity_pda, ()) == Accepted(())


def test_run_pow2(pow2_pda):
    for n in range(11):
        outcome = run(pow2_pda, ("a",) * n)
        assert outcome == Accepted(("b",) * (2 ** n)), n


def test_run_requires_strong_determinism():
    m = _toy({("q0", "a", ("S",)): {("q0", Pop(1)), ("q1", Pop(1))}})
    with pytest.raises(DomainError):
        run(m, ())


def test_run_stuck_and_fuel(pow2_pda):
    # a machine that never empties its store exhausts its fuel
    loop = _toy({("q0", "", ("S",)): {("q0", Push(1, ("S", "S")))},
                 ("q0", "", ("S", "a")): {("q0", Push(1, ("S", "S")))}})
    out = run(loop, ("a",), fuel=50)
    assert isinstance(out, FuelExhausted)
    # no transition from q1 with an S head: stuck
    dead = _toy({("q0", "", ("S", "a")): {("q1", Pop(2))}})
    out = run(dead, ("a",))
    assert isinstance(out, Stuck)
    assert out.configuration.state == "q1"


def _reference_run(m, w, fuel):
    """The generation-mode run as a loop over the successor relation: the
    outcome and the (state, topsyms, next state, emitted) of each step."""
    c = Configuration(m.start_state, (), initial_store(m, w))
    trace = []
    while not c.store.is_empty():
        if fuel <= 0:
            return FuelExhausted(c), trace
        succ = step(m, c)
        if not succ:
            return Stuck(c), trace
        (c2,) = succ
        trace.append((c.state, topsyms(c.store), c2.state, c2.emitted))
        c = c2
        fuel -= 1
    return (Accepted(c.emitted) if c.state == m.start_state else Stuck(c)), trace


def test_run_matches_a_loop_over_step_at_every_fuel(identity_pda, pow2_pda, pow2_stuck_pda):
    stuck_without_move = _toy({("q0", "a", ("S", "a")): {("q1", Pop(1))}})
    stuck_with_empty_store = _toy({("q0", "", ("S", "a")): {("q1", Pop(2))}})
    cases = [
        (identity_pda, ("a", "b", "b", "a")),
        (pow2_pda, ("a",) * 3),
        (pow2_stuck_pda, ("a",) * 3),
        (stuck_without_move, ("a", "b")),
        (stuck_with_empty_store, ("a",)),
    ]
    for m, w in cases:
        # the least fuel that finishes the run is its number of steps
        n = next(f for f in count() if not isinstance(_reference_run(m, w, f)[0], FuelExhausted))
        for fuel in range(n + 2):
            expected, expected_trace = _reference_run(m, w, fuel)
            got = run(m, w, fuel)
            assert type(got) is type(expected) and got == expected, (m.name, w, fuel)
            trace = []
            for item in steps(m, w, fuel):
                if isinstance(item, tuple):
                    q, tops, q2, emitted = item
                    trace.append((q, tops, q2, tuple(emitted)))
            assert item == expected and trace == expected_trace, (m.name, w, fuel)
    assert isinstance(run(stuck_without_move, ("a", "b")), Stuck)
    assert isinstance(run(stuck_with_empty_store, ("a",)), Stuck)


def test_run_validates_as_many_stores_for_a_long_word_as_for_a_short_one(identity_pda, monkeypatch):
    # only the initial store passes the checking constructor; pops and
    # pushes rebuild valid stores without it
    calls = []
    check = IteratedPushdown.__init__

    def counted(self, *args, **kwargs):
        calls.append(args)
        check(self, *args, **kwargs)

    monkeypatch.setattr(IteratedPushdown, "__init__", counted)
    counts = []
    for n in (10, 100):
        calls.clear()
        assert run(identity_pda, ("a", "b") * n) == Accepted(("a", "b") * n)
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def _relabel_pda():
    # level 1: push_1 replaces a head a by c and a head b by c c, then each c
    # is emitted and popped, so every push sits on a long tail
    return KPda.make(1, ["q0", "q1"], ["c"], GradedAlphabet.of(["a", "b", "c"]), {
        ("q0", "", ("a",)): {("q1", Push(1, ("c",)))},
        ("q0", "", ("b",)): {("q1", Push(1, ("c", "c")))},
        ("q0", "c", ("c",)): {("q0", Pop(1))},
        ("q1", "c", ("c",)): {("q0", Pop(1))},
    }, "q0", input_alphabet=["a", "b"])


@pytest.mark.parametrize("name, words", [
    ("id1", [("a", "b") * 400, ("a", "b") * 1600]),
    ("pow2", [("a",) * 6, ("a",) * 8]),
    ("relabel", [("a", "b") * 400, ("a", "b") * 1600]),
])
def test_run_allocates_at_most_level_plus_widest_push_cells_per_step(name, words, identity_pda, pow2_pda,
                                                                     monkeypatch):
    # pop_1 returns the shared tail and a level-j operation rebuilds the j
    # leftmost cells, so beyond the initial store a step allocates at most
    # (level + widest push) cells, however long the stores grow
    m = {"id1": identity_pda, "pow2": pow2_pda, "relabel": _relabel_pda()}[name]
    widest = max((len(op.symbols) for moves in m.moves.values() for _, _, op in moves
                  if isinstance(op, Push)), default=0)
    cells = []
    new = pushdown._new
    monkeypatch.setattr(pushdown, "_new", lambda cls: cells.append(cls) or new(cls))
    for w in words:
        cells.clear()
        initial_store(m, w)
        initial = len(cells)
        cells.clear()
        trace = list(steps(m, w))
        assert isinstance(trace.pop(), Accepted)
        assert initial >= len(w)
        assert len(cells) - initial <= (m.level + widest) * len(trace), (len(w), len(cells), len(trace))


def _with_delta(m, delta):
    # KPda's own constructor, not KPda.make's checks
    return KPda(m.level, m.states, m.terminals, m.gamma, delta, m.start_state, m.input_alphabet,
                m.bottom_symbols, m.name)


def _built_without_make(m, key, op):
    return _with_delta(m, ((key, frozenset({("q0", op)})),))


@pytest.mark.parametrize("op, message", [
    (Pop(3), "pop level 3 out of range for a level-2 store"),
    (Push(2, ()), "push requires a non-empty word"),
    (Push(2, ("a", "")), "bad pushdown symbol ''"),
    (Push(2, ("a", 3)), "bad pushdown symbol 3"),
])
def test_run_checks_the_moves_of_a_machine_built_without_make(op, message):
    m = _built_without_make(_toy({}), ("q0", "", ("S", "a")), op)
    with pytest.raises(DomainError, match=message):
        run(m, ("a",))


def test_run_stops_on_an_empty_store_even_under_an_empty_topsyms_key(identity_pda):
    m = _built_without_make(identity_pda, ("q0", "", ()), Push(1, ("a",)))
    assert list(steps(m, (), fuel=10)) == [Accepted(())]


def test_run_with_exactly_enough_fuel(identity_pda):
    # acceptance is observed on the halting configuration, not charged a step
    assert run(identity_pda, ("a",), fuel=1) == Accepted(("a",))
    out = run(identity_pda, ("a", "a"), fuel=1)
    assert isinstance(out, FuelExhausted)


def test_acceptance_needs_start_state():
    # empties the store in the wrong state
    m = _toy({("q0", "", ("S",)): {("q1", Pop(1))}})
    out = run(m, ())
    assert isinstance(out, Stuck)


def _last(items):
    for item in items:
        pass
    return item


def _random_machine(draw, st):
    """A strongly deterministic machine of level 1-3 with states q0 q1:
    level-i symbols Ai Bi below the top level, the input letters a b on it.
    A (state, topsyms) key is left undefined with probability 1/10; else its
    one move, into q0 with probability 2/3, mostly pops the deepest head it
    sees or, when that head is a top-level letter, pushes 1-3 level-1 symbols
    in place of the block, which repeats blocks; the rest are pops and pushes
    of 1-3 symbols at any level."""
    level = draw(st.integers(1, 3))
    levels = [[f"A{i}", f"B{i}"] for i in range(1, level)] + [["a", "b"]]
    states = ["q0", "q1"]
    delta = {}
    for q in states:
        for tops in (t for n in range(1, level + 1) for t in product(*levels[:n])):
            shape = draw(st.integers(0, 9))
            if shape == 0:
                continue
            if shape <= 4:
                op = Pop(len(tops))
            elif shape <= 7 and len(tops) == level:
                op = Push(1, tuple(draw(st.lists(st.sampled_from(levels[0]), min_size=1, max_size=3))))
            else:
                j = draw(st.integers(1, level))
                pool = levels[j - 1] if draw(st.integers(0, 5)) else [s for lv in levels for s in lv]
                symbols = tuple(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3)))
                op = draw(st.sampled_from([Pop(j), Push(j, symbols)]))
            read = draw(st.sampled_from(["", "", "x", "y"]))
            delta[(q, read, tops)] = {(draw(st.sampled_from(["q0", "q0", "q1"])), op)}
    return KPda.make(level, states, ["x", "y"], GradedAlphabet.of(*levels), delta, "q0",
                     input_alphabet=["a", "b"], bottom_symbols=[lv[0] for lv in levels[:-1]])


def test_run_equals_the_last_outcome_of_steps_on_random_machines():
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    probe = 2000  # the runs that end within this many moves are also checked at fuel 10**6

    machines = st.composite(lambda draw: _random_machine(draw, st))()

    @settings(deadline=None, max_examples=200, suppress_health_check=[HealthCheck.too_slow])
    @given(machines, st.lists(st.sampled_from("ab"), min_size=1, max_size=6))
    def check(m, w):
        w = tuple(w)
        outcome = _last(steps(m, w, probe))
        fuels = {0, 1, 2, 3, probe}
        if not isinstance(outcome, FuelExhausted):
            # a run of n moves: one move short of its end, just enough, and all
            n = len(list(steps(m, w))) - 1
            fuels |= {n - 1, n, 10**6}
        for fuel in sorted(fuels):
            assert run(m, w, fuel) == _last(steps(m, w, fuel)), fuel

    check()


def test_a_block_that_reenters_itself_exhausts_the_fuel_as_steps_does():
    # the head S becomes S S: the first S is the same block, entered again
    # before it ends, so the run never ends
    m = KPda.make(1, ["q"], [], GradedAlphabet.of(["S"]), {("q", "", ("S",)): {("q", Push(1, ("S", "S")))}},
                  "q", input_alphabet=["S"])
    for fuel in (1, 10, 1000):
        expected = FuelExhausted(Configuration("q", (), IteratedPushdown.from_word(("S",) * (fuel + 1))))
        assert run(m, ("S",), fuel) == _last(steps(m, ("S",), fuel)) == expected


@pytest.mark.parametrize("op, message", [
    (Pop(2), "pop level 2 out of range for a level-1 store"),
    (Push(1, ("a", "")), "bad pushdown symbol ''"),
])
def test_a_bad_move_after_a_summarised_block_raises_as_steps_does(identity_pda, op, message):
    # a, a: the second block is read off the first one's summary; b then
    # meets the bad move, which the first two moves' fuel never reaches
    bad = (("q0", "", ("b",)), frozenset({("q0", op)}))
    m = _with_delta(identity_pda, identity_pda.delta[:1] + (bad,))
    w = ("a", "a", "b")
    for f in (run, lambda m, w: _last(steps(m, w))):
        with pytest.raises(DomainError, match=message):
            f(m, w)
    assert run(m, w, 2) == _last(steps(m, w, 2)) == FuelExhausted(
        Configuration("q0", ("a", "a"), IteratedPushdown.from_word(("b",))))


def test_run_applies_moves_linear_in_n_on_pow2(pow2_pda, pow2_stuck_pda, monkeypatch):
    # each block is stepped once and skipped by its summary after, so the
    # 2^n letters of pow2(a^n) cost O(n) applied moves; so do a run that ends
    # Stuck and runs cut short of their fuel, whose outcomes are read off the
    # same walk
    n_moves = {n: len(list(steps(pow2_pda, ("a",) * n))) - 1 for n in (4, 8, 12, 16)}
    applied = []
    for cls in (Pop, Push):
        monkeypatch.setattr(cls, "apply", lambda op, store, apply=cls.apply: applied.append(op) or apply(op, store))
    for n, total in n_moves.items():
        w = ("a",) * n
        applied.clear()
        assert run(pow2_pda, w) == Accepted(("b",) * 2 ** n)
        assert len(applied) <= 3 * (n + 1), (n, len(applied))
        applied.clear()
        stuck = run(pow2_stuck_pda, w)
        assert isinstance(stuck, Stuck) and stuck.configuration.state == "q2", n
        assert stuck.configuration.emitted == ("b",) * 2 ** n
        assert len(applied) <= 4 * (n + 1), (n, len(applied))
        for fuel in (total - 1, total // 2, total // 3):
            applied.clear()
            cut = run(pow2_pda, w, fuel)
            assert isinstance(cut, FuelExhausted), (n, fuel)
            assert len(applied) <= 4 * (n + 1), (n, fuel, len(applied))


# ---------------------------------------------------------------------------
# derivations


def test_derive_identity_emits_letter(identity_pda):
    store = IteratedPushdown.from_word(("a",), 1)
    res = check_derivation_computation_agreement(identity_pda, "q0", store, "q0", ("a",), 1)
    assert res.derives is True


def test_derive_decomposition_shape(identity_pda):
    store = IteratedPushdown.from_word(("a", "b"), 1)
    start = (Variable("q0", store, "q0"),)
    forms = set(kpda._form_rewrites(identity_pda, start))
    eta = IteratedPushdown.from_word(("a",), 1)
    eta2 = IteratedPushdown.from_word(("b",), 1)
    for r in identity_pda.states:
        assert (Variable("q0", eta, r), Variable(r, eta2, "q0")) in forms


def test_agreement_positive(identity_pda):
    store = IteratedPushdown.from_word(("a", "b"), 1)
    res = check_derivation_computation_agreement(identity_pda, "q0", store, "q0", ("a", "b"), 12)
    assert res.derives is True and res.computes is True and res.agree is True


def test_agreement_negative(identity_pda):
    store = IteratedPushdown.from_word(("a", "b"), 1)
    res = check_derivation_computation_agreement(identity_pda, "q0", store, "q0", ("b", "a"), 12)
    assert res.derives is False and res.computes is False and res.agree is True


def test_agreement_vacuous_on_empty_store(identity_pda):
    res = check_derivation_computation_agreement(
        identity_pda, "q0", IteratedPushdown.empty(1), "q0", ("a",), 5
    )
    assert res.vacuous and res.agree is True


def test_agreement_pow2_instances(pow2_pda):
    store = initial_store(pow2_pda, ("a",))
    res = check_derivation_computation_agreement(pow2_pda, "q0", store, "q0", ("b", "b"), 40)
    assert res.agree is True and res.derives is True
    # the wrong output is refuted on the computation side; the derivation
    # side cannot exhaust its form space within a bound and says so
    res = check_derivation_computation_agreement(pow2_pda, "q0", store, "q0", ("b",), 40)
    assert res.computes is False
    assert res.derives is None and res.inconclusive and res.agree is None


def test_recognition_search_matches_run_on_identity(identity_pda):
    # run goes through steps, not the search, so it is an independent oracle
    for n in range(4):
        for w in product("ab", repeat=n):
            store = initial_store(identity_pda, w)
            for k in range(4):
                for u in product("ab", repeat=k):
                    res = check_derivation_computation_agreement(identity_pda, "q0", store, "q0", u, 6)
                    if not w:
                        assert res.vacuous
                    else:
                        assert res.computes is (run(identity_pda, w) == Accepted(u)), (w, u)


def test_recognition_search_matches_run_on_pow2(pow2_pda):
    for n in range(3):
        w = ("a",) * n
        store = initial_store(pow2_pda, w)
        for k in range(6):
            u = ("b",) * k
            res = check_derivation_computation_agreement(pow2_pda, "q0", store, "q0", u, 12)
            assert res.computes is (run(pow2_pda, w) == Accepted(u)), (n, k)


def test_searches_stop_at_their_node_cap(pow2_pda, monkeypatch):
    # the derivation side's forms grow about x3 per level; bound 25 would
    # hold millions of them without MAX_SEARCH_NODES
    began = time.perf_counter()
    for n in range(3):
        store = initial_store(pow2_pda, ("a",) * n)
        for k in range(6):
            u = ("b",) * k
            deep = check_derivation_computation_agreement(pow2_pda, "q0", store, "q0", u, 25)
            shallow = check_derivation_computation_agreement(pow2_pda, "q0", store, "q0", u, 12)
            for side in ("derives", "computes"):
                if getattr(shallow, side) is not None:
                    assert getattr(deep, side) is getattr(shallow, side), (n, k, side)
    assert time.perf_counter() - began < 60
    # the derivation side of a^2 -> b^4 is decided at bound 12 past 100 nodes
    store, u = initial_store(pow2_pda, ("a", "a")), ("b",) * 4
    assert check_derivation_computation_agreement(pow2_pda, "q0", store, "q0", u, 12).derives is True
    monkeypatch.setattr(kpda, "MAX_SEARCH_NODES", 50)
    res = check_derivation_computation_agreement(pow2_pda, "q0", store, "q0", u, 12)
    assert res.derives is None and res.computes is True and res.inconclusive


# ---------------------------------------------------------------------------
# invariants


def test_strong_determinism_along_runs(pow2_pda):
    c = Configuration("q0", (), initial_store(pow2_pda, ("a", "a")))
    while not c.store.is_empty():
        succ = step(pow2_pda, c)
        assert len(succ) <= 1
        if not succ:
            break
        (c,) = succ


def test_step_preserves_gradedness(pow2_pda):
    gamma = pow2_pda.gamma
    for n in range(4):
        c = Configuration("q0", (), initial_store(pow2_pda, ("a",) * n))
        seen = 0
        while not c.store.is_empty() and seen < 200:
            assert is_graded(c.store, gamma)
            succ = step(pow2_pda, c)
            if not succ:
                break
            (c,) = succ
            seen += 1
        assert is_graded(c.store, gamma)


def test_substitution_preserves_derivation_steps(pow2_pda):
    # one-step derivations over term stores stay valid under graded
    # substitution: rewriting commutes with plugging in a store for a leaf
    rng = random.Random(11)
    from wordmaps.kpda import _variable_rewrites

    for _ in range(40):
        # a level-2 term S[letters .. O .. letters] with the leaf at level 2
        inner = ["a"] * rng.randrange(3)
        inner.insert(rng.randrange(len(inner) + 1), "O")
        store = IteratedPushdown(
            2, (("S", IteratedPushdown.from_word(inner, 1)),)
        )
        v = Variable("q0", store, rng.choice(["q0", "q1"]))
        binding = IteratedPushdown.from_word(("a",) * rng.randrange(1, 3), 1)
        for rewrite in _variable_rewrites(pow2_pda, v):
            lhs = substitute_word((v,), {"O": binding})
            expected = tuple(
                item if isinstance(item, str) else Variable(item.left, substitute(item.store, {"O": binding}), item.right)
                for item in rewrite
            )
            results = _variable_rewrites(pow2_pda, lhs[0])
            assert expected in [tuple(r) for r in results]


def test_make_rejects_a_level_below_one():
    with pytest.raises(DomainError, match="at least 1"):
        KPda.make(0, ["q"], ["a"], GradedAlphabet.of(), {}, "q")


def _make(**changes):
    """KPda.make on the arguments of ``_toy({})``, some of them changed."""
    args = dict(level=2, states=("q0", "q1"), terminals=("a", "b"), gamma=GradedAlphabet.of(["S"], ["a", "b"]),
                delta={}, start_state="q0", input_alphabet=("a", "b"), bottom_symbols=("S",))
    return KPda.make(**{**args, **changes})


@pytest.mark.parametrize(
    "call,error,message",
    [
        (lambda: _make(delta={("q0", "", ()): set()}), DomainError, "TOPSYMS key () must have length 1..2"),
        (lambda: _make(delta={("q0", "", ("S", "a", "a")): set()}), DomainError,
         "TOPSYMS key ('S', 'a', 'a') must have length 1..2"),
        (lambda: _make(delta={("q9", "", ("S",)): set()}), DomainError, "unknown state 'q9' in a transition key"),
        (lambda: _make(delta={("q0", "c", ("S",)): set()}), DomainError, "read letter 'c' is not a terminal"),
        (lambda: _make(delta={("q0", "", ("S",)): {("q9", Pop(1))}}), DomainError,
         "unknown state 'q9' in a transition target"),
        (lambda: _make(delta={("q0", "", ("S",)): {("q1", Pop(3))}}), DomainError,
         "operation pop_3 has level outside 1..2"),
        (lambda: _make(gamma=GradedAlphabet.of(["S", "a", "b"])), DomainError,
         "graded alphabet height must equal the machine level"),
        (lambda: _make(start_state="q9"), DomainError, "start state 'q9' not among the states"),
        (lambda: _make(bottom_symbols=()), DomainError, "a level-2 machine needs 1 designated bottom symbol, got 0"),
        (lambda: _make(level=3, gamma=GradedAlphabet.of(["S"], ["T"], ["a", "b"])), DomainError,
         "a level-3 machine needs 2 designated bottom symbols, got 1"),
        (lambda: _make(level=1, gamma=GradedAlphabet.of(["a", "b"])), DomainError,
         "a level-1 machine needs 0 designated bottom symbols, got 1"),
    ],
    ids=["topsyms-empty", "topsyms-long", "key-state", "read-letter", "target-state", "op-level", "gamma-height", "start-state",
         "bottoms-missing", "bottoms-short", "bottoms-extra"],
)
def test_every_make_refusal_names_its_cause(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert str(err.value) == message


def test_the_level_partition_checks_the_topsyms_key_and_reports_its_violation():
    # S is the level-1 symbol, so a key that reads a at level 1 breaks the grading
    m = _toy({("q0", "", ("a",)): {("q1", Pop(1))}})
    assert not validate_level_partitioned(m)
    report = validate_normal_form(m)
    assert not report and not report.level_partitioned
    assert report.violations[0] == "LP: a transition uses a symbol outside its level"
