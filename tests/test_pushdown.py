import random
import re
from itertools import product

import pytest
from hypothesis import given, strategies as st

from wordmaps.errors import DomainError, ParseError
from wordmaps.pushdown import (
    GradedAlphabet,
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

from conftest import WORKED_GAMMA, WORKED_SYMBOLS, WORKED_UNDET, pt, random_graded_store, random_store


# ---------------------------------------------------------------------------
# the worked 3-pds example


def test_topsyms(omega):
    assert topsyms(omega) == ("A1", "A2", "A3")


@pytest.mark.parametrize("letters", [(), ("a",), ("a", "b", "a"), ("ab", "c") * 50])
@pytest.mark.parametrize("level", [1, 2, 3])
def test_from_word_equals_the_checked_constructor(letters, level):
    body = IteratedPushdown.empty(level - 1)
    store = IteratedPushdown.from_word(iter(letters), level)
    expected = IteratedPushdown(level, [(a, body) for a in letters])
    assert store == expected and hash(store) == hash(expected)
    assert (store.level, store.entries, len(store)) == (level, expected.entries, len(letters))


@pytest.mark.parametrize("letters,level,message", [
    (("a", ""), 1, "bad pushdown symbol ''"),
    (("a", 3), 2, "bad pushdown symbol 3"),
    (("a",), 0, "store level must be >= 0"),
])
def test_from_word_rejects_bad_letters_and_levels(letters, level, message):
    with pytest.raises(DomainError, match=re.escape(message)):
        IteratedPushdown.from_word(letters, level)


def test_topsyms_trivial():
    assert topsyms(IteratedPushdown.empty(3)) == ()
    assert topsyms(parse("A1[]", 3)) == ("A1",)  # stops at the empty inner store


def test_pops(omega):
    assert serialize(pop(1, omega)) == "B1[B2[B3D3]]"
    assert serialize(pop(2, omega)) == "A1[B2[D3C3]]B1[B2[B3D3]]"
    assert serialize(pop(3, omega)) == "A1[A2[C3]B2[D3C3]]B1[B2[B3D3]]"


def test_pushes(omega):
    assert (
        serialize(push(1, ("A", "B"), omega))
        == "A[A2[A3C3]B2[D3C3]]B[A2[A3C3]B2[D3C3]]B1[B2[B3D3]]"
    )
    assert serialize(push(2, ("A", "B"), omega)) == "A1[A[A3C3]B[A3C3]B2[D3C3]]B1[B2[B3D3]]"
    assert serialize(push(3, ("A", "B"), omega)) == "A1[A2[ABC3]B2[D3C3]]B1[B2[B3D3]]"


def test_level_bounds(omega):
    with pytest.raises(DomainError):
        pop(0, omega)
    with pytest.raises(DomainError):
        pop(4, omega)
    with pytest.raises(DomainError):
        push(4, ("A",), omega)
    with pytest.raises(DomainError):
        push(1, (), omega)


def test_empty_leftmost_leaves_invariant():
    p = parse("A1[]B1[A2]", 2)
    assert pop(2, p) == p
    assert push(2, ("X",), p) == p
    empty = IteratedPushdown.empty(2)
    assert pop(1, empty) == empty
    assert push(1, ("X",), empty) == empty


@pytest.mark.parametrize("bad", ["", 3])
def test_push_checks_the_symbols_it_places(omega, bad):
    with pytest.raises(DomainError, match=re.escape(f"bad pushdown symbol {bad!r}")):
        push(1, (bad,), omega)
    with pytest.raises(DomainError, match=re.escape(f"bad pushdown symbol {bad!r}")):
        push(3, ("A3", bad), omega)
    # nothing is placed on an empty leftmost store, so nothing is checked
    empty = IteratedPushdown.empty(3)
    assert push(1, (bad,), empty) == empty
    p = parse("A1[]B1[A2]", 2)
    assert push(2, (bad,), p) == p


def _revalidated(store):
    """The store rebuilt through the checking constructor at every level."""
    return IteratedPushdown(store.level, tuple((s, _revalidated(b)) for s, b in store.entries))


@given(st.randoms(use_true_random=False), st.lists(st.tuples(st.booleans(), st.integers(1, 3)), max_size=6))
def test_pop_and_push_build_stores_the_constructor_accepts(rng, ops):
    # a graded level-3 store, then pops and pushes of graded symbols, each
    # result fed to the next operation
    store = random_graded_store(rng, WORKED_GAMMA)
    for is_push, j in ops:
        if is_push:
            pool = sorted(WORKED_GAMMA.levels[j - 1])
            store = push(j, tuple(rng.choice(pool) for _ in range(rng.randrange(1, 3))), store)
        else:
            store = pop(j, store)
        assert IteratedPushdown(store.level, store.entries) == store
        checked = _revalidated(store)
        assert checked == store and hash(checked) == hash(store)
        assert is_graded(store, WORKED_GAMMA)


# ---------------------------------------------------------------------------
# serialization


def test_serialize_worked_word(omega):
    # the bracket word over the extended alphabet, with [ and ] for x, xbar
    assert serialize(omega) == "A1[A2[A3C3]B2[D3C3]]B1[B2[B3D3]]"


def test_serialize_empty():
    assert serialize(IteratedPushdown.empty(3)) == ""
    assert parse("", 3) == IteratedPushdown.empty(3)


def test_serialize_full_form(omega):
    assert parse("A1[A2[A3[]C3[]]B2[D3[]C3[]]]B1[B2[B3[]D3[]]]", 3, WORKED_SYMBOLS) == omega


def test_roundtrip_200_random_stores():
    rng = random.Random(20240917)
    for _ in range(200):
        level = rng.choice([1, 2, 3])
        store = random_store(rng, level)
        assert parse(serialize(store), level, "ABCD") == store


def test_parse_errors_carry_position():
    with pytest.raises(ParseError):
        parse("A1[A2", 3)
    with pytest.raises(ParseError):
        parse("A1]", 3)
    with pytest.raises(ParseError):
        parse("A1[A2[A3[B1]]]", 2)  # nested too deep for level 2


@pytest.mark.parametrize(
    "text,level,alphabet,message,column",
    [
        ("A1[A2]#", 2, None, "unexpected character '#'", 7),
        ("A1 - B1", 1, ["A1", "B1"], "unexpected character '-'", 4),
        ("A1 B x", 2, ["A1", "B1"], "no alphabet symbol matches at 'B x'", 4),
        ("A1", 2, [], "no alphabet symbol matches at 'A1'", 1),
        ("A1 B1[A2", 2, None, "missing ']' for the body of 'B1'", 4),
        ("A1[A2[A3]]", 2, None, "symbol 'A3' nested too deep", 7),
        ("A1[A2]]", 2, None, "unexpected ']'", 7),
        ("A B C[", 1, "ABC", "missing ']' for the body of 'C'", 5),
        ("[A", 1, "ABC", "unexpected '['", 1),
    ],
)
def test_bracket_word_errors_name_their_column(text, level, alphabet, message, column):
    with pytest.raises(ParseError) as err:
        parse(text, level, alphabet)
    assert (str(err.value), err.value.column) == (message, column)


_symbols = st.sampled_from("ABCD")
# symbols one of which prefixes another, so that only the longest match
# reads a serialized store back
_PREFIXED = ("A", "A3", "C3", "x", "x'", "z′")


def _stores(level, symbols=_symbols):
    if level == 0:
        return st.just(IteratedPushdown.empty(0))
    return st.lists(
        st.tuples(symbols, _stores(level - 1, symbols)), max_size=3
    ).map(lambda entries: IteratedPushdown(level, tuple(entries)))


@given(
    st.one_of(_stores(1), _stores(2), _stores(3)),
    st.one_of(*(_stores(k, st.sampled_from(_PREFIXED)) for k in (1, 2, 3))),
)
def test_roundtrip_property(store, prefixed):
    assert parse(serialize(store), store.level, "ABCD") == store
    assert parse(serialize(prefixed), prefixed.level, _PREFIXED) == prefixed


@given(st.one_of(_stores(2), _stores(3)), st.integers(1, 3), st.lists(_symbols, min_size=1, max_size=3))
def test_pop_push_wellformed(store, j, symbols):
    if j > store.level:
        return
    popped = pop(j, store)
    pushed = push(j, tuple(symbols), store)
    assert popped.level == store.level
    assert pushed.level == store.level
    # reserialization exercises the well-formedness invariants
    assert parse(serialize(popped), store.level, "ABCD") == popped
    assert parse(serialize(pushed), store.level, "ABCD") == pushed


@given(_stores(2), _symbols)
def test_push1_then_pop1_drops_the_new_head(store, sym):
    # push replaces the head symbol (duplicating its body under each new
    # head), so popping right after a singleton push recovers the pop of
    # the original store, and the new head is the pushed symbol
    if store.is_empty():
        return
    pushed = push(1, (sym,), store)
    assert pushed.entries[0][0] == sym
    assert pushed.entries[0][1] == store.entries[0][1]
    assert pop(1, pushed) == pop(1, store)


# A reference model of stores: the tuple of (symbol, body) pairs, each body in
# the same form, with the level carried alongside.


def _ref_of(store):
    return tuple((sym, _ref_of(body)) for sym, body in store.entries)


def _ref_pop(j, ref):
    if not ref:
        return ref
    (sym, body), rest = ref[0], ref[1:]
    if j == 1:
        return rest
    return ((sym, _ref_pop(j - 1, body)),) + rest


def _ref_push(j, symbols, ref):
    if not ref:
        return ref
    (sym, body), rest = ref[0], ref[1:]
    if j == 1:
        return tuple((s, body) for s in symbols) + rest
    return ((sym, _ref_push(j - 1, symbols, body)),) + rest


def _ref_topsyms(ref):
    return (ref[0][0],) + _ref_topsyms(ref[0][1]) if ref else ()


def _ref_serialize(level, ref):
    return "".join(sym if level == 1 else f"{sym}[{_ref_serialize(level - 1, body)}]" for sym, body in ref)


def _ref_store(level, ref):
    return IteratedPushdown(level, tuple((sym, _ref_store(level - 1, body)) for sym, body in ref))


_store_ops = st.lists(
    st.tuples(st.booleans(), st.integers(1, 3), st.lists(_symbols, min_size=1, max_size=3), st.booleans()),
    max_size=12,
)


@given(st.one_of(_stores(1), _stores(2), _stores(3)), _store_ops)
def test_pop_and_push_agree_with_a_tuple_reference_model(store, ops):
    # each operation applies to the latest store; some hashes are taken as
    # the stores appear, so later stores find hashed tails under them
    level = store.level
    seen = [(store, _ref_of(store))]
    for is_push, j, symbols, hash_now in ops:
        j = min(j, level)
        store, ref = seen[-1]
        if is_push:
            store, ref = push(j, symbols, store), _ref_push(j, tuple(symbols), ref)
        else:
            store, ref = pop(j, store), _ref_pop(j, ref)
        if hash_now:
            hash(store)
        seen.append((store, ref))
    for store, ref in seen:
        assert _ref_of(store) == ref
        assert len(store) == len(ref) and store.is_empty() == (not ref)
        assert topsyms(store) == _ref_topsyms(ref)
        assert serialize(store) == _ref_serialize(level, ref)
        for rebuilt in (IteratedPushdown(level, store.entries), _ref_store(level, ref)):
            assert rebuilt == store and store == rebuilt and hash(rebuilt) == hash(store)
    for (a, ref_a), (b, ref_b) in product(seen, repeat=2):
        assert (a == b) == (ref_a == ref_b)
        if ref_a == ref_b:
            assert hash(a) == hash(b)


def test_long_stores_hash_and_compare_without_deep_recursion():
    w = ("A", "B") * 20_000
    a, b = IteratedPushdown.from_word(w), IteratedPushdown.from_word(w)
    assert a == b and hash(a) == hash(b)
    pushed = push(1, ("C",), a)
    assert len(a) == len(pushed) == len(w) and len(pop(1, a)) == len(w) - 1
    assert pop(1, a) != a and pushed != a and pop(1, pushed) == pop(1, a)
    hash(pushed)


def test_stores_are_immutable(omega):
    for attr in ("level", "entries", "extra"):
        with pytest.raises(AttributeError):
            setattr(omega, attr, 1)


# ---------------------------------------------------------------------------
# terms, substitution, grading


def _worked_bindings():
    return {
        "O1": pt("B1[B2[O3]]", 3),
        "O2": pt("C2[A3B3O3p]", 2),
        "O3": pt("C3C3C3O3", 1),
    }


def test_substitution_worked_example():
    t = pt("A1[A2[A3O3]B2[D3C3]]O1")
    result = substitute(t, _worked_bindings())
    assert serialize(result) == "A1[A2[A3C3C3C3O3]B2[D3C3]]B1[B2[O3]]"


def test_substitution_variable_word():
    w = (
        Variable("p", pt("A1[A2[A3O3]B2[D3C3]]O1"), "q"),
        Variable("q", pt("A1[O2]"), "p"),
    )
    w2 = substitute_word(w, _worked_bindings())
    assert serialize(w2[0].store) == "A1[A2[A3C3C3C3O3]B2[D3C3]]B1[B2[O3]]"
    assert serialize(w2[1].store) == "A1[C2[A3B3O3p]]"
    assert (w2[0].left, w2[0].right) == ("p", "q")
    assert (w2[1].left, w2[1].right) == ("q", "p")


def test_substitution_empty_bindings():
    t = pt("A1[A2[A3O3]B2[D3C3]]O1")
    assert substitute(t, {}) == t


def test_substitution_level_mismatch():
    t = pt("A1[A2[A3O3]B2[D3C3]]O1")
    with pytest.raises(DomainError):
        substitute(t, {"O1": pt("C2[A3]", 2)})


def test_substitution_refuses_a_non_leaf_undeterminate():
    t = pt("A1[O2[A3O3]]")
    with pytest.raises(DomainError, match="'O2' occurs at a non-leaf position"):
        substitute(t, {"O2": pt("C2[B3]", 2)})


def _random_term_with_top_leaf(rng, leaf):
    # a level-2 term with the undeterminate only at depth 1
    store = random_store(rng, 2, "AB", 2)
    entries = list(store.entries)
    entries.insert(rng.randrange(len(entries) + 1), (leaf, IteratedPushdown.empty(1)))
    return IteratedPushdown(2, tuple(entries))


def test_substitution_distributes_over_concatenation():
    rng = random.Random(7)
    for _ in range(30):
        words = tuple(
            Variable("p", _random_term_with_top_leaf(rng, "O"), "q") for _ in range(4)
        )
        u, v = words[:2], words[2:]
        binding = random_store(rng, 2, "AB", 2)
        while binding.is_empty():
            binding = random_store(rng, 2, "AB", 2)
        bind = {"O": binding}
        assert substitute_word(u + v, bind) == substitute_word(u, bind) + substitute_word(v, bind)


def test_substitution_commutes_on_disjoint_undeterminates():
    t = pt("A1[A2[A3O3]B2[D3O3p]]O1")
    b1 = {"O3": pt("C3C3", 1)}
    b2 = {"O3p": pt("D3", 1), "O1": pt("B1[B2]", 3)}
    assert substitute(substitute(t, b1), b2) == substitute(substitute(t, b2), b1)


def test_graded_verdicts():
    g, u = WORKED_GAMMA, WORKED_UNDET
    assert is_graded(pt("A1[A2[A3O3]B2[D3C3]]O1"), g, u)
    assert not is_graded(pt("A1[A1[A3]]"), g, u)
    assert is_graded(pt("A2[A3B3O3]O2", 2), g, u)
    assert is_graded(pt("A3B3O3", 1), g, u)
    report = is_graded(pt("A1[O2[A3O3]]"), g, u)
    assert not report and "non-leaf" in report.violation
    report = is_graded(pt("A1[A2[A3O2]]"), g, u)
    assert not report and "level" in report.violation
    assert is_graded(pt("A1[A2[]B2[]]"), g, u)
    assert is_graded(IteratedPushdown.empty(3), g, u)


def test_pop_push_preserve_grading(omega):
    rng = random.Random(13)
    for _ in range(50):
        j = rng.choice([1, 2, 3])
        level = rng.choice([1, 2, 3])
        pool = sorted(WORKED_GAMMA.levels[level - 1])
        h = tuple(rng.choice(pool) for _ in range(rng.randrange(1, 3)))
        store = omega
        for _ in range(rng.randrange(3)):
            store = pop(rng.choice([1, 2, 3]), store)
        assert is_graded(pop(j, store), WORKED_GAMMA)
        if j == level:
            assert is_graded(push(j, h, store), WORKED_GAMMA)


@pytest.mark.parametrize(
    "call,error,message",
    [
        (lambda: IteratedPushdown(0, [("a", IteratedPushdown(0))]), DomainError, "a level-0 store has no entries"),
        (lambda: IteratedPushdown(2, [("a", IteratedPushdown(0))]), DomainError,
         "entry 'a' carries a level-0 store inside a level-2 store (expected level 1)"),
        (lambda: GradedAlphabet.of(["a"], ["b", "a"]), DomainError, "symbols ['a'] occur in two levels (level 2)"),
        (lambda: Variable("p", IteratedPushdown(1), "q"), DomainError, "a variable's store must be non-empty"),
    ],
    ids=["level-0-entries", "entry-level", "graded-duplicate", "variable-empty"],
)
def test_every_store_refusal_names_its_cause(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert str(err.value) == message


def test_a_store_prints_compares_and_grades_as_its_bracket_word():
    store = IteratedPushdown(2, [("S", IteratedPushdown.from_word("ab"))])
    assert repr(store) == "IteratedPushdown(2, 'S[ab]')" and str(store) == "S[ab]"
    assert str(Variable("p", store, "q")) == "(p, S[ab], q)"
    assert store != "S[ab]" and store != ("S", "a", "b")
    report = is_graded(store, GradedAlphabet.of(["S"], ["a"]))
    assert not report and report.violation == "b is neither a pushdown symbol nor an undeterminate"
