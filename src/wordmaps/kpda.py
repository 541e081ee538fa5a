"""Iterated pushdown automata.

Machines are immutable; a run never mutates shared state, so independent runs
may execute in parallel.  The runner works in generation mode: a strongly
deterministic machine determines by itself which letter it emits at each
step, which makes the computed map f(w) effective without guessing f(w)
up front.  Acceptance requires halting in the start state with an empty
store; an empty store in any other state is Stuck.
``KPda.moves`` is built once per machine.  ``run`` steps each block of the
store once and skips a block met again by its summary; ``steps`` walks the
same run move by move for ``--trace``.  Both read the outcome off the
configuration they stop in by one rule, ``_outcome``.  Elsewhere one successor
relation expands moves, and one bounded breadth-first search, which holds at
most ``MAX_SEARCH_NODES`` nodes, decides both sides of the
derivation/computation agreement check.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Iterator, Optional, Union

from .errors import DomainError, Record
from .pushdown import (
    GradedAlphabet,
    IteratedPushdown,
    Variable,
    head,
    pop,
    push,
    topsyms,
)
from .words import Word

EPS = ""  # the empty read letter


class Pop(Record):
    level: int

    def apply(self, store: IteratedPushdown) -> IteratedPushdown:
        return pop(self.level, store)

    def __str__(self):
        return f"pop_{self.level}"


class Push(Record):
    level: int
    symbols: tuple[str, ...]

    def apply(self, store: IteratedPushdown) -> IteratedPushdown:
        return push(self.level, self.symbols, store)

    def __str__(self):
        return f"push_{self.level}({' '.join(self.symbols)})"


Operation = Union[Pop, Push]

# delta maps (state, read letter or EPS, topsyms word) to a set of (state, op)
Delta = dict[tuple[str, str, tuple[str, ...]], frozenset[tuple[str, Operation]]]


class KPda(Record):
    """A k-iterated pushdown automaton over a graded pushdown alphabet."""

    level: int
    states: frozenset[str]
    terminals: frozenset[str]
    gamma: GradedAlphabet
    delta: tuple  # sorted (key, frozenset of moves) pairs, canonicalised by make
    start_state: str
    input_alphabet: frozenset[str] = frozenset()
    bottom_symbols: tuple[str, ...] = ()
    name: str = ""

    @classmethod
    def make(
        cls,
        level: int,
        states: Iterable[str],
        terminals: Iterable[str],
        gamma: GradedAlphabet,
        delta: dict,
        start_state: str,
        input_alphabet: Iterable[str] = (),
        bottom_symbols: Iterable[str] = (),
        name: str = "",
    ) -> "KPda":
        if level < 1:
            raise DomainError(f"level must be at least 1, got {level}")
        states = frozenset(states)
        terminals = frozenset(terminals)
        norm: Delta = {}
        for (q, read, tops), rhs in delta.items():
            tops = tuple(tops)
            if not tops or len(tops) > level:
                raise DomainError(f"TOPSYMS key {tops} must have length 1..{level}")
            if q not in states:
                raise DomainError(f"unknown state {q!r} in a transition key")
            if read != EPS and read not in terminals:
                raise DomainError(f"read letter {read!r} is not a terminal")
            moves = []
            for q2, op in rhs:
                if q2 not in states:
                    raise DomainError(f"unknown state {q2!r} in a transition target")
                if not 1 <= op.level <= level:
                    raise DomainError(f"operation {op} has level outside 1..{level}")
                moves.append((q2, op))
            norm[(q, read, tops)] = frozenset(moves)
        m = cls(
            level=level,
            states=states,
            terminals=terminals,
            gamma=gamma,
            delta=tuple(sorted(norm.items(), key=lambda kv: (kv[0][0], kv[0][1], kv[0][2]))),
            start_state=start_state,
            input_alphabet=frozenset(input_alphabet),
            bottom_symbols=tuple(bottom_symbols),
            name=name,
        )
        if gamma.height != level:
            raise DomainError("graded alphabet height must equal the machine level")
        if start_state not in states:
            raise DomainError(f"start state {start_state!r} not among the states")
        _check_bottoms(m)
        return m

    @cached_property
    def moves(self) -> dict[tuple[str, tuple[str, ...]], list[tuple[str, str, Operation]]]:
        """(state, topsyms word) -> [(read letter or EPS, next state, op), ...],
        eps moves first."""
        out = {}
        for (q, read, tops), rhs in sorted(self.delta, key=lambda kv: kv[0][1] != EPS):
            out.setdefault((q, tops), []).extend((read, q2, op) for q2, op in rhs)
        return out


class Configuration(Record):
    state: str
    emitted: Word
    store: IteratedPushdown


class Accepted(Record):
    output: Word


class Stuck(Record):
    configuration: Configuration


class FuelExhausted(Record):
    configuration: Configuration


RunOutcome = Union[Accepted, Stuck, FuelExhausted]


# ---------------------------------------------------------------------------
# validation


def validate_strongly_deterministic(m: KPda) -> bool:
    """At most one transition for each (q, g) summed over all read letters."""
    return all(len(moves) <= 1 for moves in m.moves.values())


def validate_level_partitioned(m: KPda) -> bool:
    """Pushes inject only level-j symbols and TOPSYMS keys respect grading."""
    for (q, read, tops), rhs in m.delta:
        for i, sym in enumerate(tops, start=1):
            if m.gamma.level_of(sym) != i:
                return False
        for q2, op in rhs:
            if isinstance(op, Push):
                if any(m.gamma.level_of(s) != op.level for s in op.symbols):
                    return False
    return True


class NormalFormReport(Record):
    level_partitioned: bool
    reads_pop1_only: bool
    pushes_pairs: bool
    violations: tuple[str, ...] = ()

    def __bool__(self):
        return self.level_partitioned and self.reads_pop1_only and self.pushes_pairs


def validate_normal_form(m: KPda) -> NormalFormReport:
    """Report the (LP)/(RL)/(PI) normalization conditions."""
    violations = []
    lp = validate_level_partitioned(m)
    if not lp:
        violations.append("LP: a transition uses a symbol outside its level")
    rl = True
    pi = True
    for (q, read, tops), rhs in m.delta:
        for q2, op in rhs:
            if read != EPS and not (isinstance(op, Pop) and op.level == 1 and len(tops) == 1):
                rl = False
                violations.append(f"RL: reading transition ({q},{read},{' '.join(tops)}) is not (q, pop_1) shaped")
            if isinstance(op, Push) and len(op.symbols) != 2:
                pi = False
                violations.append(f"PI: {op} pushes {len(op.symbols)} symbols, not 2")
    return NormalFormReport(lp, rl, pi, tuple(violations))


# ---------------------------------------------------------------------------
# semantics


def _successors(m: KPda, state: str, store: IteratedPushdown) -> list:
    """(read letter or EPS, next state, next store) for each enabled move."""
    moves = m.moves.get((state, topsyms(store)), ())
    return [(read, q2, op.apply(store)) for read, q2, op in moves]


def step(m: KPda, c: Configuration) -> set[Configuration]:
    """All successor configurations under the transition table (generation
    mode: a transition labelled b appends b to the emitted word)."""
    return {
        Configuration(q2, c.emitted + ((read,) if read != EPS else ()), store2)
        for read, q2, store2 in _successors(m, c.state, c.store)
    }


def _check_bottoms(m: KPda) -> None:
    """A level-k machine names k - 1 bottom symbols, one per store level above 1."""
    need = m.level - 1
    if len(m.bottom_symbols) != need:
        raise DomainError(f"a level-{m.level} machine needs {need} designated bottom symbol"
                          f"{'' if need == 1 else 's'}, got {len(m.bottom_symbols)}")


def initial_store(m: KPda, w: Word) -> IteratedPushdown:
    """gamma_1[gamma_2[...[w]...]] with each input letter over an empty body."""
    _check_bottoms(m)  # again, for a machine built without KPda.make
    cur = IteratedPushdown.from_word(w, 1)
    lv = 1
    for sym in reversed(m.bottom_symbols):
        lv += 1
        cur = IteratedPushdown(lv, ((sym, cur),))
    return cur


def _checked_initial_store(m: KPda, w: Word) -> IteratedPushdown:
    """The initial store of a run on w, after the checks every run makes."""
    if not validate_strongly_deterministic(m):
        raise DomainError("run requires a strongly deterministic machine")
    for a in dict.fromkeys(w):  # each letter once, in the order of first occurrence
        if a not in m.input_alphabet:
            raise DomainError(f"input letter {a!r} is not in the machine's input alphabet")
        if m.gamma.level_of(a) != m.level:
            raise DomainError(f"input letter {a!r} must be a level-{m.level} pushdown symbol")
    return initial_store(m, w)


def _outcome(m: KPda, state: str, emitted, store: IteratedPushdown, spent: bool) -> RunOutcome:
    """The outcome of a run stopped in (state, emitted, store), for ``run``
    and ``steps`` alike; ``spent`` says whether the fuel ran out."""
    c = Configuration(state, tuple(emitted), store)
    if store.is_empty():
        return Accepted(c.emitted) if state == m.start_state else Stuck(c)
    return FuelExhausted(c) if spent else Stuck(c)


def steps(m: KPda, w: Word, fuel: int = 10**6) -> Iterator:
    """Run the unique computation of a strongly deterministic machine on the
    initial store built from w, one move at a time.  Yields (state, topsyms
    word, next state, emitted letters so far: one list, grown in place) per
    step, then the RunOutcome."""
    state, emitted, store = m.start_state, [], _checked_initial_store(m, w)
    moves = m.moves
    while not store.is_empty() and fuel > 0:
        tops = topsyms(store)
        enabled = moves.get((state, tops))
        if not enabled:
            break
        ((read, q2, op),) = enabled
        if read != EPS:
            emitted.append(read)
        store = op.apply(store)
        yield state, tops, q2, emitted
        state = q2
        fuel -= 1
    yield _outcome(m, state, emitted, store, fuel <= 0)


def run(m: KPda, w: Word, fuel: int = 10**6) -> RunOutcome:
    """The outcome of ``steps``: Accepted, Stuck or FuelExhausted, in time
    proportional to the output plus the moves of distinct blocks, not to all
    moves.

    A block is the store's head entry (symbol, body), entered in some state.
    A move reads only topsyms and rewrites only the head, so the moves until
    that entry, and all that a push_1 put in its place, have been popped
    depend on (state, symbol, body) alone.  Each block is stepped once and
    summarised by its exit state, its stretch of the output and its move
    count; a block met again is skipped by its summary (Cook's linear-time
    simulation of deterministic pushdown machines) if its moves fit in the
    fuel.  Open blocks sit on an explicit stack; one ends when the store is
    again the store of the entries after it, which the operations share
    unchanged.  A block that would overrun the fuel, or one met again while
    open (a run that never ends), is stepped into without a new record.  The
    walk's configuration is exact after every move it counts, so the outcome
    and a move's DomainError are those of ``steps``."""
    store = _checked_initial_store(m, w)
    state, out, count, moves = m.start_state, [], 0, m.moves
    # (state, symbol, body) -> (exit state, output start, output end, moves),
    # or None while the block is open
    summaries: dict = {}
    blocks = []  # open blocks: (key, output start, moves at entry, the store they end in)
    while True:
        sym, body, rest = head(store)
        while blocks and blocks[-1][3] is store:
            key, start, entry, _ = blocks.pop()
            summaries[key] = (state, start, len(out), count - entry)
        if sym is None or count >= fuel:
            break
        key = (state, sym, body)
        summary = summaries.get(key, ())  # () for a block not met yet
        if summary and count + summary[3] <= fuel:
            state, start, end, n = summary
            count += n
            out += out[start:end]
            store = rest
            continue
        enabled = moves.get((state, topsyms(store)))
        if not enabled:
            break
        if summary == ():
            summaries[key] = None
            blocks.append((key, len(out), count, rest))
        ((read, state, op),) = enabled
        if read != EPS:
            out.append(read)
        store = op.apply(store)
        count += 1
    return _outcome(m, state, out, store, count >= fuel)


# ---------------------------------------------------------------------------
# grammar view: derivations over variables

SententialItem = Union[str, Variable]
SententialForm = tuple[SententialItem, ...]


def _variable_rewrites(m: KPda, v: Variable):
    """One-step productions for a single variable occurrence."""
    out = []
    for read, q2, store2 in _successors(m, v.left, v.store):
        prefix: tuple[SententialItem, ...] = (read,) if read != EPS else ()
        if store2.is_empty():
            if q2 == v.right:
                out.append(prefix)
        else:
            out.append(prefix + (Variable(q2, store2, v.right),))
    # decomposition rule: split the top-level entry sequence
    level, entries = v.store.level, v.store.entries
    for cut in range(1, len(entries)):
        eta = IteratedPushdown(level, entries[:cut])
        eta2 = IteratedPushdown(level, entries[cut:])
        for r in sorted(m.states):
            out.append((Variable(v.left, eta, r), Variable(r, eta2, v.right)))
    return out


def _form_rewrites(m: KPda, form: SententialForm) -> Iterator[SententialForm]:
    """The forms one rewrite of a single variable occurrence away."""
    for i, item in enumerate(form):
        if isinstance(item, Variable):
            for repl in _variable_rewrites(m, item):
                yield form[:i] + tuple(repl) + form[i + 1:]


# The most nodes one bounded search may hold; the largest search the test
# suite makes holds 1,581.
MAX_SEARCH_NODES = 20_000


def _search(start, successors, bound: int, goal) -> Optional[bool]:
    """Breadth-first search from start, at most ``bound`` levels deep: True
    when a goal node is reached (the start is not tested), False when the
    reachable nodes run out first, None when the bound cuts the search or
    it holds more than MAX_SEARCH_NODES nodes."""
    seen = {start}
    frontier = [start]
    for _ in range(bound):
        if not frontier:
            return False
        nxt = []
        for node in frontier:
            for new in successors(node):
                if new not in seen:
                    if goal(new):
                        return True
                    seen.add(new)
                    nxt.append(new)
            if len(seen) > MAX_SEARCH_NODES:
                return None
        frontier = nxt
    return None if frontier else False


class AgreementResult(Record):
    derives: Optional[bool]
    computes: Optional[bool]
    vacuous: bool = False

    @property
    def inconclusive(self) -> bool:
        return self.derives is None or self.computes is None

    @property
    def agree(self) -> Optional[bool]:
        if self.vacuous:
            return True
        if self.inconclusive:
            return None
        return self.derives == self.computes


def _derives_exactly(m: KPda, start: Variable, u: Word, bound: int) -> Optional[bool]:
    """Bounded search for (p,w,q) ->* u; None when a bound is hit.  Forms
    with more terminals than u are dropped."""

    def successors(form):
        for new in _form_rewrites(m, form):
            if sum(isinstance(x, str) for x in new) <= len(u):
                yield new

    return _search((start,), successors, bound, lambda form: form == u)


def _computes(m: KPda, p: str, u: Word, store: IteratedPushdown, q: str, bound: int) -> Optional[bool]:
    """Bounded search for (p,u,w) |-* (q,eps,eps): the generation-mode runs
    from (p, w) whose emitted word stays a prefix of u."""

    def successors(c):
        return (c2 for c2 in step(m, c) if c2.emitted == u[: len(c2.emitted)])

    def goal(c):
        return c.state == q and c.emitted == u and c.store.is_empty()

    return _search(Configuration(p, (), store), successors, bound, goal)


def check_derivation_computation_agreement(
    m: KPda, p: str, store: IteratedPushdown, q: str, u: Word, bound: int
) -> AgreementResult:
    """Evaluate both sides of the derivation/computation correspondence by
    bounded search; a side that its depth bound or MAX_SEARCH_NODES cuts is
    reported as None."""
    if store.is_empty():
        # variables exclude the empty store, so the claim is vacuous
        return AgreementResult(None, None, vacuous=True)
    u = tuple(u)
    derives = _derives_exactly(m, Variable(p, store, q), u, bound)
    return AgreementResult(derives, _computes(m, p, u, store, q, bound))
