"""Iterated pushdown stores and their elementary operations.

A level-k store is a finite sequence of entries; an entry pairs a symbol with
a level-(k-1) store.  The level-0 store is empty by definition, so the
recursion bottoms out.  Level 1 is the outermost level: ``pop(1, .)`` drops
the first bracketed block of the store.

Stores are immutable values, safe for unrestricted concurrent use.  Each
level of a store is a chain of cons cells, so operations never mutate their
arguments and share every unchanged tail with them: ``pop(1, .)`` returns
the tail, ``push(1, .)`` conses one cell per pushed symbol onto it, and an
operation at level j rebuilds only the j leftmost cells.  The constructor
validates stores built from outside; ``pop`` and ``push`` rebuild from valid
parts and check only their level and the pushed symbols.
"""

from __future__ import annotations

import re
from typing import Iterator, Mapping, Optional

from .errors import DomainError, ParseError, Record
from .words import SYMBOL

Symbol = str

_new = object.__new__


class IteratedPushdown:
    """A level-j nested stack: a sequence of (symbol, level-(j-1) store) pairs.

    A non-empty store is a cons cell: its head symbol, the body under that
    head, the store of the remaining entries and the entry count.  The empty
    store of a level has no head.  ``entries`` builds the tuple of pairs on
    demand; ``==`` and ``hash`` compare the sequences of pairs.
    """

    __slots__ = ("_level", "_sym", "_body", "_rest", "_size", "_hash")

    def __init__(self, level: int, entries=()):
        entries = tuple(entries)
        if level < 0:
            raise DomainError("store level must be >= 0")
        if level == 0 and entries:
            raise DomainError("a level-0 store has no entries")
        _check_symbols(sym for sym, _ in entries)
        for sym, inner in entries:
            if inner.level != level - 1:
                raise DomainError(
                    f"entry {sym!r} carries a level-{inner.level} store inside "
                    f"a level-{level} store (expected level {level - 1})"
                )
        head = _empty(level)
        for sym, inner in reversed(entries):
            head = _cons(sym, inner, head)
        self._level, self._sym, self._body, self._rest, self._size, self._hash = (
            level, head._sym, head._body, head._rest, head._size, None
        )

    @property
    def level(self) -> int:
        return self._level

    @property
    def entries(self) -> tuple:
        """The (symbol, body) pairs, outermost first."""
        out = []
        cell = self
        while cell._size:
            out.append((cell._sym, cell._body))
            cell = cell._rest
        return tuple(out)

    @classmethod
    def empty(cls, level: int) -> "IteratedPushdown":
        return cls(level, ())

    @classmethod
    def from_word(cls, letters, level: int = 1) -> "IteratedPushdown":
        """The store holding each letter over an empty body, outermost first."""
        body, store, letters = cls.empty(level - 1), _empty(level), tuple(letters)
        _check_symbols(letters)
        for a in reversed(letters):
            store = _cons(a, body, store)
        return store

    def is_empty(self) -> bool:
        return not self._size

    def __len__(self) -> int:
        return self._size

    def __eq__(self, other):
        if not isinstance(other, IteratedPushdown):
            return False
        a, b = self, other
        if a._level != b._level or a._size != b._size:
            return False
        while a is not b and a._size:
            if a._sym != b._sym or a._body != b._body:
                return False
            a, b = a._rest, b._rest
        return True

    def __hash__(self):
        h = self._hash
        if h is None:
            # hash the cells from the first hashed one (or the empty tail)
            # back up to this one, so a long chain costs no deep recursion
            pending = []
            cell = self
            while cell._hash is None and cell._size:
                pending.append(cell)
                cell = cell._rest
            h = cell._hash
            if h is None:
                h = cell._hash = hash(cell._level)
            for cell in reversed(pending):
                h = cell._hash = hash((cell._sym, cell._body, h))
        return h

    def __repr__(self):
        return f"IteratedPushdown({self.level}, {serialize(self)!r})"

    def __str__(self):
        return serialize(self)

    def symbols(self) -> Iterator[tuple[Symbol, int, "IteratedPushdown"]]:
        """Yield every (symbol, depth, body) occurrence, depth 1 = outermost."""
        for sym, inner in self.entries:
            yield sym, 1, inner
            for s, d, b in inner.symbols():
                yield s, d + 1, b


def _empty(level: int) -> IteratedPushdown:
    cell = _new(IteratedPushdown)
    cell._level, cell._sym, cell._body, cell._rest, cell._size, cell._hash = level, None, None, None, 0, None
    return cell


def _cons(sym: Symbol, body: IteratedPushdown, rest: IteratedPushdown) -> IteratedPushdown:
    """The store ``rest`` with the entry (sym, body) in front, unchecked."""
    cell = _new(IteratedPushdown)
    cell._level = rest._level
    cell._sym = sym
    cell._body = body
    cell._rest = rest
    cell._size = rest._size + 1
    cell._hash = None
    return cell


class GradedAlphabet(Record):
    """k disjoint level sets of pushdown symbols, level 1 outermost."""

    levels: tuple[frozenset[Symbol], ...]
    _level: dict[Symbol, int]  # symbol -> level, set by __post_init__

    def __post_init__(self):
        level: dict[Symbol, int] = {}
        for i, lv in enumerate(self.levels, start=1):
            dup = level.keys() & lv
            if dup:
                raise DomainError(f"symbols {sorted(dup)} occur in two levels (level {i})")
            level.update(dict.fromkeys(lv, i))
        object.__setattr__(self, "_level", level)

    @classmethod
    def of(cls, *levels) -> "GradedAlphabet":
        return cls(tuple(frozenset(lv) for lv in levels))

    @property
    def height(self) -> int:
        return len(self.levels)

    def level_of(self, sym: Symbol) -> Optional[int]:
        return self._level.get(sym)


class Variable(Record):
    """A (state, store, state) triple; the middle component is non-empty."""

    left: str
    store: IteratedPushdown
    right: str

    def __post_init__(self):
        if self.store.is_empty():
            raise DomainError("a variable's store must be non-empty")

    def __str__(self):
        return f"({self.left}, {serialize(self.store)}, {self.right})"


VariableWord = tuple[Variable, ...]


# ---------------------------------------------------------------------------
# elementary operations


def topsyms(pds: IteratedPushdown) -> tuple[Symbol, ...]:
    """The word of leftmost symbols level by level, stopping at the first
    empty inner store.  ``topsyms(empty) == ()``."""
    out = ()
    while pds._size:
        out += (pds._sym,)
        pds = pds._body
    return out


def head(pds: IteratedPushdown) -> tuple[Symbol, IteratedPushdown, IteratedPushdown]:
    """The symbol and body of the store's leftmost entry and the store of the
    entries after it; (None, None, None) for an empty store."""
    return pds._sym, pds._body, pds._rest


def _rewrite_leftmost(j: int, pds: IteratedPushdown, rewrite, arg=None) -> IteratedPushdown:
    """Replace the leftmost level-j store s by ``rewrite(s, arg)``, rebuilding
    only the j - 1 cells above it; the store is returned unchanged when s is
    empty.  Unchecked: the caller ensures 1 <= j <= pds.level."""
    if not pds._size:
        return pds
    if j == 1:
        return rewrite(pds, arg)
    body = _rewrite_leftmost(j - 1, pds._body, rewrite, arg)
    if body is pds._body:
        return pds
    return _cons(pds._sym, body, pds._rest)


def _check_symbols(symbols) -> None:
    for s in symbols:
        if not isinstance(s, str) or not s:
            raise DomainError(f"bad pushdown symbol {s!r}")


def _drop_head(pds: IteratedPushdown, _) -> IteratedPushdown:
    return pds._rest


def _place(pds: IteratedPushdown, symbols) -> IteratedPushdown:
    """The symbols, each over the head's body, in place of the head; checked
    here, so nothing is checked when there is no head to replace."""
    _check_symbols(symbols)
    body, out = pds._body, pds._rest
    for s in reversed(symbols):
        out = _cons(s, body, out)
    return out


def _check_level(name: str, j: int, pds: IteratedPushdown) -> None:
    if not 1 <= j <= pds._level:
        raise DomainError(f"{name} level {j} out of range for a level-{pds._level} store")


def pop(j: int, pds: IteratedPushdown) -> IteratedPushdown:
    """Pop the leftmost letter of level j (with everything bracketed after it).

    When the leftmost level-j store is empty the store is returned unchanged.
    """
    _check_level("pop", j, pds)
    return _rewrite_leftmost(j, pds, _drop_head)


def push(j: int, symbols, pds: IteratedPushdown) -> IteratedPushdown:
    """Push the symbols of a non-empty word as new heads of the leftmost
    level-j store, duplicating the store below each new head.

    When the leftmost level-j store is empty the store is returned unchanged.
    """
    symbols = tuple(symbols)
    if not symbols:
        raise DomainError("push requires a non-empty word of symbols")
    _check_level("push", j, pds)
    return _rewrite_leftmost(j, pds, _place, symbols)


# ---------------------------------------------------------------------------
# bracket serialization


def serialize(pds: IteratedPushdown) -> str:
    """Render a store as a bracket word; ``[``/``]`` stand for the extended
    alphabet's opening/closing letters.

    The bracketed empty bodies at the innermost level (level-0 bodies) are
    elided and explicit brackets kept everywhere else, which reproduces the
    usual displayed notation; ``parse`` also reads the fully bracketed form.
    """
    parts = []
    for sym, inner in pds.entries:
        if inner.level == 0:
            parts.append(sym)
        else:
            parts.append(sym + "[" + serialize(inner) + "]")
    return "".join(parts)


def _tokenize_brackets(text: str, alphabet=None):
    """The (kind, value, pos) tokens of a bracket word; kind in {'sym', 'open', 'close'}."""
    symbol = SYMBOL
    if alphabet is not None:
        # an alternation takes its first branch that matches: the longest
        # symbol, tried only where a symbol character stands
        symbol = "|".join(map(re.escape, sorted(alphabet, key=len, reverse=True))) or "(?!)"
        symbol = f"(?={SYMBOL})(?:{symbol})"
    # a symbol character that starts no symbol, or any other character, is an error
    pattern = rf"(?P<open>\[)|(?P<close>\])|(?P<sym>{symbol})|(?P<nomatch>{SYMBOL})|(?P<bad>\S)"
    tokens = []
    for m in re.finditer(pattern, text):
        kind, value, at = m.lastgroup, m[0], m.start()
        if kind == "nomatch":
            raise ParseError(f"no alphabet symbol matches at {text[at:at + 12]!r}", column=at + 1)
        if kind == "bad":
            raise ParseError(f"unexpected character {value!r}", column=at + 1)
        tokens.append((kind, value, at))
    return tokens


def parse(text: str, level: int, alphabet=None) -> IteratedPushdown:
    """Parse a bracket word into a level-``level`` store.

    Without an alphabet, a symbol is a maximal ``words.SYMBOL``; with one,
    the longest alphabet symbol that matches (needed when serialized symbols
    abut, as in ``A3C3``).  A symbol with no bracketed body denotes a symbol
    over the empty store of the next level down.
    """
    tokens = _tokenize_brackets(text, alphabet)
    pos = 0

    def parse_store(lv: int) -> IteratedPushdown:
        nonlocal pos
        entries = []
        while pos < len(tokens) and tokens[pos][0] == "sym":
            sym = tokens[pos][1]
            at = tokens[pos][2]
            pos += 1
            if lv == 0:
                raise ParseError(f"symbol {sym!r} nested too deep", column=at + 1)
            if pos < len(tokens) and tokens[pos][0] == "open":
                pos += 1
                body = parse_store(lv - 1)
                if pos >= len(tokens) or tokens[pos][0] != "close":
                    raise ParseError(f"missing ']' for the body of {sym!r}", column=at + 1)
                pos += 1
            else:
                body = IteratedPushdown.empty(lv - 1)
            entries.append((sym, body))
        return IteratedPushdown(lv, tuple(entries))

    store = parse_store(level)
    if pos < len(tokens):
        kind, value, at = tokens[pos]
        raise ParseError(f"unexpected {value!r}", column=at + 1)
    return store


# ---------------------------------------------------------------------------
# terms, substitution, grading


def substitute(term: IteratedPushdown, bindings: Mapping[Symbol, IteratedPushdown]) -> IteratedPushdown:
    """Replace every bound undeterminate leaf by the entries of its binding.

    A binding for an undeterminate sitting in a level-j store must itself be
    a level-j store (the graded discipline's (k-j+1)-term condition).
    Unbound undeterminates are left alone.
    """
    entries = []
    for sym, body in term.entries:
        if sym in bindings:
            if not body.is_empty():
                raise DomainError(f"undeterminate {sym!r} occurs at a non-leaf position")
            replacement = bindings[sym]
            if replacement.level != term.level:
                raise DomainError(
                    f"binding for {sym!r} has level {replacement.level}, "
                    f"expected {term.level}"
                )
            entries.extend(replacement.entries)
        else:
            entries.append((sym, substitute(body, bindings)))
    return IteratedPushdown(term.level, tuple(entries))


def substitute_word(word, bindings: Mapping[Symbol, IteratedPushdown]) -> VariableWord:
    """Letterwise extension of substitution to variable-words."""
    return tuple(Variable(v.left, substitute(v.store, bindings), v.right) for v in word)


class GradingReport(Record):
    ok: bool
    violation: Optional[str] = None

    def __bool__(self):
        return self.ok


def is_graded(
    pds: IteratedPushdown,
    gamma: GradedAlphabet,
    undeterminates: Optional[GradedAlphabet] = None,
) -> GradingReport:
    """Check the depth/level discipline of a store or term.

    A symbol at depth d (1 = outermost) of a level-j store over a height-k
    grading must belong to level k-j+d; undeterminates must occur at leaves.
    The report carries the first violation found, in document order.
    """
    k = gamma.height
    undet = undeterminates if undeterminates is not None else GradedAlphabet.of(*([()] * k))
    offset = k - pds.level
    for sym, depth, body in pds.symbols():
        want = offset + depth
        got = gamma.level_of(sym)
        if got is not None:
            if got != want:
                return GradingReport(
                    False, f"{sym} occurs at level {want} but belongs to level {got}"
                )
            continue
        got = undet.level_of(sym)
        if got is None:
            return GradingReport(False, f"{sym} is neither a pushdown symbol nor an undeterminate")
        if not body.is_empty():
            return GradingReport(False, f"{sym} occurs at a non-leaf position")
        if got != want:
            return GradingReport(
                False, f"{sym} occurs at level {want} but belongs to level {got}"
            )
    return GradingReport(True)
