"""Evaluators for recurrence systems over words.

Four species recurse on the first letter of the argument: catenative (word
values), compositional (endomorphism values), regular (congruence-classified
rules with shift words, evaluated by fuel-bounded rewriting), and polynomial
(bignum values).  Systems build their lookup maps once, on first use.

Catenative and compositional values come from ``morphisms.suffix_walk``.
Regular systems cannot use it (shift words change the argument), hence the
rewriting loop with fuel, over a stack of pending terms; a term met again
reuses the base terms and the rewrite count of its first rewriting (Cook's
tabulation), so each distinct term is rewritten once, while the fuel counts
every rewrite of the leftmost-first derivation.  Polynomial values step
integer rows per letter, only for the indices the wanted values read
(``morphisms.demand``), except on affine systems (every update of degree
<= 1): there ``morphisms.word_product`` takes a run a^k of equal letters in
O(log k) steps, through the maps of a^1, a^2, a^4, ... squared by substitution.
"""

from __future__ import annotations

from functools import cached_property, reduce
from itertools import product as cartesian_product
from typing import Mapping

from .errors import DomainError, FuelExhaustedError, Record
from .morphisms import Homomorphism, check_index, check_word, compose, concat, demand, suffix_walk, word_product
from .polynomials import Polynomial, _powers, _substitute, _wrap, check_variable_names, mono_degree
from .words import Word


def _check_recurrence(what, indices, input_alphabet, rules: Mapping, named, base: Mapping, *classes):
    """The checks every species shares: the rule keys are exactly indices x
    letters (x classes), every index a rule names is an index (``named`` holds
    (rule key, indices named) pairs), and the base keys are exactly the
    indices.  Returns the indices as a tuple, the input alphabet as a frozenset."""
    indices, input_alphabet = tuple(indices), frozenset(input_alphabet)
    keys = set(cartesian_product(indices, input_alphabet, *classes))
    missing, extra = sorted(keys - rules.keys()), sorted(rules.keys() - keys)
    if missing:
        raise DomainError(f"{what} has no rule for {missing[0]!r}")
    if extra:
        raise DomainError(f"{what} has a rule for {extra[0]!r} outside its indices and letters")
    for key, js in sorted(named):
        for j in js:
            if j not in indices:
                raise DomainError(f"rule ({','.join(key)}) mentions unknown index {j!r}")
    for i in indices:
        if i not in base:
            raise DomainError(f"no base value for index {i!r}")
    extra = sorted(base.keys() - set(indices))
    if extra:
        raise DomainError(f"{what} has a base value for {extra[0]!r} outside its indices")
    return indices, input_alphabet


def _check_base_words(base: Mapping, indices, output_alphabet) -> frozenset:
    """Every base word lies in the output alphabet, which is returned as a frozenset."""
    output_alphabet = frozenset(output_alphabet)
    for i in indices:
        for b in base[i]:
            if b not in output_alphabet:
                raise DomainError(f"base of {i!r} uses letter {b!r} outside the output alphabet")
    return output_alphabet


class _Lookup(Record):
    """``rule_map`` and ``base_map``, the dicts of a system whose ``rules`` and
    ``base`` are sorted pairs; each is built on first use, once per object."""

    @cached_property
    def rule_map(self) -> dict:
        return dict(self.rules)

    @cached_property
    def base_map(self) -> dict:
        return dict(self.base)


class CatenativeSystem(_Lookup):
    """f_i(aw) = f_{a(i,a,1)}(w) ... f_{a(i,a,l)}(w) with word values."""

    indices: tuple[str, ...]
    input_alphabet: frozenset[str]
    output_alphabet: frozenset[str]
    rules: tuple  # sorted ((i, a), (j_1 ... j_l)) pairs
    base: tuple  # sorted (i, word) pairs

    @classmethod
    def make(cls, indices, input_alphabet, output_alphabet, rules: Mapping, base: Mapping):
        indices, input_alphabet = _check_recurrence(
            "catenative system", indices, input_alphabet, rules, rules.items(), base)
        output_alphabet = _check_base_words(base, indices, output_alphabet)
        return cls(
            indices,
            input_alphabet,
            output_alphabet,
            tuple(sorted(((i, a), tuple(rhs)) for (i, a), rhs in rules.items())),
            tuple(sorted((i, tuple(w)) for i, w in base.items())),
        )


class CompositionalSystem(_Lookup):
    """Same recursion with values in the endomorphisms of a working alphabet;
    the rule product is composition, leftmost factor applying first."""

    indices: tuple[str, ...]
    input_alphabet: frozenset[str]
    working: frozenset[str]
    rules: tuple
    base: tuple  # sorted (i, Homomorphism) pairs

    @classmethod
    def make(cls, indices, input_alphabet, working, rules: Mapping, base: Mapping):
        indices, input_alphabet = _check_recurrence(
            "compositional system", indices, input_alphabet, rules, rules.items(), base)
        working = frozenset(working)
        for i in indices:
            h = base[i]
            if h.source != working or not h.target <= working:
                raise DomainError(f"base of {i!r} is not an endomorphism of the working alphabet")
        return cls(
            indices,
            input_alphabet,
            working,
            tuple(sorted(((i, a), tuple(rhs)) for (i, a), rhs in rules.items())),
            tuple(sorted(base.items())),
        )


class DfaClassifier(Record):
    """A complete deterministic finite-state classifier over an alphabet,
    standing in for a finite-index congruence; supplied by the user, never
    computed from a machine.  A word's class is the state it reaches, so the
    classes are the states, as a ``.sys`` block's ``classes:`` line names them."""

    states: frozenset[str]
    start: str
    transitions: tuple  # sorted ((state, letter), state) pairs

    @classmethod
    def make(cls, states, start, transitions: Mapping):
        states = frozenset(states)
        if start not in states:
            raise DomainError(f"start state {start!r} unknown")
        letters = sorted({a for (_, a) in transitions})
        for q in sorted(states):
            for a in letters:
                if (q, a) not in transitions:
                    raise DomainError(f"classifier is not complete: missing ({q!r}, {a!r})")
        for (q, a), q2 in sorted(transitions.items()):
            if q not in states or q2 not in states:
                raise DomainError(f"classifier transition ({q},{a}) -> {q2} uses unknown states")
        return cls(states, start, tuple(sorted(transitions.items())))

    @classmethod
    def single_class(cls, alphabet) -> "DfaClassifier":
        """The one-state classifier ``all``, which puts every word in one class."""
        return cls.make({"all"}, "all", {("all", a): "all" for a in alphabet})

    @cached_property
    def transition_map(self) -> dict[tuple[str, str], str]:
        return dict(self.transitions)

    def classify(self, w: Word) -> str:
        trans = self.transition_map
        q = self.start
        for a in w:
            if (q, a) not in trans:
                raise DomainError(f"classifier has no transition for letter {a!r}")
            q = trans[(q, a)]
        return q


class RegularSystem(_Lookup):
    """f_i(aw) = prod_j f_{a(i,a,d,j)}(u_{i,a,d,j} w) for w in class d."""

    indices: tuple[str, ...]
    input_alphabet: frozenset[str]
    output_alphabet: frozenset[str]
    classifier: DfaClassifier
    rules: tuple  # sorted ((i, a, class), ((index, shift word), ...)) pairs
    base: tuple

    @classmethod
    def make(cls, indices, input_alphabet, output_alphabet, classifier, rules: Mapping, base: Mapping):
        named = ((key, [j for j, _ in rhs]) for key, rhs in rules.items())
        indices, input_alphabet = _check_recurrence(
            "regular system", indices, input_alphabet, rules, named, base, classifier.states)
        uncovered = sorted(input_alphabet - {a for _, a in classifier.transition_map})
        if uncovered:
            raise DomainError(f"classifier has no transition for letter {uncovered[0]!r}")
        for rhs in rules.values():
            for _, shift in rhs:
                for s in shift:
                    if s not in input_alphabet:
                        raise DomainError(f"shift word letter {s!r} outside the input alphabet")
        output_alphabet = _check_base_words(base, indices, output_alphabet)
        return cls(
            indices,
            input_alphabet,
            output_alphabet,
            classifier,
            tuple(sorted(((i, a, d), tuple((j, tuple(u)) for j, u in rhs)) for (i, a, d), rhs in rules.items())),
            tuple(sorted((i, tuple(w)) for i, w in base.items())),
        )


class PolynomialSystem(_Lookup):
    """f_i(aw) = P_{i,a}(f_1(w), ..., f_n(w)) with bignum values.

    The polynomial variables are the index names themselves.  ``ring`` is
    "N" (nonnegative coefficients and bases) or "Z".
    """

    indices: tuple[str, ...]
    input_alphabet: frozenset[str]
    rules: tuple  # sorted ((i, a), Polynomial) pairs
    base: tuple  # sorted (i, int) pairs
    ring: str = "N"

    @classmethod
    def make(cls, indices, input_alphabet, rules: Mapping, base: Mapping, ring="N"):
        if ring not in ("N", "Z"):
            raise DomainError("ring must be 'N' or 'Z'")
        indices = tuple(indices)
        check_variable_names(indices, "index")
        indices, input_alphabet = _check_recurrence("polynomial system", indices, input_alphabet, rules, (), base)
        for (i, a), p in rules.items():
            if not p.variables() <= set(indices):
                raise DomainError(
                    f"rule ({i},{a}) uses variables {sorted(p.variables() - set(indices))} "
                    "outside the index set"
                )
            for c in p.terms.values():
                if c.denominator != 1:
                    raise DomainError(f"rule ({i},{a}) has a non-integer coefficient {c}")
                if ring == "N" and c < 0:
                    raise DomainError(f"rule ({i},{a}) has a negative coefficient in ring N")
        for i in indices:
            if not isinstance(base[i], int) or isinstance(base[i], bool):
                raise DomainError(f"base of {i!r} must be an int, got {base[i]!r}")
            if ring == "N" and base[i] < 0:
                raise DomainError(f"base of {i!r} is negative in ring N")
        return cls(
            indices,
            input_alphabet,
            tuple(sorted(rules.items())),
            tuple(sorted(base.items())),
            ring,
        )

    def base_vector(self) -> dict[str, int]:
        """A fresh dict of the base values, which the caller may change."""
        return dict(self.base_map)

    @cached_property
    def maps(self) -> dict[str, dict[str, Polynomial]]:
        """Per-letter update maps a |-> {i: P_{i,a}}."""
        out: dict[str, dict[str, Polynomial]] = {a: {} for a in self.input_alphabet}
        for (i, a), p in self.rules:
            out[a][i] = p
        return out

    @cached_property
    def read_map(self) -> dict[tuple[str, str], frozenset[str]]:
        """(i, a) |-> the indices that P_{i,a} reads."""
        return {key: p.variables() for key, p in self.rules}

    @cached_property
    def first_steps(self) -> dict[str, dict[str, int]]:
        """a |-> the value vector at the one-letter word a."""
        return {a: _step(self.base_map, m) for a, m in self.maps.items()}

    @cached_property
    def affine(self) -> bool:
        """Whether every update polynomial has degree <= 1, read up to the
        first monomial of degree >= 2."""
        return all(mono_degree(m) <= 1 for _, p in self.rules for m in p.terms)


def _prefixed(p: Polynomial, prefix: str) -> Polynomial:
    """p with every variable name prefixed, by re-keying its monomials: a
    shared prefix keeps each monomial's variables sorted."""
    return _wrap({tuple([(prefix + v, e) for v, e in m]): c for m, c in p.terms.items()})


def rename_system(sys: PolynomialSystem, prefix: str) -> PolynomialSystem:
    """The same system with every index name prefixed.  A shared prefix keeps the
    monomials and the rule and base pairs sorted: nothing to substitute or re-check."""
    return PolynomialSystem(
        tuple(prefix + i for i in sys.indices), sys.input_alphabet,
        tuple(((prefix + i, a), _prefixed(p, prefix)) for (i, a), p in sys.rules),
        tuple((prefix + i, v) for i, v in sys.base), sys.ring,
    )


def check_shared_alphabet(a: PolynomialSystem, b: PolynomialSystem) -> None:
    """Refuse two systems that read different input alphabets."""
    if a.input_alphabet != b.input_alphabet:
        raise DomainError("product systems must share their input alphabet")


def product_system(a: PolynomialSystem, b: PolynomialSystem) -> PolynomialSystem:
    """The two systems side by side: one input alphabet, disjoint indices."""
    check_shared_alphabet(a, b)
    if set(a.indices) & set(b.indices):
        raise DomainError("product systems must have disjoint index sets")
    return PolynomialSystem(  # distinct keys: sorting compares no polynomials
        a.indices + b.indices, a.input_alphabet, tuple(sorted(a.rules + b.rules)),
        tuple(sorted(a.base + b.base)), "Z" if "Z" in (a.ring, b.ring) else "N",
    )


# ---------------------------------------------------------------------------
# evaluation


def eval_catenative(sys: CatenativeSystem, i: str, w: Word) -> Word:
    return suffix_walk(sys, i, w, sys.base_map, concat)


def eval_compositional(sys: CompositionalSystem, i: str, w: Word) -> Homomorphism:
    identity = Homomorphism.identity(sys.working)
    return suffix_walk(sys, i, w, sys.base_map, lambda hs: reduce(compose, hs) if hs else identity)


def is_strict(sys: RegularSystem) -> bool:
    """True when all shift words are empty (a sufficient condition for the
    induced rewriting to terminate)."""
    return all(not u for _, rhs in sys.rules for _, u in rhs)


_OPEN = (0, 0, float("inf"))  # an open term's record: its count never fits


def eval_regular(sys: RegularSystem, i: str, w: Word, fuel: int = 10**5) -> Word:
    """Rewrite f_i(w) until every term is a base case, leftmost term first;
    the class of the tail (the argument minus its first letter) selects the
    rule.  The pending terms sit on a stack, leftmost on top, so a rewrite
    costs the length of its right-hand side.

    Each distinct term is rewritten once.  A term's rewriting depends only
    on the term, and leftmost-first rewriting finishes a term before
    anything to its right.  So when a term (j, v) with v no longer than w is
    first rewritten, an end marker goes below its children; when the marker
    pops, the term's stretch of ``done`` and its rewrite count are recorded.
    Met again, the term extends ``done`` by that stretch and spends the
    count if it fits in the fuel left, and is rewritten otherwise.  The fuel
    thus counts every rewrite of the leftmost-first derivation, and a
    partial is that derivation's at the fuel given.  Only tails no longer
    than w keep their class, and a term whose marker is on the stack gets no
    second one, so a looping or growing system holds no more than its
    pending terms."""
    check_index(sys, i)
    check_word(sys, w)
    rules, base, classify = sys.rule_map, sys.base_map, sys.classifier.classify
    n = len(w)
    done: list[str] = []  # indices of the finished terms, left to right
    stack: list[tuple] = [(i, tuple(w))]  # pending terms, and (None, (term, start, fuel)) end markers
    classes: dict[Word, str] = {}
    finished: dict[tuple[str, Word], tuple] = {}  # term -> (start, end, rewrites); _OPEN while marked
    while stack:
        term = stack.pop()
        j, v = term
        if not v:
            done.append(j)
            continue
        if j is None:
            term, start, before = v
            finished[term] = (start, len(done), before - fuel)
            continue
        seen = finished.get(term)
        if seen is not None and seen[2] <= fuel:
            done += done[seen[0]:seen[1]]
            fuel -= seen[2]
            continue
        if fuel <= 0:
            partial = [(k, ()) for k in done] + [term] + [t for t in reversed(stack) if t[0] is not None]
            raise FuelExhaustedError(
                f"regular evaluation of ({i!r}, {w!r}) did not finish", partial=tuple(partial)
            )
        tail = v[1:]
        d = classes.get(tail)
        if d is None:
            d = classify(tail)
            if len(tail) <= n:
                classes[tail] = d
        if seen is None and len(v) <= n:
            finished[term] = _OPEN
            stack.append((None, (term, len(done), fuel)))
        stack.extend([(k, u + tail) for k, u in reversed(rules[(j, v[0], d)])])
        fuel -= 1
    return concat([base[j] for j in done])


def eval_polynomial(sys: PolynomialSystem, i: str, w: Word) -> int:
    check_index(sys, i)
    return eval_polynomial_vector(sys, w, (i,))[i]


def _step(vec: dict[str, int], ps: dict[str, Polynomial], indices=None) -> dict[str, int]:
    """One letter's update ``maps[a]``, of the given indices (default: all of
    them): ``make`` admitted only int coefficients over the indices."""
    out = {}
    for i in ps if indices is None else indices:
        total = 0
        for m, c in ps[i].terms.items():
            for v, e in m:
                x = vec[v] if e == 1 else vec[v] ** e
                c = x if c == 1 else c * x  # 1 * x and 0 + c would copy a bignum
            total = c if total == 0 else total + c
        out[i] = total
    return out


def _square(ps: dict[str, Polynomial]) -> dict[str, Polynomial]:
    """ps substituted into itself; the square of an affine map is affine."""
    table = _powers(ps)
    return {i: _substitute(p.terms, table) for i, p in ps.items()}


def eval_polynomial_vector(sys: PolynomialSystem, w: Word, wanted=None) -> dict[str, int]:
    """The values at w of every index, or of at least the indices in
    ``wanted``, stepping its letters last to first.  Letter by letter (degree
    >= 2) a step computes only the indices that the wanted values at w read
    (``demand``).  On an affine system (degree <= 1) every index is computed
    by ``word_product`` on the reversed word: a run a^k takes one step per set
    bit of k, through the maps of a^1, a^2, a^4, ..., built once per call."""
    check_word(sys, w)
    values, maps = sys.base_vector(), sys.maps
    if not sys.affine:
        wanted = frozenset(sys.indices if wanted is None else wanted)
        for a, need in demand(w, wanted, sys.read_map):
            values = _step(values, maps[a], need)
        return values
    return word_product(values, w[::-1], maps.__getitem__, _step, _square)


# ---------------------------------------------------------------------------
# embeddings between species


def catenative_to_regular(sys: CatenativeSystem) -> RegularSystem:
    """View a catenative system as a regular one: a single congruence class
    and empty shift words."""
    classifier = DfaClassifier.single_class(sys.input_alphabet)
    (label,) = classifier.states
    rules = {
        (i, a, label): tuple((j, ()) for j in rhs) for (i, a), rhs in sys.rules
    }
    return RegularSystem.make(
        sys.indices, sys.input_alphabet, sys.output_alphabet, classifier, rules, sys.base_map
    )
