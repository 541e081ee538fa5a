"""Evaluators for recurrence systems over words.

Four species recurse on the first letter of the argument: catenative (word
values), compositional (endomorphism values), regular (congruence-classified
rules with shift words, evaluated by fuel-bounded rewriting), and polynomial
(bignum values).  Systems build their lookup maps once, on first use.

Catenative and compositional values come from ``morphisms.suffix_walk``.
Regular systems cannot use it (shift words change the argument), hence the
rewriting loop with fuel; polynomial values step integer rows per letter.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import product as cartesian_product
from typing import Mapping

from .errors import DomainError, FuelExhaustedError
from .morphisms import Homomorphism, check_word, compose, concat, suffix_walk
from .polynomials import Polynomial, _wrap
from .words import Word


def _check_rules_total(rules, what, *axes):
    """The rule keys are exactly indices x letters (x classes)."""
    keys = set(cartesian_product(*axes))
    missing, extra = sorted(keys - rules.keys()), sorted(rules.keys() - keys)
    if missing:
        raise DomainError(f"{what} has no rule for {missing[0]!r}")
    if extra:
        raise DomainError(f"{what} has a rule for {extra[0]!r} outside its indices and letters")


def _check_base_total(base, what, indices):
    """The base keys are exactly the indices."""
    for i in indices:
        if i not in base:
            raise DomainError(f"no base value for index {i!r}")
    extra = sorted(base.keys() - set(indices))
    if extra:
        raise DomainError(f"{what} has a base value for {extra[0]!r} outside its indices")


class _Lookup:
    """rule(*key) and base_value(i) for a system whose ``rules`` and ``base``
    are sorted pairs; the maps are built on first use, once per object."""

    @cached_property
    def rule_map(self) -> dict:
        return dict(self.rules)

    @cached_property
    def base_map(self) -> dict:
        return dict(self.base)

    def rule(self, *key):
        return self.rule_map[key]

    def base_value(self, i):
        return self.base_map[i]


@dataclass(frozen=True)
class CatenativeSystem(_Lookup):
    """f_i(aw) = f_{a(i,a,1)}(w) ... f_{a(i,a,l)}(w) with word values."""

    indices: tuple[str, ...]
    input_alphabet: frozenset[str]
    output_alphabet: frozenset[str]
    rules: tuple  # sorted ((i, a), (j_1 ... j_l)) pairs
    base: tuple  # sorted (i, word) pairs

    @classmethod
    def make(cls, indices, input_alphabet, output_alphabet, rules: Mapping, base: Mapping):
        indices = tuple(indices)
        input_alphabet = frozenset(input_alphabet)
        output_alphabet = frozenset(output_alphabet)
        _check_rules_total(rules, "catenative system", indices, input_alphabet)
        for (i, a), rhs in rules.items():
            for j in rhs:
                if j not in indices:
                    raise DomainError(f"rule ({i},{a}) mentions unknown index {j!r}")
        _check_base_total(base, "catenative system", indices)
        for i in indices:
            for b in base[i]:
                if b not in output_alphabet:
                    raise DomainError(f"base of {i!r} uses letter {b!r} outside the output alphabet")
        return cls(
            indices,
            input_alphabet,
            output_alphabet,
            tuple(sorted(((i, a), tuple(rhs)) for (i, a), rhs in rules.items())),
            tuple(sorted((i, tuple(w)) for i, w in base.items())),
        )


@dataclass(frozen=True)
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
        indices = tuple(indices)
        input_alphabet = frozenset(input_alphabet)
        working = frozenset(working)
        _check_rules_total(rules, "compositional system", indices, input_alphabet)
        _check_base_total(base, "compositional system", indices)
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


@dataclass(frozen=True)
class DfaClassifier:
    """A complete deterministic finite-state classifier over an alphabet,
    standing in for a finite-index congruence; supplied by the user, never
    computed from a machine."""

    states: frozenset[str]
    start: str
    transitions: tuple  # sorted ((state, letter), state) pairs
    class_of: tuple  # sorted (state, class) pairs

    @classmethod
    def make(cls, states, start, transitions: Mapping, class_of: Mapping | None = None):
        states = frozenset(states)
        if start not in states:
            raise DomainError(f"start state {start!r} unknown")
        letters = {a for (_, a) in transitions}
        for q in states:
            for a in letters:
                if (q, a) not in transitions:
                    raise DomainError(f"classifier is not complete: missing ({q!r}, {a!r})")
        for (q, a), q2 in transitions.items():
            if q not in states or q2 not in states:
                raise DomainError(f"classifier transition ({q},{a}) -> {q2} uses unknown states")
        if class_of is None:
            class_of = {q: q for q in states}
        return cls(
            states,
            start,
            tuple(sorted(transitions.items())),
            tuple(sorted(class_of.items())),
        )

    @classmethod
    def single_class(cls, alphabet, label="all") -> "DfaClassifier":
        return cls.make({"q"}, "q", {("q", a): "q" for a in alphabet}, {"q": label})

    def classes(self) -> frozenset[str]:
        return frozenset(c for _, c in self.class_of)

    @cached_property
    def transition_map(self) -> dict[tuple[str, str], str]:
        return dict(self.transitions)

    @cached_property
    def class_map(self) -> dict[str, str]:
        return dict(self.class_of)

    def classify(self, w: Word) -> str:
        trans = self.transition_map
        q = self.start
        for a in w:
            if (q, a) not in trans:
                raise DomainError(f"classifier has no transition for letter {a!r}")
            q = trans[(q, a)]
        return self.class_map[q]


@dataclass(frozen=True)
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
        indices = tuple(indices)
        input_alphabet = frozenset(input_alphabet)
        output_alphabet = frozenset(output_alphabet)
        _check_rules_total(rules, "regular system", indices, input_alphabet, classifier.classes())
        for (i, a, d), rhs in rules.items():
            for j, shift in rhs:
                if j not in indices:
                    raise DomainError(f"rule ({i},{a},{d}) mentions unknown index {j!r}")
                for s in shift:
                    if s not in input_alphabet:
                        raise DomainError(f"shift word letter {s!r} outside the input alphabet")
        _check_base_total(base, "regular system", indices)
        return cls(
            indices,
            input_alphabet,
            output_alphabet,
            classifier,
            tuple(sorted(((i, a, d), tuple((j, tuple(u)) for j, u in rhs)) for (i, a, d), rhs in rules.items())),
            tuple(sorted((i, tuple(w)) for i, w in base.items())),
        )


@dataclass(frozen=True)
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
        indices = tuple(indices)
        input_alphabet = frozenset(input_alphabet)
        if ring not in ("N", "Z"):
            raise DomainError("ring must be 'N' or 'Z'")
        _check_rules_total(rules, "polynomial system", indices, input_alphabet)
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
        _check_base_total(base, "polynomial system", indices)
        for i in indices:
            if ring == "N" and base[i] < 0:
                raise DomainError(f"base of {i!r} is negative in ring N")
        return cls(
            indices,
            input_alphabet,
            tuple(sorted(rules.items())),
            tuple(sorted((i, int(v)) for i, v in base.items())),
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
    def degree(self) -> int:
        """The largest degree of an update polynomial."""
        return max((p.degree() for _, p in self.rules), default=-1)


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


def product_system(a: PolynomialSystem, b: PolynomialSystem) -> PolynomialSystem:
    """The two systems side by side: one input alphabet, disjoint indices."""
    if a.input_alphabet != b.input_alphabet:
        raise DomainError("product systems must share their input alphabet")
    if set(a.indices) & set(b.indices):
        raise DomainError("product systems must have disjoint index sets")
    return PolynomialSystem(  # distinct keys: sorting compares no polynomials
        a.indices + b.indices, a.input_alphabet, tuple(sorted(a.rules + b.rules)),
        tuple(sorted(a.base + b.base)), "Z" if "Z" in (a.ring, b.ring) else "N",
    )


# ---------------------------------------------------------------------------
# evaluation


def _check_index(sys, i):
    if i not in sys.indices:
        raise DomainError(f"unknown index {i!r}")


def eval_catenative(sys: CatenativeSystem, i: str, w: Word) -> Word:
    return suffix_walk(sys, i, w, sys.base_map, concat)


def eval_compositional(sys: CompositionalSystem, i: str, w: Word) -> Homomorphism:
    identity = Homomorphism.identity(sys.working)
    return suffix_walk(sys, i, w, sys.base_map, lambda hs: reduce(compose, hs, identity))


def is_strict(sys: RegularSystem) -> bool:
    """True when all shift words are empty (a sufficient condition for the
    induced rewriting to terminate)."""
    return all(not u for _, rhs in sys.rules for _, u in rhs)


def eval_regular(sys: RegularSystem, i: str, w: Word, fuel: int = 10**5) -> Word:
    """Rewrite f_i(w) until every term is a base case; the class of the tail
    (the argument minus its first letter) selects the rule."""
    _check_index(sys, i)
    check_word(sys, w)
    rules = sys.rule_map
    base = sys.base_map
    terms: list[tuple[str, Word]] = [(i, tuple(w))]
    pos = 0
    while True:
        while pos < len(terms) and not terms[pos][1]:
            pos += 1
        if pos == len(terms):
            return concat(base[j] for j, _ in terms)
        if fuel <= 0:
            raise FuelExhaustedError(
                f"regular evaluation of ({i!r}, {w!r}) did not finish", partial=tuple(terms)
            )
        j, v = terms[pos]
        a, tail = v[0], v[1:]
        d = sys.classifier.classify(tail)
        rhs = rules[(j, a, d)]
        terms[pos:pos + 1] = [(k, u + tail) for k, u in rhs]
        fuel -= 1


def eval_polynomial(sys: PolynomialSystem, i: str, w: Word) -> int:
    _check_index(sys, i)
    return eval_polynomial_vector(sys, w)[i]


def _step(ps: dict[str, Polynomial], vec: dict[str, int]) -> dict[str, int]:
    """One letter's update ``maps[a]``: ``make`` admitted only int coefficients over the indices."""
    out = {}
    for i, p in ps.items():
        total = 0
        for m, c in p.terms.items():
            for v, e in m:
                x = vec[v] if e == 1 else vec[v] ** e
                c = x if c == 1 else c * x  # 1 * x and 0 + c would copy a bignum
            total = c if total == 0 else total + c
        out[i] = total
    return out


def eval_polynomial_vector(sys: PolynomialSystem, w: Word) -> dict[str, int]:
    check_word(sys, w)
    values = sys.base_vector()
    for a in reversed(w):
        values = _step(sys.maps[a], values)
    return values


# ---------------------------------------------------------------------------
# embeddings between species


def catenative_to_regular(sys: CatenativeSystem) -> RegularSystem:
    """View a catenative system as a regular one: a single congruence class
    and empty shift words."""
    classifier = DfaClassifier.single_class(sys.input_alphabet)
    (label,) = classifier.classes()
    rules = {
        (i, a, label): tuple((j, ()) for j in rhs) for (i, a), rhs in sys.rules
    }
    return RegularSystem.make(
        sys.indices, sys.input_alphabet, sys.output_alphabet, classifier, rules, sys.base_map
    )
