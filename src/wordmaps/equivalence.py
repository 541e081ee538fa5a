"""Sequence equality decisions through polynomial ideal theory.

The reachable set of a polynomial recurrence system is the orbit of its base
vector under the per-letter update maps.  A sequence identity holds for every
input word exactly when its defining polynomial vanishes on that whole orbit.

Two complementary engines answer vanishing questions:

* ``vanishes_on_reachables`` saturates the ascending chain of ideals
  generated by pulling the test polynomial back through the update maps.
  The chain stabilizes after finitely many additions (ascending chain
  condition), and on stabilization the polynomial vanishes on the orbit iff
  every accumulated generator vanishes at the base vector.  One incremental
  ``groebner.GroebnerBasis`` tests and extends the chain.  This is total:
  it terminates on every input, so equality verdicts never need a variety
  computation.

* ``zariski_closure`` computes the vanishing ideal of the orbit closure.
  Both of its paths fit polynomials to sampled orbit points with one
  algorithm, Buchberger-Moeller (``groebner.points_ideal``).  A finite
  orbit enumerated by sampling gets the exact ideal of its points.  For
  other orbits, the low-degree basis elements of the sampled points' ideal
  are candidates, and each one is certified with the saturation engine, so
  every returned generator provably vanishes on the whole orbit.

Witness search and sampling share one breadth-first orbit walk that visits
each distinct value vector once, at its shortlex-least word: v(w) = v(w')
implies v(uw) = v(uw') for every word u (Tzeng), so dropping repeats keeps
witnesses minimal, and the walk ends on finite orbits.  ``witness_length``
and ``max_point_bits`` bound witness search; ``sample_points``,
``sample_depth`` and ``max_point_bits`` bound sampling.  Resource limits
raise ``BudgetExceededError``; a verdict is never traded for termination.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .errors import BudgetExceededError, DomainError
from .groebner import GroebnerBasis, Ideal, in_radical, points_ideal
from .polynomials import Polynomial
from .recurrences import PolynomialSystem, eval_polynomial_vector
from .words import Word


@dataclass(frozen=True)
class Equal:
    def __bool__(self):
        return True


@dataclass(frozen=True)
class NotEqual:
    witness: Word

    def __bool__(self):
        return False


Verdict = Union[Equal, NotEqual]


@dataclass(frozen=True)
class Budget:
    """Resource limits for the decision procedures."""

    chain_additions: int = 400
    max_basis: int = 4000
    max_degree: int = 8
    witness_length: int = 10000
    sample_points: int = 120
    sample_depth: int = 512
    max_point_bits: int = 4096
    order: str = "grevlex"

    @classmethod
    def scaled(cls, n: int, order: str = "grevlex") -> "Budget":
        return cls(chain_additions=n, max_basis=10 * n, order=order)


DEFAULT_BUDGET = Budget()


# ---------------------------------------------------------------------------
# plumbing: renaming and products of systems


def rename_system(sys: PolynomialSystem, prefix: str) -> PolynomialSystem:
    env = {i: Polynomial.var(prefix + i) for i in sys.indices}
    rules = {(prefix + i, a): p.substitute(env) for (i, a), p in sys.rules}
    base = {prefix + i: v for i, v in sys.base}
    return PolynomialSystem.make(
        tuple(prefix + i for i in sys.indices), sys.input_alphabet, rules, base, ring=sys.ring
    )


def product_system(a: PolynomialSystem, b: PolynomialSystem) -> PolynomialSystem:
    if a.input_alphabet != b.input_alphabet:
        raise DomainError("product systems must share their input alphabet")
    if set(a.indices) & set(b.indices):
        raise DomainError("product systems must have disjoint index sets")
    ring = "Z" if "Z" in (a.ring, b.ring) else "N"
    return PolynomialSystem.make(
        a.indices + b.indices,
        a.input_alphabet,
        {**a.rule_map, **b.rule_map},
        {**a.base_map, **b.base_map},
        ring=ring,
    )


def _sigma(sys: PolynomialSystem, a: str, g: Polynomial) -> Polynomial:
    """Pull g back through the letter-a update map: g(P_{1,a}, ..., P_{n,a})."""
    return g.substitute(sys.maps[a])


# ---------------------------------------------------------------------------
# the saturation engine


def vanishes_on_reachables(
    sys: PolynomialSystem, t: Polynomial, budget: Budget = DEFAULT_BUDGET
) -> bool:
    """Decide whether t vanishes at every reachable value vector.

    Saturates G := {t} under the pull-backs sigma_a until every new pull-back
    already reduces to zero; then t vanishes on the orbit iff all of G
    vanishes at the base vector.  One ``GroebnerBasis`` serves the whole
    chain, and each addition queues only its own S-pairs.
    """
    if not t.variables() <= set(sys.indices):
        raise DomainError("test polynomial mentions variables outside the system")
    letters = sorted(sys.input_alphabet)
    basis = GroebnerBasis([], sys.indices, budget.order, max_basis=budget.max_basis)
    gens: list[Polynomial] = []
    worklist: list[Polynomial] = [t]
    while worklist:
        g = worklist.pop()
        if basis.add(g):
            gens.append(g)
            if len(gens) > budget.chain_additions:
                raise BudgetExceededError(
                    "ideal chain did not stabilize within the addition budget"
                )
            worklist.extend(_sigma(sys, a, g) for a in letters)
    point = sys.base_vector()
    return all(g.evaluate(point) == 0 for g in gens)


def _orbit(sys: PolynomialSystem, max_bits: int):
    """Yield (word, vector, big) once per distinct reachable value vector,
    breadth-first, with the shortlex-least word reaching it.  A vector with
    a value over max_bits bits is ``big`` and is not stepped."""
    letters, maps, indices = sorted(sys.input_alphabet), sys.maps, sys.indices
    vec = sys.base_vector()
    # keys and bit sizes go through map(), cheaper than a generator per step
    key = tuple(map(vec.__getitem__, indices))
    seen = {key}
    big = max(map(int.bit_length, key), default=0) > max_bits
    yield (), vec, big
    level = [] if big else [((), vec)]
    while level:
        nxt = []
        # words are read first letter first: a letter in front of each word of
        # the previous level, letters outermost, keeps the level lexicographic
        for a in letters:
            step = maps[a].items()
            for w, vec in level:
                new = {i: p.evaluate_int(vec) for i, p in step}
                key = tuple(map(new.__getitem__, indices))
                if key not in seen:
                    seen.add(key)
                    big = max(map(int.bit_length, key), default=0) > max_bits
                    aw = (a,) + w
                    yield aw, new, big
                    if not big:
                        nxt.append((aw, new))
        level = nxt


def _first_nonzero(sys: PolynomialSystem, t: Polynomial, budget: Budget, cap: Optional[int] = None):
    """(word, vector) at the minimal word where t is nonzero; (None, None) if
    there is none up to length cap.  With no cap, t is known not to vanish, the
    cap is ``witness_length``, and a limit that hides the witness raises."""
    stop, limit = budget.witness_length if cap is None else cap, "witness_length"
    for w, vec, big in _orbit(sys, budget.max_point_bits):
        if len(w) > stop:
            break
        if t.evaluate(vec) != 0:
            return w, vec
        if big and len(w) < stop:
            # the unstepped vector's successors might precede a longer find
            stop, limit = len(w), "max_point_bits"
    if cap is None:
        raise BudgetExceededError(f"the witness lies beyond {limit} ({getattr(budget, limit)})")
    return None, None


def find_witness(
    sys: PolynomialSystem, t: Polynomial, budget: Budget = DEFAULT_BUDGET, max_length=None
) -> Optional[Word]:
    """Shortest word (lexicographically first among its length) at which t
    evaluates to a nonzero value; None if there is none up to the length cap,
    or none before values over ``max_point_bits`` bits cut the walk short."""
    cap = budget.witness_length if max_length is None else max_length
    return _first_nonzero(sys, t, budget, cap)[0]


def decide_zero_on_reachables(
    sys: PolynomialSystem, t: Polynomial, budget: Budget = DEFAULT_BUDGET
) -> Verdict:
    """Equal when t vanishes on the whole orbit, else NotEqual with the
    minimal witness word."""
    quick = find_witness(sys, t, budget, max_length=3)
    if quick is not None:
        return NotEqual(quick)
    if vanishes_on_reachables(sys, t, budget):
        return Equal()
    return NotEqual(_first_nonzero(sys, t, budget)[0])


def decide_equal(
    sys_a: PolynomialSystem,
    i_a: str,
    sys_b: PolynomialSystem,
    i_b: str,
    budget: Budget = DEFAULT_BUDGET,
) -> Verdict:
    """Decide pointwise equality of two polynomially recurrent sequences."""
    if i_a not in sys_a.indices:
        raise DomainError(f"unknown index {i_a!r}")
    if i_b not in sys_b.indices:
        raise DomainError(f"unknown index {i_b!r}")
    a = rename_system(sys_a, "A_")
    b = rename_system(sys_b, "B_")
    prod = product_system(a, b)
    t = Polynomial.var("A_" + i_a) - Polynomial.var("B_" + i_b)
    return decide_zero_on_reachables(prod, t, budget)


@dataclass(frozen=True)
class FractionPresentation:
    """f(w) = (g(w) - h(w)) / (fp(w) - gp(w)) over one polynomial system.

    Denominators are assumed nonzero for every input word; this is not
    checked (deciding it is a Skolem-type question).
    """

    system: PolynomialSystem
    num_plus: str
    num_minus: str
    den_plus: str
    den_minus: str

    def __post_init__(self):
        for i in (self.num_plus, self.num_minus, self.den_plus, self.den_minus):
            if i not in self.system.indices:
                raise DomainError(f"unknown index {i!r}")

    def eval(self, w: Word) -> Fraction:
        vec = eval_polynomial_vector(self.system, w)
        den = vec[self.den_plus] - vec[self.den_minus]
        if den == 0:
            raise DomainError(f"denominator vanished at {w!r}")
        return Fraction(vec[self.num_plus] - vec[self.num_minus], den)


def decide_equal_fractions(
    p: FractionPresentation, q: FractionPresentation, budget: Budget = DEFAULT_BUDGET
) -> Verdict:
    """Cross-multiplied zeroness of two fraction presentations on the
    reachable set of the combined system."""
    a = rename_system(p.system, "A_")
    b = rename_system(q.system, "B_")
    prod = product_system(a, b)

    def v(prefix, name):
        return Polynomial.var(prefix + name)

    t = (v("A_", p.num_plus) - v("A_", p.num_minus)) * (
        v("B_", q.den_plus) - v("B_", q.den_minus)
    ) - (v("B_", q.num_plus) - v("B_", q.num_minus)) * (
        v("A_", p.den_plus) - v("A_", p.den_minus)
    )
    return decide_zero_on_reachables(prod, t, budget)


# ---------------------------------------------------------------------------
# Zariski closure of the reachable set


def reachable_points(sys: PolynomialSystem, budget: Budget = DEFAULT_BUDGET):
    """The first ``sample_points`` vectors of the orbit walk whose words are
    at most ``sample_depth`` long, as (points, closed): closed is True when
    the walk ended with every point stepped, which proves the orbit complete."""
    points, closed = [], True
    for w, vec, big in _orbit(sys, budget.max_point_bits):
        if len(w) > budget.sample_depth or len(points) == budget.sample_points:
            return points, False
        points.append(vec)
        closed = closed and not big
    return points, closed


def zariski_closure(sys: PolynomialSystem, budget: Budget = DEFAULT_BUDGET) -> Ideal:
    """The vanishing ideal of the Zariski closure of the reachable set.

    When sampling enumerates the whole orbit (within ``sample_points``), this
    is the exact ideal of its points.  Otherwise the sampled points' basis
    elements of degree up to ``max_degree`` are candidates: each one is
    certified with the saturation engine, and a refuted one adds its
    refuting point to the fit.  The result is then the ideal generated by
    all orbit-vanishing polynomials of degree up to the budget.  If its
    variety is not invariant under every update map, generators of higher
    degree provably exist and a budget error is raised; otherwise the ideal
    is returned, and it is the full vanishing ideal whenever that ideal is
    generated within the degree budget.
    """
    variables = tuple(sys.indices)
    points, orbit_closed = reachable_points(sys, budget)
    if orbit_closed:
        return Ideal(points_ideal(points, variables), variables)

    verified: list[Polynomial] = []
    basis = GroebnerBasis([], variables)
    while True:
        for cand in points_ideal(points, variables, budget.max_degree):
            if not basis.reduce(cand):
                continue
            if not vanishes_on_reachables(sys, cand, budget):
                points.append(_first_nonzero(sys, cand, budget)[1])
                break
            verified.append(cand)
            basis.add(cand)
        else:
            break
    verified_ideal = Ideal(verified, variables)
    if _is_invariant(sys, verified_ideal, sorted(sys.input_alphabet), budget):
        return verified_ideal
    raise BudgetExceededError(
        "closure generators above the degree budget remain; raise the budget"
    )


def _is_invariant(sys: PolynomialSystem, j: Ideal, letters, budget: Budget) -> bool:
    """V(j) is mapped into itself by every update map: each pulled-back
    generator lies in the radical."""
    for g in j.generators:
        for a in letters:
            if not in_radical(_sigma(sys, a, g), j, max_basis=budget.max_basis):
                return False
    return True
