"""Sequence equality decisions through polynomial ideal theory.

The reachable set of a polynomial recurrence system is the orbit of its base
vector under the per-letter update maps.  A sequence identity holds for every
input word exactly when its defining polynomial vanishes on that whole orbit.

``find_witness`` names the shortlex-least word at which a test polynomial t
is nonzero, or proves there is none.  On affine systems (update polynomials
of degree <= 1) it takes the span walk: the orbit walk below reads t at each
new point, the first nonzero value names the witness, and a point is stepped
only if its moment vector (the values of the monomials of degree <= deg t)
is independent of the earlier ones.  Affine maps act linearly on moment
vectors and t is linear in them, so m(v(w)) = sum c_i m(v(w_i)) over
shortlex-smaller w_i gives t(v(uw)) = sum c_i t(v(uw_i)) for every word u:
verdicts stay exact and witnesses minimal (Tzeng, SIAM J. Comput. 21, 1992;
Benedikt, Duff, Sharad and Worrell, LICS 2017).

On other systems it takes the saturation pass over the ascending chain of
ideals generated by the pull-backs g_w = t o P_w, where g_w(base) = t(v(w)).
A FIFO queue of (wa, g_w) pairs, letters in order, meets the words in
shortlex order, and one incremental ``groebner.GroebnerBasis`` tests and
extends the chain.  g_wa is pulled back only when its pair is dequeued, so
a witness leaves the queued pull-backs unbuilt, and from one power table per
letter kept for the whole pass, so each power of an update polynomial is
built once per decision.  The first g_w nonzero at the base vector names the
minimal witness w, and an empty queue proves that t vanishes on the orbit: a
pull-back inside the ideal of earlier generators is not extended, as it and
its extensions combine pull-backs at shortlex-smaller words, which vanish at
the base.  The chain stabilizes (ascending chain condition), so the pass is
total and verdicts never need a variety computation.

``decide_equal`` and ``decide_equal_fractions`` decide one shape, a quotient
num/den of polynomials over a system: the sequence X_i is X_i/1 and a
fraction presentation is (g - h)/(fp - gp).  Two quotients agree at every
word exactly when t = A(num_p) B(den_q) - B(num_q) A(den_p) vanishes on the
orbit of the paired system, A and B prefixing the two systems' indices.

``zariski_closure`` computes the vanishing ideal of the orbit closure.  Both
of its paths fit polynomials to sampled orbit points with Buchberger-Moeller
(``groebner.points_ideal``).  A finite orbit enumerated by sampling gets the
exact ideal of its points.  For other orbits, the sampled points' basis
elements of degree <= D generate an ideal J, returned once J is inductive:
its generators vanish at the base vector and their pull-backs under every
letter lie in J, so sigma_a(J) is inside J and J vanishes on the whole orbit
(Sankaranarayanan, Sipma and Manna, POPL 2004).

Sampling, the length-capped witness search and the span walk share one
breadth-first orbit walk that visits each distinct value vector once, at its
shortlex-least word: v(w) = v(w') implies v(uw) = v(uw') for every word u
(Tzeng), so dropping repeats keeps witnesses minimal, and the walk ends on
finite orbits.  ``sample_points`` and ``max_point_bits`` bound sampling;
``max_point_bits`` and the length cap bound the capped search.
Resource limits raise ``BudgetExceededError``; a verdict is never traded for
termination.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .errors import BudgetExceededError, DomainError
from .groebner import GroebnerBasis, Ideal, _eliminate, points_ideal
from .polynomials import Polynomial, _powers, _substitute
from .recurrences import PolynomialSystem, _prefixed, _step, eval_polynomial_vector, product_system, rename_system
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
    """Resource limits for the decision procedures.

    ``chain_additions`` bounds the saturation pass's additions and the span
    walk's rank, ``max_basis`` the pass's basis, ``max_degree`` the closure's
    candidates.  ``sample_points`` and ``max_point_bits`` bound sampling and
    ``find_witness(max_length=...)``; no verdict depends on them.  Each level
    the walk passes adds a point, so sampled words are shorter than that.
    """

    chain_additions: int = 400
    max_basis: int = 4000
    max_degree: int = 8
    sample_points: int = 120
    max_point_bits: int = 4096
    order: str = "grevlex"

    def fits(self, vec) -> bool:
        """Whether every value of the vector has at most ``max_point_bits`` bits."""
        return max(map(int.bit_length, vec.values()), default=0) <= self.max_point_bits

    @classmethod
    def scaled(cls, n: int, order: str = "grevlex") -> "Budget":
        return cls(chain_additions=n, max_basis=10 * n, order=order)


DEFAULT_BUDGET = Budget()


# ---------------------------------------------------------------------------
# pull-backs and products


def _tables(sys: PolynomialSystem) -> dict:
    """Per letter, a power table of its update map, for one call's pull-backs."""
    return {a: _powers(env) for a, env in sys.maps.items()}


def _sigma(tables: dict, a: str, g: Polynomial) -> Polynomial:
    """Pull g back through the letter-a update map, g(P_{1,a}, ..., P_{n,a}),
    from the calling pass's tables: each power of an image is built once."""
    return _substitute(g.terms, tables[a])


def _paired(sys_a: PolynomialSystem, sys_b: PolynomialSystem) -> PolynomialSystem:
    """The two systems side by side, their indices prefixed A_ and B_."""
    return product_system(rename_system(sys_a, "A_"), rename_system(sys_b, "B_"))


# ---------------------------------------------------------------------------
# the saturation pass, the span walk and the orbit walk


def vanishes_on_reachables(
    sys: PolynomialSystem, t: Polynomial, budget: Budget = DEFAULT_BUDGET
) -> bool:
    """Decide whether t vanishes at every reachable value vector."""
    return find_witness(sys, t, budget) is None


def _saturate(sys: PolynomialSystem, t: Polynomial, budget: Budget) -> Optional[Word]:
    """The shortlex-least word w with t(v(w)) != 0, or None when there is
    none: the saturation pass of the module docstring."""
    letters = sorted(sys.input_alphabet)
    point = sys.base_vector()
    basis = GroebnerBasis([], sys.indices, budget.order, max_basis=budget.max_basis)
    tables = _tables(sys)
    additions = 0
    # (wa, g_w) is pulled back to g_wa when it is dequeued
    queue = deque([((), t)])
    while queue:
        w, g = queue.popleft()
        if w:
            g = _sigma(tables, w[-1], g)
        # every element of the ideal vanishes at the base, so a nonzero value
        # is the witness before the basis needs to take g in
        if g.evaluate(point) != 0:
            return w
        if basis.add(g):
            additions += 1
            if additions > budget.chain_additions:
                raise BudgetExceededError(
                    "ideal chain did not stabilize within the addition budget"
                )
            queue.extend((w + (a,), g) for a in letters)
    return None


def _span_walk(sys: PolynomialSystem, t: Polynomial, budget: Budget) -> Optional[Word]:
    """``find_witness`` on an affine system: the span walk of the module docstring."""
    # moment j >= 1 is moment p times index i, for (p, i) = links[j - 1]:
    # each monomial of degree <= deg t once, its indices in sequence order
    indices, links, level, rows = sys.indices, [], [(0, 0)], []
    for _ in range(t.degree()):
        grown = [(p, k) for p, low in level for k in range(low, len(indices))]
        level = [(len(links) + j, k) for j, (_, k) in enumerate(grown, 1)]
        links += [(p, indices[k]) for p, k in grown]

    def independent(vec):
        moments = [1]
        for p, i in links:
            moments.append(moments[p] * vec[i])
        pivot, row, _ = _eliminate(moments, {}, rows)
        if pivot is not None:
            rows.append((pivot, row, {}))
            if len(rows) > budget.chain_additions:
                raise BudgetExceededError("moment span did not close within the addition budget")
        return pivot is not None

    for w, vec in _orbit(sys, independent):
        if t.evaluate(vec) != 0:
            return w
    return None


def _orbit(sys: PolynomialSystem, stepped):
    """Yield (word, vector) once per distinct reachable value vector,
    breadth-first, with the shortlex-least word reaching it.  When the next
    one is asked for, the vector is stepped if ``stepped(vector)`` holds."""
    letters, maps, indices = sorted(sys.input_alphabet), sys.maps, sys.indices
    vec = sys.base_vector()
    # keys go through map(), cheaper than a generator per step
    seen = {tuple(map(vec.__getitem__, indices))}
    yield (), vec
    level = [((), vec)] if stepped(vec) else []
    while level:
        nxt = []
        # words are read first letter first: a letter in front of each word of
        # the previous level, letters outermost, keeps the level lexicographic
        for a in letters:
            for w, vec in level:
                new = _step(maps[a], vec)
                key = tuple(map(new.__getitem__, indices))
                if key not in seen:
                    seen.add(key)
                    aw = (a,) + w
                    yield aw, new
                    if stepped(new):
                        nxt.append((aw, new))
        level = nxt


def find_witness(
    sys: PolynomialSystem, t: Polynomial, budget: Budget = DEFAULT_BUDGET, max_length=None
) -> Optional[Word]:
    """Shortest word (lexicographically first among its length) at which t
    evaluates to a nonzero value.  With no ``max_length`` this is exact:
    None iff t vanishes on the whole orbit.  With one, the orbit walk looks
    no further than that length, and None means there is none up to it, or
    none before values over ``max_point_bits`` bits cut the walk short."""
    if not t.variables() <= set(sys.indices):
        raise DomainError("test polynomial mentions variables outside the system")
    if max_length is None:
        return _span_walk(sys, t, budget) if sys.degree <= 1 else _saturate(sys, t, budget)
    for w, vec in _orbit(sys, budget.fits):
        if len(w) > max_length:
            break
        if t.evaluate(vec) != 0:
            return w
        if not budget.fits(vec):
            # the unstepped vector's successors might precede a longer find
            max_length = min(max_length, len(w))
    return None


def decide_zero_on_reachables(
    sys: PolynomialSystem, t: Polynomial, budget: Budget = DEFAULT_BUDGET
) -> Verdict:
    """Equal when t vanishes on the whole orbit, else NotEqual with the
    minimal witness word.  Before the saturation pass, a numeric scan of the
    words up to length 3 answers shallow witnesses without a pull-back."""
    witness = None if sys.degree <= 1 else find_witness(sys, t, budget, max_length=3)
    if witness is None:
        witness = find_witness(sys, t, budget)
    return Equal() if witness is None else NotEqual(witness)


def decide_equal(
    sys_a: PolynomialSystem,
    i_a: str,
    sys_b: PolynomialSystem,
    i_b: str,
    budget: Budget = DEFAULT_BUDGET,
) -> Verdict:
    """Decide pointwise equality of two polynomially recurrent sequences."""
    return _decide_quotients(_indexed(sys_a, i_a), _indexed(sys_b, i_b), budget)


_ONE = Polynomial.const(1)  # the denominator of every indexed shape


def _indexed(sys: PolynomialSystem, i: str) -> tuple:
    """The (system, num, den) shape of the sequence X_i, which is X_i/1."""
    if i not in sys.indices:
        raise DomainError(f"unknown index {i!r}")
    return sys, Polynomial.var(i), _ONE


def _decide_quotients(p: tuple, q: tuple, budget: Budget) -> Verdict:
    """Whether two (system, num, den) shapes agree at every word, by the t of
    the module docstring; an indexed shape's denominator is not multiplied in."""
    (sys_p, num_p, den_p), (sys_q, num_q, den_q) = p, q
    lhs, rhs = _prefixed(num_p, "A_"), _prefixed(num_q, "B_")
    if den_q is not _ONE:
        lhs = lhs * _prefixed(den_q, "B_")
    if den_p is not _ONE:
        rhs = rhs * _prefixed(den_p, "A_")
    return decide_zero_on_reachables(_paired(sys_p, sys_q), lhs - rhs, budget)


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

    def _shape(self) -> tuple:
        """The (system, num, den) shape (g - h)/(fp - gp)."""
        v = Polynomial.var
        return self.system, v(self.num_plus) - v(self.num_minus), v(self.den_plus) - v(self.den_minus)

    def eval(self, w: Word) -> Fraction:
        vec = eval_polynomial_vector(self.system, w)
        num, den = (f.evaluate(vec) for f in self._shape()[1:])
        if den == 0:
            raise DomainError(f"denominator vanished at {w!r}")
        return Fraction(num, den)


def decide_equal_fractions(
    p: FractionPresentation, q: FractionPresentation, budget: Budget = DEFAULT_BUDGET
) -> Verdict:
    """Cross-multiplied zeroness of two fraction presentations on the
    reachable set of the combined system."""
    return _decide_quotients(p._shape(), q._shape(), budget)


# ---------------------------------------------------------------------------
# Zariski closure of the reachable set


def reachable_points(sys: PolynomialSystem, budget: Budget = DEFAULT_BUDGET):
    """The first ``sample_points`` vectors of the orbit walk, as (points,
    closed): closed is True when the walk ended with every point stepped,
    which proves the orbit complete."""
    points = []
    for w, vec in _orbit(sys, budget.fits):
        if len(points) == budget.sample_points:
            return points, False
        points.append(vec)
    return points, all(map(budget.fits, points))


def zariski_closure(sys: PolynomialSystem, budget: Budget = DEFAULT_BUDGET) -> Ideal:
    """The vanishing ideal of the Zariski closure of the reachable set.

    When sampling enumerates the whole orbit (within ``sample_points``), this
    is the exact ideal of its points.  Otherwise the sampled points' basis
    elements of degree up to ``max_degree`` generate a candidate ideal J,
    returned once it is inductive: every generator vanishes at the base
    vector and every generator's pull-back under every letter reduces to 0
    modulo J, so J vanishes on the whole orbit, and J is then the ideal
    generated by all orbit-vanishing polynomials of degree up to the budget.
    Otherwise the first generator that ``find_witness`` refutes adds the
    point at its minimal witness to the fit.  When none is refuted, a
    pull-back that vanishes on the orbit lies outside J, so generators of
    higher degree provably exist and a budget error is raised.  The result
    is the full vanishing ideal whenever that ideal is generated within the
    degree budget.
    """
    variables = tuple(sys.indices)
    points, orbit_closed = reachable_points(sys, budget)
    if orbit_closed:
        return Ideal(points_ideal(points, variables), variables)

    base, letters, tables = sys.base_vector(), sorted(sys.input_alphabet), _tables(sys)
    while True:
        cands = points_ideal(points, variables, budget.max_degree)
        basis = GroebnerBasis(cands, variables, max_basis=budget.max_basis)
        if all(g.evaluate(base) == 0 for g in cands) and not any(
                basis.reduce(_sigma(tables, a, g)) for g in cands for a in letters):
            return Ideal(cands, variables)
        for g in cands:
            refutation = find_witness(sys, g, budget)
            # () is a witness too: the base vector, when no point was sampled
            if refutation is not None:
                points.append(eval_polynomial_vector(sys, refutation))
                break
        else:
            raise BudgetExceededError("closure generators above the degree budget remain; raise the budget")
