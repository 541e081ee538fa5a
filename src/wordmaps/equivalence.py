"""Sequence equality decisions through polynomial ideal theory.

The reachable set of a polynomial recurrence system is the orbit of its base
vector under the per-letter update maps.  A sequence identity holds for every
input word exactly when its defining polynomial vanishes on that whole orbit.

Every exact decision compares two (system, num, den) shapes, quotients
num/den of polynomials over a system, and names the shortlex-least word at
which they differ or proves there is none.  The sequence X_i is X_i/1, a
fraction presentation is (g - h)/(fp - gp), and ``find_witness`` compares
t/1 with 0/1 over the system with no indices.  Two quotients agree at every
word exactly when t = num_p(v_p) den_q(v_q) - num_q(v_q) den_p(v_p)
vanishes on the orbit of the two systems walked side by side: a point is
the pair (v_p, v_q) of their value vectors, each stepped by its own
system's maps.

Before its engines the decision reduces t, exactly.  The indices of both
systems are split into the coarsest congruence that refines their base
values: two indices share a class only when, at every letter, their updates
are one polynomial with each variable replaced by its class, and a class is
the constant c when every member's update reads c at every letter
(``_congruence``; Alpern, Wegman and Zadeck, POPL 1988).  By induction on
the word the members of a class agree at every word and a constant class
keeps its constant, so t rewritten over the classes takes t's value at every
word: t = 0 proves equality, and otherwise the engines run on the system of
the classes in t's cone of influence (Clarke, Grumberg and Peled, *Model
Checking*, 1999), with the same verdict and witness, a class named after its
first member with the prefix A_ or B_; a system compared with the system with
no indices, as in ``find_witness``, takes the same path, and the empty side
adds no class.  An affine pair (every update polynomial of degree <= 1) is
reduced once t is read at the base vector, any other pair after the orbit
walk's head start below.

When the reduced system is affine the decision takes the span walk: the
orbit walk below reads t at each new point, the first nonzero value names
the witness, and a point is stepped only if its moment vector (the values of
the monomials of degree <= deg t) is independent of the earlier ones.
Affine maps act linearly on moment vectors and t is linear in them, so
m(v(w)) = sum c_i m(v(w_i)) over shortlex-smaller w_i gives t(v(uw)) = sum
c_i t(v(uw_i)) for every word u: verdicts stay exact and witnesses minimal
(Tzeng, SIAM J. Comput. 21, 1992; Benedikt, Duff, Sharad and Worrell, LICS
2017).

Otherwise two searches run side by side, and the first to finish answers;
both give the same answer: inequivalence is semi-decided by enumeration
beside the proof of equivalence (Culik and Karhumaki, "A new proof for the
D0L sequence equivalence problem", 1986).  The orbit walk below reads t at
each point of the two systems: its first nonzero value names the minimal
witness, and a walk that ends with every point stepped has met the whole
orbit, which proves t vanishes on it.  It runs alone through its first
point longer than 3 letters, which answers shallow witnesses without a
reduction or a pull-back, and then beside the saturation pass over the
reduced system, over the ascending chain of ideals generated by the
pull-backs g_w = t o P_w, where g_w(base) = t(v(w)).  After each dequeued
pull-back g the walk gets credit for the terms of g and goes on while its
credit is positive, a point costing 1 + bit_length // 64 for each of its
values, so a deep witness among cheap points costs a few pull-backs.  When
the pass stops on a budget, the walk goes on alone for as much credit again
as the pass paid it; its verdict is returned if it reaches one, and the
pass's stop is raised otherwise.  A
FIFO queue of (wa, g_w) pairs, letters in order, meets the words in
shortlex order, and one incremental ``groebner.GroebnerBasis`` tests and
extends the chain.  g_wa is pulled back only when its pair is dequeued, so a
witness leaves the queued pull-backs unbuilt, and from one power table per
letter kept for the whole pass, so each power of an update polynomial is
built once per decision.  The first g_w nonzero at the base vector names the
minimal witness w, and an empty queue proves that t vanishes on the orbit: a
pull-back inside the ideal of earlier generators is not extended, as it and
its extensions combine pull-backs at shortlex-smaller words, which vanish at
the base.  The chain stabilizes (ascending chain condition), so the pass is
total and verdicts never need a variety computation.

``zariski_closure`` computes the vanishing ideal of the orbit closure.  Both
of its paths fit polynomials to sampled orbit points with Buchberger-Moeller
(``groebner.points_ideal``).  A finite orbit enumerated by sampling gets the
exact ideal of its points.  For other orbits, the sampled points' basis
elements of degree <= D generate an ideal J, returned once J is inductive:
its generators vanish at the base vector and their pull-backs under every
letter lie in J, so sigma_a(J) is inside J and J vanishes on the whole orbit
(Sankaranarayanan, Sipma and Manna, POPL 2004).

Sampling, the span walk and the walk beside the pass share one
breadth-first orbit walk, over one system or two side by side, that visits
each distinct point once, at its shortlex-least word: v(w) = v(w') implies
v(uw) = v(uw') for every word u (Tzeng), so dropping repeats keeps
witnesses minimal, and the walk ends on finite orbits.
``sample_points`` and ``max_point_bits`` bound sampling; ``max_point_bits``
bounds the walk beside the pass, which stops at the length of a point it did
not step, as that point's successors might hide a smaller witness, and
leaves the verdict to the pass.  Resource limits raise
``BudgetExceededError``; a verdict is never traded for termination, but a
walk that answers before the pass meets a limit, or within its allowance
after, gives its verdict.
"""

from __future__ import annotations

import math
from collections import deque
from fractions import Fraction
from typing import Optional, Union

from .errors import BudgetExceededError, DomainError, Record
from .groebner import GroebnerBasis, Ideal, _eliminate, points_ideal
from .morphisms import check_index
from .polynomials import Polynomial, _mul_into, _normalised, _powers, _substitute, _wrap, mono_mul
from .recurrences import PolynomialSystem, _step, check_shared_alphabet, eval_polynomial_vector
from .words import Word


class Equal(Record):
    def __bool__(self):
        return True


class NotEqual(Record):
    witness: Word

    def __bool__(self):
        return False


Verdict = Union[Equal, NotEqual]


class Budget(Record):
    """Resource limits for the decision procedures.

    ``chain_additions`` bounds the saturation pass's additions and the span
    walk's rank, ``max_basis`` the pass's basis, ``max_degree`` the closure's
    candidates, ``sample_points`` sampling and ``max_point_bits`` sampling
    and the orbit walk that runs beside the pass; no verdict depends on
    those two.  Each level the walk passes adds a point, so sampled words
    are shorter than that.  Every limit is an int >= 0: another value, which
    a comparison with a count would never meet, is refused.
    """

    chain_additions: int = 400
    max_basis: int = 4000
    max_degree: int = 8
    sample_points: int = 120
    max_point_bits: int = 4096

    def __post_init__(self):
        for name in self._fields:
            n = getattr(self, name)
            if type(n) is not int or n < 0:
                raise DomainError(f"budget {name} must be an int >= 0, not {n!r}")

    def fits(self, vec) -> bool:
        """Whether every value of the vector has at most ``max_point_bits`` bits."""
        return max(map(int.bit_length, vec.values()), default=0) <= self.max_point_bits


DEFAULT_BUDGET = Budget()

_ZERO, _UNIT = Polynomial.zero(), Polynomial.const(1)

_HEAD_START = 3  # the orbit walk runs alone through its first point longer than this


# ---------------------------------------------------------------------------
# pull-backs


def _tables(sys: PolynomialSystem) -> dict:
    """Per letter, a power table of its update map, for one call's pull-backs."""
    return {a: _powers(env) for a, env in sys.maps.items()}


def _sigma(tables: dict, a: str, g: Polynomial) -> Polynomial:
    """Pull g back through the letter-a update map, g(P_{1,a}, ..., P_{n,a}),
    from the calling pass's tables: each power of an image is built once."""
    return _substitute(g.terms, tables[a])


# ---------------------------------------------------------------------------
# the reduction: bisimilar and constant indices, then the cone of influence


def _image(terms: dict, of: dict) -> dict:
    """The term dict of a polynomial whose variable v stands for of[v]: a
    value, an int, or the name of a variable."""
    out = {}
    for m, c in terms.items():
        key = ()
        for v, e in m:
            k = of[v]
            if type(k) is int:
                c *= k**e
            else:
                key = mono_mul(key, ((k, e),))
        if c:
            c += out.get(key, 0)
            if c:
                out[key] = c
            else:
                del out[key]
    return out


def _congruence(sides: tuple) -> list:
    """The coarsest congruence on the indices of the two systems ``sides``
    together that refines their base values, as one class map per side: it
    maps the side's indices, in index order, to their classes, a constant
    class to its value and any other class to its first member's name with
    the side's prefix, A_ or B_.  Two indices of one class take equal values
    at every word, and the indices of a constant class their class's value,
    by induction on the word (Alpern, Wegman and Zadeck, POPL 1988).

    Every class starts as one base value, constant.  A round reads each
    index's updates over the classes, the first round at the base vector,
    and splits the classes by what they read at every letter; an index
    leaves its constant class when it reads anything but the value.  Classes
    only split, so a round that splits none has reached the fixpoint."""
    letters = sorted(sides[0].input_alphabet)
    values = {v for sys in sides for _, v in sys.base}
    # a constant class reads its value at every letter, members or not
    ids, of, rows = {(v, (v,) * len(letters)): v for v in values}, [], []
    for prefix, sys in zip(("A_", "B_"), sides):
        base, steps, maps = sys.base_map, [sys.first_steps[a] for a in letters], [sys.maps[a] for a in letters]
        of.append({i: ids.setdefault((base[i], tuple([vec[i] for vec in steps])), prefix + i)
                   for i in sys.indices})
        rows.append([(i, prefix + i, [m[i].terms for m in maps]) for i in sys.indices])
    reads = {v: (frozenset({((), v)} if v else ()),) * len(letters) for v in values}
    count = len(ids)
    while True:
        ids, new = {(v, sig): v for v, sig in reads.items()}, []
        for side, cls in zip(rows, of):
            new.append({i: ids.setdefault((cls[i], tuple([frozenset(_image(f, cls).items()) for f in updates])), name)
                        for i, name, updates in side})
        if len(ids) == count:
            return of
        count, of = len(ids), new


def _reduced(p: tuple, q: tuple) -> tuple:
    """(sys, t) for two (system, num, den) shapes: t of the module docstring
    over the classes of the coarsest congruence on both systems' indices,
    and the system of the classes in t's cone of influence, the classes t
    reads closed under the reads of their updates, or None when t is 0
    (Clarke, Grumberg and Peled, *Model Checking*, 1999).  A class takes its
    first member's updates over the classes and base value; its index comes
    in its first member's order."""
    (sys_p, num_p, den_p), (sys_q, num_q, den_q) = p, q
    of = _congruence((sys_p, sys_q))
    of_p, of_q = of
    t = _mul_into({}, _image(num_p.terms, of_p), _image(den_q.terms, of_q))
    t = _normalised(_mul_into(t, {m: -c for m, c in _image(num_q.terms, of_q).items()}, _image(den_p.terms, of_p)))
    if not t:
        return None, t
    first = {}
    for sys, cls in zip((sys_p, sys_q), of):
        for i, k in cls.items():
            if type(k) is not int and k not in first:
                first[k] = sys, i, cls
    letters, images, todo = sorted(sys_p.input_alphabet), {}, [v for m in t.terms for v, _ in m]
    while todo:
        k = todo.pop()
        if k not in images:
            sys, i, cls = first[k]
            images[k] = terms = [_image(sys.maps[a][i].terms, cls) for a in letters]
            todo += [v for image in terms for m in image for v, _ in m]
    indices = [k for k in first if k in images]
    rules = [((k, a), _wrap(image)) for k in indices for a, image in zip(letters, images[k])]
    base = [(k, sys.base_map[i]) for k, (sys, i, _) in first.items() if k in images]
    ring = "Z" if "Z" in (sys_p.ring, sys_q.ring) else "N"
    return PolynomialSystem(tuple(indices), sys_p.input_alphabet, tuple(sorted(rules)), tuple(sorted(base)), ring), t


# ---------------------------------------------------------------------------
# the saturation pass, the span walk and the orbit walk


def vanishes_on_reachables(
    sys: PolynomialSystem, t: Polynomial, budget: Budget = DEFAULT_BUDGET
) -> bool:
    """Decide whether t vanishes at every reachable value vector."""
    return find_witness(sys, t, budget) is None


def _saturate(sys: PolynomialSystem, t: Polynomial, budget: Budget, probe) -> Optional[Word]:
    """The shortlex-least word w with t(v(w)) != 0, or None when there is
    none: the saturation pass of the module docstring.  After each dequeued
    pull-back g, ``probe(number of terms of g)`` returns the verdict of the
    search running beside the pass, or None while it has none."""
    letters = sorted(sys.input_alphabet)
    point = sys.base_vector()
    basis = GroebnerBasis([], sys.indices, max_basis=budget.max_basis)
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
        answer = probe(len(g.terms))
        if answer is not None:
            return None if answer else answer.witness
        if basis.add(g):
            additions += 1
            if additions > budget.chain_additions:
                raise BudgetExceededError(
                    "ideal chain did not stabilize within the addition budget"
                )
            queue.extend((w + (a,), g) for a in letters)
    return None


def _span_walk(sys: PolynomialSystem, t: Polynomial, budget: Budget) -> Optional[Word]:
    """The span walk of the module docstring over an affine system."""
    # moment j >= 1 is moment p times the variable in slot k, for
    # (p, k) = links[j - 1]: each monomial of degree <= deg t once, its
    # variables in the system's index order
    indices, links, level, rows = sys.indices, [], [(0, 0)], []
    for _ in range(t.degree()):
        grown = [(p, k) for p, low in level for k in range(low, len(indices))]
        level = [(len(links) + j, k) for j, (_, k) in enumerate(grown, 1)]
        links += grown

    def independent(point):
        values, moments = [point[0][i] for i in indices], [1]
        for p, k in links:
            moments.append(moments[p] * values[k])
        pivot, row, _ = _eliminate(moments, {}, rows)
        if pivot is not None:
            rows.append((pivot, row, {}))
            if len(rows) > budget.chain_additions:
                raise BudgetExceededError("moment span did not close within the addition budget")
        return pivot is not None

    for w, (vec,) in _orbit((sys,), independent):
        if t.evaluate(vec) != 0:
            return w
    return None


def _paced_walk(sides: tuple, value, budget: Budget):
    """The orbit walk that reads t beside the saturation pass, as a generator
    of answers: NotEqual at the first point where ``value`` is nonzero, Equal
    when the walk ended with every point stepped, None while it has neither.
    The first ``next`` runs the head start, through the first point longer
    than ``_HEAD_START``; from there each point costs 1 + bit_length // 64
    for each of its values, paid from the credit that ``send`` adds, and the
    walk goes on while its credit is positive.  It stops at the length of the
    first point it did not step, and then answers None for ever."""
    cap, credit, answer, big = math.inf, 0, None, None
    # _orbit asks whether to step a point when the walk moves on from it
    for w, point in _orbit(sides, lambda point: point is not big):
        if len(w) > cap:
            break
        if value(point) != 0:
            answer = NotEqual(w)
            break
        bits = [x.bit_length() for vec in point for x in vec.values()]
        if max(bits, default=0) > budget.max_point_bits:
            # the unstepped point's successors might precede a longer find
            big, cap = point, min(cap, len(w))
        if len(w) > _HEAD_START:
            credit -= len(bits) + sum(b >> 6 for b in bits)
            while credit <= 0:
                credit += yield None
    else:
        if cap == math.inf:
            answer = Equal()
    while True:
        yield answer


def _slots(sides: tuple) -> list:
    """(side, index) for every variable of the sides, in the sides' index order."""
    return [(s, i) for s, sys in enumerate(sides) for i in sys.indices]


def _orbit(sides: tuple, stepped):
    """Yield (word, point) once per distinct reachable point, breadth-first,
    with the shortlex-least word reaching it.  A point is the tuple of the
    sides' value vectors, each stepped by its own system's maps, and two
    points are the same when their values in the sides' index order are;
    the sides share one input alphabet.  When the next point is asked for,
    the point is stepped if ``stepped(point)`` holds."""
    letters, maps, slots = sorted(sides[0].input_alphabet), [sys.maps for sys in sides], _slots(sides)
    point = tuple([sys.base_vector() for sys in sides])
    seen = {tuple([point[s][i] for s, i in slots])}
    yield (), point
    level = [((), point)] if stepped(point) else []
    while level:
        nxt = []
        # words are read first letter first: a letter in front of each word of
        # the previous level, letters outermost, keeps the level lexicographic
        for a in letters:
            step = [m[a] for m in maps]
            for w, point in level:
                new = tuple(map(_step, point, step))
                key = tuple([new[s][i] for s, i in slots])
                if key not in seen:
                    seen.add(key)
                    aw = (a,) + w
                    yield aw, new
                    if stepped(new):
                        nxt.append((aw, new))
        level = nxt


def find_witness(sys: PolynomialSystem, t: Polynomial, budget: Budget = DEFAULT_BUDGET) -> Optional[Word]:
    """Shortest word (lexicographically first among its length) at which t
    evaluates to a nonzero value, or None iff t vanishes on the whole orbit:
    the comparison of t/1 over ``sys`` with 0/1 over the system with no
    indices."""
    if not t.variables() <= set(sys.indices):
        raise DomainError("test polynomial mentions variables outside the system")
    return _witness((sys, t, _UNIT), (PolynomialSystem((), sys.input_alphabet, (), ()), _ZERO, _UNIT), budget)


def _witness(p: tuple, q: tuple, budget: Budget) -> Optional[Word]:
    """The shortlex-least word at which two (system, num, den) shapes differ,
    or None when they agree at every word: the t of the module docstring.
    An affine pair reads t at the base vector first, and any other pair in
    the orbit walk's head start, at the points of the two systems walked side
    by side.  Without an answer there, t is reduced: a zero t is None, and
    otherwise the span walk, or on a reduced system that is not affine the
    saturation pass with the walk going on beside it, decides t over the
    reduced system; after a budget stop of that pass the walk goes on alone
    for as much credit again as the pass paid it, and the stop is raised
    only if the walk has no answer then."""
    (sys_p, num_p, den_p), (sys_q, num_q, den_q) = p, q
    check_shared_alphabet(sys_p, sys_q)

    def value(point):
        v_p, v_q = point
        return num_p.evaluate(v_p) * den_q.evaluate(v_q) - num_q.evaluate(v_q) * den_p.evaluate(v_p)

    if sys_p.affine and sys_q.affine:
        if value((sys_p.base_map, sys_q.base_map)) != 0:
            return ()
    else:
        walk = _paced_walk((sys_p, sys_q), value, budget)
        answer = next(walk)
        if answer is not None:
            return None if answer else answer.witness
    sys, t = _reduced(p, q)
    if not t:
        return None
    if sys.affine:
        return _span_walk(sys, t, budget)
    paid = 0

    def probe(terms):
        nonlocal paid
        paid += terms
        return walk.send(terms)

    try:
        return _saturate(sys, t, budget, probe)
    except BudgetExceededError:
        # the walk goes on alone for as much credit again as the pass paid it
        answer = walk.send(paid)
        if answer is None:
            raise
        return None if answer else answer.witness


def _verdict(witness: Optional[Word]) -> Verdict:
    """Equal when there is no witness, else NotEqual with it."""
    return Equal() if witness is None else NotEqual(witness)


def decide_zero_on_reachables(
    sys: PolynomialSystem, t: Polynomial, budget: Budget = DEFAULT_BUDGET
) -> Verdict:
    """The verdict of ``find_witness``: Equal when t vanishes on the whole
    orbit, else NotEqual with the minimal witness word."""
    return _verdict(find_witness(sys, t, budget))


def decide_equal(
    sys_a: PolynomialSystem,
    i_a: str,
    sys_b: PolynomialSystem,
    i_b: str,
    budget: Budget = DEFAULT_BUDGET,
) -> Verdict:
    """Decide pointwise equality of two polynomially recurrent sequences."""
    return _verdict(_witness(_indexed(sys_a, i_a), _indexed(sys_b, i_b), budget))


def _indexed(sys: PolynomialSystem, i: str) -> tuple:
    """The (system, num, den) shape of the sequence X_i, which is X_i/1."""
    check_index(sys, i)
    return sys, Polynomial.var(i), _UNIT


class FractionPresentation(Record):
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
            check_index(self.system, i)

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
    return _verdict(_witness(p._shape(), q._shape(), budget))


# ---------------------------------------------------------------------------
# Zariski closure of the reachable set


def reachable_points(sys: PolynomialSystem, budget: Budget = DEFAULT_BUDGET):
    """The first ``sample_points`` vectors of the orbit walk, as (points,
    closed): closed is True when the walk ended with every point stepped,
    which proves the orbit complete."""
    points, closed = [], True

    def stepped(point):
        nonlocal closed
        fits = budget.fits(point[0])
        closed = closed and fits
        return fits

    for w, (vec,) in _orbit((sys,), stepped):
        if len(points) == budget.sample_points:
            return points, False
        points.append(vec)
    return points, closed


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
