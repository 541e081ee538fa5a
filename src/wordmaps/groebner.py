"""Buchberger Groebner bases, normal forms, elimination, intersections, and
the ideals of finite point sets.

Polynomials are converted to dense exponent tuples over an explicit variable
sequence, with primitive integer coefficients (denominators cleared, content
divided out), for the duration of a computation.  The kernel is fraction-free:
reduction cross-multiplies by leading coefficients instead of dividing, and
points are eliminated Bareiss-style.  Division pops the working terms from a
heap, computing each term's order key once.  Results come back as Polynomials,
made monic (or rescaled to the exact remainder) only on the way out.  Supported
monomial orders, with flat int tuple keys:
grevlex (default), lex, and the block orders used for elimination (the
dropped block is compared first, so the basis splits off the elimination
ideal).  A ``GroebnerBasis`` is completed incrementally (Gebauer and Moeller,
J. Symb. Comp. 6, 1988): ``add`` queues only the new element's S-pairs.
``groebner`` returns its reduced form, deterministic given the generator
list, the variable sequence, and the order.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

from .errors import BudgetExceededError, DomainError
from .polynomials import Polynomial

Exps = tuple[int, ...]


def _lex_key(e: Exps):
    return e


def _grevlex_key(e: Exps):
    return (sum(e), *[-x for x in reversed(e)])


def _make_key(order: str, block: int = 0):
    if order == "lex":
        return _lex_key
    if order == "grevlex":
        return _grevlex_key
    if order == "block-grevlex":
        return lambda e: _grevlex_key(e[:block]) + _grevlex_key(e[block:])
    raise DomainError(f"unknown monomial order {order!r}")


def _to_internal(p: Polynomial, variables: Sequence[str]) -> tuple[dict[Exps, int], Fraction]:
    """The primitive integer polynomial q and the rational m with p = m*q."""
    index = {v: i for i, v in enumerate(variables)}
    den = math.lcm(*(c.denominator for c in p.terms.values()))
    out: dict[Exps, int] = {}
    for mono, c in p.terms.items():
        exps = [0] * len(variables)
        for v, e in mono:
            if v not in index:
                raise DomainError(f"variable {v!r} missing from the variable sequence")
            exps[index[v]] = e
        out[tuple(exps)] = c.numerator * (den // c.denominator)
    content = math.gcd(*out.values()) or 1
    return {e: c // content for e, c in out.items()}, Fraction(content, den)


def _from_internal(d: dict[Exps, int], variables: Sequence[str], scale: Fraction) -> Polynomial:
    """The polynomial scale*d."""
    terms = {}
    for exps, c in d.items():
        mono = tuple((variables[i], e) for i, e in enumerate(exps) if e)
        terms[mono] = c * scale
    return Polynomial(terms)


def _primitive(d: dict[Exps, int]) -> dict[Exps, int]:
    """d divided by the gcd of its coefficients."""
    g = math.gcd(*d.values())
    return d if g == 1 else {m: c // g for m, c in d.items()}


def _divides(a: Exps, b: Exps) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _sub_exps(a: Exps, b: Exps) -> Exps:
    return tuple(x - y for x, y in zip(a, b))


def _add_exps(a: Exps, b: Exps) -> Exps:
    return tuple(x + y for x, y in zip(a, b))


def _lcm_exps(a: Exps, b: Exps) -> Exps:
    return tuple(max(x, y) for x, y in zip(a, b))


def _lt(d: dict[Exps, int], key) -> Exps:
    return max(d, key=key)


def _reduce(p: dict, basis: list[dict], lts: list[Exps], key) -> tuple[dict, int]:
    """Full multivariate division of p by the nonzero basis, whose leading
    terms are lts, without division: the remainder comes back as s*r, where
    r is the remainder over the rationals and s a nonzero integer.  A term is
    pushed on a heap of negated keys as it enters work; cancelled ones are
    skipped when popped."""
    work = dict(p)
    heap = [([-x for x in key(m)], m) for m in work]
    heapq.heapify(heap)
    rem: dict[Exps, int] = {}
    s = 1
    while work:
        t = heapq.heappop(heap)[1]
        c = work.get(t)
        if c is None:
            continue
        for g_lt, g in zip(lts, basis):
            if _divides(g_lt, t):
                lg = g[g_lt]
                q = math.gcd(c, lg)
                if lg < 0:
                    q = -q
                # lg*work - c*shift*g, both factors divided by their gcd
                a, b = lg // q, c // q
                if a != 1:
                    s *= a
                    for m in work:
                        work[m] *= a
                    for m in rem:
                        rem[m] *= a
                shift = _sub_exps(t, g_lt)
                for m, gc in g.items():
                    mm = _add_exps(m, shift)
                    v = work.get(mm, 0) - b * gc
                    if mm not in work:
                        heapq.heappush(heap, ([-x for x in key(mm)], mm))
                    if v:
                        work[mm] = v
                    else:
                        work.pop(mm, None)
                break
        else:
            rem[t] = c
            del work[t]
    return rem, s


def _spoly(f: dict, g: dict, key) -> dict:
    """lc(g)*(l/lt(f))*f - lc(f)*(l/lt(g))*g for l the lcm of the leading
    terms: lc(f)*lc(g) times the S-polynomial of the monic f and g."""
    lf, lg = _lt(f, key), _lt(g, key)
    cf, cg = f[lf], g[lg]
    l = _lcm_exps(lf, lg)
    out: dict[Exps, int] = {}
    for m, c in f.items():
        mm = _add_exps(m, _sub_exps(l, lf))
        out[mm] = out.get(mm, 0) + cg * c
    for m, c in g.items():
        mm = _add_exps(m, _sub_exps(l, lg))
        v = out.get(mm, 0) - cf * c
        if v:
            out[mm] = v
        else:
            out.pop(mm, None)
    return {m: c for m, c in out.items() if c}


class GroebnerBasis:
    """A minimal Groebner basis of primitive integer polynomials G, with leading
    terms LT.  Pending S-pairs (i, j), i > j, wait in one heap keyed by their
    lcm and are skipped by the product and chain criteria.  ``peak`` is the
    largest size an appended element brought G to; over ``max_basis`` it raises."""

    def __init__(self, gens: Iterable[Polynomial], variables: Sequence[str], order: str = "grevlex",
                 block: int = 0, max_basis: Optional[int] = None):
        self.variables = tuple(variables)
        self.key = _make_key(order, block)
        self.max_basis = max_basis
        self.G: list[dict] = []
        self.LT: list[Exps] = []
        self.peak = 0
        self._pairs: list[tuple] = []
        self._done: set[tuple[int, int]] = set()
        # every pair among the first _old elements is treated
        self._old = 0
        for p in gens:
            if not p.is_zero():
                self._push(_to_internal(p, self.variables)[0])
        self._complete()

    def reduce(self, p: Polynomial) -> dict:
        """A nonzero multiple of p's normal form, empty iff p lies in the ideal."""
        return _reduce(_to_internal(p, self.variables)[0], self.G, self.LT, self.key)[0]

    def add(self, p: Polynomial) -> bool:
        """Extend the ideal by p, queueing only its remainder's pairs; False if p is in it."""
        r = self.reduce(p)
        if r:
            self._append(r)
            self._complete()
        return bool(r)

    def check_budget(self, max_basis: Optional[int]) -> None:
        if max_basis is not None and self.peak > max_basis:
            raise BudgetExceededError(f"Groebner basis exceeded the size budget ({max_basis})")

    def reduced(self) -> list[Polynomial]:
        """The reduced monic basis, by decreasing leading term."""
        G = list(self.G)
        # one pass suffices: the leading terms never change, so an element
        # stays reduced once its tail is
        for i, g in enumerate(G):
            r, _ = _reduce(g, G[:i] + G[i + 1:], self.LT[:i] + self.LT[i + 1:], self.key)
            G[i] = _primitive(r)
        ranked = sorted(zip(self.LT, G), key=lambda tg: self.key(tg[0]), reverse=True)
        return [_from_internal(g, self.variables, Fraction(1, g[t])) for t, g in ranked]

    def _push(self, g: dict) -> None:
        self.G.append(g)
        self.LT.append(_lt(g, self.key))
        i = len(self.G) - 1
        for j in range(i):
            lcm = _lcm_exps(self.LT[i], self.LT[j])
            heapq.heappush(self._pairs, (self.key(lcm), i, j, lcm))

    def _append(self, r: dict) -> None:
        self.peak = max(self.peak, len(self.G) + 1)
        self.check_budget(self.max_basis)
        self._push(_primitive(r))

    def _treated(self, i: int, j: int) -> bool:
        i, j = max(i, j), min(i, j)
        return i < self._old or (i, j) in self._done

    def _complete(self) -> None:
        G, LT = self.G, self.LT
        while self._pairs:
            _, i, j, lcm = heapq.heappop(self._pairs)
            self._done.add((i, j))
            if lcm == _add_exps(LT[i], LT[j]):
                continue
            if any(
                k != i and k != j and _divides(LT[k], lcm)
                and self._treated(i, k) and self._treated(j, k)
                for k in range(len(G))
            ):
                continue
            r, _ = _reduce(_spoly(G[i], G[j], self.key), G, LT, self.key)
            if r:
                self._append(r)
        # drop every element whose leading term another one's divides; of
        # equal leading terms, the first stays
        keep = [i for i, t in enumerate(LT) if not any(
            _divides(u, t) and (u != t or j < i) for j, u in enumerate(LT) if j != i)]
        self.G = [G[i] for i in keep]
        self.LT = [LT[i] for i in keep]
        self._done.clear()
        self._old = len(self.G)


def default_variables(polys: Iterable[Polynomial]) -> tuple[str, ...]:
    vs: set[str] = set()
    for p in polys:
        vs |= p.variables()
    return tuple(sorted(vs))


def groebner(
    gens: Iterable[Polynomial],
    variables: Optional[Sequence[str]] = None,
    order: str = "grevlex",
    block: int = 0,
    max_basis: Optional[int] = None,
) -> list[Polynomial]:
    """The reduced, auto-reduced, monic Groebner basis of the given ideal."""
    gens = list(gens)
    if variables is None:
        variables = default_variables(gens)
    return GroebnerBasis(gens, variables, order, block, max_basis).reduced()


def s_polynomial(
    f: Polynomial, g: Polynomial, variables: Optional[Sequence[str]] = None, order: str = "grevlex"
) -> Polynomial:
    if variables is None:
        variables = default_variables([f, g])
    key = _make_key(order)
    fi, gi = _to_internal(f, variables)[0], _to_internal(g, variables)[0]
    scale = Fraction(1, fi[_lt(fi, key)] * gi[_lt(gi, key)])
    return _from_internal(_spoly(fi, gi, key), variables, scale)


def normal_form(
    p: Polynomial,
    basis: Iterable[Polynomial],
    variables: Optional[Sequence[str]] = None,
    order: str = "grevlex",
    block: int = 0,
) -> Polynomial:
    """Division remainder of p by a basis (unique when the basis is Groebner
    for the order).  Fresh variables of p extend the sequence at the end,
    which preserves the order among the old monomials."""
    basis = list(basis)
    if variables is None:
        variables = default_variables(basis)
    extra = sorted(p.variables() - set(variables))
    variables = tuple(variables) + tuple(extra)
    key = _make_key(order, block)
    internal = [_to_internal(g, variables)[0] for g in basis if not g.is_zero()]
    lts = [_lt(g, key) for g in internal]
    q, m = _to_internal(p, variables)
    r, s = _reduce(q, internal, lts, key)
    return _from_internal(r, variables, m / s)


class Ideal:
    """A polynomial ideal given by generators, with a cached basis per order."""

    def __init__(self, generators: Iterable[Polynomial], variables=None):
        self.generators = tuple(g for g in generators if not g.is_zero())
        self._variables = None if variables is None else tuple(variables)
        self._bases: dict[str, GroebnerBasis] = {}

    def variables(self) -> tuple[str, ...]:
        if self._variables is not None:
            return self._variables
        return default_variables(self.generators)

    def _basis(self, order: str, max_basis=None) -> GroebnerBasis:
        gb = self._bases.get(order)
        if gb is None:
            gb = GroebnerBasis(self.generators, self.variables(), order, max_basis=max_basis)
            self._bases[order] = gb
        # a cached basis answers to the budget it would have met when computed
        gb.check_budget(max_basis)
        return gb

    def groebner_basis(self, order: str = "grevlex", max_basis=None) -> list[Polynomial]:
        return self._basis(order, max_basis).reduced()

    def contains(self, p: Polynomial, order: str = "grevlex") -> bool:
        if p.is_zero():
            return True
        if not self.generators:
            return False
        if p.variables() <= set(self.variables()):
            return not self._basis(order).reduce(p)
        return normal_form(p, self.groebner_basis(order), self.variables(), order).is_zero()

    def is_zero_ideal(self) -> bool:
        return not self.generators

    def same_ideal(self, other: "Ideal") -> bool:
        return all(self.contains(g) for g in other.generators) and all(
            other.contains(g) for g in self.generators
        )

    def __repr__(self):
        gens = ", ".join(repr(g) for g in self.generators) or "0"
        return f"<{gens}>"


def ideal_membership(p: Polynomial, ideal: Ideal, order: str = "grevlex") -> bool:
    return ideal.contains(p, order)


def eliminate(ideal: Ideal, drop: Iterable[str], max_basis=None) -> Ideal:
    """The intersection with the subring that omits the dropped variables,
    via a block order putting the dropped block first."""
    drop = set(drop)
    keep = [v for v in ideal.variables() if v not in drop]
    dropped = sorted(drop & set(ideal.variables()))
    if not dropped:
        return Ideal(ideal.generators, keep)
    variables = tuple(dropped) + tuple(keep)
    basis = groebner(
        ideal.generators, variables, order="block-grevlex", block=len(dropped), max_basis=max_basis
    )
    kept = [g for g in basis if g.variables() <= set(keep)]
    return Ideal(kept, keep)


def _fresh_var(taken, stem="t"):
    name = f"_{stem}"
    n = 0
    while name in taken:
        n += 1
        name = f"_{stem}{n}"
    return name


def ideal_intersect(i: Ideal, j: Ideal, max_basis=None) -> Ideal:
    """t*I + (1-t)*J, then eliminate t."""
    vs = set(i.variables()) | set(j.variables())
    t = _fresh_var(vs)
    tp = Polynomial.var(t)
    gens = [tp * g for g in i.generators] + [(Polynomial.const(1) - tp) * g for g in j.generators]
    combined = Ideal(gens, tuple([t] + sorted(vs)))
    return eliminate(combined, {t}, max_basis=max_basis)


def in_radical(p: Polynomial, ideal: Ideal, max_basis=None) -> bool:
    """Rabinowitsch trick: p is in the radical iff 1 lies in the ideal
    extended with 1 - z*p for a fresh z."""
    if p.is_zero():
        return True
    vs = set(ideal.variables()) | p.variables()
    z = _fresh_var(vs, "z")
    gens = list(ideal.generators) + [Polynomial.const(1) - Polynomial.var(z) * p]
    basis = groebner(gens, tuple(sorted(vs)) + (z,), order="grevlex", max_basis=max_basis)
    return any(g.is_constant() and not g.is_zero() for g in basis)


def _eliminate(vec: list[int], poly: dict, rows) -> tuple[Optional[int], list[int], dict]:
    """Reduce the integer vector vec, and the polynomial poly it carries, against
    echelon rows (pivot, row, row_poly) fraction-free, keeping the pair primitive.
    Returns vec's first nonzero position or None, vec and poly."""
    for pivot, row, row_poly in rows:
        c = vec[pivot]
        if c:
            # d*vec - c*row with d the row's pivot value, then divide the
            # pair by its content
            d = row[pivot]
            g = math.gcd(c, d)
            d, c = d // g, c // g
            vec = [d * a - c * b for a, b in zip(vec, row)]
            for m in poly:
                poly[m] *= d
            for m, rc in row_poly.items():
                poly[m] = poly.get(m, 0) - c * rc
            g = math.gcd(*vec, *poly.values())
            if g > 1:
                vec = [a // g for a in vec]
                poly = {m: a // g for m, a in poly.items()}
    return next((k for k, a in enumerate(vec) if a), None), vec, poly


def points_ideal(
    points: Iterable[Mapping[str, int]], variables: Sequence[str], max_degree: Optional[int] = None
) -> list[Polynomial]:
    """The reduced grevlex Groebner basis of the ideal of all polynomials
    vanishing on a finite point set (Buchberger-Moeller).

    Monomials are visited in increasing grevlex order, skipping multiples of
    the leading terms found so far.  A monomial's evaluation vector over the
    points is reduced against those of the standard monomials before it: if
    it reduces to zero, t - sum c*s is a basis element with leading term t;
    otherwise t is standard and its successors x_i*t are queued.  With
    max_degree=D the visit stops above degree D, leaving the basis elements
    of degree <= D; grevlex is degree-compatible, so these generate the
    ideal of all vanishing polynomials of degree <= D.

    Coordinates must be ints (a DomainError names the variable of any other
    value): the elimination is fraction-free, on integer vectors kept
    primitive together with their polynomials.
    """
    variables = tuple(variables)
    pts = []
    for p in points:
        for v in variables:
            if not isinstance(p[v], int):
                raise DomainError(f"points_ideal needs integer coordinates; {v!r} is {p[v]!r}")
        pts.append(tuple(p[v] for v in variables))
    # echelon rows: (pivot, integer evaluation vector, the polynomial it evaluates)
    rows: list[tuple[int, list[int], dict[Exps, int]]] = []
    basis: list[dict[Exps, int]] = []
    leads: list[Exps] = []
    start = (0,) * len(variables)
    queue = [(_grevlex_key(start), start)]
    queued = {start}
    while queue:
        _, t = heapq.heappop(queue)
        if max_degree is not None and sum(t) > max_degree:
            break
        if any(_divides(lead, t) for lead in leads):
            continue
        vec = [math.prod(c**e for c, e in zip(pt, t)) for pt in pts]
        pivot, vec, poly = _eliminate(vec, {t: 1}, rows)
        if pivot is None:
            basis.append({m: c for m, c in poly.items() if c})
            leads.append(t)
            continue
        rows.append((pivot, vec, poly))
        for i in range(len(t)):
            u = t[:i] + (t[i] + 1,) + t[i + 1:]
            if u not in queued:
                queued.add(u)
                heapq.heappush(queue, (_grevlex_key(u), u))
    # poly[t] is the leading coefficient of the element with leading term t
    return [_from_internal(g, variables, Fraction(1, g[t])) for g, t in zip(basis, leads)]
