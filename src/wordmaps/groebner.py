"""Buchberger Groebner bases, normal forms, elimination, intersections, and
the ideals of finite point sets.

During a computation a polynomial maps packed monomials to primitive integer
coefficients (denominators cleared, content divided out).  A packed monomial
is one int (Monagan and Pearce, CASC 2007): the order's key fields above the
exponents e_1..e_n, each field W bits with a guard top bit.  Grevlex keys are
the partial sums e_1+...+e_n, ..., e_1+e_2, e_1, comparing like (deg, -e_n,
..., -e_2); lex has none; a block order, used for elimination with the
dropped block first, has one grevlex group per block.  Comparing monomials
compares ints, multiplying adds them, and a divides b iff b - a sets no guard
bit.  W follows the inputs' degrees; a field reaching 2^(W-2) raises
``_Overflow`` and the work is redone at 2W, so no field wraps.  Heap division
(Monagan and Pearce, J. Symb. Comp. 46, 2011) cross-multiplies by leading
coefficients and points are eliminated Bareiss-style, fraction-free; results
are made monic (or rescaled to the exact remainder) on the way out.  A
``GroebnerBasis`` is completed incrementally (Gebauer and Moeller, J. Symb.
Comp. 6, 1988): ``add`` queues only the new element's S-pairs.  ``groebner``
returns its reduced form, deterministic given the generators, the variable
sequence, and the order.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

from .errors import BudgetExceededError, DomainError
from .polynomials import Polynomial, _normalised


class _Overflow(Exception):
    """A monomial field reached 2^(W-2)."""


@functools.lru_cache(maxsize=64)
class _Codec:
    """Packing of monomials over n variables for an order, W bits a field."""

    def __init__(self, order: str, n: int, block: int, width: int):
        groups = {"lex": [], "grevlex": [(0, n)], "block-grevlex": [(0, block), (block, n)]}
        if order not in groups:
            raise DomainError(f"unknown monomial order {order!r}")
        # each field as the range of variables it sums, from the top
        fields = [range(lo, k) for lo, hi in groups[order] for k in range(hi, lo, -1)]
        fields += [range(i, i + 1) for i in range(n)]
        top = len(fields) - 1
        self.spec, self.width = (order, n, block), width
        self.cols = [sum(1 << width * (top - f) for f, vs in enumerate(fields) if i in vs) for i in range(n)]
        self.guard = sum(1 << width * f + width - 1 for f in range(top + 1))
        # the top two bits of every field: one of them set is an overflow
        self.full = self.guard | self.guard >> 1
        self.mask = (1 << width) - 1
        self.shifts = [width * (n - 1 - i) for i in range(n)]

    def pack(self, exps) -> int:
        return sum(e * c for e, c in zip(exps, self.cols))

    def unpack(self, m: int) -> tuple[int, ...]:
        return tuple(m >> s & self.mask for s in self.shifts)

    def lcm(self, a: int, b: int) -> int:
        return self.pack(map(max, self.unpack(a), self.unpack(b)))


def _codec(order: str, n: int, block: int, degree: int) -> _Codec:
    """The codec whose fields stay below 2^(W-2) on monomials of this degree."""
    return _Codec(order, n, block, max(8, degree.bit_length() + 2))


def _widening(codec: _Codec, compute):
    """compute(codec), redone at twice the width while a field overflows."""
    while True:
        try:
            return compute(codec)
        except _Overflow:
            codec = _Codec(*codec.spec, 2 * codec.width)


def _to_internal(p: Polynomial, variables: Sequence[str], codec: _Codec) -> tuple[dict[int, int], Fraction]:
    """The primitive integer polynomial q and the rational m with p = m*q."""
    missing = p.variables() - set(variables)
    if missing:
        raise DomainError(f"variable {min(missing)!r} missing from the variable sequence")
    if p.degree() >= 1 << codec.width - 2:
        raise _Overflow
    cols = dict(zip(variables, codec.cols))
    den = math.lcm(*(c.denominator for c in p.terms.values()))
    out = {sum(e * cols[v] for v, e in mono): c.numerator * (den // c.denominator) for mono, c in p.terms.items()}
    content = math.gcd(*out.values()) or 1
    return {m: c // content for m, c in out.items()}, Fraction(content, den)


def _from_internal(d: dict[int, int], variables: Sequence[str], scale: Fraction, codec: _Codec) -> Polynomial:
    """The polynomial scale*d, for a nonzero Fraction scale, its monomials
    spelled in variable-name order whatever the order of the sequence."""
    mask, spell = codec.mask, sorted(zip(variables, codec.shifts))
    return _normalised({tuple([(v, e) for v, s in spell if (e := m >> s & mask)]): c * scale
                        for m, c in d.items()})


def _primitive(d: dict[int, int]) -> dict[int, int]:
    """d divided by the gcd of its coefficients."""
    g = math.gcd(*d.values())
    return d if g == 1 else {m: c // g for m, c in d.items()}


def _reduce(p: dict, basis: list[dict], lts: list[int], codec: _Codec) -> tuple[dict, int]:
    """Full multivariate division of p by the nonzero basis, whose leading
    terms are lts, without division: the remainder comes back as s*r, for r
    the remainder over the rationals and s a positive integer.  A term enters
    a heap of negated monomials as it enters work; cancelled ones are skipped."""
    guard, full = codec.guard, codec.full
    push, pop = heapq.heappush, heapq.heappop
    work = dict(p)
    heap = [-m for m in work]
    heapq.heapify(heap)
    rem: dict[int, int] = {}
    s = 1
    while work:
        t = -pop(heap)
        c = work.get(t)
        if c is None:
            continue
        for g_lt, g in zip(lts, basis):
            shift = t - g_lt
            if not shift & guard:
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
                for m, gc in g.items():
                    mm = m + shift
                    if mm & full:
                        raise _Overflow
                    v = work.get(mm, 0) - b * gc
                    if mm not in work:
                        push(heap, -mm)
                    if v:
                        work[mm] = v
                    else:
                        work.pop(mm, None)
                break
        else:
            rem[t] = c
            del work[t]
    return rem, s


def _spoly(f: dict, g: dict, codec: _Codec) -> dict:
    """lc(g)*(l/lt(f))*f - lc(f)*(l/lt(g))*g for l the lcm of the leading
    terms: lc(f)*lc(g) times the S-polynomial of the monic f and g."""
    lf, lg = max(f), max(g)
    cf, cg = f[lf], g[lg]
    l = codec.lcm(lf, lg)
    out: dict[int, int] = {}
    for d, shift, sign in ((f, l - lf, cg), (g, l - lg, -cf)):
        for m, c in d.items():
            mm = m + shift
            if mm & codec.full:
                raise _Overflow
            out[mm] = out.get(mm, 0) + sign * c
    return {m: c for m, c in out.items() if c}


class GroebnerBasis:
    """A minimal Groebner basis of primitive integer polynomials G, with leading
    terms LT, packed by ``codec``.  Pending S-pairs (lcm, i, j), i > j, wait in
    one heap and are skipped by the product and chain criteria.  ``peak`` is
    the largest size an appended element brought G to; over ``max_basis`` it raises."""

    def __init__(self, gens: Iterable[Polynomial], variables: Sequence[str], order: str = "grevlex",
                 block: int = 0, max_basis: Optional[int] = None):
        gens = [p for p in gens if not p.is_zero()]
        self.variables = tuple(variables)
        self.codec = _codec(order, len(self.variables), block, max((p.degree() for p in gens), default=0))
        self.max_basis = max_basis
        self.G: list[dict] = []
        self.LT: list[int] = []
        self.peak = 0
        self._pairs: list[tuple] = []
        self._done: set[tuple[int, int]] = set()
        # every pair among the first _old elements is treated
        self._old = 0
        for p in gens:
            self._push(_to_internal(p, self.variables, self.codec)[0])
        self._complete()

    def _widening(self, compute):
        """``_widening`` that repacks the basis to each wider codec; the pairs stay a heap."""
        def repacked(codec):
            old = self.codec
            if codec is not old:
                self.codec = codec
                self.G[:] = [{codec.pack(old.unpack(m)): c for m, c in g.items()} for g in self.G]
                self.LT[:] = [codec.pack(old.unpack(t)) for t in self.LT]
                self._pairs[:] = [(codec.pack(old.unpack(l)), i, j) for l, i, j in self._pairs]
            return compute(codec)

        return _widening(self.codec, repacked)

    def reduce(self, p: Polynomial) -> dict:
        """A nonzero multiple of p's normal form, empty iff p lies in the ideal."""
        return self._widening(lambda c: _reduce(_to_internal(p, self.variables, c)[0], self.G, self.LT, c)[0])

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
        def tails(codec):
            G = list(self.G)
            # one pass suffices: the leading terms never change, so an element
            # stays reduced once its tail is
            for i, g in enumerate(G):
                G[i] = _primitive(_reduce(g, G[:i] + G[i + 1:], self.LT[:i] + self.LT[i + 1:], codec)[0])
            return G

        G = self._widening(tails)
        ranked = sorted(zip(self.LT, G), key=lambda tg: tg[0], reverse=True)
        return [_from_internal(g, self.variables, Fraction(1, g[t]), self.codec) for t, g in ranked]

    def _push(self, g: dict) -> None:
        self.G.append(g)
        self.LT.append(max(g))
        i = len(self.G) - 1
        # an lcm's fields stay below 2^(W-1): it is compared and divided
        # into, and the S-polynomial's products are checked
        for j in range(i):
            heapq.heappush(self._pairs, (self.codec.lcm(self.LT[i], self.LT[j]), i, j))

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
            lcm, i, j = heapq.heappop(self._pairs)
            self._done.add((i, j))
            if lcm == LT[i] + LT[j]:
                continue
            guard = self.codec.guard
            if any(k != i and k != j and not (lcm - LT[k]) & guard and self._treated(i, k) and self._treated(j, k)
                   for k in range(len(G))):
                continue
            r = self._widening(lambda c: _reduce(_spoly(G[i], G[j], c), G, LT, c)[0])
            if r:
                self._append(r)
        # drop every element whose leading term another one's divides; of
        # equal leading terms, the first stays
        guard = self.codec.guard
        keep = [i for i, t in enumerate(LT) if not any(
            not (t - u) & guard and (u != t or j < i) for j, u in enumerate(LT) if j != i)]
        self.G = [G[i] for i in keep]
        self.LT = [LT[i] for i in keep]
        self._done.clear()
        self._old = len(self.G)


def default_variables(polys: Iterable[Polynomial]) -> tuple[str, ...]:
    return tuple(sorted(set().union(*(p.variables() for p in polys))))


def groebner(gens: Iterable[Polynomial], variables: Optional[Sequence[str]] = None, order: str = "grevlex",
             block: int = 0, max_basis: Optional[int] = None) -> list[Polynomial]:
    """The reduced, auto-reduced, monic Groebner basis of the given ideal."""
    gens = list(gens)
    if variables is None:
        variables = default_variables(gens)
    return GroebnerBasis(gens, variables, order, block, max_basis).reduced()


def s_polynomial(f: Polynomial, g: Polynomial, variables: Optional[Sequence[str]] = None,
                 order: str = "grevlex") -> Polynomial:
    if f.is_zero() or g.is_zero():
        raise DomainError("the S-polynomial of a zero polynomial is undefined")
    if variables is None:
        variables = default_variables([f, g])

    def compute(codec):
        fi, gi = _to_internal(f, variables, codec)[0], _to_internal(g, variables, codec)[0]
        scale = Fraction(1, fi[max(fi)] * gi[max(gi)])
        return _from_internal(_spoly(fi, gi, codec), variables, scale, codec)

    return _widening(_codec(order, len(variables), 0, max(f.degree(), g.degree())), compute)


def normal_form(p: Polynomial, basis: Iterable[Polynomial], variables: Optional[Sequence[str]] = None,
                order: str = "grevlex", block: int = 0) -> Polynomial:
    """Division remainder of p by a basis (unique when the basis is Groebner
    for the order).  Fresh variables of p extend the sequence at the end,
    which preserves the order among the old monomials."""
    basis = [g for g in basis if not g.is_zero()]
    if variables is None:
        variables = default_variables(basis)
    variables = tuple(variables) + tuple(sorted(p.variables() - set(variables)))

    def compute(codec):
        internal = [_to_internal(g, variables, codec)[0] for g in basis]
        q, m = _to_internal(p, variables, codec)
        r, s = _reduce(q, internal, [max(g) for g in internal], codec)
        return _from_internal(r, variables, m / s, codec)

    return _widening(_codec(order, len(variables), block, max(g.degree() for g in [p, *basis])), compute)


class Ideal:
    """A polynomial ideal given by generators, with a cached basis per order."""

    def __init__(self, generators: Iterable[Polynomial], variables=None):
        self.generators = tuple(g for g in generators if not g.is_zero())
        self._variables = default_variables(self.generators) if variables is None else tuple(variables)
        self._bases: dict[str, GroebnerBasis] = {}

    def variables(self) -> tuple[str, ...]:
        return self._variables

    def _basis(self, order: str, max_basis=None) -> GroebnerBasis:
        gb = self._bases.get(order)
        if gb is None:
            gb = self._bases[order] = GroebnerBasis(self.generators, self.variables(), order, max_basis=max_basis)
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
        return all(map(self.contains, other.generators)) and all(map(other.contains, self.generators))

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
    basis = groebner(ideal.generators, (*dropped, *keep), "block-grevlex", len(dropped), max_basis)
    return Ideal([g for g in basis if g.variables() <= set(keep)], keep)


def _fresh_var(taken, stem="t"):
    names = (f"_{stem}{n or ''}" for n in itertools.count())
    return next(name for name in names if name not in taken)


def ideal_intersect(i: Ideal, j: Ideal, max_basis=None) -> Ideal:
    """t*I + (1-t)*J, then eliminate t."""
    vs = set(i.variables()) | set(j.variables())
    t = _fresh_var(vs)
    tp = Polynomial.var(t)
    gens = [tp * g for g in i.generators] + [(Polynomial.const(1) - tp) * g for g in j.generators]
    return eliminate(Ideal(gens, (t, *sorted(vs))), {t}, max_basis=max_basis)


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


def points_ideal(points: Iterable[Mapping[str, int]], variables: Sequence[str],
                 max_degree: Optional[int] = None) -> list[Polynomial]:
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
    value): the elimination is fraction-free, on primitive integer vectors.
    """
    variables = tuple(variables)
    pts = []
    for p in points:
        for v in variables:
            if not isinstance(p[v], int):
                raise DomainError(f"points_ideal needs integer coordinates; {v!r} is {p[v]!r}")
        pts.append(tuple(p[v] for v in variables))
    # at most len(pts) monomials are standard, and they are closed under
    # division, so no queued monomial has a degree above len(pts)
    codec = _codec("grevlex", len(variables), 0, len(pts))
    # echelon rows: (pivot, integer evaluation vector, the polynomial it evaluates)
    rows: list[tuple[int, list[int], dict[int, int]]] = []
    basis, leads = [], []  # the basis elements and their leading terms
    # (monomial t = x*s, its degree, the evaluation vectors of s and of x):
    # t's vector is their product
    ones, coords = [1] * len(pts), list(zip(*pts))
    queue, queued = [(0, 0, ones, ones)], {0}
    while queue:
        t, degree, vs, xs = heapq.heappop(queue)
        if max_degree is not None and degree > max_degree:
            break
        if any(not (t - lead) & codec.guard for lead in leads):
            continue
        vec = [a * c for a, c in zip(vs, xs)]
        pivot, row, poly = _eliminate(vec, {t: 1}, rows)
        if pivot is None:
            basis.append({m: c for m, c in poly.items() if c})
            leads.append(t)
            continue
        rows.append((pivot, row, poly))
        for x, xs in zip(codec.cols, coords):
            if t + x not in queued:
                queued.add(t + x)
                heapq.heappush(queue, (t + x, degree + 1, vec, xs))
    # poly[t] is the leading coefficient of the element with leading term t
    return [_from_internal(g, variables, Fraction(1, g[t]), codec) for g, t in zip(basis, leads)]
