"""Buchberger Groebner bases, normal forms, elimination, intersections, and
the ideals of finite point sets.

During a computation a polynomial maps packed monomials to primitive integer
coefficients (denominators cleared, content divided out).  A packed monomial
is one int (Monagan and Pearce, CASC 2007): the order's key fields above the
exponents e_1..e_n, each field W bits with a guard top bit.  Grevlex keys are
the partial sums e_1+...+e_n, ..., e_1+e_2, e_1, comparing like (deg, -e_n,
..., -e_2); lex, which also serves elimination with the dropped variables
first, has none.  Comparing monomials compares ints, multiplying adds them,
and a divides b iff b - a sets no guard bit.  W follows the inputs' degrees; a
field reaching 2^(W-2) raises ``_Overflow`` and the work is redone at 2W, so
no field wraps.  Heap division (Monagan and Pearce, J. Symb. Comp. 46, 2011)
cross-multiplies by leading coefficients.  Results are made monic (or
rescaled to the exact remainder) on the way out.  A ``GroebnerBasis`` is
completed incrementally (Gebauer and Moeller, J. Symb. Comp. 6, 1988):
``add`` queues only the new element's S-pairs.  ``groebner`` returns its
reduced form, deterministic given the generators, the variable sequence, and
the order.  A variable sequence names each variable once.  An ``Ideal`` holds
one grevlex basis, built on first use; membership, which no order changes, is
one normal form against its reduced form.

The ideal of a finite point set, and the lex basis of a zero-dimensional
ideal from its grevlex one, come from one walk over an ideal given by linear
functionals (Marinari, Moeller and Mora, AAECC 4, 1993): monomials t = x_i*s,
s standard, are visited in increasing order, skipping multiples of the leading
terms found so far; if t's vector depends on those of the standard monomials
before it, the dependency is the basis element with leading term t, else t is
standard.  For points (Buchberger-Moeller) the vector holds t's values at the
points made active so far, eliminated fraction-free, the content divided out
once per reduction; the walk stops above a degree bound, which is the number
of points when none is given.  For a lex basis (FGLM: Faugere, Gianni, Lazard
and Mora, J. Symb. Comp. 16, 1993) it is t's sparse normal form modulo the
grevlex basis, at most n*D + 1 of them for a quotient of dimension D.  A lex
basis takes this route when the grevlex leading terms hold a pure power of
every variable (the ideal is zero-dimensional, or 1 leads the unit ideal);
otherwise lex Buchberger runs from the generators.

``_eliminate`` (list rows: point and moment vectors are nonzero almost
everywhere) and ``_eliminate_sparse`` (dict rows: normal forms touch few
standard monomials) each ran slower on the other's data (``BENCH_39.json``).
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

from .errors import BudgetExceededError, DomainError
from .polynomials import Polynomial, _normalised, _wrap


ORDERS = ("grevlex", "lex")


class _Overflow(Exception):
    """A monomial field reached 2^(W-2)."""


@functools.lru_cache(maxsize=64)
class _Codec:
    """Packing of monomials over n variables for an order, W bits a field."""

    def __init__(self, order: str, n: int, width: int):
        if order not in ORDERS:
            raise DomainError(f"unknown monomial order {order!r}")
        # each field as the range of variables it sums, from the top
        fields = [range(0, k) for k in range(n, 0, -1)] if order == "grevlex" else []
        fields += [range(i, i + 1) for i in range(n)]
        top = len(fields) - 1
        self.spec, self.width = (order, n), width
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


def _codec(order: str, n: int, degree: int) -> _Codec:
    """The codec whose fields stay below 2^(W-2) on monomials of this degree."""
    return _Codec(order, n, max(8, degree.bit_length() + 2))


def _widening(codec: _Codec, compute):
    """compute(codec), redone at twice the width while a field overflows."""
    while True:
        try:
            return compute(codec)
        except _Overflow:
            codec = _Codec(*codec.spec, 2 * codec.width)


def _distinct(variables: Iterable[str]) -> tuple[str, ...]:
    """The variable sequence as a tuple; a DomainError names a repeated variable."""
    variables = tuple(variables)
    if len(set(variables)) < len(variables):
        repeated = next(v for i, v in enumerate(variables) if v in variables[:i])
        raise DomainError(f"variable {repeated!r} repeats in the variable sequence")
    return variables


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
    if scale.denominator == 1:
        scale = scale.numerator  # int products, as for 1/lc with lc = 1 or -1
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


def _eliminate_sparse(vec: dict, poly: dict, rows: dict) -> tuple[dict, dict]:
    """Reduce the sparse vector vec, and the polynomial poly it carries, against
    rows keyed by their largest monomial, fraction-free as ``_eliminate`` does,
    until vec is empty or its largest monomial keys no row; the pair's content
    is divided out once, after the last row step."""
    stepped = False
    while vec and (top := max(vec)) in rows:
        row, row_poly = rows[top]
        d, c = row[top], vec[top]
        g = math.gcd(c, d)
        d, c = d // g, c // g
        for out, sub in ((vec, row), (poly, row_poly)):
            for m in out:
                out[m] *= d
            for m, b in sub.items():
                if v := out.get(m, 0) - c * b:
                    out[m] = v
                else:
                    out.pop(m, None)
        stepped = True
    if stepped:
        g = math.gcd(*vec.values(), *poly.values())
        if g > 1:
            vec = {m: a // g for m, a in vec.items()}
            poly = {m: a // g for m, a in poly.items()}
    return vec, poly


def _walk(codec: _Codec, dependency, stop: Optional[int] = None) -> tuple[list, list[int]]:
    """The basis elements and leading terms of the module docstring's walk over
    the monomials below stop: dependency(t, i, s), for t = x_i*s (i = -1 for
    t = 1), returns the basis element with leading term t, or None if t is standard."""
    basis, leads = [], []
    queue, queued = [(0, -1, 0)], {0}
    while queue:
        t, i, s = heapq.heappop(queue)
        if stop is not None and t >= stop:
            break
        if leads and any(not (t - lead) & codec.guard for lead in leads):
            continue
        g = dependency(t, i, s)
        if g is not None:
            basis.append(g)
            leads.append(t)
            continue
        for j, x in enumerate(codec.cols):
            if t + x not in queued:
                queued.add(t + x)
                heapq.heappush(queue, (t + x, j, t))
    return basis, leads


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
    the largest size an appended element brought G to, and for a lex basis
    also the grevlex completion's peak and the size of a converted basis;
    over ``max_basis`` it raises."""

    def __init__(self, gens: Iterable[Polynomial], variables: Sequence[str], order: str = "grevlex",
                 max_basis: Optional[int] = None):
        gens = [p for p in gens if not p.is_zero()]
        self.variables = _distinct(variables)
        self.codec = _codec(order, len(self.variables), max((p.degree() for p in gens), default=0))
        self.max_basis = max_basis
        self.G: list[dict] = []
        self.LT: list[int] = []
        self.peak = 0
        self._pairs: list[tuple] = []
        self._done: set[tuple[int, int]] = set()
        # every pair among the first _old elements is treated
        self._old = 0
        if order == "lex":
            grevlex = GroebnerBasis(gens, self.variables, "grevlex", max_basis)
            self.peak = grevlex.peak
            # variable index -> exponent of the leading term that is a power
            # of that variable alone (every index, exponent 0, when 1 leads the
            # unit ideal); one for every variable means a zero-dimensional ideal
            n = len(self.variables)
            pure = {i: e[i] for e in map(grevlex.codec.unpack, grevlex.LT) for i in range(n) if e[i] == sum(e)}
            if len(pure) == n:
                self._convert(grevlex, list(pure.values()))
                return
        for p in gens:
            self._push(_to_internal(p, self.variables, self.codec)[0])
        self._complete()

    def _convert(self, grevlex: "GroebnerBasis", exponents: list[int]) -> None:
        """Take the lex basis from the zero-dimensional (or unit) ideal's reduced
        grevlex basis, whose pure powers have these exponents.  If each
        element's lex leading term is its grevlex one, the two leading-term
        ideals agree (both have codimension D), so the basis is already the lex
        one.  Otherwise the walk's vector of t = x_i*s is its normal form N(t),
        the remainder of x_i*N(s) by the grevlex basis, over grevlex-packed
        monomials; it is reduced against the rows of the standard monomials
        before t, carrying its lex polynomial."""
        G, old, n = grevlex._tails(), grevlex.codec, len(self.variables)
        # the lex staircase has at most prod(exponents) monomials and is closed
        # under division, so no visited exponent exceeds that product
        codec = self.codec = _codec("lex", n, math.prod(exponents))
        # a grevlex-packed monomial's lowest n fields are its exponents
        # e_1..e_n, so those fields alone compare in lex
        lex = (1 << old.width * n) - 1
        if all(max(g, key=lex.__and__) == t for g, t in zip(G, grevlex.LT)):
            self.G = [{codec.pack(old.unpack(m)): c for m, c in g.items()} for g in G]
            self.LT = [max(g) for g in self.G]
        else:
            # no monomial of the reduced grevlex basis, and no standard monomial
            # times a variable, has a degree above the pure powers' sum
            gc = _codec("grevlex", n, sum(exponents))
            if gc is not old:
                G = [{gc.pack(old.unpack(m)): c for m, c in g.items()} for g in G]
            LT = [max(g) for g in G]
            # the normal form of each standard monomial s as (N, d): N/d, N primitive
            forms: dict[int, tuple[dict[int, int], int]] = {}
            # echelon rows by their largest monomial: (vector, the lex polynomial
            # whose normal form it is)
            rows: dict[int, tuple[dict[int, int], dict[int, int]]] = {}

            def dependency(t, i, s):
                if i < 0:
                    p, d = {0: 1}, 1
                else:
                    form, d = forms[s]
                    p = {m + gc.cols[i]: c for m, c in form.items()}
                r, scale = _reduce(p, G, LT, gc)
                d *= scale
                g = math.gcd(d, *r.values())
                if g > 1:
                    r, d = {m: c // g for m, c in r.items()}, d // g
                vec, poly = _eliminate_sparse(dict(r), {t: d}, rows)
                if not vec:
                    return poly
                rows[max(vec)] = vec, poly
                forms[t] = r, d
                return None

            self.G, self.LT = _walk(codec, dependency)
        self.peak = max(self.peak, len(self.G))
        self.check_budget(self.max_basis)
        self._old = len(self.G)

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

    def _tails(self) -> list[dict]:
        """G with each element's tail reduced by the others, made primitive."""
        def tails(codec):
            G = list(self.G)
            # one pass suffices: the leading terms never change, so an element
            # stays reduced once its tail is
            for i, g in enumerate(G):
                G[i] = _primitive(_reduce(g, G[:i] + G[i + 1:], self.LT[:i] + self.LT[i + 1:], codec)[0])
            return G

        return self._widening(tails)

    def reduced(self) -> list[Polynomial]:
        """The reduced monic basis, by decreasing leading term."""
        G = self._tails()
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
             max_basis: Optional[int] = None) -> list[Polynomial]:
    """The reduced, auto-reduced, monic Groebner basis of the given ideal."""
    gens = list(gens)
    if variables is None:
        variables = default_variables(gens)
    return GroebnerBasis(gens, variables, order, max_basis).reduced()


def s_polynomial(f: Polynomial, g: Polynomial, variables: Optional[Sequence[str]] = None,
                 order: str = "grevlex") -> Polynomial:
    if f.is_zero() or g.is_zero():
        raise DomainError("the S-polynomial of a zero polynomial is undefined")
    variables = default_variables([f, g]) if variables is None else _distinct(variables)

    def compute(codec):
        fi, gi = _to_internal(f, variables, codec)[0], _to_internal(g, variables, codec)[0]
        scale = Fraction(1, fi[max(fi)] * gi[max(gi)])
        return _from_internal(_spoly(fi, gi, codec), variables, scale, codec)

    return _widening(_codec(order, len(variables), max(f.degree(), g.degree())), compute)


def normal_form(p: Polynomial, basis: Iterable[Polynomial], variables: Sequence[str],
                order: str = "grevlex") -> Polynomial:
    """Division remainder of p by a basis (unique when the basis is Groebner
    for the order).  Fresh variables of p extend the sequence at the end,
    which preserves the order among the old monomials."""
    basis = [g for g in basis if not g.is_zero()]
    variables = _distinct(variables) + tuple(sorted(p.variables() - set(variables)))

    def compute(codec):
        internal = [_to_internal(g, variables, codec)[0] for g in basis]
        q, m = _to_internal(p, variables, codec)
        r, s = _reduce(q, internal, [max(g) for g in internal], codec)
        return _from_internal(r, variables, m / s, codec)

    return _widening(_codec(order, len(variables), max(g.degree() for g in [p, *basis])), compute)


class Ideal:
    """A polynomial ideal given by generators, with its grevlex basis built on first use."""

    def __init__(self, generators: Iterable[Polynomial], variables=None):
        self.generators = tuple(g for g in generators if not g.is_zero())
        self._variables = default_variables(self.generators) if variables is None else _distinct(variables)
        self._basis: Optional[tuple[GroebnerBasis, list[Polynomial]]] = None

    def variables(self) -> tuple[str, ...]:
        return self._variables

    def groebner_basis(self, max_basis=None) -> list[Polynomial]:
        if self._basis is None:
            gb = GroebnerBasis(self.generators, self._variables, max_basis=max_basis)
            self._basis = gb, gb.reduced()
        # a cached basis answers to the budget it would have met when computed
        self._basis[0].check_budget(max_basis)
        return list(self._basis[1])

    def contains(self, p: Polynomial) -> bool:
        """Whether p lies in the ideal over the ideal's variables and p's: p is
        in I K[x, z] exactly when each of its coefficients as a polynomial in
        the fresh variables z lies in I, which the cached basis, packed when
        it was built, tests as the saturation pass does."""
        self.groebner_basis()
        basis, known = self._basis[0], set(self._variables)
        coefficients: dict = {}
        for m, c in p.terms.items():
            fresh = tuple(ve for ve in m if ve[0] not in known)
            coefficients.setdefault(fresh, {})[tuple(ve for ve in m if ve[0] in known)] = c
        return not any(basis.reduce(_wrap(terms)) for terms in coefficients.values())

    def same_ideal(self, other: "Ideal") -> bool:
        return all(map(self.contains, other.generators)) and all(map(other.contains, self.generators))

    def __repr__(self):
        gens = ", ".join(repr(g) for g in self.generators) or "0"
        return f"<{gens}>"


def eliminate(ideal: Ideal, drop: Iterable[str], max_basis=None) -> Ideal:
    """The intersection with the subring that omits the dropped variables: the
    elements of a lex basis, dropped variables first, that are free of them
    (the Elimination Theorem; Cox, Little and O'Shea, ch. 3 sec. 1)."""
    drop = set(drop)
    keep = [v for v in ideal.variables() if v not in drop]
    dropped = sorted(drop & set(ideal.variables()))
    basis = groebner(ideal.generators, (*dropped, *keep), "lex", max_basis)
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
    vs = set(ideal.variables()) | p.variables()
    z = _fresh_var(vs, "z")
    gens = [*ideal.generators, Polynomial.const(1) - Polynomial.var(z) * p]
    return not GroebnerBasis(gens, (*sorted(vs), z), max_basis=max_basis).reduce(Polynomial.const(1))


def _eliminate(vec: list[int], poly: dict, rows) -> tuple[Optional[int], list[int], dict]:
    """Reduce the integer vector vec, and the polynomial poly it carries, against
    echelon rows (pivot, row, row_poly) fraction-free: a row step takes
    d*vec - c*row, for d the row's pivot value and c vec's value there, both
    divided by their gcd.  After the last step the pair is divided by its
    content; every step scales it by a positive factor, so this is the pair
    that dividing after each step would give.  Returns vec's first nonzero
    position or None, vec and poly."""
    stepped = False
    for pivot, row, row_poly in rows:
        c = vec[pivot]
        if c:
            d = row[pivot]
            g = math.gcd(c, d)
            d, c = d // g, c // g
            vec = [d * a - c * b for a, b in zip(vec, row)]
            for m in poly:
                poly[m] *= d
            for m, rc in row_poly.items():
                poly[m] = poly.get(m, 0) - c * rc
            stepped = True
    if stepped:
        g = math.gcd(*vec, *poly.values())
        if g > 1:
            vec = [a // g for a in vec]
            poly = {m: a // g for m, a in poly.items()}
    return next(itertools.compress(itertools.count(), vec), None), vec, poly


def points_ideal(points: Iterable[Mapping[str, int]], variables: Sequence[str],
                 max_degree: Optional[int] = None) -> list[Polynomial]:
    """The reduced grevlex Groebner basis of the ideal of all polynomials
    vanishing on a finite point set (Buchberger-Moeller, with the lazy choice
    of points of Abbott, Bigatti, Kreuzer and Robbiano, J. Symb. Comp. 30, 2000).

    The walk's vector of a monomial t holds its values at the active points,
    reduced against those of the standard monomials before it, each with its
    pivot at one active point.  If they reduce to zero, the reduced polynomial
    t - sum c*s is the one combination that vanishes on the active points: at
    the first idle point where it does not vanish, that point becomes active,
    every row takes its polynomial's value there, and t is standard with its
    pivot at it; if it vanishes on every point, it is a basis element.  The
    walk stops above degree D, leaving the basis elements of degree <= D;
    grevlex is degree-compatible, so these generate the ideal of all
    vanishing polynomials of degree <= D, and at most as many points as
    standard monomials are ever active.  D is max_degree, or the number of
    points when no bound is given: the reduced basis of n points has no
    element of degree above n, so the walk then returns all of it.

    Coordinates must be ints, not bools (a DomainError names the variable of
    any other value): the elimination is fraction-free, on integer vectors
    whose content ``_eliminate`` divides out once per reduction.
    """
    variables = _distinct(variables)
    pts = []
    for p in points:
        for v in variables:
            if type(p[v]) is not int:
                raise DomainError(f"points_ideal needs integer coordinates; {v!r} is {p[v]!r}")
        pts.append(tuple(p[v] for v in variables))
    # at most len(pts) monomials are standard, and they are closed under
    # division, so no queued monomial has a degree above len(pts)
    codec = _codec("grevlex", len(variables), len(pts))
    max_degree = len(pts) if max_degree is None else max_degree
    # the active points in the order they became active, and the idle ones
    active, idle = [], list(range(len(pts)))
    # echelon rows: (pivot, values at the active points, the polynomial they evaluate)
    rows: list[tuple[int, list[int], dict[int, int]]] = []
    # each visited monomial's values at every point
    values: dict[int, list[int]] = {}
    ones, coords = [1] * len(pts), list(zip(*pts))

    def dependency(t, i, s):
        vec = values[t] = ones if i < 0 else [a * c for a, c in zip(values[s], coords[i])]
        pivot, row, poly = _eliminate([vec[k] for k in active], {t: 1}, rows)
        if pivot is None and idle:
            for k, j in enumerate(idle):
                if v := sum(c * values[m][j] for m, c in poly.items()):
                    del idle[k]
                    for _, r, p in rows:
                        r.append(sum(c * values[m][j] for m, c in p.items()))
                    pivot = len(active)
                    active.append(j)
                    row.append(v)
                    break
        if pivot is None:
            return {m: c for m, c in poly.items() if c}
        rows.append((pivot, row, poly))
        return None

    # x_n^(D+1), the least grevlex monomial of degree D + 1 (with no
    # variables, D + 1 itself: above the one monomial 1 iff D >= 0)
    basis, leads = _walk(codec, dependency, (max_degree + 1) * (codec.cols or [1])[-1])
    # g[t] leads the element with leading term t; 1 and -1 need no Fraction
    return [_from_internal(g, variables, g[t] if abs(g[t]) == 1 else Fraction(1, g[t]), codec)
            for g, t in zip(basis, leads)]
