"""Constructive conversions between sequence representations.

Catenative systems and HDT0L systems denote the same maps and convert both
ways; a DT0L stage composes with an HDT0L stage into a level-3 mapping; a
unary-output HDT0L collapses to a linear (matrix) representation through
letter counts; a catenative stage feeding a linear representation lowers to
a polynomial recurrence by expanding the matrix products symbolically (its
base matrices come from ``morphisms.word_product``, as in ``linear_eval``);
and two linear integer systems combine into the running-product system
whose zeros witness agreement of the inputs.

Matrix orientation everywhere: Parikh vectors are rows and incidence
matrices act on the right, so the first letter's matrix is leftmost.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

from .errors import DomainError
from .morphisms import (
    HDT0LSystem,
    Homomorphism,
    LinearRepresentation,
    dot,
    eval_hdt0l,
    incidence,
    mat_mul,
    vec_mat,
    word_product,
)
from .polynomials import Polynomial
from .recurrences import (
    CatenativeSystem,
    CompositionalSystem,
    PolynomialSystem,
    eval_catenative,
    suffix_walk,
)
from .words import Word


def catenative_to_hdt0l(sys: CatenativeSystem, i0: str) -> HDT0LSystem:
    """Working letters are the indices, the table of a reads off the rules,
    and the final homomorphism reads off the base values."""
    if i0 not in sys.indices:
        raise DomainError(f"unknown index {i0!r}")
    working = frozenset(sys.indices)
    tables = {
        a: Homomorphism(
            {i: sys.rule(i, a) for i in sys.indices}, source=working, target=working
        )
        for a in sys.input_alphabet
    }
    final = Homomorphism(
        {i: sys.base_value(i) for i in sys.indices},
        source=working,
        target=sys.output_alphabet,
    )
    return HDT0LSystem.make(sys.input_alphabet, working, tables, final, i0)


def hdt0l_to_catenative(sys: HDT0LSystem) -> CatenativeSystem:
    """Indices are the working letters; the rule word of (V, a) is H^a(V)."""
    indices = tuple(sorted(sys.working))
    rules = {(v, a): sys.table(a).images[v] for v in indices for a in sys.input_alphabet}
    base = {v: sys.final.images[v] for v in indices}
    return CatenativeSystem.make(
        indices, sys.input_alphabet, sys.output_alphabet, rules, base
    )


@dataclass(frozen=True)
class Level3Mapping:
    """The composition of a DT0L stage with an HDT0L stage."""

    first: CatenativeSystem
    first_index: str
    second: HDT0LSystem

    def stage1(self, w: Word) -> Word:
        return eval_catenative(self.first, self.first_index, w)

    def eval(self, w: Word) -> Word:
        return eval_hdt0l(self.second, self.stage1(w))


def compose_level3(g: CatenativeSystem, i0: str, h: HDT0LSystem) -> Level3Mapping:
    if i0 not in g.indices:
        raise DomainError(f"unknown index {i0!r}")
    if not g.output_alphabet <= h.input_alphabet:
        raise DomainError(
            f"stage mismatch: first stage emits {sorted(g.output_alphabet)}, "
            f"second stage reads {sorted(h.input_alphabet)}"
        )
    return Level3Mapping(g, i0, h)


def compositional_unary_value(
    sys: CompositionalSystem, i: str, w: Word, final: Homomorphism, seed: str
) -> int:
    """|final(H_i(w)(seed))| computed in the incidence-matrix monoid.

    Composition of endomorphisms maps to matrix product (first factor
    leftmost), so the compositional recurrence can be evaluated on letter
    counts alone; this is the road to take when explicit words would be
    astronomically long.
    """
    if seed not in sys.working:
        raise DomainError(f"seed {seed!r} is not a working letter")
    order = tuple(sorted(sys.working))
    d = len(order)
    identity = tuple(tuple(1 if k == l else 0 for l in range(d)) for k in range(d))
    values = {j: incidence(h, order, order) for j, h in sys.base}
    m = suffix_walk(sys, i, w, values, lambda ms: reduce(mat_mul, ms, identity))
    row = tuple(1 if v == seed else 0 for v in order)
    col = tuple(len(final.images[v]) for v in order)
    return dot(vec_mat(row, m), col)


def unary_lowering(sys: HDT0LSystem) -> LinearRepresentation:
    """For unary output, |f(w)| is linear in the letter counts of H^w(seed),
    so incidence matrices compute it exactly."""
    if len(sys.output_alphabet) != 1:
        raise DomainError("unary lowering needs a single-letter output alphabet")
    order = tuple(sorted(sys.working))
    row = tuple(1 if v == sys.seed else 0 for v in order)
    matrices = {a: incidence(sys.table(a), order, order) for a in sys.input_alphabet}
    col = tuple(len(sys.final.images[v]) for v in order)
    return LinearRepresentation.make(row, matrices, col)


# ---------------------------------------------------------------------------
# catenative stage + linear representation -> polynomial recurrence


def _entry_var(i: str, k: int, l: int) -> str:
    return f"u_{i}_{k}_{l}"


def _symbolic_matrix(i: str, d: int):
    return tuple(
        tuple(Polynomial.var(_entry_var(i, k, l)) for l in range(d)) for k in range(d)
    )


def _poly_mat_mul(a, b):
    d = len(b)
    cols = len(b[0])
    return tuple(
        tuple(sum((a[k][m] * b[m][l] for m in range(d)), Polynomial.zero()) for l in range(cols))
        for k in range(d)
    )


def _identity_poly_matrix(d: int):
    return tuple(
        tuple(Polynomial.const(1 if k == l else 0) for l in range(d)) for k in range(d)
    )


@dataclass(frozen=True)
class LoweredSeries:
    """A polynomial system tracking the matrix images of the catenative
    values, plus the linear output form K reading the answer off."""

    system: PolynomialSystem
    output_form: Polynomial

    def eval(self, w: Word) -> int:
        from .recurrences import eval_polynomial_vector

        return self.output_form.evaluate_int(eval_polynomial_vector(self.system, w))


def series_to_polynomial_system(
    g: CatenativeSystem, rep: LinearRepresentation, i0: str
) -> LoweredSeries:
    """Variables u_{i,k,l} track entry (k,l) of the matrix image of g_i; the
    rule polynomial for (i, a) is that entry of the expanded product of the
    rule's symbolic matrices, so its degree is the rule length."""
    if i0 not in g.indices:
        raise DomainError(f"unknown index {i0!r}")
    if not g.output_alphabet <= rep.letters:
        raise DomainError("the representation must cover the catenative output alphabet")
    d = rep.dimension
    indices = tuple(_entry_var(i, k, l) for i in g.indices for k in range(d) for l in range(d))
    sym = {i: _symbolic_matrix(i, d) for i in g.indices}
    rules = {}
    for (i, a), rhs in g.rules:
        prod = _identity_poly_matrix(d)
        for j in rhs:
            prod = _poly_mat_mul(prod, sym[j])
        for k in range(d):
            for l in range(d):
                rules[(_entry_var(i, k, l), a)] = prod[k][l]
    identity = tuple(tuple(1 if k == l else 0 for l in range(d)) for k in range(d))
    base = {}
    for i, w in g.base:
        m = word_product(identity, rep, w, mat_mul)
        for k in range(d):
            for l in range(d):
                base[_entry_var(i, k, l)] = m[k][l]
    ring = "N" if all(
        all(x >= 0 for row in m for x in row) for _, m in rep.matrices
    ) and all(v >= 0 for v in base.values()) else "Z"
    system = PolynomialSystem.make(indices, g.input_alphabet, rules, base, ring=ring)
    output = Polynomial.zero()
    for k in range(d):
        for l in range(d):
            c = rep.row[k] * rep.col[l]
            if c:
                output = output + c * Polynomial.var(_entry_var(i0, k, l))
    return LoweredSeries(system, output)


# ---------------------------------------------------------------------------
# Skolem reduction: running product of differences


@dataclass(frozen=True)
class SkolemProduct:
    system: PolynomialSystem
    product_index: str

    def eval(self, n: int) -> int:
        from .recurrences import eval_polynomial

        (letter,) = self.system.input_alphabet
        return eval_polynomial(self.system, self.product_index, (letter,) * n)


def _require_linear(sys: PolynomialSystem, name: str):
    if len(sys.input_alphabet) != 1:
        raise DomainError(f"{name} must have a unary input alphabet")
    for (_, _), p in sys.rules:
        if p.degree() > 1:
            raise DomainError(f"{name} must be linear (degree <= 1 rules)")


def skolem_product_system(
    u: PolynomialSystem, iu: str, v: PolynomialSystem, iv: str
) -> SkolemProduct:
    """Build w(n) = prod_{i<=n} (u(i) - v(i)) as one integer polynomial
    system: u-state and v-state run side by side and an accumulator variable
    multiplies in the next difference via the linear next-state forms.
    w(n) = 0 for some n <= N exactly when u(i) = v(i) for some i <= N."""
    _require_linear(u, "first system")
    _require_linear(v, "second system")
    if u.input_alphabet != v.input_alphabet:
        raise DomainError("the two systems must share their unary input alphabet")
    if iu not in u.indices:
        raise DomainError(f"unknown index {iu!r}")
    if iv not in v.indices:
        raise DomainError(f"unknown index {iv!r}")
    (letter,) = u.input_alphabet

    def uvar(i):
        return f"u_{i}"

    def vvar(i):
        return f"v_{i}"

    acc = "w_acc"
    indices = tuple(uvar(i) for i in u.indices) + tuple(vvar(i) for i in v.indices) + (acc,)
    rules = {}
    u_env = {i: Polynomial.var(uvar(i)) for i in u.indices}
    v_env = {i: Polynomial.var(vvar(i)) for i in v.indices}
    for (i, a), p in u.rules:
        rules[(uvar(i), a)] = p.substitute(u_env)
    for (i, a), p in v.rules:
        rules[(vvar(i), a)] = p.substitute(v_env)
    u_next = u.rule(iu, letter).substitute(u_env)
    v_next = v.rule(iv, letter).substitute(v_env)
    rules[(acc, letter)] = Polynomial.var(acc) * (u_next - v_next)
    base = {uvar(i): val for i, val in u.base}
    base.update({vvar(i): val for i, val in v.base})
    base[acc] = u.base_value(iu) - v.base_value(iv)
    system = PolynomialSystem.make(indices, u.input_alphabet, rules, base, ring="Z")
    return SkolemProduct(system, acc)
