"""Constructive conversions between sequence representations.

Catenative systems and HDT0L systems denote the same maps and convert both
ways.  A level-3 mapping is a catenative (DT0L) stage followed by an HDT0L
stage or a linear representation (``compose_level3``; a compositional system
becomes one through ``compositional_to_level3``).  Its ``value`` runs the
first stage's rules over the second stage's matrices, an HDT0L stage giving
its length representation, and ``lower`` expands the same products
symbolically into a polynomial recurrence.  Two linear integer systems
combine into the running-product system whose zeros witness agreement.

Matrix orientation everywhere: Parikh vectors are rows and incidence
matrices act on the right, so the first letter's matrix is leftmost.
"""

from __future__ import annotations

from functools import cached_property, reduce

from .errors import DomainError, Record
from .morphisms import (
    HDT0LSystem,
    Homomorphism,
    LinearRepresentation,
    check_index,
    dot,
    eval_hdt0l,
    incidence,
    mat_mul,
    suffix_walk,
    vec_mat,
    word_product,
)
from .polynomials import Polynomial
from .recurrences import (
    CatenativeSystem,
    CompositionalSystem,
    PolynomialSystem,
    eval_catenative,
    eval_polynomial,
    eval_polynomial_vector,
    product_system,
    rename_system,
)
from .words import Word


def catenative_to_hdt0l(sys: CatenativeSystem, i0: str) -> HDT0LSystem:
    """Working letters are the indices, the table of a reads off the rules,
    and the final homomorphism reads off the base values."""
    check_index(sys, i0)
    working = frozenset(sys.indices)
    tables = {
        a: Homomorphism(
            {i: sys.rule_map[(i, a)] for i in sys.indices}, source=working, target=working
        )
        for a in sys.input_alphabet
    }
    final = Homomorphism(
        sys.base_map,
        source=working,
        target=sys.output_alphabet,
    )
    return HDT0LSystem.make(sys.input_alphabet, working, tables, final, i0)


def hdt0l_to_catenative(sys: HDT0LSystem) -> CatenativeSystem:
    """Indices are the working letters; the rule word of (V, a) is H^a(V)."""
    return CatenativeSystem.make(
        sorted(sys.working), sys.input_alphabet, sys.output_alphabet, sys.rule_map, sys.final.images
    )


def _identity(d: int):
    return tuple(tuple(int(k == l) for l in range(d)) for k in range(d))


def _length_representation(sys: HDT0LSystem) -> LinearRepresentation:
    """|f(w)| = row . M_w . col: the seed's indicator row, the incidence
    matrices of the tables, and col_v = |final(v)|."""
    order = tuple(sorted(sys.working))
    row = tuple(1 if v == sys.seed else 0 for v in order)
    matrices = {a: incidence(sys.table(a), order) for a in sys.input_alphabet}
    col = tuple(len(sys.final.images[v]) for v in order)
    return LinearRepresentation.make(row, matrices, col)


class Level3Mapping(Record):
    """w |-> second(g_i(w)) for a catenative (DT0L) first stage g at index i;
    the second stage is an HDT0L system or a linear representation."""

    first: CatenativeSystem
    first_index: str
    second: HDT0LSystem | LinearRepresentation

    def eval(self, w: Word) -> Word:
        """The output word of an HDT0L second stage, from the stage-1 word."""
        return eval_hdt0l(self.second, eval_catenative(self.first, self.first_index, w))

    @cached_property
    def representation(self) -> LinearRepresentation:
        """The second stage, or the length representation of an HDT0L one."""
        if isinstance(self.second, LinearRepresentation):
            return self.second
        return _length_representation(self.second)

    @cached_property
    def base_matrices(self) -> dict:
        """j |-> the matrix of the first stage's base word g_j(eps)."""
        rep, square = self.representation, lambda m: mat_mul(m, m)
        one = _identity(rep.dimension)
        return {j: word_product(one, v, rep.matrix, mat_mul, square) for j, v in self.first.base}

    def value(self, w: Word) -> int:
        """row . M_{g_i(w)} . col, which is |eval(w)| for an HDT0L second
        stage.  The first stage's rules run over matrices, so the stage-1 word
        is never built."""
        rep = self.representation
        identity = _identity(rep.dimension)
        m = suffix_walk(self.first, self.first_index, w, self.base_matrices,
                        lambda ms: reduce(mat_mul, ms) if ms else identity)
        return dot(vec_mat(rep.row, m), rep.col)

    def lower(self) -> LoweredSeries:
        """Variables u_{i,k,l} track entry (k,l) of the matrix image of g_i; the
        rule polynomial for (i, a) is that entry of the expanded product of the
        rule's symbolic matrices, so its degree is the rule length."""
        g, rep = self.first, self.representation
        d = rep.dimension
        cells = [(k, l) for k in range(d) for l in range(d)]
        sym = {i: _symbolic_matrix(i, d) for i in g.indices}
        one = tuple(tuple(Polynomial.const(x) for x in row) for row in _identity(d))
        rules = {}
        for (i, a), rhs in g.rules:
            prod = reduce(mat_mul, (sym[j] for j in rhs), one)
            rules.update({(_entry_var(i, k, l), a): prod[k][l] for k, l in cells})
        base = {_entry_var(i, k, l): m[k][l] for i, m in self.base_matrices.items() for k, l in cells}
        ring = "N" if all(
            all(x >= 0 for row in m for x in row) for _, m in rep.matrices
        ) and all(v >= 0 for v in base.values()) else "Z"
        indices = tuple(_entry_var(i, k, l) for i in g.indices for k, l in cells)
        system = PolynomialSystem.make(indices, g.input_alphabet, rules, base, ring=ring)
        output = Polynomial.zero()
        for k, l in cells:
            output = output + rep.row[k] * rep.col[l] * sym[self.first_index][k][l]
        return LoweredSeries(system, output)


def compose_level3(
    g: CatenativeSystem, i0: str, second: HDT0LSystem | LinearRepresentation
) -> Level3Mapping:
    """w |-> second(g_{i0}(w)), once the second stage is known to read every
    letter the first stage emits."""
    check_index(g, i0)
    if isinstance(second, LinearRepresentation):
        if not g.output_alphabet <= second.letters:
            raise DomainError("the representation must cover the catenative output alphabet")
    elif not g.output_alphabet <= second.input_alphabet:
        raise DomainError(
            f"stage mismatch: first stage emits {sorted(g.output_alphabet)}, "
            f"second stage reads {sorted(second.input_alphabet)}"
        )
    return Level3Mapping(g, i0, second)


def compositional_to_level3(
    sys: CompositionalSystem, i: str, final: Homomorphism, seed: str
) -> Level3Mapping:
    """f(w) = final(H_i(w)(seed)).  The catenative stage (same rules, base
    j |-> j) spells H_i(w) as a word of indices; the HDT0L stage's tables are
    the base homomorphisms, applied in that order."""
    first = CatenativeSystem.make(
        sys.indices, sys.input_alphabet, sys.indices, sys.rule_map, {j: (j,) for j in sys.indices}
    )
    second = HDT0LSystem.make(sys.indices, sys.working, sys.base_map, final, seed)
    return compose_level3(first, i, second)


def unary_lowering(sys: HDT0LSystem) -> LinearRepresentation:
    """For unary output f(w) is determined by its length, which the length
    representation computes exactly."""
    if len(sys.output_alphabet) != 1:
        raise DomainError("unary lowering needs a single-letter output alphabet")
    return _length_representation(sys)


# ---------------------------------------------------------------------------
# catenative stage + linear representation -> polynomial recurrence


def _entry_var(i: str, k: int, l: int) -> str:
    return f"u_{i}_{k}_{l}"


def _symbolic_matrix(i: str, d: int):
    return tuple(
        tuple(Polynomial.var(_entry_var(i, k, l)) for l in range(d)) for k in range(d)
    )


class LoweredSeries(Record):
    """A polynomial system tracking the matrix images of the catenative
    values, plus the linear output form K reading the answer off."""

    system: PolynomialSystem
    output_form: Polynomial

    def eval(self, w: Word) -> int:
        """K at the values at w; letter by letter, only the indices K reads
        and the ones they read in turn are stepped."""
        form = self.output_form
        return form.evaluate_int(eval_polynomial_vector(self.system, w, form.variables()))


def series_to_polynomial_system(
    g: CatenativeSystem, rep: LinearRepresentation, i0: str
) -> LoweredSeries:
    """The series lowering of ``compose_level3(g, i0, rep)``."""
    return compose_level3(g, i0, rep).lower()


# ---------------------------------------------------------------------------
# Skolem reduction: running product of differences


class SkolemProduct(Record):
    system: PolynomialSystem
    product_index: str

    def eval(self, n: int) -> int:
        (letter,) = self.system.input_alphabet
        return eval_polynomial(self.system, self.product_index, (letter,) * n)


def _require_linear(sys: PolynomialSystem, name: str):
    if len(sys.input_alphabet) != 1:
        raise DomainError(f"{name} must have a unary input alphabet")
    if not sys.affine:
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
    check_index(u, iu)
    check_index(v, iv)
    (letter,) = u.input_alphabet
    pair = product_system(rename_system(u, "u_"), rename_system(v, "v_"))
    acc = "w_acc"
    step = pair.rule_map[("u_" + iu, letter)] - pair.rule_map[("v_" + iv, letter)]
    rules = {**pair.rule_map, (acc, letter): Polynomial.var(acc) * step}
    base = {**pair.base_map, acc: u.base_map[iu] - v.base_map[iv]}
    system = PolynomialSystem.make(pair.indices + (acc,), u.input_alphabet, rules, base, ring="Z")
    return SkolemProduct(system, acc)
