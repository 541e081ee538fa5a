"""Finite-alphabet word homomorphisms, HDT0L systems, and linear representations.

Composition follows the diagrammatic convention used throughout this library:
``compose(f, g)`` applies f first, so ``compose(f, g)(w) == g(f(w))``.  The
convention is load-bearing: iterating a word-indexed family of morphisms on a
seed applies the morphism of the first letter first,
``H^{uv}(c) == H^v(H^u(c))``.

``suffix_walk``, behind HDT0L systems (rule (V, a) is H^a(V)) and the
catenative, compositional and level-3 values, computes at each suffix only the
indices the requested value reads.  ``word_product`` takes letter matrices and
affine polynomial maps along a word one run a^k at a time, in O(log k) steps.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain, groupby, repeat
from typing import Iterable, Mapping

from .errors import DomainError, Record
from .words import Word


class Homomorphism:
    """A total letter-to-word map between finite alphabets."""

    __slots__ = ("source", "target", "images", "_hash")

    def __init__(self, images: Mapping[str, Iterable[str]], source=None, target=None):
        images = {a: tuple(w) for a, w in images.items()}
        source = frozenset(images) if source is None else frozenset(source)
        used = frozenset(chain.from_iterable(images.values()))
        target = (source | used) if target is None else frozenset(target)
        missing, extra = source - images.keys(), images.keys() - source
        if missing:
            raise DomainError(f"no image given for source letter {min(missing)!r}")
        if extra:
            raise DomainError(f"image given for {min(extra)!r} which is not a source letter")
        if not used <= target:
            raise DomainError(f"image letters {sorted(used - target)} outside the target alphabet")
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "images", images)
        object.__setattr__(self, "_hash", hash((source, tuple(sorted(images.items())))))

    def __setattr__(self, name, value):
        raise AttributeError("Homomorphism is immutable")

    @classmethod
    def identity(cls, alphabet: Iterable[str]) -> "Homomorphism":
        alphabet = frozenset(alphabet)
        return cls({a: (a,) for a in alphabet}, source=alphabet, target=alphabet)

    @classmethod
    def bracket(cls, image_x, image_y) -> "Homomorphism":
        """The two-letter shorthand [w, w']: x -> w, y -> w'."""
        return cls({"x": tuple(image_x), "y": tuple(image_y)}, source="xy", target="xy")

    def __call__(self, w: Word) -> Word:
        out = []
        for a in w:
            if a not in self.images:
                raise DomainError(f"letter {a!r} is outside the source alphabet")
            out.extend(self.images[a])
        return tuple(out)

    def __eq__(self, other):
        return (
            isinstance(other, Homomorphism)
            and self.source == other.source
            and self.images == other.images
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        body = "; ".join(
            f"{a} -> {' '.join(w) if w else 'eps'}" for a, w in sorted(self.images.items())
        )
        return "{" + body + "}"


def compose(f: Homomorphism, g: Homomorphism) -> Homomorphism:
    """The homomorphism applying f first: compose(f, g)(w) = g(f(w))."""
    if not f.target <= g.source:
        raise DomainError(
            f"cannot compose: target {sorted(f.target)} is not contained in "
            f"source {sorted(g.source)}"
        )
    return Homomorphism(
        {a: g(f.images[a]) for a in f.source}, source=f.source, target=g.target
    )


# ---------------------------------------------------------------------------
# HDT0L systems


class HDT0LSystem(Record):
    """A word-indexed family of endomorphisms iterated on a seed, with a
    final coding homomorphism applied last: f(w) = final(H^w(seed))."""

    input_alphabet: frozenset[str]
    working: frozenset[str]
    tables: tuple  # sorted (letter, Homomorphism) pairs
    final: Homomorphism
    seed: str

    @classmethod
    def make(cls, input_alphabet, working, tables: Mapping[str, Homomorphism], final, seed):
        input_alphabet = frozenset(input_alphabet)
        working = frozenset(working)
        missing = input_alphabet - tables.keys()
        if missing:
            raise DomainError(f"no table for input letter {min(missing)!r}")
        for a, h in sorted(tables.items()):
            if a not in input_alphabet:
                raise DomainError(f"table for {a!r} outside the input alphabet")
            if not (h.source == working and h.target <= working):
                raise DomainError(f"table for {a!r} is not an endomorphism of the working alphabet")
        if final.source != working:
            raise DomainError("the final homomorphism must be defined on the working alphabet")
        if seed not in working:
            raise DomainError(f"seed {seed!r} is not a working letter")
        return cls(input_alphabet, working, tuple(sorted(tables.items())), final, seed)

    @cached_property
    def table_map(self) -> dict[str, Homomorphism]:
        return dict(self.tables)

    @cached_property
    def rule_map(self) -> dict[tuple[str, str], Word]:  # (V, a) |-> H^a(V)
        return {(v, a): h.images[v] for a, h in self.tables for v in self.working}

    def table(self, a: str) -> Homomorphism:
        if a not in self.table_map:
            raise DomainError(f"no table for input letter {a!r}")
        return self.table_map[a]

    @property
    def output_alphabet(self) -> frozenset[str]:
        return self.final.target


def concat(parts) -> Word:
    """The product of a list of words.  Words are tuples, so a one-part
    product is that part itself; more than two parts are joined in one pass,
    as folding ``+`` would copy quadratically."""
    if len(parts) == 1:
        return parts[0]
    if len(parts) == 2:
        return parts[0] + parts[1]
    return tuple(chain.from_iterable(parts))


def check_index(sys, i: str):
    if i not in sys.indices:
        raise DomainError(f"unknown index {i!r}")


def check_word(sys, w: Word):
    if not sys.input_alphabet.issuperset(w):
        for a in w:
            if a not in sys.input_alphabet:
                raise DomainError(f"letter {a!r} is outside the input alphabet")


def demand(w: Word, wanted: frozenset, reads):
    """(a, the indices needed at the suffix of w that starts with a) for each
    letter a of w, last letter first.  The whole of w needs ``wanted``; past a
    letter a, a suffix needs every index that ``reads[(j, a)]`` names for an
    index j needed before it.  The forward pass makes one set per distinct
    (indices, letter) step and stops at the first set that every letter of w
    maps to itself, which every shorter suffix then needs too."""
    letters, steps, stable = set(w), {}, {}

    def after(need, a):
        key = (need, a)
        if key not in steps:
            steps[key] = frozenset().union(*[reads[(j, a)] for j in need])
        return steps[key]

    needs = [wanted]
    for a in w:
        need = needs[-1]
        if need not in stable:
            stable[need] = all(after(need, b) == need for b in letters)
        if stable[need]:
            break
        needs.append(after(need, a))
    past = len(w) + 1 - len(needs)  # the letters after the last set recorded
    return zip(reversed(w), chain(repeat(needs[-1], past), reversed(needs[:-1])))


def suffix_walk(sys, i: str, w: Word, values: Mapping, product):
    """f_i(w) for f_j(aw) = product([f_k(w) for k in sys.rule_map[(j, a)]]), with
    every f_j(eps) in values.  A forward pass (``demand``) records the indices
    f_i(w) reads at each suffix; the backward pass computes only those."""
    if i not in values:
        raise DomainError(f"unknown index {i!r}")
    check_word(sys, w)
    rules = sys.rule_map
    for a, need in demand(w, frozenset((i,)), rules):
        values = {j: product([values[k] for k in rules[(j, a)]]) for j in need}
    return values[i]


def eval_hdt0l(sys: HDT0LSystem, w: Word) -> Word:
    return suffix_walk(sys, sys.seed, w, sys.final.images, concat)


# ---------------------------------------------------------------------------
# Parikh vectors, incidence matrices, linear representations

Matrix = tuple[tuple[int, ...], ...]


def parikh(w: Word, letters) -> tuple[int, ...]:
    letters = tuple(letters)
    counts = {a: 0 for a in letters}
    for a in w:
        if a not in counts:
            raise DomainError(f"letter {a!r} is outside the alphabet {letters}")
        counts[a] += 1
    return tuple(counts[a] for a in letters)


def incidence(h: Homomorphism, order=None) -> Matrix:
    """Row V lists the letter counts of h(V), rows and columns in ``order``
    (default: sorted source letters); parikh(h(w)) = parikh(w) . M."""
    order = tuple(sorted(h.source)) if order is None else tuple(order)
    return tuple(parikh(h.images[a], order) for a in order)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    cols = len(b[0])
    return tuple(
        tuple(sum(row[k] * b[k][j] for k in range(len(b))) for j in range(cols)) for row in a
    )


def vec_mat(v, m: Matrix):
    return tuple(sum(v[k] * m[k][j] for k in range(len(m))) for j in range(len(m[0])))


def dot(v, u) -> int:
    return sum(x * y for x, y in zip(v, u))


class LinearRepresentation(Record):
    """w |-> row . M_{w_1} ... M_{w_n} . col with exact bignum arithmetic."""

    dimension: int
    row: tuple[int, ...]
    matrices: tuple  # sorted (letter, Matrix) pairs
    col: tuple[int, ...]

    @classmethod
    def make(cls, row, matrices: Mapping[str, Matrix], col) -> "LinearRepresentation":
        row = tuple(row)
        col = tuple(col)
        d = len(row)
        if d < 1:
            raise DomainError(f"a linear representation needs dimension >= 1, not dimension {d}")
        if len(col) != d:
            raise DomainError("row and column dimensions differ")
        norm = {}
        for a, m in matrices.items():
            m = tuple(tuple(r) for r in m)
            if len(m) != d or any(len(r) != d for r in m):
                raise DomainError(f"matrix for {a!r} is not {d}x{d}")
            norm[a] = m
        parts = {"row": row, "column": col, **{f"matrix for {a!r}": sum(m, ()) for a, m in norm.items()}}
        for where, values in parts.items():
            bad = [v for v in values if not isinstance(v, int) or isinstance(v, bool)]
            if bad:
                raise DomainError(f"{where} has a non-int entry {bad[0]!r}")
        return cls(d, row, tuple(sorted(norm.items())), col)

    @cached_property
    def matrix_map(self) -> dict[str, Matrix]:
        return dict(self.matrices)

    def matrix(self, a: str) -> Matrix:
        if a not in self.matrix_map:
            raise DomainError(f"no matrix for letter {a!r}")
        return self.matrix_map[a]

    @property
    def letters(self) -> frozenset[str]:
        return frozenset(self.matrix_map)


def word_product(x, w: Word, first, mul, square):
    """x acted on by the letters of the sequence w in order: a run a^k applies
    ``mul(x, m)`` once per set bit of k, m from the maps of a^1, a^2, a^4, ...
    built from ``first(a)`` by ``square`` once per call.  A one-run word (a^n)
    is counted by ``w.count``, the runs of others by ``itertools.groupby``."""
    one_run = w and w[0] == w[-1] and w.count(w[0]) == len(w)
    powers = {}  # a |-> the maps of a^1, a^2, a^4, ...
    for a, run in [(w[0], w)] if one_run else groupby(w):
        k = len(run) if one_run else len(list(run))
        ms = powers.get(a) or powers.setdefault(a, [first(a)])
        t = 0
        while True:
            if k & 1:
                x = mul(x, ms[t])
            k >>= 1
            if not k:
                break
            t += 1
            if t == len(ms):
                ms.append(square(ms[-1]))
    return x


def linear_eval(rep: LinearRepresentation, w: Word) -> int:
    return dot(word_product(rep.row, w, rep.matrix, vec_mat, lambda m: mat_mul(m, m)), rep.col)
