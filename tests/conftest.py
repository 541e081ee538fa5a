import random
from itertools import product

import pytest

from wordmaps.pushdown import GradedAlphabet, IteratedPushdown, parse


WORKED_GAMMA = GradedAlphabet.of(
    ["A1", "B1", "C1", "D1"],
    ["A2", "B2", "C2", "D2"],
    ["A3", "B3", "C3", "D3"],
)

WORKED_UNDET = GradedAlphabet.of(
    ["O1", "O1p"],
    ["O2", "O2p"],
    ["O3", "O3p"],
)

WORKED_SYMBOLS = set().union(*WORKED_GAMMA.levels, *WORKED_UNDET.levels)

# The bundled pow2 machine with its emissions going to q2, which copies q0's
# moves: on a^n it emits b^(2^n) and empties its store in q2, not the start
# state, so the run ends Stuck after as many moves as pow2's accepted run.
POW2_STUCK_SYS = """pda pow2stuck {
  level: 2
  states: q0 q1 q2
  terminals: b
  input: a
  gamma 1: S
  gamma 2: a
  start: q0
  bottoms: S
  q0 , eps , S a -> q1 , pop_2
  q1 , eps , S a -> q0 , push_1(S S)
  q1 , eps , S -> q0 , push_1(S S)
  q0 , b , S -> q2 , pop_1
  q2 , eps , S a -> q1 , pop_2
  q2 , b , S -> q2 , pop_1
}
"""


@pytest.fixture
def worked_gamma():
    return WORKED_GAMMA


@pytest.fixture
def worked_undet():
    return WORKED_UNDET


@pytest.fixture
def omega():
    return parse("A1[A2[A3C3]B2[D3C3]]B1[B2[B3D3]]", 3, WORKED_SYMBOLS)


def pt(text, level=3):
    """Parse a store/term over the worked example's alphabets."""
    return parse(text, level, WORKED_SYMBOLS)


def random_store(rng: random.Random, level: int, symbols="ABCD", max_width=3) -> IteratedPushdown:
    if level == 0:
        return IteratedPushdown.empty(0)
    width = rng.randrange(max_width + 1)
    entries = tuple(
        (rng.choice(symbols), random_store(rng, level - 1, symbols, max_width))
        for _ in range(width)
    )
    return IteratedPushdown(level, entries)


def random_graded_store(rng: random.Random, gamma: GradedAlphabet, level=None, max_width=3):
    k = gamma.height
    level = k if level is None else level

    def build(lv):
        if lv == 0:
            return IteratedPushdown.empty(0)
        depth_level = k - lv + 1
        pool = sorted(gamma.levels[depth_level - 1])
        width = rng.randrange(max_width + 1)
        return IteratedPushdown(
            lv, tuple((rng.choice(pool), build(lv - 1)) for _ in range(width))
        )

    return build(level)


def standard_monomial_count(basis, variables):
    """Number of monomials outside the grevlex leading-term ideal of a
    zero-dimensional Groebner basis: the number of points of its variety,
    counted with multiplicity."""

    def exps(mono):
        powers = dict(mono)
        return tuple(powers.get(v, 0) for v in variables)

    leads = [
        max(map(exps, g.terms), key=lambda e: (sum(e), tuple(-x for x in reversed(e))))
        for g in basis
    ]
    bounds = [min(m[k] for m in leads if m[k] == sum(m) > 0) for k in range(len(variables))]
    return sum(
        not any(all(a >= b for a, b in zip(e, m)) for m in leads)
        for e in product(*(range(b) for b in bounds))
    )
