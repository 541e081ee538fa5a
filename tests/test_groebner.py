import random
from fractions import Fraction
from itertools import combinations

import pytest

from wordmaps.errors import BudgetExceededError, DomainError
from wordmaps.groebner import (
    GroebnerBasis,
    Ideal,
    default_variables,
    eliminate,
    groebner,
    ideal_intersect,
    ideal_membership,
    in_radical,
    normal_form,
    points_ideal,
    s_polynomial,
)
from wordmaps.polynomials import Polynomial, format_polynomial, parse_polynomial

from conftest import standard_monomial_count

x, y, z = Polynomial.var("x"), Polynomial.var("y"), Polynomial.var("z")


# ---------------------------------------------------------------------------
# polynomial arithmetic


def test_poly_ring_examples():
    assert (x + y) + (x - y) == 2 * x
    assert (x + 1) ** 2 == x * x + 2 * x + 1
    assert (x * x * y).evaluate({"x": 3, "y": 2}) == 18


def test_poly_mixed_variable_sets():
    p = x + y
    q = y + z
    assert (p + q).variables() == {"x", "y", "z"}
    assert (p * q).degree() == 2


def test_poly_parse_and_format_round_trip():
    texts = ["2 * x^2 + y - 3", "x * y - 1", "- x + 4", "x^3 - x", "0 + x - x"]
    for t in texts:
        p = parse_polynomial(t)
        assert parse_polynomial(format_polynomial(p)) == p


def test_unary_minus_binds_looser_than_power():
    assert parse_polynomial("-x^2") == -(x * x)
    assert parse_polynomial("(-x)^2") == x * x
    p = parse_polynomial("y - x^2")
    assert format_polynomial(p) == "-x^2 + y"
    assert parse_polynomial(format_polynomial(p)) == p


def test_poly_substitute():
    p = x * x + y
    assert p.substitute({"x": y}) == y * y + y
    assert p.substitute({"y": Polynomial.const(0)}) == x * x


def test_poly_evaluate_exact():
    p = parse_polynomial("x^2 - 2 * x + 1")
    assert p.evaluate({"x": Fraction(1, 2)}) == Fraction(1, 4)


def test_poly_coefficients_are_ints_when_integral():
    two = Polynomial({(): Fraction(4, 2)})
    assert type(two.terms[()]) is int and two.terms[()] == 2
    assert two == Polynomial.const(2) and hash(two) == hash(Polynomial.const(2))
    assert type(Polynomial.const(2).terms[()]) is int
    assert type(x.terms[(("x", 1),)]) is int
    assert Polynomial.const(Fraction(1, 2)).terms[()] == Fraction(1, 2)
    half = Polynomial.const(Fraction(1, 2)) * x
    assert type((half + half).terms[(("x", 1),)]) is int
    assert type((2 * half).terms[(("x", 1),)]) is int


def test_poly_rejects_non_exact_scalars():
    for bad in (1.5, "a", 0.1, "1/2"):
        with pytest.raises(TypeError):
            x * bad
        with pytest.raises(TypeError):
            bad * x
        with pytest.raises(TypeError):
            x + bad
        # construction refuses what arithmetic refuses
        with pytest.raises(TypeError, match="cannot treat"):
            Polynomial.const(bad)
        with pytest.raises(TypeError, match="cannot treat"):
            Polynomial({(): bad})
        with pytest.raises(TypeError, match="cannot treat"):
            Polynomial({(("x", 1),): bad})
    assert Polynomial.const(True) == 1 and type(Polynomial.const(True).terms[()]) is int


def test_poly_evaluate_reads_other_values_exactly():
    assert x.evaluate({"x": 1.5}) == Fraction(3, 2)
    assert (x * x).evaluate({"x": 0.1}) == Fraction(0.1) ** 2
    assert type((x * y).evaluate({"x": Fraction(2), "y": 3})) is int
    with pytest.raises(DomainError):
        (x * Fraction(1, 2)).evaluate_int({"x": 1})
    with pytest.raises(DomainError):
        x.evaluate({"y": 1})
    for bad in ("3/4", "1"):
        with pytest.raises(TypeError, match="'x'"):
            x.evaluate({"x": bad})
        with pytest.raises(TypeError):
            x.evaluate_int({"x": bad})


def _assert_normalised(p):
    for c in p.terms.values():
        assert c != 0
        assert type(c) is (int if c.denominator == 1 else Fraction)


def test_poly_kernel_against_sympy_ring():
    pytest.importorskip("sympy")
    from hypothesis import given, settings
    from hypothesis import strategies as st
    from sympy import QQ
    from sympy.polys.rings import ring

    coeff = st.integers(-6, 6) | st.fractions(-3, 3, max_denominator=4)
    value = st.integers(-3, 3) | st.fractions(-2, 2, max_denominator=3)

    def polys(variables):
        mono = st.tuples(*[st.integers(0, 3)] * len(variables)).map(
            lambda exps: tuple((v, e) for v, e in zip(variables, exps) if e)
        )
        return st.dictionaries(mono, coeff, max_size=5).map(Polynomial)

    def case(n):
        variables = ("x", "y", "z")[:n]
        return st.tuples(
            st.just(variables),
            polys(variables),
            polys(variables),
            st.lists(polys(variables), min_size=n, max_size=n),
            st.lists(value, min_size=n, max_size=n),
            st.integers(1, 4),
        )

    @settings(deadline=None, max_examples=100)
    @given(st.one_of(case(1), case(2), case(3)))
    def check(args):
        variables, p, q, images, point, k = args
        R, *gens = ring(",".join(variables), QQ)

        def to_ring(f):
            _assert_normalised(f)
            return R.from_dict(
                {
                    tuple(dict(m).get(v, 0) for v in variables): QQ(c.numerator, c.denominator)
                    for m, c in f.terms.items()
                }
            )

        assert to_ring(p + q) == to_ring(p) + to_ring(q)
        assert to_ring(p - q) == to_ring(p) - to_ring(q)
        assert to_ring((p + q) - q) == to_ring(p)
        assert to_ring(p * q) == to_ring(p) * to_ring(q)
        assert to_ring(p**k) == to_ring(p) ** k
        assert p**0 == 1
        env = dict(zip(variables, images))
        assert to_ring(p.substitute(env)) == to_ring(p).compose(
            list(zip(gens, map(to_ring, images)))
        )
        keep = {variables[0]: images[0]}
        assert to_ring(p.substitute(keep)) == to_ring(p).compose(gens[0], to_ring(images[0]))
        theirs = to_ring(p)(*(QQ(c.numerator, c.denominator) for c in point))
        ours = p.evaluate(dict(zip(variables, point)))
        assert ours == Fraction(int(theirs.numerator), int(theirs.denominator))
        assert type(ours) is (int if theirs.denominator == 1 else Fraction)
        ints = {v: int(c) for v, c in zip(variables, point)}
        if all(c.denominator == 1 for c in p.terms.values()):
            assert p.evaluate_int(ints) == p.evaluate(ints)

    check()


def _hyp_polys():
    from hypothesis import strategies as st

    coeff = st.integers(-4, 4)
    mono = st.lists(
        st.tuples(st.sampled_from(["x", "y"]), st.integers(1, 3)), max_size=2
    ).map(lambda items: tuple(sorted(dict(items).items())))
    return st.dictionaries(mono, coeff, max_size=4).map(Polynomial)


def test_ring_axioms():
    from hypothesis import given

    @given(_hyp_polys(), _hyp_polys(), _hyp_polys())
    def check(p, q, r):
        assert p + q == q + p
        assert (p + q) + r == p + (q + r)
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p + Polynomial.zero() == p
        assert p * Polynomial.const(1) == p
        assert p - p == Polynomial.zero()

    check()


# ---------------------------------------------------------------------------
# groebner bases


def test_trivial_bases():
    assert groebner([x]) == [x]
    assert groebner([Polynomial.const(1)]) == [Polynomial.const(1)]
    assert groebner([]) == []


def test_membership_examples():
    assert Ideal([x]).contains(x * x)
    assert not Ideal([x, y]).contains(Polynomial.const(1))
    nf = normal_form(y, groebner([x * x - y]), ("x", "y"))
    assert nf == y  # y is irreducible modulo the basis


def test_membership_invariant_under_permutation_and_order():
    rng = random.Random(51)
    variables = ("x", "y", "z", "w")

    def random_poly():
        terms = {}
        for _ in range(rng.randrange(1, 4)):
            mono = tuple(
                sorted(
                    (v, rng.randrange(1, 3))
                    for v in rng.sample(variables, rng.randrange(0, 3))
                )
            )
            terms[mono] = terms.get(mono, 0) + rng.randrange(-3, 4)
        return Polynomial(terms)

    for _ in range(50):
        gens = [p for p in (random_poly() for _ in range(rng.randrange(1, 4))) if not p.is_zero()]
        if not gens:
            continue
        probes = [random_poly() for _ in range(3)] + [gens[0] * random_poly()]
        reference = Ideal(gens, variables)
        shuffled = list(gens)
        rng.shuffle(shuffled)
        permuted = Ideal(shuffled, variables)
        for p in probes:
            expected = reference.contains(p)
            assert permuted.contains(p) == expected
            assert reference.contains(p, order="lex") == expected


def test_spolynomials_reduce_to_zero():
    cases = [
        [x * x - y, x ** 3 - x],
        [x * y - 1, y * y - 1],
        [x + y + z, x * y + y * z + z * x, x * y * z - 1],
    ]
    for gens in cases:
        variables = default_variables(gens)
        basis = groebner(gens, variables)
        for f, g in combinations(basis, 2):
            s = s_polynomial(f, g, variables)
            assert normal_form(s, basis, variables).is_zero()


def test_s_polynomial_of_zero_is_a_domain_error():
    for f, g in ((Polynomial.zero(), x), (x * y - 1, Polynomial.zero())):
        with pytest.raises(DomainError, match="zero polynomial"):
            s_polynomial(f, g)


def test_results_are_spelled_in_name_order_whatever_the_variable_sequence():
    # a monomial order follows positions in the variable sequence, so renaming
    # the variables along a permutation renames every result; == compares
    # term keys, which spell each monomial's variables in name order
    from hypothesis import given, settings
    from hypothesis import strategies as st

    names = ("x", "y", "z")
    mono = st.tuples(*[st.integers(0, 2)] * 3).map(
        lambda exps: tuple((v, e) for v, e in zip(names, exps) if e)
    )
    poly = st.dictionaries(mono, st.integers(-3, 3), max_size=3).map(Polynomial)
    coords = st.lists(st.tuples(*[st.integers(-3, 3)] * 3), min_size=1, max_size=6)

    @settings(deadline=None, max_examples=60)
    @given(st.permutations(names), st.lists(poly, max_size=3), poly, coords, st.sampled_from(["grevlex", "lex"]))
    def check(perm, gens, p, coords, order):
        env = {v: Polynomial.var(w) for v, w in zip(names, perm)}

        def renamed(f):
            return f.substitute(env)

        basis = groebner(gens, names, order)
        assert groebner(map(renamed, gens), perm, order) == list(map(renamed, basis))
        remainder = normal_form(p, basis, names, order)
        assert normal_form(renamed(p), map(renamed, basis), perm, order) == renamed(remainder)
        points = points_ideal([dict(zip(names, c)) for c in coords], names)
        assert points_ideal([dict(zip(perm, c)) for c in coords], perm) == list(map(renamed, points))

    check()


def test_basis_deterministic():
    gens = [x * x - y, x ** 3 - x]
    assert groebner(gens) == groebner(gens)


def test_basis_reduced_and_monic():
    basis = groebner([2 * x * x - 2 * y, 4 * (x ** 3) - 4 * x])
    for g in basis:
        lead = max(g.terms.values(), key=abs)
        # monic leading coefficient, checked via the formatted form
        assert any(c == 1 for c in g.terms.values())
        others = [h for h in basis if h is not g]
        assert normal_form(g, others, default_variables(basis)) == g


# ---------------------------------------------------------------------------
# packed monomials


def _grevlex_key(e):
    return (sum(e), *(-x for x in reversed(e)))


def _reference_key(order, e, block):
    if order == "lex":
        return tuple(e)
    if order == "grevlex":
        return _grevlex_key(e)
    return _grevlex_key(e[:block]) + _grevlex_key(e[block:])


def test_codec_matches_tuple_keys():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from wordmaps.groebner import _Codec

    width = 8
    limit = 1 << width - 2  # every field of a packed monomial stays below this

    def parts(total, cuts):
        """total split into len(cuts) + 1 nonnegative parts."""
        cuts = sorted(c % (total + 1) for c in cuts)
        return [b - a for a, b in zip([0, *cuts], [*cuts, total])]

    def group(k):
        # a grevlex group's degree is a field: it may reach the limit exactly
        total = st.one_of(st.just(limit - 1), st.integers(0, limit - 1))
        return st.builds(parts, total, st.lists(st.integers(0, limit), min_size=k - 1, max_size=k - 1))

    @st.composite
    def case(draw):
        order = draw(st.sampled_from(["lex", "grevlex", "block-grevlex"]))
        n = draw(st.integers(1, 5))
        block = draw(st.integers(0, n)) if order == "block-grevlex" else 0
        if order == "lex":
            exps = st.lists(st.one_of(st.just(limit - 1), st.integers(0, limit - 1)), min_size=n, max_size=n)
        elif order == "grevlex":
            exps = group(n)
        else:
            exps = st.builds(lambda a, b: a + b, group(block) if block else st.just([]),
                             group(n - block) if block < n else st.just([]))
        return order, n, block, draw(st.lists(exps, min_size=4, max_size=4))

    @settings(deadline=None, max_examples=300)
    @given(case())
    def check(c):
        order, n, block, (a, b, c_, d) = c
        codec = _Codec(order, n, block, width)
        key = lambda e: _reference_key(order, e, block)
        pa, pb, pc, pd = map(codec.pack, (a, b, c_, d))
        assert codec.unpack(pa) == tuple(a)
        assert (pa < pb) == (key(a) < key(b)) and (pa == pb) == (a == b)
        # sums of two packed monomials carry into no neighbouring field
        ab, cd = [x + y for x, y in zip(a, b)], [x + y for x, y in zip(c_, d)]
        assert codec.unpack(pa + pb) == tuple(ab)
        assert (pa + pb < pc + pd) == (key(ab) < key(cd))
        assert (not (pb - pa) & codec.guard) == all(x <= y for x, y in zip(a, b))
        # the test also holds against a sum or an lcm, whose fields may pass
        # the limit but stay below the guard bit
        assert (not (pc + pd - pa) & codec.guard) == all(x <= y for x, y in zip(a, cd))
        assert codec.unpack(codec.lcm(pa, pb)) == tuple(map(max, a, b))
        assert (codec.lcm(pa, pb) < pc) == (key(list(map(max, a, b))) < key(c_))

    check()


def test_field_overflow_repacks_at_twice_the_width(monkeypatch):
    import wordmaps.groebner as kernel

    # the inputs have degree 300, so the fields start 11 bits wide; y^90000,
    # above 2^16, first appears while reducing
    widths = []
    widening = kernel._widening
    monkeypatch.setattr(kernel, "_widening", lambda codec, compute: widening(
        codec, lambda c: (widths.append(c.width), compute(c))[1]))
    assert normal_form(x**300, [x - y**300], ("x", "y"), "lex") == y**90000
    assert widths == [11, 22]
    widths.clear()
    basis = GroebnerBasis([x - y**300], ("x", "y"), "lex")
    assert basis.codec.width == 11
    assert basis.add(x**300)
    assert widths == [11, 22] and basis.codec.width == 22
    assert basis.reduced() == [x - y**300, y**90000]
    assert not basis.add(y**90001 - x * y**89701)
    # an added polynomial of a degree the fields cannot hold
    basis = GroebnerBasis([x - y], ("x", "y", "z"), "lex")
    assert basis.codec.width == 8
    assert basis.add(z**5000 - 1)
    assert basis.codec.width == 16
    assert basis.reduced() == [x - y, z**5000 - 1]


def test_repacking_keeps_every_stored_monomial_in_range():
    class Checked(GroebnerBasis):
        def _widening(self, compute):
            def checked(codec):
                # the pending pairs' lcms are packed like the basis
                assert all(l == codec.lcm(self.LT[i], self.LT[j]) for l, i, j in self._pairs)
                waiting.setdefault(codec.width, len(self._pairs))
                return compute(codec)

            return super()._widening(checked)

    # the first ideal meets y^600 in an S-polynomial, whose remainder is
    # stored with no reduction step to check it; the second one overflows
    # while two S-pairs wait (sympy's lex bases are the ones asserted)
    for gens, want in [
        ([x * z - y**300, x * y**300 - 1], [x * y**300 - 1, x * z - y**300, y**600 - z]),
        ([x - y**300, x**2 - z, x * z - 1], [x - z**2, y**300 - z**2, z**3 - 1]),
    ]:
        waiting = {}
        basis = Checked(gens, ("x", "y", "z"), "lex")
        assert sorted(waiting) == [11, 22]
        assert not any(m & basis.codec.full for g in basis.G for m in g)
        assert basis.reduced() == want
    assert waiting[22] == 2


# ---------------------------------------------------------------------------
# elimination, intersection, radicals


def test_eliminate_twisted_cubic():
    el = eliminate(Ideal([y - x * x, z - x ** 3]), {"x"})
    assert el.contains(z * z - y ** 3)
    assert all("x" not in g.variables() for g in el.generators)


def test_eliminate_edge_cases():
    i = Ideal([x * x - y])
    assert eliminate(i, set()).same_ideal(i)
    assert eliminate(Ideal([x]), {"x"}).is_zero_ideal()


def test_intersect_examples():
    i = Ideal([x])
    j = Ideal([y])
    meet = ideal_intersect(i, j)
    assert meet.same_ideal(Ideal([x * y]))
    k = Ideal([x * x - y])
    assert ideal_intersect(k, k).same_ideal(k)
    assert ideal_intersect(k, Ideal([Polynomial.const(1)])).same_ideal(k)


def test_intersect_membership_both_ways():
    i = Ideal([x, y])
    j = Ideal([x - 1])
    meet = ideal_intersect(i, j)
    for g in meet.generators:
        assert i.contains(g) and j.contains(g)
    assert meet.contains(x * x - x)


def test_in_radical():
    assert in_radical(x, Ideal([x * x]))
    assert not in_radical(y, Ideal([x * x]))
    assert in_radical(x + y, Ideal([(x + y) ** 3]))


def test_budget_error():
    gens = [x ** 2 + y * z, y ** 2 + x * z, z ** 2 + x * y]
    with pytest.raises(BudgetExceededError):
        groebner(gens, max_basis=1)


def test_cached_basis_keeps_its_size_budget():
    # the grevlex completion of these two generators appends y^2 - x
    for membership_first in (True, False):
        ideal = Ideal([x * x - y, x * y - 1])
        if membership_first:
            assert ideal.contains(x ** 3 - 1)
        for budget in (1, 2):
            with pytest.raises(BudgetExceededError, match=f"size budget \\({budget}\\)"):
                ideal.groebner_basis(max_basis=budget)
        assert ideal.groebner_basis(max_basis=3) == [x * x - y, x * y - 1, y * y - x]
        assert ideal.contains(x ** 3 - 1)


def test_ideal_membership_function():
    assert ideal_membership(x * y, Ideal([x]))
    assert not ideal_membership(y, Ideal([x]))


def test_cross_check_against_sympy():
    sympy = pytest.importorskip("sympy")
    from hypothesis import given, settings
    from hypothesis import strategies as st

    variables = ("x", "y", "z")
    symbols = sympy.symbols(variables)

    def to_sympy(p, names=variables):
        return sympy.Poly.from_dict(
            {tuple(dict(m).get(v, 0) for v in names): c for m, c in p.terms.items()},
            *sympy.symbols(names), domain="QQ",
        )

    mono = st.tuples(*[st.integers(0, 2)] * 3).map(
        lambda exps: tuple((v, e) for v, e in zip(variables, exps) if e)
    )
    coeff = st.integers(-3, 3) | st.fractions(-3, 3, max_denominator=4)
    poly = st.dictionaries(mono, coeff, min_size=1, max_size=3).map(Polynomial)
    ideals = st.lists(poly.filter(bool), min_size=1, max_size=3)

    @settings(deadline=None, max_examples=60)
    @given(ideals, st.sampled_from(["grevlex", "lex"]))
    def check_basis(gens, order):
        ours = groebner(gens, variables, order=order)
        theirs = sympy.groebner([to_sympy(g) for g in gens], *symbols, order=order, domain="QQ")
        assert {to_sympy(g) for g in ours} == set(theirs.polys), [str(g) for g in gens]

    @settings(deadline=None, max_examples=40)
    @given(ideals, st.sets(st.sampled_from(variables), min_size=1, max_size=2))
    def check_eliminate(gens, drop):
        keep = tuple(v for v in variables if v not in drop)
        dropped = sympy.symbols(sorted(drop))
        kept = sympy.symbols(keep)
        ours = [to_sympy(g, keep) for g in eliminate(Ideal(gens, variables), drop).generators]
        lex = sympy.groebner([to_sympy(g) for g in gens], *dropped, *kept, order="lex", domain="QQ")
        theirs = [sympy.Poly(g, *kept, domain="QQ") for g in lex.exprs if not g.has(*dropped)]
        assert bool(ours) == bool(theirs)
        if ours:
            # the same ideal: each basis lies in the ideal the other generates
            assert all(sympy.groebner(ours, *kept, domain="QQ").contains(g) for g in theirs)
            assert all(sympy.groebner(theirs, *kept, domain="QQ").contains(g) for g in ours)

    @settings(deadline=None, max_examples=60)
    @given(ideals, st.dictionaries(mono, coeff, max_size=5).map(Polynomial),
           st.sampled_from(["grevlex", "lex"]))
    def check_normal_form(gens, p, order):
        # the exact remainder over QQ, not an integer multiple of it
        ours = normal_form(p, groebner(gens, variables, order=order), variables, order)
        theirs = sympy.groebner([to_sympy(g) for g in gens], *symbols, order=order, domain="QQ")
        assert to_sympy(ours) == theirs.reduce(to_sympy(p))[1], [str(g) for g in gens]

    @settings(deadline=None, max_examples=60)
    @given(ideals, st.dictionaries(mono, coeff, max_size=5).map(Polynomial),
           st.sampled_from(["grevlex", "lex"]))
    def check_incremental(gens, p, order):
        basis = GroebnerBasis([], variables, order)
        for g in gens:
            basis.add(g)
        ours = basis.reduced()
        assert ours == groebner(gens, variables, order=order)
        # a minimal basis is as long as the reduced one
        assert len(basis.G) == len(ours)
        theirs = sympy.groebner([to_sympy(g) for g in gens], *symbols, order=order, domain="QQ")
        assert {to_sympy(g) for g in ours} == set(theirs.polys), [str(g) for g in gens]
        assert (not basis.reduce(p)) == theirs.reduce(to_sympy(p))[1].is_zero

    check_basis()
    check_eliminate()
    check_normal_form()
    check_incremental()


# ---------------------------------------------------------------------------
# ideals of points


def test_points_ideal_properties():
    sympy = pytest.importorskip("sympy")
    from hypothesis import given, settings
    from hypothesis import strategies as st

    def point_sets(bound, max_size):
        return st.integers(1, 3).flatmap(
            lambda n: st.lists(
                st.tuples(*[st.integers(-bound, bound)] * n), min_size=1, max_size=max_size
            )
        )

    def check(coords, degree):
        variables = ("x", "y", "z")[: len(coords[0])]
        points = [dict(zip(variables, c)) for c in coords]
        basis = points_ideal(points, variables)
        for g in basis:
            for pt in points:
                assert g.evaluate(pt) == 0
        symbols = sympy.symbols(variables)

        def to_sympy(p):
            return sympy.Poly.from_dict(
                {tuple(dict(m).get(v, 0) for v in variables): c for m, c in p.terms.items()},
                *symbols, domain="QQ",
            )

        theirs = sympy.groebner([to_sympy(g) for g in basis], *symbols, order="grevlex", domain="QQ")
        assert {to_sympy(g) for g in basis} == set(theirs.polys)
        assert standard_monomial_count(basis, variables) == len(set(coords))
        capped = points_ideal(points, variables, max_degree=degree)
        assert capped == [g for g in basis if g.degree() <= degree]

    # small coordinates, and wide ones whose eliminations carry large contents
    settings(deadline=None)(given(point_sets(3, 10), st.integers(0, 4))(check))()
    settings(deadline=None, max_examples=40)(given(point_sets(10**12, 40), st.integers(0, 4))(check))()


def test_points_ideal_fibonacci_orbit():
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    fib = [0, 1]
    while len(fib) < 121:
        fib.append(fib[-1] + fib[-2])
    points = [{"x": fib[i], "y": fib[i + 1]} for i in range(120)]
    basis = points_ideal(points, ("x", "y"), max_degree=8)
    # the orbit lies on (x^2 + xy - y^2)^2 = 1
    assert [format_polynomial(g) for g in basis] == [
        "-2 * x * y^3 - x^2 * y^2 + 2 * x^3 * y + x^4 + y^4 - 1"
    ]
    assert all(g.evaluate(pt) == 0 for g in basis for pt in points)
    # the polynomials of degree <= 8 vanishing on the orbit are the multiples
    # of the quartic: 45 monomials less the rank of the evaluation matrix
    monomials = [(i, d - i) for d in range(9) for i in range(d + 1)]
    rows = [[sympy.ZZ(pt["x"] ** i * pt["y"] ** j) for i, j in monomials] for pt in points]
    rank = DomainMatrix(rows, (len(points), len(monomials)), sympy.ZZ).rank()
    assert len(monomials) - rank == sum(i >= 4 for i, _ in monomials)


def test_points_ideal_needs_integer_points():
    for bad in (Fraction(1, 2), 0.5, "1"):
        with pytest.raises(DomainError, match="'y'"):
            points_ideal([{"x": 1, "y": 2}, {"x": 3, "y": bad}], ("x", "y"))
