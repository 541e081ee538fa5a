import math
import random
from fractions import Fraction
from itertools import combinations

import pytest

from wordmaps import groebner as groebner_module
from wordmaps.errors import BudgetExceededError, DomainError, ParseError
from wordmaps.groebner import (
    GroebnerBasis,
    Ideal,
    _eliminate,
    default_variables,
    eliminate,
    groebner,
    ideal_intersect,
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


@pytest.mark.parametrize(
    "text,message,column",
    [
        ("x + 2 * y $ 3", "unexpected character '$' in expression", 11),
        ("'x", "unexpected character \"'\" in expression", 1),
        ("x ½", "unexpected character '½' in expression", 3),
        ("x\xa0# 1", "unexpected character '#' in expression", 3),
        ("2 * (x + é))", "unexpected token ')'", 12),
        ("x ^ y", "'^' must be followed by a nonnegative integer", 5),
    ],
)
def test_expression_errors_name_their_column(text, message, column):
    with pytest.raises(ParseError) as err:
        parse_polynomial(text)
    assert (str(err.value), err.value.column) == (message, column)


@pytest.mark.parametrize("text", ["x^²", "x ²", "2²", "x ^ 1²"])
def test_a_digit_that_is_not_decimal_is_an_unexpected_character(text):
    with pytest.raises(ParseError, match="^unexpected character '²' in expression$"):
        parse_polynomial(text)


def test_power_by_squaring_multiplies_only_what_it_uses(monkeypatch):
    p = x + 2 * y - 1
    expected = Polynomial.const(1)
    for n in range(21):
        assert p**n == expected, n
        expected = expected * p
    products = []
    mul = Polynomial.__mul__
    monkeypatch.setattr(Polynomial, "__mul__", lambda a, b: products.append(1) or mul(a, b))
    for n in range(1, 21):
        products.clear()
        p**n
        # one square per bit after the first, one product per further set bit
        assert len(products) == n.bit_length() - 1 + bin(n).count("1") - 1, n
    assert p**0 == 1 and p**1 == p


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


def test_a_constant_polynomial_hashes_as_the_constant_it_equals():
    for c in (0, 2, -7, Fraction(1, 2)):
        p = Polynomial.const(c)
        assert p == c and hash(p) == hash(c) and len({c, p}) == 1
    assert len({0, Polynomial.zero()}) == 1 and {2: "two"}[Polynomial.const(2)] == "two"


@pytest.mark.parametrize(
    "call,error,message",
    [
        (lambda: x.constant_value(), DomainError, "polynomial is not constant"),
        (lambda: x ** -1, DomainError, "negative polynomial power"),
        (lambda: setattr(x, "terms", {}), AttributeError, "Polynomial is immutable"),
        (lambda: parse_polynomial("2 * (x + 1"), ParseError, "missing ')'"),
        (lambda: parse_polynomial("2 * )"), ParseError, "unexpected token ')'"),
        (lambda: parse_polynomial("2 *"), ParseError, "expression ended unexpectedly"),
        (lambda: groebner([x + y], ("x",)), DomainError, "variable 'y' missing from the variable sequence"),
    ],
    ids=["constant_value", "negative-power", "immutable", "parse-paren", "parse-token", "parse-end",
         "groebner-variable"],
)
def test_every_polynomial_refusal_names_its_cause(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert str(err.value) == message


def test_a_parse_error_places_its_column_after_its_line():
    with pytest.raises(ParseError) as err:
        parse_polynomial("2 * (x + 1")
    assert err.value.column == 10
    assert str(ParseError("missing ')'", line=3, column=10, filename="f.sys")) == "f.sys:3:10: missing ')'"


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
    assert Ideal([x]).contains(x * y)
    assert not Ideal([x]).contains(y)
    assert not Ideal([x, y]).contains(Polynomial.const(1))
    # the zero ideal holds 0 and nothing else
    for zero in (Ideal([]), Ideal([], ("x",))):
        assert zero.contains(Polynomial.zero())
        assert not zero.contains(Polynomial.const(3)) and not zero.contains(x)
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
            assert normal_form(p, groebner(gens, variables, "lex"), variables, "lex").is_zero() == expected


def test_membership_with_fresh_variables_matches_normal_forms_and_sympy():
    # p lies in I K[x, y, z, s, t] exactly when each of its coefficients over
    # the fresh s and t lies in I; contains and same_ideal answer as one
    # normal form against the reduced basis, over the extended sequence, does
    sympy = pytest.importorskip("sympy")
    rng = random.Random(43)
    variables, names = ("x", "y", "z"), ("x", "y", "z", "s", "t")
    symbols = sympy.symbols(names)

    def random_poly(pool, size=3):
        terms = {}
        for _ in range(rng.randrange(1, size + 1)):
            mono = tuple(sorted((v, rng.randrange(1, 3)) for v in rng.sample(pool, rng.randrange(0, 3))))
            terms[mono] = terms.get(mono, 0) + rng.choice([-3, -2, -1, 1, 2, 3, Fraction(1, 2)])
        return Polynomial(terms)

    def to_sympy(p):
        return sympy.Poly.from_dict(
            {tuple(dict(m).get(v, 0) for v in names): c for m, c in p.terms.items()}, *symbols, domain="QQ"
        )

    checked = fresh = members = 0
    for _ in range(25):
        gens = [g for g in (random_poly(variables, 2) for _ in range(rng.randrange(1, 4))) if g]
        ideal = Ideal(gens, variables)
        basis = ideal.groebner_basis()
        theirs = sympy.groebner([to_sympy(g) for g in gens], *symbols, order="grevlex", domain="QQ")
        for k in range(40):
            pool = names if k % 2 else variables
            p = random_poly(pool)
            if k % 4 < 2:
                # a combination of the generators, now and then off by p
                member = sum((random_poly(pool, 2) * g for g in gens), Polynomial.zero())
                p = member + p if k % 8 == 0 else member
            expected = normal_form(p, basis, variables).is_zero()
            assert ideal.contains(p) == expected == theirs.contains(to_sympy(p)), (gens, p)
            if k % 5 == 0:
                assert Ideal([*gens, p], names).same_ideal(ideal) == expected
            checked += 1
            fresh += not p.variables() <= set(variables)
            members += expected
    assert checked == 1000 and fresh > 300 and 200 < members < 800


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


def _reference_key(order, e):
    if order == "lex":
        return tuple(e)
    return _grevlex_key(e)


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
        order = draw(st.sampled_from(["lex", "grevlex"]))
        n = draw(st.integers(1, 5))
        if order == "lex":
            exps = st.lists(st.one_of(st.just(limit - 1), st.integers(0, limit - 1)), min_size=n, max_size=n)
        else:
            exps = group(n)
        return order, n, draw(st.lists(exps, min_size=4, max_size=4))

    @settings(deadline=None, max_examples=300)
    @given(case())
    def check(c):
        order, n, (a, b, c_, d) = c
        codec = _Codec(order, n, width)
        key = lambda e: _reference_key(order, e)
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
    # a zero-dimensional ideal takes its lex basis from the grevlex one; the
    # conversion meets y^64, above the 8-bit fields the inputs' degrees give,
    # so it runs once at the 9 bits that the pure powers' product 64 gives
    widths.clear()
    walks = []
    walk = kernel._walk
    monkeypatch.setattr(kernel, "_walk", lambda codec, *a: (walks.append(codec.width), walk(codec, *a))[1])
    basis = GroebnerBasis([x**8 - y - 1, y**8 - x - 2], ("x", "y"), "lex")
    assert walks == [9] and basis.codec.width == 9
    # the only widths tried are the grevlex completion's, never redone
    assert set(widths) == {8}
    assert [g.degree() for g in basis.reduced()] == [8, 64]


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
    # while two S-pairs wait (sympy's lex bases are the ones asserted).  Both
    # are positive-dimensional, so lex Buchberger computes them: the second is
    # zero-dimensional in x, y, z, and a free fourth variable w keeps it off
    # the conversion from grevlex with the same S-pairs
    for gens, variables, want in [
        ([x * z - y**300, x * y**300 - 1], ("x", "y", "z"), [x * y**300 - 1, x * z - y**300, y**600 - z]),
        ([x - y**300, x**2 - z, x * z - 1], ("x", "y", "z", "w"), [x - z**2, y**300 - z**2, z**3 - 1]),
    ]:
        waiting = {}
        basis = Checked(gens, variables, "lex")
        assert sorted(waiting) == [11, 22]
        assert not any(m & basis.codec.full for g in basis.G for m in g)
        assert basis.reduced() == want
    assert waiting[22] == 2


def _sympy_poly(sympy, p, names):
    return sympy.Poly.from_dict(
        {tuple(dict(m).get(v, 0) for v in names): c for m, c in p.terms.items()},
        *sympy.symbols(names), domain="QQ",
    )


def test_lex_conversion_against_sympy(monkeypatch):
    sympy = pytest.importorskip("sympy")
    from hypothesis import given, settings
    from hypothesis import strategies as st

    converted = []
    convert = GroebnerBasis._convert
    monkeypatch.setattr(GroebnerBasis, "_convert", lambda self, *a: converted.append(1) or convert(self, *a))
    coeff = st.integers(-3, 3) | st.fractions(-3, 3, max_denominator=4)

    def polys(variables, top):
        exps = st.tuples(*[st.integers(0, top)] * len(variables)).filter(lambda e: sum(e) <= top)
        mono = exps.map(lambda e: tuple((v, k) for v, k in zip(variables, e) if k))
        return st.dictionaries(mono, coeff, min_size=1, max_size=3).map(Polynomial)

    @st.composite
    def ideals(draw):
        """Zero-dimensional by construction: a univariate generator of degree 1-3
        per variable and up to two more of degree <= 2 (mostly the unit ideal
        when there are any), or x_i^d_i plus terms of lower total degree per
        variable, whose quotients are larger; as controls, the unit ideal, a
        variable no generator mentions (positive-dimensional), and one of the
        per-variable generators dropped (either kind)."""
        variables = ("x", "y", "z")[: draw(st.integers(1, 3))]
        kind = draw(st.sampled_from(["zero-dimensional", "pure powers", "unit", "free", "dropped"]))
        gens = []
        for v in variables:
            degree = draw(st.integers(1, 3))
            if kind == "pure powers":
                gens.append(Polynomial.var(v) ** degree + draw(polys(variables, degree - 1)))
                continue
            lead = draw(coeff.filter(bool))
            tail = draw(st.lists(coeff, min_size=degree, max_size=degree))
            gens.append(Polynomial({((v, degree),): lead, **{((v, k),) if k else (): c for k, c in enumerate(tail)}}))
        if kind != "pure powers":
            gens += draw(st.lists(polys(variables, 2).filter(bool), max_size=2))
        if kind == "unit":
            gens.insert(draw(st.integers(0, len(gens))), Polynomial.const(draw(coeff.filter(bool))))
        elif kind == "free":
            variables = (*variables, "w")
        elif kind == "dropped":
            del gens[draw(st.integers(0, len(variables) - 1))]
        probe = draw(polys(variables, 3))
        member = sum((g * draw(polys(variables, 1)) for g in gens), Polynomial.zero())
        return kind, variables, gens, probe, member

    @settings(deadline=None, max_examples=150)
    @given(ideals())
    def check(case):
        kind, variables, gens, probe, member = case
        converted.clear()
        ours = groebner(gens, variables, "lex")
        if kind != "dropped":
            # a free variable leaves the ideal positive-dimensional, unless a
            # random generator is a constant
            assert bool(converted) == (kind != "free" or ours == [Polynomial.const(1)])
        theirs = sympy.groebner([_sympy_poly(sympy, g, variables) for g in gens], *sympy.symbols(variables),
                                order="lex", domain="QQ")
        assert [_sympy_poly(sympy, g, variables) for g in ours] == list(theirs.polys), [str(g) for g in gens]
        ideal = Ideal(gens, variables)
        for p in (probe, member, probe + member):
            assert normal_form(p, ours, variables, "lex").is_zero() == ideal.contains(p)
        assert normal_form(member, ours, variables, "lex").is_zero()

    check()


def test_lex_conversion_work_is_bounded_and_its_exponents_widen(monkeypatch):
    sympy = pytest.importorskip("sympy")
    calls = []
    reduce = groebner_module._reduce
    monkeypatch.setattr(groebner_module, "_reduce", lambda *a: calls.append(1) or reduce(*a))

    def extra_calls(gens):
        """The lex basis of gens, and its _reduce calls beyond the grevlex side's."""
        calls.clear()
        GroebnerBasis(gens, ("x", "y"))._tails()
        grevlex = len(calls)
        calls.clear()
        basis = GroebnerBasis(gens, ("x", "y"), "lex")
        return len(calls) - grevlex, basis.reduced()

    for k in (10, 20, 40):
        # the quotient has dimension D = k^2: every standard monomial takes
        # one normal form, and at most n*D + 1 are taken in all
        count, basis = extra_calls([x**k - 1, y**k - x])
        assert k * k <= count <= 2 * k * k + 1
        assert basis == [x - y**k, y**(k * k) - 1]
        # a grevlex basis whose lex leading terms are its grevlex ones is the
        # lex basis, and takes no normal form
        assert extra_calls([x**k - 1, y**k - 1]) == (0, [x**k - 1, y**k - 1])
    # y^64 leads a lex basis element: above the fields the inputs' degrees give
    gens = [x**8 - y - 1, y**8 - x - 2]
    theirs = sympy.groebner([_sympy_poly(sympy, g, ("x", "y")) for g in gens], *sympy.symbols("x y"),
                            order="lex", domain="QQ")
    assert [_sympy_poly(sympy, g, ("x", "y")) for g in groebner(gens, ("x", "y"), "lex")] == list(theirs.polys)


# ---------------------------------------------------------------------------
# elimination, intersection, radicals


def test_eliminate_twisted_cubic():
    el = eliminate(Ideal([y - x * x, z - x ** 3]), {"x"})
    assert el.contains(z * z - y ** 3)
    assert all("x" not in g.variables() for g in el.generators)


def test_eliminate_edge_cases():
    i = Ideal([x * x - y])
    assert eliminate(i, set()).same_ideal(i)
    assert not eliminate(Ideal([x]), {"x"}).generators


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
    # a member of the ideal, anything against the unit ideal, and 1 against a
    # proper ideal
    assert in_radical(x * y - x, Ideal([x * y - x, y * z]))
    assert in_radical(Polynomial.zero(), Ideal([x]))
    for p in (x, y * z + 2, Polynomial.const(3)):
        assert in_radical(p, Ideal([Polynomial.const(1)]))
        assert in_radical(p, Ideal([x - 1, x]))
    assert not in_radical(Polynomial.const(1), Ideal([x * x, y]))
    assert not in_radical(Polynomial.const(1), Ideal([]))


def test_block_grevlex_is_not_an_order():
    for call in (
        lambda: groebner([x - y], ("x", "y"), order="block-grevlex"),
        lambda: GroebnerBasis([x - y], ("x", "y"), order="block-grevlex"),
        lambda: normal_form(x, [x - y], ("x", "y"), order="block-grevlex"),
    ):
        with pytest.raises(DomainError, match="unknown monomial order 'block-grevlex'"):
            call()


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

    def monomials(top):
        return st.tuples(*[st.integers(0, top)] * 3).map(
            lambda exps: tuple((v, e) for v, e in zip(variables, exps) if e)
        )

    mono = monomials(2)
    coeff = st.integers(-3, 3) | st.fractions(-3, 3, max_denominator=4)
    poly = st.dictionaries(mono, coeff, min_size=1, max_size=3).map(Polynomial)
    ideals = st.lists(poly.filter(bool), min_size=1, max_size=3)
    # multilinear generators for the Rabinowitsch and intersection checks: on
    # `ideals`, whose generators reach degree 6, a few examples in a few
    # hundred take minutes, in sympy and here alike
    linear = st.dictionaries(monomials(1), coeff, min_size=1, max_size=3).map(Polynomial)
    linear_ideals = st.lists(linear.filter(bool), min_size=1, max_size=3)

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

    @settings(deadline=None, max_examples=40)
    @given(linear_ideals, poly)
    def check_in_radical(gens, p):
        # Rabinowitsch: p is in the radical of I iff I + <1 - z*p> is the unit ideal
        zs = sympy.Symbol("z_")
        rab = [to_sympy(g).as_expr() for g in gens] + [1 - zs * to_sympy(p).as_expr()]
        theirs = sympy.groebner(rab, *symbols, zs, order="grevlex", domain="QQ")
        assert in_radical(p, Ideal(gens, variables)) == (list(theirs.exprs) == [1]), [str(g) for g in gens]

    @settings(deadline=None, max_examples=40)
    @given(linear_ideals, linear_ideals)
    def check_intersect(gens_i, gens_j):
        # the ideal of sympy's lex elimination of t from t*I + (1 - t)*J
        t = sympy.Symbol("t_")
        tI = [t * to_sympy(g).as_expr() for g in gens_i]
        tJ = [(1 - t) * to_sympy(g).as_expr() for g in gens_j]
        lex = sympy.groebner(tI + tJ, t, *symbols, order="lex", domain="QQ")
        theirs = [sympy.Poly(g, *symbols, domain="QQ") for g in lex.exprs if not g.has(t)]
        ours = [to_sympy(g) for g in ideal_intersect(Ideal(gens_i, variables), Ideal(gens_j, variables)).generators]
        assert bool(ours) == bool(theirs)
        if ours:
            assert all(sympy.groebner(ours, *symbols, domain="QQ").contains(g) for g in theirs)
            assert all(sympy.groebner(theirs, *symbols, domain="QQ").contains(g) for g in ours)

    check_basis()
    check_eliminate()
    check_in_radical()
    check_intersect()
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


def test_lex_basis_of_a_points_ideal_against_sympy():
    # both callers of the walk: the points' grevlex basis, then its lex basis
    # by conversion (a point set's ideal is zero-dimensional)
    sympy = pytest.importorskip("sympy")
    from hypothesis import given, settings
    from hypothesis import strategies as st

    point_sets = st.integers(2, 3).flatmap(
        lambda n: st.lists(st.tuples(*[st.integers(-5, 5)] * n), max_size=12))

    @settings(deadline=None, max_examples=150)
    @given(point_sets)
    def check(coords):
        variables = ("x", "y", "z")[: len(coords[0])] if coords else ("x", "y")
        points = [dict(zip(variables, c)) for c in coords]
        basis = points_ideal(points, variables)
        lex = groebner(basis, variables, "lex")
        theirs = sympy.groebner([_sympy_poly(sympy, g, variables) for g in basis], *sympy.symbols(variables),
                                order="lex", domain="QQ")
        assert [_sympy_poly(sympy, g, variables) for g in lex] == list(theirs.polys)
        assert all(g.evaluate(pt) == 0 for g in basis + lex for pt in points)
        for degree in (1, 2):
            assert points_ideal(points, variables, degree) == [g for g in basis if g.degree() <= degree]

    check()


def test_points_ideal_with_no_variables():
    # the one monomial 1 has degree 0: a cap D >= 0 keeps it, D < 0 drops it
    for points, want in (([], [Polynomial.const(1)]), ([{}], []), ([{}, {}], [])):
        assert points_ideal(points, ()) == want
        assert points_ideal(points, (), 0) == points_ideal(points, (), 2) == want
        assert points_ideal(points, (), -1) == []


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


def test_points_ideal_point_breaking_a_candidate_late():
    # x - y vanishes on the first 40 points and is broken only by the last
    points = [{"x": i, "y": i} for i in range(40)] + [{"x": 3, "y": 7}]
    assert points_ideal(points[:40], ("x", "y"), max_degree=2) == [x - y]
    capped = points_ideal(points, ("x", "y"), max_degree=2)
    assert capped == [g for g in points_ideal(points, ("x", "y")) if g.degree() <= 2]
    assert capped and x - y not in capped
    assert all(g.evaluate(pt) == 0 for g in capped for pt in points)
    shuffled = list(points)
    random.Random(5).shuffle(shuffled)
    for order in (points[::-1], shuffled):
        assert points_ideal(order, ("x", "y"), max_degree=2) == capped


def _eliminate_stepwise(vec, poly, rows):
    """``groebner._eliminate`` as it was, with the content divided out after
    every row step."""
    for pivot, row, row_poly in rows:
        c = vec[pivot]
        if c:
            d = row[pivot]
            g = math.gcd(c, d)
            d, c = d // g, c // g
            vec = [d * a - c * b for a, b in zip(vec, row)]
            poly = {m: d * poly.get(m, 0) - c * row_poly.get(m, 0) for m in poly.keys() | row_poly.keys()}
            g = math.gcd(*vec, *poly.values())
            if g > 1:
                vec = [a // g for a in vec]
                poly = {m: a // g for m, a in poly.items()}
    return next((k for k, a in enumerate(vec) if a), None), vec, poly


def test_eliminate_divides_the_content_once():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    def cases(bound):
        entry = st.integers(-bound, bound)
        polys = st.dictionaries(st.integers(0, 6), entry, max_size=4)

        def rows(n):
            # a nonzero pivot value, negative as often as positive
            pivot_value = st.integers(1, bound).flatmap(lambda v: st.sampled_from((v, -v)))
            row = st.tuples(st.integers(0, n - 1), st.lists(entry, min_size=n, max_size=n), pivot_value, polys)
            return st.lists(row.map(lambda r: (r[0], r[1][:r[0]] + [r[2]] + r[1][r[0] + 1:], r[3])), max_size=6)

        return st.integers(1, 5).flatmap(
            lambda n: st.tuples(st.lists(entry, min_size=n, max_size=n), polys, rows(n)))

    def check(case):
        vec, poly, rows = case
        assert _eliminate(list(vec), dict(poly), rows) == _eliminate_stepwise(vec, poly, rows)

    settings(deadline=None)(given(cases(5))(check))()
    settings(deadline=None)(given(cases(10**12))(check))()


def test_points_ideal_eliminates_over_at_most_rank_points(monkeypatch):
    # the Fibonacci orbit's evaluation matrix in degree <= 8 has rank 30
    lengths = []

    def recording(vec, poly, rows):
        lengths.append(len(vec))
        lengths.extend(len(row) for _, row, _ in rows)
        return _eliminate(vec, poly, rows)

    monkeypatch.setattr(groebner_module, "_eliminate", recording)
    fib = [0, 1]
    while len(fib) < 481:
        fib.append(fib[-1] + fib[-2])
    for count in (120, 480):
        lengths.clear()
        basis = points_ideal([{"x": fib[i], "y": fib[i + 1]} for i in range(count)], ("x", "y"), max_degree=8)
        assert [format_polynomial(g) for g in basis] == ["-2 * x * y^3 - x^2 * y^2 + 2 * x^3 * y + x^4 + y^4 - 1"]
        assert lengths and max(lengths) <= 30


def test_points_ideal_needs_integer_points():
    for bad in (Fraction(1, 2), 0.5, "1"):
        with pytest.raises(DomainError, match="'y'"):
            points_ideal([{"x": 1, "y": 2}, {"x": 3, "y": bad}], ("x", "y"))
