"""Independent oracles for benchmark jobs.

Every check returns None when the output is right and a message otherwise.
The oracles share no evaluation code with the library: they read the
systems' rule data and do their own arithmetic, use sympy for Groebner
bases, and compare generator outputs with closed forms.  Each oracle kind
comes with a corruption of a good output, which the self-test feeds back to
the check and expects to be rejected.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product


# ---------------------------------------------------------------------------
# own arithmetic on the library's data


def poly_value(p, point):
    """Value of a library Polynomial at a point, from its term map."""
    total = 0
    for mono, c in p.terms.items():
        v = c.numerator if c.denominator == 1 else c
        for var, e in mono:
            v *= point[var] ** e
        total += v
    return total


def system_step(sys):
    """(base vector, step) for a polynomial system: step(vec, a) applies the
    letter-a update map."""
    rules = {key: p for key, p in sys.rules}
    indices = tuple(sys.indices)

    def step(vec, a):
        return {i: poly_value(rules[(i, a)], vec) for i in indices}

    return dict(sys.base), step


def first_difference(states, letters, differs, max_len):
    """The first word in length-lexicographic order, up to max_len, whose
    state differs; words are read by peeling the first letter, so a word's
    state is the step of its tail's state.  `states` is (base, step)."""
    base, step = states
    level = {(): base}
    for n in range(max_len + 1):
        for w in product(letters, repeat=n):
            if differs(level[w]):
                return w
        if n < max_len:
            level = {(a,) + w: step(vec, a) for w, vec in level.items() for a in letters}
    return None


def pair_states(sys_a, sys_b):
    base_a, step_a = system_step(sys_a)
    base_b, step_b = system_step(sys_b)
    return (base_a, base_b), lambda vec, a: (step_a(vec[0], a), step_b(vec[1], a))


def fib(n):
    """F(n) with F(0) = F(1) = 1."""
    a, b = 1, 1
    for _ in range(n):
        a, b = b, a + b
    return a


# ---------------------------------------------------------------------------
# verdicts


def verdict_tuple(v):
    if isinstance(v, tuple):
        return v
    if type(v).__name__ == "NotEqual":
        return ("NotEqual", tuple(v.witness))
    return ("Equal",)


def parse_cli_verdict(out):
    rc, text = out
    text = text.strip()
    if text == "Equal" and rc == 0:
        return ("Equal",)
    if text.startswith("NotEqual") and rc == 1:
        rest = text[len("NotEqual"):].strip()
        if rest == "eps":
            return ("NotEqual", ())
        return ("NotEqual", tuple(rest.split()) if " " in rest else tuple(rest))
    return ("malformed", rc, text)


def verdict_check(states, letters, differs, cap, expect=None, cli=False):
    """Brute force: a NotEqual witness must differ and every word before it
    in length-lexicographic order must agree; Equal must agree on every word
    up to length cap."""

    def check(out):
        v = parse_cli_verdict(out) if cli else verdict_tuple(out)
        if v[0] == "malformed":
            return f"unparsable verdict {v[1:]}"
        if expect is not None and v[0] != expect:
            return f"expected {expect}, got {v}"
        if v[0] == "NotEqual":
            first = first_difference(states, letters, differs, len(v[1]))
            if first != v[1]:
                return f"witness {v[1]} is not the first difference ({first})"
            return None
        first = first_difference(states, letters, differs, cap)
        if first is not None:
            return f"Equal, but the sides differ at {first}"
        return None

    def corrupt(out):
        v = parse_cli_verdict(out) if cli else verdict_tuple(out)
        bad = ("NotEqual", (letters[0],)) if v[0] == "Equal" else ("Equal",)
        if cli:
            return (1, "NotEqual " + letters[0] + "\n") if bad[0] == "NotEqual" else (0, "Equal\n")
        return bad

    return check, corrupt


# ---------------------------------------------------------------------------
# values with closed forms


def normal_value(x):
    name = type(x).__name__
    if name == "Accepted":
        return ("Accepted", tuple(x.output))
    if name == "Homomorphism":
        return ("hom", tuple(sorted((a, tuple(w)) for a, w in x.images.items())))
    return x


def value_check(expected):
    """Compare with a closed form, computed only when checked."""

    def check(out):
        want = expected()
        got = normal_value(out)
        if got != want:
            return f"got {_short(got)}, expected {_short(want)}"
        return None

    def corrupt(out):
        got = normal_value(out)
        if isinstance(got, int):
            return got + 1
        return got + ("#",)

    return check, corrupt


def cli_text_check(rc, text):
    def check(out):
        if out != (rc, text):
            return f"got {_short(out)}, expected {(rc, text)}"
        return None

    return check, _cli_corrupt


def _cli_corrupt(out):
    return (out[0], out[1] + "#\n")


def _short(x, limit=120):
    s = repr(x)
    return s if len(s) <= limit else s[:limit] + "..."


# ---------------------------------------------------------------------------
# Groebner bases and closures, through sympy


def _sympy():
    import sympy

    return sympy


def to_sympy(p, symbols):
    sp = _sympy()
    expr = sp.Integer(0)
    for mono, c in p.terms.items():
        term = sp.Rational(c.numerator, c.denominator)
        for var, e in mono:
            term *= symbols[var] ** e
        expr += term
    return expr


def _canon(polys, gens, order):
    """The reduced monic basis of the ideal, as a set of term tuples."""
    sp = _sympy()
    polys = [q for q in polys if q != 0]
    if not polys:
        return frozenset()
    basis = sp.groebner(polys, *gens, order=order, domain="QQ")
    return frozenset(tuple(sp.Poly(g, *gens, domain="QQ").monic().terms()) for g in basis.exprs)


def _generators(out):
    return tuple(getattr(out, "generators", out))


def _bump_first(out):
    gens = _generators(out)
    if not gens:
        return gens
    return (gens[0] + 1,) + gens[1:]


def groebner_check(gens, variables, order):
    """The library basis must equal sympy's reduced basis in the same order,
    element for element after making both monic."""

    def check(out):
        sp = _sympy()
        syms = {v: sp.Symbol(v) for v in variables}
        gs = [syms[v] for v in variables]
        mine = _generators(out)
        want = _canon([to_sympy(g, syms) for g in gens], gs, order)
        got = frozenset(tuple(sp.Poly(to_sympy(g, syms), *gs, domain="QQ").monic().terms()) for g in mine)
        if len(mine) != len(want) or got != want:
            return f"basis of {len(mine)} elements differs from sympy's reduced basis of {len(want)}"
        return None

    return check, _bump_first


def cli_groebner_check(gen_texts, variables, order):
    """`wordmaps groebner` prints one basis element a line."""

    def check(out):
        rc, text = out
        if rc != 0:
            return f"exit code {rc}"
        sp = _sympy()
        syms = {v: sp.Symbol(v) for v in variables}
        gs = [syms[v] for v in variables]
        try:
            lines = [sp.sympify(line.replace("^", "**"), locals=syms) for line in text.split("\n") if line.strip()]
        except (sp.SympifyError, SyntaxError, TypeError) as e:
            return f"unparsable basis: {e}"
        want = _canon([sp.sympify(t.replace("^", "**"), locals=syms) for t in gen_texts], gs, order)
        got = frozenset(tuple(sp.Poly(q, *gs, domain="QQ").monic().terms()) for q in lines)
        if len(lines) != len(want) or got != want:
            return "printed basis differs from sympy's reduced basis"
        return None

    return check, _cli_corrupt


def orbit(sys, limit=1000):
    """The whole orbit of a finite-orbit system, by breadth-first search."""
    base, step = system_step(sys)
    letters = sorted(sys.input_alphabet)
    key = lambda vec: tuple(sorted(vec.items()))
    seen = {key(base): base}
    frontier = [base]
    while frontier:
        nxt = []
        for vec in frontier:
            for a in letters:
                new = step(vec, a)
                if key(new) not in seen:
                    seen[key(new)] = new
                    nxt.append(new)
        if len(seen) > limit:
            raise ValueError("orbit is larger than the oracle's limit")
        frontier = nxt
    return list(seen.values())


def _standard_monomials(basis_polys, gens):
    """Number of monomials outside the leading-term ideal (grevlex), or None
    when it is infinite."""
    sp = _sympy()
    leads = [sp.Poly(g, *gens).monoms(order="grevlex")[0] for g in basis_polys]
    bounds = []
    for k in range(len(gens)):
        pure = [m[k] for m in leads if all(e == 0 for j, e in enumerate(m) if j != k) and m[k] > 0]
        if not pure:
            return None
        bounds.append(min(pure))
    count = 0
    for exps in product(*(range(b) for b in bounds)):
        if not any(all(x >= y for x, y in zip(exps, m)) for m in leads):
            count += 1
    return count


def finite_orbit_check(sys):
    """Every generator vanishes on the orbit, and the ideal has exactly
    |orbit| standard monomials; together these make it the orbit's
    vanishing ideal."""
    variables = tuple(sys.indices)

    def check(out):
        sp = _sympy()
        points = orbit(sys)
        gens = _generators(out)
        for g in gens:
            for pt in points:
                if poly_value(g, pt) != 0:
                    return f"generator {g} does not vanish at orbit point {pt}"
        syms = {v: sp.Symbol(v) for v in variables}
        gs = [syms[v] for v in variables]
        polys = [to_sympy(g, syms) for g in gens]
        if not polys:
            return "empty ideal for a finite orbit"
        basis = sp.groebner(polys, *gs, order="grevlex", domain="QQ")
        count = _standard_monomials(basis.exprs, gs)
        if count != len(points):
            return f"{count} standard monomials for an orbit of {len(points)} points"
        return None

    return check, _bump_first


def closed_closure_check(variables, closed_form):
    """The closure must be the ideal of a known closed form; closed_form
    maps a dict of sympy symbols to the generator expressions."""

    def check(out):
        sp = _sympy()
        syms = {v: sp.Symbol(v) for v in variables}
        gs = [syms[v] for v in variables]
        want = _canon(closed_form(syms), gs, "grevlex")
        got = _canon([to_sympy(g, syms) for g in _generators(out)], gs, "grevlex")
        if got != want:
            return "closure differs from the closed form's ideal"
        return None

    return check, _bump_first


# ---------------------------------------------------------------------------
# emitted declarations (`wordmaps lower`)


def cli_linrep_check(expected, ns=range(12)):
    """A printed one-letter linrep block must give expected(n) on x^n."""

    def check(out):
        rc, text = out
        if rc != 0:
            return f"exit code {rc}"
        fields = {}
        for line in text.splitlines():
            line = line.strip()
            if ":" in line:
                k, v = line.split(":", 1)
                fields[k.strip()] = v
            elif line.startswith("mat "):
                fields["mat"] = line.split("=", 1)[1]
        try:
            row = [int(x) for x in fields["row"].split()]
            col = [int(x) for x in fields["col"].split()]
            mat = [[int(x) for x in r.split()] for r in fields["mat"].strip(" []").split("/")]
        except (KeyError, ValueError) as e:
            return f"unparsable linrep: {e}"
        v = row
        for n in ns:
            if n:
                v = [sum(v[k] * mat[k][j] for k in range(len(v))) for j in range(len(mat[0]))]
            got = sum(x * y for x, y in zip(v, col))
            if got != expected(n):
                return f"linrep gives {got} at n={n}, expected {expected(n)}"
        return None

    return check, lambda out: (out[0], out[1].replace("col:", "col: 2", 1))


def cli_poly_check(index, expected, ns=range(8)):
    """A printed one-letter poly block must give expected(n) at a^n for the
    named index, evaluated with sympy."""

    def check(out):
        rc, text = out
        if rc != 0:
            return f"exit code {rc}"
        sp = _sympy()
        base, rules = {}, {}
        for line in text.splitlines():
            line = line.strip()
            if "(eps) =" in line:
                name, rhs = line.split("(eps) =")
                base[name.strip()] = int(rhs)
            elif "(a w) =" in line:
                name, rhs = line.split("(a w) =")
                rules[name.strip()] = rhs.replace("^", "**")
        if set(base) != set(rules) or index not in base:
            return "unparsable poly block"
        syms = {v: sp.Symbol(v) for v in base}
        exprs = {v: sp.sympify(r, locals=syms) for v, r in rules.items()}
        vec = dict(base)
        for n in ns:
            if n:
                vec = {v: int(e.subs({syms[k]: x for k, x in vec.items()})) for v, e in exprs.items()}
            if vec[index] != expected(n):
                return f"{index} is {vec[index]} at n={n}, expected {expected(n)}"
        return None

    return check, lambda out: (out[0], out[1].replace(f"{index}(eps) = ", f"{index}(eps) = 9", 1))


def shift_reference(i, w, memo=None):
    """The shift system of data/shift.sys, written out by hand."""
    memo = {} if memo is None else memo
    if (i, w) in memo:
        return memo[(i, w)]
    if not w:
        out = ("x",) if i == "f" else ("y",)
    else:
        a, tail = w[0], w[1:]
        if i == "g":
            out = shift_reference("g" if a == "a" else "f", tail, memo)
        elif a == "b":
            out = shift_reference("g", tail, memo) + shift_reference("f", tail, memo)
        elif tail.count("a") % 2 == 0:
            out = shift_reference("f", ("b",) + tail, memo) + shift_reference("g", tail, memo)
        else:
            out = shift_reference("g", tail, memo) + shift_reference("f", tail, memo)
    memo[(i, w)] = out
    return out


def skolem_closed_form(n):
    """prod_{i<=n} (2^(i+1) - (i+1)) for the bundled pow2.U and lin.V."""
    return math.prod(2 ** (i + 1) - (i + 1) for i in range(n + 1))
