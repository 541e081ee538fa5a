"""Seeded job lists for the three workloads.

A job is one call into the library's public API or into ``cli.main``.  The
seed picks the inputs; the *shape* of every pass (how many jobs of each kind,
and the fixed-size sweeps) is the same for every seed, so job-latency
percentiles land on the same kind of job whatever the seed.

Every generated input passes a size guard first: its output size is bounded
with the closed form before the job is issued, and inputs over `MAX_OUTPUT`
are drawn again.  The guards are checked once more on a held-out seed.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Optional

import oracles as O

DATA = Path(__file__).resolve().parent / "data"

# largest output a generated job may produce (letters, or bits of a number)
MAX_OUTPUT = 200_000

# counts per pass; see README.md for why the mix is shaped this way
DECIDE_DUP_PAIRS = 100
DECIDE_QUICK_PAIRS = 62
KBONACCI5_PAIRS = 16
DEEP_SIZES = (3, 4, 5, 6, 7, 8, 9)
COUNTER_SIZES = (8, 9, 10, 11, 12)
CLOSURE_FILLERS = (("negate", 120), ("square", 120), ("reflect", 80), ("reflect2", 60))
LEVEL3_JOBS = 8
POW2_SIZES = (8, 10, 12)
ID1_SIZES = (250, 500, 1000)


@dataclass
class Job:
    name: str  # unique within a pass; names a sweep point when `sweep` is set
    inputs: str  # the input, for reports and the determinism check
    call: Callable[[], Any]
    check: Callable[[Any], Optional[str]]
    corrupt: Callable[[Any], Any]
    kind: str  # the oracle kind, for the self-test
    size: int = 0  # guarded output size bound
    sweep: Optional[str] = None


def cli_call(lib, argv):
    """Run `wordmaps ARGV` in-process; returns (exit code, stdout)."""

    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = lib.cli.main(list(argv))
        return rc, out.getvalue()

    return call


def _guard(size, what):
    if size > MAX_OUTPUT:
        raise ValueError(f"{what}: output bound {size} exceeds {MAX_OUTPUT}")
    return size


def _draw(rng, make, bound):
    """Draw inputs until the closed-form bound passes the guard."""
    while True:
        x = make(rng)
        if bound(x) <= MAX_OUTPUT:
            return x


# ---------------------------------------------------------------------------
# decide


def _random_linear_system(lib, rng, indices, letters):
    P = lib.polynomials.Polynomial

    def rand_linear():
        p = P.const(rng.randrange(0, 2))
        for i in indices:
            c = rng.randrange(0, 3)
            if c:
                p = p + c * P.var(i)
        return p

    rules = {(i, a): rand_linear() for i in indices for a in letters}
    base = {i: rng.randrange(0, 3) for i in indices}
    return lib.recurrences.PolynomialSystem.make(indices, letters, rules, base)


def _random_system(lib, rng, letters, degree=2):
    P = lib.polynomials.Polynomial
    indices = tuple(f"X{k}" for k in range(rng.randrange(1, 4)))

    def rand_poly():
        p = P.const(rng.randrange(0, 3))
        for _ in range(rng.randrange(1, 3)):
            term = P.const(rng.randrange(1, 3))
            for _ in range(rng.randrange(0, degree + 1)):
                term = term * P.var(rng.choice(indices))
            p = p + term
        return p

    rules = {(i, a): rand_poly() for i in indices for a in letters}
    base = {i: rng.randrange(0, 3) for i in indices}
    return lib.recurrences.PolynomialSystem.make(indices, letters, rules, base)


def _with_duplicate(lib, sys, i):
    rules = dict(sys.rules)
    base = dict(sys.base)
    rules.update({("Dup", a): rules[(i, a)] for a in sys.input_alphabet})
    base["Dup"] = base[i]
    return lib.recurrences.PolynomialSystem.make(
        sys.indices + ("Dup",), sys.input_alphabet, rules, base, ring=sys.ring
    )


def _equal_job(lib, name, sys_a, i_a, sys_b, i_b, cap, expect=None, sweep=None):
    letters = sorted(sys_a.input_alphabet)
    check, corrupt = O.verdict_check(
        O.pair_states(sys_a, sys_b), letters, lambda v: v[0][i_a] != v[1][i_b], cap, expect
    )
    return Job(
        name, f"decide_equal({i_a}, {i_b}) on rules {sys_a.rules} / {sys_b.rules}, bases {sys_a.base} / {sys_b.base}",
        lambda: lib.equivalence.decide_equal(sys_a, i_a, sys_b, i_b),
        check, corrupt, "verdict", sweep=sweep,
    )


def _counter(lib):
    P = lib.polynomials.Polynomial.var
    return lib.recurrences.PolynomialSystem.make(
        ("X",), {"a", "b"}, {("X", "a"): P("X") + 1, ("X", "b"): P("X")}, {"X": 0}, ring="Z"
    )


def _falling(lib, var, length):
    P = lib.polynomials.Polynomial
    out = P.const(1)
    for k in range(length):
        out = out * (P.var(var) - k)
    return out


def decide_jobs(lib, files, seed):
    rng = random.Random(f"decide:{seed}")
    P = lib.polynomials.Polynomial.var
    jobs = []
    for k in range(DECIDE_DUP_PAIRS):
        # equal by construction: a redundant duplicated coordinate
        sys_a = _random_linear_system(lib, rng, ("X0", "X1", "X2"), ("a", "b"))
        i = rng.choice(sys_a.indices)
        jobs.append(_equal_job(lib, f"dup_pair.{k}", sys_a, i, _with_duplicate(lib, sys_a, i), "Dup", 6, "Equal"))
    for k in range(DECIDE_QUICK_PAIRS):
        # random nonlinear pairs; the guard keeps those that differ on a word
        # of length <= 3, since an equal nonlinear pair has no size bound
        while True:
            sys_a = _random_system(lib, rng, ("a", "b"))
            sys_b = _random_system(lib, rng, ("a", "b"))
            i_a, i_b = rng.choice(sys_a.indices), rng.choice(sys_b.indices)
            if O.first_difference(O.pair_states(sys_a, sys_b), ["a", "b"],
                                  lambda v: v[0][i_a] != v[1][i_b], 3) is not None:
                break
        jobs.append(_equal_job(lib, f"random_pair.{k}", sys_a, i_a, sys_b, i_b, 3, "NotEqual"))
    # k-bonacci against its duplicated presentation, k = 2..6, and a block of
    # k = 5 pairs with other bases: the 90th percentile falls inside it
    for name, k in [(f"kbonacci.k{k}", k) for k in range(2, 7)] + [
        (f"kbonacci5.{i}", 5) for i in range(KBONACCI5_PAIRS)
    ]:
        idx = tuple(f"K{j}" for j in range(k))
        rules = {(idx[j], "a"): P(idx[j + 1]) for j in range(k - 1)}
        total = P(idx[0])
        for j in idx[1:]:
            total = total + P(j)
        rules[(idx[-1], "a")] = total
        base = {j: rng.randrange(0, 3) for j in idx}
        base[idx[-1]] += 1
        sys_a = lib.recurrences.PolynomialSystem.make(idx, {"a"}, rules, base)
        sys_b = _with_duplicate(lib, sys_a, idx[-1])
        jobs.append(_equal_job(lib, name, sys_a, idx[-1], sys_b, "Dup", 40, "Equal"))
    for L in DEEP_SIZES:
        # X counts a's; Y(b w) = Y + Y(Y-1)...(Y-L+1): the witness is b a^L
        sys_y = lib.recurrences.PolynomialSystem.make(
            ("Y",), {"a", "b"}, {("Y", "a"): P("Y") + 1, ("Y", "b"): P("Y") + _falling(lib, "Y", L)},
            {"Y": 0}, ring="Z",
        )
        jobs.append(_equal_job(lib, f"deep.L{L}", _counter(lib), "X", sys_y, "Y", L + 1, "NotEqual", sweep=f"deep.L{L}"))
    counter = _counter(lib)
    for L in COUNTER_SIZES:
        t = _falling(lib, "X", L)
        check, corrupt = O.verdict_check(
            O.system_step(counter), ["a", "b"], lambda v, t=t: O.poly_value(t, v) != 0, L, "NotEqual"
        )
        jobs.append(Job(
            f"counter.L{L}", f"decide_zero_on_reachables(letter counter, X(X-1)...(X-{L - 1}))",
            lambda t=t: lib.equivalence.decide_zero_on_reachables(counter, t),
            check, corrupt, "verdict", sweep=f"counter.L{L}",
        ))
    jobs.extend(_decide_cli_jobs(lib, files))
    return jobs


def _decide_cli_jobs(lib, files):
    frac_file = str(DATA / "fractions.sys")
    fracs = files["fractions"]

    def frac_states(name_a, name_b):
        specs = [fracs.resolve(n, "frac")[1] for n in (name_a, name_b)]
        systems = [fracs.resolve(s.system_name, "poly")[1] for s in specs]

        def value(spec, vec):
            return Fraction(vec[spec.num_plus] - vec[spec.num_minus], vec[spec.den_plus] - vec[spec.den_minus])

        return O.pair_states(*systems), lambda v: value(specs[0], v[0]) != value(specs[1], v[1])

    out = []
    seqs = [
        ("fibonacci", "F", "fibonacci", "F3", "Equal"),
        ("fibonacci", "F", "fibonacci", "Fbad", "NotEqual"),
        ("skolem-demo", "fibz", "fibonacci", "F", "Equal"),
    ]
    for fa, ta, fb, tb, expect in seqs:
        _, sa, ia = lib.cli.resolve_sequence(files[fa], ta)
        _, sb, ib = lib.cli.resolve_sequence(files[fb], tb)
        check, corrupt = O.verdict_check(
            O.pair_states(sa, sb), ["a"], lambda v, ia=ia, ib=ib: v[0][ia] != v[1][ib], 30, expect, cli=True
        )
        argv = ["equiv", fa, ta, fb, tb]
        out.append(Job(f"cli.equiv.{ta}.{tb}", " ".join(argv), cli_call(lib, argv), check, corrupt, "cli_verdict"))
    for a, b, expect in (("telescoped", "plain", "Equal"), ("telescoped", "tripled", "NotEqual")):
        states, differs = frac_states(a, b)
        check, corrupt = O.verdict_check(states, ["a"], differs, 30, expect, cli=True)
        argv = ["equiv", frac_file, a, frac_file, b]
        out.append(Job(f"cli.equiv.frac.{a}.{b}", f"equiv fractions.sys {a} fractions.sys {b}",
                       cli_call(lib, argv), check, corrupt, "cli_verdict"))
    return out


# ---------------------------------------------------------------------------
# closure


def _closure_job(lib, name, sys, check_corrupt, kind, inputs):
    check, corrupt = check_corrupt
    return Job(name, inputs, lambda: lib.equivalence.zariski_closure(sys), check, corrupt, kind)


def _filler_system(lib, rng, shape):
    P = lib.polynomials.Polynomial
    make = lib.recurrences.PolynomialSystem.make
    x = P.var("x")
    if shape == "negate":  # orbit {b, -b}
        return make(("x",), {"a"}, {("x", "a"): -x}, {"x": rng.choice((-1, 1)) * rng.randrange(1, 20)}, ring="Z")
    if shape == "square":  # x -> x^2 - 2: orbit {1, -1} or {-2, 2}
        return make(("x",), {"a"}, {("x", "a"): x * x - 2}, {"x": rng.choice((1, -2))}, ring="Z")
    c = rng.randrange(-20, 21)
    b = rng.randrange(-20, 21)
    if 2 * b == c:
        b += 1
    if shape == "reflect":  # orbit {b, c - b}
        return make(("x",), {"a"}, {("x", "a"): c - x}, {"x": b}, ring="Z")
    return make(("x",), {"a", "b"}, {("x", "a"): c - x, ("x", "b"): x}, {"x": b}, ring="Z")


def closure_jobs(lib, files, seed):
    rng = random.Random(f"closure:{seed}")
    P = lib.polynomials.Polynomial.var
    make = lib.recurrences.PolynomialSystem.make
    jobs = []

    f0, g0 = rng.choice(((1, 1), (1, 2), (2, 1), (2, 3), (1, 3), (3, 1), (2, 5), (3, 2)))
    fibsys = make(("F", "G"), {"a"}, {("F", "a"): P("G"), ("G", "a"): P("F") + P("G")}, {"F": f0, "G": g0})
    c = f0 * f0 + f0 * g0 - g0 * g0
    jobs.append(_closure_job(
        lib, "fibonacci", fibsys,
        O.closed_closure_check(("F", "G"), lambda s: [(s["F"] ** 2 + s["F"] * s["G"] - s["G"] ** 2) ** 2 - c * c]),
        "closed_closure", f"zariski_closure(Fibonacci pair, base ({f0}, {g0}))",
    ))
    x0 = rng.randrange(0, 4)
    parabola = make(("x", "y"), {"a"}, {("x", "a"): P("x") + 1, ("y", "a"): (P("x") + 1) * (P("x") + 1)},
                    {"x": x0, "y": x0 * x0})
    jobs.append(_closure_job(
        lib, "parabola", parabola, O.closed_closure_check(("x", "y"), lambda s: [s["y"] - s["x"] ** 2]),
        "closed_closure", f"zariski_closure(parabola, base ({x0}, {x0 * x0}))",
    ))
    for n in (3, 4):
        vs = tuple(f"x{i}" for i in range(n))
        values = rng.sample(range(1, 10), n)
        cyc = make(vs, {"a"}, {(vs[i], "a"): P(vs[(i + 1) % n]) for i in range(n)}, dict(zip(vs, values)))
        jobs.append(_closure_job(lib, f"cyclic_orbit.n{n}", cyc, O.finite_orbit_check(cyc), "finite_orbit",
                                 f"zariski_closure(cyclic shift of {values})"))
    rot = make(("x1", "x2", "x3", "x4"), {"a"},
               {("x1", "a"): P("x2"), ("x2", "a"): P("x3"), ("x3", "a"): P("x4"), ("x4", "a"): -P("x1")},
               {"x1": 1, "x2": 0, "x3": 0, "x4": 0}, ring="Z")
    jobs.append(_closure_job(lib, "rotation8", rot, O.finite_orbit_check(rot), "finite_orbit",
                             "zariski_closure(order-8 rotation x4' = -x1, base (1, 0, 0, 0))"))

    u = [P(f"u{i}") for i in range(4)]
    katsura = [u[0] + 2 * u[1] + 2 * u[2] + 2 * u[3] - 1,
               u[0] * u[0] + 2 * u[1] * u[1] + 2 * u[2] * u[2] + 2 * u[3] * u[3] - u[0],
               2 * u[0] * u[1] + 2 * u[1] * u[2] + 2 * u[2] * u[3] - u[1],
               2 * u[0] * u[2] + u[1] * u[1] + 2 * u[1] * u[3] - u[2]]
    a, b, c4, d = (P(v) for v in "abcd")
    cyclic4 = [a + b + c4 + d, a * b + b * c4 + c4 * d + d * a,
               a * b * c4 + b * c4 * d + c4 * d * a + d * a * b, a * b * c4 * d - 1]
    for name, gens, variables, order in (
        ("katsura3.lex", katsura, ("u0", "u1", "u2", "u3"), "lex"),
        ("cyclic4.grevlex", cyclic4, tuple("abcd"), "grevlex"),
        ("cyclic4.lex", cyclic4, tuple("abcd"), "lex"),
    ):
        check, corrupt = O.groebner_check(gens, variables, order)
        jobs.append(Job(name, f"groebner({name})",
                        lambda gens=gens, variables=variables, order=order: lib.groebner.groebner(gens, variables, order=order),
                        check, corrupt, "groebner"))

    ideal_file = DATA / "ideals.sys"
    variables, gen_texts = _ideal_text(ideal_file, "katsura2")
    for order in ("grevlex", "lex"):
        check, corrupt = O.cli_groebner_check(gen_texts, variables, order)
        argv = ["groebner", str(ideal_file), "katsura2", "--order", order]
        jobs.append(Job(f"cli.groebner.{order}", f"groebner ideals.sys katsura2 --order {order}",
                        cli_call(lib, argv), check, corrupt, "cli_groebner"))

    for shape, count in CLOSURE_FILLERS:
        for k in range(count):
            sys = _filler_system(lib, rng, shape)
            jobs.append(_closure_job(lib, f"orbit.{shape}.{k}", sys, O.finite_orbit_check(sys), "finite_orbit",
                                     f"zariski_closure({shape}: rules {sys.rules}, base {sys.base})"))
    return jobs


def _ideal_text(path, name):
    """vars and gen lines of one ideal block, read without the library."""
    variables, gens, inside = None, [], False
    for line in path.read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if line.startswith(f"ideal {name} "):
            inside = True
        elif inside and line == "}":
            break
        elif inside and line.startswith("vars:"):
            variables = tuple(line[len("vars:"):].split())
        elif inside and line.startswith("gen:"):
            gens.append(line[len("gen:"):].strip())
    return variables, gens


# ---------------------------------------------------------------------------
# generate


def _bits(rng, n, lead="1"):
    return tuple(lead) + tuple(rng.choice("01") for _ in range(n - len(lead)))


def _bits_value(w):
    return int("".join(w), 2) if w else 0


def _value_job(name, inputs, call, expected, size, kind="closed_form", sweep=None):
    check, corrupt = O.value_check(expected)
    return Job(name, inputs, call, check, corrupt, kind, _guard(size, name), sweep)


def _shift_lengths(w):
    """(|f(w)|, |g(w)|) of the benchmark's shift system, by the length
    recursion alone: the closed-form bound used by the size guard."""
    memo = {}

    def length(i, v):
        if (i, v) in memo:
            return memo[(i, v)]
        if not v:
            out = 1
        elif i == "g":
            out = length("g", v[1:]) if v[0] == "a" else length("f", v[1:])
        elif v[0] == "b":
            out = length("g", v[1:]) + length("f", v[1:])
        elif v[1:].count("a") % 2 == 0:
            out = length("f", ("b",) + v[1:]) + length("g", v[1:])
        else:
            out = length("g", v[1:]) + length("f", v[1:])
        memo[(i, v)] = out
        return out

    return length("f", w), length("g", w)


def _npown_h_lengths(w):
    """Image lengths of x and y under npown.H(w), from the closed form:
    H(a^p b c^q) = [x^(q^(2^p)), x^(q^(2^p - 1))], H(c^q) = [x, x^q y]."""
    p, q = w.count("a"), w.count("c")
    if "b" not in w:
        return 1, q + 1
    return q ** (2 ** p), q ** (2 ** p - 1)


def _npown_h_closed_form(w):
    nx, ny = _npown_h_lengths(w)
    if "b" not in w:
        return ("hom", (("x", ("x",)), ("y", ("x",) * (ny - 1) + ("y",))))
    return ("hom", (("x", ("x",) * nx), ("y", ("x",) * ny)))


def generate_jobs(lib, files, seed):
    rng = random.Random(f"generate:{seed}")
    jobs = []
    rec = lib.recurrences
    pow2 = files["pow2-pda"].resolve("pow2", "pda")[1]
    for n in POW2_SIZES:
        w = ("a",) * n
        jobs.append(_value_job(f"pow2.n{n}", f"run(pow2, a^{n})", lambda w=w: lib.kpda.run(pow2, w),
                               lambda n=n: ("Accepted", ("b",) * 2 ** n), 2 ** n, sweep=f"pow2.n{n}"))
    id1 = files["identity-pda"].resolve("id1", "pda")[1]
    for n in ID1_SIZES:
        w = tuple(rng.choice("ab") for _ in range(n))
        jobs.append(_value_job(f"id1.n{n}", f"run(id1, {''.join(w)})", lambda w=w: lib.kpda.run(id1, w),
                               lambda w=w: ("Accepted", w), n))

    fword = files["fibonacci"].resolve("Fword", "cat")[1]
    for n in range(13, 23):  # fixed sizes: outputs are kept, so peak RSS must not hang on the seed
        k = n - 13
        jobs.append(_value_job(f"Fword.{k}", f"eval_catenative(Fword, a^{n})",
                               lambda n=n: rec.eval_catenative(fword, "f", ("a",) * n),
                               lambda n=n: ("b",) * O.fib(n), O.fib(n)))
    npown_f = files["npown"].resolve("f", "cat")[1]
    for k in range(10):
        n = rng.randrange(50, 201)
        jobs.append(_value_job(f"npown.f.{k}", f"eval_catenative(npown.f, a^{n})",
                               lambda n=n: rec.eval_catenative(npown_f, "f", ("a",) * n),
                               lambda n=n: ("a",) * n + ("b",) + ("c",) * n, 2 * n + 1))
    nu = files["gmap"].resolve("nu", "cat")[1]
    for k in range(20):
        w = _bits(rng, 12 + k % 5, lead="11")
        jobs.append(_value_job(f"gmap.nu.{k}", f"eval_catenative(gmap.nu, {''.join(w)})",
                               lambda w=w: rec.eval_catenative(nu, "g", w),
                               lambda w=w: ("x",) * _bits_value(w), _bits_value(w)))

    H = files["npown"].resolve("H", "comp")[1]
    for k in range(15):
        def make(r, k=k):
            shape = k % 3
            if shape == 0:
                return ("c",) * r.randrange(1, 40)
            if shape == 1:
                return ("b",) + ("c",) * r.randrange(1, 40)
            return ("a",) * r.randrange(1, 4) + ("b",) + ("c",) * r.randrange(2, 6)

        w = _draw(rng, make, lambda w: sum(_npown_h_lengths(w)))
        jobs.append(_value_job(
            f"npown.H.{k}", f"eval_compositional(npown.H, {''.join(w)})",
            lambda w=w: rec.eval_compositional(H, "H", w),
            lambda w=w: _npown_h_closed_form(w), sum(_npown_h_lengths(w)),
        ))

    fsys = files["fibonacci"].resolve("F", "poly")[1]
    fc = files["factorial"].resolve("FC", "poly")[1]
    jobs.append(_value_job("F.a20000", "eval_polynomial(F, a^20000)",
                           lambda: rec.eval_polynomial(fsys, "F", ("a",) * 20000),
                           lambda: O.fib(20000), 14000))
    jobs.append(_value_job("FC.a5000", "eval_polynomial(FC, a^5000)",
                           lambda: rec.eval_polynomial(fc, "FC", ("a",) * 5000),
                           lambda: math.factorial(5001), 60000))

    shift = files["shift"].resolve("shift", "reg")[1]
    for k in range(15):
        w = _draw(rng, lambda r: tuple(r.choice("ab") for _ in range(10 + k % 5)), lambda w: _shift_lengths(w)[0])
        jobs.append(_value_job(f"shift.{k}", f"eval_regular(shift, {''.join(w)})",
                               lambda w=w: rec.eval_regular(shift, "f", w),
                               lambda w=w: O.shift_reference("f", w), _shift_lengths(w)[0]))

    jobs.extend(_lowering_jobs(lib, files, rng))
    jobs.extend(_readme_cli_jobs(lib))
    return jobs


def _lowering_jobs(lib, files, rng):
    lo = lib.lowering
    gmap = files["gmap"]
    nu = gmap.resolve("nu", "cat")[1]
    fibrep = gmap.resolve("fibrep", "linrep")[1]
    fibword = gmap.resolve("fibword", "hdt0l")[1]
    jobs = []
    for k in range(3):
        w = _bits(rng, 16, lead="111")
        v = _bits_value(w)
        jobs.append(_value_job(f"route.stage1.{k}", f"linear_eval(fibrep, nu({''.join(w)}))",
                               lambda w=w: lib.morphisms.linear_eval(fibrep, lib.recurrences.eval_catenative(nu, "g", w)),
                               lambda v=v: O.fib(v), v, kind="lowering_route"))
        jobs.append(_value_job(f"route.series.{k}", f"series_to_polynomial_system(nu, fibrep).eval({''.join(w)})",
                               lambda w=w: lo.series_to_polynomial_system(nu, fibrep, "g").eval(w),
                               lambda v=v: O.fib(v), v, kind="lowering_route"))
    demo = files["skolem-demo"]
    pow2u = demo.resolve("pow2", "poly")[1]
    lin = demo.resolve("lin", "poly")[1]
    for k in range(5):
        n = rng.randrange(10, 31)
        jobs.append(_value_job(f"skolem.{k}", f"skolem_product_system(pow2.U, lin.V).eval({n})",
                               lambda n=n: lo.skolem_product_system(pow2u, "U", lin, "V").eval(n),
                               lambda n=n: O.skolem_closed_form(n), (n + 2) * (n + 1)))
    for k in range(5):
        n = rng.randrange(20, 61)
        jobs.append(_value_job(f"unary.{k}", f"linear_eval(unary_lowering(fibword), x^{n})",
                               lambda n=n: lib.morphisms.linear_eval(lo.unary_lowering(fibword), ("x",) * n),
                               lambda n=n: O.fib(n), n))
    for k in range(LEVEL3_JOBS):
        # one value, F(23) letters, behind 0-3 leading zeros: a block of equal
        # cost, inside which the 90th percentile falls
        w = ("0",) * rng.randrange(0, 4) + tuple("10111")
        v = _bits_value(w)
        jobs.append(_value_job(f"level3.{k}", f"compose_level3(nu, fibword).eval({''.join(w)})",
                               lambda w=w: lo.compose_level3(nu, "g", fibword).eval(w),
                               lambda v=v: ("b",) * O.fib(v), O.fib(v)))
    return jobs


README_COMMANDS = [
    (["eval", "factorial", "FC", "3"], 0, "24\n"),
    (["eval", "npown", "f", "3"], 0, "aaabccc\n"),
    (["eval", "npown", "H", "bcc"], 0, "{x -> x x; y -> x}\n"),
    (["eval", "factorial", "UV", "babaab"], 0, "6\n"),
    (["eval", "factorial", "UV", "babaab", "--paper-literal"], 0, "1\n"),
    (["run-pda", "pow2-pda", "pow2", "aaa"], 0, "Accepted bbbbbbbb\n"),
    (["equiv", "fibonacci", "F", "fibonacci", "F3"], 0, "Equal\n"),
    (["equiv", "fibonacci", "F", "fibonacci", "Fbad"], 1, "NotEqual a\n"),
    (["compose", "gmap", "nu", "fibrep", "101"], 0, "8\n"),
]


def _readme_cli_jobs(lib):
    jobs = []
    for argv, rc, text in README_COMMANDS:
        check, corrupt = O.cli_text_check(rc, text)
        jobs.append(Job("cli." + ".".join(argv), " ".join(argv), cli_call(lib, argv), check, corrupt, "cli_text"))
    argv = ["lower", "unary", "gmap", "fibword"]
    check, corrupt = O.cli_linrep_check(O.fib)
    jobs.append(Job("cli.lower.unary", " ".join(argv), cli_call(lib, argv), check, corrupt, "cli_linrep"))
    argv = ["lower", "skolem", "skolem-demo", "pow2.U", "lin.V"]
    check, corrupt = O.cli_poly_check("w_acc", O.skolem_closed_form)
    jobs.append(Job("cli.lower.skolem", " ".join(argv), cli_call(lib, argv), check, corrupt, "cli_poly"))
    ideal_file = DATA / "ideals.sys"
    variables, gen_texts = _ideal_text(ideal_file, "cyclic3")
    argv = ["groebner", str(ideal_file), "cyclic3", "--order", "lex"]
    check, corrupt = O.cli_groebner_check(gen_texts, variables, "lex")
    jobs.append(Job("cli.groebner.cyclic3", "groebner ideals.sys cyclic3 --order lex", cli_call(lib, argv),
                    check, corrupt, "cli_groebner"))
    return jobs


# the README CLI contract says errors exit 2; these exit through an
# uncaught ValueError instead (CPython's 4300-digit int-to-str limit)
KNOWN_DEFECTS = [
    (["eval", "factorial", "FC", "2000"], 0, lambda: f"{math.factorial(2001)}\n"),
    (["compose", "gmap", "nu", "fibrep", "1111111111111111"], 0, lambda: f"{O.fib(65535)}\n"),
]


def interleave(jobs):
    """Spread each kind of job evenly over the pass, so that every kind is
    sampled across the whole window rather than in one burst.  Kinds with
    fewer than five jobs are spread as one kind."""
    groups = {}
    for job in jobs:
        groups.setdefault(job.name.rsplit(".", 1)[0], []).append(job)
    spread, rest = [], []
    for group in groups.values():
        (spread if len(group) >= 5 else rest).append(group)
    spread.append([job for group in rest for job in group])
    placed = [((k + 0.5) / len(group), g, job) for g, group in enumerate(spread) for k, job in enumerate(group)]
    return [job for _, _, job in sorted(placed, key=lambda t: t[:2])]


WORKLOADS = {
    "decide": lambda lib, files, seed: interleave(decide_jobs(lib, files, seed)),
    "closure": lambda lib, files, seed: interleave(closure_jobs(lib, files, seed)),
    "generate": lambda lib, files, seed: interleave(generate_jobs(lib, files, seed)),
}
