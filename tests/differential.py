"""Print one line per case of a checkout's observable outputs, so that two
checkouts are compared by ``diff``:

* ``reprint NAME LENGTH SHA256 stable|unstable`` for every bundled
  ``src/wordmaps/data`` file and every ``perfbench/data`` file: the length and
  digest of its reprint (``format_file`` of ``parse_file``), and whether the
  reprint reprints to itself;
* ``cli ARGS EXIT STDOUT`` for every command of README.md's CLI block, run in
  process (``FILE IDEAL`` read as ``perfbench/data/ideals.sys cyclic3``), with
  the repr of its stdout;
* ``grid N BUDGET equal|find OUTCOME`` for every pair N < 1000 of a grid of
  seeded random non-affine pairs (``grid_case``) and every budget of
  ``GRID_BUDGETS``: the repr of ``decide_equal(sys_p, i, other, j)`` and of
  ``find_witness(sys_p, t)``, or the error it raised; a call still running
  after ``GRID_ALARM_S`` seconds prints ``timeout``;
* ``edit N NAME OUTCOME`` for each of ``EDITS`` edited copies of the reprinted
  files, made from ``EDIT_SEED``: each replaces one to three characters by one
  of ``REPLACEMENTS`` (the empty string deletes), and its outcome is the
  digest of the copy's reprint or the text of the error that reading it raised;
* ``job WORKLOAD SEED NAME SHA256`` for every job of one pass of each
  benchmark workload at each of ``SEEDS``, made by the checkout's own
  ``perfbench/run.py``: the digest of the repr of the job's comparable output,
  or of the exception it raised.

The edits and the jobs run in a child process with ``PYTHONHASHSEED=0``.
The library's refusals name their least offender, so its own lines do not
depend on the hash seed; a checkout given by ``--tree`` may be older, and
some of its refusals may name the first member of a set in hash order.

    python tests/differential.py [--tree CHECKOUT] > out.txt

The library, the data files and the README are read from ``CHECKOUT`` (by
default the checkout that holds this script).  pytest does not collect this
file; it is a tool, not a test.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import itertools
import os
import random
import re
import signal
import subprocess
import sys
from pathlib import Path


WORKLOADS = ("decide", "closure", "generate")
SEEDS = (101, 202)
GRID_PAIRS = 1000
GRID_ALARM_S = 10
# (name, Budget fields): grid43's budgets, chain additions x point bits with a
# basis of 60, but for (8, 8), where single pairs run past 10 s, and the default
GRID_BUDGETS = [(f"{c}/{b}", {"chain_additions": c, "max_point_bits": b, "max_basis": 60})
                for c in (0, 1, 3, 8) for b in (8, 4096) if (c, b) != (8, 8)] + [("default", {})]
EDITS = 2000
EDIT_SEED = 7919
REPLACEMENTS = ("", "x", "1", ":", "{", "}", "(", ";", "=", "->", "\n", "²", "٣", "é", "′", "#", '"')


def grid_case(n: int) -> tuple:
    """(sys_p, i, other, j, t) of grid pair n.  sys_p has indices X0 (and
    X1), ring Z, letter a (n odd) or letters a and b, and updates of degree
    <= 2, at least one of degree 2: with coefficients and bases in -2..2, or,
    for n = 3 (mod 4), signed monomials and constants over -1..1, so that its
    orbit is finite.  other is sys_p with X_i copied as Dup (n = 0 (mod 4) or
    n = 3 (mod 8)); that copy with one letter's rule for Dup plus the product
    of (Dup - X_i(u)) over the words u up to length 0-2, which hides the
    difference deeper (n = 1 (mod 4) or n = 7 (mod 8)); or, for n = 2
    (mod 4), a second such system whose X_j starts at X_i's base value.  t is
    a product of one or two factors q - q(v(w)), q random of degree <= 2 and
    w a random word up to length 3."""
    from wordmaps.polynomials import Polynomial as P
    from wordmaps.recurrences import PolynomialSystem, eval_polynomial_vector

    rng, letters = random.Random(f"grid43:{n}"), ("a",) if n % 2 else ("a", "b")

    def poly(indices):
        p = P.const(rng.randrange(-2, 3))
        for _ in range(rng.randrange(1, 3)):
            term = P.const(rng.choice((-2, -1, 1, 2)))
            for _ in range(rng.randrange(0, 3)):
                term = term * P.var(rng.choice(indices))
            p = p + term
        return p

    def signed_monomial(indices):
        if rng.random() < 0.3:
            return P.const(rng.randrange(-1, 2))
        m = P.var(rng.choice(indices))
        if rng.random() < 0.5:
            m = m * P.var(rng.choice(indices))
        return rng.choice((1, -1)) * m

    def system(finite=False):
        while True:
            indices = tuple(f"X{k}" for k in range(rng.randrange(1, 3)))
            rule = signed_monomial if finite else poly
            rules = {(i, a): rule(indices) for i in indices for a in letters}
            base = {i: rng.randrange(-1, 2) if finite else rng.randrange(-2, 3) for i in indices}
            sys_ = PolynomialSystem.make(indices, letters, rules, base, ring="Z")
            if not sys_.affine:
                return sys_

    def words(length):
        return [w for k in range(length + 1) for w in itertools.product(letters, repeat=k)]

    sys_p = system(finite=n % 4 == 3)
    i = rng.choice(sys_p.indices)
    t = P.const(1)
    for _ in range(rng.randrange(1, 3)):
        q = poly(sys_p.indices)
        t = t * (q - q.evaluate(eval_polynomial_vector(sys_p, rng.choice(words(3)))))
    if n % 4 == 2:
        other = system()
        j = rng.choice(other.indices)
        base = {**dict(other.base), j: sys_p.base_map[i]}
        return sys_p, i, PolynomialSystem.make(other.indices, letters, dict(other.rules), base, ring="Z"), j, t
    rules = dict(sys_p.rules)
    rules.update({("Dup", a): rules[(i, a)] for a in letters})
    if n % 4 == 1 or n % 8 == 7:
        # equal to X_i wherever X_i(w) is one of the values X_i(u)
        a, hide = rng.choice(letters), P.const(1)
        for value in sorted({eval_polynomial_vector(sys_p, u)[i] for u in words(rng.randrange(0, 3))}):
            hide = hide * (P.var("Dup") - value)
        rules[("Dup", a)] = rules[("Dup", a)] + hide
    base = {**dict(sys_p.base), "Dup": sys_p.base_map[i]}
    return sys_p, i, PolynomialSystem.make(sys_p.indices + ("Dup",), letters, rules, base, ring="Z"), "Dup", t


def data_files(tree: Path) -> list:
    """(name, text) of each ``src/wordmaps/data`` and ``perfbench/data`` file."""
    paths = sorted((tree / "src" / "wordmaps" / "data").glob("*.sys"))
    paths += sorted((tree / "perfbench" / "data").glob("*.sys"))
    return [(path.name, path.read_text()) for path in paths]


def print_edits(tree: str) -> None:
    """The ``edit`` lines, read by ``tree``'s library."""
    sys.path.insert(0, str(Path(tree) / "src"))
    from wordmaps.systemfile import format_file, parse_file

    files, rng = data_files(Path(tree)), random.Random(EDIT_SEED)
    for n in range(EDITS):
        name, text = rng.choice(files)
        for _ in range(rng.randint(1, 3)):
            at = rng.randrange(len(text))
            text = text[:at] + rng.choice(REPLACEMENTS) + text[at + 1 :]
        try:
            shown = hashlib.sha256(format_file(parse_file(text, filename=name)).encode()).hexdigest()
        except Exception as e:  # a parse error is the edit's output
            shown = f"{type(e).__name__}: {e}"
        print("edit", n, name, shown)


def print_grid() -> None:
    """The ``grid`` lines, each call under an alarm of ``GRID_ALARM_S`` seconds."""
    from wordmaps.equivalence import Budget, decide_equal, find_witness

    def alarm(signum, frame):
        raise TimeoutError

    def outcome(call):
        signal.alarm(GRID_ALARM_S)
        try:
            return repr(call())
        except TimeoutError:
            return "timeout"
        except Exception as e:  # a budget stop is the call's output
            return f"raised {type(e).__name__}: {e}"
        finally:
            signal.alarm(0)

    signal.signal(signal.SIGALRM, alarm)
    budgets = [(name, Budget(**limits)) for name, limits in GRID_BUDGETS]
    for n in range(GRID_PAIRS):
        sys_p, i, other, j, t = grid_case(n)
        for name, budget in budgets:
            print("grid", n, name, "equal", outcome(lambda: decide_equal(sys_p, i, other, j, budget)))
            print("grid", n, name, "find", outcome(lambda: find_witness(sys_p, t, budget)))


def print_jobs(tree: str) -> None:
    """The ``job`` lines, from the jobs and ``comparable`` of ``tree``'s perfbench."""
    spec = importlib.util.spec_from_file_location("run", Path(tree) / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    sys.set_int_max_str_digits(0)  # some outputs are ints of more than 4,300 digits
    for workload in WORKLOADS:
        for seed in SEEDS:
            for job in run.setup(workload, seed)[2]:
                try:
                    shown = repr(run.comparable(job.call()))
                except Exception as e:  # a job's exception is its output
                    shown = repr(e)
                print("job", workload, seed, job.name, hashlib.sha256(shown.encode()).hexdigest())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--tree", type=Path, default=Path(__file__).resolve().parents[1])
    tree = ap.parse_args(argv).tree.resolve()
    sys.path.insert(0, str(tree / "src"))
    from wordmaps import cli
    from wordmaps.systemfile import format_file, parse_file

    data = tree / "perfbench" / "data"
    for name, text in data_files(tree):
        printed = format_file(parse_file(text, filename=name.removesuffix(".sys")))
        stable = format_file(parse_file(printed)) == printed
        digest = hashlib.sha256(printed.encode()).hexdigest()
        print("reprint", name, len(printed), digest, "stable" if stable else "unstable")

    readme = (tree / "README.md").read_text()
    block = re.search(r"## CLI\n.*?```sh\n(.*?)```", readme, re.S).group(1)
    for line in block.splitlines():
        args = line.partition("#")[0].split()[1:]
        args = [{"FILE": str(data / "ideals.sys"), "IDEAL": "cyclic3"}.get(a, a) for a in args]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(args)
            except SystemExit as e:
                code = f"SystemExit {e.code}"
        shown = " ".join(a.replace(str(data), "perfbench/data") for a in args)
        print("cli", shown, code, repr(out.getvalue()))

    print_grid()
    sys.stdout.flush()  # the child writes the edit and job lines to the same stdout
    here = str(Path(__file__).resolve().parent)
    child = (f"import sys; sys.path.insert(0, {here!r}); import differential; "
             f"differential.print_edits({str(tree)!r}); differential.print_jobs({str(tree)!r})")
    return subprocess.run([sys.executable, "-c", child], env={**os.environ, "PYTHONHASHSEED": "0"}).returncode


if __name__ == "__main__":
    sys.exit(main())
