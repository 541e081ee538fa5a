"""Print one line per case of a checkout's observable outputs, so that two
checkouts are compared by ``diff``:

* ``reprint NAME LENGTH SHA256 stable|unstable`` for every bundled
  ``src/wordmaps/data`` file and every ``perfbench/data`` file: the length and
  digest of its reprint (``format_file`` of ``parse_file``), and whether the
  reprint reprints to itself;
* ``cli ARGS EXIT STDOUT`` for every command of README.md's CLI block, run in
  process (``FILE IDEAL`` read as ``perfbench/data/ideals.sys cyclic3``), with
  the repr of its stdout;
* ``grid N VERDICT`` for every pair N < 1000 of a grid of seeded random
  non-affine systems that compares an index with its exact copy (``grid_pair``),
  decided by ``decide_equal`` at the default budget; a call still running
  after ``GRID_ALARM_S`` seconds prints ``timeout``;
* ``job WORKLOAD SEED NAME SHA256`` for every job of one pass of each
  benchmark workload at each of ``SEEDS``, made by the checkout's own
  ``perfbench/run.py``: the digest of the repr of the job's comparable output,
  or of the exception it raised.  The jobs run in a child process with
  ``PYTHONHASHSEED=0``, so the lines do not depend on the hash seed.

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


def grid_pair(n: int, Polynomial, PolynomialSystem):
    """(system, index, its copy, "Dup") for grid pair n, or None when pair n
    is not an exact copy.  A system has indices X0 (and X1), ring Z, letter
    a (n odd) or letters a and b, and updates of degree <= 2, at least one of
    degree 2: with coefficients and bases in -2..2, or, for n = 3 (mod 4),
    signed monomials and constants over -1..1, so that its orbit is finite.
    The copies are the pairs n = 0 (mod 4) and n = 3 (mod 8); the other
    pairs of the same seeds hide a difference or compare two systems."""
    if n % 4 != 0 and n % 8 != 3:
        return None
    rng, letters = random.Random(f"grid43:{n}"), ("a",) if n % 2 else ("a", "b")
    P = Polynomial
    while True:
        indices = tuple(f"X{k}" for k in range(rng.randrange(1, 3)))
        if n % 4 == 3:
            def rule():
                if rng.random() < 0.3:
                    return P.const(rng.randrange(-1, 2))
                m = P.var(rng.choice(indices))
                if rng.random() < 0.5:
                    m = m * P.var(rng.choice(indices))
                return rng.choice((1, -1)) * m
            rules = {(i, a): rule() for i in indices for a in letters}
            base = {i: rng.randrange(-1, 2) for i in indices}
        else:
            def rule():
                p = P.const(rng.randrange(-2, 3))
                for _ in range(rng.randrange(1, 3)):
                    term = P.const(rng.choice((-2, -1, 1, 2)))
                    for _ in range(rng.randrange(0, 3)):
                        term = term * P.var(rng.choice(indices))
                    p = p + term
                return p
            rules = {(i, a): rule() for i in indices for a in letters}
            base = {i: rng.randrange(-2, 3) for i in indices}
        sys_p = PolynomialSystem.make(indices, letters, rules, base, ring="Z")
        if not sys_p.affine:
            break
    i = rng.choice(sys_p.indices)
    rules.update({("Dup", a): rules[(i, a)] for a in letters})
    copy = PolynomialSystem.make(indices + ("Dup",), letters, rules, {**base, "Dup": base[i]}, ring="Z")
    return sys_p, i, copy, "Dup"


def print_grid() -> None:
    """The ``grid`` lines, each call under an alarm of ``GRID_ALARM_S`` seconds."""
    from wordmaps.equivalence import decide_equal
    from wordmaps.polynomials import Polynomial
    from wordmaps.recurrences import PolynomialSystem

    def alarm(signum, frame):
        raise TimeoutError

    signal.signal(signal.SIGALRM, alarm)
    for n in range(GRID_PAIRS):
        pair = grid_pair(n, Polynomial, PolynomialSystem)
        if pair is None:
            continue
        signal.alarm(GRID_ALARM_S)
        try:
            shown = repr(decide_equal(*pair))
        except TimeoutError:
            shown = "timeout"
        except Exception as e:  # a budget stop is the pair's output
            shown = f"raised {type(e).__name__}: {e}"
        finally:
            signal.alarm(0)
        print("grid", n, shown, flush=True)


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
    for path in sorted((tree / "src" / "wordmaps" / "data").glob("*.sys")) + sorted(data.glob("*.sys")):
        printed = format_file(parse_file(path.read_text(), filename=path.stem))
        stable = format_file(parse_file(printed)) == printed
        digest = hashlib.sha256(printed.encode()).hexdigest()
        print("reprint", path.name, len(printed), digest, "stable" if stable else "unstable")

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
    sys.stdout.flush()  # the child writes the job lines to the same stdout
    here = str(Path(__file__).resolve().parent)
    child = f"import sys; sys.path.insert(0, {here!r}); import differential; differential.print_jobs({str(tree)!r})"
    return subprocess.run([sys.executable, "-c", child], env={**os.environ, "PYTHONHASHSEED": "0"}).returncode


if __name__ == "__main__":
    sys.exit(main())
