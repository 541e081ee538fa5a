"""Print one line per case of a checkout's observable outputs, so that two
checkouts are compared by ``diff``:

* ``reprint NAME LENGTH SHA256 stable|unstable`` for every bundled
  ``src/wordmaps/data`` file and every ``perfbench/data`` file: the length and
  digest of its reprint (``format_file`` of ``parse_file``), and whether the
  reprint reprints to itself;
* ``cli ARGS EXIT STDOUT`` for every command of README.md's CLI block, run in
  process (``FILE IDEAL`` read as ``perfbench/data/ideals.sys cyclic3``), with
  the repr of its stdout;
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
import re
import subprocess
import sys
from pathlib import Path


WORKLOADS = ("decide", "closure", "generate")
SEEDS = (101, 202)


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

    sys.stdout.flush()  # the child writes the job lines to the same stdout
    here = str(Path(__file__).resolve().parent)
    child = f"import sys; sys.path.insert(0, {here!r}); import differential; differential.print_jobs({str(tree)!r})"
    return subprocess.run([sys.executable, "-c", child], env={**os.environ, "PYTHONHASHSEED": "0"}).returncode


if __name__ == "__main__":
    sys.exit(main())
