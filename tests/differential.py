"""Print one line per case of a checkout's observable outputs, so that two
checkouts are compared by ``diff``:

* ``reprint NAME LENGTH SHA256 stable|unstable`` for every bundled
  ``src/wordmaps/data`` file and every ``perfbench/data`` file: the length and
  digest of its reprint (``format_file`` of ``parse_file``), and whether the
  reprint reprints to itself;
* ``cli ARGS EXIT STDOUT`` for every command of README.md's CLI block, run in
  process (``FILE IDEAL`` read as ``perfbench/data/ideals.sys cyclic3``), with
  the repr of its stdout.

    python tests/differential.py [--tree CHECKOUT] > out.txt

The library, the data files and the README are read from ``CHECKOUT`` (by
default the checkout that holds this script).  pytest does not collect this
file; it is a tool, not a test.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import re
import sys
from pathlib import Path


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
    return 0


if __name__ == "__main__":
    sys.exit(main())
