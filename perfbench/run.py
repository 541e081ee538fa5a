"""wordmaps benchmark: one closed-loop client calling the library in-process.

    python3 perfbench/run.py --workload decide|closure|generate --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from its ``src``.
Set-up (import, parsing the bundled and benchmark ``.sys`` files, making the
seeded jobs) is repeated `SETUP_REPEATS` times and its median reported.  The
timed window then issues whole passes over the job list, one job after the
other; `--seconds` sets how many (see `passes_for`).  Outputs are checked
against the oracles after the window.  With ``--trace 1`` the run makes a
warm-up, an untraced and a traced pass instead and reports per-layer
metrics.  The last line of stdout is the JSON result; see README.md.
"""

from __future__ import annotations

import time

PROCESS_T0 = time.perf_counter()

import argparse
import importlib
import json
import math
import os
import resource
import statistics
import sys
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / "perfbench_out"
sys.path.insert(0, str(HERE))

import oracles as O  # noqa: E402
import workloads as W  # noqa: E402
from tracing import Tracer  # noqa: E402

MODULES = ("errors", "words", "polynomials", "groebner", "pushdown", "kpda", "morphisms",
           "recurrences", "lowering", "equivalence", "systemfile", "cli")
BUNDLED = ("fibonacci", "factorial", "npown", "gmap", "skolem-demo", "identity-pda", "pow2-pda")
OWN_FILES = ("fractions", "ideals", "shift")
SETUP_REPEATS = 9
HELD_OUT_OFFSET = 1_000_003  # the held-out seed is seed + HELD_OUT_OFFSET
# seconds a pass takes at the commit that defined the benchmark (2-vCPU
# shared VM, Python 3.11); they only turn --seconds into a pass count
NOMINAL_PASS_S = {"decide": 6.5, "closure": 17.0, "generate": 2.5}
ALLOWED_CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else [0]

SWEEPS = tuple(f"pow2.n{n}" for n in W.POW2_SIZES) + tuple(f"deep.L{n}" for n in W.DEEP_SIZES) + tuple(
    f"counter.L{n}" for n in W.COUNTER_SIZES)

class SetupError(Exception):
    pass


def load_library():
    """Import wordmaps afresh from the checkout's src."""
    for name in [n for n in sys.modules if n == "wordmaps" or n.startswith("wordmaps.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        mods = {m: importlib.import_module(f"wordmaps.{m}") for m in MODULES}
    except ImportError as e:
        raise SetupError(f"cannot import wordmaps from {SRC}: {e}") from e
    where = Path(sys.modules["wordmaps"].__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SetupError(f"wordmaps was imported from {where}, not from {SRC}")
    return SimpleNamespace(**mods)


def parse_files(lib):
    files = {name: lib.cli.load_file(name) for name in BUNDLED}
    for name in OWN_FILES:
        path = W.DATA / f"{name}.sys"
        files[name] = lib.systemfile.parse_file(path.read_text(), filename=str(path))
    return files


def setup(workload, seed):
    lib = load_library()
    files = parse_files(lib)
    return lib, files, W.WORKLOADS[workload](lib, files, seed)


def comparable(out):
    if hasattr(out, "generators"):
        return tuple(out.generators)
    if type(out).__name__ in ("Equal", "NotEqual"):
        return O.verdict_tuple(out)
    return O.normal_value(out)


class Runner:
    """Issues the jobs one after the other and keeps the first pass's
    outputs; later passes must reproduce them."""

    def __init__(self, jobs):
        self.jobs = jobs
        self.first = [None] * len(jobs)
        self.errors: dict[int, str] = {}
        self.bad: set[tuple[int, int]] = set()  # (pass, job) executions that failed
        self.latencies: list[tuple[int, float]] = []
        self.passes = 0

    def one_pass(self, tracer=None):
        p = self.passes
        start = time.perf_counter()
        for k, job in enumerate(self.jobs):
            if tracer is not None:
                tracer.job = k
            use_cpu(p + k)
            t = time.perf_counter()
            try:
                out = job.call()
            except Exception as e:  # a job that raises is a failure, not a crash
                self.latencies.append((k, time.perf_counter() - t))
                self.errors.setdefault(k, f"raised {type(e).__name__}: {str(e)[:200]}")
                self.bad.add((p, k))
                continue
            self.latencies.append((k, time.perf_counter() - t))
            if p == 0:
                self.first[k] = out
            elif self.first[k] is None or comparable(out) != comparable(self.first[k]):
                self.errors.setdefault(k, f"pass {p} output differs from pass 0")
                self.bad.add((p, k))
        self.passes += 1
        return time.perf_counter() - start

    def check(self):
        """Run every job's oracle on its first-pass output."""
        for k, job in enumerate(self.jobs):
            if k in self.errors:
                continue
            try:
                msg = job.check(self.first[k])
            except Exception as e:  # an oracle that cannot read the output rejects it
                msg = f"oracle raised {type(e).__name__}: {e}"
            if msg is not None:
                self.errors[k] = msg
        for k in self.errors:
            self.bad.update((p, k) for p in range(self.passes))

    def self_test(self):
        """Feed each oracle kind one corrupted output; it must be rejected."""
        problems = []
        seen = set()
        for k, job in enumerate(self.jobs):
            if job.kind in seen or k in self.errors:
                continue
            seen.add(job.kind)
            try:
                accepted = job.check(job.corrupt(self.first[k])) is None
            except Exception:
                accepted = False
            if accepted:
                problems.append(f"oracle {job.kind} accepted a corrupted output of {job.name}")
        return problems

    def cross_check(self):
        """The two lowering routes must agree job for job."""
        by_name = {job.name: k for k, job in enumerate(self.jobs)}
        problems = []
        for name, k in by_name.items():
            if not name.startswith("route.stage1."):
                continue
            j = by_name[name.replace("stage1", "series")]
            a, b = self.first[k], self.first[j]
            if _routes_differ(a, b):
                self.errors.setdefault(j, f"lowering routes disagree: {a} != {b}")
                self.bad.update((p, j) for p in range(self.passes))
            elif not _routes_differ(a, b + 1):  # the check itself must see a corruption
                problems.append("the route cross-check accepted a corrupted output")
        return problems

    def sweep_ms(self):
        out = {}
        for k, job in enumerate(self.jobs):
            if job.sweep is not None and k not in self.errors:
                out[job.sweep] = statistics.median(1e3 * s for j, s in self.latencies if j == k)
        return out


def _routes_differ(a, b):
    return a is None or b is None or a != b


def passes_for(workload, seconds):
    """Whole passes filling about `seconds` at the nominal pass time, so
    that every run of a commit does the same work."""
    return max(1, round(seconds / NOMINAL_PASS_S[workload]))


def nearest_rank(sorted_values, q):
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def determinism_problems(lib, files, workload, seed, jobs):
    problems = []
    again = W.WORKLOADS[workload](lib, files, seed)
    if [(j.name, j.inputs) for j in again] != [(j.name, j.inputs) for j in jobs]:
        problems.append("the same seed generated different inputs")
    try:
        held_out = W.WORKLOADS[workload](lib, files, seed + HELD_OUT_OFFSET)
    except ValueError as e:
        return problems + [f"held-out seed failed the size guard: {e}"]
    if [j.name for j in held_out] != [j.name for j in jobs]:
        problems.append("the held-out seed generated a different pass shape")
    if any(j.size > W.MAX_OUTPUT for j in held_out):
        problems.append("a held-out job exceeds the size guard")
    return problems


def known_defects(lib):
    """Run the known-defect commands; report whether each still fails."""
    lines = []
    limit = sys.get_int_max_str_digits()
    for argv, rc, text in W.KNOWN_DEFECTS:
        try:
            got = W.cli_call(lib, argv)()
        except Exception as e:
            lines.append(f"known_defect {' '.join(argv)}: FAILS, raised {type(e).__name__}")
            continue
        sys.set_int_max_str_digits(0)  # only to build the expected text
        try:
            ok = got == (rc, text()) or got[0] == 2
        finally:
            sys.set_int_max_str_digits(limit)
        state = "no longer fails; update perfbench/README.md" if ok else f"FAILS, exit {got[0]}"
        lines.append(f"known_defect {' '.join(argv)}: {state}")
    return lines


def use_cpu(turn):
    """Move this process to one of the CPUs it may use, by turn.  On a
    shared machine the CPUs can differ in speed by tens of percent for tens
    of seconds at a time; giving neighbouring jobs, and a job's repeats in
    later passes, different CPUs averages that out, where otherwise it would
    decide whole runs."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {ALLOWED_CPUS[turn % len(ALLOWED_CPUS)]})


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    setups = []
    try:
        for turn in range(SETUP_REPEATS):
            use_cpu(turn)
            t = time.perf_counter()
            lib, files, jobs = setup(args.workload, args.seed)
            setups.append(time.perf_counter() - t)
    except SetupError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    first_job_at = time.perf_counter() - PROCESS_T0

    runner = Runner(jobs)
    if args.trace:
        warmup = runner.one_pass()  # also keeps the outputs the oracles check
        untraced = runner.one_pass()
        sweeps = runner.sweep_ms()
        tracer = Tracer()
        tracer.install()
        try:
            traced = runner.one_pass(tracer)
        finally:
            tracer.uninstall()
        window = warmup + untraced + traced
    else:
        window = sum(runner.one_pass() for _ in range(passes_for(args.workload, args.seconds)))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    runner.check()
    problems = runner.self_test() + runner.cross_check()
    problems += determinism_problems(lib, files, args.workload, args.seed, jobs)

    lat = sorted(s for _, s in runner.latencies)
    attempted = len(lat)
    failed = len(runner.bad)
    p90 = nearest_rank(lat, 0.9)
    beyond = sum(1 for s in lat if s > p90)
    print(f"workload {args.workload} seed {args.seed}: {runner.passes} passes of {len(jobs)} jobs, "
          f"{attempted} jobs in {window:.3f} s; process start to first job {first_job_at:.3f} s")
    print(f"jobs {attempted}; failed_frac {failed / attempted:.6f} ({failed} of {attempted})")
    for k, msg in sorted(runner.errors.items()):
        print(f"FAILED {jobs[k].name}: {msg}; input {jobs[k].inputs[:300]}")
    for msg in problems:
        print(f"CHECK FAILED: {msg}")
    if not args.trace:
        sweeps = runner.sweep_ms()
    for name in SWEEPS:
        if name in sweeps:
            print(f"sweep {name} {sweeps[name]:.3f} ms")
    if args.workload == "generate":
        for line in known_defects(lib):
            print(line)

    if args.trace:
        metrics = tracer.metrics()
        metrics["trace.overhead_ratio"] = metric(round(traced / untraced, 4), "ratio")
        for name in SWEEPS:
            metrics[f"sweep.{name}_ms"] = metric(round(sweeps.get(name, 0.0), 4), "ms")
        for name in tracer.absent:
            print(f"absent: {name} is no longer a public name; its metrics are left out", file=sys.stderr)
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"spans-{args.workload}-{args.seed}.tsv"
        kept = tracer.write_spans(path)
        print(f"spans: {kept} written to {path.relative_to(ROOT)}, {tracer.dropped} over the cap not kept")
    else:
        metrics = {
            "setup_s": metric(round(statistics.median(setups), 6), "s"),
            "jobs_per_s": metric(round(attempted / sum(lat), 4), "1/s"),
            "job_p50_ms": metric(round(1e3 * nearest_rank(lat, 0.5), 4), "ms"),
            "job_p90_ms": metric(round(1e3 * p90, 4), "ms"),
            "peak_rss_mb": metric(round(peak_rss_mb, 3), "MB"),
        }
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    if not args.trace:
        print(f"job_p90_ms has {beyond} samples beyond it")
    result = {
        "correct": not runner.errors and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
