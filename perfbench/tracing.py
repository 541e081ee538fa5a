"""Span tracing of the wordmaps public functions, from outside the library.

`Tracer.install` wraps each traced name in its defining module and in every
loaded ``wordmaps`` module that imported it, so calls made through another
module's globals (``cli`` calling ``run``, ``kpda`` calling ``pop``) are
seen too.  Methods are wrapped on their class, under every attribute that
holds the same function (``Polynomial.__rmul__`` is ``__mul__``).

Each call records a span (name, start, end, parent span, job id).  Spans are
kept in memory, up to a cap, and written out by `write_spans`.  Self time is
computed as each span closes: its duration minus the durations of its direct
children, which covers exactly the time its child spans cover because calls
nest and the benchmark runs one thread.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter

# metric prefix -> (module, attribute path)
TRACED = {
    "cli.main": ("wordmaps.cli", "main"),
    "systemfile.parse_file": ("wordmaps.systemfile", "parse_file"),
    "pushdown.pop": ("wordmaps.pushdown", "pop"),
    "pushdown.push": ("wordmaps.pushdown", "push"),
    "pushdown.topsyms": ("wordmaps.pushdown", "topsyms"),
    "kpda.run": ("wordmaps.kpda", "run"),
    "kpda.step": ("wordmaps.kpda", "step"),
    "morphisms.compose": ("wordmaps.morphisms", "compose"),
    "morphisms.linear_eval": ("wordmaps.morphisms", "linear_eval"),
    "morphisms.eval_hdt0l": ("wordmaps.morphisms", "eval_hdt0l"),
    "lowering.series_to_polynomial_system": ("wordmaps.lowering", "series_to_polynomial_system"),
    "lowering.skolem_product_system": ("wordmaps.lowering", "skolem_product_system"),
    "lowering.unary_lowering": ("wordmaps.lowering", "unary_lowering"),
    "recurrences.eval_catenative": ("wordmaps.recurrences", "eval_catenative"),
    "recurrences.eval_compositional": ("wordmaps.recurrences", "eval_compositional"),
    "recurrences.eval_regular": ("wordmaps.recurrences", "eval_regular"),
    "recurrences.eval_polynomial_vector": ("wordmaps.recurrences", "eval_polynomial_vector"),
    "polynomials.mul": ("wordmaps.polynomials", "Polynomial.__mul__"),
    "polynomials.substitute": ("wordmaps.polynomials", "Polynomial.substitute"),
    "polynomials.evaluate_int": ("wordmaps.polynomials", "Polynomial.evaluate_int"),
    "polynomials.evaluate": ("wordmaps.polynomials", "Polynomial.evaluate"),
    "groebner.groebner": ("wordmaps.groebner", "groebner"),
    "groebner.normal_form": ("wordmaps.groebner", "normal_form"),
    "groebner.eliminate": ("wordmaps.groebner", "eliminate"),
    "groebner.ideal_intersect": ("wordmaps.groebner", "ideal_intersect"),
    "groebner.in_radical": ("wordmaps.groebner", "in_radical"),
    "groebner.Ideal.contains": ("wordmaps.groebner", "Ideal.contains"),
    "equivalence.vanishes_on_reachables": ("wordmaps.equivalence", "vanishes_on_reachables"),
    "equivalence.find_witness": ("wordmaps.equivalence", "find_witness"),
    "equivalence.reachable_points": ("wordmaps.equivalence", "reachable_points"),
    "equivalence.zariski_closure": ("wordmaps.equivalence", "zariski_closure"),
}

# (metric, unit); each metric reads the counters of the traced names in _sources
LAYER_METRICS = [
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("systemfile.parse_file.calls", "count"),
    ("systemfile.parse_file.self_s", "s"),
    ("pushdown.pop.calls", "count"),
    ("pushdown.push.calls", "count"),
    ("pushdown.topsyms.calls", "count"),
    ("pushdown.pop.self_s", "s"),
    ("pushdown.push.self_s", "s"),
    ("pushdown.topsyms.self_s", "s"),
    ("pushdown.store_len.max", "count"),
    ("kpda.run.calls", "count"),
    ("kpda.run.self_s", "s"),
    ("kpda.step.calls", "count"),
    ("kpda.step.self_s", "s"),
    ("kpda.run.us_per_step.n8", "us"),
    ("kpda.run.us_per_step.n10", "us"),
    ("kpda.run.us_per_step.n12", "us"),
    ("morphisms.compose.calls", "count"),
    ("morphisms.compose.self_s", "s"),
    ("morphisms.linear_eval.self_s", "s"),
    ("morphisms.eval_hdt0l.self_s", "s"),
    ("lowering.series_to_polynomial_system.self_s", "s"),
    ("lowering.skolem_product_system.self_s", "s"),
    ("lowering.unary_lowering.self_s", "s"),
    ("recurrences.eval_catenative.self_s", "s"),
    ("recurrences.eval_compositional.self_s", "s"),
    ("recurrences.eval_regular.self_s", "s"),
    ("recurrences.eval_polynomial_vector.calls", "count"),
    ("recurrences.eval_polynomial_vector.self_s", "s"),
    ("polynomials.mul.calls", "count"),
    ("polynomials.mul.self_s", "s"),
    ("polynomials.substitute.calls", "count"),
    ("polynomials.substitute.self_s", "s"),
    ("polynomials.evaluate_int.calls", "count"),
    ("polynomials.evaluate_int.self_s", "s"),
    ("polynomials.evaluate.calls", "count"),
    ("polynomials.evaluate.self_s", "s"),
    ("groebner.groebner.calls", "count"),
    ("groebner.groebner.self_s", "s"),
    ("groebner.groebner.basis_len.max", "count"),
    ("groebner.normal_form.calls", "count"),
    ("groebner.normal_form.self_s", "s"),
    ("groebner.eliminate.calls", "count"),
    ("groebner.ideal_intersect.calls", "count"),
    ("groebner.in_radical.calls", "count"),
    ("groebner.Ideal.contains.calls", "count"),
    ("equivalence.vanishes_on_reachables.calls", "count"),
    ("equivalence.vanishes_on_reachables.self_s", "s"),
    ("equivalence.chain.useful_ratio", "ratio"),
    ("equivalence.find_witness.calls", "count"),
    ("equivalence.find_witness.self_s", "s"),
    ("equivalence.find_witness.hit_ratio", "ratio"),
    ("equivalence.find_witness.witness_len.max", "count"),
    ("equivalence.reachable_points.self_s", "s"),
    ("equivalence.zariski_closure.self_s", "s"),
    ("equivalence.closure.certified_ratio", "ratio"),
]

# the traced name each derived metric needs
_DERIVED_SOURCE = {
    "pushdown.store_len.max": ("pushdown.pop", "pushdown.push"),
    "kpda.run.us_per_step.n8": ("kpda.run", "kpda.step"),
    "kpda.run.us_per_step.n10": ("kpda.run", "kpda.step"),
    "kpda.run.us_per_step.n12": ("kpda.run", "kpda.step"),
    "groebner.groebner.basis_len.max": ("groebner.groebner",),
    "equivalence.chain.useful_ratio": ("groebner.normal_form",),
    "equivalence.find_witness.hit_ratio": ("equivalence.find_witness",),
    "equivalence.find_witness.witness_len.max": ("equivalence.find_witness",),
    "equivalence.closure.certified_ratio": ("equivalence.vanishes_on_reachables", "equivalence.zariski_closure"),
}

SPAN_CAP = 200_000


def _sources(metric):
    if metric in _DERIVED_SOURCE:
        return _DERIVED_SOURCE[metric]
    return (metric.rsplit(".", 1)[0],)


class Tracer:
    def __init__(self):
        self.names: list[str] = list(TRACED)
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.absent: list[str] = []
        self.job = -1
        # the open spans, innermost last; see _wrap for the frame layout
        self._stack: list[list] = []
        self._next_id = 0
        self.spans = {k: array(t) for k, t in
                      (("id", "q"), ("name", "h"), ("start", "d"), ("end", "d"), ("parent", "q"), ("job", "q"))}
        self.dropped = 0
        # derived counters
        self.store_len_max = 0
        self.basis_len_max = 0
        self.nf_equivalence = [0, 0]  # [nonzero results, calls] from equivalence
        self.certified = [0, 0]  # [True results, calls] from zariski_closure
        self.witness = [0, 0, 0]  # [hits, calls, longest witness]
        self.pda_steps = {}  # input length -> [seconds, steps], pow2 machine only
        self._restore: list[tuple] = []

    # -- installation --------------------------------------------------------

    def install(self):
        modules = {n: m for n, m in sys.modules.items() if n == "wordmaps" or n.startswith("wordmaps.")}
        for k, name in enumerate(self.names):
            modname, attr = TRACED[name]
            owner = modules.get(modname)
            path = attr.split(".")
            for part in path[:-1]:
                owner = getattr(owner, part, None)
            original = getattr(owner, path[-1], None) if owner is not None else None
            if original is None:
                self.absent.append(name)
                continue
            if len(path) > 1:
                # a method: patch every class attribute bound to the function
                for a, v in list(vars(owner).items()):
                    if v is original:
                        self._patch(owner, a, original, self._wrap(k, original, None))
            else:
                for mname, mod in modules.items():
                    for a, v in list(vars(mod).items()):
                        if v is original:
                            self._patch(mod, a, original, self._wrap(k, original, mname))

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- recording -----------------------------------------------------------

    def _wrap(self, k, fn, caller):
        stack = self._stack
        observe = self._observer(self.names[k], caller)
        step = self.names.index("kpda.step")

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            # [span id, name index, start, child time, kpda.step calls at start]
            frame = [self._next_id, k, perf_counter(), 0.0, self.calls[step]]
            self._next_id += 1
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - frame[2]
                self.calls[k] += 1
                self.self_s[k] += duration - frame[3]
                if parent is not None:
                    parent[3] += duration
                self._record(frame, end, parent)
            if observe is not None:
                observe(args, result, frame, duration, parent)
            return result

        traced.__wrapped__ = fn
        return traced

    def _record(self, frame, end, parent):
        s = self.spans
        if len(s["id"]) >= SPAN_CAP:
            self.dropped += 1
            return
        s["id"].append(frame[0])
        s["name"].append(frame[1])
        s["start"].append(frame[2])
        s["end"].append(end)
        s["parent"].append(parent[0] if parent is not None else -1)
        s["job"].append(self.job)

    def _observer(self, name, caller):
        if name in ("pushdown.pop", "pushdown.push"):
            def observe(args, result, frame, duration, parent):
                if len(result) > self.store_len_max:
                    self.store_len_max = len(result)
            return observe
        if name == "groebner.groebner":
            def observe(args, result, frame, duration, parent):
                self.basis_len_max = max(self.basis_len_max, len(result))
            return observe
        if name == "groebner.normal_form" and caller == "wordmaps.equivalence":
            def observe(args, result, frame, duration, parent):
                self.nf_equivalence[0] += not result.is_zero()
                self.nf_equivalence[1] += 1
            return observe
        if name == "equivalence.vanishes_on_reachables":
            zariski = self.names.index("equivalence.zariski_closure")

            def observe(args, result, frame, duration, parent):
                if parent is not None and parent[1] == zariski:
                    self.certified[0] += bool(result)
                    self.certified[1] += 1
            return observe
        if name == "equivalence.find_witness":
            def observe(args, result, frame, duration, parent):
                self.witness[1] += 1
                if result is not None:
                    self.witness[0] += 1
                    self.witness[2] = max(self.witness[2], len(result))
            return observe
        if name == "kpda.run":
            step = self.names.index("kpda.step")

            def observe(args, result, frame, duration, parent):
                machine, w = args[0], args[1]
                if getattr(machine, "name", "") == "pow2":
                    slot = self.pda_steps.setdefault(len(w), [0.0, 0])
                    slot[0] += duration
                    slot[1] += self.calls[step] - frame[4]
            return observe
        return None

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict:
        ix = {n: k for k, n in enumerate(self.names)}
        out = {}
        for metric, unit in LAYER_METRICS:
            if any(src in self.absent for src in _sources(metric)):
                continue
            out[metric] = {"value": self._value(metric, ix), "unit": unit}
        return out

    def _value(self, metric, ix):
        if metric.endswith(".calls"):
            return self.calls[ix[metric[: -len(".calls")]]]
        if metric.endswith(".self_s"):
            return round(self.self_s[ix[metric[: -len(".self_s")]]], 6)
        if metric == "pushdown.store_len.max":
            return self.store_len_max
        if metric == "groebner.groebner.basis_len.max":
            return self.basis_len_max
        if metric.startswith("kpda.run.us_per_step.n"):
            seconds, steps = self.pda_steps.get(int(metric.rsplit("n", 1)[1]), (0.0, 0))
            return round(1e6 * seconds / steps, 4) if steps else 0.0
        if metric == "equivalence.chain.useful_ratio":
            return _ratio(*self.nf_equivalence)
        if metric == "equivalence.closure.certified_ratio":
            return _ratio(*self.certified)
        if metric == "equivalence.find_witness.hit_ratio":
            return _ratio(self.witness[0], self.witness[1])
        if metric == "equivalence.find_witness.witness_len.max":
            return self.witness[2]
        raise KeyError(metric)

    def write_spans(self, path):
        s = self.spans
        with open(path, "w") as fh:
            fh.write("span\tname\tstart_s\tend_s\tparent\tjob\n")
            for k in range(len(s["id"])):
                fh.write(f"{s['id'][k]}\t{self.names[s['name'][k]]}\t{s['start'][k]:.9f}\t"
                         f"{s['end'][k]:.9f}\t{s['parent'][k]}\t{s['job'][k]}\n")
        return len(s["id"])


def _ratio(num, den):
    return round(num / den, 6) if den else 0.0
