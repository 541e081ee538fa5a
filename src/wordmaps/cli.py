"""Command-line interface.

Subcommands: eval, equiv, lower, compose, run-pda, groebner.  Exit codes:
0 ok, 1 negative verdict (NotEqual, Stuck, fuel exhausted), 2 error.
Bundled example files are addressed by name (unambiguous prefixes work);
paths to real files take precedence.
"""

from __future__ import annotations

import argparse
import functools
import sys
from importlib import resources
from pathlib import Path

from .equivalence import Budget, FractionPresentation, NotEqual, _decide_quotients, _indexed
from .errors import FuelExhaustedError, WordmapsError
from .groebner import groebner
from .kpda import Accepted, Stuck, steps
from .lowering import (
    catenative_to_hdt0l,
    compose_level3,
    hdt0l_to_catenative,
    skolem_product_system,
    unary_lowering,
)
from .morphisms import LinearRepresentation, linear_eval, eval_hdt0l
from .polynomials import format_polynomial
from .recurrences import (
    eval_catenative,
    eval_compositional,
    eval_polynomial,
    eval_regular,
)
from .systemfile import SystemFile, format_declaration, parse_file
from .words import show_word, word


def _data_dir():
    return resources.files("wordmaps").joinpath("data")


def data_names():
    return sorted(p.name[:-4] for p in _data_dir().iterdir() if p.name.endswith(".sys"))


def load_file(spec: str) -> SystemFile:
    path = Path(spec)
    if path.exists():
        return parse_file(path.read_text(), filename=str(path))
    names = data_names()
    matches = [n for n in names if n == spec] or [n for n in names if n.startswith(spec)]
    if len(matches) != 1:
        raise WordmapsError(
            f"no file {spec!r}; bundled examples: {', '.join(names)}"
        )
    text = _data_dir().joinpath(matches[0] + ".sys").read_text()
    return parse_file(text, filename=matches[0])


def split_target(target: str):
    if "." in target:
        name, index = target.split(".", 1)
        return name, index
    return target, None


def resolve_sequence(sf: SystemFile, target: str, paper_literal=False):
    """A (kind, system, index) triple for an indexed sequence target."""
    name, index = split_target(target)
    kind, obj = sf.resolve(name, paper_literal=paper_literal)
    if kind in ("cat", "comp", "reg", "poly"):
        if index is None:
            index = name if name in obj.indices else obj.indices[0]
        if index not in obj.indices:
            raise WordmapsError(f"{name!r} has no index {index!r}")
        return kind, obj, index
    if index is not None:
        raise WordmapsError(f"{kind} target {name!r} takes no index")
    return kind, obj, None


def parse_argument_word(alphabet, arg: str):
    """An input word: either an integer n (unary alphabet) or letters.

    Letters win ties: an all-digit argument whose characters are all letters
    of the alphabet is read as a word.
    """
    if arg != "eps" and all(c in alphabet for c in arg):
        return tuple(arg)
    if arg.isdigit():
        if len(alphabet) != 1:
            raise WordmapsError(
                "an integer argument needs a unary input alphabet; give a word instead"
            )
        (letter,) = alphabet
        return (letter,) * int(arg)
    return word(arg)


def _print_integer(n: int) -> None:
    """Print an integer result; one longer than the interpreter's int-to-str
    digit limit is an error, not a traceback."""
    try:
        text = str(n)
    except ValueError:
        raise WordmapsError(
            f"the result has more than {sys.get_int_max_str_digits()} digits, the "
            "interpreter's int-to-str limit; set PYTHONINTMAXSTRDIGITS=0 to lift it"
        ) from None
    print(text)


def cmd_eval(args) -> int:
    sf = load_file(args.file)
    kind, obj, index = resolve_sequence(sf, args.target, paper_literal=args.paper_literal)
    if kind not in ("cat", "comp", "reg", "poly", "hdt0l", "linrep"):
        raise WordmapsError(f"cannot eval a {kind} target")
    w = parse_argument_word(obj.letters if kind == "linrep" else obj.input_alphabet, args.argument)
    if kind == "cat":
        value = eval_catenative(obj, index, w)
    elif kind == "comp":
        print(repr(eval_compositional(obj, index, w)))
        return 0
    elif kind == "reg":
        value = eval_regular(obj, index, w, fuel=args.fuel)
    elif kind == "poly":
        _print_integer(eval_polynomial(obj, index, w))
        return 0
    elif kind == "hdt0l":
        value = eval_hdt0l(obj, w)
    else:
        _print_integer(linear_eval(obj, w))
        return 0
    if args.as_length:
        print(len(value))
    else:
        print(show_word(value))
    return 0


def _budget(args) -> Budget:
    if args.budget is None:
        return Budget(order=args.order)
    return Budget.scaled(args.budget, order=args.order)


def _quotient(sf: SystemFile, target: str):
    """The (system, num, den) shape of an equiv target: an indexed poly
    sequence or a frac."""
    kind, obj, index = resolve_sequence(sf, target)
    if kind == "poly":
        return _indexed(obj, index)
    if kind != "frac":
        raise WordmapsError(f"cannot decide the equality of a {kind} target")
    _, system = sf.resolve(obj.system_name, "poly")
    return FractionPresentation(system, obj.num_plus, obj.num_minus, obj.den_plus, obj.den_minus)._shape()


def cmd_equiv(args) -> int:
    sf_a, sf_b = load_file(args.file_a), load_file(args.file_b)
    verdict = _decide_quotients(_quotient(sf_a, args.target_a), _quotient(sf_b, args.target_b), _budget(args))
    if isinstance(verdict, NotEqual):
        print(f"NotEqual {show_word(verdict.witness)}")
        return 1
    print("Equal")
    return 0


def cmd_lower(args) -> int:
    if args.what in ("series", "skolem") and args.linrep is None:
        wanted = "a second stage" if args.what == "series" else "a second target"
        raise WordmapsError(f"lower {args.what} needs {wanted}")
    sf = load_file(args.file)
    if args.what == "cat-to-hdt0l":
        _, sys, index = resolve_sequence(sf, args.target)
        out = format_declaration("hdt0l", f"{split_target(args.target)[0]}_hdt0l", catenative_to_hdt0l(sys, index))
    elif args.what == "hdt0l-to-cat":
        name, _ = split_target(args.target)
        _, sys = sf.resolve(name, "hdt0l")
        out = format_declaration("cat", f"{name}_cat", hdt0l_to_catenative(sys))
    elif args.what == "unary":
        name, _ = split_target(args.target)
        _, sys = sf.resolve(name, "hdt0l")
        out = format_declaration("linrep", f"{name}_rep", unary_lowering(sys))
    elif args.what == "series":
        lowered = level3_mapping(sf, args.target, args.linrep).lower()
        out = format_declaration("poly", f"{split_target(args.target)[0]}_poly", lowered.system)
        out += f"\n# output form: {format_polynomial(lowered.output_form)}"
    elif args.what == "skolem":
        _, sys_u, i_u = resolve_sequence(sf, args.target)
        sf_v = load_file(args.file_b) if args.file_b else sf
        _, sys_v, i_v = resolve_sequence(sf_v, args.linrep)
        sk = skolem_product_system(sys_u, i_u, sys_v, i_v)
        out = format_declaration("poly", "skolem_product", sk.system)
        out += f"\n# product index: {sk.product_index}"
    else:
        raise WordmapsError(f"unknown lowering {args.what!r}")
    if args.output:
        Path(args.output).write_text(out + "\n")
    else:
        print(out)
    return 0


def level3_mapping(sf: SystemFile, first_target: str, second_name: str):
    """The level-3 mapping of a cat target followed by an hdt0l or linrep."""
    kind1, first, index = resolve_sequence(sf, first_target)
    if kind1 != "cat":
        raise WordmapsError(f"the first stage must be a cat declaration, not {kind1}")
    kind2, second = sf.resolve(second_name)
    if kind2 not in ("hdt0l", "linrep"):
        raise WordmapsError("the second stage must be an hdt0l or linrep declaration")
    return compose_level3(first, index, second)


def cmd_compose(args) -> int:
    mapping = level3_mapping(load_file(args.file), args.first, args.second)
    w = parse_argument_word(mapping.first.input_alphabet, args.argument)
    if args.as_length or isinstance(mapping.second, LinearRepresentation):
        _print_integer(mapping.value(w))
    else:
        print(show_word(mapping.eval(w)))
    return 0


def cmd_run_pda(args) -> int:
    sf = load_file(args.file)
    _, machine = sf.resolve(args.machine, "pda")
    w = parse_argument_word(machine.input_alphabet, args.word)
    for outcome in steps(machine, w, fuel=args.fuel):
        if args.trace and isinstance(outcome, tuple):
            state, tops, state2, emitted = outcome
            print(f"{state} | tops {' '.join(tops)} -> {state2} | out {show_word(emitted)}")
    if isinstance(outcome, Accepted):
        print(f"Accepted {show_word(outcome.output)}")
        return 0
    if isinstance(outcome, Stuck):
        print(f"Stuck in state {outcome.configuration.state} after {show_word(outcome.configuration.emitted)}")
        return 1
    print("FuelExhausted")
    return 1


def cmd_groebner(args) -> int:
    sf = load_file(args.file)
    _, ideal = sf.resolve(args.ideal, "ideal")
    basis = groebner(ideal.generators, ideal.variables(), order=args.order)
    for g in basis:
        print(format_polynomial(g))
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--fuel", type=int, default=10**6, help="step budget for runs and rewriting")
    common.add_argument("--budget", type=int, default=None, help="resource budget for decisions")
    common.add_argument("--order", default="grevlex", choices=["grevlex", "lex"])
    common.add_argument("--paper-literal", action="store_true", help="prefer *_literal variants")

    p = argparse.ArgumentParser(prog="wordmaps", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("eval", parents=[common], help="evaluate a sequence target")
    pe.add_argument("file")
    pe.add_argument("target")
    pe.add_argument("argument")
    pe.add_argument("--as-length", action="store_true")
    pe.set_defaults(func=cmd_eval)

    pq = sub.add_parser("equiv", parents=[common], help="decide sequence equality")
    pq.add_argument("file_a")
    pq.add_argument("target_a")
    pq.add_argument("file_b")
    pq.add_argument("target_b")
    pq.set_defaults(func=cmd_equiv)

    pl = sub.add_parser("lower", parents=[common], help="convert representations")
    pl.add_argument("what", choices=["cat-to-hdt0l", "hdt0l-to-cat", "unary", "series", "skolem"])
    pl.add_argument("file")
    pl.add_argument("target")
    pl.add_argument("linrep", nargs="?", help="linrep name (series) or second target (skolem)")
    pl.add_argument("--file-b", default=None, help="file of the second skolem target")
    pl.add_argument("-o", "--output", default=None)
    pl.set_defaults(func=cmd_lower)

    pc = sub.add_parser("compose", parents=[common], help="evaluate a two-stage pipeline")
    pc.add_argument("file")
    pc.add_argument("first", help="catenative stage target")
    pc.add_argument("second", help="hdt0l or linrep second stage")
    pc.add_argument("argument")
    pc.add_argument("--as-length", action="store_true")
    pc.set_defaults(func=cmd_compose)

    pr = sub.add_parser("run-pda", parents=[common], help="run an iterated pushdown machine")
    pr.add_argument("file")
    pr.add_argument("machine")
    pr.add_argument("word")
    pr.add_argument("--trace", action="store_true")
    pr.set_defaults(func=cmd_run_pda)

    pg = sub.add_parser("groebner", parents=[common], help="print a reduced Groebner basis")
    pg.add_argument("file")
    pg.add_argument("ideal")
    pg.set_defaults(func=cmd_groebner)

    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built on its first call: parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except FuelExhaustedError as e:
        print(f"FuelExhausted: {e}", file=sys.stderr)
        return 1
    except WordmapsError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
