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

from .equivalence import Budget, FractionPresentation, _indexed, _witness
from .errors import FuelExhaustedError, WordmapsError
from .groebner import ORDERS, groebner
from .kpda import Accepted, Stuck, run, steps
from .lowering import (
    _length_representation,
    catenative_to_hdt0l,
    compose_level3,
    hdt0l_to_catenative,
    skolem_product_system,
    unary_lowering,
)
from .morphisms import LinearRepresentation, check_word, eval_hdt0l, linear_eval
from .polynomials import format_polynomial
from .recurrences import (
    eval_catenative,
    eval_compositional,
    eval_polynomial,
    eval_regular,
)
from .systemfile import SystemFile, format_declaration, parse_file, unique_match
from .words import show_word, word


def _data_dir():
    return resources.files("wordmaps").joinpath("data")


def data_names():
    return sorted(p.name[:-4] for p in _data_dir().iterdir() if p.name.endswith(".sys"))


def _file_error(verb: str, path: str, e: Exception) -> WordmapsError:
    """The error for a file that could not be read or written, naming its path."""
    why = e.strerror if isinstance(e, OSError) and e.strerror else e
    return WordmapsError(f"cannot {verb} {path!r}: {why}")


def load_file(spec: str) -> SystemFile:
    path = Path(spec)
    if path.exists():
        try:
            text = path.read_text()
        except (OSError, UnicodeDecodeError) as e:
            raise _file_error("read", spec, e) from e
        return parse_file(text, filename=str(path))
    names = data_names()
    name = unique_match(spec, names)
    if name is None:
        raise WordmapsError(f"no file {spec!r}; bundled examples: {', '.join(names)}")
    text = _data_dir().joinpath(name + ".sys").read_text()
    return parse_file(text, filename=name)


def resolve_sequence(
    sf: SystemFile, target: str, paper_literal=False, kinds=None, refusal="{name!r} is a {kind}, expected {kinds}"
):
    """The (kind, object, index) of a command-line target NAME or NAME.INDEX.
    A bare NAME of an indexed kind takes the index of the same name, else the
    first; other kinds take none.  A kind outside ``kinds``, the kinds the
    calling command takes, is refused in the ``refusal`` sentence."""
    name, dot, index = target.partition(".")
    found = sf.lookup(name, paper_literal)
    kind, obj = sf.declarations[found]
    if kind in ("cat", "comp", "reg", "poly"):
        if not dot:
            index = name if name in obj.indices else obj.indices[0]
        if index not in obj.indices:
            raise WordmapsError(f"{name!r} has no index {index!r}")
    elif dot:
        raise WordmapsError(f"{kind} target {name!r} takes no index")
    if kinds is not None and kind not in kinds:
        raise WordmapsError(refusal.format(name=found, kind=kind, kinds=" or ".join(kinds)))
    return kind, obj, index or None


def parse_argument_word(alphabet, arg: str):
    """An input word: either an integer n (unary alphabet) or letters.

    Letters win ties: an all-digit argument whose characters are all letters
    of the alphabet is read as a word.  A lone letter of several characters
    is that letter (``words.word`` over the alphabet).
    """
    if arg != "eps" and all(c in alphabet for c in arg):
        return tuple(arg)
    if arg.isdecimal():
        if len(alphabet) != 1:
            raise WordmapsError(
                "an integer argument needs a unary input alphabet; give a word instead"
            )
        (letter,) = alphabet
        digits = arg.lstrip("".join({c for c in arg if int(c) == 0})) or "0"  # zeros of any script
        if len(digits) > 18:  # 10^18 letters fit no memory; past 2^63 no index either
            raise WordmapsError(f"an integer argument of {len(digits)} digits is too large for a word")
        try:
            return (letter,) * int(digits)
        except MemoryError:
            raise WordmapsError(f"a word of {int(digits)} letters does not fit in memory") from None
    return word(arg, alphabet)


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
    kinds = ("cat", "comp", "reg", "poly", "hdt0l", "linrep")
    kind, obj, index = resolve_sequence(sf, args.target, args.paper_literal, kinds, "cannot eval a {kind} target")
    w = parse_argument_word(obj.letters if kind == "linrep" else obj.input_alphabet, args.argument)
    if args.as_length and kind in ("cat", "hdt0l"):
        # the length representation reads the length off without the word
        check_word(obj, w)
        hdt0l = obj if kind == "hdt0l" else catenative_to_hdt0l(obj, index)
        value = linear_eval(_length_representation(hdt0l), w)
    elif kind == "cat":
        value = eval_catenative(obj, index, w)
    elif kind == "comp":
        value = eval_compositional(obj, index, w)
    elif kind == "reg":
        value = eval_regular(obj, index, w, fuel=args.fuel)
    elif kind == "poly":
        value = eval_polynomial(obj, index, w)
    elif kind == "hdt0l":
        value = eval_hdt0l(obj, w)
    else:
        value = linear_eval(obj, w)
    if isinstance(value, int):
        _print_integer(value)
    elif isinstance(value, tuple):
        print(len(value) if args.as_length else show_word(value))
    else:
        print(repr(value))
    return 0


def _budget(args) -> Budget:
    return Budget() if args.budget is None else Budget(chain_additions=args.budget, max_basis=10 * args.budget)


def _quotient(sf: SystemFile, target: str, paper_literal: bool):
    """The (system, num, den) shape of an equiv target: an indexed poly
    sequence or a frac."""
    refusal = "cannot decide the equality of a {kind} target"
    kind, obj, index = resolve_sequence(sf, target, paper_literal, ("poly", "frac"), refusal)
    if kind == "poly":
        return _indexed(obj, index)
    _, system = sf.declarations[obj.system_name]  # parse_file checked its poly and indices
    return FractionPresentation(system, obj.num_plus, obj.num_minus, obj.den_plus, obj.den_minus)._shape()


def cmd_equiv(args) -> int:
    sf_a = load_file(args.file_a)
    sf_b = sf_a if args.file_b == args.file_a else load_file(args.file_b)
    p, q = _quotient(sf_a, args.target_a, args.paper_literal), _quotient(sf_b, args.target_b, args.paper_literal)
    witness = _witness(p, q, _budget(args))
    if witness is not None:
        print(f"NotEqual {show_word(witness)}")
        return 1
    print("Equal")
    return 0


# lower WHAT for a plain conversion: (the kind it takes, the kind it emits, the
# emitted block's name suffix, the conversion of the target's object and index)
CONVERSIONS = {
    "cat-to-hdt0l": ("cat", "hdt0l", "_hdt0l", catenative_to_hdt0l),
    "hdt0l-to-cat": ("hdt0l", "cat", "_cat", lambda obj, _: hdt0l_to_catenative(obj)),
    "unary": ("hdt0l", "linrep", "_rep", lambda obj, _: unary_lowering(obj)),
}


def cmd_lower(args) -> int:
    if args.what in ("series", "skolem") and args.linrep is None:
        wanted = "a second stage" if args.what == "series" else "a second target"
        raise WordmapsError(f"lower {args.what} needs {wanted}")
    sf = load_file(args.file)
    name = args.target.partition(".")[0]
    if args.what in CONVERSIONS:
        takes, emits, suffix, convert = CONVERSIONS[args.what]
        _, obj, index = resolve_sequence(sf, args.target, args.paper_literal, (takes,))
        out = format_declaration(emits, name + suffix, convert(obj, index))
    elif args.what == "series":
        lowered = level3_mapping(sf, args.target, args.linrep, args.paper_literal).lower()
        out = format_declaration("poly", f"{name}_poly", lowered.system)
        out += f"\n# output form: {format_polynomial(lowered.output_form)}"
    else:
        _, sys_u, i_u = resolve_sequence(sf, args.target, args.paper_literal, ("poly",))
        sf_v = load_file(args.file_b) if args.file_b else sf
        _, sys_v, i_v = resolve_sequence(sf_v, args.linrep, args.paper_literal, ("poly",))
        sk = skolem_product_system(sys_u, i_u, sys_v, i_v)
        out = format_declaration("poly", "skolem_product", sk.system)
        out += f"\n# product index: {sk.product_index}"
    if args.output:
        try:
            Path(args.output).write_text(out + "\n")
        except OSError as e:
            raise _file_error("write", args.output, e) from e
    else:
        print(out)
    return 0


def level3_mapping(sf: SystemFile, first_target: str, second_target: str, paper_literal: bool):
    """The level-3 mapping of a cat target followed by an hdt0l or linrep."""
    _, first, index = resolve_sequence(
        sf, first_target, paper_literal, ("cat",), "the first stage must be a cat declaration, not {kind}"
    )
    _, second, _ = resolve_sequence(
        sf, second_target, paper_literal, ("hdt0l", "linrep"), "the second stage must be an hdt0l or linrep declaration"
    )
    return compose_level3(first, index, second)


def cmd_compose(args) -> int:
    mapping = level3_mapping(load_file(args.file), args.first, args.second, args.paper_literal)
    w = parse_argument_word(mapping.first.input_alphabet, args.argument)
    if args.as_length or isinstance(mapping.second, LinearRepresentation):
        _print_integer(mapping.value(w))
    else:
        print(show_word(mapping.eval(w)))
    return 0


def cmd_run_pda(args) -> int:
    sf = load_file(args.file)
    _, machine, _ = resolve_sequence(sf, args.machine, args.paper_literal, ("pda",))
    w = parse_argument_word(machine.input_alphabet, args.word)
    if args.trace:
        for outcome in steps(machine, w, fuel=args.fuel):
            if isinstance(outcome, tuple):
                state, tops, state2, emitted = outcome
                print(f"{state} | tops {' '.join(tops)} -> {state2} | out {show_word(emitted)}")
    else:
        outcome = run(machine, w, fuel=args.fuel)
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
    _, ideal, _ = resolve_sequence(sf, args.ideal, args.paper_literal, ("ideal",))
    basis = groebner(ideal.generators, ideal.variables(), order=args.order)
    for g in basis:
        print(format_polynomial(g))
    return 0


def _count(text: str) -> int:
    """A --fuel or --budget value: an int >= 0, or argparse's usage error (exit 2)."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, not {n}")
    return n


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--fuel", type=_count, default=10**6, help="step budget for runs and rewriting (>= 0)")
    common.add_argument("--budget", type=_count, default=None, help="resource budget for decisions (>= 0)")
    common.add_argument("--order", default="grevlex", choices=ORDERS)
    common.add_argument("--paper-literal", action="store_true", help="prefer *_literal variants of every target")

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
    except MemoryError:
        print("error: the result does not fit in memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
