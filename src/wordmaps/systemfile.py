"""Parsing and printing of system-definition (``.sys``) files.

A file is a sequence of named blocks ``kind name { ... }``, in the format
that README.md's File format section sets out.  ``_blocks`` reads the lines
in one loop, in which a block is open or not; a statement is a line, or a
part of one split at a ``;`` where the braces before it balance.  A statement
``key: text`` is a directive; every other one must match its kind's pattern.

``_KINDS`` describes each kind once, for both ``parse_file`` and
``format_declaration``: its builder, and its entries in print order.  A
``_Directive`` holds a key (a ``{}`` in it numbers the directive), a spelling
(a reader of the text and a printer of one value), where the object holds
the value, and whether it is required, optional or repeatable.  A
``_Statements`` holds the pattern of the kind's other statements and their
printer.  A builder reads the statements, then the directives through
``_Block.read``, so a bad statement is reported before a bad directive.  A
given optional directive must agree with the object built (a ``linrep``'s
``dim:``), and a check of the whole object fails at the block header.
"""

from __future__ import annotations

import math
import re
from operator import attrgetter, methodcaller
from typing import Optional

from .errors import DomainError, ParseError, Record
from .groebner import Ideal
from .kpda import KPda, Pop, Push
from .morphisms import HDT0LSystem, Homomorphism, LinearRepresentation
from .polynomials import check_variable_names, format_polynomial, parse_polynomial
from .pushdown import GradedAlphabet
from .recurrences import (
    CatenativeSystem,
    CompositionalSystem,
    DfaClassifier,
    PolynomialSystem,
    RegularSystem,
)
from .words import SYMBOL, spell_word, word


class FractionSpec(Record):
    """A fraction presentation referring to a polynomial system by name."""

    system_name: str
    num_plus: str
    num_minus: str
    den_plus: str
    den_minus: str


def unique_match(name: str, names) -> Optional[str]:
    """``name`` if it is one of ``names``, else the one of ``names`` it
    prefixes; None when it prefixes none or several."""
    matches = [name] if name in names else [n for n in names if n.startswith(name)]
    return matches[0] if len(matches) == 1 else None


class SystemFile(Record):
    declarations: dict  # name -> (kind, object), in file order
    filename: Optional[str] = None

    def add(self, kind: str, name: str, obj, line=None):
        if name in self.declarations:
            raise ParseError(f"duplicate declaration {name!r}", line=line, filename=self.filename)
        self.declarations[name] = (kind, obj)

    def lookup(self, name: str, paper_literal: bool = False) -> str:
        """The declared name ``name`` denotes: its ``_literal`` variant under
        ``paper_literal`` when there is one, else its ``unique_match``."""
        if paper_literal and f"{name}_literal" in self.declarations:
            return f"{name}_literal"
        found = unique_match(name, self.declarations)
        if found is None:
            raise DomainError(f"no declaration named {name!r}")
        return found

    def resolve(self, name: str, kind: Optional[str] = None, paper_literal: bool = False):
        lookup = self.lookup(name, paper_literal)
        got_kind, obj = self.declarations[lookup]
        if kind is not None and got_kind != kind:
            raise DomainError(f"{lookup!r} is a {got_kind}, expected {kind}")
        return got_kind, obj


def _split_statements(line: str):
    """Split on ';' outside of '{...}' (inline homomorphism bodies): a part
    joins the one before it while that one's braces do not balance."""
    if ";" not in line:
        line = line.strip()
        return [line] if line else []
    parts = line.split(";")
    i = 1
    while i < len(parts):
        if parts[i - 1].count("{") != parts[i - 1].count("}"):
            parts[i - 1] += ";" + parts.pop(i)
        else:
            i += 1
    return [p.strip() for p in parts if p.strip()]


_HEADER_RE = re.compile(r"(\w+)\s+(\w+)\s*:?\s*\{\s*(.*)")


def _blocks(text: str, filename):
    """Yield (kind, name, [(lineno, statement), ...], header_lineno).

    A header line opens a block; a one-line block ``kind name { ... }`` is
    also its own last line, and a line that is only ``}`` closes the others.
    """
    header = None
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.partition("#")[0].strip()
        if header is None:
            if not line:
                continue
            m = _HEADER_RE.fullmatch(line)
            if not m:
                raise ParseError(f"expected a block header 'kind name {{', got {line!r}", lineno, filename=filename)
            kind, name, line = m.groups()
            header, body = lineno, []
            closed = line.endswith("}") and line.count("}") > line.count("{")
            if line and not closed:
                raise ParseError("a block header must end its line with '{'", lineno, filename=filename)
        else:
            closed = line == "}"
        body += [(lineno, part) for part in _split_statements(line[:-1] if closed else line)]
        if closed:
            yield kind, name, body, header
            header = None
    if header is not None:
        raise ParseError(f"block {name!r} is missing its closing '}}'", header, filename=filename)


# ---------------------------------------------------------------------------
# the description of a kind


_DIRECTIVE_RE = re.compile(r"^(\w+(?:\s+\w+)?)\s*:\s*(.*)$")
_REQUIRED, _OPTIONAL, _REPEATABLE = "required", "optional", "repeatable"


class _Directive:
    """A directive ``key: text``: ``spelling`` is (reader of the text, printer
    of one value), ``value`` an attribute path or a function of the object.
    An optional directive prints when its value is not empty; a repeatable
    one prints once per item.  A ``{}`` in ``key`` numbers the directive 1,
    2, ...: up to the value of the directive ``count``, or as many as given.
    """

    def __init__(self, key: str, spelling: tuple, value, mode: str = _REQUIRED, count: Optional[_Directive] = None):
        self.key, self.spelling, self.mode, self.count = key, spelling, mode, count
        self.value = attrgetter(value) if isinstance(value, str) else value

    def lines(self, obj) -> list:
        value, show = self.value(obj), self.spelling[1]
        if "{}" in self.key:
            return [f"{self.key.format(i)}: {show(v)}" for i, v in enumerate(value, 1)]
        items = value if self.mode == _REPEATABLE else [value] if self.mode == _REQUIRED or value else []
        return [f"{self.key}: {show(v)}" for v in items]


class _Statements:
    """A kind's statements that are not directives: ``pattern``, the regular
    expression each must match, which ``re`` compiles when a block of the
    kind is first read, and ``lines``, the printer of the object's statements."""

    def __init__(self, pattern: str, lines):
        self.pattern, self.lines = pattern, lines


class _Block:
    """One block body, split once into directives, kept by key with their
    line numbers, and statements, each matched by its kind's pattern."""

    def __init__(self, kind, name, body, header, filename):
        self.kind, self.name, self.header, self.filename = kind, name, header, filename
        statements, self.kind_directives = _READ[kind]
        pattern = re.compile(statements.pattern) if statements else None
        self.directives = {}  # key -> [(lineno, text), ...]
        self.statements = []  # [(lineno, match), ...]
        self.given = ()  # (lineno, directive, value) of each optional directive read
        for lineno, stmt in body:
            d = _DIRECTIVE_RE.match(stmt)
            if d:
                key = " ".join(d.group(1).split())
                self.directives.setdefault(key, []).append((lineno, d.group(2).strip()))
                continue
            m = pattern.match(stmt) if pattern else None
            if not m:
                raise self.error(f"cannot parse statement {stmt!r}", lineno)
            self.statements.append((lineno, m))

    def error(self, message, line=None) -> ParseError:
        return ParseError(message, line=line or self.header, filename=self.filename)

    def convert(self, lineno, what, fn, text):
        """``fn(text)``, with a ParseError it raises placed at ``lineno``."""
        try:
            return fn(text)
        except ParseError as e:
            raise self.error(f"{what}: {e}", lineno) from None

    def read(self) -> list:
        """The kind's directive values in print order: (lineno, value) pairs
        of a repeatable one, the values of a numbered one, None for a missing
        optional one.  Then the first unknown directive is an error."""
        values = []
        for d in self.kind_directives:
            if d.mode == _REPEATABLE:
                values.append([(n, self.convert(n, d.key, d.spelling[0], text))
                               for n, text in self.directives.pop(d.key, ())])
            elif "{}" in d.key:
                prefix = d.key.format("")
                count = values[self.kind_directives.index(d.count)] if d.count else sum(
                    k.startswith(prefix) and k[len(prefix):].isdecimal() for k in self.directives)
                values.append([self._one(d, d.key.format(i)) for i in range(1, count + 1)])
            else:
                values.append(self._one(d, d.key))
        if self.directives:
            lineno, key = min((entries[0][0], key) for key, entries in self.directives.items())
            raise self.error(f"unknown directive {key!r}", lineno)
        return values

    def _one(self, d, key):
        entries = self.directives.pop(key, None)
        if entries is None:
            if d.mode == _REQUIRED:
                raise self.error(f"{self.kind} {self.name} needs '{key}:'")
            return None
        if len(entries) > 1:
            raise self.error(f"repeated directive '{key}:'", entries[1][0])
        lineno, text = entries[0]
        value = self.convert(lineno, key, d.spelling[0], text)
        if d.mode == _OPTIONAL:
            self.given += ((lineno, d, value),)
        return value

    def build(self, builder):
        """The object ``builder`` makes of the block, refused when it lacks the
        value of a given optional directive."""
        obj = builder(self)
        for lineno, d, value in self.given:
            if d.value(obj) != value:
                raise self.error(f"declared {d.key} {d.spelling[1](value)} does not match the data", lineno)
        return obj


# ---------------------------------------------------------------------------
# spellings of directive values: (reader of the text, printer of one value)


def _int(text):
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"expected an integer, got {text.strip()!r}") from None


def _ints(text):
    return tuple(_int(tok) for tok in text.split())


def _level(text):
    level = _int(text)
    if level < 1:
        raise ParseError(f"must be at least 1, got {level}")
    return level


_LETTER_RE = re.compile(SYMBOL)


def _identifiers(text):
    """The whitespace-separated tokens of a letter list, each an identifier."""
    tokens = tuple(text.split())
    for tok in tokens:
        if not _LETTER_RE.fullmatch(tok):
            raise ParseError(f"{tok!r} is not a letter")
    return tokens


def _ring(text):
    if text not in ("N", "Z"):
        raise ParseError(f"expected N or Z, got {text!r}")
    return text


def _joined(values) -> str:
    return " ".join(map(str, values))


def _integral(g) -> str:
    """A generator scaled to integer coefficients, which the parser reads."""
    return format_polynomial(g * math.lcm(*(c.denominator for c in g.terms.values())))


_TEXT = (str, str)
_INTS = (_ints, _joined)
_LETTERS = (lambda text: frozenset(_identifiers(text)), lambda letters: " ".join(sorted(letters)))
_SEQUENCE = (_identifiers, _joined)  # letters in their order

# ---------------------------------------------------------------------------
# statement forms, each a pattern and a printer


_RULE = (rf"^(?P<name>{SYMBOL})\s*\(\s*(?:eps|(?P<letter>{SYMBOL})\s+w)?\s*\)\s*"
         rf"(?:@(?P<cls>{SYMBOL})\s*)?=\s*(?P<rhs>.*)$")


def _rules(blk, annotated=False):
    """``bases`` {index: (lineno, rhs)} of a block's ``f(eps) = rhs`` rules and
    ``rules`` {(index, letter, class): (lineno, rhs)} of its ``f(a w) @class =
    rhs`` ones; only an ``annotated`` kind takes a class."""
    bases, rules = {}, {}
    for lineno, m in blk.statements:
        name, a, cls, rhs = m["name"], m["letter"], m["cls"], m["rhs"].strip()
        if cls is not None and not annotated:
            raise blk.error(f"{blk.kind} rules take no @class", lineno)
        if a is None:
            if cls is not None:
                raise blk.error("base cases take no @class", lineno)
            if name in bases:
                raise blk.error(f"two base cases for {name!r}", lineno)
            bases[name] = (lineno, rhs)
        elif (name, a, cls) in rules:
            raise blk.error(f"duplicate rule for {name}({a} w)" + (f" @{cls}" if cls else ""), lineno)
        else:
            rules[(name, a, cls)] = (lineno, rhs)
    return bases, rules


def _rule_statements(base, rhs=lambda r: _terms((j, ()) for j in r)) -> _Statements:
    """The rules of a recurrence system: ``i(eps) = ...``, its base values
    shown by ``base(obj, value)``, and ``i(a w)[ @class] = ...``, its
    right-hand sides shown by ``rhs`` (by default index products)."""
    return _Statements(_RULE, lambda obj: [f"{i}(eps) = {base(obj, v)}" for i, v in obj.base] + [
        f"{i}({a} w){''.join(' @' + d for d in cls)} = {rhs(r)}" for (i, a, *cls), r in obj.rules])


def _output_word(obj, w) -> str:
    return spell_word(w, obj.output_alphabet)


_TERM_RE = re.compile(rf"\s*({SYMBOL})\s*\(\s*([^)]*?)\s*\)")
_RHS_RE = re.compile(f"(?:{_TERM_RE.pattern})+")


def _rhs_terms(blk, lineno, rhs):
    """Parse `f(w) g(a w)`-style right-hand sides into (name, shift) pairs."""
    if rhs in ("eps", ""):
        return ()
    if not _RHS_RE.fullmatch(rhs):
        raise blk.error(f"cannot parse right-hand side {rhs!r}", lineno)
    out = []
    for name, arg in _TERM_RE.findall(rhs):
        tokens = arg.split()
        if tokens[-1:] != ["w"]:
            raise blk.error(f"rule argument {arg!r} must end in 'w'", lineno)
        out.append((name, tuple(tokens[:-1])))
    return tuple(out)


def _index_rules(blk, rules):
    """{(index, letter): (index, ...)} from rules without shift letters."""
    out = {}
    for (i, a, _), (lineno, rhs) in rules.items():
        terms = _rhs_terms(blk, lineno, rhs)
        if any(shift for _, shift in terms):
            raise blk.error(f"{blk.kind} rules take no shift letters", lineno)
        out[(i, a)] = tuple(j for j, _ in terms)
    return out


def _terms(rhs) -> str:
    return " ".join(f"{j}({' '.join(u) + ' ' if u else ''}w)" for j, u in rhs) or "eps"


_IMAGE_RE = re.compile(r"^\s*(?P<letter>\S+?)\s*->(?P<image>.*)$")


def _images(blk, rules):
    """{letter: image text} from ``x -> w`` rules given as (lineno, text) pairs."""
    images = {}
    for lineno, rule in rules:
        m = _IMAGE_RE.match(rule)
        if not m:
            raise blk.error(f"bad homomorphism rule {rule.strip()!r}", lineno)
        if m["letter"] in images:
            raise blk.error(f"two images for letter {m['letter']!r}", lineno)
        images[m["letter"]] = m["image"]
    return images


def _inline_images(blk, lineno, text):
    """The images of an inline homomorphism ``{ x -> x y ; y -> eps }``."""
    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise blk.error("expected a homomorphism body '{ ... }'", lineno)
    return _images(blk, [(lineno, part) for part in text[1:-1].split(";") if part.strip()])


def _working_hom(images, working, target) -> Homomorphism:
    """The homomorphism on ``working`` with these images, each read as a word
    over ``target``; unlisted letters map to themselves."""
    images = {a: word(text, target) for a, text in images.items()} | {v: (v,) for v in working - images.keys()}
    return Homomorphism(images, source=working, target=target)


def _image_lines(h, alphabet) -> list:
    """The ``x -> w`` rules of ``h``, each image spelled to read back over ``alphabet``."""
    return [f"{a} -> {spell_word(w, alphabet)}" for a, w in sorted(h.images.items())]


def _hom_body(h, alphabet) -> str:
    return "{ " + "; ".join(_image_lines(h, alphabet)) + " }"


_TABLE = rf"^(?:table\s+(?P<letter>{SYMBOL})|final)\s*=\s*(?P<hom>.*)$"
_MAT = rf"^mat\s+(?P<letter>{SYMBOL})\s*=\s*\[(?P<rows>.*)\]\s*$"
# a read letter in quotes is that terminal, so that the terminal eps is no eps move
_TRANSITION = (
    rf"^(?P<q>{SYMBOL})\s*,\s*(?P<read>{SYMBOL}|\"{SYMBOL}\")\s*,\s*(?P<tops>{SYMBOL}(?: +{SYMBOL})*)\s*->\s*"
    rf"(?P<q2>{SYMBOL})\s*,\s*(?:pop_(?P<pop>\d+)|push_(?P<push>\d+)\s*\((?P<syms>[^)]*)\))\s*$"
)
_SHOWN_READ = {"": "eps", "eps": '"eps"'}


def _transition_lines(pda) -> list:
    return [f"{q} , {_SHOWN_READ.get(read, read)} , {' '.join(tops)} -> {q2} , {op}"
            for (q, read, tops), moves in pda.delta for q2, op in sorted(moves, key=str)]


# ---------------------------------------------------------------------------
# builders: each reads its statements, then its directives by ``blk.read()``


def _alphabet(blk) -> frozenset:
    bare = [blk.convert(lineno, "letters", _identifiers, m.string) for lineno, m in blk.statements]
    (listed,) = blk.read()
    return frozenset().union(*(letters for _, letters in listed), *bare)


def _hom(blk) -> Homomorphism:
    images = _images(blk, [(lineno, m.string) for lineno, m in blk.statements])
    blk.read()
    return Homomorphism({a: word(text, images) for a, text in images.items()})


def _cat(blk) -> CatenativeSystem:
    bases, rules = _rules(blk)
    index_rules = _index_rules(blk, rules)
    inp, out = blk.read()
    base = {i: word(rhs, out) for i, (_, rhs) in bases.items()}
    return CatenativeSystem.make(tuple(sorted(bases)), inp, out, index_rules, base)


def _comp(blk) -> CompositionalSystem:
    bases, rules = _rules(blk)
    images = {i: _inline_images(blk, lineno, rhs) for i, (lineno, rhs) in bases.items()}
    index_rules = _index_rules(blk, rules)
    inp, working = blk.read()
    base = {i: _working_hom(im, working, working) for i, im in images.items()}
    return CompositionalSystem.make(tuple(sorted(bases)), inp, working, index_rules, base)


def _reg(blk) -> RegularSystem:
    bases, rules = _rules(blk, annotated=True)
    terms = {key: _rhs_terms(blk, lineno, rhs) for key, (lineno, rhs) in rules.items()}
    inp, out, classes, start, step_lines = blk.read()
    steps = {}
    for lineno, text in step_lines:
        m = re.fullmatch(rf"({SYMBOL})\s+({SYMBOL})\s*->\s*({SYMBOL})", text)
        if not m:
            raise blk.error(f"classifier step must be 'STATE LETTER -> STATE', got {text!r}", lineno)
        if (m[1], m[2]) in steps:
            raise blk.error(f"two steps for state {m[1]!r} on letter {m[2]!r}", lineno)
        steps[(m[1], m[2])] = m[3]
    classifier = DfaClassifier.make(classes, start, steps)
    reg_rules = {}
    for (i, a, cls), rhs in terms.items():
        if cls is not None and cls not in classifier.states:
            raise blk.error(f"unknown class {cls!r}", rules[(i, a, cls)][0])
        # an unannotated rule applies to every class
        for d in classifier.states if cls is None else [cls]:
            reg_rules[(i, a, d)] = rhs
    base = {i: word(rhs, out) for i, (_, rhs) in bases.items()}
    return RegularSystem.make(tuple(sorted(bases)), inp, out, classifier, reg_rules, base)


def _poly(blk) -> PolynomialSystem:
    bases, rules = _rules(blk)
    indices = tuple(sorted(bases))
    steps = {(i, a): blk.convert(lineno, f"in rule {i}({a} w)", lambda t: parse_polynomial(t, indices), rhs)
             for (i, a, _), (lineno, rhs) in rules.items()}
    # no variables and no division, so each base value is an int
    base = {i: blk.convert(lineno, f"in base {i}(eps)", lambda t: parse_polynomial(t, ()), rhs).constant_value()
            for i, (lineno, rhs) in bases.items()}
    inp, ring = blk.read()
    return PolynomialSystem.make(indices, inp, steps, base, ring=ring or "N")


def _hdt0l(blk) -> HDT0LSystem:
    tables, final = {}, None
    for lineno, m in blk.statements:
        images = _inline_images(blk, lineno, m["hom"])
        if m["letter"] is None:
            if final is not None:
                raise blk.error("repeated 'final ='", lineno)
            final = images
        elif m["letter"] in tables:
            raise blk.error(f"two tables for letter {m['letter']!r}", lineno)
        else:
            tables[m["letter"]] = images
    inp, working, out, seed = blk.read()
    if final is None:
        raise blk.error(f"hdt0l {blk.name} needs 'final ='")
    homs = {a: _working_hom(images, working, working) for a, images in tables.items()}
    return HDT0LSystem.make(inp, working, homs, _working_hom(final, working, out), seed)


def _linrep(blk) -> LinearRepresentation:
    mats = {}
    for lineno, m in blk.statements:
        a = m["letter"]
        if a in mats:
            raise blk.error(f"two matrices for letter {a!r}", lineno)
        mats[a] = tuple(blk.convert(lineno, f"mat {a}", _ints, r) for r in m["rows"].split("/"))
    if not mats:
        raise blk.error(f"linrep {blk.name} needs at least one 'mat'")
    *_, row, col = blk.read()  # the declared letters and dim are checked against the result
    return LinearRepresentation.make(row, mats, col)


def _pda(blk) -> KPda:
    delta: dict = {}
    for lineno, m in blk.statements:
        if m["pop"]:
            op = Pop(int(m["pop"]))
        else:
            syms = tuple(m["syms"].replace(",", " ").split())
            if not syms:
                raise blk.error("push needs at least one symbol", lineno)
            op = Push(int(m["push"]), syms)
        read = "" if m["read"] == "eps" else m["read"].strip('"')
        delta.setdefault((m["q"], read, tuple(m["tops"].split())), set()).add((m["q2"], op))
    level, states, terminals, inp, gamma, start, bottoms = blk.read()
    return KPda.make(level, states, terminals, GradedAlphabet.of(*gamma), delta, start,
                     input_alphabet=inp or (), bottom_symbols=bottoms or (), name=blk.name)


def _ideal(blk):
    variables, gens = blk.read()
    check_variable_names(variables, "variable")
    return Ideal([blk.convert(lineno, "gen", lambda t: parse_polynomial(t, variables), text)
                  for lineno, text in gens], variables)


# ---------------------------------------------------------------------------
# the kinds


_INPUT = _Directive("input", _LETTERS, "input_alphabet")
_OUTPUT = _Directive("output", _LETTERS, "output_alphabet")
_WORKING = _Directive("working", _LETTERS, "working")
_LEVEL = _Directive("level", (_level, str), "level")

# kind -> (builder, its directives and statements in print order)
_KINDS = {
    "alphabet": (_alphabet, (_Directive("letters", _LETTERS, lambda a: [a], _REPEATABLE),
                             _Statements(".+", lambda a: []))),
    "graded": (lambda blk: GradedAlphabet.of(*blk.read()[0]), (_Directive("{}", _LETTERS, "levels"),)),
    "hom": (_hom, (_Statements(_IMAGE_RE.pattern, lambda h: _image_lines(h, h.source)),)),
    "cat": (_cat, (_INPUT, _OUTPUT, _rule_statements(_output_word))),
    "comp": (_comp, (_INPUT, _WORKING, _rule_statements(lambda o, h: _hom_body(h, o.working)))),
    "reg": (_reg, (_INPUT, _OUTPUT, _Directive("classes", _LETTERS, "classifier.states"),
                   _Directive("start", _TEXT, "classifier.start"),
                   _Directive("step", (str, lambda t: f"{t[0][0]} {t[0][1]} -> {t[1]}"), "classifier.transitions",
                              _REPEATABLE),  # read by _reg
                   _rule_statements(_output_word, _terms))),
    "poly": (_poly, (_INPUT, _Directive("ring", (_ring, str), "ring", _OPTIONAL),
                     _rule_statements(lambda o, n: str(n), format_polynomial))),
    "hdt0l": (_hdt0l, (_INPUT, _WORKING, _OUTPUT, _Directive("seed", _TEXT, "seed"), _Statements(
        _TABLE, lambda o: [*(f"table {a} = {_hom_body(h, o.working)}" for a, h in o.tables),
                           f"final = {_hom_body(o.final, o.output_alphabet)}"]))),
    "linrep": (_linrep, (_Directive("letters", _LETTERS, "letters", _OPTIONAL),
                         _Directive("dim", (_int, str), "dimension", _OPTIONAL), _Directive("row", _INTS, "row"),
                         _Statements(_MAT, lambda o: [f"mat {a} = [ {' / '.join(map(_joined, m))} ]"
                                                      for a, m in o.matrices]),
                         _Directive("col", _INTS, "col"))),
    "pda": (_pda, (_LEVEL, _Directive("states", _LETTERS, "states"), _Directive("terminals", _LETTERS, "terminals"),
                   _Directive(_INPUT.key, _LETTERS, "input_alphabet", _OPTIONAL),
                   _Directive("gamma {}", _LETTERS, "gamma.levels", count=_LEVEL),
                   _Directive("start", _TEXT, "start_state"),
                   _Directive("bottoms", _SEQUENCE, "bottom_symbols", _OPTIONAL),
                   _Statements(_TRANSITION, _transition_lines))),
    "ideal": (_ideal, (_Directive("vars", _SEQUENCE, methodcaller("variables")),
                       _Directive("gen", (str, _integral), "generators", _REPEATABLE))),
    "frac": (lambda blk: FractionSpec(*blk.read()), tuple(
        _Directive(key, _TEXT, field) for key, field in zip(("system", "g", "h", "fp", "gp"), FractionSpec._fields))),
}
# kind -> (its _Statements or None, its directives), which _Block reads
_READ = {kind: (next((e for e in entries if type(e) is _Statements), None),
                tuple(e for e in entries if type(e) is _Directive)) for kind, (_, entries) in _KINDS.items()}


def parse_file(text: str, filename: Optional[str] = None) -> SystemFile:
    out = SystemFile({}, filename)
    fracs = []  # (header, name, FractionSpec) of each frac block
    for kind, name, body, header in _blocks(text, filename):
        if kind not in _KINDS:
            raise ParseError(f"unknown block kind {kind!r}", line=header, filename=filename)
        try:
            obj = _Block(kind, name, body, header, filename).build(_KINDS[kind][0])
        except DomainError as e:
            # the checks of the *System.make constructors know no positions
            raise ParseError(str(e), line=header, filename=filename) from e
        out.add(kind, name, obj, line=header)
        if kind == "frac":
            fracs.append((header, name, obj))
    for header, name, spec in fracs:
        declared, system = out.declarations.get(spec.system_name, ("", None))
        if declared != "poly":
            raise ParseError(f"frac {name} names no poly block {spec.system_name!r}", line=header, filename=filename)
        for i in (spec.num_plus, spec.num_minus, spec.den_plus, spec.den_minus):
            if i not in system.indices:
                raise ParseError(f"frac {name} names index {i!r}, which poly block {spec.system_name!r} lacks",
                                 line=header, filename=filename)
    return out


def format_declaration(kind: str, name: str, obj) -> str:
    if kind not in _KINDS:
        raise DomainError(f"cannot format kind {kind!r}")
    body = [f"  {line}" for entry in _KINDS[kind][1] for line in entry.lines(obj)]
    return "\n".join([f"{kind} {name} {{", *body, "}"])


def format_file(sf: SystemFile) -> str:
    return "\n\n".join(format_declaration(kind, name, obj) for name, (kind, obj) in sf.declarations.items()) + "\n"
