"""Parsing and printing of system-definition (``.sys``) files.

A file is a sequence of named blocks::

    kind name {
        ...statements...
    }

``#`` starts a comment.  ``_blocks`` reads the lines in one loop, in which a
block is open or not: a one-line block ``kind name { ... }`` has its header
as its first and last line, and a line that is only ``}`` closes the others.
Statements are lines, or ``;``-separated parts of a line, split only where
the braces before the ``;`` balance.  ``_Block`` splits a body once into two
sorts of statement:

* directives ``key: text``, keyed by one or two words (``input: a b``,
  ``gamma 2: S``, ``1: A B``), kept with their line numbers;
* every other statement, which must match its kind's pattern: rules
  ``f(eps) = ...`` and ``f(a w) = ...`` (``cat``, ``comp``, ``reg``, ``poly``),
  ``table a = {...}`` and ``final = {...}`` (``hdt0l``), ``mat a = [...]``
  (``linrep``), transitions ``q , b , S a -> q2 , op`` (``pda``), images
  ``x -> w`` (``hom``) and bare letters (``alphabet``).

Each kind's parser takes its directives through the block's accessors, so an
unknown, repeated, missing or malformed directive is a ``ParseError`` at its
line (a missing one at the block header), reported after any bad statement.
A check of the block's whole object (an unknown index, a missing transition)
is a ``ParseError`` at the block header; so is a ``frac`` block whose
``system:`` is not the exact name of a ``poly`` block of the same file, or
whose ``g:``, ``h:``, ``fp:`` or ``gp:`` is not an index of that block,
checked once every block is read.
Only regular rules take an ``@class`` annotation after the head and shift
letters before ``w`` on the right-hand side.  Inline homomorphisms are
written ``{ x -> x y ; y -> eps }``; working letters they leave out map to
themselves.
"""

from __future__ import annotations

import math
import re
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
from .words import SYMBOL, show_word, word


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


# ---------------------------------------------------------------------------
# scanning


def _split_statements(line: str):
    """Split on ';' outside of '{...}' (inline homomorphism bodies): a part
    joins the one before it while that one's braces do not balance."""
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


_DIRECTIVE_RE = re.compile(r"^(\w+(?:\s+\w+)?)\s*:\s*(.*)$")
_REQUIRED = object()


class _Block:
    """One block body, split once into directives and statements.

    Directives (``key: text``) are kept by key with their line numbers;
    every other statement must match the kind's statement pattern.  A parser
    takes the directives it needs through the accessors, and ``done`` rejects
    any it left.
    """

    def __init__(self, kind, name, body, header, filename, statement):
        self.kind, self.name, self.header, self.filename = kind, name, header, filename
        self.directives = {}  # key -> [(lineno, text), ...]
        self.statements = []  # [(lineno, match), ...]
        self.lines = {}  # key -> lineno of the directive taken by one()
        for lineno, stmt in body:
            d = _DIRECTIVE_RE.match(stmt)
            if d:
                key = " ".join(d.group(1).split())
                self.directives.setdefault(key, []).append((lineno, d.group(2).strip()))
                continue
            m = statement.match(stmt) if statement else None
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

    def many(self, key):
        """Every ``key:`` directive as (lineno, text), in document order."""
        return self.directives.pop(key, [])

    def one(self, key, default=_REQUIRED, fn=str):
        """The single ``key:`` directive's text, passed through ``fn``."""
        entries = self.many(key)
        if len(entries) > 1:
            raise self.error(f"repeated directive '{key}:'", entries[1][0])
        if not entries:
            if default is _REQUIRED:
                raise self.error(f"{self.kind} {self.name} needs '{key}:'")
            return default
        lineno, text = entries[0]
        self.lines[key] = lineno
        return self.convert(lineno, key, fn, text)

    def words(self, key, default=_REQUIRED):
        return self.one(key, default, _identifiers)

    def done(self):
        """Reject the first directive, in document order, that no accessor took."""
        if self.directives:
            lineno, key = min((entries[0][0], key) for key, entries in self.directives.items())
            raise self.error(f"unknown directive {key!r}", lineno)


def _int(text):
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"expected an integer, got {text.strip()!r}") from None


def _ints(text):
    return tuple(_int(tok) for tok in text.split())


_LETTER_RE = re.compile(SYMBOL)


def _identifiers(text):
    """The whitespace-separated tokens of a letter list, each an identifier."""
    tokens = tuple(text.split())
    for tok in tokens:
        if not _LETTER_RE.fullmatch(tok):
            raise ParseError(f"{tok!r} is not a letter")
    return tokens


_RULE_RE = re.compile(
    rf"^(?P<name>{SYMBOL})\s*\(\s*(?:eps|(?P<letter>{SYMBOL})\s+w)?\s*\)\s*"
    rf"(?:@(?P<cls>{SYMBOL})\s*)?=\s*(?P<rhs>.*)$"
)


def _rules(blk, annotated=False):
    """Read the rule statements of a block.

    Returns ``bases`` {index: (lineno, rhs)} for the ``f(eps) = rhs``
    statements and ``rules`` {(index, letter, class): (lineno, rhs)} for the
    ``f(a w) @class = rhs`` ones; only an ``annotated`` kind takes a class.
    """
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


# ---------------------------------------------------------------------------
# per-kind block parsers


def _parse_cat(blk) -> CatenativeSystem:
    bases, rules = _rules(blk)
    index_rules = _index_rules(blk, rules)
    inp, out = blk.words("input"), blk.words("output")
    blk.done()
    base = {i: word(rhs, out) for i, (_, rhs) in bases.items()}
    return CatenativeSystem.make(tuple(sorted(bases)), inp, out, index_rules, base)


def _parse_comp(blk) -> CompositionalSystem:
    bases, rules = _rules(blk)
    images = {i: _inline_images(blk, lineno, rhs) for i, (lineno, rhs) in bases.items()}
    index_rules = _index_rules(blk, rules)
    inp, working = blk.words("input"), frozenset(blk.words("working"))
    blk.done()
    base = {i: _working_hom(im, working, working) for i, im in images.items()}
    return CompositionalSystem.make(tuple(sorted(bases)), inp, working, index_rules, base)


def _parse_reg(blk) -> RegularSystem:
    bases, rules = _rules(blk, annotated=True)
    terms = {key: _rhs_terms(blk, lineno, rhs) for key, (lineno, rhs) in rules.items()}
    inp, out, classes = blk.words("input"), blk.words("output"), blk.words("classes")
    start = blk.one("start")
    steps = {}
    for lineno, text in blk.many("step"):
        m = re.fullmatch(rf"({SYMBOL})\s+({SYMBOL})\s*->\s*({SYMBOL})", text)
        if not m:
            raise blk.error(f"classifier step must be 'STATE LETTER -> STATE', got {text!r}", lineno)
        if (m[1], m[2]) in steps:
            raise blk.error(f"two steps for state {m[1]!r} on letter {m[2]!r}", lineno)
        steps[(m[1], m[2])] = m[3]
    blk.done()
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


def _parse_poly(blk) -> PolynomialSystem:
    bases, rules = _rules(blk)
    indices = tuple(sorted(bases))
    steps = {
        (i, a): blk.convert(lineno, f"in rule {i}({a} w)", lambda t: parse_polynomial(t, indices), rhs)
        for (i, a, _), (lineno, rhs) in rules.items()
    }
    # no variables and no division, so each base value is an int
    base = {i: blk.convert(lineno, f"in base {i}(eps)", lambda t: parse_polynomial(t, ()), rhs).constant_value()
            for i, (lineno, rhs) in bases.items()}
    inp, ring = blk.words("input"), blk.one("ring", "N")
    blk.done()
    return PolynomialSystem.make(indices, inp, steps, base, ring=ring)


_TABLE_RE = re.compile(rf"^(?:table\s+(?P<letter>{SYMBOL})|final)\s*=\s*(?P<hom>.*)$")


def _parse_hdt0l(blk) -> HDT0LSystem:
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
    inp, working, out = blk.words("input"), frozenset(blk.words("working")), blk.words("output")
    seed = blk.one("seed")
    blk.done()
    if final is None:
        raise blk.error(f"hdt0l {blk.name} needs 'final ='")
    homs = {a: _working_hom(images, working, working) for a, images in tables.items()}
    return HDT0LSystem.make(inp, working, homs, _working_hom(final, working, frozenset(out)), seed)


_MAT_RE = re.compile(rf"^mat\s+(?P<letter>{SYMBOL})\s*=\s*\[(?P<rows>.*)\]\s*$")


def _parse_linrep(blk) -> LinearRepresentation:
    mats = {}
    for lineno, m in blk.statements:
        a = m["letter"]
        if a in mats:
            raise blk.error(f"two matrices for letter {a!r}", lineno)
        mats[a] = tuple(blk.convert(lineno, f"mat {a}", _ints, r) for r in m["rows"].split("/"))
    if not mats:
        raise blk.error(f"linrep {blk.name} needs at least one 'mat'")
    row, col = blk.one("row", fn=_ints), blk.one("col", fn=_ints)
    dim, letters = blk.one("dim", None, _int), blk.words("letters", None)
    blk.done()
    rep = LinearRepresentation.make(row, mats, col)
    if dim is not None and rep.dimension != dim:
        raise blk.error(f"declared dim {dim} does not match the data", blk.lines["dim"])
    if letters is not None and frozenset(letters) != rep.letters:
        raise blk.error("declared letters do not match the matrices", blk.lines["letters"])
    return rep


_TRANS_RE = re.compile(
    rf"^(?P<q>{SYMBOL})\s*,\s*(?P<read>{SYMBOL})\s*,\s*(?P<tops>{SYMBOL}(?: +{SYMBOL})*)\s*->\s*"
    rf"(?P<q2>{SYMBOL})\s*,\s*(?:pop_(?P<pop>\d+)|push_(?P<push>\d+)\s*\((?P<syms>[^)]*)\))\s*$"
)


def _parse_pda(blk) -> KPda:
    delta: dict = {}
    for lineno, m in blk.statements:
        if m["pop"]:
            op = Pop(int(m["pop"]))
        else:
            syms = tuple(m["syms"].replace(",", " ").split())
            if not syms:
                raise blk.error("push needs at least one symbol", lineno)
            op = Push(int(m["push"]), syms)
        read = "" if m["read"] == "eps" else m["read"]
        delta.setdefault((m["q"], read, tuple(m["tops"].split())), set()).add((m["q2"], op))
    level = blk.one("level", fn=_int)
    if level < 1:
        raise blk.error(f"level must be at least 1, got {level}", blk.lines["level"])
    states, terminals, start = blk.words("states"), blk.words("terminals"), blk.one("start")
    gamma = GradedAlphabet.of(*(blk.words(f"gamma {i}") for i in range(1, level + 1)))
    inp, bottoms = blk.words("input", ()), blk.words("bottoms", ())
    blk.done()
    return KPda.make(
        level, states, terminals, gamma, delta, start,
        input_alphabet=inp, bottom_symbols=bottoms, name=blk.name,
    )


def _parse_ideal(blk):
    variables = blk.words("vars")
    check_variable_names(variables, "variable")
    gens = [
        blk.convert(lineno, "gen", lambda t: parse_polynomial(t, variables), text)
        for lineno, text in blk.many("gen")
    ]
    blk.done()
    return Ideal(gens, variables)


def _parse_frac(blk) -> FractionSpec:
    spec = FractionSpec(*(blk.one(key) for key in ("system", "g", "h", "fp", "gp")))
    blk.done()
    return spec


def _parse_alphabet(blk) -> frozenset:
    texts = blk.many("letters") + [(lineno, m.string) for lineno, m in blk.statements]
    blk.done()
    return frozenset(a for n, text in texts for a in blk.convert(n, "letters", _identifiers, text))


def _parse_graded(blk) -> GradedAlphabet:
    height = sum(key.isdecimal() for key in blk.directives)
    levels = [blk.words(str(i)) for i in range(1, height + 1)]
    blk.done()
    return GradedAlphabet.of(*levels)


def _parse_hom(blk) -> Homomorphism:
    images = _images(blk, [(lineno, m.string) for lineno, m in blk.statements])
    blk.done()
    return Homomorphism({a: word(text, images) for a, text in images.items()})


# kind -> (block parser, pattern of its non-directive statements)
_KINDS = {
    "alphabet": (_parse_alphabet, re.compile(r".+")),
    "graded": (_parse_graded, None),
    "hom": (_parse_hom, _IMAGE_RE),
    "cat": (_parse_cat, _RULE_RE),
    "comp": (_parse_comp, _RULE_RE),
    "reg": (_parse_reg, _RULE_RE),
    "poly": (_parse_poly, _RULE_RE),
    "hdt0l": (_parse_hdt0l, _TABLE_RE),
    "linrep": (_parse_linrep, _MAT_RE),
    "pda": (_parse_pda, _TRANS_RE),
    "ideal": (_parse_ideal, None),
    "frac": (_parse_frac, None),
}


def parse_file(text: str, filename: Optional[str] = None) -> SystemFile:
    out = SystemFile({}, filename)
    fracs = []  # (header, name, FractionSpec) of each frac block
    for kind, name, body, header in _blocks(text, filename):
        if kind not in _KINDS:
            raise ParseError(f"unknown block kind {kind!r}", line=header, filename=filename)
        parse, statement = _KINDS[kind]
        try:
            obj = parse(_Block(kind, name, body, header, filename, statement))
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


# ---------------------------------------------------------------------------
# printing


def _format_hom(h: Homomorphism) -> str:
    body = "; ".join(f"{a} -> {show_word(w)}" for a, w in sorted(h.images.items()))
    return "{ " + body + " }"


def _index_terms(rhs) -> str:
    return " ".join(f"{j}(w)" for j in rhs) or "eps"


def _shifted_terms(rhs) -> str:
    return " ".join(f"{j}({' '.join(u) + ' ' if u else ''}w)" for j, u in rhs) or "eps"


def _recurrence_lines(obj, base, rhs) -> list:
    """The ``i(eps) = ...`` and ``i(a w)[ @class] = ...`` lines of a recurrence
    system, its base values shown by ``base`` and its right-hand sides by ``rhs``."""
    lines = [f"  {i}(eps) = {base(v)}" for i, v in obj.base]
    for (i, a, *cls), r in obj.rules:
        lines.append(f"  {i}({a} w){''.join(' @' + d for d in cls)} = {rhs(r)}")
    return lines


def format_declaration(kind: str, name: str, obj) -> str:
    lines = [f"{kind} {name} {{"]
    if kind == "alphabet":
        lines.append(f"  letters: {' '.join(sorted(obj))}")
    elif kind == "graded":
        for i, level in enumerate(obj.levels, start=1):
            lines.append(f"  {i}: {' '.join(sorted(level))}")
    elif kind == "hom":
        for a, w in sorted(obj.images.items()):
            lines.append(f"  {a} -> {show_word(w)}")
    elif kind == "cat":
        lines.append(f"  input: {' '.join(sorted(obj.input_alphabet))}")
        lines.append(f"  output: {' '.join(sorted(obj.output_alphabet))}")
        lines += _recurrence_lines(obj, show_word, _index_terms)
    elif kind == "comp":
        lines.append(f"  input: {' '.join(sorted(obj.input_alphabet))}")
        lines.append(f"  working: {' '.join(sorted(obj.working))}")
        lines += _recurrence_lines(obj, _format_hom, _index_terms)
    elif kind == "reg":
        lines.append(f"  input: {' '.join(sorted(obj.input_alphabet))}")
        lines.append(f"  output: {' '.join(sorted(obj.output_alphabet))}")
        cls = obj.classifier
        lines.append(f"  classes: {' '.join(sorted(cls.states))}")
        lines.append(f"  start: {cls.start}")
        for (q, a), q2 in cls.transitions:
            lines.append(f"  step: {q} {a} -> {q2}")
        lines += _recurrence_lines(obj, show_word, _shifted_terms)
    elif kind == "poly":
        lines.append(f"  input: {' '.join(sorted(obj.input_alphabet))}")
        lines.append(f"  ring: {obj.ring}")
        lines += _recurrence_lines(obj, str, format_polynomial)
    elif kind == "hdt0l":
        lines.append(f"  input: {' '.join(sorted(obj.input_alphabet))}")
        lines.append(f"  working: {' '.join(sorted(obj.working))}")
        lines.append(f"  output: {' '.join(sorted(obj.output_alphabet))}")
        lines.append(f"  seed: {obj.seed}")
        for a, h in obj.tables:
            lines.append(f"  table {a} = {_format_hom(h)}")
        lines.append(f"  final = {_format_hom(obj.final)}")
    elif kind == "linrep":
        lines.append(f"  letters: {' '.join(sorted(obj.letters))}")
        lines.append(f"  dim: {obj.dimension}")
        lines.append(f"  row: {' '.join(map(str, obj.row))}")
        for a, m in obj.matrices:
            body = " / ".join(" ".join(map(str, r)) for r in m)
            lines.append(f"  mat {a} = [ {body} ]")
        lines.append(f"  col: {' '.join(map(str, obj.col))}")
    elif kind == "pda":
        lines.append(f"  level: {obj.level}")
        lines.append(f"  states: {' '.join(sorted(obj.states))}")
        lines.append(f"  terminals: {' '.join(sorted(obj.terminals))}")
        if obj.input_alphabet:
            lines.append(f"  input: {' '.join(sorted(obj.input_alphabet))}")
        for i, level in enumerate(obj.gamma.levels, start=1):
            lines.append(f"  gamma {i}: {' '.join(sorted(level))}")
        lines.append(f"  start: {obj.start_state}")
        if obj.bottom_symbols:
            lines.append(f"  bottoms: {' '.join(obj.bottom_symbols)}")
        for (q, read, tops), moves in obj.delta:
            for q2, op in sorted(moves, key=str):
                shown = read if read else "eps"
                lines.append(f"  {q} , {shown} , {' '.join(tops)} -> {q2} , {op}")
    elif kind == "ideal":
        lines.append(f"  vars: {' '.join(obj.variables())}")
        for g in obj.generators:
            # scaled to integer coefficients, which the parser reads
            lines.append(f"  gen: {format_polynomial(g * math.lcm(*(c.denominator for c in g.terms.values())))}")
    elif kind == "frac":
        lines.append(f"  system: {obj.system_name}")
        lines.append(f"  g: {obj.num_plus}")
        lines.append(f"  h: {obj.num_minus}")
        lines.append(f"  fp: {obj.den_plus}")
        lines.append(f"  gp: {obj.den_minus}")
    else:
        raise DomainError(f"cannot format kind {kind!r}")
    lines.append("}")
    return "\n".join(lines)


def format_file(sf: SystemFile) -> str:
    return "\n\n".join(format_declaration(kind, name, obj) for name, (kind, obj) in sf.declarations.items()) + "\n"
