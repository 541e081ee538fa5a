"""Exact multivariate polynomials over the rationals.

Terms map monomials to nonzero coefficients: an ``int`` when the coefficient
is integral, a ``Fraction`` only for a true rational, so that equal
polynomials have equal term dicts.  A monomial is a sorted tuple of
(variable, exponent) pairs with positive exponents.  Operations on
polynomials with different variable sets just work: the variable universe of
an expression is the union of what occurs in it.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Mapping, Union

from .errors import DomainError, ParseError
from .words import SYMBOL

Monomial = tuple[tuple[str, int], ...]

MONO_ONE: Monomial = ()
_ONE = {MONO_ONE: 1}  # the terms of 1; never mutated


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    if len(a) == 1 and len(b) == 1:
        (u, e), (v, f) = a[0], b[0]
        if u == v:
            return ((u, e + f),)
        return (a[0], b[0]) if u < v else (b[0], a[0])
    out = dict(a)
    for v, e in b:
        out[v] = out.get(v, 0) + e
    return tuple(sorted((v, e) for v, e in out.items() if e))


def mono_degree(m: Monomial) -> int:
    return sum(e for _, e in m)


Scalar = Union[int, Fraction]


def _scalar(c) -> Scalar:
    """c exactly, as an int when it is integral and as a Fraction otherwise.
    Only ints and Fractions are scalars."""
    if type(c) is int:
        return c
    if not isinstance(c, (int, Fraction)):
        raise TypeError(f"cannot treat {c!r} as a polynomial")
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _wrap(terms: dict[Monomial, Scalar]) -> "Polynomial":
    """A polynomial over a term dict that is already clean and normalised."""
    out = Polynomial.__new__(Polynomial)
    object.__setattr__(out, "terms", terms)
    object.__setattr__(out, "_hash", None)
    return out


def _normalised(terms: dict[Monomial, Scalar]) -> "Polynomial":
    """Wrap a term dict of nonzero sums and products, in which Fractions
    may have become integral."""
    for m, c in terms.items():
        if type(c) is Fraction and c.denominator == 1:
            terms[m] = c.numerator
    return _wrap(terms)


class Polynomial:
    __slots__ = ("terms", "_hash")

    def __init__(self, terms: Mapping[Monomial, Scalar] | None = None):
        clean: dict[Monomial, Scalar] = {}
        if terms:
            for m, c in terms.items():
                c = _scalar(c)
                if c:
                    clean[m] = c
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls()

    @classmethod
    def const(cls, c: Scalar) -> "Polynomial":
        return cls({MONO_ONE: c})

    @classmethod
    def var(cls, name: str) -> "Polynomial":
        return _wrap({((name, 1),): 1})

    def variables(self) -> frozenset[str]:
        return frozenset(v for m in self.terms for v, _ in m)

    def degree(self) -> int:
        if not self.terms:
            return -1
        return max(mono_degree(m) for m in self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(m == MONO_ONE for m in self.terms)

    def constant_value(self) -> Scalar:
        if not self.is_constant():
            raise DomainError("polynomial is not constant")
        return self.terms.get(MONO_ONE, 0)

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        other = _coerce(other)
        res = dict(self.terms)
        for m, c in other.terms.items():
            s = res.get(m, 0) + c
            if s:
                res[m] = s
            else:
                res.pop(m, None)
        return _normalised(res)

    __radd__ = __add__

    def __neg__(self):
        return _wrap({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        return _normalised(_mul_into({}, self.terms, _coerce(other).terms))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise DomainError("negative polynomial power")
        if n == 0:
            return Polynomial.const(1)
        base = self
        while not n & 1:
            base, n = base * base, n >> 1
        out = base  # base**(lowest set bit of n); square for each higher bit
        while n := n >> 1:
            base = base * base
            if n & 1:
                out = out * base
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.const(other)
        return isinstance(other, Polynomial) and self.terms == other.terms

    def __hash__(self):
        h = self._hash
        if h is None:
            # a constant equals its value, so it hashes as its value
            h = hash(self.terms.get(MONO_ONE, 0) if self.is_constant() else tuple(sorted(self.terms.items())))
            object.__setattr__(self, "_hash", h)
        return h

    def evaluate(self, point: Mapping[str, Scalar]) -> Scalar:
        """The exact value at a point, an int when it is integral.  Point
        values other than ints and Fractions are read with ``Fraction``
        (a float as its exact binary value); strings are refused."""
        return _value(self.terms, point)

    def evaluate_int(self, point: Mapping[str, int]) -> int:
        val = _value(self.terms, point)
        if isinstance(val, Fraction):
            raise DomainError("evaluation did not produce an integer")
        return val

    def substitute(self, env: Mapping[str, "Polynomial"]) -> "Polynomial":
        return _substitute(self.terms, _powers(env))

    def __repr__(self):
        return format_polynomial(self)


def _mul_into(res: dict[Monomial, Scalar], a: dict, b: dict) -> dict[Monomial, Scalar]:
    """Add the product of the term dicts a and b into res and return res."""
    b = b.items()
    for m1, c1 in a.items():
        for m2, c2 in b:
            m = mono_mul(m1, m2)
            s = res.get(m, 0) + c1 * c2
            if s:
                res[m] = s
            else:  # c1 * c2 != 0, so m was there
                del res[m]
    return res


def _powers(env: Mapping[str, "Polynomial"]) -> dict[str, list[dict]]:
    """A substitution table for env: each variable whose image is not the
    variable itself, with the term dicts of its image's powers, [1, image]
    so far.  ``_substitute`` grows the lists on demand, so a caller that
    keeps the table builds each power once over all its substitutions."""
    table = {}
    for v, p in env.items():
        terms = _coerce(p).terms
        if terms != {((v, 1),): 1}:
            table[v] = [_ONE, terms]
    return table


def _substitute(terms: dict[Monomial, Scalar], table: dict[str, list[dict]]) -> "Polynomial":
    """The polynomial of these terms with each variable of the table replaced
    by its image (see ``_powers``); other variables stay as they are."""
    res: dict[Monomial, Scalar] = {}
    for m, c in terms.items():
        kept, factors = [], []
        for v, e in m:
            pw = table.get(v)
            if pw is None:
                kept.append((v, e))
                continue
            while len(pw) <= e:
                pw.append(_mul_into({}, pw[-1], pw[1]))
            factors.append(pw[e])
        # the last product goes straight into res
        part = {tuple(kept): c}
        for f in factors[:-1]:
            part = _mul_into({}, part, f)
        _mul_into(res, part, factors[-1] if factors else _ONE)
    return _normalised(res)


def _value(terms: Mapping[Monomial, Scalar], point: Mapping[str, Scalar]) -> Scalar:
    total = 0
    for m, c in terms.items():
        for v, e in m:
            try:
                x = point[v]
            except KeyError:
                raise DomainError(f"no value for variable {v!r}") from None
            if type(x) is not int and not isinstance(x, Fraction):
                if isinstance(x, str):
                    raise TypeError(f"point value {x!r} of {v!r} is not a number")
                x = Fraction(x)
            c *= x if e == 1 else x**e
        total += c
    if type(total) is Fraction and total.denominator == 1:
        return total.numerator
    return total


def _coerce(x) -> Polynomial:
    return x if isinstance(x, Polynomial) else Polynomial.const(x)


def format_polynomial(p: Polynomial) -> str:
    if not p.terms:
        return "0"
    parts = []
    for m in sorted(p.terms, key=lambda m: (-mono_degree(m), m)):
        c = p.terms[m]
        factors = [f"{v}^{e}" if e > 1 else v for v, e in m]
        if not factors:
            body = str(abs(c))
        else:
            body = " * ".join(factors)
            if abs(c) != 1:
                body = f"{abs(c)} * {body}"
        sign = "-" if c < 0 else "+"
        parts.append((sign, body))
    sign, body = parts[0]
    text = ("-" if sign == "-" else "") + body
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


# ---------------------------------------------------------------------------
# expression parser: + - * ^ ( ) over integer literals and identifiers


_EXPR_TOKEN = re.compile(rf"\d+|{SYMBOL}|\S")


def check_variable_names(names: Iterable[str], what: str) -> None:
    """Refuse a decimal numeral among ``names``: an expression reads it as a number."""
    numeral = next((v for v in names if v.isdecimal()), None)
    if numeral is not None:
        raise DomainError(f"{what} {numeral!r} is a numeral, which an expression reads as a number")


def _tokenize_expr(text: str):
    """The (token, pos) pairs of an expression: operators, decimal integers
    and identifiers (a ``words.SYMBOL`` that starts with a letter or '_')."""
    tokens = [(m[0], m.start()) for m in _EXPR_TOKEN.finditer(text)]
    for tok, at in tokens:
        c = tok[0]
        if not (c in "+-*^()" or c.isdecimal() or c.isalpha() or c == "_"):
            raise ParseError(f"unexpected character {c!r} in expression", column=at + 1)
    return tokens


def parse_polynomial(text: str, variables: Iterable[str] | None = None) -> Polynomial:
    """Parse an expression like ``2 * X1^2 + X2 - 3``.

    When a variable universe is given, unknown identifiers are rejected.
    """
    tokens = _tokenize_expr(text)
    allowed = None if variables is None else set(variables)
    pos = 0

    def peek():
        return tokens[pos][0] if pos < len(tokens) else None

    def take():
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        return tok

    def atom() -> Polynomial:
        tok = peek()
        if tok is None:
            raise ParseError("expression ended unexpectedly")
        if tok == "(":
            take()
            p = expr()
            if peek() != ")":
                raise ParseError("missing ')'", column=tokens[pos - 1][1] + 1)
            take()
            return p
        value, at = take()
        if value.isdecimal():
            return Polynomial.const(int(value))
        if value[0].isalpha() or value[0] == "_":
            if allowed is not None and value not in allowed:
                raise ParseError(f"unknown variable {value!r}", column=at + 1)
            return Polynomial.var(value)
        raise ParseError(f"unexpected token {value!r}", column=at + 1)

    def power() -> Polynomial:
        if peek() == "-":  # unary minus binds looser than '^': -x^2 is -(x^2)
            take()
            return -power()
        p = atom()
        while peek() == "^":
            take()
            tok, at = take() if pos < len(tokens) else (None, -1)
            if tok is None or not tok.isdecimal():
                raise ParseError("'^' must be followed by a nonnegative integer", column=at + 1)
            p = p ** int(tok)
        return p

    def product() -> Polynomial:
        p = power()
        while peek() == "*":
            take()
            p = p * power()
        return p

    def expr() -> Polynomial:
        p = product()
        while peek() in ("+", "-"):
            op, _ = take()
            q = product()
            p = p + q if op == "+" else p - q
        return p

    p = expr()
    if pos < len(tokens):
        tok, at = tokens[pos]
        raise ParseError(f"unexpected token {tok!r}", column=at + 1)
    return p
