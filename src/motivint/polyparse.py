"""Integer polynomials in up to three variables, with a small expression parser.

Accepts integer coefficients, variables x, y, z, the operators + - * ^ and
parentheses; exponents are nonnegative integers.
"""

from __future__ import annotations

import re
from math import log2
from operator import add

from . import limits

_VARS = {"x": 0, "y": 1, "z": 2}
_TOKEN = re.compile(r"\s*(\d+|[xyz]|\*\*|[-+*^()])")


class IntPolynomial:
    """Finite map from exponent tuples to integer coefficients."""

    __slots__ = ("monomials", "nvars")

    def __init__(self, monomials: dict, nvars: int = 0):
        clean = {}
        width = nvars
        for exps, c in monomials.items():
            exps = tuple(int(e) for e in exps)
            width = max(width, len(exps))
        for exps, c in monomials.items():
            c = int(c)
            if c == 0:
                continue
            exps = tuple(int(e) for e in exps) + (0,) * (width - len(exps))
            clean[exps] = clean.get(exps, 0) + c
        self.monomials = {e: c for e, c in clean.items() if c}
        self.nvars = width

    @staticmethod
    def constant(c: int) -> "IntPolynomial":
        return IntPolynomial({(): c}, 0)

    @staticmethod
    def variable(index: int) -> "IntPolynomial":
        exps = tuple(1 if j == index else 0 for j in range(index + 1))
        return IntPolynomial({exps: 1}, index + 1)

    def _pad(self, width: int) -> dict:
        return {e + (0,) * (width - len(e)): c for e, c in self.monomials.items()}

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        width = max(self.nvars, other.nvars)
        out = self._pad(width)
        for e, c in other._pad(width).items():
            out[e] = out.get(e, 0) + c
        return IntPolynomial(out, width)

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial({e: -c for e, c in self.monomials.items()}, self.nvars)

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self + (-other)

    def degree(self) -> int:
        return max(map(sum, self.monomials), default=0)

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        """self * other, refused with PolyLimitError before any multiplication
        when its degree exceeds limits.MAX_POWER or it forms more than
        limits.MAX_PRODUCT_PAIRS monomial pairs."""
        if (
            self.degree() + other.degree() > limits.MAX_POWER
            or len(self.monomials) * len(other.monomials) > limits.MAX_PRODUCT_PAIRS
        ):
            raise PolyLimitError(
                f"product exceeds the limit of {limits.MAX_POWER} on degree and "
                f"{limits.MAX_PRODUCT_PAIRS} on monomial pairs"
            )
        width = max(self.nvars, other.nvars)
        right = list(other._pad(width).items())
        out: dict = {}
        for e1, c1 in self._pad(width).items():
            for e2, c2 in right:
                key = tuple(map(add, e1, e2))
                out[key] = out.get(key, 0) + c1 * c2
        return IntPolynomial(out, width)

    def __pow__(self, n: int) -> "IntPolynomial":
        """self^n, refused with PolyLimitError before any multiplication when n,
        the degree n*deg(self) or the coefficient bound n*log2(sum |c|) exceeds
        limits.MAX_POWER."""
        if n < 0:
            raise ValueError("negative exponent")
        degree = self.degree()
        size = sum(abs(c) for c in self.monomials.values())
        cap = limits.MAX_POWER
        if n > cap or n * degree > cap or (size > 1 and n * log2(size) > cap):
            raise PolyLimitError(
                f"power exceeds the limit of {cap} on exponent, degree and coefficient bits"
            )
        out = IntPolynomial.constant(1)
        for _ in range(n):
            out = out * self
        return out

    def eval_mod(self, point: tuple, mod: int) -> int:
        total = 0
        for exps, c in self.monomials.items():
            term = c % mod
            for x, e in zip(point, exps):
                if e:
                    term = term * pow(x, e, mod) % mod
            total = (total + term) % mod
        return total

    def __str__(self):
        if not self.monomials:
            return "0"
        names = "xyz"
        bits = []
        for exps in sorted(self.monomials, reverse=True):
            c = self.monomials[exps]
            mono = "*".join(
                f"{names[j]}^{e}" if e > 1 else names[j] for j, e in enumerate(exps) if e
            )
            if mono:
                bits.append(f"{c}*{mono}" if c != 1 else mono)
            else:
                bits.append(str(c))
        return " + ".join(bits).replace("+ -", "- ")


class PolyParseError(ValueError):
    pass


class PolyLimitError(PolyParseError, limits.WorkLimitError):
    """A power or product past its work cap."""


def _literal(tok: str) -> int:
    try:
        return int(tok)
    except ValueError as exc:  # longer than the interpreter's int-string limit
        raise PolyParseError(f"integer literal of {len(tok)} digits is too long") from exc


def parse_poly(text: str) -> IntPolynomial:
    """Parse an integer polynomial expression in x, y, z."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise PolyParseError(f"unexpected character at {text[pos:]!r}")
            break
        tokens.append(m.group(1))
        pos = m.end()
    tokens.append(None)
    idx = 0

    def peek():
        return tokens[idx]

    def take():
        nonlocal idx
        tok = tokens[idx]
        idx += 1
        return tok

    def parse_expr() -> IntPolynomial:
        sign = 1
        while peek() in ("+", "-"):
            if take() == "-":
                sign = -sign
        acc = parse_term()
        if sign < 0:
            acc = -acc
        while peek() in ("+", "-"):
            op = take()
            nxt = parse_term()
            acc = acc + nxt if op == "+" else acc - nxt
        return acc

    def parse_term() -> IntPolynomial:
        acc = parse_factor()
        while peek() == "*" or peek() in _VARS or peek() == "(" or (
            isinstance(peek(), str) and peek().isdigit()
        ):
            if peek() == "*":
                take()
            acc = acc * parse_factor()
        return acc

    def parse_factor() -> IntPolynomial:
        base = parse_base()
        while peek() in ("^", "**"):
            take()
            exp = take()
            if not (isinstance(exp, str) and exp.isdigit()):
                raise PolyParseError("exponent must be a nonnegative integer")
            base = base ** _literal(exp)
        return base

    def parse_base() -> IntPolynomial:
        tok = take()
        if tok is None:
            raise PolyParseError("unexpected end of expression")
        if tok == "(":
            inner = parse_expr()
            if take() != ")":
                raise PolyParseError("missing closing parenthesis")
            return inner
        if tok in _VARS:
            return IntPolynomial.variable(_VARS[tok])
        if tok.isdigit():
            return IntPolynomial.constant(_literal(tok))
        if tok == "-":
            return -parse_base()
        raise PolyParseError(f"unexpected token {tok!r}")

    try:
        out = parse_expr()
    except RecursionError as exc:  # one frame per parenthesis or unary minus
        raise PolyParseError("expression is nested too deeply") from exc
    if peek() is not None:
        raise PolyParseError(f"trailing tokens near {peek()!r}")
    return out
