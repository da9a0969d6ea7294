"""Characters of the group of roots of unity, identified with Q/Z.

A character is stored as a reduced fraction a/d with 0 <= a < d; the
group law is addition mod 1, the trivial character is 0/1 and the order
of a/d is d.  ``gamma`` is the canonical section Q/Z -> [0, 1).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd


class Character:
    """An element of Q/Z written multiplicatively (alpha * beta adds the fractions).

    The reduced numerator and denominator are kept as ints beside ``value``,
    so the group law never normalises a new Fraction; its results are the
    canonical instances of _character.  The hash is taken once per instance.
    """

    __slots__ = ("value", "_num", "_den", "_hash")

    def __init__(self, value):
        v = Fraction(value)
        n, d = v.numerator, v.denominator
        if not 0 <= n < d:  # reduce into [0, 1)
            n %= d
            v = Fraction(n, d)
        self.value, self._num, self._den, self._hash = v, n, d, hash(v)

    @staticmethod
    def trivial() -> "Character":
        return _TRIVIAL

    @staticmethod
    def parse(text: str) -> "Character":
        return Character(Fraction(text))

    @property
    def order(self) -> int:
        return self._den

    def is_trivial(self) -> bool:
        return not self._num

    def inverse(self) -> "Character":
        n, d = self._num, self._den
        return _character(d - n, d) if n else self

    def __mul__(self, other: "Character") -> "Character":
        d, e = self._den, other._den
        n, d = (self._num * e + other._num * d) % (d * e), d * e
        g = gcd(n, d)
        return _character(n // g, d // g)

    def __pow__(self, k: int) -> "Character":
        d = self._den
        n = k * self._num % d
        g = gcd(n, d)
        return _character(n // g, d // g)

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, Character) and self._num == other._num and self._den == other._den
        )

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "Character") -> bool:
        return self._num * other._den < other._num * self._den

    def __repr__(self) -> str:
        return f"Character({self._num}/{self._den})"

    def __str__(self) -> str:
        return f"{self._num}/{self._den}"


# Memo bounds.  The workloads meet a few hundred distinct characters and a
# few dozen orders; a list of order d holds d characters, so its bound is
# the smaller one.
_CANONICAL = 1 << 12
_ORDERS = 32


@lru_cache(maxsize=_CANONICAL)
def _character(n: int, d: int) -> Character:
    """The character n/d, given 0 <= n < d coprime; one instance while cached."""
    alpha = Character.__new__(Character)
    v = Fraction(n, d)
    alpha.value, alpha._num, alpha._den, alpha._hash = v, n, d, hash(v)
    return alpha


_TRIVIAL = _character(0, 1)


def gamma(alpha: Character) -> Fraction:
    """The representative of alpha in [0, 1); gamma(trivial) = 0."""
    return alpha.value


@lru_cache(maxsize=_ORDERS)
def _characters_of_order_dividing(d: int) -> tuple[Character, ...]:
    return tuple(_character(a // g, d // g) for a in range(d) for g in (gcd(a, d),))


def characters_of_order_dividing(d: int) -> list[Character]:
    """All characters alpha with alpha**d trivial, i.e. the fractions a/d."""
    if d < 1:
        raise ValueError("order bound must be >= 1")
    return list(_characters_of_order_dividing(d))
