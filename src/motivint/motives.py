"""Hodge-realized virtual motives: bigraded Laurent classes and their localization.

A ``MotiveClass`` is a finite sum of monomials c * u^p v^q with rational
exponents subject to p + q being an integer; the Lefschetz class L is uv.
Integer classes in L, nearly all the arithmetic, are packed into one int
(see below); every other class is a map from (p, q) to coefficient.
``MotiveFrac`` localizes at the multiplicative family of differences
L^a - L^b (a != b), which covers every geometric-series denominator the
integral and series machinery produces.  Equality of fractions is decided
by cross-multiplication; no gcd cancellation is attempted.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from functools import lru_cache

from .characters import Character, gamma


def _ex(x):
    """Normalize an exponent/coefficient to int when integral (cheaper arithmetic)."""
    if isinstance(x, int):
        return x
    if type(x) is Fraction:
        return x.numerator if x.denominator == 1 else x
    f = Fraction(x)
    return f.numerator if f.denominator == 1 else f


# A class whose terms are all c L^k with int k and int c, |c| < 2^62, is kept
# packed (Kronecker substitution): as its value v at L = 2^64, whose signed
# 64-bit digits are the coefficients, with lo the exponent of the lowest
# nonzero term, and a bound on |c| carried through the arithmetic: a sum
# adds the bounds, a product multiplies them by the smaller digit count.
# Every other class keeps its term map.  An operation whose bound would
# reach 2^62, or that meets a term map, runs on term maps, and _class puts
# its result back in canonical form: the form follows from the value alone,
# so equal classes have equal forms, and zero is always packed (v = 0).
_DIGIT = 64
_LOW = (1 << _DIGIT) - 1
_LIMIT = 1 << 62
_HALF = 1 << 63
_HALF_WORD = _HALF.to_bytes(8, "little")


def _digits(v: int) -> list:
    """The signed 64-bit digits of a nonzero packed value, lowest first."""
    n = v.bit_length() // _DIGIT + 1  # the top digit is below 2^62 in size
    # adding 2^63 to every digit leaves them in [0, 2^64), so nothing carries
    biased = v + int.from_bytes(_HALF_WORD * n, "little")
    return [d - _HALF for d in memoryview(biased.to_bytes(8 * n, sys.byteorder)).cast("Q")]


class MotiveClass:
    """Finite map (p, q) -> rational coefficient, with p + q an integer per term.

    ``terms`` is that map, in increasing (p, q) order; a packed class builds
    it on each read, from ``triples``.
    """

    __slots__ = ("v", "lo", "bound", "_terms")

    def __init__(self, terms):
        clean = {}
        for (p, q), c in terms.items():
            c = _ex(c)
            if c == 0:
                continue
            p, q = _ex(p), _ex(q)
            if (p + q).denominator != 1:  # ints and Fractions alike
                raise ValueError(f"term u^{p} v^{q} has non-integral total weight")
            clean[(p, q)] = clean.get((p, q), 0) + c
        canon = _class({k: v for k, v in clean.items() if v != 0})
        if canon.v is None:
            self.v, self._terms = None, canon._terms
        else:
            self.v, self.lo, self.bound = canon.v, canon.lo, canon.bound

    @property
    def terms(self) -> dict:
        if self.v is None:
            return self._terms
        return {(p, q): c for p, q, c in self.triples()}

    def triples(self) -> list:
        """The terms as (p, q, c) in increasing (p, q) order; a packed class
        reads its nonzero digits c L^k, lowest first, and builds no map."""
        v = self.v
        if v is None:
            return [(p, q, c) for (p, q), c in self._terms.items()]
        if not v:
            return []
        return [(k, k, c) for k, c in enumerate(_digits(v), self.lo) if c]

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "MotiveClass":
        return _packed(0, 0, 0)

    @staticmethod
    def one() -> "MotiveClass":
        return _packed(1, 0, 1)

    @staticmethod
    def from_scalar(c) -> "MotiveClass":
        c = _ex(c)
        return _class({(0, 0): c} if c != 0 else {})

    @staticmethod
    def lpow(k: int = 1) -> "MotiveClass":
        """L^k = (uv)^k."""
        return _packed(1, k, 1) if type(k) is int else _class({(k, k): 1})

    @staticmethod
    def h(p, q, c=1) -> "MotiveClass":
        """c times the rank-1 class of bidegree (p, q)."""
        return MotiveClass({(_ex(p), _ex(q)): _ex(c)})

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        if type(other) is not MotiveClass:
            other = _as_class(other)
            if other is NotImplemented:
                return NotImplemented
        a, b = self.v, other.v
        if a is not None and b is not None:
            if not a:
                return other
            if not b:
                return self
            bound = self.bound + other.bound
            if bound < _LIMIT:
                shift = other.lo - self.lo
                if shift > 0:
                    return _packed(a + (b << _DIGIT * shift), self.lo, bound)
                if shift < 0:
                    return _packed(b + (a << -_DIGIT * shift), other.lo, bound)
                return _normal(a + b, self.lo, bound)
        out = dict(self.terms)
        get = out.get
        for k, c in other.terms.items():
            s = get(k, 0) + c
            if s == 0:
                out.pop(k, None)
            else:
                out[k] = s
        return _class(out)

    __radd__ = __add__

    def __neg__(self):
        if self.v is not None:
            return _packed(-self.v, self.lo, self.bound)
        return _unpacked({k: -c for k, c in self._terms.items()})

    def __sub__(self, other):
        other = _as_class(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _as_class(other) - self

    def __mul__(self, other):
        if type(other) is not MotiveClass:
            if not _is_scalar(other):
                return NotImplemented
            c = _ex(other)
            if c == 0:
                return _packed(0, 0, 0)
            if type(c) is int and self.v is not None:
                bound = self.bound * abs(c)
                if bound < _LIMIT:
                    return _packed(self.v * c, self.lo, bound)
            return _class({k: v * c for k, v in self.terms.items()})
        a, b = self.v, other.v
        if a == 0 or b == 0:  # v is None for a term map
            return _packed(0, 0, 0)
        if a is not None and b is not None:
            # each digit of the product sums at most min(n_a, n_b) products
            bound = self.bound * other.bound * (min(a.bit_length(), b.bit_length()) // _DIGIT + 1)
            if bound < _LIMIT:
                return _packed(a * b, self.lo + other.lo, bound)
        return _class(_mul_terms(self.terms, other.terms))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers live in MotiveFrac")
        out = MotiveClass.one()
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        if type(other) is not MotiveClass:
            other = _as_class(other)
            if other is NotImplemented:
                return NotImplemented
        if self.v is not None:
            return self.v == other.v and self.lo == other.lo
        return other.v is None and self._terms == other._terms

    def __hash__(self):
        if self.v is not None:
            return hash((self.v, self.lo))
        return hash(frozenset(self._terms.items()))

    def __bool__(self):
        return self.v is None or self.v != 0

    # -- helpers --------------------------------------------------------

    def shift(self, k: int) -> "MotiveClass":
        """Multiply by L^k (shift both gradings by k)."""
        if not k or not self:
            return self
        if type(k) is not int:
            k = _ex(k)
            if type(k) is not int:
                return _class({(_ex(p + k), _ex(q + k)): c for (p, q), c in self.terms.items()})
        if self.v is not None:
            return _packed(self.v, self.lo + k, self.bound)
        # stored exponents are already normalized, and adding an int keeps them so
        return _unpacked({(p + k, q + k): c for (p, q), c in self._terms.items()})

    def term_count(self) -> int:
        """Number of terms, len(self.terms), without building the map."""
        return len(self._terms) if self.v is None else len(self.triples())

    def eval_l(self, value: Fraction) -> Fraction:
        """Evaluate at L = value; only defined when every term has p = q in Z."""
        total = Fraction(0)
        for (p, q), c in self.terms.items():
            if p != q or Fraction(p).denominator != 1:
                raise ValueError(f"term u^{p} v^{q} is not a power of L")
            total += Fraction(c) * Fraction(value) ** int(p)
        return total

    def __repr__(self):
        """The text ``zeta --display lpow`` prints: c*L^k for an integral power of L."""
        bits = []
        for p, q, c in self.triples():
            if p == q and p.denominator == 1:
                bits.append(f"{c}*L^{p}" if p else f"{c}")
            else:
                bits.append(f"{c}*u^{p}*v^{q}")
        return " + ".join(bits) if bits else "0"


_new = object.__new__


def _packed(v: int, lo: int, bound: int) -> MotiveClass:
    """Internal: a packed class; v's lowest digit is nonzero, or v = lo = 0.
    (_terms is read only when v is None, so it stays unset.)"""
    out = _new(MotiveClass)
    out.v = v
    out.lo = lo
    out.bound = bound
    return out


def _normal(v: int, lo: int, bound: int) -> MotiveClass:
    """Internal: the packed class of the value v with its lowest digit at lo,
    after a sum: digits that cancelled at the bottom are shifted out, and
    v = 0 is zero."""
    if v & _LOW:
        return _packed(v, lo, bound)
    if not v:
        return _packed(0, 0, 0)
    shift = ((v & -v).bit_length() - 1) // _DIGIT  # digits that cancelled
    return _packed(v >> _DIGIT * shift, lo + shift, bound)


def _aligned(classes: list):
    """Internal: (ints, lo, bound) with each nonzero class's packed value
    moved to the lowest lo among them and bound the sum of their bounds, so
    that the ints add as the classes do and _normal(sum, lo, bound) is the
    class of any sum of them; None unless every class is packed and bound
    is below 2^62, so that no partial sum carries between digits."""
    lo = bound = 0
    for n, x in enumerate(classes):
        if x.v is None:
            return None
        bound += x.bound
        if not n or x.lo < lo:
            lo = x.lo
    if bound >= _LIMIT:
        return None
    return [x.v << _DIGIT * (x.lo - lo) for x in classes], lo, bound


def _unpacked(terms: dict) -> MotiveClass:
    """Internal: a class in term-map form (the caller knows it does not pack
    and that its keys are in increasing order); lo and bound are read only
    when v is an int, so they stay unset."""
    out = _new(MotiveClass)
    out.v = None
    out._terms = terms
    return out


def _class(terms: dict) -> MotiveClass:
    """Internal: the canonical class of an already-normalized term map."""
    bound = 0
    for (p, q), c in terms.items():
        if type(c) is not int and c.denominator == 1:
            c = c.numerator
        if type(p) is not int or p != q or type(c) is not int:
            bound = _LIMIT
            break
        if c < 0:
            c = -c
        if c > bound:
            bound = c
    if bound >= _LIMIT:  # sorted once here, so every reader sees (p, q) order
        return _unpacked(dict(sorted(terms.items())))
    if not terms:
        return _packed(0, 0, 0)
    lo = min(p for p, _q in terms)
    digits = [0] * (max(p for p, _q in terms) - lo + 1)
    for (p, _q), c in terms.items():
        digits[p - lo] = int(c)
    v = 0
    for c in reversed(digits):
        v = (v << _DIGIT) + c
    return _packed(v, lo, bound)


def _mul_terms(a: dict, b: dict) -> dict:
    """The term map of a product of two term maps."""
    if len(a) == 1:
        ((p1, q1), c1) = next(iter(a.items()))
        if type(p1) is int and type(q1) is int:
            return {(p2 + p1, q2 + q1): c2 * c1 for (p2, q2), c2 in b.items()}
    if len(b) == 1:
        ((p2, q2), c2) = next(iter(b.items()))
        if type(p2) is int and type(q2) is int:
            return {(p1 + p2, q1 + q2): c1 * c2 for (p1, q1), c1 in a.items()}
    out = {}
    get = out.get
    b_items = [(p2, q2, c2, type(p2) is int and type(q2) is int) for (p2, q2), c2 in b.items()]
    for (p1, q1), c1 in a.items():
        int1 = type(p1) is int and type(q1) is int
        for p2, q2, c2, int2 in b_items:
            if int1 and int2:
                k = (p1 + p2, q1 + q2)
            else:
                k = (_ex(p1 + p2), _ex(q1 + q2))
            s = get(k, 0) + c1 * c2
            if s == 0:
                out.pop(k, None)
            else:
                out[k] = s
    return out


def _is_scalar(x) -> bool:
    """isinstance(x, (int, Fraction)), exact types first: for any other x
    the Fraction test goes through ABCMeta.__instancecheck__."""
    t = type(x)
    return t is int or t is Fraction or isinstance(x, (int, Fraction))


def _as_class(x):
    if isinstance(x, MotiveClass):
        return x
    if _is_scalar(x):
        return MotiveClass.from_scalar(x)
    return NotImplemented


def divide_by_l_diff(cls: MotiveClass, a: int, b: int) -> MotiveClass:
    """Exact division of a class by (L^a - L^b); raises if the division is inexact."""
    if a == b:
        raise ValueError("L^a - L^b must be nonzero")
    # L^a - L^b = L^b (L^c - 1) with c = a - b; further reduce to c > 0 via
    # L^{-c} - 1 = -L^{-c} (L^c - 1).
    c = a - b
    shift = -b
    sign = 1
    if c < 0:
        c = -c
        shift += c
        sign = -1
    y = cls.shift(shift)
    if y.v is not None:
        # the quotient's digits are partial sums of y's along each chain, and
        # so is each digit of the remainder mod L^c - 1, which is then zero
        # exactly when the integer remainder at L = 2^64 is
        bound = y.bound * (y.v.bit_length() // _DIGIT + 1)
        if bound < _LIMIT:
            q, r = divmod(y.v, (1 << _DIGIT * c) - 1)
            if r:
                raise ValueError("inexact division by L^a - L^b")
            return _packed(q if sign == 1 else -q, y.lo, bound) if q else y
    # Solve Q * (L^c - 1) = y by walking each chain p, p+c, p+2c, ... inside a
    # fixed p - q grade:  Q_p = Q_{p-c} - Y_p.
    groups: dict = {}
    for (p, q), coef in y.terms.items():
        delta = _ex(p - q)
        res = _ex(Fraction(p) - c * (Fraction(p) / c).__floor__())
        groups.setdefault((delta, res), {})[_ex(p)] = coef
    out = {}
    for (delta, _res), ys in groups.items():
        ps = sorted(ys, key=Fraction)
        p = ps[0]
        top = ps[-1]
        q_run = 0
        while True:
            q_run = q_run - ys.get(p, 0)
            if q_run != 0:
                out[(p, _ex(p - delta))] = q_run
            if p == top:
                break
            p = _ex(p + c)
        if q_run != 0:
            raise ValueError("inexact division by L^a - L^b")
    res_cls = _class(out)
    return res_cls if sign == 1 else -res_cls


class MotiveFrac:
    """A MotiveClass divided by a multiset of factors (L^a - L^b)."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=()):
        self.num = _as_class(num)
        if self.num is NotImplemented:
            raise TypeError(f"cannot build MotiveFrac from {num!r}")
        for (a, b) in den:
            if a == b:
                raise ValueError("denominator factor L^a - L^b must be nonzero")
        self.den = () if not self.num else tuple(sorted((int(a), int(b)) for a, b in den))

    # -- constructors -------------------------------------------------

    @staticmethod
    def _fast(num: MotiveClass, den: tuple) -> "MotiveFrac":
        """Internal: build from an already-sorted denominator tuple."""
        out = MotiveFrac.__new__(MotiveFrac)
        out.num = num
        out.den = den if num.v is None or num.v else ()  # zero is packed as v = 0
        return out

    @staticmethod
    def zero() -> "MotiveFrac":
        return MotiveFrac(MotiveClass.zero())

    @staticmethod
    def one() -> "MotiveFrac":
        return MotiveFrac(MotiveClass.one())

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        if type(other) is not MotiveFrac:
            other = _as_frac(other)
            if other is NotImplemented:
                return NotImplemented
        if self.den == other.den:
            return MotiveFrac._fast(self.num + other.num, self.den)
        if not self.num:
            return other
        if not other.num:
            return self
        common = _multiset_union(self.den, other.den)
        left = self.num
        if common != self.den:
            left = left * _product(_multiset_sub(common, self.den))
        right = other.num
        if common != other.den:
            right = right * _product(_multiset_sub(common, other.den))
        return MotiveFrac._fast(left + right, common)

    __radd__ = __add__

    def __neg__(self):
        return MotiveFrac._fast(-self.num, self.den)

    def __sub__(self, other):
        other = _as_frac(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _as_frac(other) - self

    def __mul__(self, other):
        if type(other) is not MotiveFrac:
            if isinstance(other, MotiveClass) or _is_scalar(other):
                return MotiveFrac._fast(self.num * other, self.den)
            if not isinstance(other, MotiveFrac):
                return NotImplemented
        if not other.den:
            return MotiveFrac._fast(self.num * other.num, self.den)
        return MotiveFrac._fast(
            self.num * other.num, tuple(sorted(self.den + other.den))
        )

    __rmul__ = __mul__

    def mul_lpow(self, k: int) -> "MotiveFrac":
        return MotiveFrac._fast(self.num.shift(k), self.den)

    def div_lpow_diff(self, a: int, b: int) -> "MotiveFrac":
        """Divide by (L^a - L^b), enlarging the denominator."""
        if a == b:
            raise ValueError("denominator factor L^a - L^b must be nonzero")
        return MotiveFrac._fast(self.num, tuple(sorted(self.den + ((int(a), int(b)),))))

    def __eq__(self, other):
        other = _as_frac(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.num:
            return not other.num
        if not other.num:
            return False
        if self.den == other.den:
            return self.num == other.num
        return self.num * _product(other.den) == other.num * _product(self.den)

    def __hash__(self):  # hash only safe on normalized zero / equal-den cases
        return hash(bool(self.num))

    def __bool__(self):
        v = self.num.v
        return v is None or v != 0  # zero is packed as v = 0

    def as_class(self) -> MotiveClass:
        """Clear the denominator by exact division; raises ValueError if inexact."""
        out = self.num
        for (a, b) in self.den:
            out = divide_by_l_diff(out, a, b)
        return out

    def eval_l(self, value: Fraction) -> Fraction:
        num = self.num.eval_l(value)
        for (a, b) in self.den:
            num /= Fraction(value) ** a - Fraction(value) ** b
        return num

    def __repr__(self):
        if not self.den:
            return repr(self.num)
        den = " * ".join(f"(L^{a} - L^{b})" for a, b in self.den)
        return f"({self.num!r}) / ({den})"


def _as_frac(x):
    if isinstance(x, MotiveFrac):
        return x
    if isinstance(x, MotiveClass) or _is_scalar(x):
        return MotiveFrac(x)
    return NotImplemented


def _multiset_union(a: tuple, b: tuple) -> tuple:
    """Union with maximal multiplicities of two sorted factor tuples (a merge)."""
    if not a or a == b:
        return b
    if not b:
        return a
    out = []
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        x, y = a[i], b[j]
        if x == y:
            out.append(x)
            i += 1
            j += 1
        elif x < y:
            out.append(x)
            i += 1
        else:
            out.append(y)
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


def _multiset_sub(a: tuple, b: tuple) -> tuple:
    out = list(a)
    for k in b:
        out.remove(k)
    return tuple(out)


@lru_cache(maxsize=4096)
def _product(factors: tuple) -> MotiveClass:
    prod = MotiveClass.one()
    for (a, b) in factors:
        prod = prod * (MotiveClass.lpow(a) - MotiveClass.lpow(b))
    return prod


# ---------------------------------------------------------------------------
# Character classes on motives
# ---------------------------------------------------------------------------


@lru_cache(maxsize=4096)
def jacobi(alpha1: Character, alpha2: Character) -> MotiveClass:
    """The two-variable Jacobi class, in its Hodge realization.

    J(1,1) = L, J(1,alpha) = 0 for nontrivial alpha, J(alpha, alpha^{-1}) = -1
    (the base field contains all roots of unity, so the class of alpha(-1) is 1),
    and otherwise -u^{1-s} v^s where s = gamma(a1) + gamma(a2) - gamma(a1*a2).
    """
    t1, t2 = alpha1.is_trivial(), alpha2.is_trivial()
    if t1 and t2:
        return MotiveClass.lpow(1)
    if t1 or t2:
        return MotiveClass.zero()
    if (alpha1 * alpha2).is_trivial():
        return MotiveClass.from_scalar(-1)
    s = gamma(alpha1) + gamma(alpha2) - gamma(alpha1 * alpha2)
    return MotiveClass.h(1 - s, s, -1)


def fermat_torus_class(alpha1: Character, alpha2: Character) -> MotiveClass:
    """Class of the open Fermat torus curve x^d + y^d = 1, x*y != 0, with characters."""
    t1, t2 = alpha1.is_trivial(), alpha2.is_trivial()
    if t1 and t2:
        return MotiveClass.lpow(1) - 2
    if t1 or t2:
        return MotiveClass.from_scalar(-1)
    return jacobi(alpha1, alpha2)
