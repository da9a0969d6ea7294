"""Numeric ground truth: p-adic exponential sums and finite-field character sums.

Everything here is a finite sum over residues, evaluated in complex floating
point; the decomposition of an oscillatory integral into Gauss sums times
multiplicative character integrals is checked to 1e-9.  These sums are the
numeric shadow of the exact Gauss-ring algebra: g(chi1) g(chi2) =
j(chi1, chi2) g(chi1 chi2) mirrors the basis multiplication law and
|j| = sqrt(p) mirrors the weight of the Jacobi class.
"""

from __future__ import annotations

import cmath
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product, repeat
from math import pi

from .polyparse import IntPolynomial

TOLERANCE = 1e-9

# Work cap of the p-adic integrals: the largest number p^(N*m) of residue
# vectors in (Z/p^N)^m that one integral enumerates.  Counting a point costs
# about 0.4-0.5 us when N >= 2 and about 2.6 us at N = 1, where every point is
# its own class mod p and Phi is called once per point (2-core x86 VM,
# CPython 3.11.7), so the cap is about 2.5 s of counting.  The test suite goes
# up to 531441 points and the benchmark stays below 20000.
MAX_ENUMERATION_POINTS = 1_000_000

# Work cap of the character sums of check_exp_decomposition at level i:
# phi(p^(i+1)) characters, each summed over at most p^(i+1) value buckets
# and paired with a Gauss sum of up to p^(i+1) terms, one exp per term in
# either sum.  Cold, a term costs about 0.5-0.8 us (same machine; at level 0,
# x at p = 2819, the largest admitted prime, took 4.9-6.0 s; x^2 at p = 53,
# level 1, 7.7e6 terms, 3.8-4.1 s), so the cap is about 6 s.  The test suite
# goes up to 354294 terms (p = 3, level 5) and the benchmark to 100842 (p = 7,
# level 2).
MAX_CHARACTER_TERMS = 8_000_000

# Work cap of the finite-field Gauss/Jacobi suite (``oracle gauss``): the
# largest prime p it runs at.  It checks about p^2 character pairs with an
# O(p) Jacobi sum each, read from per-character value tables, so its time
# grows as p^3: about 0.8 s at p = 167 (2-core x86 VM, CPython 3.11.7).  The
# test suite and the benchmark use primes up to 19.
MAX_GAUSS_PRIME = 167


def check_enumeration(p: int, precision: int, m: int) -> None:
    """Raise ValueError when p^(precision*m) exceeds MAX_ENUMERATION_POINTS.

    Constant time: the exponent is bounded before any power is taken.
    """
    e = precision * m
    if e > MAX_ENUMERATION_POINTS.bit_length() or p**e > MAX_ENUMERATION_POINTS:
        raise ValueError(
            f"enumerating {p}^({precision}*{m}) residue vectors exceeds the limit of "
            f"{MAX_ENUMERATION_POINTS} points"
        )


def check_character_sums(p: int, level: int) -> None:
    """Raise ValueError when phi(p^(level+1)) * p^(level+1) exceeds
    MAX_CHARACTER_TERMS.

    The value buckets hold f(x) mod p^(level+1), so there are at most
    p^(level+1) of them; with precision >= level + 1 there are at least as
    many points.  Constant time: the exponent is bounded before any power is
    taken.
    """
    k = level + 1
    if k > MAX_CHARACTER_TERMS.bit_length() or (p - 1) * p ** (2 * k - 1) > MAX_CHARACTER_TERMS:
        raise ValueError(
            f"summing the characters mod {p}^{k} over the value buckets exceeds the "
            f"limit of {MAX_CHARACTER_TERMS} terms"
        )


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class PadicContext:
    """Arithmetic over Z/p^N for an odd prime p, with uniformizer p."""

    p: int
    precision: int

    def __post_init__(self):
        if self.p == 2 or not _is_prime(self.p):
            raise ValueError("p must be an odd prime")
        if self.precision < 1:
            raise ValueError("precision must be >= 1")


def _primitive_root(p: int, c: int) -> int:
    mod = p**c
    order = (p - 1) * p ** (c - 1)
    for g in range(2, mod):
        if g % p == 0:
            continue
        if pow(g, order, mod) != 1:
            continue
        if all(pow(g, order // q, mod) != 1 for q in _prime_factors(order)):
            return g
    raise ValueError("no primitive root found")


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


@lru_cache(maxsize=32)
def _dlog_table(p: int, c: int) -> dict:
    mod = p**c
    g = _primitive_root(p, c)
    table = {}
    acc = 1
    for k in range((p - 1) * p ** (c - 1)):
        table[acc] = k
        acc = acc * g % mod
    return table


class ResidueCharacter:
    """A character of (Z/p^c)^* fixed by its value exp(2 pi i k / phi(p^c)) on
    the smallest primitive root; the conductor c is minimal unless c = 1."""

    __slots__ = ("p", "conductor", "index")

    def __init__(self, p: int, conductor: int, index: int):
        if p == 2 or not _is_prime(p):
            raise ValueError("p must be an odd prime")
        if conductor < 1:
            raise ValueError("conductor must be >= 1")
        phi = (p - 1) * p ** (conductor - 1)
        index %= phi
        if conductor >= 2 and index % p == 0:
            raise ValueError("character is not primitive at its conductor")
        self.p = p
        self.conductor = conductor
        self.index = index

    @staticmethod
    def trivial(p: int) -> "ResidueCharacter":
        return ResidueCharacter(p, 1, 0)

    @property
    def group_order(self) -> int:
        return (self.p - 1) * self.p ** (self.conductor - 1)

    def is_trivial(self) -> bool:
        return self.conductor == 1 and self.index == 0

    def inverse(self) -> "ResidueCharacter":
        return ResidueCharacter(self.p, self.conductor, -self.index)

    def __mul__(self, other: "ResidueCharacter") -> "ResidueCharacter":
        if self.p != other.p or self.conductor != other.conductor:
            raise ValueError("characters must share a modulus to multiply")
        phi = self.group_order
        k = (self.index + other.index) % phi
        c = self.conductor
        # drop to the true conductor of the product
        while c >= 2 and k % self.p == 0:
            k //= self.p
            c -= 1
        return ResidueCharacter(self.p, c, k)

    def value(self, v: int) -> complex:
        """chi(v) for v coprime to p, read modulo p^conductor."""
        mod = self.p**self.conductor
        v %= mod
        if v % self.p == 0:
            raise ValueError("character evaluated at a non-unit")
        k = _dlog_table(self.p, self.conductor)[v]
        return cmath.exp(2j * pi * self.index * k / self.group_order)

    def __eq__(self, other):
        return (
            isinstance(other, ResidueCharacter)
            and (self.p, self.conductor, self.index)
            == (other.p, other.conductor, other.index)
        )

    def __hash__(self):
        return hash((self.p, self.conductor, self.index))

    def __repr__(self):
        return f"ResidueCharacter(p={self.p}, c={self.conductor}, k={self.index})"


def characters_mod(p: int, level: int) -> list[ResidueCharacter]:
    """All characters of (Z/p^level)^*, each reduced to its conductor."""
    phi_level = (p - 1) * p ** (level - 1)
    root_dlogs: dict = {}  # conductor c < level -> dlog of its primitive root mod p^level
    g_entries = []
    for k in range(phi_level):
        if k == 0:
            g_entries.append(ResidueCharacter.trivial(p))
            continue
        v = 0
        kk = k
        while kk % p == 0:
            v += 1
            kk //= p
        c = max(1, level - v)
        # index at conductor c: divide out the redundant p-part, then express
        # against the conductor-level primitive root
        k_red = k // p ** (level - c)
        if c == level:
            g_entries.append(ResidueCharacter(p, c, k_red))
        else:
            if c not in root_dlogs:
                root_dlogs[c] = _dlog_table(p, level)[_primitive_root(p, c) % p**level]
            # value of chi_k on the conductor-c generator determines the index
            idx = k_red * root_dlogs[c] % ((p - 1) * p ** (c - 1))
            g_entries.append(ResidueCharacter(p, c, idx))
    return g_entries


def additive_character(numerator: int, p_power: int) -> complex:
    """exp(2 pi i {numerator / p_power}_p)."""
    return cmath.exp(2j * pi * (numerator % p_power) / p_power)


# ---------------------------------------------------------------------------
# residual test functions
# ---------------------------------------------------------------------------


def phi_one(p: int, m: int):
    """The constant residual function 1."""
    return lambda xbar: Fraction(1)


def phi_indicator_zero(p: int, m: int):
    """Indicator of the residue class 0 in (Z/p)^m."""
    zero = (0,) * m
    return lambda xbar: Fraction(1) if xbar == zero else Fraction(0)


# ---------------------------------------------------------------------------
# the integrals
# ---------------------------------------------------------------------------


def _value_buckets(f: IntPolynomial, ctx: PadicContext, phi, m: int, mod: int) -> dict:
    """Sum phi(x mod p) over x in (Z/p^N)^m, bucketed by f(x) mod ``mod``.

    phi returns an int or a Fraction.  The points are counted as integers by
    (f(x) mod ``mod``, x mod p), one row over the last coordinate per prefix of
    the others, and phi is called once per counted pair.  A value's bucket is
    inserted where the value first appears with nonzero weight, in
    lexicographic order of x; that order fixes the floating-point summation
    order of the sums over the buckets.
    """
    p, n_prec = ctx.p, ctx.precision
    check_enumeration(p, n_prec, m)
    pn = p**n_prec
    # per monomial: the power tables of the prefix coordinates it contains, the
    # table of the last coordinate (None at exponent 0) and the coefficient
    monos = []
    for exps, coeff in f._pad(m).items():
        tabs = [[pow(x, e, mod) for x in range(pn)] if e else None for e in exps]
        head = [(j, tab) for j, tab in enumerate(tabs[:-1]) if tab is not None]
        monos.append((head, tabs[-1], coeff % mod))
    last_class = [x % p for x in range(pn)]
    prefix_classes: dict = {}  # prefix mod p, as a base-p integer -> as a tuple
    counts: Counter = Counter()
    for prefix in product(range(pn), repeat=m - 1):
        const, row = 0, None
        for head, last, term in monos:
            for j, tab in head:
                term = term * tab[prefix[j]] % mod
            if last is None:
                const += term
            elif row is None:
                row = [term * t for t in last]
            else:
                row = [r + term * t for r, t in zip(row, last)]
        row = [const % mod] * pn if row is None else [(const + r) % mod for r in row]
        cls = 0
        for xj in prefix:
            cls = cls * p + xj % p
        if cls not in prefix_classes:
            prefix_classes[cls] = tuple(xj % p for xj in prefix)
        counts.update(zip(row, repeat(cls), last_class))
    # the weights are summed as integer counts per (value, weight) first, so
    # that Fraction arithmetic runs once per distinct pair
    weighted: dict = {}
    for (val, cls, last), n in counts.items():
        w = phi(prefix_classes[cls] + (last,))
        if w:
            key = val, w.numerator, w.denominator
            weighted[key] = weighted.get(key, 0) + n
    buckets: dict = {}
    for (val, num, den), n in weighted.items():
        buckets[val] = buckets.get(val, Fraction(0)) + Fraction(n * num, den)
    return buckets


def _float_weights(f: IntPolynomial, ctx: PadicContext, phi, mod: int) -> dict:
    """The value buckets of f mod ``mod``, each weight times the measure p^(-N*m)
    of a point, converted to a float once."""
    m = max(f.nvars, 1)
    norm = Fraction(1, ctx.p ** (ctx.precision * m))
    return {val: float(w * norm) for val, w in _value_buckets(f, ctx, phi, m, mod).items()}


def padic_exp_integral(f: IntPolynomial, ctx: PadicContext, phi, i: int) -> complex:
    """Integral of phi(x) Psi(f(x)/p^{i+1}) over Z_p^m, as an exact finite sum."""
    if ctx.precision < i + 1:
        raise ValueError("precision must be at least i + 1")
    mod = ctx.p ** (i + 1)
    return _psi_sum(_float_weights(f, ctx, phi, mod), mod)


def _psi_sum(weights: dict, mod: int) -> complex:
    """Sum of weight * Psi(val / mod) over the value buckets."""
    total = 0j
    for val, fw in weights.items():
        total += fw * additive_character(val, mod)
    return total


def padic_char_integral(
    f: IntPolynomial, ctx: PadicContext, phi, alpha: ResidueCharacter, i: int
) -> complex:
    """Integral of phi(x) alpha(ac f(x)) over the locus ord f(x) = i."""
    c = alpha.conductor
    if ctx.precision < i + c:
        raise ValueError("precision must be at least i + conductor")
    p = ctx.p
    return _char_sum(_float_weights(f, ctx, phi, p ** (i + c)), alpha, p, i)


# The character sums below evaluate alpha(v) as ResidueCharacter.value does,
# exp(2j * pi * index * dlog(v) / order) from left to right, with the constant
# part of the expression hoisted out of the loop: the same floating-point
# operations in the same order, so the same bits.


def _unit_dlogs(weights: dict, p: int, i: int, c: int) -> list[tuple[int, float]]:
    """(dlog of ac val mod p^c, weight) for the value buckets with ord_p val = i,
    in bucket order: the terms of every character sum of conductor c."""
    pi_i = p**i
    mod_c = p**c
    dlog = _dlog_table(p, c)
    terms = []
    for val, fw in weights.items():
        if val % pi_i:
            continue
        unit = val // pi_i
        if unit % p == 0:
            continue  # ord f > i
        terms.append((dlog[unit % mod_c], fw))
    return terms


def _char_total(terms: list[tuple[int, float]], alpha: ResidueCharacter) -> complex:
    """Sum of weight * alpha(v) over the (dlog v, weight) terms."""
    arg = 2j * pi * alpha.index
    order = alpha.group_order
    total = 0j
    for k, fw in terms:
        total += fw * cmath.exp(arg * k / order)
    return total


def _char_sum(weights: dict, alpha: ResidueCharacter, p: int, i: int) -> complex:
    """Sum of weight * alpha(ac val) over the value buckets with ord_p val = i."""
    return _char_total(_unit_dlogs(weights, p, i, alpha.conductor), alpha)


# Like _dlog_table, 32 moduli p^c; every character of a modulus reads it.
@lru_cache(maxsize=32)
def _psi_table(p: int, c: int) -> tuple[tuple[int, complex], ...]:
    """(v, Psi(v / p^c)) for the units 0 < v < p^c, in increasing order."""
    mod = p**c
    # additive_character(v, mod), as 0 < v < mod
    return tuple((v, cmath.exp(2j * pi * v / mod)) for v in range(1, mod) if v % p)


# A Gauss sum depends on p and the character alone, not on f, Phi or the
# level, so it is evaluated once per character: a check_exp_decomposition at
# level i asks for phi(p^(i+1)) of them, and one round of the padic_oracle
# benchmark asks 2,008 times for 468 distinct ones.  An entry is one complex.
@lru_cache(maxsize=4096)
def _gauss_sum(p: int, c: int, index: int) -> complex:
    dlog = _dlog_table(p, c)
    arg = 2j * pi * index
    order = (p - 1) * p ** (c - 1)
    total = 0j
    for v, psi in _psi_table(p, c):
        total += cmath.exp(arg * dlog[v] / order) * psi
    return p ** (1 - c) * total


def gauss_sum_numeric(ctx: PadicContext, alpha: ResidueCharacter) -> complex:
    """q^{1-c} sum over units v mod p^c of alpha(v) Psi(v / p^c)."""
    if alpha.p != ctx.p:
        raise ValueError("the character must be taken mod the context's prime")
    return _gauss_sum(alpha.p, alpha.conductor, alpha.index)


def character_values(chi: ResidueCharacter) -> list:
    """[chi(x) for x mod p], with 0 at x = 0; conductor-1 characters only.

    chi(1) = exp(0) = 1 exactly, so it is written down, not evaluated.
    """
    if chi.conductor != 1:
        raise ValueError("value tables are taken for conductor-1 characters")
    p = chi.p
    dlog = _dlog_table(p, 1)
    arg = 2j * pi * chi.index
    order = p - 1
    return [0j, 1 + 0j] + [cmath.exp(arg * dlog[x] / order) for x in range(2, p)]


def jacobi_sum_from_values(values1: list, values2: list) -> complex:
    """sum over x != 0, 1 mod p of chi1(x) chi2(1 - x), from character_values."""
    p = len(values1)
    total = 0j
    for x in range(2, p):
        total += values1[x] * values2[p + 1 - x]  # 1 - x mod p
    return total


def jacobi_sum_numeric(p: int, chi1: ResidueCharacter, chi2: ResidueCharacter) -> complex:
    """sum over x != 0, 1 mod p of chi1(x) chi2(1 - x); conductor-1 characters only."""
    if chi1.conductor != 1 or chi2.conductor != 1 or chi1.p != p or chi2.p != p:
        raise ValueError("jacobi sums are taken for conductor-1 characters mod p")
    return jacobi_sum_from_values(character_values(chi1), character_values(chi2))


@dataclass
class DecompositionReport:
    """Both sides of the Gauss-sum decomposition of an exponential integral."""

    lhs: complex
    rhs: complex

    @property
    def residue(self) -> float:
        return abs(self.lhs - self.rhs)

    @property
    def ok(self) -> bool:
        return self.residue <= TOLERANCE


def check_exp_decomposition(f: IntPolynomial, ctx: PadicContext, phi, i: int) -> DecompositionReport:
    """Compare the exponential integral at level i with its character decomposition.

    The right-hand side is the measure of {ord f > i} plus (q-1)^{-1} times the
    sum over characters of conductor <= i+1 of g(alpha^{-1}) times the character
    integral at level i - c(alpha) + 1.
    """
    if ctx.precision < i + 1:
        raise ValueError("precision must be at least i + 1")
    p = ctx.p
    mod = p ** (i + 1)
    weights = _float_weights(f, ctx, phi, mod)

    lhs = _psi_sum(weights, mod)
    # buckets hold f(x) mod p^{i+1}, so {ord f > i} is the bucket of 0
    rhs = complex(weights.get(0, 0.0))
    # the buckets with ord = i - c + 1, listed once per conductor c
    terms = {c: _unit_dlogs(weights, p, i - c + 1, c) for c in range(1, i + 2)}
    for alpha in characters_mod(p, i + 1):
        z = _char_total(terms[alpha.conductor], alpha)
        if z != 0:
            rhs += gauss_sum_numeric(ctx, alpha.inverse()) * z / (p - 1)
    return DecompositionReport(lhs=lhs, rhs=rhs)
