"""Rational Laurent series in T with denominators (1 - L^a T^b).

The canonical form of such a series is a Laurent polynomial part plus a list
of arithmetic terms, each denoting

    sum_{n >= 0}  p(n) * L^{n a} * T^{n d + r},       0 <= r < d,

where p is a polynomial in n with coefficients in the ground ring B (a
MotiveFrac, or a Gauss-ring element for exponential series).  In this shape
the Hadamard product is an intersection of arithmetic progressions and the
expansion at T = infinity is read off termwise, which is exactly what the
nearby/vanishing-cycle extraction needs.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import comb, factorial, gcd, lcm
from operator import neg

from .gaussring import UElement, _coeff
from .motives import (
    MotiveClass,
    MotiveFrac,
    _aligned,
    _multiset_sub,
    _multiset_union,
    _normal,
    _product,
    divide_by_l_diff,
)


def _coerce(c):
    """Lift plain numbers and classes into MotiveFrac; pass ring elements through."""
    return c if isinstance(c, UElement) else _coeff(c)


def _shift(c, k: int):
    """Multiply a ring element by L^k via the cheap grading shift."""
    return c.mul_lpow(k) if k and c else c


# ---------------------------------------------------------------------------
# polynomials in n with ring coefficients, as dense coefficient lists
# ---------------------------------------------------------------------------


def _poly_trim(p: list) -> list:
    while p and not p[-1]:
        p.pop()
    return p


def _poly_add(p: list, q: list) -> list:
    n = min(len(p), len(q))
    out = list(p) if len(p) >= len(q) else list(p) + q[n:]  # 0 + c is c
    for i in range(n):
        out[i] = out[i] + q[i]
    return _poly_trim(out)


def _poly_mul(p: list, q: list) -> list:
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if not a:
            continue
        for j, b in enumerate(q):
            if not b:
                continue
            out[i + j] = out[i + j] + a * b
    return _poly_trim(out)


def _poly_eval(p: list, n: int):
    if not p:
        return 0
    acc = p[-1]
    for c in reversed(p[:-1]):
        acc = acc * n + c
    return acc


def _poly_compose_affine(p: list, k: int, j: int) -> list:
    """p(k*m + j) as a polynomial in m."""
    out: list = []
    for t, c in enumerate(p):
        if not c:
            continue
        for s in range(t + 1):
            w = comb(t, s) * (k**s) * (j ** (t - s))
            if w == 0:
                continue
            while len(out) <= s:
                out.append(None)
            out[s] = c * w if out[s] is None else out[s] + c * w
    return _poly_trim([0 if x is None else x for x in out])


def _sub_progression(p: list, a: int, k: int, j: int) -> list:
    """The term p(n) L^{n a} on n = k m + j: p(k m + j) L^{j a} as a polynomial in m."""
    if len(p) > 1 and (k != 1 or j):
        p = _poly_compose_affine(p, k, j)
    return _poly_trim([_shift(c, j * a) for c in p])


def _binom_poly(k: int) -> list[Fraction]:
    """binom(n + k - 1, k - 1) = (n+1)(n+2)...(n+k-1)/(k-1)! as coefficients in n."""
    prod = [Fraction(1)]
    for t in range(1, k):
        prod = _poly_mul(prod, [Fraction(t), Fraction(1)])
    inv = Fraction(1, factorial(k - 1))
    return [c * inv for c in prod]


# ---------------------------------------------------------------------------
# the series object
# ---------------------------------------------------------------------------


class RationalSeries:
    """Canonical form: Laurent polynomial part + merged arithmetic terms.

    ``poly`` maps T-exponents to coefficients; ``terms`` maps (r, d, a) with
    0 <= r < d to the coefficient polynomial in n (a dense list).
    """

    __slots__ = ("poly", "terms")

    def __init__(self, poly=None, terms=None):
        self.poly: dict = {}
        self.terms: dict = {}
        if poly:
            for i, c in poly.items():
                c = _coerce(c)
                if c:
                    self._poly_add_at(int(i), c)
        if terms:
            for (r, d, a), npoly in terms.items():
                self._add_term(int(r), int(d), int(a), [_coerce(c) for c in npoly])

    # -- internal canonical assembly --------------------------------------

    def _poly_add_at(self, i: int, c) -> None:
        s = self.poly.get(i)
        s = c if s is None else s + c
        if s:
            self.poly[i] = s
        else:
            self.poly.pop(i, None)

    def _add_term(self, r: int, d: int, a: int, npoly: list) -> None:
        """Add an arithmetic term with arbitrary offset, folding it into canonical shape."""
        if d < 1:
            raise ValueError("term step must be >= 1")
        npoly = _poly_trim(list(npoly))
        if not npoly:
            return
        r_can = r % d
        s0 = (r - r_can) // d
        if s0:
            npoly = _sub_progression(npoly, a, 1, -s0)
            self._write_boundary(r_can, d, a, npoly, s0)
        self._merge_term((r_can, d, a), npoly)

    def _write_boundary(self, r: int, d: int, a: int, npoly: list, s: int) -> None:
        """The Laurent corrections of moving a term's start from n = s to
        n = 0, given its reindexed polynomial: minus its values at
        0 <= n < s, or plus those at s <= n < 0."""
        for n in range(min(s, 0), max(s, 0)):
            v = _poly_eval(npoly, n)
            if v:
                v = _shift(v, n * a)
                self._poly_add_at(n * d + r, -v if s > 0 else v)

    def _merge_term(self, key: tuple, npoly: list) -> None:
        merged = _poly_add(self.terms.get(key, []), npoly)
        if merged:
            self.terms[key] = merged
        else:
            self.terms.pop(key, None)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "RationalSeries":
        return RationalSeries()

    # -- linear structure ---------------------------------------------------

    def __add__(self, other: "RationalSeries") -> "RationalSeries":
        if not isinstance(other, RationalSeries):
            return NotImplemented
        out = RationalSeries()
        for series in (self, other):
            for i, c in series.poly.items():
                out._poly_add_at(i, c)
            for key, npoly in series.terms.items():
                out._merge_term(key, npoly)
        return out

    def __neg__(self) -> "RationalSeries":
        return self.map_coefficients(neg)

    def __sub__(self, other: "RationalSeries") -> "RationalSeries":
        if not isinstance(other, RationalSeries):
            return NotImplemented
        return self + (-other)

    def scale(self, c) -> "RationalSeries":
        """Multiply every coefficient by a ring element (or number)."""
        c = _coerce(c) if not isinstance(c, (int, Fraction)) else c
        return self.map_coefficients(lambda v: v * c)

    def map_coefficients(self, fn) -> "RationalSeries":
        out = RationalSeries()
        for i, v in self.poly.items():
            w = fn(v)
            if w:
                out.poly[i] = w
        for k, npoly in self.terms.items():
            mapped = _poly_trim([fn(c) for c in npoly])
            if mapped:
                out.terms[k] = mapped
        return out

    def is_zero(self) -> bool:
        return not self.poly and not self.terms

    # -- expansions -----------------------------------------------------------

    def coefficient(self, i: int):
        """Coefficient of T^i in the expansion at T = 0."""
        return _terms_coefficient(self.terms, i, self.poly.get(i, 0), True)

    def __eq__(self, other):
        if not isinstance(other, RationalSeries):
            return NotImplemented
        step = lcm(*(d for (_r, d, _a) in self.terms), *(d for (_r, d, _a) in other.terms))
        pa, ta = self.poly, self._refined(step)
        pb, tb = other.poly, other._refined(step)
        if set(pa) != set(pb) or set(ta) != set(tb):
            return False
        if any(pa[i] != pb[i] for i in pa):
            return False
        for k in ta:
            x, y = ta[k], tb[k]
            if len(x) != len(y) or any(u != v for u, v in zip(x, y)):
                return False
        return True

    def __hash__(self):
        # equality refines the terms but compares the Laurent exponents as they are
        return hash(frozenset(self.poly))

    def _refined(self, step: int) -> dict:
        """The terms rewritten at the common step."""
        out = RationalSeries()
        for (r, d, a), npoly in self.terms.items():
            k_ratio = step // d
            for j in range(k_ratio):
                out._merge_term((r + j * d, step, a * k_ratio), _sub_progression(npoly, a, k_ratio, j))
        return out.terms

    def __repr__(self):
        bits = [f"poly={{{', '.join(f'{i}: {c!r}' for i, c in sorted(self.poly.items()))}}}"]
        for (r, d, a) in sorted(self.terms):
            bits.append(f"term(r={r}, d={d}, a={a}, p={self.terms[(r, d, a)]!r})")
        return "RationalSeries(" + "; ".join(bits) + ")"


# ---------------------------------------------------------------------------
# normalization of num / prod (1 - L^a T^b)
# ---------------------------------------------------------------------------


def _lifted_numerator(num: dict, den: list, residue_zero: bool = False):
    """rs_normalize's preamble: num over factors that all share one step.

    ``num`` maps T-exponents to coefficients; each (a, b) in ``den`` is a
    factor 1 - L^a T^b with b != 0 (negative b is converted by the unit
    rewrite 1 - L^a T^-b' = -L^a T^-b' (1 - L^-a T^b')).  With d the lcm of
    the steps, each factor is lifted to 1 - L^{ak} T^d, k = d/b, by
    multiplying num by 1 + L^a T^b + ... + L^{a(k-1)} T^{b(k-1)}.

    Returns (work, exps, d): the lifted numerator, the sorted exponents ak
    and the common step (exps empty and d = 1 without factors or with a
    zero numerator).  With ``residue_zero`` the last lift keeps only the
    exponents divisible by d, which is all lambda_of_fraction reads.
    """
    work = {int(i): v for i, c in num.items() if (v := _coerce(c))}
    factors: list[tuple[int, int]] = []
    for (a, b) in den:
        a, b = int(a), int(b)
        if b == 0:
            raise ValueError("denominator factor needs b != 0")
        if b < 0:
            work = {i - b: -_shift(c, -a) for i, c in work.items()}
            a, b = -a, -b
        factors.append((a, b))
    if not work or not factors:
        return work, [], 1

    d = lcm(*(b for (_a, b) in factors))
    last = max((n for n, (_a, b) in enumerate(factors) if b != d), default=-1)
    exps = []
    for n, (a, b) in enumerate(factors):
        k = d // b
        if k > 1:
            keep_zero = residue_zero and n == last
            nxt: dict = {}
            for i, c in work.items():
                if keep_zero:
                    # the one j with i + b j = 0 (mod d), if any
                    if i % b:
                        continue
                    js: range | tuple = ((-i // b) % k,)
                else:
                    js = range(k)
                for j in js:
                    key = i + b * j
                    v = _shift(c, a * j) if j else c
                    cur = nxt.get(key)
                    if cur is not None:
                        v = cur + v
                    if v:
                        nxt[key] = v
                    else:
                        nxt.pop(key, None)
            work = nxt
        exps.append(a * k)
    exps.sort()
    return work, exps, d


def rs_normalize(num: dict, den: list[tuple[int, int]]) -> RationalSeries:
    """Canonicalize num / prod (1 - L^a T^b) into a RationalSeries.

    ``num`` maps T-exponents to coefficients; each (a, b) in ``den`` is a
    factor 1 - L^a T^b with b != 0 (see _lifted_numerator).
    """
    work, exps, d = _lifted_numerator(num, den)
    if not work:
        return RationalSeries.zero()
    if not exps:
        return RationalSeries(poly=work)
    slices: dict = {}  # residue r -> num_s, each in the order of work
    for i, c in work.items():
        slices.setdefault(i % d, {})[i // d] = c
    out = RationalSeries()
    for r in sorted(slices):
        _reduce_single_step(out, slices[r], exps, r, d)
    return out


def lambda_of_fraction(num: dict, den: list[tuple[int, int]]):
    """lambda_functional(rs_normalize(num, den)), without building the series.

    A canonical term has offset 0 <= r < d, so lambda is the T^0 coefficient
    of the Laurent part, which only the boundary values of the residue
    slice r = 0 of the common step can write.  A proper slice writes none
    (_reduce_single_step), so lambda is zero; an improper one is reduced by
    the same operations in the same order as in rs_normalize, so the value is
    identical, denominators included.
    """
    work, exps, d = _lifted_numerator(num, den, residue_zero=True)
    if not exps:
        return lambda_functional(RationalSeries(poly=work))
    out = RationalSeries()
    num_s = {i // d: c for i, c in work.items() if i % d == 0}
    if not all(0 <= s < len(exps) for s in num_s):
        _reduce_single_step(out, num_s, exps, 0, d)
    return lambda_functional(out)


def _reduce_single_step(out: RationalSeries, num_s: dict, exps: list, r: int, d: int) -> None:
    """Partial fractions of num_s(S) / prod (1 - L^A S) at step d, offset r.

    ``exps`` is sorted.  Each entry c S^s of a leaf is reindexed to start at
    n = 0 and merged into the terms.  A slice is proper when 0 <= s <
    len(exps) for every s: then the leaves' quasi-polynomials give the
    coefficient of S^n for every n >= 0, so the boundary values of the
    reindexing, at n d + r for n < s where no other slice writes, cancel and
    are not written.  An improper slice writes them (_write_boundary) before
    each merge.
    """
    proper = all(0 <= s < len(exps) for s in num_s)
    for a, base, mult in _partial_fractions(tuple(exps)):
        for s, c in num_s.items():
            c = c if mult is None else c * mult
            npoly = _sub_progression([c * x for x in base], a, 1, -s)
            if not proper:
                out._write_boundary(r, d, a, npoly, s)
            out._merge_term((r, d, a), npoly)


@lru_cache(maxsize=1024)
def _partial_fractions(exps: tuple) -> tuple:
    """1 / prod (1 - L^A S) over exps as a sum of mult * base(n) (L^a S)^n.

    Leaves (a, base, mult) come in the order of the recursive split of one
    pair of distinct factors at a time,
    1/((1-L^A S)(1-L^B S)) = (L^A - L^B)^{-1} (L^A/(1-L^A S) - L^B/(1-L^B S)),
    with base the binomial polynomial of the leaf's multiplicity and mult the
    product of the lifts on the way (None for no lift).
    """
    distinct = sorted(set(exps))
    if len(distinct) == 1:
        return ((distinct[0], tuple(_binom_poly(len(exps))), None),)
    a, b = distinct[0], distinct[1]
    rest = list(exps)
    rest.remove(a)
    rest_b = list(exps)
    rest_b.remove(b)
    lift_a = MotiveFrac(MotiveClass.lpow(a), [(a, b)])
    lift_b = -MotiveFrac(MotiveClass.lpow(b), [(a, b)])
    return tuple(
        (leaf_a, base, lift if mult is None else lift * mult)
        for lift, sub in ((lift_a, rest_b), (lift_b, rest))
        for leaf_a, base, mult in _partial_fractions(tuple(sub))
    )


# ---------------------------------------------------------------------------
# expansions, tau, Hadamard, lambda
# ---------------------------------------------------------------------------


def exp_t(series: RationalSeries, i_min: int, i_max: int) -> list:
    """Coefficients of T^i, i_min <= i <= i_max, of the expansion at T = 0."""
    if i_min > i_max:
        raise ValueError("empty window")
    return [series.coefficient(i) for i in range(i_min, i_max + 1)]


class TwoSidedExpansion:
    """The image of a series under tau: arithmetic terms extended to all n in Z."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        self.terms = terms

    def coefficient(self, i: int):
        return _terms_coefficient(self.terms, i, 0, False)


def _terms_coefficient(terms: dict, i: int, acc, from_zero: bool):
    """acc plus the terms' coefficient of T^i, read at n >= 0 only or at every n."""
    for (r, d, a), npoly in terms.items():
        n, rem = divmod(i - r, d)
        if not rem and (n >= 0 or not from_zero):
            v = _poly_eval(npoly, n)
            if v:
                acc = acc + _shift(v, n * a)
    return _coerce(acc)


def tau(series: RationalSeries) -> TwoSidedExpansion:
    """Extend every arithmetic term over all integers n; polynomials map to 0."""
    return TwoSidedExpansion({k: list(v) for k, v in series.terms.items()})


def hadamard(phi: RationalSeries, psi: RationalSeries) -> RationalSeries:
    """Coefficientwise product of the expansions at T = 0, in closed form."""
    out = RationalSeries()
    # polynomial x (polynomial + terms)
    for i, c in phi.poly.items():
        v = psi.coefficient(i)
        if c and v:
            out._poly_add_at(i, c * v)
    # terms x polynomial (the poly x poly block is already counted above)
    for i, c in psi.poly.items():
        v = phi.coefficient(i) - phi.poly.get(i, 0)
        if c and v:
            out._poly_add_at(i, v * c)
    # terms x terms: intersect arithmetic progressions
    for (r1, d1, a1), p1 in phi.terms.items():
        for (r2, d2, a2), p2 in psi.terms.items():
            sol = _crt(r1, d1, r2, d2)
            if sol is None:
                continue
            i0, step = sol
            k1, j1 = step // d1, (i0 - r1) // d1
            k2, j2 = step // d2, (i0 - r2) // d2
            q = _poly_mul(_sub_progression(p1, a1, k1, j1), _sub_progression(p2, a2, k2, j2))
            if q:
                out._merge_term((i0, step, k1 * a1 + k2 * a2), q)
    return out


def _crt(r1: int, d1: int, r2: int, d2: int):
    """Least nonnegative i with i = r1 mod d1 and i = r2 mod d2, or None."""
    g = gcd(d1, d2)
    if (r2 - r1) % g:
        return None
    period = d1 * d2 // g
    # i = r1 + d1 * t,  d1 t = r2 - r1 (mod d2)
    d1g, d2g = d1 // g, d2 // g
    t = ((r2 - r1) // g * pow(d1g, -1, d2g)) % d2g
    i0 = (r1 + d1 * t) % period
    return i0, period


def lambda_functional(series: RationalSeries):
    """Constant term of the expansion at T = infinity of the same rational function.

    That expansion is the Laurent part minus the tau-extension of each term
    to n < 0.  A canonical term meets T^0 only at n0 = -r/d, and its offset
    satisfies 0 <= r < d, so n0 is never negative: the constant term is the
    Laurent part's T^0 coefficient.  Without a T^0 entry, as on the zero
    series, which carries no ring to read, it is the MotiveFrac zero.
    """
    return _coerce(series.poly.get(0, 0))


# ---------------------------------------------------------------------------
# twists, prefix sums and independent expansions (the last used for checks)
# ---------------------------------------------------------------------------


def twist(series: RationalSeries, k: int) -> RationalSeries:
    """The series at L^k T: coefficient i times L^{k i}.

    A term (r, d, a) becomes (r, d, a + k d) with its polynomial times L^{k r};
    distinct keys stay distinct and offsets stay below d, so it is canonical.
    """
    out = RationalSeries()
    out.poly = {i: _shift(c, k * i) for i, c in series.poly.items()}
    out.terms = {
        (r, d, a + k * d): [_shift(c, k * r) for c in npoly]
        for (r, d, a), npoly in series.terms.items()
    }
    return out


@lru_cache(maxsize=64)
def _faulhaber(j: int) -> list[Fraction]:
    """Polynomial F_j with F_j(N) = sum_{n=0..N} n^j; F_j(-1) = 0.

    The a = 0 form of _prefix_poly's recurrence: coefficient i of
    F_j(N) - F_j(N-1) = N^j reads (i+1) F_{j,i+1} = [i = j] +
    sum_{t > i+1} F_{j,t} C(t,i) (-1)^(t-i), solved from the top degree
    down; F_{j,0} then makes F_j(-1) = 0.
    """
    f = [Fraction(0)] * (j + 2)
    for i in range(j, -1, -1):
        lag = sum(f[t] * comb(t, i) * (-1) ** (t - i) for t in range(i + 2, j + 2))
        f[i + 1] = Fraction(lag + (i == j), i + 1)
    f[0] = -_poly_eval(f, -1)
    return f


def _prefix_poly(p: list, a: int) -> list:
    """q with q(N) L^{Na} - q(N-1) L^{(N-1)a} = p(N) L^{Na}.

    Then sum_{n=0..N} p(n) L^{na} = q(N) L^{Na} - q(-1) L^{-a}.  For a != 0,
    coefficient j of the equation reads q_j (1 - L^{-a}) = p_j + L^{-a} comp_j
    with comp_j = sum_{t > j} q_t C(t,j) (-1)^(t-j), solved from the top
    degree down.  For a = 0, q = sum_j p_j F_j (_faulhaber), so q(-1) = 0.
    """
    if not a:
        q: list = []
        for j, c in enumerate(p):
            if c:
                q = _poly_add(q, _poly_trim([x * c for x in _faulhaber(j)]))
        return q
    q = [0] * len(p)
    for j in range(len(p) - 1, -1, -1):
        comp = None
        for t in range(j + 1, len(q)):
            if q[t]:
                x = q[t] * (comb(t, j) * (-1) ** (t - j))
                comp = x if comp is None else comp + x
        res = p[j] if comp is None else p[j] + _shift(comp, -a)
        if res:
            q[j] = _shift(res, a).div_lpow_diff(a, 0)
    return _poly_trim(q)


def prefix_sums(series: RationalSeries) -> RationalSeries:
    """The series divided by (1 - T): coefficientwise prefix sums.

    Requires the support to be bounded below (true for every canonical
    series) and represents sums from the bottom of the support; closed
    form per term through its prefix polynomial q (_prefix_poly).  The sums
    are one list of additions (d, a, r, plain, lagged), in the order of
    one-by-one addition: a term (r, d, a) adds plain at the offsets
    rho >= r of (d, a) and lagged at rho < r, and a Laurent entry c T^i and
    a term's nonzero constant -L^{-a} q(-1) each add (1, 0, 0, [c], []).
    c T^i is the term (i, 1, 0, [c]) moved to start at n = 0, so its Laurent
    corrections, -c at T^0 ... T^{i-1}, are written first (_write_boundary).
    Each (d, a) group of additions is summed at once (_grouped_prefix_sums);
    when a group declines, the same additions are merged one at a time.
    """
    if any(i < 0 for i in series.poly):
        raise ValueError("prefix sums need support in nonnegative degrees")
    out = RationalSeries()
    adds = []
    for i, c in series.poly.items():
        out._write_boundary(0, 1, 0, [c], i)
        adds.append((1, 0, 0, [c], []))
    for (r, d, a), npoly in series.terms.items():
        q = _prefix_poly(npoly, a)
        const = -_shift(_poly_eval(q, -1), -a)  # zero at a = 0
        # offsets rho < r read the lagged sum; with r = 0 there are none
        adds.append((d, a, r, q, _sub_progression(q, a, 1, -1) if r else []))
        if const:
            adds.append((1, 0, 0, [const], []))
    terms = _grouped_prefix_sums(adds)
    if terms is not None:
        out.terms = terms
        return out
    for d, a, r, plain, lagged in adds:
        for rho in range(d):
            shifted = lagged if rho < r else plain
            if shifted:
                out._merge_term((rho, d, a), shifted)
    return out


# ---------------------------------------------------------------------------
# sums of long chains of coefficients, with the bytes of one-by-one addition
# ---------------------------------------------------------------------------
#
# Adding MotiveFracs one by one, acc = acc + v, unions the denominators and
# lifts both sides at every step; the bytes of the result are nonetheless
# fixed by its value V: the denominator D is the union of the denominators
# added since the running sum was last zero, and the numerator is V * prod(D).
# So a chain of additions can be summed over one common denominator and
# divided down to D at the end; the running sums over the common
# denominator are exact, so a sum that vanishes on the way is seen.  When
# every lifted numerator is a packed integer class in L and their bounds sum
# below 2^62, the sums run on plain ints (motives._aligned): no digit of a
# partial sum carries, so an int is zero exactly when its class is, and
# motives._normal turns a sum back into a class.


def _grouped_prefix_sums(adds: list):
    """The terms of prefix_sums from its additions (d, a, r, plain, lagged),
    each (d, a) group summed at once by _staircase, or None when a group
    declines.

    One by one, a key enters its dict at its first nonzero addition and
    leaves it only when its sum empties; the staircase declines when a sum
    empties on the way and ends nonzero, so the keys keep the order of
    their first additions: by the index in ``adds`` of that addition, then
    by rho.
    """
    groups: dict = {}  # (d, a) -> (indices in adds, items (r, plain, lagged)), in order
    for n, (d, a, r, plain, lagged) in enumerate(adds):
        index, items = groups.setdefault((d, a), ([], []))
        index.append(n)
        items.append((r, plain, lagged))
    sums: dict = {}  # (index of its first addition, rho) -> (key, polynomial)
    for (d, a), (index, items) in groups.items():
        group = _staircase(items, d)
        if group is None:
            return None
        for rho, (first, npoly) in group.items():
            if npoly:
                sums[(index[first], rho)] = ((rho, d, a), npoly)
    return dict(sums[k] for k in sorted(sums))


def _reach(plain: list, lagged: list, op, unit) -> list:
    """Per offset rho < d = len(plain), op over plain[r] for r <= rho and
    lagged[r] for r > rho: a prefix pass and a suffix pass."""
    after = list(accumulate(reversed(lagged[1:]), op, initial=unit))[::-1]
    return list(map(op, accumulate(plain, op), after))


def _bucket_dens(buckets: list, entries: list) -> list:
    """Per bucket of item indices, the union of the denominators of their
    entries (None for 0)."""
    out = []
    for bucket in buckets:
        den: tuple = ()
        for n in bucket:
            e = entries[n]
            if e is not None:
                den = _multiset_union(den, e.den)
        out.append(den)
    return out


def _staircase(items: list, d: int):
    """For each rho < d, the sum over items (r, plain, lagged), in order, of
    ``lagged if rho < r else plain``, as _poly_add would build it one at a time.

    An item's plain polynomial reaches the offsets rho >= r and its lagged
    one the offsets rho < r, so with the items bucketed by r, one prefix
    pass and one suffix pass over the buckets (_reach) give each offset's
    width, the first item that adds to it and, per coefficient slot, the
    union D of the denominators it adds.  By the rule for chains of
    additions, each slot lifts its nonzero entries once to the union of all
    the slot's denominators; each offset adds its lifted entries in item
    order, on ints when the slot packs (motives._aligned) and on classes
    otherwise, and moving from rho to rho + 1 changes only the entries of
    bucket rho + 1.  rho's numerator is an exact division of the lifted sum
    down to D.

    Returns {rho: (first, polynomial)} for the offsets that some item
    reaches, with first the index of the first item that adds to rho and []
    where the whole sum vanishes, or None when an entry is not a
    MotiveFrac, a running sum vanishes on the way and ends nonzero, or only
    some coefficients vanish at the end (then the caller adds one at a time).
    """
    count = len(items)
    buckets: list = [[] for _ in range(d)]  # item indices by r, in order
    wide = [[0] * d, [0] * d]  # per bucket: the widest plain and lagged polynomial
    first = [[count] * d, [count] * d]  # per bucket: the first item with one
    for n, (r, *pair) in enumerate(items):
        buckets[r].append(n)
        for side, poly in enumerate(pair):
            if len(poly) > wide[side][r]:
                wide[side][r] = len(poly)
            if poly and first[side][r] == count:
                first[side][r] = n
    widths = _reach(*wide, max, 0)
    firsts = _reach(*first, min, count)
    polys: dict = {rho: [] for rho in range(d) if widths[rho]}
    vanishing: dict = dict.fromkeys(polys, 0)  # slots whose sum ends at zero
    for j in range(max(widths)):
        # per item its plain entries at j, then its lagged ones; None for 0
        entries = [p[j] if len(p) > j and p[j] else None for _r, p, _l in items]
        entries += [p[j] if len(p) > j and p[j] else None for _r, _p, p in items]
        present = [e for e in entries if e is not None]
        if not set(map(type, present)) <= {MotiveFrac}:
            return None
        distinct = {e.den for e in present}
        den_all: tuple = ()
        for den in distinct:
            den_all = _multiset_union(den_all, den)
        dens = _reach(
            _bucket_dens(buckets, entries[:count]),
            _bucket_dens(buckets, entries[count:]),
            _multiset_union,
            (),
        )
        # each entry lifted to den_all, by one factor per denominator
        lifts = {den: _product(_multiset_sub(den_all, den)) for den in distinct if den != den_all}
        lifted = [e.num * lifts[e.den] if e.den in lifts else e.num for e in present]
        aligned = _aligned(lifted)
        if aligned is not None:
            lifted, lo, bound = aligned
        nonzero = iter(lifted)
        values = [0 if e is None else next(nonzero) for e in entries]  # 0 for no entry
        walk = values[count:]  # rho's entries: plain from bucket r <= rho, lagged after
        for rho in range(d):
            for n in buckets[rho]:
                walk[n] = values[n]
            if j >= widths[rho]:
                continue
            sums = list(accumulate(filter(None, walk)))
            total = sums[-1] if sums else 0
            if not total:
                # harmless only when the whole offset ends at zero (its key leaves)
                vanishing[rho] += 1
                polys[rho].append(MotiveFrac.zero())
                continue
            if not all(sums):
                return None  # the sum restarted its D on the way
            acc = total if aligned is None else _normal(total, lo, bound)
            for (fa, fb) in _multiset_sub(den_all, dens[rho]):
                acc = divide_by_l_diff(acc, fa, fb)
            polys[rho].append(MotiveFrac._fast(acc, dens[rho]))
    for rho, zeros in vanishing.items():
        if zeros == widths[rho]:
            polys[rho] = []
        elif zeros:
            return None
    return {rho: (firsts[rho], npoly) for rho, npoly in polys.items()}


def expand_fraction(num: dict, den: list, i_min: int, i_max: int) -> list:
    """Long-division expansion at T = 0 of num / prod (1 - L^a T^b); a check oracle."""
    work = {int(i): v for i, c in num.items() if (v := _coerce(c))}
    for (a, b) in den:
        if b < 0:
            work = {i - b: -_shift(c, -a) for i, c in work.items()}
            a, b = -a, -b
        if not work:
            break
        lo = min(work)
        q: dict = {}
        for i in range(lo, i_max + 1):
            v = work.get(i, 0)
            prev = q.get(i - b, 0)
            if prev:
                v = v + _shift(prev, a)
            if v:
                q[i] = v
        work = q
    return [_coerce(work.get(i, 0)) for i in range(i_min, i_max + 1)]


def expand_fraction_at_infinity(num: dict, den: list, i_min: int, i_max: int) -> list:
    """Long-division expansion at T = infinity of num / prod (1 - L^a T^b): the
    expansion at U = 0 of the same fraction in U = 1/T, read backwards."""
    num_u = {-int(i): c for i, c in num.items()}
    return expand_fraction(num_u, [(a, -b) for (a, b) in den], -i_max, -i_min)[::-1]
