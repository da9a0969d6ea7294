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
from math import comb, gcd, factorial

from .gaussring import UElement
from .motives import MotiveClass, MotiveFrac


def _coerce(c):
    """Lift plain numbers and classes into MotiveFrac; pass ring elements through."""
    if isinstance(c, (MotiveFrac, UElement)):
        return c
    if isinstance(c, (int, Fraction, MotiveClass)):
        return MotiveFrac(c)
    raise TypeError(f"unsupported coefficient {c!r}")


def _lpow(k: int) -> MotiveFrac:
    return MotiveFrac(MotiveClass.lpow(k))


def _shift(c, k: int):
    """Multiply a ring element by L^k via the cheap grading shift."""
    if not k or not c:
        return c
    if isinstance(c, (MotiveFrac, UElement)):
        return c.mul_lpow(k)
    return _coerce(c).mul_lpow(k)


# ---------------------------------------------------------------------------
# polynomials in n with ring coefficients, as dense coefficient lists
# ---------------------------------------------------------------------------


def _poly_trim(p: list) -> list:
    while p and not p[-1]:
        p.pop()
    return p


def _poly_add(p: list, q: list) -> list:
    out = list(p) if len(p) >= len(q) else list(p) + [0] * (len(q) - len(p))
    for i, c in enumerate(q):
        out[i] = out[i] + c
    return _poly_trim(out)


def _poly_scale(p: list, c) -> list:
    if not c:
        return []
    return _poly_trim([x * c for x in p])


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
    acc = 0
    for c in reversed(p):
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
                out.append(0)
            out[s] = out[s] + c * w
    return _poly_trim(out)


def _binom_poly(k: int) -> list[Fraction]:
    """binom(n + k - 1, k - 1) = (n+1)(n+2)...(n+k-1)/(k-1)! as coefficients in n."""
    prod = [Fraction(1)]
    for t in range(1, k):
        prod = _poly_mul(prod, [Fraction(t), Fraction(1)])
    inv = Fraction(1, factorial(k - 1))
    return [c * inv for c in prod]


def _stirling2(j: int, t: int) -> int:
    if j == t == 0:
        return 1
    if j == 0 or t == 0 or t > j:
        return 0
    key = (j, t)
    hit = _stirling_cache.get(key)
    if hit is None:
        hit = t * _stirling2(j - 1, t) + _stirling2(j - 1, t - 1)
        _stirling_cache[key] = hit
    return hit


_stirling_cache: dict = {}


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
        s = self.poly.get(i, 0) + c
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
            # reindex n -> n + s0; boundary corrections land in the Laurent part
            npoly = _poly_trim([_shift(c, -s0 * a) for c in _poly_compose_affine(npoly, 1, -s0)])
            if s0 > 0:
                for n in range(0, s0):
                    v = _poly_eval(npoly, n)
                    if v:
                        self._poly_add_at(n * d + r_can, -_shift(v, n * a))
            else:
                for n in range(s0, 0):
                    v = _poly_eval(npoly, n)
                    if v:
                        self._poly_add_at(n * d + r_can, _shift(v, n * a))
        key = (r_can, d, a)
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
        out.poly = dict(self.poly)
        out.terms = {k: list(v) for k, v in self.terms.items()}
        for i, c in other.poly.items():
            out._poly_add_at(i, c)
        for (r, d, a), npoly in other.terms.items():
            out._add_term(r, d, a, npoly)
        return out

    def __neg__(self) -> "RationalSeries":
        out = RationalSeries()
        out.poly = {i: -c for i, c in self.poly.items()}
        out.terms = {k: [-c for c in v] for k, v in self.terms.items()}
        return out

    def __sub__(self, other: "RationalSeries") -> "RationalSeries":
        if not isinstance(other, RationalSeries):
            return NotImplemented
        return self + (-other)

    def scale(self, c) -> "RationalSeries":
        """Multiply every coefficient by a ring element (or number)."""
        c = _coerce(c) if not isinstance(c, (int, Fraction)) else c
        out = RationalSeries()
        if not c:
            return out
        out.poly = {i: v * c for i, v in self.poly.items()}
        out.poly = {i: v for i, v in out.poly.items() if v}
        for k, npoly in self.terms.items():
            scaled = _poly_scale(npoly, c)
            if scaled:
                out.terms[k] = scaled
        return out

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
        acc = self.poly.get(i, 0)
        for (r, d, a), npoly in self.terms.items():
            if (i - r) % d == 0:
                n = (i - r) // d
                if n >= 0:
                    v = _poly_eval(npoly, n)
                    if v:
                        acc = acc + _shift(v, n * a)
        return _coerce(acc) if not isinstance(acc, (MotiveFrac, UElement)) else acc

    def __eq__(self, other):
        if not isinstance(other, RationalSeries):
            return NotImplemented
        ds = [d for (_r, d, _a) in self.terms] + [d for (_r, d, _a) in other.terms]
        step = 1
        for d in ds:
            step = step * d // gcd(step, d)
        pa, ta = self._refined(step)
        pb, tb = other._refined(step)
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
        return hash((len(self.poly), len(self.terms)))

    def _refined(self, step: int):
        """Rewrite all terms at the common step; returns (poly, terms at step)."""
        poly = dict(self.poly)
        terms: dict = {}
        for (r, d, a), npoly in self.terms.items():
            k_ratio = step // d
            for j in range(k_ratio):
                sub = _poly_trim([_shift(c, j * a) for c in _poly_compose_affine(npoly, k_ratio, j)])
                if not sub:
                    continue
                key = (r + j * d, step, a * k_ratio)
                merged = _poly_add(terms.get(key, []), sub)
                if merged:
                    terms[key] = merged
                else:
                    terms.pop(key, None)
        return poly, terms

    def __repr__(self):
        bits = [f"poly={{{', '.join(f'{i}: {c!r}' for i, c in sorted(self.poly.items()))}}}"]
        for (r, d, a) in sorted(self.terms):
            bits.append(f"term(r={r}, d={d}, a={a}, p={self.terms[(r, d, a)]!r})")
        return "RationalSeries(" + "; ".join(bits) + ")"


# ---------------------------------------------------------------------------
# normalization of num / prod (1 - L^a T^b)
# ---------------------------------------------------------------------------


def rs_normalize(num: dict, den: list[tuple[int, int]]) -> RationalSeries:
    """Canonicalize num / prod (1 - L^a T^b) into a RationalSeries.

    ``num`` maps T-exponents to coefficients; each (a, b) in ``den`` is a
    factor 1 - L^a T^b with b != 0 (negative b is converted by the unit
    rewrite 1 - L^a T^-b' = -L^a T^-b' (1 - L^-a T^b')).
    """
    work = {int(i): _coerce(c) for i, c in num.items() if _coerce(c)}
    factors: list[tuple[int, int]] = []
    for (a, b) in den:
        a, b = int(a), int(b)
        if b == 0:
            raise ValueError("denominator factor needs b != 0")
        if b < 0:
            work = {i - b: -_shift(c, -a) for i, c in work.items()}
            a, b = -a, -b
        factors.append((a, b))
    if not work:
        return RationalSeries.zero()
    if not factors:
        return RationalSeries(poly=work)

    # common step
    d = 1
    for (_a, b) in factors:
        d = d * b // gcd(d, b)
    exps = []
    for (a, b) in factors:
        k = d // b
        if k > 1:
            nxt: dict = {}
            for i, c in work.items():
                for j in range(k):
                    key = i + b * j
                    v = nxt.get(key, 0) + (_shift(c, a * j) if j else c)
                    if v:
                        nxt[key] = v
                    else:
                        nxt.pop(key, None)
            work = nxt
        exps.append(a * k)
    exps.sort()

    out = RationalSeries()
    for r in range(d):
        num_s = {(i - r) // d: c for i, c in work.items() if (i - r) % d == 0}
        if num_s:
            _reduce_single_step(out, num_s, exps, r, d)
    return out


def _reduce_single_step(out: RationalSeries, num_s: dict, exps: list, r: int, d: int) -> None:
    """Partial fractions of num_s(S) / prod (1 - L^A S) at step d, offset r."""
    distinct = sorted(set(exps))
    if not exps:
        for s, c in num_s.items():
            out._poly_add_at(s * d + r, c)
        return
    if len(distinct) == 1:
        a = distinct[0]
        k = len(exps)
        base = _binom_poly(k)
        for s, c in num_s.items():
            out._add_term(s * d + r, d, a, _poly_scale(base, c))
        return
    # split one pair of distinct factors via
    # 1/((1-L^A S)(1-L^B S)) = (L^A - L^B)^{-1} (L^A/(1-L^A S) - L^B/(1-L^B S))
    a, b = distinct[0], distinct[1]
    rest = list(exps)
    rest.remove(a)
    rest_b = list(exps)
    rest_b.remove(b)
    lift_a = MotiveFrac(MotiveClass.lpow(a), [(a, b)])
    lift_b = MotiveFrac(MotiveClass.lpow(b), [(a, b)])
    num_a = {s: c * lift_a for s, c in num_s.items()}
    num_b = {s: -(c * lift_b) for s, c in num_s.items()}
    _reduce_single_step(out, num_a, rest_b, r, d)
    _reduce_single_step(out, num_b, rest, r, d)


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
        acc = 0
        for (r, d, a), npoly in self.terms.items():
            if (i - r) % d == 0:
                n = (i - r) // d
                v = _poly_eval(npoly, n)
                if v:
                    acc = acc + _shift(v, n * a)
        return _coerce(acc) if not isinstance(acc, (MotiveFrac, UElement)) else acc

    def window(self, i_min: int, i_max: int) -> list:
        return [self.coefficient(i) for i in range(i_min, i_max + 1)]


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
            q = _poly_mul(
                _poly_compose_affine(p1, k1, j1), _poly_compose_affine(p2, k2, j2)
            )
            q = _poly_trim([_shift(c, j1 * a1 + j2 * a2) for c in q])
            if q:
                out._add_term(i0, step, k1 * a1 + k2 * a2, q)
    return out


def _crt(r1: int, d1: int, r2: int, d2: int):
    """Least nonnegative i with i = r1 mod d1 and i = r2 mod d2, or None."""
    g = gcd(d1, d2)
    if (r2 - r1) % g:
        return None
    lcm = d1 * d2 // g
    # i = r1 + d1 * t,  d1 t = r2 - r1 (mod d2)
    d1g, d2g = d1 // g, d2 // g
    t = ((r2 - r1) // g * pow(d1g, -1, d2g)) % d2g
    i0 = (r1 + d1 * t) % lcm
    return i0, lcm


def lambda_functional(series: RationalSeries):
    """Constant term of the expansion at T = infinity of the same rational function.

    Equals the constant coefficient of the Laurent part minus the tau-extension
    evaluated at the negative index hit by each term (difference of the two
    expansions); canonical terms only contribute through their corrections.
    """
    acc = series.poly.get(0, 0)
    for (r, d, a), npoly in series.terms.items():
        if (-r) % d == 0:
            n0 = -r // d
            if n0 < 0:
                v = _poly_eval(npoly, n0)
                if v:
                    acc = acc - _shift(v, n0 * a)
    return _coerce(acc) if not isinstance(acc, (MotiveFrac, UElement)) else acc


# ---------------------------------------------------------------------------
# back-conversion and independent expansions (used for products and checks)
# ---------------------------------------------------------------------------


def to_fraction(series: RationalSeries) -> tuple[dict, list]:
    """Rewrite the canonical form as (num, den) with den a list of (a, b) factors."""
    pieces: list[tuple[dict, list]] = []
    if series.poly:
        pieces.append((dict(series.poly), []))
    for (r, d, a), npoly in series.terms.items():
        # n^j in the binomial basis: n^j = sum_t S(j,t) t! binom(n,t),
        # and sum_n binom(n,t) X^n = X^t / (1-X)^{t+1} with X = L^a T^d.
        by_t: dict = {}
        for j, c in enumerate(npoly):
            if not c:
                continue
            for t in range(j + 1):
                w = _stirling2(j, t) * factorial(t)
                if w:
                    by_t[t] = by_t.get(t, 0) + c * w
        for t, c in by_t.items():
            if not c:
                continue
            num = {r + d * t: _shift(c, a * t)}
            pieces.append((num, [(a, d)] * (t + 1)))
    if not pieces:
        return {}, []
    den: list = []
    for (_num, fac) in pieces:
        den = _factor_union(den, fac)
    total: dict = {}
    for (numpart, fac) in pieces:
        missing = _factor_sub(den, fac)
        lifted = numpart
        for (a, b) in missing:
            nxt: dict = {}
            for i, c in lifted.items():
                for key, v in ((i, c), (i + b, -_shift(c, a))):
                    s = nxt.get(key, 0) + v
                    if s:
                        nxt[key] = s
                    else:
                        nxt.pop(key, None)
            lifted = nxt
        for i, c in lifted.items():
            s = total.get(i, 0) + c
            if s:
                total[i] = s
            else:
                total.pop(i, None)
    return total, den


def _factor_union(a: list, b: list) -> list:
    out = []
    for k in sorted(set(a) | set(b)):
        out.extend([k] * max(a.count(k), b.count(k)))
    return out


def _factor_sub(a: list, b: list) -> list:
    out = list(a)
    for k in b:
        out.remove(k)
    return out


def _faulhaber(j: int) -> list[Fraction]:
    """Polynomial F_j with F_j(N) = sum_{n=0..N} n^j; F_j(-1) = 0."""
    hit = _faulhaber_cache.get(j)
    if hit is not None:
        return hit
    # Lagrange interpolation through the j+2 nodes N = -1 .. j
    nodes = list(range(-1, j + 1))
    values = [Fraction(0)]  # empty sum at N = -1
    acc = Fraction(0)
    for n in range(0, j + 1):
        acc += Fraction(n) ** j if j else Fraction(1)
        values.append(acc)
    out = [Fraction(0)] * (j + 2)
    for k, xk in enumerate(nodes):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for l, xl in enumerate(nodes):
            if l == k:
                continue
            basis = _poly_mul(basis, [Fraction(-xl), Fraction(1)])
            denom *= Fraction(xk - xl)
        scale = values[k] / denom
        for i, c in enumerate(basis):
            out[i] += c * scale
    hit = _poly_trim(out)
    _faulhaber_cache[j] = hit
    return hit


_faulhaber_cache: dict = {}


def _geometric_prefix_poly(p: list, a: int) -> list:
    """q with q(N) L^{Na} - q(N-1) L^{(N-1)a} = p(N) L^{Na}, for a != 0.

    Then sum_{n=0..N} p(n) L^{na} = q(N) L^{Na} - q(-1) L^{-a}.
    """
    q: list = []
    res = list(p)
    while res:
        k = len(res) - 1
        c = _shift(res[k], a).div_lpow_diff(a, 0)
        while len(q) <= k:
            q.append(0)
        q[k] = q[k] + c
        qm1 = [_shift(x, -a) for x in _poly_compose_affine(q, 1, -1)]
        res = _poly_trim(_poly_add(p, [-x for x in _poly_add(q, [-y for y in qm1])]))
        if res and len(res) - 1 >= k + 1:
            raise AssertionError("geometric prefix solve failed to reduce degree")
    return _poly_trim(q)


def prefix_sums(series: RationalSeries) -> RationalSeries:
    """The series divided by (1 - T): coefficientwise prefix sums.

    Requires the support to be bounded below (true for every canonical
    series) and represents sums from the bottom of the support; closed
    form per term via geometric partial sums, Faulhaber polynomials for
    the L^0 direction.
    """
    out = RationalSeries()
    for i, c in series.poly.items():
        if i < 0:
            raise ValueError("prefix sums need support in nonnegative degrees")
        out._add_term(i, 1, 0, [c])
    for (r, d, a), npoly in series.terms.items():
        if a == 0:
            q: list = []
            for j, c in enumerate(npoly):
                if c:
                    q = _poly_add(q, _poly_scale(_faulhaber(j), c))
            const = None  # Faulhaber polynomials vanish at -1
        else:
            q = _geometric_prefix_poly(npoly, a)
            const = -_shift(_poly_eval(q, -1), -a)
        plain = _poly_trim(list(q))
        lagged = _poly_trim([_shift(x, -a) for x in _poly_compose_affine(q, 1, -1)])
        for rho in range(d):
            shifted = lagged if rho < r else plain
            if shifted:
                out._add_term(rho, d, a, shifted)
        if const is not None and const:
            out._add_term(0, 1, 0, [const])
    return out


def multiply(phi: RationalSeries, psi: RationalSeries) -> RationalSeries:
    """Ordinary (Cauchy) product of two rational series."""
    n1, d1 = to_fraction(phi)
    n2, d2 = to_fraction(psi)
    num: dict = {}
    for i, c in n1.items():
        for j, e in n2.items():
            s = num.get(i + j, 0) + c * e
            if s:
                num[i + j] = s
            else:
                num.pop(i + j, None)
    return rs_normalize(num, d1 + d2)


def expand_fraction(num: dict, den: list, i_min: int, i_max: int) -> list:
    """Long-division expansion at T = 0 of num / prod (1 - L^a T^b); a check oracle."""
    work = {int(i): _coerce(c) for i, c in num.items() if _coerce(c)}
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
    """Long-division expansion at T = infinity of num / prod (1 - L^a T^b)."""
    work = {int(i): _coerce(c) for i, c in num.items() if _coerce(c)}
    for (a, b) in den:
        if b < 0:
            work = {i - b: -_shift(c, -a) for i, c in work.items()}
            a, b = -a, -b
        # 1/(1 - L^a T^b) = -L^{-a} T^{-b} / (1 - L^{-a} T^{-b}) around infinity
        work = {i - b: -_shift(c, -a) for i, c in work.items()}
        if not work:
            break
        hi = max(work)
        q: dict = {}
        for i in range(hi, i_min - 1, -1):
            v = work.get(i, 0)
            prev = q.get(i + b, 0)
            if prev:
                v = v + _shift(prev, -a)
            if v:
                q[i] = v
        work = q
    return [_coerce(work.get(i, 0)) for i in range(i_min, i_max + 1)]
