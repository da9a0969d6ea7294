"""Motivic integrals over arcs of monomial normal-crossings data on affine space.

The data is f = prod x_j^{n_j}, an optional twist g = prod x_j^{m_j}, and
W the union of the coordinate hyperplanes x_i = 0 for i in a nonempty index
set contained in the support of f.  Arcs based on W stratify by the vector
of contact orders gamma = (ord_t x_j); on each stratum the leading
coefficients sweep a torus, so every integral reduces to a lattice sum of
powers of L times torus classes.  The exponential coefficients live in the
Gauss-sum ring; their multiplicativity over f (+) f' is checked against a
direct stratum-by-stratum computation of the product geometry that never
assumes multiplicativity.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import gcd, lcm

from .characters import Character, _characters_of_order_dividing, characters_of_order_dividing
from .gaussring import UElement, from_characters
from .motives import MotiveClass, MotiveFrac, fermat_torus_class
from .series import RationalSeries, hadamard, prefix_sums, rs_normalize, twist


class GeometryError(ValueError):
    """Raised for data violating the monomial normal-crossings invariants."""


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)  # bool is an int subclass


@dataclass(frozen=True)
class MonomialGeometry:
    """Ambient dimension, exponents of f and g, and the hyperplane index set.

    ``w_indices`` is 1-based; every index i in it must have f-exponent >= 1,
    so that the hyperplane union is contained in the zero locus of f.  The
    invariants are checked once, at construction, so every geometry is valid.
    """

    m: int
    f_exponents: tuple[int, ...]
    g_exponents: tuple[int, ...]
    w_indices: frozenset[int]

    @staticmethod
    def make(m, f_exponents, g_exponents=None, w_indices=()) -> "MonomialGeometry":
        f_exp = tuple(f_exponents)
        g_exp = tuple(g_exponents) if g_exponents is not None else (0,) * len(f_exp)
        return MonomialGeometry(m, f_exp, g_exp, frozenset(w_indices))

    def __post_init__(self) -> None:
        if not all(map(_is_int, (self.m, *self.f_exponents, *self.g_exponents, *self.w_indices))):
            raise GeometryError("dimension, exponents and hyperplane indices must be integers")
        if self.m < 1:
            raise GeometryError("ambient dimension must be >= 1")
        if len(self.f_exponents) != self.m or len(self.g_exponents) != self.m:
            raise GeometryError("exponent vectors must have length m")
        if any(n < 0 for n in self.f_exponents + self.g_exponents):
            raise GeometryError("exponents must be nonnegative")
        if not self.w_indices:
            raise GeometryError("the hyperplane index set must be nonempty")
        if not self.w_indices <= set(range(1, self.m + 1)):
            raise GeometryError("hyperplane indices must lie in 1..m")
        if any(self.f_exponents[i - 1] < 1 for i in self.w_indices):
            raise GeometryError("each chosen hyperplane needs a positive f-exponent")
        if not any(self.f_exponents):
            raise GeometryError("f must be nonconstant")

    def __hash__(self) -> int:
        return self._hash

    # -- derived data, each computed once per geometry --------------------

    @cached_property
    def _hash(self) -> int:
        """The dataclass hash of the four fields; geometries key every memo."""
        return hash((self.m, self.f_exponents, self.g_exponents, self.w_indices))

    @cached_property
    def support(self) -> tuple[int, ...]:
        """0-based positions with positive f-exponent."""
        return tuple(j for j, n in enumerate(self.f_exponents) if n >= 1)

    @cached_property
    def free_positions(self) -> tuple[int, ...]:
        """0-based positions with zero f-exponent (unconstrained contact order)."""
        return tuple(j for j, n in enumerate(self.f_exponents) if n == 0)

    @cached_property
    def order_gcd(self) -> int:
        return gcd(*self.f_exponents)

    def characters(self) -> list[Character]:
        """All characters that can meet f: order dividing gcd of the exponents."""
        return characters_of_order_dividing(self.order_gcd)


def big_d(geom: MonomialGeometry) -> int:
    """lcm of the nonzero f-exponents; characters of order not dividing it vanish."""
    return lcm(*(n for n in geom.f_exponents if n))


def _passes(geom: MonomialGeometry, alpha: Character) -> bool:
    """Whether alpha pulls back trivially along the leading monomial of f."""
    return geom.order_gcd % alpha.order == 0


# Memo bounds.  Entries keyed by a geometry (its free factor, zeta fraction
# and measure levels) or by a pair of them (its tail levels) are read again
# within one request or one run of levels i = 1, 2, ..., so a few dozen are
# enough.  Entries keyed by a contact order or a character are read again by
# the higher levels of the same Thom-Sebastiani pair, and 1 << 15 holds those
# of the pairs checked last.
_PER_GEOMETRY = 64
_PER_COEFFICIENT = 1 << 15


def _coordinate_measure(c: int) -> MotiveFrac:
    """Measure of the arcs on one coordinate weighted by L^{-c ord}: (L-1) L^{c-1}/(L^c - 1)."""
    return MotiveFrac((MotiveClass.lpow(1) - 1) * MotiveClass.lpow(c - 1), [(c, 0)])


@lru_cache(maxsize=_PER_GEOMETRY)
def _free_factor(geom: MonomialGeometry) -> MotiveFrac:
    """Contribution of coordinates outside the support of f, summed over all orders."""
    out = MotiveFrac.one()
    for j in geom.free_positions:
        out = out * _coordinate_measure(1 + geom.g_exponents[j])
    return out


@lru_cache(maxsize=_PER_COEFFICIENT)
def _lattice_sum(geom: MonomialGeometry, i: int) -> MotiveClass:
    """Sum over contact orders on the support with total f-order i, based on W.

    The orders of all support coordinates but the last are walked with an
    explicit stack; the remaining f-order then fixes the last one, if any.
    Once the remaining f-order is 0, every later order is 0.
    """
    sup = geom.support
    *head, last = sup
    n_last, c_last = geom.f_exponents[last], 1 + geom.g_exponents[last]
    counts: dict = {}
    stack = [(0, i, -len(sup), False)]
    while stack:
        pos, remaining, exp_acc, touched = stack.pop()
        if not remaining:
            if touched:
                counts[exp_acc] = counts.get(exp_acc, 0) + 1
            continue
        if pos == len(head):
            k, rest = divmod(remaining, n_last)
            if not rest and (touched or (k >= 1 and (last + 1) in geom.w_indices)):
                e = exp_acc - k * c_last
                counts[e] = counts.get(e, 0) + 1
            continue
        j = head[pos]
        n_j, c_j, in_w = geom.f_exponents[j], 1 + geom.g_exponents[j], (j + 1) in geom.w_indices
        for k in range(remaining // n_j + 1):
            stack.append(
                (pos + 1, remaining - k * n_j, exp_acc - k * c_j, touched or (k >= 1 and in_w))
            )
    total = MotiveClass({(e, e): c for e, c in counts.items()})
    return total * (MotiveClass.lpow(1) - 1) ** len(sup)


def char_integral(geom: MonomialGeometry, alpha: Character, i: int) -> MotiveFrac:
    """Integral of alpha(ac f) L^{-ord g} over arcs from W with ord f = i."""
    if i < 0:
        raise GeometryError("contact order must be nonnegative")
    if not _passes(geom, alpha):
        return MotiveFrac.zero()
    return _free_factor(geom) * _lattice_sum(geom, i)


@lru_cache(maxsize=_PER_GEOMETRY)
def _zeta_fraction(geom: MonomialGeometry) -> tuple[tuple, tuple]:
    """Numerator/denominator of the character zeta series before normalization."""
    sup = geom.support
    den = tuple((-(1 + geom.g_exponents[j]), geom.f_exponents[j]) for j in sup)
    lm1 = MotiveClass.lpow(1) - 1
    base = _free_factor(geom) * (lm1 ** len(sup)).shift(-len(sup))
    # base * (1 - prod over j in W of (1 - L^{-c_j} T^{n_j})), one coordinate at a time
    units = {0: MotiveClass.one()}
    for j in sup:
        if (j + 1) in geom.w_indices:
            n, c = geom.f_exponents[j], 1 + geom.g_exponents[j]
            step = dict(units)
            for t, cls in units.items():
                step[t + n] = step.get(t + n, MotiveClass.zero()) - cls.shift(-c)
            units = step
    num = {t: base * -cls for t, cls in units.items() if t and cls}
    return tuple(sorted(num.items())), den


def zeta_series(geom: MonomialGeometry, alpha: Character) -> RationalSeries:
    """Generating series over i > 0 of char_integral(geom, alpha, i).

    The closed form is common to all characters that pass the leading monomial.
    """
    if not _passes(geom, alpha):
        return RationalSeries.zero()
    num, den = _zeta_fraction(geom)
    return rs_normalize(dict(num), list(den))


def measure_total(geom: MonomialGeometry) -> MotiveFrac:
    """The g-twisted motivic measure of all arcs based on W.

    All arcs less those on which every x_j, j in W, is a unit: there the
    one-coordinate measure of x_j gives way to that of ord x_j = 0, (L-1)/L.
    """
    unit = MotiveFrac((MotiveClass.lpow(1) - 1).shift(-1))
    every = off_w = MotiveFrac.one()
    for j in geom.support:
        mu = _coordinate_measure(1 + geom.g_exponents[j])
        every = every * mu
        off_w = off_w * (unit if (j + 1) in geom.w_indices else mu)
    return _free_factor(geom) * (every - off_w)


@lru_cache(maxsize=_PER_GEOMETRY)
def _measure_levels(geom: MonomialGeometry) -> list[MotiveFrac]:
    """[measure_gt(geom, 0), measure_gt(geom, 1), ...], grown by measure_gt."""
    return [measure_total(geom)]


def measure_gt(geom: MonomialGeometry, i: int) -> MotiveFrac:
    """The g-twisted measure of arcs from W with ord f > i.

    Levels are cached per geometry and computed upward from the highest one
    cached, each removing the stratum ord f = k from the level below.
    """
    levels = _measure_levels(geom)
    if i < 0:
        raise GeometryError("contact order must be nonnegative")
    while len(levels) <= i:
        levels.append(levels[-1] - char_integral(geom, Character.trivial(), len(levels)))
    return levels[i]


def measure_series(geom: MonomialGeometry) -> RationalSeries:
    """Generating series over i > 0 of measure_gt(geom, i).

    On each contact stratum the tail indicator sums to (T - T^{ord f})/(1 - T),
    so the whole series is (M0 T - Z(T))/(1 - T) with M0 the full measure;
    the division by 1 - T is a termwise prefix sum.
    """
    return _measure_from_zeta(geom, zeta_series(geom, Character.trivial()))


def _measure_from_zeta(geom: MonomialGeometry, zeta: RationalSeries) -> RationalSeries:
    """(M0 T - Z(T))/(1 - T), given Z = zeta_series(geom, trivial)."""
    return prefix_sums(RationalSeries(poly={1: measure_total(geom)}) - zeta)


def _exp_element(measure: MotiveFrac, integrals: dict) -> UElement:
    """Equality (1.2.2) at one order: the measure of ord f > i plus
    sum_alpha G_{alpha^{-1}} Z_alpha(i)/(L-1), from alpha -> Z_alpha(i)."""
    return from_characters({a: z.div_lpow_diff(1, 0) for a, z in integrals.items()}, measure)


def exp_coefficient(geom: MonomialGeometry, i: int) -> UElement:
    """Coefficient of the exponential series; every character of geom shares one integral."""
    base = char_integral(geom, Character.trivial(), i)
    return _exp_element(measure_gt(geom, i), dict.fromkeys(geom.characters(), base))


def exp_series(geom: MonomialGeometry) -> RationalSeries:
    """Closed form over the Gauss-sum ring of the exponential coefficients, i > 0."""
    # (1.2.2) with every integral 1, applied to the zeta series' coefficients
    twist = _exp_element(MotiveFrac.zero(), dict.fromkeys(geom.characters(), MotiveFrac.one()))
    zeta = zeta_series(geom, Character.trivial())
    z_u = zeta.map_coefficients(lambda c: twist * c)
    p_u = _measure_from_zeta(geom, zeta).map_coefficients(UElement)
    return p_u + z_u


# ---------------------------------------------------------------------------
# the direct (stratum-by-stratum) computation for a sum f (+) f'
# ---------------------------------------------------------------------------


@lru_cache(maxsize=_PER_COEFFICIENT)
def _diag_fermat_sum(left: MonomialGeometry, right: MonomialGeometry, alpha: Character) -> MotiveClass:
    """Sum of Fermat-torus classes over factorizations alpha = a1 * a2 meeting both sides.

    With g, g' the gcds of f, f' and h = gcd(g, g'), only alpha = t / lcm(g, g')
    factors at all, and a1 = k/g leaves a2 = alpha * a1^-1 of order dividing g'
    exactly when k g'/h = t modulo g/h: one residue class of k, walked upward.
    """
    g_left, g_right = left.order_gcd, right.order_gcd
    h = gcd(g_left, g_right)
    step, both = g_left // h, g_left * g_right // h
    total = MotiveClass.zero()
    if both % alpha.order:
        return total
    t = both // alpha.order * alpha._num
    left_chars = _characters_of_order_dividing(g_left)
    for k in range(t * pow(g_right // h, -1, step) % step, g_left, step):
        a1 = left_chars[k]
        a2 = alpha * a1.inverse()
        total = total + fermat_torus_class(a1.inverse(), a2.inverse())
    return total


def _diag_tail_seed(left: MonomialGeometry, right: MonomialGeometry, k: int) -> MotiveFrac:
    """Total of the equal-order-k stratum over ord (f+f') > k; vanishing cancellation tail."""
    trivial = Character.trivial()
    prod = char_integral(left, trivial, k) * char_integral(right, trivial, k)
    fsum = _diag_fermat_sum(left, right, trivial)
    return prod - (prod * fsum).div_lpow_diff(1, 0) if fsum else prod


@lru_cache(maxsize=_PER_GEOMETRY)
def _diag_tail_levels(left: MonomialGeometry, right: MonomialGeometry) -> list[MotiveFrac]:
    """[V_0, V_1, ...] with V_0 = 0 and V_i = V_{i-1} L^{-1} + _diag_tail_seed(i),
    the sum over 0 < k <= i of seed_k L^{k-i}; grown by _ts_direct_strata."""
    return [MotiveFrac.zero()]


def ts_direct_zeta(
    left: MonomialGeometry, right: MonomialGeometry, alpha: Character, i: int
) -> MotiveFrac:
    """Character integral of the sum geometry at order i (see _ts_direct_strata)."""
    return _ts_direct_strata(left, right, i)[1].get(alpha, MotiveFrac.zero())


def _ts_direct_strata(
    left: MonomialGeometry, right: MonomialGeometry, i: int
) -> tuple[MotiveFrac, dict]:
    """Measure of ord (f+f') > i and the character integrals at order i, by factor orders.

    The strata are formed once: off-diagonal ones carry the leading coefficient
    of the smaller-order factor, the equal-order-i one the product of both.
    Each character of order dividing lcm(gcd f, gcd f') weighs them by whether
    it passes each factor and by its Fermat-torus class sum; equal orders below
    i contribute only for the trivial character, through a geometric tail with
    ratio 1/L read off the pair's running sums V.  Every other character
    integrates to zero.
    """
    if i < 0:
        raise GeometryError("contact order must be nonnegative")
    levels = _diag_tail_levels(left, right)
    while len(levels) <= i:
        levels.append(levels[-1].mul_lpow(-1) + _diag_tail_seed(left, right, len(levels)))
    trivial = Character.trivial()
    m_left, m_right = measure_gt(left, i), measure_gt(right, i)
    c_left, c_right = char_integral(left, trivial, i), char_integral(right, trivial, i)
    off_left, off_right = c_left * m_right, c_right * m_left
    prod, zero = c_left * c_right, MotiveFrac.zero()
    out = {}
    for alpha in characters_of_order_dividing(lcm(left.order_gcd, right.order_gcd)):
        value = off_left if _passes(left, alpha) else zero
        value = value + (off_right if _passes(right, alpha) else zero)
        fsum = _diag_fermat_sum(left, right, alpha)
        if fsum:
            value = value + (prod * fsum).div_lpow_diff(1, 0)
        if alpha.is_trivial() and i:
            value = value + levels[i - 1].mul_lpow(-1) * (MotiveClass.lpow(1) - 1)
        out[alpha] = value
    return m_left * m_right + levels[i], out


def ts_direct_zeta_series(left: MonomialGeometry, right: MonomialGeometry) -> dict:
    """Generating series over i > 0 of ts_direct_zeta, for every character at once.

    The strata of _ts_direct_strata in closed form: Hadamard products of the
    factors' zeta series with each other (equal orders) and with their measure
    series (off-diagonal), and the trivial character's 1/L-geometric tail.
    """
    trivial = Character.trivial()
    z_l, z_r = zeta_series(left, trivial), zeta_series(right, trivial)
    zz = hadamard(z_l, z_r)
    off_l = hadamard(z_l, _measure_from_zeta(right, z_r))
    off_r = hadamard(z_r, _measure_from_zeta(left, z_l))
    out = {}
    for alpha in characters_of_order_dividing(lcm(left.order_gcd, right.order_gcd)):
        value = off_l if _passes(left, alpha) else RationalSeries.zero()
        if _passes(right, alpha):
            value = value + off_r
        fsum = _diag_fermat_sum(left, right, alpha)
        if fsum:
            value = value + zz.scale(MotiveFrac(fsum, [(1, 0)]))
        if alpha.is_trivial():
            value = value + _diag_tail(left, right, zz)
        out[alpha] = value
    return out


def _diag_tail(
    left: MonomialGeometry, right: MonomialGeometry, zz: RationalSeries
) -> RationalSeries:
    """Sum over 0 < k < i of _diag_tail_seed(k) (L-1) L^{k-i} at T^i, given zz = Z_l * Z_r.

    With S the seed series at L T, the sum is the prefix sums of S less S, taken
    back at T / L.
    """
    fsum = _diag_fermat_sum(left, right, Character.trivial())
    seed = zz - zz.scale(MotiveFrac(fsum, [(1, 0)]))
    lifted = twist(seed, 1)
    return twist(prefix_sums(lifted) - lifted, -1).scale(MotiveClass.lpow(1) - 1)


def ts_direct_exp_coefficient(
    left: MonomialGeometry, right: MonomialGeometry, i: int
) -> UElement:
    """Exponential coefficient of the sum geometry assembled from direct strata."""
    return _exp_element(*_ts_direct_strata(left, right, i))


@dataclass
class TSReport:
    """Both paths' coefficients of f (+) f': rows (i, product, direct, equal), i = 1..i_max."""

    rows: list[tuple[int, UElement, UElement, bool]]

    @property
    def failures(self) -> list[int]:
        return [i for i, _product, _direct, equal in self.rows if not equal]

    @property
    def ok(self) -> bool:
        return not self.failures


def ts_check(left: MonomialGeometry, right: MonomialGeometry, i_max: int) -> TSReport:
    """Compare exp_coefficient(left) * exp_coefficient(right) with the direct path."""
    if i_max < 1:
        raise GeometryError("i_max must be >= 1")
    rows = []
    for i in range(1, i_max + 1):
        product = exp_coefficient(left, i) * exp_coefficient(right, i)
        direct = ts_direct_exp_coefficient(left, right, i)
        rows.append((i, product, direct, product == direct))
    return TSReport(rows)
