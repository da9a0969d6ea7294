import copy
import dataclasses
import json
import pickle
import random
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from pathlib import Path

import pytest

from motivint.arcs import (
    GeometryError,
    MonomialGeometry,
    _diag_fermat_sum,
    _lattice_sum,
    _passes,
    _ts_direct_strata,
    big_d,
    char_integral,
    exp_coefficient,
    exp_series,
    measure_gt,
    measure_series,
    measure_total,
    ts_check,
    _diag_tail,
    _diag_tail_seed,
    ts_direct_exp_coefficient,
    ts_direct_zeta,
    ts_direct_zeta_series,
    zeta_series,
)
from motivint.characters import Character, characters_of_order_dividing
from motivint.gaussring import UElement
from motivint.jsonio import motive_frac_to_json, uelement_to_json
from motivint.motives import MotiveClass, MotiveFrac, fermat_torus_class
from motivint.series import exp_t, hadamard

from helpers import ff_char_arc_sum, ff_total_measure, random_geometry

L = MotiveClass.lpow
TRIV = Character.trivial()
HALF = Character(Fraction(1, 2))
THIRD = Character(Fraction(1, 3))

X1 = MonomialGeometry.make(1, [1], None, [1])
X2 = MonomialGeometry.make(1, [2], None, [1])
Y3 = MonomialGeometry.make(1, [3], None, [1])


def test_geometry_validation():
    with pytest.raises(GeometryError, match="ambient dimension must be >= 1"):
        MonomialGeometry.make(0, [], None, [])
    with pytest.raises(GeometryError, match="exponent vectors must have length m"):
        MonomialGeometry.make(2, [1], None, [1])
    with pytest.raises(GeometryError, match="index set must be nonempty"):
        MonomialGeometry.make(1, [1], None, [])
    with pytest.raises(GeometryError, match="indices must lie in 1..m"):
        MonomialGeometry.make(1, [1], None, [2])
    with pytest.raises(GeometryError, match="positive f-exponent"):
        MonomialGeometry.make(2, [1, 0], None, [2])  # w-index without f-exponent
    # a constant f fails here too: W is nonempty and inside the support of f
    with pytest.raises(GeometryError, match="positive f-exponent"):
        MonomialGeometry.make(2, [0, 0], None, [1])
    with pytest.raises(GeometryError, match="exponents must be nonnegative"):
        MonomialGeometry.make(1, [-1], None, [1])
    with pytest.raises(GeometryError, match="contact order must be nonnegative"):
        char_integral(X1, TRIV, -1)
    # measure_gt refuses the order before any stratum or tail level is formed
    with pytest.raises(GeometryError, match="contact order must be nonnegative"):
        ts_direct_exp_coefficient(X2, Y3, -1)


def test_geometry_is_checked_at_construction():
    with pytest.raises(GeometryError, match="positive f-exponent"):
        MonomialGeometry(1, (0,), (0,), frozenset({1}))


def test_char_integral_examples():
    assert char_integral(X2, HALF, 4) == MotiveFrac((L(1) - 1).shift(-3))
    assert char_integral(X2, HALF, 3) == 0
    for i in range(8):
        assert char_integral(X2, THIRD, i) == 0


def test_char_integral_vanishes_at_zero_order():
    assert char_integral(X2, TRIV, 0) == 0
    geom = MonomialGeometry.make(2, [1, 2], None, [1])
    assert char_integral(geom, TRIV, 0) == 0


def test_char_integral_finite_field_oracle_dim1():
    # q = 3 and q = 5, f = x^2, quadratic and trivial characters
    for q, alpha in [(3, TRIV), (3, HALF), (5, HALF)]:
        for i in (2, 4):
            got = char_integral(X2, alpha, i)
            want = ff_char_arc_sum(X2, q, alpha, i, level=4)
            assert abs(complex(got.eval_l(Fraction(q))) - want) < 1e-9, (q, alpha, i)
        # odd orders are empty
        assert abs(ff_char_arc_sum(X2, q, alpha, 3, level=4)) < 1e-12


def test_char_integral_finite_field_oracle_character_kill():
    # order-4 character against f = x^2 over F_5: motivic side is 0 and the
    # finite-field sum cancels to 0 as well
    quarter = Character(Fraction(1, 4))
    assert char_integral(X2, quarter, 2) == 0
    assert abs(ff_char_arc_sum(X2, 5, quarter, 2, level=3)) < 1e-9


def test_char_integral_finite_field_oracle_dim2():
    # f = x y^2, W = {x = 0}, over F_3: exercises the union indicator with a
    # coordinate not in W and with a g-twist on the support
    geom = MonomialGeometry.make(2, [1, 2], None, [1])
    for i in (1, 2, 3):
        got = char_integral(geom, TRIV, i)
        want = ff_char_arc_sum(geom, 3, TRIV, i, level=3)
        assert abs(complex(got.eval_l(Fraction(3))) - want) < 1e-9, i
    twisted = MonomialGeometry.make(2, [1, 2], [0, 1], [1])
    for i in (1, 2):
        got = char_integral(twisted, TRIV, i)
        want = ff_char_arc_sum(twisted, 3, TRIV, i, level=3)
        assert abs(complex(got.eval_l(Fraction(3))) - want) < 1e-9, i


def test_char_integral_finite_field_oracle_union():
    # W a genuine union of two hyperplanes: inclusion-exclusion path
    geom = MonomialGeometry.make(2, [1, 1], None, [1, 2])
    for i in (1, 2, 3):
        got = char_integral(geom, TRIV, i)
        want = ff_char_arc_sum(geom, 3, TRIV, i, level=3)
        assert abs(complex(got.eval_l(Fraction(3))) - want) < 1e-9, i


def test_char_integral_free_coordinate():
    # f = x^2 in the plane, W = {x = 0}: the y-coordinate contributes a
    # geometric factor summing to 1 (untwisted), so values match the 1-dim case
    geom = MonomialGeometry.make(2, [2, 0], None, [1])
    for i in (2, 4):
        assert char_integral(geom, HALF, i) == char_integral(X2, HALF, i)
    want = ff_char_arc_sum(geom, 3, TRIV, 2, level=3)
    assert abs(complex(char_integral(geom, TRIV, 2).eval_l(Fraction(3))) - want) < 1e-9


def test_char_integral_many_coordinates():
    # f = x1...x1200 with W = {x1 = 0}: the lattice walk keeps no frame per
    # coordinate, and the one contact vector of order 1, (1, 0, ..., 0), has
    # ord x1 = 1 and every other coordinate a unit
    m = 1200
    geom = MonomialGeometry.make(m, [1] * m, None, [1])
    assert char_integral(geom, TRIV, 1) == MotiveFrac(((L(1) - 1) * L(-1)) ** m * L(-1))


def _ref_lattice_sum(geom, i):
    """arcs._lattice_sum's walk as it was before it stopped at remaining
    order 0: every coordinate is walked, down to the last."""
    sup = geom.support
    *head, last = sup
    n_last, c_last = geom.f_exponents[last], 1 + geom.g_exponents[last]
    counts = {}
    stack = [(0, i, -len(sup), False)]
    while stack:
        pos, remaining, exp_acc, touched = stack.pop()
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


def test_lattice_walk_stopping_at_order_zero_keeps_every_class():
    rng = random.Random(4141)
    geoms = [random_geometry(rng, max_m=4, max_exp=4) for _ in range(150)]
    geoms.append(MonomialGeometry.make(40, [1] * 40, [0, 1] * 20, [1, 2, 40]))
    for geom in geoms:
        for i in range(9 if geom.m <= 4 else 3):
            got, want = _lattice_sum(geom, i), _ref_lattice_sum(geom, i)
            assert got == want and repr(got) == repr(want), (geom, i)


def test_zeta_series_examples():
    z = zeta_series(X2, HALF)
    for i in range(0, 13):
        assert exp_t(z, i, i)[0] == char_integral(X2, HALF, i)
    # (L-1) L^{-2} T / (1 - L^{-1} T) for f = x
    z1 = zeta_series(X1, TRIV)
    assert exp_t(z1, 1, 4) == [
        MotiveFrac((L(1) - 1).shift(-i - 1)) for i in range(1, 5)
    ]
    assert zeta_series(X1, HALF).is_zero()


def test_zeta_matches_char_integral_random():
    rng = random.Random(60)
    for _ in range(12):
        geom = random_geometry(rng, max_m=3, max_exp=5)
        for alpha in geom.characters():
            z = zeta_series(geom, alpha)
            for i in list(range(0, 8)) + [15, 30]:
                assert exp_t(z, i, i)[0] == char_integral(geom, alpha, i), (geom, alpha, i)


def test_vanishing_outside_big_d():
    rng = random.Random(61)
    for _ in range(6):
        geom = random_geometry(rng, max_m=3, max_exp=5)
        d = big_d(geom)
        probes = 0
        while probes < 20:
            den = rng.randint(2, 24)
            num = rng.randint(1, den - 1)
            alpha = Character(Fraction(num, den))
            if d % alpha.order == 0:
                continue
            probes += 1
            assert char_integral(geom, alpha, rng.randint(0, 12)) == 0


def test_big_d_examples():
    assert big_d(MonomialGeometry.make(2, [2, 3], None, [1])) == 6
    assert big_d(MonomialGeometry.make(1, [4], None, [1])) == 4
    assert big_d(MonomialGeometry.make(2, [1, 1], None, [1])) == 1


def test_measure_examples():
    assert measure_gt(X2, 3) == MotiveFrac(L(-2))
    assert measure_gt(X1, 0) == MotiveFrac(L(-1))
    # telescoping of the trivial-character integrals against the total
    total = MotiveFrac.zero()
    for j in range(1, 12):
        total = total + char_integral(X1, TRIV, j)
    assert measure_gt(X1, 11) + total == MotiveFrac(L(-1))


def test_measure_total_finite_field():
    for geom, q in [
        (X2, 5),
        (MonomialGeometry.make(2, [1, 1], None, [1, 2]), 3),
        (MonomialGeometry.make(2, [2, 0], None, [1]), 3),
        (MonomialGeometry.make(3, [1, 2, 1], None, [1, 3]), 3),
    ]:
        assert measure_total(geom).eval_l(Fraction(q)) == ff_total_measure(geom, q)


def test_measure_telescoping_invariant():
    rng = random.Random(77)
    for _ in range(8):
        geom = random_geometry(rng)
        acc = MotiveFrac.zero()
        total = measure_total(geom)
        for i in range(0, 9):
            acc = acc + char_integral(geom, TRIV, i)
            assert measure_gt(geom, i) + acc == total, (geom, i)


def test_measure_series_identity():
    for geom in [X1, X2, MonomialGeometry.make(2, [1, 2], [1, 0], [1])]:
        ms = measure_series(geom)
        assert exp_t(ms, 0, 0)[0] == 0
        for i in range(1, 10):
            assert exp_t(ms, i, i)[0] == measure_gt(geom, i), (geom, i)


def test_exp_coefficient_examples():
    for i in range(1, 6):
        assert not exp_coefficient(X1, i)
    assert exp_coefficient(X2, 2) == UElement(0, {HALF: MotiveFrac(L(-2))})
    assert exp_coefficient(X2, 1) == UElement(MotiveFrac(L(-1)))


def test_exp_series_matches_coefficients():
    for geom in [X1, X2, Y3, MonomialGeometry.make(2, [2, 2], None, [1])]:
        es = exp_series(geom)
        for i in range(1, 12):
            assert exp_t(es, i, i)[0] == exp_coefficient(geom, i)
    assert exp_series(X1).is_zero()


# -- products of two geometries -------------------------------------------------


def test_ts_direct_zeta_linear_pair():
    # f = x, f' = y: after the coordinate change z = x + y this is a smooth
    # linear function on the plane based at the origin
    for i in (1, 2, 3, 6):
        got = ts_direct_zeta(X1, X1, TRIV, i)
        assert got == MotiveFrac((L(1) - 1).shift(-i - 2)), i


def test_ts_direct_zeta_parity():
    for i in (1, 3, 5, 9):
        assert ts_direct_zeta(X2, X2, HALF, i) == 0


def test_ts_direct_zeta_character_kill():
    fifth = Character(Fraction(1, 5))
    for i in (1, 2, 4):
        assert ts_direct_zeta(X2, Y3, fifth, i) == 0


def test_ts_direct_zeta_series_matches_per_order_strata():
    # the closed form against the per-order strata, which sum the tail one
    # order at a time; every character of order dividing lcm(gcd f, gcd f')
    rng = random.Random(1515)
    pairs = [(random_geometry(rng, 2, 4), random_geometry(rng, 2, 4)) for _ in range(60)]
    geoms = [g for pair in pairs for g in pair]
    assert any(any(g.g_exponents) for g in geoms)
    assert any(g.free_positions for g in geoms)
    assert any(len(g.w_indices) < len(g.support) for g in geoms)
    lm1 = L(1) - 1
    for left, right in pairs:
        closed = ts_direct_zeta_series(left, right)
        orders = lcm(left.order_gcd, right.order_gcd)
        assert list(closed) == characters_of_order_dividing(orders)
        for alpha, series in closed.items():
            for i in range(21):
                assert series.coefficient(i) == ts_direct_zeta(left, right, alpha, i), (
                    left, right, alpha, i,
                )
        zz = hadamard(zeta_series(left, TRIV), zeta_series(right, TRIV))
        fsum = _diag_fermat_sum(left, right, TRIV)
        tail = _diag_tail(zz - zz.scale(MotiveFrac(fsum, [(1, 0)])))
        for i in range(25):
            want = MotiveFrac.zero()
            for k in range(1, i):
                want = want + (_diag_tail_seed(left, right, k) * lm1).mul_lpow(k - i)
            assert tail.coefficient(i) == want, (left, right, i)


def test_ts_product_path_hand_values():
    for j in (1, 2, 3):
        even = exp_coefficient(X2, 2 * j) * exp_coefficient(X2, 2 * j)
        assert even == UElement(MotiveFrac(L(-2 * j - 1)))
        odd = exp_coefficient(X2, 2 * j + 1) * exp_coefficient(X2, 2 * j + 1)
        assert odd == UElement(MotiveFrac(L(-2 * j - 2)))


def test_ts_check_zero_pair():
    report = ts_check(X1, X1, 10)
    assert report.ok
    for i in (1, 4, 9):
        assert not ts_direct_exp_coefficient(X1, X1, i)


def test_ts_check_small_matrix():
    for a in (1, 2, 3):
        for b in (2, 3):
            left = MonomialGeometry.make(1, [a], None, [1])
            right = MonomialGeometry.make(1, [b], None, [1])
            report = ts_check(left, right, 15)
            assert report.ok, (a, b, report.failures)


def test_ts_check_with_twists():
    left = MonomialGeometry.make(1, [2], [1], [1])
    right = MonomialGeometry.make(1, [3], [2], [1])
    assert ts_check(left, right, 12).ok


def test_ts_check_rejects_bad_imax():
    with pytest.raises(GeometryError):
        ts_check(X1, X1, 0)


def test_exp_series_hadamard_is_product_path():
    # the coefficientwise product of the exponential series, taken at the
    # series level over the Gauss-sum ring, reproduces the per-order products
    for left, right in [(X2, Y3), (X2, X2)]:
        h = hadamard(exp_series(left), exp_series(right))
        for i in range(0, 12):
            want = exp_coefficient(left, i) * exp_coefficient(right, i) if i else UElement.zero()
            assert exp_t(h, i, i)[0] == want, (left, right, i)


def _fields(geom):
    return (geom.m, geom.f_exponents, geom.g_exponents, geom.w_indices)


def test_geometry_hash_and_equality_follow_the_four_fields():
    rng = random.Random(1717)
    geoms = [random_geometry(rng, 3, 4) for _ in range(80)]
    for geom in geoms:
        hash(geom)  # the hash is cached before the copies are made
        bumped = tuple(n + 1 for n in geom.g_exponents)
        for other in (
            geom,
            copy.copy(geom),
            pickle.loads(pickle.dumps(geom)),
            dataclasses.replace(geom),
            dataclasses.replace(geom, g_exponents=bumped),
        ):
            assert hash(other) == hash(_fields(other))
            assert (other == geom) == (_fields(other) == _fields(geom))
            assert other.order_gcd == gcd(*other.f_exponents)
            assert other.support == tuple(j for j, n in enumerate(other.f_exponents) if n)
    for a in geoms[:20]:
        for b in geoms:
            assert (a == b) == (_fields(a) == _fields(b))
            if a == b:
                assert hash(a) == hash(b)


def _full_loop_fermat_sum(left, right, alpha):
    """The Fermat sum over every character of order dividing gcd f, one try each."""
    total = MotiveClass.zero()
    for a1 in characters_of_order_dividing(left.order_gcd):
        a2 = alpha * a1.inverse()
        if right.order_gcd % a2.order == 0:
            total = total + fermat_torus_class(a1.inverse(), a2.inverse())
    return total


def _twisted_with_gcd(rng, d):
    m = rng.randint(1, 2)
    f_exp = [d * rng.randint(1, 2) for _ in range(m)]
    g_exp = [rng.randint(0, 2) for _ in range(m)]
    g_exp[0] = max(g_exp[0], 1)
    return MonomialGeometry.make(m, f_exp, g_exp, rng.sample(range(1, m + 1), rng.randint(1, m)))


def test_diag_fermat_sum_walks_only_the_passing_coset():
    pairs = [
        (MonomialGeometry.make(1, [a], [cl], [1]), MonomialGeometry.make(1, [b], [cr], [1]))
        for a in range(1, 7)
        for b in range(1, 7)
        for cl, cr in [(0, 0), (1, 0), (0, 2), (2, 1)]
    ]
    rng = random.Random(1718)
    pairs += [
        (_twisted_with_gcd(rng, rng.randint(1, 8)), _twisted_with_gcd(rng, rng.randint(1, 8)))
        for _ in range(40)
    ]
    assert sum(1 for left, right in pairs[-40:] if left.order_gcd > 1 and right.order_gcd > 1) > 20
    for left, right in pairs:
        # characters of order dividing 2 lcm(gcd f, gcd f') include ones that meet no side
        for alpha in characters_of_order_dividing(2 * lcm(left.order_gcd, right.order_gcd)):
            want = _full_loop_fermat_sum(left, right, alpha)
            got = _diag_fermat_sum(left, right, alpha)
            assert got == want and repr(got) == repr(want), (left, right, alpha)


# -- the direct path as it was while it re-summed its tail at every order ------
# Kept verbatim, renamed, as the byte reference of the running tail sums and of
# the one Gauss-ring encoder.


def _ref_exp_coefficient(geom: MonomialGeometry, i: int) -> UElement:
    """Coefficient of the exponential series: measure part plus Gauss-twisted characters."""
    base = char_integral(geom, Character.trivial(), i)
    scaled = base.div_lpow_diff(1, 0)
    gauss = {}
    for alpha in geom.characters():
        if not alpha.is_trivial():
            gauss[alpha.inverse()] = scaled
    return UElement(measure_gt(geom, i) - scaled, gauss)


@lru_cache(maxsize=1 << 15)
def _ref_diag_tail_seed(left: MonomialGeometry, right: MonomialGeometry, k: int) -> MotiveFrac:
    """Total of the equal-order-k stratum over ord (f+f') > k; vanishing cancellation tail."""
    trivial = Character.trivial()
    prod = char_integral(left, trivial, k) * char_integral(right, trivial, k)
    fsum = _diag_fermat_sum(left, right, trivial)
    return prod - (prod * fsum).div_lpow_diff(1, 0) if fsum else prod


def _ref_ts_direct_strata(left: MonomialGeometry, right: MonomialGeometry, i: int) -> dict:
    """Character integrals of the sum geometry at order i, stratified by factor orders."""
    if i < 0:
        raise GeometryError("contact order must be nonnegative")
    trivial = Character.trivial()
    c_left, c_right = char_integral(left, trivial, i), char_integral(right, trivial, i)
    off_left, off_right = c_left * measure_gt(right, i), c_right * measure_gt(left, i)
    prod, zero, lm1 = c_left * c_right, MotiveFrac.zero(), MotiveClass.lpow(1) - 1
    out = {}
    for alpha in characters_of_order_dividing(lcm(left.order_gcd, right.order_gcd)):
        value = off_left if _passes(left, alpha) else zero
        value = value + (off_right if _passes(right, alpha) else zero)
        fsum = _diag_fermat_sum(left, right, alpha)
        if fsum:
            value = value + (prod * fsum).div_lpow_diff(1, 0)
        if alpha.is_trivial():
            for k in range(1, i):
                seed = _ref_diag_tail_seed(left, right, k)
                if seed:
                    value = value + (seed * lm1).mul_lpow(-(i - k))
        out[alpha] = value
    return out


def _ref_ts_direct_measure_gt(left: MonomialGeometry, right: MonomialGeometry, i: int) -> MotiveFrac:
    """Measure of arcs from the product base with ord (f+f') > i, computed directly."""
    out = measure_gt(left, i) * measure_gt(right, i)
    for k in range(1, i + 1):
        seed = _ref_diag_tail_seed(left, right, k)
        if seed:
            out = out + seed.mul_lpow(-(i - k))
    return out


def _ref_ts_direct_exp_coefficient(
    left: MonomialGeometry, right: MonomialGeometry, i: int
) -> UElement:
    """Exponential coefficient of the sum geometry assembled from direct strata."""
    strata = _ref_ts_direct_strata(left, right, i)
    scalar = _ref_ts_direct_measure_gt(left, right, i)
    scalar = scalar - strata.pop(Character.trivial()).div_lpow_diff(1, 0)
    gauss = {alpha.inverse(): c.div_lpow_diff(1, 0) for alpha, c in strata.items() if c}
    return UElement(scalar, gauss)


def _direct_bytes(left, right, i, strata, ts_exp_coefficient) -> str:
    measure, integrals = strata(left, right, i)
    return json.dumps([
        motive_frac_to_json(measure),
        [[str(a), motive_frac_to_json(z)] for a, z in integrals.items()],
        uelement_to_json(ts_exp_coefficient(left, right, i)),
    ])


def _ref_strata(left, right, i):
    return _ref_ts_direct_measure_gt(left, right, i), _ref_ts_direct_strata(left, right, i)


def test_direct_path_keeps_the_bytes_of_the_per_order_tail_sums(monkeypatch):
    # the criterion-6 pairs and the benchmark's 2-d pairs up to order 30,
    # pairs with free coordinates up to 15 and twisted pairs up to 7
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    from benchlib.inputs import ts_pairs

    line = [
        (MonomialGeometry.make(1, [a], [cl], [1]), MonomialGeometry.make(1, [b], [cr], [1]), 30)
        for a in range(1, 7)
        for b in range(1, 7)
        for cl, cr in [(0, 0), (1, 0), (0, 2), (2, 1)]
    ]
    two_d = [(left, right, 30) for left, right in ts_pairs()[-4:]]
    assert all(left.m == 2 for left, _right, _i in two_d)
    rng = random.Random(1919)
    free = []
    while len(free) < 12:
        left, right = random_geometry(rng, 3, 3), random_geometry(rng, 2, 3)
        if left.free_positions or right.free_positions:
            free.append((left, right, 15))
    twisted = [
        (_twisted_with_gcd(rng, rng.randint(1, 3)), _twisted_with_gcd(rng, rng.randint(1, 3)), 7)
        for _ in range(12)
    ]
    cases = line + two_d + free + twisted
    for left, right, i_max in cases:
        for i in range(i_max + 1):
            got = _direct_bytes(left, right, i, _ts_direct_strata, ts_direct_exp_coefficient)
            want = _direct_bytes(left, right, i, _ref_strata, _ref_ts_direct_exp_coefficient)
            assert got == want, (left, right, i)
    orders = {}
    for left, right, i_max in cases:
        for geom in (left, right):
            orders[geom] = max(orders.get(geom, 0), i_max)
    for geom, i_max in orders.items():
        for i in range(i_max + 1):
            got, want = exp_coefficient(geom, i), _ref_exp_coefficient(geom, i)
            assert json.dumps(uelement_to_json(got)) == json.dumps(uelement_to_json(want))
