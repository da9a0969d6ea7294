"""The arc measures as products over coordinates, against the subset sums.

``arcs.measure_total``, ``arcs._zeta_fraction`` and ``spectra.chi_c_w`` factor
over coordinates: the arcs based on W are all arcs minus those on which every
x_j, j in W, is a unit.  The reference functions below are the
inclusion-exclusion sums over the nonempty subsets of W that they replace,
kept verbatim.  Each adds all its terms over one common denominator, so the
products must give the same bytes.
"""

import random

from motivint.arcs import MonomialGeometry, _free_factor, _zeta_fraction, measure_total
from motivint.jsonio import motive_class_to_json, motive_frac_to_json
from motivint.motives import MotiveClass, MotiveFrac
from motivint.spectra import chi_c_w

from helpers import all_geometries, twisted_geometries


def _ref_zeta_fraction(geom: MonomialGeometry) -> tuple[tuple, tuple]:
    sup = geom.support
    den = tuple((-(1 + geom.g_exponents[j]), geom.f_exponents[j]) for j in sup)
    lm1 = MotiveClass.lpow(1) - 1
    base = _free_factor(geom) * (lm1 ** len(sup)).shift(-len(sup))
    w_pos = sorted(j for j in sup if (j + 1) in geom.w_indices)
    num: dict = {}
    for mask in range(1, 1 << len(w_pos)):
        sign = -1
        t_exp = 0
        shift = 0
        for b, j in enumerate(w_pos):
            if mask >> b & 1:
                sign = -sign
                t_exp += geom.f_exponents[j]
                shift -= 1 + geom.g_exponents[j]
        coeff = base.mul_lpow(shift) * sign
        cur = num.get(t_exp)
        num[t_exp] = coeff if cur is None else cur + coeff
    return tuple(sorted(num.items())), den


def _ref_measure_total(geom: MonomialGeometry) -> MotiveFrac:
    sup = geom.support
    lm1 = MotiveClass.lpow(1) - 1
    w_pos = sorted(j for j in sup if (j + 1) in geom.w_indices)
    total = MotiveFrac.zero()
    for mask in range(1, 1 << len(w_pos)):
        forced = {w_pos[b] for b in range(len(w_pos)) if mask >> b & 1}
        sign = -1 if len(forced) % 2 == 0 else 1
        piece = MotiveFrac.one()
        for j in sup:
            c = 1 + geom.g_exponents[j]
            start = c if j in forced else 0
            piece = piece * MotiveFrac(lm1 * MotiveClass.lpow(c - 1 - start), [(c, 0)])
        total = total + piece * sign
    return _free_factor(geom) * total


def _ref_chi_c_w(geom: MonomialGeometry) -> MotiveClass:
    w = sorted(geom.w_indices)
    total = MotiveClass.zero()
    for mask in range(1, 1 << len(w)):
        size = bin(mask).count("1")
        sign = 1 if size % 2 == 1 else -1
        total = total + MotiveClass.lpow(geom.m - size) * sign
    return total


def _fraction_bytes(num: tuple, den: tuple) -> tuple:
    """The nonzero numerator entries and the denominator, as JSON."""
    return [(t, motive_frac_to_json(c)) for t, c in num if c], den


def _assert_products_match(geoms) -> None:
    for geom in geoms:
        assert motive_frac_to_json(measure_total(geom)) == motive_frac_to_json(
            _ref_measure_total(geom)
        ), geom
        want = motive_class_to_json(_ref_chi_c_w(geom))
        assert motive_class_to_json(chi_c_w(geom)) == want, geom
        num, den = _zeta_fraction(geom)
        assert all(c for _t, c in num), geom
        assert _fraction_bytes(num, den) == _fraction_bytes(*_ref_zeta_fraction(geom)), geom


def test_products_match_subset_sums_criterion_7_and_twisted():
    geoms = list(all_geometries(3, 6)) + twisted_geometries(random.Random(1), 400)
    assert len(geoms) == 2380
    _assert_products_match(geoms)


def _wide_geometry(rng: random.Random) -> MonomialGeometry:
    """m <= 7, one coordinate free of f one time in four, W the whole support half the time."""
    m = rng.randint(1, 7)
    f_exp = [rng.randint(1, 5) for _ in range(m)]
    if m > 1 and rng.random() < 0.25:
        f_exp[rng.randrange(m)] = 0
    positive = [j + 1 for j, n in enumerate(f_exp) if n]
    if rng.random() < 0.5:
        w = positive
    else:
        w = rng.sample(positive, rng.randint(1, len(positive)))
    g_exp = [rng.choice([0, 0, 1, 2]) for _ in range(m)]
    return MonomialGeometry.make(m, f_exp, g_exp, w)


def test_products_match_subset_sums_wide_w():
    rng = random.Random(1313)
    geoms = [_wide_geometry(rng) for _ in range(200)]
    assert max(len(g.w_indices) for g in geoms) == 7
    _assert_products_match(geoms)


def test_cancelled_zeta_entry_is_dropped():
    # f = x y z^2, g = z: the subsets {z} and {x, y} of W both reach T^2 with
    # L^-2 and opposite signs, so the subset sum keeps a zero entry at T^2
    geom = MonomialGeometry.make(3, [1, 1, 2], [0, 0, 1], [1, 2, 3])
    ref_num, ref_den = _ref_zeta_fraction(geom)
    assert not dict(ref_num)[2]
    num, den = _zeta_fraction(geom)
    assert 2 not in dict(num)
    assert _fraction_bytes(num, den) == _fraction_bytes(ref_num, ref_den)
    want = motive_frac_to_json(_ref_measure_total(geom))
    assert motive_frac_to_json(measure_total(geom)) == want
