import random
from fractions import Fraction

import pytest

from motivint.arcs import MonomialGeometry, _zeta_fraction, exp_series, zeta_series
from motivint.characters import Character
from motivint.gaussring import UElement, u_mul
from motivint.invariants import brieskorn_spectra
from motivint.jsonio import motive_frac_to_json
from motivint.motives import MotiveClass, MotiveFrac
from motivint.series import lambda_functional
from motivint.spectra import (
    GeometryPointError,
    SpectrumPoly,
    brieskorn_oracle,
    chi_c_w,
    s_phi,
    s_psi,
    sg,
    sg_direct_product,
    sp,
    sp_from_sg,
)

from helpers import random_geometry

L = MotiveClass.lpow
TRIV = Character.trivial()
HALF = Character(Fraction(1, 2))
THIRD = Character(Fraction(1, 3))

X1 = MonomialGeometry.make(1, [1], None, [1])
X2 = MonomialGeometry.make(1, [2], None, [1])
Y3 = MonomialGeometry.make(1, [3], None, [1])
XY = MonomialGeometry.make(2, [1, 1], None, [1, 2])


def test_chi_c_w():
    assert chi_c_w(X1) == MotiveClass.one()
    assert chi_c_w(XY) == L(1) + L(1) - 1
    geom = MonomialGeometry.make(3, [1, 1, 1], None, [1, 2, 3])
    assert chi_c_w(geom) == 3 * L(2) - 3 * L(1) + 1


def test_s_psi_examples():
    for a, alpha in [(2, HALF), (2, TRIV), (1, TRIV), (5, Character(Fraction(2, 5)))]:
        geom = MonomialGeometry.make(1, [a], None, [1])
        assert s_psi(geom, alpha) == 1
    assert s_psi(X2, THIRD) == 0


def test_s_psi_matches_closed_form_route_bytes():
    # the old route: lambda of the closed-form zeta series
    from helpers import all_geometries, twisted_geometries

    geoms = list(all_geometries(3, 6))[::15] + twisted_geometries(random.Random(31), 40)
    for geom in geoms:
        for alpha in (TRIV, HALF, THIRD):
            lam = lambda_functional(zeta_series(geom, alpha))
            want = -(lam.mul_lpow(geom.m).div_lpow_diff(1, 0))
            assert motive_frac_to_json(s_psi(geom, alpha)) == motive_frac_to_json(want), (
                geom,
                alpha,
            )


def test_s_psi_from_limit_at_infinity():
    # the paper's definition: the limit of Z(T) at T = infinity is the ratio of
    # the leading coefficients of its fraction, num[sum b] / prod(-L^a), or 0
    from helpers import all_geometries, twisted_geometries

    geoms = list(all_geometries(3, 6)) + twisted_geometries(random.Random(32), 200)
    for geom in geoms:
        num, den = _zeta_fraction(geom)
        limit = dict(num).get(sum(b for _a, b in den), MotiveFrac.zero())
        for a, _b in den:
            limit = limit * MotiveFrac(L(-a) * -1)
        want = limit.mul_lpow(geom.m) * MotiveFrac(MotiveClass.one(), [(0, 1)])
        assert s_psi(geom, TRIV) == want, geom


def test_s_phi_examples():
    assert s_phi(X1, TRIV) == 0
    assert s_phi(X2, HALF) == 1
    assert s_phi(X2, TRIV) == 0


def test_s_phi_smooth_vanishes_for_every_character():
    for alpha in [TRIV, HALF, THIRD, Character(Fraction(3, 7))]:
        assert s_phi(X1, alpha) == 0


def test_sg_examples():
    assert sg(X2) == UElement.from_gauss(HALF)
    assert not sg(X1)
    assert sg(XY) == UElement(MotiveFrac(L(1)))
    assert sg(Y3) == UElement(0, {THIRD: MotiveFrac.one(), THIRD.inverse(): MotiveFrac.one()})


def test_lambda_exp_equals_sg():
    rng = random.Random(12)
    geoms = [X1, X2, Y3, XY]
    from helpers import random_geometry

    for _ in range(10):
        geoms.append(random_geometry(rng, max_m=3, max_exp=4))
    for geom in geoms:
        untwisted = MonomialGeometry.make(
            geom.m, geom.f_exponents, None, sorted(geom.w_indices)
        )
        lam = lambda_functional(exp_series(untwisted))
        assert lam == sg(untwisted).mul_lpow(-untwisted.m) * (-1), untwisted


def test_sp_examples():
    assert sp(X2) == SpectrumPoly({Fraction(1, 2): 1})
    assert sp(XY) == SpectrumPoly({Fraction(1): 1})
    prod = u_mul(sg(X2), sg(Y3))
    assert sp_from_sg(prod, 2) == SpectrumPoly({Fraction(5, 6): 1, Fraction(7, 6): 1})


def test_sp_preconditions():
    # origin support needs the full hyperplane set; a partial set is rejected
    with pytest.raises(GeometryPointError):
        sp(MonomialGeometry.make(2, [1, 1], None, [1]))
    with pytest.raises(GeometryPointError):
        sp(MonomialGeometry.make(3, [1, 2, 1], None, [1, 3]))


def test_sp_fractional_degree_error():
    bad = UElement(0, {HALF: MotiveFrac(MotiveClass.h(Fraction(1, 2), Fraction(1, 2)))})
    with pytest.raises(ValueError, match="fractional Hodge degree"):
        sp_from_sg(bad, 1)


def test_sp_non_integral_multiplicity_error():
    # integral Hodge degrees, but multiplicities 1/2 and -3/2
    for bad in [
        UElement(0, {HALF: MotiveFrac(MotiveClass.from_scalar(Fraction(1, 2)))}),
        UElement(MotiveFrac(MotiveClass.h(1, 1, Fraction(3, 2)))),
    ]:
        with pytest.raises(ValueError, match="non-integral multiplicity"):
            sp_from_sg(bad, 1)


def test_brieskorn_oracle_examples():
    assert brieskorn_oracle([2]) == SpectrumPoly({Fraction(1, 2): 1})
    assert brieskorn_oracle([2, 3]) == SpectrumPoly({Fraction(5, 6): 1, Fraction(7, 6): 1})
    assert brieskorn_oracle([2, 2, 2]) == SpectrumPoly({Fraction(3, 2): 1})
    with pytest.raises(ValueError):
        brieskorn_oracle([1])


def test_brieskorn_oracle_multiplicative():
    assert brieskorn_oracle([3, 4]) == brieskorn_oracle([3]) * brieskorn_oracle([4])


def test_spectra_from_sg_products():
    exponent_lists = ([2], [3], [4], [2, 2], [2, 5], [3, 3], [2, 3, 4], [6, 6])
    assert brieskorn_spectra(exponent_lists) is None


def test_spectrum_symmetry():
    for exps in ([2, 3], [4, 5], [2, 2, 3], [3, 4, 6]):
        spectrum = brieskorn_oracle(exps)
        assert spectrum.reflect(Fraction(len(exps))) == spectrum


def test_mts_u_level_direct_vs_product():
    # Twisted pairs are left out on purpose: sg of a twisted geometry lacks the
    # M0(g=0) - M0(g) correction of the twisted lambda(E) identity, so most of
    # them fail on either path.
    pairs = [
        (MonomialGeometry.make(1, [a], None, [1]), MonomialGeometry.make(1, [b], None, [1]))
        for a in range(1, 7)
        for b in range(1, 7)
    ]
    rng = random.Random(1516)
    untwisted = []
    while len(untwisted) < 160:
        g = random_geometry(rng, 2, 4)
        untwisted.append(MonomialGeometry.make(g.m, g.f_exponents, None, g.w_indices))
    assert any(g.free_positions for g in untwisted)
    assert any(len(g.w_indices) < len(g.support) for g in untwisted)
    pairs += list(zip(untwisted[::2], untwisted[1::2]))
    for left, right in pairs:
        direct = sg_direct_product(left, right)
        assert direct == u_mul(sg(left), sg(right)), (left, right)


def test_spectrum_poly_algebra():
    s = SpectrumPoly({Fraction(1, 2): 1, Fraction(3, 2): -1})
    t = SpectrumPoly({Fraction(1, 3): 2})
    assert (s * t).coeffs == {Fraction(5, 6): 2, Fraction(11, 6): -2}
    assert SpectrumPoly({Fraction(1): 0}) == SpectrumPoly({})
    assert not SpectrumPoly({})
