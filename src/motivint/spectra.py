"""Nearby/vanishing-cycle classes, their Gauss-twisted sum, and Hodge spectra.

The nearby-cycle class of a character is L^m/(1-L) times the constant term
at T = infinity of its zeta series; the vanishing version subtracts the
class of the hyperplane union at the trivial character.  Packing these into
the Gauss-sum ring gives the invariant that is multiplicative over sums
f (+) f', and whose decomposition recovers the Hodge spectrum.  A monomial
Milnor-basis enumeration provides the independent spectrum oracle.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from .arcs import GeometryError, MonomialGeometry, _passes, _zeta_fraction, ts_direct_zeta_series
from .characters import Character, gamma
from .gaussring import UElement, from_characters, sg_decompose
from .motives import MotiveClass, MotiveFrac
from .series import lambda_functional, lambda_of_fraction


class SpectrumPoly:
    """Finite multiset of rational exponents with integer multiplicities."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        clean = {}
        if coeffs:
            for e, c in coeffs.items():
                e = Fraction(e)
                c = int(c)
                if c:
                    clean[e] = clean.get(e, 0) + c
        self.coeffs = {e: c for e, c in clean.items() if c}

    def __mul__(self, other: "SpectrumPoly") -> "SpectrumPoly":
        out: dict = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                k = e1 + e2
                out[k] = out.get(k, 0) + c1 * c2
        return SpectrumPoly(out)

    def reflect(self, pivot: Fraction) -> "SpectrumPoly":
        """The multiset with every exponent e replaced by pivot - e."""
        return SpectrumPoly({pivot - e: c for e, c in self.coeffs.items()})

    def items(self):
        return sorted(self.coeffs.items())

    def __eq__(self, other):
        return isinstance(other, SpectrumPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __bool__(self):
        return bool(self.coeffs)

    def __repr__(self):
        return "SpectrumPoly({" + ", ".join(f"{e}: {c}" for e, c in self.items()) + "})"


def chi_c_w(geom: MonomialGeometry) -> MotiveClass:
    """Class of the hyperplane union: affine space less the points off every hyperplane."""
    w = len(geom.w_indices)
    return MotiveClass.lpow(geom.m) - (MotiveClass.lpow(1) - 1) ** w * MotiveClass.lpow(geom.m - w)


def _psi_class(geom: MonomialGeometry) -> MotiveFrac:
    """The nearby-cycle class shared by every character that meets f.

    L^m/(1-L) times the T = infinity constant term of the zeta series,
    read off the T^0 slice of its unreduced fraction.
    """
    num, den = _zeta_fraction(geom)
    lam = lambda_of_fraction(dict(num), list(den))
    return -(lam.mul_lpow(geom.m).div_lpow_diff(1, 0))


def s_psi(geom: MonomialGeometry, alpha: Character) -> MotiveFrac:
    """Nearby-cycle class: L^m/(1-L) times the T=infinity constant term of the zeta series."""
    if not _passes(geom, alpha):
        return MotiveFrac.zero()
    return _psi_class(geom)


def s_phi(geom: MonomialGeometry, alpha: Character) -> MotiveFrac:
    """Vanishing-cycle class: subtracts the base class at the trivial character."""
    out = s_psi(geom, alpha)
    if alpha.is_trivial():
        out = out - chi_c_w(geom)
    return out


def sg(geom: MonomialGeometry) -> UElement:
    """The Gauss-twisted vanishing-cycle sum over all contributing characters.

    Every character of the geometry meets f, so all share one s_psi.
    """
    psi = _psi_class(geom)
    phi = dict.fromkeys(geom.characters(), psi)
    phi[Character.trivial()] = psi - chi_c_w(geom)
    return from_characters(phi)


def sp_from_sg(element: UElement, m: int) -> SpectrumPoly:
    """Spectrum of a Gauss-twisted vanishing-cycle sum in ambient dimension m.

    Each character contributes its class terms at exponent m - p - gamma(alpha);
    the class terms must have integer p, and the assembled multiplicities must
    be integers.
    """
    acc: dict = {}
    sign = 1 if (m - 1) % 2 == 0 else -1
    for alpha, coeff in sg_decompose(element).items():
        cls = coeff.as_class()
        for (p, q), c in cls.terms.items():
            if Fraction(p).denominator != 1:
                raise ValueError(
                    f"class term u^{p} v^{q} of the {alpha} part has fractional Hodge degree"
                )
            e = m - p - gamma(alpha)
            acc[e] = acc.get(e, 0) + sign * c
    for e, c in acc.items():
        if Fraction(c).denominator != 1:
            raise ValueError(f"non-integral multiplicity {c} at exponent {e}")
    return SpectrumPoly({e: int(c) for e, c in acc.items() if c})


def sp(geom: MonomialGeometry) -> SpectrumPoly:
    """Hodge spectrum of the monomial at the origin.

    Requires data supported at the origin: every coordinate hyperplane chosen,
    so every f-exponent is positive.
    """
    if geom.w_indices != set(range(1, geom.m + 1)):
        raise GeometryPointError("spectrum needs the full hyperplane set (origin support)")
    return sp_from_sg(sg(geom), geom.m)


def brieskorn_sg(exponents) -> UElement:
    """SG of sum_i x_i^{a_i} as the Gauss-ring product of the one-variable SGs.

    Each factor's coefficients are reduced to classes first, so the product
    carries no (L - 1) denominators for sp_from_sg to divide back out.
    """
    total = UElement.one()
    for a in exponents:
        one = sg(MonomialGeometry.make(1, [a], None, [1]))
        # every character of x^a carries the same class (see sg): reduce it once
        psi = next(iter(one.gauss.values()), MotiveFrac.zero()).as_class()
        total = total * UElement(one.scalar.as_class(), dict.fromkeys(one.gauss, psi))
    return total


class GeometryPointError(GeometryError):
    """Spectrum extraction asked for data that is not supported at the origin."""


def brieskorn_oracle(exponents) -> SpectrumPoly:
    """Spectrum of sum_i x_i^{a_i} from the monomial basis of its Milnor algebra.

    Basis monomials x^l with 0 <= l_i <= a_i - 2 contribute the exponent
    sum_i (l_i + 1)/a_i, each with multiplicity one.
    """
    exps = [int(a) for a in exponents]
    if any(a < 2 for a in exps):
        raise ValueError("every exponent must be >= 2")
    out: dict = {}
    for l in product(*(range(a - 1) for a in exps)):
        e = sum(Fraction(li + 1, ai) for li, ai in zip(l, exps))
        out[e] = out.get(e, 0) + 1
    return SpectrumPoly(out)


def sg_direct_product(left: MonomialGeometry, right: MonomialGeometry) -> UElement:
    """The Gauss-twisted sum of the product geometry via the direct stratum path.

    Extracts vanishing cycles from the closed-form character zeta series of
    f (+) f' (arcs.ts_direct_zeta_series); no product of Gauss-ring elements
    is taken anywhere.
    """
    m_total = left.m + right.m
    phi = {
        alpha: -(lambda_functional(z_direct).mul_lpow(m_total).div_lpow_diff(1, 0))
        for alpha, z_direct in ts_direct_zeta_series(left, right).items()
    }
    phi[Character.trivial()] = phi[Character.trivial()] - chi_c_w(left) * chi_c_w(right)
    return from_characters(phi)
