"""The Gauss-sum ring: the motive ring extended by formal Gauss-sum basis elements.

An element is a scalar (a MotiveFrac, absorbing the trivial basis element as -1)
plus a finite combination of basis elements G_alpha over nontrivial characters.
Products of basis elements follow the Jacobi structure constants:

    G_alpha * G_{alpha^{-1}} = L        (alpha nontrivial)
    G_a * G_b = J(a, b) * G_{ab}        (a, b, ab all nontrivial)

and the trivial basis element is the constant -1, folded into the scalar.
"""

from __future__ import annotations

from .characters import Character, gamma
from .motives import MotiveClass, MotiveFrac, _as_frac, jacobi


def _coeff(x) -> MotiveFrac:
    c = _as_frac(x)
    if c is NotImplemented:
        raise TypeError(f"cannot use {x!r} as a coefficient")
    return c


class UElement:
    """scalar + sum of coefficient * G_alpha over nontrivial alpha."""

    __slots__ = ("scalar", "gauss")

    def __init__(self, scalar=0, gauss=None):
        self.scalar = _coeff(scalar)
        clean = {}
        if gauss:
            for alpha, c in gauss.items():
                if alpha.is_trivial():
                    raise ValueError("trivial character belongs in the scalar part (as -1)")
                c = _coeff(c)
                if c:
                    clean[alpha] = c
        self.gauss = clean

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero() -> "UElement":
        return UElement(0)

    @staticmethod
    def one() -> "UElement":
        return UElement(1)

    @staticmethod
    def from_gauss(alpha: Character, coeff=1) -> "UElement":
        """coeff * G_alpha; for trivial alpha this is the scalar -coeff."""
        return from_characters({alpha.inverse(): coeff})

    # -- module structure -------------------------------------------------

    def __add__(self, other):
        other = _as_u(other)
        if other is NotImplemented:
            return NotImplemented
        gauss = dict(self.gauss)
        for a, c in other.gauss.items():
            _add_gauss(gauss, a, c)
        return UElement(self.scalar + other.scalar, gauss)

    __radd__ = __add__

    def __neg__(self):
        return UElement(-self.scalar, {a: -c for a, c in self.gauss.items()})

    def __sub__(self, other):
        other = _as_u(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _as_u(other) - self

    def __mul__(self, other):
        if isinstance(other, UElement):
            return u_mul(self, other)
        c = _as_frac(other)
        if c is NotImplemented:
            return NotImplemented
        return UElement(self.scalar * c, {a: v * c for a, v in self.gauss.items()})

    __rmul__ = __mul__

    def mul_lpow(self, k: int) -> "UElement":
        return UElement(
            self.scalar.mul_lpow(k), {a: c.mul_lpow(k) for a, c in self.gauss.items()}
        )

    def div_lpow_diff(self, a: int, b: int) -> "UElement":
        return UElement(
            self.scalar.div_lpow_diff(a, b),
            {al: c.div_lpow_diff(a, b) for al, c in self.gauss.items()},
        )

    def __eq__(self, other):
        other = _as_u(other)
        if other is NotImplemented:
            return NotImplemented
        if set(self.gauss) != set(other.gauss):
            return False
        if self.scalar != other.scalar:
            return False
        return all(self.gauss[a] == other.gauss[a] for a in self.gauss)

    def __hash__(self):
        return hash((bool(self.scalar), frozenset(self.gauss)))

    def __bool__(self):
        return bool(self.scalar) or bool(self.gauss)

    def __repr__(self):
        bits = []
        if self.scalar:
            bits.append(f"({self.scalar!r})")
        for a in sorted(self.gauss):
            bits.append(f"({self.gauss[a]!r})*G[{a}]")
        return " + ".join(bits) if bits else "0"


def _as_u(x):
    if isinstance(x, UElement):
        return x
    c = _as_frac(x)
    return c if c is NotImplemented else UElement(c)


def _add_gauss(gauss: dict, alpha: Character, c: MotiveFrac) -> None:
    """Add c to the coefficient of G_alpha in gauss, dropping it if it cancels."""
    if not c:
        return
    s = gauss.get(alpha)
    s = c if s is None else s + c
    if s:
        gauss[alpha] = s
    else:
        gauss.pop(alpha, None)


def u_mul(x: UElement, y: UElement) -> UElement:
    """Bilinear product with the Gauss-sum relations; no trivial G in the output."""
    scalar = x.scalar * y.scalar
    gauss: dict = {}
    for a, c in x.gauss.items():
        _add_gauss(gauss, a, c * y.scalar)
    for b, c in y.gauss.items():
        _add_gauss(gauss, b, c * x.scalar)
    L = MotiveClass.lpow(1)
    for a, ca in x.gauss.items():
        for b, cb in y.gauss.items():
            prod = ca * cb
            ab = a * b
            if ab.is_trivial():
                scalar = scalar + prod * L
            else:
                _add_gauss(gauss, ab, prod * jacobi(a, b))
    return UElement(scalar, gauss)


def hodge_realize_u(x: UElement) -> MotiveFrac:
    """Ring morphism to fractional-bigraded classes: G_alpha -> -u^{1-g} v^g, g = gamma(alpha)."""
    out = x.scalar
    for alpha, c in x.gauss.items():
        g = gamma(alpha)
        out = out + c * MotiveClass.h(1 - g, g, -1)
    return out


def from_characters(coeffs: dict, scalar=0) -> UElement:
    """scalar + sum_alpha G_{alpha^{-1}} c_alpha, the inverse of sg_decompose.

    The trivial basis element is -1, so c_1 is subtracted from the scalar.
    """
    gauss = dict(coeffs)
    trivial = gauss.pop(Character.trivial(), None)
    if trivial is not None:  # a zero scalar gives the same bytes with no addition
        scalar = scalar - trivial if scalar else -trivial
    return UElement(scalar, {alpha.inverse(): c for alpha, c in gauss.items()})


def sg_decompose(x: UElement) -> dict[Character, MotiveFrac]:
    """Write x = sum_alpha G_{alpha^{-1}} c_alpha and return alpha -> c_alpha.

    The trivial coefficient is -scalar because the trivial basis element is -1.
    """
    out = {}
    if x.scalar:
        out[Character.trivial()] = -x.scalar
    for beta, c in x.gauss.items():
        out[beta.inverse()] = c
    return out
