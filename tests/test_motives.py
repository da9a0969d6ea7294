import random
from fractions import Fraction
from math import comb

import pytest

from motivint.arcs import MonomialGeometry, _passes
from motivint.characters import Character
from motivint.invariants import jacobi_relations
from motivint.motives import (
    MotiveClass,
    MotiveFrac,
    divide_by_l_diff,
    fermat_torus_class,
    jacobi,
)

from helpers import all_characters_up_to, random_motive_class, random_motive_frac

L = MotiveClass.lpow


def test_term_weight_constraint():
    with pytest.raises(ValueError):
        MotiveClass({(Fraction(1, 2), 0): 1})
    MotiveClass({(Fraction(1, 2), Fraction(1, 2)): 1})  # fine


def test_term_weight_of_mixed_fractional_exponents():
    # only the total weight p + q must be integral, whatever the exponents' types
    with pytest.raises(ValueError, match="non-integral total weight"):
        MotiveClass({(Fraction(1, 2), Fraction(1, 3)): 1})
    third = MotiveClass({(Fraction(1, 3), Fraction(2, 3)): 1})
    assert third.terms == {(Fraction(1, 3), Fraction(2, 3)): 1}
    with pytest.raises(ValueError, match="non-integral total weight"):
        MotiveClass({(1, Fraction(1, 2)): 1})
    # integral exponents stay ints
    assert [type(e) for e in next(iter(MotiveClass({(Fraction(4, 2), 3): 1}).terms))] == [int, int]


def test_class_ring_laws():
    rng = random.Random(101)
    for _ in range(150):
        a, b, c = (random_motive_class(rng) for _ in range(3))
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_frac_ring_laws():
    rng = random.Random(202)
    for _ in range(60):
        a, b, c = (random_motive_frac(rng) for _ in range(3))
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_frac_equality_cross_multiplication():
    # L/(L-1) equals L(L-1)/(L-1)^2 without any cancellation
    x = MotiveFrac(L(1), [(1, 0)])
    y = MotiveFrac(L(1) * (L(1) - 1), [(1, 0), (1, 0)])
    assert x == y
    assert MotiveFrac(L(1) - L(1)) == 0
    assert x != MotiveFrac(L(1), [(2, 0)])


def test_class_embeds_with_empty_denominator():
    x = MotiveFrac(L(2) - 3)
    assert x.den == ()
    assert x.as_class() == L(2) - 3


def test_shift_keeps_exponents_normalized():
    half = Fraction(1, 2)
    x = MotiveClass({(half, half): 3, (1, 0): -1})
    for k in (2, Fraction(2), -1):
        terms = x.shift(k).terms
        assert terms == {(half + k, half + k): 3, (1 + k, k): -1}
        assert all(type(p) is int and type(q) is int for (p, q) in terms if p == int(p))
    assert x.shift(half).terms == {(1, 1): 3, (Fraction(3, 2), half): -1}


def test_exact_division():
    assert divide_by_l_diff(L(3) - L(1), 2, 0) == L(1)
    assert divide_by_l_diff(L(1) - 1, 1, 0) == MotiveClass.one()
    num = (L(1) - 1) * (L(3) - L(-1))
    assert MotiveFrac(num, [(1, 0), (3, -1)]).as_class() == MotiveClass.one()
    with pytest.raises(ValueError):
        divide_by_l_diff(L(1), 1, 0)
    with pytest.raises(ValueError):
        divide_by_l_diff(L(1) - 1, 1, 1)


def test_division_round_trip():
    rng = random.Random(7)
    for _ in range(60):
        x = random_motive_class(rng)
        a, b = rng.randint(-2, 3), rng.randint(-2, 3)
        if a == b:
            b += 1
        assert divide_by_l_diff(x * (L(a) - L(b)), a, b) == x


def test_eval_l():
    x = MotiveFrac((L(1) - 1) * L(-2), [(2, 0)])
    assert x.eval_l(Fraction(4)) == Fraction(3, 16) / Fraction(15)
    with pytest.raises(ValueError):
        MotiveClass.h(1, 0).eval_l(Fraction(3))


# -- jacobi -----------------------------------------------------------------


def test_jacobi_examples():
    triv = Character.trivial()
    half = Character(Fraction(1, 2))
    third = Character(Fraction(1, 3))
    assert jacobi(triv, triv) == L(1)
    assert jacobi(triv, half) == MotiveClass.zero()
    assert jacobi(third, third.inverse()) == MotiveClass.from_scalar(-1)
    # gamma arithmetic: s = 1/3 + 1/3 - 2/3 = 0
    assert jacobi(third, third) == MotiveClass.h(1, 0, -1)


def test_jacobi_symmetric():
    chars = all_characters_up_to(24)
    for a1 in chars:
        for a2 in chars:
            assert jacobi(a1, a2) == jacobi(a2, a1)


def test_jacobi_weight_purity():
    chars = all_characters_up_to(12)
    for a1 in chars:
        for a2 in chars:
            if a1.is_trivial() or a2.is_trivial() or (a1 * a2).is_trivial():
                continue
            cls = jacobi(a1, a2)
            assert [p + q for p, q, _c in cls.triples()] == [1]


def test_jacobi_three_term_relation():
    assert jacobi_relations(all_characters_up_to(8)) is None


# -- fermat torus class -------------------------------------------------------


def test_fermat_examples():
    triv = Character.trivial()
    half = Character(Fraction(1, 2))
    third = Character(Fraction(1, 3))
    assert fermat_torus_class(triv, triv) == L(1) - 2
    assert fermat_torus_class(third, triv) == MotiveClass.from_scalar(-1)
    assert fermat_torus_class(triv, third) == MotiveClass.from_scalar(-1)
    assert fermat_torus_class(half, half) == MotiveClass.from_scalar(-1)
    assert fermat_torus_class(third, third) == jacobi(third, third)


# -- torus character classes ---------------------------------------------------
# The torus of leading coefficients carries alpha pulled back along
# c -> prod c_j^{n_j}; its class is (L-1)^m when the pullback is trivial,
# that is when the order of alpha divides gcd of the f-exponents (_passes),
# and 0 otherwise.


def _monomial(*exponents):
    return MonomialGeometry.make(len(exponents), exponents, None, [1])


def test_torus_char_class_examples():
    half = Character(Fraction(1, 2))
    third = Character(Fraction(1, 3))
    triv = Character.trivial()
    assert _passes(_monomial(2), half)
    assert not _passes(_monomial(2), third)
    assert _passes(_monomial(2, 0), triv)
    assert _passes(_monomial(2, 0), half)  # a zero exponent leaves the gcd alone
    assert _passes(_monomial(4, 6), half)
    assert not _passes(_monomial(4, 6), Character(Fraction(1, 4)))


def test_torus_char_class_finite_field_oracle():
    # sum over c in F_q^* of chi(c^n) is q-1 when ord(chi) divides n, else 0;
    # writing c = g^k turns it into a plain geometric sum of roots of unity
    import cmath
    from math import pi

    for q, n, order in [(5, 2, 2), (7, 2, 3), (7, 3, 3), (13, 4, 4), (13, 4, 3)]:
        assert (q - 1) % order == 0
        step = (q - 1) // order
        total = sum(cmath.exp(2j * pi * k * n * step / (q - 1)) for k in range(q - 1))
        alpha = Character(Fraction(1, order))
        expected = (q - 1) if _passes(_monomial(n), alpha) else 0
        assert abs(total - expected) < 1e-9


# -- the packed form of integer classes in L ----------------------------------

LIMIT = 1 << 62  # packed coefficients stay below this in size


def _packable(terms: dict) -> bool:
    """Whether a term map is an integer class in L that fits the packed form."""
    return all(
        type(p) is int and p == q and Fraction(c).denominator == 1 and abs(c) < LIMIT
        for (p, q), c in terms.items()
    )


def _canonical(x: MotiveClass) -> MotiveClass:
    # the form follows the value: equal to, and hashing like, the class
    # rebuilt from its terms, and packed exactly when the terms allow it
    assert (x.v is not None) == _packable(x.terms), x
    assert x.term_count() == len(x.terms), x
    rebuilt = MotiveClass(x.terms)
    assert x == rebuilt and hash(x) == hash(rebuilt)
    return x


def test_packed_form_follows_the_value():
    assert L(3).v is not None and MotiveClass.zero().v == 0
    assert MotiveClass.h(1, 0).v is None
    assert MotiveClass({(2, 2): Fraction(1, 2)}).v is None
    assert MotiveClass({(0, 0): LIMIT}).v is None
    assert MotiveClass({(0, 0): LIMIT - 1}).v is not None
    # a diagonal class reached by cancelling off-diagonal or Fraction terms
    off = MotiveClass.h(2, 1, 5)
    via_off = _canonical((L(1) + off) - off)
    half = MotiveClass({(1, 1): Fraction(1, 2)})
    via_half = _canonical(half + half)
    root = MotiveClass.h(Fraction(1, 2), Fraction(1, 2))
    via_root = _canonical(root * root)
    for x in (via_off, via_half, via_root):
        assert x.v is not None and x.terms == {(1, 1): 1}
        assert x == L(1) and hash(x) == hash(L(1))
    assert {via_off, via_half, via_root, L(1)} == {L(1)}
    # cancelling the lowest terms moves the lowest exponent up
    top = _canonical((L(-2) + 3 + L(4)) - (L(-2) + 3))
    assert top.lo == 4 and top == L(4)
    # the terms are the nonzero digits, zero digits inside skipped
    assert _canonical(L(-2) + 3 + L(4)).term_count() == 3
    assert MotiveClass.zero().term_count() == 0


def test_coefficients_near_the_limit_fall_back_exactly():
    big = MotiveClass({(0, 0): LIMIT - 1, (1, 1): -(LIMIT - 1)})
    assert big.v is not None
    twice = _canonical(big + big)
    assert twice.v is None and twice.terms == {(0, 0): 2 * LIMIT - 2, (1, 1): 2 - 2 * LIMIT}
    square = _canonical(big * big)
    assert square.terms == {(0, 0): (LIMIT - 1) ** 2, (1, 1): -2 * (LIMIT - 1) ** 2, (2, 2): (LIMIT - 1) ** 2}
    assert _canonical(twice - big) == big and (twice - big).v is not None
    assert _canonical(big * 4).v is None and _canonical(big * 4 * Fraction(1, 4)) == big
    # each product coefficient sums up to min(n_a, n_b) = 4 products below 2^62
    c = (1 << 31) - 1
    wide = MotiveClass({(k, k): c for k in range(4)})
    assert wide.v is not None and c * c < LIMIT
    square = _canonical(wide * wide)
    assert square.v is None
    assert square.terms == {(k, k): min(k + 1, 7 - k) * c * c for k in range(7)}
    # (L - 1)^n: the carried bound 2^n passes the limit long before the
    # coefficients do; a fallback re-packs with the exact bound
    x = MotiveClass.one()
    for n in range(1, 71):
        x = _canonical(x * (L(1) - 1))
        assert x.terms == {(k, k): (-1) ** (n - k) * comb(n, k) for k in range(n + 1)}
        assert (x.v is not None) == (comb(n, n // 2) < LIMIT)
    assert divide_by_l_diff(x, 1, 0) == (L(1) - 1) ** 69


def _class_strategy(st):
    exps = st.integers(-4, 4)
    coeff = st.one_of(
        st.integers(-9, 9),
        st.integers(LIMIT - 3, LIMIT + 3).map(lambda c: c * (-1) ** c),
        st.fractions(-4, 4, max_denominator=3),
    )
    diag = st.tuples(exps.map(lambda k: (k, k)), coeff)
    off = st.tuples(st.tuples(exps, exps), st.integers(-9, 9))
    half = st.tuples(exps.map(lambda k: (Fraction(2 * k + 1, 2), Fraction(-2 * k - 1, 2) + 1)), coeff)
    term = st.one_of(diag, diag, diag, off, half)
    return st.lists(term, max_size=5).map(lambda items: MotiveClass(dict(items)))


def test_packed_arithmetic_agrees_with_sympy():
    hypothesis = pytest.importorskip("hypothesis")
    sympy = pytest.importorskip("sympy")
    st = hypothesis.strategies
    u, v, lsym = sympy.symbols("u v L", positive=True)

    def sym(x: MotiveClass):
        return sum(
            (sympy.Rational(c.numerator, c.denominator) if isinstance(c, Fraction) else c)
            * u ** sympy.Rational(str(p)) * v ** sympy.Rational(str(q))
            for (p, q), c in x.terms.items()
        ) + sympy.Integer(0)

    def same(x: MotiveClass, expr) -> None:
        _canonical(x)
        assert sympy.expand(sym(x) - expr) == 0, (x, expr)

    classes = _class_strategy(st)

    @hypothesis.settings(max_examples=80, deadline=None, database=None, derandomize=True)
    @hypothesis.given(classes, classes, st.integers(-5, 5), st.integers(-3, 3), st.integers(0, 3))
    def check(x, y, k, n, e):
        sx, sy = sym(x), sym(y)
        same(x + y, sx + sy)
        same(x - y, sx - sy)
        same(x * y, sx * sy)
        same(-x, -sx)
        same(x.shift(k), sx * (u * v) ** k)
        same(x * n, sx * n)
        same(x ** e, sx**e)
        if (x + y).v is not None:
            assert (x + y) == (y + x) and hash(x + y) == hash(y + x)
        a = k if k != n else n + 1
        divided = divide_by_l_diff(x * (L(a) - L(n)), a, n)
        same(divided, sx)
        if all(p == q and Fraction(p).denominator == 1 for p, q in x.terms):
            at_l = sympy.expand(sx.subs({u: lsym, v: 1}))
            assert sympy.Rational(str(x.eval_l(Fraction(3)))) == at_l.subs(lsym, 3)
            # L^a - L^n = L^n (L^c - 1) up to sign, and L is a unit
            c = abs(a - n)
            if sympy.rem(sympy.expand(at_l * lsym**20), lsym**c - 1, lsym) == 0:
                same(divide_by_l_diff(x, a, n) * (L(a) - L(n)), sx)
            else:
                with pytest.raises(ValueError, match="inexact"):
                    divide_by_l_diff(x, a, n)

    check()


def test_zero_times_a_term_map_builds_no_term_map(monkeypatch):
    import motivint.motives as motives

    def refuse(a, b):
        raise AssertionError("a product with zero multiplied term maps")

    monkeypatch.setattr(motives, "_mul_terms", refuse)
    third = Character(Fraction(1, 3))
    j = jacobi(third, third)
    assert j.v is None
    for product in (MotiveClass.zero() * j, j * MotiveClass.zero()):
        assert (product.v, product.lo) == (0, 0) and product == MotiveClass.zero()


# -- one ordered reader and one text form ------------------------------------


def _in_order(x: MotiveClass) -> MotiveClass:
    keys = list(x.terms)
    assert keys == sorted(keys), keys
    return x


def test_terms_come_in_increasing_order():
    F = Fraction
    # keys in descending order, int and Fraction exponents mixed
    x = MotiveClass({
        (3, 3): 2, (F(5, 2), F(-1, 2)): -1, (1, 2): 4, (1, 1): F(1, 2),
        (F(-1, 3), F(4, 3)): 5, (-2, -2): 7,
    })
    assert x.v is None
    assert list(x.terms) == [(-2, -2), (F(-1, 3), F(4, 3)), (1, 1), (1, 2), (F(5, 2), F(-1, 2)), (3, 3)]
    root = MotiveClass.h(F(-7, 2), F(9, 2), 3)
    results = [
        x + root, root + x, x + L(-3), x * root, root * x, x * (L(1) - 1), x - L(5), -x,
        x.shift(3), x.shift(-4), x.shift(F(1, 2)), x.shift(F(-3, 2)),
        divide_by_l_diff(x * (L(2) - L(-1)), 2, -1), divide_by_l_diff(x * (1 - L(3)), 0, 3),
    ]
    for y in results:
        assert y.v is None and any(type(p) is Fraction for p, _q in y.terms)
        _in_order(y)
    assert results[-2] == x and results[-1] == x
    # a packed class reads out lowest power first
    assert list(_in_order(L(4) - 2 + L(-3)).terms) == [(-3, -3), (0, 0), (4, 4)]


def test_repr_is_the_lpow_display_text():
    F = Fraction
    assert repr(MotiveClass.zero()) == "0"
    assert repr(MotiveClass.one()) == "1"
    assert repr(2 * L(3) - 5 + L(-1)) == "1*L^-1 + -5 + 2*L^3"
    mixed = MotiveClass({(2, 2): F(1, 2), (1, 0): -1, (0, 0): 3, (F(1, 3), F(2, 3)): -1})
    assert mixed.v is None
    assert repr(mixed) == "3 + -1*u^1/3*v^2/3 + -1*u^1*v^0 + 1/2*L^2"
    assert repr(mixed - mixed) == "0"
    big = MotiveClass({(-1, -1): 1 << 62})
    assert big.v is None and repr(big) == f"{1 << 62}*L^-1"
    assert repr(MotiveFrac(mixed)) == repr(mixed)
    frac = MotiveFrac(L(2) - 1, [(3, 1), (1, 0)])
    assert repr(frac) == "(-1 + 1*L^2) / ((L^1 - L^0) * (L^3 - L^1))"
