import random
from fractions import Fraction

import pytest

from motivint.characters import Character
from motivint.invariants import jacobi_relations
from motivint.motives import (
    MotiveClass,
    MotiveFrac,
    divide_by_l_diff,
    fermat_torus_class,
    jacobi,
    torus_char_class,
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
            assert len(cls.terms) == 1
            assert cls.weights() == {1}


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


def test_torus_char_class_examples():
    half = Character(Fraction(1, 2))
    third = Character(Fraction(1, 3))
    triv = Character.trivial()
    assert torus_char_class([2], half) == L(1) - 1
    assert torus_char_class([2], third) == MotiveClass.zero()
    assert torus_char_class([0, 0], triv) == (L(1) - 1) ** 2
    assert torus_char_class([0, 0], half) == MotiveClass.zero()
    assert torus_char_class([4, 6], half) == (L(1) - 1) ** 2
    assert torus_char_class([4, 6], Character(Fraction(1, 4))) == MotiveClass.zero()


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
        expected = (q - 1) if torus_char_class([n], alpha) else 0
        assert abs(total - expected) < 1e-9


def test_torus_char_class_rejects_negative():
    with pytest.raises(ValueError):
        torus_char_class([-1], Character.trivial())
