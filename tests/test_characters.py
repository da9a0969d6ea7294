from fractions import Fraction

import pytest

from motivint.characters import (
    Character,
    _character,
    _characters_of_order_dividing,
    characters_of_order_dividing,
    gamma,
)

from helpers import all_characters_up_to


def test_gamma_examples():
    assert gamma(Character.trivial()) == 0
    assert gamma(Character(Fraction(1, 2))) == Fraction(1, 2)
    assert gamma(Character(Fraction(1, 3)).inverse()) == Fraction(2, 3)


def test_gamma_inverse_sum():
    for alpha in all_characters_up_to(24):
        if alpha.is_trivial():
            assert gamma(alpha) + gamma(alpha.inverse()) == 0
        else:
            assert gamma(alpha) + gamma(alpha.inverse()) == 1


def test_reduction_and_order():
    alpha = Character(Fraction(6, 4))
    assert alpha.value == Fraction(1, 2)
    assert alpha.order == 2
    assert Character(Fraction(-1, 3)).value == Fraction(2, 3)
    assert Character.trivial().order == 1


def test_group_laws():
    a = Character(Fraction(1, 6))
    b = Character(Fraction(1, 4))
    assert (a * b).value == Fraction(5, 12)
    assert (a * a.inverse()).is_trivial()
    assert a**6 == Character.trivial()
    assert a**7 == a


def test_parse_round_trip():
    for text in ["0/1", "1/2", "5/12"]:
        assert str(Character.parse(text)) == text
    with pytest.raises(ZeroDivisionError):
        Character.parse("1/0")


def test_characters_of_order_dividing():
    chars = characters_of_order_dividing(6)
    assert len(chars) == 6
    assert all((c**6).is_trivial() for c in chars)
    assert Character(Fraction(1, 2)) in chars
    with pytest.raises(ValueError):
        characters_of_order_dividing(0)


def _reference(value: Fraction) -> Fraction:
    """The parent's reduction into [0, 1), on plain Fractions."""
    return value - (value.numerator // value.denominator)


def test_unreduced_values_equal_and_hash_alike():
    for raw, reduced in ((Fraction(7, 6), Fraction(1, 6)), (Fraction(-5, 4), Fraction(3, 4))):
        alpha, beta = Character(raw), Character(reduced)
        assert alpha == beta and hash(alpha) == hash(beta) == hash(reduced)
        assert alpha.value == reduced and repr(alpha) == repr(beta)
    assert Character(5) == Character.trivial()
    assert hash(Character.trivial()) == hash(Fraction(0))


def test_group_law_matches_fraction_reference():
    chars = all_characters_up_to(24)
    for a in chars:
        assert a.inverse().value == _reference(-a.value)
        assert hash(a.inverse()) == hash(_reference(-a.value))
        for k in (-25, -7, -1, 0, 1, 2, 5, 24, 49):
            assert (a**k).value == _reference(k * a.value), (a, k)
        for b in chars:
            want = _reference(a.value + b.value)
            got = a * b
            assert got.value == want and got.order == want.denominator, (a, b)
            assert (a < b) == (a.value < b.value)


def test_returned_list_is_fresh():
    chars = characters_of_order_dividing(6)
    chars.clear()
    again = characters_of_order_dividing(6)
    assert [str(c) for c in again] == ["0/1", "1/6", "1/3", "1/2", "2/3", "5/6"]
    again.append(Character(Fraction(1, 7)))
    assert len(characters_of_order_dividing(6)) == 6


def test_values_survive_cleared_memos():
    def table():
        chars = characters_of_order_dividing(12)
        return [[(str(a), str(a.inverse()), str(a * b), str(a**5)) for b in chars] for a in chars]

    want = table()
    _character.cache_clear()
    _characters_of_order_dividing.cache_clear()
    assert table() == want
    assert Character.trivial() == characters_of_order_dividing(1)[0]


def test_group_law_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    fractions = st.fractions(max_denominator=60)

    @hypothesis.settings(max_examples=300, deadline=None, database=None)
    @hypothesis.given(fractions, fractions, st.integers(-100, 100))
    def check(x, y, k):
        a, b = Character(x), Character(y)
        assert (a * b).value == _reference(x + y)
        assert a.inverse().value == _reference(-x)
        assert (a**k).value == _reference(k * x)
        assert (a * b == Character(x + y)) and hash(a * b) == hash(Character(x + y))

    check()
