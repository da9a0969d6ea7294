import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest

from motivint.characters import Character
from motivint.gaussring import UElement, from_characters, hodge_realize_u, sg_decompose
from motivint.motives import MotiveClass, MotiveFrac

from helpers import all_characters_up_to, random_motive_frac

L = MotiveClass.lpow
HALF = Character(Fraction(1, 2))
THIRD = Character(Fraction(1, 3))


def random_u(rng, chars, coeff_den=0):
    u = UElement(random_motive_frac(rng, coeff_den) if coeff_den else rng.randint(-2, 2))
    for _ in range(rng.randint(1, 3)):
        alpha = rng.choice(chars)
        u = u + UElement.from_gauss(alpha, rng.randint(-3, 3))
    return u


def test_u_mul_examples():
    g = UElement.from_gauss
    assert g(HALF) * g(HALF) == UElement(MotiveFrac(L(1)))
    assert g(THIRD) * g(THIRD) == UElement(0, {THIRD.inverse(): MotiveFrac(MotiveClass.h(1, 0, -1))})
    assert UElement(-1) * g(HALF) == g(HALF, -1)
    # trivial basis element is the scalar -1
    assert UElement.from_gauss(Character.trivial()) == UElement(-1)


def test_trivial_gauss_key_rejected():
    with pytest.raises(ValueError):
        UElement(0, {Character.trivial(): MotiveFrac.one()})


def test_u_ring_laws_random():
    rng = random.Random(31)
    chars = [c for c in all_characters_up_to(12) if not c.is_trivial()]
    for _ in range(300):
        a, b, c = (random_u(rng, chars) for _ in range(3))
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_hodge_realize_examples():
    g = UElement.from_gauss
    assert hodge_realize_u(g(HALF)) == MotiveFrac(
        MotiveClass.h(Fraction(1, 2), Fraction(1, 2), -1)
    )
    assert hodge_realize_u(g(THIRD) * g(THIRD.inverse())) == MotiveFrac(L(1))
    assert hodge_realize_u(UElement.one()) == MotiveFrac.one()


def test_hodge_realize_is_ring_morphism():
    rng = random.Random(17)
    chars = [c for c in all_characters_up_to(9) if not c.is_trivial()]
    for _ in range(150):
        a, b = random_u(rng, chars), random_u(rng, chars)
        assert hodge_realize_u(a * b) == hodge_realize_u(a) * hodge_realize_u(b)
        assert hodge_realize_u(a + b) == hodge_realize_u(a) + hodge_realize_u(b)


def test_sg_decompose_examples():
    assert sg_decompose(UElement.from_gauss(HALF)) == {HALF: MotiveFrac.one()}
    assert sg_decompose(UElement(MotiveFrac(L(1)))) == {
        Character.trivial(): MotiveFrac(L(1)) * -1
    }
    assert sg_decompose(UElement.zero()) == {}


def test_sg_decompose_round_trip():
    rng = random.Random(23)
    chars = [c for c in all_characters_up_to(8) if not c.is_trivial()]
    for _ in range(50):
        x = random_u(rng, chars, coeff_den=1)
        rebuilt = UElement.zero()
        for alpha, c in sg_decompose(x).items():
            rebuilt = rebuilt + UElement.from_gauss(alpha.inverse()) * c
        assert rebuilt == x


def test_scalar_action_and_lpow():
    x = UElement(1, {HALF: MotiveFrac.one()})
    assert x.mul_lpow(2).scalar == MotiveFrac(L(2))
    y = x * MotiveFrac(L(1) - 1)
    assert y.gauss[HALF] == MotiveFrac(L(1) - 1)
    assert x.div_lpow_diff(1, 0).gauss[HALF] == MotiveFrac(MotiveClass.one(), [(1, 0)])


def _random_characters(rng, chars):
    """alpha -> c_alpha over a random set of characters, the trivial one included
    about half the time, with an occasional zero coefficient."""
    coeffs = {}
    for alpha in rng.sample(chars, rng.randint(0, 4)):
        coeffs[alpha] = random_motive_frac(rng, 1) if rng.random() < 0.9 else MotiveFrac.zero()
    return coeffs


def _check_from_characters(coeffs, scalar):
    x = from_characters(coeffs, scalar)
    nonzero = {alpha: c for alpha, c in coeffs.items() if c}
    # the inverse of sg_decompose, with the scalar as the trivial coefficient's offset
    assert sg_decompose(from_characters(coeffs)) == nonzero
    assert from_characters(sg_decompose(x)) == x
    # the sum of its basis terms
    terms = UElement(scalar)
    for alpha, c in coeffs.items():
        terms = terms + UElement.from_gauss(alpha.inverse(), c)
    assert x == terms


def test_from_characters_examples():
    assert from_characters({HALF: 1}) == UElement.from_gauss(HALF)
    assert from_characters({THIRD: 2}) == UElement(0, {THIRD.inverse(): 2})
    assert from_characters({Character.trivial(): 1}) == UElement(-1)
    assert from_characters({Character.trivial(): 1}, L(1)) == UElement(MotiveFrac(L(1) - 1))
    assert from_characters({}, 3) == UElement(3)


def test_from_characters_inverts_sg_decompose_random():
    rng = random.Random(29)
    chars = all_characters_up_to(8)
    assert Character.trivial() in chars
    for _ in range(150):
        scalar = random_motive_frac(rng, 1) if rng.random() < 0.5 else 0
        _check_from_characters(_random_characters(rng, chars), scalar)


def test_from_characters_inverts_sg_decompose_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    character = st.builds(
        lambda den, num: Character(Fraction(num % den, den)),
        st.integers(1, 12),
        st.integers(0, 11),
    )
    frac = st.builds(
        lambda c, p, k: MotiveFrac(MotiveClass.h(p, p, c), [(k, 0)] if k else []),
        st.integers(-3, 3),
        st.integers(-2, 2),
        st.integers(0, 2),
    )

    @hypothesis.settings(max_examples=150, deadline=None, database=None)
    @hypothesis.given(st.dictionaries(character, frac, max_size=5), st.one_of(st.just(0), frac))
    def check(coeffs, scalar):
        _check_from_characters(coeffs, scalar)

    check()


def test_only_the_fermat_sum_inverts_a_character_in_arcs_and_spectra():
    # the Gauss-ring encoding G_{alpha^{-1}} (G_1 = -1) is written by
    # from_characters and read by sg_decompose; the callers pass characters
    src = Path(__file__).resolve().parents[1] / "src" / "motivint"

    def inverse_calls(node) -> int:
        return sum(
            isinstance(n, ast.Call)
            and isinstance(n.func, ast.Attribute)
            and n.func.attr == "inverse"
            for n in ast.walk(node)
        )

    for name in ("arcs.py", "spectra.py"):
        tree = ast.parse((src / name).read_text(encoding="utf-8"))
        fermat = [
            fn for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef) and fn.name == "_diag_fermat_sum"
        ]
        assert inverse_calls(tree) == sum(map(inverse_calls, fermat)), name
    assert inverse_calls(ast.parse((src / "arcs.py").read_text(encoding="utf-8"))) > 0
