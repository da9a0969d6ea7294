from pathlib import Path

import pytest

from motivint.polyparse import MAX_POWER, IntPolynomial, PolyParseError, parse_poly


def test_parse_basic():
    f = parse_poly("x^2 + y^3")
    assert f.nvars == 2
    assert f.eval_mod((2, 3), 1000) == 31


def test_parse_products_and_parens():
    f = parse_poly("(x + 1)*(x - 1)")
    g = parse_poly("x^2 - 1")
    assert f.monomials == g.monomials
    assert parse_poly("2x").monomials == parse_poly("2*x").monomials
    assert parse_poly("x y").monomials == parse_poly("x*y").monomials


def test_parse_signs():
    f = parse_poly("-x^2 + 3")
    assert f.eval_mod((1,), 97) == 2
    g = parse_poly("x - - 2")
    assert g.eval_mod((0,), 97) == 2


def test_parse_double_star_power():
    assert parse_poly("x**3").monomials == parse_poly("x^3").monomials


def test_parse_errors():
    huge = "9" * 5000  # past the interpreter's int-string limit
    for bad in ["x^^", "x^-1", "(x", "x +", "w + 1", "x ^ y", huge, "x^" + huge]:
        with pytest.raises(PolyParseError):
            parse_poly(bad)


def test_eval_mod():
    f = parse_poly("x*y^2 + 5")
    assert f.eval_mod((2, 3), 7) == (2 * 9 + 5) % 7


def test_constant_and_str():
    assert parse_poly("7").eval_mod((), 5) == 2
    assert str(IntPolynomial.constant(0)) == "0"
    assert "x" in str(parse_poly("x^2+1"))


def test_power_cap():
    # the exponent, the degree and the coefficient bound n*log2(sum |c|) are
    # each capped, before the first multiplication
    n = MAX_POWER
    for ok in [f"x^{n}", f"2^{n}", f"(x+1)^{n}", f"(x^2)^{n // 2}", "(x+y+z)^63", f"0^{n}"]:
        parse_poly(ok)
    for bad in [
        f"x^{n + 1}", f"1^{n + 1}", f"(x^2)^{n // 2 + 1}", f"3^{n}", f"(x+y+z)^{n}",
        "x^99999999", "2^99999999", "(((2^64)^64)^64)^64",
    ]:
        with pytest.raises(PolyParseError, match="exceeds the limit"):
            parse_poly(bad)


def test_power_cap_admits_the_oracle_inputs(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    from benchlib.inputs import PADIC_SHAPES

    criterion_5 = ["x", "x^2", "x^3", "x*y", "x^2+y^3"]
    shapes = [s for group in PADIC_SHAPES.values() for s in group]
    for a in (1, 2, -1, -2):
        for text in criterion_5 + [s.format(a=a, b=a, c=-a) for s in shapes]:
            parse_poly(text)
