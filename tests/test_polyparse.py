from pathlib import Path

import pytest

from motivint import limits
from motivint.limits import MAX_POWER, MAX_PRODUCT_PAIRS
from motivint.polyparse import IntPolynomial, PolyParseError, parse_poly


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


def test_deep_nesting_is_a_parse_error():
    # one parser frame per parenthesis or unary minus; past the interpreter's
    # recursion limit the input is refused instead of raising RecursionError
    for bad in ["(" * 5000 + "x" + ")" * 5000, "x*" + "-" * 5000 + "x"]:
        with pytest.raises(PolyParseError, match="nested too deeply"):
            parse_poly(bad)
    assert parse_poly("(" * 50 + "x" + ")" * 50).monomials == {(1,): 1}
    assert parse_poly("x*" + "-" * 50 + "x").monomials == {(2,): 1}


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


def test_product_cap(monkeypatch):
    # a product's degree and its monomial pairs are capped before it is formed
    n = MAX_POWER // 2
    assert parse_poly(f"x^{n}*y^{n}").monomials == {(n, n): 1}
    with pytest.raises(PolyParseError, match="exceeds the limit"):
        parse_poly(f"x^{n}*y^{n + 1}")
    with pytest.raises(PolyParseError, match="exceeds the limit"):
        parse_poly("*".join(["(x+y+z)^60"] * 4))
    # (x+y+z+1)^24 squared is the largest admitted square of that family
    a, b = parse_poly("(x+y+z+1)^24"), parse_poly("(x+y+z+1)^25")
    assert len(a.monomials) ** 2 <= MAX_PRODUCT_PAIRS < len(b.monomials) ** 2
    with pytest.raises(PolyParseError, match="exceeds the limit"):
        b * b
    monkeypatch.setattr(limits, "MAX_PRODUCT_PAIRS", 100)
    assert len(parse_poly("(x+y)^9*(x+y)^9").monomials) == 19  # 10 * 10 pairs
    with pytest.raises(PolyParseError, match="exceeds the limit"):
        parse_poly("(x+y)^10*(x+y)^9")


def test_power_cap_admits_the_oracle_inputs(monkeypatch):
    # every polynomial of criterion 5, the benchmark's p-adic shapes and the
    # oracle tests passes both the power and the product caps
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    from benchlib.inputs import PADIC_SHAPES

    criterion_5 = ["x", "x^2", "x^3", "x*y", "x^2+y^3"]
    oracle_tests = ["x^3+x*y-2*y^2", "x^3+y^2"]
    shapes = [s for group in PADIC_SHAPES.values() for s in group]
    for a in (1, 2, -1, -2):
        for text in criterion_5 + oracle_tests + [s.format(a=a, b=a, c=-a) for s in shapes]:
            parse_poly(text)
