"""Every work limit lives in motivint.limits, and every refusal raises its error."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import motivint
from motivint import limits
from motivint.arcs import MonomialGeometry, zeta_series
from motivint.characters import Character
from motivint.limits import WorkLimitError
from motivint.polyparse import PolyParseError, parse_poly

PACKAGE = Path(motivint.__file__).resolve().parent
ESTIMATES = {
    "window_terms",
    "measure_gt_terms",
    "ts_check_terms",
    "brieskorn_terms",
    "check_enumeration",
    "check_character_sums",
}


def _modules():
    for info in pkgutil.iter_modules([str(PACKAGE)]):
        yield info.name, importlib.import_module(f"motivint.{info.name}")


def test_caps_and_estimates_are_defined_only_in_limits():
    for name, module in _modules():
        if name == "limits":
            continue
        caps = [attr for attr in vars(module) if attr.startswith("MAX_")]
        assert not caps, f"{name} holds caps {caps}"
        tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
        defined = {
            node.name
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        assert not defined & ESTIMATES, f"{name} defines {defined & ESTIMATES}"
    cli_source = (PACKAGE / "cli.py").read_text(encoding="utf-8")
    assert not re.search(r">\s*MAX_", cli_source)
    assert "MAX_" not in cli_source


def test_limits_imports_nothing_from_the_package():
    tree = ast.parse((PACKAGE / "limits.py").read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0 and not (node.module or "").startswith("motivint")
        elif isinstance(node, ast.Import):
            assert not any(alias.name.startswith("motivint") for alias in node.names)


def _geom(f, g=None):
    return MonomialGeometry.make(len(f), f, g, range(1, len(f) + 1))


@pytest.mark.parametrize(
    "refusal, message",
    [
        (
            lambda: limits.check_window(
                zeta_series(_geom([2]), Character.trivial()), 0, 357142
            ),
            "the zeta window exceeds the limit of 10000000 work terms",
        ),
        (
            lambda: limits.check_measure_gt(_geom([2]), 307693),
            "the tail measure exceeds the limit of 10000000 work terms",
        ),
        (
            lambda: limits.check_ts(_geom([1]), _geom([1]), 766),
            "the Thom-Sebastiani check exceeds the limit of 10000000 work terms",
        ),
        (
            lambda: limits.check_brieskorn([2, 99999]),
            "the brieskorn spectrum exceeds the limit of 100000 work terms",
        ),
        (
            lambda: limits.check_gauss_prime(173),
            "the Gauss/Jacobi suite at p = 173 exceeds the limit of p <= 167",
        ),
        (
            lambda: limits.check_enumeration(3, 14, 1),
            "enumerating 3^(14*1) residue vectors exceeds the limit of 1000000 points",
        ),
        (
            lambda: limits.check_character_sums(997, 1),
            "summing the characters mod 997^2 over the value buckets exceeds the "
            "limit of 8000000 terms",
        ),
    ],
    ids=["window", "measure_gt", "ts", "brieskorn", "gauss", "enumeration", "characters"],
)
def test_every_refusal_raises_work_limit_error(refusal, message):
    with pytest.raises(WorkLimitError) as info:
        refusal()
    assert str(info.value) == message


@pytest.mark.parametrize("poly", ["x^101", "(x+y+z)^60*(x+y+z)^60"])
def test_polynomial_refusals_are_parse_and_limit_errors(poly):
    with pytest.raises(PolyParseError) as info:
        parse_poly(poly)
    assert isinstance(info.value, WorkLimitError)
    assert "exceeds the limit" in str(info.value)


def test_syntax_errors_are_not_limit_errors():
    with pytest.raises(PolyParseError) as info:
        parse_poly("x^^2")
    assert not isinstance(info.value, WorkLimitError)
