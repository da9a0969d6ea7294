import math

import pytest

from motivint.invariants import gauss_jacobi_residue
from motivint.oracles import (
    MAX_ENUMERATION_POINTS,
    PadicContext,
    ResidueCharacter,
    characters_mod,
    check_enumeration,
    check_exp_decomposition,
    gauss_sum_numeric,
    jacobi_sum_numeric,
    padic_char_integral,
    padic_exp_integral,
    phi_indicator_zero,
    phi_one,
)
from motivint.polyparse import parse_poly

TOL = 1e-9


def test_padic_context_validation():
    with pytest.raises(ValueError):
        PadicContext(2, 1)
    with pytest.raises(ValueError):
        PadicContext(9, 1)
    with pytest.raises(ValueError):
        PadicContext(5, 0)


def test_enumeration_cap():
    check_enumeration(10, 3, 2)  # exactly MAX_ENUMERATION_POINTS
    assert 10 ** (3 * 2) == MAX_ENUMERATION_POINTS
    for p, precision, m in ((10, 7, 1), (5, 30, 2), (3, 10**12, 1), (10**12 + 39, 1, 1)):
        with pytest.raises(ValueError):
            check_enumeration(p, precision, m)
    with pytest.raises(ValueError):
        padic_exp_integral(parse_poly("x*y"), PadicContext(3, 13), phi_one(3, 2), 0)


def test_residue_character_basics():
    chi = ResidueCharacter(5, 1, 1)
    assert abs(chi.value(2) * chi.value(3) - chi.value(6)) < TOL
    assert abs(chi.value(2) * chi.inverse().value(2) - 1) < TOL
    with pytest.raises(ValueError):
        ResidueCharacter(3, 2, 3)  # not primitive at conductor 2
    with pytest.raises(ValueError):
        chi.value(5)


def test_character_enumeration_counts_and_conductors():
    chars = characters_mod(5, 2)
    assert len(chars) == 20
    assert sum(1 for c in chars if c.conductor == 1) == 4
    assert sum(1 for c in chars if c.conductor == 2) == 16
    # enumerated characters stay multiplicative on sample points
    for chi in chars[:8]:
        mod = chi.p**chi.conductor
        for v, w in [(2, 3), (7, 11)]:
            if v % 5 and w % 5:
                assert abs(chi.value(v) * chi.value(w) - chi.value(v * w % mod)) < TOL


def test_exp_integral_examples():
    assert abs(padic_exp_integral(parse_poly("x"), PadicContext(5, 1), phi_one(5, 1), 0)) < TOL
    e = padic_exp_integral(parse_poly("x^2"), PadicContext(5, 1), phi_one(5, 1), 0)
    assert abs(abs(e) - 5 ** (-0.5)) < TOL
    e2 = padic_exp_integral(parse_poly("x"), PadicContext(3, 2), phi_indicator_zero(3, 1), 1)
    assert abs(e2) < TOL
    with pytest.raises(ValueError):
        padic_exp_integral(parse_poly("x"), PadicContext(3, 1), phi_one(3, 1), 1)


def test_char_integral_examples():
    z = padic_char_integral(
        parse_poly("x"), PadicContext(3, 3), phi_one(3, 1), ResidueCharacter.trivial(3), 2
    )
    assert abs(z - 2 / 27) < TOL
    quad = ResidueCharacter(5, 1, 2)
    z2 = padic_char_integral(parse_poly("x^2"), PadicContext(5, 3), phi_one(5, 1), quad, 1)
    assert abs(z2) < TOL
    z3 = padic_char_integral(
        parse_poly("x^2"), PadicContext(5, 4), phi_one(5, 1), ResidueCharacter.trivial(5), 3
    )
    assert abs(z3) < TOL


def test_gauss_sum_examples():
    assert abs(gauss_sum_numeric(PadicContext(5, 1), ResidueCharacter.trivial(5)) + 1) < TOL
    quad = ResidueCharacter(5, 1, 2)
    assert abs(abs(gauss_sum_numeric(PadicContext(5, 1), quad)) - math.sqrt(5)) < TOL
    # conductor 2 at p = 3: the direct sum gives |g| = q^{1 - c/2} = 1
    for k in (1, 2, 4, 5):
        chi = ResidueCharacter(3, 2, k)
        assert abs(abs(gauss_sum_numeric(PadicContext(3, 2), chi)) - 1.0) < TOL


def test_jacobi_sum_examples():
    cubic = ResidueCharacter(7, 1, 2)
    triv = ResidueCharacter.trivial(7)
    assert abs(jacobi_sum_numeric(7, triv, cubic) + 1) < TOL
    j_inv = jacobi_sum_numeric(7, cubic, cubic.inverse())
    assert abs(j_inv + cubic.value(6)) < TOL
    assert abs(abs(jacobi_sum_numeric(7, cubic, cubic)) - math.sqrt(7)) < TOL


def test_gauss_jacobi_relations():
    for p in (5, 7):
        pairs, worst = gauss_jacobi_residue(PadicContext(p, 1))
        assert pairs and worst < TOL


def test_decomposition_examples():
    r = check_exp_decomposition(parse_poly("x^2"), PadicContext(5, 1), phi_one(5, 1), 0)
    assert r.ok, r.residue
    r = check_exp_decomposition(parse_poly("x^3+y^2"), PadicContext(7, 2), phi_one(7, 2), 1)
    assert r.ok, r.residue


def test_exp_integral_factorizes_over_sums():
    fx, fy, fsum = parse_poly("x^2"), parse_poly("x^3"), parse_poly("x^2+y^3")
    for p in (3, 5):
        for i in (0, 1):
            ctx = PadicContext(p, i + 1)
            lhs = padic_exp_integral(fsum, ctx, phi_one(p, 2), i)
            rhs = padic_exp_integral(fx, ctx, phi_one(p, 1), i) * padic_exp_integral(
                fy, ctx, phi_one(p, 1), i
            )
            assert abs(lhs - rhs) < TOL


def test_stability_in_precision():
    # raising N beyond the minimum must not move the integrals
    cases = [
        ("x", 3, 2), ("x", 5, 2), ("x", 7, 2),
        ("x^2", 3, 3), ("x^2", 5, 2), ("x^2", 7, 1),
        ("x^3", 3, 2), ("x^3", 5, 1),
        ("x*y", 3, 2), ("x^2+y^3", 3, 2), ("x*y", 5, 1),
    ]
    for poly_s, p, i in cases:
        f = parse_poly(poly_s)
        m = max(f.nvars, 1)
        base = padic_exp_integral(f, PadicContext(p, i + 1), phi_one(p, m), i)
        bigger = padic_exp_integral(f, PadicContext(p, i + 2), phi_one(p, m), i)
        assert abs(base - bigger) < 1e-12, (poly_s, p, i)
        triv = ResidueCharacter.trivial(p)
        zb = padic_char_integral(f, PadicContext(p, i + 1), phi_one(p, m), triv, i)
        zbig = padic_char_integral(f, PadicContext(p, i + 2), phi_one(p, m), triv, i)
        assert abs(zb - zbig) < 1e-12, (poly_s, p, i)
