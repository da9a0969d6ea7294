import cmath
import math
import random
from fractions import Fraction
from itertools import product

import pytest

from motivint import oracles
from motivint.invariants import gauss_jacobi_residue
from motivint.oracles import (
    MAX_ENUMERATION_POINTS,
    PadicContext,
    ResidueCharacter,
    _char_sum,
    _dlog_table,
    _float_weights,
    _primitive_root,
    _psi_sum,
    _value_buckets,
    additive_character,
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
from motivint.polyparse import IntPolynomial, parse_poly

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
    # the discrete logs of p = 5 against the group order of p = 7 are no Gauss sum
    with pytest.raises(ValueError):
        gauss_sum_numeric(PadicContext(5, 1), ResidueCharacter(7, 1, 3))


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


# ---------------------------------------------------------------------------
# per-point references for the counted buckets and the hoisted character sums
# ---------------------------------------------------------------------------
#
# The oracles count points as integers and evaluate characters with the
# constant part of ResidueCharacter.value hoisted out of their loops.  The
# references below visit one point, and call value() once, per term, in the
# original order; the floats must agree bit for bit (== on complex), and the
# buckets in their values and in the order of their keys, which fixes the
# floating-point summation order downstream.


def _ref_value_buckets(f, ctx, phi, m, mod):
    p = ctx.p
    buckets = {}
    for x in product(range(p**ctx.precision), repeat=m):
        w = phi(tuple(xj % p for xj in x))
        if w:
            val = f.eval_mod(x, mod)
            buckets[val] = buckets.get(val, Fraction(0)) + w
    return buckets


def _ref_characters_mod(p, level):
    out = []
    for k in range((p - 1) * p ** (level - 1)):
        if k == 0:
            out.append(ResidueCharacter.trivial(p))
            continue
        v, kk = 0, k
        while kk % p == 0:
            v, kk = v + 1, kk // p
        c = max(1, level - v)
        k_red = k // p ** (level - c)
        if c == level:
            out.append(ResidueCharacter(p, c, k_red))
        else:
            dl = _dlog_table(p, level)[_primitive_root(p, c) % p**level]
            out.append(ResidueCharacter(p, c, k_red * dl % ((p - 1) * p ** (c - 1))))
    return out


def _random_poly(rng, m):
    monos = {}
    for _ in range(rng.randint(1, 3)):
        exps = tuple(rng.randint(0, 3) for _ in range(m))
        monos[exps] = rng.choice((1, 2, 3, -1, -2, 5, 7, 9, 25, -49))
    return IntPolynomial(monos, m)


PHIS = (
    phi_one,
    phi_indicator_zero,
    lambda p, m: lambda xbar: Fraction(xbar[0] + 1, 2),
    lambda p, m: lambda xbar: Fraction(xbar[-1] % 2, 3),  # zero on half the classes
    lambda p, m: lambda xbar: (xbar[-1] + 1) % 3 - 1,  # int weights; buckets may cancel to 0
)


def test_value_buckets_match_per_point_reference():
    rng = random.Random(9090)
    cases = 0
    for m in (1, 2, 3):
        for p in (3, 5, 7):
            for level in (0, 1, 2):
                for precision in (level + 1, level + 2):
                    if p ** (precision * m) > 3000:
                        continue
                    ctx = PadicContext(p, precision)
                    mod = p ** (level + 1)
                    for _ in range(2):
                        f = _random_poly(rng, m)
                        for make_phi in PHIS:
                            phi = make_phi(p, m)
                            got = _value_buckets(f, ctx, phi, m, mod)
                            want = _ref_value_buckets(f, ctx, phi, m, mod)
                            assert got == want, (str(f), p, level, precision)
                            assert list(got) == list(want), (str(f), p, level, precision)
                            cases += 1
    assert cases > 300


def test_character_sums_match_value_formulas_bit_for_bit():
    for p, level in ((3, 1), (3, 3), (5, 2), (7, 2), (13, 1)):
        ctx = PadicContext(p, level)
        for alpha in characters_mod(p, level):
            c = alpha.conductor
            want = 0j
            for v in range(1, p**c):
                if v % p:
                    want += alpha.value(v) * additive_character(v, p**c)
            assert gauss_sum_numeric(ctx, alpha) == p ** (1 - c) * want
    for p in (5, 7, 13):
        chars = [ResidueCharacter(p, 1, k) for k in range(p - 1)]
        for chi1 in chars:
            for chi2 in chars:
                want = 0j
                for x in range(2, p):
                    want += chi1.value(x) * chi2.value((1 - x) % p)
                assert jacobi_sum_numeric(p, chi1, chi2) == want
    rng = random.Random(77)
    for p, level in ((3, 3), (5, 2), (7, 2)):
        for i in range(level):
            weights = {val: rng.random() for val in rng.sample(range(p**level), p**level // 2)}
            for alpha in characters_mod(p, level - i):
                want = 0j
                for val, fw in weights.items():
                    if val % p**i == 0 and (val // p**i) % p:
                        want += fw * alpha.value(val // p**i % p**alpha.conductor)
                assert _char_sum(weights, alpha, p, i) == want


def test_characters_mod_matches_reference():
    for p, levels in ((3, (1, 2, 3, 4)), (5, (1, 2, 3)), (7, (1, 2, 3)), (11, (1, 2))):
        for level in levels:
            assert characters_mod(p, level) == _ref_characters_mod(p, level)


# ---------------------------------------------------------------------------
# per-term references for the memoized Gauss sums and the tabled character
# and Jacobi sums
# ---------------------------------------------------------------------------
#
# The loops below are the oracles' sums before the Gauss sums were memoized,
# the character sums listed once per conductor and the Jacobi sums read from
# value tables: one term at a time, every exp evaluated in place.  The floats
# must agree bit for bit, so repr (which tells -0.0 from 0.0) is compared.


def _ref_gauss_sum(ctx, alpha):
    p, c = ctx.p, alpha.conductor
    mod = p**c
    dlog = _dlog_table(p, c)
    arg = 2j * math.pi * alpha.index
    order = alpha.group_order
    two_pi_i = 2j * math.pi
    total = 0j
    for v in range(1, mod):
        if v % p == 0:
            continue
        total += cmath.exp(arg * dlog[v] / order) * cmath.exp(two_pi_i * v / mod)
    return p ** (1 - c) * total


def _ref_char_sum(weights, alpha, p, i):
    pi_i = p**i
    mod_c = p**alpha.conductor
    dlog = _dlog_table(p, alpha.conductor)
    arg = 2j * math.pi * alpha.index
    order = alpha.group_order
    total = 0j
    for val, fw in weights.items():
        if val % pi_i:
            continue
        unit = val // pi_i
        if unit % p == 0:
            continue
        total += fw * cmath.exp(arg * dlog[unit % mod_c] / order)
    return total


def _ref_jacobi_sum(p, chi1, chi2):
    dlog = _dlog_table(p, 1)
    arg1 = 2j * math.pi * chi1.index
    arg2 = 2j * math.pi * chi2.index
    order = p - 1
    total = 0j
    for x in range(2, p):
        total += cmath.exp(arg1 * dlog[x] / order) * cmath.exp(arg2 * dlog[(1 - x) % p] / order)
    return total


def _ref_decomposition(f, ctx, phi, i):
    p = ctx.p
    mod = p ** (i + 1)
    weights = _float_weights(f, ctx, phi, mod)
    lhs = _psi_sum(weights, mod)
    rhs = complex(weights.get(0, 0.0))
    for alpha in characters_mod(p, i + 1):
        z = _ref_char_sum(weights, alpha, p, i - alpha.conductor + 1)
        if z != 0:
            rhs += _ref_gauss_sum(ctx, alpha.inverse()) * z / (p - 1)
    return lhs, rhs


def _ref_gauss_jacobi_residue(ctx):
    p = ctx.p
    chars = [ResidueCharacter(p, 1, k) for k in range(p - 1)]
    gs = {c.index: _ref_gauss_sum(ctx, c) for c in chars}
    worst = 0.0
    pairs = 0
    for c1 in chars:
        if not c1.is_trivial():
            worst = max(worst, abs(gs[c1.index] * gs[c1.inverse().index] - c1.value(p - 1) * p))
        for c2 in chars:
            prod = c1 * c2
            if c1.is_trivial() or c2.is_trivial() or prod.is_trivial():
                continue
            j = _ref_jacobi_sum(p, c1, c2)
            worst = max(worst, abs(gs[c1.index] * gs[c2.index] - j * gs[prod.index]))
            worst = max(worst, abs(abs(j) - p**0.5))
            pairs += 1
    return pairs, worst


def _clear_gauss_memos():
    oracles._gauss_sum.cache_clear()
    oracles._psi_table.cache_clear()


def test_memoized_gauss_sums_match_the_per_term_loop_cold_warm_and_cleared():
    for p, c in product((3, 5, 7), (1, 2, 3)):
        ctx = PadicContext(p, c)
        chars = characters_mod(p, c)
        want = [repr(_ref_gauss_sum(ctx, alpha)) for alpha in chars]
        _clear_gauss_memos()
        cold = [repr(gauss_sum_numeric(ctx, alpha)) for alpha in chars]
        warm = [repr(gauss_sum_numeric(ctx, alpha)) for alpha in chars]
        assert oracles._gauss_sum.cache_info().hits >= len(chars)
        _clear_gauss_memos()
        cleared = [repr(gauss_sum_numeric(ctx, alpha)) for alpha in chars]
        assert cold == warm == cleared == want, (p, c)


DECOMPOSITION_REPORTS = (("x^2+y^3", 3, 3), ("x*y*z", 5, 1), ("x", 97, 0), ("3*x^2", 11, 1))


def test_decomposition_matches_the_per_term_loops():
    for poly, p, level in DECOMPOSITION_REPORTS:
        f = parse_poly(poly)
        m = max(f.nvars, 1)
        ctx = PadicContext(p, level + 1)
        for make_phi in (phi_one, phi_indicator_zero):
            report = check_exp_decomposition(f, ctx, make_phi(p, m), level)
            lhs, rhs = _ref_decomposition(f, ctx, make_phi(p, m), level)
            assert (repr(report.lhs), repr(report.rhs)) == (repr(lhs), repr(rhs)), (poly, p)


def test_jacobi_sums_from_value_tables_match_the_per_term_loop():
    for p in (5, 13, 31):
        ctx = PadicContext(p, 1)
        assert repr(gauss_jacobi_residue(ctx)) == repr(_ref_gauss_jacobi_residue(ctx))
