import random

import pytest

from motivint.invariants import tau_binomial
from motivint.jsonio import motive_frac_to_json
from motivint.motives import MotiveClass, MotiveFrac
from motivint.series import (
    RationalSeries,
    exp_t,
    expand_fraction,
    expand_fraction_at_infinity,
    hadamard,
    lambda_functional,
    lambda_of_fraction,
    rs_normalize,
    _faulhaber,
    tau,
    twist,
)

from helpers import random_motive_frac

L = MotiveClass.lpow


def lfrac(k):
    return MotiveFrac(L(k))


def test_normalize_geometric():
    # L^a T / (1 - L^a T) expands to sum_{n>=1} L^{an} T^n
    s = rs_normalize({1: lfrac(3)}, [(3, 1)])
    assert exp_t(s, 0, 4) == [0, lfrac(3), lfrac(6), lfrac(9), lfrac(12)]


def test_normalize_partial_fraction_identity():
    # 1/((1-L^a T)(1-L^b T)) with a != b: expansion equals the split form
    a, b = 2, -1
    lhs = rs_normalize({0: 1}, [(a, 1), (b, 1)])
    split_a = rs_normalize({0: MotiveFrac(L(a), [(a, b)])}, [(a, 1)])
    split_b = rs_normalize({0: MotiveFrac(L(b), [(a, b)])}, [(b, 1)])
    assert lhs == split_a - split_b


def test_normalize_double_pole():
    s = rs_normalize({1: 1}, [(0, 1), (0, 1)])
    # T/(1-T)^2 = sum n T^n, checked by hand to order 5
    assert exp_t(s, 0, 5) == [0, 1, 2, 3, 4, 5]
    assert list(s.terms) == [(0, 1, 0)]


def test_normalize_negative_b_and_laurent():
    # denominators with b < 0 go through the unit rewrite
    num = {-2: 1}
    den = [(1, -2)]
    s = rs_normalize(num, den)
    assert exp_t(s, -3, 6) == expand_fraction(num, den, -3, 6)


def test_normalize_matches_long_division_random():
    rng = random.Random(404)
    for _ in range(50):
        num = {rng.randint(-3, 4): random_motive_frac(rng, 1) for _ in range(rng.randint(1, 3))}
        den = []
        for _ in range(rng.randint(0, 3)):
            b = rng.choice([-2, -1, 1, 2, 3])
            den.append((rng.randint(-2, 2), b))
        s = rs_normalize(num, den)
        assert exp_t(s, -6, 30) == expand_fraction(num, den, -6, 30)


def test_exp_t_examples():
    assert exp_t(rs_normalize({1: 1}, [(0, 1)]), 0, 3) == [0, 1, 1, 1]
    assert exp_t(rs_normalize({1: 1}, [(-1, 1)]), 1, 2) == [1, lfrac(-1)]
    assert exp_t(rs_normalize({1: 1}, [(0, 1), (0, 1)]), 0, 3) == [0, 1, 2, 3]
    with pytest.raises(ValueError):
        exp_t(RationalSeries.zero(), 3, 1)


def test_tau_geometric_claim():
    # tau(T^r (1 - L^a T^d)^{-1}) has coefficient L^{na} at every nd + r, n in Z
    s = rs_normalize({2: 1}, [(1, 3)])
    tv = tau(s)
    for i in range(-20, 21):
        if (i - 2) % 3 == 0:
            assert tv.coefficient(i) == lfrac((i - 2) // 3)
        else:
            assert tv.coefficient(i) == 0


def test_tau_kills_laurent_polynomials():
    s = RationalSeries(poly={-2: 5, 0: 3, 4: 1})
    tv = tau(s)
    assert all(tv.coefficient(i) == 0 for i in range(-6, 7))


def test_tau_double_pole_all_integers():
    # tau(T (1-T)^{-2}) = sum over all n of n T^n
    s = rs_normalize({1: 1}, [(0, 1), (0, 1)])
    tv = tau(s)
    for i in range(-5, 6):
        assert tv.coefficient(i) == i


def test_tau_binomial_identity_window():
    # coefficients for negative n follow binom(k-m-1, k-1) = (-1)^{k-1} binom(m-1, k-1)
    assert tau_binomial(range(1, 7), [(0, 1, 0), (1, 1, -1), (2, 3, 2)], 50) is None


def test_tau_equals_difference_of_expansions():
    rng = random.Random(808)
    for _ in range(30):
        num = {rng.randint(0, 3): random_motive_frac(rng, 1)}
        den = [(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(rng.randint(1, 3))]
        tv = tau(rs_normalize(num, den))
        at0 = expand_fraction(num, den, -30, 30)
        atinf = expand_fraction_at_infinity(num, den, -30, 30)
        for idx, i in enumerate(range(-30, 31)):
            assert tv.coefficient(i) == at0[idx] - atinf[idx]


def test_hadamard_examples():
    geo = lambda k: rs_normalize({1: lfrac(k)}, [(k, 1)])
    # termwise product of geometric series multiplies the L-weights
    h = hadamard(geo(2), geo(3))
    assert h == rs_normalize({1: lfrac(5)}, [(5, 1)])
    ind = rs_normalize({1: 1}, [(0, 1)])
    assert hadamard(ind, ind) == ind
    prog2 = rs_normalize({2: 1}, [(0, 2)])
    prog3 = rs_normalize({3: 1}, [(0, 3)])
    h6 = hadamard(prog2, prog3)
    want = [1 if i > 0 and i % 6 == 0 else 0 for i in range(31)]
    assert exp_t(h6, 0, 30) == want


def test_hadamard_empty_progressions():
    odd = rs_normalize({1: 1}, [(0, 2)])
    even = rs_normalize({2: 1}, [(0, 2)])
    assert hadamard(odd, even).is_zero()


def test_hadamard_with_polynomial_parts():
    p = RationalSeries(poly={0: 2, 2: 3, 5: 1})
    s = rs_normalize({1: 1}, [(0, 1), (0, 1)])  # sum n T^n
    h = hadamard(p, s)
    assert exp_t(h, 0, 6) == [0, 0, 6, 0, 0, 5, 0]
    assert hadamard(s, p) == h


def test_hadamard_commutative_associative():
    rng = random.Random(55)

    def rand_series():
        num = {rng.randint(0, 4): random_motive_frac(rng, 1) for _ in range(rng.randint(1, 2))}
        den = [(rng.randint(-1, 1), rng.randint(1, 3)) for _ in range(rng.randint(0, 2))]
        return rs_normalize(num, den)

    for _ in range(25):
        a, b, c = rand_series(), rand_series(), rand_series()
        assert exp_t(hadamard(a, b), 0, 20) == exp_t(hadamard(b, a), 0, 20)
        assert exp_t(hadamard(hadamard(a, b), c), 0, 20) == exp_t(
            hadamard(a, hadamard(b, c)), 0, 20
        )


def test_lambda_examples():
    assert lambda_functional(RationalSeries(poly={0: 3, 1: 1})) == 3
    assert lambda_functional(rs_normalize({1: lfrac(-1)}, [(-1, 1)])) == -1
    assert lambda_functional(rs_normalize({1: 1}, [(0, 1)])) == -1


def test_lambda_fractional_offset_has_no_tail():
    # a term hitting no integer n at T^0 contributes only its Laurent corrections
    s = rs_normalize({1: 1}, [(2, 2)])  # T/(1 - L^2 T^2): offsets 1 mod 2
    assert lambda_functional(s) == 0


def test_lambda_of_fraction_matches_closed_form_bytes():
    # no denominator factor (lambda reads the numerator's T^0 entry), zero
    # numerators (lambda is zero), then coefficients with mixed denominators,
    # factors with b < 0 and unequal steps (so the numerator is lifted); the
    # long division at infinity is an independent third path
    cases = [
        ({0: MotiveFrac(L(2) - 1, [(1, 0)]), 3: lfrac(-1), -2: 5}, []),
        ({1: lfrac(1)}, []),
        ({}, []),
        ({}, [(1, 2), (-1, 3)]),
        ({0: 0, 2: MotiveFrac.zero()}, [(2, 1)]),
    ]
    rng = random.Random(2718)
    for _ in range(80):
        num = {rng.randint(-4, 8): random_motive_frac(rng, 2) for _ in range(rng.randint(0, 4))}
        den = []
        for _ in range(rng.randint(0, 4)):
            den.append((rng.randint(-3, 3), rng.choice([-3, -2, -1, 1, 2, 3, 4, 6])))
        cases.append((num, den))
    for num, den in cases:
        got = lambda_of_fraction(num, den)
        want = lambda_functional(rs_normalize(num, den))
        assert motive_frac_to_json(got) == motive_frac_to_json(want), (num, den)
        assert got == expand_fraction_at_infinity(num, den, 0, 0)[0], (num, den)


def test_lambda_multiplicativity_random():
    rng = random.Random(99)

    def rand_series():
        num = {rng.randint(1, 4): random_motive_frac(rng, 1) for _ in range(rng.randint(1, 2))}
        den = [(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(rng.randint(0, 2))]
        return rs_normalize(num, den)

    for _ in range(80):
        phi, psi = rand_series(), rand_series()
        assert lambda_functional(hadamard(phi, psi)) == -1 * (
            lambda_functional(phi) * lambda_functional(psi)
        )


def test_lambda_invariant_under_t_translation():
    # adding multiples of T does not move the constant term at infinity
    base = rs_normalize({1: 1, 3: lfrac(1)}, [(1, 2)])
    shifted = base + RationalSeries(poly={1: 7, 4: lfrac(-2)})
    assert lambda_functional(base) == lambda_functional(shifted)


def test_series_equality_cross_step():
    a = rs_normalize({1: 1}, [(0, 1)])
    b = rs_normalize({1: 1, 2: 1}, [(0, 2)])
    assert a == b
    assert not (a == rs_normalize({1: 1}, [(1, 1)]))


def test_equal_series_hash_alike():
    # one step-1 term against two step-2 terms: equal, so the hashes agree
    a = rs_normalize({0: 1}, [(0, 1)])
    b = rs_normalize({0: 1, 1: 1}, [(0, 2)])
    assert (len(a.terms), len(b.terms)) == (1, 2)
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


def test_prefix_sums_match_running_totals():
    rng = random.Random(616)
    from motivint.series import prefix_sums

    for _ in range(20):
        num = {rng.randint(0, 4): random_motive_frac(rng, 1) for _ in range(rng.randint(1, 2))}
        den = [(rng.randint(-2, 2), rng.randint(1, 4)) for _ in range(rng.randint(0, 2))]
        s = rs_normalize(num, den)
        ps = prefix_sums(s)
        acc = MotiveFrac.zero()
        for i in range(0, 25):
            acc = acc + s.coefficient(i)
            assert ps.coefficient(i) == acc, (num, den, i)


def test_prefix_sums_are_running_totals_property():
    # a second path for prefix_sums: coefficient i is the sum of the series'
    # coefficients 0..i, on canonical series whose coefficients are packed
    # integer classes in L or term maps (rational coefficients, half-integer
    # Hodge exponents), over a few denominators
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    from fractions import Fraction

    from motivint.series import prefix_sums

    exps = st.integers(-3, 3)
    packed = st.tuples(exps.map(lambda k: (k, k)), st.integers(-5, 5))
    rational = st.tuples(exps.map(lambda k: (k, k)), st.fractions(-3, 3, max_denominator=4))
    half = st.tuples(
        exps.map(lambda k: (Fraction(2 * k + 1, 2), Fraction(1 - 2 * k, 2))), st.integers(-5, 5)
    )
    classes = st.one_of(
        st.lists(packed, min_size=1, max_size=3),
        st.lists(st.one_of(packed, rational, half), min_size=1, max_size=3),
    ).map(lambda items: MotiveClass(dict(items)))
    dens = st.sampled_from([(), ((1, 0),), ((2, 0),), ((1, 0), (2, 1)), ((-1, 0),)])
    coeffs = st.builds(MotiveFrac, classes, dens)
    keys = st.integers(1, 4).flatmap(
        lambda d: st.tuples(st.integers(0, d - 1), st.just(d), st.integers(-2, 2))
    )
    series = st.builds(
        lambda poly, terms: RationalSeries(poly=poly, terms=terms),
        st.dictionaries(st.integers(0, 4), coeffs, max_size=3),
        st.dictionaries(keys, st.lists(coeffs, min_size=1, max_size=3), max_size=3),
    )

    @hypothesis.settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @hypothesis.given(series)
    def check(s):
        ps = prefix_sums(s)
        acc = MotiveFrac.zero()
        for i in range(12):
            acc = acc + s.coefficient(i)
            assert ps.coefficient(i) == acc, (s, i)

    check()


def test_prefix_sums_reject_negative_support():
    import pytest as _pytest
    from motivint.series import prefix_sums

    with _pytest.raises(ValueError):
        prefix_sums(RationalSeries(poly={-1: 1}))


def test_twist_scales_coefficient_i_by_l_to_the_k_i():
    rng = random.Random(1517)
    for _ in range(30):
        num = {rng.randint(-2, 4): random_motive_frac(rng, 1) for _ in range(rng.randint(1, 2))}
        den = [(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(rng.randint(0, 2))]
        series = rs_normalize(num, den)
        k = rng.randint(-3, 3)
        twisted = twist(series, k)
        for i in range(-4, 20):
            assert twisted.coefficient(i) == series.coefficient(i).mul_lpow(k * i), (num, den, k, i)
        assert twist(twisted, -k) == series


def test_faulhaber_matches_power_sums():
    for j in range(13):
        poly = _faulhaber(j)
        for n_max in range(-1, 21):
            value = sum(c * n_max**i for i, c in enumerate(poly))
            assert value == sum(n**j for n in range(n_max + 1))
