"""Work limits: every cap, its estimate and its refusal (WorkLimitError).

The closed forms are exact, so a cap checked before the work starts is the
only defence against an input that would run for hours.  Timings are on a
2-core x86 VM with CPython 3.11.7.  The estimates read geometries and series
by attribute, so this module imports nothing from the package.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, comb, gcd, inf, lcm


class WorkLimitError(ValueError):
    """An input whose estimated work passes a cap; raised before the work."""


# Work cap of ``zeta --window``, ``measure --gt`` and ``thom-sebastiani
# --imax``, in the units of window_terms, measure_gt_terms and ts_check_terms.
# A unit costs up to about 1 us at the dearest shapes measured, so the cap is
# about 10 s.  At the largest admitted input:
# - window (0.8 us a unit with ``--display lpow``): x^2 y^3 z^5 with g = y,
#   0..12902, 6.6 s (99 MB written), x y^2 z^3 w^4 with g = x z, 0..5207,
#   7.9 s, x1...x16, 0..3047, 3.6 s and x^2 y^3, 0..86955, 6.6 s;
# - level (0.9 us): x^2 at 307,692 8.7 s (x at 303,030: 8.8 s), x y with
#   g = y^1000, W = {x = 0}, at 1343 8.8 s (g = y^20: 8.0 s), x y z at 389
#   3.0 s and x1...x4 at 121 3.3 s; past it, x y with g = x^3 y^4,
#   W = {x = 0}, took 16 s at 3144 and x1...x8 27 s at 30;
# - imax (1 us): x against y (765) 9.3 s, the twisted xyz (g = x y^2 z^3)
#   against x (121) 8.9 s, the twisted xy (g = x y^2) against itself (293)
#   9.1 s, x^2 against y^3 (761) 2.0-2.9 s and f = x^2 y^4 (g = x y^2)
#   against x^2 y^3 (293) 3.1-4.4 s while the direct path re-summed its
#   tail at every order.  With the tail kept as running sums per pair they
#   take 0.15, 0.6, 1.6, 0.2 and 0.3 s, so the 16 imax^2 of ts_check_terms
#   now overcharges; it is kept so that the admitted --imax stay those the
#   tests pin.  At --imax 1, x^120 against y^119 (14,280 characters, 913,942
#   units) took 0.5-0.9 s; past the cap, x^500 against y^499 (249,500
#   characters, 15,968,022 units) took 18 s and 264 MiB.
MAX_WORK_TERMS = 10_000_000

# Work cap of ``spectrum --geometry brieskorn(...)``, in the units of
# brieskorn_terms.  A unit costs at most about 60 us: at the cap,
# brieskorn(100000) took 5.8 s, brieskorn(2,49999) 5.7 s and
# brieskorn(316,316) 6.0 s, so the cap is about 10 s.  The benchmark's
# Brieskorn inputs (exponents 2-6, up to three variables) stay below 240.
MAX_BRIESKORN_TERMS = 100_000

# Work cap of the p-adic integrals: the largest number p^(N*m) of residue
# vectors in (Z/p^N)^m that one integral enumerates.  Counting a point costs
# about 0.4-0.5 us when N >= 2 and about 2.6 us at N = 1, where every point is
# its own class mod p and Phi is called once per point, so the cap is about
# 2.5 s of counting.  The test suite goes up to 531441 points and the
# benchmark stays below 20000.
MAX_ENUMERATION_POINTS = 1_000_000

# Work cap of the character sums of check_exp_decomposition at level i:
# phi(p^(i+1)) characters, each summed over at most p^(i+1) value buckets
# and paired with a Gauss sum of up to p^(i+1) terms, one exp per term in
# either sum.  Cold, a term costs about 0.5-0.8 us (at level 0, x at
# p = 2819, the largest admitted prime, took 4.9-6.0 s; x^2 at p = 53,
# level 1, 7.7e6 terms, 3.8-4.1 s), so the cap is about 6 s.  The test suite
# goes up to 354294 terms (p = 3, level 5) and the benchmark to 100842 (p = 7,
# level 2).
MAX_CHARACTER_TERMS = 8_000_000

# Work cap of the finite-field Gauss/Jacobi suite (``oracle gauss``): the
# largest prime p it runs at.  It checks about p^2 character pairs with an
# O(p) Jacobi sum each, read from per-character value tables, so its time
# grows as p^3: about 0.8 s at p = 167.  The test suite and the benchmark use
# primes up to 19.
MAX_GAUSS_PRIME = 167

# Work cap of a polynomial power: the largest exponent, degree and
# coefficient bit length that ``base ** n`` may produce.  Powers multiply one
# factor at a time, so an unbounded exponent such as x^99999999 would run for
# hours before any other limit is read.  A product is held to the same degree.
MAX_POWER = 100

# Nesting cap of a polynomial expression: the most parentheses and unary
# minus signs open at once.  The parser takes four interpreter frames per
# parenthesis and one per unary minus, so the cap needs at most about 400 of
# the default 1000 frames and leaves the rest to the caller.  Without it the
# depth admitted was whatever the caller's stack left: about 246 parentheses
# from ``python -m motivint.cli``, fewer under pytest.  The benchmark's oracle
# inputs nest at most one deep (a negative coefficient after a plus sign).
MAX_NESTING = 100

# Work cap of a polynomial product: the largest number of monomial pairs that
# one multiplication forms.  A pair costs about 0.7 us: the 8.6e6 pairs of
# (x+y+z+1)^24 * (x+y+z+1)^24 took 5.6 s, and parsing that expression 7.6 s,
# so the cap is about 10 s.
MAX_PRODUCT_PAIRS = 10_000_000


def window_terms(series, i_min: int, i_max: int) -> int:
    """Work estimate of exp_t(series, i_min, i_max) on MotiveFrac coefficients,
    and of writing them.

    Each coefficient scans every term, counting 1/4 per term, and evaluates a
    term of step d once in d: its k polynomial coefficients, each of at most
    c numerator terms and denominator factors, count 12 k c / d.  A
    coefficient counts 16 more.
    """
    hits = sum(
        len(npoly) * max(len(c.num.terms) + len(c.den) for c in npoly) / d
        for (_r, d, _a), npoly in series.terms.items()
    )
    return (i_max - i_min + 1) * (16 + len(series.terms) // 4 + ceil(12 * hits))


def measure_gt_terms(geom, i: int) -> int:
    """Work estimate of measure_gt(geom, i) with no level cached.

    The lattice walks of the levels up to i visit at most C(i // n + s, s)
    contact vectors, with s the size of the support of f and n its least
    exponent.  Unless the rates (1 + g_j)/n_j agree over the support, the
    vectors of a level carry distinct exponents, which its class and then the
    running tail measure hold, so a visit counts 11 instead of 1.  Each level
    counts 32 more.  The binomial stops once it passes MAX_WORK_TERMS.
    """
    sup = geom.support
    rates = {Fraction(1 + geom.g_exponents[j], geom.f_exponents[j]) for j in sup}
    weight = 1 if len(rates) == 1 else 11
    steps = i // min(geom.f_exponents[j] for j in sup)
    walks = 1
    for t in range(1, len(sup) + 1):
        walks = walks * (steps + t) // t  # C(steps + t, t)
        if walks * weight > MAX_WORK_TERMS:
            break
    return walks * weight + 32 * i


def ts_check_terms(left, right, i_max: int) -> int:
    """Work estimate of ts_check(left, right, i_max).

    The class products count 16 per order squared, an overcharge now that
    the trivial tail is linear (see MAX_WORK_TERMS); the estimate stops there
    once that passes MAX_WORK_TERMS.  A factor whose f has s coordinates
    visits about C(i_max + s + 1, s + 1) contact vectors in its lattice
    walks up to order i_max.  Each order weighs its strata for
    every character of order dividing lcm(gcd f, gcd f'), whose Fermat sums
    try once each left character of the one coset that can pass, that is
    gcd(gcd f, gcd f') of them: 32 per character and per order or try.
    """
    tail = 16 * i_max * i_max
    if tail > MAX_WORK_TERMS:
        return tail
    walks = sum(comb(i_max + s + 1, s + 1) for s in (len(left.support), len(right.support)))
    characters = lcm(left.order_gcd, right.order_gcd)
    return tail + walks + 32 * characters * (i_max + gcd(left.order_gcd, right.order_gcd))


def brieskorn_terms(exponents) -> int:
    """Work estimate of brieskorn_sg(exponents) and its spectrum.

    The SG of x^a counts a.  The j-th product pairs each Gauss term so far,
    at most min(prod(a_i - 1), lcm(a_i) - 1) of them, with the a_j - 1 terms
    of the new factor, and each pair counts (j/2)^2.  The weight over-counts
    many variables, since brieskorn_sg reduces its factors (3 x 2000 without
    it: 14k units in about 4 s); it is kept so that the admitted inputs stay
    those the tests pin.  The sum stops once it passes MAX_BRIESKORN_TERMS,
    so it takes a few dozen steps at most.
    """
    total, count, order = 0, 0, 1
    for j, a in enumerate(exponents, 1):
        order = lcm(order, a)
        total += a + count * (a - 1) * (j * j // 4)
        count = min(count * (a - 1), order - 1) if count else a - 1
        if total > MAX_BRIESKORN_TERMS:
            break
    return total


def _refuse_over(amount: float, cap: int, what: str, limit: str = "{} work terms") -> None:
    if amount > cap:
        raise WorkLimitError(f"{what} exceeds the limit of {limit.format(cap)}")


def check_window(series, i_min: int, i_max: int) -> None:
    """Refuse ``zeta --window i_min i_max`` on series past MAX_WORK_TERMS."""
    _refuse_over(window_terms(series, i_min, i_max), MAX_WORK_TERMS, "the zeta window")


def check_measure_gt(geom, i: int) -> None:
    """Refuse ``measure --gt i`` on geom past MAX_WORK_TERMS."""
    _refuse_over(measure_gt_terms(geom, i), MAX_WORK_TERMS, "the tail measure")


def check_ts(left, right, i_max: int) -> None:
    """Refuse ``thom-sebastiani --imax i_max`` past MAX_WORK_TERMS."""
    _refuse_over(ts_check_terms(left, right, i_max), MAX_WORK_TERMS, "the Thom-Sebastiani check")


def check_brieskorn(exponents) -> None:
    """Refuse the Brieskorn spectrum of exponents past MAX_BRIESKORN_TERMS."""
    _refuse_over(brieskorn_terms(exponents), MAX_BRIESKORN_TERMS, "the brieskorn spectrum")


def check_gauss_prime(p: int) -> None:
    """Refuse the Gauss/Jacobi suite at a prime past MAX_GAUSS_PRIME."""
    _refuse_over(p, MAX_GAUSS_PRIME, f"the Gauss/Jacobi suite at p = {p}", "p <= {}")


def check_enumeration(p: int, precision: int, m: int) -> None:
    """Refuse p^(precision*m) residue vectors past MAX_ENUMERATION_POINTS.

    Constant time: the exponent is bounded before any power is taken, and a
    nonpositive one (0 ** -1 raises) is left to PadicContext to refuse.
    """
    e = precision * m
    points = inf if e > MAX_ENUMERATION_POINTS.bit_length() else p**e if e > 0 else 0
    what = f"enumerating {p}^({precision}*{m}) residue vectors"
    _refuse_over(points, MAX_ENUMERATION_POINTS, what, "{} points")


def check_character_sums(p: int, level: int) -> None:
    """Refuse phi(p^(level+1)) * p^(level+1) character terms past MAX_CHARACTER_TERMS.

    The value buckets hold f(x) mod p^(level+1), so there are at most
    p^(level+1) of them; with precision >= level + 1 there are at least as
    many points.  Constant time: the exponent is bounded before any power is
    taken.
    """
    k = level + 1
    terms = inf if k > MAX_CHARACTER_TERMS.bit_length() else (p - 1) * p ** (2 * k - 1)
    what = f"summing the characters mod {p}^{k} over the value buckets"
    _refuse_over(terms, MAX_CHARACTER_TERMS, what, "{} terms")
