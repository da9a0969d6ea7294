"""Registry of invariant checks: each identity the package asserts, written once.

Every check takes its inputs (characters, random draws, primes, geometries)
and returns None when the identity holds on all of them, else the first
failing input.  ``selftest`` runs each check at small scale (``CHECKS``);
the acceptance suite runs the same functions at full scale.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product
from math import comb

from .arcs import MonomialGeometry, char_integral, exp_series, ts_check
from .characters import Character, characters_of_order_dividing
from .gaussring import UElement, hodge_realize_u
from .motives import MotiveClass, MotiveFrac, jacobi
from .oracles import (
    TOLERANCE,
    PadicContext,
    ResidueCharacter,
    character_values,
    check_exp_decomposition,
    gauss_sum_numeric,
    jacobi_sum_from_values,
    phi_one,
)
from .polyparse import parse_poly
from .series import hadamard, lambda_functional, rs_normalize, tau
from .spectra import (
    brieskorn_oracle,
    brieskorn_sg,
    s_phi,
    sg,
    sg_direct_product,
    sp,
    sp_from_sg,
)

# ---------------------------------------------------------------------------
# random inputs shared by both scales
# ---------------------------------------------------------------------------


def random_u(rng: random.Random, chars: list[Character], bound: int) -> UElement:
    """An integer plus one to three Gauss terms, coefficients in [-bound, bound]."""
    u = UElement(rng.randint(-bound, bound))
    for _ in range(rng.randint(1, 3)):
        u = u + UElement.from_gauss(rng.choice(chars), rng.randint(-bound, bound))
    return u


def random_series(rng: random.Random, key_max: int, coeff):
    """A normalized series with numerator {k: coeff(rng)}, k <= key_max, over up
    to two factors 1 - L^a T^d."""
    num = {rng.randint(1, key_max): coeff(rng) for _ in range(rng.randint(1, 2))}
    den = [(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(rng.randint(0, 2))]
    return rs_normalize(num, den)


# ---------------------------------------------------------------------------
# the checks
# ---------------------------------------------------------------------------


def u_ring_laws(triples):
    """Associativity and commutativity of the Gauss-sum ring, and the Hodge
    realization being multiplicative."""
    for a, b, c in triples:
        ab = a * b
        if ab * c != a * (b * c) or ab != b * a:
            return a, b, c
        if hodge_realize_u(ab) != hodge_realize_u(a) * hodge_realize_u(b):
            return a, b, c
    return None


def _jacobi_triple(a1: Character, a2: Character, a3: Character) -> MotiveClass:
    """J(a1,a2)(J(a1a2,a3) - eps) + delta, which must be symmetric in all three."""
    lef = MotiveClass.lpow(1)
    if not (a1 * a2).is_trivial():
        eps, delta = MotiveClass.zero(), MotiveClass.zero()
    elif not a1.is_trivial():
        eps, delta = MotiveClass.one(), lef - 1
    else:
        eps, delta = MotiveClass.one(), lef
    return jacobi(a1, a2) * (jacobi(a1 * a2, a3) - eps) + delta


def jacobi_relations(chars):
    """Relations (1)-(3) and symmetry of J over pairs, relation (4) over triples."""
    for a in chars:
        for b in chars:
            j = jacobi(a, b)
            if a.is_trivial() and b.is_trivial():
                want = MotiveClass.lpow(1)
            elif a.is_trivial() or b.is_trivial():
                want = MotiveClass.zero()
            elif (a * b).is_trivial():
                want = MotiveClass.from_scalar(-1)
            else:
                want = j
            if j != want or j != jacobi(b, a):
                return a, b
    first: dict = {}
    for a1, a2, a3 in product(chars, repeat=3):
        got = _jacobi_triple(a1, a2, a3)
        if got != first.setdefault(tuple(sorted((a1, a2, a3))), got):
            return a1, a2, a3
    return None


def gauss_jacobi_residue(ctx: PadicContext) -> tuple[int, float]:
    """(pairs checked, largest residue) of g(c1) g(c2) = j(c1, c2) g(c1 c2),
    |j| = sqrt(p) and g(c) g(c^-1) = c(-1) p over F_p."""
    p = ctx.p
    chars = [ResidueCharacter(p, 1, k) for k in range(p - 1)]
    gs = {c.index: gauss_sum_numeric(ctx, c) for c in chars}
    # each character's values once per call, not once per Jacobi sum
    values = {c.index: character_values(c) for c in chars}
    worst = 0.0
    pairs = 0
    for c1 in chars:
        if not c1.is_trivial():
            worst = max(worst, abs(gs[c1.index] * gs[c1.inverse().index] - c1.value(p - 1) * p))
        for c2 in chars:
            prod = c1 * c2
            if c1.is_trivial() or c2.is_trivial() or prod.is_trivial():
                continue
            j = jacobi_sum_from_values(values[c1.index], values[c2.index])
            worst = max(worst, abs(gs[c1.index] * gs[c2.index] - j * gs[prod.index]))
            worst = max(worst, abs(abs(j) - p**0.5))
            pairs += 1
    return pairs, worst


def finite_field_shadow(primes):
    """The finite-field Gauss/Jacobi relations hold to the oracle tolerance at each prime."""
    for p in primes:
        if gauss_jacobi_residue(PadicContext(p, 1))[1] > TOLERANCE:
            return p
    return None


def lambda_multiplicativity(pairs):
    """lambda(phi * psi) = -lambda(phi) lambda(psi) for the Hadamard product."""
    for phi, psi in pairs:
        lam = lambda_functional(hadamard(phi, psi))
        if lam != -1 * (lambda_functional(phi) * lambda_functional(psi)):
            return phi, psi
    return None


def tau_binomial(ks, progressions, window: int):
    """tau of T^r / (1 - L^a T^d)^k has coefficient binom(n+k-1, k-1) L^{na} at
    i = r + nd for every integer n (negative n by binomial reciprocity), and 0
    off the progression, for |i| <= window."""
    for k in ks:
        for r, d, a in progressions:
            tv = tau(rs_normalize({r: 1}, [(a, d)] * k))
            for i in range(-window, window + 1):
                if (i - r) % d:
                    want = MotiveFrac.zero()
                else:
                    n = (i - r) // d
                    if n >= 0:
                        coef = comb(n + k - 1, k - 1)
                    else:
                        coef = (-1) ** (k - 1) * comb(-n - 1, k - 1)
                    want = MotiveFrac(MotiveClass.lpow(n * a)) * coef
                if tv.coefficient(i) != want:
                    return k, (r, d, a), i
    return None


def padic_decomposition(polys, primes, levels, phis):
    """The p-adic exponential integral splits into Gauss sums times character
    integrals, for every polynomial, prime, level and test function."""
    for poly_s in polys:
        f = parse_poly(poly_s)
        m = max(f.nvars, 1)
        for p in primes:
            for i in levels:
                ctx = PadicContext(p, i + 1)
                for make_phi in phis:
                    report = check_exp_decomposition(f, ctx, make_phi(p, m), i)
                    if not report.ok:
                        return poly_s, p, i, report.residue
    return None


def thom_sebastiani(cases):
    """Product path equals direct path on each (left, right, i_max)."""
    for left, right, i_max in cases:
        failures = ts_check(left, right, i_max).failures
        if failures:
            return left, right, failures[0]
    return None


def exp_vs_sg(geoms):
    """lambda(E) = -L^-m SG for the exponential series E of each geometry.

    Two paths: lambda of the closed form of E, against SG read off the T^0
    slice of the unreduced zeta fraction."""
    for geom in geoms:
        if lambda_functional(exp_series(geom)) != sg(geom).mul_lpow(-geom.m) * (-1):
            return geom
    return None


def brieskorn_spectra(exponent_lists):
    """The spectrum of sum x_i^{a_i} read off the SG product equals the
    Milnor-basis oracle."""
    for exps in exponent_lists:
        if sp_from_sg(brieskorn_sg(exps), len(exps)) != brieskorn_oracle(exps):
            return exps
    return None


def spectrum_product(pairs):
    """The spectrum of f (+) f' read off the SG of the direct stratum path,
    which takes no Gauss-ring product, equals sp(f) * sp(f'), on each
    origin-supported, untwisted pair."""
    for left, right in pairs:
        if sp_from_sg(sg_direct_product(left, right), left.m + right.m) != sp(left) * sp(right):
            return left, right
    return None


def smooth_vanishing(chars):
    """For f = x the exponential series, SG and every s_phi vanish."""
    smooth = MonomialGeometry.make(1, [1], None, [1])
    if not exp_series(smooth).is_zero() or sg(smooth):
        return smooth
    for alpha in chars:
        if s_phi(smooth, alpha):
            return alpha
    return None


def character_kill(probes):
    """char_integral(geom, alpha, i) = 0 on each (geom, alpha, i) whose
    character cannot pull back along f."""
    for geom, alpha, i in probes:
        if char_integral(geom, alpha, i):
            return geom, alpha, i
    return None


# ---------------------------------------------------------------------------
# small scale, behind ``motivint selftest``
# ---------------------------------------------------------------------------


def _characters_up_to(max_den: int) -> list[Character]:
    return sorted({c for d in range(1, max_den + 1) for c in characters_of_order_dividing(d)})


def _small_triples():
    rng = random.Random(11)
    chars = [c for c in _characters_up_to(8) if not c.is_trivial()]
    for _ in range(200):
        yield tuple(random_u(rng, chars, 2) for _ in range(3))


def _small_series_pairs():
    rng = random.Random(5)

    def coeff(rng):
        return MotiveFrac(MotiveClass.lpow(rng.randint(-2, 2))) * rng.randint(-2, 2)

    for _ in range(40):
        yield random_series(rng, 4, coeff), random_series(rng, 4, coeff)


def _line(a: int, twist: int = 0) -> MonomialGeometry:
    return MonomialGeometry.make(1, [a], [twist], [1])


def _origin(exps) -> MonomialGeometry:
    return MonomialGeometry.make(len(exps), exps, None, range(1, len(exps) + 1))


def _small_geometries():
    for exps in product(range(0, 4), repeat=2):
        if not any(exps):
            continue
        pos = [j + 1 for j, n in enumerate(exps) if n]
        for size in range(1, len(pos) + 1):
            yield MonomialGeometry.make(2, exps, None, pos[:size])
    for a in range(1, 4):
        yield _line(a)


def _small_kill_probes():
    geom = MonomialGeometry.make(2, [2, 4], None, [1])
    rng = random.Random(3)
    for _ in range(10):
        d = rng.randint(2, 12)
        alpha = Character(Fraction(rng.randint(1, d - 1), d))
        if alpha.order in (1, 2):
            continue  # orders dividing gcd(2,4) do not vanish
        yield geom, alpha, rng.randint(1, 10)


CHECKS = [
    ("u-ring-laws", lambda: u_ring_laws(_small_triples())),
    ("jacobi-relations", lambda: jacobi_relations(_characters_up_to(8))),
    ("finite-field-shadow", lambda: finite_field_shadow((5, 7))),
    ("lambda-multiplicativity", lambda: lambda_multiplicativity(_small_series_pairs())),
    ("tau-claim", lambda: tau_binomial(range(1, 4), [(0, 1, 0), (1, 2, -1), (2, 3, 1)], 20)),
    (
        "padic-decomposition",
        lambda: padic_decomposition(("x^2", "x"), (3, 5), (0, 1), (phi_one,)),
    ),
    (
        "thom-sebastiani",
        lambda: thom_sebastiani(
            [(_line(a), _line(b), 12) for a in (1, 2, 3) for b in (1, 2, 3)]
            + [(_line(2, 1), _line(3, 2), 10)]
        ),
    ),
    ("exp-vs-sg", lambda: exp_vs_sg(_small_geometries())),
    (
        "spectra-brieskorn",
        lambda: brieskorn_spectra(([2], [3], [2, 2], [2, 3], [3, 4], [2, 2, 2], [2, 3, 4])),
    ),
    (
        "spectrum-product",
        lambda: spectrum_product(
            [(_origin([a]), _origin([b])) for a in (2, 3) for b in (2, 3, 4)]
            + [(_origin([2, 3]), _origin([2]))]
        ),
    ),
    (
        "degenerate-sanity",
        lambda: smooth_vanishing([Character.trivial()])
        or character_kill(_small_kill_probes()),
    ),
]


def run_selftest(out=print) -> int:
    """Run every check at small scale, one line each; returns the number of failures."""
    failures = 0
    for name, check in CHECKS:
        ok = check() is None
        out(f"{'ok  ' if ok else 'FAIL'} {name}")
        failures += not ok
    return failures
