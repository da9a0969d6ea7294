"""Acceptance suite: every criterion at full scale, one pass/fail line each.

Each criterion runs the same check from ``motivint.invariants`` that
``motivint selftest`` runs at small scale; a check returns None or the first
failing input.  All identities are exact (rational arithmetic) except the
numeric-oracle criteria, which carry a 1e-9 tolerance; each criterion also
has a runtime budget that is asserted.
"""

import random
import time
from fractions import Fraction
from itertools import combinations_with_replacement, product

from motivint import invariants
from motivint.arcs import MonomialGeometry, big_d
from motivint.characters import Character
from motivint.oracles import phi_indicator_zero, phi_one
from motivint.spectra import SpectrumPoly, brieskorn_sg, sp_from_sg

from helpers import all_characters_up_to, all_geometries, random_geometry, random_motive_frac


def _report(n: int, label: str, t0: float, budget: float) -> None:
    elapsed = time.time() - t0
    print(f"PASS criterion {n}: {label} ({elapsed:.2f}s < {budget:.0f}s)")
    assert elapsed < budget, f"criterion {n} exceeded its {budget}s budget"


def test_criterion_1_u_ring_laws():
    t0 = time.time()
    rng = random.Random(20240614)
    chars = [c for c in all_characters_up_to(12) if not c.is_trivial()]
    triples = (tuple(invariants.random_u(rng, chars, 3) for _ in range(3)) for _ in range(1000))
    assert invariants.u_ring_laws(triples) is None
    _report(1, "U-ring associativity/commutativity on 1000 random triples", t0, 5.0)


def test_criterion_2_jacobi_relations():
    t0 = time.time()
    assert invariants.jacobi_relations(all_characters_up_to(12)) is None
    _report(2, "Jacobi relations (1)-(4) exhaustive, denominators <= 12", t0, 10.0)


def test_criterion_3_finite_field_shadow():
    t0 = time.time()
    assert invariants.finite_field_shadow((5, 7, 11, 13)) is None
    _report(3, "finite-field Gauss/Jacobi relations, p in {5,7,11,13}", t0, 5.0)


def test_criterion_4_lambda_multiplicativity_and_tau():
    t0 = time.time()
    rng = random.Random(515)

    def rand_series():
        return invariants.random_series(rng, 5, lambda rng: random_motive_frac(rng, 1))

    pairs = ((rand_series(), rand_series()) for _ in range(200))
    assert invariants.lambda_multiplicativity(pairs) is None
    # tau claim on |i| <= 50 for k <= 6 via the binomial identity
    progressions = [(0, 1, 0), (1, 1, -1), (1, 2, 1), (2, 3, -2)]
    assert invariants.tau_binomial(range(1, 7), progressions, 50) is None
    _report(4, "lambda multiplicativity (200 random) and tau claim |i| <= 50", t0, 30.0)


def test_criterion_5_padic_decomposition():
    t0 = time.time()
    polys = ("x", "x^2", "x^3", "x*y", "x^2+y^3")
    phis = (phi_one, phi_indicator_zero)
    assert invariants.padic_decomposition(polys, (3, 5, 7), (0, 1, 2), phis) is None
    _report(5, "p-adic decomposition over the full matrix, residue <= 1e-9", t0, 120.0)


def test_criterion_6_thom_sebastiani_two_paths():
    t0 = time.time()
    twist_configs = [(0, 0), (1, 0), (0, 2), (2, 1)]
    cases = [
        (MonomialGeometry.make(1, [a], [cl], [1]), MonomialGeometry.make(1, [b], [cr], [1]), 30)
        for a in range(1, 7)
        for b in range(1, 7)
        for (cl, cr) in twist_configs
    ]
    assert invariants.thom_sebastiani(cases) is None
    _report(
        6,
        "product path equals direct path, pairs a,b <= 6, i <= 30, twists c <= 2",
        t0,
        60.0,
    )


def test_criterion_7_exp_series_vs_sg():
    t0 = time.time()
    geoms = list(all_geometries(3, 6))
    assert invariants.exp_vs_sg(geoms) is None
    count = len(geoms)
    assert count > 1500
    _report(7, f"lambda(E) = -L^-m SG on {count} geometries (m <= 3, exps <= 6)", t0, 60.0)


def test_criterion_8_spectra():
    t0 = time.time()
    exponent_lists = [
        exps for nvars in (1, 2, 3) for exps in combinations_with_replacement(range(2, 7), nvars)
    ]
    assert invariants.brieskorn_spectra(exponent_lists) is None
    assert sp_from_sg(brieskorn_sg([2]), 1) == SpectrumPoly({Fraction(1, 2): 1})
    assert sp_from_sg(brieskorn_sg([2, 3]), 2) == SpectrumPoly(
        {Fraction(5, 6): 1, Fraction(7, 6): 1}
    )
    assert sp_from_sg(brieskorn_sg([2, 2, 2]), 3) == SpectrumPoly({Fraction(3, 2): 1})
    origin = [
        MonomialGeometry.make(m, exps, None, range(1, m + 1))
        for m in (1, 2)
        for exps in product(range(1, 5), repeat=m)
    ]
    assert len(origin) == 20
    assert invariants.spectrum_product(combinations_with_replacement(origin, 2)) is None
    _report(
        8,
        "spectra of sums via SG products match the Milnor-basis oracle and, "
        "on 210 origin pairs, the direct stratum path",
        t0,
        10.0,
    )


def _kill_probes(rng: random.Random):
    """20 (geometry, character, order) probes on each of 8 random geometries,
    with characters whose order does not divide big_d."""
    for _ in range(8):
        geom = random_geometry(rng, max_m=3, max_exp=5)
        d = big_d(geom)
        probes = 0
        while probes < 20:
            den = rng.randint(2, 30)
            num = rng.randint(1, den - 1)
            alpha = Character(Fraction(num, den))
            if d % alpha.order == 0:
                continue
            probes += 1
            yield geom, alpha, rng.randint(0, 15)


def test_criterion_9_degenerate_sanity():
    t0 = time.time()
    chars = [Character(Fraction(a, d)) for d in range(1, 8) for a in range(d)]
    assert invariants.smooth_vanishing(chars) is None
    assert invariants.character_kill(_kill_probes(random.Random(909))) is None
    _report(9, "degenerate sanity: zero series, smooth vanishing, character kill", t0, 30.0)
