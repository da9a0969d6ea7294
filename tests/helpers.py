"""Shared test utilities: independent oracles and random generators.

The finite-field arc oracle enumerates truncated arcs over F_q coordinate by
coordinate and forms the literal character sum the motivic integral
specializes to under L -> q; it shares no code with the lattice machinery it
checks.
"""

from __future__ import annotations

import cmath
import importlib
import pkgutil
import random
from fractions import Fraction
from itertools import combinations, product
from math import pi

import motivint
from motivint.arcs import MonomialGeometry
from motivint.characters import Character
from motivint.motives import MotiveClass, MotiveFrac


def motivint_modules():
    for info in pkgutil.iter_modules(motivint.__path__):
        yield importlib.import_module(f"motivint.{info.name}")


def lru_caches() -> dict:
    """Every memo of the package, by qualified name."""
    return {
        f"{module.__name__}.{name}": obj
        for module in motivint_modules()
        for name, obj in vars(module).items()
        if callable(getattr(obj, "cache_info", None))
    }


def clear_caches() -> None:
    for fn in lru_caches().values():
        fn.cache_clear()


def primitive_root_mod(q: int) -> int:
    for g in range(2, q):
        seen = set()
        acc = 1
        for _ in range(q - 1):
            acc = acc * g % q
            seen.add(acc)
        if len(seen) == q - 1:
            return g
    raise ValueError(f"no primitive root mod {q}")


def ff_char_arc_sum(
    geom: MonomialGeometry, q: int, alpha: Character, i: int, level: int
) -> complex:
    """Truncated-arc character sum over F_q at the given truncation level.

    Counts arcs x_j(t) = sum_{k<=level} c_{j,k} t^k with origin on the
    hyperplane union and ord f = i, weighting each by chi(ac f) q^{-ord g},
    normalized by q^{-(level+1) m}.  Exact for i <= level provided g is
    supported inside the support of f.
    """
    if (q - 1) % alpha.order:
        raise ValueError("character order must divide q - 1")
    if i > level:
        raise ValueError("truncation level too small")
    for j in range(geom.m):
        if geom.g_exponents[j] and not geom.f_exponents[j]:
            raise ValueError("oracle needs g supported inside the support of f")
    g = primitive_root_mod(q)
    dlog = {}
    acc = 1
    for k in range(q - 1):
        dlog[acc] = k
        acc = acc * g % q
    a_num = alpha.value.numerator * ((q - 1) // alpha.order)

    def chi(c: int) -> complex:
        return cmath.exp(2j * pi * a_num * dlog[c] / (q - 1))

    m = geom.m
    total = 0j
    coords = list(range(m))
    for arcs in product(product(range(q), repeat=level + 1), repeat=m):
        if not any(arcs[idx - 1][0] == 0 for idx in geom.w_indices):
            continue
        ords = []
        for j in coords:
            nz = [k for k, c in enumerate(arcs[j]) if c]
            ords.append(nz[0] if nz else None)
        ord_f = 0
        for j in coords:
            n = geom.f_exponents[j]
            if not n:
                continue
            if ords[j] is None:
                ord_f = None
                break
            ord_f += n * ords[j]
        if ord_f != i:
            continue
        ord_g = sum(
            geom.g_exponents[j] * ords[j] for j in coords if geom.g_exponents[j]
        )
        ac = 1
        for j in coords:
            n = geom.f_exponents[j]
            if n:
                ac = ac * pow(arcs[j][ords[j]], n, q) % q
        total += chi(ac) * Fraction(1, q**ord_g)
    return total * Fraction(1, q ** ((level + 1) * m))


def ff_total_measure(geom: MonomialGeometry, q: int) -> Fraction:
    """Untwisted measure of arcs based on the hyperplane union: #W(F_q) / q^m."""
    if any(geom.g_exponents):
        raise ValueError("exact only without a twist")
    count = 0
    for origin in product(range(q), repeat=geom.m):
        if any(origin[idx - 1] == 0 for idx in geom.w_indices):
            count += 1
    return Fraction(count, q**geom.m)


def random_motive_class(rng: random.Random, size: int = 3) -> MotiveClass:
    terms = {}
    for _ in range(rng.randint(1, size)):
        if rng.random() < 0.3:
            p = Fraction(rng.randint(-4, 4), rng.choice([2, 3]))
            q = rng.randint(-2, 2) - p
        else:
            p = rng.randint(-3, 3)
            q = rng.randint(-3, 3)
        terms[(p, q)] = rng.randint(-4, 4)
    return MotiveClass(terms)


def random_motive_frac(rng: random.Random, den_max: int = 2) -> MotiveFrac:
    den = []
    for _ in range(rng.randint(0, den_max)):
        a = rng.randint(-2, 3)
        b = rng.randint(-2, 3)
        if a == b:
            b += 1
        den.append((a, b))
    return MotiveFrac(random_motive_class(rng), den)


def all_characters_up_to(max_den: int) -> list[Character]:
    out = {Character.trivial()}
    for d in range(2, max_den + 1):
        for a in range(1, d):
            out.add(Character(Fraction(a, d)))
    return sorted(out)


def random_geometry(rng: random.Random, max_m: int = 3, max_exp: int = 5) -> MonomialGeometry:
    m = rng.randint(1, max_m)
    while True:
        f_exp = [rng.randint(0, max_exp) for _ in range(m)]
        positive = [j + 1 for j, n in enumerate(f_exp) if n >= 1]
        if positive:
            break
    k = rng.randint(1, len(positive))
    w = rng.sample(positive, k)
    g_exp = [rng.choice([0, 0, 1, 2]) for _ in range(m)]
    return MonomialGeometry.make(m, f_exp, g_exp, w)


def all_geometries(max_m: int, max_exp: int):
    """Every untwisted geometry with m <= max_m, exponents <= max_exp and every W."""
    for m in range(1, max_m + 1):
        for exps in product(range(max_exp + 1), repeat=m):
            positive = [j + 1 for j, n in enumerate(exps) if n >= 1]
            if not positive:
                continue
            for r in range(1, len(positive) + 1):
                for w in combinations(positive, r):
                    yield MonomialGeometry.make(m, list(exps), None, list(w))


def twisted_geometries(rng: random.Random, count: int):
    """Random geometries with a nonzero twist g, m <= 3 and exponents <= 5."""
    out = []
    while len(out) < count:
        geom = random_geometry(rng, max_m=3, max_exp=5)
        if any(geom.g_exponents):
            out.append(geom)
    return out
