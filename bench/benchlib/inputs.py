"""Seeded request streams for the four workloads.

Every stream is a list of ``Request`` values made only from the seed; the
program under test sees nothing but these inputs.  Streams are ordered so
that any prefix is a fair sample of the whole: a timed run stops after
whatever prefix fits in its time, and that prefix must have the same mix on
every seed.
"""

from __future__ import annotations

import json
import os
import random
from collections import namedtuple
from itertools import combinations, combinations_with_replacement, product
from math import gcd

from motivint.arcs import MonomialGeometry, big_d

WORKLOADS = ("closed_form_sweep", "ts_coefficients", "cli_mix", "padic_oracle")

# kind: what the request does; key: identity of its input, used by the
# reference fingerprints; args: what the executor needs; props: input
# properties for the input summary (m, big_d, ...).
Request = namedtuple("Request", "kind key args props")

_GOLDEN = (5**0.5 - 1) / 2


def geometry_key(geom: MonomialGeometry) -> str:
    key = (
        f"{geom.m}:{','.join(map(str, geom.f_exponents))}:"
        f"{','.join(map(str, sorted(geom.w_indices)))}"
    )
    if any(geom.g_exponents):
        key += ":g" + ",".join(map(str, geom.g_exponents))
    return key


def geometry_props(geom: MonomialGeometry) -> dict:
    return {"m": geom.m, "big_d": big_d(geom)}


def criterion7_geometries() -> list[MonomialGeometry]:
    """m <= 3, f-exponents <= 6, every nonempty W inside the support, g = 0."""
    out = []
    for m in range(1, 4):
        for exps in product(range(7), repeat=m):
            positive = [j + 1 for j, n in enumerate(exps) if n]
            for r in range(1, len(positive) + 1):
                for w in combinations(positive, r):
                    out.append(MonomialGeometry.make(m, exps, None, w))
    return out


def _spread(items: list, rng: random.Random) -> list:
    """A permutation of ``items`` (sorted by a cost proxy) whose every prefix
    samples the sorted range evenly: a Weyl sequence with a seeded offset."""
    n = len(items)
    offset = rng.random()
    taken = [False] * n
    out = []
    for k in range(n):
        pos = int(((k * _GOLDEN + offset) % 1.0) * n)
        while taken[pos]:
            pos = (pos + 1) % n
        taken[pos] = True
        out.append(items[pos])
    return out


def stratified_order(geoms: list[MonomialGeometry], rng: random.Random) -> list[MonomialGeometry]:
    """All of ``geoms``, ordered so that every prefix holds each (big_d, m, |W|)
    cell in its share of the whole, to within one geometry.

    Cost grows steeply with big_d (30 and 60 take about two thirds of the
    criterion-7 time), so a prefix that over- or under-samples a class would
    make throughput and tail latency depend on the seed.
    """
    cells: dict = {}
    for g in geoms:
        cells.setdefault((big_d(g), g.m, len(g.w_indices)), []).append(g)
    order = sorted(cells)
    def proxy(g):
        return sum(g.f_exponents), g.f_exponents, sorted(g.w_indices)

    queues = {c: _spread(sorted(cells[c], key=proxy), rng) for c in order}
    served = dict.fromkeys(order, 0)
    total = len(geoms)
    out = []
    for step in range(1, total + 1):
        cell = max(order, key=lambda c: len(cells[c]) * step / total - served[c])
        out.append(queues[cell][served[cell]])
        served[cell] += 1
    return out


# ---------------------------------------------------------------------------
# closed_form_sweep
# ---------------------------------------------------------------------------


def closed_form_sweep(rng: random.Random) -> list[Request]:
    return [
        Request("sweep", geometry_key(g), g, geometry_props(g))
        for g in stratified_order(criterion7_geometries(), rng)
    ]


# ---------------------------------------------------------------------------
# ts_coefficients
# ---------------------------------------------------------------------------

TS_LEVELS = 30

# Two-dimensional twisted factors, so the direct path meets characters of
# both factors and twists on more than one coordinate.
_TS_2D_PAIRS = (
    ((2, (2, 2), (1, 0), (1,)), (1, (3,), (1,), (1,))),
    ((2, (2, 4), (0, 1), (1, 2)), (1, (2,), (0,), (1,))),
    ((2, (3, 3), (1, 1), (2,)), (2, (2, 2), (0, 1), (1, 2))),
    ((2, (4, 2), (2, 0), (1, 2)), (1, (6,), (1,), (1,))),
)


def ts_pairs() -> list[tuple[MonomialGeometry, MonomialGeometry]]:
    """Criterion-6 pairs with every twist c <= 2 on either side, then the 2-d pairs."""
    pairs = []
    for a in range(1, 7):
        for b in range(1, 7):
            for cl in range(3):
                for cr in range(3):
                    pairs.append(
                        (
                            MonomialGeometry.make(1, [a], [cl], [1]),
                            MonomialGeometry.make(1, [b], [cr], [1]),
                        )
                    )
    for left, right in _TS_2D_PAIRS:
        pairs.append((MonomialGeometry.make(*left), MonomialGeometry.make(*right)))
    return pairs


def ts_coefficients(rng: random.Random) -> list[Request]:
    """Pairs in seeded order; levels 1..30 ascending within a pair, as a
    caller checking one pair would ask for them."""
    pairs = ts_pairs()
    rng.shuffle(pairs)
    out = []
    for left, right in pairs:
        kind = "ts_1d" if left.m == right.m == 1 else "ts_2d"
        props = {
            "m": left.m + right.m,
            "big_d": _lcm(big_d(left), big_d(right)),
        }
        for i in range(1, TS_LEVELS + 1):
            key = f"{geometry_key(left)}|{geometry_key(right)}|{i}"
            out.append(Request(kind, key, (left, right, i), props))
    return out


def _lcm(a: int, b: int) -> int:
    return a * b // gcd(a, b)


# ---------------------------------------------------------------------------
# cli_mix
# ---------------------------------------------------------------------------

CLI_ZETA = 80
CLI_MEASURE = 40
CLI_SAMPLE_SEED = 80
ZETA_WINDOW = (1, 8)


def _origin(g: MonomialGeometry) -> bool:
    return all(g.f_exponents) and len(g.w_indices) == g.m


def cli_mix(rng: random.Random) -> list[Request]:
    """Mostly sg/spectrum on the 258 origin-supported geometries, plus
    Brieskorn spectra, zeta windows and small tail measures.

    No two geometry-file requests share a geometry, so each pays the cold
    caches a CLI user pays; Brieskorn spectra reuse the one-variable SG.
    """
    all_geoms = criterion7_geometries()
    origin = [g for g in all_geoms if _origin(g)]
    rng.shuffle(origin)
    reqs = []
    for n, g in enumerate(origin):
        kind = "sg" if n % 2 == 0 else "spectrum"
        reqs.append(Request(kind, f"{kind}|{geometry_key(g)}", g, geometry_props(g)))
    for nvars in (1, 2, 3):
        for exps in combinations_with_replacement(range(2, 7), nvars):
            reqs.append(
                Request(
                    "brieskorn",
                    "brieskorn|" + ",".join(map(str, exps)),
                    exps,
                    {"m": nvars, "big_d": _lcm_all(exps)},
                )
            )
    # The zeta and measure geometries are one fixed stratified sample: which
    # heavy geometries a short run meets would otherwise set its tail latency.
    # The seed draws their characters, levels and the order.
    non_origin = [g for g in all_geoms if not _origin(g)]
    others = stratified_order(non_origin, random.Random(CLI_SAMPLE_SEED))
    for g in others[:CLI_ZETA]:
        alpha = rng.choice(g.characters())
        reqs.append(
            Request(
                "zeta",
                f"zeta|{geometry_key(g)}|{alpha}",
                (g, alpha),
                geometry_props(g),
            )
        )
    small = [g for g in others[CLI_ZETA:] if g.m <= 2]
    for g in small[:CLI_MEASURE]:
        level = rng.randint(1, 20)
        reqs.append(
            Request("measure", f"measure|{geometry_key(g)}|{level}", (g, level), geometry_props(g))
        )
    rng.shuffle(reqs)
    return reqs


def _lcm_all(values) -> int:
    out = 1
    for v in values:
        out = _lcm(out, v)
    return out


def geometry_json(g: MonomialGeometry) -> dict:
    return {
        "ambient_dim": g.m,
        "f_exponents": list(g.f_exponents),
        "g_exponents": list(g.g_exponents),
        "w_indices": sorted(g.w_indices),
    }


def write_geometry_files(reqs: list[Request], workdir: str) -> dict:
    """One geometry file per request that reads one; returns index -> path."""
    paths = {}
    for n, req in enumerate(reqs):
        if req.kind in ("sg", "spectrum", "zeta", "measure"):
            geom = req.args if req.kind in ("sg", "spectrum") else req.args[0]
            path = os.path.join(workdir, f"g{n}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(geometry_json(geom), fh)
            paths[n] = path
    return paths


# ---------------------------------------------------------------------------
# padic_oracle
# ---------------------------------------------------------------------------

PADIC_ROUNDS = 10
# Largest residue enumeration p^(N*m) a decomposition request may take, so
# that no single request dominates a run.
PADIC_MAX_POINTS = 20000
GAUSS_PRIMES = (5, 7, 11, 13, 17, 19)
# The criterion-5 polynomial shapes, extended to three variables.  The
# oracle's cost follows the shape, prime, level and Phi, so a round of fixed
# slots costs about the same on every seed; the seed draws the coefficients.
PADIC_SHAPES = {
    1: ("{a}*x", "{a}*x^2", "{a}*x^3"),
    2: ("{a}*x*y", "{a}*x^2 + {b}*y^3"),
    3: ("{a}*x*y*z", "{a}*x^2 + {b}*y^2 + {c}*z^2"),
}


def padic_slots() -> list[tuple[str, int, int, int, str]]:
    """(shape, m, p, level, phi) with p^((level+1) m) <= PADIC_MAX_POINTS."""
    return [
        (shape, m, p, level, phi)
        for m, shapes in PADIC_SHAPES.items()
        for shape in shapes
        for p in (3, 5, 7)
        for level in (0, 1, 2)
        for phi in ("one", "indicator0")
        if p ** ((level + 1) * m) <= PADIC_MAX_POINTS
    ]


def padic_oracle(rng: random.Random) -> list[Request]:
    """Rounds of identical shape: every slot once with fresh unit coefficients,
    plus one Gauss/Jacobi suite per prime, in seeded order.  The oracles keep
    no result caches, so a run that outlasts the rounds cycles through them."""
    reqs = []
    for _ in range(PADIC_ROUNDS):
        batch = []
        for shape, m, p, level, phi in padic_slots():
            poly = shape.format(**{v: rng.choice((1, 2, -1, -2)) for v in "abc"})
            props = {"m": m, "p": p, "level": level, "points": p ** ((level + 1) * m)}
            key = f"{poly}|{p}|{level}|{phi}"
            batch.append(Request("decomposition", key, (poly, p, level, phi), props))
        for p in GAUSS_PRIMES:
            batch.append(Request("gauss", f"gauss|{p}", p, {"p": p}))
        rng.shuffle(batch)
        reqs.extend(batch)
    return reqs


def make_stream(workload: str, seed: int) -> list[Request]:
    rng = random.Random(f"{workload}:{seed}")
    return {
        "closed_form_sweep": closed_form_sweep,
        "ts_coefficients": ts_coefficients,
        "cli_mix": cli_mix,
        "padic_oracle": padic_oracle,
    }[workload](rng)
