"""Byte corpus: sha256 digests of the JSON of the closed forms.

Each digest covers one kind of value over a fixed sample: ``exp_series``,
``measure_series``, ``sg`` and ``zeta_series`` (every character) on every
fifth criterion-7 geometry plus 40 twisted ones, and
``ts_direct_exp_coefficient`` on the benchmark's four 2-d pairs at orders
0..30.  The JSON sorts its keys, so one more digest, ``key_order``, pins
the insertion order of ``poly`` and ``terms`` of every ``exp_series``,
``measure_series`` and ``zeta_series`` in the sample.  On the same four
pairs, ``hadamard`` pins the JSON and key order of ``ts_direct_zeta_series``
(every character) and of ``hadamard(exp_series(l), exp_series(r))``, and
``ts_direct_zeta_series`` pins the same for every character on the 324
ordered pairs of lines x^a with twist g = x^c, a <= 6 and c <= 2 (the family
of criterion 6, whose 144 cases are among them).  The
digests in ``golden/closed_form_sha256.json`` pin every byte, so a change of
representation below the JSON must leave them as they are.

Re-record (only for an intended change of output) with::

    PYTHONPATH=src:tests python tests/test_corpus.py --record

Check the same digests, plus ``lambda_functional(exp_series)``, on all 2180
geometries (the 1980 of criterion 7 and 200 twisted ones; about half a
minute, not part of the test run) against ``golden/closed_form_full_sha256.json``
with::

    PYTHONPATH=src:tests python tests/test_corpus.py --full

It exits 1 and prints both sets of digests when they differ.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

from motivint.arcs import (
    MonomialGeometry,
    exp_series,
    measure_series,
    ts_direct_exp_coefficient,
    ts_direct_zeta_series,
    zeta_series,
)
from motivint.gaussring import UElement
from motivint.jsonio import motive_frac_to_json, series_to_json, uelement_to_json
from motivint.series import hadamard, lambda_functional
from motivint.spectra import sg

from helpers import all_geometries, twisted_geometries

GOLDEN = Path(__file__).resolve().parent / "golden" / "closed_form_sha256.json"
GOLDEN_FULL = GOLDEN.with_name("closed_form_full_sha256.json")

# the benchmark's 2-d twisted pairs (bench/benchlib/inputs._TS_2D_PAIRS)
TS_2D_PAIRS = (
    ((2, (2, 2), (1, 0), (1,)), (1, (3,), (1,), (1,))),
    ((2, (2, 4), (0, 1), (1, 2)), (1, (2,), (0,), (1,))),
    ((2, (3, 3), (1, 1), (2,)), (2, (2, 2), (0, 1), (1, 2))),
    ((2, (4, 2), (2, 0), (1, 2)), (1, (6,), (1,), (1,))),
)
TS_LEVELS = 30


def corpus_geometries() -> list[MonomialGeometry]:
    return list(all_geometries(3, 6))[::5] + twisted_geometries(random.Random(2200), 40)


def full_geometries() -> list[MonomialGeometry]:
    return list(all_geometries(3, 6)) + twisted_geometries(random.Random(2), 200)


def ts_pairs() -> list[tuple[MonomialGeometry, MonomialGeometry]]:
    return [(MonomialGeometry.make(*left), MonomialGeometry.make(*right)) for left, right in TS_2D_PAIRS]


def criterion_6_pairs() -> list[tuple[MonomialGeometry, MonomialGeometry]]:
    lines = [MonomialGeometry.make(1, [a], [c], [1]) for a in range(1, 7) for c in range(3)]
    return [(left, right) for left in lines for right in lines]


def _put(h, obj) -> None:
    h.update(json.dumps(obj, separators=(",", ":")).encode() + b"\n")


def closed_form_digests(geometries: list[MonomialGeometry]) -> dict[str, str]:
    kinds = ("exp_series", "measure_series", "sg", "lambda_exp", "zeta_series", "key_order")
    hashes = {kind: hashlib.sha256() for kind in kinds}

    def put_keys(s) -> None:
        _put(hashes["key_order"], [list(s.poly), list(s.terms)])

    for geom in geometries:
        e, m = exp_series(geom), measure_series(geom)
        _put(hashes["exp_series"], series_to_json(e))
        _put(hashes["measure_series"], series_to_json(m))
        _put(hashes["sg"], uelement_to_json(sg(geom)))
        lam = lambda_functional(e)  # a MotiveFrac zero when E has no T^0 term
        lam_json = uelement_to_json if isinstance(lam, UElement) else motive_frac_to_json
        _put(hashes["lambda_exp"], lam_json(lam))
        put_keys(e)
        put_keys(m)
        for alpha in geom.characters():
            z = zeta_series(geom, alpha)
            _put(hashes["zeta_series"], [str(alpha), series_to_json(z)])
            put_keys(z)
    return {kind: h.hexdigest() for kind, h in hashes.items()}


def corpus_digests() -> dict[str, str]:
    out = closed_form_digests(corpus_geometries())
    del out["lambda_exp"]  # a --full digest only
    ts, had = hashlib.sha256(), hashlib.sha256()
    for left, right in ts_pairs():
        for i in range(TS_LEVELS + 1):
            _put(ts, uelement_to_json(ts_direct_exp_coefficient(left, right, i)))
        for alpha, z in ts_direct_zeta_series(left, right).items():
            _put(had, [str(alpha), series_to_json(z), list(z.poly), list(z.terms)])
        e = hadamard(exp_series(left), exp_series(right))
        _put(had, [series_to_json(e), list(e.poly), list(e.terms)])
    out["ts_direct_exp_coefficient"] = ts.hexdigest()
    out["hadamard"] = had.hexdigest()
    direct = hashlib.sha256()
    for left, right in criterion_6_pairs():
        for alpha, z in ts_direct_zeta_series(left, right).items():
            _put(direct, [str(alpha), series_to_json(z), list(z.poly), list(z.terms)])
    out["ts_direct_zeta_series"] = direct.hexdigest()
    return out


def test_closed_form_bytes_match_the_recorded_corpus():
    assert len(corpus_geometries()) == 436
    want = json.loads(GOLDEN.read_text())
    assert corpus_digests() == want


if __name__ == "__main__":
    if sys.argv[1:] == ["--record"]:
        GOLDEN.write_text(json.dumps(corpus_digests(), indent=2, sort_keys=True) + "\n")
    elif sys.argv[1:] == ["--full"]:
        geometries = full_geometries()
        got = {"geometries": len(geometries), **closed_form_digests(geometries)}
        want = json.loads(GOLDEN_FULL.read_text())
        if got != want:
            print("recorded:", json.dumps(want, indent=2, sort_keys=True))
            print("computed:", json.dumps(got, indent=2, sort_keys=True))
            sys.exit(1)
        print(f"all {len(geometries)} geometries match {GOLDEN_FULL.name}")
    else:
        sys.exit("usage: test_corpus.py --record | --full")
