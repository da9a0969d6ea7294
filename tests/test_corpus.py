"""Byte corpus: sha256 digests of the JSON of the closed forms.

Each digest covers one kind of value over a fixed sample: ``exp_series``,
``measure_series``, ``sg`` and ``zeta_series`` (every character) on every
fifth criterion-7 geometry plus 40 twisted ones, and
``ts_direct_exp_coefficient`` on the benchmark's four 2-d pairs at orders
0..30.  The JSON sorts its keys, so one more digest, ``key_order``, pins
the insertion order of ``poly`` and ``terms`` of every ``exp_series``,
``measure_series`` and ``zeta_series`` in the sample.  The digests in
``golden/closed_form_sha256.json`` pin every byte, so a change of
representation below the JSON must leave them as they are.

Re-record (only for an intended change of output) with::

    PYTHONPATH=src:tests python tests/test_corpus.py --record
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
    zeta_series,
)
from motivint.jsonio import series_to_json, uelement_to_json
from motivint.spectra import sg

from helpers import all_geometries, twisted_geometries

GOLDEN = Path(__file__).resolve().parent / "golden" / "closed_form_sha256.json"

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


def corpus_digests() -> dict[str, str]:
    kinds = ("exp_series", "measure_series", "sg", "zeta_series", "key_order")
    hashes = {kind: hashlib.sha256() for kind in kinds}

    def put(kind: str, obj) -> None:
        hashes[kind].update(json.dumps(obj, separators=(",", ":")).encode() + b"\n")

    def put_keys(s) -> None:
        put("key_order", [list(s.poly), list(s.terms)])

    for geom in corpus_geometries():
        e, m = exp_series(geom), measure_series(geom)
        put("exp_series", series_to_json(e, uelement_to_json))
        put("measure_series", series_to_json(m))
        put("sg", uelement_to_json(sg(geom)))
        put_keys(e)
        put_keys(m)
        for alpha in geom.characters():
            z = zeta_series(geom, alpha)
            put("zeta_series", [str(alpha), series_to_json(z)])
            put_keys(z)
    ts = hashlib.sha256()
    for left, right in TS_2D_PAIRS:
        left, right = MonomialGeometry.make(*left), MonomialGeometry.make(*right)
        for i in range(TS_LEVELS + 1):
            obj = uelement_to_json(ts_direct_exp_coefficient(left, right, i))
            ts.update(json.dumps(obj, separators=(",", ":")).encode() + b"\n")
    out = {kind: h.hexdigest() for kind, h in hashes.items()}
    out["ts_direct_exp_coefficient"] = ts.hexdigest()
    return out


def test_closed_form_bytes_match_the_recorded_corpus():
    assert len(corpus_geometries()) == 436
    want = json.loads(GOLDEN.read_text())
    assert corpus_digests() == want


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_corpus.py --record")
    GOLDEN.write_text(json.dumps(corpus_digests(), indent=2, sort_keys=True) + "\n")
