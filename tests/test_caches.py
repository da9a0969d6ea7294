"""Every memo in motivint is a bounded lru_cache, and clearing them changes no value.

A cache that grows for the life of the process is unbounded memory in a
long-running caller; a cached value that a caller mutates would make a
recomputation differ from the first answer.
"""

import importlib
import json
import pkgutil

import motivint
from motivint.arcs import (
    MonomialGeometry,
    exp_coefficient,
    exp_series,
    measure_gt,
    measure_series,
    ts_check,
    ts_direct_exp_coefficient,
    zeta_series,
)
from motivint.characters import Character
from motivint.gaussring import u_mul
from motivint.jsonio import motive_frac_to_json, series_to_json, uelement_to_json
from motivint.motives import MotiveFrac
from motivint.series import rs_normalize
from motivint.spectra import sg

GEOMETRIES = [
    MonomialGeometry.make(1, [6], [2], [1]),
    MonomialGeometry.make(2, [2, 3], None, [1, 2]),
    MonomialGeometry.make(2, [0, 4], [1, 0], [2]),
    MonomialGeometry.make(3, [2, 2, 4], [0, 1, 0], [1, 3]),
    MonomialGeometry.make(2, [12, 24], None, [1, 2]),  # gcd f = 12
]
X3 = MonomialGeometry.make(1, [3], None, [1])


def _modules():
    for info in pkgutil.iter_modules(motivint.__path__):
        yield importlib.import_module(f"motivint.{info.name}")


def _caches() -> dict:
    return {
        f"{module.__name__}.{name}": obj
        for module in _modules()
        for name, obj in vars(module).items()
        if callable(getattr(obj, "cache_info", None))
    }


def _clear_all() -> None:
    for fn in _caches().values():
        fn.cache_clear()


def test_every_cache_is_a_bounded_lru_cache():
    caches = _caches()
    for name in (
        "arcs._diag_tail_levels",
        "arcs._measure_levels",
        "characters._character",
        "characters._characters_of_order_dividing",
        "motives._product",
        "oracles._dlog_table",
        "oracles._gauss_sum",
        "oracles._psi_table",
    ):
        assert f"motivint.{name}" in caches
    unbounded = [name for name, fn in caches.items() if fn.cache_info().maxsize is None]
    assert not unbounded
    dict_caches = [
        f"{module.__name__}.{name}"
        for module in _modules()
        for name, obj in vars(module).items()
        if isinstance(obj, (dict, list)) and name.endswith(("_cache", "_levels"))
    ]
    assert not dict_caches


def _series_bytes(s, coeff_to_json=motive_frac_to_json) -> str:
    return json.dumps([series_to_json(s, coeff_to_json), list(s.poly), list(s.terms)])


def _outputs(geom, between) -> list[str]:
    """measure_gt at level 40, the measure and exponential series, SG, the
    Thom-Sebastiani rows against x^3 and both paths' coefficients of x^3
    against it, as bytes, calling ``between`` after each."""
    stages = (
        lambda: json.dumps(motive_frac_to_json(measure_gt(geom, 40))),
        lambda: _series_bytes(measure_series(geom)),
        lambda: _series_bytes(exp_series(geom), uelement_to_json),
        lambda: json.dumps(uelement_to_json(sg(geom))),
        lambda: json.dumps([
            [i, uelement_to_json(product), uelement_to_json(direct), equal]
            for i, product, direct, equal in ts_check(geom, X3, 8).rows
        ]),
        lambda: json.dumps([
            uelement_to_json(ts_direct_exp_coefficient(X3, geom, i)) for i in (1, 5, 9)
        ]),
        lambda: json.dumps([
            uelement_to_json(u_mul(exp_coefficient(X3, i), exp_coefficient(geom, i)))
            for i in (1, 5, 9)
        ]),
    )
    out = []
    for stage in stages:
        out.append(stage())
        between()
    return out


def test_clearing_every_cache_part_way_keeps_every_byte():
    _clear_all()
    before = [_outputs(geom, lambda: None) for geom in GEOMETRIES]
    # read back from the caches just filled
    assert [_outputs(geom, lambda: None) for geom in GEOMETRIES] == before
    after = []
    for geom in GEOMETRIES:
        _clear_all()
        measure_gt(geom, 20)  # levels half grown when they are dropped
        ts_direct_exp_coefficient(X3, geom, 4)  # and the pair's tail levels
        _clear_all()
        after.append(_outputs(geom, _clear_all))
    assert after == before


def test_editing_a_returned_series_changes_no_later_result():
    trivial = Character.trivial()
    for geom in GEOMETRIES:
        want = _series_bytes(zeta_series(geom, trivial))
        edited = zeta_series(geom, trivial)
        edited.poly[99] = MotiveFrac.one()
        edited.terms.clear()
        assert _series_bytes(zeta_series(geom, trivial)) == want


def test_exp_series_builds_the_zeta_closed_form_once(monkeypatch):
    import motivint.arcs as arcs

    calls = []

    def counted(num, den):
        calls.append(den)
        return rs_normalize(num, den)

    monkeypatch.setattr(arcs, "rs_normalize", counted)
    for geom in GEOMETRIES:
        _clear_all()
        calls.clear()
        exp_series(geom)
        assert len(calls) == 1
