"""JSON encoding of every public value type.

All rationals are serialized as strings to keep the formats float-free, and
every map is emitted in sorted order so identical values produce identical
bytes.
"""

from __future__ import annotations

from fractions import Fraction

from .arcs import MonomialGeometry
from .characters import Character
from .gaussring import UElement
from .motives import MotiveClass, MotiveFrac
from .series import RationalSeries
from .spectra import SpectrumPoly


def motive_class_to_json(cls: MotiveClass) -> list:
    # exponents and coefficients are ints or Fractions, whose str is the
    # rational's text, and triples come in increasing (p, q) order
    return [[str(p), str(q), str(c)] for p, q, c in cls.triples()]


def motive_class_from_json(items: list) -> MotiveClass:
    return MotiveClass(
        {(Fraction(p), Fraction(q)): Fraction(c) for p, q, c in items}
    )


def motive_frac_to_json(x: MotiveFrac) -> dict:
    return {
        "num": motive_class_to_json(x.num),
        "den": [[a, b] for a, b in x.den],
    }


def motive_frac_from_json(obj: dict) -> MotiveFrac:
    return MotiveFrac(
        motive_class_from_json(obj["num"]), [(int(a), int(b)) for a, b in obj["den"]]
    )


def uelement_to_json(x: UElement) -> dict:
    return {
        "scalar": motive_frac_to_json(x.scalar),
        "gauss": [
            [str(alpha), motive_frac_to_json(x.gauss[alpha])]
            for alpha in sorted(x.gauss)
        ],
    }


def uelement_from_json(obj: dict) -> UElement:
    return UElement(
        motive_frac_from_json(obj["scalar"]),
        {Character.parse(a): motive_frac_from_json(c) for a, c in obj["gauss"]},
    )


def _coeff_to_json(c) -> dict:
    return uelement_to_json(c) if isinstance(c, UElement) else motive_frac_to_json(c)


def _coeff_from_json(obj: dict):
    return uelement_from_json(obj) if "scalar" in obj else motive_frac_from_json(obj)


def series_to_json(series: RationalSeries) -> dict:
    """Series JSON; each arithmetic term is flattened per power of n, so every
    emitted entry has a plain rational polynomial f and a ring coefficient c,
    written as a UElement or a MotiveFrac after its own type."""
    poly = [[i, _coeff_to_json(series.poly[i])] for i in sorted(series.poly)]
    terms = []
    for (r, d, a) in sorted(series.terms):
        npoly = series.terms[(r, d, a)]
        for j, c in enumerate(npoly):
            if not c:
                continue
            terms.append(
                {
                    "r": r,
                    "d": d,
                    "a": a,
                    "c": _coeff_to_json(c),
                    "f": ["0"] * j + ["1"],
                }
            )
    return {"poly": poly, "terms": terms}


def series_from_json(obj: dict) -> RationalSeries:
    """The inverse of series_to_json; a coefficient with a "scalar" key is a UElement."""
    out = RationalSeries(poly={int(i): _coeff_from_json(c) for i, c in obj["poly"]})
    for entry in obj["terms"]:
        c = _coeff_from_json(entry["c"])
        npoly = [c * Fraction(f) for f in entry["f"]]
        out._add_term(int(entry["r"]), int(entry["d"]), int(entry["a"]), npoly)
    return out


def geometry_to_json(geom: MonomialGeometry) -> dict:
    return {
        "ambient_dim": geom.m,
        "f_exponents": list(geom.f_exponents),
        "g_exponents": list(geom.g_exponents),
        "w_indices": sorted(geom.w_indices),
    }


def geometry_from_json(obj: dict) -> MonomialGeometry:
    return MonomialGeometry.make(
        obj["ambient_dim"],
        obj["f_exponents"],
        obj.get("g_exponents"),
        obj["w_indices"],
    )


def spectrum_to_json(sp: SpectrumPoly) -> list:
    return [[str(e), c] for e, c in sp.items()]


def spectrum_from_json(items: list) -> SpectrumPoly:
    return SpectrumPoly({Fraction(e): int(c) for e, c in items})
