import copy
import json
import pickle
import random
from fractions import Fraction

from motivint.arcs import MonomialGeometry, exp_series, zeta_series
from motivint.characters import Character
from motivint.gaussring import UElement
from motivint.motives import MotiveClass, jacobi
from motivint.jsonio import (
    geometry_from_json,
    geometry_to_json,
    motive_class_from_json,
    motive_class_to_json,
    motive_frac_from_json,
    motive_frac_to_json,
    series_from_json,
    series_to_json,
    spectrum_from_json,
    spectrum_to_json,
    uelement_from_json,
    uelement_to_json,
)
from motivint.spectra import brieskorn_oracle, sg, sp_from_sg

from helpers import random_motive_class, random_motive_frac


def test_character_round_trip():
    # every writer uses str(alpha) and every reader Character.parse
    for text in ["0/1", "1/2", "7/12"]:
        assert str(Character.parse(text)) == text


def test_value_types_survive_pickle_and_copy():
    geom = MonomialGeometry.make(2, [2, 3], None, [1, 2])
    third = Character(Fraction(1, 3))
    values = [
        (third, str),
        (MotiveClass.lpow(2) - 3, motive_class_to_json),  # packed
        (jacobi(third, third), motive_class_to_json),  # a term map
        (random_motive_frac(random.Random(4)), motive_frac_to_json),
        (sg(geom), uelement_to_json),
        (zeta_series(geom, Character.trivial()), series_to_json),
        (exp_series(geom), series_to_json),
        (sp_from_sg(sg(geom), geom.m), spectrum_to_json),
    ]
    assert values[1][0].v is not None and values[2][0].v is None
    for value, to_json in values:
        for back in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
            assert type(back) is type(value)
            assert back == value
            assert to_json(back) == to_json(value)
            if isinstance(value, MotiveClass):
                assert (back.v is None) == (value.v is None)


def test_motive_class_round_trip():
    rng = random.Random(1)
    for _ in range(30):
        cls = random_motive_class(rng)
        blob = json.dumps(motive_class_to_json(cls))
        assert motive_class_from_json(json.loads(blob)) == cls


def test_motive_frac_round_trip():
    rng = random.Random(2)
    for _ in range(30):
        x = random_motive_frac(rng)
        blob = json.dumps(motive_frac_to_json(x))
        back = motive_frac_from_json(json.loads(blob))
        assert back == x
        assert back.den == x.den or not x.num


def test_uelement_round_trip():
    rng = random.Random(3)
    chars = [Character(Fraction(a, 8)) for a in range(1, 8)]
    for _ in range(20):
        u = UElement(random_motive_frac(rng))
        for _ in range(2):
            u = u + UElement.from_gauss(rng.choice(chars), random_motive_frac(rng, 1))
        blob = json.dumps(uelement_to_json(u))
        assert uelement_from_json(json.loads(blob)) == u


def test_series_round_trip_motive_coefficients():
    geom = MonomialGeometry.make(2, [2, 3], [1, 0], [1, 2])
    s = zeta_series(geom, Character.trivial())
    blob = json.dumps(series_to_json(s))
    assert series_from_json(json.loads(blob)) == s


def test_series_round_trip_u_coefficients():
    geom = MonomialGeometry.make(1, [2], None, [1])
    s = exp_series(geom)
    blob = json.dumps(series_to_json(s))
    back = series_from_json(json.loads(blob))
    assert back == s


def test_geometry_round_trip():
    geom = MonomialGeometry.make(3, [2, 0, 3], [0, 1, 0], [1, 3])
    blob = json.dumps(geometry_to_json(geom))
    assert geometry_from_json(json.loads(blob)) == geom


def test_spectrum_round_trip_and_sorting():
    spectrum = brieskorn_oracle([2, 3, 5])
    items = spectrum_to_json(spectrum)
    assert items == sorted(items, key=lambda kv: Fraction(kv[0]))
    assert spectrum_from_json(items) == spectrum


def test_serialization_deterministic():
    geom = MonomialGeometry.make(2, [2, 2], None, [1])
    s = zeta_series(geom, Character(Fraction(1, 2)))
    a = json.dumps(series_to_json(s), sort_keys=True)
    b = json.dumps(series_to_json(zeta_series(geom, Character(Fraction(1, 2)))), sort_keys=True)
    assert a == b


def _ref_motive_class_to_json(cls) -> list:
    # the encoder as it was before it stopped building a Fraction per term
    def frac_str(x):
        return str(Fraction(x))

    out = []
    for (p, q) in sorted(cls.terms, key=lambda k: (Fraction(k[0]), Fraction(k[1]))):
        out.append([frac_str(p), frac_str(q), frac_str(cls.terms[(p, q)])])
    return out


def _ref_pretty_frac(x) -> str:
    # cli._pretty_frac as it was, with Fraction sort keys
    bits = []
    for (p, q) in sorted(x.num.terms, key=lambda k: (Fraction(k[0]), Fraction(k[1]))):
        c = x.num.terms[(p, q)]
        if p == q and Fraction(p).denominator == 1:
            mono = f"L^{p}" if p else ""
        else:
            mono = f"u^{p}*v^{q}"
        bits.append(f"{c}*{mono}" if mono else f"{c}")
    num = " + ".join(bits) if bits else "0"
    if not x.den:
        return num
    den = " * ".join(f"(L^{a} - L^{b})" for a, b in x.den)
    return f"({num}) / ({den})"


def _fracs_of(series):
    for c in [*series.poly.values(), *(c for npoly in series.terms.values() for c in npoly)]:
        if isinstance(c, UElement):
            yield c.scalar
            yield from c.gauss.values()
        else:
            yield c


def test_motive_class_to_json_matches_fraction_keyed_encoder():
    from motivint.motives import MotiveFrac, _class
    from motivint.series import exp_t
    from motivint.spectra import sg
    from test_caches import GEOMETRIES

    F = Fraction
    fracs = [
        # mixed int and Fraction exponents, negative fractional exponents, and
        # Fraction(n, 1) coefficients stored as they are
        MotiveFrac(_class({
            (F(-1, 2), F(1, 2)): F(3, 1), (0, 0): F(-2, 1), (F(1, 3), F(-4, 3)): F(5, 7),
            (-1, 2): 4, (F(-7, 2), F(5, 2)): -1, (F(-1, 2), F(-1, 2)): F(1, 2),
        }), [(1, 0), (-2, -1)]),
        MotiveFrac(_class({(F(-3), F(-3)): F(6, 1), (F(2), F(2)): F(-4, 2)})),
    ]
    fracs += [random_motive_frac(random.Random(seed)) for seed in range(20)]
    for geom in GEOMETRIES:
        fracs += _fracs_of(exp_series(geom))
        u = sg(geom)
        fracs += [u.scalar, *u.gauss.values()]
        for alpha in geom.characters():
            zeta = zeta_series(geom, alpha)
            fracs += _fracs_of(zeta)
            fracs += exp_t(zeta, -2, 8)
    assert any(type(p) is Fraction for x in fracs for p, q in x.num.terms)
    for x in fracs:
        assert motive_class_to_json(x.num) == _ref_motive_class_to_json(x.num)
        assert repr(x) == _ref_pretty_frac(x)


def test_motive_class_to_json_writes_packed_digits():
    # a packed class writes its digits straight out; the form must equal
    # the one read from its term map, zero digits skipped
    big = (1 << 62) - 1
    classes = [
        MotiveClass.zero(),
        MotiveClass.one(),
        MotiveClass({(-2, -2): 3, (3, 3): 5}),  # zero digits in between
        MotiveClass({(-5, -5): -7, (-4, -4): 1, (0, 0): -1}),
        MotiveClass({(1, 1): big, (2, 2): -big}),  # the largest packed digits
        MotiveClass({(0, 0): big + 1}),  # a term map: the digit is too large
        MotiveClass({(0, 0): Fraction(1, 2), (1, 1): 2}),  # a term map: a Fraction
        MotiveClass({(1, 0): 4, (2, 2): -1}),  # a term map: p != q
    ]
    rng = random.Random(26)
    classes += [random_motive_class(rng, 5) for _ in range(40)]
    classes += [c * d for c, d in zip(classes[2:5], classes[5:8])]
    assert {c.v is None for c in classes} == {True, False}
    for cls in classes:
        want = [[str(p), str(q), str(c)] for (p, q), c in cls.terms.items()]
        assert motive_class_to_json(cls) == want, cls
