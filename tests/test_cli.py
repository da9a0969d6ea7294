import io
import json
import sys
import time
from itertools import combinations_with_replacement, product
from pathlib import Path

import pytest

from motivint.arcs import MonomialGeometry, zeta_series
from motivint.characters import Character
from motivint.cli import build_parser, main
from motivint.limits import (
    MAX_BRIESKORN_TERMS,
    MAX_CHARACTER_TERMS,
    MAX_ENUMERATION_POINTS,
    MAX_GAUSS_PRIME,
    MAX_WORK_TERMS,
    brieskorn_terms,
    check_character_sums,
    measure_gt_terms,
    ts_check_terms,
    window_terms,
)

X2 = {"ambient_dim": 1, "f_exponents": [2], "g_exponents": [0], "w_indices": [1]}
Y3 = {"ambient_dim": 1, "f_exponents": [3], "g_exponents": [0], "w_indices": [1]}


def write_geom(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_zeta_command(tmp_path, capsys):
    geom = write_geom(tmp_path, "x2.json", X2)
    code, payload = run_cli(
        capsys, "zeta", "--geometry", geom, "--character", "1/2", "--window", "0", "4"
    )
    assert code == 0
    assert payload["character"] == "1/2"
    coeffs = dict((i, c) for i, c in payload["coefficients"])
    assert coeffs[2]["num"] == [["-2", "-2", "-1"], ["-1", "-1", "1"]]
    assert coeffs[3]["num"] == []


def test_zeta_window_validation(tmp_path, capsys):
    geom = write_geom(tmp_path, "x2.json", X2)
    code, payload = run_cli(
        capsys, "zeta", "--geometry", geom, "--character", "1/2", "--window", "3", "1"
    )
    assert code == 2
    assert "error" in payload


def _geom_json(f, g=None, w=None):
    m = len(f)
    return {"ambient_dim": m, "f_exponents": f, "g_exponents": g or [0] * m,
            "w_indices": w or list(range(1, m + 1))}


def _assert_refused_at_once(argv, capsys):
    t0 = time.perf_counter()
    code = main(argv)
    assert time.perf_counter() - t0 < 1.0
    out = capsys.readouterr().out
    assert code == 2
    assert out.count("\n") == 1
    assert "exceeds the limit" in json.loads(out)["error"]


@pytest.mark.parametrize(
    "geometry, lo, hi",
    [
        (_geom_json([2, 3, 5], [0, 1, 0]), "0", "20000"),
        (X2, "0", "100000000"),
        (X2, "-" + "9" * 40, "9" * 40),
    ],
    ids=["x2y3z5-g-y", "window-1e8", "window-1e40"],
)
def test_zeta_rejects_oversized_window(tmp_path, capsys, geometry, lo, hi):
    # the first took 15 s and wrote 133 MB; the second printed nothing in 30 s
    geom = write_geom(tmp_path, "g.json", geometry)
    argv = ["zeta", "--geometry", geom, "--character", "0", "--window", lo, hi]
    _assert_refused_at_once(argv, capsys)


def test_window_limit_boundary():
    # the golden files' window 0..6 and the benchmark's 1..8 on the dearest
    # series of the criterion-7 shapes stay far below the cap
    trivial = Character.trivial()
    for f in ([2, 4], [4, 5, 6], [5, 6, 6], [2, 3, 5]):
        for g in ([0] * len(f), [1, 2, 0][: len(f)]):
            series = zeta_series(MonomialGeometry.make(len(f), f, g, [1]), trivial)
            assert window_terms(series, 0, 8) < MAX_WORK_TERMS // 100
    # the most coefficients admitted on x^2, and on x^2 y^3 z^5 with g = y
    for f, g, largest in [([2], [0], 357142), ([2, 3, 5], [0, 1, 0], 12903)]:
        series = zeta_series(MonomialGeometry.make(len(f), f, g, range(1, len(f) + 1)), trivial)
        assert window_terms(series, 0, largest - 1) <= MAX_WORK_TERMS
        assert window_terms(series, 0, largest) > MAX_WORK_TERMS


@pytest.mark.parametrize(
    "geometry, level",
    [
        (_geom_json([1] * 8), "30"),
        (_geom_json([1, 1], [0, 20], [1]), "1500"),
        (X2, "1000000000"),
        (_geom_json([1] * 1200, None, [1]), "3"),
        (X2, "1" + "0" * 100),
    ],
    ids=["x1-x8", "xy-g-y20", "x2-1e9", "x1-x1200", "x2-1e100"],
)
def test_measure_rejects_oversized_level(tmp_path, capsys, geometry, level):
    # the first took 27 s and the second 10.5 s; the third would run for hours
    geom = write_geom(tmp_path, "g.json", geometry)
    _assert_refused_at_once(["measure", "--geometry", geom, "--gt", level], capsys)


def test_level_limit_boundary():
    def geom(f, g=None, w=None):
        return MonomialGeometry.make(len(f), f, g, w or range(1, len(f) + 1))

    # admitted: the deep level of x^2, order 1 on x1...x1200, the golden levels
    # and the benchmark's levels 1..20 on every geometry with m <= 2
    assert measure_gt_terms(geom([2]), 3000) <= MAX_WORK_TERMS
    assert measure_gt_terms(geom([1] * 1200, None, [1]), 1) <= MAX_WORK_TERMS
    assert measure_gt_terms(geom([2, 4], [1, 2]), 5) <= MAX_WORK_TERMS
    wide_w = geom([1, 2, 1, 1, 1, 2, 0], [0, 1, 0, 0, 2, 0, 1], [1, 2, 3, 4, 5])
    assert measure_gt_terms(wide_w, 4) <= MAX_WORK_TERMS
    for f in product(range(1, 7), repeat=2):
        for g in product(range(3), repeat=2):
            assert measure_gt_terms(geom(list(f), list(g), [1]), 20) < MAX_WORK_TERMS // 100
    # the largest admitted level of shapes measured against the cap
    for shape, largest in [
        (geom([2]), 307692),
        (geom([2, 3]), 2683),
        (geom([1, 1, 1]), 389),
        (geom([1, 1], [3, 4], [1]), 1343),
        (geom([1, 1], [0, 1000], [1]), 1343),
        (geom([1] * 8), 23),
        (geom([1] * 1200, None, [1]), 2),
    ]:
        assert measure_gt_terms(shape, largest) <= MAX_WORK_TERMS
        assert measure_gt_terms(shape, largest + 1) > MAX_WORK_TERMS


def test_spectrum_brieskorn(capsys):
    code, payload = run_cli(capsys, "spectrum", "--geometry", "brieskorn(2,3)")
    assert code == 0
    assert payload["spectrum"] == [["5/6", 1], ["7/6", 1]]


def test_spectrum_triple(capsys):
    code, payload = run_cli(capsys, "spectrum", "--geometry", "brieskorn(2,2,2)")
    assert code == 0
    assert payload["spectrum"] == [["3/2", 1]]


def test_spectrum_geometry_file(tmp_path, capsys):
    geom = write_geom(tmp_path, "x2.json", X2)
    code, payload = run_cli(capsys, "spectrum", "--geometry", geom)
    assert code == 0
    assert payload["spectrum"] == [["1/2", 1]]


def test_spectrum_rejects_non_point(tmp_path, capsys):
    geom = write_geom(
        tmp_path, "partial.json",
        {"ambient_dim": 2, "f_exponents": [1, 1], "g_exponents": [0, 0], "w_indices": [1]},
    )
    code, payload = run_cli(capsys, "spectrum", "--geometry", geom)
    assert code == 2
    assert "error" in payload


def _brieskorn(*exponents) -> str:
    return f"brieskorn({','.join(map(str, exponents))})"


@pytest.mark.parametrize(
    "geometry",
    [
        _brieskorn(2, 99999),
        _brieskorn(500, 500),
        _brieskorn(*[3] * 100),
        _brieskorn("9" * 5000),  # past the interpreter's int-string limit
    ],
    ids=["2,99999", "500,500", "3x100", "5000-digit"],
)
def test_spectrum_rejects_oversized_brieskorn(capsys, geometry):
    # refused before any SG is built; each of the first three once ran for
    # 6 s or more, and the last ended in a traceback
    t0 = time.perf_counter()
    code, payload = run_cli(capsys, "spectrum", "--geometry", geometry)
    assert time.perf_counter() - t0 < 1.0
    assert code == 2
    assert "error" in payload


def test_brieskorn_limit_boundary():
    # the largest admitted input of each shape: one large exponent, a large
    # exponent against x^2, two equal exponents, many variables
    for admitted, refused in [
        ((MAX_BRIESKORN_TERMS,), (MAX_BRIESKORN_TERMS + 1,)),
        ((2, 49999), (2, 50000)),
        ((316, 316), (317, 317)),
        ((2,) * 105, (2,) * 106),
        ((6,) * 35, (6,) * 36),
    ]:
        assert brieskorn_terms(admitted) <= MAX_BRIESKORN_TERMS < brieskorn_terms(refused)
    # every Brieskorn input of the benchmark: exponents 2-6, up to 3 variables
    for n in (1, 2, 3):
        for exponents in combinations_with_replacement(range(2, 7), n):
            assert brieskorn_terms(exponents) < 1000


def test_spectrum_largest_admitted_many_variable_brieskorn_completes(capsys):
    code, payload = run_cli(capsys, "spectrum", "--geometry", _brieskorn(*[2] * 105))
    assert code == 0
    assert payload["spectrum"] == [["105/2", 1]]


def test_thom_sebastiani_check(tmp_path, capsys):
    left = write_geom(tmp_path, "x2.json", X2)
    right = write_geom(tmp_path, "y3.json", Y3)
    code, payload = run_cli(
        capsys, "thom-sebastiani", "--left", left, "--right", right, "--check", "--imax", "8"
    )
    assert code == 0
    assert payload["pass"] is True
    assert len(payload["coefficients"]) == 8
    assert all(row["equal"] for row in payload["coefficients"])


def _largest_admitted_imax(left, right) -> int:
    lo, hi = 1, MAX_WORK_TERMS
    while lo < hi:
        mid = (lo + hi + 1) // 2
        lo, hi = (mid, hi) if ts_check_terms(left, right, mid) <= MAX_WORK_TERMS else (lo, mid - 1)
    return lo


@pytest.mark.parametrize(
    "left, right, imax",
    [(X2, Y3, "100000"), ({**X2, "f_exponents": [500]}, {**Y3, "f_exponents": [499]}, "1")],
    ids=["imax-100000", "249500-characters"],
)
def test_thom_sebastiani_rejects_oversized_work(tmp_path, capsys, left, right, imax):
    # refused before any coefficient is built; the first printed nothing in
    # 15 s, and ts_check on the second takes 18 s and 264 MiB
    argv = ["thom-sebastiani", "--left", write_geom(tmp_path, "l.json", left),
            "--right", write_geom(tmp_path, "r.json", right), "--imax", imax]
    t0 = time.perf_counter()
    code = main(argv)
    assert time.perf_counter() - t0 < 1.0
    out = capsys.readouterr().out
    assert code == 2
    assert out.count("\n") == 1
    assert "exceeds the limit" in json.loads(out)["error"]


def test_thom_sebastiani_14280_characters_is_admitted_and_completes(tmp_path, capsys):
    # the Fermat sums try one coset of gcd(gcd f, gcd f') = 1 left character
    # per character, so the 14280 characters of x^120 against y^119 are cheap
    left = write_geom(tmp_path, "l.json", {**X2, "f_exponents": [120]})
    right = write_geom(tmp_path, "r.json", {**Y3, "f_exponents": [119]})
    t0 = time.perf_counter()
    code, payload = run_cli(
        capsys, "thom-sebastiani", "--left", left, "--right", right, "--check", "--imax", "1"
    )
    assert time.perf_counter() - t0 < 2.0
    assert code == 0
    assert payload["pass"] is True


def test_ts_check_limit_boundary():
    # the largest admitted --imax of shapes measured against the cap: x^2/y^3,
    # x/y, the 2-d twisted pair against x^2 y^3, the twisted xy (g = x y^2)
    # against itself and the twisted xyz (g = x y^2 z^3) against x
    def geom(f, g):
        return MonomialGeometry.make(len(f), f, g, range(1, len(f) + 1))

    x = geom([1], [0])
    xyt = geom([1, 1], [1, 2])
    for left, right, largest in [
        (geom([2], [0]), geom([3], [0]), 761),
        (x, x, 765),
        (geom([2, 4], [1, 2]), geom([2, 3], [0, 0]), 293),
        (xyt, xyt, 293),
        (geom([1, 1, 1], [1, 2, 3]), x, 121),
    ]:
        assert _largest_admitted_imax(left, right) == largest
    # many coordinates at a small order: the walks alone visit about C(51, 41)
    assert ts_check_terms(geom([1] * 40, [0] * 40), x, 10) > MAX_WORK_TERMS
    # every one-variable pair of the benchmark at its 30 levels
    for a in range(1, 7):
        for b in range(1, 7):
            assert ts_check_terms(geom([a], [2]), geom([b], [2]), 30) < MAX_WORK_TERMS // 100


def test_thom_sebastiani_largest_admitted_imax_completes(tmp_path, capsys):
    imax = _largest_admitted_imax(
        MonomialGeometry.make(1, [2], None, [1]), MonomialGeometry.make(1, [3], None, [1])
    )
    left, right = write_geom(tmp_path, "x2.json", X2), write_geom(tmp_path, "y3.json", Y3)
    code, payload = run_cli(
        capsys, "thom-sebastiani", "--left", left, "--right", right, "--check", "--imax", str(imax)
    )
    assert code == 0
    assert payload["pass"] is True
    assert len(payload["coefficients"]) == imax


def test_measure_and_sg(tmp_path, capsys):
    from motivint.jsonio import motive_frac_from_json
    from motivint.motives import MotiveClass, MotiveFrac

    geom = write_geom(tmp_path, "x2.json", X2)
    code, payload = run_cli(capsys, "measure", "--geometry", geom, "--gt", "3")
    assert code == 0
    assert motive_frac_from_json(payload["measure_gt"]) == MotiveFrac(MotiveClass.lpow(-2))
    code, payload = run_cli(capsys, "sg", "--geometry", geom)
    assert code == 0
    assert len(payload["sg"]["gauss"]) == 1
    alpha, coeff = payload["sg"]["gauss"][0]
    assert alpha == "1/2"
    assert motive_frac_from_json(coeff) == MotiveFrac.one()


def test_measure_gt_deep_level_matches_series(tmp_path, capsys):
    # the tail measure far out is computed level by level without recursion
    from motivint.arcs import MonomialGeometry, measure_series
    from motivint.jsonio import motive_frac_from_json

    geom = write_geom(tmp_path, "x2.json", X2)
    code, payload = run_cli(capsys, "measure", "--geometry", geom, "--gt", "3000")
    assert code == 0
    want = measure_series(MonomialGeometry.make(1, [2], None, [1])).coefficient(3000)
    assert motive_frac_from_json(payload["measure_gt"]) == want


def test_exp_series_command(tmp_path, capsys):
    geom = write_geom(tmp_path, "x2.json", X2)
    code, payload = run_cli(capsys, "exp-series", "--geometry", geom)
    assert code == 0
    assert payload["series"]["terms"]


@pytest.mark.parametrize("command", ["measure", "exp-series", "sg"])
def test_sixteen_hyperplanes_complete(tmp_path, capsys, command):
    # f = x1...x16 with W = all 16 hyperplanes: the closed forms are products
    # over the coordinates, not sums over the 2^16 subsets of W
    m = 16
    geom = write_geom(
        tmp_path, "x16.json",
        {"ambient_dim": m, "f_exponents": [1] * m, "g_exponents": [0] * m,
         "w_indices": list(range(1, m + 1))},
    )
    t0 = time.perf_counter()
    code, _payload = run_cli(capsys, command, "--geometry", geom)
    assert time.perf_counter() - t0 < 5.0
    assert code == 0


def test_oracle_padic(capsys):
    code, payload = run_cli(
        capsys, "oracle", "padic", "--poly", "x^2", "--prime", "5", "--level", "0"
    )
    assert code == 0
    assert payload["pass"] is True
    assert payload["residue"] <= 1e-9


def test_oracle_padic_rejects_oversized_enumeration(capsys):
    # 5^(30*2) points: refused before any enumeration starts
    code, payload = run_cli(
        capsys,
        "oracle", "padic", "--poly", "x^2+y^3", "--prime", "5", "--level", "0",
        "--precision", "30",
    )
    assert code == 2
    assert "exceeds the limit" in payload["error"]


def test_oracle_padic_rejects_bad_poly(capsys):
    code, payload = run_cli(
        capsys, "oracle", "padic", "--poly", "x^^2", "--prime", "5", "--level", "0"
    )
    assert code == 2
    assert "error" in payload


@pytest.mark.parametrize("poly", ["x^99999999", "2^99999999", "(((2^64)^64)^64)^64"])
def test_oracle_padic_rejects_huge_powers(capsys, poly):
    # refused before the first multiplication; each once ran for hours
    t0 = time.perf_counter()
    code, payload = run_cli(
        capsys, "oracle", "padic", "--poly", poly, "--prime", "3", "--level", "0"
    )
    assert time.perf_counter() - t0 < 1.0
    assert code == 2
    assert "exceeds the limit" in payload["error"]


@pytest.mark.parametrize(
    "poly", ["(" * 260 + "x" + ")" * 260, "x*" + "-" * 3000 + "x"], ids=["parens", "minus"]
)
def test_oracle_padic_rejects_deeply_nested_poly(capsys, poly):
    # each parenthesis or unary minus is a parser frame; this once ended in a
    # RecursionError traceback
    code, payload = run_cli(
        capsys, "oracle", "padic", f"--poly={poly}", "--prime", "3", "--level", "0"
    )
    assert code == 2
    assert payload == {"error": "invalid polynomial: expression is nested too deeply"}


def test_oracle_padic_nonpositive_enumeration_is_error(capsys):
    # no residue vector to count: the prime is refused, not 0 ** -1 raised
    code, payload = run_cli(
        capsys, "oracle", "padic", "--poly", "x", "--prime", "0", "--level", "0",
        "--precision", "-1",
    )
    assert code == 2
    assert payload == {"error": "p must be an odd prime"}


def test_oracle_padic_largest_admitted_input_completes(capsys):
    # 3^(6*2) = 531441 points; precision 7 would be 3^14 > MAX_ENUMERATION_POINTS
    assert 3**12 <= MAX_ENUMERATION_POINTS < 3**14
    code, payload = run_cli(
        capsys, "oracle", "padic", "--poly", "x^2+y^3", "--prime", "3", "--level", "5"
    )
    assert code == 0
    assert payload["precision"] == 6
    assert payload["pass"] is True


def test_oracle_padic_rejects_oversized_character_sums(capsys):
    # 997^2 points pass the enumeration cap, but 993012 characters over up to
    # 994009 buckets do not; this once ran past 20 s
    t0 = time.perf_counter()
    code, payload = run_cli(
        capsys, "oracle", "padic", "--poly", "x", "--prime", "997", "--level", "1"
    )
    assert time.perf_counter() - t0 < 1.0
    assert code == 2
    assert "exceeds the limit" in payload["error"]


def test_character_sum_limit_boundary():
    # level 0 at the largest admitted prime, 2818 * 2819 terms; the next prime
    # is refused, and so is level 1 at p = 997
    check_character_sums(2819, 0)
    assert 2818 * 2819 <= MAX_CHARACTER_TERMS < 2832 * 2833
    for p, level in ((2833, 0), (997, 1), (3, 10**12)):
        with pytest.raises(ValueError, match="exceeds the limit"):
            check_character_sums(p, level)
    # the largest admitted input of the tests (p = 3, level 5) and the largest
    # benchmark slot (p = 7, level 2)
    check_character_sums(3, 5)
    check_character_sums(7, 2)


def test_oracle_padic_rejects_oversized_product(capsys):
    # every power is within MAX_POWER, but the product's degree is not; the
    # fourfold product once ran past 10 s
    t0 = time.perf_counter()
    code, payload = run_cli(
        capsys, "oracle", "padic", "--poly", "*".join(["(x+y+z)^60"] * 4),
        "--prime", "3", "--level", "0",
    )
    assert time.perf_counter() - t0 < 1.0
    assert code == 2
    assert "exceeds the limit" in payload["error"]


def test_oracle_gauss(capsys):
    code, payload = run_cli(capsys, "oracle", "gauss", "--prime", "11")
    assert code == 0
    assert payload["pass"] is True
    assert (payload["prime"], payload["pairs_checked"]) == (11, 72)


def test_oracle_gauss_rejects_oversized_prime(capsys):
    # refused before any work: at this prime the suite would run for days
    t0 = time.perf_counter()
    code, payload = run_cli(capsys, "oracle", "gauss", "--prime", "1000003")
    assert time.perf_counter() - t0 < 1.0
    assert code == 2
    assert "exceeds the limit" in payload["error"]
    assert MAX_GAUSS_PRIME >= 19  # the primes of the tests and the benchmark


def test_missing_geometry_is_error(capsys):
    code, payload = run_cli(capsys, "zeta", "--geometry", "/no/such/file.json", "--character", "1/2")
    assert code == 2
    assert "error" in payload


def test_invalid_geometry_is_error(tmp_path, capsys):
    geom = write_geom(
        tmp_path, "bad.json",
        {"ambient_dim": 1, "f_exponents": [0], "g_exponents": [0], "w_indices": [1]},
    )
    code, payload = run_cli(capsys, "zeta", "--geometry", geom, "--character", "1/2")
    assert code == 2
    assert "error" in payload


@pytest.mark.parametrize(
    "obj",
    [
        {"ambient_dim": True, "f_exponents": [2.7], "w_indices": "1"},
        {"ambient_dim": 1, "f_exponents": [2.7], "w_indices": [1]},
        {"ambient_dim": 2, "f_exponents": [1, 1], "w_indices": "12"},
    ],
)
def test_non_integer_geometry_is_error(tmp_path, capsys, obj):
    geom = write_geom(tmp_path, "bad.json", obj)
    code, payload = run_cli(capsys, "sg", "--geometry", geom)
    assert code == 2
    assert "must be integers" in payload["error"]


def test_deeply_nested_geometry_is_error(tmp_path, capsys):
    # json.load raises RecursionError past the interpreter's recursion limit
    path = tmp_path / "deep.json"
    depth = 100_000
    path.write_text('{"a":' * depth + "1" + "}" * depth, encoding="utf-8")
    code, payload = run_cli(capsys, "sg", "--geometry", str(path))
    assert code == 2
    assert f"cannot read {path}: maximum recursion depth exceeded" in payload["error"]


@pytest.mark.parametrize("command", [["zeta", "--character", "0"], ["sg"], ["measure"]])
def test_unreadable_geometry_has_one_prefix(tmp_path, capsys, command):
    path = tmp_path / "no" / "such.json"
    code, payload = run_cli(capsys, *command, "--geometry", str(path))
    assert code == 2
    assert payload["error"].startswith(f"cannot read {path}: [Errno 2] ")
    assert payload["error"].count("cannot read") == 1
    assert "invalid geometry" not in payload["error"]


@pytest.mark.parametrize(
    "content",
    [b"\xff", b'{"ambient_dim": ' + b"7" * 5000 + b"}"],
    ids=["not-utf8", "too-many-digits"],
)
def test_undecodable_geometry_is_error(tmp_path, capsys, content):
    # json.load raises plain ValueErrors here: UnicodeDecodeError, and the
    # interpreter's limit on the digits of an int literal
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    code, payload = run_cli(capsys, "sg", "--geometry", str(path))
    assert code == 2
    assert payload["error"].startswith(f"cannot read {path}: ")


def test_undecodable_stdin_geometry_is_error(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"\xff"), encoding="utf-8"))
    code, payload = run_cli(capsys, "sg", "--geometry", "-")
    assert code == 2
    assert payload["error"].startswith("cannot read -: ")


@pytest.mark.parametrize("target",[".", "missing/x.json"])
def test_unwritable_output_is_error(tmp_path, capsys, target):
    # a directory, and a file in a directory that does not exist
    geom = write_geom(tmp_path, "y3.json", Y3)
    out = tmp_path / target
    code, payload = run_cli(capsys, "sg", "--geometry", geom, "--output", str(out))
    assert code == 2
    assert payload["error"].startswith(f"cannot write {out}: ")
    assert not (tmp_path / "missing").exists()


def test_output_deterministic(tmp_path, capsys):
    geom = write_geom(tmp_path, "y3.json", Y3)
    code1 = main(["sg", "--geometry", geom, "--output", str(tmp_path / "a.json")])
    code2 = main(["sg", "--geometry", geom, "--output", str(tmp_path / "b.json")])
    assert code1 == code2 == 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_thom_sebastiani_check_exit_code_on_mismatch(tmp_path, capsys, monkeypatch):
    # fault injection: a corrupted direct path must flip the exit code to 1
    import motivint.arcs as arcs_mod
    from motivint.gaussring import UElement

    left = write_geom(tmp_path, "x2.json", X2)
    right = write_geom(tmp_path, "y3.json", Y3)
    monkeypatch.setattr(
        arcs_mod, "ts_direct_exp_coefficient", lambda l, r, i: UElement(7)
    )
    code, payload = run_cli(
        capsys, "thom-sebastiani", "--left", left, "--right", right, "--check", "--imax", "3"
    )
    assert code == 1
    assert payload["pass"] is False


def test_emitted_json_reparses(tmp_path, capsys):
    from motivint.jsonio import series_from_json
    from motivint.arcs import MonomialGeometry, exp_series

    geom_path = write_geom(tmp_path, "x2.json", X2)
    code, payload = run_cli(capsys, "exp-series", "--geometry", geom_path)
    assert code == 0
    back = series_from_json(payload["series"])
    geom = MonomialGeometry.make(1, [2], None, [1])
    assert back == exp_series(geom)


SELFTEST_CHECKS = [
    "u-ring-laws",
    "jacobi-relations",
    "finite-field-shadow",
    "lambda-multiplicativity",
    "tau-claim",
    "padic-decomposition",
    "thom-sebastiani",
    "exp-vs-sg",
    "spectra-brieskorn",
    "spectrum-product",
    "degenerate-sanity",
]


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    assert capsys.readouterr().out.splitlines() == [f"ok   {name}" for name in SELFTEST_CHECKS]


def test_selftest_reports_a_failing_check(capsys, monkeypatch):
    # fault injection: a check returning a failing input flips its line and the exit code
    import motivint.invariants as invariants

    monkeypatch.setattr(invariants, "tau_binomial", lambda ks, progressions, window: (1, (0, 1, 0), 0))
    assert main(["selftest"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"{'FAIL' if name == 'tau-claim' else 'ok  '} {name}" for name in SELFTEST_CHECKS
    ]


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "name, command, code",
    [
        ("x2y3", "sg", 0),
        ("x2y3", "spectrum", 0),
        ("w_inside_3var", "sg", 0),
        ("w_inside_3var", "spectrum", 2),
        ("twisted", "sg", 0),
        ("twisted", "spectrum", 0),
    ],
)
def test_sg_spectrum_golden_bytes(tmp_path, capsys, name, command, code):
    # outputs recorded from the closed-form SG route: x^2 y^3 at the origin,
    # f = x^2 y^4 z^2 with W = {x = 0} u {y = 0} inside the support, and a
    # twisted origin geometry
    geom = str(GOLDEN / f"{name}.geometry.json")
    want = (GOLDEN / f"{name}.{command}.json").read_text(encoding="utf-8")
    assert main([command, "--geometry", geom]) == code
    assert capsys.readouterr().out == want
    if code == 0:
        out = tmp_path / "out.json"
        assert main([command, "--geometry", geom, "--output", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == want


@pytest.mark.parametrize(
    "name, argv",
    [
        ("zeta_uv", ["zeta", "--geometry", "{twisted}", "--character", "1/2", "--window", "0", "6"]),
        ("zeta_lpow", ["zeta", "--geometry", "{twisted}", "--character", "1/2", "--window", "0", "6",
                       "--display", "lpow"]),
        ("exp-series", ["exp-series", "--geometry", "{twisted}"]),
        ("measure", ["measure", "--geometry", "{twisted}"]),
        ("measure_gt5", ["measure", "--geometry", "{twisted}", "--gt", "5"]),
        ("thom-sebastiani_y3",
         ["thom-sebastiani", "--left", "{x2}", "--right", "{y3}", "--imax", "12"]),
        ("thom-sebastiani_x2y3",
         ["thom-sebastiani", "--left", "{twisted}", "--right", "{x2y3}", "--imax", "12"]),
        ("thom-sebastiani_y4g2",
         ["thom-sebastiani", "--left", "{x6g1}", "--right", "{y4g2}", "--imax", "13"]),
        ("sg", ["sg", "--geometry", "{wide_w}"]),
        ("measure", ["measure", "--geometry", "{wide_w}"]),
        ("exp-series", ["exp-series", "--geometry", "{wide_w}"]),
        ("measure_gt4", ["measure", "--geometry", "{wide_w}", "--gt", "4"]),
    ],
)
def test_series_golden_bytes(tmp_path, capsys, name, argv):
    # outputs recorded from the Fraction-keyed motive_class_to_json and
    # _pretty_frac, and the product and direct Thom-Sebastiani rows from the
    # direct path that recomputed each stratum once per character; each is
    # kept in <first geometry>.<name>.json.  x^6 (g = x) against y^4 (g = y^2)
    # has characters that pass one factor, both or neither, characters of
    # order 12 that meet only the Fermat diagonal at i = 12, and the trivial
    # tail at i = 13.  wide_w is f = x1 x2^2 x3 x4 x5 x6^2, g = x2 x5^2 x7
    # with W = {1..5}: five hyperplanes, twists on W, a support coordinate
    # outside W and a free coordinate
    want = (GOLDEN / f"{argv[2].strip('{}')}.{name}.json").read_text(encoding="utf-8")
    names = ("twisted", "x2y3", "x2", "y3", "x6g1", "y4g2", "wide_w")
    geometries = {g: str(GOLDEN / f"{g}.geometry.json") for g in names}
    argv = [a.format(**geometries) for a in argv]
    assert main(argv) == 0
    assert capsys.readouterr().out == want
    out = tmp_path / "out.json"
    assert main([*argv, "--output", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == want


@pytest.mark.parametrize(
    "argv, want",
    [
        (
            ["zeta", "--geometry", "g.json"],
            "motivint zeta: the following arguments are required: --character",
        ),
        (
            ["frobnicate"],
            "motivint: argument command: invalid choice: 'frobnicate' (choose from 'zeta', "
            "'exp-series', 'measure', 'sg', 'spectrum', 'thom-sebastiani', 'oracle', 'selftest')",
        ),
        (
            ["thom-sebastiani", "--left", "a.json", "--right", "b.json", "--imax", "ten"],
            "motivint thom-sebastiani: argument --imax: invalid int value: 'ten'",
        ),
    ],
    ids=["missing-option", "unknown-command", "bad-int"],
)
def test_usage_error_bytes(capsys, argv, want):
    # an argparse error is an invalid input like any other: one JSON line on
    # stdout and exit 2, not usage text on stderr
    t0 = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - t0 < 1.0
    captured = capsys.readouterr()
    assert captured.out == json.dumps({"error": want}) + "\n"
    assert captured.err == ""


@pytest.mark.parametrize("argv, name", [(["--help"], "help"), (["zeta", "--help"], "zeta.help")])
def test_help_golden_bytes(capsys, monkeypatch, argv, name):
    # --help still prints to stdout and exits 0, as argparse does
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    captured = capsys.readouterr()
    assert captured.out == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    assert captured.err == ""


# (first, second): the second call leaves out an option that the first sets
LEAK_PAIRS = [
    (
        ["zeta", "--geometry", "{x2}", "--character", "1/2", "--window", "0", "6",
         "--display", "lpow"],
        ["zeta", "--geometry", "{x2}", "--character", "1/2"],
    ),
    (
        ["zeta", "--geometry", "{x2}", "--character", "1/2", "--window", "0", "6",
         "--display", "lpow"],
        ["zeta", "--geometry", "{x2}", "--character", "1/2", "--window", "0", "6"],
    ),
    (["measure", "--geometry", "{x2}", "--gt", "3"], ["measure", "--geometry", "{x2}"]),
    (
        ["thom-sebastiani", "--left", "{x2}", "--right", "{y3}", "--imax", "3", "--check"],
        ["thom-sebastiani", "--left", "{x2}", "--right", "{y3}", "--imax", "3"],
    ),
    (["sg", "--geometry", "{x2}", "--output", "{out}"], ["sg", "--geometry", "{x2}"]),
]


@pytest.mark.parametrize(
    "first, second", LEAK_PAIRS, ids=["window", "display", "gt", "check", "output"]
)
def test_reused_parser_leaks_no_state(tmp_path, capsys, monkeypatch, first, second):
    # the direct Thom-Sebastiani path is corrupted, so a --check that leaked
    # into the second call would turn its exit code to 1
    import motivint.arcs as arcs_mod
    from motivint.gaussring import UElement

    monkeypatch.setattr(arcs_mod, "ts_direct_exp_coefficient", lambda l, r, i: UElement(7))
    paths = {
        "x2": write_geom(tmp_path, "x2.json", X2),
        "y3": write_geom(tmp_path, "y3.json", Y3),
        "out": str(tmp_path / "out.json"),
    }
    first = [a.format(**paths) for a in first]
    second = [a.format(**paths) for a in second]

    def run(argv):
        code = main(argv)
        return code, capsys.readouterr().out

    build_parser.cache_clear()
    alone = run(second)  # the first call of a fresh parser
    assert alone[1]
    run(first)
    assert run(second) == alone
    assert build_parser() is build_parser()


@pytest.mark.parametrize(
    "name, argv",
    [
        ("padic_x2y3", ["padic", "--poly", "x^2+y^3", "--prime", "5", "--level", "1"]),
        (
            "padic_x2y3_indicator0",
            ["padic", "--poly", "x^2+y^3", "--prime", "5", "--level", "2", "--phi", "indicator0"],
        ),
        (
            "padic_precision",
            ["padic", "--poly", "x^3+x*y-2*y^2", "--prime", "3", "--level", "2", "--precision", "4"],
        ),
        ("gauss_13", ["gauss", "--prime", "13"]),
    ],
)
def test_oracle_golden_bytes(tmp_path, capsys, name, argv):
    # outputs recorded from the per-point bucket loop and ResidueCharacter.value
    # character sums; the counted buckets and hoisted sums keep every float
    want = (GOLDEN / f"oracle_{name}.json").read_text(encoding="utf-8")
    assert main(["oracle", *argv]) == 0
    assert capsys.readouterr().out == want
    out = tmp_path / "out.json"
    assert main(["oracle", *argv, "--output", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == want


@pytest.mark.parametrize(
    "argv, message",
    [
        (["zeta", "--geometry", "{x2}", "--character", "1/0"], "invalid character '1/0'"),
        (["measure", "--geometry", "{x2}", "--gt", "-1"], "--gt level must be nonnegative"),
        (["spectrum", "--geometry", "brieskorn(1,3)"], "brieskorn exponents must be >= 2"),
        (
            ["thom-sebastiani", "--left", "{x2}", "--right", "{x2}", "--imax", "0"],
            "--imax must be >= 1",
        ),
        (
            ["oracle", "padic", "--poly", "x", "--prime", "3", "--level", "-1"],
            "--level must be nonnegative",
        ),
        (
            ["oracle", "padic", "--poly", "x", "--prime", "3", "--level", "2", "--precision", "2"],
            "--precision must be at least level + 1",
        ),
        (["oracle", "gauss", "--prime", "4"], "p must be an odd prime"),
    ],
    ids=["character", "gt", "brieskorn", "imax", "level", "precision", "gauss-prime"],
)
def test_refusal_branches_print_one_error_line(tmp_path, capsys, argv, message):
    geom = write_geom(tmp_path, "x2.json", X2)
    assert main([a.replace("{x2}", geom) for a in argv]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert list(payload) == ["error"]
    assert payload["error"].startswith(message)
