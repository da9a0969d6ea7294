import json
import time
from pathlib import Path

import pytest

from motivint.cli import main
from motivint.oracles import MAX_GAUSS_PRIME

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
    from motivint.jsonio import series_from_json, uelement_from_json
    from motivint.arcs import MonomialGeometry, exp_series

    geom_path = write_geom(tmp_path, "x2.json", X2)
    code, payload = run_cli(capsys, "exp-series", "--geometry", geom_path)
    assert code == 0
    back = series_from_json(payload["series"], uelement_from_json)
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
