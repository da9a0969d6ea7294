"""Tests of the benchmark itself: the gates catch altered results, the tracer
leaves the program as it found it, and BENCHMARK.json names what it prints."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

from benchlib import execute, harness, inputs  # noqa: E402
from benchlib.inputs import Request  # noqa: E402
from benchlib.tracer import PER_LAYER, Tracer  # noqa: E402
from motivint import arcs, cli, gaussring, oracles, spectra  # noqa: E402
from motivint.arcs import MonomialGeometry  # noqa: E402
from motivint.characters import Character  # noqa: E402
from motivint.spectra import SpectrumPoly  # noqa: E402


def _geom(m, f, g=None, w=(1,)):
    return MonomialGeometry.make(m, f, g, w)


def _session(reqs, tmp_path=None):
    argv = {}
    if tmp_path is not None:
        paths = inputs.write_geometry_files(reqs, str(tmp_path))
        argv = {
            n: execute.cli_argv(r, paths.get(n), str(tmp_path / f"out{n}.json"))
            for n, r in enumerate(reqs)
        }
    return SimpleNamespace(stream=reqs, cyclic=False, argv=argv)


def _sweep_requests():
    geoms = [_geom(1, [2]), _geom(2, [2, 3], w=(1, 2)), _geom(2, [0, 4], w=(2,))]
    return [
        Request("sweep", inputs.geometry_key(g), g, inputs.geometry_props(g)) for g in geoms
    ]


def _ts_requests():
    left, right = _geom(1, [2], [1]), _geom(1, [3])
    return [Request("ts_1d", f"ts{i}", (left, right, i), {}) for i in range(1, 5)]


def _cli_requests():
    origin = _geom(2, [2, 4], w=(1, 2))
    other = _geom(2, [2, 3], w=(1,))
    return [
        Request("sg", "sg", origin, {}),
        Request("spectrum", "spectrum", origin, {}),
        Request("brieskorn", "brieskorn", (2, 3), {}),
        Request("zeta", "zeta", (other, Character.trivial()), {}),
        Request("measure", "measure", (other, 5), {}),
    ]


def _padic_requests():
    return [
        Request("decomposition", "d", ("x^2 + y^3", 5, 1, "one"), {"points": 625}),
        Request("gauss", "g", 7, {"p": 7}),
    ]


def _run(reqs, tmp_path=None, **kwargs):
    return harness.run(_session(reqs, tmp_path), count=len(reqs), **kwargs)


def test_gates_pass_on_the_program_as_it_is(tmp_path):
    for reqs in (_sweep_requests(), _ts_requests(), _padic_requests()):
        assert _run(reqs).failed == 0
    res = _run(_cli_requests(), tmp_path)
    assert res.failed == 0, res.errors


def _doubled(fn):
    return lambda *args: fn(*args) * 2


def test_sweep_gate_catches_an_altered_sg(monkeypatch):
    monkeypatch.setattr(spectra, "sg", _doubled(spectra.sg))
    res = _run(_sweep_requests())
    assert res.failed == len(_sweep_requests())
    assert "lambda(E)" in res.errors[0]


def test_ts_gate_catches_an_altered_direct_path(monkeypatch):
    direct = arcs.ts_direct_exp_coefficient
    monkeypatch.setattr(arcs, "ts_direct_exp_coefficient", lambda *a: direct(*a) + 1)
    assert _run(_ts_requests()).failed == len(_ts_requests())


def test_cli_gates_catch_altered_outputs(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "sg", _doubled(cli.sg))
    sp_from_sg = cli.sp_from_sg
    monkeypatch.setattr(
        cli, "sp_from_sg", lambda *a: sp_from_sg(*a) * SpectrumPoly({1: 1})
    )
    monkeypatch.setattr(cli, "measure_gt", lambda g, i: arcs.measure_gt(g, i + 1))
    monkeypatch.setattr(cli, "zeta_series", lambda g, a: arcs.zeta_series(g, a).scale(2))
    res = _run(_cli_requests(), tmp_path)
    kinds = [line.split("(")[1].split()[0] for line in res.errors]
    # a geometry-file spectrum goes through spectra.sp, which this leaves alone
    assert sorted(kinds) == ["brieskorn", "measure", "sg", "zeta"]


def test_padic_gates_catch_altered_gauss_sums(monkeypatch):
    gauss = oracles.gauss_sum_numeric
    monkeypatch.setattr(oracles, "gauss_sum_numeric", lambda *a: gauss(*a) * 1.001)
    assert _run(_padic_requests()).failed == 2


def test_reference_fingerprints_catch_a_changed_value():
    reqs = _sweep_requests()
    recorded = _run(reqs, record=True).fingerprints
    assert _run(reqs, references=recorded).reference_checked == len(reqs)
    tampered = dict(recorded)
    key = reqs[1].key
    tampered[key] = "0" * 12
    res = _run(reqs, references=tampered)
    assert res.failed == 1 and key in res.errors[0]


def test_end_to_end_states_times_at_reference_speed():
    res = harness.RunResult()
    res.attempted, res.busy_s = 10, 2.0
    res.latencies = [0.001 * k for k in range(1, 11)]
    res.kernel_s = [2 * harness.REFERENCE_KERNEL_S] * 3
    scaled, raw = harness.end_to_end(res)
    assert raw["ops_per_s"] == 5.0 and scaled["ops_per_s"] == 10.0
    assert scaled["latency_p50_ms"] == pytest.approx(raw["latency_p50_ms"] / 2)
    assert scaled["latency_p90_ms"] == pytest.approx(raw["latency_p90_ms"] / 2)
    assert scaled["peak_rss_mib"] == raw["peak_rss_mib"]


def test_origin_sg_matches_the_program_on_every_origin_geometry():
    origin = [g for g in inputs.criterion7_geometries() if inputs._origin(g) and g.m <= 2]
    assert all(execute.origin_sg(g) == spectra.sg(g) for g in origin)


def test_tracer_counts_and_restores_every_binding():
    before = {id(v) for mod in (arcs, cli, gaussring, spectra) for v in vars(mod).values()}
    eq = gaussring.UElement.__eq__
    with Tracer() as tracer:
        res = _run(_ts_requests()[:2] + _sweep_requests()[:1], tracer=tracer)
    after = {id(v) for mod in (arcs, cli, gaussring, spectra) for v in vars(mod).values()}
    assert res.failed == 0
    assert before == after and gaussring.UElement.__eq__ is eq
    metrics = tracer.metrics()
    assert metrics["arcs.exp_coefficient.self_s"] > 0
    assert metrics["motives.frac_add.calls"] > 0 and metrics["series.terms"] > 0
    assert set(metrics) | {n for n, _u, _b in PER_LAYER if n.startswith("trace.")} == {
        n for n, _u, _b in PER_LAYER
    }


def test_benchmark_json_names_what_the_benchmark_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == PER_LAYER
    sys.path.insert(0, str(BENCH))
    import run

    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_streams_repeat_for_a_seed_and_differ_across_seeds(workload):
    keys = [r.key for r in inputs.make_stream(workload, 3)]
    assert keys == [r.key for r in inputs.make_stream(workload, 3)]
    assert keys != [r.key for r in inputs.make_stream(workload, 4)]


def test_sweep_prefixes_keep_each_big_d_class_in_its_share():
    stream = inputs.make_stream("closed_form_sweep", 7)
    whole = Counter(r.props["big_d"] for r in stream)
    prefix = Counter(r.props["big_d"] for r in stream[:200])
    for cls, count in whole.items():
        assert abs(prefix[cls] - count * 200 / len(stream)) <= 4, cls


def test_run_fails_without_the_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli_mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip()
