"""Benchmark for motivint: four closed-loop workloads, and a traced per-layer run.

    python3 bench/run.py --workload closed_form_sweep --seed 0 --seconds 20 --trace 0

Workloads: closed_form_sweep, ts_coefficients, cli_mix, padic_oracle (see
bench/README.md).  With ``--trace 0`` the last line of stdout is a JSON
object with the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics of a separate traced run.  A human-readable summary goes
to stderr and the full report to ``.bench_work/reports/``.  The exit code is
0 only when every request passed its correctness gate.

Every measurement runs in a fresh child interpreter: set-up time is taken
from the child's launch until its inputs are ready, and the module caches
start empty, as they do for every CLI call.  End-to-end times are stated at
a reference machine speed (see bench/README.md); the values as measured go
to stderr and the report.

``--record-references`` recomputes ``bench/reference.json`` from the
default seed; run it only at a commit whose results are known to be right.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE = BENCH_DIR / "reference.json"

SETUP_SAMPLES = 5
# kernel timings per set-up child, pooled to state set-up time at reference speed
PROBE_KERNELS = 3
# Requests in a traced run: fixed, so that counts repeat exactly for a seed.
TRACE_REQUESTS = {
    "closed_form_sweep": 300,
    "ts_coefficients": 3000,
    "cli_mix": None,  # the whole stream
    "padic_oracle": 232,  # two rounds
}
# Busy-time cap of each traced-run pass, so a much slower program still ends
# inside CHILD_TIMEOUT_S.
TRACE_MAX_BUSY_S = 60.0
CHILD_TIMEOUT_S = 170.0
END_TO_END = [
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
]


def _import_program() -> None:
    """Put this checkout's src/ first on the path; fail if it is not there."""
    if not (SRC / "motivint" / "__init__.py").is_file():
        raise SystemExit(f"error: no motivint sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import motivint

    if Path(motivint.__file__).resolve().parent != SRC / "motivint":
        raise SystemExit(f"error: imported motivint from {motivint.__file__}, not {SRC}")


# ---------------------------------------------------------------------------
# children: set up, say "ready", measure, print one "result" line
# ---------------------------------------------------------------------------


def child(args) -> int:
    _import_program()
    from benchlib import harness

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        session = harness.Session(args.workload, args.seed, str(workdir))
        print("ready", flush=True)
        if args.role == "probe":
            kernel = [harness.kernel_seconds() for _ in range(PROBE_KERNELS)]
            print("result " + json.dumps({"kernel_s": kernel}), flush=True)
            return 0
        references = None
        if args.seed == harness.DEFAULT_SEED and args.role != "record":
            references = json.loads(REFERENCE.read_text(encoding="utf-8"))[args.workload]
        out: dict = {}
        if args.role == "timed":
            count = harness.planned_requests(args.workload, args.seconds, session)
            res = harness.run(
                session,
                count=count,
                max_busy_s=harness.MAX_SLOWDOWN * args.seconds,
                references=references,
            )
            out["metrics"], out["raw_metrics"] = harness.end_to_end(res)
            out["slowness"] = harness.slowness(res.kernel_s)
            out["summary"] = harness.summary(res)
        elif args.role == "record":
            res = harness.run(session, count=len(session.stream), record=True)
            out["fingerprints"] = res.fingerprints
        else:
            count = TRACE_REQUESTS[args.workload] or len(session.stream)
            if args.role == "traced":
                from benchlib.tracer import Tracer

                with Tracer() as tracer:
                    res = harness.run(
                        session,
                        count=count,
                        max_busy_s=TRACE_MAX_BUSY_S,
                        tracer=tracer,
                        references=references,
                    )
                out["metrics"] = tracer.metrics()
                out["summary"] = harness.summary(res, tracer)
                reports = WORK / "reports"
                reports.mkdir(parents=True, exist_ok=True)
                tracer.write_spans(str(reports / f"{args.workload}-seed{args.seed}.spans.jsonl"))
            else:
                res = harness.run(
                    session, count=count, max_busy_s=TRACE_MAX_BUSY_S, references=references
                )
                out["summary"] = harness.summary(res)
            out["ops_per_s"] = (res.attempted - res.failed) / res.busy_s
        out.update(attempted=res.attempted, failed=res.failed, errors=res.errors)
        print("result " + json.dumps(out), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# ---------------------------------------------------------------------------
# the driver-facing process: launch children, combine, report
# ---------------------------------------------------------------------------


def _spawn(args, role: str, deadline: float) -> tuple[float, dict | None]:
    """Run one child; return (seconds from launch to "ready", its result)."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--role", role,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=str(ROOT))
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read()
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if first.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"{role} child failed (exit {proc.returncode}) before reporting")
    result = None
    for line in rest.splitlines():
        if line.startswith("result "):
            result = json.loads(line[len("result "):])
    return setup_s, result


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
    }


def orchestrate(args) -> int:
    from benchlib import harness

    deadline = time.monotonic() + CHILD_TIMEOUT_S
    before = machine()
    if args.trace == 0:
        probes = [_spawn(args, "probe", deadline) for _ in range(SETUP_SAMPLES - 1)]
        setup_s, res = _spawn(args, "timed", deadline)
        setups = [s for s, _ in probes] + [setup_s]
        setup_slowness = harness.slowness([k for _, out in probes for k in out["kernel_s"]])
        metrics = dict(res["metrics"], setup_s=statistics.median(setups) / setup_slowness)
        metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}
        summary = dict(
            res["summary"],
            raw_metrics=dict(res["raw_metrics"], setup_s=statistics.median(setups)),
            slowness=res["slowness"],
            setup_slowness=setup_slowness,
            setup_samples_s=setups,
        )
        attempted, failed, errors = res["attempted"], res["failed"], res["errors"]
    else:
        from benchlib.tracer import PER_LAYER

        _, plain = _spawn(args, "untraced", deadline)
        _, traced = _spawn(args, "traced", deadline)
        values = dict(
            traced["metrics"],
            **{
                "trace.requests": traced["attempted"],
                "trace.untraced_ops_per_s": plain["ops_per_s"],
                "trace.traced_ops_per_s": traced["ops_per_s"],
                "trace.overhead_ratio": plain["ops_per_s"] / traced["ops_per_s"]
                if traced["ops_per_s"]
                else 0.0,
            },
        )
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _b in PER_LAYER}
        summary = traced["summary"]
        attempted = plain["attempted"] + traced["attempted"]
        failed = plain["failed"] + traced["failed"]
        errors = plain["errors"] + traced["errors"]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "machine_before": before,
        "machine_after": machine(),
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "metrics": metrics,
        "summary": summary,
    }
    reports = WORK / "reports"
    reports.mkdir(parents=True, exist_ok=True)
    (reports / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n", encoding="utf-8"
    )
    _print_summary(report)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def _print_summary(report: dict) -> None:
    err = sys.stderr
    m = report["machine_before"]
    print(
        f"# {report['workload']} seed={report['seed']} trace={report['trace']} | {m['cpu']}, "
        f"nproc={m['nproc']}, load={m['loadavg'][0]:.2f}, python {m['python']}",
        file=err,
    )
    for name, v in report["metrics"].items():
        print(f"{name:40s} {v['value']:>16.6g} {v['unit']}", file=err)
    s = report["summary"]
    print(f"{'error_rate':40s} {s['error_rate']:>16.6g} ratio", file=err)
    if "raw_metrics" in s:
        print(f"as measured, at slowness {s['slowness']:.4g}: {s['raw_metrics']}", file=err)
    print(f"requests per kind: {s['kinds']}", file=err)
    for key in ("big_d_histogram", "m_histogram", "cache_hit_share"):
        if key in s:
            print(f"{key}: {s[key]}", file=err)
    for key in ("cost_by_big_d", "cost_by_m"):
        for row in s.get(key, []):
            print(f"{key} {row}", file=err)
    for line in report["errors"]:
        print(f"FAILED {line}", file=err)


def record_references(args) -> int:
    """Write the default seed's fingerprints for every workload."""
    from benchlib import harness, inputs

    out = {}
    for workload in inputs.WORKLOADS:
        args.workload, args.seed = workload, harness.DEFAULT_SEED
        _, res = _spawn(args, "record", time.monotonic() + 3600)
        if res["failed"]:
            print(f"{workload}: {res['errors']}", file=sys.stderr)
            return 1
        out[workload] = res["fingerprints"]
        print(f"{workload}: {len(res['fingerprints'])} fingerprints", file=sys.stderr)
    REFERENCE.write_text(json.dumps(out, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=(
        "closed_form_sweep", "ts_coefficients", "cli_mix", "padic_oracle"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-references", action="store_true")
    parser.add_argument("--role", choices=("probe", "timed", "untraced", "traced", "record"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.role:
        return child(args)
    _import_program()
    if args.record_references:
        return record_references(args)
    if args.workload is None:
        parser.error("--workload is required")
    # a terminated run still stops and waits for its child (see _spawn)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    return orchestrate(args)


if __name__ == "__main__":
    sys.exit(main())
