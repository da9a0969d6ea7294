"""The closed loop: one client, one thread, the next request only after the
previous one has returned and been verified.

A run in a fresh interpreter starts with the module caches in ``arcs``
empty, as a CLI user or a library user on a new geometry has them.
"""

from __future__ import annotations

import gc
import math
import os
import resource
import statistics
import time
import traceback
from collections import Counter
from fractions import Fraction

from . import execute, inputs
from .execute import CLI_KINDS, EXECUTORS, GateFailure

# p90 needs at least ten samples beyond it
MIN_REQUESTS = 100
DEFAULT_SEED = 0
MAX_REPORTED_ERRORS = 5
# Requests per second of --seconds: about the rate each workload reached on
# the 2-core machine the benchmark was written on.  A timed run does this
# fixed amount of work, so both sides of a comparison run the same requests
# and cache the same entries; it lasts about --seconds there, and less as
# the program gets faster.
NOMINAL_RATE = {
    "closed_form_sweep": 30,
    "ts_coefficients": 700,
    "cli_mix": 70,
    "padic_oracle": 50,
}
# A run much slower than planned stops on time instead of on count.
MAX_SLOWDOWN = 4
# The CPU of the virtual machine this was written on runs the same code up
# to half again as fast in some minutes as in others.  Each run therefore
# times a fixed pure-Python kernel twice per second of busy time and states
# its times at the speed where that kernel takes REFERENCE_KERNEL_S.
CALIBRATE_EVERY_S = 0.5
REFERENCE_KERNEL_S = 0.020


def kernel_seconds() -> float:
    """CPU seconds of a fixed loop of Fraction and tuple-keyed dict work that
    shares no code with motivint, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.process_time()
        acc, table = Fraction(0), {}
        for i in range(1, 6000):
            acc += Fraction(i % 7 + 1, i % 11 + 1)
            key = (i % 13, i % 17)
            table[key] = table.get(key, 0) + i
        return time.process_time() - t0
    finally:
        if enabled:
            gc.enable()


def slowness(kernel_samples: list[float]) -> float:
    """How much slower than the reference speed this run's machine was."""
    return statistics.median(kernel_samples) / REFERENCE_KERNEL_S


class Session:
    """One workload's generated inputs, with the CLI files written to ``workdir``."""

    def __init__(self, workload: str, seed: int, workdir: str) -> None:
        self.stream = inputs.make_stream(workload, seed)
        # The oracles keep no result caches, so repeating a p-adic request
        # costs what it cost the first time; every other stream ends.
        self.cyclic = workload == "padic_oracle"
        self.argv: dict = {}
        if workload == "cli_mix":
            paths = inputs.write_geometry_files(self.stream, workdir)
            for n, req in enumerate(self.stream):
                out = os.path.join(workdir, f"out{n}.json")
                self.argv[n] = execute.cli_argv(req, paths.get(n), out)


def planned_requests(workload: str, seconds: float, session: Session) -> int:
    count = max(MIN_REQUESTS, math.ceil(seconds * NOMINAL_RATE[workload]))
    return count if session.cyclic else min(count, len(session.stream))


class RunResult:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.busy_s = 0.0
        self.wall_s = 0.0
        self.kernel_s: list[float] = []
        self.latencies: list[float] = []
        self.records: list[tuple] = []  # (kind, props, latency_s)
        self.errors: list[str] = []
        self.fingerprints: dict = {}
        self.reference_checked = 0

    def fail(self, where: int, req, message: str) -> None:
        self.failed += 1
        if len(self.errors) < MAX_REPORTED_ERRORS:
            self.errors.append(f"request {where} ({req.kind} {req.key}): {message}")


def run(
    session: Session,
    *,
    count: int,
    max_busy_s: float | None = None,
    tracer=None,
    references: dict | None = None,
    record: bool = False,
) -> RunResult:
    """Run the first ``count`` requests of the stream, cycling through a
    cyclic stream; stop early if a non-cyclic stream runs out or after
    ``max_busy_s`` of busy time.

    Busy time is CPU time of this process, covering each request and its
    verification.  Comparing against ``references`` (or recording
    fingerprints) happens outside it, with the tracer paused, so the default
    seed measures what every other seed does.
    """
    stream = session.stream
    res = RunResult()
    clock = time.process_time
    wall_start = time.perf_counter()
    n = 0
    next_kernel = 0.0
    while True:
        if res.busy_s >= next_kernel:
            res.kernel_s.append(kernel_seconds())
            next_kernel += CALIBRATE_EVERY_S
        if n >= count or (n >= len(stream) and not session.cyclic):
            break
        if max_busy_s is not None and res.busy_s >= max_busy_s:
            break
        idx = n % len(stream)
        req = stream[idx]
        argv = session.argv.get(idx)
        ok = True
        result = None
        if tracer is not None:
            tracer.begin_request(n)
        t0 = clock()
        try:
            result = EXECUTORS[req.kind](req, argv)
        except GateFailure as exc:
            ok = False
            res.fail(n, req, str(exc))
        except Exception:  # a raising request is a failed request; keep going
            ok = False
            res.fail(n, req, traceback.format_exc(limit=3).strip().splitlines()[-1])
        t1 = clock()
        if tracer is not None:
            tracer.end_request()
            tracer.active = False
        if ok and req.kind in CLI_KINDS:
            try:
                execute.verify_cli(req, result)
            except Exception as exc:  # a malformed output is a failed request
                ok = False
                res.fail(n, req, f"{type(exc).__name__}: {exc}")
        t2 = clock()
        res.busy_s += t2 - t0
        res.attempted += 1
        res.latencies.append(t1 - t0)
        res.records.append((req.kind, req.props, t1 - t0))
        if tracer is not None:
            _trace_request(tracer, req, argv, result, ok)
        if ok and record:
            res.fingerprints.update(execute.fingerprints(req, result))
        elif ok and references is not None:
            problem = _against_references(execute.fingerprints(req, result), references)
            if problem:
                res.fail(n, req, problem)
            else:
                res.reference_checked += 1
        if tracer is not None:
            tracer.active = True
        n += 1
    res.wall_s = time.perf_counter() - wall_start
    return res


def _against_references(fps: dict, references: dict) -> str | None:
    for key, fp in fps.items():
        if key not in references:
            return f"no reference value recorded for {key}"
        if not execute.same_fingerprint(fp, references[key]):
            return f"{key}: fingerprint {fp} != reference {references[key]}"
    return None


def _trace_request(tracer, req, argv, result, ok: bool) -> None:
    if req.kind == "decomposition":
        tracer.counts["oracles.points_enumerated"] += req.props["points"]
    elif req.kind in CLI_KINDS and os.path.exists(argv[-1]):
        tracer.counts["cli.output_bytes"] += os.path.getsize(argv[-1])
    elif req.kind == "sweep" and ok:
        tracer.add_series(result[0])


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(res: RunResult) -> tuple[dict, dict]:
    """Throughput, latency percentiles and memory of a timed run: at the
    reference speed, and as measured."""
    lat = res.latencies
    done = res.attempted - res.failed
    raw = {
        "ops_per_s": done / res.busy_s if res.busy_s else 0.0,
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_p90_ms": statistics.quantiles(lat, n=10)[8] * 1e3,
        "peak_rss_mib": peak_rss_mib(),
    }
    slow = slowness(res.kernel_s)
    scaled = dict(
        raw,
        ops_per_s=raw["ops_per_s"] * slow,
        latency_p50_ms=raw["latency_p50_ms"] / slow,
        latency_p90_ms=raw["latency_p90_ms"] / slow,
    )
    return scaled, raw


def summary(res: RunResult, tracer=None) -> dict:
    """What the inputs were, and where the closed-form sweep spent its time."""
    out: dict = {
        "requests": res.attempted,
        "failed": res.failed,
        "error_rate": res.failed / res.attempted if res.attempted else 0.0,
        "reference_checked": res.reference_checked,
        "busy_cpu_s": res.busy_s,
        "wall_s": res.wall_s,
        "kernel_s": res.kernel_s,
        "kinds": dict(sorted(Counter(kind for kind, _p, _t in res.records).items())),
    }
    for prop in ("big_d", "m"):
        hist = Counter(p[prop] for _k, p, _t in res.records if prop in p)
        if hist:
            out[f"{prop}_histogram"] = {str(k): v for k, v in sorted(hist.items())}
    if tracer is not None:
        out["cache_hit_share"] = tracer.metrics()["inputs.cache_hit_share"]
    if any(kind == "sweep" for kind, _p, _t in res.records):
        out["cost_by_big_d"] = cost_table(res, "big_d")
        out["cost_by_m"] = cost_table(res, "m")
    return out


def cost_table(res: RunResult, prop: str) -> list[dict]:
    """Per-geometry request cost grouped by one input property."""
    groups: dict = {}
    for _kind, props, t in res.records:
        groups.setdefault(props[prop], []).append(t)
    total = sum(t for _k, _p, t in res.records) or 1.0
    return [
        {
            prop: key,
            "requests": len(ts),
            "total_s": round(sum(ts), 6),
            "mean_ms": round(statistics.fmean(ts) * 1e3, 3),
            "max_ms": round(max(ts) * 1e3, 3),
            "time_share": round(sum(ts) / total, 4),
        }
        for key, ts in sorted(groups.items())
    ]
