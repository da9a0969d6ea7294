"""Per-layer tracing from the benchmark side, for the separate traced run.

While installed, the tracer rebinds the names through which one layer of
motivint calls the next (``rs_normalize``/``prefix_sums`` as ``arcs`` imports
them, the ``*_to_json`` names ``cli`` imports, ``sg`` as ``cli`` and
``spectra`` see it, ...) to wrappers that record spans, and it counts the
``MotiveFrac``/``MotiveClass`` arithmetic.  The arithmetic is counted, never
timed: timing about a million calls per run added about a fifth to the run,
counting alone about a tenth.  Nothing inside motivint changes; uninstalling
restores every binding.

A span's self time is its duration minus the time of the spans it caused.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

from motivint import arcs, cli, gaussring, motives, oracles, polyparse, series, spectra

_JSON_NAMES = (
    "geometry_to_json",
    "motive_frac_to_json",
    "series_to_json",
    "spectrum_to_json",
    "uelement_to_json",
)

# span name -> the (namespace, attribute) bindings that route calls into it
SPANS = {
    "series.rs_normalize": [(arcs, "rs_normalize")],
    "series.prefix_sums": [(arcs, "prefix_sums")],
    "series.lambda_functional": [(series, "lambda_functional"), (spectra, "lambda_functional")],
    "series.exp_t": [(cli, "exp_t")],
    "arcs.zeta_series": [(arcs, "zeta_series"), (spectra, "zeta_series"), (cli, "zeta_series")],
    "arcs.measure_series": [(arcs, "measure_series"), (cli, "measure_series")],
    "arcs.measure_gt": [(cli, "measure_gt")],
    "arcs.exp_series": [(arcs, "exp_series"), (cli, "exp_series")],
    "arcs.exp_coefficient": [(arcs, "exp_coefficient"), (cli, "arc_exp_coefficient")],
    "arcs.ts_direct_exp_coefficient": [
        (arcs, "ts_direct_exp_coefficient"),
        (cli, "ts_direct_exp_coefficient"),
    ],
    "spectra.sg": [(spectra, "sg"), (cli, "sg")],
    "spectra.sp_from_sg": [(spectra, "sp_from_sg"), (cli, "sp_from_sg")],
    "gaussring.u_mul": [(gaussring, "u_mul"), (cli, "u_mul")],
    "gaussring.eq": [(gaussring.UElement, "__eq__")],
    "jsonio.to_json": [(cli, name) for name in _JSON_NAMES],
    "cli.main": [(cli, "main")],
    "oracles.check_exp_decomposition": [(oracles, "check_exp_decomposition")],
    "oracles.gauss_sum_numeric": [(oracles, "gauss_sum_numeric")],
    "oracles.jacobi_sum_numeric": [(oracles, "jacobi_sum_numeric")],
    "polyparse.parse_poly": [(polyparse, "parse_poly")],
}

# Per-layer metrics of a traced run, in report order, with unit and direction.
PER_LAYER = [
    *[(f"{name}.self_s", "s", "lower") for name in SPANS],
    ("gaussring.u_mul.calls", "count", "lower"),
    ("motives.frac_add.calls", "count", "lower"),
    ("motives.frac_add.same_den_ratio", "ratio", "higher"),
    ("motives.frac_mul.calls", "count", "lower"),
    ("motives.frac_eq.calls", "count", "lower"),
    ("motives.frac_eq.cross_mul_ratio", "ratio", "lower"),
    ("motives.class_mul.calls", "count", "lower"),
    ("arcs.cache_hit_ratio", "ratio", "higher"),
    ("arcs.cache_entries", "count", "lower"),
    ("series.terms", "count", "lower"),
    ("series.step_max", "count", "lower"),
    ("series.coeff_den_factors", "count", "lower"),
    ("series.coeff_num_terms", "count", "lower"),
    ("cli.output_bytes", "bytes", "lower"),
    ("oracles.points_enumerated", "count", "lower"),
    ("inputs.cache_hit_share", "ratio", "higher"),
    ("trace.requests", "count", "higher"),
    ("trace.untraced_ops_per_s", "1/s", "higher"),
    ("trace.traced_ops_per_s", "1/s", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
]


def _cached_functions() -> dict:
    """Every cache_info()-bearing function in arcs, found by attribute scan."""
    return {
        name: fn
        for name, fn in sorted(vars(arcs).items())
        if callable(getattr(fn, "cache_info", None))
    }


def series_sizes(s) -> tuple[int, int, int, int]:
    """(arithmetic terms, largest step, denominator factors, numerator terms)
    of a RationalSeries; the last two are summed over every coefficient."""
    terms = getattr(s, "terms", None) or {}
    coeffs = list(getattr(s, "poly", {}).values())
    for npoly in terms.values():
        coeffs.extend(npoly)
    den = num = 0
    for c in coeffs:
        parts = [c.scalar, *c.gauss.values()] if isinstance(c, gaussring.UElement) else [c]
        for frac in parts:
            den += len(getattr(frac, "den", ()))
            num += len(getattr(getattr(frac, "num", None), "terms", ()))
    step = max((key[1] for key in terms), default=0)
    return len(terms), step, den, num


class Tracer:
    """Spans, counts and cache activity of one traced run; a context manager."""

    def __init__(self) -> None:
        self.active = False
        self.request_id = -1
        self.spans: list[tuple] = []
        self.self_s: dict = defaultdict(float)
        self.calls: dict = defaultdict(int)
        self.counts: dict = defaultdict(int)
        self._stack: list[list] = []
        self._saved: list[tuple] = []
        self._caches = _cached_functions()
        self._seen_keys: dict = {}
        self._hit_existing = False
        self._cache_before = (0, 0, 0)
        self._cache_delta = [0, 0, 0]
        self.requests = 0
        self.requests_hitting_cache = 0
        self.series = [0, 0, 0, 0]

    # -- installation -----------------------------------------------------

    def _rebind(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        originals = set(map(id, self._caches.values()))
        keyed = {id(fn): self._keyed(name, fn) for name, fn in self._caches.items()}
        for module in (arcs, spectra, cli):
            for attr, obj in list(vars(module).items()):
                if id(obj) in originals:
                    self._rebind(module, attr, keyed[id(obj)])
        for span, bindings in SPANS.items():
            for owner, attr in bindings:
                # a binding a later version drops is skipped; its span reads 0
                if attr in vars(owner):
                    self._rebind(owner, attr, self._timed(span, vars(owner)[attr]))
        self._count_methods()
        self.active = True
        return self

    def __exit__(self, *exc) -> None:
        self.active = False
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()

    def _timed(self, name: str, fn):
        stack, spans, self_s, calls = self._stack, self.spans, self.self_s, self.calls
        clock = time.perf_counter

        def span(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = stack[-1][0] if stack else None
            frame = [len(spans), clock(), 0.0]
            spans.append(None)  # reserve the id; filled on exit
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                self_s[name] += duration - frame[2]
                calls[name] += 1
                if stack:
                    stack[-1][2] += duration
                spans[frame[0]] = (frame[0], parent, self.request_id, name, frame[1], end)

        return span

    def _keyed(self, name: str, fn):
        """Record which request first used each cache key, to tell a hit on an
        entry left by an earlier request from one made within the request."""
        seen = self._seen_keys

        def keyed(*args):
            if self.active:
                first = seen.setdefault((name, args), self.request_id)
                if first != self.request_id:
                    self._hit_existing = True
            return fn(*args)

        return keyed

    def _count_methods(self) -> None:
        counts = self.counts
        frac, cls = motives.MotiveFrac, motives.MotiveClass
        add, mul, eq, cmul = frac.__add__, frac.__mul__, frac.__eq__, cls.__mul__

        def frac_add(a, b):
            if self.active:
                counts["motives.frac_add.calls"] += 1
                if getattr(a, "den", None) == getattr(b, "den", ()):
                    counts["motives.frac_add.same_den"] += 1
            return add(a, b)

        def frac_mul(a, b):
            if self.active:
                counts["motives.frac_mul.calls"] += 1
            return mul(a, b)

        def frac_eq(a, b):
            if self.active:
                counts["motives.frac_eq.calls"] += 1
                both_nonzero = getattr(a, "num", None) and getattr(b, "num", b)
                if both_nonzero and getattr(a, "den", None) != getattr(b, "den", ()):
                    counts["motives.frac_eq.cross_mul"] += 1
            return eq(a, b)

        def class_mul(a, b):
            if self.active:
                counts["motives.class_mul.calls"] += 1
            return cmul(a, b)

        for attr in ("__add__", "__radd__"):
            self._rebind(frac, attr, frac_add)
        for attr in ("__mul__", "__rmul__"):
            self._rebind(frac, attr, frac_mul)
        self._rebind(frac, "__eq__", frac_eq)
        for attr in ("__mul__", "__rmul__"):
            self._rebind(cls, attr, class_mul)

    # -- per request --------------------------------------------------------

    def _cache_totals(self) -> tuple[int, int, int]:
        hits = misses = size = 0
        for fn in self._caches.values():
            info = fn.cache_info()
            hits += info.hits
            misses += info.misses
            size += info.currsize
        return hits, misses, size

    def begin_request(self, request_id: int) -> None:
        self.request_id = request_id
        self._hit_existing = False
        self._cache_before = self._cache_totals()

    def end_request(self) -> None:
        after = self._cache_totals()
        for k in range(3):
            self._cache_delta[k] += after[k] - self._cache_before[k]
        self.requests += 1
        self.requests_hitting_cache += self._hit_existing

    def add_series(self, s) -> None:
        terms, step, den, num = series_sizes(s)
        self.series[0] += terms
        self.series[1] = max(self.series[1], step)
        self.series[2] += den
        self.series[3] += num

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict:
        """Every per-layer metric a traced run measures itself (not trace.*)."""
        c = self.counts
        hits, misses, entries = self._cache_delta
        adds, eqs = c["motives.frac_add.calls"], c["motives.frac_eq.calls"]
        out = {f"{name}.self_s": self.self_s.get(name, 0.0) for name in SPANS}
        out.update(
            {
                "gaussring.u_mul.calls": self.calls.get("gaussring.u_mul", 0),
                "motives.frac_add.calls": adds,
                "motives.frac_add.same_den_ratio": _ratio(c["motives.frac_add.same_den"], adds),
                "motives.frac_mul.calls": c["motives.frac_mul.calls"],
                "motives.frac_eq.calls": eqs,
                "motives.frac_eq.cross_mul_ratio": _ratio(c["motives.frac_eq.cross_mul"], eqs),
                "motives.class_mul.calls": c["motives.class_mul.calls"],
                "arcs.cache_hit_ratio": _ratio(hits, hits + misses),
                "arcs.cache_entries": entries,
                "series.terms": self.series[0],
                "series.step_max": self.series[1],
                "series.coeff_den_factors": self.series[2],
                "series.coeff_num_terms": self.series[3],
                "cli.output_bytes": c["cli.output_bytes"],
                "oracles.points_enumerated": c["oracles.points_enumerated"],
                "inputs.cache_hit_share": _ratio(self.requests_hitting_cache, self.requests),
            }
        )
        return out

    def write_spans(self, path: str) -> None:
        """One JSON array per span: id, parent id, request id, name, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                if span is not None:
                    fh.write(json.dumps(span) + "\n")


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0
