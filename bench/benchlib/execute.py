"""Request executors, the correctness gate on each result, and reference fingerprints.

Every request is checked by an independent second path:

* closed_form_sweep: lambda(E) against -L^-m SG;
* ts_coefficients: the product path against the direct Thom-Sebastiani path;
* cli_mix: SG and spectra against SG read off the zeta function's limit at
  T = infinity, Brieskorn spectra against the Milnor-basis oracle, zeta
  windows against the lattice walk, tail measures against the measure series;
* padic_oracle: the decomposition residue and the Gauss/Jacobi relations to 1e-9.

Fingerprints do not depend on how a value is represented: ring values are
evaluated exactly at L = 7, spectra are compared by value and floating-point
oracle values to 1e-9.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from fractions import Fraction
from math import gcd

from motivint import arcs, cli, gaussring, jsonio, oracles, polyparse, series, spectra
from motivint.characters import characters_of_order_dividing
from motivint.gaussring import UElement
from motivint.motives import MotiveClass

from .inputs import ZETA_WINDOW, Request, geometry_json, geometry_key

TOLERANCE = 1e-9
FINGERPRINT_L = Fraction(7)
SWEEP_WINDOW = range(1, 5)
CLI_KINDS = ("sg", "spectrum", "brieskorn", "zeta", "measure")


class GateFailure(Exception):
    """A result disagreed with its second path or with its reference value."""


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise GateFailure(what)


# ---------------------------------------------------------------------------
# executors: the timed part of a request.  Each calls the program through
# module attributes, so that a tracer that rebinds them sees the call.
# ``argv`` is the prepared command line of a CLI request, else None.
# ---------------------------------------------------------------------------


def _sweep(req: Request, argv) -> tuple:
    geom = req.args
    exp = arcs.exp_series(geom)
    lam = series.lambda_functional(exp)
    sg = spectra.sg(geom)
    _require(lam == sg.mul_lpow(-geom.m) * (-1), "lambda(E) != -L^-m SG")
    return exp, sg


def _ts(req: Request, argv) -> None:
    left, right, i = req.args
    product = gaussring.u_mul(arcs.exp_coefficient(left, i), arcs.exp_coefficient(right, i))
    direct = arcs.ts_direct_exp_coefficient(left, right, i)
    _require(product == direct, "product path != direct path")


def cli_argv(req: Request, geometry_path: str | None, output_path: str) -> list[str]:
    if req.kind == "brieskorn":
        head = ["spectrum", "--geometry", f"brieskorn({','.join(map(str, req.args))})"]
    elif req.kind == "zeta":
        lo, hi = ZETA_WINDOW
        head = ["zeta", "--geometry", geometry_path, "--character", str(req.args[1]),
                "--window", str(lo), str(hi)]
    elif req.kind == "measure":
        head = ["measure", "--geometry", geometry_path, "--gt", str(req.args[1])]
    else:
        head = [req.kind, "--geometry", geometry_path]
    return head + ["--output", output_path]


def _cli(req: Request, argv) -> dict:
    out = argv[-1]
    with contextlib.redirect_stdout(io.StringIO()) as captured:
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
    _require(rc == 0, f"exit code {rc}: {captured.getvalue().strip()[:200]}")
    with open(out, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _decomposition(req: Request, argv) -> complex:
    poly, p, level, phi_name = req.args
    f = polyparse.parse_poly(poly)
    m = max(f.nvars, 1)
    ctx = oracles.PadicContext(p, level + 1)
    phi = (oracles.phi_one if phi_name == "one" else oracles.phi_indicator_zero)(p, m)
    report = oracles.check_exp_decomposition(f, ctx, phi, level)
    _require(report.residue <= TOLERANCE, f"decomposition residue {report.residue}")
    return report.lhs


def _gauss(req: Request, argv) -> list:
    """The finite-field relations that shadow the Gauss-ring laws, for one prime."""
    p = req.args
    ctx = oracles.PadicContext(p, 1)
    chars = [oracles.ResidueCharacter(p, 1, k) for k in range(p - 1)]
    gs = {c.index: oracles.gauss_sum_numeric(ctx, c) for c in chars}
    worst = 0.0
    for c1 in chars:
        if not c1.is_trivial():
            worst = max(worst, abs(gs[c1.index] * gs[c1.inverse().index] - c1.value(p - 1) * p))
        for c2 in chars:
            prod = c1 * c2
            if c1.is_trivial() or c2.is_trivial() or prod.is_trivial():
                continue
            j = oracles.jacobi_sum_numeric(p, c1, c2)
            worst = max(worst, abs(gs[c1.index] * gs[c2.index] - j * gs[prod.index]))
            worst = max(worst, abs(abs(j) - p**0.5))
    _require(worst <= TOLERANCE, f"Gauss/Jacobi residue {worst}")
    return [gs[k] for k in sorted(gs)]


EXECUTORS = {
    "sweep": _sweep,
    "ts_1d": _ts,
    "ts_2d": _ts,
    "decomposition": _decomposition,
    "gauss": _gauss,
    **dict.fromkeys(CLI_KINDS, _cli),
}

# ---------------------------------------------------------------------------
# second paths for CLI results (not timed as part of the request's latency)
# ---------------------------------------------------------------------------


def origin_sg(geom) -> UElement:
    """SG of an origin-supported monomial from its definition S = -lim_{T->oo} Z(T).

    With every exponent n_j >= 1 and W every coordinate hyperplane,
    Z(T) = ((L-1)/L)^m [prod_j 1/(1 - L^(-1-g_j) T^(n_j)) - 1]; each factor
    tends to 0, so the limit is -((L-1)/L)^m and the nearby-cycle class
    L^m/(1-L) times it is (L-1)^(m-1) for every character of order dividing
    gcd(n).  This never builds the series closed form.
    """
    m = geom.m
    lm1 = MotiveClass.lpow(1) - 1
    s_psi = lm1 ** (m - 1)
    # class of the union of the coordinate hyperplanes: L^m - (L-1)^m
    base = MotiveClass.lpow(m) - lm1**m
    order = 0
    for n in geom.f_exponents:
        order = gcd(order, n)
    gauss = {a.inverse(): s_psi for a in characters_of_order_dividing(order) if not a.is_trivial()}
    return UElement(-(s_psi - base), gauss)


def verify_cli(req: Request, payload: dict) -> None:
    if req.kind == "brieskorn":
        got = jsonio.spectrum_from_json(payload["spectrum"])
        _require(got == spectra.brieskorn_oracle(req.args), "spectrum != Milnor-basis oracle")
        return
    geom = req.args if req.kind in ("sg", "spectrum") else req.args[0]
    _require(payload["geometry"] == geometry_json(geom), "geometry echo differs")
    if req.kind == "sg":
        got = jsonio.uelement_from_json(payload["sg"])
        _require(got == origin_sg(geom), "SG != SG from the zeta limit")
    elif req.kind == "spectrum":
        got = jsonio.spectrum_from_json(payload["spectrum"])
        want = spectra.sp_from_sg(origin_sg(geom), geom.m)
        _require(got == want, "spectrum != spectrum of SG from the zeta limit")
    elif req.kind == "zeta":
        alpha = req.args[1]
        lo, hi = ZETA_WINDOW
        got = {i: jsonio.motive_frac_from_json(c) for i, c in payload["coefficients"]}
        _require(sorted(got) == list(range(lo, hi + 1)), "zeta window indices differ")
        for i, c in got.items():
            want = arcs.char_integral(geom, alpha, i)
            _require(c == want, f"zeta coefficient {i} != lattice walk")
    elif req.kind == "measure":
        level = req.args[1]
        got = jsonio.motive_frac_from_json(payload["measure_gt"])
        want = arcs.measure_series(geom).coefficient(level)
        _require(got == want, "measure_gt != measure series")


# ---------------------------------------------------------------------------
# reference fingerprints
# ---------------------------------------------------------------------------


def _ring_value(x) -> str:
    """Exact value at L = 7 of a MotiveFrac or UElement, as text."""
    if isinstance(x, UElement):
        parts = [_ring_value(x.scalar)]
        for alpha in sorted(x.gauss):
            v = x.gauss[alpha].eval_l(FINGERPRINT_L)
            if v:
                parts.append(f"{alpha}={v}")
        return ";".join(parts)
    return str(x.eval_l(FINGERPRINT_L))


def _digest(parts) -> str:
    return hashlib.sha256("|".join(parts).encode()).hexdigest()[:12]


def _spectrum_text(items) -> str:
    return ",".join(f"{e}:{int(c)}" for e, c in sorted((Fraction(e), c) for e, c in items))


def fingerprints(req: Request, result) -> dict:
    """Representation-independent summaries of a result, keyed by input.

    A Thom-Sebastiani request is summarised by its two factors, keyed by
    factor and level; the product itself is held to the direct path.
    """
    kind = req.kind
    if kind in ("ts_1d", "ts_2d"):
        left, right, i = req.args
        return {
            f"{geometry_key(g)}|{i}": _digest([_ring_value(arcs.exp_coefficient(g, i))])
            for g in (left, right)
        }
    if kind == "sweep":
        exp, sg = result
        fp = _digest([_ring_value(exp.coefficient(i)) for i in SWEEP_WINDOW] + [_ring_value(sg)])
    elif kind == "sg":
        fp = _digest([_ring_value(jsonio.uelement_from_json(result["sg"]))])
    elif kind in ("spectrum", "brieskorn"):
        fp = _spectrum_text(result["spectrum"])
    elif kind == "zeta":
        coeffs = result["coefficients"]
        fp = _digest([_ring_value(jsonio.motive_frac_from_json(c)) for _i, c in coeffs])
    elif kind == "measure":
        fp = _digest([_ring_value(jsonio.motive_frac_from_json(result["measure_gt"]))])
    elif kind == "decomposition":
        fp = [round(result.real, 12), round(result.imag, 12)]
    else:
        fp = [[round(g.real, 12), round(g.imag, 12)] for g in result]
    return {req.key: fp}


def same_fingerprint(got, want) -> bool:
    if isinstance(want, str):
        return got == want
    flat_got, flat_want = _flatten(got), _flatten(want)
    return len(flat_got) == len(flat_want) and all(
        abs(a - b) <= TOLERANCE for a, b in zip(flat_got, flat_want)
    )


def _flatten(x) -> list:
    if isinstance(x, list):
        return [v for item in x for v in _flatten(item)]
    return [x]
