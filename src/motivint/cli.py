"""Batch command-line front end; every subcommand reads and writes JSON.

Exit codes: 0 on success, 1 when a requested check fails, 2 on parse or
validation errors (with a machine-readable {"error": ...} payload).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from functools import lru_cache

from . import limits
from .arcs import (
    GeometryError,
    MonomialGeometry,
    exp_series,
    measure_gt,
    measure_series,
    ts_check,
    zeta_series,
)
from .characters import Character
from .invariants import gauss_jacobi_residue, run_selftest
from .jsonio import (
    geometry_from_json,
    geometry_to_json,
    motive_frac_to_json,
    series_to_json,
    spectrum_to_json,
    uelement_to_json,
)
from .oracles import TOLERANCE, PadicContext, check_exp_decomposition, phi_indicator_zero, phi_one
from .polyparse import PolyParseError, parse_poly
from .series import exp_t
from .spectra import brieskorn_sg, sg, sp, sp_from_sg

_BRIESKORN = re.compile(r"brieskorn\(\s*(\d+(?:\s*,\s*\d+)*)\s*\)$")


class CliError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors end like every other invalid input.

    Subparsers are built with the parent's class, so they raise too.
    """

    def error(self, message):
        raise CliError(f"{self.prog}: {message}")


def _load_json(path: str):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: bad JSON, UTF-8 or digits
        raise CliError(f"cannot read {path}: {exc}") from exc


def _load_geometry(path: str) -> MonomialGeometry:
    obj = _load_json(path)  # its CliError already names the path
    try:
        return geometry_from_json(obj)
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(f"invalid geometry in {path}: {exc}") from exc


def _emit(payload, output: str | None) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if output:
        try:
            with open(output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise CliError(f"cannot write {output}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _parse_character(text: str) -> Character:
    try:
        return Character.parse(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError(f"invalid character {text!r}: {exc}") from exc


def cmd_zeta(args) -> int:
    geom = _load_geometry(args.geometry)
    alpha = _parse_character(args.character)
    series = zeta_series(geom, alpha)
    payload = {
        "geometry": geometry_to_json(geom),
        "character": str(alpha),
        "series": series_to_json(series),
    }
    if args.window:
        lo, hi = args.window
        if lo > hi:
            raise CliError("window minimum exceeds maximum")
        limits.check_window(series, lo, hi)
        coeffs = exp_t(series, lo, hi)
        payload["coefficients"] = [
            [i, motive_frac_to_json(c)] for i, c in zip(range(lo, hi + 1), coeffs)
        ]
        if args.display == "lpow":
            payload["coefficients_pretty"] = [
                [i, repr(c)] for i, c in zip(range(lo, hi + 1), coeffs)
            ]
    _emit(payload, args.output)
    return 0


def cmd_exp_series(args) -> int:
    geom = _load_geometry(args.geometry)
    series = exp_series(geom)
    payload = {
        "geometry": geometry_to_json(geom),
        "series": series_to_json(series),
    }
    _emit(payload, args.output)
    return 0


def cmd_measure(args) -> int:
    geom = _load_geometry(args.geometry)
    payload = {"geometry": geometry_to_json(geom)}
    if args.gt is not None:
        if args.gt < 0:
            raise CliError("--gt level must be nonnegative")
        limits.check_measure_gt(geom, args.gt)
        payload["level"] = args.gt
        payload["measure_gt"] = motive_frac_to_json(measure_gt(geom, args.gt))
    else:
        payload["series"] = series_to_json(measure_series(geom))
    _emit(payload, args.output)
    return 0


def cmd_sg(args) -> int:
    geom = _load_geometry(args.geometry)
    payload = {
        "geometry": geometry_to_json(geom),
        "sg": uelement_to_json(sg(geom)),
    }
    _emit(payload, args.output)
    return 0


def cmd_spectrum(args) -> int:
    m = _BRIESKORN.match(args.geometry.strip())
    if m:
        try:
            exponents = [int(x) for x in m.group(1).split(",")]
        except ValueError as exc:  # longer than the interpreter's int-string limit
            raise CliError(f"invalid brieskorn exponent: {exc}") from exc
        if any(a < 2 for a in exponents):
            raise CliError("brieskorn exponents must be >= 2")
        limits.check_brieskorn(exponents)
        spectrum = sp_from_sg(brieskorn_sg(exponents), len(exponents))
        echo: object = f"brieskorn({','.join(str(a) for a in exponents)})"
    else:
        geom = _load_geometry(args.geometry)
        spectrum = sp(geom)  # a GeometryPointError is a GeometryError
        echo = geometry_to_json(geom)
    _emit({"geometry": echo, "spectrum": spectrum_to_json(spectrum)}, args.output)
    return 0


def cmd_thom_sebastiani(args) -> int:
    left = _load_geometry(args.left)
    right = _load_geometry(args.right)
    if args.imax < 1:
        raise CliError("--imax must be >= 1")
    limits.check_ts(left, right, args.imax)
    report = ts_check(left, right, args.imax)
    coeffs = [
        {
            "i": i,
            "product": uelement_to_json(product),
            "direct": uelement_to_json(direct),
            "equal": equal,
        }
        for i, product, direct, equal in report.rows
    ]
    payload = {
        "left": geometry_to_json(left),
        "right": geometry_to_json(right),
        "i_max": args.imax,
        "coefficients": coeffs,
        "pass": report.ok,
    }
    _emit(payload, args.output)
    return 1 if args.check and not report.ok else 0


def cmd_oracle_padic(args) -> int:
    try:
        f = parse_poly(args.poly)
    except PolyParseError as exc:
        raise CliError(f"invalid polynomial: {exc}") from exc
    if args.level < 0:
        raise CliError("--level must be nonnegative")
    precision = args.precision if args.precision is not None else args.level + 1
    m = max(f.nvars, 1)
    limits.check_enumeration(args.prime, precision, m)
    try:
        ctx = PadicContext(args.prime, precision)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    if precision < args.level + 1:
        raise CliError("--precision must be at least level + 1")
    limits.check_character_sums(ctx.p, args.level)
    phi = phi_one(ctx.p, m) if args.phi == "one" else phi_indicator_zero(ctx.p, m)
    report = check_exp_decomposition(f, ctx, phi, args.level)
    payload = {
        "poly": str(f),
        "prime": ctx.p,
        "level": args.level,
        "precision": precision,
        "phi": args.phi,
        "lhs": {"re": report.lhs.real, "im": report.lhs.imag},
        "rhs": {"re": report.rhs.real, "im": report.rhs.imag},
        "residue": report.residue,
        "pass": report.ok,
    }
    _emit(payload, args.output)
    return 0 if report.ok else 1


def cmd_oracle_gauss(args) -> int:
    p = args.prime
    limits.check_gauss_prime(p)
    try:
        ctx = PadicContext(p, 1)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    pairs, worst = gauss_jacobi_residue(ctx)
    ok = worst <= TOLERANCE
    payload = {
        "prime": p,
        "pairs_checked": pairs,
        "max_residue": worst,
        "pass": ok,
    }
    _emit(payload, args.output)
    return 0 if ok else 1


def cmd_selftest(args) -> int:
    failures = run_selftest()
    return 1 if failures else 0


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared afterwards.

    Building it costs far more than a small request (every ``add_argument``
    sets up a help formatter), and parsing leaves it unchanged.  It binds only
    the ``cmd_*`` functions, which look up the library names at call time.
    """
    parser = _Parser(
        prog="motivint",
        description="Exact motivic character integrals, exponential series and Hodge spectra "
        "for monomial normal-crossings data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(p):
        p.add_argument("--output", help="write JSON here instead of stdout")

    p = sub.add_parser("zeta", help="character zeta series of a geometry")
    p.add_argument("--geometry", required=True, help="geometry JSON file (or - for stdin)")
    p.add_argument("--character", required=True, help="character as a/d")
    p.add_argument("--window", nargs=2, type=int, metavar=("MIN", "MAX"),
                   help="also expand coefficients on this window")
    p.add_argument("--display", choices=["uv", "lpow"], default="uv")
    add_output(p)
    p.set_defaults(fn=cmd_zeta)

    p = sub.add_parser("exp-series", help="exponential series over the Gauss-sum ring")
    p.add_argument("--geometry", required=True)
    add_output(p)
    p.set_defaults(fn=cmd_exp_series)

    p = sub.add_parser("measure", help="measure series, or a single tail measure")
    p.add_argument("--geometry", required=True)
    p.add_argument("--gt", type=int, help="emit the measure of ord f > GT instead")
    add_output(p)
    p.set_defaults(fn=cmd_measure)

    p = sub.add_parser("sg", help="Gauss-twisted vanishing-cycle sum")
    p.add_argument("--geometry", required=True)
    add_output(p)
    p.set_defaults(fn=cmd_sg)

    p = sub.add_parser("spectrum", help="Hodge spectrum (geometry file or brieskorn(a,b,...))")
    p.add_argument("--geometry", required=True)
    add_output(p)
    p.set_defaults(fn=cmd_spectrum)

    p = sub.add_parser("thom-sebastiani", help="compare product and direct paths")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--imax", type=int, default=10)
    p.add_argument("--check", action="store_true", help="exit 1 on any mismatch")
    add_output(p)
    p.set_defaults(fn=cmd_thom_sebastiani)

    p = sub.add_parser("oracle", help="numeric oracles")
    osub = p.add_subparsers(dest="oracle_command", required=True)

    po = osub.add_parser("padic", help="p-adic exponential-integral decomposition check")
    po.add_argument("--poly", required=True, help="integer polynomial in x, y, z")
    po.add_argument("--prime", type=int, required=True)
    po.add_argument("--level", type=int, required=True)
    po.add_argument("--precision", type=int)
    po.add_argument("--phi", choices=["one", "indicator0"], default="one")
    add_output(po)
    po.set_defaults(fn=cmd_oracle_padic)

    pg = osub.add_parser("gauss", help="finite-field Gauss/Jacobi relation suite")
    pg.add_argument("--prime", type=int, required=True)
    add_output(pg)
    pg.set_defaults(fn=cmd_oracle_gauss)

    p = sub.add_parser("selftest", help="run the invariant suite")
    p.set_defaults(fn=cmd_selftest)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except (CliError, GeometryError, limits.WorkLimitError) as exc:
        sys.stdout.write(json.dumps({"error": str(exc)}) + "\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
