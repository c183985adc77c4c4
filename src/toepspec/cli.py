"""Command-line front end: symbol parsing, subcommand dispatch, CSV/JSON
emission.  Exit codes: 0 success, 1 usage error, 2 analysis error, 3
validation failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import hardy, levelset, oracle, spectral
from .diagonal import FrameFamily, HardyVector, phi_map_family
from .errors import ToepspecError
from .symbol import PiecewiseSymbol, load_symbol


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _fmt(x) -> str:
    return repr(float(x))


def _cnum(x) -> dict:
    z = complex(x)
    return {"re": z.real, "im": z.imag}


def _parse_number(kind, text: str):
    """kind(text), with a malformed value reported as a usage error."""
    try:
        return kind(text)
    except ValueError:
        raise UsageError(f"malformed {kind.__name__} value {text!r}") from None


def _parse_complex(text: str) -> complex:
    return _parse_number(complex, text.strip().replace("i", "j"))


def _parse_interval(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError("interval must be 'a,b'")
    return _parse_number(float, parts[0]), _parse_number(float, parts[1])


def _emit(text: str, path: str | None):
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(obj, path: str | None):
    _emit(json.dumps(obj, indent=2) + "\n", path)


def _emit_csv(header, rows, path: str | None):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(x) for x in row))
    _emit("\n".join(lines) + "\n", path)


def _emit_complex_csv(names, lams, values, path: str | None):
    """One row per level: lambda, then the real and imaginary parts of
    each named complex column."""
    header = ["lambda"] + [f"{name}_{part}" for name in names for part in ("re", "im")]
    rows = [[lam] + [x for v in row for x in (v.real, v.imag)] for lam, row in zip(lams, values)]
    _emit_csv(header, rows, path)


def _build_parser() -> _Parser:
    p = _Parser(prog="toepspec", description="Spectral data of self-adjoint Toeplitz operators")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        s = sub.add_parser(name, help=help_text)
        s.add_argument("--symbol", required=True,
                       help="built-in name ('regular', 'singular:t1:t2') or JSON file path")
        s.add_argument("--output", default=None, help="output file (default: stdout)")
        return s

    add("spectrum", "essential range, exceptional values, admissible intervals")

    s = add("levelset", "sublevel-set arcs at one level")
    s.add_argument("--lambda", dest="lam", type=float, required=True)

    s = add("multiplicity", "crossing counts and multiplicity on an interval")
    s.add_argument("--interval", required=True, help="a,b")

    s = add("xi", "outer-modulus function at a point")
    s.add_argument("--z", required=True, help="complex point, e.g. 0.3+0.2i")
    s.add_argument("--lambda", dest="lam", type=float, required=True)

    s = add("phase", "phase function at a point")
    s.add_argument("--z", required=True)
    s.add_argument("--lambda", dest="lam", type=float, required=True)

    s = add("density", "spectral density kernel on a lambda grid")
    s.epilog = ("CSV columns: lambda, then d_{i}_{k}_re and d_{i}_{k}_im for every "
                "ordered pair (point i, point k); one row per grid level.")
    s.add_argument("--interval", required=True)
    s.add_argument("--grid", type=int, default=64)
    s.add_argument("--points", required=True, help="comma-separated disk points")

    s = add("eigenfun", "generalized eigenfunction on a z grid")
    s.epilog = "CSV columns: re_z, im_z, re_phi, im_phi; one row per grid point."
    s.add_argument("--lambda", dest="lam", type=float, required=True)
    s.add_argument("--branch", type=int, default=1)
    s.add_argument("--zgrid", default="0.5,64", help="radius,count of a circle grid")

    s = add("diagonalize", "diagonalizing-map components on a lambda grid")
    s.epilog = ("CSV columns: lambda, then phi_{j}_re and phi_{j}_im for each of "
                "the m branches; one row per Gauss-Legendre node.")
    s.add_argument("--interval", required=True)
    s.add_argument("--vector", required=True, help="JSON file listing kernel terms")
    s.add_argument("--grid", type=int, default=64)

    s = add("validate", "finite-section comparison against the analytic measure")
    s.epilog = ("--csv table columns: N, then err_{i}_{k} (absolute weak-measure "
                "error) for every ordered point pair; one row per section size.")
    s.add_argument("--interval", required=True)
    s.add_argument("--n", default="512,1024,2048,4096", help="section sizes")
    s.add_argument("--points", default="0", help="comma-separated disk points")
    s.add_argument("--csv", default=None, help="also write the error table here")
    return p


def _cmd_spectrum(sym: PiecewiseSymbol, args) -> int:
    g1, g2 = sym.essential_range()
    exc = levelset.exceptional_set(sym)
    _emit_json(
        {
            "gamma1": g1,
            "gamma2": g2,
            "thresholds": list(exc.thresholds),
            "critical": list(exc.critical),
            "admissible_intervals": [list(iv) for iv in levelset.admissible_intervals(sym)],
        },
        args.output,
    )
    return 0


def _cmd_levelset(sym, args) -> int:
    ls = levelset.sublevel_set(sym, args.lam)
    _emit_json(
        {
            "lambda": args.lam,
            "full_circle": ls.full,
            "arcs": [
                {"alpha": a.alpha, "beta": a.beta,
                 "alpha_kind": a.alpha_kind, "beta_kind": a.beta_kind}
                for a in ls.arcs
            ],
            "measure": ls.measure,
        },
        args.output,
    )
    return 0


def _cmd_multiplicity(sym, args) -> int:
    rep = levelset.counting_report(sym, _parse_interval(args.interval))
    _emit_json(
        {"n_plus": rep.n_plus, "n_minus": rep.n_minus,
         "s_plus": rep.s_plus, "s_minus": rep.s_minus, "m": rep.m},
        args.output,
    )
    return 0


def _cmd_xi(sym, args) -> int:
    z = _parse_complex(args.z)
    lr = hardy.point_rule(sym, z, args.lam)
    value = hardy.xi(sym, z, args.lam)
    _emit_json(
        {"value": _cnum(value), "achieved_tol": lr.achieved_tol,
         "panels": lr.rule.panels, "lambda": args.lam},
        args.output,
    )
    return 0


def _cmd_phase(sym, args) -> int:
    z = _parse_complex(args.z)
    frame = spectral.spectral_frame(sym, args.lam)
    arcs = frame.level.arcs
    out = {
        "lambda": args.lam,
        "measure": frame.arcdata.measure,
        "integral": _cnum(hardy.phase_A_integral(arcs, z)),
    }
    if abs(z) < 1.0:
        out["closed"] = _cnum(hardy.phase_A_closed(arcs, z))
    _emit_json(out, args.output)
    return 0


def _cmd_density(sym, args) -> int:
    a, b = _parse_interval(args.interval)
    levelset.counting_report(sym, (a, b))
    pts = np.array([_parse_complex(t) for t in args.points.split(",")])
    lams = [a + (k + 0.5) * (b - a) / args.grid for k in range(args.grid)]
    values = [spectral.spectral_frame(sym, lam).density(pts[:, None], pts[None, :]).ravel()
              for lam in lams]
    names = [f"d_{i}_{k}" for i in range(len(pts)) for k in range(len(pts))]
    _emit_complex_csv(names, lams, values, args.output)
    return 0


def _cmd_eigenfun(sym, args) -> int:
    frame = spectral.spectral_frame(sym, args.lam)
    parts = args.zgrid.split(",")
    if len(parts) != 2:
        raise UsageError("zgrid must be 'radius,count'")
    r, count = _parse_number(float, parts[0]), _parse_number(int, parts[1])
    if not 0.0 < r < 1.0:
        raise UsageError("zgrid radius must lie in (0, 1)")
    zs = r * np.exp(2j * math.pi * np.arange(count) / count)
    if not 1 <= args.branch <= frame.m:
        raise ValueError(f"branch index {args.branch} outside 1..{frame.m}")
    vals = frame.eigen_matrix(zs)[args.branch - 1]
    rows = [[z.real, z.imag, v.real, v.imag] for z, v in zip(zs, vals)]
    _emit_csv(["re_z", "im_z", "re_phi", "im_phi"], rows, args.output)
    return 0


def _cmd_diagonalize(sym, args) -> int:
    with open(args.vector, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    terms = [(complex(t["c"][0], t["c"][1]), complex(t["z"][0], t["z"][1]))
             for t in spec["terms"]]
    f = HardyVector.of(*terms)
    family = FrameFamily(sym, _parse_interval(args.interval), n_grid=args.grid)
    names = [f"phi_{j + 1}" for j in range(family.m)]
    _emit_complex_csv(names, family.lams, phi_map_family(family, f), args.output)
    return 0


def _cmd_validate(sym, args) -> int:
    a, b = _parse_interval(args.interval)
    sizes = [_parse_number(int, t) for t in args.n.split(",")]
    points = [_parse_complex(t) for t in args.points.split(",")]
    g = oracle.smooth_bump(a, b)
    report = oracle.validate(sym, (a, b), g, points, sizes)
    if args.csv:
        header = ["N"] + [f"err_{i}_{k}" for i in range(len(points)) for k in range(len(points))]
        rows = [[n] + list(report.errors[row]) for row, n in enumerate(report.sizes)]
        _emit_csv(header, rows, args.csv)
    passed = report.passed()
    _emit_json(
        {
            "pass": passed,
            "monotone": report.monotone,
            "max_final_error": report.max_final_error,
            "sizes": list(report.sizes),
            "errors": [list(map(float, row)) for row in report.errors],
        },
        args.output,
    )
    return 0 if passed else 3


_COMMANDS = {
    "spectrum": _cmd_spectrum,
    "levelset": _cmd_levelset,
    "multiplicity": _cmd_multiplicity,
    "xi": _cmd_xi,
    "phase": _cmd_phase,
    "density": _cmd_density,
    "eigenfun": _cmd_eigenfun,
    "diagonalize": _cmd_diagonalize,
    "validate": _cmd_validate,
}


def run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        sym = load_symbol(args.symbol)
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 1
    except (OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"cannot load symbol: {exc}\n")
        return 2
    try:
        return _COMMANDS[args.command](sym, args)
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 1
    except (ToepspecError, ValueError, ZeroDivisionError) as exc:
        sys.stderr.write(f"analysis error: {exc}\n")
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
