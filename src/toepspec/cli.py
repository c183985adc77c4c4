"""Command-line front end: symbol parsing, subcommand dispatch, CSV/JSON
emission.  Exit codes: 0 success, 1 usage error, 2 analysis error or an
input file that cannot be loaded or an output path that cannot be written,
3 validation failure.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import re
import sys

import numpy as np

from . import hardy, levelset, oracle, spectral
from .diagonal import FrameFamily, HardyVector, phi_map_family
from .errors import ToepspecError
from .symbol import PiecewiseSymbol, load_symbol


class UsageError(Exception):
    pass


class LoadError(Exception):
    pass


# the ways an input file can be missing or not of the documented shape
_MALFORMED = (OSError, ValueError, KeyError, TypeError, IndexError)


def _load(what: str, load, path: str):
    """load(path), with any missing or malformed file raised as a LoadError."""
    try:
        return load(path)
    except _MALFORMED as exc:
        detail = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
        raise LoadError(f"cannot load {what} {path!r}: {detail}") from None


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _fmt(x) -> str:
    return repr(float(x))


def _cnum(x) -> dict:
    z = complex(x)
    return {"re": z.real, "im": z.imag}


def _parse_number(kind, text: str, least=None):
    """kind(text); a malformed, non-finite or below-``least`` value is a usage error."""
    try:
        value = kind(text)
    except ValueError:
        raise UsageError(f"malformed {kind.__name__} value {text!r}") from None
    if not cmath.isfinite(value):
        raise UsageError(f"non-finite {kind.__name__} value {text!r}")
    if least is not None and value < least:
        raise UsageError(f"{kind.__name__} value {text!r} is below {least}")
    return value


_parse_float = functools.partial(_parse_number, float)
_parse_int = functools.partial(_parse_number, int)
_parse_count = functools.partial(_parse_number, int, least=1)


def _parse_complex(text: str) -> complex:
    # only a standalone imaginary unit becomes j: 'inf' keeps its i
    return _parse_number(complex, re.sub(r"(?<![A-Za-z])i(?![A-Za-z])", "j", text.strip()))


def _parse_interval(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError("interval must be 'a,b'")
    return _parse_float(parts[0]), _parse_float(parts[1])


def _parse_points(text: str) -> list[complex]:
    """Comma-separated points of the open unit disk."""
    points = []
    for t in text.split(","):
        points.append(_parse_complex(t))
        if abs(points[-1]) >= 1.0:
            raise UsageError(f"point {t.strip()!r} does not lie inside the unit disk")
    return points


def _parse_sizes(text: str) -> list[int]:
    return [_parse_number(int, t, least=2) for t in text.split(",")]


def _parse_zgrid(text: str) -> tuple[float, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError("zgrid must be 'radius,count'")
    r, count = _parse_float(parts[0]), _parse_count(parts[1])
    if not 0.0 < r < 1.0:
        raise UsageError("zgrid radius must lie in (0, 1)")
    return r, count


def _emit(text: str, path: str | None):
    if path:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write {path!r}: {exc.strerror}") from None
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


@functools.cache
def _build_parser() -> _Parser:
    """The one parser of this process, built on the first ``run``.  Every
    option's value is parsed here (``type=``), so a usage error is raised
    before the symbol is loaded and before any analysis."""
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
    s.add_argument("--lambda", dest="lam", type=_parse_float, required=True)

    s = add("multiplicity", "crossing counts and multiplicity on an interval")
    s.add_argument("--interval", type=_parse_interval, required=True, help="a,b")

    s = add("xi", "outer-modulus function at a point")
    s.add_argument("--z", type=_parse_complex, required=True, help="complex point, e.g. 0.3+0.2i")
    s.add_argument("--lambda", dest="lam", type=_parse_float, required=True)

    s = add("phase", "phase function at a point")
    s.add_argument("--z", type=_parse_complex, required=True)
    s.add_argument("--lambda", dest="lam", type=_parse_float, required=True)

    s = add("density", "spectral density kernel on a lambda grid")
    s.epilog = ("CSV columns: lambda, then d_{i}_{k}_re and d_{i}_{k}_im for every "
                "ordered pair (point i, point k); one row per grid level.")
    s.add_argument("--interval", type=_parse_interval, required=True)
    s.add_argument("--grid", type=_parse_count, default=64)
    s.add_argument("--points", type=_parse_points, required=True,
                   help="comma-separated disk points")

    s = add("eigenfun", "generalized eigenfunction on a z grid")
    s.epilog = "CSV columns: re_z, im_z, re_phi, im_phi; one row per grid point."
    s.add_argument("--lambda", dest="lam", type=_parse_float, required=True)
    s.add_argument("--branch", type=_parse_int, default=1)
    s.add_argument("--zgrid", type=_parse_zgrid, default="0.5,64",
                   help="radius,count of a circle grid")

    s = add("diagonalize", "diagonalizing-map components on a lambda grid")
    s.epilog = ("CSV columns: lambda, then phi_{j}_re and phi_{j}_im for each of "
                "the m branches; one row per Gauss-Legendre node.")
    s.add_argument("--interval", type=_parse_interval, required=True)
    s.add_argument("--vector", required=True, help="JSON file listing kernel terms")
    s.add_argument("--grid", type=_parse_count, default=64)

    s = add("validate", "finite-section comparison against the analytic measure")
    s.epilog = ("--csv table columns: N, then err_{i}_{k} (absolute weak-measure "
                "error) for every ordered point pair; one row per section size.")
    s.add_argument("--interval", type=_parse_interval, required=True)
    s.add_argument("--n", type=_parse_sizes, default="512,1024,2048,4096", help="section sizes")
    s.add_argument("--points", type=_parse_points, default="0",
                   help="comma-separated disk points")
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
    rep = levelset.counting_report(sym, args.interval)
    _emit_json(
        {"n_plus": rep.n_plus, "n_minus": rep.n_minus,
         "s_plus": rep.s_plus, "s_minus": rep.s_minus, "m": rep.m},
        args.output,
    )
    return 0


def _cmd_xi(sym, args) -> int:
    value = hardy.xi(sym, args.z, args.lam)
    factors = hardy._level_factors(sym, args.lam)
    _emit_json(
        {"value": _cnum(value), "achieved_tol": factors.achieved_tol,
         "roots": factors.roots, "lambda": args.lam},
        args.output,
    )
    return 0


def _cmd_phase(sym, args) -> int:
    frame = spectral.spectral_frame(sym, args.lam)
    arcs = frame.level.arcs
    out = {
        "lambda": args.lam,
        "measure": frame.level.measure,
        "integral": _cnum(hardy.phase_A_integral(arcs, args.z)),
    }
    if abs(args.z) < 1.0:
        out["closed"] = _cnum(hardy.phase_A_closed(arcs, args.z))
    _emit_json(out, args.output)
    return 0


def _cmd_density(sym, args) -> int:
    a, b = args.interval
    levelset.counting_report(sym, (a, b))
    pts = np.array(args.points)
    lams = [a + (k + 0.5) * (b - a) / args.grid for k in range(args.grid)]
    frame = spectral.spectral_frame(sym, np.array(lams))
    values = [row.ravel() for _, part in frame._parts(frame.m * (len(pts) + 2) * len(pts))
              for row in part.density(pts[:, None], pts[None, :])]
    names = [f"d_{i}_{k}" for i in range(len(pts)) for k in range(len(pts))]
    _emit_complex_csv(names, lams, values, args.output)
    return 0


def _cmd_eigenfun(sym, args) -> int:
    frame = spectral.spectral_frame(sym, args.lam)
    r, count = args.zgrid
    zs = hardy._circle_grid(r, count)
    frame._check_branch(args.branch)
    vals = frame.eigen_matrix(zs)[args.branch - 1]
    rows = [[z.real, z.imag, v.real, v.imag] for z, v in zip(zs, vals)]
    _emit_csv(["re_z", "im_z", "re_phi", "im_phi"], rows, args.output)
    return 0


def _read_terms(path: str) -> list[tuple[complex, complex]]:
    with open(path, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    return [(complex(t["c"][0], t["c"][1]), complex(t["z"][0], t["z"][1]))
            for t in spec["terms"]]


def _cmd_diagonalize(sym, args) -> int:
    f = HardyVector.of(*_load("vector", _read_terms, args.vector))
    family = FrameFamily(sym, args.interval, n_grid=args.grid)
    names = [f"phi_{j + 1}" for j in range(family.m)]
    _emit_complex_csv(names, family.lams, phi_map_family(family, f), args.output)
    return 0


def _cmd_validate(sym, args) -> int:
    a, b = args.interval
    points = args.points
    g = oracle.smooth_bump(a, b)
    if args.csv:
        _emit("", args.csv)  # an unwritable path fails before the eigensolves
    report = oracle.validate(sym, (a, b), g, points, args.n)
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
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 1
    try:
        return _COMMANDS[args.command](_load("symbol", load_symbol, args.symbol), args)
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 1
    except LoadError as exc:
        sys.stderr.write(f"{exc}\n")
        return 2
    except (ToepspecError, ValueError, ZeroDivisionError) as exc:
        sys.stderr.write(f"analysis error: {exc}\n")
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
