"""The three workloads: seeded inputs, the timed library calls of each job,
and the reference check of each job's results.

A workload's job list is a fixed sequence of rounds; every round has the
same mix of job kinds, and the seed only draws the parameters (intervals,
points, vectors, levels).  So the cost of a pass does not depend on the
seed, and a run can repeat the list whole.

Library functions are looked up on their modules at call time, never bound
at import, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from dataclasses import dataclass

import numpy as np

import toepspec as ts
import toepspec.cli  # noqa: F401  (not imported by the package itself)
from toepspec.symbol import PiecewiseSymbol, TrigPoly

import reference as ref

TWO_PI = 2.0 * math.pi
SECTION_SIZES = (512, 1024, 2048)
RULE_CACHE_CLEAR = 256   # hardy's rule cache empties itself past this many entries


class Failed(Exception):
    """The operation failed: an error exit or a non-finite result."""


class NonFinite(Failed):
    """A result holds NaN or inf."""


class Mismatch(Exception):
    """A finite result disagrees with its reference."""


@dataclass
class Job:
    kind: str
    args: dict


def expect(what: str, got, want, tol: float):
    """Relative-to-max(1, |want|) agreement, elementwise."""
    got = np.asarray(got, dtype=complex)
    want = np.asarray(want, dtype=complex)
    if not np.all(np.isfinite(got)):
        raise NonFinite(f"{what}: non-finite result")
    err = float(np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))))
    if not err <= tol:
        raise Mismatch(f"{what}: error {err:.3e} above {tol:.0e}")


def _disk_point(rng, r_lo, r_hi) -> complex:
    return complex(rng.uniform(r_lo, r_hi) * np.exp(1j * rng.uniform(0.0, TWO_PI)))


def _subinterval(rng, lo, hi, min_width=0.3) -> tuple[float, float]:
    a = float(rng.uniform(lo, hi - min_width))
    b = float(rng.uniform(a + min_width, hi))
    return a, b


def _gram(cs, zs, density):
    """sum_{a,b} c_a conj(c_b) D(z_a, z_b): |Phi f|^2 summed over branches."""
    return sum(ca * np.conj(cb) * density(za, zb)
               for ca, za in zip(cs, zs) for cb, zb in zip(cs, zs))


# -- sweep: lambda-sweeps over one admissible interval ---------------------------------

FIG2_PIECES = (
    (0.0, math.pi, (0.0, 0.0, -1.0)),
    (math.pi, 1.5 * math.pi, (1.0,)),
    (1.5 * math.pi, TWO_PI, (-1.0,)),
)


def build_symbol(kind: str) -> PiecewiseSymbol:
    if kind == "regular":
        return ts.preset_regular()
    if kind == "singular":
        return ts.preset_singular(0.0, math.pi)
    if kind == "cos2":
        return PiecewiseSymbol([(0.0, TWO_PI, TrigPoly([0.0, 0.0, 1.0]))], name="cos2")
    if kind == "fig2":
        return PiecewiseSymbol([(a, b, TrigPoly(list(c))) for a, b, c in FIG2_PIECES],
                               name="fig2")
    raise ValueError(kind)


# (symbol, multiplicity, level range kept 0.05 inside the spectrum)
SWEEP_SYMBOLS = {
    "regular": (1, (-0.95, 0.95)),
    "singular": (1, (0.05, 0.95)),
    "cos2": (2, (-0.95, 0.95)),
    "fig2": (2, (-0.95, 0.95)),
}
# One round: every symbol once.  One job in four has a lambda grid larger
# than the rule cache, so a cache change shows on a known share of jobs.
SWEEP_ROUND = (("regular", 300), ("singular", 128), ("cos2", 64), ("fig2", 128))
SWEEP_ROUNDS = 2
# Stone's extrapolated resolvent jump has an O(eps^3) error that grows
# toward the band edges: up to 4e-4 relative at lam = 0.95
STONE_TOL = 2e-3
BOUNDARY_SAMPLES = 512


def _closed_density(kind):
    if kind == "regular":
        return ref.regular_density
    if kind == "singular":
        return lambda u, v, lam: ref.singular_density(u, v, lam, 0.0, math.pi)
    if kind == "cos2":
        return ref.cos2_density
    return None


def _closed_phi(kind):
    if kind == "regular":
        return ref.regular_phi
    if kind == "singular":
        return lambda z, lam: ref.singular_phi(z, lam, 0.0, math.pi)
    return None


class Sweep:
    name = "sweep"

    def make_jobs(self, rng) -> list[Job]:
        jobs = []
        for kind, n_grid in SWEEP_ROUND * SWEEP_ROUNDS:
            _, (lo, hi) = SWEEP_SYMBOLS[kind]
            vectors = [ts.HardyVector.of(*[(complex(*rng.normal(size=2)), _disk_point(rng, 0.05, 0.8))
                                           for _ in range(3)])
                       for _ in range(3)]
            zeta = np.exp(2j * math.pi * np.arange(BOUNDARY_SAMPLES) / BOUNDARY_SAMPLES)
            boundary = np.array([vectors[0](z) for z in zeta])
            jobs.append(Job(f"{kind}/n{n_grid}", {
                "symbol": kind, "n_grid": n_grid,
                "interval": _subinterval(rng, lo, hi),
                "vectors": vectors,
                "u": _disk_point(rng, 0.0, 0.7), "v": _disk_point(rng, 0.0, 0.7),
                "r": float(rng.uniform(0.9, 0.99)),
                "boundary": boundary,
                "node": int(rng.integers(n_grid // 4, 3 * n_grid // 4)),
            }))
        return jobs

    def warmup(self):
        fam = ts.diagonal.FrameFamily(ts.preset_regular(), (-0.3, 0.3), n_grid=8)
        ts.diagonal.phi_map_family(fam, ts.HardyVector.of((1.0, 0.3)))

    def run(self, job: Job):
        a = job.args
        sym = build_symbol(a["symbol"])
        fam = ts.diagonal.FrameFamily(sym, a["interval"], n_grid=a["n_grid"])
        phis = [ts.diagonal.phi_map_family(fam, f) for f in a["vectors"]]
        g = ts.oracle.smooth_bump(*a["interval"])
        wm = ts.spectral.weak_measure(sym, a["interval"], a["u"], a["v"], g)
        pr = ts.diagonal.phi_r(fam, a["boundary"], a["r"])
        stone = ts.spectral.stone_density(sym, a["u"], a["v"], fam.lams[a["node"]])
        return {"family": fam, "phis": phis, "weak": wm, "phi_r": pr, "stone": stone}

    def check(self, job: Job, out):
        a = job.args
        kind = a["symbol"]
        fam = out["family"]
        m, _ = SWEEP_SYMBOLS[kind]
        if fam.m != m:
            raise Mismatch(f"multiplicity {fam.m}, expected {m}")
        lams = fam.lams
        lo, hi = a["interval"]
        u, v, r = a["u"], a["v"], a["r"]
        density = _closed_density(kind)
        phi = _closed_phi(kind)
        # fig2 has no closed form: its checks use the library's panel-rule
        # density, itself tied to the resolvent by the Stone check below
        sample = np.unique(np.linspace(0, len(lams) - 1, 8).astype(int))

        def frame_density(k):
            return lambda x, y: fam.frames[k].density(x, y)

        for i, (f, F) in enumerate(zip(a["vectors"], out["phis"])):
            cs = [c for c, _ in f.terms]
            zs = [z for _, z in f.terms]
            if phi is not None:
                want = sum(c * np.conj(phi(z, lams)) for c, z in zip(cs, zs))
                expect(f"phi_map_family[{i}]", F[:, 0], want, 1e-8)
            elif density is not None:
                want = _gram(cs, zs, lambda x, y: density(x, y, lams))
                expect(f"phi_map_family[{i}] gram", np.sum(np.abs(F) ** 2, axis=1), want, 1e-8)
            else:
                want = [_gram(cs, zs, frame_density(k)) for k in sample]
                expect(f"phi_map_family[{i}] gram", np.sum(np.abs(F[sample]) ** 2, axis=1), want, 1e-8)

        if density is not None:
            want = ref.weak_measure(lambda lam: density(u, v, lam), lo, hi)
        else:
            want = sum(w * ref.bump(lam, lo, hi) * fam.frames[k].density(u, v)
                       for k, (w, lam) in enumerate(zip(fam.weights, lams)))
        expect("weak_measure", out["weak"], want, 1e-7)

        f = a["vectors"][0]
        cs = [c for c, _ in f.terms]
        zs = [r * z for _, z in f.terms]
        pr = out["phi_r"]
        if phi is not None:
            want = sum(c * np.conj(phi(z, lams)) for c, z in zip(cs, zs))
            expect("phi_r", pr[:, 0], want, 1e-6)
        elif density is not None:
            want = _gram(cs, zs, lambda x, y: density(x, y, lams))
            expect("phi_r gram", np.sum(np.abs(pr) ** 2, axis=1), want, 1e-6)
        else:
            fr = ts.HardyVector.of(*zip(cs, zs))
            want = np.array([ts.diagonal.phi_map(fam.frames[k], fr) for k in sample])
            expect("phi_r", pr[sample], want, 1e-6)

        lam = lams[a["node"]]
        want = density(u, v, lam) if density is not None else fam.frames[a["node"]].density(u, v)
        expect("stone_density", out["stone"], want, STONE_TOL)


# -- oracle: finite-section validation ----------------------------------------------------

ORACLE_ROUND = (
    ("regular", "regular", (-0.9, 0.9)),                          # real symmetric sections
    ("singular", f"singular:0:{math.pi!r}", (0.05, 0.95)),       # complex Hermitian sections
)
ENVELOPE_FLOOR = 1e-9
SMOOTH_FINAL_ERROR = 1e-8
JUMP_FINAL_SHARE = 0.1


class Oracle:
    name = "oracle"

    def make_jobs(self, rng) -> list[Job]:
        return [Job(kind, {"symbol": name, "interval": _subinterval(rng, lo, hi),
                           "points": [_disk_point(rng, 0.05, 0.6) for _ in range(2)]})
                for kind, name, (lo, hi) in ORACLE_ROUND]

    def warmup(self):
        ts.oracle.validate(ts.preset_regular(), (-0.3, 0.3), ts.oracle.smooth_bump(-0.3, 0.3),
                           [0.2], (32, 64))

    def run(self, job: Job):
        a = job.args
        sym = ts.named_symbol(a["symbol"])
        g = ts.oracle.smooth_bump(*a["interval"])
        return ts.oracle.validate(sym, a["interval"], g, a["points"], SECTION_SIZES)

    def check(self, job: Job, report):
        a = job.args
        lo, hi = a["interval"]
        if job.kind == "regular":
            density = ref.regular_density
        else:
            def density(x, y, lam):
                return ref.singular_density(x, y, lam, 0.0, math.pi)
        want = [ref.weak_measure(lambda lam: density(x, y, lam), lo, hi) for x, y in report.pairs]
        expect("validate analytic", report.analytic, want, 1e-7)
        flags = {"validate_passed": report.passed(), "validate_monotone": report.monotone}
        e = np.asarray(report.errors, dtype=float)
        if e.shape != (len(SECTION_SIZES), len(report.pairs)) or not np.all(np.isfinite(e)):
            raise NonFinite("validate error table is not finite")
        if job.kind == "regular":
            # smooth symbol: sections converge geometrically to the noise floor
            if np.any(e[-1] > e[0] + ENVELOPE_FLOOR) or e[-1].max() > SMOOTH_FINAL_ERROR:
                raise Mismatch(f"regular section errors {e[0].max():.3e} -> {e[-1].max():.3e}")
            return flags
        # jump symbol: section errors oscillate at the 1e-2 level through
        # N = 4096 on off-centre bumps, so neither passed() nor a monotone
        # envelope holds; the check is a gross-error bound, a share of the
        # Cauchy-Schwarz bound ||K_u|| ||K_v|| on the weak measure
        scale = np.array([1.0 / math.sqrt((1.0 - abs(x) ** 2) * (1.0 - abs(y) ** 2))
                          for x, y in report.pairs])
        if np.any(e[-1] > JUMP_FINAL_SHARE * scale):
            raise Mismatch(f"singular section error {e[-1].max():.3e} above "
                           f"{JUMP_FINAL_SHARE} of the kernel-norm bound")
        return flags


# -- point-queries: cold one-level queries, as one CLI process per query ---------------------

CLI_KINDS = ("spectrum", "levelset", "multiplicity", "phase", "xi", "xi-near", "density",
             "eigenfun")
LIB_KINDS = ("resolvent", "resolvent", "boundary_xi", "boundary_xi")
PQ_ROUNDS = 84    # 84 rounds x 24 queries = 2016 queries
EIGENFUN_POINTS = 32
DENSITY_GRID = 8


def _zarg(z: complex) -> str:
    return f"{z.real!r}{z.imag:+.17g}i"


def _family_args(rng, family):
    if family == "regular":
        return {"name": "regular", "range": (-1.0, 1.0), "lam": float(rng.uniform(-0.95, 0.95)),
                "interval": _subinterval(rng, -0.95, 0.95)}
    t1 = float(rng.uniform(0.0, TWO_PI))
    t2 = float((t1 + rng.uniform(0.5, TWO_PI - 0.5)) % TWO_PI)
    return {"name": f"singular:{t1!r}:{t2!r}", "t1": t1, "t2": t2, "range": (0.0, 1.0),
            "lam": float(rng.uniform(0.05, 0.95)), "interval": _subinterval(rng, 0.05, 0.95)}


def _on_arc(theta, t1, t2) -> bool:
    return 0.0 < (theta - t1) % TWO_PI < (t2 - t1) % TWO_PI


def _circle_gap(x, y) -> float:
    d = abs(x - y) % TWO_PI
    return min(d, TWO_PI - d)


class PointQueries:
    name = "point-queries"

    def make_jobs(self, rng) -> list[Job]:
        jobs = []
        for _ in range(PQ_ROUNDS):
            batch = []
            for kind in CLI_KINDS + LIB_KINDS:
                for family in ("regular", "singular"):
                    batch.append(Job(f"{kind}/{family}", self._args(rng, kind, family)))
            jobs.extend(batch[i] for i in rng.permutation(len(batch)))
        return jobs

    def _args(self, rng, kind, family) -> dict:
        a = _family_args(rng, family)
        a["query"] = kind
        name, lam = a["name"], a["lam"]
        lo, hi = a["interval"]
        if kind == "spectrum":
            a["argv"] = ["spectrum", "--symbol", name]
        elif kind == "levelset":
            a["argv"] = ["levelset", "--symbol", name, f"--lambda={lam!r}"]
        elif kind == "multiplicity":
            a["argv"] = ["multiplicity", "--symbol", name, f"--interval={lo!r},{hi!r}"]
        elif kind in ("phase", "xi", "xi-near"):
            r_lo, r_hi = (0.92, 0.99) if kind == "xi-near" else (0.0, 0.9)
            a["z"] = _disk_point(rng, r_lo, r_hi)
            a["argv"] = [kind.split("-")[0], "--symbol", name, f"--z={_zarg(a['z'])}",
                         f"--lambda={lam!r}"]
        elif kind == "density":
            a["points"] = [_disk_point(rng, 0.0, 0.8) for _ in range(2)]
            a["argv"] = ["density", "--symbol", name, f"--interval={lo!r},{hi!r}",
                         "--grid", str(DENSITY_GRID),
                         "--points=" + ",".join(_zarg(p) for p in a["points"])]
        elif kind == "eigenfun":
            a["r"] = float(rng.uniform(0.1, 0.9))
            a["argv"] = ["eigenfun", "--symbol", name, f"--lambda={lam!r}", "--branch", "1",
                         f"--zgrid={a['r']!r},{EIGENFUN_POINTS}"]
        elif kind == "resolvent":
            g1, g2 = a["range"]
            a["u"], a["v"] = _disk_point(rng, 0.0, 0.7), _disk_point(rng, 0.0, 0.7)
            a["w"] = complex(rng.uniform(g1 - 0.5, g2 + 0.5),
                             rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 0.5))
        elif kind == "boundary_xi":
            theta = float(rng.uniform(0.0, TWO_PI))
            if family == "singular":
                # jump angles are outside the function's domain; resample
                # only there, never near level crossings
                while min(_circle_gap(theta, a["t1"]), _circle_gap(theta, a["t2"])) < 1e-6:
                    theta = float(rng.uniform(0.0, TWO_PI))
            a["theta"] = theta
            a["side"] = "+" if rng.uniform() < 0.5 else "-"
        return a

    def warmup(self):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            ts.cli.run(["spectrum", "--symbol", "regular"])

    def run(self, job: Job):
        a = job.args
        if "argv" in a:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = ts.cli.run(a["argv"])
            return code, out.getvalue(), err.getvalue()
        sym = ts.named_symbol(a["name"])
        if a["query"] == "resolvent":
            return ts.spectral.resolvent_form(sym, a["u"], a["v"], a["w"])
        return ts.hardy.boundary_xi(sym, a["theta"], a["lam"], a["side"])

    def check(self, job: Job, out):
        a = job.args
        q = a["query"]
        regular = a["name"] == "regular"
        t1, t2 = a.get("t1"), a.get("t2")
        lam = a["lam"]
        if "argv" in a:
            code, text, err = out
            if code != 0:
                raise Failed(f"exit code {code}: {err.strip()[:120]}")
            getattr(self, "_check_" + q.split("-")[0])(a, text)
            return
        if q == "resolvent":
            want = (ref.regular_resolvent(a["u"], a["v"], a["w"]) if regular
                    else ref.singular_resolvent(a["u"], a["v"], a["w"], t1, t2))
            expect("resolvent_form", out, want, 1e-8)
            return
        theta = a["theta"]
        zeta = np.exp(1j * theta)
        if regular:
            inside, omega = ref.regular_xi(zeta, lam), math.cos(theta)
        else:
            inside = ref.singular_xi(zeta, lam, t1, t2)
            omega = 1.0 if _on_arc(theta, t1, t2) else 0.0
        want = inside if a["side"] == "+" else inside * abs(omega - lam)
        expect("boundary_xi", out, want, 1e-7)

    # CLI output checks; each parses what the subcommand printed

    def _check_spectrum(self, a, text):
        d = json.loads(text)
        g1, g2 = a["range"]
        expect("spectrum range", [d["gamma1"], d["gamma2"]], [g1, g2], 1e-12)
        expect("admissible intervals", np.ravel(d["admissible_intervals"]), [g1, g2], 1e-12)

    def _arc(self, a):
        if a["name"] == "regular":
            return ref.regular_arc(a["lam"])
        return ref.singular_arc(a["t1"], a["t2"])

    def _check_levelset(self, a, text):
        d = json.loads(text)
        alpha, beta = self._arc(a)
        if len(d["arcs"]) != 1:
            raise Mismatch(f"levelset: {len(d['arcs'])} arcs, expected 1")
        arc = d["arcs"][0]
        got_len = arc["beta"] - arc["alpha"]
        expect("levelset alpha", _circle_gap(arc["alpha"], alpha), 0.0, 1e-9)
        expect("levelset length", got_len, beta - alpha, 1e-9)
        expect("levelset measure", d["measure"], (beta - alpha) / TWO_PI, 1e-9)

    def _check_multiplicity(self, a, text):
        d = json.loads(text)
        if not d["m"] == 1 == d["n_plus"] + d["s_plus"] == d["n_minus"] + d["s_minus"]:
            raise Mismatch(f"multiplicity report {d}, expected m = 1")

    def _check_phase(self, a, text):
        d = json.loads(text)
        alpha, beta = self._arc(a)
        want = ref.arc_phase(a["z"], alpha, beta)
        got = [complex(d[k]["re"], d[k]["im"]) for k in ("closed", "integral")]
        expect("phase", got, [want, want], 1e-9)

    def _check_xi(self, a, text):
        d = json.loads(text)
        z, lam = a["z"], a["lam"]
        want = (ref.regular_xi(z, lam) if a["name"] == "regular"
                else ref.singular_xi(z, lam, a["t1"], a["t2"]))
        expect("xi", complex(d["value"]["re"], d["value"]["im"]), want, 1e-8)

    def _check_density(self, a, text):
        rows = np.array([[float(x) for x in row] for row in list(csv.reader(io.StringIO(text)))[1:]])
        lo, hi = a["interval"]
        lams = lo + (np.arange(DENSITY_GRID) + 0.5) * (hi - lo) / DENSITY_GRID
        expect("density grid", rows[:, 0], lams, 1e-12)
        col = 1
        for x in a["points"]:
            for y in a["points"]:
                if a["name"] == "regular":
                    want = ref.regular_density(x, y, lams)
                else:
                    want = ref.singular_density(x, y, lams, a["t1"], a["t2"])
                expect("density", rows[:, col] + 1j * rows[:, col + 1], want, 1e-8)
                col += 2

    def _check_eigenfun(self, a, text):
        rows = np.array([[float(x) for x in row] for row in list(csv.reader(io.StringIO(text)))[1:]])
        zs = a["r"] * np.exp(2j * math.pi * np.arange(EIGENFUN_POINTS) / EIGENFUN_POINTS)
        expect("eigenfun grid", rows[:, 0] + 1j * rows[:, 1], zs, 1e-12)
        if a["name"] == "regular":
            want = ref.regular_phi(zs, a["lam"])
        else:
            want = ref.singular_phi(zs, a["lam"], a["t1"], a["t2"])
        expect("eigenfun", rows[:, 2] + 1j * rows[:, 3], want, 1e-8)


WORKLOADS = {w.name: w for w in (Sweep(), Oracle(), PointQueries())}


def over_rule_cache(job: Job) -> bool:
    """The job's lambda grid needs more rules than the rule cache keeps."""
    return job.args.get("n_grid", 0) > RULE_CACHE_CLEAR
