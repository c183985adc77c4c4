import functools
import math
import shutil
import tempfile
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import configuration

from toepspec import hardy, levelset
from toepspec.errors import ExceptionalLevelError, QuadratureError
from toepspec.symbol import ANGLE_TOL, PiecewiseSymbol, TrigPoly, preset_regular, preset_singular

TWO_PI = 2.0 * math.pi


HYPOTHESIS_HOME = pytest.StashKey[str]()


def pytest_configure(config):
    # hypothesis caches constants read from the source files under its home
    # directory while it collects; keep that home out of the checkout
    config.stash[HYPOTHESIS_HOME] = tempfile.mkdtemp(prefix="toepspec-hypothesis-")
    configuration.set_hypothesis_home_dir(config.stash[HYPOTHESIS_HOME])


def pytest_unconfigure(config):
    shutil.rmtree(config.stash[HYPOTHESIS_HOME], ignore_errors=True)


@pytest.fixture(scope="session")
def regular():
    return preset_regular()


@pytest.fixture(scope="session")
def singular():
    return preset_singular(0.0, math.pi)


@pytest.fixture(scope="session")
def singular_asym():
    return preset_singular(0.7, 2.9)


@pytest.fixture(scope="session")
def fig2():
    """One rising and one falling smooth branch through the test interval,
    plus an up-jump and a down-jump spanning it: multiplicity two."""
    return PiecewiseSymbol([
        (0.0, math.pi, TrigPoly([0.0, 0.0, -1.0])),
        (math.pi, 1.5 * math.pi, TrigPoly([1.0])),
        (1.5 * math.pi, 2.0 * math.pi, TrigPoly([-1.0])),
    ])


@pytest.fixture(scope="session")
def cos2_symbol():
    """cos(2 theta): two symmetric sublevel arcs, multiplicity two."""
    return PiecewiseSymbol([(0.0, 2.0 * math.pi, TrigPoly([0.0, 0.0, 1.0]))])


@pytest.fixture()
def rng():
    return np.random.default_rng(20240811)


def regular_xi_closed(z, lam):
    """sqrt(2/(1 - 2 lam z + z^2)); valid branch for |z| < 1."""
    return np.sqrt(2.0 / (1.0 - 2.0 * lam * z + z * z))


def regular_phi_closed(z, lam):
    return math.sqrt(2.0 / math.pi) * (1.0 - lam * lam) ** 0.25 / (1.0 - 2.0 * lam * z + z * z)


def singular_phi_closed(z, lam, t1=0.0, t2=math.pi):
    """Interior eigenfunction of the indicator symbol in closed form.

    The lambda^{-1/2} factor belongs to the modulus function: dropping it
    breaks both the boundary relation and the operator moments.
    """
    z1, z2 = np.exp(1j * t1), np.exp(1j * t2)
    mm = ((t2 - t1) % (2.0 * math.pi)) / (2.0 * math.pi)
    sg = math.log((1.0 - lam) / lam) / (2.0 * math.pi)
    rho = math.sqrt(abs(z1 - z2) / (2.0 * math.pi))
    return (rho * lam ** -0.5 * np.exp(-math.pi * sg * mm)
            * (1.0 - z / z1) ** (-0.5 - 1j * sg) * (1.0 - z / z2) ** (-0.5 + 1j * sg))


def singular_phi_ext_closed(z, lam, t1=0.0, t2=math.pi):
    """Exterior partner of the indicator symbol in closed form."""
    z1, z2 = np.exp(1j * t1), np.exp(1j * t2)
    mm = ((t2 - t1) % (2.0 * math.pi)) / (2.0 * math.pi)
    sg = math.log((1.0 - lam) / lam) / (2.0 * math.pi)
    rho = math.sqrt(abs(z1 - z2) / (2.0 * math.pi))
    return (rho * lam ** 0.5 * np.exp(math.pi * (sg + 1j) * mm) * z1 / z
            * (1.0 - z1 / z) ** (-0.5 - 1j * sg) * (1.0 - z2 / z) ** (-0.5 + 1j * sg))


def reference_phi_ext(frame, j: int, z: complex) -> complex:
    """Branch j's exterior partner as the explicit product of principal half
    powers per arc factor: rho_j e^{-i pi |Gamma|} xi(z) / (1 - z conj beta_j)
    times prod (1 - alpha/z)^{-1/2} (1 - beta/z)^{1/2}."""
    arcs = frame.level.arcs
    fac = 1.0 / (1.0 - z * np.exp(-1j * arcs[j - 1].beta))
    for arc in arcs:
        fac *= (1.0 - np.exp(1j * arc.alpha) / z) ** -0.5 * (1.0 - np.exp(1j * arc.beta) / z) ** 0.5
    pref = math.sqrt(frame.c[j - 1]) * np.exp(-1j * math.pi * frame.level.measure)
    return complex(pref * frame.xi(z) * fac)


def chebyshev_U(n, x):
    u0, u1 = 1.0, 2.0 * x
    if n == 0:
        return u0
    for _ in range(n - 1):
        u0, u1 = u1, 2.0 * x * u1 - u0
    return u1


def value_gap(exc, lam: float) -> float:
    """The distance from a level to the nearest value of an exceptional set."""
    return min((abs(lam - v) for v in exc.values), default=math.inf)


def random_symbol(rng) -> PiecewiseSymbol:
    """1-6 pieces of degree up to 6 (at least 1 for a single piece)."""
    n = int(rng.integers(1, 7))
    cuts = np.sort(rng.uniform(0.0, TWO_PI, n))
    pieces = []
    for i in range(n):
        end = cuts[i + 1] if i + 1 < n else cuts[0] + TWO_PI
        deg = int(rng.integers(1 if n == 1 else 0, 7))
        pieces.append((cuts[i], end, TrigPoly(rng.normal(size=deg + 1), rng.normal(size=deg))))
    return PiecewiseSymbol(pieces)


@functools.lru_cache(maxsize=None)
def _critical_angles(a: tuple, b: tuple, lo: float, hi: float) -> tuple:
    """Roots of p' in (lo, hi), for the polynomial with coefficients a, b."""
    roots = TrigPoly(a, b).derivative().roots()
    return tuple(sorted(t for r in roots for t in (r, r + TWO_PI) if lo < t < hi))


def reference_crossings(sym, lam: float) -> np.ndarray:
    """Sorted angles in [0, 2pi) where the symbol equals the real level lam,
    found piece by piece in theta alone: p - lam is bracketed on each
    monotone stretch between the piece's critical points (widened by
    ANGLE_TOL at the piece's ends, as the library does), bisected 20 times
    and polished by three theta-Newton steps kept inside the bracket.  A
    crossing found by two pieces at a seam is kept once; constant pieces
    have none."""
    found = []
    for piece in sym.pieces:
        poly = piece.poly
        if poly.is_constant():
            continue
        a, b = np.array(poly.a[1:]), np.array(poly.b)
        k = np.arange(1, len(a) + 1)

        def f(t):
            kt = np.multiply.outer(t, k)
            return poly.a[0] - lam + np.cos(kt) @ a + np.sin(kt) @ b

        def df(t):
            kt = np.multiply.outer(t, k)
            return np.cos(kt) @ (k * b) - np.sin(kt) @ (k * a)

        lo, hi = piece.theta_start - ANGLE_TOL, piece.theta_end + ANGLE_TOL
        edges = np.array((lo,) + _critical_angles(poly.a, poly.b, lo, hi) + (hi,))
        values = f(edges)
        i = np.nonzero(values[:-1] * values[1:] <= 0.0)[0]
        left, right, f_left = edges[i], edges[i + 1], values[i]
        for _ in range(20):
            mid = 0.5 * (left + right)
            f_mid = f(mid)
            same = np.sign(f_mid) == np.sign(f_left)
            left, f_left = np.where(same, mid, left), np.where(same, f_mid, f_left)
            right = np.where(same, right, mid)
        t = 0.5 * (left + right)
        for _ in range(3):
            slope = df(t)
            step = np.divide(f(t), slope, out=np.zeros_like(t), where=slope != 0.0)
            t = np.clip(t - step, left, right)
        found += list(t)
    keep = []
    for t in np.sort(np.mod(found, TWO_PI)):
        if not keep or t - keep[-1] > 1e-9:
            keep.append(float(t))
    if len(keep) > 1 and keep[0] + TWO_PI - keep[-1] < 1e-9:
        keep.pop()
    return np.array(keep)


def reference_signed_crossings(sym, lams) -> list:
    """``levelset._signed_crossings`` with the crossings of
    ``reference_crossings``: each level's crossings with the sign of omega'
    there, or the error of a tangential crossing."""
    out = []
    for lam in lams:
        theta = reference_crossings(sym, lam)
        slope = sym.derivative_values(theta)
        if np.any(np.abs(slope) < 1e-9):
            out.append(ExceptionalLevelError(f"tangential crossing at level {lam}"))
        else:
            out.append([(float(t), 1 if d > 0 else -1) for t, d in zip(theta, slope)])
    return out


def reference_solve_level(sym, lam: float):
    """``levelset.solve_level`` with the crossings of ``reference_crossings``."""
    signed = reference_signed_crossings(sym, [levelset._check_level(sym, lam)])[0]
    if isinstance(signed, Exception):
        raise signed
    return signed


def doctor_crossings(monkeypatch, pick):
    """Replace the crossings of each real level's root record, as
    ``levelset._level_records`` returns it, by ``pick(lam, crossings)``; the
    store keeps the true records."""
    records = levelset._level_records

    def doctored(sym, lams):
        return [value if isinstance(value, Exception) else replace(
                    value, crossings=np.asarray(pick(float(lam), value.crossings), dtype=float))
                for lam, value in zip(lams, records(sym, lams))]

    monkeypatch.setattr(levelset, "_level_records", doctored)


def reference_boundary_sigma(sym, zeta: float, lam: float) -> complex:
    """The boundary factor sigma = exp(-i Im Q+/2) by the panel route: the
    principal value (1/2pi) PV int ln|omega - lam| cot((t - theta)/2) dt,
    which is -Im Q+, with f(theta) subtracted so that the integrand is
    bounded, on ``hardy.log_rule`` with an added breakpoint at theta.  Where
    its two depths disagree by more than 100 DEFAULT_TOL it raises
    QuadratureError.  The reference for ``hardy.boundary_sigma``."""
    theta = float(zeta) % TWO_PI
    f0 = math.log(abs(sym.eval(theta) - lam))
    lr = hardy.log_rule(sym, lam, extra=(theta,))

    def corr(nodes, logvals):
        t = np.tan(0.5 * (nodes - theta))
        hit = t == 0.0
        out = np.divide(logvals - f0, t, where=~hit, out=np.empty_like(t))
        # panels refined toward theta can put a node on it in floating
        # point; the integrand's limit there is 2 omega'/(omega - lam)
        out[hit] = 2.0 * float(sym.derivative_values(theta)) / (sym.eval(theta) - lam)
        return out

    fine = np.dot(lr.rule.w, corr(lr.rule.theta, lr.logvals))
    coarse = np.dot(lr.rule.w_c, corr(lr.rule.theta_c, lr.logvals_c))
    if abs(fine - coarse) > 100.0 * hardy.DEFAULT_TOL * max(1.0, abs(fine)):
        raise QuadratureError("principal value did not converge",
                              achieved_tol=abs(fine - coarse))
    return complex(np.exp(0.5j * fine))
