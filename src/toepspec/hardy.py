"""Circle quadrature with logarithmic singularities and the analytic blocks
built on it: Q, xi, the outer function, the phase A, the L-function with its
partial-fraction coefficients, boundary values, and the mu measure.
"""

from __future__ import annotations

import functools
import math
import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .errors import ExceptionalLevelError, QuadratureError
from .kernels import schwarz_H
from .levelset import GUARD, admissible_intervals, exceptional_set, level_angles_raw, sublevel_set
from .symbol import TWO_PI, PiecewiseSymbol


@functools.lru_cache(maxsize=64)
def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per ``n``
    and returned read-only."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


GL_NODES, GL_WEIGHTS = gauss_legendre(16)

DEFAULT_TOL = 1e-10
DEFAULT_DEPTH = 36
MAX_DEPTH = 40
H_MAX = TWO_PI / 48.0
# |z| beyond which the Schwarz factor is too peaked for the shared panels and
# the point gets its own breakpoint (at 0.92 the shared rule missed DEFAULT_TOL)
PEAK_RADIUS = 0.9


def _interval_edges(a: float, b: float, depth: int, h_max: float) -> np.ndarray:
    """Panel edges on [a, b], geometrically refined toward both endpoints;
    panels wider than ``h_max`` are split evenly."""
    mid = 0.5 * (a + b)
    half = mid - a
    fr = 2.0 ** (-np.arange(depth, -1, -1, dtype=float))
    left = a + half * np.concatenate(([0.0], fr))
    right = b - half * np.concatenate(([0.0], fr))
    edges = np.concatenate((left, right[::-1][1:]))
    widths = np.diff(edges)
    splits = np.maximum(np.ceil(widths / h_max).astype(int), 1)
    if np.all(splits == 1):
        return edges
    # panel i contributes lo_i + w_i * j / k_i for j = 1..k_i
    ends = np.cumsum(splits)
    j = np.arange(1, ends[-1] + 1) - np.repeat(ends - splits, splits)
    inner = (np.repeat(edges[:-1], splits)
             + np.repeat(widths, splits) * j / np.repeat(splits, splits))
    return np.concatenate((edges[:1], inner))


def _edges_to_rule(edges: np.ndarray):
    lo, hi = edges[:-1], edges[1:]
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    theta = (mid[:, None] + half[:, None] * GL_NODES[None, :]).ravel()
    w = (half[:, None] * GL_WEIGHTS[None, :]).ravel() / TWO_PI
    return theta, w


def _build_nodes(breakpoints: np.ndarray, depth: int, h_max: float):
    if len(breakpoints) == 0:
        edges = np.linspace(0.0, TWO_PI, int(math.ceil(TWO_PI / h_max)) + 1)
        return _edges_to_rule(edges)
    b = np.sort(np.mod(breakpoints, TWO_PI))
    rules = [_edges_to_rule(_interval_edges(lo, hi, depth, h_max))
             for lo, hi in zip(b, np.append(b[1:], b[0] + TWO_PI)) if hi - lo >= 1e-13]
    return np.concatenate([t for t, _ in rules]), np.concatenate([w for _, w in rules])


class CircleRule:
    """Composite Gauss-Legendre rule on the circle with panels refined toward
    a breakpoint set, stored at two refinement depths so every integral comes
    with a convergence estimate.
    """

    def __init__(self, breakpoints=(), depth: int = DEFAULT_DEPTH,
                 h_max: float = H_MAX, tol: float = DEFAULT_TOL):
        self.breakpoints = np.asarray(breakpoints, dtype=float)
        self.depth = depth
        self.tol = tol
        self.theta, self.w = _build_nodes(self.breakpoints, depth, h_max)
        coarse = max(depth - 4, 6)
        self.theta_c, self.w_c = _build_nodes(self.breakpoints, coarse, h_max * 2.0)
        if abs(self.w.sum() - 1.0) > 1e-14 or abs(self.w_c.sum() - 1.0) > 1e-14:
            raise QuadratureError("panel weights do not sum to the circle measure")
        self.panels = len(self.theta) // len(GL_NODES)

    @property
    def nbytes(self) -> int:
        return (self.breakpoints.nbytes + self.theta.nbytes + self.w.nbytes
                + self.theta_c.nbytes + self.w_c.nbytes)

    def integrate(self, fn):
        """Integral of fn(theta) against the normalized measure, with estimate."""
        fine = np.dot(self.w, fn(self.theta))
        coarse = np.dot(self.w_c, fn(self.theta_c))
        return fine, abs(fine - coarse)


@dataclass
class LogRule:
    """A CircleRule together with precomputed ln|omega - lam| node values."""

    rule: CircleRule
    lam: float
    logvals: np.ndarray
    logvals_c: np.ndarray
    achieved_tol: float

    @property
    def nbytes(self) -> int:
        return self.rule.nbytes + self.logvals.nbytes + self.logvals_c.nbytes

    def weighted(self, smooth_f, smooth_c):
        """Integrals of ln|omega-lam| times smooth factors given at the nodes,
        one column per integral; each must meet the tolerance on its own."""
        fine = np.dot(self.rule.w * self.logvals, smooth_f)
        coarse = np.dot(self.rule.w_c * self.logvals_c, smooth_c)
        ratio = np.max(np.abs(fine - coarse) / np.maximum(1.0, np.abs(fine)), initial=0.0)
        if ratio > self.rule.tol:
            raise QuadratureError(
                f"log quadrature stalled at relative estimate {ratio:.3e}", achieved_tol=ratio
            )
        return fine


# Per-symbol bound on the cached rules and Fourier vectors: 256 of the
# 256 KiB log_fourier vectors.
RULE_CACHE_BYTES = 64 * 2**20
_cache_lock = threading.Lock()


class _SymbolCache:
    """Least-recently-used store of one symbol's rules, bounded in bytes.

    Every value carries ``nbytes``; one larger than the whole budget is
    built and returned but not kept.
    """

    def __init__(self):
        self.entries: OrderedDict = OrderedDict()
        self.nbytes = 0
        self.tau_values: np.ndarray | None = None

    def get(self, key, build):
        with _cache_lock:
            hit = self.entries.get(key)
            if hit is not None:
                self.entries.move_to_end(key)
                return hit
        value = build()
        size = value.nbytes
        if size > RULE_CACHE_BYTES:
            return value
        with _cache_lock:
            if key not in self.entries:
                while self.entries and self.nbytes + size > RULE_CACHE_BYTES:
                    self.nbytes -= self.entries.popitem(last=False)[1].nbytes
                self.entries[key] = value
                self.nbytes += size
        return value


_rule_cache: "weakref.WeakKeyDictionary[PiecewiseSymbol, _SymbolCache]" = weakref.WeakKeyDictionary()


def _cache_for(sym: PiecewiseSymbol) -> _SymbolCache:
    with _cache_lock:
        cache = _rule_cache.get(sym)
        if cache is None:
            cache = _rule_cache[sym] = _SymbolCache()
        return cache


def _symbol_breakpoints(sym: PiecewiseSymbol, x: float | None) -> np.ndarray:
    # every piece seam, jump or not: panels must not straddle a point where
    # the symbol stops being analytic
    seams = np.asarray(sym._starts, dtype=float)
    if x is None:
        return seams
    g1, g2 = sym.essential_range()
    if not g1 < x < g2:
        return seams
    return np.concatenate((seams, level_angles_raw(sym, x)))


def _safe_log_abs(vals: np.ndarray) -> np.ndarray:
    return np.log(np.maximum(np.abs(vals), 1e-300))


def plain_rule(sym: PiecewiseSymbol, x: float | None = None, extra=(),
               tol: float = DEFAULT_TOL, depth: int = DEFAULT_DEPTH) -> CircleRule:
    """Cached panel rule with breakpoints at the jumps and, when ``x`` lies in
    the essential range, at the angles where the symbol crosses ``x``."""
    key = ("plain", None if x is None else round(float(x), 14),
           tuple(round(float(e), 12) for e in sorted(extra)), tol, depth)

    def build():
        breaks = np.concatenate((_symbol_breakpoints(sym, x), np.asarray(extra, dtype=float)))
        return CircleRule(breaks, depth=depth, tol=tol)

    return _cache_for(sym).get(key, build)


def log_rule(sym: PiecewiseSymbol, lam: float, extra=(), tol: float = DEFAULT_TOL) -> LogRule:
    """Cached quadrature rule for integrals with the weight ln|omega - lam|.

    ``extra`` adds non-singular breakpoints (used to resolve the Schwarz
    peak of evaluation points close to the circle).
    """
    key = (round(float(lam), 14), tuple(round(float(e), 12) for e in sorted(extra)), tol)

    def build():
        breaks = np.concatenate((_symbol_breakpoints(sym, lam), np.asarray(extra, dtype=float)))
        for depth in (DEFAULT_DEPTH, MAX_DEPTH):
            rule = CircleRule(breaks, depth=depth, tol=tol)
            logvals = _safe_log_abs(sym.values(rule.theta) - lam)
            logvals_c = _safe_log_abs(sym.values(rule.theta_c) - lam)
            base = np.dot(rule.w, logvals)
            err = abs(base - np.dot(rule.w_c, logvals_c))
            if err <= tol * max(1.0, abs(base)):
                return LogRule(rule, float(lam), logvals, logvals_c, err)
        raise QuadratureError(
            f"log quadrature did not converge at depth {MAX_DEPTH}", achieved_tol=err
        )

    return _cache_for(sym).get(key, build)


def _in_peak_band(az):
    return (PEAK_RADIUS < az) & (az < 1.0 / PEAK_RADIUS)


def point_rule(sym: PiecewiseSymbol, z: complex, lam: float, tol: float = DEFAULT_TOL) -> LogRule:
    """The rule ``q_function`` integrates with at z: the shared ``log_rule``,
    plus a breakpoint at arg z when z lies in the peak band around the circle."""
    extra = (float(np.angle(z)) % TWO_PI,) if _in_peak_band(abs(z)) else ()
    return log_rule(sym, lam, extra=extra, tol=tol)


def _schwarz_factor(z, theta: np.ndarray) -> np.ndarray:
    """(1 + s)/(1 - s) with s = z e^{-i theta}; ``z`` a column of points.
    Holds two (points x nodes) arrays at most."""
    s = z * np.exp(-1j * theta)
    h = 1.0 + s
    h /= np.subtract(1.0, s, out=s)
    return h


def q_function(sym: PiecewiseSymbol, z, lam: float, tol: float = DEFAULT_TOL):
    """Schwarz-kernel average of ln|omega - lam| at z (inside or outside the
    circle), for a point or an array of points.

    Points in the peak band around the circle get their own ``point_rule``;
    all others share the level's ``log_rule`` in one batch.
    """
    zs = np.asarray(z, dtype=complex)
    flat = zs.ravel()
    az = np.abs(flat)
    if np.any(np.abs(az - 1.0) < 1e-8):
        raise ValueError("evaluation on the unit circle requires boundary_xi")
    out = np.empty(flat.shape, dtype=complex)
    peak = _in_peak_band(az)
    groups = [(np.nonzero(~peak)[0], log_rule(sym, lam, tol=tol))] if not peak.all() else []
    groups += [([i], point_rule(sym, flat[i], lam, tol)) for i in np.nonzero(peak)[0]]
    for idx, lr in groups:
        col = flat[idx][:, None]
        out[idx] = lr.weighted(_schwarz_factor(col, lr.rule.theta).T,
                               _schwarz_factor(col, lr.rule.theta_c).T)
    return complex(out[0]) if zs.ndim == 0 else out.reshape(zs.shape)


def xi(sym: PiecewiseSymbol, z: complex, lam: float, tol: float = DEFAULT_TOL) -> complex:
    """Modulus part of the inverse outer function: exp(-Q/2); never zero."""
    return complex(np.exp(-0.5 * q_function(sym, complex(z), lam, tol=tol)))


def xi_grid(sym: PiecewiseSymbol, zs, lam: float, tol: float = DEFAULT_TOL) -> np.ndarray:
    """xi over an array of points, in the shape of ``zs``."""
    return np.exp(-0.5 * np.asarray(q_function(sym, zs, lam, tol=tol)))


LOG_FOURIER_N = 16384    # Fourier modes kept for the circle fast path
LOG_FOURIER_GRID = 32768  # sample grid for the smooth remainder
CIRCLE_R_MAX = 0.9995     # beyond this the kept modes cannot resolve the peak

# the half-offset sample grid and the phase that re-centres its FFT
_TAU = TWO_PI * (np.arange(LOG_FOURIER_GRID) + 0.5) / LOG_FOURIER_GRID
_TAU_PHASE = np.exp(-1j * math.pi * np.arange(LOG_FOURIER_N) / LOG_FOURIER_GRID)
_MODES = np.arange(1, LOG_FOURIER_N)


def _tau_values(sym: PiecewiseSymbol) -> np.ndarray:
    """The symbol on the half-offset grid, computed once per symbol."""
    cache = _cache_for(sym)
    if cache.tau_values is None:
        cache.tau_values = sym.values(_TAU)
    return cache.tau_values


def log_fourier(sym: PiecewiseSymbol, lam: float) -> np.ndarray:
    """Fourier coefficients of ln|omega - lam| for modes 0..N-1.

    Log singularities at the level crossings and steps at the jumps carry
    exact closed-form coefficients; the continuous remainder is handled by
    an FFT on a half-offset grid.  Cached per level.
    """
    return _cache_for(sym).get(("fourier", round(float(lam), 14)),
                               lambda: _log_fourier(sym, lam))


def _log_fourier(sym: PiecewiseSymbol, lam: float) -> np.ndarray:
    g1, g2 = sym.essential_range()
    if g1 < lam < g2 and exceptional_set(sym).distance(lam) < GUARD:
        raise ExceptionalLevelError(
            f"level {lam} within {GUARD} of the exceptional set"
        )
    n = _MODES
    fhat = np.zeros(LOG_FOURIER_N, dtype=complex)
    ratio = np.abs(_tau_values(sym) - lam)
    # ln|2 sin((t - t0)/2)| has coefficients -e^{-i n t0}/(2|n|), zero mean
    for t0 in (level_angles_raw(sym, lam) if g1 < lam < g2 else ()):
        fhat[1:] -= np.exp(-1j * n * t0) / (2.0 * n)
        ratio = ratio / np.maximum(np.abs(2.0 * np.sin(0.5 * (_TAU - t0))), 1e-300)
    g = np.log(np.maximum(ratio, 1e-300))
    # a unit step rendered as the sawtooth (pi - x)/(2 pi) has coefficients
    # e^{-i n t0}/(2 pi i n), zero mean
    for j in sym.jumps:
        if j.kind == "zero":
            continue
        size = math.log(abs(j.right - lam)) - math.log(abs(j.left - lam))
        fhat[1:] += size * np.exp(-1j * n * j.theta) / (2j * math.pi * n)
        g = g - size * (math.pi - np.mod(_TAU - j.theta, TWO_PI)) / TWO_PI
    # g is real: the kept modes are the first half of its spectrum
    ghat = np.fft.rfft(g)[:LOG_FOURIER_N] / LOG_FOURIER_GRID
    fhat += ghat * _TAU_PHASE
    return fhat


def xi_circle(sym: PiecewiseSymbol, lam: float, r: float, m_out: int = 4096) -> np.ndarray:
    """xi at the m_out points r e^{2 pi i k/m_out} in one sweep.

    The Schwarz average of ln|omega - lam| is a convolution on the circle,
    so one coefficient vector serves every radius; accurate for r up to
    CIRCLE_R_MAX, far past where shared panel rules stop resolving the peak.
    """
    if not 0.0 < r <= CIRCLE_R_MAX:
        raise ValueError(f"circle radius must lie in (0, {CIRCLE_R_MAX}]")
    if m_out & (m_out - 1):
        raise ValueError("m_out must be a power of two")
    fhat = log_fourier(sym, lam)
    n_eval = max(m_out, LOG_FOURIER_N)
    c = np.zeros(n_eval, dtype=complex)
    c[0] = fhat[0]
    powers = r ** np.arange(1, LOG_FOURIER_N, dtype=float)
    c[1:LOG_FOURIER_N] = 2.0 * fhat[1:] * powers
    q = np.fft.ifft(c) * n_eval
    return np.exp(-0.5 * q[:: n_eval // m_out])


def outer_F(sym: PiecewiseSymbol, z: complex, lam: float, tol: float = DEFAULT_TOL) -> complex:
    """Outer function with boundary modulus squared omega - lam; lam below
    the essential infimum so the logarithm is real."""
    g1, _ = sym.essential_range()
    if lam >= g1:
        raise ValueError("requires lambda below the essential infimum")
    if abs(z) >= 1.0:
        raise ValueError("outer function is defined inside the disk")
    # omega - lam > 0 here, so ln|omega - lam| is the honest logarithm
    return complex(np.exp(0.5 * q_function(sym, z, lam, tol=tol)))


# -- phase and arc coefficients -------------------------------------------------


def _arc_pairs(arcs):
    a = np.array([arc.alpha for arc in arcs])
    b = np.array([arc.beta for arc in arcs])
    return a, b


def phase_A_integral(arcs, z: complex) -> complex:
    """Phase A(z) as the per-arc Schwarz-kernel integral in closed form.

    Inside the disk each arc contributes through the primitive of the
    Schwarz kernel; outside, through its exterior counterpart.
    """
    a, b = _arc_pairs(arcs)
    az = abs(z)
    if abs(az - 1.0) < 1e-12:
        raise ValueError("phase undefined on the circle")
    if az < 1.0:
        logs = np.log((1.0 - z * np.exp(-1j * a)) / (1.0 - z * np.exp(-1j * b)))
        return complex(np.sum(0.25 * (b - a) + 0.5j * logs))
    logs = np.log((1.0 - np.exp(1j * a) / z) / (1.0 - np.exp(1j * b) / z))
    return complex(np.sum(-0.25 * (b - a) + 0.5j * logs))


def phase_A_closed(arcs, z):
    """Phase A(z) inside the disk, for a point or an array of points:
    half-pi times the sublevel measure plus the principal-branch log sum
    over the arc endpoints."""
    zs = np.asarray(z, dtype=complex)
    if np.any(np.abs(zs) >= 1.0):
        raise ValueError("closed phase form is the interior representation")
    a, b = _arc_pairs(arcs)
    col = zs[..., None]
    logs = np.log(1.0 - col * np.exp(-1j * a)) - np.log(1.0 - col * np.exp(-1j * b))
    value = 0.5 * math.pi * (float(np.sum(b - a)) / TWO_PI) + 0.5j * np.sum(logs, axis=-1)
    return complex(value) if zs.ndim == 0 else value


def arcs_measure(arcs) -> float:
    a, b = _arc_pairs(arcs)
    return float(np.sum(b - a)) / TWO_PI


@dataclass(frozen=True)
class ArcData:
    """Per-level arc bundle: endpoints, partial-fraction coefficients, weights."""

    lam: float
    arcs: tuple
    c: tuple[float, ...]
    rho: tuple[float, ...]
    measure: float

    @property
    def m(self) -> int:
        return len(self.arcs)


def coefficients_c(arcs, lam: float = math.nan) -> ArcData:
    """Residue coefficients of the L-function at the arc end angles.

    c_j multiplies the distances from the j-th end point to every start
    point and divides by its distances to the other end points; their sum
    is sin(pi m)/pi.  All positive; the formula degenerates when two end
    angles collide, which is rejected.
    """
    a, b = _arc_pairs(arcs)
    alpha = np.exp(1j * a)
    beta = np.exp(1j * b)
    cs = []
    for j in range(len(arcs)):
        num = float(np.prod(np.abs(beta[j] - alpha)))
        denom = 1.0
        for l in range(len(arcs)):
            if l == j:
                continue
            gap = abs(beta[j] - beta[l])
            if gap < 1e-8:
                raise ValueError("merged singularities: coincident arc end angles")
            denom *= gap
        cs.append(num / (2.0 * math.pi * denom))
    c = tuple(cs)
    if any(x <= 0.0 for x in c):
        raise ValueError("nonpositive arc coefficient; arcs are inconsistent")
    return ArcData(lam, tuple(arcs), c, tuple(math.sqrt(x) for x in c), arcs_measure(arcs))


def L_function(arcs, z: complex) -> complex:
    """L(z) in product form: (i/pi) e^{-i pi m} prod (1-z conj(alpha))/(1-z conj(beta))."""
    a, b = _arc_pairs(arcs)
    denom = 1.0 - z * np.exp(-1j * b)
    if np.any(np.abs(denom) < 1e-13):
        raise ZeroDivisionError("L has a simple pole at an arc end point")
    m = arcs_measure(arcs)
    prod = np.prod((1.0 - z * np.exp(-1j * a)) / denom)
    return complex(1j / math.pi * np.exp(-1j * math.pi * m) * prod)


def L_partial_fraction(arcs, z: complex, data: ArcData | None = None) -> complex:
    """L(z) as a pole sum with the residue coefficients plus its constant."""
    data = data or coefficients_c(arcs)
    a, b = _arc_pairs(arcs)
    beta = np.exp(1j * b)
    total = 1j / math.pi * math.cos(math.pi * data.measure)
    for cj, bj in zip(data.c, beta):
        total += cj * schwarz_H(z * np.conj(bj))
    return complex(total)


def L_check(arcs, n_samples: int = 50, seed: int = 7) -> float:
    """Largest discrepancy between the two L forms on random disk points."""
    rng = np.random.default_rng(seed)
    data = coefficients_c(arcs)
    worst = 0.0
    for _ in range(n_samples):
        z = rng.uniform(0.05, 0.95) * np.exp(1j * rng.uniform(0.0, TWO_PI))
        worst = max(worst, abs(L_function(arcs, z) - L_partial_fraction(arcs, z, data)))
    return worst


# -- boundary values -------------------------------------------------------------


def boundary_sigma(sym: PiecewiseSymbol, zeta: float, lam: float,
                   tol: float = DEFAULT_TOL) -> complex:
    """Common unimodular factor of the two one-sided boundary values of xi.

    Computed from the principal-value integral after subtracting the
    singular part analytically, which leaves a bounded integrand handled
    by the panel rule with an added breakpoint at zeta.
    """
    theta = float(zeta) % TWO_PI
    if sym._is_jump_angle(theta):
        raise ValueError("boundary value undefined here: jump angle")
    f0 = math.log(abs(sym.eval(theta) - lam)) if abs(sym.eval(theta) - lam) > 1e-13 else None
    if f0 is None:
        raise ValueError("boundary value undefined here: omega(zeta) = lambda")
    lr = log_rule(sym, lam, extra=(theta,), tol=tol)

    def corr(nodes, logvals):
        t = np.tan(0.5 * (nodes - theta))
        hit = t == 0.0
        out = np.divide(logvals - f0, t, where=~hit, out=np.empty_like(t))
        if hit.any():
            # panels refined toward theta can put a node on it in floating
            # point; the integrand's limit there is 2 omega'/(omega - lam)
            out[hit] = 2.0 * sym.eval_derivative(theta) / (sym.eval(theta) - lam)
        return out

    fine = np.dot(lr.rule.w, corr(lr.rule.theta, lr.logvals))
    coarse = np.dot(lr.rule.w_c, corr(lr.rule.theta_c, lr.logvals_c))
    if abs(fine - coarse) > 100.0 * tol * max(1.0, abs(fine)):
        raise QuadratureError("principal value did not converge",
                              achieved_tol=abs(fine - coarse))
    return complex(np.exp(0.5j * fine))


def boundary_xi(sym: PiecewiseSymbol, zeta: float, lam: float, side: str,
                tol: float = DEFAULT_TOL) -> complex:
    """One-sided boundary value of xi: sigma times |omega - lam|^{-1/2} from
    inside ('+') and |omega - lam|^{+1/2} from outside ('-')."""
    if side not in ("+", "-"):
        raise ValueError("side must be '+' or '-'")
    sigma = boundary_sigma(sym, zeta, lam, tol=tol)
    mod = abs(sym.eval(float(zeta) % TWO_PI) - lam)
    power = -0.5 if side == "+" else 0.5
    return complex(sigma * mod**power)


# -- the mu measure ---------------------------------------------------------------


class MuMeasure:
    """Poisson mass of the sublevel sets seen from a disk point.

    Holds a sampled grid and an exact per-level evaluator; the companion
    ``log_integral`` computes the Stieltjes integral of ln|t - w| against
    the measure by parts, splitting at exceptional values.
    """

    def __init__(self, sym: PiecewiseSymbol, z: complex, t_grid):
        if abs(z) >= 1.0:
            raise ValueError("mu measure is defined for points inside the disk")
        self.sym = sym
        self.z = complex(z)
        self._exc = exceptional_set(sym)
        self.t = np.asarray(t_grid, dtype=float)
        self.mu = np.array([self.at(t) for t in self.t])

    def at(self, t: float) -> float:
        """mu(t; z), nudged off exceptional levels by the guard width."""
        g1, g2 = self.sym.essential_range()
        if g1 < t <= g2 and self._exc.distance(t) < GUARD:
            v = min(self._exc.values, key=lambda v: abs(v - t))
            t = v + 2.0 * GUARD * (1.0 if t >= v else -1.0)
        if t <= g1:
            return 0.0
        if t > g2:
            return 1.0
        level = sublevel_set(self.sym, t)
        if level.full:
            return 1.0
        total = 0.0
        for arc in level.arcs:
            za = self.z * np.exp(-1j * arc.alpha)
            zb = self.z * np.exp(-1j * arc.beta)
            log_ratio = np.log((1.0 - za) / (1.0 - zb))
            total += (arc.length - 2.0 * float(np.imag(log_ratio))) / TWO_PI
        return total

    def log_integral(self, w: complex) -> float:
        """integral of ln|t - w| d mu(t), by parts against the exact evaluator.

        mu has square-root behaviour at the exceptional values, so each cut
        interval is integrated in s with t = mid - half cos(s), which makes
        the integrand smooth at both ends.
        """
        g2 = self.sym.essential_range()[1]
        total = math.log(abs(g2 - w))
        for lo, hi in admissible_intervals(self.sym):
            mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)

            def integrand(ss):
                ts = mid - half * np.cos(ss)
                mu = np.array([self.at(t) for t in ts])
                return mu * (ts - w.real) / np.abs(ts - w) ** 2 * half * np.sin(ss)

            total -= _adaptive_gl(integrand, 0.0, math.pi, tol=1e-12)
        return total


def _adaptive_gl(fn, a: float, b: float, tol: float, depth: int = 0) -> float:
    """Adaptive 16-point Gauss-Legendre on [a, b] by bisection; raises
    ``QuadratureError`` when a panel has not settled at depth 12."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    coarse = half * np.dot(GL_WEIGHTS, fn(mid + half * GL_NODES))
    fine = 0.0
    for lo, hi in ((a, mid), (mid, b)):
        h2 = 0.5 * (hi - lo)
        fine += h2 * np.dot(GL_WEIGHTS, fn(0.5 * (lo + hi) + h2 * GL_NODES))
    err = abs(fine - coarse)
    if err < tol * max(1.0, abs(fine)):
        return fine
    if depth >= 12:
        raise QuadratureError(
            f"adaptive quadrature did not settle at depth {depth}: estimate {err:.3e}",
            achieved_tol=err,
        )
    return (_adaptive_gl(fn, a, mid, tol, depth + 1)
            + _adaptive_gl(fn, mid, b, tol, depth + 1))


def mu_measure(sym: PiecewiseSymbol, z: complex, t_grid) -> MuMeasure:
    """Sampled mu(t; z) with its exact evaluator attached."""
    return MuMeasure(sym, z, t_grid)
