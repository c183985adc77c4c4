"""The Schwarz average Q of the log weight and the analytic blocks built on
it: xi, the outer function, the phase A, the L-function with its
partial-fraction coefficients, boundary values, and the mu measure.

Q is a closed form in each piece's roots and the dilogarithm at every level,
on the circle too; no package code calls the panel rules, the tests' reference.
"""

from __future__ import annotations

import functools
import itertools
import math
import threading
from dataclasses import dataclass, replace

import numpy as np

from .errors import QuadratureError
from .kernels import schwarz_H
from .levelset import (
    CHUNK,
    GUARD,
    _arc_pairs,
    _check_level,
    _factor_nonreal,
    _level,
    _level_factors,
    _level_records,
    _LevelFactors,
    _levels,
    _plateau_error,
    _raised,
    _record,
    admissible_intervals,
    arcs_measure,
    exceptional_set,
    sublevel_set,
)
from .symbol import DEFAULT_TOL, EPS, TWO_PI, PiecewiseSymbol


@functools.lru_cache(maxsize=64)
def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per ``n``
    and returned read-only."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


GL_NODES, GL_WEIGHTS = gauss_legendre(16)

DEFAULT_DEPTH = 36
MAX_DEPTH = 40
H_MAX = TWO_PI / 48.0


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

    def __init__(self, breakpoints=(), depth: int = DEFAULT_DEPTH):
        self.breakpoints = np.asarray(breakpoints, dtype=float)
        self.depth = depth
        self.theta, self.w = _build_nodes(self.breakpoints, depth, H_MAX)
        coarse = max(depth - 4, 6)
        self.theta_c, self.w_c = _build_nodes(self.breakpoints, coarse, 2.0 * H_MAX)
        if abs(self.w.sum() - 1.0) > 1e-14 or abs(self.w_c.sum() - 1.0) > 1e-14:
            raise QuadratureError("panel weights do not sum to the circle measure")
        self.panels = len(self.theta) // len(GL_NODES)


@dataclass
class LogRule:
    """A CircleRule together with ln|omega - lam| at its fine and coarse
    nodes, for a real level ``lam``."""

    rule: CircleRule
    lam: float
    logvals: np.ndarray
    logvals_c: np.ndarray
    achieved_tol: float


def _log_weight(vals: np.ndarray, lam: float) -> np.ndarray:
    """ln|omega - lam| at the nodes, floored at eps times the largest: at a
    node within rounding of a crossing the difference can round to 0."""
    diff = np.abs(vals - lam)
    return np.log(np.maximum(diff, np.finfo(float).eps * np.max(diff)))


def plain_rule(sym: PiecewiseSymbol, x: float | None = None, extra=(),
               depth: int = DEFAULT_DEPTH) -> CircleRule:
    """Panel rule with breakpoints at every piece seam, jump or not (panels
    must not straddle a point where the symbol stops being analytic), at
    every interior extremum, next to which ln|omega - x| can dip where no
    panel breaks, at the angles where the symbol crosses ``x``, and at ``extra``."""
    crossings = _level_factors(sym, x).crossings if x is not None else ()
    extrema = [t for t, _ in exceptional_set(sym).critical_points]
    return CircleRule(np.concatenate((sym._starts, extrema, crossings, extra), dtype=float), depth)


def log_rule(sym: PiecewiseSymbol, lam: float, extra=()) -> LogRule:
    """Quadrature rule for integrals with the log weight ln|omega - lam| of a
    real level, built afresh on each call (the tests' reference; no package
    code calls it): at ``DEFAULT_DEPTH``, and at ``MAX_DEPTH`` when the fine and
    coarse panels disagree on the weight's circle average by more than
    ``DEFAULT_TOL``; past that it raises ``QuadratureError``.  A level on a
    constant piece's value raises ``ExceptionalLevelError``.  ``extra`` adds
    non-singular breakpoints to ``plain_rule``'s.
    """
    _raised(_plateau_error(sym, lam))
    err = math.inf
    for depth in (DEFAULT_DEPTH, MAX_DEPTH):
        rule = plain_rule(sym, lam, extra, depth=depth)
        logvals = _log_weight(sym.values(rule.theta), lam)
        logvals_c = _log_weight(sym.values(rule.theta_c), lam)
        base = np.dot(rule.w, logvals)
        err = abs(base - np.dot(rule.w_c, logvals_c))
        if err <= DEFAULT_TOL * max(1.0, abs(base)):
            return LogRule(rule, lam, logvals, logvals_c, err)
    raise QuadratureError(
        f"log quadrature did not converge at depth {MAX_DEPTH}", achieved_tol=err
    )


# -- the closed form ----------------------------------------------------------------

# Li2(x) = u - u^2/4 + sum_n B_2n u^(2n+1)/(2n+1)! with u = -log(1 - x): the
# u^2 coefficient, then B_2n/(2n+1)! for n = 1..9
_LI2_SERIES = (-1.0 / 4.0, 1.0 / 36.0, -1.0 / 3600.0, 1.0 / 211680.0, -1.0 / 10886400.0,
               1.0 / 526901760.0, -4.0647616451442255e-11, 8.9216910204564526e-13,
               -1.9939295860721076e-14, 4.5189800296199182e-16)
_ZETA2 = math.pi ** 2 / 6.0


def _li2(x: np.ndarray) -> np.ndarray:
    """Principal dilogarithm of a complex array.

    The reflection Li2(x) = -Li2(1-x) + pi^2/6 - log x log(1-x), where
    |1 - x| <= 1 and Re x > 1/2, and the inversion Li2(x) = -Li2(1/x) - pi^2/6
    - log^2(-x)/2 everywhere else outside the unit disk map the argument into
    |x| <= 1, Re x <= 1/2, where the Bernoulli series converges to double
    precision (Maximon, Proc. R. Soc. A 459, 2003).
    """
    x = np.asarray(x, dtype=complex)
    norm = x.real * x.real + x.imag * x.imag
    reflect = (x.real > 0.5) & (norm <= 2.0 * x.real)
    invert = ~reflect & (norm > 1.0)
    direct = ~(reflect | invert)
    u = np.empty_like(x)
    rest = np.zeros_like(x)
    u[direct] = -np.log(1.0 - x[direct])
    xr = x[reflect]
    u[reflect] = ur = -np.log(xr)
    # at x = 1 the product u log(1 - x) is 0 * log 0, whose limit is 0
    rest[reflect] = ur * np.log(1.0 - xr, out=np.zeros_like(xr), where=xr != 1.0) + _ZETA2
    xv = x[invert]
    log_neg = np.log(-xv)
    u[invert] = -np.log(1.0 - 1.0 / xv)
    rest[invert] = -0.5 * log_neg * log_neg - _ZETA2
    u2 = u * u
    odd = np.zeros_like(u)
    for coeff in _LI2_SERIES[:0:-1]:
        odd = odd * u2 + coeff
    series = u + u2 * (_LI2_SERIES[0] + u * odd)
    return np.where(direct, series, rest - series)


def _arc_q(z: np.ndarray, weight: float, a: float, b: float, const,
           beta: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """Schwarz average over the arc [a, b] of
    const + weight (sum log(1 - beta w) + sum log(1 - gamma/w)), at the
    points ``z`` (a column inside the disk); a leading level axis on const,
    beta and gamma gives one row per level.

    Each term is 2 x (Cauchy integral) - (arc mean), with
    l(theta) = i theta + log(1 - z e^{-i theta}) = log(w - z):
    - 1 integrates to l/(pi i) - theta/(2 pi) at the ends;
    - log(1 - beta w) has the Cauchy integral
      [L l(theta) - Li2(beta (w - z)/(1 - beta z))]/(2 pi i),
      L = log(1 - beta z), and the mean -[Li2(beta w)]/(2 pi i);
    - log(1 - gamma/w), in v = 1/w, has the mean [Li2(gamma v)]/(2 pi i) and
      the Cauchy integral [Li2(gamma v)] plus the integral of
      log(1 - gamma v) dx/x along the chord, x = gamma (z v - 1)/(z - gamma),
      over 2 pi i; the chord integral picks up one monodromy term where x
      crosses the cut (1, inf).  At z = gamma, where x is infinite, it is
      [log^2(1 - gamma v)]/2, whose argument stays in Re > 0.
    All Li2 values of the arc come from one call.  On the circle an end's
    terms in log u, u = 1 - z conj e, cancel the next piece's at a continuous
    seam, where both take bitwise one u; at u = 0 they are dropped.
    """
    const = np.asarray(const)[..., None, None]
    beta, gamma = beta[..., None, :], gamma[..., None, :]
    length = (b - a) % TWO_PI
    ends = np.exp(1j * np.array([a, b]))
    u = 1.0 - z * np.conj(ends)
    logs = np.log(np.where(u == 0.0, 1.0, u))
    # log(u1/u0), which is log(x1/x0): both arguments lie within pi/2 of 0
    dlog = logs[:, 1:] - logs[:, :1]
    dl = 1j * length + dlog
    q = const * (dl / (1j * math.pi) - length / TWO_PI)
    if beta.shape[-1] == 0 and gamma.shape[-1] == 0:
        return q[..., 0]
    one_bz = 1.0 - beta * z
    at_root = z == gamma
    zg = np.where(at_root, 1.0, z - gamma)
    t = [beta * (e - z) / one_bz for e in ends]
    x = [-gamma * u[:, k:k + 1] / zg for k in (0, 1)]
    # 1 - x, without the cancellation of x near 1
    one_x = [z * (1.0 - gamma * np.conj(e)) / zg for e in ends]
    # Near the cut (1, inf) an end's side is the sign of Im x, which is
    # rounding where the chord runs along the cut (real z and real roots on
    # a piece ending at angle 0 or pi).  Any side serves if Li2(x),
    # log(1 - x) in A and the crossing test all take the same one: an end
    # exactly on the cut is moved just above it, where a signed zero would
    # not survive the arithmetic, and 1 - x takes the side opposite to x.
    near_cut = [(v.real > 1.0) & (np.abs(v.imag) <= 1e-13 * np.abs(v)) for v in x]
    if near_cut[0].any() or near_cut[1].any():
        x = [np.where((v.imag == 0.0) & (v.real > 1.0), v.real * (1.0 + 1e-290j), v) for v in x]
        one_x = [np.where(near, w.real - 1j * v.imag, w)
                 for w, v, near in zip(one_x, x, near_cut)]
    args = t + x + [beta * e for e in ends] + [gamma * np.conj(e) for e in ends]
    li = _li2(np.concatenate([v.ravel() for v in args]))
    cuts = list(itertools.accumulate((v.size for v in args), initial=0))
    li_t0, li_t1, li_x0, li_x1, li_b0, li_b1, li_g0, li_g1 = (
        li[i:j].reshape(v.shape) for i, j, v in zip(cuts, cuts[1:], args))
    holo = 2.0 * (np.log(one_bz) * dl - (li_t1 - li_t0)) + (li_b1 - li_b0)
    # A = log(1 - gamma v) - log(1 - x) at each end; it is constant on each
    # side of the cut and undefined (and unused) at z = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        A = [np.log(1.0 - gamma * np.conj(e)) - np.log(w) for e, w in zip(ends, one_x)]
        chord = A[0] * dlog - li_x1 + li_x0
        side0, side1 = np.sign(x[0].imag), np.sign(x[1].imag)
        cut = x[0].real - x[0].imag * (x[1].real - x[0].real) / (x[1].imag - x[0].imag)
        cross = (side0 * side1 < 0) & (cut > 1.0)
        if cross.any():
            cut = np.where(cross, cut, 2.0)
            chord += np.where(cross, (A[1] - A[0]) * np.log(x[1] / cut)
                              + 1j * math.pi * np.log(cut) * (side1 - side0), 0.0)
    chord = np.where(z == 0.0, 0.0, chord)
    if at_root.any():
        lg = [np.log(1.0 - gamma * np.conj(e)) for e in ends]
        chord = np.where(at_root, 0.5 * (lg[1] * lg[1] - lg[0] * lg[0]), chord)
    conj_half = 2.0 * chord + (li_g1 - li_g0)
    return q[..., 0] + weight * (np.sum(holo, axis=-1) + np.sum(conj_half, axis=-1)) / (2j * math.pi)


def _closed_q(factors: _LevelFactors, z: np.ndarray) -> np.ndarray:
    """Q for points inside the disk, summed over the pieces; on a
    whole-circle piece the Li2 terms cancel, leaving the Wiener-Hopf form
    const + sum 2 weight log(1 - beta z).  Stacked factors (``_stack``) give
    one row per level, computed for as many levels at a time as keep each
    temporary under ``CHUNK`` entries.  A non-finite value raises
    ``QuadratureError``."""
    per_root = 8 if len(factors.pieces) > 1 else 1   # _arc_q's one Li2 call takes eight
    return _finite(_by_levels(_piece_sum, factors, z, per_root), "Q")


def _closed_xi(factors: _LevelFactors, z: np.ndarray) -> np.ndarray:
    """xi = exp(-Q/2) for points inside the disk from a real level's record,
    stacked or not, as ``_closed_q`` takes it.  On one piece Q is
    const + sum log(1 - beta z) over its 2K roots, so xi is
    e^{-const/2} / prod_i sqrt((1 - beta_2i z)(1 - beta_2i+1 z)), with no
    log or exp per point: each factor has a positive real part, so a pair's
    argument lies in (-pi, pi) and the principal root of the pair is the
    product of the factors' principal roots.  A root of a longer product
    could wrap.  Every other record takes exp(-Q/2) of ``_closed_q``."""
    if len(factors.pieces) > 1:
        return np.exp(-0.5 * _closed_q(factors, z))
    return _finite(_by_levels(_one_piece_xi, factors, z, 1), "xi")


def _finite(values: np.ndarray, name: str) -> np.ndarray:
    """``values``, unless one is not finite, which raises ``QuadratureError``."""
    if not np.all(np.isfinite(values)):
        raise QuadratureError(f"closed-form {name} is not finite", achieved_tol=math.inf)
    return values


def _by_levels(evaluate, factors: _LevelFactors, z: np.ndarray, per_root: int) -> np.ndarray:
    """``evaluate(pieces, weight, z)`` over the factors; for stacked factors
    (``_stack``), one row per level, computed for as many levels at a time
    as keep ``per_root`` entries per point and root under ``CHUNK``."""
    levels = _levels(factors.pieces[0][2])
    if not levels:
        return evaluate(factors.pieces, factors.weight, z)
    width = len(z) * max(1, max(beta.shape[-1] for *_, beta, _ in factors.pieces)) * per_root
    step = max(1, CHUNK // width)
    out = np.empty(levels + z.shape, dtype=complex)
    for s in range(0, levels[0], step):
        part = slice(s, s + step)
        out[part] = evaluate(tuple((a, b, const[part], beta[part], gamma[part])
                                   for a, b, const, beta, gamma in factors.pieces),
                             factors.weight, z)
    return out


def _one_piece_xi(pieces, weight: float, z: np.ndarray) -> np.ndarray:
    """``_closed_xi``'s product over one piece's root pairs, unchecked; the
    weight is a real level's, 1/2."""
    _, _, const, beta, _ = pieces[0]
    out = np.empty(beta.shape[:-1] + z.shape, dtype=complex)
    out[...] = np.exp(-0.5 * np.asarray(const))[..., None]
    for i in range(0, beta.shape[-1], 2):
        pair = 1.0 - beta[..., i, None] * z
        pair *= 1.0 - beta[..., i + 1, None] * z
        out /= np.sqrt(pair, out=pair)
    return out


def _piece_sum(pieces, weight: float, z: np.ndarray) -> np.ndarray:
    """``_closed_q``'s sum over the pieces, unchecked."""
    col = z[:, None]
    if len(pieces) == 1:
        _, _, const, beta, _ = pieces[0]
        return (np.asarray(const)[..., None]
                + 2.0 * weight * np.sum(np.log(1.0 - beta[..., None, :] * col), axis=-1))
    return sum(_arc_q(col, weight, *piece) for piece in pieces)


def _stack(records) -> _LevelFactors:
    """Real levels' records as one whose pieces' const, beta and gamma carry
    a leading level axis, for ``_closed_q``, which reads nothing else."""
    pieces = tuple((a, b, *(np.array([r.pieces[i][k] for r in records]) for k in (2, 3, 4)))
                   for i, (a, b, *_) in enumerate(records[0].pieces))
    return replace(records[0], pieces=pieces)


def q_function(sym: PiecewiseSymbol, z, lam):
    """Schwarz-kernel average of the log weight of ``lam`` at z inside or
    outside the circle, for a point or an array of points: of ln|omega - lam|
    at a real level, of the principal log(omega - lam) at a non-real one.
    A 1-D array of real levels gives a leading level axis.

    Both take the closed form of the level's roots (``_closed_q``), with
    Q(z; lam) = -conj Q(1/conj z; conj lam) outside the disk.  A real
    level's roots are stored per level; a non-real level's are solved on
    each call.
    """
    zs = np.asarray(z, dtype=complex)
    flat = zs.ravel()
    if not np.all(np.isfinite(flat)):
        raise ValueError("evaluation points must be finite")
    az = np.abs(flat)
    if np.any(np.abs(az - 1.0) < 1e-8):
        raise ValueError("evaluation on the unit circle requires boundary_xi")
    levels = _levels(lam)
    if levels:
        factors = _stack([_raised(record) for record in _level_records(sym, lam)])
    else:
        lam = _level(lam)
        factors = _level_factors(sym, lam) if isinstance(lam, float) else _factor_nonreal(sym, lam)
    inside = az < 1.0
    out = np.empty(levels + flat.shape, dtype=complex)
    if inside.any():
        out[..., inside] = _closed_q(factors, flat[inside])
    if not inside.all():
        out[..., ~inside] = -np.conj(_closed_q(factors.conj(), 1.0 / np.conj(flat[~inside])))
    if out.ndim == 1 and zs.ndim == 0:
        return complex(out[0])
    return out.reshape(levels + zs.shape)


def xi(sym: PiecewiseSymbol, z: complex, lam: float) -> complex:
    """Modulus part of the inverse outer function: exp(-Q/2); never zero."""
    return complex(np.exp(-0.5 * q_function(sym, complex(z), lam)))


def xi_grid(sym: PiecewiseSymbol, zs, lam) -> np.ndarray:
    """xi over an array of points, in the shape of ``zs``, behind a leading
    level axis for a 1-D array of real levels."""
    return np.exp(-0.5 * np.asarray(q_function(sym, zs, lam)))


LOG_FOURIER_N = 16384    # Fourier modes kept for the circle fast path
LOG_FOURIER_GRID = 32768  # sample grid for the smooth remainder
CIRCLE_R_MAX = 0.9995     # largest radius xi_circle accepts
# a log singularity nearer than this to the circle costs more than eps on the grid
FOURIER_REACH = math.log(1.0 / EPS) / LOG_FOURIER_GRID

# Long exponential vectors are outer products of two short tables, entry
# _BLOCK*q + p being row[q]*col[p]; that keeps the module's tables small.
_BLOCK = 128
_SHORT = np.arange(_BLOCK, dtype=float)
# half angles tau/2 = A_q + B_p of the half-offset grid tau_k = 2 pi (k + 1/2)/GRID,
# k = _BLOCK*q + p: A_q = pi _BLOCK q/GRID, and cos B_p, sin B_p as two rows
_HALF_A = math.pi * _BLOCK * np.arange(LOG_FOURIER_GRID // _BLOCK) / LOG_FOURIER_GRID
_HALF_B = np.stack((np.cos(math.pi * (_SHORT + 0.5) / LOG_FOURIER_GRID),
                    np.sin(math.pi * (_SHORT + 0.5) / LOG_FOURIER_GRID)))

# the half-offset sample grid, the phase that re-centres its FFT (with the
# FFT's 1/GRID) and the reciprocal modes
_TAU = TWO_PI * (np.arange(LOG_FOURIER_GRID) + 0.5) / LOG_FOURIER_GRID
_TAU_PHASE = (np.exp(-1j * math.pi * np.arange(LOG_FOURIER_N) / LOG_FOURIER_GRID)
              / LOG_FOURIER_GRID)
_INV_MODES = 1.0 / np.arange(1, LOG_FOURIER_N)


def _fourier_resolves(sym: PiecewiseSymbol, factors: _LevelFactors) -> bool:
    """Whether ``log_fourier``'s grid resolves the level's log weight.  Its
    periodic trapezoid rule errs by O(h^2) at a slope jump (Lyness, Math. Comp.
    28, 1974), so every seam needs a continuous slope; and by about e^{-d GRID}
    at a log singularity d from the circle (Trefethen & Weideman, SIAM Rev. 56,
    2014), so the root record's ``reach`` must be at least ``FOURIER_REACH``."""
    return sym._c1_log_seams is not None and factors.reach >= FOURIER_REACH


def _fourier_error(sym: PiecewiseSymbol, lam: float, fhat: np.ndarray, r: float) -> float:
    """A bound on Q's error at radius r from ``log_fourier``'s ``fhat``: the
    tail dropped past N modes, 2 max_{n >= N/2}(n |f_n|) r^N / (N (1 - r)),
    and the aliasing of each seam's jump J in the weight's second derivative
    p''/(p - lam), |J| (16 |cos G t|/(G (1 - r)) + 10 |sin G t|) / (pi G^3 (1 - r)),
    whose 1/G^3 term cancels half-way between grid points; NaN on a crossing."""
    n, grid = LOG_FOURIER_N, LOG_FOURIER_GRID
    t, left, right, curv_left, curv_right = sym._c1_log_seams.T
    with np.errstate(divide="ignore", invalid="ignore"):
        jump = np.abs(curv_right / (right - lam) - curv_left / (left - lam))
    alias = np.sum(jump * (16.0 * np.abs(np.cos(grid * t)) / (grid * (1.0 - r))
                           + 10.0 * np.abs(np.sin(grid * t)))) / (math.pi * grid**3)
    decay = float(np.max(np.arange(n // 2, n) * np.abs(fhat[n // 2:])))
    return (2.0 * decay * r**n / n + float(alias)) / (1.0 - r)


def _value_jumps(sym: PiecewiseSymbol, lam: float) -> list[tuple[float, float]]:
    """(angle, ln|omega+ - lam| - ln|omega- - lam|) of each value jump."""
    return [(j.theta % TWO_PI, math.log(abs(j.right - lam)) - math.log(abs(j.left - lam)))
            for j in sym.jumps if j.kind != "zero"]


# log_fourier's grid-sized work arrays, kept per thread (768 KiB each): fresh
# ones on every call cost page faults that take a third of its time
_grid_buffers = threading.local()


def _grid_work() -> tuple[np.ndarray, ...]:
    """This thread's work arrays of ``log_fourier``: two of the grid's size,
    one for its real FFT, and a view of the grid's size into that one, which
    serves until the transform writes it."""
    work = getattr(_grid_buffers, "arrays", None)
    if work is None:
        spectrum = np.empty(LOG_FOURIER_GRID // 2 + 1, dtype=complex)
        work = _grid_buffers.arrays = (np.empty(LOG_FOURIER_GRID), np.empty(LOG_FOURIER_GRID),
                                       spectrum.view(float)[:LOG_FOURIER_GRID], spectrum)
    return work


def log_fourier(sym: PiecewiseSymbol, lam: float) -> np.ndarray:
    """Fourier coefficients of ln|omega - lam| for modes 0..N-1.

    Log singularities at the level crossings and steps at the jumps carry
    exact closed-form coefficients; the continuous remainder is handled by
    an FFT on a half-offset grid, in the calling thread's work arrays
    (``_grid_work``).  The level passes ``_check_level``, and one whose
    weight the grid does not resolve (``_fourier_resolves``) raises
    ``QuadratureError``.
    """
    lam = _check_level(sym, lam)
    factors = _level_factors(sym, lam)
    if not _fourier_resolves(sym, factors):
        raise QuadratureError(f"the grid does not resolve the level {lam}", achieved_tol=math.inf)
    crossings = factors.crossings
    steps = _value_jumps(sym, lam)
    # ln|2 sin((t - t0)/2)| has coefficients -e^{-i n t0}/(2|n|) and a unit
    # step rendered as the sawtooth (pi - x)/(2 pi) has e^{-i n t0}/(2 pi i n),
    # both with zero mean: one sum of exponentials, divided by n once
    angles = np.concatenate((crossings, [t for t, _ in steps]))
    weights = np.concatenate((np.full(len(crossings), -0.5),
                              [size / (2j * math.pi) for _, size in steps]))
    fhat = np.zeros(LOG_FOURIER_N, dtype=complex)
    if len(angles):
        rows = np.exp(-1j * _BLOCK * np.multiply.outer(_SHORT, angles))
        cols = np.exp(-1j * np.multiply.outer(angles, _SHORT)) * weights[:, None]
        np.matmul(rows, cols, out=fhat.reshape(_BLOCK, -1))
        fhat[0] = 0.0
        fhat[1:] *= _INV_MODES
    rec = _record(sym)   # the symbol on the grid serves all its levels
    if rec.tau_values is None:
        rec.tau_values = sym.values(_TAU)
    ratio, chords, work, spectrum = _grid_work()
    np.subtract(rec.tau_values, lam, out=ratio)
    np.abs(ratio, out=ratio)
    if len(crossings):
        # the product of the 2 sin((tau - t0)/2), each by angle addition:
        # 2 sin(A_q - t0/2) cos B_p + 2 cos(A_q - t0/2) sin B_p
        chords.fill(1.0)
        for t0 in crossings:
            shifted = _HALF_A - 0.5 * t0
            sin_cos = 2.0 * np.stack((np.sin(shifted), np.cos(shifted)), axis=1)
            chords *= np.matmul(sin_cos, _HALF_B, out=work.reshape(-1, _BLOCK)).ravel()
        np.abs(chords, out=chords)
        ratio /= np.maximum(chords, 1e-300, out=chords)
    g = np.log(np.maximum(ratio, 1e-300, out=ratio), out=ratio)
    # each step's sawtooth (pi - x)/(2 pi), x = tau - t0 mod 2 pi, comes off g
    for t0, size in steps:
        np.subtract(_TAU, t0, out=work)
        np.add(work, TWO_PI, out=work, where=work < 0.0)
        work *= size / TWO_PI
        g += work
    g -= 0.5 * sum(size for _, size in steps)
    # g is real: the kept modes are the first half of its spectrum
    kept = np.fft.rfft(g, out=spectrum)[:LOG_FOURIER_N]
    kept *= _TAU_PHASE
    fhat += kept
    return fhat


@functools.lru_cache(maxsize=4)
def _circle_grid(r: float, m: int) -> np.ndarray:
    """The grid r e^{2 pi i k/m}, k < m, computed once per (r, m) and
    returned read-only."""
    z = r * np.exp(2j * math.pi * np.arange(m) / m)
    z.flags.writeable = False
    return z


def xi_circle(sym: PiecewiseSymbol, lam, r: float, m_out: int = 4096) -> np.ndarray:
    """xi at the m_out points r e^{2 pi i k/m_out} in one sweep, for a level,
    or as one row per level for a 1-D array of levels.

    The Schwarz average of ln|omega - lam| is a convolution on the circle,
    so one coefficient vector serves every radius.  That route is taken
    where the record needs Li2, the grid resolves the weight
    (``_fourier_resolves``) and ``_fourier_error`` is at most
    ``DEFAULT_TOL`` (up to about r = 0.998), inside the range or out;
    everywhere else xi is the level's closed form at the m_out points
    (``_closed_xi``: a product of square roots on one piece, exp(-Q/2)
    otherwise), for all such levels at once.  Each level passes
    ``_check_level``.
    """
    if not 0.0 < r <= CIRCLE_R_MAX:
        raise ValueError(f"circle radius must lie in (0, {CIRCLE_R_MAX}]")
    if not isinstance(m_out, (int, np.integer)) or m_out < 1 or m_out & (m_out - 1):
        raise ValueError(f"m_out must be an integer power of two, got {m_out!r}")
    lams = [_check_level(sym, x) for x in (lam if _levels(lam) else [lam])]
    records = [_raised(record) for record in _level_records(sym, lams)]
    out = np.empty((len(lams), m_out), dtype=complex)
    closed = []
    for k, (x, factors) in enumerate(zip(lams, records)):
        if not factors.li2_free and _fourier_resolves(sym, factors):
            fhat = log_fourier(sym, x)
            if _fourier_error(sym, x, fhat, r) <= DEFAULT_TOL:
                # 2 r^n for n = _BLOCK*q + p as r^{_BLOCK q} times 2 r^p
                c = fhat * np.multiply.outer(r ** (_BLOCK * _SHORT), 2.0 * r ** _SHORT).ravel()
                c[0] = fhat[0]
                # mode n lands on sample index n mod m_out, so fold before transforming
                if m_out < LOG_FOURIER_N:
                    c = c.reshape(-1, m_out).sum(axis=0)
                elif m_out > LOG_FOURIER_N:
                    c = np.concatenate((c, np.zeros(m_out - LOG_FOURIER_N)))
                out[k] = np.exp(-0.5 * np.fft.ifft(c) * m_out)
                continue
        closed.append(k)
    if closed:
        out[closed] = _closed_xi(_stack([records[k] for k in closed]), _circle_grid(r, m_out))
    return out if _levels(lam) else out[0]


def outer_F(sym: PiecewiseSymbol, z: complex, lam: float) -> complex:
    """Outer function with boundary modulus squared omega - lam; lam below
    the essential infimum so the logarithm is real."""
    g1, _ = sym.essential_range()
    if lam >= g1:
        raise ValueError("requires lambda below the essential infimum")
    if abs(z) >= 1.0:
        raise ValueError("outer function is defined inside the disk")
    # omega - lam > 0 here, so ln|omega - lam| is the honest logarithm
    return complex(np.exp(0.5 * q_function(sym, z, lam)))


# -- phase and arc coefficients -------------------------------------------------


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
    over the arc endpoints.  An array of many levels' arcs (``_arc_pairs``)
    gives a leading level axis."""
    zs = np.asarray(z, dtype=complex)
    if np.any(np.abs(zs) >= 1.0):
        raise ValueError("closed phase form is the interior representation")
    a, b = _arc_pairs(arcs)
    ea, eb, measure = np.exp(-1j * a), np.exp(-1j * b), arcs_measure(arcs)
    if a.ndim > 1:   # each level's arcs against every point
        ea, eb = (e.reshape(e.shape[:-1] + (1,) * zs.ndim + e.shape[-1:]) for e in (ea, eb))
        measure = measure.reshape(measure.shape + (1,) * zs.ndim)
    col = zs[..., None]
    logs = np.log(1.0 - col * ea) - np.log(1.0 - col * eb)
    value = 0.5 * math.pi * measure + 0.5j * np.sum(logs, axis=-1)
    return complex(value) if value.ndim == 0 else value


def coefficients_c(arcs):
    """Residue coefficients of the L-function at the arc end angles.

    c_j multiplies the distances from the j-th end point to every start
    point and divides by its distances to the other end points; their sum
    is sin(pi m)/pi.  All positive; the formula degenerates when two end
    angles collide, which is rejected.  A tuple for a sequence of arcs, and
    an array with one row per level for an array of many levels' arcs
    (``_arc_pairs``), whose first failing level raises.
    """
    a, b = _arc_pairs(arcs)
    alpha, beta = np.exp(1j * a), np.exp(1j * b)
    # the scalar modulus hypot(re, im), which the array modulus can miss by an ulp
    chords = beta[..., :, None] - beta[..., None, :]
    gaps = np.hypot(chords.real, chords.imag)
    own = np.eye(a.shape[-1], dtype=bool)
    merged = ((gaps < 1e-8) & ~own).any(axis=(-2, -1))
    # gaps under 1e-8 belong to merged levels, refused below
    denom = np.prod(np.where(own, 1.0, np.maximum(gaps, 1e-8)), axis=-1)
    c = np.prod(np.abs(beta[..., :, None] - alpha[..., None, :]), axis=-1) / (2.0 * math.pi * denom)
    bad = merged | (c <= 0.0).any(axis=-1)
    if bad.any():
        first = np.unravel_index(np.argmax(bad), bad.shape)
        if merged[first]:
            raise ValueError("merged singularities: coincident arc end angles")
        raise ValueError("nonpositive arc coefficient; arcs are inconsistent")
    return c if isinstance(arcs, np.ndarray) else tuple(c.tolist())


def L_function(arcs, z: complex) -> complex:
    """L(z) in product form: (i/pi) e^{-i pi m} prod (1-z conj(alpha))/(1-z conj(beta))."""
    a, b = _arc_pairs(arcs)
    denom = 1.0 - z * np.exp(-1j * b)
    if np.any(np.abs(denom) < 1e-13):
        raise ZeroDivisionError("L has a simple pole at an arc end point")
    m = arcs_measure(arcs)
    prod = np.prod((1.0 - z * np.exp(-1j * a)) / denom)
    return complex(1j / math.pi * np.exp(-1j * math.pi * m) * prod)


def L_partial_fraction(arcs, z: complex, c: tuple[float, ...] | None = None) -> complex:
    """L(z) as a pole sum with the residue coefficients ``c`` (by default
    ``coefficients_c(arcs)``) plus its constant."""
    c = c or coefficients_c(arcs)
    a, b = _arc_pairs(arcs)
    beta = np.exp(1j * b)
    total = 1j / math.pi * math.cos(math.pi * arcs_measure(arcs))
    for cj, bj in zip(c, beta):
        total += cj * schwarz_H(z * np.conj(bj))
    return complex(total)


def L_check(arcs, n_samples: int = 50) -> float:
    """Largest discrepancy between the two L forms on random disk points."""
    rng = np.random.default_rng(7)
    c = coefficients_c(arcs)
    worst = 0.0
    for _ in range(n_samples):
        z = rng.uniform(0.05, 0.95) * np.exp(1j * rng.uniform(0.0, TWO_PI))
        worst = max(worst, abs(L_function(arcs, z) - L_partial_fraction(arcs, z, c)))
    return worst


# -- boundary values -------------------------------------------------------------

def boundary_sigma(sym: PiecewiseSymbol, zeta: float, lam: float) -> complex:
    """Common unimodular factor of the two one-sided boundary values of xi:
    exp(-i Im Q+/2), Q+ the closed form of the root record at z = e^{i zeta}.
    Its error estimate, the sum of (eps + e)/|1 - beta z| over the roots beta
    (e their ``beta_error``) and of eps (1 + |J|)/|1 - z/s| over the value
    jumps s of the log weight by J, raises ``QuadratureError`` above
    ``DEFAULT_TOL``; a jump angle or omega(zeta) = lambda ``ValueError``; and
    the level passes ``_check_level``.
    """
    theta = float(zeta) % TWO_PI
    lam = _check_level(sym, lam)
    if sym._is_jump_angle(theta):
        raise ValueError("boundary value undefined here: jump angle")
    if abs(sym.eval(theta) - lam) <= 1e-13:
        raise ValueError("boundary value undefined here: omega(zeta) = lambda")
    factors = _level_factors(sym, lam)
    z = np.exp(1j * np.array([theta]))
    betas = np.concatenate([beta for *_, beta, _ in factors.pieces])
    s, J = np.array(_value_jumps(sym, lam)).reshape(-1, 2).T
    with np.errstate(divide="ignore"):
        err = (np.sum((EPS + factors.beta_error) / np.abs(1.0 - betas * z))
               + np.sum(EPS * (1.0 + np.abs(J)) / np.abs(1.0 - z * np.exp(-1j * s))))
    if not err <= DEFAULT_TOL:
        raise QuadratureError(f"boundary value at angle {theta} loses up to {err:.3e} "
                              "to rounding next to a root or jump", achieved_tol=err)
    return complex(np.exp(-0.5j * _closed_q(factors, z)[0].imag))


def boundary_xi(sym: PiecewiseSymbol, zeta: float, lam: float, side: str) -> complex:
    """One-sided boundary value of xi: sigma times |omega - lam|^{-1/2} from
    inside ('+'), which is exp(-Q+/2), and |omega - lam|^{+1/2} from outside ('-')."""
    if side not in ("+", "-"):
        raise ValueError("side must be '+' or '-'")
    sigma = boundary_sigma(sym, zeta, lam)
    mod = abs(sym.eval(float(zeta) % TWO_PI) - lam)
    return complex(sigma * mod ** (-0.5 if side == "+" else 0.5))


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
        # the Poisson mass of the arcs is the real part of the phase, over pi/2
        return 2.0 / math.pi * phase_A_closed(level.arcs, self.z).real

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
