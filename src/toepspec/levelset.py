"""Sublevel sets, exceptional values, and the crossing-count multiplicity."""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CountingError, ExceptionalLevelError, InadmissibleIntervalError
from .symbol import ANGLE_TOL, TWO_PI, PiecewiseSymbol

# Levels closer than this to an exceptional value are rejected: crossings
# there cannot be classified reliably.
GUARD = 1e-9


@dataclass(frozen=True)
class Arc:
    """Counterclockwise arc (alpha, beta) with endpoint provenance."""

    alpha: float
    beta: float
    alpha_kind: str = "root"   # 'root' or 'jump'
    beta_kind: str = "root"

    @property
    def length(self) -> float:
        return self.beta - self.alpha

    @property
    def measure(self) -> float:
        return self.length / TWO_PI

    def contains(self, theta: float) -> bool:
        return 0.0 < (theta - self.alpha) % TWO_PI < self.length


@dataclass(frozen=True)
class LevelSet:
    """The set {omega < lambda} as ordered disjoint arcs."""

    lam: float
    arcs: tuple[Arc, ...]
    full: bool = False

    @property
    def measure(self) -> float:
        if self.full:
            return 1.0
        return sum(a.measure for a in self.arcs)

    @property
    def m(self) -> int:
        return len(self.arcs)


@dataclass(frozen=True)
class ExceptionalSet:
    thresholds: tuple[float, ...]
    critical: tuple[float, ...]

    @cached_property
    def values(self) -> tuple[float, ...]:
        return tuple(sorted(set(self.thresholds) | set(self.critical)))

    def distance(self, lam: float) -> float:
        vals = self.values
        if not vals:
            return math.inf
        return min(abs(lam - v) for v in vals)


@dataclass(frozen=True)
class CountReport:
    n_plus: int
    n_minus: int
    s_plus: int
    s_minus: int
    m: int


def level_angles_raw(sym: PiecewiseSymbol, x: float) -> np.ndarray:
    """All angles where a piece polynomial equals ``x``, without validation.

    Used for quadrature breakpoints; tangential roots are kept, plateau
    pieces contribute nothing.
    """
    found = []
    for piece in sym.pieces:
        for r in piece.poly.roots(x):
            for shift in (0.0, TWO_PI):
                t = r + shift
                if piece.theta_start - ANGLE_TOL <= t <= piece.theta_end + ANGLE_TOL:
                    found.append(t % TWO_PI)
    if not found:
        return np.empty(0)
    found = np.sort(np.array(found))
    keep = [found[0]]
    for t in found[1:]:
        if t - keep[-1] > 1e-9:
            keep.append(t)
    if len(keep) > 1 and keep[0] + TWO_PI - keep[-1] < 1e-9:
        keep.pop()
    return np.array(keep)


_exceptional: "weakref.WeakKeyDictionary[PiecewiseSymbol, ExceptionalSet]" = (
    weakref.WeakKeyDictionary())


def exceptional_set(sym: PiecewiseSymbol) -> ExceptionalSet:
    """Threshold values at jumps plus critical values of the smooth part.

    Locally constant pieces contribute their value as critical: a level
    equal to a plateau breaks the finite-arc structure of the sublevel set.
    Symbols are immutable, so the set is computed once per symbol.
    """
    exc = _exceptional.get(sym)
    if exc is None:
        exc = _exceptional[sym] = _exceptional_set(sym)
    return exc


def _exceptional_set(sym: PiecewiseSymbol) -> ExceptionalSet:
    thresholds = []
    for j in sym.jumps:
        thresholds.extend((j.left, j.right))
    critical = []
    seen_angles: list[float] = []
    for piece in sym.pieces:
        if piece.poly.is_constant():
            critical.append(float(piece.poly.a[0]))
            continue
        for r in piece.poly.derivative().roots():
            for shift in (0.0, TWO_PI):
                t = r + shift
                if piece.theta_start - ANGLE_TOL <= t <= piece.theta_end + ANGLE_TOL:
                    tw = t % TWO_PI
                    if any(abs(tw - s) < 1e-9 or abs(abs(tw - s) - TWO_PI) < 1e-9 for s in seen_angles):
                        continue
                    if sym._is_jump_angle(tw):
                        continue
                    seen_angles.append(tw)
                    critical.append(float(piece.poly(t)))
    return ExceptionalSet(tuple(sorted(set(thresholds))), tuple(sorted(set(critical))))


def _check_level(sym: PiecewiseSymbol, lam: float, exc: ExceptionalSet | None = None):
    exc = exc or exceptional_set(sym)
    if exc.distance(lam) < GUARD:
        raise ExceptionalLevelError(f"level {lam} within {GUARD} of the exceptional set")
    return exc


def solve_level(sym: PiecewiseSymbol, lam: float) -> list[tuple[float, int]]:
    """Simple roots of omega = lambda in piece interiors with the sign of omega'.

    Requires lambda away from the exceptional set, which guarantees all
    crossings are transversal and avoid the jump angles.
    """
    _check_level(sym, lam)
    out = []
    for theta in level_angles_raw(sym, lam):
        d = sym.derivative_values(theta)
        if abs(d) < 1e-9:
            raise ExceptionalLevelError(
                f"tangential crossing at angle {theta}; level {lam} is effectively critical"
            )
        out.append((float(theta), 1 if d > 0 else -1))
    return out


def sublevel_set(sym: PiecewiseSymbol, lam: float) -> LevelSet:
    """Assemble {omega < lambda} from root crossings and spanned jumps.

    Downward crossings open an arc (alpha endpoints), upward crossings
    close one (beta endpoints); arcs are returned in counterclockwise
    order starting from the smallest alpha.
    """
    g1, g2 = sym.essential_range()
    if lam <= g1:
        return LevelSet(lam, ())
    if lam > g2:
        return LevelSet(lam, (), full=True)
    _check_level(sym, lam)

    crossings = []  # (theta, is_alpha, kind)
    for theta, sign in solve_level(sym, lam):
        crossings.append((theta, sign < 0, "root"))
    for j in sym.jump_intervals:
        if j.low < lam < j.high:
            theta = sym.jumps[j.k].theta
            crossings.append((theta, j.sign == "plus", "jump"))
    if not crossings:
        # lambda in (g1, g2) always has crossings for a non-constant symbol
        raise ExceptionalLevelError(f"no crossings found at level {lam}")
    crossings.sort()
    n = len(crossings)
    if n % 2 != 0:
        raise CountingError(f"odd number of crossings ({n}) at level {lam}")
    flags = [c[1] for c in crossings]
    if any(flags[i] == flags[(i + 1) % n] for i in range(n)):
        raise CountingError(f"crossing directions do not alternate at level {lam}")

    start = 0 if flags[0] else 1
    arcs = []
    for i in range(start, start + n, 2):
        t_a, _, k_a = crossings[i % n]
        t_b, _, k_b = crossings[(i + 1) % n]
        if t_b <= t_a:
            t_b += TWO_PI
        arcs.append(Arc(t_a, t_b, k_a, k_b))
    arcs.sort(key=lambda a: a.alpha)
    level = LevelSet(lam, tuple(arcs))
    _validate_level(sym, level)
    return level


def _validate_level(sym: PiecewiseSymbol, level: LevelSet, samples: int = 64):
    """Sampled sign check: omega < lambda inside arcs, > lambda outside."""
    lam = level.lam
    eps = 1e-7
    for i, arc in enumerate(level.arcs):
        pad = min(eps, 1e-3 * arc.length)
        t = np.linspace(arc.alpha + pad, arc.beta - pad, samples)
        # skip sample points that collide with a jump angle
        t = t[~np.isin(np.round(t % TWO_PI, 9), np.round(sym._jump_angles, 9))]
        if np.any(sym.values(t) >= lam):
            raise CountingError(f"arc {i} fails the sublevel sign check at level {lam}")
        nxt = level.arcs[(i + 1) % len(level.arcs)]
        gap_start, gap_end = arc.beta, nxt.alpha
        if gap_end <= gap_start:
            gap_end += TWO_PI
        pad = min(eps, 1e-3 * (gap_end - gap_start))
        t = np.linspace(gap_start + pad, gap_end - pad, samples)
        t = t[~np.isin(np.round(t % TWO_PI, 9), np.round(sym._jump_angles, 9))]
        if np.any(sym.values(t) <= lam):
            raise CountingError(f"complement gap {i} fails the sign check at level {lam}")


def admissible_intervals(sym: PiecewiseSymbol) -> list[tuple[float, float]]:
    """Maximal open subintervals of (gamma1, gamma2) avoiding the exceptional set."""
    g1, g2 = sym.essential_range()
    cuts = [v for v in exceptional_set(sym).values if g1 < v < g2]
    points = [g1] + sorted(cuts) + [g2]
    return [(points[i], points[i + 1]) for i in range(len(points) - 1)]


def _check_interval(sym: PiecewiseSymbol, interval, exc: ExceptionalSet):
    a, b = float(interval[0]), float(interval[1])
    g1, g2 = sym.essential_range()
    if not (g1 < a < b < g2):
        raise InadmissibleIntervalError(
            f"interval ({a}, {b}) not strictly inside the spectrum ({g1}, {g2})"
        )
    for v in exc.values:
        if a - GUARD <= v <= b + GUARD:
            raise InadmissibleIntervalError(
                f"interval ({a}, {b}) meets the exceptional value {v}"
            )
    return a, b


def counting_report(sym: PiecewiseSymbol, interval) -> CountReport:
    """Crossing and jump counts on an admissible interval, and their common sum.

    The root counts are evaluated at the midpoint and checked for
    constancy at five interior samples; a mismatch between the two
    orientation sums signals a root-finder defect.
    """
    exc = exceptional_set(sym)
    a, b = _check_interval(sym, interval, exc)

    def root_counts(lam):
        roots = solve_level(sym, lam)
        nm = sum(1 for _, s in roots if s > 0)
        return len(roots) - nm, nm  # (n_plus: omega' < 0, n_minus: omega' > 0)

    n_plus, n_minus = root_counts(0.5 * (a + b))
    for frac in (0.125, 0.3125, 0.5, 0.6875, 0.875):
        if root_counts(a + frac * (b - a)) != (n_plus, n_minus):
            raise CountingError("root counts vary across the interval")

    s_plus = s_minus = 0
    for j in sym.jump_intervals:
        if j.contains_interval(a, b):
            if j.sign == "plus":
                s_plus += 1
            else:
                s_minus += 1

    if n_plus + s_plus != n_minus + s_minus:
        raise CountingError(
            f"counting inconsistency: {n_plus}+{s_plus} != {n_minus}+{s_minus}"
        )
    return CountReport(n_plus, n_minus, s_plus, s_minus, n_plus + s_plus)
