"""Sublevel sets, exceptional values, and the crossing-count multiplicity."""

from __future__ import annotations

import bisect
import math
import weakref
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CountingError, ExceptionalLevelError, InadmissibleIntervalError
from .symbol import ANGLE_TOL, TWO_PI, PiecewiseSymbol, angles_on

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

    def contains(self, theta: float) -> bool:
        return 0.0 < (theta - self.alpha) % TWO_PI < self.length


def _arc_pairs(arcs):
    a = np.array([arc.alpha for arc in arcs])
    b = np.array([arc.beta for arc in arcs])
    return a, b


def arcs_measure(arcs) -> float:
    """Normalized measure of a union of arcs."""
    a, b = _arc_pairs(arcs)
    return float(np.sum(b - a)) / TWO_PI


@dataclass(frozen=True)
class LevelSet:
    """The set {omega < lambda} as ordered disjoint arcs."""

    lam: float
    arcs: tuple[Arc, ...]
    full: bool = False

    @property
    def measure(self) -> float:
        return 1.0 if self.full else arcs_measure(self.arcs)

    @property
    def m(self) -> int:
        return len(self.arcs)


@dataclass(frozen=True)
class ExceptionalSet:
    thresholds: tuple[float, ...]
    critical: tuple[float, ...]
    # (angle, value) of each critical point inside a piece, off the jump set
    critical_points: tuple[tuple[float, float], ...]

    @cached_property
    def values(self) -> tuple[float, ...]:
        return tuple(sorted(set(self.thresholds) | set(self.critical)))

    def distance(self, lam: float) -> float:
        return min((abs(lam - v) for v in self.values), default=math.inf)


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
        found += [t % TWO_PI for t in angles_on(piece.poly.roots(x), piece.theta_start - ANGLE_TOL,
                                                piece.theta_end + ANGLE_TOL)]
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


class _SymbolAnalysis:
    """The exceptional set, the admissible intervals and, on first use, the
    counting report of each interval: the multiplicity is constant on an
    admissible interval, so one report serves all its levels.  Holds no
    reference to the symbol, so the weak-keyed memo can drop it.
    """

    def __init__(self, sym: PiecewiseSymbol):
        self.exceptional = _exceptional_set(sym)
        vals = self.exceptional.values
        g1, g2 = sym.essential_range()
        points = [g1] + [v for v in vals if g1 < v < g2] + [g2]
        self.intervals = tuple(zip(points[:-1], points[1:]))
        # the intervals shrunk to their points more than GUARD from every
        # exceptional value
        self._lo = [max([lo] + [v + GUARD for v in vals if v <= lo]) for lo, _ in self.intervals]
        self._hi = [min([hi] + [v - GUARD for v in vals if v >= hi]) for _, hi in self.intervals]
        self._reports: dict[int, CountReport] = {}

    def index(self, a: float, b: float | None = None) -> int | None:
        """Index of the admissible interval, shrunk by the guard, that holds
        the level ``a`` or the interval [a, b]; None if there is none."""
        b = a if b is None else b
        i = bisect.bisect_left(self._lo, a) - 1
        return i if i >= 0 and a <= b < self._hi[i] else None

    def report(self, sym: PiecewiseSymbol, i: int) -> CountReport:
        if i not in self._reports:
            self._reports[i] = _count(sym, self._lo[i], self._hi[i])
        return self._reports[i]


_analyses: "weakref.WeakKeyDictionary[PiecewiseSymbol, _SymbolAnalysis]" = (
    weakref.WeakKeyDictionary())


def _analysis(sym: PiecewiseSymbol) -> _SymbolAnalysis:
    """The symbol's analysis; symbols are immutable, so it is built once."""
    an = _analyses.get(sym)
    if an is None:
        an = _analyses[sym] = _SymbolAnalysis(sym)
    return an


def exceptional_set(sym: PiecewiseSymbol) -> ExceptionalSet:
    """Threshold values at jumps plus critical values of the smooth part.

    Locally constant pieces contribute their value as critical: a level
    equal to a plateau breaks the finite-arc structure of the sublevel set.
    """
    return _analysis(sym).exceptional


def _exceptional_set(sym: PiecewiseSymbol) -> ExceptionalSet:
    thresholds = []
    for j in sym.jumps:
        thresholds.extend((j.left, j.right))
    critical = []
    points: list[tuple[float, float]] = []
    for piece in sym.pieces:
        if piece.poly.is_constant():
            critical.append(float(piece.poly.a[0]))
            continue
        for t in angles_on(piece.poly.derivative().roots(), piece.theta_start - ANGLE_TOL,
                           piece.theta_end + ANGLE_TOL):
            tw = t % TWO_PI
            if any(abs(tw - s) < 1e-9 or abs(abs(tw - s) - TWO_PI) < 1e-9 for s, _ in points):
                continue
            if sym._is_jump_angle(tw):
                continue
            points.append((tw, float(piece.poly(t))))
            critical.append(points[-1][1])
    return ExceptionalSet(tuple(sorted(set(thresholds))), tuple(sorted(set(critical))),
                          tuple(points))


def _check_level(sym: PiecewiseSymbol, lam: float):
    if not math.isfinite(lam):
        raise ValueError(f"level {lam} is not finite")
    if exceptional_set(sym).distance(lam) < GUARD:
        raise ExceptionalLevelError(f"level {lam} within {GUARD} of the exceptional set")


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

    # (theta, is_alpha, kind); solve_level rejects exceptional levels
    crossings = [(theta, sign < 0, "root") for theta, sign in solve_level(sym, lam)]
    crossings += [(sym.jumps[j.k].theta, j.sign == "plus", "jump")
                  for j in sym.jump_intervals if j.low < lam < j.high]
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


def _validate_level(sym: PiecewiseSymbol, level: LevelSet):
    """Sampled sign check: omega < lambda inside arcs, > lambda outside."""
    lam, arcs = level.lam, level.arcs
    for i, arc in enumerate(arcs):
        gap_end = arcs[(i + 1) % len(arcs)].alpha
        if gap_end <= arc.beta:
            gap_end += TWO_PI
        for lo, hi, sign, what in ((arc.alpha, arc.beta, 1.0, "arc"),
                                   (arc.beta, gap_end, -1.0, "complement gap")):
            pad = min(1e-7, 1e-3 * (hi - lo))
            t = np.linspace(lo + pad, hi - pad, 64)
            # skip sample points that collide with a jump angle
            t = t[~np.isin(np.round(t % TWO_PI, 9), np.round(sym._jump_angles, 9))]
            if np.any(sign * (sym.values(t) - lam) >= 0.0):
                raise CountingError(f"{what} {i} fails the sign check at level {lam}")


def admissible_intervals(sym: PiecewiseSymbol) -> list[tuple[float, float]]:
    """Maximal open subintervals of (gamma1, gamma2) avoiding the exceptional set."""
    return list(_analysis(sym).intervals)


def level_report(sym: PiecewiseSymbol, lam: float) -> CountReport:
    """Counting report of the admissible interval that holds the level
    ``lam``, shared by every level of that interval."""
    an = _analysis(sym)
    i = an.index(float(lam))
    if i is None:
        raise ValueError(f"level {lam} lies in no admissible interval")
    return an.report(sym, i)


def counting_report(sym: PiecewiseSymbol, interval) -> CountReport:
    """Crossing and jump counts on an admissible interval, and their common sum.

    The counts are constant on the admissible interval that holds [a, b],
    so this is that interval's one report, shared with ``level_report``.
    """
    a, b = float(interval[0]), float(interval[1])
    g1, g2 = sym.essential_range()
    if not (g1 < a < b < g2):
        raise InadmissibleIntervalError(
            f"interval ({a}, {b}) not strictly inside the spectrum ({g1}, {g2})"
        )
    an = _analysis(sym)
    i = an.index(a, b)
    if i is None:
        raise InadmissibleIntervalError(
            f"interval ({a}, {b}) comes within {GUARD} of an exceptional value"
        )
    return an.report(sym, i)


def _count(sym: PiecewiseSymbol, a: float, b: float) -> CountReport:
    """Counts on [a, b]: the root counts at the midpoint, checked for
    constancy at four more interior samples; a mismatch between the two
    orientation sums signals a root-finder defect."""
    def root_counts(lam):
        roots = solve_level(sym, lam)
        nm = sum(1 for _, s in roots if s > 0)
        return len(roots) - nm, nm  # (n_plus: omega' < 0, n_minus: omega' > 0)

    n_plus, n_minus = root_counts(0.5 * (a + b))
    for frac in (0.125, 0.3125, 0.6875, 0.875):
        if root_counts(a + frac * (b - a)) != (n_plus, n_minus):
            raise CountingError("root counts vary across the interval")

    signs = [j.sign for j in sym.jump_intervals if j.contains_interval(a, b)]
    s_plus, s_minus = signs.count("plus"), signs.count("minus")

    if n_plus + s_plus != n_minus + s_minus:
        raise CountingError(f"counting inconsistency: {n_plus}+{s_plus} != {n_minus}+{s_minus}")
    return CountReport(n_plus, n_minus, s_plus, s_minus, n_plus + s_plus)
