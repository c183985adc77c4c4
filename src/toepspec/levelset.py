"""Sublevel sets, exceptional values, the crossing-count multiplicity, and
each real level's one stored root record, which the level sets and the
Schwarz average Q both read."""

from __future__ import annotations

import cmath
import math
import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    CountingError,
    ExceptionalLevelError,
    InadmissibleIntervalError,
    QuadratureError,
    ToepspecError,
)
from .symbol import (
    ANGLE_TOL,
    DEFAULT_TOL,
    GUARD,
    TWO_PI,
    UNIT_ROOT_TOL,
    ExceptionalSet,
    PiecewiseSymbol,
    certified_roots,
    distinct_angles,
    uncertified,
)

# Elements in one temporary of the paths that take many levels at once; the
# levels go through in chunks that keep each temporary under it.
CHUNK = 2**12
# Points of the sign check on each arc and each gap of a level set.
SIGN_SAMPLES = 64


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
    """The start and end angles of a sequence of arcs, or the two rows of an
    array of them, (2, ..., m), whose leading axes hold many levels' arcs."""
    if isinstance(arcs, np.ndarray):
        return arcs[0], arcs[1]
    a = np.array([arc.alpha for arc in arcs])
    b = np.array([arc.beta for arc in arcs])
    return a, b


def arcs_measure(arcs):
    """Normalized measure of a union of arcs; one per level of an array of
    arcs (``_arc_pairs``)."""
    a, b = _arc_pairs(arcs)
    total = np.sum(b - a, axis=-1)
    return total / TWO_PI if total.ndim else float(total) / TWO_PI


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
class CountReport:
    n_plus: int
    n_minus: int
    s_plus: int
    s_minus: int
    m: int


# Per-symbol bound on the number of stored root records: a benchmark job
# stores at most about 400, and a record takes 1-2 KB.
LEVEL_STORE_RECORDS = 4096
_lock = threading.Lock()


class _SymbolRecord:
    """The caches of one symbol, each filled on first use: one counting
    report per admissible interval, where the multiplicity is constant
    (``report``), the symbol on each of ``log_fourier``'s grids it was asked
    for (``grid_values``, at most one per power of two) and an LRU store of
    at most ``LEVEL_STORE_RECORDS`` real-level root records (``stored``,
    ``store``).  The record holds no reference to the symbol, so the
    weak-keyed dict can drop it.
    """

    def __init__(self):
        self.reports: dict[int, CountReport] = {}
        self.grid_values: dict[int, np.ndarray] = {}
        self.levels: OrderedDict = OrderedDict()

    def report(self, sym: PiecewiseSymbol, i: int) -> CountReport:
        if i not in self.reports:
            self.reports[i] = _count(sym, sym.admissible_intervals[i])
        return self.reports[i]

    def stored(self, keys) -> list:
        """The stored value of each key, None where there is none; a hit
        becomes the most recently used."""
        with _lock:
            hits = [self.levels.get(key) for key in keys]
            for key, hit in zip(keys, hits):
                if hit is not None:
                    self.levels.move_to_end(key)
        return hits

    def store(self, key, value):
        with _lock:
            if key not in self.levels:
                if len(self.levels) >= LEVEL_STORE_RECORDS:
                    self.levels.popitem(last=False)
                self.levels[key] = value


_records: "weakref.WeakKeyDictionary[PiecewiseSymbol, _SymbolRecord]" = weakref.WeakKeyDictionary()


def _record(sym: PiecewiseSymbol) -> _SymbolRecord:
    """The symbol's one record; symbols are immutable, so it is made once."""
    with _lock:
        rec = _records.get(sym)
        if rec is None:
            rec = _records[sym] = _SymbolRecord()
        return rec


@dataclass(frozen=True)
class _LevelFactors:
    """A level's log weight factored on each piece [a, b] of the symbol as
    const + weight (sum log(1 - beta w) + sum log(1 - gamma/w)), w = e^{i theta}:
    the tuples (a, b, const, beta, gamma), with |beta|, |gamma| <= 1, the
    total count of roots behind them, their worst backward error and, at a
    real level, the sorted angles where it is crossed, only inside (gamma1,
    gamma2), each beta's first-order error, its root's from ``certified_roots``
    (over |zeta|^2 outside), and the other roots' ``reach`` (``_factor_level``).
    Each end b is the next piece's start: the two pieces at a seam share it.

    At a real level the weight is ln|omega - lam|, the real part: const is
    real, gamma = conj(beta) and weight 1/2.  At a non-real one it is the
    principal log(omega - zeta), with weight 1, no crossings and ``reach`` inf.
    """

    pieces: tuple
    weight: float
    roots: int
    achieved_tol: float
    crossings: np.ndarray
    beta_error: np.ndarray
    reach: float

    @property
    def li2_free(self) -> bool:
        """Whether Q needs no dilogarithm: one piece (the Wiener-Hopf form),
        or constant pieces only; stacked (``hardy._stack``) or not."""
        return len(self.pieces) == 1 or all(beta.shape[-1] == 0 for *_, beta, _ in self.pieces)

    def conj(self) -> "_LevelFactors":
        """The factorization at the conjugate level: a root zeta becomes
        1/conj(zeta), on the other side of the circle."""
        pieces = tuple((a, b, np.conj(const), np.conj(gamma), np.conj(beta))
                       for a, b, const, beta, gamma in self.pieces)
        return replace(self, pieces=pieces)


def _plateau_error(sym: PiecewiseSymbol, lam) -> ExceptionalLevelError | None:
    """The ``ExceptionalLevelError`` of a level equal to a constant piece's
    value, where the log weight is -inf on a whole arc; else None."""
    if any(p.poly.is_constant() and p.poly.a[0] == lam for p in sym.pieces):
        return ExceptionalLevelError(f"level {lam} is the value of a constant piece")
    return None


def _piece_roots(poly, lams: np.ndarray):
    """The reversed Laurent coefficients of p - lam for each level (a row
    each) and ``certified_roots``' roots, backward errors and root errors."""
    c = np.empty((len(lams), 2 * poly.degree + 1), dtype=complex)
    c[:] = poly._laurent()[::-1]
    c[:, poly.degree] = poly.a[0] - lams
    return (c,) + certified_roots(c)


def _factor_level(sym: PiecewiseSymbol, lams: np.ndarray) -> list:
    """Each real level's p(theta) - lam = c e^{-iK theta} prod (e^{i theta} - zeta)
    on each piece, split into its roots zeta: the levels' records, or for a
    level that fails, the error its solve raises.  A piece's roots for every
    level come from one ``certified_roots`` call, and the classification
    below runs on all levels at once.

    ln|w - zeta| is ln|zeta| (when |zeta| > 1) plus Re log(1 - beta w),
    beta = conj(zeta) or 1/zeta.  Only inside (gamma1, gamma2) is a root
    within ``UNIT_ROOT_TOL`` of the circle, at an angle on its piece (to
    ``ANGLE_TOL``), a crossing; ``reach`` is the least over the other roots of
    max(|ln|zeta||, angle from the piece).  A level on a constant piece's value
    fails with ``ExceptionalLevelError``, and one whose roots on some piece
    miss their certificate with the first such piece's ``QuadratureError``.
    """
    lams = np.asarray(lams, dtype=float)
    out: list = [_plateau_error(sym, lam) for lam in lams]
    ok = [i for i, error in enumerate(out) if error is None]
    if not ok:
        return out
    lams = lams[ok]
    g1, g2 = sym.essential_range()
    crossable = (g1 < lams) & (lams < g2)
    roots, reach, backward = 0, np.full(len(lams), math.inf), [np.zeros(len(lams))]
    parts = []   # per piece: (a, end, const, beta, root angles, crossing mask, beta errors)
    for piece, nxt in zip(sym.pieces, sym.pieces[1:] + sym.pieces[:1]):
        a, b, poly, end = piece.theta_start, piece.theta_end, piece.poly, nxt.theta_start
        if poly.is_constant():
            const = np.array([math.log(abs(poly.a[0] - lam)) for lam in lams])
            none = np.empty((len(lams), 0))
            parts.append((a, end, const, none.astype(complex), none, none.astype(bool), none))
            continue
        c, zeta, worst, error = _piece_roots(poly, lams)
        backward.append(worst)
        roots += zeta.shape[1]
        modulus = np.abs(zeta)
        theta = np.mod(np.angle(zeta), TWO_PI)
        off = np.mod(theta - a, TWO_PI)
        away = np.maximum(0.0, np.minimum(off - (b - a), TWO_PI - off))
        cross = crossable[:, None] & (np.abs(modulus - 1.0) < UNIT_ROOT_TOL) & (away <= ANGLE_TOL)
        logm = np.log(modulus)
        reach = np.minimum(reach, np.min(np.where(cross, math.inf, np.maximum(
            np.abs(logm), away)), axis=1))
        far = modulus > 1.0
        const = math.log(abs(c[0, 0])) + np.sum(np.where(far, logm, 0.0), axis=1)
        beta = np.where(far, 1.0 / zeta, np.conj(zeta))
        parts.append((a, end, const, beta, theta, cross, np.where(far, error / modulus**2, error)))
    # a level's error is that of its first piece whose roots miss their certificate
    backward = np.array(backward)
    uncertain = ~(backward <= DEFAULT_TOL)
    worst = np.max(backward, axis=0)
    for j, i in enumerate(ok):
        if uncertain[:, j].any():
            out[i] = uncertified(float(backward[np.argmax(uncertain[:, j]), j]))
            continue
        out[i] = _LevelFactors(
            tuple((a, end, float(const[j]), beta[j].copy(), np.conj(beta[j]))
                  for a, end, const, beta, *_ in parts),
            0.5, roots, float(worst[j]),
            distinct_angles(np.concatenate([theta[j][cross[j]] for *_, theta, cross, _ in parts])),
            np.concatenate([np.empty(0)] + [error[j] for *_, error in parts]), float(reach[j]))
    return out


def _factor_nonreal(sym: PiecewiseSymbol, lam: complex) -> _LevelFactors:
    """A non-real level's factors: p - lam = c e^{-iK theta} prod (e^{i theta} - zeta)
    on each piece, with the weight the principal log(omega - zeta).

    A root inside the circle contributes i theta + log(1 - zeta/w), one
    outside log(-zeta) + log(1 - w/zeta).  p - lam stays on the line
    Im = -Im lam, so it does not wind around 0 and exactly K roots lie
    inside: the i theta terms cancel e^{-iK theta}, and another count raises
    ``QuadratureError``.  A root within 1e-8 of the circle is a crossing of
    Re lam moved by i Im lam, to |zeta| ~ exp(-Im lam / p'(arg zeta)), so it
    lies inside exactly when Im lam p'(arg zeta) > 0; its modulus alone would
    place it by rounding.  The factors' logs are continuous on the circle,
    and so is the principal log(p - lam), so they differ by one 2 pi i k,
    read off at the midpoint.  Roots that miss their certificate raise its
    ``QuadratureError``, and a level on a constant piece's value
    ``ExceptionalLevelError``.
    """
    _raised(_plateau_error(sym, lam))
    none = np.empty(0, dtype=complex)
    pieces, roots, worst = [], 0, 0.0
    for piece, nxt, slope in zip(sym.pieces, sym.pieces[1:] + sym.pieces[:1], sym._dpolys):
        a, b, poly, end = piece.theta_start, piece.theta_end, piece.poly, nxt.theta_start
        if poly.is_constant():
            pieces.append((a, end, cmath.log(poly.a[0] - lam), none, none))
            continue
        c, zeta, backward, _ = _piece_roots(poly, np.array([lam]))
        if not backward[0] <= DEFAULT_TOL:
            raise uncertified(float(backward[0]))
        c, zeta = c[0], zeta[0]
        worst = max(worst, float(backward[0]))
        roots += len(zeta)
        modulus = np.abs(zeta)
        inside = np.where(np.abs(modulus - 1.0) < 1e-8,
                          lam.imag * slope(np.angle(zeta)) > 0.0, modulus < 1.0)
        if np.count_nonzero(inside) != poly.degree:
            raise QuadratureError(f"level {lam}: {np.count_nonzero(inside)} of "
                                  f"{len(zeta)} roots placed inside the circle",
                                  achieved_tol=math.inf)
        beta, gamma = 1.0 / zeta[~inside], zeta[inside]
        const = cmath.log(c[0]) + complex(np.sum(np.log(-zeta[~inside])))
        w = cmath.exp(0.5j * (a + b))
        factored = const + np.sum(np.log(1.0 - beta * w)) + np.sum(np.log(1.0 - gamma / w))
        k = round((cmath.log(poly(0.5 * (a + b)) - lam) - factored).imag / TWO_PI)
        pieces.append((a, end, const + 2j * math.pi * k, beta, gamma))
    return _LevelFactors(tuple(pieces), 1.0, roots, worst, np.empty(0), np.empty(0), math.inf)


def _levels(lam) -> tuple:
    """The level axis of an array of levels, which must be 1-D and hold one
    at least; () for one level, a 0-d array included."""
    if not isinstance(lam, np.ndarray) or lam.ndim == 0:
        return ()
    if lam.ndim > 1:
        raise ValueError(f"an array of levels must be 1-D, not of shape {lam.shape}")
    if not lam.size:
        raise ValueError("the array of levels is empty")
    return lam.shape


def _raised(value):
    """``value``, unless it is an error, which is raised."""
    if isinstance(value, Exception):
        raise value
    return value


def _level_records(sym: PiecewiseSymbol, lams) -> list:
    """The stored root record of each real level, or the error its solve
    raises.  The levels not in the store are solved together
    (``_factor_level``), and each record is stored under its level's exact
    value (``_level``, which refuses one that is not finite and real)."""
    keys = [_level(lam, real=True) for lam in lams]
    rec = _record(sym)
    out = rec.stored(keys)
    missing = [i for i, hit in enumerate(out) if hit is None]
    for i, value in zip(missing, _factor_level(sym, np.array([keys[i] for i in missing]))):
        out[i] = value
        if not isinstance(value, Exception):
            rec.store(keys[i], value)
    return out


def _level_factors(sym: PiecewiseSymbol, lam: float) -> _LevelFactors:
    """The stored root record of a real level: the one-level case of
    ``_level_records``, whose error it raises."""
    return _raised(_level_records(sym, [lam])[0])


def exceptional_set(sym: PiecewiseSymbol) -> ExceptionalSet:
    """The symbol's one exceptional set (``PiecewiseSymbol.exceptional``)."""
    return sym.exceptional


def _level(lam, real: bool = False) -> float | complex:
    """A real level as a float, a non-real one as a complex; ValueError if
    it is not finite, or where ``real``, not real."""
    zeta = complex(lam)
    if not cmath.isfinite(zeta):
        raise ValueError(f"level {lam} is not finite")
    if real and zeta.imag != 0.0:
        raise ValueError(f"level {zeta} is not real")
    return zeta.real if zeta.imag == 0.0 else zeta


def _check_level(sym: PiecewiseSymbol, lam) -> float:
    """The one gate for a real level, returned as a float.  A level that is
    not finite and real raises ``ValueError``, and one in the closed range
    [gamma1, gamma2] that no admissible interval admits (``PiecewiseSymbol.admitting``),
    such as a jump's one-sided value at its end, ``ExceptionalLevelError``;
    just outside the range there is no crossing to classify."""
    lam = _level(lam, real=True)
    g1, g2 = sym.essential_range()
    if g1 <= lam <= g2 and sym.admitting(lam) is None:
        raise ExceptionalLevelError(f"level {lam} within {GUARD} of the exceptional set")
    return lam


def solve_level(sym: PiecewiseSymbol, lam: float) -> list[tuple[float, int]]:
    """Simple roots of omega = lambda in piece interiors with the sign of
    omega': the one-level case of ``_signed_crossings``, whose error it
    raises, at a level that passes ``_check_level``."""
    return _raised(_signed_crossings(sym, [_check_level(sym, lam)])[0])


def _signed_crossings(sym: PiecewiseSymbol, lams) -> list:
    """Each real level's crossings with the sign of omega' there, from its
    root record (``_level_records``), or the error of its record or of a
    tangential crossing.  The levels have passed ``_check_level``, so their
    crossings are transversal and avoid the jump angles; the slopes at all
    of them come from one ``derivative_values`` call."""
    records = _level_records(sym, lams)
    found = [r.crossings for r in records if not isinstance(r, Exception)]
    slopes = sym.derivative_values(np.concatenate([np.empty(0)] + found))
    out, end = [], 0
    for lam, record in zip(lams, records):
        if not isinstance(record, Exception):
            theta, start, end = record.crossings, end, end + len(record.crossings)
            slope = slopes[start:end]
            flat = np.abs(slope) < 1e-9
            if flat.any():
                record = ExceptionalLevelError(f"tangential crossing at angle {theta[flat][0]}; "
                                               f"level {lam} is effectively critical")
            else:
                record = [(float(t), 1 if d > 0 else -1) for t, d in zip(theta, slope)]
        out.append(record)
    return out


def sublevel_set(sym: PiecewiseSymbol, lam: float) -> LevelSet:
    """Assemble {omega < lambda} from root crossings and spanned jumps: the
    one-level case of ``sublevel_sets``, whose error it raises."""
    return _raised(sublevel_sets(sym, [lam])[0])


def sublevel_sets(sym: PiecewiseSymbol, lams) -> list:
    """Each level's sublevel set, or the error that its assembly raises.

    Each level passes ``_check_level`` once.  Below the range the set is
    empty and above it full; the levels inside the range take their signed
    crossings from one ``_signed_crossings`` call, and each is assembled
    from them (``_assemble``).  Last, one sampled sign check covers every
    level (``_validate_levels``).
    """
    g1, g2 = sym.essential_range()
    out = []
    for lam in lams:
        try:
            lam = _check_level(sym, lam)
            out.append(lam if g1 < lam <= g2 else LevelSet(lam, (), full=lam > g2))
        except (ValueError, ToepspecError) as exc:
            out.append(exc)
    inside = [i for i, lam in enumerate(out) if isinstance(lam, float)]
    for i, signed in zip(inside, _signed_crossings(sym, [out[i] for i in inside])):
        out[i] = signed if isinstance(signed, Exception) else _assemble(sym, out[i], signed)
    checked = [i for i, level in enumerate(out) if isinstance(level, LevelSet) and level.arcs]
    for i, error in zip(checked, _validate_levels(sym, [out[i] for i in checked])):
        out[i] = error or out[i]
    return out


def _assemble(sym: PiecewiseSymbol, lam: float, signed) -> LevelSet | ToepspecError:
    """The arcs of {omega < lambda} at a level inside the range, from its
    signed crossings, before the sign check, or the error of crossings that
    make no level set.  Downward crossings open an arc (alpha endpoints),
    upward crossings close one (beta endpoints); arcs are returned in
    counterclockwise order starting from the smallest alpha."""
    # (theta, is_alpha, kind)
    crossings = [(theta, sign < 0, "root") for theta, sign in signed]
    crossings += [(sym.jumps[j.k].theta, j.sign == "plus", "jump")
                  for j in sym.jump_intervals if j.low < lam < j.high]
    if not crossings:
        # lambda in (g1, g2) always has crossings for a non-constant symbol
        return ExceptionalLevelError(f"no crossings found at level {lam}")
    crossings.sort()
    n = len(crossings)
    if n % 2 != 0:
        return CountingError(f"odd number of crossings ({n}) at level {lam}")
    flags = [c[1] for c in crossings]
    if any(flags[i] == flags[(i + 1) % n] for i in range(n)):
        return CountingError(f"crossing directions do not alternate at level {lam}")

    start = 0 if flags[0] else 1
    arcs = []
    for i in range(start, start + n, 2):
        t_a, _, k_a = crossings[i % n]
        t_b, _, k_b = crossings[(i + 1) % n]
        if t_b <= t_a:
            t_b += TWO_PI
        arcs.append(Arc(t_a, t_b, k_a, k_b))
    arcs.sort(key=lambda a: a.alpha)
    return LevelSet(lam, tuple(arcs))


def _validate_levels(sym: PiecewiseSymbol, levels) -> list:
    """Sampled sign check of each level set: omega < lambda at
    ``SIGN_SAMPLES`` points inside each arc, > lambda in each complement gap,
    except at sample points on a jump angle (``_is_jump_angle``).  Returns, per
    level, the ``CountingError`` of its first failing stretch, or None.  The
    stretches of all levels are sampled together, in chunks of ``CHUNK``
    points."""
    # the stretches come in pairs: arc i of a level, then the gap after it
    lo, hi, owner, index = [], [], [], []
    for k, level in enumerate(levels):
        arcs = level.arcs
        for i, arc in enumerate(arcs):
            gap_end = arcs[(i + 1) % len(arcs)].alpha
            if gap_end <= arc.beta:
                gap_end += TWO_PI
            lo += [arc.alpha, arc.beta]
            hi += [arc.beta, gap_end]
            owner += [k, k]
            index += [i, i]
    lo, hi, owner = np.array(lo), np.array(hi), np.array(owner, dtype=int)
    sign = np.tile([1.0, -1.0], len(lo) // 2)
    lams = np.array([level.lam for level in levels])[owner]
    pad = np.minimum(1e-7, 1e-3 * (hi - lo))
    start, stop = lo + pad, hi - pad
    fails = np.zeros(len(lo), dtype=bool)
    steps = np.arange(SIGN_SAMPLES)
    rows = max(1, CHUNK // SIGN_SAMPLES)
    for s in range(0, len(lo), rows):
        part = slice(s, s + rows)
        # np.linspace's points, stretch by stretch
        t = steps * ((stop[part] - start[part]) / (SIGN_SAMPLES - 1))[:, None] + start[part, None]
        t[:, -1] = stop[part]
        keep = ~sym._is_jump_angle(t)
        wrong = sign[part, None] * (sym.values(t) - lams[part, None]) >= 0.0
        fails[part] = np.any(keep & wrong, axis=1)
    out = [None] * len(levels)
    for j in np.flatnonzero(fails)[::-1]:
        what = "arc" if j % 2 == 0 else "complement gap"
        out[owner[j]] = CountingError(
            f"{what} {index[j]} fails the sign check at level {levels[owner[j]].lam}")
    return out


def admissible_intervals(sym: PiecewiseSymbol) -> list[tuple[float, float]]:
    """Maximal open subintervals of (gamma1, gamma2) avoiding the exceptional set."""
    return list(sym.admissible_intervals)


def level_report(sym: PiecewiseSymbol, lam: float) -> CountReport:
    """Counting report of the admissible interval that holds the level
    ``lam``, shared by every level of that interval."""
    i = sym.admitting(float(lam))
    if i is None:
        raise ValueError(f"level {lam} lies in no admissible interval")
    return _record(sym).report(sym, i)


def counting_report(sym: PiecewiseSymbol, interval) -> CountReport:
    """Crossing and jump counts on an admissible interval, and their common sum.

    The counts are constant on the admissible interval that holds [a, b],
    so this is that interval's one report, shared with ``level_report``.
    """
    a, b = float(interval[0]), float(interval[1])
    g1, g2 = sym.essential_range()
    if not (g1 < a < b < g2):
        raise InadmissibleIntervalError(
            f"interval ({a}, {b}) not strictly inside the spectrum ({g1}, {g2})")
    i = sym.admitting(a, b)
    if i is None:
        raise InadmissibleIntervalError(
            f"interval ({a}, {b}) comes within {GUARD} of an exceptional value")
    return _record(sym).report(sym, i)


def _count(sym: PiecewiseSymbol, interval) -> CountReport:
    """Counts on the range [a, b] that an admissible interval admits: the root
    counts at the midpoint, checked for constancy at four more interior
    samples; a mismatch between the two orientation sums signals a
    root-finder defect."""
    a, b = interval[0] + GUARD, interval[1] - GUARD
    lams = [0.5 * (a + b)] + [a + frac * (b - a) for frac in (0.125, 0.3125, 0.6875, 0.875)]
    counts = []
    for signed in map(_raised, _signed_crossings(sym, [_check_level(sym, lam) for lam in lams])):
        nm = sum(1 for _, s in signed if s > 0)
        counts.append((len(signed) - nm, nm))  # (n_plus: omega' < 0, n_minus: omega' > 0)
        if counts[-1] != counts[0]:
            raise CountingError("root counts vary across the interval")
    n_plus, n_minus = counts[0]

    signs = [j.sign for j in sym.jump_intervals if j.contains_interval(a, b)]
    s_plus, s_minus = signs.count("plus"), signs.count("minus")

    if n_plus + s_plus != n_minus + s_minus:
        raise CountingError(f"counting inconsistency: {n_plus}+{s_plus} != {n_minus}+{s_minus}")
    return CountReport(n_plus, n_minus, s_plus, s_minus, n_plus + s_plus)
