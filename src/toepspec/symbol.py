"""Piecewise trig-polynomial symbols on the unit circle.

A symbol is a real bounded function on the circle made of finitely many
pieces, each a trigonometric polynomial in the angle.  Pieces meet at a
finite set of angles where the value or the angular derivative may jump;
those angles carry the jump classification used by the level-set and
multiplicity machinery.
"""

from __future__ import annotations

import bisect
import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import QuadratureError

TWO_PI = 2.0 * math.pi

# Absolute tolerance for angle comparisons and one-sided value matching.
ANGLE_TOL = 1e-12
VALUE_TOL = 1e-12
# Relative mismatch of one-sided derivatives that flags an S0 point.
DERIV_TOL = 1e-10
# the largest backward error a root record accepts of a root, and the
# relative accuracy every panel-rule integral is certified to
DEFAULT_TOL = 1e-10
# a root this close to the unit circle is a crossing of its level
UNIT_ROOT_TOL = 1e-7
# Levels closer than this to an exceptional value are rejected: crossings
# there cannot be classified reliably.
GUARD = 1e-9
EPS = float(np.finfo(float).eps)


def wrap_angle(theta: float) -> float:
    """Map an angle to [0, 2pi)."""
    t = math.fmod(theta, TWO_PI)
    if t < 0.0:
        t += TWO_PI
    # fmod can return 2pi - eps rounding up to 2pi after the += above
    if t >= TWO_PI:
        t -= TWO_PI
    return t


def _circle_distance(x, t):
    """|((x - t + pi) mod 2pi) - pi| elementwise, the mod as y - 2pi floor(y / 2pi):
    equal to ``np.mod``'s for the |y| < 6pi of angles, and five times faster on big arrays."""
    y = x - t + math.pi
    return abs(y - TWO_PI * np.floor(y / TWO_PI) - math.pi)


def angles_on(roots, t0: float, t1: float) -> list[float]:
    """The angles r and r + 2pi, for r in ``roots``, that lie in [t0, t1]."""
    return [t for r in roots for t in (r, r + TWO_PI) if t0 <= t <= t1]


def distinct_angles(found) -> np.ndarray:
    """Sorted angles in [0, 2pi), each one within 1e-9 of the last kept, or
    of the first across 2pi, dropped: a crossing on a seam is found by both
    pieces."""
    keep = []
    for t in np.sort(np.mod(found, TWO_PI)):
        if not keep or t - keep[-1] > 1e-9:
            keep.append(float(t))
    if len(keep) > 1 and keep[0] + TWO_PI - keep[-1] < 1e-9:
        keep.pop()
    return np.array(keep)


def certified_roots(c: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Roots of the polynomials whose coefficients, highest degree first and
    with nonzero ends, are the rows of ``c`` (L, n + 1): the eigenvalues of
    the stacked companion matrices from one ``np.linalg.eigvals`` call
    (Edelman & Murakami, Math. Comp. 64, 1995), then two Newton steps.
    Returns them (L, n), each row's worst backward error
    |P(zeta)| / sum |c_j| |zeta|^j, which certifies the row when at most
    ``DEFAULT_TOL`` (``uncertified`` is the error of a row that is not), and
    each root's first-order error eps sum |c_j| |zeta|^j / |P'(zeta)|."""
    n = c.shape[1] - 1
    companion = np.zeros((len(c), n, n), dtype=c.dtype)
    companion.reshape(len(c), -1)[:, n::n + 1] = 1.0   # the subdiagonal
    companion[:, 0, :] = -c[:, 1:] / c[:, :1]
    zeta, dc = np.linalg.eigvals(companion), c[:, :-1] * np.arange(n, 0, -1)
    for _ in range(2):
        slope = _horner(dc, zeta)
        zeta = zeta - _horner(c, zeta) / slope
    scale = _horner(np.abs(c), np.abs(zeta))
    worst = np.max(np.abs(_horner(c, zeta)) / scale, axis=1)
    return zeta, worst, EPS * scale / np.abs(slope)


def _horner(c: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Each row of ``c`` as a polynomial at the points of the same row of
    ``x``, in ``np.polyval``'s order of operations."""
    y = np.zeros_like(x)
    for j in range(c.shape[1]):
        y = y * x + c[:, j:j + 1]
    return y


def uncertified(worst: float) -> QuadratureError:
    """The error of roots whose worst backward error is above ``DEFAULT_TOL``."""
    return QuadratureError(f"root backward error {worst:.3e}", achieved_tol=worst)


class TrigPoly:
    """Real trigonometric polynomial a0 + sum(a_k cos k t + b_k sin k t)."""

    def __init__(self, a, b=()):
        a = [float(x) for x in a]
        b = [float(x) for x in b]
        if not all(map(math.isfinite, a + b)):
            raise ValueError("trig polynomial coefficients must be finite")
        if not a:
            a = [0.0]
        if len(b) > len(a) - 1:
            a = a + [0.0] * (len(b) - len(a) + 1)
        else:
            b = b + [0.0] * (len(a) - 1 - len(b))
        # trim trailing zero harmonics so degree() is meaningful
        while len(a) > 1 and a[-1] == 0.0 and b[-1] == 0.0:
            a.pop()
            b.pop()
        self.a = tuple(a)
        self.b = tuple(b)

    @property
    def degree(self) -> int:
        return len(self.a) - 1

    def __call__(self, theta):
        theta = np.asarray(theta, dtype=float)
        out = np.full(theta.shape, self.a[0])
        for k in range(1, len(self.a)):
            out = out + self.a[k] * np.cos(k * theta) + self.b[k - 1] * np.sin(k * theta)
        return out if out.shape else float(out)

    def derivative(self) -> "TrigPoly":
        """Term-by-term angular derivative."""
        k = np.arange(1, len(self.a))
        a = np.concatenate(([0.0], k * np.asarray(self.b)))
        b = -k * np.asarray(self.a[1:])
        return TrigPoly(a, b)

    def is_constant(self) -> bool:
        return self.degree == 0

    def _laurent(self, shift: float = 0.0) -> np.ndarray:
        """Coefficients c_{-K}..c_K of p(t) - shift as a Laurent series in e^{it}."""
        K = self.degree
        c = np.zeros(2 * K + 1, dtype=complex)
        c[K] = self.a[0] - shift
        for k in range(1, K + 1):
            c[K + k] = 0.5 * (self.a[k] - 1j * self.b[k - 1])
            c[K - k] = 0.5 * (self.a[k] + 1j * self.b[k - 1])
        return c

    def roots(self, value: float = 0.0) -> np.ndarray:
        """All angles in [0, 2pi) where the polynomial equals ``value``: those
        of its Laurent polynomial's certified roots within ``UNIT_ROOT_TOL``
        of the unit circle.  A constant polynomial has no isolated roots and
        returns an empty array."""
        if self.is_constant():
            return np.empty(0)
        zeta, worst, _ = certified_roots(self._laurent(value)[None, ::-1])
        if not worst[0] <= DEFAULT_TOL:
            raise uncertified(float(worst[0]))
        zeta = zeta[0]
        return distinct_angles(np.angle(zeta[np.abs(np.abs(zeta) - 1.0) < UNIT_ROOT_TOL]))

    def __eq__(self, other):
        return isinstance(other, TrigPoly) and self.a == other.a and self.b == other.b

    def __repr__(self):
        return f"TrigPoly(a={list(self.a)}, b={list(self.b)})"


@dataclass(frozen=True)
class SymbolPiece:
    """One arc of the circle with its trig-polynomial values."""

    theta_start: float
    theta_end: float
    poly: TrigPoly


@dataclass(frozen=True)
class JumpPoint:
    """A point of the jump set S with its one-sided values and class."""

    theta: float
    left: float          # value approaching counterclockwise (eta - 0)
    right: float         # value leaving counterclockwise (eta + 0)
    kind: str            # 'plus', 'minus' or 'zero'


@dataclass(frozen=True)
class JumpInterval:
    """The value interval spanned by a genuine jump, with its direction."""

    k: int
    low: float
    high: float
    sign: str            # 'plus' or 'minus'

    def contains_interval(self, lo: float, hi: float) -> bool:
        return self.low < lo and hi < self.high


@dataclass(frozen=True)
class ExceptionalSet:
    thresholds: tuple[float, ...]
    critical: tuple[float, ...]
    # (angle, value) of each critical point inside a piece, off the jump set
    critical_points: tuple[tuple[float, float], ...]

    @functools.cached_property
    def values(self) -> tuple[float, ...]:
        return _distinct(self.thresholds + self.critical)


def _distinct(values) -> tuple:
    """The sorted values, less each one within ``VALUE_TOL`` max(1, |v|) of
    the one before: two values that differ only by rounding are one."""
    values = sorted(values)
    return tuple(v for u, v in zip([-math.inf] + values, values)
                 if v - u > VALUE_TOL * max(1.0, abs(v)))


def _end_jets(piece: SymbolPiece) -> np.ndarray:
    """A piece's value and first four derivatives at its start and at its
    end (2, 5); one that overflows is inf or NaN."""
    poly, ends = piece.poly, np.array([piece.theta_start, piece.theta_end])
    jets = np.zeros((2, 5))
    jets[:, 0] = poly(ends)
    if poly.degree:
        # the harmonics as Re w_k, w_k = (a_k - i b_k) e^{i k theta}; the d-th
        # derivative turns w_k by i^d and scales it by k^d
        k = np.arange(1, len(poly.a), dtype=float)
        w = (np.asarray(poly.a[1:]) - 1j * np.asarray(poly.b)) * np.exp(1j * k * ends[:, None])
        turns = np.stack((-w.imag, -w.real, w.imag, w.real))
        jets[:, 1:] = np.sum(k ** np.arange(1.0, 5.0)[:, None, None] * turns, axis=-1).T
    return jets


class PiecewiseSymbol:
    """Bounded real piecewise trig-polynomial symbol with classified jumps.

    Immutable after construction; every method is pure.  Pieces must tile
    the circle: sorted starts, each end meeting the next start to within
    ``ANGLE_TOL`` (ends are snapped to the next start).  Constant symbols
    are rejected.
    """

    def __init__(self, pieces, name: str | None = None):
        items = []
        for p in pieces:
            if isinstance(p, SymbolPiece):
                start, end, poly = p.theta_start, p.theta_end, p.poly
            else:
                start, end, poly = p
                if not isinstance(poly, TrigPoly):
                    poly = TrigPoly(*poly)
            start_w = wrap_angle(start)
            length = end - start
            if not 0.0 < length <= TWO_PI + ANGLE_TOL:
                raise ValueError(f"piece ({start}, {end}) has invalid length")
            items.append((start_w, start_w + length, poly))
        if not items:
            raise ValueError("symbol needs at least one piece")
        items.sort(key=lambda it: it[0])
        total = sum(it[1] - it[0] for it in items)
        if abs(total - TWO_PI) > 1e-9:
            raise ValueError("pieces do not tile the circle")
        starts = [it[0] for it in items]
        # each piece ends where the next one starts; the last wraps round
        ends = starts[1:] + [starts[0] + TWO_PI]
        for (_, e, _), nxt in zip(items, ends):
            if abs(e - nxt) > 1e-9:
                raise ValueError("piece interiors overlap or leave a gap")
        self._starts = np.array(starts)
        self._polys = [it[2] for it in items]
        self.pieces = tuple(SymbolPiece(*piece) for piece in zip(starts, ends, self._polys))
        self.name = name
        try:  # refuse coefficients whose derivatives, end jets or critical angles overflow
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                self._dpolys = [poly.derivative() for poly in self._polys]
                # each piece's value and first four derivatives at its start
                # and its end (pieces, 2, 5), and the (angle, value) of its
                # critical points in its closed arc widened by ANGLE_TOL; only
                # the third and fourth derivatives may overflow
                with np.errstate(over="ignore", invalid="ignore"):
                    self._ends = np.array([_end_jets(piece) for piece in self.pieces])
                if not np.all(np.isfinite(self._ends[:, :, :3])):
                    raise FloatingPointError("a value, slope or curvature at a piece end overflows")
                self._critical = tuple(
                    tuple((t, float(p.poly(t))) for t in angles_on(
                        d.roots(), p.theta_start - ANGLE_TOL, p.theta_end + ANGLE_TOL))
                    for p, d in zip(self.pieces, self._dpolys))
        except FloatingPointError as exc:
            raise ValueError(f"symbol coefficients out of floating-point range: {exc}") from None
        self.jumps = self._classify_jumps()
        self.jump_intervals = tuple(
            JumpInterval(k, min(j.left, j.right), max(j.left, j.right), j.kind)
            for k, j in enumerate(self.jumps) if j.kind != "zero")
        self._jump_angles = np.array([j.theta for j in self.jumps])
        g1, g2 = self._essential_range()
        if not g1 < g2:
            raise ValueError("constant symbol excluded")
        self._range = (g1, g2)

    # -- construction helpers -------------------------------------------------

    def _classify_jumps(self) -> tuple[JumpPoint, ...]:
        """The jump set S: each seam whose one-sided values or slopes differ,
        read from the end-jet table."""
        ends = self._ends[:, 1, :2].tolist()   # each piece's (value, slope) at its end
        jumps = []
        for eta, (left, dleft), (right, dright) in zip(
                self._starts.tolist(), ends[-1:] + ends[:-1], self._ends[:, 0, :2].tolist()):
            vscale = max(1.0, abs(left), abs(right))
            dscale = max(1.0, abs(dleft), abs(dright))
            if abs(left - right) > VALUE_TOL * vscale:
                kind = "plus" if left > right else "minus"
            elif abs(dleft - dright) > DERIV_TOL * dscale:
                kind = "zero"
            else:
                continue  # C1 seam, not in S
            jumps.append(JumpPoint(eta, left, right, kind))
        return tuple(jumps)

    @functools.cached_property
    def _seam_jets(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each seam where two different polynomials meet: its angle, its
        rows of the end-jet table, the one-sided values and first four
        derivatives (seams, 2, 5) with the left (clockwise) side first, and
        whether it is a value jump of S.  Made on first use."""
        stepped_at = {j.theta for j in self.jumps if j.kind != "zero"}
        seams = np.flatnonzero([prev.poly != piece.poly for prev, piece
                                in zip(self.pieces[-1:] + self.pieces[:-1], self.pieces)])
        jets = np.stack((self._ends[seams - 1, 1], self._ends[seams, 0]), axis=1)
        angles = self._starts[seams]
        return angles, jets, np.array([eta in stepped_at for eta in angles], dtype=bool)

    @functools.cached_property
    def exceptional(self) -> ExceptionalSet:
        """The exceptional set: threshold values at jumps plus critical values
        of the smooth part, a locally constant piece's value among them (a
        level equal to a plateau breaks the finite-arc structure of the
        sublevel set).  Made on first use."""
        thresholds = {v for j in self.jumps for v in (j.left, j.right)}
        plateaus = [float(p.poly.a[0]) for p in self.pieces if p.poly.is_constant()]
        found = [point for critical in self._critical for point in critical]
        points = []
        for (t, value), jump in zip(found, self._is_jump_angle(np.array([t for t, _ in found]))):
            tw = t % TWO_PI
            # a seam's critical point is found by both its pieces: the first is kept
            if not jump and all(_circle_distance(tw, s) >= 1e-9 for s, _ in points):
                points.append((tw, value))
        return ExceptionalSet(tuple(sorted(thresholds)),
                              _distinct(plateaus + [v for _, v in points]), tuple(points))

    @functools.cached_property
    def admissible_intervals(self) -> tuple[tuple[float, float], ...]:
        """The maximal open subintervals of (gamma1, gamma2) that avoid the
        exceptional set.  Made on first use."""
        g1, g2 = self._range
        points = [g1] + [v for v in self.exceptional.values if g1 < v < g2] + [g2]
        return tuple(zip(points[:-1], points[1:]))

    @functools.cached_property
    def _admitted(self) -> tuple[list[float], list[float]]:
        """The closed range [a + GUARD, b - GUARD] that each admissible
        interval (a, b) admits, as its lower ends and its upper ends."""
        return ([a + GUARD for a, _ in self.admissible_intervals],
                [b - GUARD for _, b in self.admissible_intervals])

    def admitting(self, a: float, b: float | None = None) -> int | None:
        """Index of the admissible interval whose admitted range holds the
        level ``a`` or the levels [a, b], or None: the one admissibility rule."""
        lows, highs = self._admitted
        i = bisect.bisect_right(lows, a) - 1
        return i if i >= 0 and a <= (a if b is None else b) <= highs[i] else None

    def _essential_range(self):
        values = self._ends[:, :, 0].ravel().tolist() + [
            v for p, points in zip(self.pieces, self._critical) for t, v in points
            if p.theta_start <= t <= p.theta_end]
        return min(values), max(values)

    # -- queries ---------------------------------------------------------------

    def _piece_index(self, theta):
        theta = np.mod(np.asarray(theta, dtype=float), TWO_PI)
        idx = np.searchsorted(self._starts, theta, side="right") - 1
        idx = np.where(idx < 0, len(self._polys) - 1, idx)
        return theta, idx

    def _piecewise(self, polys, theta) -> np.ndarray:
        """polys[i] evaluated at the angles that fall in piece i."""
        theta, idx = self._piece_index(theta)
        out = np.empty(theta.shape)
        for i, poly in enumerate(polys):
            mask = idx == i
            if np.any(mask):
                out[mask] = poly(theta[mask])
        return out

    def values(self, theta) -> np.ndarray:
        """Vectorized evaluation; angles must avoid the jump set."""
        return self._piecewise(self._polys, theta)

    def eval(self, theta: float) -> float:
        """Value at an angle not in the jump set."""
        t = wrap_angle(theta)
        if self._is_jump_angle(t):
            raise ValueError("ambiguous at jump; use eval_one_sided")
        return float(self.values(t))

    def _is_jump_angle(self, t):
        """Whether the angle, or each one of an array, is near a jump (``ANGLE_TOL``)."""
        t = np.asarray(t)
        if t.size and len(self._jump_angles):
            jumps = self._jump_angles.reshape((-1,) + (1,) * t.ndim)
            near = np.logical_or.reduce(_circle_distance(jumps, t) < ANGLE_TOL)
        else:   # no jumps or no angles: nothing is near a jump
            near = np.zeros(t.shape, dtype=bool)
        return near if near.ndim else bool(near)

    def eval_one_sided(self, eta: float, side: str) -> float:
        """Limit of the symbol approaching ``eta`` from the given side.

        ``side`` is '+' for the counterclockwise (leaving) limit and '-'
        for the clockwise (approaching) limit.
        """
        if side not in ("+", "-"):
            raise ValueError("side must be '+' or '-'")
        t = wrap_angle(eta)
        hits = np.nonzero(_circle_distance(self._starts, t) < ANGLE_TOL)[0]
        if len(hits) == 0:
            return float(self.values(t))
        i = int(hits[0])
        return float(self._ends[i, 0, 0] if side == "+" else self._ends[i - 1, 1, 0])

    def derivative_values(self, theta) -> np.ndarray:
        return self._piecewise(self._dpolys, theta)

    def essential_range(self) -> tuple[float, float]:
        """(gamma1, gamma2): essential infimum and supremum."""
        return self._range

    def fourier_coefficient(self, n: int) -> complex:
        """n-th Fourier coefficient against the normalized circle measure;
        conjugate-symmetric in n for real symbols."""
        return complex(self._fourier(np.array([n]))[0])

    def fourier_coefficients(self, N: int) -> np.ndarray:
        """The coefficients of modes 0, ..., N-1 in one array pass."""
        return self._fourier(np.arange(N))

    def _fourier(self, modes: np.ndarray) -> np.ndarray:
        """Exact closed-form integration of e^{-i n t} times each piece's
        harmonics over its arc, one array expression per piece harmonic."""
        total = np.zeros(len(modes), dtype=complex)
        for piece in self.pieces:
            t0, t1 = piece.theta_start, piece.theta_end
            c = piece.poly._laurent()
            K = piece.poly.degree
            for m in range(-K, K + 1):
                cm = c[m + K]
                if cm == 0.0:
                    continue
                k = m - modes
                # the mode k = 0 is integrated apart; 1 keeps its division finite
                ik = 1j * np.where(k == 0, 1, k)
                total += np.where(k == 0, cm * (t1 - t0),
                                  cm * (np.exp(1j * k * t1) - np.exp(1j * k * t0)) / ik)
        return total / TWO_PI

    # -- serialization ----------------------------------------------------------

    def to_dict(self) -> dict:
        d = {
            "pieces": [
                {
                    "theta_start": p.theta_start,
                    "theta_end": p.theta_end,
                    "a": list(p.poly.a),
                    "b": list(p.poly.b),
                }
                for p in self.pieces
            ]
        }
        if self.name is not None:
            d["name"] = self.name
        return d

    def serialize(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_dict(cls, d: dict) -> "PiecewiseSymbol":
        """From the JSON form of ``to_dict``; ``a`` and ``b`` must be lists."""
        pieces = []
        for p in d["pieces"]:
            a, b = p["a"], p.get("b", [])
            if not (isinstance(a, list) and isinstance(b, list)):
                raise TypeError("coefficients 'a' and 'b' must be lists")
            pieces.append((p["theta_start"], p["theta_end"], TrigPoly(a, b)))
        return cls(pieces, name=d.get("name"))

    @classmethod
    def parse(cls, text: str) -> "PiecewiseSymbol":
        return cls.from_dict(json.loads(text))

    def __repr__(self):
        label = self.name or f"{len(self.pieces)} pieces"
        return f"PiecewiseSymbol({label})"


def preset_regular() -> PiecewiseSymbol:
    """The smooth symbol cos(theta) = (zeta + 1/zeta)/2, one piece, no jumps."""
    return PiecewiseSymbol([(0.0, TWO_PI, TrigPoly([0.0, 1.0]))], name="regular")


def preset_singular(theta1: float, theta2: float) -> PiecewiseSymbol:
    """Indicator of the counterclockwise arc (zeta1, zeta2); jumps at both ends."""
    t1 = wrap_angle(theta1)
    t2 = wrap_angle(theta2)
    length = t2 - t1 if t2 > t1 else t2 - t1 + TWO_PI
    if length < ANGLE_TOL or length > TWO_PI - ANGLE_TOL:
        raise ValueError("singular preset needs a proper sub-arc")
    return PiecewiseSymbol(
        [
            (t1, t1 + length, TrigPoly([1.0])),
            (t1 + length, t1 + TWO_PI, TrigPoly([0.0])),
        ],
        name=f"singular:{t1:.17g}:{t2:.17g}",
    )


def named_symbol(name: str) -> PiecewiseSymbol:
    """Resolve a built-in symbol name: 'regular' or 'singular:theta1:theta2'."""
    if name == "regular":
        return preset_regular()
    if name.startswith("singular:"):
        parts = name.split(":")
        if len(parts) != 3:
            raise ValueError("singular preset name is 'singular:theta1:theta2'")
        return preset_singular(float(parts[1]), float(parts[2]))
    raise ValueError(f"unknown symbol name {name!r}")


def load_symbol(spec: str) -> PiecewiseSymbol:
    """Load a symbol from a built-in name ('regular' or any 'singular:...',
    whose errors are raised as they are) or else from a JSON file path."""
    if spec == "regular" or spec.startswith("singular:"):
        return named_symbol(spec)
    with open(spec, "r", encoding="utf-8") as fh:
        return PiecewiseSymbol.from_dict(json.load(fh))
