"""Piecewise trig-polynomial symbols on the unit circle.

A symbol is a real bounded function on the circle made of finitely many
pieces, each a trigonometric polynomial in the angle.  Pieces meet at a
finite set of angles where the value or the angular derivative may jump;
those angles carry the jump classification used by the level-set and
multiplicity machinery.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

# Absolute tolerance for angle comparisons and one-sided value matching.
ANGLE_TOL = 1e-12
VALUE_TOL = 1e-12
# Relative mismatch of one-sided derivatives that flags an S0 point.
DERIV_TOL = 1e-10


def wrap_angle(theta: float) -> float:
    """Map an angle to [0, 2pi)."""
    t = math.fmod(theta, TWO_PI)
    if t < 0.0:
        t += TWO_PI
    # fmod can return 2pi - eps rounding up to 2pi after the += above
    if t >= TWO_PI:
        t -= TWO_PI
    return t


def angles_on(roots, t0: float, t1: float) -> list[float]:
    """The angles r and r + 2pi, for r in ``roots``, that lie in [t0, t1]."""
    return [t for r in roots for t in (r, r + TWO_PI) if t0 <= t <= t1]


class TrigPoly:
    """Real trigonometric polynomial a0 + sum(a_k cos k t + b_k sin k t)."""

    def __init__(self, a, b=()):
        a = [float(x) for x in a]
        b = [float(x) for x in b]
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
        """All angles in [0, 2pi) where the polynomial equals ``value``.

        Found as unit-modulus roots of the associated algebraic polynomial,
        then polished by Newton iteration.  A constant polynomial has no
        isolated roots and returns an empty array.
        """
        if self.is_constant():
            return np.empty(0)
        c = self._laurent(value)
        lead = np.max(np.abs(c))
        # z^K * laurent gives an ordinary polynomial, highest degree first
        coeffs = c[::-1]
        nz = np.nonzero(np.abs(coeffs) > 1e-15 * lead)[0]
        coeffs = coeffs[nz[0]:nz[-1] + 1]
        if len(coeffs) < 2:
            return np.empty(0)
        z = np.roots(coeffs)
        z = z[np.abs(np.abs(z) - 1.0) < 1e-7]
        if len(z) == 0:
            return np.empty(0)
        theta = np.mod(np.angle(z), TWO_PI)
        dp = self.derivative()
        for _ in range(3):
            f = np.asarray(self(theta)) - value
            fp = np.asarray(dp(theta))
            ok = np.abs(fp) > 1e-9
            theta[ok] = theta[ok] - f[ok] / fp[ok]
        theta = np.sort(np.mod(theta, TWO_PI))
        # dedupe circularly
        keep = np.concatenate(([True], np.diff(theta) >= 1e-9))
        if len(theta) > 1 and (theta[-1] - theta[0]) > TWO_PI - 1e-9:
            keep[-1] = False
        return theta[keep]

    def range_on(self, t0: float, t1: float) -> tuple[float, float]:
        """Min and max of the polynomial over the closed arc [t0, t1]."""
        cand = [float(self(t)) for t in [t0, t1] + angles_on(self.derivative().roots(), t0, t1)]
        return min(cand), max(cand)

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
        self._dpolys = [poly.derivative() for poly in self._polys]
        self.pieces = tuple(SymbolPiece(*piece) for piece in zip(starts, ends, self._polys))
        self.name = name
        self.jumps = self._classify_jumps()
        self._jump_angles = np.array([j.theta for j in self.jumps])
        g1, g2 = self._essential_range()
        if not g1 < g2:
            raise ValueError("constant symbol excluded")
        self._range = (g1, g2)

    # -- construction helpers -------------------------------------------------

    def _classify_jumps(self):
        jumps = []
        n = len(self.pieces)
        scale_hint = 1.0
        for i, piece in enumerate(self.pieces):
            eta = piece.theta_start
            prev = self.pieces[(i - 1) % n]
            left = float(prev.poly(prev.theta_end))
            right = float(piece.poly(piece.theta_start))
            dleft = float(prev.poly.derivative()(prev.theta_end))
            dright = float(piece.poly.derivative()(piece.theta_start))
            vscale = max(scale_hint, abs(left), abs(right))
            dscale = max(scale_hint, abs(dleft), abs(dright))
            if abs(left - right) > VALUE_TOL * vscale:
                kind = "plus" if left > right else "minus"
            elif abs(dleft - dright) > DERIV_TOL * dscale:
                kind = "zero"
            else:
                continue  # C1 seam, not in S
            jumps.append(JumpPoint(eta, left, right, kind))
        return tuple(jumps)

    def _essential_range(self):
        ranges = [p.poly.range_on(p.theta_start, p.theta_end) for p in self.pieces]
        return min(lo for lo, _ in ranges), max(hi for _, hi in ranges)

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

    def _is_jump_angle(self, t: float) -> bool:
        if len(self._jump_angles) == 0:
            return False
        d = np.abs(self._jump_angles - t)
        return bool(np.min(np.minimum(d, TWO_PI - d)) < ANGLE_TOL)

    def eval_one_sided(self, eta: float, side: str) -> float:
        """Limit of the symbol approaching ``eta`` from the given side.

        ``side`` is '+' for the counterclockwise (leaving) limit and '-'
        for the clockwise (approaching) limit.
        """
        if side not in ("+", "-"):
            raise ValueError("side must be '+' or '-'")
        t = wrap_angle(eta)
        starts = self._starts
        hits = np.nonzero(np.abs(np.mod(starts - t + math.pi, TWO_PI) - math.pi) < ANGLE_TOL)[0]
        if len(hits) == 0:
            return float(self.values(t))
        i = int(hits[0])
        if side == "+":
            piece = self.pieces[i]
            return float(piece.poly(piece.theta_start))
        piece = self.pieces[(i - 1) % len(self.pieces)]
        return float(piece.poly(piece.theta_end))

    def eval_derivative(self, theta: float) -> float:
        """Angular derivative d omega(e^{i t})/dt at a non-jump angle."""
        t = wrap_angle(theta)
        if self._is_jump_angle(t):
            raise ValueError("derivative undefined at a jump angle")
        return float(self.derivative_values(t))

    def derivative_values(self, theta) -> np.ndarray:
        return self._piecewise(self._dpolys, theta)

    def essential_range(self) -> tuple[float, float]:
        """(gamma1, gamma2): essential infimum and supremum."""
        return self._range

    @property
    def jump_intervals(self) -> tuple[JumpInterval, ...]:
        out = []
        for k, j in enumerate(self.jumps):
            if j.kind == "zero":
                continue
            out.append(JumpInterval(k, min(j.left, j.right), max(j.left, j.right), j.kind))
        return tuple(out)

    def fourier_coefficient(self, n: int) -> complex:
        """n-th Fourier coefficient against the normalized circle measure.

        Exact closed-form integration of e^{-i n t} times each piece's
        harmonics over its arc; conjugate-symmetric in n for real symbols.
        """
        total = 0.0 + 0.0j
        for piece in self.pieces:
            t0, t1 = piece.theta_start, piece.theta_end
            c = piece.poly._laurent()
            K = piece.poly.degree
            for m in range(-K, K + 1):
                cm = c[m + K]
                if cm == 0.0:
                    continue
                k = m - n
                if k == 0:
                    total += cm * (t1 - t0)
                else:
                    total += cm * (np.exp(1j * k * t1) - np.exp(1j * k * t0)) / (1j * k)
        return complex(total / TWO_PI)

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
        pieces = [
            (p["theta_start"], p["theta_end"], TrigPoly(p["a"], p.get("b", ())))
            for p in d["pieces"]
        ]
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
    """Load a symbol from a built-in name or a JSON file path."""
    try:
        return named_symbol(spec)
    except ValueError:
        pass
    with open(spec, "r", encoding="utf-8") as fh:
        return PiecewiseSymbol.from_dict(json.load(fh))
