"""Resolvent forms, the spectral density kernel, generalized eigenfunctions
with their exterior partners, and weak spectral integrals.
"""

from __future__ import annotations

import copy
import functools
import math

import numpy as np

from .errors import FormMismatchError, QuadratureError
from . import hardy
from .hardy import (
    _circle_grid,
    coefficients_c,
    gauss_legendre,
    phase_A_closed,
    q_function,
    xi as xi_point,
    xi_grid,
)
from .levelset import (
    CHUNK,
    Arc,
    GUARD,
    LevelSet,
    _levels,
    arcs_measure,
    counting_report,
    level_report,
    sublevel_set,
    sublevel_sets,
)
from .symbol import DEFAULT_TOL, TWO_PI, PiecewiseSymbol, _circle_distance

FORM_TOL = 1e-8
SETTLE_RTOL, SETTLE_MAX_NODES = 1e-9, 1024   # the lambda-rule's defaults


def resolvent_form(sym: PiecewiseSymbol, u, v, zlam: complex):
    """Bilinear resolvent form on pairs of reproducing kernels, for points or
    arrays of points ``u`` and ``v`` that broadcast against each other.

    exp(-[Q(v) - Q(1/conj u)]/2) / (1 - conj(u) v), with Q the Schwarz
    average of the principal log(omega - zlam): conj H(u e^{-i theta}) is
    -H(e^{-i theta}/conj u), and at u = 0 the u-side average is +Q(0).
    Analytic off the spectral cut, real and positive for real zlam below it.
    """
    u, v = np.asarray(u, dtype=complex), np.asarray(v, dtype=complex)
    if np.any(np.abs(u) >= 1.0) or np.any(np.abs(v) >= 1.0):
        raise ValueError("kernel points must lie inside the disk")
    g1, g2 = sym.essential_range()
    zlam = complex(zlam)
    if abs(zlam - min(max(zlam.real, g1), g2)) < 1e-8:  # distance to the cut [g1, g2]
        raise ValueError("resolvent requested on the spectral cut")
    ubar = np.conj(u)
    at_origin = np.abs(ubar) < np.finfo(float).tiny  # 1/ubar overflows; u is 0 to rounding
    mirror = np.divide(1.0, ubar, out=np.zeros_like(ubar), where=~at_origin)
    q = q_function(sym, np.concatenate((v.ravel(), mirror.ravel())), zlam)
    qv, qu = q[:v.size].reshape(v.shape), q[v.size:].reshape(u.shape)
    value = np.exp(-0.5 * (qv - np.where(at_origin, -qu, qu))) / (1.0 - ubar * v)
    # a real zlam above the cut has the weight ln|omega - zlam|, short of the
    # principal log by i pi, which turns the exponential by e^{-i pi}
    if zlam.imag == 0.0 and zlam.real > g2:
        value = -value
    return complex(value) if value.ndim == 0 else value


def _ends(levels) -> np.ndarray:
    """The start and end angles of the arcs of level sets with one arc
    count, (2, levels, m)."""
    ends = np.array([[(arc.alpha, arc.beta) for arc in one.arcs] for one in levels],
                    dtype=float).reshape(len(levels), levels[0].m, 2)
    return np.ascontiguousarray(ends.transpose(2, 0, 1))


class SpectralFrame:
    """Per-level bundle built from the sublevel set ``level`` alone: the
    level ``lam``, the multiplicity ``m``, the residue coefficients ``c``
    of the arcs and the weights rho_j = sqrt(c_j).

    Built from a sequence of level sets of one admissible interval, one frame
    holds them all: ``lam``, ``c`` and every evaluator's result carry a
    leading level axis, and a frame of one level is the one-level case.  The
    arc count is checked against the counting report of each level's
    admissible interval.  Immutable; all evaluators are pure functions of
    the stored data.
    """

    def __init__(self, sym: PiecewiseSymbol, level):
        self.sym = sym
        levels = (level,) if isinstance(level, LevelSet) else tuple(level)
        if not levels:
            raise ValueError("a frame needs one level set at least")
        reports = [level_report(sym, float(one.lam)) for one in levels]
        bad = next((k for k, (one, report) in enumerate(zip(levels, reports))
                    if report.m != one.m), None)
        if bad is not None:
            for one in levels[:bad]:   # an earlier level's arcs fail first
                coefficients_c(one.arcs)
            raise FormMismatchError(f"level set has {levels[bad].m} arcs but the counting "
                                    f"report says {reports[bad].m}")
        self.m = levels[0].m
        mixed = next((one for one in levels if one.m != self.m), None)
        if mixed is not None:
            raise ValueError(f"the levels of one frame need one arc count: level {levels[0].lam} "
                             f"has {self.m} arcs and level {mixed.lam} has {mixed.m}")
        ends = _ends(levels)
        if isinstance(level, LevelSet):
            self._hold(level, float(level.lam), coefficients_c(level.arcs), ends[:, 0])
        else:
            self._hold(level, np.array([float(one.lam) for one in levels]), coefficients_c(ends), ends)

    def _hold(self, level, lam, c, ends):
        """Store checked level data and derive the end points and weights."""
        self.level, self.lam, self.c, self._ends = level, lam, c, ends
        self._alpha, self._beta = np.exp(1j * ends)
        self._rho = np.sqrt(c)

    def _parts(self, width: int):
        """(slice, frame) pairs over the levels of a many-level frame, each
        frame holding as many levels as keep ``width`` entries per level under
        ``CHUNK``, and one at least.  Each part is a view of this frame's
        checked data; no level is checked again."""
        step, n = max(1, CHUNK // max(1, width)), len(self.lam)
        if step >= n:
            yield slice(0, n), self
            return
        for s in range(0, n, step):
            part, view = slice(s, s + step), copy.copy(self)
            view._hold(self.level[part], self.lam[part], self.c[part], self._ends[:, part])
            yield part, view

    # -- scalar building blocks ------------------------------------------------

    def xi(self, z: complex) -> complex:
        return xi_point(self.sym, z, self.lam)

    # -- eigenfunctions ----------------------------------------------------------

    def _branches(self, zs: np.ndarray, xiv=None) -> np.ndarray:
        """Every eigenfunction at the points ``zs`` on either side of the
        circle, whose xi values are ``xiv`` (by default ``xi_grid``'s); shape
        (m,) + zs.shape, behind the level axis of a many-level frame.

        Branch j is rho_j xi K_beta_j prod_k sqrt((1 - z conj beta_k)/(1 - z
        conj alpha_k)), the product form of ``eigenfunction_product``: inside
        the disk both factors of a ratio have a positive real part, so the
        principal root of the ratio is the ratio of the principal half
        powers.  Outside, the phase A(z) = -conj A(1/conj z), as Q in
        ``q_function``, so the product there is e^{-i pi mu} times the
        conjugate of its value at 1/conj z, mu the sublevel measure.
        """
        if xiv is None:
            xiv = xi_grid(self.sym, zs, self.lam)
        levels = _levels(self.lam)
        outside = np.abs(zs.ravel()) > 1.0
        mirror = np.divide(1.0, np.conj(zs.ravel()), out=zs.flatten(), where=outside)
        col = levels + (1,)   # each level's arc ends against every point
        prod = np.ones(levels + mirror.shape, dtype=complex)
        for j in range(self.m):
            # z times e in the product form's order: with fused multiply-adds
            # the complex product need not commute, and 1 - z e cancels
            ratio = 1.0 - mirror * np.conj(self._beta[..., j]).reshape(col)
            ratio /= 1.0 - mirror * np.conj(self._alpha[..., j]).reshape(col)
            prod *= np.sqrt(ratio, out=ratio)
        if outside.any():
            twist = np.exp(-1j * math.pi * np.reshape(arcs_measure(self._ends), col))
            prod = np.where(outside, twist * np.conj(prod), prod)
        common = xiv * prod.reshape(levels + zs.shape)
        if levels:   # each level's factors on its own branch axis
            common = common[:, None]
        rows = self._rho.shape + (1,) * zs.ndim
        k = 1.0 / (1.0 - zs * np.conj(self._beta).reshape(rows))
        return self._rho.reshape(rows) * k * common

    def eigenfunction(self, j: int, z: complex) -> complex:
        """Branch-j generalized eigenfunction at one point inside the disk."""
        self._check_branch(j)
        return complex(self.eigen_matrix([z])[j - 1, 0])

    def eigenfunction_product(self, j: int, z: complex) -> complex:
        """Same eigenfunction in the explicit product form with principal
        half powers per factor; kept as a branch cross-check."""
        self._check_branch(j)
        fac = 1.0 / (1.0 - z * np.conj(self._beta[j - 1]))
        for al, be in zip(self._alpha, self._beta):
            fac *= (1.0 - z * np.conj(al)) ** -0.5 * (1.0 - z * np.conj(be)) ** 0.5
        return complex(self._rho[j - 1] * self.xi(z) * fac)

    def eigenfunction_ext(self, j: int, z: complex) -> complex:
        """Exterior partner, O(1/z) at infinity, solving the boundary relation."""
        self._check_branch(j)
        if abs(z) <= 1.0:
            raise ValueError("exterior eigenfunction needs |z| > 1")
        return complex(self._branches(np.array([z], dtype=complex))[j - 1, 0])

    def eigen_matrix(self, zs) -> np.ndarray:
        """All interior eigenfunctions on an array of points, shape (m, nz).

        The xi and phase factors are shared across branches, so a whole
        z-row costs little more than one branch."""
        zs = np.asarray(zs, dtype=complex).ravel()
        if np.any(np.abs(zs) >= 1.0):
            raise ValueError("interior eigenfunction needs |z| < 1")
        return self._branches(zs)

    def eigen_circle(self, r: float, m_out: int) -> np.ndarray:
        """All eigenfunctions on the uniform grid r e^{2 pi i k/m_out}, (m, m_out).

        xi comes from ``hardy.xi_circle``: the convolution fast path where
        that is exact, the level's closed form everywhere else."""
        xiv = hardy.xi_circle(self.sym, self.lam, r, m_out)
        return self._branches(_circle_grid(r, m_out), xiv)

    def _check_branch(self, j: int):
        if not 1 <= j <= self.m:
            raise ValueError(f"branch index {j} outside 1..{self.m}")

    # -- density -----------------------------------------------------------------

    def density_pair(self, u, v):
        """Both density forms: the eigenfunction sum and the sine form.

        ``u`` and ``v`` are points or arrays of points that broadcast against
        each other; xi is evaluated once per entry of each, in one batch.
        """
        u, v = np.asarray(u, dtype=complex), np.asarray(v, dtype=complex)
        nd = max(u.ndim, v.ndim)
        u, v = u.reshape((1,) * (nd - u.ndim) + u.shape), v.reshape((1,) * (nd - v.ndim) + v.shape)
        levels = _levels(self.lam)
        xis = xi_grid(self.sym, np.concatenate((u.ravel(), v.ravel())), self.lam)
        xiu = xis[..., :u.size].reshape(levels + u.shape)
        xiv = xis[..., u.size:].reshape(levels + v.shape)
        el_sum = np.sum(np.conj(self._branches(u, xiu)) * self._branches(v, xiv), axis=len(levels))
        sine = (np.conj(xiu) * xiv / (math.pi * (1.0 - np.conj(u) * v))
                * np.sin(np.conj(phase_A_closed(self._ends, u)) + phase_A_closed(self._ends, v)))
        return el_sum, sine

    def density(self, u, v):
        """Spectral density kernel evaluated both ways, broadcast over point
        arrays like ``density_pair``.

        Returns the eigenfunction-sum value after checking every entry
        against the sine form; a mismatch beyond FORM_TOL flags a branch
        defect, reported at the first level that has one.
        """
        el_sum, sine = self.density_pair(u, v)
        lams = np.ravel(self.lam)
        gap = np.abs(el_sum - sine).reshape(len(lams), -1)
        bad = gap > FORM_TOL * np.maximum(1.0, np.abs(el_sum)).reshape(gap.shape)
        if np.any(bad):
            k = int(np.argmax(np.any(bad, axis=1)))
            raise FormMismatchError(
                f"density forms disagree by {np.max(gap[k]):.3e} at lam={float(lams[k])}"
            )
        return el_sum

    def eigen_taylor(self, nmax: int, radius: float = 0.7) -> np.ndarray:
        """Taylor coefficients of every eigenfunction, shape (m, nmax+1), read
        off ``eigen_circle`` at ``_taylor_points(nmax, radius)`` points by FFT.
        """
        m = _taylor_points(nmax, radius)
        coeffs = np.fft.fft(self.eigen_circle(radius, m), axis=-1) / m
        return coeffs[..., : nmax + 1] * radius ** -np.arange(nmax + 1)

    def density_taylor(self, nmax: int) -> np.ndarray:
        """Gram matrix of the density against monomials z^n, n <= nmax, per level."""
        coeffs = self.eigen_taylor(nmax)
        return np.swapaxes(coeffs.conj(), -1, -2) @ coeffs

    # -- complementary-arc variant -------------------------------------------------

    def alt_frame(self) -> "SpectralFrame":
        """Frame built on the complementary arcs, swapping the endpoint roles."""
        arcs = self.level.arcs
        tilde = []
        for j, arc in enumerate(arcs):
            prev_beta = arcs[j - 1].beta - (TWO_PI if j == 0 else 0.0)
            tilde.append(Arc(prev_beta, arc.alpha, arcs[j - 1].beta_kind, arc.alpha_kind))
        return SpectralFrame(self.sym, LevelSet(self.lam, tuple(tilde)))


def _taylor_points(nmax: int, radius: float) -> int:
    """Circle points for Taylor coefficients up to z^nmax, nmax an integer
    at least 0, at a radius in (0, ``CIRCLE_R_MAX``].  An m-point grid
    aliases coefficient n + m onto n with weight radius^m, so m is the
    smallest power of two >= 2(nmax + 1) with radius^m <= ``DEFAULT_TOL``.
    Larger radii tame the r^{-n} noise amplification of the higher
    coefficients and take more points."""
    if not isinstance(nmax, (int, np.integer)) or nmax < 0:
        raise ValueError(f"Taylor order must be an integer at least 0, got {nmax!r}")
    if not 0.0 < radius <= hardy.CIRCLE_R_MAX:
        raise ValueError(f"circle radius must lie in (0, {hardy.CIRCLE_R_MAX}]")
    m = 2
    while m < 2 * (nmax + 1) or radius**m > DEFAULT_TOL:
        m *= 2
    return m


def spectral_frame(sym: PiecewiseSymbol, lam) -> SpectralFrame:
    """Assemble the level set, arc coefficients, and multiplicity at a level.

    A 1-D array of levels of one admissible interval gives one frame that
    holds them all, from one ``sublevel_sets`` call.  Where a level fails, it
    raises the error that a loop over the levels would raise first.
    """
    if not _levels(lam):
        return SpectralFrame(sym, sublevel_set(sym, lam))
    sets = sublevel_sets(sym, lam)
    first = next((k for k, level in enumerate(sets) if isinstance(level, Exception)), None)
    if first is None:
        return SpectralFrame(sym, sets)
    if first:
        SpectralFrame(sym, sets[:first])   # a count or arc error of an earlier level
    raise sets[first]


class FrameFamily:
    """Spectral frames on a Gauss-Legendre lambda grid over one admissible
    interval, held as one many-level ``frame`` (``spectral_frame`` of the
    grid).  Its levels' root records are solved together and written into
    the symbol's store, and every level passes its sign check and its count
    against the interval's.  The family's evaluators take that frame's
    levels in chunks, views of it (``SpectralFrame._parts``); ``frames``
    holds one-level views of it, made on first use."""

    def __init__(self, sym: PiecewiseSymbol, interval, n_grid: int = 256):
        if not isinstance(n_grid, (int, np.integer)) or n_grid < 1:
            raise ValueError(f"n_grid must be an integer at least 1, got {n_grid!r}")
        self.sym = sym
        self.interval = (float(interval[0]), float(interval[1]))
        self.m = counting_report(sym, self.interval).m
        x, w = gauss_legendre(n_grid)
        a, b = self.interval
        self.lams = 0.5 * (a + b) + 0.5 * (b - a) * x
        self.weights = 0.5 * (b - a) * w
        self.frame = spectral_frame(sym, self.lams)

    @functools.cached_property
    def frames(self) -> list[SpectralFrame]:
        """One-level views of ``frame``, as ``SpectralFrame._parts`` makes
        chunks: no level is checked again."""
        frame, views = self.frame, []
        for k, level in enumerate(frame.level):
            views.append(copy.copy(frame))
            views[-1]._hold(level, float(level.lam), tuple(frame.c[k].tolist()), frame._ends[:, k])
        return views

    def __len__(self) -> int:
        return len(self.lams)

    def _grid_function(self, F) -> np.ndarray:
        """``F`` as an array of shape (n, m); no other shape is broadcast."""
        if np.shape(F) != (len(self), self.m):
            raise ValueError(f"grid functions have shape (len(family), m) = {(len(self), self.m)}, "
                             f"got {np.shape(F)}")
        return np.asarray(F)

    def inner(self, F: np.ndarray, G: np.ndarray) -> complex:
        """L^2(Lambda; C^m) inner product of two grid functions (n, m)."""
        F, G = self._grid_function(F), self._grid_function(G)
        return complex(np.sum(self.weights[:, None] * F * np.conj(G)))

    def norm(self, F: np.ndarray) -> float:
        return math.sqrt(max(self.inner(F, F).real, 0.0))


def rh_residual(frame: SpectralFrame, j: int, zeta: float, delta: float) -> float:
    """Defect of the boundary relation at radial offset delta.

    Pairs the interior eigenfunction just inside the circle with the
    exterior partner just outside; tends to zero with delta away from
    jumps, arc ends, and the level crossing angles.
    """
    if not 0.0 < delta < 0.1:
        raise ValueError("delta must lie in (0, 0.1)")
    theta = float(zeta) % TWO_PI
    sym = frame.sym
    if sym._is_jump_angle(theta):
        raise ValueError("boundary relation undefined at a jump angle")
    ends = np.array([(arc.alpha, arc.beta) for arc in frame.level.arcs])
    if np.any(_circle_distance(ends, theta) < 1e-9):
        raise ValueError("boundary relation undefined at an arc end")
    om = sym.eval(theta)
    if abs(om - frame.lam) < GUARD:
        raise ValueError("boundary relation undefined where omega equals the level")
    frame._check_branch(j)
    inner, outer = frame._branches(np.array([1.0 - delta, 1.0 + delta]) * np.exp(1j * theta))[j - 1]
    return float(abs((om - frame.lam) * inner - outer))


def weak_measure(sym: PiecewiseSymbol, interval, u, v, g,
                 rtol: float = SETTLE_RTOL, max_nodes: int = SETTLE_MAX_NODES):
    """Integral of g(lambda) times the density kernel over an admissible interval,
    for points ``u`` and ``v`` or arrays of them that broadcast as in
    ``SpectralFrame.density``.

    The lambda-rule is ``_settle``, one ``FrameFamily`` per doubling; the
    density is smooth there, so convergence is fast for smooth weights.  Its
    first change compares 32 and 64 nodes, so ``max_nodes`` below 64 is
    refused, as is an ``rtol`` that is not positive and finite.
    """
    if not 0.0 < rtol < math.inf:
        raise ValueError(f"rtol must be positive and finite, got {rtol}")
    if max_nodes < 64:
        raise ValueError(f"max_nodes must be at least 64, got {max_nodes}")
    a, b = float(interval[0]), float(interval[1])
    counting_report(sym, (a, b))  # admissibility and constant multiplicity
    probe = np.concatenate((a - np.linspace(0.01, 1.0, 4) * (b - a),
                            b + np.linspace(0.01, 1.0, 4) * (b - a)))
    if any(g(float(x)) != 0.0 for x in probe):
        raise ValueError("weight function is supported outside the interval")
    u, v = np.asarray(u, dtype=complex), np.asarray(v, dtype=complex)
    shape = np.broadcast_shapes(u.shape, v.shape)

    def sample(n):
        family = FrameFamily(sym, (a, b), n)
        gw = family.weights * np.array([g(la) for la in family.lams])
        width = family.m * (u.size + v.size + math.prod(shape))
        total = np.zeros(shape, dtype=complex)
        for part, frame in family.frame._parts(width):
            total += np.tensordot(gw[part], frame.density(u, v), axes=1)
        return total

    return _settle(sample, rtol, max_nodes)


def _settle(sample, rtol: float = SETTLE_RTOL, max_nodes: int = SETTLE_MAX_NODES):
    """The one lambda-rule: n-node Gauss-Legendre sums ``sample(n)`` from n = 32, doubled
    until every entry changes by at most rtol * max(1, |value|); ``QuadratureError``
    with the last change when the next doubling would pass ``max_nodes``."""
    n = 32
    prev = np.asarray(sample(n))
    delta = math.inf
    while 2 * n <= max_nodes:
        n *= 2
        cur = np.asarray(sample(n))
        gap = np.abs(cur - prev)
        delta = float(np.max(gap, initial=0.0))
        if np.all(gap <= rtol * np.maximum(1.0, np.abs(cur))):
            return complex(cur) if cur.ndim == 0 else cur
        prev = cur
    raise QuadratureError(
        f"weak measure did not settle within {max_nodes} nodes: last change {delta:.3e}",
        achieved_tol=delta,
    )


def stone_density(sym: PiecewiseSymbol, u, v, lam: float, eps: float = 1e-2):
    """Density recovered from the resolvent jump across the cut, with
    second-order extrapolation in the offsets eps, eps/2, eps/4; broadcast
    over point arrays like ``resolvent_form``."""
    if not 0.0 < eps < math.inf:
        raise ValueError(f"eps must be positive and finite, got {eps}")

    def jump(e):
        up = resolvent_form(sym, u, v, lam + 1j * e)
        dn = resolvent_form(sym, u, v, lam - 1j * e)
        return (up - dn) / (2j * math.pi)

    f1, f2, f4 = jump(eps), jump(eps / 2.0), jump(eps / 4.0)
    return (8.0 * f4 - 6.0 * f2 + f1) / 3.0
