"""Resolvent forms, the spectral density kernel, generalized eigenfunctions
with their exterior partners, and weak spectral integrals.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import FormMismatchError, QuadratureError
from . import hardy
from .hardy import (
    coefficients_c,
    gauss_legendre,
    phase_A_closed,
    q_function,
    xi as xi_point,
    xi_grid,
)
from .levelset import (
    Arc,
    GUARD,
    LevelSet,
    counting_report,
    level_report,
    sublevel_set,
)
from .symbol import DEFAULT_TOL, TWO_PI, PiecewiseSymbol

FORM_TOL = 1e-8


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
    at_origin = ubar == 0.0
    mirror = np.divide(1.0, ubar, out=np.zeros_like(ubar), where=~at_origin)
    q = q_function(sym, np.concatenate((v.ravel(), mirror.ravel())), zlam)
    qv, qu = q[:v.size].reshape(v.shape), q[v.size:].reshape(u.shape)
    value = np.exp(-0.5 * (qv - np.where(at_origin, -qu, qu))) / (1.0 - ubar * v)
    # a real zlam above the cut has the weight ln|omega - zlam|, short of the
    # principal log by i pi, which turns the exponential by e^{-i pi}
    if zlam.imag == 0.0 and zlam.real > g2:
        value = -value
    return complex(value) if value.ndim == 0 else value


class SpectralFrame:
    """Per-level bundle built from the sublevel set ``level`` alone: the
    level ``lam``, the multiplicity ``m``, the residue coefficients ``c``
    of the arcs and the weights rho_j = sqrt(c_j).

    The arc count is checked against the counting report of the level's
    admissible interval.  Immutable; all evaluators are pure functions of
    the stored data.
    """

    def __init__(self, sym: PiecewiseSymbol, level: LevelSet):
        self.sym = sym
        self.lam = float(level.lam)
        self.level = level
        self.m = level.m
        report = level_report(sym, self.lam)
        if report.m != self.m:
            raise FormMismatchError(
                f"level set has {self.m} arcs but the counting report says {report.m}"
            )
        self.c = coefficients_c(level.arcs)
        self._beta = np.exp(1j * np.array([a.beta for a in level.arcs]))
        self._alpha = np.exp(1j * np.array([a.alpha for a in level.arcs]))
        self._rho = np.sqrt(self.c)
        self._phase0 = np.exp(-0.5j * math.pi * level.measure)

    # -- scalar building blocks ------------------------------------------------

    def xi(self, z: complex) -> complex:
        return xi_point(self.sym, z, self.lam)

    # -- eigenfunctions ----------------------------------------------------------

    def _branches(self, zs: np.ndarray, xiv=None) -> np.ndarray:
        """Every eigenfunction at the points ``zs`` on either side of the
        circle, whose xi values are ``xiv`` (by default ``xi_grid``'s); shape
        (m,) + zs.shape.  The single phase rho_j xi K_beta_j e^{iA}, times the
        half-integer prefactor of the sublevel measure, fixes all branches at
        once; outside the disk A(z) = -conj A(1/conj z), as Q in ``q_function``.
        """
        if xiv is None:
            xiv = xi_grid(self.sym, zs, self.lam)
        outside = np.abs(zs) > 1.0
        mirror = np.divide(1.0, np.conj(zs), out=zs.copy(), where=outside)
        phase = phase_A_closed(self.level.arcs, mirror)
        common = self._phase0 * xiv * np.exp(1j * np.where(outside, -np.conj(phase), phase))
        col = (-1,) + (1,) * zs.ndim
        k = 1.0 / (1.0 - zs * np.conj(self._beta).reshape(col))
        return self._rho.reshape(col) * k * common

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

    def eigen_circle(self, r: float, m_out: int = 4096) -> np.ndarray:
        """All eigenfunctions on the uniform grid r e^{2 pi i k/m_out}, (m, m_out).

        xi comes from ``hardy.xi_circle``: the convolution fast path where
        that is exact, the level's closed form everywhere else."""
        xiv = hardy.xi_circle(self.sym, self.lam, r, m_out)
        return self._branches(r * np.exp(2j * math.pi * np.arange(m_out) / m_out), xiv)

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
        xis = xi_grid(self.sym, np.concatenate((u.ravel(), v.ravel())), self.lam)
        xiu, xiv = xis[:u.size].reshape(u.shape), xis[u.size:].reshape(v.shape)
        el_sum = np.sum(np.conj(self._branches(u, xiu)) * self._branches(v, xiv), axis=0)
        arcs = self.level.arcs
        sine = (np.conj(xiu) * xiv / (math.pi * (1.0 - np.conj(u) * v))
                * np.sin(np.conj(phase_A_closed(arcs, u)) + phase_A_closed(arcs, v)))
        return el_sum, sine

    def density(self, u, v):
        """Spectral density kernel evaluated both ways, broadcast over point
        arrays like ``density_pair``.

        Returns the eigenfunction-sum value after checking every entry
        against the sine form; a mismatch beyond FORM_TOL flags a branch
        defect.
        """
        el_sum, sine = self.density_pair(u, v)
        gap = np.abs(el_sum - sine)
        if np.any(gap > FORM_TOL * np.maximum(1.0, np.abs(el_sum))):
            raise FormMismatchError(
                f"density forms disagree by {np.max(gap):.3e} at lam={self.lam}"
            )
        return el_sum

    def eigen_taylor(self, nmax: int, radius: float = 0.7) -> np.ndarray:
        """Taylor coefficients of every eigenfunction, shape (m, nmax+1), read
        off ``eigen_circle`` at the given radius by FFT.  An m-point grid
        aliases coefficient n + m onto n with weight radius^m, so m is the
        smallest power of two >= 2(nmax + 1) with radius^m <= ``DEFAULT_TOL``.
        Larger radii tame the r^{-n} noise amplification of the higher
        coefficients and take more points.
        """
        if not 0.0 < radius <= hardy.CIRCLE_R_MAX:
            raise ValueError(f"circle radius must lie in (0, {hardy.CIRCLE_R_MAX}]")
        m = 2
        while m < 2 * (nmax + 1) or radius**m > DEFAULT_TOL:
            m *= 2
        coeffs = np.fft.fft(self.eigen_circle(radius, m), axis=1) / m
        return coeffs[:, : nmax + 1] * radius ** -np.arange(nmax + 1)

    def density_taylor(self, nmax: int) -> np.ndarray:
        """Gram matrix of the density against monomials z^n, n <= nmax."""
        coeffs = self.eigen_taylor(nmax)
        return coeffs.conj().T @ coeffs

    # -- complementary-arc variant -------------------------------------------------

    def alt_frame(self) -> "SpectralFrame":
        """Frame built on the complementary arcs, swapping the endpoint roles."""
        arcs = self.level.arcs
        tilde = []
        for j, arc in enumerate(arcs):
            prev_beta = arcs[j - 1].beta - (TWO_PI if j == 0 else 0.0)
            tilde.append(Arc(prev_beta, arc.alpha, arcs[j - 1].beta_kind, arc.alpha_kind))
        return SpectralFrame(self.sym, LevelSet(self.lam, tuple(tilde)))


def spectral_frame(sym: PiecewiseSymbol, lam: float) -> SpectralFrame:
    """Assemble the level set, arc coefficients, and multiplicity at a level."""
    return SpectralFrame(sym, sublevel_set(sym, lam))


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
    if np.any(np.abs(np.mod(ends - theta + math.pi, TWO_PI) - math.pi) < 1e-9):
        raise ValueError("boundary relation undefined at an arc end")
    om = sym.eval(theta)
    if abs(om - frame.lam) < GUARD:
        raise ValueError("boundary relation undefined where omega equals the level")
    frame._check_branch(j)
    inner, outer = frame._branches(np.array([1.0 - delta, 1.0 + delta]) * np.exp(1j * theta))[j - 1]
    return float(abs((om - frame.lam) * inner - outer))


def weak_measure(sym: PiecewiseSymbol, interval, u, v, g,
                 rtol: float = 1e-9, max_nodes: int = 1024):
    """Integral of g(lambda) times the density kernel over an admissible interval,
    for points ``u`` and ``v`` or arrays of them that broadcast as in
    ``SpectralFrame.density``.

    Gauss-Legendre in lambda with doubling until every entry settles; the
    density is smooth there, so convergence is fast for smooth weights.
    Raises ``QuadratureError`` with the worst change between doublings when
    ``max_nodes`` is reached before ``rtol``.
    """
    a, b = float(interval[0]), float(interval[1])
    counting_report(sym, (a, b))  # admissibility and constant multiplicity
    probe = np.concatenate((a - np.linspace(0.01, 1.0, 4) * (b - a),
                            b + np.linspace(0.01, 1.0, 4) * (b - a)))
    if any(g(float(x)) != 0.0 for x in probe):
        raise ValueError("weight function is supported outside the interval")
    u, v = np.asarray(u, dtype=complex), np.asarray(v, dtype=complex)
    shape = np.broadcast_shapes(u.shape, v.shape)

    def sample(n):
        x, w = gauss_legendre(n)
        lam = 0.5 * (a + b) + 0.5 * (b - a) * x
        total = np.zeros(shape, dtype=complex)
        for wl, la in zip(w, lam):
            gv = g(la)
            if gv == 0.0:
                continue
            total += wl * gv * spectral_frame(sym, la).density(u, v)
        return total * 0.5 * (b - a)

    n = 32
    prev = sample(n)
    delta = math.inf
    while n < max_nodes:
        n *= 2
        cur = sample(n)
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

    def jump(e):
        up = resolvent_form(sym, u, v, lam + 1j * e)
        dn = resolvent_form(sym, u, v, lam - 1j * e)
        return (up - dn) / (2j * math.pi)

    f1, f2, f4 = jump(eps), jump(eps / 2.0), jump(eps / 4.0)
    return (8.0 * f4 - 6.0 * f2 + f1) / 3.0
