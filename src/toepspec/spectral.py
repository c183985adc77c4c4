"""Resolvent forms, the spectral density kernel, generalized eigenfunctions
with their exterior partners, and weak spectral integrals.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import FormMismatchError, QuadratureError
from . import hardy
from .hardy import (
    DEFAULT_DEPTH,
    DEFAULT_TOL,
    MAX_DEPTH,
    ArcData,
    coefficients_c,
    gauss_legendre,
    phase_A_closed,
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
from .symbol import TWO_PI, PiecewiseSymbol

FORM_TOL = 1e-8


def resolvent_form(sym: PiecewiseSymbol, u: complex, v: complex, zlam: complex,
                   tol: float = DEFAULT_TOL) -> complex:
    """Bilinear resolvent form on a pair of reproducing kernels.

    Principal logarithm of omega - zlam (real and positive below the
    spectrum), integrated against the two Schwarz factors; analytic off
    the spectral cut, real and positive for real zlam below it.
    """
    if abs(u) >= 1.0 or abs(v) >= 1.0:
        raise ValueError("kernel points must lie inside the disk")
    g1, g2 = sym.essential_range()
    zlam = complex(zlam)
    if abs(zlam - min(max(zlam.real, g1), g2)) < 1e-8:  # distance to the cut [g1, g2]
        raise ValueError("resolvent requested on the spectral cut")

    extra = [float(np.angle(p)) % TWO_PI for p in (u, v) if abs(p) > hardy.PEAK_RADIUS]
    x = zlam.real if g1 < zlam.real < g2 else None

    def integrand(theta):
        om = sym.values(theta)
        zf = v * np.exp(-1j * theta)
        zb = np.conj(u) * np.exp(1j * theta)
        kern = (1.0 + zf) / (1.0 - zf) + (1.0 + zb) / (1.0 - zb)
        return np.log(om - zlam) * kern

    for depth in (DEFAULT_DEPTH, MAX_DEPTH):
        rule = hardy.plain_rule(sym, x, extra=tuple(extra), tol=tol, depth=depth)
        value, err = rule.integrate(integrand)
        if err <= tol * max(1.0, abs(value)):
            return complex(np.exp(-0.5 * value) / (1.0 - np.conj(u) * v))
    raise QuadratureError("resolvent quadrature stalled", achieved_tol=err)


class SpectralFrame:
    """Per-level bundle: sublevel arcs, residue weights, and multiplicity.

    The arc count is checked against the counting report of the level's
    admissible interval.  Immutable; all evaluators are pure functions of
    the stored data.
    """

    def __init__(self, sym: PiecewiseSymbol, lam: float, level: LevelSet, arcdata: ArcData):
        self.sym = sym
        self.lam = float(lam)
        self.level = level
        self.arcdata = arcdata
        self.m = level.m
        report = level_report(sym, self.lam)
        if report.m != self.m:
            raise FormMismatchError(
                f"level set has {self.m} arcs but the counting report says {report.m}"
            )
        self._beta = np.exp(1j * np.array([a.beta for a in level.arcs]))
        self._alpha = np.exp(1j * np.array([a.alpha for a in level.arcs]))
        self._rho = np.array(arcdata.rho)
        self._phase0 = np.exp(-0.5j * math.pi * arcdata.measure)

    # -- scalar building blocks ------------------------------------------------

    def xi(self, z: complex) -> complex:
        return xi_point(self.sym, z, self.lam)

    # -- eigenfunctions ----------------------------------------------------------

    def _branches(self, zs: np.ndarray, xiv: np.ndarray) -> np.ndarray:
        """Every interior eigenfunction at the points ``zs``, whose xi values
        are ``xiv``; shape (m,) + zs.shape.

        Uses the single-phase representation rho_j xi K_beta_j e^{iA} times
        the half-integer prefactor of the sublevel measure, which fixes all
        branches at once.
        """
        if np.any(np.abs(zs) >= 1.0):
            raise ValueError("interior eigenfunction needs |z| < 1")
        common = self._phase0 * xiv * np.exp(1j * phase_A_closed(self.level.arcs, zs))
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
        xiv = self.xi(z)
        fac = 1.0 / (1.0 - z * np.conj(self._beta[j - 1]))
        for al, be in zip(self._alpha, self._beta):
            fac *= (1.0 - z * np.conj(al)) ** -0.5 * (1.0 - z * np.conj(be)) ** 0.5
        return complex(self._rho[j - 1] * xiv * fac)

    def eigenfunction_ext(self, j: int, z: complex) -> complex:
        """Exterior partner, O(1/z) at infinity, solving the boundary relation."""
        self._check_branch(j)
        if abs(z) <= 1.0:
            raise ValueError("exterior eigenfunction needs |z| > 1")
        xiv = self.xi(z)
        fac = 1.0 / (1.0 - z * np.conj(self._beta[j - 1]))
        for al, be in zip(self._alpha, self._beta):
            fac *= (1.0 - al / z) ** -0.5 * (1.0 - be / z) ** 0.5
        pref = np.exp(-1j * math.pi * self.arcdata.measure)
        return complex(self._rho[j - 1] * pref * xiv * fac)

    def eigen_matrix(self, zs) -> np.ndarray:
        """All interior eigenfunctions on an array of points, shape (m, nz).

        The xi and phase factors are shared across branches, so a whole
        z-row costs little more than one branch."""
        zs = np.asarray(zs, dtype=complex).ravel()
        return self._branches(zs, xi_grid(self.sym, zs, self.lam))

    def eigen_circle(self, r: float, m_out: int = 4096) -> np.ndarray:
        """All eigenfunctions on the uniform grid r e^{2 pi i k/m_out}, (m, m_out).

        Uses the convolution fast path for xi, so radii close to the circle
        cost the same as small ones."""
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

    def eigen_taylor(self, nmax: int, radius: float = 0.7, nfft: int = 512) -> np.ndarray:
        """Taylor coefficients of every eigenfunction, shape (m, nmax+1).

        Read off a circle of the given radius by FFT through the circle fast
        path; the alias tail is far below the quadrature noise for the radii
        used here.  Larger radii tame the r^{-n} noise amplification of the
        higher coefficients.
        """
        if nmax + 1 > nfft // 2:
            raise ValueError("nfft must exceed twice the requested order")
        vals = self.eigen_circle(radius, nfft)
        coeffs = np.fft.fft(vals, axis=1) / nfft
        scale = radius ** -np.arange(nmax + 1)
        return coeffs[:, : nmax + 1] * scale[None, :]

    def density_taylor(self, nmax: int, radius: float = 0.7, nfft: int = 512) -> np.ndarray:
        """Gram matrix of the density against monomials z^n, n <= nmax."""
        coeffs = self.eigen_taylor(nmax, radius=radius, nfft=nfft)
        return coeffs.conj().T @ coeffs

    # -- complementary-arc variant -------------------------------------------------

    def alt_frame(self) -> "SpectralFrame":
        """Frame built on the complementary arcs, swapping the endpoint roles."""
        arcs = self.level.arcs
        tilde = []
        for j, arc in enumerate(arcs):
            prev_beta = arcs[j - 1].beta - (TWO_PI if j == 0 else 0.0)
            tilde.append(Arc(prev_beta, arc.alpha, arcs[j - 1].beta_kind, arc.alpha_kind))
        level = LevelSet(self.lam, tuple(tilde))
        data = coefficients_c(tuple(tilde), self.lam)
        return SpectralFrame(self.sym, self.lam, level, data)


def spectral_frame(sym: PiecewiseSymbol, lam: float) -> SpectralFrame:
    """Assemble the level set, arc coefficients, and multiplicity at a level."""
    level = sublevel_set(sym, lam)
    if level.m == 0:
        raise ValueError(f"level {lam} lies outside the open spectral interval")
    data = coefficients_c(level.arcs, lam)
    return SpectralFrame(sym, lam, level, data)


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
    for arc in frame.level.arcs:
        for end in (arc.alpha % TWO_PI, arc.beta % TWO_PI):
            if abs(theta - end) < 1e-9 or abs(abs(theta - end) - TWO_PI) < 1e-9:
                raise ValueError("boundary relation undefined at an arc end")
    om = sym.eval(theta)
    if abs(om - frame.lam) < GUARD:
        raise ValueError("boundary relation undefined where omega equals the level")
    zin = (1.0 - delta) * np.exp(1j * theta)
    zout = (1.0 + delta) * np.exp(1j * theta)
    inner = frame.eigenfunction(j, zin)
    outer = frame.eigenfunction_ext(j, zout)
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


def stone_density(sym: PiecewiseSymbol, u: complex, v: complex, lam: float,
                  eps: float = 1e-2) -> complex:
    """Density recovered from the resolvent jump across the cut, with
    second-order extrapolation in the offsets eps, eps/2, eps/4."""

    def jump(e):
        up = resolvent_form(sym, u, v, lam + 1j * e)
        dn = resolvent_form(sym, u, v, lam - 1j * e)
        return (up - dn) / (2j * math.pi)

    f1, f2, f4 = jump(eps), jump(eps / 2.0), jump(eps / 4.0)
    return complex((8.0 * f4 - 6.0 * f2 + f1) / 3.0)
