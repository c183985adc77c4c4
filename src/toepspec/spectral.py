"""Resolvent forms, the spectral density kernel, generalized eigenfunctions
with their exterior partners, and weak spectral integrals.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import FormMismatchError, QuadratureError
from . import hardy
from .hardy import (
    DEFAULT_TOL,
    MAX_DEPTH,
    ArcData,
    coefficients_c,
    phase_A_closed,
    xi as xi_point,
    xi_grid,
)
from .levelset import (
    Arc,
    GUARD,
    LevelSet,
    admissible_intervals,
    counting_report,
    sublevel_set,
)
from .symbol import TWO_PI, PiecewiseSymbol

FORM_TOL = 1e-8


def _cut_distance(zlam: complex, g1: float, g2: float) -> float:
    x, y = zlam.real, zlam.imag
    if x < g1:
        return math.hypot(x - g1, y)
    if x > g2:
        return math.hypot(x - g2, y)
    return abs(y)


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
    if _cut_distance(zlam, g1, g2) < 1e-8:
        raise ValueError("resolvent requested on the spectral cut")

    extra = [float(np.angle(p)) % TWO_PI for p in (u, v) if abs(p) > hardy.PEAK_RADIUS]
    x = zlam.real if g1 < zlam.real < g2 else None
    rule = hardy.plain_rule(sym, x, extra=tuple(extra), tol=tol)

    def integrand(theta):
        om = sym.values(theta)
        zf = v * np.exp(-1j * theta)
        zb = np.conj(u) * np.exp(1j * theta)
        kern = (1.0 + zf) / (1.0 - zf) + (1.0 + zb) / (1.0 - zb)
        return np.log(om - zlam) * kern

    value, err = rule.integrate(integrand)
    if err > tol * max(1.0, abs(value)):
        rule = hardy.plain_rule(sym, x, extra=tuple(extra), tol=tol, depth=MAX_DEPTH)
        value, err = rule.integrate(integrand)
        if err > tol * max(1.0, abs(value)):
            raise QuadratureError("resolvent quadrature stalled", achieved_tol=err)
    return complex(np.exp(-0.5 * value) / (1.0 - np.conj(u) * v))


class SpectralFrame:
    """Per-level bundle: sublevel arcs, residue weights, and multiplicity.

    Immutable; all evaluators are pure functions of the stored data.
    """

    def __init__(self, sym: PiecewiseSymbol, lam: float, level: LevelSet,
                 arcdata: ArcData, check_count: bool = True):
        self.sym = sym
        self.lam = float(lam)
        self.level = level
        self.arcdata = arcdata
        self.m = level.m
        if check_count:
            interval = self.enclosing_interval()
            report = counting_report(sym, interval)
            if report.m != self.m:
                raise FormMismatchError(
                    f"level set has {self.m} arcs but the counting report says {report.m}"
                )
        self._beta = np.exp(1j * np.array([a.beta for a in level.arcs]))
        self._alpha = np.exp(1j * np.array([a.alpha for a in level.arcs]))
        self._rho = np.array(arcdata.rho)
        self._phase0 = np.exp(-0.5j * math.pi * arcdata.measure)

    def enclosing_interval(self) -> tuple[float, float]:
        for a, b in admissible_intervals(self.sym):
            if a + GUARD < self.lam < b - GUARD:
                lo = a + min(10.0 * GUARD, 0.5 * (self.lam - a))
                hi = b - min(10.0 * GUARD, 0.5 * (b - self.lam))
                return (lo, hi)
        raise ValueError(f"level {self.lam} lies in no admissible interval")

    # -- scalar building blocks ------------------------------------------------

    def xi(self, z: complex) -> complex:
        return xi_point(self.sym, z, self.lam)

    def phase(self, z: complex) -> complex:
        return phase_A_closed(self.level.arcs, z)

    # -- eigenfunctions ----------------------------------------------------------

    def eigenfunction(self, j: int, z: complex) -> complex:
        """Branch-j generalized eigenfunction inside the disk.

        Uses the single-phase representation rho_j xi K_beta e^{iA} times
        the half-integer prefactor of the sublevel measure, which fixes all
        branches at once.
        """
        self._check_branch(j)
        if abs(z) >= 1.0:
            raise ValueError("interior eigenfunction needs |z| < 1")
        xiv = self.xi(z)
        Av = self.phase(z)
        k = 1.0 / (1.0 - z * np.conj(self._beta[j - 1]))
        return complex(self._phase0 * self._rho[j - 1] * xiv * k * np.exp(1j * Av))

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

    def phase_grid(self, zs) -> np.ndarray:
        """Vectorized interior phase over an array of points."""
        zs = np.asarray(zs, dtype=complex)
        alphas = np.array([a.alpha for a in self.level.arcs])
        betas = np.array([a.beta for a in self.level.arcs])
        logs = (np.log(1.0 - zs[..., None] * np.exp(-1j * alphas))
                - np.log(1.0 - zs[..., None] * np.exp(-1j * betas)))
        return 0.5 * math.pi * self.arcdata.measure + 0.5j * np.sum(logs, axis=-1)

    def eigen_matrix(self, zs) -> np.ndarray:
        """All interior eigenfunctions on an array of points, shape (m, nz).

        The xi and phase factors are shared across branches, so a whole
        z-row costs little more than one branch."""
        zs = np.asarray(zs, dtype=complex).ravel()
        xiv = xi_grid(self.sym, zs, self.lam)
        common = self._phase0 * xiv * np.exp(1j * self.phase_grid(zs))
        k = 1.0 / (1.0 - zs[None, :] * np.conj(self._beta)[:, None])
        return self._rho[:, None] * k * common[None, :]

    def eigen_grid(self, j: int, zs) -> np.ndarray:
        """Vectorized interior eigenfunction over an array of points."""
        self._check_branch(j)
        zs = np.asarray(zs, dtype=complex)
        return self.eigen_matrix(zs.ravel())[j - 1].reshape(zs.shape)

    def eigen_circle(self, r: float, m_out: int = 4096) -> np.ndarray:
        """All eigenfunctions on the uniform grid r e^{2 pi i k/m_out}, (m, m_out).

        Uses the convolution fast path for xi, so radii close to the circle
        cost the same as small ones."""
        zs = r * np.exp(2j * math.pi * np.arange(m_out) / m_out)
        xiv = hardy.xi_circle(self.sym, self.lam, r, m_out)
        common = self._phase0 * xiv * np.exp(1j * self.phase_grid(zs))
        k = 1.0 / (1.0 - zs[None, :] * np.conj(self._beta)[:, None])
        return self._rho[:, None] * k * common[None, :]

    def _check_branch(self, j: int):
        if not 1 <= j <= self.m:
            raise ValueError(f"branch index {j} outside 1..{self.m}")

    # -- density -----------------------------------------------------------------

    def density_pair(self, u: complex, v: complex) -> tuple[complex, complex]:
        """Both density forms: the eigenfunction sum and the sine form."""
        xiu, xiv = self.xi(u), self.xi(v)
        Au, Av = self.phase(u), self.phase(v)
        ku = 1.0 / (1.0 - u * np.conj(self._beta))
        kv = 1.0 / (1.0 - v * np.conj(self._beta))
        phases = np.exp(1j * (Av - np.conj(Au)))
        el_sum = complex(np.sum(self._rho**2 * np.conj(ku) * kv)
                         * np.conj(self._phase0) * self._phase0
                         * np.conj(xiu) * xiv * phases)
        sine = complex(
            np.conj(xiu) * xiv / (math.pi * (1.0 - np.conj(u) * v))
            * np.sin(np.conj(Au) + Av)
        )
        return el_sum, sine

    def density(self, u: complex, v: complex) -> complex:
        """Spectral density kernel evaluated both ways.

        Returns the eigenfunction-sum value after checking it against the
        sine form; a mismatch beyond FORM_TOL flags a branch defect.
        """
        el_sum, sine = self.density_pair(u, v)
        if abs(el_sum - sine) > FORM_TOL * max(1.0, abs(el_sum)):
            raise FormMismatchError(
                f"density forms disagree by {abs(el_sum - sine):.3e} at lam={self.lam}"
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
        return SpectralFrame(self.sym, self.lam, level, data, check_count=False)


def spectral_frame(sym: PiecewiseSymbol, lam: float, check_count: bool = True) -> SpectralFrame:
    """Assemble the level set, arc coefficients, and multiplicity at a level."""
    level = sublevel_set(sym, lam)
    if level.m == 0:
        raise ValueError(f"level {lam} lies outside the open spectral interval")
    data = coefficients_c(level.arcs, lam)
    return SpectralFrame(sym, lam, level, data, check_count=check_count)


class DensityKernel:
    """Hermitian rank-<=m evaluator of the spectral density at one level."""

    def __init__(self, frame: SpectralFrame):
        self.frame = frame
        self.lam = frame.lam

    def __call__(self, u: complex, v: complex) -> complex:
        return self.frame.density(u, v)

    def gram(self, points) -> np.ndarray:
        pts = list(points)
        g = np.empty((len(pts), len(pts)), dtype=complex)
        for i, u in enumerate(pts):
            for k, v in enumerate(pts):
                if k < i:
                    g[i, k] = np.conj(g[k, i])
                else:
                    g[i, k] = self(u, v)
        return g


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


def weak_measure(sym: PiecewiseSymbol, interval, u: complex, v: complex, g,
                 rtol: float = 1e-9, max_nodes: int = 1024) -> complex:
    """Integral of g(lambda) times the density kernel over an admissible interval.

    Gauss-Legendre in lambda with doubling until the value settles; the
    density is smooth there, so convergence is fast for smooth weights.
    Raises ``QuadratureError`` with the last change between doublings when
    ``max_nodes`` is reached before ``rtol``.
    """
    a, b = float(interval[0]), float(interval[1])
    counting_report(sym, (a, b))  # admissibility and constant multiplicity
    probe = np.concatenate((a - np.linspace(0.01, 1.0, 4) * (b - a),
                            b + np.linspace(0.01, 1.0, 4) * (b - a)))
    if any(g(float(x)) != 0.0 for x in probe):
        raise ValueError("weight function is supported outside the interval")

    def sample(n):
        x, w = np.polynomial.legendre.leggauss(n)
        lam = 0.5 * (a + b) + 0.5 * (b - a) * x
        total = 0.0 + 0.0j
        for wl, la in zip(w, lam):
            gv = g(la)
            if gv == 0.0:
                continue
            frame = spectral_frame(sym, la, check_count=False)
            total += wl * gv * frame.density(u, v)
        return total * 0.5 * (b - a)

    n = 32
    prev = sample(n)
    delta = math.inf
    while n < max_nodes:
        n *= 2
        cur = sample(n)
        delta = abs(cur - prev)
        if delta <= rtol * max(1.0, abs(cur)):
            return complex(cur)
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
