"""The diagonalizing map on kernel combinations, its adjoint, the smoothed
variant read off boundary samples, and the intertwining checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hardy import gauss_legendre
from .levelset import counting_report
from .oracle import FiniteSection, oracle_weak_measure
from .spectral import SpectralFrame, resolvent_form, spectral_frame
from .symbol import PiecewiseSymbol


@dataclass(frozen=True)
class HardyVector:
    """Finite combination of reproducing kernels: f = sum c_i K_{z_i}."""

    terms: tuple[tuple[complex, complex], ...]

    def __post_init__(self):
        pts = [z for _, z in self.terms]
        for z in pts:
            if abs(z) >= 1.0:
                raise ValueError("kernel points must lie inside the disk")
        for i in range(len(pts)):
            for k in range(i + 1, len(pts)):
                if abs(pts[i] - pts[k]) < 1e-14:
                    raise ValueError("kernel points must be pairwise distinct")

    @classmethod
    def of(cls, *terms) -> "HardyVector":
        return cls(tuple((complex(c), complex(z)) for c, z in terms))

    def __call__(self, w: complex) -> complex:
        return complex(sum(c / (1.0 - np.conj(z) * w) for c, z in self.terms))

    def norm_squared(self) -> float:
        """H^2 norm squared via the kernel Gram matrix."""
        total = 0.0
        for ci, zi in self.terms:
            for ck, zk in self.terms:
                total += (ci * np.conj(ck) / (1.0 - zi * np.conj(zk))).real
        return float(total)


class FrameFamily:
    """Spectral frames on a Gauss-Legendre lambda grid over one admissible
    interval; every frame checks its multiplicity against the interval's."""

    def __init__(self, sym: PiecewiseSymbol, interval, n_grid: int = 256):
        self.sym = sym
        self.interval = (float(interval[0]), float(interval[1]))
        self.report = counting_report(sym, self.interval)
        self.m = self.report.m
        x, w = gauss_legendre(n_grid)
        a, b = self.interval
        self.lams = 0.5 * (a + b) + 0.5 * (b - a) * x
        self.weights = 0.5 * (b - a) * w
        self.frames = [spectral_frame(sym, lam) for lam in self.lams]
        self._taylor: dict[tuple, np.ndarray] = {}

    def __len__(self) -> int:
        return len(self.lams)

    def inner(self, F: np.ndarray, G: np.ndarray) -> complex:
        """L^2(Lambda; C^m) inner product of two grid functions (n, m)."""
        return complex(np.sum(self.weights[:, None] * F * np.conj(G)))

    def norm(self, F: np.ndarray) -> float:
        return math.sqrt(max(self.inner(F, F).real, 0.0))

    def taylor(self, nmax: int, radius: float = 0.7, nfft: int = 256) -> np.ndarray:
        """Eigenfunction Taylor coefficients on the grid, shape (n, m, nmax+1)."""
        key = (nmax, radius, nfft)
        if key not in self._taylor:
            self._taylor[key] = np.array(
                [fr.eigen_taylor(nmax, radius=radius, nfft=nfft) for fr in self.frames]
            )
        return self._taylor[key]


def phi_map(frame: SpectralFrame, f: HardyVector) -> np.ndarray:
    """Components of the diagonalizing map at one level: linear over the
    kernel terms, conjugating the eigenfunctions."""
    cs = np.array([c for c, _ in f.terms])
    zs = np.array([z for _, z in f.terms])
    return np.conj(frame.eigen_matrix(zs)) @ cs


def phi_map_family(family: FrameFamily, f: HardyVector) -> np.ndarray:
    """Grid function (n, m) of the diagonalizing map applied to f."""
    return np.array([phi_map(fr, f) for fr in family.frames])


def phi_adjoint(family: FrameFamily, values: np.ndarray, z: complex) -> complex:
    """Adjoint map: sum_j integral of phi_j(z; lam) g_j(lam) over the grid."""
    values = np.asarray(values, dtype=complex)
    total = 0.0 + 0.0j
    for k, fr in enumerate(family.frames):
        total += family.weights[k] * np.dot(fr.eigen_matrix([z]).ravel(), values[k])
    return complex(total)


def _trig_resample(vals: np.ndarray, m: int) -> np.ndarray:
    """Trigonometric interpolation of uniform circle samples onto m points."""
    n = len(vals)
    if m == n:
        return vals
    c = np.fft.fft(vals)
    out = np.zeros(m, dtype=complex)
    h = n // 2
    out[:h] = c[:h]
    out[m - h + 1:] = c[h + 1:]
    out[h] = 0.5 * c[h]
    out[m - h] += 0.5 * c[h]
    return np.fft.ifft(out) * (m / n)


def phi_r(family: FrameFamily, boundary_values: np.ndarray, r: float) -> np.ndarray:
    """Smoothed map from boundary samples by the uniform trapezoid rule.

    ``boundary_values`` samples the function on e^{2 pi i k/M}, M >= 512 a
    power of two.  The eigenfunction factor oscillates at scale 1-r, so the
    samples are trig-interpolated onto a grid fine enough that the trapezoid
    rule keeps its spectral accuracy for radii near the circle.
    """
    boundary_values = np.asarray(boundary_values, dtype=complex)
    M = len(boundary_values)
    if M < 512:
        raise ValueError("boundary grid needs at least 512 samples")
    if M & (M - 1):
        raise ValueError("boundary grid size must be a power of two")
    if not 0.0 < r < 1.0:
        raise ValueError("radius must lie in (0, 1)")
    m_quad = M
    while (1.0 - r) * m_quad < 16.0 and m_quad < 16384:
        m_quad *= 2
    bv = _trig_resample(boundary_values, m_quad)
    out = np.empty((len(family), family.m), dtype=complex)
    for k, fr in enumerate(family.frames):
        phi_vals = fr.eigen_circle(r, m_quad)
        out[k] = np.mean(bv[None, :] * np.conj(phi_vals), axis=1)
    return out


def phi_on_taylor(family: FrameFamily, fhat: np.ndarray, radius: float = 0.7) -> np.ndarray:
    """Diagonalizing map on a Taylor-coefficient vector (monomial basis)."""
    fhat = np.asarray(fhat, dtype=complex)
    coeffs = family.taylor(len(fhat) - 1, radius=radius)
    return np.einsum("n,kjn->kj", fhat, np.conj(coeffs))


def phi_adjoint_taylor(family: FrameFamily, values: np.ndarray, nmax: int,
                       radius: float = 0.7) -> np.ndarray:
    """Taylor coefficients of the adjoint map applied to a grid function."""
    values = np.asarray(values, dtype=complex)
    coeffs = family.taylor(nmax, radius=radius)
    return np.einsum("k,kjn,kj->n", family.weights, coeffs, values)


# -- independent projections for the intertwining checks ---------------------------


def _resolvent_bilinear(sym: PiecewiseSymbol, f: HardyVector, g: HardyVector,
                        zlam: complex) -> complex:
    total = 0.0 + 0.0j
    for ci, zi in f.terms:
        for ck, zk in g.terms:
            total += ci * np.conj(ck) * resolvent_form(sym, zi, zk, zlam)
    return complex(total)


def stone_projection(sym: PiecewiseSymbol, f: HardyVector, g: HardyVector,
                     subintervals, eps: float = 1e-2, n_nodes: int = 64) -> complex:
    """(E(X)f, g) for a finite union of intervals via the resolvent jump,
    second-order extrapolated in the offset."""
    x_nodes, x_w = gauss_legendre(n_nodes)

    def integral(e):
        total = 0.0 + 0.0j
        for a, b in subintervals:
            lam = 0.5 * (a + b) + 0.5 * (b - a) * x_nodes
            w = 0.5 * (b - a) * x_w
            for wl, la in zip(w, lam):
                up = _resolvent_bilinear(sym, f, g, la + 1j * e)
                dn = _resolvent_bilinear(sym, f, g, la - 1j * e)
                total += wl * (up - dn) / (2j * math.pi)
        return total

    f1, f2, f4 = integral(eps), integral(eps / 2.0), integral(eps / 4.0)
    return complex((8.0 * f4 - 6.0 * f2 + f1) / 3.0)


@dataclass(frozen=True)
class IntertwiningResult:
    value: complex                 # <1_X Phi f, Phi g>
    stone: complex
    stone_residual: float
    oracle: complex | None
    oracle_residual: float | None


def intertwining_check(family: FrameFamily, f: HardyVector, g: HardyVector,
                       subintervals, section: FiniteSection | None = None,
                       n_grid: int = 64) -> IntertwiningResult:
    """Compare <1_X Phi f, Phi g> against (E(X)f, g) from the resolvent jump
    and, when a section is supplied, from the finite-section oracle.

    Each subinterval of X gets its own quadrature grid: the integrand is
    smooth there, but a shared grid against a sharp indicator is not.
    """
    subintervals = [(float(a), float(b)) for a, b in subintervals]
    lo, hi = family.interval
    for a, b in subintervals:
        if not (lo - 1e-12 <= a < b <= hi + 1e-12):
            raise ValueError("X must be a union of subintervals of the family interval")
    value = 0.0 + 0.0j
    for a, b in subintervals:
        if (a, b) == family.interval:
            sub = family
        else:
            sub = FrameFamily(family.sym, (a, b), n_grid=n_grid)
        F = phi_map_family(sub, f)
        G = phi_map_family(sub, g)
        value += sub.inner(F, G)
    value = complex(value)

    stone = stone_projection(family.sym, f, g, subintervals)
    oracle_val = None
    oracle_res = None
    if section is not None:
        def gx(lam):
            return 1.0 if any(a <= lam <= b for a, b in subintervals) else 0.0

        total = 0.0 + 0.0j
        for ci, zi in f.terms:
            for ck, zk in g.terms:
                total += ci * np.conj(ck) * oracle_weak_measure(section, zi, zk, gx)
        oracle_val = complex(total)
        oracle_res = abs(value - oracle_val)
    return IntertwiningResult(value, stone, abs(value - stone), oracle_val, oracle_res)
