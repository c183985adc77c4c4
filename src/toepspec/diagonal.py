"""The diagonalizing map on kernel combinations, its adjoint, the smoothed
variant read off boundary samples, and the intertwining checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hardy import CIRCLE_R_MAX, gauss_legendre
from .oracle import FiniteSection, oracle_weak_measure
from .spectral import FrameFamily, SpectralFrame, _taylor_points, stone_density
from .symbol import DEFAULT_TOL, PiecewiseSymbol


@dataclass(frozen=True)
class HardyVector:
    """Finite combination of reproducing kernels: f = sum c_i K_{z_i}."""

    terms: tuple[tuple[complex, complex], ...]

    def __post_init__(self):
        pts = [z for _, z in self.terms]
        if any(abs(z) >= 1.0 for z in pts):
            raise ValueError("kernel points must lie inside the disk")
        if any(abs(z - w) < 1e-14 for i, z in enumerate(pts) for w in pts[i + 1:]):
            raise ValueError("kernel points must be pairwise distinct")

    @classmethod
    def of(cls, *terms) -> "HardyVector":
        return cls(tuple((complex(c), complex(z)) for c, z in terms))

    def __call__(self, w: complex) -> complex:
        return complex(sum(c / (1.0 - np.conj(z) * w) for c, z in self.terms))

    def norm_squared(self) -> float:
        """H^2 norm squared via the kernel Gram matrix <K_zi, K_zk> = K_zi(zk)."""
        return float(sum((ci * np.conj(ck) / (1.0 - np.conj(zi) * zk)).real
                         for ci, zi in self.terms for ck, zk in self.terms))


def phi_map(frame: SpectralFrame, f: HardyVector) -> np.ndarray:
    """Components of the diagonalizing map at one level: linear over the
    kernel terms, conjugating the eigenfunctions."""
    cs = np.array([c for c, _ in f.terms])
    zs = np.array([z for _, z in f.terms])
    return np.conj(frame.eigen_matrix(zs)) @ cs


def phi_map_family(family: FrameFamily, f: HardyVector) -> np.ndarray:
    """Grid function (n, m) of the diagonalizing map applied to f."""
    out = np.empty((len(family), family.m), dtype=complex)
    for part, frame in family.frame._parts(family.m * len(f.terms)):
        out[part] = phi_map(frame, f)
    return out


def phi_adjoint(family: FrameFamily, values: np.ndarray, z: complex) -> complex:
    """Adjoint map at z: <g, Phi K_z>, the integral over the grid of
    sum_j g_j(lam) phi_j(z; lam)."""
    return family.inner(values, phi_map_family(family, HardyVector.of((1.0, z))))


def _phi_on_circle(family: FrameFamily, fhat: np.ndarray, r: float, radius: float) -> np.ndarray:
    """sum_n fhat_n r^n conj(phi_n) on the family grid, phi_n the Taylor
    coefficients of each eigenfunction: the mean, over the
    ``_taylor_points(len(fhat) - 1, radius)`` points zeta, of sum_n fhat_n
    (r/radius)^n zeta^n times conj phi(radius zeta).  That grid aliases
    coefficient n + m onto n with weight radius^m, so only the radius sets
    the accuracy.  One ``eigen_circle`` call per chunk.  Where
    (r/radius)^n overflows, fhat_n (r/radius)^n is taken in two halves of
    the power, and is 0 for fhat_n = 0; a product that is still not finite
    raises ``ValueError`` before any circle pass."""
    m = _taylor_points(len(fhat) - 1, radius)
    n = np.arange(len(fhat))
    with np.errstate(over="ignore", invalid="ignore"):
        power = (r / radius) ** n
        scaled = fhat * power
        big = ~np.isfinite(power)
        if big.any():
            half = n[big] // 2
            scaled[big] = np.where(fhat[big] == 0.0, 0.0, fhat[big] * (r / radius) ** half
                                   * (r / radius) ** (n[big] - half))
    if not np.all(np.isfinite(scaled)):
        raise ValueError("the coefficients times (r/radius)^n are not finite")
    g = np.fft.ifft(scaled, m)
    out = np.empty((len(family), family.m), dtype=complex)
    for part, frame in family.frame._parts(family.m * m):
        out[part] = np.conj(frame.eigen_circle(radius, m)) @ g
    return out


def phi_r(family: FrameFamily, boundary_values: np.ndarray, r: float) -> np.ndarray:
    """Smoothed map sum_n fhat_n r^n conj(phi_n) from boundary samples, for r
    in (0, ``CIRCLE_R_MAX``].  ``boundary_values`` samples the function on
    e^{2 pi i k/M}, M >= 512 a power of two, and fhat_n, n < M/2, is their
    FFT.  The sum is read on the M-point circle of radius min(r, rho_M),
    rho_M the largest radius at which M points alias no more than
    ``DEFAULT_TOL``.
    """
    boundary_values = np.asarray(boundary_values, dtype=complex)
    if boundary_values.ndim != 1 or not np.all(np.isfinite(boundary_values)):
        raise ValueError("boundary samples must be a finite 1-D array")
    M = len(boundary_values)
    if M < 512:
        raise ValueError("boundary grid needs at least 512 samples")
    if M & (M - 1):
        raise ValueError("boundary grid size must be a power of two")
    if not 0.0 < r <= CIRCLE_R_MAX:
        raise ValueError(f"radius must lie in (0, {CIRCLE_R_MAX}]")
    rho = DEFAULT_TOL ** (1.0 / M)
    if rho**M > DEFAULT_TOL:   # rounded up: _taylor_points would double the grid
        rho = float(np.nextafter(rho, 0.0))
    fhat = np.fft.fft(boundary_values)[: M // 2] / M
    return _phi_on_circle(family, fhat, r, min(r, rho))


def phi_on_taylor(family: FrameFamily, fhat: np.ndarray, radius: float = 0.7) -> np.ndarray:
    """Diagonalizing map on a Taylor-coefficient vector (monomial basis), read
    on the circle of the given radius.  Coefficients whose products with
    radius^{-n} are not finite raise ``ValueError``."""
    return _phi_on_circle(family, np.asarray(fhat, dtype=complex), 1.0, radius)


def phi_adjoint_taylor(family: FrameFamily, values: np.ndarray, nmax: int,
                       radius: float = 0.7) -> np.ndarray:
    """Taylor coefficients of the adjoint map applied to a grid function."""
    values = np.asarray(values, dtype=complex)
    coeffs = family.taylor(nmax, radius=radius)
    return np.einsum("k,kjn,kj->n", family.weights, coeffs, values)


# -- independent projections for the intertwining checks ---------------------------


def _parts_of_x(subintervals) -> list[tuple[float, float]]:
    """The subintervals of X as floats.  Each one is summed on its own, so
    two that overlap would count their overlap twice: they raise
    ``ValueError``, and ones that only touch are allowed."""
    parts = [(float(a), float(b)) for a, b in subintervals]
    ordered = sorted(parts)
    if any(c < b for (_, b), (c, _) in zip(ordered, ordered[1:])):
        raise ValueError("the subintervals of X must not overlap")
    return parts


def stone_projection(sym: PiecewiseSymbol, f: HardyVector, g: HardyVector,
                     subintervals, n_nodes: int = 64) -> complex:
    """(E(X)f, g) for a finite union of intervals that do not overlap: the
    Stone density Gram of the kernel points, integrated over each interval."""
    cf, zf = np.array(f.terms, dtype=complex).reshape(-1, 2).T
    cg, zg = np.array(g.terms, dtype=complex).reshape(-1, 2).T
    x_nodes, x_w = gauss_legendre(n_nodes)
    total = 0.0 + 0.0j
    for a, b in _parts_of_x(subintervals):
        for wl, la in zip(0.5 * (b - a) * x_w, 0.5 * (a + b) + 0.5 * (b - a) * x_nodes):
            gram = stone_density(sym, zf[:, None], zg[None, :], float(la))
            total += wl * (cf @ gram @ np.conj(cg))
    return complex(total)


@dataclass(frozen=True)
class IntertwiningResult:
    value: complex                 # <1_X Phi f, Phi g>
    stone: complex
    stone_residual: float
    oracle: complex | None
    oracle_residual: float | None


def intertwining_check(family: FrameFamily, f: HardyVector, g: HardyVector,
                       subintervals, section: FiniteSection | None = None) -> IntertwiningResult:
    """Compare <1_X Phi f, Phi g> against (E(X)f, g) from the resolvent jump
    and, when a section is supplied, from the finite-section oracle.

    Each subinterval of X gets its own quadrature grid: the integrand is
    smooth there, but a shared grid against a sharp indicator is not.  The
    subintervals must not overlap.
    """
    subintervals = _parts_of_x(subintervals)
    lo, hi = family.interval
    for a, b in subintervals:
        if not (lo - 1e-12 <= a < b <= hi + 1e-12):
            raise ValueError("X must be a union of subintervals of the family interval")
    value = 0.0 + 0.0j
    for a, b in subintervals:
        if (a, b) == family.interval:
            sub = family
        else:
            sub = FrameFamily(family.sym, (a, b), n_grid=64)
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

        cf, zf = np.array(f.terms, dtype=complex).reshape(-1, 2).T
        cg, zg = np.array(g.terms, dtype=complex).reshape(-1, 2).T
        gram = oracle_weak_measure(section, zf[:, None], zg[None, :], gx)
        oracle_val = complex(cf @ gram @ np.conj(cg))
        oracle_res = abs(value - oracle_val)
    return IntertwiningResult(value, stone, abs(value - stone), oracle_val, oracle_res)
