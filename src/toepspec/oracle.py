"""Finite-section validation oracle: truncated Toeplitz matrices, dense
Hermitian eigendecompositions, and weak spectral measures to compare with
every analytic formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .runtime import parallel_map
from .spectral import weak_measure
from .symbol import PiecewiseSymbol

_SQRT_HALF = math.sqrt(0.5)


class FiniteSection:
    """N x N leading truncation of the Toeplitz matrix with its eigendata.

    A Hermitian Toeplitz matrix T is persymmetric, J T J = conj(T) with J the
    exchange matrix, so U = (I + iJ)/sqrt(2) carries it to the real symmetric
    S = U^H T U = Re T - Im(T) J of the same size.  One real ``eigh`` of S
    gives the eigenvalues of T and real eigenvectors W, and T's eigenvectors
    are V = U W = (W + i J W)/sqrt(2).  For a real symbol Im T = 0 and S = T.
    """

    def __init__(self, sym: PiecewiseSymbol, N: int):
        if N < 2:
            raise ValueError("finite section needs N >= 2")
        self.sym = sym
        self.N = N
        coeffs = np.array([sym.fourier_coefficient(n) for n in range(N)])
        # t_{-(N-1)}, ..., t_{N-1}
        self._diagonals = np.concatenate((np.conj(coeffs[:0:-1]), coeffs))
        # S[j, k] = Re t_{j-k} - Im t_{j+k-(N-1)}: Toeplitz minus Hankel
        s = self._toeplitz(self._diagonals.real) - sliding_window_view(self._diagonals.imag, N)
        self.eigenvalues, self._w = np.linalg.eigh(s)
        g1, g2 = sym.essential_range()
        if self.eigenvalues[0] < g1 - 1e-10 or self.eigenvalues[-1] > g2 + 1e-10:
            raise ValueError("section eigenvalues escape the essential range")

    def _toeplitz(self, diagonals: np.ndarray) -> np.ndarray:
        """Read-only view M[j, k] = diagonals[j - k + N - 1]."""
        return sliding_window_view(diagonals[::-1], self.N)[::-1]

    @cached_property
    def matrix(self) -> np.ndarray:
        """The complex Hermitian section T itself, formed on first use."""
        return self._toeplitz(self._diagonals).copy()

    @cached_property
    def eigenvectors(self) -> np.ndarray:
        """Orthonormal eigenvectors of T as columns, formed on first use."""
        return _SQRT_HALF * (self._w + 1j * self._w[::-1])

    def project(self, x) -> np.ndarray:
        """Coefficients V^H x of a vector (or of the columns of a matrix) in
        the eigenbasis: W^T (x - i J x)/sqrt(2), in real matrix products."""
        x = np.asarray(x, dtype=complex)
        if x.ndim not in (1, 2) or x.shape[0] != self.N:
            raise ValueError(f"project needs {self.N} rows, got shape {x.shape}")
        cols = x.reshape(self.N, -1)
        flip = cols[::-1]
        k = cols.shape[1]
        y = np.empty((self.N, 2 * k))
        y[:, :k] = cols.real + flip.imag
        y[:, k:] = cols.imag - flip.real
        r = self._w.T @ y
        return (_SQRT_HALF * (r[:, :k] + 1j * r[:, k:])).reshape(x.shape)

    def orthonormality_residual(self) -> float:
        v = self.eigenvectors
        return float(np.max(np.abs(v.conj().T @ v - np.eye(self.N))))


def build_section(sym: PiecewiseSymbol, N: int) -> FiniteSection:
    return FiniteSection(sym, N)


def k_vector(u: complex, N: int) -> tuple[np.ndarray, float]:
    """Truncated coefficient sequence of the reproducing kernel at u, with
    the geometric-tail bound of the discarded part."""
    if abs(u) >= 1.0:
        raise ValueError("kernel point must lie inside the disk")
    vec = np.conj(u) ** np.arange(N)
    tail = abs(u) ** N / (1.0 - abs(u))
    return vec, tail


def _weights(section: FiniteSection, g) -> np.ndarray:
    return np.array([g(lam) for lam in section.eigenvalues])


def oracle_weak_measure(section: FiniteSection, u: complex, v: complex, g) -> complex:
    """(g(T_N) K_u^N, K_v^N) from the section's eigendata."""
    ku, _ = k_vector(u, section.N)
    kv, _ = k_vector(v, section.N)
    a, b = section.project(np.stack((ku, kv), axis=1)).T
    return complex(np.sum(_weights(section, g) * a * np.conj(b)))


@dataclass
class ValidationReport:
    """Error table of |oracle - analytic| per section size and point pair.

    ``monotone`` is an envelope statement: section errors for jump symbols
    oscillate through zero while shrinking, so adjacent sizes can swap
    order; the comparison skips one rung and allows wiggle below
    ``NOISE_FLOOR`` once the analytic quadrature noise is reached.
    """

    NOISE_FLOOR = 1e-9

    interval: tuple[float, float]
    sizes: tuple[int, ...]
    pairs: tuple[tuple[complex, complex], ...]
    analytic: tuple[complex, ...]
    errors: np.ndarray            # shape (len(sizes), len(pairs))
    monotone: bool = field(init=False)
    max_final_error: float = field(init=False)

    def __post_init__(self):
        e = self.errors
        ok = True
        if len(self.sizes) > 1:
            ok = bool(np.all(e[-1] <= e[0] + self.NOISE_FLOOR))
        for i in range(len(self.sizes) - 2):
            ok = ok and bool(np.all(e[i + 2] <= e[i] + self.NOISE_FLOOR))
        self.monotone = ok
        self.max_final_error = float(np.max(e[-1]))

    def passed(self, tol: float = 5e-3) -> bool:
        return self.monotone and self.max_final_error <= tol


def smooth_bump(a: float, b: float):
    """C^2 bump supported on (a, b): finite sections converge weakly, so
    sharp indicators are avoided in oracle comparisons."""
    if not a < b:
        raise ValueError("bump needs a < b")
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)

    def g(lam: float) -> float:
        x = (lam - mid) / half
        if abs(x) >= 1.0:
            return 0.0
        return (1.0 - x * x) ** 3

    return g


def validate(sym: PiecewiseSymbol, interval, g, points, sizes) -> ValidationReport:
    """Compare the section weak measures against the analytic one.

    ``points`` is a list of disk points; all ordered pairs are tested.  The
    analytic Gram matrix comes from one broadcast ``weak_measure`` call,
    each section's from one projection of all kernel vectors.
    """
    a, b = float(interval[0]), float(interval[1])
    pairs = tuple((u, v) for u in points for v in points)
    pts = np.asarray(points, dtype=complex)
    # analytic[i, k] = weak measure of (K_{p_i}, K_{p_k}), row-major like pairs
    analytic = tuple(weak_measure(sym, (a, b), pts[:, None], pts[None, :], g).ravel().tolist())
    sizes = tuple(int(n) for n in sizes)

    def one(N):
        sec = build_section(sym, N)
        coef = sec.project(np.stack([k_vector(p, N)[0] for p in points], axis=1))
        # gram[i, k] = (g(T_N) K_{p_i}, K_{p_k}), row-major in the order of pairs
        gram = (_weights(sec, g)[:, None] * coef).T @ np.conj(coef)
        return gram.ravel()

    rows = parallel_map(one, sizes)
    errors = np.abs(np.array(rows) - np.array(analytic))
    return ValidationReport((a, b), sizes, pairs, analytic, errors)
