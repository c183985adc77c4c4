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
# An axis is accepted when every rotated coefficient t_n e^{in theta0} is
# real to within this many units of (n + 1) eps sup|omega|: the rounding of
# the phase n theta0 and of the closed-form coefficients themselves.
AXIS_ROUNDING = 8.0


def _toeplitz(diagonals: np.ndarray, n: int) -> np.ndarray:
    """Read-only n x n view M[j, k] = diagonals[j - k + n - 1]."""
    return sliding_window_view(diagonals[::-1], n)[::-1]


def _real_product(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """w^T x for a real w and complex columns x, in one real product."""
    k = x.shape[1]
    r = w.T @ np.concatenate((x.real, x.imag), axis=1)
    return r[:, :k] + 1j * r[:, k:]


def _reflection_axis(coeffs: np.ndarray, sup: float) -> tuple[float, np.ndarray] | None:
    """An angle theta0 in [0, pi) about which a symbol with sup|omega| = ``sup``
    is even, read off its Fourier coefficients t_0, ..., t_{N-1}, with the
    real coefficients r_n = t_n e^{in theta0}; None when no axis passes.

    An even symbol has arg t_n = -n theta0 mod pi, so the axes to try are
    (k pi - arg t_n*) / n* for k < n*, at the mode n* >= 1 of largest
    modulus, whose phase carries the least rounding.  An axis is accepted
    only if every Im r_n lies within ``AXIS_ROUNDING`` (n + 1) eps sup.  The
    scale is sup|omega|, not max|t|: the coefficients of a short arc are
    small differences of terms of size sup|omega|, and carry their rounding.
    """
    n = np.arange(len(coeffs))
    bound = AXIS_ROUNDING * (n + 1) * np.finfo(float).eps * sup
    top = 1 + int(np.argmax(np.abs(coeffs[1:])))
    for k in range(top):
        theta = (k * math.pi - np.angle(coeffs[top])) / top % math.pi
        rotated = coeffs * np.exp(1j * n * theta)
        if np.all(np.abs(rotated.imag) <= bound):
            return theta, rotated.real
    return None


def _split_blocks(r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Even and odd blocks of the real symmetric Toeplitz R[j, k] = r_|j-k|.

    R is centrosymmetric, J R J = R, so the vectors (x; J x) and (x; -J x)
    reduce it to A + J B and A - J B with A its leading m x m block and
    J B the Hankel block r_{N-1-j-k}, m = N // 2.  For odd N the even
    vectors (x; sqrt2 c; J x)/sqrt2 add the centre row with coupling
    sqrt2 r_{m-j}.  Built from the diagonals, no N x N array.
    """
    N = len(r)
    m = N // 2
    a = _toeplitz(np.concatenate((r[m - 1:0:-1], r[:m])), m)
    hankel = sliding_window_view(r[N - 1:N - 2 * m:-1], m)
    even = np.empty((N - m, N - m))
    np.add(a, hankel, out=even[:m, :m])
    if N % 2:
        even[m, :m] = even[:m, m] = math.sqrt(2.0) * r[m:0:-1]
        even[m, m] = r[0]
    return even, a - hankel


class FiniteSection:
    """N x N leading truncation of the Toeplitz matrix with its eigendata.

    Two routes to the eigendata, chosen by the coefficients alone:

    - **Reflection split.** A symbol even about an angle theta0 has
      T = D R D^H with D = diag(e^{-ij theta0}) and R the real symmetric
      Toeplitz matrix of r_n = t_n e^{in theta0} (``_reflection_axis``).
      R is centrosymmetric and splits into two real blocks of half size
      (``_split_blocks``), each diagonalised by one real ``eigh``.  The
      imaginary parts dropped from r_n are rounding, at most
      ``AXIS_ROUNDING`` (n + 1) eps sup|omega| each.
    - **Persymmetric reduction.** Any Hermitian Toeplitz T satisfies
      J T J = conj(T) with J the exchange matrix, so U = (I + iJ)/sqrt(2)
      carries it to the real symmetric S = U^H T U = Re T - Im(T) J of the
      same size.  One real ``eigh`` of S gives the eigenvalues and real
      eigenvectors W; T's eigenvectors are V = U W = (W + i J W)/sqrt(2).

    ``axis`` is theta0 on the split route and None on the other.
    """

    def __init__(self, sym: PiecewiseSymbol, N: int):
        if not isinstance(N, (int, np.integer)) or N < 2:
            raise ValueError(f"finite section needs an integer N >= 2, got {N!r}")
        self.sym = sym
        self.N = N
        coeffs = sym.fourier_coefficients(N)
        # t_{-(N-1)}, ..., t_{N-1}
        self._diagonals = np.concatenate((np.conj(coeffs[:0:-1]), coeffs))
        g1, g2 = sym.essential_range()
        found = _reflection_axis(coeffs, max(abs(g1), abs(g2)))
        if found is None:
            self.axis = None
            # S[j, k] = Re t_{j-k} - Im t_{j+k-(N-1)}: Toeplitz minus Hankel
            s = _toeplitz(self._diagonals.real, N) - sliding_window_view(self._diagonals.imag, N)
            self.eigenvalues, self._w = np.linalg.eigh(s)
        else:
            self.axis, r = found
            self._phase = np.exp(-1j * self.axis * np.arange(N))
            (ve, self._we), (vo, self._wo) = (np.linalg.eigh(b) for b in _split_blocks(r))
            vals = np.concatenate((ve, vo))
            self._order = np.argsort(vals, kind="stable")
            self.eigenvalues = vals[self._order]
        if self.eigenvalues[0] < g1 - 1e-10 or self.eigenvalues[-1] > g2 + 1e-10:
            raise ValueError("section eigenvalues escape the essential range")

    @cached_property
    def matrix(self) -> np.ndarray:
        """The complex Hermitian section T itself, formed on first use."""
        return _toeplitz(self._diagonals, self.N).copy()

    @cached_property
    def eigenvectors(self) -> np.ndarray:
        """Orthonormal eigenvectors of T as columns, formed on first use."""
        if self.axis is None:
            return _SQRT_HALF * (self._w + 1j * self._w[::-1])
        N, m = self.N, self.N // 2
        w = np.zeros((N, N))
        we, wo = self._we, self._wo
        w[:m, :N - m] = _SQRT_HALF * we[:m]
        w[N - m:, :N - m] = _SQRT_HALF * we[m - 1::-1]
        w[m:N - m, :N - m] = we[m:]
        w[:m, N - m:] = _SQRT_HALF * wo
        w[N - m:, N - m:] = -_SQRT_HALF * wo[::-1]
        return self._phase[:, None] * w[:, self._order]

    def project(self, x) -> np.ndarray:
        """Coefficients V^H x of a vector (or of the columns of a matrix) in
        the eigenbasis, in real matrix products: W^T (x - i J x)/sqrt(2) on
        the persymmetric route, the two blocks on conj(D) x on the split."""
        x = np.asarray(x, dtype=complex)
        if x.ndim not in (1, 2) or x.shape[0] != self.N:
            raise ValueError(f"project needs {self.N} rows, got shape {x.shape}")
        cols = x.reshape(self.N, -1)
        if self.axis is None:
            return (_SQRT_HALF * _real_product(self._w, cols - 1j * cols[::-1])).reshape(x.shape)
        N, m = self.N, self.N // 2
        y = np.conj(self._phase)[:, None] * cols
        top, bottom = y[:m], y[:N - m - 1:-1]
        even = np.concatenate((_SQRT_HALF * (top + bottom), y[m:N - m]))
        coef = np.concatenate((_real_product(self._we, even),
                               _real_product(self._wo, _SQRT_HALF * (top - bottom))))
        return coef[self._order].reshape(x.shape)

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


def oracle_weak_measure(section: FiniteSection, u, v, g):
    """(g(T_N) K_u^N, K_v^N) from the section's eigendata, for points ``u``
    and ``v`` or arrays of them that broadcast as in ``weak_measure``.

    The u and v kernels are projected in one call and their weighted Gram
    is formed in one product; the broadcast entries are read off it.
    """
    u, v = np.asarray(u, dtype=complex), np.asarray(v, dtype=complex)
    kernels = [k_vector(p, section.N)[0] for p in np.concatenate((u.ravel(), v.ravel()))]
    coef = section.project(np.stack(kernels, axis=1))
    weights = np.array([g(lam) for lam in section.eigenvalues])
    gram = (weights[:, None] * coef[:, :u.size]).T @ np.conj(coef[:, u.size:])
    shape = np.broadcast_shapes(u.shape, v.shape)
    value = gram[np.broadcast_to(np.arange(u.size).reshape(u.shape), shape),
                 np.broadcast_to(np.arange(v.size).reshape(v.shape), shape)]
    return complex(value) if value.ndim == 0 else value


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

    def passed(self) -> bool:
        return self.monotone and self.max_final_error <= 5e-3


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
    each section's from one broadcast ``oracle_weak_measure`` call.
    """
    sizes = tuple(sizes)
    if not sizes:
        raise ValueError("sizes is an empty list: validation needs one section size at least")
    bad = next((n for n in sizes if not isinstance(n, (int, np.integer)) or n < 2), None)
    if bad is not None:
        raise ValueError(f"section sizes must be integers >= 2, got {bad!r}")
    sizes = tuple(int(n) for n in sizes)
    a, b = float(interval[0]), float(interval[1])
    pairs = tuple((u, v) for u in points for v in points)
    pts = np.asarray(points, dtype=complex)
    # analytic[i, k] = weak measure of (K_{p_i}, K_{p_k}), row-major like pairs
    analytic = tuple(weak_measure(sym, (a, b), pts[:, None], pts[None, :], g).ravel().tolist())

    def one(N):
        return oracle_weak_measure(build_section(sym, N), pts[:, None], pts[None, :], g).ravel()

    rows = parallel_map(one, sizes)
    errors = np.abs(np.array(rows) - np.array(analytic))
    return ValidationReport((a, b), sizes, pairs, analytic, errors)
