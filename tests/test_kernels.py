import math

import numpy as np
import pytest

from toepspec.kernels import arc_identities, poisson_P, reproducing_K, schwarz_H

TWO_PI = 2.0 * math.pi


def test_schwarz_values():
    assert schwarz_H(0.0) == pytest.approx(1.0)
    assert schwarz_H(-1.0) == pytest.approx(0.0)
    with pytest.raises(ZeroDivisionError):
        schwarz_H(1.0)


def test_schwarz_real_part_is_poisson():
    r, theta = 0.5, math.pi / 3
    lhs = schwarz_H(r * np.exp(1j * theta)).real
    assert lhs == pytest.approx(TWO_PI * poisson_P(r, theta), rel=1e-14)


def test_poisson_normalization_and_positivity():
    assert poisson_P(0.0, 1.234) == pytest.approx(1.0 / TWO_PI)
    assert poisson_P(0.5, 0.0) == pytest.approx(3.0 / TWO_PI)
    for r in (0.3, 0.9):
        theta = np.linspace(-math.pi, math.pi, 20001)
        vals = poisson_P(r, theta)
        assert np.all(vals > 0.0)
        assert np.trapezoid(vals, theta) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        poisson_P(1.0, 0.0)


def test_reproducing_kernel_values():
    assert reproducing_K(0.0, 0.77 + 0.1j) == pytest.approx(1.0)
    u, z = 0.3 + 0.4j, 0.2 - 0.5j
    assert reproducing_K(u, z) == pytest.approx(np.conj(reproducing_K(z, u)))


def test_reproducing_property_quadrature():
    # (f, K_u) = f(u) via 512-point boundary quadrature, exact for polynomials
    u = 0.3 + 0.1j
    zeta = np.exp(2j * math.pi * np.arange(512) / 512)
    f = zeta**2
    val = np.mean(f * np.conj(reproducing_K(u, zeta)))
    assert abs(val - u**2) < 1e-12


def test_reproducing_property_high_degree(rng):
    zeta = np.exp(2j * math.pi * np.arange(512) / 512)
    for _ in range(20):
        deg = rng.integers(0, 17)
        coeffs = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
        u = rng.uniform(0, 0.9) * np.exp(1j * rng.uniform(0, TWO_PI))
        f = np.polynomial.polynomial.polyval(zeta, coeffs)
        val = np.mean(f * np.conj(reproducing_K(u, zeta)))
        ref = np.polynomial.polynomial.polyval(u, coeffs)
        assert abs(val - ref) < 1e-12


def test_schwarz_pair_identity(rng):
    # H(conj(u) z) + H(v conj(z)) = 2(1 - conj(u) v |z|^2) K_u(z) conj(K_v(z))
    for _ in range(1000):
        z, u, v = (rng.uniform(0, 0.95) * np.exp(1j * rng.uniform(0, TWO_PI)) for _ in range(3))
        lhs = schwarz_H(np.conj(u) * z) + schwarz_H(v * np.conj(z))
        rhs = 2.0 * (1.0 - np.conj(u) * v * abs(z) ** 2) * reproducing_K(u, z) * np.conj(reproducing_K(v, z))
        assert abs(lhs - rhs) < 1e-13


def test_specific_identity_point():
    z, u, v = 0.2, 0.3j, -0.1
    lhs = schwarz_H(np.conj(u) * z) + schwarz_H(v * np.conj(z))
    rhs = 2.0 * (1.0 - np.conj(u) * v * abs(z) ** 2) * reproducing_K(u, z) * np.conj(reproducing_K(v, z))
    assert abs(lhs - rhs) < 1e-14


def test_arc_identities_quarter():
    # arc from i to -i has measure 1/2 and chord 2
    assert abs(np.exp(1j * 3 * math.pi / 2) - np.exp(1j * math.pi / 2)) == pytest.approx(2.0)
    assert arc_identities(math.pi / 2, 3 * math.pi / 2, 0.0) < 1e-14


def test_arc_identities_degenerate():
    for eps in (1e-2, 1e-4, 1e-6):
        assert arc_identities(1.0, 1.0 + eps, 0.0) < 1e-10


def test_arc_identities_random(rng):
    # margin keeps zeta away from the arc ends, where the distance-ratio
    # identity is exact but ill-conditioned in floating point
    margin = 0.05
    worst = 0.0
    for _ in range(1000):
        a = rng.uniform(0, TWO_PI)
        length = rng.uniform(margin, TWO_PI - 3 * margin)
        zeta = a + length + rng.uniform(margin, TWO_PI - length - 2 * margin)
        worst = max(worst, arc_identities(a, a + length, zeta))
    assert worst < 1e-13


def test_arc_identities_rejects_interior_point():
    with pytest.raises(ValueError):
        arc_identities(0.0, 2.0, 1.0)
