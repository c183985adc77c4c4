"""Independent references for the benchmark's result checks.

Every function here is written from the closed forms of the four symbol
families the workloads use; none calls into ``toepspec``.  The checks in
``workloads.py`` compare library results against them.

Conventions follow the library: the density kernel is
D(u, v; lam) = sum_j conj(phi_j(u)) phi_j(v), weak measures integrate
g(lam) D(u, v; lam) over lam, and the resolvent form is
((T - w)^{-1} K_u, K_v) = integral of D(u, v; lam) / (lam - w).
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi


# -- regular: omega = cos(theta) --------------------------------------------------


def regular_xi(z, lam):
    """xi(z; lam) = sqrt(2 / (1 - 2 lam z + z^2)), principal branch, |z| <= 1."""
    z = np.asarray(z, dtype=complex)
    return np.sqrt(2.0 / (1.0 - 2.0 * lam * z + z * z))


def regular_phi(z, lam):
    """Chebyshev eigenfunction sqrt(2/pi) (1 - lam^2)^(1/4) / (1 - 2 lam z + z^2)."""
    z = np.asarray(z, dtype=complex)
    return math.sqrt(2.0 / math.pi) * (1.0 - lam * lam) ** 0.25 / (1.0 - 2.0 * lam * z + z * z)


def regular_density(u, v, lam):
    """D(u, v; lam) for cos(theta); broadcasts over lam."""
    lam = np.asarray(lam, dtype=float)
    qu = 1.0 - 2.0 * lam * u + u * u
    qv = 1.0 - 2.0 * lam * v + v * v
    return (2.0 / math.pi) * np.sqrt(1.0 - lam * lam) / (np.conj(qu) * qv)


def regular_resolvent(u, v, w, nodes: int = 600):
    """Stieltjes transform of the Chebyshev density by Gauss-Chebyshev
    quadrature of the second kind; w off [-1, 1], |u|, |v| <= 0.7."""
    k = np.arange(1, nodes + 1)
    x = np.cos(k * math.pi / (nodes + 1))
    wts = math.pi / (nodes + 1) * np.sin(k * math.pi / (nodes + 1)) ** 2
    qu = 1.0 - 2.0 * x * u + u * u
    qv = 1.0 - 2.0 * x * v + v * v
    f = (2.0 / math.pi) / (np.conj(qu) * qv * (x - w))
    return complex(np.sum(wts * f))


# -- cos(2 theta): the regular symbol composed with z -> z^2 -----------------------


def cos2_xi(z, lam):
    """sqrt(2 / (1 - 2 lam z^2 + z^4))."""
    z = np.asarray(z, dtype=complex)
    return np.sqrt(2.0 / (1.0 - 2.0 * lam * z**2 + z**4))


def cos2_density(u, v, lam):
    """D(u, v; lam) = (1 + conj(u) v) D_regular(u^2, v^2; lam)."""
    return (1.0 + np.conj(u) * v) * regular_density(u * u, v * v, lam)


# -- singular: indicator of the arc (t1, t2) ----------------------------------------


def arc_schwarz(z, t1, t2):
    """(1/2pi) integral over (t1, t2) of (e^{it} + z)/(e^{it} - z) dt, |z| <= 1,
    z off the arc ends."""
    z = np.asarray(z, dtype=complex)
    length = (t2 - t1) % TWO_PI
    logs = np.log(1.0 - z * np.exp(-1j * t2)) - np.log(1.0 - z * np.exp(-1j * t1))
    return length / TWO_PI + logs / (1j * math.pi)


def singular_xi(z, lam, t1, t2):
    """exp(-Q/2), Q the Schwarz average of ln|omega - lam|: ln(1 - lam) on the
    arc and ln(lam) off it."""
    q = math.log(lam) + math.log((1.0 - lam) / lam) * arc_schwarz(z, t1, t2)
    return np.exp(-0.5 * q)


def singular_phi(z, lam, t1, t2):
    """Interior eigenfunction of the arc indicator at levels lam in (0, 1);
    broadcasts over lam."""
    z = np.asarray(z, dtype=complex)
    lam = np.asarray(lam, dtype=float)
    z1, z2 = np.exp(1j * t1), np.exp(1j * t2)
    frac = ((t2 - t1) % TWO_PI) / TWO_PI
    s = np.log(1.0 / lam - 1.0) / TWO_PI
    rho = math.sqrt(abs(z1 - z2) / TWO_PI)
    return (rho / np.sqrt(lam) * np.exp(-math.pi * s * frac)
            * (1.0 - z / z1) ** (-0.5 - 1j * s) * (1.0 - z / z2) ** (-0.5 + 1j * s))


def singular_density(u, v, lam, t1, t2):
    return np.conj(singular_phi(u, lam, t1, t2)) * singular_phi(v, lam, t1, t2)


def singular_resolvent(u, v, w, t1, t2):
    """Wiener-Hopf form exp(-V/2)/(1 - conj(u) v) with the arc integrals of
    the principal log(omega - w) in closed form."""
    l0, l1 = np.log(complex(-w)), np.log(complex(1.0 - w))
    val = 2.0 * l0 + (l1 - l0) * (arc_schwarz(v, t1, t2) + np.conj(arc_schwarz(u, t1, t2)))
    return complex(np.exp(-0.5 * val) / (1.0 - np.conj(u) * v))


# -- sublevel arcs and the phase -----------------------------------------------------


def regular_arc(lam):
    """{cos(theta) < lam} as (alpha, beta)."""
    t = math.acos(lam)
    return t, TWO_PI - t


def singular_arc(t1, t2):
    """{omega < lam} for the indicator of (t1, t2): the complementary arc."""
    alpha = t2 % TWO_PI
    beta = t1 % TWO_PI
    if beta <= alpha:
        beta += TWO_PI
    return alpha, beta


def arc_phase(z, alpha, beta):
    """Phase A(z) of a single sublevel arc inside the disk."""
    logs = np.log(1.0 - z * np.exp(-1j * alpha)) - np.log(1.0 - z * np.exp(-1j * beta))
    return complex(0.5 * math.pi * (beta - alpha) / TWO_PI + 0.5j * logs)


# -- quadrature helpers ---------------------------------------------------------------


def bump(lam, a, b):
    """The (1 - x^2)^3 bump on (a, b), as the library's smooth_bump."""
    x = (np.asarray(lam, dtype=float) - 0.5 * (a + b)) / (0.5 * (b - a))
    return np.where(np.abs(x) < 1.0, (1.0 - x * x) ** 3, 0.0)


def weak_measure(density, a, b, nodes: int = 96):
    """Integral of bump(lam) density(lam) over (a, b); the bump is a
    polynomial there, so Gauss-Legendre converges geometrically."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    lam = 0.5 * (a + b) + 0.5 * (b - a) * x
    vals = np.asarray(density(lam), dtype=complex).ravel()
    return complex(0.5 * (b - a) * np.sum(w * bump(lam, a, b) * vals))
