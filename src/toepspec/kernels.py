"""Closed-form kernels on the unit disk and the arc identities built on them."""

from __future__ import annotations

import math

import numpy as np

from .levelset import Arc, arcs_measure

TWO_PI = 2.0 * math.pi

POLE_TOL = 1e-14


def schwarz_H(z):
    """Schwarz kernel (1+z)/(1-z)."""
    z = np.asarray(z, dtype=complex)
    if np.any(np.abs(1.0 - z) < POLE_TOL):
        raise ZeroDivisionError("Schwarz kernel pole at z = 1")
    out = (1.0 + z) / (1.0 - z)
    return out if out.shape else complex(out)


def poisson_P(r: float, theta) -> float:
    """Poisson kernel (1/2pi)(1-r^2)/(1-2r cos t + r^2); positive, unit mass."""
    if not 0.0 <= r < 1.0:
        raise ValueError("Poisson kernel needs 0 <= r < 1")
    theta = np.asarray(theta, dtype=float)
    out = (1.0 - r * r) / (1.0 - 2.0 * r * np.cos(theta) + r * r) / TWO_PI
    return out if out.shape else float(out)


def reproducing_K(u, z):
    """Reproducing kernel K_u(z) = 1/(1 - conj(u) z)."""
    u = np.asarray(u, dtype=complex)
    z = np.asarray(z, dtype=complex)
    denom = 1.0 - np.conj(u) * z
    if np.any(np.abs(denom) < POLE_TOL):
        raise ZeroDivisionError("reproducing kernel pole: conj(u) z = 1")
    out = 1.0 / denom
    return out if out.shape else complex(out)


def arc_identities(alpha: float, beta: float, zeta: float) -> float:
    """Residual of the three chord/measure identities for one arc.

    ``alpha`` < ``beta`` < ``alpha`` + 2 pi bound the counterclockwise arc,
    whose measure is ``arcs_measure``'s, and ``zeta`` is an angle outside
    it.  Returns the largest absolute deviation among: endpoint-ratio vs
    measure, chord length vs rotated span, and the exterior-point
    distance-ratio identity.
    """
    m = arcs_measure([Arc(alpha, beta)])
    a = np.exp(1j * alpha)
    b = np.exp(1j * beta)
    z = np.exp(1j * zeta)
    r1 = abs(b * np.conj(a) - np.exp(2j * math.pi * m))
    r2 = abs(1j * np.exp(-1j * math.pi * m) * (1.0 - b * np.conj(a)) - abs(b - a))
    inside = 0.0 < (zeta - alpha) % TWO_PI < (beta - alpha) % TWO_PI
    if inside:
        raise ValueError("zeta must lie outside the arc")
    r3 = abs(
        np.exp(-1j * math.pi * m) * (1.0 - z * np.conj(a)) / (1.0 - z * np.conj(b))
        - abs(z - a) / abs(z - b)
    )
    return max(r1, r2, r3)
