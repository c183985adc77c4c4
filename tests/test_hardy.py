import math

import numpy as np
import pytest

from conftest import regular_xi_closed
from toepspec import hardy
from toepspec.hardy import (
    CircleRule,
    boundary_sigma,
    boundary_xi,
    coefficients_c,
    mu_measure,
    outer_F,
    phase_A_closed,
    phase_A_integral,
    q_function,
    xi,
    xi_circle,
    xi_grid,
)
from toepspec.levelset import sublevel_set
from toepspec.spectral import resolvent_form

TWO_PI = 2.0 * math.pi


# -- panel rule ------------------------------------------------------------------


def test_rule_integrates_constants():
    rule = CircleRule(breakpoints=[0.3, 2.0, 4.4])
    val, err = rule.integrate(lambda t: np.ones_like(t))
    assert val == pytest.approx(1.0, abs=1e-14)
    assert err < 1e-14


def test_rule_known_log_integrals(regular):
    # circle average of ln|cos t - lam| is -ln 2 for every level inside (-1,1)
    for lam in (-0.6, 0.0, 0.35):
        assert q_function(regular, 0.0, lam).real == pytest.approx(-math.log(2.0), abs=1e-11)
    # circle average of ln|e^{it} - a| is max(ln|a|, 0)
    sym = regular
    lr = hardy.log_rule(sym, 0.2)
    assert lr.achieved_tol < 1e-10


def test_rule_cert_depth_doubling(regular):
    lr = hardy.log_rule(regular, 0.123)
    # the stored certificate compares two refinement depths
    assert lr.achieved_tol < hardy.DEFAULT_TOL


# -- Q and xi --------------------------------------------------------------------


def test_q_regular_closed_form(regular, rng):
    for _ in range(25):
        lam = rng.uniform(-0.9, 0.9)
        z = rng.uniform(0.0, 0.9) * np.exp(1j * rng.uniform(0, TWO_PI))
        q = q_function(regular, z, lam)
        ref = np.log((z * z - 2 * lam * z + 1.0) / 2.0)
        assert abs(q - ref) < 1e-10


def test_q_decays_like_log_level(regular):
    lam = -1.0e4
    assert abs(q_function(regular, 0.0, lam) - math.log(abs(lam))) < 1e-6


def test_xi_values(regular, singular):
    assert xi(regular, 0.0, 0.0) == pytest.approx(math.sqrt(2.0), abs=1e-11)
    assert xi(regular, 0.3, 0.2) == pytest.approx(math.sqrt(2.0 / 0.97), abs=1e-10)
    assert xi(singular, 0.0, 0.5) == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_xi_never_vanishes(regular, fig2, rng):
    for sym in (regular, fig2):
        for _ in range(20):
            lam = rng.uniform(-0.9, 0.9)
            z = rng.uniform(0, 0.9) * np.exp(1j * rng.uniform(0, TWO_PI))
            assert abs(xi(sym, z, lam)) > 1e-6


def test_xi_grid_matches_pointwise(regular, rng):
    lam = 0.4
    zs = rng.uniform(0, 0.9, size=12) * np.exp(1j * rng.uniform(0, TWO_PI, size=12))
    grid = xi_grid(regular, zs, lam)
    for z, v in zip(zs, grid):
        assert abs(v - xi(regular, complex(z), lam)) < 1e-12


def test_xi_on_circle_fast_path(regular, singular, fig2):
    lam = 0.3
    for sym in (regular, singular, fig2):
        vals = xi_circle(sym, lam, 0.95, 512)
        for k in (0, 100, 317):
            z = 0.95 * np.exp(2j * math.pi * k / 512)
            assert abs(vals[k] - xi(sym, z, lam)) < 2e-9


def test_xi_rejects_circle_points(regular):
    with pytest.raises(ValueError):
        xi(regular, np.exp(0.3j), 0.2)


def test_xi_circle_rejects_exceptional_level(singular):
    from toepspec.errors import ExceptionalLevelError
    with pytest.raises(ExceptionalLevelError):
        xi_circle(singular, 1.0 - 1e-12, 0.5, 512)


def test_xi_radial_reflection(regular, fig2, rng):
    # the Schwarz average of a real weight satisfies Q(z) = -conj(Q(1/conj(z))),
    # tying the exterior evaluations to the interior ones
    for sym, lam in ((regular, 0.3), (fig2, 0.2)):
        for _ in range(8):
            z_in = rng.uniform(0.1, 0.88) * np.exp(1j * rng.uniform(0, TWO_PI))
            z_out = 1.0 / np.conj(z_in)
            prod = xi(sym, complex(z_out), lam) * np.conj(xi(sym, complex(z_in), lam))
            assert abs(prod - 1.0) < 1e-9


def test_outer_function(regular, singular, rng):
    # brute-force trapezoid oracle on the smooth integrand
    theta = np.linspace(0.0, TWO_PI, 4096, endpoint=False)
    ref = math.exp(0.5 * np.mean(np.log(np.cos(theta) + 2.0)))
    assert outer_F(regular, 0.0, -2.0) == pytest.approx(ref, abs=1e-10)
    assert outer_F(regular, 0.0, -2.0) == pytest.approx(math.sqrt((2.0 + math.sqrt(3.0)) / 2.0), abs=1e-10)
    for sym, lam in ((regular, -1.5), (singular, -0.7)):
        v = outer_F(sym, 0.0, lam)
        assert v.imag == pytest.approx(0.0, abs=1e-12)
        assert v.real > 0.0
    with pytest.raises(ValueError):
        outer_F(regular, 0.0, 0.0)


def test_outer_function_boundary_modulus(regular):
    lam = -2.0
    for theta in np.linspace(0.1, TWO_PI - 0.1, 16):
        zeta = np.exp(1j * theta)
        vals = [abs(outer_F(regular, (1 - d) * zeta, lam)) ** 2 for d in (1e-3, 5e-4, 2.5e-4)]
        extrap = vals[2] + (vals[2] - vals[1])
        assert abs(extrap - (math.cos(theta) - lam)) < 1e-6


def test_outer_inverse_is_xi_below_spectrum(regular):
    lam = -3.0
    for z in (0.0, 0.3 + 0.4j):
        assert outer_F(regular, z, lam) * xi(regular, z, lam) == pytest.approx(1.0, abs=1e-10)


def test_outer_modulus_lower_bound(regular, singular):
    # |F(z)|^2 >= gamma1 - lam everywhere inside
    for sym, lam in ((regular, -1.8), (singular, -0.9)):
        g1, _ = sym.essential_range()
        pts = [r * np.exp(1j * t) for r in (0.0, 0.4, 0.8) for t in np.linspace(0, 6.0, 7)]
        m = min(abs(outer_F(sym, z, lam)) ** 2 for z in pts)
        assert m >= g1 - lam - 1e-8


# -- phase -----------------------------------------------------------------------


def test_phase_at_origin(regular):
    for lam in (-0.4, 0.0, 0.6):
        ls = sublevel_set(regular, lam)
        assert phase_A_closed(ls.arcs, 0.0) == pytest.approx(0.5 * math.pi * ls.measure)
    assert phase_A_closed(sublevel_set(regular, 0.0).arcs, 0.0) == pytest.approx(math.pi / 4)


def test_phase_forms_agree(regular, fig2, rng):
    for sym, lam in ((regular, 0.3), (fig2, 0.2)):
        arcs = sublevel_set(sym, lam).arcs
        for _ in range(100):
            z = rng.uniform(0, 0.97) * np.exp(1j * rng.uniform(0, TWO_PI))
            assert abs(phase_A_integral(arcs, z) - phase_A_closed(arcs, z)) < 1e-12


def test_phase_integral_vs_quadrature(regular, fig2):
    # independent oracle: panel quadrature of the Schwarz kernel over the arcs
    for sym, lam in ((regular, 0.3), (fig2, 0.2)):
        arcs = sublevel_set(sym, lam).arcs
        for z in (0.3 + 0.2j, -0.5j, 1.7 + 0.4j):
            total = 0.0 + 0.0j
            for arc in arcs:
                t = np.linspace(arc.alpha, arc.beta, 80001)
                w = z * np.exp(-1j * t)
                total += np.trapezoid((1 + w) / (1 - w), t) / TWO_PI
            assert abs(phase_A_integral(arcs, z) - 0.5 * math.pi * total) < 3e-10


# -- L function and coefficients ---------------------------------------------------


def test_coefficients_single_arc(regular):
    arcs = sublevel_set(regular, 0.0).arcs
    data = coefficients_c(arcs)
    assert data.c[0] == pytest.approx(1.0 / math.pi, abs=1e-13)
    assert data.rho[0] == pytest.approx(1.0 / math.sqrt(math.pi), abs=1e-13)


def test_coefficients_general_single_arc(singular_asym):
    # rho = sqrt(|beta - alpha| / 2 pi) when there is one arc
    arcs = sublevel_set(singular_asym, 0.5).arcs
    data = coefficients_c(arcs)
    chord = abs(np.exp(1j * arcs[0].beta) - np.exp(1j * arcs[0].alpha))
    assert data.rho[0] == pytest.approx(math.sqrt(chord / TWO_PI), abs=1e-13)


def test_coefficients_symmetric_arcs(cos2_symbol):
    arcs = sublevel_set(cos2_symbol, 0.0).arcs
    data = coefficients_c(arcs)
    assert len(data.c) == 2
    assert data.c[0] == pytest.approx(data.c[1], abs=1e-13)


def test_coefficients_sum_rule(regular, fig2, cos2_symbol):
    # sum of coefficients equals sin(pi m)/pi: the L constant balances
    for sym, lam in ((regular, 0.25), (fig2, 0.2), (cos2_symbol, -0.3)):
        arcs = sublevel_set(sym, lam).arcs
        data = coefficients_c(arcs)
        assert sum(data.c) == pytest.approx(math.sin(math.pi * data.measure) / math.pi, abs=1e-12)


def test_coefficients_merged_rejected():
    from toepspec.levelset import Arc
    arcs = (Arc(0.0, 1.0), Arc(1.0 + 1e-11, 1.0 + 2e-11))
    with pytest.raises(ValueError, match="merged"):
        coefficients_c(arcs)


def test_L_forms(regular, fig2, cos2_symbol, rng):
    for sym, lam in ((regular, 0.3), (fig2, 0.2), (cos2_symbol, -0.4)):
        arcs = sublevel_set(sym, lam).arcs
        assert hardy.L_check(arcs) < 1e-12
        m = hardy.arcs_measure(arcs)
        L0 = hardy.L_function(arcs, 0.0)
        assert abs(L0 - 1j / math.pi * np.exp(-1j * math.pi * m)) < 1e-14


# -- boundary values ----------------------------------------------------------------


def test_boundary_values_regular(regular):
    lam = 0.3
    for theta in (0.8, 2.5, 4.0, 5.5):
        zeta = np.exp(1j * theta)
        closed = regular_xi_closed(zeta, lam)
        xp = boundary_xi(regular, theta, lam, "+")
        xm = boundary_xi(regular, theta, lam, "-")
        assert abs(xp - closed) < 1e-8
        # wwwc relation between the one-sided limits
        assert abs(xm - abs(math.cos(theta) - lam) * xp) < 1e-12


@pytest.mark.parametrize("theta, lam, side", [
    (2.2628671839199117, -0.6420396287072183, "-"),
    (4.851600214051264, 0.1404243225890638, "+"),
])
def test_boundary_xi_node_on_theta(regular, theta, lam, side):
    # theta close to a level crossing: the panels refined toward theta put
    # a quadrature node on it in floating point
    rule = hardy.log_rule(regular, lam, extra=(theta,)).rule
    assert np.any(rule.theta == theta)
    val = boundary_xi(regular, theta, lam, side)
    want = regular_xi_closed(np.exp(1j * theta), lam)
    if side == "-":
        want *= abs(math.cos(theta) - lam)
    assert np.isfinite(val)
    assert abs(val - want) < 1e-8 * abs(want)


def test_boundary_sigma_unimodular(regular, singular):
    for sym, lam, theta in ((regular, 0.3, 1.0), (singular, 0.4, 2.0)):
        sigma = boundary_sigma(sym, theta, lam)
        assert abs(abs(sigma) - 1.0) < 1e-10


def test_boundary_xi_vs_radial_extrapolation(regular, singular):
    for sym, lam, theta in ((regular, 0.25, 0.9), (singular, 0.6, 2.2)):
        xp = boundary_xi(sym, theta, lam, "+")
        vals = [xi(sym, (1 - d) * np.exp(1j * theta), lam) for d in (1e-3, 5e-4, 2.5e-4)]
        extrap = vals[2] + (vals[2] - vals[1])
        assert abs(xp - extrap) < 1e-6


def test_boundary_rejects_bad_points(regular, singular):
    with pytest.raises(ValueError, match="undefined"):
        boundary_xi(singular, 0.0, 0.5, "+")
    with pytest.raises(ValueError, match="undefined"):
        boundary_xi(regular, math.acos(0.3), 0.3, "+")


# -- mu measure ---------------------------------------------------------------------


def test_mu_endpoints(regular, singular):
    for sym in (regular, singular):
        g1, g2 = sym.essential_range()
        mm = mu_measure(sym, 0.3 + 0.2j, [g1 - 0.5, g2 + 0.5])
        assert mm.mu[0] == 0.0
        assert mm.mu[1] == pytest.approx(1.0, abs=1e-12)


def test_mu_at_origin_is_arc_measure(regular):
    mm = mu_measure(regular, 0.0, [])
    for lam in (-0.5, 0.1, 0.7):
        assert mm.at(lam) == pytest.approx(sublevel_set(regular, lam).measure, abs=1e-12)


def test_mu_strict_bounds_and_monotone(regular, fig2, rng):
    for sym in (regular, fig2):
        g1, g2 = sym.essential_range()
        t = np.linspace(g1 + 0.05, g2 - 0.05, 17)
        mm = mu_measure(sym, 0.4 - 0.3j, t)
        assert np.all(mm.mu > 0.0) and np.all(mm.mu < 1.0)
        assert np.all(np.diff(mm.mu) >= -1e-12)


def test_modpsi_identity(regular, singular):
    # (1-r^2) |resolvent(K_z,K_z)| equals the exponential of the mu log moment
    cases = ((regular, 0.2, 0.35 + 0.25j), (regular, -0.4, 0.1j), (singular, 0.6, 0.5 + 0.1j))
    for sym, lam, z in cases:
        mm = mu_measure(sym, z, [])
        for eps in (0.5, 0.1, 0.02):
            w = lam + 1j * eps
            lhs = (1.0 - abs(z) ** 2) * abs(resolvent_form(sym, z, z, w))
            rhs = math.exp(-mm.log_integral(w))
            assert abs(lhs - rhs) < 1e-8


def test_xi_hardy_norm_bounded(regular, singular):
    # Jensen bound: the (p=3/2) lambda integral of the circle means of |xi|^p
    # is at most max_t int_X |t-lam|^{-3/4} d lam, uniformly in the radius.
    a, b = -0.9, 0.9
    bound = 8.0 * ((b - a) / 2.0) ** 0.25
    nodes, wts = np.polynomial.legendre.leggauss(24)
    lams = 0.5 * (a + b) + 0.5 * (b - a) * nodes
    wts = 0.5 * (b - a) * wts
    for sym in (regular, singular):
        prev = None
        for r in (0.9, 0.99, 0.999):
            means = []
            for lam in lams:
                vals = xi_circle(sym, float(lam), r, 8192)
                means.append(float(np.mean(np.abs(vals) ** 1.5)))
            total = float(np.dot(wts, means))
            assert total < bound
            if prev is not None:
                assert total >= prev - 1e-6  # circle means grow with the radius
            prev = total
