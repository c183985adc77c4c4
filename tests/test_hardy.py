import math
import sys
import threading

import numpy as np
import pytest

from conftest import regular_xi_closed
from toepspec import hardy
from toepspec.errors import QuadratureError
from toepspec.hardy import (
    CircleRule,
    LogRule,
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
from toepspec.symbol import preset_regular

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


def _loop_edges(a, b, depth, h_max):
    """Panel edges built one panel at a time: the reference construction."""
    mid = 0.5 * (a + b)
    half = mid - a
    fr = 2.0 ** (-np.arange(depth, -1, -1, dtype=float))
    left = a + half * np.concatenate(([0.0], fr))
    right = b - half * np.concatenate(([0.0], fr))
    edges = np.concatenate((left, right[::-1][1:]))
    widths = np.diff(edges)
    splits = np.maximum(np.ceil(widths / h_max).astype(int), 1)
    if np.all(splits == 1):
        return edges
    pieces = [edges[:1]]
    for lo, w, k in zip(edges[:-1], widths, splits):
        pieces.append(lo + w * np.arange(1, k + 1) / k)
    return np.concatenate(pieces)


@pytest.mark.parametrize("a, b, depth, h_max", [
    (1.0, 1.1, hardy.DEFAULT_DEPTH, hardy.H_MAX),        # no panel is split
    (0.3, 2.4, hardy.DEFAULT_DEPTH, hardy.H_MAX),
    (0.3, 2.4, hardy.DEFAULT_DEPTH - 4, 2.0 * hardy.H_MAX),  # coarse grid
    (5.9, 5.9 + TWO_PI, hardy.MAX_DEPTH, hardy.H_MAX),   # whole circle
    (0.0, 1e-6, 6, 2.0 * hardy.H_MAX),
    (2.0, 4.5, 6, 0.01),
])
def test_interval_edges_match_panel_loop(a, b, depth, h_max):
    want = _loop_edges(a, b, depth, h_max)
    got = hardy._interval_edges(a, b, depth, h_max)
    assert got.shape == want.shape
    assert np.array_equal(got, want)


def test_xi_grid_passes_build_each_rule_once(monkeypatch):
    # a 300-level family is past the old 256-entry clearing point; repeat
    # passes must be served from the cache
    sym = preset_regular()
    builds = []
    init = CircleRule.__init__

    def counted(self, *args, **kwargs):
        builds.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(CircleRule, "__init__", counted)
    lams = np.linspace(-0.9, 0.9, 300)
    zs = np.array([0.3, -0.5j, 0.6 + 0.2j])
    first = [xi_grid(sym, zs, lam) for lam in lams]
    n_first = len(builds)
    assert n_first >= len(lams)
    for _ in range(2):
        again = [xi_grid(sym, zs, lam) for lam in lams]
        assert all(np.array_equal(x, y) for x, y in zip(first, again))
    assert len(builds) == n_first


def test_weighted_checks_each_integral_on_its_own():
    # a large first integral must not widen the tolerance of a small second one
    rule = CircleRule(tol=1e-10)
    ones, ones_c = np.ones_like(rule.theta), np.ones_like(rule.theta_c)
    lr = LogRule(rule, 0.0, ones, ones_c, 0.0)
    smooth_f = np.stack((1e6 * ones, 0.5 * ones), axis=1)
    smooth_c = np.stack((1e6 * ones_c, (0.5 + 1e-6) * ones_c), axis=1)
    with pytest.raises(QuadratureError) as info:
        lr.weighted(smooth_f, smooth_c)
    assert info.value.achieved_tol == pytest.approx(1e-6, rel=1e-6)
    assert lr.weighted(smooth_f[:, :1], smooth_c[:, :1])[0] == pytest.approx(1e6, rel=1e-14)


def test_gauss_legendre_is_cached_and_read_only():
    x, w = hardy.gauss_legendre(40)
    again = hardy.gauss_legendre(40)
    assert again[0] is x and again[1] is w
    assert not x.flags.writeable and not w.flags.writeable
    ref_x, ref_w = np.polynomial.legendre.leggauss(40)
    assert np.array_equal(x, ref_x) and np.array_equal(w, ref_w)


def test_rule_cache_evicts_least_recently_used(monkeypatch):
    size = np.zeros(hardy.LOG_FOURIER_N, dtype=complex).nbytes   # one log_fourier vector
    monkeypatch.setattr(hardy, "RULE_CACHE_BYTES", 3 * size)
    sym = preset_regular()
    cache = hardy._cache_for(sym)

    def keys():
        return [k[1] for k in cache.entries]

    def check_budget():
        assert cache.nbytes == sum(v.nbytes for v in cache.entries.values())
        assert cache.nbytes <= hardy.RULE_CACHE_BYTES

    for lam in (0.1, 0.2, 0.3):
        hardy.log_fourier(sym, lam)
        check_budget()
    assert keys() == [0.1, 0.2, 0.3]
    first = hardy.log_fourier(sym, 0.1)      # a hit refreshes 0.1
    assert keys() == [0.2, 0.3, 0.1]
    hardy.log_fourier(sym, 0.4)              # evicts 0.2, the least recent
    check_budget()
    assert keys() == [0.3, 0.1, 0.4]
    assert hardy.log_fourier(sym, 0.1) is first   # and refreshes it again
    lr = hardy.log_rule(sym, 0.5)            # evicts as many bytes as it needs
    check_budget()
    assert list(cache.entries) == [("fourier", 0.4), ("fourier", 0.1),
                                   (0.5, (), hardy.DEFAULT_TOL)]
    assert hardy.log_rule(sym, 0.5) is lr
    # a value larger than the whole budget is returned but not kept
    monkeypatch.setattr(hardy, "RULE_CACHE_BYTES", size // 2)
    before = list(cache.entries)
    hardy.log_fourier(sym, 0.6)
    assert list(cache.entries) == before


def test_rule_cache_budget_holds_under_threads(monkeypatch):
    # cheap values keep the threads inside the cache's bookkeeping, where a
    # lost update would break the byte count
    monkeypatch.setattr(hardy, "RULE_CACHE_BYTES", 5 * 800)
    cache = hardy._cache_for(preset_regular())
    errors = []

    def work(k):
        rng = np.random.default_rng(k)
        try:
            for key in rng.integers(0, 20, size=10000):
                value = cache.get(int(key), lambda: np.zeros(100))
                assert value.nbytes == 800
        except Exception as exc:  # surfaced by the assertion below
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    assert cache.nbytes == sum(v.nbytes for v in cache.entries.values())
    assert cache.nbytes <= hardy.RULE_CACHE_BYTES


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


def test_q_function_band_split(regular):
    # inside PEAK_RADIUS and beyond 1/PEAK_RADIUS the points share the
    # level's rule in one batch; in the band between, each gets its own
    lam = 0.31
    inner, near_in, near_out, outer = (0.5 * np.exp(0.4j), 0.96 * np.exp(2.1j),
                                       1.05 * np.exp(-2.5j), 1.3 * np.exp(-1.0j))
    shared = hardy.log_rule(regular, lam)
    assert hardy.point_rule(regular, inner, lam) is shared
    assert hardy.point_rule(regular, outer, lam) is shared
    assert hardy.point_rule(regular, 1.0 / hardy.PEAK_RADIUS, lam) is shared
    for z in (near_in, near_out):
        own = hardy.point_rule(regular, z, lam)
        assert own is not shared
        assert np.any(np.isclose(own.rule.breakpoints, np.angle(z) % TWO_PI))
    zs = np.array([[inner, near_in], [near_out, outer]])
    q = q_function(regular, zs, lam)
    assert q.shape == zs.shape
    for z, v in zip(zs.ravel(), q.ravel()):
        assert abs(v - q_function(regular, complex(z), lam)) <= 1e-14 * abs(v)
        assert abs(np.exp(-0.5 * v) - xi(regular, complex(z), lam)) <= 1e-14 * abs(np.exp(-0.5 * v))
    assert np.allclose(xi_grid(regular, zs, lam), np.exp(-0.5 * q), rtol=1e-15, atol=0.0)
    assert q_function(regular, np.empty((0,), dtype=complex), lam).shape == (0,)
    with pytest.raises(ValueError):
        q_function(regular, np.array([0.2, np.exp(0.7j)]), lam)


@pytest.mark.parametrize("radius", [0.905, 0.91, 0.915, 0.919, 1.0 / 0.919, 1.0 / 0.91, 1.1])
def test_q_function_at_band_edges(radius, regular, singular, singular_asym, fig2, cos2_symbol):
    # just inside PEAK_RADIUS and just outside its reciprocal the shared
    # panels must still resolve the Schwarz peak
    for sym in (regular, singular, singular_asym, fig2, cos2_symbol):
        g1, g2 = sym.essential_range()
        for frac in (0.1, 0.3, 0.5, 0.7, 0.9):
            lam = g1 + frac * (g2 - g1)
            zs = radius * np.exp(1j * np.array([0.4, 2.0, 3.5, 5.1]))
            v = xi_grid(sym, zs, lam)
            assert np.all(np.isfinite(v)) and np.all(v != 0.0)
            if sym is regular and radius < 1.0:
                assert np.allclose(v, regular_xi_closed(zs, lam), rtol=1e-9, atol=0.0)


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


def test_phase_closed_on_arrays(fig2):
    arcs = sublevel_set(fig2, 0.25).arcs
    zs = np.array([[0.0, 0.3 + 0.2j, -0.5j], [0.8 * np.exp(2.0j), -0.9, 0.95 * np.exp(4.0j)]])
    got = phase_A_closed(arcs, zs)
    assert got.shape == zs.shape
    for z, v in zip(zs.ravel(), got.ravel()):
        assert abs(v - phase_A_closed(arcs, complex(z))) <= 1e-15 * max(1.0, abs(v))
        assert abs(v - phase_A_integral(arcs, complex(z))) < 1e-12
    with pytest.raises(ValueError):
        phase_A_closed(arcs, np.array([0.2, 1.1j]))


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


def test_adaptive_gl_raises_when_unsettled():
    # a jump inside a panel keeps its estimate at O(width) down to the cap
    with pytest.raises(QuadratureError) as info:
        hardy._adaptive_gl(lambda x: np.sign(x - 1.0 / 3.0), 0.0, 1.0, tol=1e-12)
    assert info.value.achieved_tol > 1e-12
    assert hardy._adaptive_gl(np.cos, 0.0, 1.0, tol=1e-12) == pytest.approx(math.sin(1.0), abs=1e-14)


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
