import copy
import dataclasses
import json
import math
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import (
    random_symbol,
    reference_boundary_sigma,
    reference_crossings,
    regular_xi_closed,
    singular_phi_closed,
    value_gap,
)
from toepspec import cli, hardy, levelset
from toepspec.errors import ExceptionalLevelError, QuadratureError, ToepspecError
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
from toepspec.levelset import Arc, sublevel_set
from toepspec.spectral import resolvent_form, spectral_frame, stone_density
from toepspec.symbol import PiecewiseSymbol, TrigPoly, preset_regular, preset_singular

TWO_PI = 2.0 * math.pi


# -- panel rule ------------------------------------------------------------------


def test_rule_integrates_constants():
    rule = CircleRule(breakpoints=[0.3, 2.0, 4.4])
    val, coarse = np.sum(rule.w), np.sum(rule.w_c)
    assert val == pytest.approx(1.0, abs=1e-14)
    assert abs(val - coarse) < 1e-14


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
    # a 300-level family is past the old 256-entry clearing point; real
    # levels take the closed form, so no pass builds a panel rule, and
    # repeat passes are served from the stored root records
    sym = preset_regular()
    builds, solves = [], []
    init, factor = CircleRule.__init__, levelset._factor_level

    def counted(self, *args, **kwargs):
        builds.append(1)
        init(self, *args, **kwargs)

    def counted_factor(sym, lams):
        solves.extend(lams)
        return factor(sym, lams)

    monkeypatch.setattr(CircleRule, "__init__", counted)
    monkeypatch.setattr(levelset, "_factor_level", counted_factor)
    lams = np.linspace(-0.9, 0.9, 300)
    zs = np.array([0.3, -0.5j, 0.6 + 0.2j])
    first = [xi_grid(sym, zs, lam) for lam in lams]
    assert len(solves) == len(lams)
    for _ in range(2):
        again = [xi_grid(sym, zs, lam) for lam in lams]
        assert all(np.array_equal(x, y) for x, y in zip(first, again))
    assert len(solves) == len(lams)
    assert not builds


def test_log_weight_floors_a_rounded_zero():
    # a node within rounding of a crossing, where omega - lam is exactly 0,
    # is taken at eps times the largest difference, not at ln 1e-300; at
    # one random level that node moved the panel reference by 1.2e-12
    got = hardy._log_weight(np.array([0.37, 0.5, 2.37]), 0.37)
    assert got[0] == math.log(np.finfo(float).eps * 2.0)
    assert got[1] == math.log(0.5 - 0.37) and got[2] == math.log(2.0)


def test_gauss_legendre_is_cached_and_read_only():
    x, w = hardy.gauss_legendre(40)
    again = hardy.gauss_legendre(40)
    assert again[0] is x and again[1] is w
    assert not x.flags.writeable and not w.flags.writeable
    ref_x, ref_w = np.polynomial.legendre.leggauss(40)
    assert np.array_equal(x, ref_x) and np.array_equal(w, ref_w)


def test_root_store_keys_the_exact_level():
    # 4e-15 and 1e-15 round to one key at 14 digits; on this symbol's scale
    # they are far apart
    sym, fresh = (PiecewiseSymbol([(0.0, TWO_PI, TrigPoly([0.0, 1e-13]))]) for _ in range(2))
    q_function(sym, 0.3, 4e-15)
    assert q_function(sym, 0.3, 1e-15) == q_function(fresh, 0.3, 1e-15)
    assert list(levelset._record(sym).levels) == [4e-15, 1e-15]


def test_complex_dtype_real_levels(regular):
    # a real level held in a complex array is that real level, keyed by it
    z = np.array([0.3, -0.5j, 0.6 + 0.2j])
    sym = preset_regular()
    assert np.array_equal(xi_grid(sym, z, np.array([0.1 + 0j])), xi_grid(regular, z, np.array([0.1])))
    assert list(levelset._record(sym).levels) == [0.1]
    with pytest.raises(ValueError, match="not real"):
        xi_grid(sym, z, np.array([0.1, 0.2 + 1e-3j]))


def test_rule_cache_evicts_least_recently_used(monkeypatch):
    # a store of three root records, filled with levels above the range
    sym = preset_regular()
    monkeypatch.setattr(levelset, "LEVEL_STORE_RECORDS", 3)
    rec = levelset._record(sym)

    def keys():
        assert len(rec.levels) <= levelset.LEVEL_STORE_RECORDS
        return list(rec.levels)

    for lam in (1.1, 1.2, 1.3):
        hardy._level_factors(sym, lam)
        keys()
    assert keys() == [1.1, 1.2, 1.3]
    first = hardy._level_factors(sym, 1.1)      # a hit refreshes 1.1
    assert keys() == [1.2, 1.3, 1.1]
    hardy._level_factors(sym, 1.4)              # evicts 1.2, the least recent
    assert keys() == [1.3, 1.1, 1.4]
    assert hardy._level_factors(sym, 1.1) is first   # and refreshes it again
    assert keys() == [1.3, 1.4, 1.1]
    # a level inside the range also keeps its two crossings; its record is
    # larger, and still one record, so it evicts one
    record = hardy._level_factors(sym, 0.5)
    assert len(record.crossings) == 2
    assert keys() == [1.4, 1.1, 0.5]
    assert hardy._level_factors(sym, 0.5) is record
    # a batch of more misses than the bound returns every record and keeps
    # the last three it stored
    batch = levelset._level_records(sym, [1.5, 1.6, 1.7, 1.8])
    assert all(isinstance(r, levelset._LevelFactors) for r in batch)
    assert keys() == [1.6, 1.7, 1.8]
    assert [rec.levels[lam] for lam in keys()] == batch[1:]


def test_rule_cache_budget_holds_under_threads(monkeypatch):
    # cheap values keep the threads inside the store's bookkeeping, where a
    # lost update would let it hold more records than its bound, or evict a
    # key between its lookup and its refresh
    monkeypatch.setattr(levelset, "LEVEL_STORE_RECORDS", 5)
    cache = levelset._record(preset_regular())
    errors = []

    def work(k):
        rng = np.random.default_rng(k)
        try:
            for key in rng.integers(0, 20, size=10000):
                value = cache.stored([int(key)])[0]
                if value is None:
                    value = np.full(100, float(key))
                    cache.store(int(key), value)
                assert value[0] == key
                assert len(cache.levels) <= levelset.LEVEL_STORE_RECORDS
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
    assert len(cache.levels) == levelset.LEVEL_STORE_RECORDS
    assert all(value[0] == key for key, value in cache.levels.items())


def test_a_full_store_stays_small(fig2):
    # a store filled to its bound with fig2's root records, each inside the
    # range with its two crossings, holds about 1.7 KB a record
    sym = PiecewiseSymbol([(p.theta_start, p.theta_end, p.poly) for p in fig2.pieces])
    lams = np.linspace(-0.9, 0.9, levelset.LEVEL_STORE_RECORDS)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        levelset._level_records(sym, lams)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(levelset._record(sym).levels) == levelset.LEVEL_STORE_RECORDS
    assert held < 10 * 2**20


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


def test_plain_rule_is_built_afresh(regular):
    one, two = hardy.plain_rule(regular, 0.4), hardy.plain_rule(regular, 0.4)
    assert one is not two
    assert np.array_equal(one.theta, two.theta) and np.array_equal(one.w_c, two.w_c)


@pytest.mark.parametrize("z, lam", [
    (math.nan, 0.2), (complex(0.3, math.inf), 0.2), (np.array([0.1, math.nan]), 0.2),
    (0.3, math.nan), (0.3, math.inf), (0.3, complex(0.2, math.nan)),
    (np.empty(0, dtype=complex), math.nan),
])
def test_q_function_rejects_non_finite_input(regular, z, lam):
    with pytest.raises(ValueError, match="finite"):
        q_function(regular, z, lam)


def test_q_function_band_split(regular):
    # points far inside, close to the circle on either side and far outside
    # evaluate in one array call as they do one at a time
    lam = 0.31
    inner, near_in, near_out, outer = (0.5 * np.exp(0.4j), 0.96 * np.exp(2.1j),
                                       1.05 * np.exp(-2.5j), 1.3 * np.exp(-1.0j))
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


def test_xi_circle_rejects_exceptional_level(regular, singular, fig2):
    # on both circle routes: fig2's record needs Li2, the others' do not
    for sym, lam in ((singular, 1.0 - 1e-12), (singular, 1e-12), (regular, 1.0 - 1e-10),
                     (fig2, 1.0 - 1e-10)):
        with pytest.raises(ExceptionalLevelError):
            xi_circle(sym, lam, 0.5, 512)


def reference_log_fourier(sym, lam: float, grid: int = hardy.LOG_FOURIER_GRID) -> np.ndarray:
    """Coefficients of ln|omega - lam| one closed-form term at a time, each
    crossing, jump and seam term with its own exponential over all modes
    and its own pass over the grid: the reference for the table-driven
    ``log_fourier``.  At each seam the jumps D_j of f' = p'/(p - lam) and
    f'' = p''/(p - lam) - f'^2 come off the grid as the periodic Bernoulli
    functions -(2 pi)^j B_{j+1}(x/2 pi)/(j+1)!, with the coefficients
    D_j e^{-i n t}/(2 pi (i n)^{j+1})."""
    N, G = grid // 2, grid
    tau = TWO_PI * (np.arange(G) + 0.5) / G
    n = np.arange(1, N)
    fhat = np.zeros(N, dtype=complex)
    ratio = np.abs(sym.values(tau) - lam)
    g1, g2 = sym.essential_range()
    for t0 in (reference_crossings(sym, lam) if g1 < lam < g2 else ()):
        fhat[1:] -= np.exp(-1j * n * t0) / (2.0 * n)
        ratio = ratio / np.maximum(np.abs(2.0 * np.sin(0.5 * (tau - t0))), 1e-300)
    g = np.log(np.maximum(ratio, 1e-300))
    for j in sym.jumps:
        if j.kind == "zero":
            continue
        size = math.log(abs(j.right - lam)) - math.log(abs(j.left - lam))
        fhat[1:] += size * np.exp(-1j * n * j.theta) / (2j * math.pi * n)
        g = g - size * (math.pi - np.mod(tau - j.theta, TWO_PI)) / TWO_PI

    def slope_curvature(poly, t):
        d1 = poly.derivative()
        u = poly(t) - lam
        return d1(t) / u, d1.derivative()(t) / u - (d1(t) / u) ** 2

    bernoulli = {2: lambda x: x * x - x + 1.0 / 6.0, 3: lambda x: x * (x - 0.5) * (x - 1.0)}
    for i, piece in enumerate(sym.pieces):
        prev, t = sym.pieces[i - 1], piece.theta_start
        left, right = slope_curvature(prev.poly, prev.theta_end), slope_curvature(piece.poly, t)
        x = np.mod(tau - t, TWO_PI) / TWO_PI
        for order in (1, 2):
            jump = right[order - 1] - left[order - 1]
            fhat[1:] += jump * np.exp(-1j * n * t) / (TWO_PI * (1j * n) ** (order + 1))
            g = g + jump * TWO_PI**order * bernoulli[order + 1](x) / math.factorial(order + 1)
    ghat = np.fft.rfft(g)[:N] / G
    return fhat + ghat * np.exp(-1j * math.pi * np.arange(N) / G)


def test_log_fourier_matches_reference(regular, singular, singular_asym, cos2_symbol, fig2):
    for sym in (regular, singular, singular_asym, cos2_symbol, fig2):
        g1, g2 = sym.essential_range()
        # inside the range, crossings and jumps; outside it, jumps only
        for frac in (-0.15, 0.13, 0.31, 0.52, 0.77, 0.94, 1.2):
            lam = g1 + frac * (g2 - g1)
            ref = reference_log_fourier(sym, lam)
            assert np.max(np.abs(hardy.log_fourier(sym, lam) - ref)) <= 1e-14


def unfolded_xi_circle(sym, lam, r, m_out):
    """xi on the circle of radius r from one inverse FFT over all kept modes
    (or m_out of them when more), sampled down to m_out points."""
    fhat = hardy.log_fourier(sym, lam)
    n_eval = max(m_out, hardy.LOG_FOURIER_N)
    c = np.zeros(n_eval, dtype=complex)
    c[0] = fhat[0]
    c[1:hardy.LOG_FOURIER_N] = 2.0 * fhat[1:] * r ** np.arange(1, hardy.LOG_FOURIER_N)
    return np.exp(-0.5 * np.fft.ifft(c) * n_eval)[:: n_eval // m_out]


def counted_log_fourier(monkeypatch):
    """A list that gets the (symbol, level) of every ``hardy.log_fourier``
    call from here on."""
    calls, real = [], hardy.log_fourier
    monkeypatch.setattr(hardy, "log_fourier",
                        lambda sym, lam, grid=hardy.LOG_FOURIER_GRID: calls.append((sym, lam))
                        or real(sym, lam, grid))
    return calls


@pytest.mark.parametrize("m_out", [64, 512, 2048, 16384, 32768])
def test_folded_xi_circle_matches_unfolded(m_out, monkeypatch, fig2):
    # below LOG_FOURIER_N the modes fold onto m_out bins, at it nothing
    # changes, above it the coefficients are zero-padded; fig2 at these
    # radii takes the Fourier route
    calls = counted_log_fourier(monkeypatch)
    for lam in (0.2, -0.6):
        for r in (0.5, 0.95, 0.99):
            got = xi_circle(fig2, lam, r, m_out)
            want = unfolded_xi_circle(fig2, lam, r, m_out)
            assert got.shape == (m_out,)
            assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-12
    assert len(calls) == 12


def test_xi_circle_rejects_bad_grids(regular, fig2):
    for sym in (regular, fig2):
        for m_out in (0, -4, 96):
            with pytest.raises(ValueError, match="m_out"):
                xi_circle(sym, 0.3, 0.9, m_out)
        for r in (0.0, -0.1, hardy.CIRCLE_R_MAX + 1e-4, 1.0):
            with pytest.raises(ValueError, match="radius"):
                xi_circle(sym, 0.3, r, 64)


def test_xi_circle_just_outside_the_range(regular, fig2):
    # nothing crosses these levels, but each passes within 1e-12 or 1e-9 of an
    # extremum's value, a near-double log singularity the FFT did not resolve
    z = 0.9 * np.exp(2j * math.pi * np.arange(512) / 512)
    for sym, lam in ((regular, 1.0 + 1e-12), (regular, -1.0 - 1e-9), (fig2, 1.0 + 1e-12)):
        got = xi_circle(sym, lam, 0.9, 512)
        assert np.max(np.abs(got / xi_grid(sym, z, lam) - 1.0)) <= 1e-12


def test_xi_circle_out_of_range_takes_the_fourier_route(monkeypatch, fig2):
    # out of the range the grid decides the route, as inside it: levels away
    # from fig2's range [-1, 1] are resolved and take log_fourier
    served = []
    log_fourier = hardy.log_fourier
    monkeypatch.setattr(hardy, "log_fourier",
                        lambda sym, lam, grid=hardy.LOG_FOURIER_GRID: served.append(lam)
                        or log_fourier(sym, lam, grid))
    circle = np.exp(2j * math.pi * np.arange(512) / 512)
    for lam in (1.5, -1.5, 1.01, -1.001, 3.0):
        for r in (0.5, 0.9, 0.99):
            got = xi_circle(fig2, lam, r, 512)
            assert np.max(np.abs(got / xi_grid(fig2, r * circle, lam) - 1.0)) <= 1e-12
    assert served


def test_xi_circle_rejects_bad_levels(regular):
    # like xi and q_function; a rejected level leaves nothing in the store
    levels = levelset._record(regular).levels
    before = list(levels)
    for lam in (math.nan, math.inf, 0.3 + 0.1j):
        with pytest.raises(ValueError, match="level"):
            xi_circle(regular, lam, 0.9, 64)
    assert list(levels) == before


@pytest.mark.parametrize("r", [0.5, 0.9, 0.99])
def test_closed_circle_route_matches_xi_circle(r, regular, singular, singular_asym,
                                               cos2_symbol):
    for sym in (regular, singular, singular_asym, cos2_symbol):
        g1, g2 = sym.essential_range()
        for frac in (-0.2, 0.13, 0.52, 0.94, 1.3):
            lam = g1 + frac * (g2 - g1)
            # the closed form, against the Fourier route built from log_fourier
            assert hardy._level_factors(sym, lam).li2_free
            got, want = xi_circle(sym, lam, r, 512), unfolded_xi_circle(sym, lam, r, 512)
            assert np.max(np.abs(got / want - 1.0)) <= 1e-12


@pytest.mark.parametrize("r", [0.5, 0.9, 0.99, 0.999, hardy.CIRCLE_R_MAX])
def test_closed_circle_route_is_exact_near_the_circle(r, regular, cos2_symbol):
    # to 1e-13 up to r = 0.99; beyond it the floor is the rounding of the
    # sample points, which xi next to a crossing magnifies by about 1/(1 - r)
    # (2.0e-13 at CIRCLE_R_MAX, where the Fourier route drops a tail of 6.7e-5)
    tol = max(1e-13, 2e-16 / (1.0 - r))
    z = r * np.exp(2j * math.pi * np.arange(4096) / 4096)
    for lam in (0.0, 0.37, -0.81, 0.99):
        for sym, w in ((regular, z), (cos2_symbol, z * z)):
            want = np.exp(-0.5 * _regular_q_exact(w, lam))
            assert np.max(np.abs(xi_circle(sym, lam, r, 4096) / want - 1.0)) <= tol


def test_li2_free_levels_store_no_fourier_vector():
    # fresh symbols: their stores hold only the root records of the frame's
    # level and of its interval's count, also on fig2, whose circle values
    # take log_fourier's vector
    cos2 = PiecewiseSymbol([(0.0, TWO_PI, TrigPoly([0.0, 0.0, 1.0]))])
    fig2 = PiecewiseSymbol([(0.0, math.pi, TrigPoly([0.0, 0.0, -1.0])),
                            (math.pi, 1.5 * math.pi, TrigPoly([1.0])),
                            (1.5 * math.pi, TWO_PI, TrigPoly([-1.0]))])
    for sym, lam in ((preset_regular(), 0.3), (preset_singular(0.0, math.pi), 0.3), (cos2, -0.4),
                     (fig2, 0.3)):
        spectral_frame(sym, lam).eigen_circle(0.95, 1024)
        levels = levelset._record(sym).levels
        assert lam in levels
        assert all(isinstance(v, levelset._LevelFactors) for v in levels.values())


def test_cold_xi_computes_no_exceptional_set(monkeypatch, capsys):
    # a fresh symbol's xi solves its level's roots and nothing else
    sym = PiecewiseSymbol([(0.0, TWO_PI, TrigPoly([0.1, 1.0, 0.3]))])
    xi(sym, 0.3 + 0.2j, 0.25)
    rec = levelset._record(sym)
    assert "exceptional" not in vars(sym) and not rec.reports and list(rec.levels) == [0.25]
    # and so does the CLI's, which loads its symbol afresh
    calls = []
    monkeypatch.setattr(PiecewiseSymbol, "exceptional", property(lambda s: calls.append(s)))
    assert cli.run(["xi", "--symbol", "regular", "--z", "0.3+0.2i", "--lambda", "0.1"]) == 0
    assert json.loads(capsys.readouterr().out)["roots"] == 2
    assert not calls


def test_eigen_circle_takes_log_fourier_only_with_li2(monkeypatch, regular, fig2):
    # every frame reads its circle values from xi_circle, and only a record
    # that needs Li2 takes its Fourier route
    calls = counted_log_fourier(monkeypatch)
    assert not hardy._level_factors(fig2, 0.3).li2_free
    got = spectral_frame(fig2, 0.3).eigen_circle(0.9, 256)
    spectral_frame(regular, 0.3).eigen_circle(0.9, 256)
    assert calls == [(fig2, 0.3)]
    frame = spectral_frame(fig2, 0.3)
    z = 0.9 * np.exp(2j * math.pi * np.arange(256) / 256)
    assert np.array_equal(got, frame._branches(z, xi_circle(fig2, 0.3, 0.9, 256)))


def test_xi_circle_certifies_its_truncation(monkeypatch, fig2):
    # the dropped tail 2 max(n|f_n|) r^N/(N(1 - r)) is above DEFAULT_TOL at
    # r = 0.999 and CIRCLE_R_MAX, where the closed form serves; at r = 0.99
    # the Fourier route still does
    calls = counted_log_fourier(monkeypatch)
    for r in (0.999, hardy.CIRCLE_R_MAX):
        z = r * np.exp(2j * math.pi * np.arange(512) / 512)
        assert np.array_equal(xi_circle(fig2, 0.3, r, 512), xi_grid(fig2, z, 0.3))
    calls.clear()
    z = 0.99 * np.exp(2j * math.pi * np.arange(512) / 512)
    vals = xi_circle(fig2, 0.3, 0.99, 512)
    assert calls == [(fig2, 0.3)] and not np.array_equal(vals, xi_grid(fig2, z, 0.3))
    assert np.max(np.abs(vals / xi_grid(fig2, z, 0.3) - 1.0)) < 1e-12


def test_sized_grid_matches_the_full_grid_on_fig2(monkeypatch):
    # phi_r reads at rho_M ~ 0.956 when M = 512: up to there the grid sized
    # for r agrees with the full grid's route, makes one log_fourier call
    # per level on a smaller grid, and never samples the symbol on the full
    # grid; a fresh symbol, so its record starts empty
    sym = PiecewiseSymbol([(0.0, math.pi, TrigPoly([0.0, 0.0, -1.0])),
                           (math.pi, 1.5 * math.pi, TrigPoly([1.0])),
                           (1.5 * math.pi, TWO_PI, TrigPoly([-1.0]))])
    lams = np.linspace(-1.0, 1.0, 66)[1:-1]
    grids, real = [], hardy.log_fourier
    monkeypatch.setattr(hardy, "log_fourier",
                        lambda sym, lam, grid=hardy.LOG_FOURIER_GRID: grids.append(grid)
                        or real(sym, lam, grid))
    radii = (0.5, 0.9, 0.95, 0.956)
    got = [xi_circle(sym, lams, r, 512) for r in radii]
    assert len(grids) == len(radii) * len(lams)
    assert max(grids) < hardy.LOG_FOURIER_GRID
    assert hardy.LOG_FOURIER_GRID not in levelset._record(sym).grid_values
    for r, rows in zip(radii, got):
        for lam, row in zip(lams, rows):
            want = unfolded_xi_circle(sym, lam, r, 512)
            assert np.max(np.abs(row / want - 1.0)) <= 1e-12


def test_log_fourier_on_every_grid(fig2, rng):
    # each grid size against the reference on the same grid, on fig2 and on
    # random symbols, whose seams jump in value, slope and curvature; the
    # grid must be a power of two from 256 to LOG_FOURIER_GRID
    symbols = [fig2] + [random_symbol(rng) for _ in range(3)]
    for sym in symbols:
        g1, g2 = sym.essential_range()
        for frac in (0.3, 1.2):
            lam = g1 + frac * (g2 - g1)
            for grid in (256, 1024, 4096, 16384):
                try:
                    fhat = hardy.log_fourier(sym, lam, grid)
                except QuadratureError:
                    continue
                assert fhat.shape == (grid // 2,)
                assert np.max(np.abs(fhat - reference_log_fourier(sym, lam, grid))) <= 1e-14
    for grid in (128, 3000, 65536, 1024.0, "1024"):
        with pytest.raises(ValueError, match="grid"):
            hardy.log_fourier(fig2, 0.3, grid)


def test_slope_jumps_take_the_fourier_route(monkeypatch):
    # |sin theta| as two pieces, whose seams jump in slope, and two
    # polynomials whose seams jump in value with sloped sides: the jumps in
    # f' and f'' come off in closed form, so their circle values take
    # log_fourier, where the closed form served before
    abs_sin = PiecewiseSymbol([(0.0, math.pi, TrigPoly([0.0], [1.0])),
                               (math.pi, TWO_PI, TrigPoly([0.0], [-1.0]))])
    sloped = PiecewiseSymbol([(0.5, 2.5, TrigPoly([0.1, 1.0, 0.3])),
                              (2.5, 0.5 + TWO_PI, TrigPoly([0.0, 0.8], [0.4]))])
    assert [j.kind for j in abs_sin.jumps] == ["zero", "zero"]
    assert np.all(np.abs(sloped._seam_jets[1][:, :, 1]) > 0.02)
    cases = [(sym, lam, r) for sym, lam in ((abs_sin, 0.37), (abs_sin, 0.8), (sloped, 0.2))
             for r in (0.5, 0.9, 0.99)]
    want = [xi_grid(sym, r * np.exp(2j * math.pi * np.arange(512) / 512), lam)
            for sym, lam, r in cases]
    calls = counted_log_fourier(monkeypatch)
    monkeypatch.setattr(hardy, "_closed_q", lambda *args: pytest.fail("exp(-Q/2) served"))
    for (sym, lam, r), ref in zip(cases, want):
        assert np.max(np.abs(xi_circle(sym, lam, r, 512) / ref - 1.0)) <= 1e-12
    assert len(calls) == len(cases)


def test_fourier_route_counts_its_seam_rounding(monkeypatch, fig2):
    # next to a seam's one-sided value the jumps D_j grow like
    # 1/|omega - lam|^j, and taking J S_0 + D_1 S_1 + D_2 S_2 off the samples
    # costs about eps |D_j| in Q: where the Fourier route serves, its gap to
    # the closed form stays within the bound it accepted the vector by
    rng = np.random.default_rng(3501)
    symbols = [fig2]
    while len(symbols) < 4:
        sym = random_symbol(rng)
        jets = sym._seam_jets[1]
        if len(jets) and np.all(np.abs(jets[:, :, 1]) > 0.1):
            symbols.append(sym)
    bounds, real = [], hardy._fourier_error
    monkeypatch.setattr(hardy, "_fourier_error", lambda decay, n, r, extra: bounds.append(
        real(decay, n, r, extra)) or bounds[-1])
    served = 0
    for sym in symbols:
        for v in np.unique(sym._seam_jets[1][:, :, 0]):
            for lam in v + np.outer([-1.0, 1.0], [1e-5, 1e-4, 1e-3, 1e-2]).ravel():
                try:
                    factors = hardy._level_factors(sym, levelset._check_level(sym, lam))
                except ToepspecError:
                    continue
                for r in (0.5, 0.9, 0.99):
                    row = None if factors.li2_free else hardy._fourier_xi(sym, lam, factors, r, 256)
                    if row is None:
                        continue
                    served += 1
                    ref = xi_grid(sym, r * np.exp(2j * math.pi * np.arange(256) / 256), lam)
                    assert np.max(np.abs(2.0 * np.log(row / ref))) <= bounds[-1]
    assert served > 50


def test_xi_radial_reflection(regular, fig2, rng):
    # the Schwarz average of a real weight satisfies Q(z) = -conj(Q(1/conj(z))),
    # tying the exterior evaluations to the interior ones
    for sym, lam in ((regular, 0.3), (fig2, 0.2)):
        for _ in range(8):
            z_in = rng.uniform(0.1, 0.88) * np.exp(1j * rng.uniform(0, TWO_PI))
            z_out = 1.0 / np.conj(z_in)
            prod = xi(sym, complex(z_out), lam) * np.conj(xi(sym, complex(z_in), lam))
            assert abs(prod - 1.0) < 1e-9


# -- closed form at real levels --------------------------------------------------

CATALAN = 0.915965594177219015054603514932


def test_li2_special_values():
    x = np.array([0.0, 1.0, -1.0, 0.5, 1j])
    want = np.array([0.0, math.pi ** 2 / 6.0, -math.pi ** 2 / 12.0,
                     math.pi ** 2 / 12.0 - 0.5 * math.log(2.0) ** 2,
                     -math.pi ** 2 / 48.0 + 1j * CATALAN])
    assert np.max(np.abs(hardy._li2(x) - want)) <= 4e-16


def _li2_grid():
    rng = np.random.default_rng(31)
    n = 400
    ring = np.exp(1j * rng.uniform(0.0, TWO_PI, n)) * (1.0 + rng.uniform(-1e-6, 1e-6, n))
    near_one = 1.0 + 1e-4 * (rng.normal(size=n) + 1j * rng.normal(size=n))
    wide = 4.0 * (rng.normal(size=n) + 1j * rng.normal(size=n))
    return np.concatenate((ring, near_one, wide))


def test_li2_power_series_inside_half_disk():
    rng = np.random.default_rng(30)
    x = 0.5 * np.sqrt(rng.uniform(size=300)) * np.exp(1j * rng.uniform(0.0, TWO_PI, 300))
    k = np.arange(1, 80)
    want = np.sum(x[:, None] ** k / k ** 2, axis=1)
    assert np.max(np.abs(hardy._li2(x) - want)) <= 1e-15


def test_li2_reflection_and_inversion():
    x = _li2_grid()
    x = x[np.abs(x.imag) > 1e-12]          # off the cuts of both identities
    li2 = hardy._li2
    # Li2(x) + Li2(1 - x) = pi^2/6 - log x log(1 - x)
    lhs = li2(x) + li2(1.0 - x)
    rhs = math.pi ** 2 / 6.0 - np.log(x) * np.log(1.0 - x)
    assert np.max(np.abs(lhs - rhs) / np.maximum(1.0, np.abs(rhs))) <= 1e-14
    # Li2(x) + Li2(1/x) = -pi^2/6 - log^2(-x)/2
    lhs = li2(x) + li2(1.0 / x)
    rhs = -math.pi ** 2 / 6.0 - 0.5 * np.log(-x) ** 2
    assert np.max(np.abs(lhs - rhs) / np.maximum(1.0, np.abs(rhs))) <= 1e-14


# |z| beyond which the Schwarz kernel is too peaked for panels that do not
# break at arg z
PEAK_RADIUS = 0.9


def refined_panel_q(sym, zs, lam):
    """Q by the panel quadrature on a rule at MAX_DEPTH that breaks at every
    seam, every interior extremum and every crossing of Re lam and, for a
    point in the peak band PEAK_RADIUS < |z| < 1/PEAK_RADIUS, at arg z: the
    panel route with the dips of the log weight next to an extremum and the
    Schwarz peak resolved.  The weight is ln|omega - lam| at a real level and
    the principal log(omega - lam) at a non-real one."""
    lam = complex(lam)

    def average(zs, extra):
        rule = hardy.plain_rule(sym, lam.real, extra, depth=hardy.MAX_DEPTH)
        diff = sym.values(rule.theta) - lam
        logs = np.log(diff) if lam.imag else hardy._log_weight(diff, 0.0)
        s = np.asarray(zs)[:, None] * np.exp(-1j * rule.theta)
        return ((1.0 + s) / (1.0 - s)) @ (rule.w * logs)

    zs = np.asarray(zs, dtype=complex)
    band = (PEAK_RADIUS < np.abs(zs)) & (np.abs(zs) < 1.0 / PEAK_RADIUS)
    out = np.empty(len(zs), dtype=complex)
    if not band.all():
        out[~band] = average(zs[~band], ())
    for i in np.nonzero(band)[0]:
        out[i] = average(zs[i:i + 1], (float(np.angle(zs[i])) % TWO_PI,))[0]
    return out


def _band_points(rng, n_inner=12, n_band=3, n_outer=3):
    """Points inside the peak band, in it on either side of the circle, and
    beyond it."""
    r = np.concatenate((rng.uniform(0.0, PEAK_RADIUS, n_inner),
                        rng.uniform(PEAK_RADIUS, 0.97, n_band),
                        rng.uniform(1.03, 1.0 / PEAK_RADIUS, n_band),
                        rng.uniform(1.0 / PEAK_RADIUS, 4.0, n_outer)))
    return r * np.exp(1j * rng.uniform(0.0, TWO_PI, len(r)))


def _assert_closed_matches_panels(sym, lam, zs):
    got = q_function(sym, zs, lam)
    want = refined_panel_q(sym, zs, lam)
    assert np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))) <= 1e-12


def test_closed_form_matches_panels_on_test_symbols(regular, singular, singular_asym,
                                                    fig2, cos2_symbol):
    rng = np.random.default_rng(41)
    for sym in (regular, singular, singular_asym, fig2, cos2_symbol):
        g1, g2 = sym.essential_range()
        for frac in (-0.3, 0.07, 0.31, 0.52, 0.77, 0.96, 1.4):
            _assert_closed_matches_panels(sym, g1 + frac * (g2 - g1), _band_points(rng))


def test_closed_form_matches_panels_on_random_symbols():
    rng = np.random.default_rng(43)
    for _ in range(24):
        sym = random_symbol(rng)
        g1, g2 = sym.essential_range()
        exc = levelset.exceptional_set(sym)
        levels = [lam for lam in rng.uniform(g1 - 0.3 * (g2 - g1), g2 + 0.3 * (g2 - g1), 3)
                  if value_gap(exc, lam) >= 1e-3]
        for lam in levels:
            _assert_closed_matches_panels(sym, lam, _band_points(rng, 6, 2, 2))


def test_closed_form_matches_panels_at_non_real_levels(regular, singular, singular_asym,
                                                      fig2, cos2_symbol):
    rng = np.random.default_rng(59)
    for sym in (regular, singular, singular_asym, fig2, cos2_symbol):
        g1, g2 = sym.essential_range()
        for frac, eta in ((-0.3, 0.01), (0.07, -1.0), (0.31, 1e-3), (0.52, -0.3),
                          (0.96, -1e-3), (1.4, 0.2)):
            zeta = complex(g1 + frac * (g2 - g1), eta)
            _assert_closed_matches_panels(sym, zeta, _band_points(rng, 6, 2, 2))


def test_closed_form_matches_panels_at_non_real_levels_on_random_symbols():
    rng = np.random.default_rng(61)
    for _ in range(24):
        sym = random_symbol(rng)
        g1, g2 = sym.essential_range()
        exc = levelset.exceptional_set(sym)
        levels = [lam for lam in rng.uniform(g1 - 0.3 * (g2 - g1), g2 + 0.3 * (g2 - g1), 3)
                  if value_gap(exc, lam) >= 1e-3]
        for lam in levels:
            eta = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-3.0, 0.0)
            _assert_closed_matches_panels(sym, complex(lam, eta), _band_points(rng, 6, 2, 2))


def _assert_limiting_absorption(sym, lam, zs):
    # log(omega - lam -+ i eps) tends to ln|omega - lam| -+ i pi on the
    # sublevel set, whose Schwarz average is 2i A, A the phase
    q = q_function(sym, zs, lam)
    jump = 2j * phase_A_closed(sublevel_set(sym, lam).arcs, zs)
    for eps in (1e-17, 1e-16, 1e-15, 1e-14):
        for sign in (1.0, -1.0):
            got = q_function(sym, zs, complex(lam, sign * eps))
            assert np.max(np.abs(got - (q - sign * jump)) / np.maximum(1.0, np.abs(q))) <= 1e-12


def _disk_points(rng, n=8):
    r = np.concatenate(([0.0], rng.uniform(0.0, 0.97, n - 1)))
    return r * np.exp(1j * rng.uniform(0.0, TWO_PI, n))


def test_limiting_absorption_on_test_symbols(regular, singular, singular_asym, fig2,
                                             cos2_symbol):
    rng = np.random.default_rng(67)
    for sym in (regular, singular, singular_asym, fig2, cos2_symbol):
        g1, g2 = sym.essential_range()
        for frac in (0.07, 0.31, 0.52, 0.77, 0.96):
            _assert_limiting_absorption(sym, g1 + frac * (g2 - g1), _disk_points(rng))


def test_limiting_absorption_on_random_symbols():
    rng = np.random.default_rng(71)
    for _ in range(24):
        sym = random_symbol(rng)
        g1, g2 = sym.essential_range()
        exc = levelset.exceptional_set(sym)
        for lam in rng.uniform(g1, g2, 3):
            if value_gap(exc, lam) >= 1e-3:
                _assert_limiting_absorption(sym, lam, _disk_points(rng))


def test_non_real_levels_build_no_rules(monkeypatch, regular, fig2):
    builds = []
    init = CircleRule.__init__

    def counted(self, *args, **kwargs):
        builds.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(CircleRule, "__init__", counted)
    zs = np.array([0.0, 0.3 + 0.4j, 0.95j, 1.2, -2.0 + 1.0j])
    u, v = zs[:3, None], zs[None, :3]
    for sym in (regular, fig2):
        assert np.all(np.isfinite(q_function(sym, zs, 0.2 + 0.05j)))
        assert np.all(np.isfinite(resolvent_form(sym, u, v, -0.4 - 1e-3j)))
        assert np.all(np.isfinite(stone_density(sym, u, v, 0.2)))
    assert not builds


def _regular_q_exact(w, lam):
    """log((1 - 2 lam w + w^2)/2), the exact Q of cos theta inside the range,
    with 1 - 2 lam w + w^2 written as (1 -+ w)^2 +- 2 (1 -+ lam) w so that no
    digits cancel near lam = +-1."""
    s = 1.0 if lam >= 0.0 else -1.0
    return np.log(((1.0 - s * w) ** 2 + 2.0 * s * (1.0 - s * lam) * w) / 2.0)


@pytest.mark.parametrize("lam", [0.0, 0.37, -0.81, 1.0 - 1e-8, -1.0 + 1e-8])
def test_closed_form_matches_exact_xi(regular, cos2_symbol, lam):
    # cos 2 theta is cos theta under z -> z^2, so its Q is the regular Q at z^2
    rng = np.random.default_rng(47)
    zs = rng.uniform(0.0, 0.9, 60) * np.exp(1j * rng.uniform(0.0, TWO_PI, 60))
    for sym, w in ((regular, zs), (cos2_symbol, zs * zs)):
        want = np.exp(-0.5 * _regular_q_exact(w, lam))
        assert np.max(np.abs(xi_grid(sym, zs, lam) / want - 1.0)) <= 1e-14


@pytest.mark.parametrize("zeta", [0.3 + 0.02j, -0.81 - 1e-4j, 0.6 + 1e-9j, -0.2 - 0.5j,
                                  1.4 + 1.0j, -3.0 - 0.2j])
def test_closed_form_matches_exact_forms_at_non_real_levels(regular, cos2_symbol, zeta):
    # cos theta - zeta = (-r_out/2)(1 - r_in/w)(1 - r_in w) with r_in r_out = 1
    # the roots of w^2 - 2 zeta w + 1, so Q = log(-r_out/2) + 2 log(1 - r_in z)
    # inside the disk and -log(-r_out/2) - 2 log(1 - r_in/z) outside it;
    # cos 2 theta is cos theta under z -> z^2
    r_in, r_out = sorted(np.roots([1.0, -2.0 * zeta, 1.0]), key=abs)
    rng = np.random.default_rng(53)
    radii = np.concatenate((rng.uniform(0.0, 0.9, 40), rng.uniform(1.0 / 0.9, 4.0, 20)))
    zs = radii * np.exp(1j * rng.uniform(0.0, TWO_PI, len(radii)))
    for sym, w in ((regular, zs), (cos2_symbol, zs * zs)):
        inner = np.abs(w) < 1.0
        want = np.empty_like(w)
        want[inner] = np.log(-r_out / 2.0) + 2.0 * np.log(1.0 - r_in * w[inner])
        want[~inner] = -np.log(-r_out / 2.0) - 2.0 * np.log(1.0 - r_in / w[~inner])
        got = q_function(sym, zs, zeta)
        assert np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))) <= 1e-14
    # the circle average of log(cos t - zeta) is -log(-2a), with a the root
    # of a^2 - 2 zeta a + 1 = 0 inside the disk
    a = zeta - np.sqrt(zeta * zeta - 1.0)
    a = a if abs(a) < 1.0 else 1.0 / a
    assert abs(np.exp(-q_function(regular, 0.0, zeta)) + 2.0 * a) < 1e-13


def test_plateau_level_is_exceptional(singular, fig2):
    for sym, lam in ((singular, 1.0), (singular, 0.0), (fig2, -1.0)):
        with pytest.raises(ExceptionalLevelError):
            q_function(sym, 0.3, lam)
        with pytest.raises(ExceptionalLevelError):
            xi(sym, 1.5j, lam)


def test_range_end_levels_raise_on_the_circle():
    # a level equal to a jump's one-sided value at the range's end, where
    # the jump's step size is the log of 0
    sym = preset_singular(0.0, math.pi)
    for lam in (1.0, 0.0):
        with pytest.raises(ExceptionalLevelError):
            hardy.log_fourier(sym, lam)
        with pytest.raises(ExceptionalLevelError):
            xi_circle(sym, lam, 0.9, 512)
    # levels just outside the range are served as before
    for lam in (1.0 + 1e-6, -1e-6):
        ref = reference_log_fourier(sym, lam)
        assert np.max(np.abs(hardy.log_fourier(sym, lam) - ref)) <= 1e-14


def test_log_fourier_refuses_what_its_grid_cannot_resolve(regular):
    # just past the range a near-double root lies 1.4e-6 and 4.5e-5 from
    # the circle, where the grid's coefficients were up to 6.0e-5 and 2.9e-5
    # off; and |sin theta| as two pieces, 1e-3 above its minimum, has jumps
    # of 4e9 in f''' at its seams, which alias by up to 1e-6 into a
    # coefficient.  Its slope jumps at 0.37 are corrected in closed form
    for lam in (1.0 + 1e-12, 1.0 + 1e-9):
        with pytest.raises(QuadratureError):
            hardy.log_fourier(regular, lam)
    sym = PiecewiseSymbol([(0.0, math.pi, TrigPoly([0.0], [1.0])),
                           (math.pi, TWO_PI, TrigPoly([0.0], [-1.0]))])
    with pytest.raises(QuadratureError):
        hardy.log_fourier(sym, 1e-3)
    ref = reference_log_fourier(sym, 0.37)
    assert np.max(np.abs(hardy.log_fourier(sym, 0.37) - ref)) <= 1e-14
    # at 1.2 the roots lie acosh(1.2) = 0.62 from the circle:
    # ln|cos t - lam| = ln(1/(2b)) - 2 sum b^n cos(n t)/n, b = lam - sqrt(lam^2 - 1)
    lam = 1.2
    b = lam - math.sqrt(lam * lam - 1.0)
    n = np.arange(1, hardy.LOG_FOURIER_N)
    fhat = hardy.log_fourier(regular, lam)
    assert abs(fhat[0] + math.log(2.0 * b)) <= 1e-14
    assert np.max(np.abs(fhat[1:] + b ** n / n)) <= 1e-14


def test_log_fourier_is_exact_or_refuses_at_a_seam_curvature_jump(fig2):
    # the seams' curvature jumps, about 4e5 each, come off in closed form;
    # their jumps of 4.8e11 in f'''' alias by up to 2.7e-10 into a
    # coefficient, so the grid refuses the level
    lam = -1.0 + 1e-5
    try:
        fhat = hardy.log_fourier(fig2, lam)
    except QuadratureError:
        return
    z = 0.99 * np.exp(TWO_PI * 1j * np.arange(16) / 16)
    q = fhat[0] + 2.0 * (z[:, None] ** np.arange(1, hardy.LOG_FOURIER_N)) @ fhat[1:]
    assert np.max(np.abs(q - hardy.q_function(fig2, z, lam))) <= 1e-10


def test_boundary_xi_at_a_plateau_level_is_exceptional():
    # the level of the plateau omega = 1 on (0, pi), off the plateau and on
    # the other one
    sym = preset_singular(0.0, math.pi)
    for theta, lam in ((4.0, 1.0), (1.0, 0.0)):
        with pytest.raises(ExceptionalLevelError):
            boundary_xi(sym, theta, lam, "+")


@pytest.mark.parametrize("r", [0.9, 0.99])
def test_xi_circle_at_a_slope_jump(r):
    # |sin theta| as two pieces, with slope jumps at 0 and pi, which the
    # Fourier route corrects in closed form; its grid alone errs by O(h^2)
    sym = PiecewiseSymbol([(0.0, math.pi, TrigPoly([0.0], [1.0])),
                           (math.pi, TWO_PI, TrigPoly([0.0], [-1.0]))])
    z = r * np.exp(2j * math.pi * np.arange(512) / 512)
    got, want = xi_circle(sym, 0.37, r, 512), xi_grid(sym, z, 0.37)
    assert np.max(np.abs(got / want - 1.0)) <= 1e-10


def test_perturbed_root_fails_its_certificate(monkeypatch):
    sym = preset_regular()
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: eigvals(a) + 0.05)
    for lam in (0.3, 0.3 + 0.01j):
        with pytest.raises(QuadratureError) as info:
            q_function(sym, 0.3, lam)
        assert hardy.DEFAULT_TOL < info.value.achieved_tol < 1.0
    assert not levelset._record(sym).levels     # nothing is stored
    monkeypatch.setattr(np.linalg, "eigvals", eigvals)
    record = hardy._level_factors(sym, 0.3)
    assert record.roots == 2 and record.achieved_tol <= 1e-15


def test_misplaced_roots_fail_the_count(monkeypatch):
    # at zeta = 0.3 + 1e-17i the roots of cos theta - zeta sit 1e-17 off the
    # circle and are placed by the sign of p'; with p' taken as 0 both land
    # outside, and the count of roots inside must not pass
    sym = preset_regular()
    monkeypatch.setattr(sym, "_dpolys", [TrigPoly([0.0])])
    with pytest.raises(QuadratureError, match="inside the circle"):
        q_function(sym, 0.3, 0.3 + 1e-17j)


# Piece 2 peaks 1e-7 below this level, with its roots at |zeta| = 1 +- 5.8e-4:
# ln|omega - lam| dips to about ln 1e-7 where no panel breaks.  References:
# 30-digit quadratures that agree over two splittings of the integral.
NEAR_PEAK = PiecewiseSymbol([
    (2.1338430992757282, 4.345367420505936,
     TrigPoly([-0.34081393510644964, 0.42964757883078475, 0.8334436226500497],
              [0.6461982078643473, -0.5138464585741531])),
    (4.345367420505936, 8.417028406455314,
     TrigPoly([-0.7804498864943845, -0.2371623419364064], [0.5428415889498948])),
])
NEAR_PEAK_LAM = -0.18806227217085703


def test_closed_form_past_an_interior_extremum():
    # the panel route returned -0.9546870007446867 at z = 0 with an
    # achieved_tol of 8.8e-14
    q = q_function(NEAR_PEAK, np.array([0.0, 0.5]), NEAR_PEAK_LAM)
    want = np.array([-0.9517926718688053, -0.6119376970598488 + 0.6668091774125239j])
    assert np.max(np.abs(q - want)) <= 1e-12


def test_non_real_level_past_an_interior_extremum():
    # the closed form and a composite 40-point Gauss-Legendre rule refined
    # geometrically toward every crossing of Re zeta and every critical point
    # agree on this value to 1.6e-15; the panel route was 1.36e-4 off
    zeta = complex(NEAR_PEAK_LAM, 1e-5)
    want = -0.4940058900888224 - 2.270556294849009j
    assert abs(q_function(NEAR_PEAK, 0.5, zeta) - want) <= 1e-12


def test_q_at_a_root_of_the_level(fig2):
    # at z equal to a root gamma inside the disk the chord's x is infinite;
    # the chord term takes its z = gamma limit there
    zeta = complex(-1.5, 0.3)
    gamma = complex(hardy._factor_nonreal(fig2, zeta).pieces[0][4][0])
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    assert golden in hardy._level_factors(fig2, -1.5).pieces[0][4]
    for z, lam in ((golden, -1.5), (gamma, zeta)):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            q = q_function(fig2, z, lam)
        assert np.isfinite(q)
        # 1e-12 away, with Q's linear term averaged out over four neighbours
        near = q_function(fig2, z + 1e-12 * np.array([1.0, -1.0, 1j, -1j]), lam)
        assert abs(q - np.mean(near)) <= 1e-12
        assert abs(q - refined_panel_q(fig2, np.array([z]), lam)[0]) <= 1e-12


def test_closed_form_on_the_real_axis(fig2):
    # real points and real roots on a piece ending at angles 0 and pi put the
    # chord's x on the cut (1, inf), where its side was rounding: fig2 was
    # off by up to 5.2 in Q at lam = -1.5, z = 0.6
    rng = np.random.default_rng(73)
    symbols = [fig2]
    for split in (0.0, 0.0, 0.5 * math.pi, 1.5 * math.pi):
        cuts = sorted({0.0, math.pi, split})
        ends = cuts[1:] + [TWO_PI]
        symbols.append(PiecewiseSymbol([
            (a, b, TrigPoly(rng.normal(size=deg + 1)))
            for a, b, deg in zip(cuts, ends, rng.integers(1, 4, len(cuts)))]))
    for sym in symbols:
        g1, g2 = sym.essential_range()
        for frac in (-1.5, -0.2, 0.37, 1.2, 2.5):
            lam = g1 + frac * (g2 - g1)
            gammas = np.concatenate([gamma for *_, gamma in hardy._level_factors(sym, lam).pieces])
            roots = gammas[(np.abs(gammas) < 0.97) & (gammas.imag == 0.0)]
            zs = np.concatenate(([0.0, 0.3, -0.3, 0.6, 0.7, -0.9, 0.96, 1.5, -2.0], roots))
            _assert_closed_matches_panels(sym, lam, zs.astype(complex))


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


def random_arcs(rng):
    """1-4 disjoint arcs in order from a random start, so that the last can
    wrap past 2 pi; about a third of them 1e-6 wide."""
    n = int(rng.integers(1, 5))
    ends = rng.uniform(0.0, TWO_PI) + np.sort(rng.uniform(0.0, TWO_PI, 2 * n)).reshape(n, 2)
    ends[:, 1] = np.where(rng.uniform(size=n) < 1 / 3, ends[:, 0] + 1e-6, ends[:, 1])
    return [Arc(a % TWO_PI, a % TWO_PI + (b - a)) for a, b in ends]


def holding(frame, ends):
    """A copy of ``frame`` that holds the arc ends ``ends``, (2, m) or
    (2, levels, m), with every c = 1, through the frame's own ``_hold``."""
    view = copy.copy(frame)
    view.m = ends.shape[-1]
    lam = np.zeros(ends.shape[1]) if ends.ndim == 3 else 0.0
    view._hold(None, lam, np.ones(ends.shape[1:]), ends)
    return view


def test_phase_factor_is_exp_i_phase(rng, regular):
    # the branches with rho = 1 and xi = 1 are K_beta_j times the product of
    # principal square roots of the end-point ratios, which must be
    # exp(i (A - pi mu/2)) of the closed log form at points up to
    # CIRCLE_R_MAX and 1e-6 in angle from the arc ends, and of the integral
    # form at their mirror points outside the disk, the ring at CIRCLE_R_MAX
    # left out: there the rounding of 1/conj z, times the phase's condition
    # number of about 2e3 at 1e-6 from an arc end, is 1e-13 in either form
    frame = spectral_frame(regular, 0.0)
    wraps = narrow = 0
    for _ in range(200):
        arcs = random_arcs(rng)
        wraps += any(arc.beta > TWO_PI for arc in arcs)
        narrow += any(arc.length < 1e-5 for arc in arcs)
        ends = np.array([t for arc in arcs for t in (arc.alpha, arc.beta)])
        near = np.add.outer(ends, [-1e-6, 1e-6]).ravel()
        zs = np.concatenate((hardy.CIRCLE_R_MAX * np.sqrt(rng.uniform(size=40))
                             * np.exp(1j * rng.uniform(0.0, TWO_PI, 40)),
                             np.multiply.outer([0.9, 0.99, hardy.CIRCLE_R_MAX],
                                               np.exp(1j * near)).ravel()))
        view = holding(frame, ends.reshape(-1, 2).T)
        kernels = 1.0 / (1.0 - zs * np.conj(view._beta)[:, None])
        half = 0.5 * math.pi * hardy.arcs_measure(arcs)
        want = kernels * np.exp(1j * (phase_A_closed(arcs, zs) - half))
        assert np.max(np.abs(view._branches(zs, np.ones(zs.shape)) / want - 1.0)) <= 1e-13
        out = 1.0 / np.conj(zs[:40 + 2 * len(near)])
        kernels = 1.0 / (1.0 - out * np.conj(view._beta)[:, None])
        want = kernels * np.exp(1j * (np.array([phase_A_integral(arcs, z) for z in out]) - half))
        assert np.max(np.abs(view._branches(out, np.ones(out.shape)) / want - 1.0)) <= 1e-13
    assert wraps >= 20 and narrow >= 20
    # a leading level axis, on both sides of the circle
    levels = [random_arcs(np.random.default_rng(k)) for k in range(40)]
    levels = [arcs for arcs in levels if len(arcs) == 2]
    ends = np.array([[(arc.alpha, arc.beta) for arc in arcs] for arcs in levels]).transpose(2, 0, 1)
    zs = np.array([[0.3 - 0.2j, -0.9, 1.5j], [0.99j, 0.0, -2.0 + 1.0j]])
    got = holding(frame, ends)._branches(zs, np.ones((len(levels),) + zs.shape))
    assert got.shape == (len(levels), 2) + zs.shape
    for k, row in enumerate(got):
        want = holding(frame, ends[:, k])._branches(zs, np.ones(zs.shape))
        assert np.max(np.abs(row / want - 1.0)) <= 1e-15


def test_circle_sizes_must_be_integer_powers_of_two(regular):
    frame = spectral_frame(regular, 0.1)
    for m_out in (512.0, np.float64(512.0), 0, 96):
        with pytest.raises(ValueError, match="m_out must be an integer power of two"):
            xi_circle(regular, 0.1, 0.9, m_out)
        with pytest.raises(ValueError, match="m_out must be an integer power of two"):
            frame.eigen_circle(0.9, m_out)
    assert np.array_equal(xi_circle(regular, 0.1, 0.9, np.int64(512)), xi_circle(regular, 0.1, 0.9, 512))


def test_one_piece_circle_xi_is_the_product_of_paired_roots(monkeypatch):
    # on one piece xi_circle takes e^{-const/2} over the principal roots of
    # root pairs, with no _closed_q; against xi_grid's exp(-Q/2), at levels
    # inside and just outside the range, one level at a time and all at once
    rng = np.random.default_rng(2802)
    radii = (0.5, 0.9, 0.99, hardy.CIRCLE_R_MAX)
    circle = np.exp(2j * math.pi * np.arange(512) / 512)
    cases = []
    for degree in (1, 2, 3, 4, 5, 6) * 2:
        sym = PiecewiseSymbol([(0.0, TWO_PI, TrigPoly(rng.normal(size=degree + 1),
                                                      rng.normal(size=degree)))])
        g1, g2 = sym.essential_range()
        exc = levelset.exceptional_set(sym)
        lams = [lam for lam in np.linspace(g1, g2, 9)[1:-1] if value_gap(exc, lam) > 1e-6]
        lams = np.array(lams + [g1 - 1e-6, g2 + 1e-9])
        cases += [(sym, lams, r, xi_grid(sym, r * circle, lams)) for r in radii]
    monkeypatch.setattr(hardy, "_closed_q", lambda *args: pytest.fail("exp(-Q/2) served"))
    for sym, lams, r, want in cases:
        assert np.max(np.abs(xi_circle(sym, lams, r, 512) / want - 1.0)) <= 1e-13
        for lam, row in zip(lams, want):
            assert np.max(np.abs(xi_circle(sym, lam, r, 512) / row - 1.0)) <= 1e-13


def constant_piece_symbols(rng, count):
    """``count`` random symbols of 2-6 constant pieces."""
    out = []
    for _ in range(count):
        n = int(rng.integers(2, 7))
        cuts = np.sort(rng.uniform(0.0, TWO_PI, n))
        ends = np.append(cuts[1:], cuts[0] + TWO_PI)
        out.append(PiecewiseSymbol([(a, b, TrigPoly([v]))
                                    for a, b, v in zip(cuts, ends, rng.normal(size=n))]))
    return out


def test_constant_piece_xi_is_a_product_of_seam_powers(monkeypatch, singular, singular_asym):
    # on constant pieces xi_circle takes e^{-m/2} exp(-(i/2 pi) sum_s s_s
    # Log(1 - z e^{-i t_s})), one seam log per point, with no _closed_q:
    # against exp(-Q/2) of _closed_q at levels between the piece values,
    # 1e-6 from each of them and past the range, one level at a time and
    # all at once; and singular's eigenfunctions on the circle against the
    # closed form, to 1e-13 but for the rounding of the sample points, which
    # (1 - z/z_k)^(-1/2 -+ i sigma) magnifies by |1/2 + i sigma|/(1 - r),
    # with sigma up to 2.2 at 1e-6 from the range's ends
    rng = np.random.default_rng(2815)
    radii = (0.5, 0.9, 0.99, 0.999, hardy.CIRCLE_R_MAX)
    cases = []
    for sym in [singular, singular_asym] + constant_piece_symbols(rng, 12):
        values = sorted({piece.poly.a[0] for piece in sym.pieces})
        lams = np.array([0.5 * (a + b) for a, b in zip(values, values[1:])]
                        + [v + s * 1e-6 for v in values for s in (-1.0, 1.0)]
                        + [values[0] - 0.3, values[-1] + 0.3])
        for r in radii:
            z = r * np.exp(2j * math.pi * np.arange(512) / 512)
            want = np.array([np.exp(-0.5 * hardy._closed_q(hardy._level_factors(sym, lam), z))
                             for lam in lams])
            cases.append((sym, lams, r, want))
    frames = [(sym, t1, t2, spectral_frame(sym, np.array([1e-6, 0.1, 0.5, 0.9, 1.0 - 1e-6])))
              for sym, t1, t2 in ((singular, 0.0, math.pi), (singular_asym, 0.7, 2.9))]
    monkeypatch.setattr(hardy, "_closed_q", lambda *args: pytest.fail("exp(-Q/2) served"))
    for sym, lams, r, want in cases:
        assert np.max(np.abs(xi_circle(sym, lams, r, 512) / want - 1.0)) <= 1e-13
        for lam, row in zip(lams, want):
            assert np.max(np.abs(xi_circle(sym, lam, r, 512) / row - 1.0)) <= 1e-13
    for sym, t1, t2, frame in frames:
        for r in radii:
            z = r * np.exp(2j * math.pi * np.arange(512) / 512)
            got = frame.eigen_circle(r, 512)[:, 0]
            want = np.array([singular_phi_closed(z, lam, t1, t2) for lam in frame.lam])
            assert np.max(np.abs(got / want - 1.0)) <= max(1e-13, 6e-16 / (1.0 - r))


def test_closed_forms_refuse_a_value_that_is_not_finite(regular):
    # a doctored one-piece record with 1 - beta z = 0 at z = 0.5: the
    # product of roots raises the QuadratureError that exp(-Q/2) raises
    factors = hardy._level_factors(regular, 0.3)
    a, b, const, _, _ = factors.pieces[0]
    beta = np.array([2.0, 0.1 + 0j])
    bad = dataclasses.replace(factors, pieces=((a, b, const, beta, np.conj(beta)),))
    with np.errstate(all="ignore"):
        for evaluate, name in ((hardy._closed_xi, "xi"), (hardy._closed_q, "Q")):
            with pytest.raises(QuadratureError, match=f"closed-form {name} is not finite"):
                evaluate(bad, np.array([0.2, 0.5 + 0j]))


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
    c = coefficients_c(arcs)
    assert c[0] == pytest.approx(1.0 / math.pi, abs=1e-13)
    assert math.sqrt(c[0]) == pytest.approx(1.0 / math.sqrt(math.pi), abs=1e-13)


def test_coefficients_general_single_arc(singular_asym):
    # rho = sqrt(|beta - alpha| / 2 pi) when there is one arc
    arcs = sublevel_set(singular_asym, 0.5).arcs
    c = coefficients_c(arcs)
    chord = abs(np.exp(1j * arcs[0].beta) - np.exp(1j * arcs[0].alpha))
    assert math.sqrt(c[0]) == pytest.approx(math.sqrt(chord / TWO_PI), abs=1e-13)


def test_coefficients_symmetric_arcs(cos2_symbol):
    arcs = sublevel_set(cos2_symbol, 0.0).arcs
    c = coefficients_c(arcs)
    assert len(c) == 2
    assert c[0] == pytest.approx(c[1], abs=1e-13)


def test_coefficients_sum_rule(regular, fig2, cos2_symbol):
    # sum of coefficients equals sin(pi m)/pi: the L constant balances
    for sym, lam in ((regular, 0.25), (fig2, 0.2), (cos2_symbol, -0.3)):
        arcs = sublevel_set(sym, lam).arcs
        c = coefficients_c(arcs)
        assert sum(c) == pytest.approx(math.sin(math.pi * hardy.arcs_measure(arcs)) / math.pi, abs=1e-12)


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
    # the panels refined toward theta put a quadrature node on it in
    # floating point, where the panel reference takes the integrand's limit;
    # it and the closed form both match the exact value
    rule = hardy.log_rule(regular, lam, extra=(theta,)).rule
    assert np.any(rule.theta == theta)
    val = boundary_xi(regular, theta, lam, side)
    want = regular_xi_closed(np.exp(1j * theta), lam)
    if side == "-":
        want *= abs(math.cos(theta) - lam)
    assert np.isfinite(val)
    assert abs(val - want) < 1e-8 * abs(want)
    sigma = want / abs(want)
    assert abs(reference_boundary_sigma(regular, theta, lam) - sigma) < 1e-10
    assert abs(boundary_sigma(regular, theta, lam) - sigma) < 1e-13


def test_log_rule_breaks_at_every_interior_extremum():
    # a case of test_boundary_values_on_random_symbols (seed 1717): at an
    # in-range level, ln|omega - lam| dips next to an interior extremum
    # where no crossing or seam breaks a panel.  A rule without a
    # breakpoint there agreed with itself at both depths, and the principal
    # value built on it was 1.25e-2 off
    poly = TrigPoly([0.262546558959241, 0.05170838880170987, 0.28336221648439786],
                    [-0.3222578652558979, -0.9925329274977767])
    sym = PiecewiseSymbol([(2.680447952580021, 5.068410688869001, poly),
                           (5.068410688869001, 8.963633259759607, poly)])
    lam = 1.0659361232675237
    extrema = {t for t, _ in levelset.exceptional_set(sym).critical_points}
    assert extrema <= set(hardy.log_rule(sym, lam).rule.breakpoints)
    for theta in (2.7950038560131722, 2.8279280029890748, 3.3976850726028562, 5.82427221918621):
        sigma = boundary_sigma(sym, theta, lam)
        assert abs(reference_boundary_sigma(sym, theta, lam) - sigma) <= 1e-10


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


def test_boundary_xi_tests_the_jump_set_once_and_evaluates_once(monkeypatch, fig2):
    # one call tests its angle against the jump set once and evaluates the
    # symbol there once, for sigma and the modulus alike
    boundary_xi(fig2, 0.4, 0.3, "+")     # the level's record and the symbol's data
    calls = []
    for name in ("_is_jump_angle", "values"):
        real = getattr(PiecewiseSymbol, name)
        monkeypatch.setattr(PiecewiseSymbol, name, lambda self, t, real=real, name=name:
                            calls.append(name) or real(self, t))
    for side in ("+", "-"):
        calls.clear()
        boundary_xi(fig2, 0.4, 0.3, side)
        assert sorted(calls) == ["_is_jump_angle", "values"]


def test_boundary_rejects_bad_points(regular, singular):
    with pytest.raises(ValueError, match="undefined"):
        boundary_xi(singular, 0.0, 0.5, "+")
    with pytest.raises(ValueError, match="undefined"):
        boundary_xi(regular, math.acos(0.3), 0.3, "+")
    with pytest.raises(ValueError, match="side"):
        boundary_xi(regular, 1.0, 0.3, "0")
    for lam in (math.nan, 0.3 + 0.1j):
        with pytest.raises(ValueError, match="level"):
            boundary_sigma(regular, 1.0, lam)
    for theta in (math.inf, -math.inf, math.nan):
        for side in ("+", "-"):
            with pytest.raises(ValueError, match="angle .* is not finite"):
                boundary_xi(regular, theta, 0.1, side)
        with pytest.raises(ValueError, match="angle .* is not finite"):
            boundary_sigma(singular, theta, 0.5)


def test_phase_refuses_points_that_are_not_finite(fig2):
    arcs = sublevel_set(fig2, 0.25).arcs
    for z in (math.nan, math.inf, complex(math.nan, 0.2), complex(0.1, -math.inf)):
        with pytest.raises(ValueError, match="not finite"):
            phase_A_integral(arcs, z)
        with pytest.raises(ValueError, match="interior"):
            phase_A_closed(arcs, np.array([0.2, z]))


def _trig_q_plus(theta, lam, k):
    """Q+ of cos(k theta) inside its range: Log(w (cos k theta - lam)),
    w = e^{ik theta}, since 1 - 2 lam w + w^2 = 2 w (cos k theta - lam) on
    the circle and each of its two root factors has argument within pi/2."""
    return np.log(np.exp(1j * k * theta) * (np.cos(k * theta) - lam))


def _arc_q_plus(theta, lam, t1, t2):
    """Q+ of the indicator of the arc (t1, t2): ln|omega - lam| plus i J/pi
    ln|sin((theta - t1)/2) / sin((theta - t2)/2)|, J the jump of the log
    weight at t1."""
    inside = (theta - t1) % TWO_PI < (t2 - t1) % TWO_PI
    jump = math.log(abs(1.0 - lam)) - math.log(abs(lam))
    sines = np.abs(np.sin(0.5 * (theta - t1)) / np.sin(0.5 * (theta - t2)))
    return np.where(inside, math.log(abs(1.0 - lam)), math.log(abs(lam))) + 1j * jump / math.pi * np.log(sines)


def _exact_cases(regular, singular, singular_asym, cos2_symbol):
    """(symbol, exact Q+, levels, singular angles at each level)."""
    def bad(sym, lam):
        g1, g2 = sym.essential_range()
        found = reference_crossings(sym, lam) if g1 < lam < g2 else np.empty(0)
        return np.concatenate((found, [j.theta for j in sym.jumps]))

    cases = [(regular, lambda t, lam: _trig_q_plus(t, lam, 1), (-0.95, -0.4, 0.0, 0.37, 0.9)),
             (cos2_symbol, lambda t, lam: _trig_q_plus(t, lam, 2), (-0.8, 0.1, 0.6)),
             (singular, lambda t, lam: _arc_q_plus(t, lam, 0.0, math.pi), (-0.3, 0.2, 0.8, 1.4)),
             # 1e-6 from a jump's one-sided value the log weight jumps by 13.8
             (singular_asym, lambda t, lam: _arc_q_plus(t, lam, 0.7, 2.9),
              (-0.3, 1e-6, 0.2, 0.8, 1.0 - 1e-6, 1.4))]
    return [(sym, exact, lam, bad(sym, lam)) for sym, exact, lams in cases for lam in lams]


def _angle_gap(theta, angles):
    return np.min(np.abs((theta - np.asarray(angles) + math.pi) % TWO_PI - math.pi), initial=math.inf)


def test_boundary_values_match_exact_forms(monkeypatch, regular, singular, singular_asym,
                                          cos2_symbol):
    # at least 1e-3 from every crossing and jump; the closed form builds no
    # panel rule
    builds = []
    monkeypatch.setattr(CircleRule, "__init__", lambda *args: builds.append(args))
    rng = np.random.default_rng(83)
    for sym, exact, lam, bad in _exact_cases(regular, singular, singular_asym, cos2_symbol):
        for theta in rng.uniform(0.0, TWO_PI, 40):
            if _angle_gap(theta, bad) < 1e-3:
                continue
            q = exact(theta, lam)
            assert abs(boundary_sigma(sym, theta, lam) - np.exp(-0.5j * q.imag)) <= 1e-13
            xp, xm = boundary_xi(sym, theta, lam, "+"), boundary_xi(sym, theta, lam, "-")
            assert abs(xp / np.exp(-0.5 * q) - 1.0) <= 1e-13
            assert abs(xm / (np.exp(-0.5 * q) * abs(sym.eval(theta) - lam)) - 1.0) <= 1e-13
    assert not builds


def test_boundary_values_match_the_panel_reference(regular, singular, singular_asym, fig2,
                                                   cos2_symbol):
    rng = np.random.default_rng(89)
    for sym in (regular, singular, singular_asym, fig2, cos2_symbol):
        g1, g2 = sym.essential_range()
        for frac in (-0.3, 0.07, 0.31, 0.52, 0.77, 0.96, 1.4):
            lam = g1 + frac * (g2 - g1)
            bad = np.concatenate((hardy._level_factors(sym, lam).crossings,
                                  [j.theta for j in sym.jumps]))
            for theta in rng.uniform(0.0, TWO_PI, 6):
                if _angle_gap(theta, bad) >= 1e-3:
                    ref = reference_boundary_sigma(sym, theta, lam)
                    assert abs(boundary_sigma(sym, theta, lam) - ref) <= 1e-10


@pytest.mark.parametrize("side", [1.0, -1.0])
def test_boundary_values_next_to_crossings_and_jumps(side, regular, singular, singular_asym,
                                                     cos2_symbol):
    # 1e-3 to 1e-12 from a crossing or jump: within 1e-10 of the exact value,
    # or a QuadratureError carrying an estimate above DEFAULT_TOL; the
    # nearest points raise, and within ANGLE_TOL of a jump it is a jump angle
    for sym, exact, lam, bad in _exact_cases(regular, singular, singular_asym, cos2_symbol):
        for t0 in bad:
            for d in 10.0 ** -np.arange(3.0, 12.5, 0.5):
                theta = (t0 + side * d) % TWO_PI
                if sym._is_jump_angle(theta):
                    with pytest.raises(ValueError, match="jump angle"):
                        boundary_sigma(sym, theta, lam)
                    continue
                try:
                    sigma = boundary_sigma(sym, theta, lam)
                except QuadratureError as err:
                    assert hardy.DEFAULT_TOL < err.achieved_tol < math.inf
                    continue
                assert d > 1e-8
                assert abs(sigma - np.exp(-0.5j * exact(theta, lam).imag)) <= 1e-10


def test_boundary_values_just_past_the_range(regular):
    # past an extremum two roots nearly meet off the circle, and their error,
    # well above eps, is what the estimate must carry; the exact Q+ of
    # cos theta at |lam| > 1 is -log(2b) + 2 Log(1 - s b z), b = 1/(|lam| +
    # sqrt(lam^2 - 1)) with lam^2 - 1 taken as (|lam| - 1)(|lam| + 1)
    for lam in (1.0 + 2e-9, 1.0 + 1e-8, -1.0 - 1e-7, 1.0 + 1e-5, 1.0 + 1e-12, -1.0 - 5e-10):
        s = math.copysign(1.0, lam)
        b = 1.0 / (abs(lam) + math.sqrt((abs(lam) - 1.0) * (abs(lam) + 1.0)))
        raised = 0
        for d in np.concatenate((10.0 ** -np.arange(1.0, 9.5, 0.5), [0.0])):
            for theta in (0.0 if s > 0 else math.pi) + np.array([d, -d]):
                z = np.exp(1j * theta)
                want = np.exp(-0.5j * (2.0 * np.log(1.0 - s * b * z)).imag)
                try:
                    assert abs(boundary_sigma(regular, theta, lam) - want) <= 1e-10
                except QuadratureError as err:
                    assert hardy.DEFAULT_TOL < err.achieved_tol
                    raised += 1
        assert raised if lam < 1.0 + 1e-6 else not raised


def test_boundary_values_across_a_continuous_seam(fig2):
    # fig2's pieces meet at angle 0 with equal values and slopes, the last
    # piece's end stored as the first piece's start; on the seam the two
    # pieces' log(1 - z) terms are dropped
    for lam in (-1.5, -0.5, 0.2, 0.7, 1.5):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            on = boundary_sigma(fig2, 0.0, lam)
        for d in (1e-12, 1e-9):
            plus, minus = boundary_sigma(fig2, d, lam), boundary_sigma(fig2, -d, lam)
            assert abs(0.5 * (plus + minus) - on) <= 1e-12
            if d == 1e-12:
                assert max(abs(plus - on), abs(minus - on)) <= 1e-12
            for theta, got in ((d, plus), (-d, minus)):
                assert abs(got - reference_boundary_sigma(fig2, theta, lam)) <= 1e-10
        assert abs(on - reference_boundary_sigma(fig2, 0.0, lam)) <= 1e-10


def test_boundary_values_at_the_seams_of_a_split_symbol():
    # cos theta as two pieces meeting at 1 and 4, against its exact form
    split = PiecewiseSymbol([(1.0, 4.0, TrigPoly([0.0, 1.0])),
                             (4.0, 1.0 + TWO_PI, TrigPoly([0.0, 1.0]))])
    for lam in (-0.6, 0.1, 0.45):
        for seam in (1.0, 4.0):
            for theta in seam + np.array([0.0, 1e-12, -1e-12, 1e-9, -1e-9]):
                q = _trig_q_plus(theta, lam, 1)
                assert abs(boundary_sigma(split, theta, lam) - np.exp(-0.5j * q.imag)) <= 1e-13


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
