"""End-to-end property net over randomly generated piecewise symbols:
level-set assembly, counting consistency, coefficient sum rule, density
two-form agreement, Stone recovery, the boundary relation, and the boundary
values of xi."""

import math

import numpy as np
import pytest

from conftest import random_symbol as wide_symbol
from conftest import reference_boundary_sigma, value_gap
from toepspec import hardy, levelset, spectral
from toepspec.errors import ExceptionalLevelError, QuadratureError, ToepspecError
from toepspec.symbol import PiecewiseSymbol, TrigPoly

TWO_PI = 2.0 * math.pi


def random_symbol(rng) -> PiecewiseSymbol:
    n_pieces = int(rng.integers(2, 5))
    cuts = np.sort(rng.uniform(0.0, TWO_PI, size=n_pieces))
    while np.min(np.diff(np.concatenate((cuts, [cuts[0] + TWO_PI])))) < 0.4:
        cuts = np.sort(rng.uniform(0.0, TWO_PI, size=n_pieces))
    pieces = []
    for i in range(n_pieces):
        start = cuts[i]
        end = cuts[i + 1] if i + 1 < n_pieces else cuts[0] + TWO_PI
        deg = int(rng.integers(0, 3))
        a = rng.uniform(-1.0, 1.0, size=deg + 1)
        b = rng.uniform(-1.0, 1.0, size=deg)
        pieces.append((start, end, TrigPoly(a, b)))
    return PiecewiseSymbol(pieces)


def admissible_levels(sym, width_min=0.05):
    for a, b in levelset.admissible_intervals(sym):
        if b - a >= width_min:
            yield 0.5 * (a + b)


def test_fourier_coefficients_match_quadrature(rng):
    # per-piece Gauss-Legendre: exact for trig integrands, unlike a uniform
    # trapezoid across the jumps
    nodes, weights = np.polynomial.legendre.leggauss(64)
    for _ in range(5):
        sym = random_symbol(rng)
        for n in (0, 1, 5, 11):
            ref = 0.0 + 0.0j
            for piece in sym.pieces:
                half = 0.5 * (piece.theta_end - piece.theta_start)
                mid = 0.5 * (piece.theta_end + piece.theta_start)
                t = mid + half * nodes
                ref += half * np.sum(weights * piece.poly(t) * np.exp(-1j * n * t))
            ref /= TWO_PI
            assert abs(sym.fourier_coefficient(n) - ref) < 1e-13


def test_wraparound_piece_construction():
    sym = PiecewiseSymbol([
        (1.5 * math.pi, 2.0 * math.pi + 0.5 * math.pi, TrigPoly([1.0, 0.2])),
        (0.5 * math.pi, 1.5 * math.pi, TrigPoly([-0.4])),
    ])
    assert sym.eval(0.0) == pytest.approx(1.2)
    assert sym.eval(math.pi) == pytest.approx(-0.4)
    assert len(sym.jumps) == 2


def test_random_symbols_full_pipeline(rng):
    tested_levels = 0
    for _ in range(6):
        sym = random_symbol(rng)
        for lam in admissible_levels(sym):
            try:
                frame = spectral.spectral_frame(sym, lam)
            except ExceptionalLevelError:
                continue
            tested_levels += 1
            # coefficient sum rule
            assert sum(frame.c) == pytest.approx(
                math.sin(math.pi * frame.level.measure) / math.pi, abs=1e-10
            )
            assert 0.0 < frame.level.measure < 1.0
            # two-form density agreement and positivity
            u = rng.uniform(0, 0.8) * np.exp(1j * rng.uniform(0, TWO_PI))
            v = rng.uniform(0, 0.8) * np.exp(1j * rng.uniform(0, TWO_PI))
            el, sine = frame.density_pair(u, v)
            assert abs(el - sine) < 1e-9 * max(1.0, abs(el))
            assert frame.density(u, u).real > 0.0
            # Stone recovery of the density; random symbols can put the level
            # near exceptional values where the density curves sharply, so
            # the extrapolation starts from a smaller offset than the presets
            s = spectral.stone_density(sym, u, v, lam, eps=5e-3)
            assert abs(s - el) < 1e-4 * max(1.0, abs(el))
            # L forms agree on this arc system
            assert hardy.L_check(frame.level.arcs, n_samples=25) < 1e-11
            # boundary relation decays along a safe ray
            for theta in rng.uniform(0, TWO_PI, size=12):
                try:
                    res = [spectral.rh_residual(frame, 1, float(theta), d)
                           for d in (1e-2, 5e-3)]
                except ValueError:
                    continue
                assert res[1] < res[0] * 0.75
                break
    assert tested_levels >= 6


def split_symbol(rng):
    """A random symbol of 1-6 pieces of degree up to 6, whose last piece
    wraps past 2 pi, and the same symbol with one piece split in two at a
    random inner angle: a seam where the symbol is smooth.  Returns both and
    the seam's angle."""
    whole = wide_symbol(rng)
    i = int(rng.integers(len(whole.pieces)))
    pieces = [(p.theta_start, p.theta_end, p.poly) for p in whole.pieces]
    a, b, poly = pieces.pop(i)
    cut = a + (b - a) * rng.uniform(0.05, 0.95)
    split = PiecewiseSymbol(pieces + [(a, cut, poly), (cut, b, poly)])
    return whole, split, cut % TWO_PI


def boundary_case(sym, theta, lam):
    """sigma at (theta, lam), read off the two one-sided values after their
    identities are checked, or None for a typed error; a ValueError only at
    a jump angle or where omega = lam."""
    try:
        xp, xm = (hardy.boundary_xi(sym, theta, lam, side) for side in "+-")
    except ToepspecError:
        return None
    except ValueError:
        assert sym._is_jump_angle(theta % TWO_PI) or abs(sym.eval(theta) - lam) <= 1e-13
        return None
    mod = abs(sym.eval(theta) - lam)
    assert np.isfinite(xp) and abs(abs(xp) ** 2 * mod - 1.0) <= 1e-12
    assert abs(xm - mod * xp) <= 1e-12 * abs(xm)
    return xp / abs(xp)


def test_boundary_values_on_random_symbols():
    # levels across and past the range, at its ends and next to exceptional
    # values; angles at random, next to a crossing and on and next to a
    # smooth seam.  Each case gives values that meet their identities, and
    # the panel reference wherever it converges at least 1e-3 from every
    # crossing and jump, or a typed error
    rng = np.random.default_rng(1717)
    compared = 0
    for _ in range(14):
        whole, sym, seam = split_symbol(rng)
        g1, g2 = sym.essential_range()
        values = levelset.exceptional_set(sym).values
        near = float(rng.choice(values)) + rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-8.5, -4.0)
        levels = [*rng.uniform(g1 - 0.3 * (g2 - g1), g2 + 0.3 * (g2 - g1), 3), g1, g2, near]
        jumps = [j.theta for j in sym.jumps if j.kind != "zero"]
        for lam in map(float, levels):
            try:
                crossings = hardy._level_factors(sym, lam).crossings
            except ToepspecError:
                continue
            for theta in rng.uniform(0.0, TWO_PI, 4):
                sigma = boundary_case(sym, theta, lam)
                gap = np.abs((theta - np.concatenate((crossings, jumps)) + math.pi) % TWO_PI - math.pi)
                if sigma is None or np.min(gap, initial=math.inf) < 1e-3:
                    continue
                try:
                    ref = reference_boundary_sigma(sym, theta, lam)
                except QuadratureError:
                    continue
                assert abs(sigma - ref) <= 1e-10
                compared += 1
            for d in (1e-3, 1e-6, 1e-9, 1e-12):
                for t0 in crossings[:1]:
                    boundary_case(sym, t0 + d, lam)
                    boundary_case(sym, t0 - d, lam)
            for theta in seam + np.array([0.0, 1e-12, -1e-12]):
                got = boundary_case(sym, theta, lam)
                want = boundary_case(whole, theta, lam)
                if got is not None and want is not None:
                    assert abs(got - want) <= 1e-12
    assert compared >= 200



def circle_symbols(rng):
    """Two seeded random symbols, whose seams have slope jumps, then fig2,
    cos t + 0.6 cos 3t cut at 2, cos t cut at 1 and 4, and |sin t| as two
    pieces, with slope jumps at 0 and pi."""
    cos1, cos3 = TrigPoly([0.0, 1.0]), TrigPoly([0.0, 1.0, 0.0, 0.6])
    named = [
        PiecewiseSymbol([(0.0, math.pi, TrigPoly([0.0, 0.0, -1.0])),
                         (math.pi, 1.5 * math.pi, TrigPoly([1.0])),
                         (1.5 * math.pi, TWO_PI, TrigPoly([-1.0]))], name="fig2"),
        PiecewiseSymbol([(0.0, 2.0, cos3), (2.0, TWO_PI, cos3)], name="cos3-cut"),
        PiecewiseSymbol([(1.0, 4.0, cos1), (4.0, 1.0 + TWO_PI, cos1)], name="regular-cut"),
        PiecewiseSymbol([(0.0, math.pi, TrigPoly([0.0], [1.0])),
                         (math.pi, TWO_PI, TrigPoly([0.0], [-1.0]))], name="abs-sin"),
    ]
    return [wide_symbol(rng) for _ in range(2)] + named


def test_circle_values_on_random_symbols(monkeypatch):
    # xi_circle, and the xi inside eigen_circle, against xi_grid at levels
    # across the range, 1e-2 to 1e-8 on both sides of every exceptional
    # value and 1e-12 and 1e-9 past the range, at radii up to CIRCLE_R_MAX
    # with 512 points: to 1e-10 where the closed form serves or the level
    # lies at least 1e-3 from the exceptional set, to 5e-10 on the Fourier
    # route closer in.  A typed error only within GUARD of an exceptional
    # value.  For time, a random symbol takes 2 of its exceptional values
    # and one radius per level, eigen_circle one radius per level, and
    # xi_grid every 4th point
    m_out, radii = 512, (0.5, 0.9, 0.99, 0.999, hardy.CIRCLE_R_MAX)
    circle = np.exp(2j * math.pi * np.arange(m_out) / m_out)
    fourier, closed = [], []
    log_fourier, closed_q = hardy.log_fourier, hardy._closed_q
    monkeypatch.setattr(hardy, "log_fourier",
                        lambda sym, lam, grid=hardy.LOG_FOURIER_GRID: fourier.append(lam)
                        or log_fourier(sym, lam, grid))
    monkeypatch.setattr(hardy, "_closed_q", lambda *args: closed.append(1) or closed_q(*args))
    rng = np.random.default_rng(1818)
    fig2_fast = 0
    for sym in circle_symbols(rng):
        g1, g2 = sym.essential_range()
        exc = levelset.exceptional_set(sym)
        values = [v for i, v in enumerate(exc.values) if i == 0 or v - exc.values[i - 1] > 1e-12]
        if sym.name is None:
            values = rng.choice(values, 2, replace=False)
        levels = list(np.linspace(g1, g2, 7)[1:-1]) + [g1 - 1e-12, g1 - 1e-9, g2 + 1e-9, g2 + 1e-12]
        levels += [v + s * 10.0 ** -k for v in values for s in (-1.0, 1.0) for k in range(2, 9)]
        for j, lam in enumerate(map(float, levels)):
            dist = value_gap(exc, lam)
            rs = radii if sym.name else radii[j % len(radii):][:1]
            want = hardy.xi_grid(sym, np.multiply.outer(rs, circle[::4]), lam)
            for r, ref in zip(rs, want):
                fourier.clear()
                closed.clear()
                try:
                    got = hardy.xi_circle(sym, lam, r, m_out)
                except ToepspecError:
                    assert dist < levelset.GUARD and g1 <= lam <= g2
                    continue
                fast = bool(fourier) and not closed
                tol = 5e-10 if fast and dist < 1e-3 else 1e-10
                assert np.max(np.abs(got[::4] / ref - 1.0)) <= tol
                fig2_fast += sym.name == "fig2" and fast and dist >= 1e-3 and r <= 0.99
            if not g1 < lam < g2 or dist < levelset.GUARD:
                continue
            r = radii[j % len(radii)]
            frame = spectral.spectral_frame(sym, lam)
            got = frame.eigen_circle(r, m_out)[:, ::4] / frame._branches(r * circle[::4], 1.0)
            want = hardy.xi_grid(sym, r * circle[::4], lam)
            assert np.max(np.abs(got / want - 1.0)) <= (5e-10 if dist < 1e-3 else 1e-10)
    # the Fourier route still serves fig2 away from its exceptional values,
    # at the interior levels and 1e-2 from them, up to r = 0.99
    assert fig2_fast >= 20
