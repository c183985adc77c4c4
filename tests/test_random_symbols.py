"""End-to-end property net over randomly generated piecewise symbols:
level-set assembly, counting consistency, coefficient sum rule, density
two-form agreement, Stone recovery, and the boundary relation."""

import math

import numpy as np
import pytest

from toepspec import hardy, levelset, spectral
from toepspec.errors import ExceptionalLevelError
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
