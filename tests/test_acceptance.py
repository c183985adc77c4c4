"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete.  The finite sections at N = 4096 are shared session-wide.
"""

import math
import time

import numpy as np
import pytest

from conftest import (
    chebyshev_U,
    regular_xi_closed,
    singular_phi_closed,
    singular_phi_ext_closed,
)
from toepspec import diagonal, hardy, kernels, levelset, oracle, spectral
from toepspec.diagonal import FrameFamily, HardyVector

TWO_PI = 2.0 * math.pi


def report(num: int, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {num:02d} {status}: {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


@pytest.fixture(scope="session")
def sections(regular, singular):
    """Finite sections for both presets, all ladder sizes."""
    out = {}
    for name, sym in (("regular", regular), ("singular", singular)):
        for n in (512, 1024, 2048, 4096):
            out[name, n] = oracle.build_section(sym, n)
    return out


def test_c01_regular_density_matches_chebyshev(regular):
    start = time.monotonic()
    worst = 0.0
    for lam in (-0.8, -0.3, 0.0, 0.3, 0.8):
        frame = spectral.spectral_frame(regular, lam)
        gram = frame.density_taylor(5)
        scale = (2.0 / math.pi) * math.sqrt(1.0 - lam * lam)
        for n in range(6):
            for m in range(6):
                ref = scale * chebyshev_U(n, lam) * chebyshev_U(m, lam)
                # entries where a Chebyshev factor vanishes exactly are
                # compared on the matrix scale instead
                denom = abs(ref) if abs(ref) > 1e-9 * scale else scale
                worst = max(worst, abs(gram[n, m] - ref) / denom)
    elapsed = time.monotonic() - start
    report(1, worst <= 1e-6 and elapsed < 60.0,
           f"max rel err {worst:.2e} (tol 1e-6), runtime {elapsed:.1f}s (< 60s)")


def test_c02_regular_xi_closed_form(regular, rng):
    worst = 0.0
    for _ in range(100):
        lam = rng.uniform(-0.9, 0.9)
        z = rng.uniform(0.0, 0.9) * np.exp(1j * rng.uniform(0, TWO_PI))
        worst = max(worst, abs(hardy.xi(regular, z, lam) - regular_xi_closed(z, lam)))
    report(2, worst <= 1e-8, f"max err {worst:.2e} over 100 samples (tol 1e-8)")


def test_c03_singular_eigenfunctions(singular, rng):
    worst_in = worst_out = 0.0
    for lam in (0.2, 0.5, 0.8):
        frame = spectral.spectral_frame(singular, lam)
        for _ in range(100):
            z = rng.uniform(0.0, 0.9) * np.exp(1j * rng.uniform(0, TWO_PI))
            worst_in = max(worst_in, abs(frame.eigenfunction(1, z) - singular_phi_closed(z, lam)))
            w = rng.uniform(1.05, 4.0) * np.exp(1j * rng.uniform(0, TWO_PI))
            worst_out = max(worst_out, abs(frame.eigenfunction_ext(1, w) - singular_phi_ext_closed(w, lam)))
    report(3, worst_in <= 1e-8 and worst_out <= 1e-8,
           f"interior err {worst_in:.2e}, exterior err {worst_out:.2e} (tol 1e-8)")


def test_c04_multiplicity_theorem(regular, singular, fig2):
    rep_r = levelset.counting_report(regular, (-0.5, 0.5))
    rep_s = levelset.counting_report(singular, (0.2, 0.8))
    rep_f = levelset.counting_report(fig2, (-0.5, 0.5))
    balanced = all(r.n_plus + r.s_plus == r.n_minus + r.s_minus for r in (rep_r, rep_s, rep_f))
    ok = rep_r.m == 1 and rep_s.m == 1 and rep_f.m == 2 and balanced
    report(4, ok, f"m(regular)={rep_r.m}, m(singular)={rep_s.m}, m(composite)={rep_f.m}, "
                  f"orientation sums balanced={balanced}")


def test_c05_density_two_forms_and_gram(regular, singular, fig2, rng):
    worst = 0.0
    rank_ok = True
    for sym, lams in ((regular, (-0.6, 0.0, 0.5)), (singular, (0.3, 0.7)), (fig2, (0.15,))):
        for lam in lams:
            frame = spectral.spectral_frame(sym, lam)
            for _ in range(20):
                u = rng.uniform(0, 0.9) * np.exp(1j * rng.uniform(0, TWO_PI))
                v = rng.uniform(0, 0.9) * np.exp(1j * rng.uniform(0, TWO_PI))
                el, sine = frame.density_pair(u, v)
                worst = max(worst, abs(el - sine))
            pts = np.array([rng.uniform(0, 0.85) * np.exp(1j * rng.uniform(0, TWO_PI))
                            for _ in range(20)])
            gram = frame.density(pts[:, None], pts[None, :])
            herm = np.max(np.abs(gram - gram.conj().T))
            eig = np.linalg.eigvalsh(gram)
            psd = eig[0] > -1e-10 * max(eig[-1], 1.0)
            rank = int(np.sum(eig > 1e-10 * eig[-1]))
            rank_ok = rank_ok and herm < 1e-12 and psd and rank <= frame.m
    report(5, worst <= 1e-8 and rank_ok,
           f"max two-form gap {worst:.2e} (tol 1e-8), Hermitian/PSD rank<=m: {rank_ok}")


def test_c06_stone_consistency(regular, singular):
    worst = 0.0
    u = 0.2 + 0.1j
    for sym, (a, b) in ((regular, (-0.85, 0.85)), (singular, (0.1, 0.9))):
        for lam in np.linspace(a, b, 10):
            frame = spectral.spectral_frame(sym, float(lam))
            d = frame.density(u, u)
            s = spectral.stone_density(sym, u, u, float(lam))
            worst = max(worst, abs(s - d) / abs(d))
    report(6, worst <= 1e-4, f"max rel err {worst:.2e} over 10 levels per preset (tol 1e-4)")


def test_c07_riemann_hilbert_residual(regular, singular, fig2):
    deltas = (1e-2, 5e-3, 2.5e-3)
    worst_ratio = 0.0
    cases = ((regular, 0.0), (singular, 0.5), (fig2, 0.2))
    for sym, lam in cases:
        frame = spectral.spectral_frame(sym, lam)
        angles = []
        for theta in np.linspace(0.1, TWO_PI - 0.1, 60):
            if len(angles) == 8:
                break
            try:
                spectral.rh_residual(frame, 1, float(theta), 1e-2)
                angles.append(float(theta))
            except ValueError:
                continue
        assert len(angles) == 8
        for theta in angles:
            for j in range(1, frame.m + 1):
                res = [spectral.rh_residual(frame, j, theta, d) for d in deltas]
                for k in range(2):
                    worst_ratio = max(worst_ratio, res[k + 1] / res[k])
    report(7, worst_ratio <= 0.75,
           f"max residual ratio per halving {worst_ratio:.3f} (tol 0.75), presets + composite")


def test_c08_oracle_agreement(regular, singular, sections):
    start = time.monotonic()
    sizes = (512, 1024, 2048, 4096)
    ok = True
    details = []
    for name, sym, iv in (("regular", regular, (-0.6, 0.6)), ("singular", singular, (0.15, 0.85))):
        g = oracle.smooth_bump(iv[0] + 0.1 * (iv[1] - iv[0]), iv[1] - 0.1 * (iv[1] - iv[0]))
        pairs = ((0.0, 0.0), (0.3 + 0.2j, -0.1 + 0.4j))
        for u, v in pairs:
            analytic = spectral.weak_measure(sym, iv, u, v, g)
            errs = [abs(oracle.oracle_weak_measure(sections[name, n], u, v, g) - analytic)
                    for n in sizes]
            # envelope comparison: section errors for jump symbols oscillate
            # through zero while shrinking, so the trend skips one rung
            trend = (errs[-1] <= errs[0] + 1e-9
                     and all(errs[i + 2] <= errs[i] + 1e-9 for i in range(len(errs) - 2)))
            ok = ok and errs[-1] <= 5e-3 and trend
            details.append(f"{name}({u:.1f},{v:.1f}): final {errs[-1]:.1e} trend {trend}")
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 600.0
    report(8, ok, "; ".join(details) + f"; compare runtime {elapsed:.0f}s (< 600s)")


def test_c09_limiting_absorption(regular, singular, rng):
    eps_list = (1e-1, 1e-2, 1e-3, 1e-4)
    nodes, wts = np.polynomial.legendre.leggauss(96)
    ok = True
    worst_ratio = 0.0
    for sym, X in ((regular, (-0.8, 0.8)), (singular, (0.1, 0.9))):
        lams = 0.5 * (X[0] + X[1]) + 0.5 * (X[1] - X[0]) * nodes
        w = 0.5 * (X[1] - X[0]) * wts
        for _ in range(5):
            z = rng.uniform(0.0, 0.8) * np.exp(1j * rng.uniform(0, TWO_PI))
            bound = float(np.dot(w, [
                (abs(hardy.xi(sym, z, float(l))) ** 2 / (1.0 - abs(z) ** 2)) ** 1.5 for l in lams
            ]))
            for eps in eps_list:
                val = float(np.dot(w, [
                    abs(spectral.resolvent_form(sym, z, z, float(l) + 1j * eps)) ** 1.5
                    for l in lams
                ]))
                worst_ratio = max(worst_ratio, val / bound)
                ok = ok and val <= bound * (1.0 + 1e-6)
    report(9, ok, f"all resolvent-power integrals below the boundary-value constant; "
                  f"max ratio {worst_ratio:.6f} over eps in 1e-1..1e-4")


def test_c10_diagonalization(regular, singular, sections):
    ok = True
    details = []
    # weighted isometry and multiplication property against the section
    # oracle; smooth weights per the oracle design (sharp indicators converge
    # only logarithmically for the jump symbol)
    for name, sym, iv in (("regular", regular, (-0.5, 0.5)), ("singular", singular, (0.2, 0.8))):
        family = FrameFamily(sym, iv, n_grid=96)
        bump = oracle.smooth_bump(*iv)
        sec = sections[name, 4096]
        u, v = 0.3 + 0.1j, -0.2 + 0.25j
        F = diagonal.phi_map_family(family, HardyVector.of((1.0, u)))
        G = diagonal.phi_map_family(family, HardyVector.of((1.0, v)))
        bump_vals = np.array([bump(l) for l in family.lams])
        for q, label in ((lambda l: 1.0, "isometry"), (lambda l: l, "mult-q1"), (lambda l: l * l, "mult-q2")):
            qv = np.array([q(l) for l in family.lams])
            lhs = complex(np.sum((family.weights * bump_vals * qv)[:, None] * F * np.conj(G)))
            rhs = oracle.oracle_weak_measure(sec, u, v, lambda l: bump(l) * q(l))
            err = abs(lhs - rhs)
            ok = ok and err <= 5e-3
            details.append(f"{name} {label} err {err:.1e}")
    # smoothed-map convergence
    family = FrameFamily(regular, (-0.5, 0.5), n_grid=64)
    u = 0.3 + 0.1j
    zeta = np.exp(2j * math.pi * np.arange(512) / 512)
    boundary = 1.0 / (1.0 - np.conj(u) * zeta)
    target = diagonal.phi_map_family(family, HardyVector.of((1.0, u)))
    errs = [family.norm(diagonal.phi_r(family, boundary, r) - target) for r in (0.9, 0.99, 0.999)]
    decreasing = errs[0] > errs[1] > errs[2]
    ok = ok and decreasing
    details.append("phi_r errors " + ">".join(f"{e:.1e}" for e in errs))
    report(10, ok, "; ".join(details) + " (tol 5e-3, trend strict)")


def test_c11_identity_suite(regular, fig2, cos2_symbol, rng):
    worst = 0.0
    # Schwarz pair identity
    for _ in range(1000):
        z, u, v = (rng.uniform(0, 0.95) * np.exp(1j * rng.uniform(0, TWO_PI)) for _ in range(3))
        lhs = kernels.schwarz_H(np.conj(u) * z) + kernels.schwarz_H(v * np.conj(z))
        rhs = (2.0 * (1.0 - np.conj(u) * v * abs(z) ** 2)
               * kernels.reproducing_K(u, z) * np.conj(kernels.reproducing_K(v, z)))
        worst = max(worst, abs(lhs - rhs))
    # arc identities (margin keeps the distance-ratio identity conditioned)
    margin = 0.05
    for _ in range(1000):
        a = rng.uniform(0, TWO_PI)
        length = rng.uniform(margin, TWO_PI - 3 * margin)
        zeta = a + length + rng.uniform(margin, TWO_PI - length - 2 * margin)
        worst = max(worst, kernels.arc_identities(a, a + length, zeta))
    # L product vs pole-sum forms across several arc systems
    arc_sets = [levelset.sublevel_set(regular, la).arcs for la in (-0.5, 0.0, 0.6)]
    arc_sets += [levelset.sublevel_set(fig2, 0.2).arcs, levelset.sublevel_set(cos2_symbol, -0.3).arcs]
    for arcs in arc_sets:
        worst = max(worst, hardy.L_check(arcs, n_samples=200))
    # reproducing property on polynomials of degree <= 16
    grid = np.exp(2j * math.pi * np.arange(512) / 512)
    for _ in range(1000):
        deg = rng.integers(0, 17)
        coeffs = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
        u = rng.uniform(0, 0.9) * np.exp(1j * rng.uniform(0, TWO_PI))
        val = np.mean(np.polynomial.polynomial.polyval(grid, coeffs)
                      * np.conj(kernels.reproducing_K(u, grid)))
        worst = max(worst, abs(val - np.polynomial.polynomial.polyval(u, coeffs)))
    report(11, worst <= 1e-12, f"max residual {worst:.2e} across all identity families (tol 1e-12)")
