import math

import numpy as np
import pytest

from conftest import random_symbol
from toepspec.diagonal import (
    FrameFamily,
    HardyVector,
    intertwining_check,
    phi_adjoint,
    phi_adjoint_taylor,
    phi_map,
    phi_map_family,
    phi_on_taylor,
    phi_r,
    stone_projection,
)
from toepspec.hardy import CIRCLE_R_MAX
from toepspec.levelset import admissible_intervals
from toepspec.oracle import build_section
from toepspec.spectral import SpectralFrame, _taylor_points, spectral_frame, stone_density
from toepspec.symbol import DEFAULT_TOL

TWO_PI = 2.0 * math.pi


@pytest.fixture(scope="module")
def family(regular):
    return FrameFamily(regular, (-0.5, 0.5), n_grid=64)


def test_hardy_vector_validation():
    with pytest.raises(ValueError):
        HardyVector.of((1.0, 0.3), (2.0, 0.3))
    with pytest.raises(ValueError):
        HardyVector.of((1.0, 1.2))
    f = HardyVector.of((2.0, 0.3), (1j, -0.4j))
    w = 0.1 + 0.2j
    ref = 2.0 / (1.0 - 0.3 * w) + 1j / (1.0 - np.conj(-0.4j) * w)
    assert f(w) == pytest.approx(ref)


def test_phi_map_is_conjugated_eigenfunction(regular):
    fr = spectral_frame(regular, 0.0)
    z = 0.3 + 0.2j
    out = phi_map(fr, HardyVector.of((1.0, z)))
    assert out[0] == pytest.approx(np.conj(fr.eigenfunction(1, z)))
    assert phi_map(fr, HardyVector.of((1.0, 0.0)))[0] == pytest.approx(
        math.sqrt(2.0 / math.pi), abs=1e-11
    )


def test_phi_map_linearity(regular):
    fr = spectral_frame(regular, 0.2)
    z, w = 0.3 + 0.2j, -0.4
    a = phi_map(fr, HardyVector.of((1.0, z)))
    b = phi_map(fr, HardyVector.of((-1.0, z)))
    assert np.allclose(a + b, 0.0)
    ab = phi_map(fr, HardyVector.of((2.0, z), (0.5j, w)))
    assert ab[0] == pytest.approx(2.0 * a[0] + 0.5j * phi_map(fr, HardyVector.of((1.0, w)))[0])


def test_phi_adjoint_identity(family, rng):
    gvals = rng.normal(size=(len(family), family.m)) + 1j * rng.normal(size=(len(family), family.m))
    for z in (0.4 - 0.2j, 0.1 + 0.6j):
        lhs = complex(np.sum(
            family.weights[:, None] * gvals
            * np.conj(phi_map_family(family, HardyVector.of((1.0, z))))
        ))
        rhs = phi_adjoint(family, gvals, z)
        assert abs(lhs - rhs) < 1e-9


def test_phi_adjoint_zero(family):
    assert phi_adjoint(family, np.zeros((len(family), family.m)), 0.3) == 0.0


def test_adjoint_of_phi_is_projection(family):
    # Phi* Phi K_u evaluated at z equals the lambda integral of the density
    u, z = 0.25 + 0.15j, -0.3 + 0.1j
    F = phi_map_family(family, HardyVector.of((1.0, u)))
    lhs = phi_adjoint(family, F, z)
    rhs = 0.0 + 0.0j
    for k, fr in enumerate(family.frames):
        rhs += family.weights[k] * sum(
            np.conj(fr.eigenfunction(j, u)) * fr.eigenfunction(j, z)
            for j in range(1, family.m + 1)
        )
    assert abs(lhs - rhs) < 1e-12


def test_phi_r_exactness_and_trend(family):
    u = 0.3 + 0.1j
    M = 512
    zeta = np.exp(2j * math.pi * np.arange(M) / M)
    boundary = 1.0 / (1.0 - np.conj(u) * zeta)
    exact = phi_map_family(family, HardyVector.of((1.0, 0.9 * u)))
    approx = phi_r(family, boundary, 0.9)
    assert np.max(np.abs(approx - exact)) < 1e-8

    target = phi_map_family(family, HardyVector.of((1.0, u)))
    errs = [family.norm(phi_r(family, boundary, r) - target) for r in (0.9, 0.99, 0.999)]
    assert errs[0] > errs[1] > errs[2]


def test_phi_r_contraction(family, rng):
    M = 512
    zeta = np.exp(2j * math.pi * np.arange(M) / M)
    for _ in range(3):
        coeffs = rng.normal(size=7) + 1j * rng.normal(size=7)
        boundary = np.polynomial.polynomial.polyval(zeta, coeffs)
        norm_f = math.sqrt(float(np.sum(np.abs(coeffs) ** 2)))
        for r in (0.9, 0.99):
            assert family.norm(phi_r(family, boundary, r)) <= (1.0 + 1e-8) * norm_f


def test_phi_r_input_validation(family):
    with pytest.raises(ValueError):
        phi_r(family, np.ones(100), 0.9)
    with pytest.raises(ValueError):
        phi_r(family, np.ones(512), 1.0)


def test_phi_r_refuses_samples_that_are_not_a_finite_vector(family):
    nan = np.ones(512, dtype=complex)
    nan[7] = complex(math.nan, 0.0)
    for samples in (nan, np.ones((512, 2))):
        with pytest.raises(ValueError, match="boundary samples must be a finite 1-D array"):
            phi_r(family, samples, 0.9)


@pytest.mark.parametrize("name, interval", [("regular", (-0.5, 0.5)), ("fig2", (-0.4, 0.4))])
def test_phi_r_at_the_largest_radius(request, name, interval):
    # the sum is read on the 512 samples' own grid at the radius where 512
    # points alias DEFAULT_TOL, and scaled out to r = 0.9995 coefficient by
    # coefficient
    fam = FrameFamily(request.getfixturevalue(name), interval, n_grid=3)
    terms = ((1.0, 0.3 + 0.1j), (0.5j, -0.2 + 0.4j))
    zeta = np.exp(2j * math.pi * np.arange(512) / 512)
    boundary = sum(c / (1.0 - np.conj(z) * zeta) for c, z in terms)
    r = 0.9995
    want = phi_map_family(fam, HardyVector.of(*((c, r * z) for c, z in terms)))
    assert np.max(np.abs(phi_r(fam, boundary, r) - want)) <= 1e-6


def test_phi_r_refuses_radii_past_the_circle_limit(family, monkeypatch):
    def no_circle(self, r, m):
        raise AssertionError(f"read a {m}-point circle at radius {r}")

    monkeypatch.setattr(SpectralFrame, "eigen_circle", no_circle)
    for r in (CIRCLE_R_MAX + 1e-5, 0.9999, 1.0 - 1e-12):
        with pytest.raises(ValueError):
            phi_r(family, np.ones(512), r)


def largest_exact_radius(M: int) -> float:
    """The largest radius at which ``_taylor_points`` keeps M points for the
    M/2 Taylor coefficients of M samples."""
    rho = DEFAULT_TOL ** (1.0 / M)
    while _taylor_points(M // 2 - 1, rho) > M:
        rho = float(np.nextafter(rho, 0.0))
    assert _taylor_points(M // 2 - 1, float(np.nextafter(rho, 1.0))) > M
    return rho


def test_phi_r_reads_the_samples_grid_at_every_radius(regular, singular, singular_asym, fig2,
                                                      cos2_symbol, monkeypatch):
    # phi_r of the samples of f = sum c_i K_{z_i} is Phi of f(r .), that is
    # sum c_i K_{r z_i}; each circle pass reads the M sample points, at the
    # radius r or, past the radius where M points alias DEFAULT_TOL, at that
    # radius, and scales the coefficients out to r
    rng = np.random.default_rng(31)
    symbols = [regular, singular, singular_asym, fig2, cos2_symbol]
    while len(symbols) < 9:
        sym = random_symbol(rng)
        if admissible_intervals(sym):
            symbols.append(sym)
    calls = []
    circle = SpectralFrame.eigen_circle
    monkeypatch.setattr(SpectralFrame, "eigen_circle",
                        lambda self, r, m: calls.append((r, m)) or circle(self, r, m))
    terms = ((1.0, 0.3 + 0.1j), (0.5j, -0.2 + 0.4j), (-0.7, 0.1 - 0.6j))
    for sym in symbols:
        a, b = max(admissible_intervals(sym), key=lambda iv: iv[1] - iv[0])
        fam = FrameFamily(sym, (a + 0.1 * (b - a), b - 0.1 * (b - a)), n_grid=4)
        for M in (512, 1024):
            zeta = np.exp(2j * math.pi * np.arange(M) / M)
            boundary = sum(c / (1.0 - np.conj(z) * zeta) for c, z in terms)
            rho = largest_exact_radius(M)
            for r in (0.5, 0.9, 0.95, 0.97, 0.99, CIRCLE_R_MAX):
                del calls[:]
                got = phi_r(fam, boundary, r)
                want = phi_map_family(fam, HardyVector.of(*((c, r * z) for c, z in terms)))
                assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want)), (M, r)
                assert calls and set(calls) == {(min(r, rho), M)}, (M, r)


def test_phi_on_taylor_contracts_the_taylor_table(fig2):
    fam = FrameFamily(fig2, (-0.4, 0.4), n_grid=12)
    f = HardyVector.of((1.0, 0.3 + 0.1j), (0.5j, -0.2 + 0.4j), (-0.7, 0.1 - 0.6j))
    for radius, nmax in ((0.9, 96), (0.98, 255)):
        n = np.arange(nmax + 1)[:, None]
        fhat = np.conj([z for _, z in f.terms]) ** n @ np.array([c for c, _ in f.terms])
        want = np.einsum("n,kjn->kj", fhat, np.conj(fam.taylor(nmax, radius)))
        got = phi_on_taylor(fam, fhat, radius)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), radius


def test_taylor_grid_follows_the_radius(regular):
    # a fixed 256-point grid aliased 5.6e-3 at radius 0.98
    fam = FrameFamily(regular, (-0.5, 0.5), n_grid=8)
    near, far = fam.taylor(40, radius=0.7), fam.taylor(40, radius=0.98)
    assert np.max(np.abs(far - near)) <= 1e-9 * np.max(np.abs(near))


def test_intertwining_full_interval(family):
    f = HardyVector.of((1.0, 0.0))
    res = intertwining_check(family, f, f, [(-0.5, 0.5)])
    assert res.stone_residual < 1e-4


def test_intertwining_empty(family):
    f = HardyVector.of((1.0, 0.2))
    res = intertwining_check(family, f, f, [])
    assert res.value == 0.0 and res.stone == 0.0


def test_intertwining_additivity(family):
    f = HardyVector.of((1.0, 0.1 + 0.2j))
    g = HardyVector.of((1.0, -0.3))
    x1, x2 = (-0.4, -0.1), (0.05, 0.35)
    both = intertwining_check(family, f, g, [x1, x2])
    first = intertwining_check(family, f, g, [x1])
    second = intertwining_check(family, f, g, [x2])
    assert abs(both.value - first.value - second.value) < 1e-12
    assert both.stone_residual <= first.stone_residual + second.stone_residual + 1e-10


def test_overlapping_parts_of_x_are_refused(family, regular):
    # each part of X is summed on its own, so an overlap would count twice
    f = HardyVector.of((1.0, 0.2))
    for X in ([(-0.2, 0.3), (0.0, 0.4)], [(0.0, 0.4), (-0.2, 0.3)],
              [(-0.4, 0.4), (-0.1, 0.1)], [(-0.1, 0.2), (-0.1, 0.2)]):
        with pytest.raises(ValueError, match="overlap"):
            intertwining_check(family, f, f, X)
        with pytest.raises(ValueError, match="overlap"):
            stone_projection(regular, f, f, X, n_nodes=6)
    # parts that touch are their union
    touching = intertwining_check(family, f, f, [(0.1, 0.4), (-0.2, 0.1)])
    union = intertwining_check(family, f, f, [(-0.2, 0.4)])
    assert abs(touching.value - union.value) < 1e-12
    assert abs(touching.stone - union.stone) < 1e-12


def test_intertwining_subinterval_against_stone(family):
    f = HardyVector.of((1.0, 0.25), (0.5j, -0.2 + 0.1j))
    res = intertwining_check(family, f, f, [(-0.3, 0.2)])
    assert res.stone_residual < 1e-4


def test_intertwining_oracle_route(family, regular):
    sec = build_section(regular, 1024)
    f = HardyVector.of((1.0, 0.0))
    res = intertwining_check(family, f, f, [(-0.5, 0.5)], section=sec)
    assert res.oracle_residual is not None and res.oracle_residual < 5e-3


def test_surjectivity_witness_small(regular):
    # Phi Phi* = identity on smooth grid functions (moderate grid here;
    # the acceptance suite runs the full-size version)
    family = FrameFamily(regular, (-0.5, 0.5), n_grid=96)
    lam = family.lams
    g = np.zeros((len(family), 1), dtype=complex)
    g[:, 0] = np.exp(-4.0 * lam**2) * (0.25 - lam**2) ** 2 * 16.0
    fhat = phi_adjoint_taylor(family, g, nmax=96, radius=0.9)
    back = phi_on_taylor(family, fhat, radius=0.9)
    err = family.norm(back - g) / family.norm(g)
    assert err < 1e-3


def test_family_multiplicity_two(fig2):
    fam = FrameFamily(fig2, (-0.4, 0.4), n_grid=48)
    assert fam.m == 2
    f = HardyVector.of((1.0, 0.2 + 0.1j))
    F = phi_map_family(fam, f)
    assert F.shape == (48, 2)
    res = intertwining_check(fam, f, f, [(-0.4, 0.4)])
    assert res.stone_residual < 1e-4
    # isometry splits over the two branches: both carry mass
    per_branch = np.sum(fam.weights[:, None] * np.abs(F) ** 2, axis=0)
    assert per_branch[0] > 0.0 and per_branch[1] > 0.0


def test_surjectivity_witness_full_grid(regular):
    # the full-size witness: 2048 lambda nodes on the regular preset
    family = FrameFamily(regular, (-0.5, 0.5), n_grid=2048)
    lam = family.lams
    g = np.zeros((len(family), 1), dtype=complex)
    g[:, 0] = (np.sin(3.0 * lam) + 1.2) * (0.25 - lam**2) ** 2 * 16.0
    fhat = phi_adjoint_taylor(family, g, nmax=96, radius=0.9)
    back = phi_on_taylor(family, fhat, radius=0.9)
    assert family.norm(back - g) <= 1e-3


def test_stone_projection_hermitian(regular):
    f = HardyVector.of((1.0, 0.3))
    val = stone_projection(regular, f, f, [(-0.5, 0.5)])
    assert abs(val.imag) < 1e-8
    assert 0.0 < val.real < f.norm_squared() + 1e-9


def test_norm_squared_is_the_taylor_coefficient_sum():
    # f = sum_i c_i K_{z_i} has Taylor coefficients sum_i c_i conj(z_i)^n
    f = HardyVector.of((1.0, 0.5), (1j, 0.3j), (0.2 - 0.4j, -0.6 + 0.1j))
    c = np.array([ci for ci, _ in f.terms])
    z = np.array([zi for _, zi in f.terms])
    n = np.arange(200)[:, None]
    ref = float(np.sum(np.abs(np.conj(z) ** n @ c) ** 2))
    assert abs(f.norm_squared() - ref) <= 1e-12 * ref


def test_stone_projection_is_the_integrated_stone_gram(fig2):
    # (E(X)f, g) = sum_ik c_i conj(d_k) (E(X)K_i, K_k), each term the Stone
    # density integrated over the nodes of each subinterval
    f = HardyVector.of((1.0, 0.3), (0.5j, -0.2 + 0.4j))
    g = HardyVector.of((2.0 - 1.0j, 0.1 - 0.6j))
    X = [(-0.6, -0.3), (0.1, 0.4)]
    val = stone_projection(fig2, f, g, X, n_nodes=6)
    x, w = np.polynomial.legendre.leggauss(6)
    ref = 0.0
    for a, b in X:
        for wl, la in zip(0.5 * (b - a) * w, 0.5 * (a + b) + 0.5 * (b - a) * x):
            for ci, zi in f.terms:
                for dk, zk in g.terms:
                    ref += wl * ci * np.conj(dk) * stone_density(fig2, zi, zk, float(la))
    assert abs(val - ref) <= 1e-13 * abs(ref)
    back = stone_projection(fig2, g, f, X, n_nodes=6)
    assert abs(back - np.conj(val)) <= 1e-12 * abs(val)


def test_phi_on_taylor_is_finite_where_radius_powers_overflow(regular, monkeypatch):
    # 0.7^-n overflows past n = 1990 while 0.5^n underflows to 0 past 1074:
    # f = 1/(1 - z/2) = K_{1/2} with 2,100 coefficients maps to conj phi(1/2)
    # with no NaN and no warning; coefficients whose products with 0.7^-n
    # overflow are refused before any circle pass
    family = FrameFamily(regular, (-0.3, 0.3), n_grid=4)
    got = phi_on_taylor(family, 0.5 ** np.arange(2100))
    want = phi_map_family(family, HardyVector.of((1.0, 0.5)))
    assert np.all(np.isfinite(got))
    assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-12
    monkeypatch.setattr(SpectralFrame, "eigen_circle", lambda *args: pytest.fail("circle pass"))
    for fhat in (np.ones(2100), np.r_[1.0, np.nan]):
        with pytest.raises(ValueError, match="not finite"):
            phi_on_taylor(family, fhat)
