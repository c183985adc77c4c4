import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    chebyshev_U,
    reference_phi_ext,
    regular_phi_closed,
    singular_phi_closed,
    singular_phi_ext_closed,
)
from toepspec import spectral
from toepspec.errors import FormMismatchError, QuadratureError
from toepspec.levelset import LevelSet, sublevel_set
from toepspec.oracle import smooth_bump
from toepspec.symbol import preset_singular
from toepspec.spectral import (
    SpectralFrame,
    resolvent_form,
    rh_residual,
    spectral_frame,
    stone_density,
    weak_measure,
)

TWO_PI = 2.0 * math.pi


# -- resolvent ---------------------------------------------------------------------


def test_resolvent_below_spectrum(regular):
    # Stieltjes transform of the Chebyshev weight, frozen closed form plus
    # an independent quadrature of the weight itself
    val = resolvent_form(regular, 0.0, 0.0, -2.0)
    assert val.imag == 0.0
    assert val.real == pytest.approx(2.0 * (2.0 - math.sqrt(3.0)), abs=1e-12)
    phi = np.linspace(0.0, math.pi, 200001)
    oracle = np.trapezoid((2.0 / math.pi) * np.sin(phi) ** 2 / (np.cos(phi) + 2.0), phi)
    assert val.real == pytest.approx(oracle, abs=1e-9)
    assert val.real > 0.0


def test_resolvent_analytic_past_top(regular):
    lam = 1.5
    gaps = [abs(resolvent_form(regular, 0.0, 0.0, lam + 1j * e)
                - resolvent_form(regular, 0.0, 0.0, lam - 1j * e))
            for e in (1e-2, 1e-3, 1e-4)]
    assert gaps[2] < gaps[1] < gaps[0]
    assert gaps[2] < 2e-2 * gaps[0]
    real_side = resolvent_form(regular, 0.0, 0.0, lam)
    assert abs(real_side.imag) < 1e-10


def test_resolvent_conjugate_symmetry(regular, singular, rng):
    for sym in (regular, singular):
        for _ in range(5):
            u = rng.uniform(0, 0.8) * np.exp(1j * rng.uniform(0, TWO_PI))
            w = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.05, 0.5))
            a = resolvent_form(sym, u, u, w)
            b = resolvent_form(sym, u, u, np.conj(w))
            assert abs(b - np.conj(a)) < 1e-10


def test_resolvent_rejects_cut(regular):
    with pytest.raises(ValueError):
        resolvent_form(regular, 0.0, 0.0, 0.3)
    with pytest.raises(ValueError):
        resolvent_form(regular, 1.1, 0.0, -2.0)


# deterministic property runs that leave no example database behind
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=100)


def disk_points(r_max=0.97):
    polar = st.builds(lambda r, t: r * cmath.exp(1j * t),
                      st.floats(0.0, r_max), st.floats(0.0, TWO_PI))
    return st.one_of(st.just(0j), polar)


def off_cut(g1, g2):
    """Levels off the cut [g1, g2]: |Im| from 1e-4 to 1 on either side, or
    real and at least 0.01 below or above it."""
    non_real = st.builds(lambda x, e, s: complex(x, s * 10.0**e), st.floats(g1 - 1.0, g2 + 1.0),
                         st.floats(-4.0, 0.0), st.sampled_from((-1.0, 1.0)))
    real = st.builds(lambda d, below: complex(g1 - d if below else g2 + d, 0.0),
                     st.floats(0.01, 2.0), st.booleans())
    return st.one_of(non_real, real)


@PROPERTY
@given(u=disk_points(), v=disk_points(), zeta=off_cut(-1.0, 1.0))
def test_resolvent_regular_closed_form(regular, u, v, zeta):
    # cos theta: a is the root of a^2 - 2 zeta a + 1 = 0 inside the disk
    a = zeta - cmath.sqrt(zeta * zeta - 1.0)
    a = a if abs(a) < 1.0 else 1.0 / a
    ub = u.conjugate()
    ref = -2.0 * a / ((1.0 - a * ub) * (1.0 - a * v) * (1.0 - ub * v))
    assert abs(resolvent_form(regular, u, v, zeta) - ref) <= 1e-12 * abs(ref)


def arc_schwarz(z, t1, t2):
    """A(z): (1/2 pi) times the integral of (1 + z e^{-it})/(1 - z e^{-it})
    over the counterclockwise arc (t1, t2)."""
    ratio = (1.0 - z * cmath.exp(-1j * t2)) / (1.0 - z * cmath.exp(-1j * t1))
    return ((t2 - t1) % TWO_PI) / TWO_PI - 1j / math.pi * cmath.log(ratio)


@PROPERTY
@given(u=disk_points(), v=disk_points(), zeta=off_cut(0.0, 1.0),
       t1=st.floats(0.0, TWO_PI), length=st.floats(0.2, TWO_PI - 0.2))
def test_resolvent_singular_closed_form(u, v, zeta, t1, length):
    # the indicator of an arc: log(omega - zeta) takes two values, so the
    # Schwarz averages reduce to the arc integral A; principal logs of
    # 0 - zeta and 1 - zeta, as the quadrature takes them
    t2 = (t1 + length) % TWO_PI
    sym = preset_singular(t1, t2)
    lo, l1 = cmath.log(0.0 - zeta), cmath.log(1.0 - zeta)
    big_v = 2.0 * lo + (l1 - lo) * (arc_schwarz(v, t1, t2) + arc_schwarz(u, t1, t2).conjugate())
    ref = cmath.exp(-0.5 * big_v) / (1.0 - u.conjugate() * v)
    assert abs(resolvent_form(sym, u, v, zeta) - ref) <= 1e-12 * abs(ref)


def test_resolvent_at_a_subnormal_point_is_its_value_at_the_origin(regular):
    # the mirror point 1/conj u of a subnormal u overflows
    zeta = 3.0 + 0.5j
    assert resolvent_form(regular, 5e-324, 0.3j, zeta) == resolvent_form(regular, 0.0, 0.3j, zeta)
    want = resolvent_form(regular, np.array([0.2, 0.0, 0.0]), 0.3j, zeta)
    assert np.array_equal(resolvent_form(regular, np.array([0.2, 5e-324, 1e-310j]), 0.3j, zeta),
                          want)


def test_resolvent_just_beyond_an_extremum(regular, cos2_symbol):
    # Re zeta lies just below min cos 2t = -1: nothing crosses it, and
    # log(omega - zeta) is nearly singular at the minima t = pi/2, 3pi/2.
    # cos 2t is cos t under z -> z^2, so R = (1 + conj(u) v) R_regular(u^2, v^2)
    u, v, zeta = 0.0488 + 0.8695j, -0.2723 - 0.7442j, -1.0036 + 0.00048j
    ref = (1.0 + np.conj(u) * v) * resolvent_form(regular, u * u, v * v, zeta)
    assert abs(resolvent_form(cos2_symbol, u, v, zeta) - ref) < 1e-10


def test_resolvent_and_stone_broadcast(regular, singular_asym):
    p = np.array([0.0, 0.3 + 0.2j, -0.5j, 0.95 * np.exp(2.0j)])
    for sym, zeta, lam in ((regular, 0.2 + 0.05j, 0.3), (singular_asym, 1.4, 0.4)):
        R = resolvent_form(sym, p[:, None], p[None, :], zeta)
        S = stone_density(sym, p[:, None], p[None, :], lam)
        assert R.shape == S.shape == (4, 4)
        for i, k in np.ndindex(4, 4):
            r = resolvent_form(sym, p[i], p[k], zeta)
            s = stone_density(sym, p[i], p[k], lam)
            assert isinstance(r, complex) and isinstance(s, complex)
            assert abs(R[i, k] - r) <= 1e-13 * abs(r)
            assert abs(S[i, k] - s) <= 1e-13 * abs(s)
        assert resolvent_form(sym, p, 0.1j, zeta).shape == (4,)
    with pytest.raises(ValueError):
        resolvent_form(regular, p, np.array([0.2, 1.0]).reshape(2, 1), -2.0)


# -- frames -------------------------------------------------------------------------


def test_frame_regular(regular):
    fr = spectral_frame(regular, 0.0)
    assert fr.m == 1
    assert fr.c[0] == pytest.approx(1.0 / math.pi, abs=1e-13)
    assert fr.level.arcs[0].alpha == pytest.approx(math.pi / 2, abs=1e-12)


def test_frame_singular(singular):
    fr = spectral_frame(singular, 0.5)
    assert fr.m == 1
    assert fr.level.arcs[0].alpha % TWO_PI == pytest.approx(math.pi, abs=1e-12)


def test_frame_fig2(fig2):
    assert spectral_frame(fig2, 0.2).m == 2


def test_frame_outside_interval(regular):
    with pytest.raises(ValueError):
        spectral_frame(regular, -1.5)


# -- eigenfunctions ------------------------------------------------------------------


def test_eigenfunction_regular_closed_form(regular, rng):
    fr0 = spectral_frame(regular, 0.0)
    assert fr0.eigenfunction(1, 0.0) == pytest.approx(math.sqrt(2.0 / math.pi), abs=1e-11)
    for _ in range(15):
        lam = rng.uniform(-0.9, 0.9)
        z = rng.uniform(0, 0.9) * np.exp(1j * rng.uniform(0, TWO_PI))
        fr = spectral_frame(regular, lam)
        assert abs(fr.eigenfunction(1, z) - regular_phi_closed(z, lam)) < 1e-10


def test_eigenfunction_singular_closed_form(singular, rng):
    for lam in (0.2, 0.5, 0.8):
        fr = spectral_frame(singular, lam)
        for _ in range(10):
            z = rng.uniform(0, 0.9) * np.exp(1j * rng.uniform(0, TWO_PI))
            assert abs(fr.eigenfunction(1, z) - singular_phi_closed(z, lam)) < 1e-10


def test_eigenfunction_exterior(regular, singular, rng):
    fr = spectral_frame(regular, 0.0)
    assert fr.eigenfunction_ext(1, 2.0) == pytest.approx((TWO_PI) ** -0.5 / 2.0, abs=1e-12)
    for lam in (0.2, 0.5, 0.8):
        frs = spectral_frame(singular, lam)
        for _ in range(10):
            z = rng.uniform(1.1, 4.0) * np.exp(1j * rng.uniform(0, TWO_PI))
            assert abs(frs.eigenfunction_ext(1, z) - singular_phi_ext_closed(z, lam)) < 1e-10


def test_exterior_partners_match_the_factor_product(fig2, cos2_symbol, singular_asym, rng):
    # every branch, m = 2 included, against the per-factor product outside the disk
    z = rng.uniform(1.05, 20.0, 40) * np.exp(1j * rng.uniform(0.0, TWO_PI, 40))
    for sym, lams in ((fig2, (-0.6, -0.2, 0.3, 0.7)), (cos2_symbol, (-0.7, -0.2, 0.3, 0.8)),
                      (singular_asym, (0.1, 0.4, 0.8))):
        for lam in lams:
            fr = spectral_frame(sym, lam)
            for j in range(1, fr.m + 1):
                for w in z:
                    want = reference_phi_ext(fr, j, w)
                    assert abs(fr.eigenfunction_ext(j, w) - want) <= 1e-13 * abs(want)


def test_eigenfunction_exterior_decay(regular):
    fr = spectral_frame(regular, 0.3)
    v2 = abs(fr.eigenfunction_ext(1, 100.0 * np.exp(0.7j)))
    v3 = abs(fr.eigenfunction_ext(1, 1000.0 * np.exp(0.7j)))
    assert v2 / v3 == pytest.approx(10.0, rel=0.1)


def test_eigenfunction_two_forms(regular, fig2, rng):
    for sym, lam in ((regular, 0.37), (fig2, 0.2)):
        fr = spectral_frame(sym, lam)
        for _ in range(100):
            z = rng.uniform(0, 0.95) * np.exp(1j * rng.uniform(0, TWO_PI))
            for j in range(1, fr.m + 1):
                a = fr.eigenfunction(j, z)
                b = fr.eigenfunction_product(j, z)
                assert abs(a - b) < 1e-11


def test_eigenfunction_nonvanishing(regular, fig2, rng):
    for sym, lam in ((regular, -0.2), (fig2, 0.1)):
        fr = spectral_frame(sym, lam)
        for _ in range(30):
            z = rng.uniform(0, 0.97) * np.exp(1j * rng.uniform(0, TWO_PI))
            assert all(abs(fr.eigenfunction(j, z)) > 1e-8 for j in range(1, fr.m + 1))


def test_eigenfunction_hardy_half_norm(regular, singular):
    # circle means of |phi|^{1/2} stay bounded as the radius approaches one
    for sym, lam in ((regular, 0.3), (singular, 0.5)):
        fr = spectral_frame(sym, lam)
        norms = []
        for r in (0.99, 0.999, 0.9995):
            vals = fr.eigen_circle(r, 8192)
            norms.append(float(np.mean(np.abs(vals[0]) ** 0.5)))
        assert norms[1] >= norms[0] - 1e-9
        assert norms[2] <= 1.05 * norms[1]


def test_eigenfunction_bad_branch(regular):
    fr = spectral_frame(regular, 0.0)
    with pytest.raises(ValueError):
        fr.eigenfunction(2, 0.0)
    with pytest.raises(ValueError):
        fr.eigenfunction(1, 1.2)
    with pytest.raises(ValueError):
        fr.eigenfunction_ext(1, 0.5)


# -- Riemann-Hilbert residual ----------------------------------------------------------


def test_rh_residual_trends(regular, singular):
    fr = spectral_frame(regular, 0.0)
    res = [rh_residual(fr, 1, math.pi / 4, d) for d in (1e-2, 5e-3, 2.5e-3)]
    assert res[1] < res[0] and res[2] < res[1]
    fitted = max(r / d for r, d in zip(res, (1e-2, 5e-3, 2.5e-3)))
    assert res[2] <= fitted * 2.5e-3 + 1e-12
    frs = spectral_frame(singular, 0.5)
    res = [rh_residual(frs, 1, math.pi / 2, d) for d in (1e-2, 5e-3, 2.5e-3)]
    assert res[1] < res[0] and res[2] < res[1]


def test_rh_residual_guards(regular, singular):
    fr = spectral_frame(regular, 0.0)
    with pytest.raises(ValueError):
        rh_residual(fr, 1, math.pi / 4, 0.0)
    with pytest.raises(ValueError):
        rh_residual(fr, 1, math.pi / 2, 1e-2)  # arc end
    frs = spectral_frame(singular, 0.5)
    with pytest.raises(ValueError):
        rh_residual(frs, 1, 0.0, 1e-2)  # jump angle


# -- density ----------------------------------------------------------------------------


def test_density_origin(regular):
    fr = spectral_frame(regular, 0.0)
    assert fr.density(0.0, 0.0) == pytest.approx(2.0 / math.pi, abs=1e-11)


def test_density_chebyshev_gram(regular):
    lam = 0.3
    fr = spectral_frame(regular, lam)
    G = fr.density_taylor(3)
    for n in range(4):
        for m in range(4):
            ref = (2.0 / math.pi) * math.sqrt(1.0 - lam * lam) * chebyshev_U(n, lam) * chebyshev_U(m, lam)
            assert G[n, m] == pytest.approx(ref, rel=1e-9)


def test_density_positivity(regular, singular, fig2, rng):
    for sym, span in ((regular, (-0.9, 0.9)), (singular, (0.1, 0.9)), (fig2, (-0.55, 0.55))):
        for lam in np.linspace(span[0], span[1], 5):
            fr = spectral_frame(sym, float(lam))
            for _ in range(5):
                u = rng.uniform(0, 0.9) * np.exp(1j * rng.uniform(0, TWO_PI))
                d = fr.density(u, u)
                assert abs(d.imag) < 1e-12
                assert d.real > 0.0


def test_density_kernel_hermitian_and_rank(regular, fig2, rng):
    for sym, lam in ((regular, 0.2), (fig2, 0.25)):
        fr = spectral_frame(sym, lam)
        pts = np.array([rng.uniform(0, 0.85) * np.exp(1j * rng.uniform(0, TWO_PI))
                        for _ in range(8)])
        G = fr.density(pts[:, None], pts[None, :])
        assert np.max(np.abs(G - G.conj().T)) < 1e-12
        eig = np.linalg.eigvalsh(G)
        assert eig[0] > -1e-10 * max(eig[-1], 1.0)
        numerical_rank = int(np.sum(eig > 1e-10 * eig[-1]))
        assert numerical_rank <= fr.m


def test_density_form_mismatch_detected(regular):
    fr = spectral_frame(regular, 0.1)
    fr._rho = fr._rho * 1.001  # corrupt a residue weight
    with pytest.raises(FormMismatchError):
        fr.density(0.2, 0.3j)


def test_density_broadcasts_over_point_arrays(fig2, rng):
    fr = spectral_frame(fig2, 0.25)
    pts = np.array([rng.uniform(0, 0.85) * np.exp(1j * rng.uniform(0, TWO_PI))
                    for _ in range(5)])
    G = fr.density(pts[:, None], pts[None, :])
    assert G.shape == (5, 5)
    for i, u in enumerate(pts):
        for k, v in enumerate(pts):
            d = fr.density(complex(u), complex(v))
            assert isinstance(d, complex)
            assert abs(G[i, k] - d) <= 1e-14 * max(1.0, abs(d))
    el, sine = fr.density_pair(pts, pts[::-1])
    assert el.shape == sine.shape == (5,)
    assert np.allclose(el, sine, rtol=0.0, atol=1e-8)
    fr._rho = fr._rho * np.array([1.0, 1.001])  # corrupt one residue weight
    with pytest.raises(FormMismatchError):
        fr.density(pts[:, None], pts[None, :])


def test_frame_checks_its_multiplicity(fig2):
    lam = 0.25
    level = sublevel_set(fig2, lam)
    assert level.m == 2
    short = LevelSet(lam, level.arcs[:1])
    with pytest.raises(FormMismatchError):
        SpectralFrame(fig2, short)
    assert SpectralFrame(fig2, level).m == 2


def test_eigenfunction_reads_eigen_matrix(fig2):
    fr = spectral_frame(fig2, 0.25)
    zs = np.array([0.1, 0.4 - 0.3j, 0.95j, -0.2 + 0.6j])
    E = fr.eigen_matrix(zs)
    assert E.shape == (fr.m, len(zs))
    for j in range(1, fr.m + 1):
        for z, v in zip(zs, E[j - 1]):
            assert abs(fr.eigenfunction(j, z) - v) <= 1e-14 * abs(v)
    r = 0.6
    circle = fr.eigen_circle(r, 64)
    on = r * np.exp(2j * math.pi * np.arange(64) / 64)
    assert np.allclose(circle, fr.eigen_matrix(on), rtol=1e-9, atol=0.0)
    with pytest.raises(ValueError):
        fr.eigen_matrix([0.3, 1.2])


def test_stone_consistency(regular, singular):
    cases = ((regular, (-0.7, 0.7)), (singular, (0.15, 0.85)))
    for sym, (a, b) in cases:
        for lam in np.linspace(a, b, 4):
            fr = spectral_frame(sym, float(lam))
            d = fr.density(0.2 + 0.1j, 0.2 + 0.1j)
            s = stone_density(sym, 0.2 + 0.1j, 0.2 + 0.1j, float(lam))
            assert abs(s - d) / abs(d) < 1e-4


def test_stone_density_refuses_an_offset_that_is_not_positive_and_finite(regular, monkeypatch):
    # a negative offset would return the negated density, and zero would
    # ask for the resolvent on the cut: both are refused before any call
    def no_resolvent(*args):
        raise AssertionError("resolvent called")

    monkeypatch.setattr(spectral, "resolvent_form", no_resolvent)
    for eps in (-1e-2, 0.0, -0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="eps must be positive and finite"):
            stone_density(regular, 0.1, 0.1, 0.2, eps=eps)


# -- weak measure -------------------------------------------------------------------------


def test_weak_measure_constant_weight(regular):
    ind = lambda lam: 1.0 if -0.5 <= lam <= 0.5 else 0.0
    val = weak_measure(regular, (-0.5, 0.5), 0.0, 0.0, ind)
    ref = (2.0 / math.pi) * (0.5 * math.sqrt(0.75) + math.asin(0.5))
    assert val.real == pytest.approx(ref, abs=1e-8)
    assert abs(val.imag) < 1e-12


def test_weak_measure_unsettled_raises(regular):
    # a jump inside the interval: Gauss-Legendre converges only like 1/n
    ind = lambda lam: 1.0 if 0.1 <= lam <= 0.5 else 0.0
    with pytest.raises(QuadratureError) as info:
        weak_measure(regular, (-0.5, 0.5), 0.0, 0.0, ind, rtol=1e-12, max_nodes=128)
    assert 1e-12 < info.value.achieved_tol < 1e-1


def test_weak_measure_refuses_fewer_than_64_nodes(regular, monkeypatch):
    # the first change compares a 32- and a 64-node rule
    def no_family(*args):
        raise AssertionError("family built")

    monkeypatch.setattr(spectral, "FrameFamily", no_family)
    ind = lambda lam: 1.0 if -0.5 <= lam <= 0.5 else 0.0
    for max_nodes in (63, 32, 0):
        with pytest.raises(ValueError, match=f"max_nodes must be at least 64, got {max_nodes}"):
            weak_measure(regular, (-0.5, 0.5), 0.0, 0.0, ind, max_nodes=max_nodes)


def test_weak_measure_broadcasts_over_point_arrays(regular, singular):
    pts = np.array([0.3 + 0.2j, -0.5j])
    for sym, (a, b) in ((regular, (-0.5, 0.5)), (singular, (0.2, 0.8))):
        g = smooth_bump(a, b)
        gram = weak_measure(sym, (a, b), pts[:, None], pts[None, :], g)
        assert gram.shape == (2, 2)
        for i, u in enumerate(pts):
            for k, v in enumerate(pts):
                one = weak_measure(sym, (a, b), complex(u), complex(v), g)
                assert isinstance(one, complex)
                assert abs(gram[i, k] - one) <= 1e-12 * max(1.0, abs(one))
    # an unsettled entry raises with the worst change among the entries
    pts = np.array([0.0, 0.3 + 0.2j, -0.5j])
    ind = lambda lam: 1.0 if 0.1 <= lam <= 0.5 else 0.0
    worst = 0.0
    for u in pts:
        with pytest.raises(QuadratureError) as info:
            weak_measure(regular, (-0.5, 0.5), complex(u), complex(u), ind, rtol=1e-12, max_nodes=128)
        worst = max(worst, info.value.achieved_tol)
    with pytest.raises(QuadratureError) as info:
        weak_measure(regular, (-0.5, 0.5), pts, pts, ind, rtol=1e-12, max_nodes=128)
    assert info.value.achieved_tol == pytest.approx(worst, rel=1e-9)


def test_weak_measure_zero_weight(regular):
    assert weak_measure(regular, (-0.5, 0.5), 0.1, 0.2j, lambda lam: 0.0) == 0.0
    with pytest.raises(ValueError, match="supported outside"):
        weak_measure(regular, (-0.5, 0.5), 0.1, 0.2j, lambda lam: 1.0)


def test_weak_measure_two_routes(regular):
    g = lambda lam: (1.0 - (2.0 * lam) ** 2) ** 3 if abs(lam) < 0.5 else 0.0
    via_phi = weak_measure(regular, (-0.5, 0.5), 0.0, 0.0, g)
    lam = np.linspace(-0.5, 0.5, 20001)
    closed = np.trapezoid((1 - (2 * lam) ** 2) ** 3 * (2 / math.pi) * np.sqrt(1 - lam**2), lam)
    assert via_phi.real == pytest.approx(closed, abs=1e-8)


# -- complementary-arc variant ---------------------------------------------------------------


def test_alt_density_equality(regular, fig2, rng):
    for sym, lam in ((regular, 0.3), (fig2, 0.2)):
        fr = spectral_frame(sym, lam)
        alt = fr.alt_frame()
        assert alt.level.measure == pytest.approx(1.0 - fr.level.measure, abs=1e-12)
        for _ in range(50):
            u = rng.uniform(0, 0.9) * np.exp(1j * rng.uniform(0, TWO_PI))
            v = rng.uniform(0, 0.9) * np.exp(1j * rng.uniform(0, TWO_PI))
            d = fr.density(u, v)
            d_alt = sum(np.conj(alt.eigenfunction(j, u)) * alt.eigenfunction(j, v)
                        for j in range(1, alt.m + 1))
            assert abs(d - d_alt) < 1e-10


def test_alt_eigenfunction_is_endpoint_swap(regular, rng):
    # for one arc the swapped product form coincides with the original
    lam = 0.4
    fr = spectral_frame(regular, lam)
    alt = fr.alt_frame()
    a = fr.level.arcs[0].alpha
    b = fr.level.arcs[0].beta
    rho = math.sqrt(abs(np.exp(1j * b) - np.exp(1j * a)) / TWO_PI)
    for _ in range(10):
        z = rng.uniform(0, 0.9) * np.exp(1j * rng.uniform(0, TWO_PI))
        swapped = (rho * fr.xi(z) / (1.0 - z * np.exp(-1j * a))
                   * (1.0 - z * np.exp(-1j * b)) ** -0.5 * (1.0 - z * np.exp(-1j * a)) ** 0.5)
        assert abs(alt.eigenfunction(1, z) - swapped) < 1e-10
        assert abs(alt.eigenfunction(1, z) - fr.eigenfunction(1, z)) < 1e-10
