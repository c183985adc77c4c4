import math

import numpy as np
import pytest

from toepspec import oracle
from toepspec.oracle import (
    build_section,
    k_vector,
    oracle_weak_measure,
    smooth_bump,
    validate,
)
from toepspec.spectral import weak_measure
from toepspec.symbol import PiecewiseSymbol, TrigPoly, preset_singular
from test_random_symbols import random_symbol


def test_regular_section_is_discrete_laplacian(regular):
    N = 128
    sec = build_section(regular, N)
    ref = np.sort(np.cos(np.arange(1, N + 1) * math.pi / (N + 1)))
    assert np.max(np.abs(sec.eigenvalues - ref)) < 1e-10
    assert sec.orthonormality_residual() < 1e-10
    off = np.diag(sec.matrix.real, 1)
    assert np.allclose(off, 0.5)


def test_singular_two_by_two(singular):
    sec = build_section(singular, 2)
    t1 = singular.fourier_coefficient(1)
    assert sec.eigenvalues[0] == pytest.approx(0.5 - abs(t1), abs=1e-14)
    assert sec.eigenvalues[1] == pytest.approx(0.5 + abs(t1), abs=1e-14)
    assert np.max(np.abs(sec.matrix - sec.matrix.conj().T)) < 1e-14


def test_section_trace_and_range(regular, singular_asym, fig2):
    for sym in (regular, singular_asym, fig2):
        sec = build_section(sym, 96)
        assert np.trace(sec.matrix).real / 96 == pytest.approx(
            sym.fourier_coefficient(0).real, abs=1e-12
        )
        g1, g2 = sym.essential_range()
        assert sec.eigenvalues[0] >= g1 - 1e-10
        assert sec.eigenvalues[-1] <= g2 + 1e-10


@pytest.mark.parametrize("N", [2, 3, 64, 97])
def test_real_reduction_matches_complex_eigh(regular, singular_asym, fig2, N):
    # odd N puts the centre element on the exchange matrix's fixed point
    rng = np.random.default_rng(97)
    rand = random_symbol(rng)
    assert np.max(np.abs([rand.fourier_coefficient(n).imag for n in range(1, 4)])) > 1e-3
    g = smooth_bump(-0.4, 0.6)
    pts = (0.0, 0.3 + 0.2j, -0.5j)
    x = np.stack([k_vector(p, N)[0] for p in pts], axis=1) + rng.normal(size=(N, 3))
    for sym in (regular, singular_asym, fig2, rand):
        sec = build_section(sym, N)
        vals, vecs = np.linalg.eigh(sec.matrix)
        assert np.max(np.abs(sec.eigenvalues - vals)) < 1e-12
        v = sec.eigenvectors
        assert np.max(np.abs(sec.project(x) - v.conj().T @ x)) < 1e-12
        assert np.max(np.abs(sec.project(x[:, 1]) - v.conj().T @ x[:, 1])) < 1e-12
        assert sec.orthonormality_residual() < 1e-10
        gv = np.array([g(lam) for lam in vals])
        for u, w in ((pts[0], pts[1]), (pts[1], pts[2]), (pts[2], pts[2])):
            ku, kw = k_vector(u, N)[0], k_vector(w, N)[0]
            ref = np.sum(gv * (vecs.conj().T @ ku) * np.conj(vecs.conj().T @ kw))
            assert abs(oracle_weak_measure(sec, u, w, g) - ref) < 1e-12


def _even_symbols(regular, cos2_symbol, singular):
    """Symbols even about an axis, with that axis mod pi."""
    rotated = PiecewiseSymbol([(0.0, 2.0 * math.pi, TrigPoly([0.0, math.cos(0.3)], [math.sin(0.3)]))])
    # cos 2t has t_1 = 0: its axes come from the mode n = 2.  The arc
    # (5.5, 1.0) wraps round; its midpoint is 3.25 + pi
    return [(regular, 0.0), (cos2_symbol, None), (singular, 0.5 * math.pi),
            (preset_singular(0.7, 2.9), 1.8), (preset_singular(5.5, 1.0), 3.25 - math.pi),
            (rotated, 0.3)]


@pytest.mark.parametrize("N", [2, 3, 64, 97, 512])
def test_reflection_split_matches_complex_eigh(regular, cos2_symbol, singular, fig2, N):
    even = _even_symbols(regular, cos2_symbol, singular)
    general = [fig2, random_symbol(np.random.default_rng(97)), random_symbol(np.random.default_rng(5))]
    rng = np.random.default_rng(N)
    x = rng.normal(size=(N, 3)) + 1j * rng.normal(size=(N, 3))
    x /= np.linalg.norm(x, axis=0)
    g = smooth_bump(-0.4, 0.6)
    for sym, axis in even + [(sym, None) for sym in general]:
        sec = build_section(sym, N)
        if sym in general and N > 2:
            assert sec.axis is None
        else:
            # every 2 x 2 Hermitian Toeplitz section is even about arg of t_1
            assert sec.axis is not None and 0.0 <= sec.axis <= math.pi
            if axis is not None:
                assert abs(sec.axis - axis) < 1e-12
        vals, vecs = np.linalg.eigh(sec.matrix)
        assert np.max(np.abs(sec.eigenvalues - vals)) < 1e-12
        v = sec.eigenvectors
        assert np.max(np.abs(sec.matrix @ v - v * sec.eigenvalues)) < 1e-12
        assert sec.orthonormality_residual() < 1e-10
        # g(T) from either basis: invariant under phases and degenerate pairs
        gs, gv = np.array([g(lam) for lam in sec.eigenvalues]), np.array([g(lam) for lam in vals])
        assert np.max(np.abs((v * gs) @ v.conj().T - (vecs * gv) @ vecs.conj().T)) < 1e-12
        c = sec.project(x)
        assert np.max(np.abs(c - v.conj().T @ x)) < 1e-12
        assert np.max(np.abs(sec.project(x[:, 0]) - c[:, 0])) < 1e-12
        ref = vecs.conj().T @ x
        assert np.max(np.abs((c.conj().T * gs) @ c - (ref.conj().T * gv) @ ref)) < 1e-12


def test_project_rejects_wrong_length(regular):
    sec = build_section(regular, 8)
    with pytest.raises(ValueError):
        sec.project(np.ones(16))


def test_section_rejects_tiny(regular):
    with pytest.raises(ValueError):
        build_section(regular, 1)


def test_k_vector():
    vec, tail = k_vector(0.0, 5)
    assert np.allclose(vec, [1, 0, 0, 0, 0])
    vec, tail = k_vector(0.5, 4)
    assert np.allclose(vec, [1.0, 0.5, 0.25, 0.125])
    assert tail == pytest.approx(0.5**4 / 0.5)
    for N in (16, 64, 256):
        vec, _ = k_vector(0.6j, N)
        assert np.sum(np.abs(vec) ** 2) == pytest.approx(1.0 / (1.0 - 0.36), abs=0.36**N * 3 + 1e-13)
    with pytest.raises(ValueError):
        k_vector(1.0, 4)


def test_oracle_constant_weight_is_kernel_gram(regular):
    sec = build_section(regular, 256)
    u, v = 0.4 + 0.1j, -0.2 + 0.3j
    val = oracle_weak_measure(sec, u, v, lambda lam: 1.0)
    ref = sum((np.conj(u) * v) ** n for n in range(256))
    assert abs(val - ref) < 1e-12


def test_oracle_matches_chebyshev_integral(regular):
    g = smooth_bump(-0.5, 0.5)
    sec = build_section(regular, 1024)
    val = oracle_weak_measure(sec, 0.0, 0.0, g)
    lam = np.linspace(-0.5, 0.5, 40001)
    ref = np.trapezoid((1 - (2 * lam) ** 2) ** 3 * (2 / math.pi) * np.sqrt(1 - lam**2), lam)
    assert abs(val - ref) < 1e-4


def test_validate_errors_shrink(regular):
    g = smooth_bump(-0.5, 0.5)
    report = validate(regular, (-0.6, 0.6), g, [0.0, 0.3 + 0.2j], [128, 256, 512])
    assert report.monotone
    assert report.max_final_error < 5e-3


def test_validate_matches_pairwise_oracle(singular_asym):
    g = smooth_bump(0.2, 0.8)
    points = [0.1, 0.3 + 0.2j]
    report = validate(singular_asym, (0.1, 0.9), g, points, [64, 96])
    for row, N in enumerate(report.sizes):
        sec = build_section(singular_asym, N)
        for col, (u, v) in enumerate(report.pairs):
            err = abs(oracle_weak_measure(sec, u, v, g) - report.analytic[col])
            assert report.errors[row, col] == pytest.approx(err, abs=1e-13)


def test_broadcast_oracle_matches_pair_loop(singular_asym, fig2):
    # both section routes: the reflection split (singular_asym) and the
    # persymmetric reduction (fig2); the loop reads the eigenvectors directly
    g = smooth_bump(0.2, 0.8)
    pts = np.array([0.1, 0.3 + 0.2j, -0.5j])
    for sym, axis_found in ((singular_asym, True), (fig2, False)):
        sec = build_section(sym, 96)
        assert (sec.axis is not None) == axis_found
        coef = sec.eigenvectors.conj().T @ np.stack([k_vector(p, 96)[0] for p in pts], axis=1)
        weights = np.array([g(lam) for lam in sec.eigenvalues])
        loop = np.array([[np.sum(weights * coef[:, i] * np.conj(coef[:, k])) for k in range(3)]
                         for i in range(3)])
        gram = oracle_weak_measure(sec, pts[:, None], pts[None, :], g)
        assert gram.shape == (3, 3)
        assert np.allclose(gram, loop, rtol=1e-13, atol=1e-15)
        for i in range(3):
            for k in range(3):
                one = oracle_weak_measure(sec, pts[i], pts[k], g)
                assert isinstance(one, complex)
                assert abs(one - loop[i, k]) <= 1e-13 * abs(loop[i, k]) + 1e-15
        diag = oracle_weak_measure(sec, pts, pts[::-1], g)
        assert np.allclose(diag, [loop[0, 2], loop[1, 1], loop[2, 0]], rtol=1e-13, atol=1e-15)
        row = oracle_weak_measure(sec, pts[0], pts, g)
        assert np.allclose(row, loop[0], rtol=1e-13, atol=1e-15)
        report = validate(sym, (0.1, 0.9), g, list(pts), [96])
        assert np.array_equal(report.errors[0], np.abs(gram.ravel() - np.array(report.analytic)))


def test_validate_refuses_an_empty_list_of_sizes(regular, monkeypatch):
    def no_weak_measure(*args):
        raise AssertionError("weak measure computed")

    monkeypatch.setattr(oracle, "weak_measure", no_weak_measure)
    with pytest.raises(ValueError, match="sizes is an empty list"):
        validate(regular, (-0.6, 0.6), smooth_bump(-0.5, 0.5), [0.0, 0.3 + 0.2j], [])


def test_validate_outside_spectrum_is_null(regular):
    g = smooth_bump(2.0, 3.0)  # supported above gamma2
    sec = build_section(regular, 512)
    val = oracle_weak_measure(sec, 0.1, 0.2, g)
    assert abs(val) < 1e-10
    via_phi = weak_measure(regular, (-0.5, 0.5), 0.1, 0.2, lambda lam: 0.0)
    assert abs(via_phi) < 1e-14


def test_no_persistent_atoms(regular, singular):
    # absolute-continuity smoke test on the kernel-weighted eigenvalue
    # measure: with bins narrowing as 1/sqrt(N) its largest bin mass decays,
    # while any atom of the spectral measure would make it stall.  The raw
    # counting measure is no witness here: for piecewise-constant symbols it
    # concentrates on the symbol values by the Szego limit theorem.
    for sym in (regular, singular):
        g1, g2 = sym.essential_range()
        fracs = []
        for N in (128, 512, 2048):
            sec = build_section(sym, N)
            weights = np.abs(sec.eigenvectors[0, :]) ** 2
            bins = np.linspace(g1 - 1e-9, g2 + 1e-9, int(math.sqrt(N)) + 1)
            mass, _ = np.histogram(sec.eigenvalues, bins=bins, weights=weights)
            fracs.append(mass.max())
        assert fracs[2] < fracs[1] < fracs[0]
