import json
import math

import numpy as np
import pytest

from toepspec.symbol import (
    PiecewiseSymbol,
    TrigPoly,
    certified_roots,
    named_symbol,
    preset_singular,
)

TWO_PI = 2.0 * math.pi


def test_eval_presets(regular, singular):
    assert regular.eval(0.0) == pytest.approx(1.0)
    assert regular.eval(math.pi / 2) == pytest.approx(0.0, abs=1e-15)
    assert singular.eval(math.pi / 2) == pytest.approx(1.0)


def test_eval_at_jump_is_ambiguous(singular):
    with pytest.raises(ValueError, match="ambiguous"):
        singular.eval(0.0)
    with pytest.raises(ValueError, match="ambiguous"):
        singular.eval(math.pi)


def test_one_sided_limits(regular, singular):
    assert singular.eval_one_sided(0.0, "+") == pytest.approx(1.0)
    assert singular.eval_one_sided(0.0, "-") == pytest.approx(0.0)
    for eta in (0.0, 1.3, math.pi):
        assert regular.eval_one_sided(eta, "+") == pytest.approx(regular.eval_one_sided(eta, "-"))


def test_derivative(regular, singular):
    assert regular.derivative_values(0.0) == pytest.approx(0.0)
    assert regular.derivative_values(math.pi / 2) == pytest.approx(-1.0)
    assert singular.derivative_values(1.0) == 0.0
    assert np.array_equal(regular.derivative_values(np.array([0.3, 2.0])),
                          -np.sin(np.array([0.3, 2.0])))


def test_essential_range(regular, singular):
    assert regular.essential_range() == pytest.approx((-1.0, 1.0))
    assert singular.essential_range() == pytest.approx((0.0, 1.0))
    shifted = PiecewiseSymbol([(0.0, TWO_PI, TrigPoly([0.7, 1.0]))])
    g1, g2 = shifted.essential_range()
    assert (g1, g2) == pytest.approx((-0.3, 1.7))


def test_constant_symbol_rejected():
    with pytest.raises(ValueError, match="constant"):
        PiecewiseSymbol([(0.0, TWO_PI, TrigPoly([1.0]))])


def test_fourier_coefficients(regular, singular):
    assert regular.fourier_coefficient(1) == pytest.approx(0.5)
    assert regular.fourier_coefficient(0) == pytest.approx(0.0)
    assert singular.fourier_coefficient(0) == pytest.approx(0.5)


def scalar_fourier_coefficient(sym, n: int) -> complex:
    """The closed form one mode at a time, in a Python loop: the reference
    for the array evaluation."""
    total = 0.0 + 0.0j
    for piece in sym.pieces:
        t0, t1 = piece.theta_start, piece.theta_end
        c = piece.poly._laurent()
        K = piece.poly.degree
        for m in range(-K, K + 1):
            cm = c[m + K]
            if cm == 0.0:
                continue
            k = m - n
            if k == 0:
                total += cm * (t1 - t0)
            else:
                total += cm * (np.exp(1j * k * t1) - np.exp(1j * k * t0)) / (1j * k)
    return complex(total / TWO_PI)


def test_fourier_coefficients_array_matches_scalar(regular, singular, singular_asym, fig2,
                                                   cos2_symbol):
    N = 4096
    for sym in (regular, singular, singular_asym, fig2, cos2_symbol):
        ref = np.array([scalar_fourier_coefficient(sym, n) for n in range(N)])
        assert np.max(np.abs(sym.fourier_coefficients(N) - ref)) <= 1e-16
        for n in (-5, -1, 0, 3, N - 1, N + 7):
            assert abs(sym.fourier_coefficient(n) - scalar_fourier_coefficient(sym, n)) <= 1e-16


def test_fourier_conjugate_symmetry(regular, singular_asym, fig2):
    for sym in (regular, singular_asym, fig2):
        for n in range(0, 9):
            a = sym.fourier_coefficient(n)
            b = sym.fourier_coefficient(-n)
            assert abs(b - np.conj(a)) < 1e-14


def test_preset_jump_sets(regular, singular):
    assert regular.jumps == ()
    kinds = {j.theta: j.kind for j in singular.jumps}
    assert kinds[0.0] == "minus"
    assert kinds[math.pi] == "plus"
    for iv in singular.jump_intervals:
        assert (iv.low, iv.high) == (0.0, 1.0)


def test_singular_preset_full_circle_rejected():
    with pytest.raises(ValueError):
        preset_singular(0.3, 0.3)


def test_jump_classification_partitions(fig2, singular_asym):
    for sym in (fig2, singular_asym):
        kinds = [j.kind for j in sym.jumps]
        assert all(k in ("plus", "minus", "zero") for k in kinds)
        n_pm = sum(1 for k in kinds if k != "zero")
        assert n_pm + sum(1 for k in kinds if k == "zero") == len(sym.jumps)


def test_s0_detection():
    # equal one-sided values, mismatched derivatives at theta = pi
    sym = PiecewiseSymbol([
        (0.0, math.pi, TrigPoly([0.0, 1.0])),          # cos t, ends at -1
        (math.pi, TWO_PI, TrigPoly([-1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0])),  # -1 + sin 3t
    ])
    kinds = {round(j.theta, 12): j.kind for j in sym.jumps}
    assert kinds[round(math.pi, 12)] == "zero"


def test_roundtrip_bit_exact(regular, singular_asym, fig2):
    for sym in (regular, singular_asym, fig2):
        text = sym.serialize()
        back = PiecewiseSymbol.parse(text)
        assert back.serialize() == text
        for p, q in zip(sym.pieces, back.pieces):
            assert p.poly.a == q.poly.a and p.poly.b == q.poly.b
            assert p.theta_start == q.theta_start and p.theta_end == q.theta_end
        assert [(j.theta, j.left, j.right, j.kind) for j in sym.jumps] == [
            (j.theta, j.left, j.right, j.kind) for j in back.jumps
        ]


def test_grid_values_within_range(regular, singular_asym, fig2):
    for sym in (regular, singular_asym, fig2):
        g1, g2 = sym.essential_range()
        theta = np.linspace(0.0, TWO_PI, 10_000, endpoint=False) + 1e-4
        vals = sym.values(theta)
        assert np.max(vals) <= g2 + 1e-12
        assert np.min(vals) >= g1 - 1e-12


def test_named_symbols():
    assert named_symbol("regular").name == "regular"
    s = named_symbol("singular:0.25:2.0")
    assert s.eval(1.0) == 1.0
    with pytest.raises(ValueError):
        named_symbol("nonsense")


def test_trigpoly_derivative_coefficients():
    p = TrigPoly([1.0, 2.0, 0.5], [3.0, -1.0])
    d = p.derivative()
    theta = np.linspace(0.1, 6.0, 7)
    h = 1e-6
    fd = (p(theta + h) - p(theta - h)) / (2 * h)
    assert np.allclose(d(theta), fd, atol=1e-8)


def test_trigpoly_roots_polished():
    p = TrigPoly([0.0, 1.0])  # cos t
    r = p.roots(0.3)
    assert len(r) == 2
    assert np.max(np.abs(np.cos(r) - 0.3)) < 1e-13
    assert abs(r[0] - math.acos(0.3)) < 1e-13


def test_certified_roots_against_polyval_and_np_roots():
    # 300 seeded complex rows of degree 1-10, one stacked call per degree:
    # each row's worst backward error is the one np.polyval gives at its
    # roots, and at most 1e-15; the roots are np.roots' to 1e-13 relative
    rng = np.random.default_rng(2803)
    degrees = rng.integers(1, 11, 300)
    assert set(degrees) == set(range(1, 11))
    for n in range(1, 11):
        c = rng.normal(size=(np.sum(degrees == n), n + 1, 2)) @ np.array([1.0, 1j])
        zeta, worst, error = certified_roots(c)
        assert zeta.shape == error.shape == (len(c), n) and worst.shape == (len(c),)
        for row, roots, w in zip(c, zeta, worst):
            backward = np.abs(np.polyval(row, roots)) / np.polyval(np.abs(row), np.abs(roots))
            assert w == np.max(backward) and w <= 1e-15
            want = np.roots(row)
            nearest = np.argmin(np.abs(roots[:, None] - want[None, :]), axis=1)
            assert sorted(nearest) == list(range(n))
            assert np.max(np.abs(roots - want[nearest]) / np.abs(want[nearest])) <= 1e-13


def test_parse_from_json_dict():
    d = {"pieces": [{"theta_start": 0.0, "theta_end": TWO_PI, "a": [0.0, 1.0], "b": []}]}
    sym = PiecewiseSymbol.from_dict(json.loads(json.dumps(d)))
    assert sym.eval(0.0) == pytest.approx(1.0)


@pytest.mark.parametrize("piece", [{"a": "01"}, {"a": [0.0, 1.0], "b": "1"}, {"a": (0.0, 1.0)}])
def test_from_dict_takes_coefficient_lists_only(piece):
    # a string would iterate as digits: "01" loaded as cos theta
    with pytest.raises(TypeError):
        PiecewiseSymbol.from_dict({"pieces": [dict(theta_start=0.0, theta_end=TWO_PI, **piece)]})


@pytest.mark.parametrize("a", [[0.0, 1e308, 1e308], [0.0, 1e-320], [0.0, math.inf], [math.nan, 1.0]])
def test_out_of_range_coefficients_are_refused(a):
    with pytest.raises(ValueError, match="coefficients"):
        PiecewiseSymbol([(0.0, TWO_PI, TrigPoly(a))])
