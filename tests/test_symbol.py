import json
import math

import numpy as np
import pytest

from conftest import random_symbol
from toepspec.levelset import exceptional_set
from toepspec.symbol import (
    ANGLE_TOL,
    DERIV_TOL,
    VALUE_TOL,
    JumpPoint,
    PiecewiseSymbol,
    TrigPoly,
    _distinct,
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


def test_jump_angle_test_is_elementwise(regular, singular, singular_asym, fig2):
    # on an array, _is_jump_angle gives its scalar answer at each angle: at
    # 0, 0.5 and 2 ANGLE_TOL on each side of each jump, also across 0 = 2 pi
    steps = np.array([0.0, 0.5, -0.5, 2.0, -2.0]) * ANGLE_TOL
    for sym in (singular, singular_asym, fig2):
        assert len(sym._jump_angles) >= 2
        for eta in sym._jump_angles:
            angles = eta + steps + np.array([[-TWO_PI], [0.0], [TWO_PI]])
            got = sym._is_jump_angle(angles)
            assert got.shape == angles.shape
            assert got.tolist() == [[sym._is_jump_angle(float(t)) for t in row] for row in angles]
            assert got.tolist() == [[abs(s) < ANGLE_TOL for s in steps]] * 3
    assert 0.0 in singular._jump_angles
    assert not regular._is_jump_angle(np.zeros((2, 3))).any()
    assert regular._is_jump_angle(0.0) is False


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


def test_a_curvature_that_overflows_is_refused():
    # on a piece a5 cos 5 theta the fourth derivative 625 a5 overflows at
    # a5 = 1e306, which the seam jets keep as inf; the curvature 25 a5
    # overflows at a5 = 1e307, which is refused
    def two_pieces(a5):
        return PiecewiseSymbol([(0.0, math.pi, TrigPoly([0.0] * 5 + [a5])),
                                (math.pi, TWO_PI, TrigPoly([0.0, 1.0]))])

    _, jets, _ = two_pieces(1e306)._seam_jets
    assert np.all(np.isfinite(jets[..., :4])) and np.all(np.isinf(jets[[0, 1], [1, 0], 4]))
    with pytest.raises(ValueError, match="coefficients"):
        two_pieces(1e307)


def reference_end_jets(piece) -> np.ndarray:
    """A piece's value and first four derivatives at its start and its end
    (2, 5), from scalar ``TrigPoly`` calls on the piece's polynomial and on
    its ``derivative()`` polynomials."""
    polys = [piece.poly]
    for _ in range(4):
        polys.append(polys[-1].derivative())
    return np.array([[float(p(t)) for p in polys] for t in (piece.theta_start, piece.theta_end)])


def reference_symbol_data(sym):
    """The jump set, the essential range, the exceptional set's three fields
    and the one-sided values at each seam, evaluated piece by piece with
    scalar calls: the reference for the symbol's end-jet table and
    critical-point list."""
    pairs = list(zip(sym.pieces[-1:] + sym.pieces[:-1], sym.pieces))
    jumps, one_sided = [], []
    for prev, piece in pairs:
        left, dleft = (float(f(prev.theta_end)) for f in (prev.poly, prev.poly.derivative()))
        right, dright = (float(f(piece.theta_start)) for f in (piece.poly, piece.poly.derivative()))
        one_sided.append((right, left))
        if abs(left - right) > VALUE_TOL * max(1.0, abs(left), abs(right)):
            jumps.append(JumpPoint(piece.theta_start, left, right, "plus" if left > right else "minus"))
        elif abs(dleft - dright) > DERIV_TOL * max(1.0, abs(dleft), abs(dright)):
            jumps.append(JumpPoint(piece.theta_start, left, right, "zero"))
    values, plateaus, points = [], [], []
    for piece in sym.pieces:
        a, b, poly = piece.theta_start, piece.theta_end, piece.poly
        values += [float(poly(a)), float(poly(b))]
        if poly.is_constant():
            plateaus.append(float(poly.a[0]))
        for r in poly.derivative().roots():
            for t in (r, r + TWO_PI):
                if a - ANGLE_TOL <= t <= b + ANGLE_TOL:
                    if a <= t <= b:
                        values.append(float(poly(t)))
                    tw = t % TWO_PI
                    on_jump = any(min(abs(tw - j.theta), TWO_PI - abs(tw - j.theta)) < ANGLE_TOL
                                  for j in jumps)
                    if not on_jump and not any(abs(tw - s) < 1e-9 or abs(abs(tw - s) - TWO_PI) < 1e-9
                                               for s, _ in points):
                        points.append((tw, float(poly(t))))
    thresholds = tuple(sorted({v for j in jumps for v in (j.left, j.right)}))
    return (tuple(jumps), (min(values), max(values)),
            (thresholds, _distinct(plateaus + [v for _, v in points]), tuple(points)), one_sided)


def bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def test_symbol_data_matches_scalar_evaluation(regular, singular, singular_asym, fig2,
                                               cos2_symbol):
    # each piece end and critical point is evaluated once per symbol, into
    # the end-jet table and the critical-point list; what is read from them
    # is bit for bit what scalar evaluation gives, and the table's
    # derivative columns are the derivative polynomials' values to 1e-13
    # of each column's scale, sum k^d (|a_k| + |b_k|)
    rng = np.random.default_rng(3301)
    symbols = [regular, singular, singular_asym, fig2, cos2_symbol]
    symbols += [random_symbol(rng) for _ in range(120)]
    for sym in symbols:
        jumps, essential, exceptional, one_sided = reference_symbol_data(sym)
        assert sym.jumps == jumps
        assert bits([(j.left, j.right) for j in sym.jumps]) == bits([(j.left, j.right) for j in jumps])
        assert bits(sym.essential_range()) == bits(essential)
        exc = exceptional_set(sym)
        assert bits(exc.thresholds) == bits(exceptional[0])
        assert bits(exc.critical) == bits(exceptional[1])
        assert bits(exc.critical_points) == bits(exceptional[2]) and len(exc.critical_points) == len(
            exceptional[2])
        assert bits([(sym.eval_one_sided(p.theta_start, "+"), sym.eval_one_sided(p.theta_start, "-"))
                     for p in sym.pieces]) == bits(one_sided)
        angles, jets, _ = sym._seam_jets
        for piece, table in zip(sym.pieces, sym._ends):
            want = reference_end_jets(piece)
            assert bits(table[:, 0]) == bits(want[:, 0])
            k = np.arange(len(piece.poly.a))
            scale = [np.sum(k**d * (np.abs(piece.poly.a) + np.abs((0.0,) + piece.poly.b)))
                     for d in range(1, 5)]
            assert np.all(np.abs(table[:, 1:] - want[:, 1:]) <= 1e-13 * np.array(scale))
        for eta, (left, right) in zip(angles, jets):
            i = int(np.flatnonzero(sym._starts == eta)[0])
            assert bits(left) == bits(sym._ends[i - 1, 1]) and bits(right) == bits(sym._ends[i, 0])
