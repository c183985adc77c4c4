import json
import math

import numpy as np
import pytest

from conftest import (
    doctor_crossings,
    random_symbol,
    reference_crossings,
    reference_signed_crossings,
    reference_solve_level,
    value_gap,
)
from toepspec import cli, hardy, levelset
from toepspec.errors import (
    CountingError,
    ExceptionalLevelError,
    InadmissibleIntervalError,
    ToepspecError,
)
from toepspec.levelset import (
    GUARD,
    LevelSet,
    admissible_intervals,
    counting_report,
    exceptional_set,
    level_report,
    solve_level,
    sublevel_set,
)
from toepspec.spectral import spectral_frame
from toepspec.symbol import PiecewiseSymbol, TrigPoly, preset_regular

TWO_PI = 2.0 * math.pi


def test_solve_level_regular(regular):
    roots = solve_level(regular, 0.0)
    assert len(roots) == 2
    (t1, s1), (t2, s2) = roots
    assert t1 == pytest.approx(math.pi / 2, abs=1e-13) and s1 == -1
    assert t2 == pytest.approx(3 * math.pi / 2, abs=1e-13) and s2 == 1

    roots = solve_level(regular, 0.5)
    assert [t for t, _ in roots] == pytest.approx([math.pi / 3, 5 * math.pi / 3], abs=1e-13)


def test_solve_level_singular_empty(singular):
    assert solve_level(singular, 0.5) == []


def test_solve_level_guards(regular):
    with pytest.raises(ExceptionalLevelError):
        solve_level(regular, 1.0 - 1e-10)


@pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
def test_solve_level_rejects_non_finite_level(regular, fig2, lam):
    for sym in (regular, fig2):
        with pytest.raises(ValueError, match="not finite"):
            solve_level(sym, lam)
    with pytest.raises(ValueError):
        sublevel_set(fig2, math.nan)
    with pytest.raises(ValueError):
        spectral_frame(fig2, math.nan)


def test_non_real_levels_raise_value_error(regular, fig2):
    for sym in (regular, fig2):
        for call in (lambda lam: solve_level(sym, lam), lambda lam: sublevel_set(sym, lam),
                     lambda lam: spectral_frame(sym, lam)):
            with pytest.raises(ValueError, match="not real"):
                call(0.3 + 0.1j)


def _gap(x, y) -> float:
    d = abs(x - y) % TWO_PI
    return min(d, TWO_PI - d)


def test_one_level_gate_refuses_the_closed_range_only(regular, singular_asym, fig2):
    # every level route refuses a level within GUARD of an exceptional value
    # in [g1, g2], g1 and g2 included, and serves, or raises another typed
    # error, just outside the range
    cos3 = TrigPoly([0.0, 1.0, 0.0, 0.6])
    rng = np.random.default_rng(1919)
    symbols = [regular, singular_asym, fig2,
               PiecewiseSymbol([(0.0, 2.0, cos3), (2.0, TWO_PI, cos3)])]
    symbols += [random_symbol(rng) for _ in range(2)]
    outside = 0
    for sym in symbols:
        g1, g2 = sym.essential_range()
        exc = exceptional_set(sym)
        assert g1 in exc.values and g2 in exc.values
        for v in exc.values:
            for d in (0.0, 0.5, -0.5, 2.0, -2.0):
                lam = v + d * GUARD
                refused = g1 <= lam <= g2 and value_gap(exc, lam) < GUARD
                avoid = np.concatenate((reference_crossings(sym, lam), sym._starts))
                theta = next(t for t in np.linspace(0.0, TWO_PI, 128, endpoint=False)
                             if all(_gap(t, a) >= 0.1 for a in avoid))
                calls = (lambda: sublevel_set(sym, lam), lambda: solve_level(sym, lam),
                         lambda: hardy.boundary_sigma(sym, theta, lam),
                         lambda: hardy.xi_circle(sym, lam, 0.9, 512),
                         lambda: hardy.log_fourier(sym, lam))
                for call in calls:
                    assert (_outcome(call) is ExceptionalLevelError) == refused, (sym, lam)
                outside += not g1 <= lam <= g2
    assert outside >= 4 * len(symbols)


def _accepts(call) -> bool:
    """Whether the call returns, False if it refuses its level or interval."""
    try:
        call()
    except (ExceptionalLevelError, InadmissibleIntervalError, ValueError):
        return False
    return True


def test_every_route_admits_the_same_guarded_bounds(regular, singular, singular_asym, fig2,
                                                    cos2_symbol):
    # an admissible interval (a, b) admits the closed range [a + GUARD,
    # b - GUARD]: the gate, the level report, the frame and the interval
    # count agree at both bounds and at the float on each side of each
    rng = np.random.default_rng(3434)
    symbols = [regular, singular, singular_asym, fig2, cos2_symbol]
    symbols += [random_symbol(rng) for _ in range(2)]
    seen = set()
    for sym in symbols:
        mu = hardy.MuMeasure(sym, 0.3 + 0.2j, [])
        for a, b in admissible_intervals(sym):
            mid = 0.5 * (a + b)
            for bound in (a + GUARD, b - GUARD):
                for lam in (float(np.nextafter(bound, -math.inf)), bound,
                            float(np.nextafter(bound, math.inf))):
                    pair = (lam, mid) if lam < mid else (mid, lam)
                    verdicts = {_accepts(lambda: levelset._check_level(sym, lam)),
                                _accepts(lambda: level_report(sym, lam)),
                                _accepts(lambda: spectral_frame(sym, lam)),
                                _accepts(lambda: counting_report(sym, pair))}
                    assert len(verdicts) == 1, (sym, lam)
                    seen |= verdicts
                    assert 0.0 <= mu.at(lam) <= 1.0, (sym, lam)
    assert seen == {True, False}


@pytest.mark.parametrize("pick, match", [
    # one of cos t's two crossings at 0: an odd count
    (lambda lam, t: t[:1], "odd number"),
    # two downward crossings, both in (0, pi)
    (lambda lam, t: [1.0, 2.0], "do not alternate"),
    # alternating crossings 0.3 from the true ones: cos t > 0 inside the arc
    (lambda lam, t: [t[0] - 0.3, t[1] + 0.3], "sign check"),
])
def test_sublevel_set_counting_errors(monkeypatch, pick, match):
    sym = preset_regular()
    doctor_crossings(monkeypatch, pick)
    with pytest.raises(CountingError, match=match):
        sublevel_set(sym, 0.0)


@pytest.mark.parametrize("pick, match", [
    # the sampled levels above 0.5 lose their crossings
    (lambda lam, t: t if lam < 0.5 else t[:0], "vary"),
    # every level keeps only its downward crossing
    (lambda lam, t: t[:1], "inconsistency"),
])
def test_count_counting_errors(monkeypatch, pick, match):
    sym = preset_regular()   # fresh: its interval has no stored report
    doctor_crossings(monkeypatch, pick)
    with pytest.raises(CountingError, match=match):
        counting_report(sym, (-0.9, 0.9))


def test_cli_levelset_counting_error_exits_2(monkeypatch, capsys):
    doctor_crossings(monkeypatch, lambda lam, t: t[:1])
    assert cli.run(["levelset", "--symbol", "regular", "--lambda=0.0"]) == 2
    assert "odd number" in capsys.readouterr().err


def test_exceptional_sets(regular, singular):
    exc = exceptional_set(regular)
    assert exc.thresholds == ()
    assert exc.critical == (-1.0, 1.0)
    exc = exceptional_set(singular)
    assert exc.thresholds == (0.0, 1.0)
    assert exc.critical == (0.0, 1.0)
    assert len(exc.values) < math.inf


def test_rounding_twins_are_one_exceptional_value(capsys, tmp_path):
    # cos t + 0.6 cos 3t reaches each of -8/45 and 8/45 at two critical
    # angles, whose values differ by rounding only: one value each, so three
    # admissible intervals and no interval 3e-16 wide without a level in it
    cos3 = PiecewiseSymbol([(0.0, TWO_PI, TrigPoly([0.0, 1.0, 0.0, 0.6]))])
    exc = exceptional_set(cos3)
    assert len(exc.critical_points) == 6
    assert len(exc.critical) == len(exc.values) == 4
    assert np.all(np.diff(exc.values) > 1e-12)
    intervals = admissible_intervals(cos3)
    assert [level_report(cos3, 0.5 * (a + b)).m for a, b in intervals] == [1, 3, 1]
    path = tmp_path / "cos3.json"
    path.write_text(cos3.serialize())
    assert cli.run(["spectrum", "--symbol", str(path)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["admissible_intervals"] == [list(iv) for iv in intervals]
    assert data["critical"] == list(exc.critical)


def test_exceptional_set_computed_once_per_symbol(fig2):
    exc = exceptional_set(fig2)
    assert exceptional_set(fig2) is exc
    fresh = PiecewiseSymbol([(p.theta_start, p.theta_end, p.poly) for p in fig2.pieces])
    assert exceptional_set(fresh) is not exc
    assert exceptional_set(fresh) == exc


def test_sublevel_regular(regular):
    ls = sublevel_set(regular, 0.0)
    assert ls.m == 1
    arc = ls.arcs[0]
    assert arc.alpha == pytest.approx(math.pi / 2, abs=1e-13)
    assert arc.beta == pytest.approx(3 * math.pi / 2, abs=1e-13)
    assert ls.measure == pytest.approx(0.5, abs=1e-13)
    assert arc.alpha_kind == "root" and arc.beta_kind == "root"


def test_sublevel_singular(singular, singular_asym):
    for sym, (t1, t2) in ((singular, (0.0, math.pi)), (singular_asym, (0.7, 2.9))):
        for lam in (0.25, 0.5, 0.75):
            ls = sublevel_set(sym, lam)
            assert ls.m == 1
            arc = ls.arcs[0]
            assert arc.alpha % TWO_PI == pytest.approx(t2, abs=1e-12)
            assert arc.beta % TWO_PI == pytest.approx(t1, abs=1e-12)
            assert arc.alpha_kind == "jump" and arc.beta_kind == "jump"


def test_sublevel_outside_range(regular):
    assert sublevel_set(regular, -2.0).arcs == ()
    full = sublevel_set(regular, 2.0)
    assert full.full and full.measure == 1.0


def test_no_crossings_just_outside_the_range(regular):
    # a near-double root next to gamma1 or gamma2 is not a crossing of a level
    # the symbol never reaches
    rng = np.random.default_rng(5)
    symbols = [regular, PiecewiseSymbol([(0.0, TWO_PI, TrigPoly([0.0, 1.0, 0.0, 0.6]))])]
    symbols += [random_symbol(rng) for _ in range(30)]
    checked = 0
    for sym in symbols:
        g1, g2 = sym.essential_range()
        for d in (1e-12, 1e-13, 1e-14, 1e-15):
            for lam, end in ((g1 - d, g1), (g2 + d, g2)):
                if lam == end:
                    continue
                assert solve_level(sym, lam) == [], (sym, lam)
                assert len(levelset._level_factors(sym, lam).crossings) == 0, (sym, lam)
                checked += 1
    assert checked >= 200


def test_counting_reports(regular, singular, fig2):
    rep = counting_report(regular, (-0.5, 0.5))
    assert (rep.n_plus, rep.n_minus, rep.s_plus, rep.s_minus, rep.m) == (1, 1, 0, 0, 1)
    rep = counting_report(singular, (0.2, 0.8))
    assert (rep.n_plus, rep.n_minus, rep.s_plus, rep.s_minus, rep.m) == (0, 0, 1, 1, 1)
    rep = counting_report(fig2, (-0.5, 0.5))
    assert (rep.n_plus, rep.n_minus, rep.s_plus, rep.s_minus, rep.m) == (1, 1, 1, 1, 2)


def test_counting_inadmissible(regular):
    with pytest.raises(InadmissibleIntervalError):
        counting_report(regular, (-2.0, 2.0))
    with pytest.raises(InadmissibleIntervalError):
        counting_report(regular, (0.5, 1.0))


def test_admissible_intervals(regular, singular):
    assert admissible_intervals(regular) == [(-1.0, 1.0)]
    assert admissible_intervals(singular) == [(0.0, 1.0)]
    # interior critical value splits the range
    sym = PiecewiseSymbol([(0.0, TWO_PI, TrigPoly([0.0, 0.5, 1.0]))])
    ivs = admissible_intervals(sym)
    assert len(ivs) >= 2
    cuts = [iv[1] for iv in ivs[:-1]]
    assert any(abs(c - 0.5) < 1e-9 for c in cuts)  # omega(pi) = -0.5 + 1 = 0.5


def test_counting_report_is_a_fact_of_the_interval(regular, fig2):
    sym = PiecewiseSymbol([(0.0, TWO_PI, TrigPoly([0.0, 0.5, 1.0]))])
    for s in (regular, fig2, sym):
        for a, b in admissible_intervals(s):
            w = b - a
            lower = counting_report(s, (a + 0.05 * w, a + 0.4 * w))
            upper = counting_report(s, (a + 0.6 * w, b - 0.05 * w))
            assert lower == upper == level_report(s, a + 0.5 * w)


def test_interval_guard_at_an_interior_exceptional_value():
    sym = PiecewiseSymbol([(0.0, TWO_PI, TrigPoly([0.0, 0.5, 1.0]))])
    cut = admissible_intervals(sym)[0][1]
    counting_report(sym, (cut - 0.3, cut - 2.0 * GUARD))
    counting_report(sym, (cut + 2.0 * GUARD, cut + 0.3))
    for iv in ((cut - 0.3, cut - 0.5 * GUARD), (cut + 0.5 * GUARD, cut + 0.3),
               (cut - 0.1, cut + 0.1)):
        with pytest.raises(InadmissibleIntervalError):
            counting_report(sym, iv)
    with pytest.raises(ValueError):
        level_report(sym, cut + 0.5 * GUARD)


def test_frames_on_one_interval_count_once(monkeypatch):
    sym = preset_regular()  # a fresh symbol: nothing counted for it yet
    solves, gates = [], []
    factor, gate = levelset._factor_level, levelset._check_level

    def counted_factor(s, lams):
        solves.extend(lams)
        return factor(s, lams)

    def counted_gate(s, lam):
        gates.append(lam)
        return gate(s, lam)

    monkeypatch.setattr(levelset, "_factor_level", counted_factor)
    monkeypatch.setattr(levelset, "_check_level", counted_gate)
    # reports asked for sub-intervals are the interval's one report
    first = counting_report(sym, (-0.5, 0.2))
    assert counting_report(sym, (0.1, 0.7)) is first
    lams = np.linspace(-0.9, 0.9, 300)
    for lam in lams:
        assert spectral_frame(sym, float(lam)).m == 1
    # one solve and one gate per level set, plus the five samples of the
    # interval's one report
    assert len(solves) == len(gates) == len(lams) + 5


def test_sublevel_sets_gate_each_level_once_and_take_slopes_once(monkeypatch, fig2):
    # levels below, inside and above the range, and one refused at gamma2
    def outcome(x):
        return (type(x), str(x)) if isinstance(x, Exception) else x

    lams = list(np.linspace(-1.2, 1.2, 40)) + [1.0]
    alone = PiecewiseSymbol([(p.theta_start, p.theta_end, p.poly) for p in fig2.pieces])
    want = [outcome(levelset.sublevel_sets(alone, [lam])[0]) for lam in lams]
    sym = PiecewiseSymbol([(p.theta_start, p.theta_end, p.poly) for p in fig2.pieces])
    exceptional_set(sym)
    gates, slopes = [], []
    gate, slope = levelset._check_level, PiecewiseSymbol.derivative_values
    monkeypatch.setattr(levelset, "_check_level", lambda s, lam: gates.append(lam) or gate(s, lam))
    monkeypatch.setattr(PiecewiseSymbol, "derivative_values",
                        lambda s, theta: slopes.append(len(theta)) or slope(s, theta))
    got = [outcome(x) for x in levelset.sublevel_sets(sym, lams)]
    assert got == want
    assert gates == lams
    # one call, at every root crossing of every level
    roots = sum([a.alpha_kind, a.beta_kind].count("root")
                for x in want if isinstance(x, LevelSet) for a in x.arcs)
    assert slopes == [roots] and roots > len(lams)
    assert [x[0] for x in want if isinstance(x, tuple)] == [ExceptionalLevelError]


def test_arc_count_matches_multiplicity(regular, singular, fig2):
    cases = ((regular, (-0.5, 0.5)), (singular, (0.2, 0.8)), (fig2, (-0.5, 0.5)))
    for sym, (a, b) in cases:
        rep = counting_report(sym, (a, b))
        for lam in np.linspace(a + 0.05, b - 0.05, 5):
            ls = sublevel_set(sym, lam)
            assert ls.m == rep.m
            alphas = sum(1 for arc in ls.arcs)
            betas = alphas
            assert alphas == betas == rep.m


def test_monotone_in_level(regular, fig2):
    for sym, (a, b) in ((regular, (-0.5, 0.5)), (fig2, (-0.5, 0.5))):
        small = sublevel_set(sym, a + 0.1)
        big = sublevel_set(sym, b - 0.1)
        for arc in small.arcs:
            samples = np.linspace(arc.alpha + 1e-6, arc.beta - 1e-6, 16)
            for t in samples:
                assert any(parent.contains(t % TWO_PI) for parent in big.arcs)


def test_measure_strictly_inside_unit_interval(regular, singular, fig2):
    for sym in (regular, singular, fig2):
        g1, g2 = sym.essential_range()
        for lam in np.linspace(g1 + 0.05, g2 - 0.05, 7):
            try:
                ls = sublevel_set(sym, lam)
            except ExceptionalLevelError:
                continue
            assert 0.0 < ls.measure < 1.0


def test_sublevel_near_range_edges(regular):
    ls = sublevel_set(regular, 1.0 - 1e-6)
    assert ls.m == 1 and 0.999 < ls.measure < 1.0
    ls = sublevel_set(regular, -1.0 + 1e-6)
    assert ls.m == 1 and 0.0 < ls.measure < 0.001


def test_endpoint_provenance(fig2):
    ls = sublevel_set(fig2, 0.2)
    kinds = [(a.alpha_kind, a.beta_kind) for a in ls.arcs]
    assert ("root", "jump") in kinds and ("jump", "root") in kinds
    # alpha endpoints are downward crossings: omega above the level before,
    # below after
    eps = 1e-5
    for arc in ls.arcs:
        if arc.alpha_kind == "root":
            before = fig2.eval((arc.alpha - eps) % TWO_PI)
            after = fig2.eval((arc.alpha + eps) % TWO_PI)
            assert before > ls.lam > after


# -- crossings read from the level's root record -----------------------------------


def _outcome(fn, *args):
    """The result of fn, or the type of the library error it raised."""
    try:
        return fn(*args)
    except ToepspecError as exc:
        return type(exc)


def _probe_levels(sym, rng, n_far):
    """Levels drawn across the range, and on both sides of every exceptional
    value at 2e-9 to 1e-4 from it, and at 0.5 GUARD from it."""
    g1, g2 = sym.essential_range()
    levels = list(rng.uniform(g1, g2, n_far))
    for v in exceptional_set(sym).values:
        for side in (-1.0, 1.0):
            levels.append(v + side * 10.0 ** rng.uniform(math.log10(2e-9), -4.0))
            levels.append(v + side * 0.5 * GUARD)
    return levels


def _assert_crossings_match(monkeypatch, sym, levels):
    exc = exceptional_set(sym)
    for lam in levels:
        gap = value_gap(exc, lam)
        if GUARD <= gap < 2e-9:
            continue
        tol = 1e-12 if gap >= 1e-4 else 1e-10
        got = _outcome(solve_level, sym, lam)
        want = _outcome(reference_solve_level, sym, lam)
        if isinstance(want, type) or isinstance(got, type):
            assert got is want, (lam, got, want)
        else:
            assert [s for _, s in got] == [s for _, s in want], lam
            diff = np.abs(np.array([t for t, _ in got]) - [t for t, _ in want])
            assert np.all(np.minimum(diff, TWO_PI - diff) <= tol), lam
        with monkeypatch.context() as m:
            m.setattr(levelset, "_signed_crossings", reference_signed_crossings)
            want = _outcome(sublevel_set, sym, lam)
        got = _outcome(sublevel_set, sym, lam)
        if isinstance(want, type) or isinstance(got, type):
            assert got is want, (lam, got, want)
            continue
        assert got.full == want.full and got.m == want.m, lam
        for x, y in zip(got.arcs, want.arcs):
            assert (x.alpha_kind, x.beta_kind) == (y.alpha_kind, y.beta_kind)
            assert abs(x.alpha - y.alpha) <= tol and abs(x.beta - y.beta) <= tol, lam


def test_crossings_match_theta_newton_on_test_symbols(monkeypatch, regular, singular,
                                                      singular_asym, fig2, cos2_symbol):
    rng = np.random.default_rng(89)
    for sym in (regular, singular, singular_asym, fig2, cos2_symbol):
        _assert_crossings_match(monkeypatch, sym, _probe_levels(sym, rng, 12))


def test_crossings_match_theta_newton_on_random_symbols(monkeypatch):
    rng = np.random.default_rng(97)
    for _ in range(16):
        sym = random_symbol(rng)
        _assert_crossings_match(monkeypatch, sym, _probe_levels(sym, rng, 6))


def test_crossing_on_a_smooth_seam_counts_once(regular):
    # cos theta in two pieces that meet where it crosses the level: both
    # pieces find that crossing, and the level set is regular's
    cos = TrigPoly([0.0, 1.0])
    split = PiecewiseSymbol([(math.pi / 3, 4.0, cos), (4.0, math.pi / 3 + TWO_PI, cos)])
    assert split.jumps == ()
    lam = math.cos(math.pi / 3)
    assert [s for _, s in solve_level(split, lam)] == [-1, 1]
    got, want = sublevel_set(split, lam), sublevel_set(regular, lam)
    assert got.m == want.m == 1
    assert abs(got.arcs[0].alpha - want.arcs[0].alpha) <= 1e-12
    assert abs(got.arcs[0].beta - want.arcs[0].beta) <= 1e-12


def test_level_set_and_q_share_one_root_solve(monkeypatch, fig2):
    # the frame's crossings, Q and log_fourier at a level all read the one
    # record stored for it
    sym = PiecewiseSymbol([(p.theta_start, p.theta_end, p.poly) for p in fig2.pieces])
    level_report(sym, 0.3)   # the interval's count solves five levels of its own
    solves = []
    factor = levelset._factor_level

    def counted(sym, lams):
        solves.extend(lams)
        return factor(sym, lams)

    monkeypatch.setattr(levelset, "_factor_level", counted)
    frame = spectral_frame(sym, 0.3)
    frame.eigen_matrix([0.2, 0.5j])
    frame.eigen_circle(0.9, 256)
    hardy.log_fourier(sym, 0.3)
    assert solves == [0.3]
