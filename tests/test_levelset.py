import math

import numpy as np
import pytest

from toepspec import levelset
from toepspec.errors import ExceptionalLevelError, InadmissibleIntervalError
from toepspec.levelset import (
    GUARD,
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


def test_exceptional_sets(regular, singular):
    exc = exceptional_set(regular)
    assert exc.thresholds == ()
    assert exc.critical == (-1.0, 1.0)
    exc = exceptional_set(singular)
    assert exc.thresholds == (0.0, 1.0)
    assert exc.critical == (0.0, 1.0)
    assert len(exc.values) < math.inf


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
    calls = []
    real = levelset.solve_level

    def counted(s, lam):
        calls.append(lam)
        return real(s, lam)

    monkeypatch.setattr(levelset, "solve_level", counted)
    lams = np.linspace(-0.9, 0.9, 300)
    for lam in lams:
        assert spectral_frame(sym, float(lam)).m == 1
    # one solve per level set, plus the five samples of the interval's report
    assert len(calls) == len(lams) + 5


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
