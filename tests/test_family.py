"""A FrameFamily solves, checks and evaluates all its levels as arrays; these
tests hold it to the per-level frames and records it stands for."""

import math
import threading
from dataclasses import fields, replace

import numpy as np
import pytest

from conftest import doctor_crossings, random_symbol
from toepspec import hardy, levelset, spectral
from toepspec.diagonal import (
    FrameFamily,
    HardyVector,
    phi_adjoint,
    phi_adjoint_taylor,
    phi_map_family,
    phi_on_taylor,
    phi_r,
)
from toepspec.errors import CountingError, FormMismatchError, QuadratureError
from toepspec.hardy import gauss_legendre, q_function, xi_grid
from toepspec.levelset import admissible_intervals
from toepspec.oracle import smooth_bump
from toepspec.spectral import spectral_frame, weak_measure
from toepspec.symbol import PiecewiseSymbol, TrigPoly, preset_regular


def fresh(sym) -> PiecewiseSymbol:
    """A copy of the symbol with nothing stored for it yet."""
    return PiecewiseSymbol([(p.theta_start, p.theta_end, p.poly) for p in sym.pieces])


def inner_interval(sym) -> tuple[float, float]:
    """The widest admissible interval, shrunk by a tenth at each end."""
    a, b = max(admissible_intervals(sym), key=lambda iv: iv[1] - iv[0])
    return a + 0.1 * (b - a), b - 0.1 * (b - a)


@pytest.fixture(scope="module")
def symbols(regular, singular, singular_asym, fig2, cos2_symbol):
    rng = np.random.default_rng(23)
    return [regular, singular, singular_asym, fig2, cos2_symbol] + [random_symbol(rng)
                                                                     for _ in range(4)]


def assert_same_record(x, y):
    for field in fields(x):
        a, b = getattr(x, field.name), getattr(y, field.name)
        if field.name == "pieces":
            assert len(a) == len(b)
            for p, q in zip(a, b):
                assert all(np.array_equal(s, t) for s, t in zip(p, q)), field.name
        else:
            assert np.array_equal(a, b), field.name


# -- the store ------------------------------------------------------------------------


def test_family_records_match_level_by_level_solves(symbols, monkeypatch):
    zs = np.array([0.3 + 0.2j, -0.55j, 0.7])
    for sym in symbols:
        iv = inner_interval(sym)
        batch, alone = fresh(sym), fresh(sym)
        fam = FrameFamily(batch, iv, n_grid=12)
        stored = levelset._record(batch).levels
        for lam in fam.lams:
            assert_same_record(stored[float(lam)], levelset._level_factors(alone, float(lam)))
        # the points' Q and xi do not depend on which solve stored the record
        for lam in fam.lams[::4]:
            assert np.array_equal(q_function(batch, zs, lam), q_function(alone, zs, lam))
            assert np.array_equal(xi_grid(batch, zs, lam), xi_grid(alone, zs, lam))
        # a family on levels already stored solves nothing, whichever solve
        # stored them (the interval's count solves five levels of its own)
        levelset.counting_report(alone, iv)
        solved = []
        factor = levelset._factor_level
        monkeypatch.setattr(levelset, "_factor_level",
                            lambda s, lams: solved.extend(lams) or factor(s, lams))
        FrameFamily(alone, iv, n_grid=12)
        FrameFamily(batch, iv, n_grid=12)
        assert not solved
        monkeypatch.undo()


# -- agreement with the per-level frames ------------------------------------------------


def close(got, want, tol=1e-14) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and np.max(np.abs(got - want)) <= tol * np.max(np.abs(want))


def looped_weak_measure(sym, interval, u, v, g, rtol=1e-9):
    """``weak_measure`` summed over the per-level frames' own densities."""
    a, b = interval

    def sample(n):
        fam = FrameFamily(sym, interval, n_grid=n)
        _, w = gauss_legendre(n)
        return sum(wl * g(lam) * fr.density(u, v)
                   for wl, lam, fr in zip(w, fam.lams, fam.frames)) * 0.5 * (b - a)

    n, prev = 32, sample(32)
    while True:
        n *= 2
        cur = sample(n)
        if np.all(np.abs(cur - prev) <= rtol * np.maximum(1.0, np.abs(cur))):
            return cur
        prev = cur


def test_family_evaluators_match_the_frames(symbols):
    f = HardyVector.of((1.0, 0.3 + 0.2j), (0.5j, -0.4), (-0.7, 0.1 - 0.6j))
    cs = np.array([c for c, _ in f.terms])
    zs = np.array([z for _, z in f.terms])
    boundary = np.array([f(w) for w in np.exp(2j * math.pi * np.arange(512) / 512)])
    u = np.array([0.2 - 0.1j, 0.5j])
    for sym in symbols:
        iv = inner_interval(sym)
        fam = FrameFamily(sym, iv, n_grid=10)
        frames = fam.frames
        assert len(frames) == len(fam) and fam.m == frames[0].m
        assert np.array_equal(fam.lams, [fr.lam for fr in frames])
        want = np.array([np.conj(fr.eigen_matrix(zs)) @ cs for fr in frames])
        assert close(phi_map_family(fam, f), want)
        # r = 0.9 keeps the 512 samples as the trapezoid grid
        want = np.array([np.mean(boundary * np.conj(fr.eigen_circle(0.9, 512)), axis=1)
                         for fr in frames])
        assert close(phi_r(fam, boundary, 0.9), want)
        values = np.arange(1.0, 1.0 + len(fam) * fam.m).reshape(len(fam), fam.m) * (1 - 0.5j)
        want = sum(w * np.dot(fr.eigen_matrix([0.1 + 0.3j]).ravel(), g)
                   for w, fr, g in zip(fam.weights, frames, values))
        assert close(phi_adjoint(fam, values, 0.1 + 0.3j), want)
        want = np.array([fr.eigen_taylor(5) for fr in frames])
        assert close(fam.taylor(5), want)
        g = smooth_bump(*iv)
        want = looped_weak_measure(sym, iv, u[:, None], u[None, :], g)
        assert close(weak_measure(sym, iv, u[:, None], u[None, :], g), want)


def test_chunks_are_views_of_the_checked_frame(regular, singular, singular_asym, fig2,
                                              cos2_symbol, monkeypatch):
    for sym in (regular, singular, singular_asym, fig2, cos2_symbol):
        frame = FrameFamily(sym, inner_interval(sym), n_grid=12).frame
        for width in (4096 // 5, 4096 // 2):
            parts = list(frame._parts(width))
            assert len(parts) > 1
            for part, view in parts:
                want = spectral.SpectralFrame(sym, frame.level[part])
                assert view.sym is sym and view.m == want.m
                assert list(view.level) == list(want.level)
                for name in ("lam", "c", "_ends", "_alpha", "_beta", "_rho"):
                    got, ref = getattr(view, name), getattr(want, name)
                    assert got.shape == ref.shape and np.array_equal(got, ref), name
    # the family's evaluators read those views: no level is counted again
    fam = FrameFamily(regular, (-0.5, 0.5), n_grid=300)
    boundary = 1.0 / (1.0 - 0.3 * np.exp(2j * math.pi * np.arange(512) / 512))
    calls = []
    report = spectral.level_report
    monkeypatch.setattr(spectral, "level_report", lambda s, lam: calls.append(lam) or report(s, lam))
    phi_r(fam, boundary, 0.99)
    fam.taylor(40)
    assert not calls


def test_per_level_frames_are_views_of_the_checked_frame(regular, singular, singular_asym, fig2,
                                                         cos2_symbol, monkeypatch):
    calls = []
    report = spectral.level_report
    monkeypatch.setattr(spectral, "level_report", lambda s, lam: calls.append(lam) or report(s, lam))
    for sym in (regular, singular, singular_asym, fig2, cos2_symbol):
        fam = FrameFamily(sym, inner_interval(sym), n_grid=12)
        del calls[:]
        frames = fam.frames
        assert not calls and len(frames) == len(fam)
        for level, view in zip(fam.frame.level, frames):
            want = spectral.SpectralFrame(sym, level)
            assert view.sym is sym and view.level is level and view.m == want.m
            assert type(view.lam) is type(want.lam) and type(view.c) is type(want.c)
            for name in ("lam", "c", "_ends", "_alpha", "_beta", "_rho"):
                got, ref = getattr(view, name), getattr(want, name)
                assert np.shape(got) == np.shape(ref) and np.array_equal(got, ref), name


def test_phi_r_builds_its_circle_grid_once():
    fam = FrameFamily(preset_regular(), (-0.5, 0.5), n_grid=300)
    boundary = 1.0 / (1.0 - 0.3 * np.exp(2j * math.pi * np.arange(512) / 512))
    hardy._circle_grid.cache_clear()
    phi_r(fam, boundary, 0.99)
    assert hardy._circle_grid.cache_info().misses == 1


def test_taylor_orders_below_zero_are_refused(regular, monkeypatch):
    fam = FrameFamily(regular, (-0.5, 0.5), n_grid=8)
    frame = fam.frames[0]
    assert spectral._taylor_points(np.int64(40), 0.98) == spectral._taylor_points(40, 0.98)

    def no_circle(*args):
        raise AssertionError("circle pass")

    monkeypatch.setattr(hardy, "xi_circle", no_circle)
    calls = [lambda: frame.eigen_taylor(-1), lambda: frame.density_taylor(-2),
             lambda: fam.taylor(-1), lambda: fam.taylor(-3, 0.9),
             lambda: phi_on_taylor(fam, np.array([])),
             lambda: phi_adjoint_taylor(fam, np.ones((len(fam), fam.m)), -1)]
    # an order that is not an integer is refused as early
    for nmax in (2.5, np.float64(3.0)):
        calls += [lambda n=nmax: frame.eigen_taylor(n), lambda n=nmax: frame.density_taylor(n),
                  lambda n=nmax: fam.taylor(n), lambda n=nmax: fam.taylor(n, 0.9),
                  lambda n=nmax: phi_adjoint_taylor(fam, np.ones((len(fam), fam.m)), n)]
    for call in calls:
        with pytest.raises(ValueError, match="Taylor order must be an integer at least 0"):
            call()


# -- errors: the family raises what the per-level loop raises first ----------------------


def grid(interval, n_grid):
    x, _ = gauss_legendre(n_grid)
    a, b = interval
    return 0.5 * (a + b) + 0.5 * (b - a) * x


def first_error(sym, lams):
    """(index, error) of the first level whose frame fails, one level at a time."""
    for k, lam in enumerate(lams):
        try:
            spectral_frame(sym, float(lam))
        except Exception as exc:  # compared with the family's below
            return k, exc
    return None, None


def assert_family_fails_like_the_loop(sym, interval, n_grid, k):
    """The family on a fresh copy of the symbol raises the error that the
    per-level loop raises first, and that one at level k; returns it."""
    at, want = first_error(fresh(sym), grid(interval, n_grid))
    assert at == k, (at, want)
    with pytest.raises(type(want)) as info:
        FrameFamily(fresh(sym), interval, n_grid=n_grid)
    assert type(info.value) is type(want) and str(info.value) == str(want)
    assert getattr(info.value, "achieved_tol", None) == getattr(want, "achieved_tol", None)
    return want


def doctor_eigvals(monkeypatch, shifts):
    """Move every root of cos theta - lam by ``shifts[lam]`` at the levels it
    names; the companion matrix of that level starts with 2 lam."""
    eigvals = np.linalg.eigvals

    def doctored(a):
        out = eigvals(a)
        for lam, shift in shifts.items():
            out = np.where((a[..., 0, 0] == 2.0 * lam)[..., None], out + shift, out)
        return out

    monkeypatch.setattr(np.linalg, "eigvals", doctored)


def test_family_raises_the_first_failing_levels_error(monkeypatch):
    sym, interval, n_grid = preset_regular(), (-0.5, 0.4), 16
    lams = grid(interval, n_grid)
    k1, k2 = 5, 11

    # a perturbed root at two levels: the first one's certificate fails
    doctor_eigvals(monkeypatch, {lams[k1]: 0.05, lams[k2]: 0.5})
    want = assert_family_fails_like_the_loop(sym, interval, n_grid, k1)
    assert isinstance(want, QuadratureError)
    monkeypatch.undo()

    # a doctored record fails its sign check at k1, before the certificate
    # that fails at k2 in the array solve
    doctored = {float(lams[k1]): lambda t: [t[0] - 0.3, t[1] + 0.3],
                float(lams[k2]): lambda t: t[:1]}
    doctor_crossings(monkeypatch, lambda lam, t: doctored[lam](t) if lam in doctored else t)
    doctor_eigvals(monkeypatch, {lams[k2 + 1]: 0.05})
    want = assert_family_fails_like_the_loop(sym, interval, n_grid, k1)
    assert isinstance(want, CountingError) and "sign check" in str(want)
    monkeypatch.undo()

    # the odd crossing count of k2 alone
    doctor_crossings(monkeypatch, lambda lam, t: t[:1] if lam == float(lams[k2]) else t)
    want = assert_family_fails_like_the_loop(sym, interval, n_grid, k2)
    assert isinstance(want, CountingError) and "odd number" in str(want)
    monkeypatch.undo()

    # a count that the interval's report does not share, at two levels
    report = levelset.level_report

    def mismatched(s, lam):
        rep = report(s, lam)
        extra = {float(lams[k1]): 1, float(lams[k2]): 2}.get(lam, 0)
        return replace(rep, m=rep.m + extra)

    monkeypatch.setattr(spectral, "level_report", mismatched)
    want = assert_family_fails_like_the_loop(sym, interval, n_grid, k1)
    assert isinstance(want, FormMismatchError) and "report says 2" in str(want)
    # the frame's count check at k1 comes before the level set that fails at k2
    doctor_crossings(monkeypatch, lambda lam, t: t[:1] if lam == float(lams[k2]) else t)
    want = assert_family_fails_like_the_loop(sym, interval, n_grid, k1)
    assert isinstance(want, FormMismatchError)


def test_many_level_input_errors_name_the_problem(monkeypatch):
    cos3 = PiecewiseSymbol([(0.0, 2.0 * math.pi, TrigPoly([0.0, 1.0, 0.0, 0.6]))])
    # levels of the intervals with m = 1 and m = 3 cannot share one frame
    with pytest.raises(ValueError, match="one arc count: level -0.889 has 1 arcs and "
                                         "level 0.0 has 3"):
        spectral_frame(cos3, np.array([-0.889, 0.0]))
    with pytest.raises(ValueError, match="array of levels is empty"):
        spectral_frame(cos3, np.array([]))
    with pytest.raises(ValueError, match="array of levels is empty"):
        xi_grid(cos3, [0.1], np.array([]))
    # a level whose count its report does not share still fails first
    report = levelset.level_report
    monkeypatch.setattr(spectral, "level_report", lambda s, lam: replace(
        report(s, lam), m=report(s, lam).m + (lam == 0.5)))
    with pytest.raises(FormMismatchError, match="level set has 1 arcs but the counting "
                                                "report says 2"):
        spectral_frame(cos3, np.array([-0.889, 0.0, 0.5]))


@pytest.mark.parametrize("call", [
    lambda sym, lams: spectral_frame(sym, lams),
    lambda sym, lams: xi_grid(sym, [0.1], lams),
    lambda sym, lams: hardy.xi_circle(sym, lams, 0.9, 512),
], ids=["spectral_frame", "xi_grid", "xi_circle"])
def test_many_level_input_of_another_shape_is_refused(call, regular):
    # one level axis only: a 2-D array names its shape
    with pytest.raises(ValueError, match=r"must be 1-D, not of shape \(1, 2\)"):
        call(regular, np.array([[0.1, 0.2]]))


def test_frame_of_no_level_sets_is_refused(regular):
    with pytest.raises(ValueError, match="one level set at least"):
        spectral.SpectralFrame(regular, [])


# -- log_fourier's work arrays ------------------------------------------------------------


def in_new_thread(fn):
    """fn() in a thread of its own, whose work arrays start fresh."""
    out = []
    thread = threading.Thread(target=lambda: out.append(fn()))
    thread.start()
    thread.join()
    return out[0]


def test_log_fourier_reuses_its_work_arrays_bit_for_bit(fig2, cos2_symbol):
    # fig2 has crossings and jumps, cos2 crossings alone; the levels include
    # ones above the range, without crossings
    cases = [(sym, lam) for lam in (0.3, -0.45, 1.2) for sym in (fig2, cos2_symbol)]
    want = [in_new_thread(lambda: hardy.log_fourier(sym, lam)) for sym, lam in cases]
    for work in hardy._grid_work():
        work.fill(np.nan)
    for _ in range(2):
        for (sym, lam), w in zip(cases, want):
            assert np.array_equal(hardy.log_fourier(sym, lam), w)

    start = threading.Barrier(2)
    errors = []

    def alternate(order):
        start.wait()
        try:
            for _ in range(3):
                for i in order:
                    sym, lam = cases[i]
                    assert np.array_equal(hardy.log_fourier(sym, lam), want[i])
        except Exception as exc:  # surfaced by the assertion below
            errors.append(exc)

    threads = [threading.Thread(target=alternate, args=(order,))
               for order in (range(len(cases)), range(len(cases) - 1, -1, -1))]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not any(t.is_alive() for t in threads)
    assert not errors
