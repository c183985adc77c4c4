"""Outside-in tracing of the toepspec layers.

The tracer replaces the listed public functions with wrappers that record
one span per call: name, parent span, job id, start and end.  Wrappers are
installed from the benchmark process at every place the function object is
bound (module globals, re-exports and aliases such as ``spectral.xi_point``),
so calls between library modules are seen as well as calls from the
benchmark.  Nothing under ``src/`` changes.

Self time of a span is its duration minus the union of its children's
intervals on the timeline; ``runtime.parallel_map`` runs its children on
pool threads, so children can overlap, and that overlap is reported so the
self times still add up to the wall time.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time

JOB_SPAN = "bench.job"

# (metric prefix, module, attribute path) of every layer function the
# benchmark traces, grouped by the workload whose end-to-end numbers it
# should move.
TRACED = (
    # oracle workload
    ("oracle.build_section", "oracle", "build_section"),
    ("oracle.validate", "oracle", "validate"),
    ("oracle.oracle_weak_measure", "oracle", "oracle_weak_measure"),
    ("runtime.parallel_map", "runtime", "parallel_map"),
    ("symbol.fourier_coefficient", "symbol", "PiecewiseSymbol.fourier_coefficient"),
    # point-queries workload (and first passes of sweep)
    ("hardy.log_rule", "hardy", "log_rule"),
    ("hardy.plain_rule", "hardy", "plain_rule"),
    ("hardy.xi", "hardy", "xi"),
    ("hardy.xi_grid", "hardy", "xi_grid"),
    ("hardy.boundary_xi", "hardy", "boundary_xi"),
    ("levelset.exceptional_set", "levelset", "exceptional_set"),
    ("levelset.sublevel_set", "levelset", "sublevel_set"),
    ("levelset.counting_report", "levelset", "counting_report"),
    ("cli.run", "cli", "run"),
    ("spectral.resolvent_form", "spectral", "resolvent_form"),
    # sweep workload
    ("hardy.log_fourier", "hardy", "log_fourier"),
    ("hardy.xi_circle", "hardy", "xi_circle"),
    ("spectral.spectral_frame", "spectral", "spectral_frame"),
    ("spectral.SpectralFrame.density", "spectral", "SpectralFrame.density"),
    ("spectral.weak_measure", "spectral", "weak_measure"),
    ("spectral.stone_density", "spectral", "stone_density"),
    ("diagonal.FrameFamily", "diagonal", "FrameFamily"),
    ("diagonal.phi_map_family", "diagonal", "phi_map_family"),
    ("diagonal.phi_r", "diagonal", "phi_r"),
)


class Tracer:
    """In-memory span recorder with the rule-build counter.

    ``active`` gates recording: reference checks run with it off so the
    trace holds only the work the jobs asked for.
    """

    def __init__(self):
        self.active = False
        self.spans: list[tuple] = []   # (id, parent, job, name, t0, t1)
        self.rule_builds = 0
        self.rule_builds_max_depth = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._restore: list[tuple] = []

    # -- context -----------------------------------------------------------

    def _current(self):
        loc = self._local
        return getattr(loc, "parent", None), getattr(loc, "job", None)

    def _set(self, parent, job):
        self._local.parent = parent
        self._local.job = job

    def span(self, name: str, fn, /, *args, **kwargs):
        """Call fn inside a span that is a child of the current one."""
        if not self.active:
            return fn(*args, **kwargs)
        parent, job = self._current()
        return self._record(name, parent, job, fn, args, kwargs)

    def job(self, job_id: int, fn):
        """Call fn inside a root span of its own job."""
        if not self.active:
            return fn()
        return self._record(JOB_SPAN, None, job_id, fn, (), {})

    def _record(self, name, parent, cur_job, fn, args, kwargs):
        saved = self._current()
        sid = next(self._ids)
        self._set(sid, cur_job)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._set(*saved)
            self.spans.append((sid, parent, cur_job, name, t0, t1))

    # -- installation --------------------------------------------------------

    def _wrap_function(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.span(name, fn, *args, **kwargs)

        return wrapper

    def _wrap_parallel_map(self, name, fn):
        """parallel_map runs ``fn`` on pool threads, which do not inherit the
        caller's thread-local context: hand them the span and job id."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(f, items):
            if not tracer.active:
                return fn(f, items)

            def body():
                parent, job = tracer._current()

                def in_context(x):
                    saved = tracer._current()
                    tracer._set(parent, job)
                    try:
                        return f(x)
                    finally:
                        tracer._set(*saved)

                return fn(in_context, items)

            return tracer.span(name, body)

        return wrapper

    def _wrap_init(self, name, cls):
        tracer = self
        init = cls.__init__

        @functools.wraps(init)
        def wrapper(obj, *args, **kwargs):
            return tracer.span(name, init, obj, *args, **kwargs)

        return init, wrapper

    def install(self, package):
        """Wrap every TRACED function of ``package`` and count CircleRule
        builds.  ``uninstall`` puts the originals back."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == package.__name__
                                         or key.startswith(package.__name__ + "."))]
        for name, mod_name, qualname in TRACED:
            owner = sys.modules[f"{package.__name__}.{mod_name}"]
            parts = qualname.split(".")
            if len(parts) == 2:        # a method: patch the class attribute
                cls = getattr(owner, parts[0])
                orig = cls.__dict__[parts[1]]
                self._patch(cls, parts[1], orig, self._wrap_function(name, orig))
                continue
            orig = getattr(owner, qualname)
            if isinstance(orig, type):  # a class: trace its constructor
                init, wrapper = self._wrap_init(name, orig)
                self._patch(orig, "__init__", init, wrapper)
                continue
            if qualname == "parallel_map":
                wrapper = self._wrap_parallel_map(name, orig)
            else:
                wrapper = self._wrap_function(name, orig)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        self._patch(mod, attr, orig, wrapper)
        self._count_rule_builds(sys.modules[f"{package.__name__}.hardy"])

    def _count_rule_builds(self, hardy):
        tracer = self
        cls = hardy.CircleRule
        init = cls.__init__
        max_depth = hardy.MAX_DEPTH

        @functools.wraps(init)
        def counted(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            if tracer.active:
                tracer.rule_builds += 1
                if obj.depth >= max_depth:
                    tracer.rule_builds_max_depth += 1

        self._patch(cls, "__init__", init, counted)

    def _patch(self, owner, attr, orig, new):
        self._restore.append((owner, attr, orig))
        setattr(owner, attr, new)

    def uninstall(self):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    # -- cost of one span ------------------------------------------------------

    def span_cost(self, n: int = 20000) -> float:
        """Seconds one span adds to a call, measured on a no-op."""

        def noop():
            return None

        wrapped = self._wrap_function("calibrate", noop)
        saved_active, saved_spans = self.active, self.spans
        self.active, self.spans = True, []
        try:
            t0 = time.perf_counter()
            for _ in range(n):
                noop()
            bare = time.perf_counter() - t0
            t0 = time.perf_counter()
            for _ in range(n):
                wrapped()
            traced = time.perf_counter() - t0
        finally:
            self.active, self.spans = saved_active, saved_spans
        return max(traced - bare, 0.0) / n


def _union_length(intervals) -> float:
    total = 0.0
    end = -float("inf")
    for t0, t1 in sorted(intervals):
        if t1 <= end:
            continue
        total += t1 - max(t0, end)
        end = t1
    return total


def self_times(spans):
    """Per span id: (name, self time, sibling overlap of its children)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for sid, parent, _job, _name, t0, t1 in spans:
        if parent is not None:
            children.setdefault(parent, []).append((t0, t1))
    out = {}
    for sid, _parent, _job, name, t0, t1 in spans:
        kids = children.get(sid, ())
        covered = _union_length(kids)
        overlap = sum(b - a for a, b in kids) - covered
        out[sid] = (name, (t1 - t0) - covered, overlap)
    return out
