"""The benchmark tracer's names must keep resolving in the package."""

import importlib
import importlib.util
import pathlib
import sys

import toepspec
import toepspec.cli  # noqa: F401  (the tracer wraps cli.run)

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(mod_name, qualname):
    obj = importlib.import_module(f"toepspec.{mod_name}")
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj


def _package_state():
    """Identity snapshot of every module global and class attribute."""
    state = {}
    for key, mod in list(sys.modules.items()):
        if mod is None or not (key == "toepspec" or key.startswith("toepspec.")):
            continue
        for attr, val in vars(mod).items():
            state[(key, attr)] = val
            if isinstance(val, type) and val.__module__.startswith("toepspec"):
                for cattr, cval in vars(val).items():
                    state[(key, attr, cattr)] = cval
    return state


def test_traced_names_resolve():
    for name, mod_name, qualname in _tracing().TRACED:
        assert callable(_resolve(mod_name, qualname)), name


def test_install_wraps_once_and_uninstall_restores():
    tracing = _tracing()
    before = _package_state()
    tracer = tracing.Tracer()
    tracer.install(toepspec)
    try:
        for name, mod_name, qualname in tracing.TRACED:
            obj = _resolve(mod_name, qualname)
            wrapped = obj.__init__ if isinstance(obj, type) else obj
            # one wrapper per traced name: two names sharing one function
            # object would nest a wrapper inside another
            assert hasattr(wrapped, "__wrapped__"), name
            assert not hasattr(wrapped.__wrapped__, "__wrapped__"), name
    finally:
        tracer.uninstall()
    after = _package_state()
    assert after.keys() == before.keys()
    changed = [key for key, val in before.items() if after[key] is not val]
    assert changed == []


def test_tracer_sees_the_closed_circle_route():
    # every frame's circle values pass through the traced xi_circle, also
    # where the level's closed form serves them
    tracing = _tracing()
    tracer = tracing.Tracer()
    tracer.install(toepspec)
    try:
        tracer.active = True
        tracer.job(1, lambda: toepspec.spectral_frame(toepspec.preset_regular(), 0.3)
                   .eigen_circle(0.9, 256))
    finally:
        tracer.active = False
        tracer.uninstall()
    (job,) = [sid for sid, _, _, name, _, _ in tracer.spans if name == tracing.JOB_SPAN]
    circle = [parent for _, parent, _, name, _, _ in tracer.spans if name == "hardy.xi_circle"]
    assert circle == [job]
