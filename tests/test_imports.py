"""The package and its tests import neither scipy nor mpmath: they may be
installed, but neither is a declared dependency."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
UNDECLARED = {"scipy", "mpmath"}


def imported_modules(path: Path):
    """The absolute module names that a file's import statements name."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_no_undeclared_imports():
    files = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
    assert len(files) > 10
    found = [f"{path.relative_to(ROOT)}: {name}" for path in files
             for name in imported_modules(path) if name.split(".")[0] in UNDECLARED]
    assert not found


# The panel rules: no package code outside their own definitions names them,
# so that they stay the tests' independent reference.
PANEL_ROUTE = {"CircleRule", "LogRule", "plain_rule", "log_rule"}
PANEL_NAMES = {"CircleRule", "plain_rule", "log_rule"}


def test_package_leaves_the_panel_rules_to_the_tests():
    found = []
    for path in sorted((ROOT / "src" / "toepspec").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for top in tree.body:
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and top.name in PANEL_ROUTE:
                continue
            for node in ast.walk(top):
                name = (node.id if isinstance(node, ast.Name)
                        else node.attr if isinstance(node, ast.Attribute)
                        else node.name if isinstance(node, ast.alias) else None)
                if name in PANEL_NAMES:
                    found.append(f"{path.relative_to(ROOT)}:{getattr(node, 'lineno', '?')}: {name}")
    assert not found


# The level gate: one function decides which real levels are refused for
# their distance to the exceptional set.
def test_one_function_refuses_levels_near_the_exceptional_set():
    found = []
    for path in sorted((ROOT / "src" / "toepspec").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            names = {node.id if isinstance(node, ast.Name) else node.attr
                     for node in ast.walk(fn) if isinstance(node, (ast.Name, ast.Attribute))}
            raised = {node.id if isinstance(node, ast.Name) else node.attr
                      for r in ast.walk(fn) if isinstance(r, ast.Raise) and r.exc is not None
                      for node in ast.walk(r.exc) if isinstance(node, (ast.Name, ast.Attribute))}
            if "GUARD" in names and "ExceptionalLevelError" in raised:
                found.append(f"{path.relative_to(ROOT)}:{fn.name}")
    assert found == ["src/toepspec/levelset.py:_check_level"]


def package_functions():
    """(path:name, node) of every module-level function and method in src/toepspec."""
    for path in sorted((ROOT / "src" / "toepspec").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        functions = [(f"{top.name}.", fn) for top in tree.body if isinstance(top, ast.ClassDef)
                     for fn in top.body]
        functions += [("", top) for top in tree.body]
        for prefix, fn in functions:
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield f"{path.relative_to(ROOT)}:{prefix}{fn.name}", fn


# The crossing classification: one function decides which of a level's roots
# cross the circle, and one which of a piece's critical points lie on it.
def test_one_function_classifies_roots_on_the_circle():
    found = []
    for name, fn in package_functions():
        names = {node.id if isinstance(node, ast.Name) else node.attr
                 for node in ast.walk(fn) if isinstance(node, (ast.Name, ast.Attribute))}
        if "UNIT_ROOT_TOL" in names:
            found.append(name)
    assert sorted(found) == ["src/toepspec/levelset.py:_factor_level",
                             "src/toepspec/symbol.py:TrigPoly.roots"]


# The eigenfunctions: one function assembles them on both sides of the circle
# from the branch weights, and the explicit product stays its cross-check.
def test_one_function_assembles_the_eigenfunctions():
    found = [name for name, fn in package_functions()
             if name != "src/toepspec/spectral.py:SpectralFrame.__init__"
             and any(isinstance(node, ast.Attribute) and node.attr == "_rho"
                     and isinstance(node.ctx, ast.Load) for node in ast.walk(fn))]
    assert sorted(found) == ["src/toepspec/spectral.py:SpectralFrame._branches",
                             "src/toepspec/spectral.py:SpectralFrame.eigenfunction_product"]


# The frames: a frame is built, and its levels checked, only from level sets;
# the chunks and the per-level frames that the evaluators read are views of a
# checked frame.
def test_frames_are_built_in_two_places():
    found = {name for name, fn in package_functions() for node in ast.walk(fn)
             if isinstance(node, ast.Call)
             and (node.func.id if isinstance(node.func, ast.Name)
                  else getattr(node.func, "attr", None)) == "SpectralFrame"}
    assert sorted(found) == ["src/toepspec/spectral.py:SpectralFrame.alt_frame",
                             "src/toepspec/spectral.py:spectral_frame"]


# The branches are read from the arc end points that a frame holds, and the
# explicit product is their cross-check.
def test_two_functions_read_the_frame_end_points():
    found = [name for name, fn in package_functions()
             if any(isinstance(node, ast.Attribute) and node.attr == "_alpha"
                    and isinstance(node.ctx, ast.Load) for node in ast.walk(fn))]
    assert sorted(found) == ["src/toepspec/spectral.py:SpectralFrame._branches",
                             "src/toepspec/spectral.py:SpectralFrame.eigenfunction_product"]


# The circle grid: one function builds r e^{2 pi i k/m}.
def test_one_function_builds_the_circle_grid():
    found = [name for name, fn in package_functions()
             if any(isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "exp"
                    and any(isinstance(sub, ast.Constant) and sub.value == 2j
                            for sub in ast.walk(node))
                    and any(isinstance(sub, ast.Call) and getattr(sub.func, "attr", None) == "arange"
                            for sub in ast.walk(node))
                    for node in ast.walk(fn))]
    assert found == ["src/toepspec/hardy.py:_circle_grid"]
