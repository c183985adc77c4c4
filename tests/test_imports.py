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


# Phi and its adjoint on function data: one circle pass reads the
# eigenfunctions for the Taylor-coefficient sums of both, and one frame's
# Taylor coefficients are the other reader.
def test_two_functions_read_the_eigenfunctions_on_a_circle():
    found = [name for name, fn in package_functions()
             if any(isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "eigen_circle"
                    for node in ast.walk(fn))]
    assert sorted(found) == ["src/toepspec/diagonal.py:_circle_samples",
                             "src/toepspec/spectral.py:SpectralFrame.eigen_taylor"]


# The lambda-integrals: one rule, spectral._settle, doubles its node count
# until the sum settles; no function of spectral.py or diagonal.py runs a
# doubling loop of samples of its own, and no fixed node count is left.
def test_one_function_doubles_the_lambda_rule():
    found = []
    for name, fn in package_functions():
        if not name.startswith(("src/toepspec/spectral.py:", "src/toepspec/diagonal.py:")):
            continue
        for loop in ast.walk(fn):
            if not isinstance(loop, ast.While):
                continue
            doubled = {node.target.id for node in ast.walk(loop)
                       if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Mult)
                       and isinstance(node.target, ast.Name)
                       and isinstance(node.value, ast.Constant) and node.value.value == 2}
            if any(isinstance(arg, ast.Name) and arg.id in doubled for node in ast.walk(loop)
                   if isinstance(node, ast.Call) for arg in node.args):
                found.append(name)
    assert found == ["src/toepspec/spectral.py:_settle"]
    for path in sorted((ROOT / "src").rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        assert "n_nodes" not in text and "n_grid=64" not in text, path


# Symbol data: each piece's derivative polynomial is built once, when the
# symbol is, and its end jets come from the one end-jet table, not from a
# per-polynomial jet.
def test_derivative_polynomials_are_built_with_the_symbol():
    found = [name for name, fn in package_functions()
             if any(isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "derivative"
                    for node in ast.walk(fn))]
    assert found == ["src/toepspec/symbol.py:PiecewiseSymbol.__init__"]
    methods = [name for name, _ in package_functions() if ":TrigPoly." in name]
    assert "src/toepspec/symbol.py:TrigPoly.roots" in methods
    assert "src/toepspec/symbol.py:TrigPoly._jet" not in methods


# The two exceptional sets: one rule decides each. The admissible intervals'
# lookup (PiecewiseSymbol.admitting) decides which levels are off the
# exceptional values, and _is_jump_angle which angles are on the jump set; no
# package function measures a level's distance to the exceptional values or
# matches rounded angles.
def test_one_rule_each_for_exceptional_levels_and_jump_angles():
    found = [name for name, fn in package_functions() for node in ast.walk(fn)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and (node.func.attr == "distance"
                  or node.func.attr == "isin" and getattr(node.func.value, "id", None) == "np")]
    assert not found


# The symbol holds both exceptional sets: only symbol.py computes the
# exceptional set and the one module-level GUARD, no package code reaches them
# through a level-set record's analysis, and the root store is bounded by its
# record count, not by array bytes.
def test_the_symbol_holds_the_exceptional_set():
    built = [name for name, fn in package_functions() for node in ast.walk(fn)
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "ExceptionalSet"]
    assert built == ["src/toepspec/symbol.py:PiecewiseSymbol.exceptional"]
    guards = [f"{path.relative_to(ROOT)}" for path in sorted((ROOT / "src" / "toepspec").rglob("*.py"))
              for top in ast.parse(path.read_text(encoding="utf-8")).body
              if isinstance(top, ast.Assign) and any(getattr(t, "id", None) == "GUARD"
                                                      for t in top.targets)]
    assert guards == ["src/toepspec/symbol.py"]
    calls = [name for name, fn in package_functions() for node in ast.walk(fn)
             if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "analysed"]
    assert not calls
    for path in sorted((ROOT / "src").rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        assert "nbytes" not in text and "LEVEL_STORE_BYTES" not in text, path
