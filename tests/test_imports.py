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
