"""The runtime is the Python standard library: every import in src/gvir is
relative (inside the package) or names a standard-library module."""

import ast
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "gvir"


def _imports(path):
    """(line, top-level module name or None for a relative import)."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom):
            yield node.lineno, None if node.level else node.module.partition(".")[0]


def test_every_import_is_relative_or_stdlib():
    files = sorted(SRC.glob("*.py"))
    assert len(files) > 5
    seen = 0
    outside = []
    for path in files:
        for line, name in _imports(path):
            seen += 1
            if name is not None and name not in sys.stdlib_module_names:
                outside.append(f"{path.name}:{line} imports {name}")
    assert seen > 20
    assert not outside, outside
