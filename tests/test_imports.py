"""The package reaches scipy only through its public names."""

import ast
from pathlib import Path

import sketchlsq

_SOURCES = sorted(Path(sketchlsq.__file__).parent.glob("*.py"))


def _imported_names(tree):
    """Every dotted name an absolute import statement in `tree` binds or reads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


def test_the_scan_sees_every_module():
    assert {path.stem for path in _SOURCES} >= {"__init__", "sketches", "linalg", "solver"}


def test_no_private_scipy_import():
    private = [
        f"{path.name}: {name}"
        for path in _SOURCES
        for name in _imported_names(ast.parse(path.read_text(), str(path)))
        if name.split(".")[0] == "scipy" and any(part.startswith("_") for part in name.split("."))
    ]
    assert not private, private
