"""linalg judges rank by one rule: the R-diagonal test `_require_full_rank`."""

import ast
from pathlib import Path

import sketchlsq.linalg as linalg


def _rank_raises(tree):
    """Line numbers of every `raise RankDeficient(...)` in `tree`."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = exc.id if isinstance(exc, ast.Name) else getattr(exc, "attr", None)
            if name == "RankDeficient":
                lines.add(node.lineno)
    return lines


def test_only_the_r_diagonal_test_raises_rank_deficient():
    tree = ast.parse(Path(linalg.__file__).read_text(), linalg.__file__)
    rule = next(
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "_require_full_rank"
    )
    assert _rank_raises(rule), "the rank rule no longer raises RankDeficient"
    assert _rank_raises(tree) == _rank_raises(rule)
