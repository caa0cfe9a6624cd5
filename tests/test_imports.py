"""Import rules the package states in prose, held by parsing its source:

- it reaches scipy only through public names;
- only `linalg` imports `scipy.linalg`, so that the second OpenBLAS pool
  scipy ships never wakes to contend with numpy's for the cores;
- `solver` looks up every hadamard, sketches and linalg function at call
  time, so that the benchmark's spans and the tests that wrap or replace
  those names in `solver` see every call;
- it calls no NumPy function that NumPy 2 added, since `pyproject.toml`
  declares `numpy>=1.24`.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import sketchlsq
import sketchlsq.solver as solver

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


def _names_scipy_linalg(tree):
    """Whether `tree` imports scipy.linalg or reads it as `scipy.linalg`."""
    imported = any(
        name.split(".")[:2] == ["scipy", "linalg"] for name in _imported_names(tree)
    )
    read = any(
        isinstance(node, ast.Attribute) and node.attr == "linalg"
        and isinstance(node.value, ast.Name) and node.value.id == "scipy"
        for node in ast.walk(tree)
    )
    return imported or read


def test_only_linalg_imports_scipy_linalg():
    users = [
        path.name for path in _SOURCES
        if _names_scipy_linalg(ast.parse(path.read_text(), str(path)))
    ]
    assert users == ["linalg.py"]


_KERNEL_MODULES = ("hadamard", "sketches", "linalg")


def _kernels(tree):
    """Local names of the functions `tree` imports from the kernel modules."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module in _KERNEL_MODULES:
            module = importlib.import_module(f"sketchlsq.{node.module}")
            for alias in node.names:
                if inspect.isfunction(getattr(module, alias.name)):
                    names.add(alias.asname or alias.name)
    return names


def _is_partial(func):
    return (isinstance(func, ast.Name) and func.id == "partial") or (
        isinstance(func, ast.Attribute) and func.attr == "partial"
    )


def _captures(tree, kernels):
    """(line, name) of every kernel reference evaluated outside a function
    body: at module or class level, in a default argument, an annotation or
    a decorator, or bound into a `partial(...)`; and of every kernel import
    below module level, which binds a name the module's globals never see."""
    found = []

    def visit(node, at_call_time):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module in _KERNEL_MODULES:
            found.append((node.lineno, node.module))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            bound_early = [
                *getattr(node, "decorator_list", []), *args.defaults,
                *(d for d in args.kw_defaults if d is not None),
                *(a.annotation for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)
                  if a.annotation is not None),
            ]
            if getattr(node, "returns", None) is not None:
                bound_early.append(node.returns)
            for child in bound_early:
                visit(child, False)
            body = node.body if isinstance(node.body, list) else [node.body]
            for child in body:
                visit(child, True)
            return
        if isinstance(node, ast.Call) and _is_partial(node.func):
            for child in (*node.args, *(kw.value for kw in node.keywords)):
                visit(child, False)
            return
        if isinstance(node, ast.Name) and node.id in kernels and not at_call_time:
            found.append((node.lineno, node.id))
        for child in ast.iter_child_nodes(node):
            visit(child, at_call_time)

    for statement in tree.body:
        if not isinstance(statement, ast.ImportFrom):
            visit(statement, False)
    return found


def _solver_tree():
    return ast.parse(Path(solver.__file__).read_text(), solver.__file__)


def test_solver_looks_up_every_kernel_at_call_time():
    tree = _solver_tree()
    kernels = _kernels(tree)
    assert {"apply_rht", "partial_rht_rows", "orthonormal_basis", "solve_exact_ls"} <= kernels
    assert not {"SignDiagonal", "SketchParams"} & kernels  # classes may be bound early
    assert _captures(tree, kernels) == []


@pytest.mark.parametrize(
    "planted",
    [
        "_TRANSFORM = apply_rht",
        "class Holder:\n    transform = apply_rht",
        "def f(m, t=apply_rht):\n    return t(m)",
        "def f(m, *, t=apply_rht):\n    return t(m)",
        "@orthonormal_basis\ndef f():\n    pass",
        "def f(m):\n    return partial(apply_rht, m)",
        "_TABLE = {'rht': apply_rht}",
        "def f(m):\n    from .hadamard import apply_rht\n    return apply_rht(m)",
    ],
    ids=["module", "class", "default", "kw-default", "decorator", "partial", "table",
         "local-import"],
)
def test_the_call_time_guard_sees_a_planted_capture(planted):
    tree = _solver_tree()
    kernels = _kernels(tree)
    tree.body.extend(ast.parse(planted).body)
    assert _captures(tree, kernels)


# Names relative to the numpy module that NumPy 2 added (2.0 unless noted),
# so a call to one fails under the declared floor, numpy>=1.24.
_NUMPY_2_ONLY = frozenset({
    "acos", "acosh", "asin", "asinh", "astype", "atan", "atan2", "atanh",
    "bitwise_count", "bitwise_invert", "bitwise_left_shift", "bitwise_right_shift",
    "concat", "isdtype", "long", "matrix_transpose", "permute_dims", "pow", "strings",
    "trapezoid", "ulong", "unique_all", "unique_counts", "unique_inverse", "unique_values",
    "vecdot",
    "cumulative_prod", "cumulative_sum", "unstack",  # 2.1
    "matvec", "vecmat",  # 2.2
    "linalg.cross", "linalg.diagonal", "linalg.matmul", "linalg.matrix_norm",
    "linalg.matrix_transpose", "linalg.outer", "linalg.svdvals", "linalg.tensordot",
    "linalg.trace", "linalg.vecdot", "linalg.vector_norm",
})


def _numpy_names(tree):
    """(line, name relative to numpy) of every numpy attribute `tree` reads
    through a name bound to numpy or one of its modules, and of every name
    it imports from them."""
    modules = {}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "numpy":
                    if alias.asname:
                        modules[alias.asname] = alias.name.removeprefix("numpy").lstrip(".")
                    else:
                        modules["numpy"] = ""
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module \
                and node.module.split(".")[0] == "numpy":
            prefix = node.module.removeprefix("numpy").lstrip(".")
            found += [(node.lineno, f"{prefix}.{a.name}".lstrip(".")) for a in node.names]
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        parts, root = [], node
        while isinstance(root, ast.Attribute):
            parts.insert(0, root.attr)
            root = root.value
        if isinstance(root, ast.Name) and root.id in modules:
            found.append((node.lineno, ".".join([modules[root.id], *parts]).lstrip(".")))
    return found


def _numpy_2_calls(tree):
    return [(line, name) for line, name in _numpy_names(tree) if name in _NUMPY_2_ONLY]


def test_no_module_calls_a_numpy_2_addition():
    found = [
        f"{path.name}:{line}: numpy.{name}"
        for path in _SOURCES
        for line, name in _numpy_2_calls(ast.parse(path.read_text(), str(path)))
    ]
    assert not found, found


@pytest.mark.parametrize(
    "planted",
    [
        "def f(x):\n    return np.bitwise_count(x)",
        "X = np.concat",
        "def f(x):\n    return np.linalg.vector_norm(x)",
        "import numpy\ndef f(x):\n    return numpy.unstack(x)",
        "import numpy as xp\ndef f(x):\n    return xp.cumulative_sum(x)",
        "import numpy.linalg as la\ndef f(x):\n    return la.svdvals(x)",
        "from numpy import astype",
        "from numpy.linalg import matrix_norm",
    ],
    ids=["call", "module-level", "linalg", "plain-import", "alias", "submodule-alias",
         "from-import", "from-submodule"],
)
def test_the_numpy_floor_guard_sees_a_planted_call(planted):
    tree = _solver_tree()
    assert _numpy_2_calls(tree) == []
    tree.body.extend(ast.parse(planted).body)
    assert _numpy_2_calls(tree)


def test_the_numpy_floor_guard_passes_numpy_1_names():
    planted = "def f(x):\n    return np.linalg.norm(x.astype(float)) + np.unique(x).size"
    tree = _solver_tree()
    tree.body.extend(ast.parse(planted).body)
    assert _numpy_2_calls(tree) == []
