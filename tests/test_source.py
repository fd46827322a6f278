"""The source tree itself: the Python floor, the declared dependencies,
bounded fromiter drains, no linear algebra, the collector left to the
entry point, the console script and the names the benchmark calls.

Every file under src/ parses as Python 3.10 and uses no name that 3.10
lacks; every import is the standard library or a dependency that
pyproject.toml declares (numpy); every np.fromiter drain passes count=;
no file calls numpy's linear algebra; only voltmask.cli.run names the
gc module; pyproject.toml's console script names voltmask.cli.run; and
bench/ finds every name it calls.  The floor, import, fromiter,
linear-algebra and collector checks also run on snippets that break
them, so each is seen to fail.
"""

import ast
import importlib
import os
import re
import subprocess
import sys

import pytest

import voltmask.cli
from voltmask.scenario import load_scenario, prepare

# each name is new in Python 3.11 (tomllib and the rest) or reached as an
# attribute that 3.11 added to an older module (hashlib.file_digest, datetime.UTC)
NEWER_THAN_FLOOR = {"tomllib", "file_digest", "UTC", "StrEnum", "Self", "ExceptionGroup"}


def identifiers(tree):
    """Every name, attribute, imported name and imported module in tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield from node.name.split(".")
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield from node.module.split(".")


def test_source_keeps_to_the_python_3_10_floor(repo_root):
    files = sorted((repo_root / "src").rglob("*.py"))
    assert files
    for path in files:
        tree = ast.parse(path.read_text(), str(path), feature_version=(3, 10))
        newer = NEWER_THAN_FLOOR.intersection(identifiers(tree))
        assert not newer, f"{path} uses {sorted(newer)}, which Python 3.10 lacks"


@pytest.mark.parametrize(
    "source", ["import tomllib", "from typing import Self", "hashlib.file_digest(fh, 'sha256')"]
)
def test_floor_check_sees_newer_names(source):
    assert NEWER_THAN_FLOOR.intersection(identifiers(ast.parse(source)))


def imported_packages(tree):
    """The top-level package of every absolute import in tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def declared_dependencies(repo_root):
    """The names in pyproject.toml's dependencies list, which for every
    dependency so far are also its import names."""
    text = (repo_root / "pyproject.toml").read_text(encoding="utf-8")
    listed = re.search(r"^dependencies = \[(.*)\]$", text, re.MULTILINE)
    return set(re.findall(r'"([A-Za-z0-9_]+)', listed[1]))


def test_source_imports_only_what_the_package_declares(repo_root):
    # CI installs more than pyproject.toml declares, so an undeclared import
    # would pass there and fail for a user who installs the package alone
    allowed = set(sys.stdlib_module_names) | declared_dependencies(repo_root) | {"voltmask"}
    assert "numpy" in allowed
    for path in sorted((repo_root / "src").rglob("*.py")):
        undeclared = set(imported_packages(ast.parse(path.read_text(), str(path)))) - allowed
        assert not undeclared, f"{path} imports {sorted(undeclared)}, which pyproject.toml lacks"


@pytest.mark.parametrize(
    ("source", "packages"),
    [
        ("import scipy.linalg", ["scipy"]),
        ("from scipy import linalg", ["scipy"]),
        ("import json, numpy as np", ["json", "numpy"]),
        ("from . import ecm\nfrom .config import checked", []),
        ("def f():\n    import hypothesis", ["hypothesis"]),
    ],
)
def test_import_check_sees_every_absolute_import(source, packages):
    assert list(imported_packages(ast.parse(source))) == packages


def fromiter_calls(tree):
    """(line, passes count=) for every call of a function named fromiter in tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "fromiter":
                yield node.lineno, any(kw.arg == "count" for kw in node.keywords)


def test_every_fromiter_drain_fills_one_preallocated_array(repo_root):
    # without count=, np.fromiter grows its array as the iterator runs
    calls = {
        path: list(fromiter_calls(ast.parse(path.read_text(), str(path))))
        for path in sorted((repo_root / "src").rglob("*.py"))
    }
    assert any(calls.values())
    for path, found in calls.items():
        unbounded = [line for line, bounded in found if not bounded]
        assert not unbounded, f"{path}: np.fromiter without count= on lines {unbounded}"


@pytest.mark.parametrize(
    ("source", "bounded"),
    [
        ("np.fromiter(steps, float)", False),
        ("numpy.fromiter(iter(x), dtype=float)", False),
        ("from numpy import fromiter\nfromiter(steps, float)", False),
        ("np.fromiter(steps, float, count=2 * m)", True),
    ],
)
def test_fromiter_check_sees_a_missing_count(source, bounded):
    assert [ok for _, ok in fromiter_calls(ast.parse(source))] == [bounded]


# numpy's matrix products and linear algebra: the first call starts BLAS or
# LAPACK, some 0.15 to 0.5 MB more resident; every system here is 2x2 or a
# small one that sysid._solve_spd eliminates on plain floats
LINEAR_ALGEBRA = {"linalg", "dot", "matmul", "einsum", "inner", "vdot", "tensordot"}


def linear_algebra(tree):
    """"@" for each matrix product in tree, then each linear-algebra name it uses."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            yield "@"
    yield from sorted(LINEAR_ALGEBRA.intersection(identifiers(tree)))


def test_no_source_file_starts_blas_or_lapack(repo_root):
    for path in sorted((repo_root / "src").rglob("*.py")):
        found = list(linear_algebra(ast.parse(path.read_text(), str(path))))
        assert not found, f"{path} uses {found}"


@pytest.mark.parametrize(
    ("source", "found"),
    [
        ("v = q1 @ (x, 0.0)", ["@"]),
        ("m @= q", ["@"]),
        ("np.linalg.eigvalsh(q).min()", ["linalg"]),
        ("from numpy.linalg import solve", ["linalg"]),
        ("a.dot(b)", ["dot"]),
        ("np.einsum('ij,j', a, b)", ["einsum"]),
        ("from numpy import inner, vdot", ["inner", "vdot"]),
        ("(a * b).sum() + math.hypot(x, y)", []),
    ],
)
def test_linear_algebra_check_sees_every_product(source, found):
    assert list(linear_algebra(ast.parse(source))) == found


def collector_users(tree):
    """For each place tree names the gc module, the innermost function
    around it, or None at module or class level."""

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (
            (isinstance(node, ast.Name) and node.id == "gc")
            or (isinstance(node, ast.alias) and node.name == "gc")
            or (isinstance(node, ast.ImportFrom) and node.module == "gc")
        ):
            yield function
        for child in ast.iter_child_nodes(node):
            yield from visit(child, function)

    return list(visit(tree, None))


def test_only_the_entry_point_touches_the_collector(repo_root):
    # run() ends the process with the collector frozen; a library function
    # that froze, disabled or ran it would change the process of its caller
    users = {
        (path.name, function)
        for path in sorted((repo_root / "src").rglob("*.py"))
        for function in collector_users(ast.parse(path.read_text(), str(path)))
    }
    assert users == {("cli.py", "run")}


@pytest.mark.parametrize(
    ("source", "users"),
    [
        ("import gc", [None]),
        ("from gc import freeze", [None]),
        ("def main():\n    gc.collect()", ["main"]),
        ("class Cli:\n    def run(self):\n        import gc as g\n        g.disable()", ["run"]),
        ("def run():\n    def later():\n        gc.freeze()\n    return later", ["later"]),
        ("def run():\n    return config['gc'], self.gc", []),
    ],
)
def test_collector_check_sees_every_use(source, users):
    assert collector_users(ast.parse(source)) == users


def test_the_console_script_names_the_cli_entry_point(repo_root):
    # tomllib is Python 3.11+, so the table line is read with a regex
    text = (repo_root / "pyproject.toml").read_text(encoding="utf-8")
    table = r'^\[project\.scripts\]\nvoltmask = "([\w.]+):(\w+)"$'
    script = re.search(table, text, re.MULTILINE)
    assert script, "pyproject.toml declares no voltmask console script"
    assert getattr(importlib.import_module(script[1]), script[2]) is voltmask.cli.run


def test_the_benchmark_tracer_installs(repo_root):
    # the tracer looks up each function it times by module and name, and
    # fails if one is gone
    paths = [str(repo_root / "bench"), str(repo_root / "src"), os.getenv("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    proc = subprocess.run(
        [sys.executable, "-c", "import tracing; tracing.install(tracing.Tracer())"],
        capture_output=True, text=True, cwd=repo_root, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_a_prepared_scenario_has_what_the_benchmark_reads(scenario_dir):
    prep = prepare(load_scenario(scenario_dir / "tc1.json"))
    for name in ("adv_params", "weights", "reference", "u_nom", "x0", "i_max", "ka_values"):
        assert hasattr(prep, name), name
