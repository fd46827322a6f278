"""The source tree itself: the Python floor, bounded fromiter drains, and the
names the benchmark calls."""

import ast
import os
import subprocess
import sys

import pytest

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
