"""The source tree itself: the Python floor, and the names the benchmark calls."""

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
