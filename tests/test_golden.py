"""Every golden run gives the exit code, stdout, stderr and output files
its manifest entry records (see golden_runs.py), byte for byte."""

import platform

import numpy as np
import pytest
from golden_runs import ENTRIES, entry_id, read_manifest, replay, write_inputs

MANIFEST = read_manifest()
RECORDED = {(e["command"], e["config"], e["seed"]): e for e in MANIFEST["entries"]}
VERSIONS = (
    f"manifest made on Python {MANIFEST['python']}, numpy {MANIFEST['numpy']}; "
    f"running Python {platform.python_version()}, numpy {np.__version__}"
)


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    return write_inputs(tmp_path_factory.mktemp("golden"))


def test_the_manifest_holds_every_entry_once():
    assert list(RECORDED) == ENTRIES


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda entry: entry_id(*entry))
def test_golden_run(tmp_path, paths, entry):
    want = {key: RECORDED[entry][key] for key in ("exit", "stdout", "stderr", "files")}
    assert replay(*entry, paths, tmp_path / "out") == want, VERSIONS
