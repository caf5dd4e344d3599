"""The benchmark's tracer still finds every function it wraps.

``perfbench/tracer.py`` rebinds ``tomosar`` functions by name and raises
LookupError when one is missing, so renaming a traced function fails here,
in the tier-1 suite, and not only in the slower ``perfbench`` tests.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracer():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracer

        yield tracer
    finally:
        sys.path.remove(str(PERFBENCH))


def test_recorder_installs_and_uninstalls_on_this_package(tracer):
    from tomosar import bench, solvers

    originals = (solvers.soft_threshold, bench.run_indexed, bench._ista_matrix)
    rec = tracer.Recorder()
    rec.install()
    try:
        assert solvers.soft_threshold is not originals[0]
        assert bench.run_indexed is not originals[1]
        assert bench._ista_matrix is not originals[2]
    finally:
        rec.uninstall()
    assert (solvers.soft_threshold, bench.run_indexed, bench._ista_matrix) == originals
