"""The benchmark's tracer still finds every function it wraps, and its
counters still read what the pipelines pass.

``perfbench/tracer.py`` rebinds ``tomosar`` functions by name and raises
LookupError when one is missing, and its counters read arguments by
position or name, so renaming a traced function or an argument a counter
reads fails here, in the tier-1 suite, and not only in the slower
``perfbench`` tests.
"""

import math
import sys
import time
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

    originals = (solvers.soft_threshold, bench.run_indexed, solvers._ista_matrix)
    rec = tracer.Recorder()
    rec.install()
    try:
        assert solvers.soft_threshold is not originals[0]
        assert bench.run_indexed is not originals[1]
        assert solvers._ista_matrix is not originals[2]
    finally:
        rec.uninstall()
    assert (solvers.soft_threshold, bench.run_indexed, solvers._ista_matrix) == originals


def test_counters_run_on_the_cli_pipelines(tracer, tmp_path, monkeypatch):
    from tomosar import cli

    monkeypatch.chdir(tmp_path)
    commands = [
        ["train-lista", "--fibers", "10", "--epochs", "2", "--blocks", "2", "--out-params", "params.json"],
        ["resolution-test", "--method", "light-tv", "--separations", "0.6,1.2", "--trials", "3",
         "--out", "curve.csv"],
        ["structure-test", "--object", "one_step", "--method", "sb-tv", "--nx", "8", "--ny", "8",
         "--out-dir", "bundle"],
    ]
    rec = tracer.Recorder()
    rec.install()
    try:
        t0 = time.perf_counter()
        for argv in commands:
            with rec.span(f"cli.{argv[0]}"):
                assert cli.main(argv) == 0
        wall = time.perf_counter() - t0
    finally:
        rec.uninstall()
    metrics = rec.metrics(wall, 1.0)
    assert sorted(metrics) == sorted(name for name, _, _ in tracer.METRICS)
    assert all(math.isfinite(m["value"]) for m in metrics.values())
    assert metrics["solvers.lista_train.epochs"]["value"] == 2
    assert metrics["bench.resolution_curve.trials"]["value"] == 6
    for counted in ("sensing.forward.gflop", "sensing.adjoint.gb", "sensing.add_noise.fibers",
                    "tensor.diff.gb", "solvers.soft_threshold.gb", "solvers.split_bregman_l1tv.iterations",
                    "solvers.tv_denoise_enhance.s", "solvers.ista.matmul_gflop",
                    "metrics.extract_point_cloud.points", "fileio.write_tensor.mb",
                    "fileio.write_point_cloud.rows", "pool.run_indexed.items", "trace.coverage"):
        assert metrics[counted]["value"] > 0, counted


def test_slab_worker_spans_are_counted(tracer, tmp_path, monkeypatch):
    # a 64x32x32 volume is above the slab constant, so each sweep of the two
    # threads' run calls every kernel once per slab: the second slab's calls
    # are what the serial run's sweeps call, and nothing else changes
    from tomosar import cli, solvers

    assert 64 * 32 * 32 >= solvers.SLAB_MIN_VOXELS
    monkeypatch.chdir(tmp_path)
    argv = ["structure-test", "--object", "one_step", "--method", "sb-tv", "--nx", "32", "--ny", "32",
            "--max-outer", "3"]
    counts = {}
    for threads in ("1", "2"):
        monkeypatch.setenv("TOMOSAR_THREADS", threads)
        rec = tracer.Recorder()
        rec.install()
        try:
            assert cli.main(argv + ["--out-dir", f"bundle-{threads}"]) == 0
        finally:
            rec.uninstall()
        tot = rec.totals
        assert tot["solvers.split_bregman_l1tv"]["iterations"] == 3
        counts[threads] = {name: tot[name]["calls"]
                           for name in ("tensor.diff", "tensor.diff_adjoint", "solvers.soft_threshold")}
    # per sweep and slab, each of the three axes calls diff and diff_adjoint
    # inner_iters + 1 times and shrinks inner_iters + 1 times: once per
    # u-step (lambda1 > 0) and once for the TV split variable (tau2 * mu = 1)
    inner = solvers.SolverConfig().inner_iters
    per_slab = {"tensor.diff": 3 * (inner + 1), "tensor.diff_adjoint": 3 * (inner + 1),
                "solvers.soft_threshold": 3 * (inner + 1)}
    for name, calls in per_slab.items():
        assert counts["2"][name] == counts["1"][name] + 3 * calls, name
    assert (tmp_path / "bundle-1" / "recon.tsr3").read_bytes() == (tmp_path / "bundle-2" / "recon.tsr3").read_bytes()
