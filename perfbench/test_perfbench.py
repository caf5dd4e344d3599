"""Tests of the benchmark itself: the span recorder and smoke-size workloads.

Run from the repository root:

    python3 -m pytest -q perfbench
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from tomosar import _pool, bench, sensing, solvers, tensor  # noqa: E402


@pytest.fixture
def recorder():
    rec = tracer.Recorder()
    rec.install()
    try:
        yield rec
    finally:
        rec.uninstall()


def test_install_rebinds_every_import_and_uninstall_restores():
    originals = (sensing.forward, solvers.forward, bench.run_indexed, solvers.soft_threshold)
    rec = tracer.Recorder()
    rec.install()
    try:
        assert sensing.forward is solvers.forward is not originals[0]
        assert bench.run_indexed is solvers.run_indexed is not originals[2]
        assert solvers.soft_threshold is not originals[3]
    finally:
        rec.uninstall()
    assert (sensing.forward, solvers.forward, bench.run_indexed, solvers.soft_threshold) == originals


def test_wrappers_pass_values_and_exceptions_through(recorder):
    z = np.array([3 + 4j, -1.0, 0.0])
    np.testing.assert_array_equal(solvers.soft_threshold(z, 1.0), z * np.array([0.8, 0.0, 0.0]))
    with pytest.raises(ValueError, match="threshold must be nonnegative"):
        solvers.soft_threshold(z, -1.0)
    with pytest.raises(ValueError, match="axis must be 0, 1 or 2"):
        tensor.diff(np.ones((2, 2, 2)), 5)
    tot = recorder.totals
    assert tot["solvers.soft_threshold"]["calls"] == 2
    assert tot["tensor.diff"]["calls"] == 1


def test_missing_function_fails_loudly(monkeypatch):
    monkeypatch.setitem(tracer.LAYERS, "tensor", {**tracer.LAYERS["tensor"], "no_such_fn": None})
    with pytest.raises(LookupError, match="tomosar.tensor.no_such_fn"):
        tracer.Recorder().install()


def test_self_time_excludes_children_and_pool_threads_nest(recorder):
    x = np.ones((4, 3, 3), dtype=complex)
    with recorder.span("outer"):
        tensor.tv_norm(x)
        _pool.run_indexed(lambda i: tensor.l1(x), range(6), workers=2)
    tot = recorder.totals
    outer, pool = tot["outer"], tot["pool.run_indexed"]
    assert tot["tensor.l1"]["calls"] == 6 + 3  # six pool items, three inside tv_norm
    assert tot["tensor.diff"]["calls"] == 3
    assert pool["items"] == 6 and pool["workers"] == 2
    # worker-thread spans were children of the pool span
    assert 0 < pool["covered_s"] <= pool["s"]
    assert outer["self_s"] == pytest.approx(outer["s"] - outer["covered_s"])
    assert outer["covered_s"] >= tot["tensor.tv_norm"]["s"] + pool["s"] - 1e-9
    for name, t in tot.items():
        assert t["self_s"] >= -1e-9, name


def test_counts_are_computed_from_shapes(recorder):
    a = sensing.build_steering_matrix(sensing.default_geometry())
    x = np.zeros((64, 2, 3), dtype=complex)
    sensing.forward(a, x)
    fwd = recorder.totals["sensing.forward"]
    assert fwd["gflop"] == pytest.approx(8e-9 * 12 * 64 * 6)
    assert fwd["gb"] == pytest.approx(1e-9 * 16 * (12 * 64 + 64 * 6 + 12 * 6))


def test_quality_gate_uses_band_and_recorded_value():
    reference = {"tv-volume": {"5": [{"psnr_db": 28.0, "d_pcm_m": 0.2}]}}

    def errors(seed, **quality):
        return workloads.quality_errors("tv-volume", seed, 0, quality, reference)

    assert errors(5, psnr_db=27.8, d_pcm_m=0.21) == []  # within the slack
    assert errors(5, psnr_db=29.0, d_pcm_m=0.1) == []  # better is always fine
    assert len(errors(5, psnr_db=27.7, d_pcm_m=0.23)) == 2  # behind the record
    assert errors(6, psnr_db=27.0, d_pcm_m=0.3) == []  # no record: band only
    assert len(errors(6, psnr_db=25.0, d_pcm_m=0.6)) == 2  # outside the band


def test_metric_list_matches_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in tracer.METRICS + run.RUN_METRICS
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == [
        tuple(m) for m in run.END_TO_END
    ]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_workload_runs_and_tracing_keeps_output_bytes(workload):
    untraced = run.run_workload(workload, seed=3, seconds=0, trace=False, smoke=True)
    assert untraced["correct"] and untraced["failed"] == 0
    assert set(untraced["metrics"]) == {name for name, _, _ in run.END_TO_END}
    # the traced result is only correct if the traced pass wrote the same bytes
    traced = run.run_workload(workload, seed=3, seconds=0, trace=True, smoke=True)
    assert traced["correct"] and traced["failed"] == 0
    assert set(traced["metrics"]) == {name for name, _, _ in tracer.METRICS + run.RUN_METRICS}
    assert traced["metrics"]["trace.coverage"]["value"] > 0.9
