"""Benchmark runners: peak detection, the two-scatterer resolution study,
and the structure-test bundle writer."""

import json
import math
import os
import re

import numpy as np
import pytest

from tomosar import bench
from tomosar.bench import (
    DEFAULT_SEPARATIONS,
    _separation_units,
    detect_peaks,
    resolution_curve,
    run_structure_test,
)
from tomosar.errors import ConfigurationError, DivergenceError
from tomosar.fileio import read_tensor, write_resolution_curve
from tomosar.sensing import (
    build_steering_matrix,
    default_geometry,
    fiber_rng,
    spectral_norm_sq,
)
from tomosar.simulate import GridSpec, make_test_object
from tomosar.solvers import (
    LearnedIstaParams,
    SolverConfig,
    _ista_matrix,
    _unrolled_infer,
    ista_fiber,
    light_reconstruct_enhance,
    reconstruct_tensor,
    resolve_config,
    split_bregman_l1tv,
    tv_denoise_enhance,
)


class TestDetectPeaks:
    def test_empty_and_zero(self):
        assert detect_peaks(np.array([])) == []
        assert detect_peaks(np.zeros(5)) == []

    def test_single_peak(self):
        assert detect_peaks(np.array([0.0, 1.0, 0.0])) == [1]

    def test_endpoint_peak(self):
        assert detect_peaks(np.array([1.0, 0.5, 0.1])) == [0]
        assert detect_peaks(np.array([0.1, 0.5, 1.0])) == [2]

    def test_two_separated_peaks(self):
        mag = np.array([0.0, 1.0, 0.1, 0.0, 0.9, 0.0])
        assert detect_peaks(mag) == [1, 4]

    def test_threshold_filters_small_peaks(self):
        mag = np.array([0.0, 1.0, 0.0, 0.2, 0.0])
        assert detect_peaks(mag, rel_threshold=0.25) == [1]
        assert detect_peaks(mag, rel_threshold=0.1) == [1, 3]

    def test_adjacent_suppression_keeps_strongest(self):
        mag = np.array([0.0, 0.8, 1.0, 0.0, 0.0])
        # bins 1 and 2 are adjacent; only the stronger survives
        assert detect_peaks(mag) == [2]

    def test_requires_1d(self):
        with pytest.raises(ValueError):
            detect_peaks(np.zeros((3, 3)))


class TestResolutionCurve:
    def test_zero_separation_never_succeeds(self):
        g = default_geometry()
        rows = resolution_curve(g, separations=(0.0,), trials=10, snr_db=math.inf, threads=1)
        assert len(rows) == 1
        assert rows[0]["separation_rho_s"] == 0.0
        assert rows[0]["success_rate"] == 0.0

    def test_wide_separation_noiseless_always_succeeds(self):
        g = default_geometry()
        rows = resolution_curve(g, separations=(1.4,), trials=10, snr_db=math.inf, threads=1)
        assert rows[0]["success_rate"] == 1.0
        # estimated positions agree with the symmetric true placement
        assert rows[0]["mean_pos_lo_m"] == pytest.approx(-rows[0]["mean_pos_hi_m"], abs=0.4)
        assert rows[0]["std_pos_lo_m"] == pytest.approx(0.0, abs=1e-12)

    def test_rows_sorted_and_complete(self):
        g = default_geometry()
        rows = resolution_curve(g, separations=(1.2, 0.0), trials=5, snr_db=math.inf, threads=1)
        assert [r["separation_rho_s"] for r in rows] == [0.0, 1.2]
        assert all(r["trials"] == 5 for r in rows)

    @pytest.mark.parametrize("method", ["fista", "sb-tv", "light-tv"])
    def test_deterministic_across_thread_counts(self, tmp_path, method):
        g = default_geometry()
        kwargs = dict(separations=(0.0, 1.0), trials=8, snr_db=5.0, seed=3, method=method)
        rows1 = resolution_curve(g, threads=1, **kwargs)
        rows4 = resolution_curve(g, threads=4, **kwargs)
        assert rows1 == rows4
        p1, p4 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_resolution_curve(p1, rows1)
        write_resolution_curve(p4, rows4)
        assert p1.read_bytes() == p4.read_bytes()

    def test_invalid_inputs_rejected(self):
        g = default_geometry()
        with pytest.raises(ConfigurationError):
            resolution_curve(g, separations=(-0.5,), trials=5)
        with pytest.raises(ConfigurationError):
            resolution_curve(g, separations=(1.0,), trials=0)
        for trials in (2.5, math.inf, math.nan):
            with pytest.raises(ConfigurationError, match=f"trials must be a whole number, got {trials!r}"):
                resolution_curve(g, separations=(1.0,), trials=trials)

    def test_trial_echoes_follow_the_draw_formula(self, monkeypatch):
        # the solver sees fiber_echoes' columns, bit for bit: sigma from the
        # one clean fiber, trial t of separation index 1 from stream (seed, 1, t)
        seen = []

        def record(y, a, *args):
            seen.append(y.copy())
            return np.zeros((a.shape[1], y.shape[1]), dtype=complex), None

        monkeypatch.setattr(bench, "reconstruct_tensor", record)
        resolution_curve(default_geometry(), separations=(0.0, 1.0), trials=3, seed=3, threads=1)
        a = build_steering_matrix(default_geometry())
        assert len(seen) == 1 and np.array_equal(seen[0][:, 3:], fiber_echoes(a, 1.0, 3))

    @pytest.mark.parametrize("seps", [(math.inf,), (0.2, math.nan), (-math.inf, 1.0)])
    def test_nonfinite_separations_rejected_before_any_solve(self, monkeypatch, seps):
        def no_solve(*args):
            raise AssertionError("solved before the separations were checked")

        monkeypatch.setattr(bench, "reconstruct_tensor", no_solve)
        with pytest.raises(ConfigurationError, match="separations must be finite, got"):
            resolution_curve(default_geometry(), separations=seps, trials=2, threads=1)

    @pytest.mark.parametrize("knob, value, message", [
        ("success_half_width", 0.0, "success_half_width must be finite and > 0"),
        ("success_half_width", -1.0, "success_half_width must be finite and > 0"),
        ("success_half_width", math.nan, "success_half_width must be finite and > 0"),
        ("success_half_width", math.inf, "success_half_width must be finite and > 0"),
        ("peak_rel_threshold", -0.1, r"peak_rel_threshold must be in \[0, 1\)"),
        ("peak_rel_threshold", 1.0, r"peak_rel_threshold must be in \[0, 1\)"),
        ("peak_rel_threshold", math.nan, r"peak_rel_threshold must be in \[0, 1\)"),
    ])
    def test_invalid_scoring_knob_rejected_before_any_solve(self, monkeypatch, knob, value, message):
        def no_solve(*args):
            raise AssertionError("solved before the scoring knobs were checked")

        monkeypatch.setattr(bench, "reconstruct_tensor", no_solve)
        with pytest.raises(ConfigurationError, match=message):
            resolution_curve(default_geometry(), separations=(0.6,), trials=2, threads=1,
                             **{knob: value})

    def test_default_separations_constant(self):
        assert DEFAULT_SEPARATIONS == (0.0, 0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4)


class TestSeparationUnits:
    """The work units of a resolution study: whole separations packed into
    column batches of at most UNIT_COLUMNS trials."""

    @pytest.mark.parametrize("trials, sizes", [(500, [1] * 8), (257, [1] * 8), (256, [2] * 4),
                                               (100, [5, 3]), (5, [8])])
    def test_plan(self, trials, sizes):
        units = _separation_units(len(DEFAULT_SEPARATIONS), trials)
        assert [len(u) for u in units] == sizes
        assert [si for u in units for si in u] == list(range(len(DEFAULT_SEPARATIONS)))
        assert all(len(u) == 1 or len(u) * trials <= bench.UNIT_COLUMNS for u in units)

    @pytest.mark.parametrize("method", ["ista", "fista", "sb-tv", "light-tv", "lista"])
    def test_packed_rows_equal_solo_rows(self, monkeypatch, method):
        g = default_geometry()
        a = build_steering_matrix(g)
        params = LearnedIstaParams.equivalence(9, 1.0 / spectral_norm_sq(a), 0.1) if method == "lista" else None
        kwargs = dict(separations=(0.4, 1.0, 1.4), trials=8, seed=3, method=method, lista_params=params, threads=1)
        assert len(_separation_units(3, 8)) == 1
        packed = resolution_curve(g, **kwargs)
        # one separation per unit: each is solved in a batch of its own trials
        monkeypatch.setattr(bench, "UNIT_COLUMNS", 8)
        assert _separation_units(3, 8) == [[0], [1], [2]]
        assert resolution_curve(g, **kwargs) == packed

    def test_multi_unit_plan_is_independent_of_threads(self):
        g = default_geometry()
        assert len(_separation_units(len(DEFAULT_SEPARATIONS), 100)) == 2
        rows1 = resolution_curve(g, trials=100, seed=4, method="fista", threads=1)
        rows4 = resolution_curve(g, trials=100, seed=4, method="fista", threads=4)
        assert rows1 == rows4
        assert [r["separation_rho_s"] for r in rows1] == list(DEFAULT_SEPARATIONS)


def fiber_echoes(a, separation, trials, seed=3):
    """Noisy two-scatterer echoes at 5 dB, one trial per column, as resolution_curve draws them."""
    g = default_geometry()
    scene, _ = make_test_object("two_scatterers", g, GridSpec.from_geometry(g, n_x=1, n_y=1), seed=0,
                                separation_rho=separation)
    y_clean = a @ scene[:, 0, 0]
    sigma = np.sqrt(np.mean(np.abs(y_clean) ** 2) / 10 ** (5.0 / 10.0))
    n = a.shape[0]
    columns = []
    for t in range(trials):
        d = fiber_rng(seed, 1, t).standard_normal(2 * n)
        columns.append(y_clean + (sigma / np.sqrt(2.0)) * (d[:n] + 1j * d[n:]))
    return np.stack(columns, axis=1)


def assert_matches_solo(x_batch, x_solo):
    """Column j of a batch result equals its solo result to 1e-12 of the solo maximum."""
    for j, xs in enumerate(x_solo):
        assert np.max(np.abs(x_batch[:, j] - xs)) <= 1e-12 * np.max(np.abs(xs)), j


class TestFiberBatch:
    """A batched ista / fista / sb-tv / light-tv fiber solve equals the solo
    solve of each fiber.

    Not bit for bit: the batch multiplies by A as one matrix product (gemm)
    where a solo fiber takes a matrix-vector product (gemv).
    """

    # (separation, trials, zero column, cfg)
    CASES = {
        "default": (1.0, 4, None, None),
        "lambda1": (1.0, 4, None, SolverConfig(lambda1=0.3)),
        "early-and-capped": (0.2, 5, None, None),
        "zero-column": (1.0, 3, 1, None),
        "single": (0.6, 1, None, None),
    }

    def batch(self, case):
        a = build_steering_matrix(default_geometry())
        sep, trials, zero, cfg = self.CASES[case]
        y = fiber_echoes(a, sep, trials)
        if zero is not None:
            y[:, zero] = 0.0
        return a, y, cfg

    @pytest.mark.parametrize("case", list(CASES))
    @pytest.mark.parametrize("variant", ["ista", "fista"])
    def test_ista_columns_match_solo(self, variant, case):
        a, y, cfg = self.batch(case)
        x, report = _ista_matrix(y, a, resolve_config(cfg, a, y), variant=variant)
        solo = [ista_fiber(y[:, j], a, cfg, variant=variant) for j in range(y.shape[1])]
        assert report.column_iterations == [r.iterations for _, r in solo]
        assert report.iterations == max(report.column_iterations)
        assert report.converged == all(r.converged for _, r in solo)
        assert all(isinstance(v, float) for v in report.objective_trace + report.rel_change_trace)
        assert_matches_solo(x, [xs for xs, _ in solo])
        if case == "zero-column":
            assert report.column_iterations[1] == 1 and not np.any(x[:, 1])

    @pytest.mark.parametrize("case", list(CASES))
    def test_sb_tv_columns_match_solo(self, case):
        a, y, cfg = self.batch(case)
        x, report = split_bregman_l1tv(y, a, cfg)
        solo = [split_bregman_l1tv(y[:, j].reshape(-1, 1, 1), a, cfg) for j in range(y.shape[1])]
        assert x.shape == (a.shape[1], y.shape[1])
        assert report.column_iterations == [r.iterations for _, r in solo]
        assert report.iterations == max(report.column_iterations)
        assert report.converged == all(r.converged for _, r in solo)
        assert_matches_solo(x, [xs[:, 0, 0] for xs, _ in solo])
        if case == "early-and-capped":
            its = report.column_iterations
            assert min(its) < report.iterations == SolverConfig().max_outer
        if case == "zero-column":
            assert report.column_iterations[1] == 1 and not np.any(x[:, 1])

    @pytest.mark.parametrize("case", list(CASES))
    def test_light_tv_columns_match_solo(self, case):
        a, y, cfg = self.batch(case)
        x, report = light_reconstruct_enhance(y, a, cfg)
        solo = [light_reconstruct_enhance(y[:, j].reshape(-1, 1, 1), a, cfg) for j in range(y.shape[1])]
        assert report.iterations == 2 == solo[0][1].iterations
        assert_matches_solo(x, [xs[:, 0, 0] for xs, _ in solo])
        # the ISTA stage stops each fiber where its solo run stops
        _, ista = _ista_matrix(y, a, resolve_config(cfg, a, y))
        solo_its = [_ista_matrix(y[:, [j]], a, resolve_config(cfg, a, y[:, j]))[1].iterations
                    for j in range(y.shape[1])]
        assert ista.column_iterations == solo_its

    def test_light_tv_batch_report_keeps_one_float_per_stage(self):
        a, y, cfg = self.batch("early-and-capped")
        _, report = light_reconstruct_enhance(y, a, cfg)
        solo = [light_reconstruct_enhance(y[:, j].reshape(-1, 1, 1), a, cfg)[1] for j in range(y.shape[1])]
        assert all(isinstance(v, float) for v in report.objective_trace + report.rel_change_trace)
        assert len(report.objective_trace) == len(report.rel_change_trace) == 2
        for stage in range(2):
            obj = sum(r.objective_trace[stage] for r in solo)
            assert report.objective_trace[stage] == pytest.approx(obj, rel=1e-9)
            rel = max(r.rel_change_trace[stage] for r in solo)
            assert report.rel_change_trace[stage] == pytest.approx(rel, rel=1e-9)

    @pytest.mark.parametrize("method", ["ista", "fista", "sb-tv", "light-tv"])
    def test_resolution_batch_is_the_fiber_solve(self, method):
        a, y, cfg = self.batch("default")
        x, _ = reconstruct_tensor(y, a, method, cfg)
        if method in ("ista", "fista"):
            solo = [ista_fiber(y[:, j], a, cfg, variant=method) for j in range(y.shape[1])]
            _, report = _ista_matrix(y, a, resolve_config(cfg, a, y), variant=method)
            assert report.column_iterations == [r.iterations for _, r in solo]
            solo = [xs for xs, _ in solo]
        elif method == "sb-tv":
            solo = [split_bregman_l1tv(y[:, j].reshape(-1, 1, 1), a, cfg)[0][:, 0, 0] for j in range(y.shape[1])]
        else:
            solo = [light_reconstruct_enhance(y[:, j].reshape(-1, 1, 1), a, cfg)[0][:, 0, 0]
                    for j in range(y.shape[1])]
        assert_matches_solo(x, solo)

    def test_light_tv_batch_passes_mu_to_its_tv_stage(self):
        a, y, _ = self.batch("default")
        cfg = SolverConfig(mu=4.0)
        rcfg = resolve_config(cfg, a, y)
        stage, _ = _ista_matrix(y, a, rcfg)
        expect = tv_denoise_enhance(stage, rcfg.lambda2, rcfg.inner_iters, mu=4.0)
        assert np.array_equal(reconstruct_tensor(y, a, "light-tv", cfg)[0], expect)
        assert not np.array_equal(expect, tv_denoise_enhance(stage, rcfg.lambda2, rcfg.inner_iters))

    def test_resolve_config_of_a_batch_matches_solo_configs(self):
        a, y, _ = self.batch("default")
        for cfg, factor in ((None, 0.9), (SolverConfig(lambda1=0.3, lambda2=0.02), 1.8)):
            rcfg = resolve_config(cfg, a, y, factor)
            for j in range(y.shape[1]):
                solo = resolve_config(cfg, a, y[:, j], factor)
                assert rcfg.alpha == solo.alpha
                assert rcfg.lambda1[j] == pytest.approx(solo.lambda1, rel=1e-14)
                assert rcfg.lambda2[j] == pytest.approx(solo.lambda2, rel=1e-14)

    def test_requires_a_2d_batch(self):
        # a 2-D echo is a batch and a 3-D one a volume; an empty batch and
        # any other order are rejected
        a = build_steering_matrix(default_geometry())
        n = a.shape[0]
        for y in (np.zeros((n, 0)), np.zeros(n), np.zeros((n, 2, 1, 1))):
            for solve in (split_bregman_l1tv, light_reconstruct_enhance):
                with pytest.raises(ValueError, match="expected a nonempty"):
                    solve(y, a)
            with pytest.raises(ValueError, match="expected a nonempty"):
                reconstruct_tensor(y, a, "fista")
            with pytest.raises(ValueError, match="expected a nonempty"):
                tv_denoise_enhance(y[:1], 0.1)

    def test_lista_batch_is_the_unrolled_blocks(self):
        a, y, _ = self.batch("early-and-capped")
        alpha = 0.9 / spectral_norm_sq(a)
        params = LearnedIstaParams(alpha=alpha * np.linspace(0.6, 1.0, 7), theta=alpha * np.linspace(0.3, 0.05, 7))
        x, report = reconstruct_tensor(y, a, "lista", lista_params=params)
        assert x.tobytes() == _unrolled_infer(y, a, params).tobytes()
        assert report.iterations == params.blocks and report.column_iterations == [params.blocks] * y.shape[1]
        assert report.converged


class TestFiberBatchDivergence:
    # the step of SolverConfig(alpha=1.0) in every block of a lista network
    DIVERGENT_LISTA = LearnedIstaParams(alpha=np.ones(5), theta=np.zeros(5))

    @pytest.mark.parametrize("method, solver", [
        ("ista", "ista"), ("fista", "fista"), ("sb-tv", "sb-tv"), ("light-tv", "ista"), ("lista", "lista"),
    ])
    def test_error_names_the_column(self, method, solver):
        a = build_steering_matrix(default_geometry())
        y = fiber_echoes(a, 1.0, 3)
        # column 0 is silent and cannot diverge, so the first column to go is 1
        y[:, 0] = 0.0
        with pytest.raises(DivergenceError) as err:
            reconstruct_tensor(y, a, method, SolverConfig(alpha=1.0), self.DIVERGENT_LISTA)
        msg = str(err.value)
        assert msg.startswith(f"{solver} at iteration ")
        assert ", column 1: objective " in msg
        assert err.value.column == 1
        it = int(msg.split("iteration ")[1].split(",")[0])
        # the trace is the batch objective, one float per iteration
        trace = err.value.objective_trace
        assert len(trace) == it + 1 and all(isinstance(v, float) for v in trace)

    @pytest.mark.parametrize("method, solver", [
        ("ista", "ista"), ("fista", "fista"), ("sb-tv", "sb-tv"), ("light-tv", "ista"), ("lista", "lista"),
    ])
    def test_one_column_batch_names_column_0(self, method, solver):
        # resolution_curve maps the column of a batch to its trial, also for one trial
        a = build_steering_matrix(default_geometry())
        with pytest.raises(DivergenceError) as err:
            reconstruct_tensor(fiber_echoes(a, 1.0, 1), a, method, SolverConfig(alpha=1.0), self.DIVERGENT_LISTA)
        assert err.value.column == 0
        assert re.match(rf"{solver} at iteration \d+, column 0: objective ", str(err.value))

    @pytest.mark.parametrize("method", ["ista", "fista", "sb-tv", "light-tv", "lista"])
    def test_resolution_curve_raises(self, method):
        g = default_geometry()
        match = r"at iteration \d+, column \d+: objective .* \(separation 1\.0 rho_s, trial \d\)$"
        with pytest.raises(DivergenceError, match=match):
            resolution_curve(g, separations=(1.0,), trials=2, method=method, cfg=SolverConfig(alpha=1.0),
                             lista_params=self.DIVERGENT_LISTA, threads=1)

    def test_packed_study_names_separation_and_trial(self, monkeypatch):
        solve = bench.reconstruct_tensor

        def silence_first_columns(y_batch, *args):
            # silent columns cannot diverge, so the first to go is column 4
            y_batch[:, :4] = 0.0
            return solve(y_batch, *args)

        monkeypatch.setattr(bench, "reconstruct_tensor", silence_first_columns)
        g = default_geometry()
        with pytest.raises(DivergenceError) as err:
            resolution_curve(g, separations=(1.0, 0.6), trials=3, method="sb-tv", cfg=SolverConfig(alpha=1.0),
                             threads=1)
        msg = str(err.value)
        # column 4 of the packed batch is trial 1 of the second separation
        assert err.value.column == 4
        assert re.match(r"sb-tv at iteration \d+, column 4: objective .* \(separation 1\.0 rho_s, trial 1\)$", msg)
        it = int(msg.split("iteration ")[1].split(",")[0])
        trace = err.value.objective_trace
        assert len(trace) == it + 1 and all(isinstance(v, float) for v in trace)


class TestStructureTest:
    BUNDLE = (
        "scene.tsr3",
        "echo.tsr3",
        "recon.tsr3",
        "recon_cloud.csv",
        "truth_cloud.csv",
        "eval_report.json",
        "solver_report.json",
        "metadata.json",
    )

    def test_bundle_files_and_report(self, tmp_path):
        g = default_geometry()
        grid = GridSpec.from_geometry(g, n_x=12, n_y=12)
        out = tmp_path / "bundle"
        report = run_structure_test("one_step", "fista", g, grid, 5.0, 1, str(out))
        for name in self.BUNDLE:
            assert (out / name).is_file(), name
        assert report.rmse >= 0.0
        scene = read_tensor(str(out / "scene.tsr3"))
        recon = read_tensor(str(out / "recon.tsr3"))
        assert scene.shape == recon.shape == grid.dims
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["method"] == "fista"
        assert meta["snr_db"] == 5.0
        assert meta["grid"]["dims"] == list(grid.dims)
        solver = json.loads((out / "solver_report.json").read_text())
        assert solver["wall_time_s"] is None
        assert solver["t_ag_s"] is None

    def test_rerun_byte_identical(self, tmp_path):
        g = default_geometry()
        grid = GridSpec.from_geometry(g, n_x=10, n_y=10)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        run_structure_test("multi_step", "fista", g, grid, 5.0, 2, str(out1))
        run_structure_test("multi_step", "fista", g, grid, 5.0, 2, str(out2))
        for name in self.BUNDLE:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_timing_populates_fields(self, tmp_path):
        g = default_geometry()
        grid = GridSpec.from_geometry(g, n_x=8, n_y=8)
        out = tmp_path / "timed"
        run_structure_test("one_step", "fista", g, grid, 5.0, 0, str(out), timing=True, repeats=2)
        solver = json.loads((out / "solver_report.json").read_text())
        assert solver["wall_time_s"] > 0.0
        assert solver["t_ag_s"] > 0.0
        ev = json.loads((out / "eval_report.json").read_text())
        assert ev["reconstruction_time_s"] > 0.0
