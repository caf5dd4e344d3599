"""End-to-end command-line tests: file round trips, byte determinism,
exit codes, and cross-method consistency."""

import dataclasses
import json
import math
import os
import subprocess
import sys
import types

import numpy as np
import pytest

import tomosar
from tomosar import bench, cli, fileio
from tomosar.fileio import read_tensor, write_lista_params, write_tensor
from tomosar.sensing import build_steering_matrix, default_geometry, spectral_norm_sq
from tomosar.solvers import LearnedIstaParams, SolverConfig


def run_cli(*args, env_extra=None, cwd=None, timeout=None):
    env = dict(os.environ)
    env.setdefault("TOMOSAR_THREADS", "1")
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "tomosar.cli", *[str(a) for a in args]],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
        timeout=timeout,
    )


def simulate_small(tmp_path, seed=0, model="one_step", snr="5.0", nx=8, ny=8):
    scene = tmp_path / f"scene_{seed}.tsr3"
    echo = tmp_path / f"echo_{seed}.tsr3"
    meta = tmp_path / f"meta_{seed}.json"
    res = run_cli(
        "simulate", "--model", model, "--nx", nx, "--ny", ny,
        "--snr", snr, "--seed", seed,
        "--out-scene", scene, "--out-echo", echo, "--out-meta", meta,
    )
    assert res.returncode == 0, res.stderr
    return scene, echo, meta


class _Reached(Exception):
    """Raised by the last patched callee of a command once it has recorded its call."""


# callee -> the keywords that the CLI passes to it only when their flag is given
_FORWARDED = {
    "GridSpec.from_geometry": {"n_x", "n_y", "cell_x", "cell_y"},
    "make_test_object": {"separation_rho", "spacing_m", "scene_size_m"},
    "timed": {"repeats"},
    "evaluate_tensors": {"rel_threshold", "tau_p"},
    "resolution_curve": {"separations", "trials", "snr_db", "seed", "method",
                         "peak_rel_threshold", "success_half_width"},
    "run_structure_test": {"rel_threshold", "tau_p", "repeats"},
    "make_fiber_dataset": {"snr_db"},
    "lista_train": {"k_blocks", "epochs", "lr"},
}

# command -> (the callees it reaches, the last one first; its required flags)
_REQUIRED_ONLY = {
    "simulate": (["make_test_object", "GridSpec.from_geometry"],
                 ["--model", "one_step", "--out-scene", "s.tsr3", "--out-echo", "e.tsr3"]),
    "reconstruct": (["timed"], ["--echo", "ECHO", "--method", "fista", "--out", "r.tsr3"]),
    "evaluate": (["evaluate_tensors"], ["--recon", "ECHO", "--truth", "ECHO", "--out", "eval.json"]),
    "resolution-test": (["resolution_curve"], ["--out", "curve.csv"]),
    "structure-test": (["run_structure_test", "GridSpec.from_geometry"],
                       ["--object", "one_step", "--method", "fista", "--out-dir", "bundle"]),
    "train-lista": (["lista_train", "make_fiber_dataset"], ["--out-params", "params.json"]),
}


class TestForwarding:
    """A flag that is left out is not passed on: the library's own default
    fills it in."""

    @pytest.mark.parametrize("command", sorted(_REQUIRED_ONLY))
    def test_required_flags_only_forward_no_default(self, tmp_path, monkeypatch, command):
        echo = tmp_path / "echo.tsr3"
        write_tensor(str(echo), np.ones((12, 2, 2), dtype=complex))
        callees, required = _REQUIRED_ONLY[command]
        calls = {}

        def spy(name, real):
            def record(*args, **kwargs):
                calls[name] = kwargs
                if name == callees[0]:
                    raise _Reached
                return real(*args, **kwargs)
            return record

        grid = types.SimpleNamespace(from_geometry=spy("GridSpec.from_geometry", cli.GridSpec.from_geometry))
        monkeypatch.setattr(cli, "GridSpec", grid)
        for name in ("make_test_object", "timed", "evaluate_tensors", "make_fiber_dataset", "lista_train"):
            monkeypatch.setattr(cli, name, spy(name, getattr(cli, name)))
        for name in ("resolution_curve", "run_structure_test"):
            monkeypatch.setattr(bench, name, spy(name, getattr(bench, name)))
        monkeypatch.chdir(tmp_path)
        args = cli.build_parser().parse_args([command] + [str(echo) if a == "ECHO" else a for a in required])
        with pytest.raises(_Reached):
            args.func(args)
        assert sorted(calls) == sorted(callees)
        for name, kwargs in calls.items():
            assert not set(kwargs) & _FORWARDED[name], (name, kwargs)
        if hasattr(args, "max_outer"):
            assert cli._solver_config(args) == SolverConfig()


class TestSubprocessEnvironment:
    def test_child_imports_package_under_test_from_any_cwd(self, tmp_path):
        res = run_cli("--help", cwd=tmp_path)
        assert res.returncode == 0, res.stderr
        child = subprocess.run(
            [sys.executable, "-c", "import tomosar; print(tomosar.__file__)"],
            capture_output=True, text=True, cwd=tmp_path,
        )
        assert child.returncode == 0, child.stderr
        assert os.path.realpath(child.stdout.strip()) == os.path.realpath(tomosar.__file__)


class TestSimulate:
    def test_writes_scene_echo_meta(self, tmp_path):
        scene, echo, meta = simulate_small(tmp_path)
        s = read_tensor(str(scene))
        e = read_tensor(str(echo))
        assert s.shape == (64, 8, 8)
        assert e.shape == (12, 8, 8)
        doc = json.loads(meta.read_text())
        assert doc["snr_db"] == 5.0
        assert doc["grid_dims"] == [64, 8, 8]
        assert doc["kind"] == "one_step"

    def test_rerun_byte_identical(self, tmp_path):
        s1, e1, m1 = simulate_small(tmp_path, seed=3)
        sub = tmp_path / "again"
        sub.mkdir()
        s2, e2, m2 = simulate_small(sub, seed=3)
        assert s1.read_bytes() == s2.read_bytes()
        assert e1.read_bytes() == e2.read_bytes()
        assert m1.read_bytes() == m2.read_bytes()

    @pytest.mark.parametrize("model, flag, value, param", [
        ("one_step", "--spacing", "0.3", "spacing_m"),
        ("building:box", "--separation", "2", "separation_rho"),
    ])
    def test_parameter_of_another_model_exits_2(self, tmp_path, capsys, model, flag, value, param):
        scene, echo = tmp_path / "s.tsr3", tmp_path / "e.tsr3"
        rc = cli.main(["simulate", "--model", model, flag, value,
                       "--out-scene", str(scene), "--out-echo", str(echo)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: test object {model!r} has no parameter {param!r}"), err
        assert not scene.exists() and not echo.exists()

    def test_unknown_model_exits_2(self, tmp_path):
        res = run_cli(
            "simulate", "--model", "pyramid",
            "--out-scene", tmp_path / "s.tsr3", "--out-echo", tmp_path / "e.tsr3",
        )
        assert res.returncode == 2
        assert "error" in res.stderr


class TestReconstruct:
    def test_fista_roundtrip_and_report(self, tmp_path):
        _, echo, _ = simulate_small(tmp_path)
        out = tmp_path / "recon.tsr3"
        res = run_cli("reconstruct", "--echo", echo, "--method", "fista", "--out", out)
        assert res.returncode == 0, res.stderr
        recon = read_tensor(str(out))
        assert recon.shape == (64, 8, 8)
        report = json.loads((tmp_path / "recon.tsr3.report.json").read_text())
        assert report["method"] == "fista"
        assert report["converged"] is True
        assert report["wall_time_s"] is None  # timing off by default
        assert report["t_ag_s"] is None
        assert len(report["objective_trace"]) == report["iterations"]

    def test_rerun_byte_identical_across_threads(self, tmp_path):
        _, echo, _ = simulate_small(tmp_path, nx=6, ny=6)
        outs = []
        for name, threads in (("a", "1"), ("b", "4")):
            out = tmp_path / f"recon_{name}.tsr3"
            rep = tmp_path / f"report_{name}.json"
            res = run_cli(
                "reconstruct", "--echo", echo, "--method", "light-tv",
                "--out", out, "--report", rep,
                env_extra={"TOMOSAR_THREADS": threads},
            )
            assert res.returncode == 0, res.stderr
            outs.append((out.read_bytes(), rep.read_bytes()))
        assert outs[0] == outs[1]

    def test_all_default_methods_run(self, tmp_path):
        _, echo, _ = simulate_small(tmp_path, nx=6, ny=6)
        for method in ("ista", "fista", "sb-tv", "light-tv"):
            out = tmp_path / f"{method}.tsr3"
            res = run_cli("reconstruct", "--echo", echo, "--method", method, "--out", out)
            assert res.returncode == 0, (method, res.stderr)
            assert read_tensor(str(out)).shape == (64, 6, 6)

    def test_flag_without_value_is_not_joined_to_the_next_token(self):
        res = run_cli("reconstruct", "--timing", "-h")
        assert res.returncode == 0, res.stderr
        assert res.stdout.startswith("usage: tomosar reconstruct")

    def test_missing_echo_exits_2(self, tmp_path):
        res = run_cli(
            "reconstruct", "--echo", tmp_path / "absent.tsr3",
            "--method", "fista", "--out", tmp_path / "r.tsr3",
        )
        assert res.returncode == 2
        assert "not found" in res.stderr

    def test_unknown_config_key_exits_2(self, tmp_path):
        _, echo, _ = simulate_small(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"step_size": 0.1}\n')
        res = run_cli(
            "reconstruct", "--echo", echo, "--method", "fista",
            "--config", cfg, "--out", tmp_path / "r.tsr3",
        )
        assert res.returncode == 2
        assert "step_size" in res.stderr

    @pytest.mark.parametrize("text", ["5\n", '{"alpha": [1]}\n', '{"max_outer": "5"}\n'])
    def test_malformed_config_exits_2_naming_the_file(self, tmp_path, text):
        _, echo, _ = simulate_small(tmp_path, nx=4, ny=4)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        res = run_cli(
            "reconstruct", "--echo", echo, "--method", "fista",
            "--config", cfg, "--out", tmp_path / "r.tsr3",
        )
        assert res.returncode == 2, res.stderr
        assert f"error: {cfg}: solver config" in res.stderr
        assert "Traceback" not in res.stderr

    @pytest.mark.parametrize("flag", ["--config", "--geometry", "--params"])
    def test_broken_json_exits_2_naming_the_file(self, tmp_path, flag):
        _, echo, _ = simulate_small(tmp_path, nx=4, ny=4)
        bad = tmp_path / "bad.json"
        bad.write_text('{"max_outer": 2')
        res = run_cli(
            "reconstruct", "--echo", echo, "--method", "lista" if flag == "--params" else "fista",
            flag, bad, "--out", tmp_path / "r.tsr3",
        )
        assert res.returncode == 2, res.stderr
        assert f"error: {bad}: not valid JSON: Expecting ',' delimiter" in res.stderr
        assert "Traceback" not in res.stderr

    @pytest.mark.parametrize("text", ['{"max_outer": 2.7}\n', '{"inner_iters": 1.5}\n'])
    def test_fractional_iteration_count_exits_2(self, tmp_path, text):
        _, echo, _ = simulate_small(tmp_path, nx=4, ny=4)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        res = run_cli(
            "reconstruct", "--echo", echo, "--method", "ista",
            "--config", cfg, "--out", tmp_path / "r.tsr3",
        )
        assert res.returncode == 2, res.stderr
        assert "must be a whole number" in res.stderr
        assert not (tmp_path / "r.tsr3").exists()

    def test_null_config_value_takes_the_default(self, tmp_path):
        _, echo, _ = simulate_small(tmp_path, nx=4, ny=4)
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"lambda1": null, "max_outer": 3}\n')
        res = run_cli(
            "reconstruct", "--echo", echo, "--method", "fista",
            "--config", cfg, "--out", tmp_path / "r.tsr3",
        )
        assert res.returncode == 0, res.stderr

    def test_malformed_geometry_exits_2_naming_the_file(self, tmp_path):
        _, echo, _ = simulate_small(tmp_path, nx=4, ny=4)
        geom = tmp_path / "geometry.json"
        geom.write_text("[1, 2, 3]\n")
        res = run_cli(
            "reconstruct", "--echo", echo, "--method", "fista",
            "--geometry", geom, "--out", tmp_path / "r.tsr3",
        )
        assert res.returncode == 2, res.stderr
        assert f"error: {geom}: geometry must be a JSON object" in res.stderr
        assert "Traceback" not in res.stderr

    def test_divergent_run_exits_3_with_trace(self, tmp_path):
        _, echo, _ = simulate_small(tmp_path, nx=4, ny=4)
        res = run_cli(
            "reconstruct", "--echo", echo, "--method", "sb-tv",
            "--alpha", "1.0", "--lambda1", "0", "--lambda2", "0",
            "--out", tmp_path / "r.tsr3",
        )
        assert res.returncode == 3
        assert "diverged" in res.stderr
        assert "iteration 0: objective" in res.stderr

    @pytest.mark.parametrize("method", ["ista", "fista", "light-tv"])
    def test_oversized_step_exits_3_for_every_solver(self, tmp_path, method):
        _, echo, _ = simulate_small(tmp_path, nx=4, ny=4)
        res = run_cli(
            "reconstruct", "--echo", echo, "--method", method,
            "--alpha", "1.0", "--out", tmp_path / "r.tsr3",
        )
        assert res.returncode == 3, res.stderr
        solver = "ista" if method == "light-tv" else method
        assert f"solver diverged: {solver} at iteration " in res.stderr
        assert not (tmp_path / "r.tsr3").exists()

    @pytest.mark.parametrize("method", ["ista", "fista", "sb-tv", "light-tv"])
    def test_oversized_step_in_resolution_test_exits_3(self, tmp_path, method):
        res = run_cli(
            "resolution-test", "--method", method, "--alpha", "1.0", "--trials", "2",
            "--separations", "1.0", "--out", tmp_path / "curve.csv",
        )
        assert res.returncode == 3, res.stderr
        solver = "ista" if method == "light-tv" else method
        assert f"solver diverged: {solver} at iteration " in res.stderr
        assert ", column " in res.stderr
        assert not (tmp_path / "curve.csv").exists()

    def test_nonfinite_echo_exits_2(self, tmp_path):
        _, echo, _ = simulate_small(tmp_path, nx=4, ny=4)
        bad = tmp_path / "nan_echo.tsr3"
        y = read_tensor(str(echo))
        y[3, 1, 2] = np.nan
        write_tensor(str(bad), y)
        res = run_cli("reconstruct", "--echo", bad, "--method", "fista", "--out", tmp_path / "r.tsr3")
        assert res.returncode == 2
        assert str(bad) in res.stderr
        assert "non-finite" in res.stderr
        assert not (tmp_path / "r.tsr3").exists()

    def test_flag_overrides_config_file(self, tmp_path):
        _, echo, _ = simulate_small(tmp_path, nx=4, ny=4)
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"max_outer": 2, "sigma": 1e-12}\n')
        rep = tmp_path / "rep.json"
        res = run_cli(
            "reconstruct", "--echo", echo, "--method", "ista",
            "--config", cfg, "--max-outer", "5",
            "--out", tmp_path / "r.tsr3", "--report", rep,
        )
        assert res.returncode == 0, res.stderr
        assert json.loads(rep.read_text())["iterations"] == 5
        # a flag that is left out keeps the file's value, and a key in neither the default
        args = cli.build_parser().parse_args(["reconstruct", "--echo", str(echo), "--method", "ista",
                                              "--config", str(cfg), "--max-outer", "5", "--out", "r"])
        assert cli._solver_config(args) == SolverConfig(max_outer=5, sigma=1e-12)

    def test_timing_populates_report(self, tmp_path):
        _, echo, _ = simulate_small(tmp_path, nx=4, ny=4)
        rep = tmp_path / "rep.json"
        res = run_cli(
            "reconstruct", "--echo", echo, "--method", "fista",
            "--timing", "--repeats", "2",
            "--out", tmp_path / "r.tsr3", "--report", rep,
        )
        assert res.returncode == 0, res.stderr
        doc = json.loads(rep.read_text())
        assert doc["wall_time_s"] > 0.0
        assert doc["t_ag_s"] > 0.0

    def test_lista_equivalence_matches_ista_bytes(self, tmp_path):
        _, echo, _ = simulate_small(tmp_path, nx=6, ny=6)
        a = build_steering_matrix(default_geometry())
        alpha = 0.9 / spectral_norm_sq(a)
        lam = 0.4
        k = 9
        params_path = tmp_path / "params.json"
        write_lista_params(str(params_path), LearnedIstaParams.equivalence(k, alpha, lam))
        out_l = tmp_path / "lista.tsr3"
        res = run_cli(
            "reconstruct", "--echo", echo, "--method", "lista",
            "--params", params_path, "--out", out_l,
        )
        assert res.returncode == 0, res.stderr
        out_i = tmp_path / "ista.tsr3"
        res = run_cli(
            "reconstruct", "--echo", echo, "--method", "ista",
            "--alpha", repr(alpha), "--lambda1", lam,
            "--sigma", "1e-300", "--max-outer", k,
            "--out", out_i,
        )
        assert res.returncode == 0, res.stderr
        assert out_l.read_bytes() == out_i.read_bytes()

    def test_parameter_file_without_blocks_exits_2(self, tmp_path):
        _, echo, _ = simulate_small(tmp_path, nx=4, ny=4)
        params = tmp_path / "params.json"
        params.write_text('{"alpha": [0.1], "theta": [0.01]}\n')
        res = run_cli(
            "reconstruct", "--echo", echo, "--method", "lista",
            "--params", params, "--out", tmp_path / "r.tsr3",
        )
        assert res.returncode == 2, res.stderr
        assert f"error: {params}: missing parameter key 'blocks'" in res.stderr
        assert "Traceback" not in res.stderr

    def test_lista_without_params_exits_2(self, tmp_path):
        _, echo, _ = simulate_small(tmp_path, nx=4, ny=4)
        res = run_cli(
            "reconstruct", "--echo", echo, "--method", "lista", "--out", tmp_path / "r.tsr3"
        )
        assert res.returncode == 2
        assert "--params" in res.stderr


class TestEvaluate:
    def test_report_fields(self, tmp_path):
        scene, echo, _ = simulate_small(tmp_path)
        recon = tmp_path / "recon.tsr3"
        assert run_cli("reconstruct", "--echo", echo, "--method", "fista", "--out", recon).returncode == 0
        out = tmp_path / "eval.json"
        res = run_cli(
            "evaluate", "--recon", recon, "--truth", scene, "--out", out,
            "--cell-z", "0.4", "--cell-x", "0.5", "--cell-y", "0.5",
        )
        assert res.returncode == 0, res.stderr
        doc = json.loads(out.read_text())
        assert set(doc) == {
            "rmse", "psnr_db", "precision", "recall", "d_pcm", "variance",
            "reconstruction_time_s", "n_p", "a_p", "t_p", "tau_p",
        }
        assert doc["reconstruction_time_s"] is None
        assert doc["tau_p"] == pytest.approx((0.4**2 + 0.5**2 + 0.5**2) ** 0.5)

    def test_perfect_match_scores(self, tmp_path):
        scene, _, _ = simulate_small(tmp_path, seed=5)
        out = tmp_path / "eval.json"
        res = run_cli("evaluate", "--recon", scene, "--truth", scene, "--out", out)
        assert res.returncode == 0, res.stderr
        doc = json.loads(out.read_text())
        assert doc["rmse"] == 0.0
        assert doc["psnr_db"] == float("inf")
        assert doc["precision"] == 1.0 and doc["recall"] == 1.0

    def test_shifted_recon_tau_controls_matching(self, tmp_path):
        truth = np.zeros((16, 8, 8), dtype=complex)
        truth[6, 3, 3] = 1.0
        shifted = np.roll(truth, 1, axis=0)  # one elevation voxel away
        scene = tmp_path / "spike.tsr3"
        recon = tmp_path / "shifted.tsr3"
        write_tensor(str(scene), truth)
        write_tensor(str(recon), shifted)
        wide, tight = tmp_path / "wide.json", tmp_path / "tight.json"
        base = ["evaluate", "--recon", recon, "--truth", scene,
                "--cell-z", "1.0", "--cell-x", "1.0", "--cell-y", "1.0"]
        assert run_cli(*base, "--out", wide, "--tau-p", "2.0").returncode == 0
        assert run_cli(*base, "--out", tight, "--tau-p", "0.5").returncode == 0
        doc_w = json.loads(wide.read_text())
        doc_t = json.loads(tight.read_text())
        assert doc_w["precision"] == 1.0 and doc_w["recall"] == 1.0
        assert doc_t["precision"] == 0.0 and doc_t["recall"] == 0.0
        assert doc_t["d_pcm"] == pytest.approx(1.0)

    @pytest.mark.parametrize("flags, knob", [
        (["--tau-p", "nan"], "tau_p"),
        (["--tau-p", "inf"], "tau_p"),
        (["--cell-z", "-1"], "cell"),
        (["--cell-x", "0"], "cell"),
        (["--cell-y", "nan"], "cell"),
        (["--tau-p", "-inf"], "tau_p"),
        (["--cell-z", "-inf"], "cell"),
        (["--cell-x", "1e200"], "cell"),
    ])
    def test_invalid_matching_knob_exits_2(self, tmp_path, flags, knob):
        spike = np.zeros((8, 4, 4), dtype=complex)
        spike[3, 1, 2] = 1.0
        scene = tmp_path / "spike.tsr3"
        write_tensor(str(scene), spike)
        out = tmp_path / "eval.json"
        res = run_cli("evaluate", "--recon", scene, "--truth", scene, "--out", out, *flags)
        assert res.returncode == 2, res.stderr
        assert res.stderr.startswith(f"error: {knob} must ")
        assert not out.exists()

    def test_dim_mismatch_exits_2(self, tmp_path):
        scene, _, _ = simulate_small(tmp_path, nx=8, ny=8)
        other = tmp_path / "other.tsr3"
        write_tensor(str(other), np.zeros((64, 4, 4), dtype=complex))
        res = run_cli("evaluate", "--recon", other, "--truth", scene, "--out", tmp_path / "e.json")
        assert res.returncode == 2
        assert "dims differ" in res.stderr


class TestResolutionTest:
    def test_csv_written_and_deterministic(self, tmp_path):
        outs = []
        for name, threads in (("a", "1"), ("b", "4")):
            out = tmp_path / f"curve_{name}.csv"
            res = run_cli(
                "resolution-test", "--separations", "0.0,1.2", "--trials", "6",
                "--seed", "2", "--out", out,
                env_extra={"TOMOSAR_THREADS": threads},
            )
            assert res.returncode == 0, res.stderr
            outs.append(out.read_text())
        assert outs[0] == outs[1]
        lines = outs[0].strip().split("\n")
        assert lines[0].startswith("separation_rho_s,success_rate")
        assert len(lines) == 3  # header + 2 separations

    def test_empty_separations_exit_2(self, tmp_path):
        res = run_cli("resolution-test", "--separations", ",", "--out", tmp_path / "c.csv")
        assert res.returncode == 2

    @pytest.mark.parametrize("seps, bad", [("inf", "inf"), ("0.2,nan", "nan")])
    def test_nonfinite_separations_exit_2(self, tmp_path, seps, bad):
        res = run_cli("resolution-test", "--separations", seps, "--trials", "2", "--out", tmp_path / "c.csv")
        assert res.returncode == 2, res.stderr
        assert res.stderr == f"error: separations must be finite, got {bad}\n"
        assert not (tmp_path / "c.csv").exists()

    @pytest.mark.parametrize("argv, message", [
        (["--separations", "-inf"], "separations must be finite, got -inf"),
        (["--separations=-inf"], "separations must be finite, got -inf"),
        (["--separations", "-0.5,0.2"], "separations must be >= 0, got -0.5"),
        (["--separations=-0.5,0.2"], "separations must be >= 0, got -0.5"),
        (["--separations", "-abc"], "--separations entry '-abc' is not a number"),
    ])
    def test_separations_starting_with_minus_reach_the_range_check(self, tmp_path, argv, message):
        res = run_cli("resolution-test", *argv, "--trials", "2", "--out", tmp_path / "c.csv")
        assert res.returncode == 2, res.stderr
        assert res.stderr == f"error: {message}\n"
        assert not (tmp_path / "c.csv").exists()

    @pytest.mark.parametrize("flag, value, knob", [
        ("--half-width", "-1", "success_half_width"),
        ("--half-width", "0", "success_half_width"),
        ("--half-width", "nan", "success_half_width"),
        ("--half-width", "inf", "success_half_width"),
        ("--peak-threshold", "nan", "peak_rel_threshold"),
        ("--peak-threshold", "1", "peak_rel_threshold"),
        ("--half-width", "-inf", "success_half_width"),
    ])
    def test_invalid_scoring_knob_exits_2(self, tmp_path, flag, value, knob):
        res = run_cli("resolution-test", "--separations", "0.6", "--trials", "2",
                      flag, value, "--out", tmp_path / "c.csv")
        assert res.returncode == 2, res.stderr
        assert res.stderr.startswith(f"error: {knob} must ")
        assert not (tmp_path / "c.csv").exists()


class TestStructureTest:
    @pytest.mark.parametrize("flag, value, knob", [
        ("--tau-p", "nan", "tau_p"),
        ("--rel-threshold", "0", "rel_threshold"),
        ("--cell-x", "inf", "cell"),
        ("--cell-x", "1e200", "cell"),
    ])
    def test_bad_scoring_setting_exits_2_before_the_solve(self, tmp_path, monkeypatch, capsys,
                                                         flag, value, knob):
        def no_solve(*args, **kwargs):
            pytest.fail("structure-test reconstructed before checking its scoring settings")

        monkeypatch.setattr(bench, "reconstruct_tensor", no_solve)
        out = tmp_path / "bundle"
        rc = cli.main(["structure-test", "--object", "one_step", "--method", "sb-tv", "--nx", "8",
                       "--ny", "8", flag, value, "--out-dir", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: {knob} must ")
        assert not out.exists()

    def test_bundle_written(self, tmp_path):
        out = tmp_path / "bundle"
        res = run_cli(
            "structure-test", "--object", "one_step", "--method", "fista",
            "--nx", "8", "--ny", "8", "--seed", "1", "--out-dir", out,
        )
        assert res.returncode == 0, res.stderr
        for name in ("scene.tsr3", "echo.tsr3", "recon.tsr3", "recon_cloud.csv",
                     "truth_cloud.csv", "eval_report.json", "solver_report.json",
                     "metadata.json"):
            assert (out / name).is_file(), name


class TestTrainLista:
    def test_params_and_loss_deterministic(self, tmp_path):
        files = []
        for run in ("a", "b"):
            params = tmp_path / f"params_{run}.json"
            loss = tmp_path / f"loss_{run}.csv"
            res = run_cli(
                "train-lista", "--fibers", "12", "--epochs", "3", "--blocks", "3",
                "--seed", "7", "--out-params", params, "--out-loss", loss,
            )
            assert res.returncode == 0, res.stderr
            files.append((params.read_bytes(), loss.read_bytes()))
        assert files[0] == files[1]
        loss_lines = files[0][1].decode().strip().split("\n")
        assert loss_lines[0] == "epoch,loss"
        assert len(loss_lines) == 1 + 3 + 1  # header + epochs+1 entries
        losses = [float(l.split(",")[1]) for l in loss_lines[1:]]
        assert all(losses[i + 1] <= losses[i] + 1e-15 for i in range(len(losses) - 1))

    def test_bytes_independent_of_thread_count(self, tmp_path):
        files = []
        for threads in ("1", "2"):
            params = tmp_path / f"params_{threads}.json"
            loss = tmp_path / f"loss_{threads}.csv"
            res = run_cli(
                "train-lista", "--fibers", "40", "--epochs", "5", "--blocks", "4",
                "--out-params", params, "--out-loss", loss, env_extra={"TOMOSAR_THREADS": threads},
            )
            assert res.returncode == 0, res.stderr
            files.append((params.read_bytes(), loss.read_bytes()))
        assert files[0] == files[1]

    def test_bad_fibers_exit_2(self, tmp_path):
        res = run_cli("train-lista", "--fibers", "0", "--out-params", tmp_path / "p.json")
        assert res.returncode == 2

    def test_rejected_oversized_steps_print_nothing(self, tmp_path):
        # every candidate step of lr 1e300 overflows the loss and is rejected
        # without a numpy warning
        res = run_cli(
            "train-lista", "--fibers", "20", "--epochs", "3", "--blocks", "2", "--lr", "1e300",
            "--out-params", tmp_path / "p.json",
        )
        assert res.returncode == 0, res.stderr
        assert res.stderr == ""


_RECONSTRUCT = ["reconstruct", "--echo", "ECHO"]
_RESOLUTION = ["resolution-test", "--separations", "1.0", "--trials", "2"]
_TRAIN = ["train-lista", "--fibers", "10", "--epochs", "2", "--blocks", "2"]
_BUILDING = ["simulate", "--model", "building:box", "--nx", "8", "--ny", "8", "--out-echo", "OUT"]
# (command, the flags under test, the knob its message names)
_BAD_KNOBS = [
    (_RECONSTRUCT, ["--method", "fista", "--lambda1", "nan"], "lambda1"),
    (_RECONSTRUCT, ["--method", "fista", "--alpha", "nan"], "alpha"),
    (_RECONSTRUCT, ["--method", "sb-tv", "--alpha", "inf"], "alpha"),
    (_RECONSTRUCT, ["--method", "fista", "--tau1", "nan"], "tau1"),
    (_RECONSTRUCT, ["--method", "fista", "--tau2", "inf"], "tau2"),
    (_RECONSTRUCT, ["--method", "fista", "--lambda2", "nan"], "lambda2"),
    (_RECONSTRUCT, ["--method", "fista", "--mu", "nan"], "mu"),
    (_RECONSTRUCT, ["--method", "sb-tv", "--mu", "0"], "mu"),
    (_RESOLUTION, ["--lambda1", "nan"], "lambda1"),
    (_RESOLUTION, ["--snr", "-inf"], "snr_db"),
    (_RESOLUTION, ["--snr", "nan"], "snr_db"),
    (_TRAIN, ["--lr", "inf"], "lr"),
    (_TRAIN, ["--lr", "nan"], "lr"),
    (_TRAIN, ["--snr", "nan"], "snr_db"),
    (_TRAIN, ["--snr", "-inf"], "snr_db"),
    (_BUILDING, ["--cell-x", "nan", "--snr", "inf"], "cell_x"),
    (_BUILDING, ["--scene-size", "nan", "--snr", "inf"], "scene_size_m"),
    (_BUILDING, ["--spacing", "inf"], "spacing"),
    (_BUILDING, ["--spacing", "nan"], "spacing"),
    (_BUILDING, ["--spacing", "1e-9"], "spacing"),
    (_BUILDING, ["--scene-size", "1e300", "--snr", "inf"], "scene_size_m"),
]


class TestNonFiniteKnobs:
    """A NaN, infinite or otherwise invalid knob exits 2 with a message that
    names it, before any output is written: no solve on a NaN threshold, no
    noiseless study for an SNR of -inf, no endless step halving for an
    infinite learning rate, no empty scene for a NaN cell size."""

    @pytest.fixture(scope="class")
    def echo(self, tmp_path_factory):
        return simulate_small(tmp_path_factory.mktemp("echo"))[1]

    @pytest.mark.parametrize("base, flags, knob", _BAD_KNOBS,
                             ids=[" ".join([base[0], *flags]) for base, flags, _ in _BAD_KNOBS])
    def test_exits_2_naming_the_knob(self, tmp_path, echo, base, flags, knob):
        out = tmp_path / "out"
        output_flag = {"train-lista": "--out-params", "simulate": "--out-scene"}.get(base[0], "--out")
        argv = [{"ECHO": echo, "OUT": tmp_path / "echo.tsr3"}.get(a, a) for a in base + flags]
        # a subprocess with a timeout, so that a knob that makes a loop endless fails
        res = run_cli(*argv, output_flag, out, timeout=60)
        assert res.returncode == 2, res.stderr
        assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1, res.stderr
        assert knob in res.stderr
        assert not out.exists()


class TestInvalidInputFiles:
    """A geometry or parameter file with a non-finite number, and a run out
    of memory, exit 2 with one `error:` line and write no output."""

    @pytest.fixture(scope="class")
    def echo(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("echo") / "echo.tsr3"
        r = np.random.default_rng(0)
        write_tensor(str(path), r.standard_normal((12, 2, 2)) + 1j * r.standard_normal((12, 2, 2)))
        return path

    @pytest.mark.parametrize("command, field, value", [
        ("simulate", "baselines_m", math.inf),
        ("resolution-test", "baselines_m", math.nan),
        ("simulate", "wavelength_m", math.inf),
        ("reconstruct", "wavelength_m", math.inf),
        ("resolution-test", "elevation_grid_m", -math.inf),
        ("reconstruct", "reference_slant_range_m", math.nan),
    ])
    def test_nonfinite_geometry_exits_2_naming_the_file(self, tmp_path, capsys, echo, command, field, value):
        geom = tmp_path / "geometry.json"
        doc = {k: np.asarray(v).tolist() for k, v in dataclasses.asdict(default_geometry()).items()}
        if isinstance(doc[field], list):
            doc[field][1] = value
        else:
            doc[field] = value
        fileio.write_json(str(geom), doc)
        out = tmp_path / "out"
        argv = {
            "simulate": ["simulate", "--model", "one_step", "--nx", "4", "--ny", "4",
                         "--out-echo", str(tmp_path / "echo.tsr3"), "--out-scene"],
            "resolution-test": ["resolution-test", "--trials", "2", "--out"],
            "reconstruct": ["reconstruct", "--echo", str(echo), "--method", "fista", "--out"],
        }[command]
        assert cli.main(argv + [str(out), "--geometry", str(geom)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {geom}: {field} must be finite, got ") and err.count("\n") == 1, err
        assert not out.exists() and not (tmp_path / "echo.tsr3").exists()

    @pytest.mark.parametrize("alpha, theta", [([math.nan], [0.1]), ([0.1], [math.inf]), ([math.inf], [0.1])])
    def test_nonfinite_parameters_exit_2_naming_the_file(self, tmp_path, capsys, alpha, theta):
        params = tmp_path / "params.json"
        fileio.write_json(str(params), {"blocks": 1, "alpha": alpha, "theta": theta})
        out = tmp_path / "curve.csv"
        rc = cli.main(["resolution-test", "--method", "lista", "--params", str(params), "--trials", "2",
                       "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {params}: learned parameters must be finite") and err.count("\n") == 1, err
        assert not out.exists()

    @pytest.mark.parametrize("exc, message", [
        (MemoryError("Unable to allocate 9.31 TiB for an array"), "Unable to allocate 9.31 TiB for an array"),
        (MemoryError(), "out of memory"),
    ])
    def test_memory_error_exits_2(self, tmp_path, monkeypatch, capsys, exc, message):
        # no allocation: the scene builder raises as numpy does for an array too large to allocate
        def no_memory(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, "make_test_object", no_memory)
        out = tmp_path / "scene.tsr3"
        rc = cli.main(["simulate", "--model", "one_step", "--nx", "100000", "--ny", "100000",
                       "--out-scene", str(out), "--out-echo", str(tmp_path / "echo.tsr3")])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()
