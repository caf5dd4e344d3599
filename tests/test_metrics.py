"""Scoring: intensity metrics, point-cloud metrics, timing."""

import time

import numpy as np
import pytest

from tomosar import metrics
from tomosar.metrics import (
    EvalReport,
    d_pcm,
    evaluate_tensors,
    extract_point_cloud,
    precision_recall,
    psnr,
    rmse,
    timed,
    variance,
)
from tomosar.simulate import PointCloud

import reference


def no_matching(*args):
    raise AssertionError("matched clouds before the knobs were checked")


def random_cloud(n, seed, span=10.0):
    r = np.random.default_rng(seed)
    return PointCloud.from_xyz(r.uniform(0, span, (n, 3)))


class TestRmsePsnr:
    def test_identical_tensors(self):
        t = np.random.default_rng(0).standard_normal((3, 3, 3)) + 0j
        assert rmse(t, t) == 0.0
        assert psnr(t, t) == np.inf

    def test_known_psnr(self):
        # max magnitude 1, rmse 0.1 -> exactly 20 dB
        truth = np.zeros((1, 1, 2), dtype=complex)
        truth[0, 0, 0] = 1.0
        recon = truth.copy()
        # perturb both entries by 0.1 in magnitude
        recon[0, 0, 0] = 1.1
        recon[0, 0, 1] = 0.1
        assert rmse(recon, truth) == pytest.approx(0.1, rel=1e-12)
        assert psnr(recon, truth) == pytest.approx(20.0, rel=1e-12)

    def test_matches_scalar_oracle(self):
        r = np.random.default_rng(1)
        a = (r.standard_normal(8) + 1j * r.standard_normal(8)).reshape(2, 2, 2)
        b = (r.standard_normal(8) + 1j * r.standard_normal(8)).reshape(2, 2, 2)
        acc = 0.0
        for x, y in zip(a.ravel(), b.ravel()):
            acc += (abs(x) - abs(y)) ** 2
        assert rmse(a, b) == pytest.approx(np.sqrt(acc / 8), rel=1e-12)

    def test_symmetric(self):
        r = np.random.default_rng(2)
        a = r.standard_normal((2, 3, 2)) + 0j
        b = r.standard_normal((2, 3, 2)) + 0j
        assert rmse(a, b) == rmse(b, a)

    def test_magnitude_only(self):
        # phase differences alone contribute nothing
        t = np.full((2, 2, 2), 1.0 + 0j)
        rotated = t * np.exp(1j * 0.7)
        assert rmse(rotated, t) == pytest.approx(0.0, abs=1e-15)

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError):
            rmse(np.zeros((2, 2, 2), dtype=complex), np.zeros((2, 2, 3), dtype=complex))


class TestExtract:
    def test_single_spike(self):
        t = np.zeros((4, 4, 4), dtype=complex)
        t[1, 2, 3] = 2.0j
        cloud = extract_point_cloud(t, cell=(0.5, 1.0, 2.0))
        assert cloud.n_points == 1
        assert cloud.xyz[0].tolist() == [0.5, 2.0, 6.0]
        assert cloud.amplitude[0] == pytest.approx(2.0)

    def test_threshold_one_keeps_only_maxima(self):
        t = np.zeros((3, 3, 3), dtype=complex)
        t[0, 0, 0] = 5.0
        t[1, 1, 1] = 5.0
        t[2, 2, 2] = 4.999
        cloud = extract_point_cloud(t, rel_threshold=1.0)
        assert cloud.n_points == 2

    def test_five_spikes_counted(self):
        t = np.zeros((4, 4, 4), dtype=complex)
        spikes = [(0, 0, 0), (1, 2, 3), (2, 2, 2), (3, 0, 1), (0, 3, 3)]
        for i, v in enumerate(spikes):
            t[v] = 1.0 + 0.2 * i
        cloud = extract_point_cloud(t, rel_threshold=0.1)
        assert cloud.n_points == 5

    def test_strictly_above_threshold(self):
        t = np.zeros((2, 2, 2), dtype=complex)
        t[0, 0, 0] = 1.0
        t[1, 1, 1] = 0.1  # exactly at 0.1 * max: excluded by the strict rule
        cloud = extract_point_cloud(t, rel_threshold=0.1)
        assert cloud.n_points == 1

    def test_zero_tensor_empty_cloud(self):
        cloud = extract_point_cloud(np.zeros((3, 3, 3), dtype=complex))
        assert cloud.n_points == 0

    @pytest.mark.parametrize("cell", [(1.0, -1.0, 1.0), (0.0, 1.0, 1.0), (1.0, 1.0, float("nan")),
                                      (float("inf"), 1.0, 1.0), (1.0, 1.0)])
    def test_bad_cell_rejected(self, cell):
        with pytest.raises(ValueError, match="cell must hold three finite sizes > 0"):
            extract_point_cloud(np.ones((2, 2, 2), dtype=complex), cell=cell)

    def test_bad_threshold_rejected(self):
        t = np.ones((2, 2, 2), dtype=complex)
        with pytest.raises(ValueError):
            extract_point_cloud(t, rel_threshold=0.0)
        with pytest.raises(ValueError):
            extract_point_cloud(t, rel_threshold=1.5)


class TestPrecisionRecall:
    def test_identical_clouds(self):
        c = random_cloud(50, seed=3)
        p, r, counts = precision_recall(c, c, tau_p=0.5)
        assert p == 1.0 and r == 1.0
        assert counts["precision_matches"] == 50
        assert counts["recall_matches"] == 50

    def test_one_far_outlier(self):
        truth = random_cloud(20, seed=4)
        xyz = np.vstack([truth.xyz, [[1e6, 1e6, 1e6]]])
        recon = PointCloud.from_xyz(xyz)
        p, r, counts = precision_recall(recon, truth, tau_p=1.0)
        assert p == pytest.approx(20 / 21)
        assert r == 1.0
        assert counts["n_p"] == 21 and counts["a_p"] == 20

    def test_empty_recon_precision_undefined(self):
        truth = random_cloud(5, seed=5)
        p, r, counts = precision_recall(PointCloud.from_xyz(np.zeros((0, 3))), truth, tau_p=1.0)
        assert p is None
        assert r == 0.0
        assert counts["n_p"] == 0

    def test_empty_truth_recall_undefined(self):
        recon = random_cloud(5, seed=6)
        p, r, counts = precision_recall(recon, PointCloud.from_xyz(np.zeros((0, 3))), tau_p=1.0)
        assert r is None
        assert p == 0.0

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_brute_force(self, seed):
        recon = random_cloud(100, seed=seed * 2 + 10, span=5.0)
        truth = random_cloud(80, seed=seed * 2 + 11, span=5.0)
        tau = 0.8
        p, r, counts = precision_recall(recon, truth, tau_p=tau)
        m_recon, m_truth = reference.precision_recall_brute(recon.xyz, truth.xyz, tau)
        assert counts["precision_matches"] == m_recon
        assert counts["recall_matches"] == m_truth
        assert p == m_recon / 100
        assert r == m_truth / 80

    def test_monotone_in_tau(self):
        recon = random_cloud(60, seed=20, span=4.0)
        truth = random_cloud(60, seed=21, span=4.0)
        prev_p, prev_r = 0.0, 0.0
        for tau in (0.1, 0.3, 0.6, 1.0, 2.0, 10.0):
            p, r, _ = precision_recall(recon, truth, tau_p=tau)
            assert p >= prev_p and r >= prev_r
            prev_p, prev_r = p, r
        assert prev_p == 1.0 and prev_r == 1.0

    def test_bad_tau_rejected(self):
        c = random_cloud(3, seed=7)
        with pytest.raises(ValueError):
            precision_recall(c, c, tau_p=0.0)

    @pytest.mark.parametrize("tau", [-1.0, float("nan"), float("inf")])
    def test_bad_tau_rejected_before_matching(self, monkeypatch, tau):
        c = random_cloud(3, seed=7)
        monkeypatch.setattr(metrics, "_nn_dists", no_matching)
        with pytest.raises(ValueError, match="tau_p must be finite and positive"):
            precision_recall(c, c, tau_p=tau)


class TestDistanceMetrics:
    def test_identical_clouds(self):
        c = random_cloud(30, seed=8)
        assert d_pcm(c, c) == 0.0
        assert variance(c, c) == 0.0

    def test_single_pair(self):
        a = PointCloud.from_xyz(np.array([[0.0, 0.0, 0.0]]))
        b = PointCloud.from_xyz(np.array([[3.0, 0.0, 0.0]]))
        assert d_pcm(a, b) == pytest.approx(3.0)
        assert variance(a, b) == pytest.approx(0.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_brute_force(self, seed):
        recon = random_cloud(90, seed=seed + 30, span=3.0)
        truth = random_cloud(70, seed=seed + 40, span=3.0)
        dists = reference.nn_dists_brute(recon.xyz, truth.xyz)
        assert d_pcm(recon, truth) == pytest.approx(float(np.mean(dists)), abs=1e-12)
        # population variance: divide by N
        expect_var = float(np.mean((dists - dists.mean()) ** 2))
        assert variance(recon, truth) == pytest.approx(expect_var, abs=1e-12)

    def test_translation_invariance(self):
        recon = random_cloud(40, seed=50)
        truth = random_cloud(40, seed=51)
        shift = np.array([12.3, -4.5, 6.7])
        recon2 = PointCloud.from_xyz(recon.xyz + shift)
        truth2 = PointCloud.from_xyz(truth.xyz + shift)
        assert d_pcm(recon2, truth2) == pytest.approx(d_pcm(recon, truth), abs=1e-12)
        assert variance(recon2, truth2) == pytest.approx(variance(recon, truth), abs=1e-12)

    def test_empty_cloud_rejected(self):
        c = random_cloud(3, seed=9)
        empty = PointCloud.from_xyz(np.zeros((0, 3)))
        with pytest.raises(ValueError):
            d_pcm(empty, c)
        with pytest.raises(ValueError):
            variance(c, empty)


class TestTimed:
    def test_time_nonnegative(self):
        out, t = timed(lambda: 7)
        assert out == 7
        assert t >= 0.0

    def test_sleep_duration(self):
        _, t = timed(lambda: time.sleep(0.1))
        assert t == pytest.approx(0.1, abs=0.05)

    def test_mean_over_repeats(self):
        calls = []
        def f():
            calls.append(1)
            return len(calls)
        out, t = timed(f, repeats=4)
        assert len(calls) == 4
        assert out == 1  # first result is returned
        assert t >= 0.0


class TestEvaluateTensors:
    def test_report_fields_and_perfect_reconstruction(self):
        t = np.zeros((4, 4, 4), dtype=complex)
        t[1, 1, 1] = 1.0
        t[2, 3, 0] = 2.0
        report, rc, tc = evaluate_tensors(t, t, cell=(1.0, 1.0, 1.0))
        assert report.rmse == 0.0
        assert report.psnr_db == np.inf
        assert report.precision == 1.0
        assert report.recall == 1.0
        assert report.d_pcm == 0.0
        assert report.variance == 0.0
        assert report.n_p == 2 and report.a_p == 2
        d = report.to_dict()
        assert sorted(d) == [
            "a_p", "d_pcm", "n_p", "precision", "psnr_db", "recall",
            "reconstruction_time_s", "rmse", "t_p", "tau_p", "variance",
        ]
        assert d["t_p"] == {"precision": 2, "recall": 2}

    def test_default_tau_is_voxel_diagonal(self):
        t = np.zeros((4, 4, 4), dtype=complex)
        t[1, 1, 1] = 1.0
        report, _, _ = evaluate_tensors(t, t, cell=(1.0, 2.0, 2.0))
        assert report.tau_p == pytest.approx(3.0)  # sqrt(1+4+4)

    def test_empty_reconstruction(self):
        truth = np.zeros((3, 3, 3), dtype=complex)
        truth[0, 0, 0] = 1.0
        recon = np.zeros((3, 3, 3), dtype=complex)
        report, _, _ = evaluate_tensors(recon, truth)
        assert report.precision is None
        assert report.recall == 0.0
        assert report.d_pcm is None
        assert report.variance is None

    @pytest.mark.parametrize("knobs, message", [
        ({"tau_p": float("nan")}, "tau_p must be finite and positive"),
        ({"cell": (1.0, -1.0, 1.0)}, "cell must hold three finite sizes > 0"),
        ({"cell": (1.0, 1.0, float("nan"))}, "cell must hold three finite sizes > 0"),
        # finite sizes whose squares overflow the default tau_p
        ({"cell": (1.0, 1e200, 1.0)}, r"^cell must have a finite voxel diagonal, got \[1.0, 1e\+200, 1.0\]$"),
    ])
    def test_bad_knobs_rejected_before_matching(self, monkeypatch, knobs, message):
        t = np.zeros((4, 4, 4), dtype=complex)
        t[1, 1, 1] = 1.0
        monkeypatch.setattr(metrics, "_nn_dists", no_matching)
        with pytest.raises(ValueError, match=message):
            evaluate_tensors(t, t, **knobs)
