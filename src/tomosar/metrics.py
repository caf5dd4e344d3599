"""Reconstruction quality metrics.

Image metrics (rmse, psnr) compare tensor magnitudes.  Point-cloud metrics
(precision, recall, d_pcm, variance) compare nearest-neighbor distances
between extracted scatterer clouds; the matcher uses a KD-tree and is
verified elsewhere against an O(N^2) brute force.  scipy is imported by the
matcher on its first call, so that commands which never match clouds do not
load it.
"""

import math
import time
from dataclasses import asdict, dataclass

import numpy as np

from .simulate import PointCloud


def rmse(xhat, x):
    """Root-mean-square error between magnitudes; symmetric in its arguments."""
    xhat = np.asarray(xhat)
    x = np.asarray(x)
    if xhat.shape != x.shape:
        raise ValueError(f"shape mismatch: {xhat.shape} vs {x.shape}")
    return float(np.sqrt(np.mean((np.abs(xhat) - np.abs(x)) ** 2)))


def psnr(xhat, x):
    """Peak signal-to-noise ratio in dB, peak taken from the actual tensor ``x``.

    rmse = 0 returns +inf as the perfect-reconstruction flag.
    """
    err = rmse(xhat, x)
    peak = float(np.max(np.abs(x)))
    if peak <= 0:
        raise ValueError("actual tensor has zero peak magnitude; psnr undefined")
    if err == 0.0:
        return math.inf
    return 20.0 * math.log10(peak / err)


def scoring_settings(rel_threshold=0.1, tau_p=None, cell=(1.0, 1.0, 1.0)):
    """Check the settings of a cloud comparison; return ``(tau_p, cell array)``.

    rel_threshold must lie in (0, 1], cell hold three finite sizes > 0 and a
    given tau_p be finite and positive; tau_p None becomes one voxel
    diagonal of ``cell``, which must be finite.  The ValueError names the bad setting, so a caller
    can check before it reconstructs anything.
    """
    if not (0.0 < rel_threshold <= 1.0):
        raise ValueError(f"rel_threshold must be in (0, 1], got {rel_threshold}")
    cell = np.asarray(cell, dtype=np.float64)
    if cell.shape != (3,) or not (np.all(np.isfinite(cell)) and np.all(cell > 0)):
        raise ValueError(f"cell must hold three finite sizes > 0, got {cell.tolist()}")
    if tau_p is None:
        tau_p = math.sqrt(sum(c * c for c in cell.tolist()))
        if not math.isfinite(tau_p):
            raise ValueError(f"cell must have a finite voxel diagonal, got {cell.tolist()}")
    elif not (math.isfinite(tau_p) and tau_p > 0):
        raise ValueError(f"tau_p must be finite and positive, got {tau_p}")
    return tau_p, cell


def extract_point_cloud(x, rel_threshold=0.1, cell=(1.0, 1.0, 1.0)):
    """Turn a tensor into a scatterer cloud by relative magnitude thresholding.

    Voxels with magnitude above rel_threshold * max become points at their
    voxel-center coordinates (xyz columns follow the tensor axis order,
    scaled by ``cell``, voxel (0, 0, 0) at the origin), carrying the magnitude as
    amplitude and the angle (mod 2 pi) as phase.  rel_threshold = 1 keeps
    exactly the maximal voxel(s); an all-zero tensor gives an empty cloud.
    """
    x = np.asarray(x)
    if x.ndim != 3:
        raise ValueError(f"expected an order-3 tensor, got shape {x.shape}")
    _, cell = scoring_settings(rel_threshold, cell=cell)
    mag = np.abs(x)
    peak = float(mag.max()) if mag.size else 0.0
    if peak == 0.0:
        empty = np.zeros((0,))
        return PointCloud(xyz=np.zeros((0, 3)), amplitude=empty, phase=empty)
    if rel_threshold >= 1.0:
        mask = mag >= peak
    else:
        mask = mag > rel_threshold * peak
    idx = np.argwhere(mask)
    xyz = idx * cell[None, :]
    amps = mag[mask]
    phases = np.mod(np.angle(x[mask]), 2.0 * np.pi)
    return PointCloud(xyz=xyz, amplitude=amps, phase=phases)


def _nn_dists(query_xyz, ref_xyz):
    from scipy.spatial import cKDTree  # ~0.4 s and ~30 MiB; only matching needs it

    tree = cKDTree(ref_xyz)
    d, _ = tree.query(query_xyz, k=1)
    return np.atleast_1d(d)


def precision_recall(recon: PointCloud, truth: PointCloud, tau_p: float):
    """Matched-point fractions at tolerance tau_p.

    precision = (recon points with nearest-truth distance <= tau_p) / N_p;
    recall = (truth points with nearest-recon distance <= tau_p) / A_p.
    The two matched counts are distinct and both returned in the counts
    dict.  An empty recon leaves precision None; an empty truth leaves
    recall None.
    """
    scoring_settings(tau_p=tau_p)
    n_p = recon.n_points
    a_p = truth.n_points
    counts = {"n_p": n_p, "a_p": a_p, "precision_matches": 0, "recall_matches": 0}
    precision = None
    recall = None
    if n_p > 0:
        if a_p > 0:
            d = _nn_dists(recon.xyz, truth.xyz)
            counts["precision_matches"] = int(np.sum(d <= tau_p))
        precision = counts["precision_matches"] / n_p
    if a_p > 0:
        if n_p > 0:
            d = _nn_dists(truth.xyz, recon.xyz)
            counts["recall_matches"] = int(np.sum(d <= tau_p))
        recall = counts["recall_matches"] / a_p
    return precision, recall, counts


def d_pcm(recon: PointCloud, truth: PointCloud):
    """Mean nearest-neighbor Euclidean distance, recon -> truth."""
    if recon.n_points == 0 or truth.n_points == 0:
        raise ValueError("d_pcm needs two nonempty clouds")
    return float(np.mean(_nn_dists(recon.xyz, truth.xyz)))


def variance(recon: PointCloud, truth: PointCloud):
    """Population variance of the recon -> truth nearest-neighbor distances."""
    if recon.n_points == 0 or truth.n_points == 0:
        raise ValueError("variance needs two nonempty clouds")
    d = _nn_dists(recon.xyz, truth.xyz)
    return float(np.mean((d - np.mean(d)) ** 2))


def timed(f, repeats=1):
    """Run ``f`` ``repeats`` times; return (first result, mean wall seconds)."""
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    result = None
    total = 0.0
    for i in range(repeats):
        t0 = time.perf_counter()
        out = f()
        total += time.perf_counter() - t0
        if i == 0:
            result = out
    return result, total / repeats


@dataclass
class EvalReport:
    """Full metric suite for one reconstruction against its ground truth."""

    rmse: float
    psnr_db: float
    precision: float | None
    recall: float | None
    d_pcm: float | None
    variance: float | None
    reconstruction_time_s: float | None
    n_p: int
    a_p: int
    t_p: dict
    tau_p: float

    def to_dict(self):
        return asdict(self)


def evaluate_tensors(
    recon,
    truth,
    rel_threshold=0.1,
    tau_p=None,
    cell=(1.0, 1.0, 1.0),
    reconstruction_time_s=None,
):
    """Evaluate a reconstructed tensor against the ground truth.

    Point clouds are extracted from both tensors at ``rel_threshold``;
    tau_p defaults to one voxel diagonal of ``cell``.  d_pcm and variance
    are None when either cloud is empty.
    """
    tau_p, cell = scoring_settings(rel_threshold, tau_p, cell)
    recon = np.asarray(recon)
    truth = np.asarray(truth)
    if recon.shape != truth.shape:
        raise ValueError(f"shape mismatch: {recon.shape} vs {truth.shape}")
    recon_cloud = extract_point_cloud(recon, rel_threshold, cell=cell)
    truth_cloud = extract_point_cloud(truth, rel_threshold, cell=cell)
    precision, recall, counts = precision_recall(recon_cloud, truth_cloud, tau_p)
    have_both = recon_cloud.n_points > 0 and truth_cloud.n_points > 0
    report = EvalReport(
        rmse=rmse(recon, truth),
        psnr_db=psnr(recon, truth),
        precision=precision,
        recall=recall,
        d_pcm=d_pcm(recon_cloud, truth_cloud) if have_both else None,
        variance=variance(recon_cloud, truth_cloud) if have_both else None,
        reconstruction_time_s=reconstruction_time_s,
        n_p=counts["n_p"],
        a_p=counts["a_p"],
        t_p={"precision": counts["precision_matches"], "recall": counts["recall_matches"]},
        tau_p=float(tau_p),
    )
    return report, recon_cloud, truth_cloud
