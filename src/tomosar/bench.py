"""Benchmark runners: the two-scatterer Monte Carlo resolution study and
the structure reconstruction tests.

Trials and their RNG substreams are derived from (seed, separation index,
trial index), and parallel fan-out happens over work units fixed by the
study alone, so every output is byte-identical across runs and worker
counts.
"""

import math
import os

import numpy as np

from . import fileio
from ._pool import run_indexed
from .errors import ConfigurationError, DivergenceError, whole_number
from .metrics import evaluate_tensors, scoring_settings, timed
from .sensing import build_steering_matrix, fiber_rng, noisy_fibers
from .simulate import GridSpec, generate_echo, make_test_object
from .solvers import reconstruct_tensor

DEFAULT_SEPARATIONS = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4)

# The widest column batch of a resolution study.  Per column-iteration
# (OPENBLAS_NUM_THREADS=1), sb-tv took 208 us at 5 columns, 33-35 us at
# 200-1000 and 44 us at 4000; fista 36, 3.6-3.9 and 4.3 us.
UNIT_COLUMNS = 512


def detect_peaks(mag, rel_threshold=0.25):
    """Indices of local maxima above rel_threshold * max, strongest-first
    non-maximum suppression of adjacent bins; returned sorted ascending.
    """
    mag = np.asarray(mag, dtype=np.float64)
    if mag.ndim != 1:
        raise ValueError("peak detection expects a 1D magnitude profile")
    peak = float(mag.max()) if mag.size else 0.0
    if peak <= 0.0:
        return []
    thr = rel_threshold * peak
    n = mag.size
    candidates = []
    for i in range(n):
        if mag[i] <= thr:
            continue
        left = mag[i - 1] if i > 0 else -math.inf
        right = mag[i + 1] if i < n - 1 else -math.inf
        if mag[i] >= left and mag[i] >= right:
            candidates.append(i)
    candidates.sort(key=lambda i: (-mag[i], i))
    accepted = []
    for i in candidates:
        if all(abs(i - j) > 1 for j in accepted):
            accepted.append(i)
    return sorted(accepted)


def _separation_units(n_separations, trials):
    """The work units of a resolution study: greedy runs of consecutive
    separation indices whose trials total at most UNIT_COLUMNS columns.

    A run always holds at least one separation, and the plan depends only on
    its two arguments, never on the worker count.
    """
    units = []
    for si in range(n_separations):
        if units and (len(units[-1]) + 1) * trials <= UNIT_COLUMNS:
            units[-1].append(si)
        else:
            units.append([si])
    return units


def resolution_curve(
    g,
    separations=DEFAULT_SEPARATIONS,
    trials=500,
    snr_db=5.0,
    seed=0,
    method="fista",
    cfg=None,
    lista_params=None,
    threads=None,
    peak_rel_threshold=0.25,
    success_half_width=0.5,
):
    """Monte Carlo two-scatterer separability study.

    For each separation (in multiples of the Rayleigh resolution) two unit
    scatterers are placed in one elevation fiber; ``trials`` noisy echoes are
    reconstructed and a trial succeeds when exactly two peaks are detected,
    each within ``success_half_width`` * true separation of its scatterer.
    Returns rows ready for the curve CSV; mean/std position estimates are
    taken over trials with exactly two detected peaks.

    The trials of whole separations are packed into column batches of at
    most UNIT_COLUMNS fibers (:func:`_separation_units`), one solve each;
    ``threads`` workers share the batches.  A DivergenceError names the
    separation and the trial of the failing column.
    """
    separations = [float(s) for s in separations]
    for s in separations:
        if not math.isfinite(s):
            raise ConfigurationError(f"separations must be finite, got {s!r}")
        if s < 0:
            raise ConfigurationError(f"separations must be >= 0, got {s!r}")
    trials = whole_number("trials", trials)
    if not (math.isfinite(success_half_width) and success_half_width > 0):
        raise ConfigurationError(
            f"success_half_width must be finite and > 0, got {success_half_width!r}"
        )
    if not (0.0 <= peak_rel_threshold < 1.0):  # at 1 or above no bin is a peak
        raise ConfigurationError(
            f"peak_rel_threshold must be in [0, 1), got {peak_rel_threshold!r}"
        )
    separations = sorted(separations)
    a = build_steering_matrix(g)
    grid = GridSpec.from_geometry(g, n_x=1, n_y=1)
    # every scene before any solve, so that a separation the grid cannot hold
    # fails first
    scenes = [make_test_object("two_scatterers", g, grid, seed=0, separation_rho=s) for s in separations]

    def echoes(si):
        streams = (fiber_rng(seed, si, t) for t in range(trials))
        return noisy_fibers(a @ scenes[si][0][:, 0, 0], snr_db, streams)

    def score(si, x_batch):
        meta = scenes[si][1]
        true_lo, true_hi = meta["true_elevations_m"]
        sep_m = meta["separation_m"]
        successes = 0
        est_lo, est_hi = [], []
        for t in range(trials):
            peaks = detect_peaks(np.abs(x_batch[:, t]), rel_threshold=peak_rel_threshold)
            if len(peaks) == 2:
                pos = sorted(g.elevation_grid_m[p] for p in peaks)
                est_lo.append(pos[0])
                est_hi.append(pos[1])
                tol = success_half_width * sep_m
                if abs(pos[0] - true_lo) <= tol and abs(pos[1] - true_hi) <= tol:
                    successes += 1
        return {
            "separation_rho_s": separations[si],
            "success_rate": successes / trials,
            "mean_pos_lo_m": float(np.mean(est_lo)) if est_lo else None,
            "mean_pos_hi_m": float(np.mean(est_hi)) if est_hi else None,
            "std_pos_lo_m": float(np.std(est_lo)) if est_lo else None,
            "std_pos_hi_m": float(np.std(est_hi)) if est_hi else None,
            "trials": trials,
        }

    def run_unit(unit):
        y_batch = np.hstack([echoes(si) for si in unit])
        try:
            x_batch = reconstruct_tensor(y_batch, a, method, cfg, lista_params)[0]
        except DivergenceError as exc:
            sep, t = separations[unit[exc.column // trials]], exc.column % trials
            raise DivergenceError(
                f"{exc} (separation {sep!r} rho_s, trial {t})",
                objective_trace=exc.objective_trace,
                column=exc.column,
            ) from exc
        return [score(si, x_batch[:, k * trials:(k + 1) * trials]) for k, si in enumerate(unit)]

    rows = run_indexed(run_unit, _separation_units(len(separations), trials), workers=threads)
    return [row for unit_rows in rows for row in unit_rows]


def run_structure_test(
    obj,
    method,
    g,
    grid,
    snr_db,
    seed,
    out_dir,
    cfg=None,
    lista_params=None,
    rel_threshold=0.1,
    tau_p=None,
    timing=False,
    repeats=1,
):
    """Generate a test object, reconstruct it, evaluate, and write a bundle.

    The bundle directory receives scene/echo/recon tensors, both extracted
    point clouds, the evaluation report, the solver report, and metadata.
    Timing fields stay null unless ``timing`` is set, keeping default output
    byte-reproducible.  The scoring settings are checked before the solve.
    """
    cell = (grid.cell_z, grid.cell_x, grid.cell_y)
    scoring_settings(rel_threshold, tau_p, cell)
    a = build_steering_matrix(g)
    scene, meta = make_test_object(obj, g, grid, seed=seed)
    echo = generate_echo(scene, a, snr_db, seed)
    (recon, solver_report), t_mean = timed(
        lambda: reconstruct_tensor(echo, a, method, cfg=cfg, lista_params=lista_params),
        repeats=repeats if timing else 1,
    )
    eval_report, recon_cloud, truth_cloud = evaluate_tensors(
        recon,
        scene,
        rel_threshold=rel_threshold,
        tau_p=tau_p,
        cell=cell,
        reconstruction_time_s=t_mean if timing else None,
    )
    os.makedirs(out_dir, exist_ok=True)
    fileio.write_tensor(os.path.join(out_dir, "scene.tsr3"), scene)
    fileio.write_tensor(os.path.join(out_dir, "echo.tsr3"), echo)
    fileio.write_tensor(os.path.join(out_dir, "recon.tsr3"), recon)
    fileio.write_point_cloud(os.path.join(out_dir, "recon_cloud.csv"), recon_cloud)
    fileio.write_point_cloud(os.path.join(out_dir, "truth_cloud.csv"), truth_cloud)
    fileio.write_json(os.path.join(out_dir, "eval_report.json"), eval_report.to_dict())
    fileio.write_json(
        os.path.join(out_dir, "solver_report.json"),
        solver_report.to_dict(t_ag_s=t_mean if timing else None),
    )
    meta_out = dict(meta)
    meta_out.update(
        {
            "method": method,
            "snr_db": snr_db,
            "grid": {
                "dims": list(grid.dims),
                "cell_m": [grid.cell_z, grid.cell_x, grid.cell_y],
                "origin_m": [grid.origin_z, grid.origin_x, grid.origin_y],
            },
        }
    )
    fileio.write_json(os.path.join(out_dir, "metadata.json"), meta_out)
    return eval_report
