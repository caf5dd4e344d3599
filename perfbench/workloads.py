"""The benchmark's workloads: the CLI operations of one pass and the gate
every operation's outputs must pass.

Imported only inside the child process, where ``tomosar`` is importable.
An operation fails when its exit code is non-zero, when an output does not
parse with the repository's own readers, when an output is non-finite or
mis-shaped, or when a quality value leaves the workload's band in
``QUALITY_BANDS`` or falls behind the value ``quality_ref.json`` recorded
for the same seed and operation by more than ``SLACK`` allows.
"""

import hashlib
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from tomosar import fileio
from tomosar.bench import DEFAULT_SEPARATIONS
from tomosar.sensing import default_geometry
from tomosar.simulate import GridSpec

N_E, N_Z = 12, 64
L1_METHODS = ("ista", "fista", "light-tv")
LISTA_BLOCKS = 9

# Inputs are drawn from the seed, but the work of a pass should not be, or
# the spread between seeds hides a change in speed.
# sb-tv needs 265-295 iterations to converge on tv-volume, depending on the
# seed; capped below that, every seed runs the same number.
TV_MAX_OUTER = 250
# light-tv's default lambda1, 0.05 max|A^H Y|, ran from 5.69 to 6.95 over
# seeds; at the high end half the 64 slices stop after one iteration, so
# the op took 4.5-7.3 s by seed.  At this fixed value, the median of the
# default, the slices' iteration total varies by 6 % between seeds.
# ista and fista run all 300 iterations on every seed and keep the default.
LIGHT_TV_LAMBDA1 = 5.7


def _fiber_sizes(smoke):
    """(training fibers, epochs, trials per method) of the fiber-lab pass."""
    if smoke:
        return 50, 2, {"lista": 20, "fista": 20, "sb-tv": 1}
    return 500, 20, {"lista": 500, "fista": 500, "sb-tv": 5}


# Quality bands (lo, hi) per workload, for every operation of any seed.
# On seeds 0-19 the values spanned:
#   tv-volume  psnr 27.6-28.6 dB, precision 0.956-0.996, recall 0.998-1.0, d_pcm 0.168-0.340 m
#   l1-volume  psnr 30.3-31.3 dB, precision 0.988-1.0, recall 0.997-1.0, d_pcm 0.067-0.209 m
#   fiber-lab  lista_loss 0.168-0.187, success lista 0.150-0.198, fista 0.043-0.060, sb-tv 0-0.025
# The bands are wider by several times that spread, so that any seed passes
# and only a gross loss fails; SLACK below is the fine check.  Five sb-tv
# trials per separation seldom succeed at these settings, so that rate has
# no floor.
QUALITY_BANDS = {
    "tv-volume": {
        "psnr_db": (26.0, math.inf),
        "precision": (0.9, 1.0),
        "recall": (0.95, 1.0),
        "d_pcm_m": (0.0, 0.5),
    },
    "l1-volume": {
        "psnr_db": (29.5, math.inf),
        "precision": (0.95, 1.0),
        "recall": (0.97, 1.0),
        "d_pcm_m": (0.0, 0.3),
    },
    "fiber-lab": {
        "lista_loss": (0.0, 0.25),
        "success_rate.lista": (0.08, 1.0),
        "success_rate.fista": (0.015, 1.0),
        "success_rate.sb-tv": (0.0, 1.0),
    },
}


# How much worse than the value recorded for the same seed and operation a
# quality value may be: (better, absolute slack, relative slack).  Capping
# sb-tv at 40 of its ~280 iterations costs tv-volume 0.35-0.57 dB of psnr
# and 27-45 % of d_pcm, which these catch; rounding differences do not
# come near them.
SLACK = {
    "psnr_db": ("higher", 0.25, 0.0),
    "precision": ("higher", 0.02, 0.0),
    "recall": ("higher", 0.02, 0.0),
    "d_pcm_m": ("lower", 0.0, 0.10),
    "lista_loss": ("lower", 0.0, 0.02),
    "success_rate.lista": ("higher", 0.02, 0.0),
    "success_rate.fista": ("higher", 0.02, 0.0),
    "success_rate.sb-tv": ("higher", 0.05, 0.0),
}

REFERENCE_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "quality_ref.json")


class GateError(Exception):
    """An output failed the benchmark's correctness gate."""


@dataclass
class Op:
    """One CLI invocation and the check of what it wrote.

    ``check`` raises GateError (or a reader's own error) on a bad output and
    returns the quality values the operation produced.
    """

    argv: list
    check: object


def _tensor(path, shape):
    t = fileio.read_tensor(path)
    if t.shape != shape:
        raise GateError(f"{path}: shape {t.shape}, expected {shape}")
    if not np.all(np.isfinite(t)):
        raise GateError(f"{path}: non-finite entries")
    return t


def _finite(path, doc, keys):
    for k in keys:
        v = doc.get(k)
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            raise GateError(f"{path}: {k} = {v!r} is not a finite number")


def _solver_report(path):
    doc = fileio.read_json(path)
    _finite(path, doc, ("iterations",))
    if doc["iterations"] < 1 or len(doc["objective_trace"]) != doc["iterations"]:
        raise GateError(f"{path}: inconsistent iteration count")
    if not all(math.isfinite(v) for v in doc["objective_trace"]):
        raise GateError(f"{path}: non-finite objective trace")
    return doc


def _eval_report(path):
    doc = fileio.read_json(path)
    _finite(path, doc, ("rmse", "psnr_db", "precision", "recall", "d_pcm", "variance"))
    return {
        "psnr_db": doc["psnr_db"],
        "precision": doc["precision"],
        "recall": doc["recall"],
        "d_pcm_m": doc["d_pcm"],
    }


def _cloud(path):
    cloud = fileio.read_point_cloud(path)
    if cloud.n_points == 0 or not np.all(np.isfinite(cloud.xyz)):
        raise GateError(f"{path}: empty or non-finite point cloud")


def _curve(path, trials):
    rows = fileio.read_resolution_curve(path)
    seps = [r["separation_rho_s"] for r in rows]
    if seps != sorted(float(s) for s in DEFAULT_SEPARATIONS):
        raise GateError(f"{path}: separations {seps}")
    for r in rows:
        if r["trials"] != trials or not 0.0 <= r["success_rate"] <= 1.0:
            raise GateError(f"{path}: bad row {r}")
    return sum(r["success_rate"] for r in rows) / len(rows)


def _lista_params(path):
    params = fileio.read_lista_params(path)
    v = np.concatenate([params.alpha, params.theta])
    if params.blocks != LISTA_BLOCKS or not np.all(np.isfinite(v)) or np.any(v < 0):
        raise GateError(f"{path}: bad parameters {v}")


def _loss_curve(path, epochs):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split()
    if lines[0] != "epoch,loss" or len(lines) != epochs + 2:
        raise GateError(f"{path}: expected a header and {epochs + 1} rows")
    loss = [float(ln.split(",")[1]) for ln in lines[1:]]
    if not all(math.isfinite(v) for v in loss) or any(b > a for a, b in zip(loss, loss[1:])):
        raise GateError(f"{path}: loss is non-finite or increases")
    return loss[-1]


def _tv_volume(seed, out, smoke, n=32):
    n = 8 if smoke else n
    d = os.path.join(out, "tv")
    vol, echo = (N_Z, n, n), (N_E, n, n)

    def check():
        _tensor(os.path.join(d, "scene.tsr3"), vol)
        _tensor(os.path.join(d, "echo.tsr3"), echo)
        _tensor(os.path.join(d, "recon.tsr3"), vol)
        _cloud(os.path.join(d, "recon_cloud.csv"))
        _cloud(os.path.join(d, "truth_cloud.csv"))
        _solver_report(os.path.join(d, "solver_report.json"))
        fileio.read_json(os.path.join(d, "metadata.json"))
        return _eval_report(os.path.join(d, "eval_report.json"))

    argv = ["structure-test", "--object", "building:box", "--method", "sb-tv",
            "--nx", str(n), "--ny", str(n), "--snr", "5", "--seed", str(seed),
            "--max-outer", str(TV_MAX_OUTER), "--out-dir", d]
    return [Op(argv, check)]


def _l1_volume(seed, out, smoke):
    n = 16 if smoke else 64
    grid = GridSpec.from_geometry(default_geometry(), n_x=n, n_y=n)
    vol, echo_shape = grid.dims, (N_E,) + tuple(grid.dims[1:])
    scene, echo, meta = (os.path.join(out, f) for f in ("scene.tsr3", "echo.tsr3", "meta.json"))

    def check_simulate():
        _tensor(scene, vol)
        _tensor(echo, echo_shape)
        fileio.read_json(meta)
        return {}

    ops = [Op(["simulate", "--model", "building:box", "--snr", "5", "--seed", str(seed)]
              + (["--nx", str(n), "--ny", str(n)] if smoke else [])
              + ["--out-scene", scene, "--out-echo", echo, "--out-meta", meta], check_simulate)]
    for m in L1_METHODS:
        recon = os.path.join(out, f"recon_{m}.tsr3")
        report = os.path.join(out, f"eval_{m}.json")

        def check_recon(recon=recon):
            _tensor(recon, vol)
            _solver_report(recon + ".report.json")
            return {}

        fixed = ["--lambda1", repr(LIGHT_TV_LAMBDA1)] if m == "light-tv" else []
        ops.append(Op(["reconstruct", "--echo", echo, "--method", m, "--out", recon] + fixed, check_recon))
        ops.append(Op(["evaluate", "--recon", recon, "--truth", scene, "--out", report,
                       "--cell-z", repr(grid.cell_z), "--cell-x", repr(grid.cell_x),
                       "--cell-y", repr(grid.cell_y)],
                      lambda report=report: _eval_report(report)))
    return ops


def _fiber_lab(seed, out, smoke):
    fibers, epochs, trials_by_method = _fiber_sizes(smoke)
    params, loss = os.path.join(out, "lista.json"), os.path.join(out, "loss.csv")

    def check_train():
        _lista_params(params)
        return {"lista_loss": _loss_curve(loss, epochs)}

    ops = [Op(["train-lista", "--seed", str(seed), "--fibers", str(fibers), "--epochs", str(epochs),
               "--out-params", params, "--out-loss", loss], check_train)]
    for m, trials in trials_by_method.items():
        curve = os.path.join(out, f"curve_{m}.csv")
        argv = ["resolution-test", "--method", m, "--trials", str(trials), "--seed", str(seed),
                "--out", curve]
        if m == "lista":
            argv += ["--params", params]
        ops.append(Op(argv, lambda curve=curve, m=m, trials=trials:
                      {f"success_rate.{m}": _curve(curve, trials)}))
    return ops


# tv-volume-64 is the reference run tying tv-volume to a full 64^3 volume;
# it is not a benchmark workload and has no quality band.
BUILDERS = {
    "tv-volume": _tv_volume,
    "l1-volume": _l1_volume,
    "fiber-lab": _fiber_lab,
    "tv-volume-64": lambda seed, out, smoke: _tv_volume(seed, out, smoke, n=64),
}


def build(name, seed, out, smoke=False):
    """The operations of one pass of workload ``name``, writing under ``out``.

    ``smoke`` shrinks every operation to a second or so, for the benchmark's
    own tests; quality bands do not apply to it.
    """
    return BUILDERS[name](seed, out, smoke)


def summarize(values):
    """Reduce per-operation quality values to the workload's worst values.

    ``values`` is a list of dicts, one per operation.  For volume workloads
    the result is the largest d_pcm and the smallest precision, recall and
    psnr over all reconstructions.
    """
    merged = {}
    for q in values:
        for k, v in q.items():
            worse = max if k in ("d_pcm_m", "lista_loss") else min
            merged[k] = worse(merged[k], v) if k in merged else v
    return merged


def load_reference():
    """Recorded quality: workload -> seed -> one dict per operation."""
    try:
        with open(REFERENCE_FILE, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def quality_errors(name, seed, index, quality, reference):
    """Messages for every value in ``quality``, the output of operation
    ``index`` of a pass, that leaves the workload's band or falls behind the
    value recorded in ``reference`` for this seed and operation."""
    bad = []
    recorded = reference.get(name, {}).get(str(seed))
    for k, v in quality.items():
        lo, hi = QUALITY_BANDS.get(name, {}).get(k, (-math.inf, math.inf))
        if not lo <= v <= hi:
            bad.append(f"{k} = {v!r} outside [{lo}, {hi}]")
        if recorded is not None:
            ref = recorded[index][k]
            better, slack_abs, slack_rel = SLACK[k]
            slack = slack_abs + slack_rel * abs(ref)
            if (v < ref - slack) if better == "higher" else (v > ref + slack):
                bad.append(f"{k} = {v!r} is worse than the {ref!r} recorded for seed {seed} by more than {slack:.3g}")
    return bad


def digest(out):
    """Relative path -> sha256 of every file under ``out``."""
    result = {}
    for root, _, files in os.walk(out):
        for f in files:
            p = os.path.join(root, f)
            with open(p, "rb") as fh:
                result[os.path.relpath(p, out)] = hashlib.sha256(fh.read()).hexdigest()
    return dict(sorted(result.items()))
