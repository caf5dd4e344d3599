"""Command-line front end.

Subcommands: simulate, reconstruct, evaluate, resolution-test,
structure-test, train-lista.  Exit codes: 0 success, 1 I/O failure,
2 usage/configuration error, 3 solver divergence.  All outputs are
byte-reproducible for identical flags; timing fields are only populated
with --timing.  TOMOSAR_THREADS (0 = auto) caps resolution-test's pool over
its column batches, the slabs of a split-Bregman sweep, the blocks of an
ista or fista volume and light-tv's groups of slices.
"""

import argparse
import dataclasses
import os
import sys

import numpy as np

from . import bench, fileio
from .errors import ConfigurationError, DivergenceError
from .metrics import evaluate_tensors, timed
from .sensing import build_steering_matrix, default_geometry
from .simulate import GridSpec, generate_echo, make_fiber_dataset, make_test_object
from .solvers import SolverConfig, lista_train, reconstruct_tensor

METHODS = ("ista", "fista", "sb-tv", "light-tv", "lista")


def _require_file(path, what):
    if not os.path.isfile(path):
        raise ConfigurationError(f"{what} file not found: {path}")
    return path


def _load_geometry(args):
    if getattr(args, "geometry", None):
        return fileio.read_geometry(_require_file(args.geometry, "geometry"))
    return default_geometry()


def _grid_from(args, g):
    return GridSpec.from_geometry(
        g, n_x=args.nx, n_y=args.ny, cell_x=args.cell_x, cell_y=args.cell_y
    )


def _solver_config(args):
    base = {}
    if getattr(args, "config", None):
        path = _require_file(args.config, "solver config")
        base = fileio.read_json_object(path, "solver config")
        defaults = SolverConfig().__dict__
        unknown = set(base) - set(defaults)
        if unknown:
            raise ConfigurationError(f"unknown solver config keys: {sorted(unknown)}")
        for key, value in base.items():
            if value is not None or defaults[key] is not None:  # null: the derived default
                fileio.number_field(path, base, key, "solver config")
    flags = {f.name: getattr(args, f.name) for f in dataclasses.fields(SolverConfig)}
    return SolverConfig(**base).merged(**flags)


def _load_lista_params(args, needed):
    if not needed:
        return None
    if not getattr(args, "params", None):
        raise ConfigurationError("--method lista requires --params")
    return fileio.read_lista_params(_require_file(args.params, "parameter"))


def cmd_simulate(args):
    g = _load_geometry(args)
    grid = _grid_from(args, g)
    a = build_steering_matrix(g)
    params = {}
    if args.model == "two_scatterers":
        params["separation_rho"] = args.separation
    if args.model.startswith("building:"):
        params["spacing_m"] = args.spacing
        if args.scene_size is not None:
            params["scene_size_m"] = args.scene_size
    scene, meta = make_test_object(args.model, g, grid, seed=args.seed, **params)
    echo = generate_echo(scene, a, args.snr, args.seed)
    fileio.write_tensor(args.out_scene, scene)
    fileio.write_tensor(args.out_echo, echo)
    if args.out_meta:
        meta.update({"snr_db": args.snr, "grid_dims": list(grid.dims)})
        fileio.write_json(args.out_meta, meta)
    return 0


def cmd_reconstruct(args):
    g = _load_geometry(args)
    echo = fileio.read_tensor(_require_file(args.echo, "echo"))
    a = build_steering_matrix(g)
    if echo.shape[0] != a.shape[0]:
        raise ConfigurationError(
            f"echo channel count {echo.shape[0]} does not match geometry baselines {a.shape[0]}"
        )
    cfg = _solver_config(args)
    params = _load_lista_params(args, args.method == "lista")
    run = lambda: reconstruct_tensor(echo, a, args.method, cfg=cfg, lista_params=params)
    (recon, report), t_mean = timed(run, repeats=args.repeats if args.timing else 1)
    fileio.write_tensor(args.out, recon)
    report_path = args.report or args.out + ".report.json"
    doc = report.to_dict(include_timing=args.timing, t_ag_s=t_mean if args.timing else None)
    doc["method"] = args.method
    fileio.write_json(report_path, doc)
    return 0


def cmd_evaluate(args):
    recon = fileio.read_tensor(_require_file(args.recon, "reconstruction"))
    truth = fileio.read_tensor(_require_file(args.truth, "ground-truth"))
    if recon.shape != truth.shape:
        raise ConfigurationError(f"tensor dims differ: {recon.shape} vs {truth.shape}")
    report, _, _ = evaluate_tensors(
        recon,
        truth,
        rel_threshold=args.rel_threshold,
        tau_p=args.tau_p,
        cell=(args.cell_z, args.cell_x, args.cell_y),
    )
    fileio.write_json(args.out, report.to_dict())
    return 0


def cmd_resolution_test(args):
    g = _load_geometry(args)
    separations = []
    for s in filter(str.strip, args.separations.split(",")):
        try:
            separations.append(float(s))
        except ValueError:
            raise ConfigurationError(f"--separations entry {s!r} is not a number") from None
    if not separations:
        raise ConfigurationError("no separations given")
    cfg = _solver_config(args)
    params = _load_lista_params(args, args.method == "lista")
    rows = bench.resolution_curve(
        g,
        separations=separations,
        trials=args.trials,
        snr_db=args.snr,
        seed=args.seed,
        method=args.method,
        cfg=cfg,
        lista_params=params,
        peak_rel_threshold=args.peak_threshold,
        success_half_width=args.half_width,
    )
    fileio.write_resolution_curve(args.out, rows)
    return 0


def cmd_structure_test(args):
    g = _load_geometry(args)
    grid = _grid_from(args, g)
    cfg = _solver_config(args)
    params = _load_lista_params(args, args.method == "lista")
    bench.run_structure_test(
        args.object,
        args.method,
        g,
        grid,
        args.snr,
        args.seed,
        args.out_dir,
        cfg=cfg,
        lista_params=params,
        rel_threshold=args.rel_threshold,
        tau_p=args.tau_p,
        timing=args.timing,
        repeats=args.repeats,
    )
    return 0


def cmd_train_lista(args):
    g = _load_geometry(args)
    a = build_steering_matrix(g)
    dataset = make_fiber_dataset(a, args.fibers, args.seed, snr_db=args.snr)
    params, trace = lista_train(a, dataset, k_blocks=args.blocks, epochs=args.epochs, lr=args.lr)
    fileio.write_lista_params(args.out_params, params)
    if args.out_loss:
        lines = ["epoch,loss"] + [f"{i},{float(v)!r}" for i, v in enumerate(trace)]
        with open(args.out_loss, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines))
            fh.write("\n")
    return 0


def _add_geometry_arg(p):
    p.add_argument("--geometry", help="geometry JSON (default: built-in reference geometry)")


def _add_grid_args(p):
    p.add_argument("--nx", type=int, default=64, help="range bins (default 64)")
    p.add_argument("--ny", type=int, default=64, help="azimuth bins (default 64)")
    p.add_argument("--cell-x", type=float, default=0.5, help="range cell in meters (default 0.5)")
    p.add_argument("--cell-y", type=float, default=0.5, help="azimuth cell in meters (default 0.5)")


def _add_solver_args(p):
    p.add_argument("--config", help="solver config JSON; flags override its values")
    for f in dataclasses.fields(SolverConfig):
        p.add_argument("--" + f.name.replace("_", "-"), type=int if f.type is int else float, default=None)


def _add_timing_args(p):
    p.add_argument("--timing", action="store_true", help="record wall time (breaks byte reproducibility)")
    p.add_argument("--repeats", type=int, default=1, help="timing repetitions for the mean (default 1)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tomosar",
        description="Array tomography sandbox: simulate scenes, reconstruct, evaluate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a ground-truth scene and its noisy echo")
    _add_geometry_arg(p)
    _add_grid_args(p)
    p.add_argument("--model", required=True,
                   help="two_scatterers | one_step | multi_step | building:<box|l_shape|one_step|multi_step|flat>")
    p.add_argument("--separation", type=float, default=1.0,
                   help="two_scatterers separation in multiples of the Rayleigh resolution")
    p.add_argument("--spacing", type=float, default=0.5, help="building surface sampling in meters")
    p.add_argument("--scene-size", type=float, default=None, help="physical scene extent in meters")
    p.add_argument("--snr", type=float, default=5.0, help="echo SNR in dB (inf: no noise)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-scene", required=True)
    p.add_argument("--out-echo", required=True)
    p.add_argument("--out-meta", default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("reconstruct", help="reconstruct a scene tensor from an echo tensor")
    _add_geometry_arg(p)
    p.add_argument("--echo", required=True)
    p.add_argument("--method", required=True, choices=METHODS)
    p.add_argument("--params", help="learned parameters JSON (method lista)")
    p.add_argument("--out", required=True)
    p.add_argument("--report", default=None, help="solver report path (default: <out>.report.json)")
    _add_solver_args(p)
    _add_timing_args(p)
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("evaluate", help="score a reconstruction against ground truth")
    p.add_argument("--recon", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--tau-p", type=float, default=None, help="match tolerance (default: 1 voxel diagonal)")
    p.add_argument("--rel-threshold", type=float, default=0.1)
    p.add_argument("--cell-z", type=float, default=1.0)
    p.add_argument("--cell-x", type=float, default=1.0)
    p.add_argument("--cell-y", type=float, default=1.0)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("resolution-test", help="two-scatterer Monte Carlo separability study")
    _add_geometry_arg(p)
    p.add_argument("--method", default="fista", choices=METHODS)
    p.add_argument("--trials", type=int, default=500)
    p.add_argument("--snr", type=float, default=5.0)
    p.add_argument("--separations", default=",".join(str(s) for s in bench.DEFAULT_SEPARATIONS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--peak-threshold", type=float, default=0.25)
    p.add_argument("--half-width", type=float, default=0.5,
                   help="success tolerance as a fraction of the true separation")
    p.add_argument("--params", help="learned parameters JSON (method lista)")
    p.add_argument("--out", required=True)
    _add_solver_args(p)
    p.set_defaults(func=cmd_resolution_test)

    p = sub.add_parser("structure-test", help="object simulation + reconstruction + evaluation bundle")
    _add_geometry_arg(p)
    _add_grid_args(p)
    p.add_argument("--object", required=True,
                   help="one_step | multi_step | building:<kind>")
    p.add_argument("--method", required=True, choices=METHODS)
    p.add_argument("--snr", type=float, default=5.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rel-threshold", type=float, default=0.1)
    p.add_argument("--tau-p", type=float, default=None)
    p.add_argument("--params", help="learned parameters JSON (method lista)")
    p.add_argument("--out-dir", required=True)
    _add_solver_args(p)
    _add_timing_args(p)
    p.set_defaults(func=cmd_structure_test)

    p = sub.add_parser("train-lista", help="train per-block step/threshold scalars on synthetic fibers")
    _add_geometry_arg(p)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--fibers", type=int, default=500)
    p.add_argument("--epochs", type=int, default=200)
    p.add_argument("--lr", type=float, default=0.1)
    p.add_argument("--blocks", type=int, default=9)
    p.add_argument("--snr", type=float, default=5.0)
    p.add_argument("--out-params", required=True)
    p.add_argument("--out-loss", default=None)
    p.set_defaults(func=cmd_train_lista)

    return parser


# The only long options that take no value; argparse accepts their prefixes too.
_FLAGS = ("--timing", "--help")


def _glue_values(argv):
    """Join each long option that takes a value to a value starting with ``-``.

    argparse reads ``-inf`` or ``-0.5,0.2`` as an unknown option, so the
    library's own check would never see it; ``--half-width=-inf`` needs no
    help.
    """
    out = []
    for tok in argv:
        prev = out[-1] if out else ""
        takes_value = prev.startswith("--") and "=" not in prev and not any(f.startswith(prev) for f in _FLAGS)
        if takes_value and tok.startswith("-") and not tok.startswith("--"):
            out[-1] = f"{prev}={tok}"
        else:
            out.append(tok)
    return out


def main(argv=None):
    args = build_parser().parse_args(_glue_values(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(f"solver diverged: {exc}", file=sys.stderr)
        for i, v in enumerate(exc.objective_trace):
            print(f"  iteration {i}: objective {v!r}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
