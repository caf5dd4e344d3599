"""Run a fixed sweep of CLI commands and write a sha256 manifest of every output.

Usage (from any directory):

    python3 tools/cli_sweep.py OUT_DIR

Each command runs as ``python -m tomosar.cli`` with the ``src/`` directory
beside this script first on ``PYTHONPATH`` and with ``TOMOSAR_THREADS=2
OPENBLAS_NUM_THREADS=1``.  The outputs land under ``OUT_DIR`` and their
digests, one ``<sha256>  <path>`` line per file sorted by path, go to
``OUT_DIR/manifest.sha256``.  Two checkouts compare with

    diff A/manifest.sha256 B/manifest.sha256

The sweep runs 33 commands and covers every subcommand and method:
``train-lista`` at its defaults; ``simulate`` of a 32x32 building:box and ``reconstruct`` of its
echo by each method (and sb-tv with lambda1 = 0); ``structure-test`` of the
same object by each method; ``resolution-test`` with 25 trials for every
method, and fista with 100 trials (two column batches of whole
separations, so the two workers share the study); the six commands of
acceptance criterion 10; and five noiseless (``--snr inf``) commands:
``train-lista`` at its other defaults, ``simulate`` of a 32x32 building:box
and of the two scatterers, and ``resolution-test`` by fista and by sb-tv;
and three commands that leave the grid and scoring flags out: ``simulate``
of one_step at the default grid, ``evaluate`` of that scene against itself
with no ``--cell-*`` flags, and ``simulate`` of the two scatterers at
``--separation 0.6``.
"""

import hashlib
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
METHODS = ("ista", "fista", "sb-tv", "light-tv", "lista")
MANIFEST = "manifest.sha256"


def _lista(method):
    return ["--params", "../train/params.json"] if method == "lista" else []


def commands():
    """(directory, argv) of each command, in the order they must run."""
    cmds = [
        ("train", ["train-lista", "--out-params", "params.json", "--out-loss", "loss.csv"]),
        ("volume", ["simulate", "--model", "building:box", "--nx", "32", "--ny", "32", "--seed", "1",
                    "--out-scene", "scene.tsr3", "--out-echo", "echo.tsr3", "--out-meta", "meta.json"]),
    ]
    for m in METHODS:
        cmds.append(("volume", ["reconstruct", "--echo", "echo.tsr3", "--method", m, *_lista(m),
                                "--out", f"recon-{m}.tsr3"]))
    cmds.append(("volume", ["reconstruct", "--echo", "echo.tsr3", "--method", "sb-tv", "--lambda1", "0",
                            "--out", "recon-sb-tv-l1-0.tsr3"]))
    for m in METHODS:
        cmds.append(("structure", ["structure-test", "--object", "building:box", "--nx", "32", "--ny", "32",
                                   "--seed", "2", "--method", m, *_lista(m), "--out-dir", m]))
    for m in METHODS:
        cmds.append(("resolution", ["resolution-test", "--method", m, *_lista(m), "--trials", "25",
                                    "--out", f"curve-{m}.csv"]))
    cmds.append(("resolution", ["resolution-test", "--method", "fista", "--trials", "100",
                                "--out", "curve-fista-100.csv"]))
    cmds += [
        ("c10", ["simulate", "--model", "one_step", "--nx", "8", "--ny", "8", "--snr", "5.0", "--seed", "3",
                 "--out-scene", "scene.tsr3", "--out-echo", "echo.tsr3", "--out-meta", "meta.json"]),
        ("c10", ["reconstruct", "--echo", "echo.tsr3", "--method", "light-tv", "--out", "recon.tsr3",
                 "--report", "report.json"]),
        ("c10", ["evaluate", "--recon", "recon.tsr3", "--truth", "scene.tsr3", "--out", "eval.json",
                 "--cell-z", "0.4", "--cell-x", "0.5", "--cell-y", "0.5"]),
        ("c10", ["resolution-test", "--separations", "0.2,1.2", "--trials", "4", "--seed", "1",
                 "--out", "curve.csv"]),
        ("c10", ["structure-test", "--object", "one_step", "--method", "fista", "--nx", "8", "--ny", "8",
                 "--seed", "2", "--out-dir", "bundle"]),
        ("c10", ["train-lista", "--fibers", "10", "--epochs", "2", "--blocks", "2", "--seed", "7",
                 "--out-params", "params.json", "--out-loss", "loss.csv"]),
        ("noiseless", ["train-lista", "--snr", "inf", "--out-params", "params.json", "--out-loss", "loss.csv"]),
        ("noiseless", ["simulate", "--model", "building:box", "--nx", "32", "--ny", "32", "--seed", "1",
                       "--snr", "inf", "--out-scene", "box-scene.tsr3", "--out-echo", "box-echo.tsr3",
                       "--out-meta", "box-meta.json"]),
        ("noiseless", ["simulate", "--model", "two_scatterers", "--nx", "8", "--ny", "8", "--snr", "inf",
                       "--out-scene", "pair-scene.tsr3", "--out-echo", "pair-echo.tsr3",
                       "--out-meta", "pair-meta.json"]),
    ]
    for m in ("fista", "sb-tv"):
        cmds.append(("noiseless", ["resolution-test", "--method", m, "--snr", "inf", "--trials", "25",
                                   "--out", f"curve-{m}.csv"]))
    cmds += [
        ("defaults", ["simulate", "--model", "one_step",
                      "--out-scene", "scene.tsr3", "--out-echo", "echo.tsr3", "--out-meta", "meta.json"]),
        ("defaults", ["evaluate", "--recon", "scene.tsr3", "--truth", "scene.tsr3", "--out", "eval.json"]),
        ("defaults", ["simulate", "--model", "two_scatterers", "--separation", "0.6",
                      "--out-scene", "pair-scene.tsr3", "--out-echo", "pair-echo.tsr3",
                      "--out-meta", "pair-meta.json"]),
    ]
    return cmds


def manifest(out_dir):
    """Sorted ``<sha256>  <path>`` lines of every file under out_dir but the manifest."""
    lines = []
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file() and p.name != MANIFEST):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        lines.append(f"{digest}  {path.relative_to(out_dir).as_posix()}")
    return lines


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: cli_sweep.py OUT_DIR", file=sys.stderr)
        return 2
    out_dir = Path(argv[0]).resolve()
    env = dict(os.environ, TOMOSAR_THREADS="2", OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    for sub, args in commands():
        cwd = out_dir / sub
        cwd.mkdir(parents=True, exist_ok=True)
        t0 = time.perf_counter()
        res = subprocess.run([sys.executable, "-m", "tomosar.cli", *args], cwd=cwd, env=env,
                             capture_output=True, text=True)
        print(f"{time.perf_counter() - t0:7.1f} s  exit {res.returncode}  {sub}: {' '.join(args)}", flush=True)
        if res.returncode != 0:
            print(res.stderr, file=sys.stderr)
            return 1
    lines = manifest(out_dir)
    (out_dir / MANIFEST).write_text("\n".join(lines) + "\n")
    print(f"{len(lines)} files hashed into {out_dir / MANIFEST}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
