"""tomosar benchmark: fixed CLI workloads, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload tv-volume --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --all --seed 0 --seconds 40     # every workload, table
    python3 perfbench/run.py --reference perfbench/reference.json
    python3 perfbench/run.py --record-quality 20     # re-record quality_ref.json

Every pass runs in a fresh child interpreter (``child.py``) that imports
``tomosar`` from ``src/`` by absolute path; ``tomosar`` need not be
installed.  The load is a closed loop: one client issues a pass's
operations back to back.  Another pass starts only if it is expected to
end within ``--seconds``, judged by the mean pass so far, so a run of a
workload whose pass takes 15-20 s makes two passes at the default 40 s
and no run overshoots its budget by more than its set-up.

``wall_s`` and ``setup_s`` are scaled by the host's slowdown, which the
host probe of ``probe.py`` measures around every operation, so that they
read as seconds on the reference machine at its usual speed; the traced run
reports the times as measured and the slowdown as ``run.raw_wall_s`` and
``run.host_slowdown``.

``--trace 0`` reports the end-to-end metrics of untraced passes.  ``--trace
1`` runs one untraced and one traced pass and reports the per-layer metrics
of the traced pass (see ``tracer.py``).  Either way the last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``attempted`` counts every operation run,
``failed`` those that failed the gate of ``workloads.py``.  ``correct`` also
requires that every pass, traced or not, wrote byte-identical files.

The run exits with code 2, printing no result, when the source tree is not
beside the benchmark.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("tv-volume", "l1-volume", "fiber-lab")
REFERENCE_WORKLOAD = "tv-volume-64"
SETUP_PROBES = 3
CHILD_TIMEOUT_S = 170.0

# Thread settings of every child.  TOMOSAR_THREADS=2 is what "auto" gives
# on the 2-core reference machine; OPENBLAS_NUM_THREADS=1 keeps BLAS work on
# the calling thread, where the per-span CPU clock sees it.
CHILD_ENV = {"TOMOSAR_THREADS": "2", "OPENBLAS_NUM_THREADS": "1"}

END_TO_END = [
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("op_ok_ratio", "ratio", "higher"),
]
# Per-layer metrics the traced run reports besides the tracer's.
RUN_METRICS = [
    ("run.raw_wall_s", "s", "lower"),
    ("run.host_slowdown", "ratio", "lower"),
]


class ChildFailed(Exception):
    """A child process crashed, timed out or broke the line protocol."""


def _child_env():
    env = dict(os.environ)
    env.update(CHILD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), str(HERE), env.get("PYTHONPATH")]))
    return env


def run_child(args, on_op=None):
    """Run ``child.py`` with ``args``; return (setup seconds, op records, done record)."""
    cmd = [sys.executable, str(HERE / "child.py")] + args
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=_child_env(), cwd=ROOT, text=True)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    setup, ops, done = None, [], None
    try:
        for line in proc.stdout:
            msg = json.loads(line)
            if "ready" in msg:
                setup = time.perf_counter() - t0
            elif "op" in msg:
                ops.append(msg)
                if on_op:
                    on_op(msg)
            elif "done" in msg:
                done = msg["done"]
        rc = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if rc != 0 or setup is None or done is None:
        raise ChildFailed(f"child {args} ended with code {rc}")
    return setup, ops, done


def _print_op(msg):
    status = "ok" if msg["ok"] else f"FAILED: {msg['error']}"
    print(f"  {msg['op']:<16} {msg['s']:9.3f} s  {status}", flush=True)


def _pass(workload, seed, smoke, trace=False, untraced_wall=None):
    out = OUT / f"{workload}-{os.getpid()}-{time.monotonic_ns()}"
    args = ["--workload", workload, "--seed", str(seed), "--out", str(out)] + ["--smoke"] * smoke
    if trace:
        args += ["--trace", "--untraced-wall", repr(untraced_wall)]
    try:
        return run_child(args, on_op=_print_op)
    finally:
        shutil.rmtree(out, ignore_errors=True)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def run_workload(workload, seed, seconds, trace, smoke=False):
    """Run one benchmark measurement; return the result object."""
    setups = []
    for _ in range(SETUP_PROBES):
        setup, _, done = run_child(["--probe"])
        setups.append(setup / done["setup_slowdown"])
    passes, attempted, failed, crashed = [], 0, 0, False
    budget_start = time.perf_counter()
    while True:
        try:
            setup, ops, done = _pass(workload, seed, smoke)
        except ChildFailed as exc:
            print(f"pass failed: {exc}", file=sys.stderr)
            crashed, attempted, failed = True, attempted + 1, failed + 1
            break
        setups.append(setup / done["setup_slowdown"])
        attempted += len(ops)
        failed += sum(not op["ok"] for op in ops)
        passes.append(done)
        elapsed = time.perf_counter() - budget_start
        if trace or elapsed * (len(passes) + 1) / len(passes) > seconds:
            break

    metrics, digests = {}, [p["digest"] for p in passes]
    if passes and not trace:
        metrics = {
            "wall_s": _metric(statistics.median(p["scaled_wall_s"] for p in passes), "s"),
            "setup_s": _metric(statistics.median(setups), "s"),
            "peak_rss_mb": _metric(statistics.median(p["maxrss_mb"] for p in passes), "MiB"),
            "op_ok_ratio": _metric((attempted - failed) / attempted, "ratio"),
        }
    elif passes and trace:
        try:
            _, ops, done = _pass(workload, seed, smoke, trace=True,
                                 untraced_wall=passes[0]["scaled_wall_s"])
            attempted += len(ops)
            failed += sum(not op["ok"] for op in ops)
            digests.append(done["digest"])
            metrics = done["per_layer"]
            metrics["run.raw_wall_s"] = _metric(passes[0]["wall_s"], "s")
            metrics["run.host_slowdown"] = _metric(passes[0]["host_slowdown"], "ratio")
        except ChildFailed as exc:
            print(f"traced pass failed: {exc}", file=sys.stderr)
            crashed, attempted, failed = True, attempted + 1, failed + 1
    if passes:
        print(json.dumps({"quality": passes[0]["quality"], "passes": len(passes),
                          "pass_wall_s": [p["wall_s"] for p in passes],
                          "pass_scaled_wall_s": [p["scaled_wall_s"] for p in passes],
                          "host_slowdown": [p["host_slowdown"] for p in passes]}))
    identical = all(d == digests[0] for d in digests)
    if not identical:
        print("outputs differ between passes of the same seed", file=sys.stderr)
    return {
        "correct": bool(passes) and not crashed and failed == 0 and identical,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def environment():
    """Machine, library and thread settings the numbers were taken with."""
    import numpy
    import scipy

    def read(path):
        try:
            return Path(path).read_text().strip()
        except OSError:
            return None

    cpu = None
    for line in (read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = read(idx / "level"), read(idx / "type")
        if kind in ("Unified", "Data"):
            caches[f"L{level}{'d' if kind == 'Data' else ''}"] = read(idx / "size")
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "caches": caches,
        "cpu_pinning": None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "child_env": CHILD_ENV,
        "git_commit": commit,
    }


def reference(path, seed, seconds):
    """Write the environment, every workload's metrics and one 64^3 sb-tv run."""
    record = {"environment": environment(), "seed": seed, "seconds": seconds, "workloads": {}}
    for w in WORKLOADS:
        record["workloads"][w] = {
            "end_to_end": run_workload(w, seed, seconds, trace=False),
            "per_layer": run_workload(w, seed, seconds, trace=True),
        }
    print(f"{REFERENCE_WORKLOAD}: one traced pass", flush=True)
    out = OUT / REFERENCE_WORKLOAD
    try:
        _, ops, done = run_child(["--workload", REFERENCE_WORKLOAD, "--seed", str(seed),
                                  "--out", str(out), "--trace"], on_op=_print_op)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    layers = done["per_layer"]
    record[REFERENCE_WORKLOAD] = {
        "ops": ops,
        "quality": done["quality"],
        "split_bregman_l1tv": {k.rsplit(".", 1)[1]: v["value"] for k, v in layers.items()
                               if k.startswith("solvers.split_bregman_l1tv.")},
    }
    Path(path).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")


def record_quality(n_seeds):
    """Record the quality of every operation for seeds 0..n_seeds-1.

    One untimed pass per workload and seed, two at a time; the record goes
    to ``quality_ref.json``, which later runs compare against.  Re-record
    only when a change to the program is meant to change its results.
    """
    from concurrent.futures import ThreadPoolExecutor

    sys.path.insert(0, str(SRC))
    import workloads

    def one(job):
        w, seed = job
        out = OUT / f"record-{w}-{seed}"
        try:
            _, ops, _ = run_child(["--workload", w, "--seed", str(seed), "--out", str(out), "--record"])
        finally:
            shutil.rmtree(out, ignore_errors=True)
        failed = [op for op in ops if not op["ok"]]
        if failed:
            raise ChildFailed(f"{w} seed {seed}: {failed}")
        print(f"recorded {w} seed {seed}", flush=True)
        return w, seed, [op["quality"] for op in ops]

    record = {w: {} for w in WORKLOADS}
    with ThreadPoolExecutor(max_workers=2) as pool:
        for w, seed, quality in pool.map(one, [(w, s) for w in WORKLOADS for s in range(n_seeds)]):
            record[w][str(seed)] = quality
    Path(workloads.REFERENCE_FILE).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {workloads.REFERENCE_FILE}")


def print_table(results):
    """Every metric of every workload with its name, unit and direction."""
    from tracer import METRICS

    spec = {name: (unit, better) for name, unit, better in END_TO_END + METRICS + RUN_METRICS}
    print(f"{'workload':<10} {'metric':<42} {'value':>14} {'unit':<6} better")
    for w, res in results.items():
        print(f"{w:<10} {'correct':<42} {str(res['correct']):>14}  "
              f"({res['attempted']} ops attempted, {res['failed']} failed)")
        for name, m in res["metrics"].items():
            unit, better = spec[name]
            print(f"{w:<10} {name:<42} {m['value']:>14.6g} {unit:<6} {better}")


def main(argv=None):
    p = argparse.ArgumentParser(description="tomosar benchmark")
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--all", action="store_true", help="run every workload, traced and untraced")
    p.add_argument("--reference", metavar="PATH", help="write the environment and reference record")
    p.add_argument("--smoke", action="store_true", help="seconds-long workload sizes, for a quick check")
    p.add_argument("--record-quality", type=int, metavar="N",
                   help="record every operation's quality for seeds 0..N-1")
    args = p.parse_args(argv)
    if not (SRC / "tomosar" / "cli.py").is_file():
        print(f"error: no tomosar source tree at {SRC}", file=sys.stderr)
        return 2
    if args.reference:
        reference(args.reference, args.seed, args.seconds)
        return 0
    if args.record_quality:
        record_quality(args.record_quality)
        return 0
    if args.all:
        print(json.dumps({"environment": environment()}), flush=True)
        results = {}
        for w in WORKLOADS:
            e2e = run_workload(w, args.seed, args.seconds, trace=False, smoke=args.smoke)
            layers = run_workload(w, args.seed, args.seconds, trace=True, smoke=args.smoke)
            results[w] = {
                "correct": e2e["correct"] and layers["correct"],
                "attempted": e2e["attempted"] + layers["attempted"],
                "failed": e2e["failed"] + layers["failed"],
                "metrics": {**e2e["metrics"], **layers["metrics"]},
            }
        print_table(results)
        return 0 if all(r["correct"] for r in results.values()) else 1
    if args.workload is None:
        p.error("--workload is required unless --all, --reference or --record-quality is given")
    print(json.dumps({"nproc": os.cpu_count(), "child_env": CHILD_ENV}), flush=True)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), smoke=args.smoke)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
