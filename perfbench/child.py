"""One benchmark pass in a fresh interpreter.

Started by ``run.py`` with ``src/`` on PYTHONPATH.  It imports ``tomosar``,
reports that it is ready, runs one pass of a workload through
``tomosar.cli.main(argv)`` (one operation after another), and checks each
operation's outputs outside the timed region.  With ``--trace`` the span
recorder of ``tracer.py`` is installed first.  With ``--probe`` it exits as
soon as it is ready and has run the host probe, which measures set-up alone.

The host probe of ``probe.py`` runs once the child is ready and again after
every operation, outside the timed region.  Each time is reported as
measured and scaled by the host's slowdown: divided by the mean of the
probe's slowdowns on either side of it.

It writes one JSON object per line to standard output: ``{"ready": ...}``,
one ``{"op": ...}`` per operation, then ``{"done": ...}``.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time

import probe
import tomosar.cli
import workloads


def _run_cli(argv):
    try:
        return tomosar.cli.main(argv), None
    except SystemExit as exc:  # argparse usage errors
        return exc.code, "exit"
    except Exception as exc:  # noqa: BLE001  a crash fails the operation, not the pass
        return None, f"{type(exc).__name__}: {exc}"


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--probe", action="store_true")
    p.add_argument("--workload", choices=sorted(workloads.BUILDERS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--smoke", action="store_true", help="seconds-long sizes, no quality checks")
    p.add_argument("--record", action="store_true", help="skip the comparison with recorded quality")
    p.add_argument("--untraced-wall", type=float, default=None,
                   help="scaled wall time of the run's untraced pass, for trace.overhead")
    args = p.parse_args()

    proto = sys.stdout
    sys.stdout = sys.stderr  # keep the protocol stream to ourselves

    def emit(obj):
        proto.write(json.dumps(obj) + "\n")
        proto.flush()

    emit({"ready": True})
    setup_slowdown = probe.slowdown("setup", probe.measure("setup"))
    if args.probe:
        emit({"done": {"setup_slowdown": setup_slowdown}})
        return 0

    rec = None
    if args.trace:
        from tracer import Recorder

        rec = Recorder()
        rec.install()
    os.makedirs(args.out, exist_ok=True)
    ops = workloads.build(args.workload, args.seed, args.out, smoke=args.smoke)
    reference = {} if args.record else workloads.load_reference()
    host = args.workload
    slowdowns = [probe.slowdown(host, probe.measure(host))]
    wall = scaled_wall = 0.0
    qualities = []
    for index, op in enumerate(ops):
        t0 = time.perf_counter()
        if rec:
            with rec.span(f"cli.{op.argv[0]}"):
                rc, error = _run_cli(op.argv)
        else:
            rc, error = _run_cli(op.argv)
        dt = time.perf_counter() - t0
        if rec:
            rec.enabled = False
        slowdowns.append(probe.slowdown(host, probe.measure(host)))
        scaled = dt / ((slowdowns[-2] + slowdowns[-1]) / 2)
        wall += dt
        scaled_wall += scaled
        if error is None and rc != 0:
            error = f"exit code {rc}"
        quality = {}
        if error is None:
            try:
                quality = op.check()
                if not args.smoke:
                    error = "; ".join(workloads.quality_errors(
                        args.workload, args.seed, index, quality, reference)) or None
            except Exception as exc:  # noqa: BLE001  any reader error fails the gate
                error = f"gate: {type(exc).__name__}: {exc}"
        qualities.append(quality)
        if rec:
            rec.enabled = True
        emit({"op": op.argv[0], "s": dt, "scaled_s": scaled, "ok": error is None, "error": error,
              "quality": quality})

    done = {
        "wall_s": wall,
        "scaled_wall_s": scaled_wall,
        "setup_slowdown": setup_slowdown,
        "host_slowdown": statistics.median(slowdowns),
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "quality": workloads.summarize(qualities),
        "digest": workloads.digest(args.out),
    }
    if rec:
        rec.uninstall()
        done["per_layer"] = rec.metrics(wall, scaled_wall / (args.untraced_wall or scaled_wall))
    emit({"done": done})
    return 0


if __name__ == "__main__":
    sys.exit(main())
