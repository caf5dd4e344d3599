"""External span recorder for the traced benchmark run.

``Recorder.install()`` wraps each function listed in ``LAYERS`` and rebinds
every ``tomosar`` module attribute that is bound to the original function
object, because several modules import those functions by name.  Nothing
under ``src/`` changes; ``uninstall()`` restores the originals.

Each call becomes a span with wall time (``time.perf_counter``), thread CPU
time (``time.thread_time``) and a parent, kept on one stack per thread.
Spans opened in a ``run_indexed`` worker thread take the enclosing
``run_indexed`` span as their parent.  Self time is a span's duration minus
the union of its children's intervals.  Spans are folded into per-function
totals as they close, so memory stays flat however many calls a run makes.

GFLOP, GB and MB counts are computed from argument shapes, not measured.
"""

import contextlib
import functools
import sys
import threading
import time

# Per-layer metrics: (name, unit, better).  BENCHMARK.json lists the same.
METRICS = [
    ("cli.simulate.s", "s", "lower"),
    ("cli.reconstruct.s", "s", "lower"),
    ("cli.evaluate.s", "s", "lower"),
    ("cli.resolution-test.s", "s", "lower"),
    ("cli.structure-test.s", "s", "lower"),
    ("cli.train-lista.s", "s", "lower"),
    ("bench.run_structure_test.s", "s", "lower"),
    ("bench.resolution_curve.s", "s", "lower"),
    ("bench.resolution_curve.self_s", "s", "lower"),
    ("bench.resolution_curve.trials", "count", "higher"),
    ("bench.detect_peaks.calls", "count", "lower"),
    ("bench.detect_peaks.s", "s", "lower"),
    ("simulate.make_test_object.s", "s", "lower"),
    ("simulate.generate_echo.s", "s", "lower"),
    ("simulate.make_fiber_dataset.s", "s", "lower"),
    ("sensing.add_noise.s", "s", "lower"),
    ("sensing.add_noise.fibers", "count", "higher"),
    ("sensing.forward.calls", "count", "lower"),
    ("sensing.forward.s", "s", "lower"),
    ("sensing.forward.gflop", "GFLOP", "lower"),
    ("sensing.forward.gb", "GB", "lower"),
    ("sensing.adjoint.calls", "count", "lower"),
    ("sensing.adjoint.s", "s", "lower"),
    ("sensing.adjoint.gflop", "GFLOP", "lower"),
    ("sensing.adjoint.gb", "GB", "lower"),
    ("sensing.spectral_norm_sq.calls", "count", "lower"),
    ("sensing.spectral_norm_sq.s", "s", "lower"),
    ("sensing.spectral_norm_sq.wait_s", "s", "lower"),
    ("tensor.diff.calls", "count", "lower"),
    ("tensor.diff.s", "s", "lower"),
    ("tensor.diff.wait_s", "s", "lower"),
    ("tensor.diff.gb", "GB", "lower"),
    ("tensor.diff_adjoint.calls", "count", "lower"),
    ("tensor.diff_adjoint.s", "s", "lower"),
    ("tensor.diff_adjoint.wait_s", "s", "lower"),
    ("tensor.diff_adjoint.gb", "GB", "lower"),
    ("tensor.tv_norm.calls", "count", "lower"),
    ("tensor.tv_norm.s", "s", "lower"),
    ("tensor.frobenius.calls", "count", "lower"),
    ("tensor.frobenius.s", "s", "lower"),
    ("tensor.l1.calls", "count", "lower"),
    ("tensor.l1.s", "s", "lower"),
    ("solvers.soft_threshold.calls", "count", "lower"),
    ("solvers.soft_threshold.s", "s", "lower"),
    ("solvers.soft_threshold.wait_s", "s", "lower"),
    ("solvers.soft_threshold.gb", "GB", "lower"),
    ("solvers.split_bregman_l1tv.calls", "count", "lower"),
    ("solvers.split_bregman_l1tv.s", "s", "lower"),
    ("solvers.split_bregman_l1tv.self_s", "s", "lower"),
    ("solvers.split_bregman_l1tv.iterations", "count", "lower"),
    ("solvers.split_bregman_l1tv.ms_per_iter", "ms", "lower"),
    ("solvers.split_bregman_l1tv.converged", "count", "higher"),
    ("solvers.reconstruct_tensor.s", "s", "lower"),
    ("solvers.light_reconstruct_enhance.s", "s", "lower"),
    ("solvers.tv_denoise_enhance.s", "s", "lower"),
    ("solvers.tv_denoise_enhance.self_s", "s", "lower"),
    ("solvers.objective_eval.calls", "count", "lower"),
    ("solvers.objective_eval.s", "s", "lower"),
    ("solvers.resolve_config.calls", "count", "lower"),
    ("solvers.resolve_config.s", "s", "lower"),
    ("solvers.lista_train.s", "s", "lower"),
    ("solvers.lista_train.self_s", "s", "lower"),
    ("solvers.lista_train.epochs", "count", "higher"),
    ("solvers.ista.iterations", "count", "lower"),
    ("solvers.ista.matmul_gflop", "GFLOP", "lower"),
    ("metrics.evaluate_tensors.s", "s", "lower"),
    ("metrics.extract_point_cloud.s", "s", "lower"),
    ("metrics.extract_point_cloud.points", "count", "lower"),
    ("metrics.precision_recall.s", "s", "lower"),
    ("metrics.d_pcm.s", "s", "lower"),
    ("metrics.variance.s", "s", "lower"),
    ("fileio.write_tensor.calls", "count", "lower"),
    ("fileio.write_tensor.s", "s", "lower"),
    ("fileio.write_tensor.mb", "MB", "lower"),
    ("fileio.read_tensor.calls", "count", "lower"),
    ("fileio.read_tensor.s", "s", "lower"),
    ("fileio.read_tensor.mb", "MB", "lower"),
    ("fileio.write_point_cloud.s", "s", "lower"),
    ("fileio.write_point_cloud.rows", "count", "lower"),
    ("fileio.write_json.calls", "count", "lower"),
    ("fileio.write_json.s", "s", "lower"),
    ("fileio.write_resolution_curve.s", "s", "lower"),
    ("fileio.write_lista_params.s", "s", "lower"),
    ("fileio.read_lista_params.s", "s", "lower"),
    ("pool.run_indexed.calls", "count", "lower"),
    ("pool.run_indexed.s", "s", "lower"),
    ("pool.run_indexed.items", "count", "higher"),
    ("pool.run_indexed.workers", "count", "higher"),
    ("pool.run_indexed.cpu_s", "s", "lower"),
    ("pool.run_indexed.parallelism", "ratio", "higher"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead", "ratio", "lower"),
]


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _matmul(args, kwargs, result):
    # A (or A^H) applied to every fiber of a complex tensor: 8 real flops per
    # multiply-add; bytes are one read of each operand and one write.
    a = _arg(args, kwargs, 0, "a")
    x = args[1] if len(args) > 1 else kwargs.get("x", kwargs.get("y"))
    fibers = x.size // x.shape[0]
    return {"gflop": 8e-9 * a.size * fibers, "gb": 1e-9 * (a.nbytes + x.nbytes + result.nbytes)}


def _stream(args, kwargs, result):
    # one read of the input and one write of the output
    return {"gb": 2e-9 * result.nbytes}


def _trials(args, kwargs, result):
    return {"trials": sum(r["trials"] for r in result)}


def _fibers(args, kwargs, result):
    return {"fibers": result.shape[1] * result.shape[2]}


def _sb_report(args, kwargs, result):
    report = result[1]
    return {"iterations": report.iterations, "converged": int(report.converged)}


def _epochs(args, kwargs, result):
    return {"epochs": len(result[1]) - 1}


def _points(args, kwargs, result):
    return {"points": result.n_points}


def _rows(args, kwargs, result):
    return {"rows": _arg(args, kwargs, 1, "cloud").n_points}


def _mb_written(args, kwargs, result):
    return {"mb": 8e-6 * _arg(args, kwargs, 1, "t").size}


def _mb_read(args, kwargs, result):
    return {"mb": 8e-6 * result.size}


# module -> function -> counter of (args, kwargs, result), or None
LAYERS = {
    "bench": {"run_structure_test": None, "resolution_curve": _trials, "detect_peaks": None},
    "simulate": {"make_test_object": None, "generate_echo": None, "make_fiber_dataset": None},
    "sensing": {"add_noise": _fibers, "forward": _matmul, "adjoint": _matmul, "spectral_norm_sq": None},
    "tensor": {"diff": _stream, "diff_adjoint": _stream, "tv_norm": None, "frobenius": None, "l1": None},
    "solvers": {
        "soft_threshold": _stream,
        "split_bregman_l1tv": _sb_report,
        "reconstruct_tensor": None,
        "light_reconstruct_enhance": None,
        "tv_denoise_enhance": None,
        "objective_eval": None,
        "resolve_config": None,
        "lista_train": _epochs,
    },
    "metrics": {
        "evaluate_tensors": None,
        "extract_point_cloud": _points,
        "precision_recall": None,
        "d_pcm": None,
        "variance": None,
    },
    "fileio": {
        "write_tensor": _mb_written,
        "read_tensor": _mb_read,
        "write_point_cloud": _rows,
        "write_json": None,
        "write_resolution_curve": None,
        "write_lista_params": None,
        "read_lista_params": None,
    },
}


def _accumulate(dst, src):
    for k, v in src.items():
        dst[k] = dst.get(k, 0) + v


def _union(intervals):
    total, end = 0.0, float("-inf")
    for t0, t1 in sorted(intervals):
        if t1 <= end:
            continue
        total += t1 - max(t0, end)
        end = t1
    return total


class _Span:
    __slots__ = ("name", "t0", "c0", "covered", "intervals")

    def __init__(self, name, overlapping):
        self.name = name
        self.covered = 0.0
        # Children on one thread run one after another, so their durations
        # add up; only a pool span, whose children run on several threads,
        # keeps intervals for a union.
        self.intervals = [] if overlapping else None
        self.t0 = time.perf_counter()
        self.c0 = time.thread_time()


class _ThreadState:
    __slots__ = ("stack", "totals")

    def __init__(self):
        self.stack = []
        self.totals = {}


class Recorder:
    """Collects spans from wrapped ``tomosar`` functions into per-name totals."""

    def __init__(self):
        self.enabled = True
        self._lock = threading.Lock()
        self._local = threading.local()
        self._threads = []
        self._installed = []

    def _thread(self):
        th = getattr(self._local, "state", None)
        if th is None:
            th = self._local.state = _ThreadState()
            with self._lock:
                self._threads.append(th)
        return th

    def _open(self, name, overlapping=False):
        th = self._thread()
        sp = _Span(name, overlapping)
        th.stack.append(sp)
        return th, sp

    def _close(self, th, sp, counts=None):
        t1, c1 = time.perf_counter(), time.thread_time()
        st = th.stack
        st.pop()
        dur = t1 - sp.t0
        if st:
            parent = st[-1]
            if parent.intervals is None:
                parent.covered += dur
            else:
                parent.intervals.append((sp.t0, t1))
        covered = sp.covered if sp.intervals is None else _union(sp.intervals)
        tot = th.totals.get(sp.name)
        if tot is None:
            tot = th.totals[sp.name] = {"calls": 0, "s": 0.0, "self_s": 0.0, "cpu_s": 0.0, "covered_s": 0.0}
        tot["calls"] += 1
        tot["s"] += dur
        tot["self_s"] += dur - covered
        tot["cpu_s"] += c1 - sp.c0
        tot["covered_s"] += covered
        if counts:
            _accumulate(tot, counts)

    @property
    def totals(self):
        """Per-name totals merged over every thread that recorded spans."""
        merged = {}
        with self._lock:
            threads = list(self._threads)
        for th in threads:
            for name, tot in th.totals.items():
                _accumulate(merged.setdefault(name, {}), tot)
        return merged

    @contextlib.contextmanager
    def span(self, name):
        """Context manager that records one span named ``name``."""
        th, sp = self._open(name)
        try:
            yield
        finally:
            self._close(th, sp)

    def _wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            th, sp = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(th, sp)
                raise
            self._close(th, sp, counter(args, kwargs, result) if counter else None)
            return result

        return traced

    def _wrap_pool(self, fn, worker_count):
        name = "pool.run_indexed"

        @functools.wraps(fn)
        def traced(work, items, workers=None):
            if not self.enabled:
                return fn(work, items, workers)
            items = list(items)
            n = worker_count(workers)
            used = min(n, len(items)) if n > 1 and len(items) > 1 else 1
            th, sp = self._open(name, overlapping=True)

            def in_worker(item):
                st = self._thread().stack
                if st:  # the serial path runs in the calling thread
                    return work(item)
                st.append(sp)  # a pool thread: the run_indexed span is the parent
                try:
                    return work(item)
                finally:
                    st.pop()

            p0 = time.process_time()
            try:
                return fn(in_worker, items, workers)
            finally:
                cpu = time.process_time() - p0
                self._close(th, sp, {"items": len(items), "workers": used, "process_cpu_s": cpu})

        return traced

    def _wrap_ista(self, fn):
        # _ista_matrix multiplies inline, so no wrapped function sees its
        # matmuls: count them from the report (3 products per iteration,
        # two in the prox step and one in the objective trace).
        @functools.wraps(fn)
        def counted(y2d, a, *args, **kwargs):
            x, report = fn(y2d, a, *args, **kwargs)
            if self.enabled:
                rows, cols = a.shape
                gflop = 3 * 8e-9 * rows * cols * y2d.shape[1] * report.iterations
                _accumulate(self._thread().totals.setdefault("solvers.ista", {}),
                            {"iterations": report.iterations, "matmul_gflop": gflop})
            return x, report

        return counted

    def install(self):
        """Wrap every listed function and rebind it wherever it is bound.

        Raises LookupError when a listed function does not exist, so that a
        rename cannot silently zero a layer.
        """
        import tomosar  # noqa: F401  (loads every submodule)
        from tomosar import _pool, solvers

        replace = {}
        for mod_name, funcs in LAYERS.items():
            mod = sys.modules[f"tomosar.{mod_name}"]
            for fname, counter in funcs.items():
                fn = getattr(mod, fname, None)
                if not callable(fn):
                    raise LookupError(f"tomosar.{mod_name}.{fname} is missing; update perfbench/tracer.py")
                replace[id(fn)] = (fn, self._wrap(f"{mod_name}.{fname}", fn, counter))
        for mod, fname, wrap in ((_pool, "run_indexed", lambda f: self._wrap_pool(f, _pool.worker_count)),
                                 (solvers, "_ista_matrix", self._wrap_ista)):
            fn = getattr(mod, fname, None)
            if not callable(fn):
                raise LookupError(f"{mod.__name__}.{fname} is missing; update perfbench/tracer.py")
            replace[id(fn)] = (fn, wrap(fn))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "tomosar" and not mod_name.startswith("tomosar."):
                continue
            for attr, val in list(vars(mod).items()):
                hit = replace.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
                    self._installed.append((mod, attr, val))

    def uninstall(self):
        """Restore every rebound attribute."""
        for mod, attr, val in reversed(self._installed):
            setattr(mod, attr, val)
        self._installed.clear()

    def metrics(self, op_wall_s, overhead):
        """The per-layer metrics of ``METRICS`` from the recorded totals.

        ``op_wall_s`` is the traced pass's wall time summed over operations
        and ``overhead`` its scaled wall time over that of the run's
        untraced pass.
        """
        tot = self.totals

        def get(name, stat):
            return tot.get(name, {}).get(stat, 0)

        cli = [v for k, v in tot.items() if k.startswith("cli.")]
        sb_s, sb_iters = get("solvers.split_bregman_l1tv", "s"), get("solvers.split_bregman_l1tv", "iterations")
        pool_s = get("pool.run_indexed", "s")
        derived = {
            "solvers.split_bregman_l1tv.ms_per_iter": 1e3 * sb_s / sb_iters if sb_iters else 0.0,
            "pool.run_indexed.cpu_s": get("pool.run_indexed", "process_cpu_s"),
            "pool.run_indexed.parallelism": get("pool.run_indexed", "process_cpu_s") / pool_s if pool_s else 0.0,
            "trace.coverage": sum(v["covered_s"] for v in cli) / op_wall_s,
            "trace.overhead": overhead,
        }
        out = {}
        for name, unit, _ in METRICS:
            if name in derived:
                value = derived[name]
            else:
                layer, stat = name.rsplit(".", 1)
                if stat == "wait_s":  # clock granularity can make s - cpu_s dip below 0
                    value = max(0.0, get(layer, "s") - get(layer, "cpu_s"))
                else:
                    value = get(layer, stat)
            out[name] = {"value": value, "unit": unit}
        return out
