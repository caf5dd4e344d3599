"""Sparse reconstruction solvers.

Fiber and slice solvers (ISTA, FISTA), the hybrid l1 / 3D total-variation
tensor solver (split-Bregman with per-axis variable splitting), a shallow
TV-denoise enhancement stage, the light slice-wise-then-enhance pipeline,
and a toy learned ISTA with per-block scalar step/threshold parameters.

Every solver minimizes some specialization of

    1/2 ||Y - A(X)||_F^2 + lambda1 ||X||_1 + lambda2 TV(X)

where A acts fiber-wise through the steering matrix and TV is the
anisotropic 3D total variation of :func:`tomosar.tensor.tv_norm`.
"""

import functools
import itertools
import math
import time
from dataclasses import dataclass

import numpy as np

from . import tensor
from ._pool import run_indexed, worker_count
from .errors import ConfigurationError, DivergenceError, whole_number
from .sensing import adjoint, forward, spectral_norm_sq


@dataclass
class SolverConfig:
    """User-facing solver knobs; ``None`` means derive the documented default.

    Defaults: alpha = alpha_factor / spectral_norm_sq(A), where the proximal
    gradient solvers use factor 0.9 (their descent argument needs a step
    <= 1 / L) and the splitting solver uses 1.8 (its data update is a plain
    gradient step, stable below 2 / L); lambda1 = 0.05 * max magnitude of
    the adjoint image of the data; lambda2 = 0.01 * lambda1; mu = 1;
    tau1 = 1 / (1/alpha + 8 mu) (safe step for the inner quadratic, since
    each difference operator has squared norm <= 4); tau2 = 1 / mu.
    ``inner_iters`` counts the u-descent steps of each split-Bregman axis
    update; the TV split variable takes one exact shrink when
    tau2 * mu = 1 or tau2 = 1 / mu and ``inner_iters`` shrinkage steps
    otherwise.
    """

    alpha: float | None = None
    lambda1: float | None = None
    lambda2: float | None = None
    mu: float = 1.0
    tau1: float | None = None
    tau2: float | None = None
    sigma: float = 1e-6
    max_outer: int = 300
    inner_iters: int = 3

    def merged(self, **overrides):
        vals = self.__dict__ | {k: v for k, v in overrides.items() if v is not None}
        return SolverConfig(**vals)


@dataclass(frozen=True)
class ResolvedConfig:
    """A SolverConfig with every default filled in.

    lambda1 and lambda2 hold one value per problem: a float for a fiber, a
    slice or a volume, an array for a batch of fibers (a 2-D echo).
    """

    alpha: float
    lambda1: float | np.ndarray
    lambda2: float | np.ndarray
    mu: float
    tau1: float
    tau2: float
    sigma: float
    max_outer: int
    inner_iters: int


def _knob(name, v, positive=True):
    """v as a float (an array: as floats); ConfigurationError naming the
    knob and the first bad value unless every value is finite and > 0 (>= 0)."""
    vals = np.asarray(v, dtype=np.float64)
    ok = np.isfinite(vals) & ((vals > 0) if positive else (vals >= 0))
    if not ok.all():
        bad = v if vals.ndim == 0 else float(vals[~ok][0])
        raise ConfigurationError(f"{name} must be finite and {'positive' if positive else '>= 0'}, got {bad!r}")
    return vals if vals.ndim else float(v)


def resolve_config(cfg: SolverConfig | None, a: np.ndarray, y, alpha_factor=0.9) -> ResolvedConfig:
    """Fill every None field of ``cfg`` from the data-dependent defaults.

    ``y`` is a fiber, a volume, or a 2-D (n_e, m) batch of m fibers; a batch
    gets one lambda1 and lambda2 per column, each what its fiber alone would
    get, and an explicit value is repeated once per column.  The default
    lambda1 of a problem is 0.05 * max |A^H y| over its entries.
    ``alpha_factor`` scales the default step 1 / spectral_norm_sq(a) and is
    chosen per solver family; an explicit cfg.alpha always wins.
    """
    cfg = cfg or SolverConfig()
    max_outer, inner_iters = (whole_number(name, getattr(cfg, name)) for name in ("max_outer", "inner_iters"))
    y2d = np.asarray(y, dtype=np.complex128).reshape(a.shape[0], -1)
    batch = np.ndim(y) == 2

    def per_problem(v):
        return np.full(y2d.shape[1], float(v)) if batch else v

    # each knob is checked before the defaults derived from it
    alpha = _knob("alpha", alpha_factor / spectral_norm_sq(a) if cfg.alpha is None else cfg.alpha)
    if cfg.lambda1 is None:
        lam1 = 0.05 * np.max(np.abs(a.conj().T @ y2d), axis=0)
        # rounding is monotone, so the largest scaled column maximum equals
        # 0.05 times the global maximum bit for bit
        lam1 = lam1 if batch else float(np.max(lam1))
    else:
        lam1 = per_problem(cfg.lambda1)
    lam1 = _knob("lambda1", lam1, positive=False)
    lam2 = _knob("lambda2", 0.01 * lam1 if cfg.lambda2 is None else per_problem(cfg.lambda2), positive=False)
    mu = _knob("mu", cfg.mu)
    r = ResolvedConfig(
        alpha=alpha,
        lambda1=lam1,
        lambda2=lam2,
        mu=mu,
        tau1=_knob("tau1", 1.0 / (1.0 / alpha + 8.0 * mu) if cfg.tau1 is None else cfg.tau1),
        tau2=_knob("tau2", 1.0 / mu if cfg.tau2 is None else cfg.tau2),
        sigma=float(cfg.sigma),
        max_outer=max_outer,
        inner_iters=inner_iters,
    )
    if not (0.0 < r.sigma < 1.0):
        raise ConfigurationError(f"sigma must be in (0, 1), got {r.sigma}")
    return r


@dataclass
class SolverReport:
    iterations: int
    objective_trace: list
    rel_change_trace: list
    wall_time_s: float
    converged: bool
    feasibility_gap_trace: list | None = None
    column_iterations: list | None = None

    def to_dict(self, include_timing=False, t_ag_s=None):
        d = {
            "iterations": self.iterations,
            "objective_trace": self.objective_trace,
            "rel_change_trace": self.rel_change_trace,
            "wall_time_s": self.wall_time_s if include_timing else None,
            "converged": self.converged,
            "t_ag_s": t_ag_s if include_timing else None,
        }
        if self.feasibility_gap_trace is not None:
            d["feasibility_gap_trace"] = self.feasibility_gap_trace
        return d


def soft_threshold(z, theta, out=None, work=None):
    """Proximal map of theta * l1: sign(z) * max(|z| - theta, 0).

    Complex sign is z/|z| with sign(0) = 0.  ``theta`` may be a scalar or an
    array that broadcasts to the shape of z (used for per-column
    thresholds).  ``out``, if given, receives the result; ``out=z`` shrinks
    in place.  ``work``, if given, is a flat float64 array of at least
    2 * z.size entries that holds the two real temporaries, so the call
    allocates no array.
    """
    th = np.asarray(theta)
    if not np.all(th >= 0):  # NaN too: fmax below would turn it into a zero shrink
        raise ValueError("threshold must be nonnegative")
    arr = np.asarray(z)
    n = arr.size
    if work is None:
        work = np.empty(2 * n)
    mag, ratio = work[:n].reshape(arr.shape), work[n:2 * n].reshape(arr.shape)
    np.abs(arr, out=mag)
    np.subtract(mag, th, out=ratio)
    # (|z| - theta) / |z| is negative, -inf or NaN where |z| <= theta, and
    # fmax maps all three to +0.0, so |z| == 0 needs no divisor of its own
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        np.divide(ratio, mag, out=ratio)
    np.fmax(ratio, 0.0, out=ratio)
    res = np.multiply(arr, ratio, out=out)
    if np.isscalar(z) or np.ndim(z) == 0:
        return res[()]
    return res


def _rel_change(num, den):
    """num / den, the relative change from its two sums, 0 for no change."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(num == 0.0, 0.0, num / den)


def _column_rel_change(x_new, x_old):
    """||x_new - x_old||^2 / ||x_new||^2 of each column of 2-D arrays, 0 for no change."""
    return _rel_change((np.abs(x_new - x_old) ** 2).sum(axis=0), (np.abs(x_new) ** 2).sum(axis=0))


def _columns(t):
    """t as a 2-D view, one column per fiber."""
    return t.reshape(t.shape[0], -1)


class _Stops:
    """The stops of the k problems of each of s slices, the running slices
    at the front (slice order[i] at position i), for the loops of
    :func:`_ista_matrix` and :func:`split_bregman_l1tv`.

    A problem stops once its relative change drops below ``sigma``, its
    value from that iteration going to ``res`` (s, entries, k), allocated,
    unless given, once some but not all have stopped.  A running problem
    whose objective is non-finite or exceeds ten times ``obj0`` (s, k)
    raises a DivergenceError naming ``solver``, the iteration, the column
    of a batch or slice of a stack, and carrying the summed trace (a stack
    slice's own).  The report traces the objective summed over the running
    slices and the largest relative change of a running problem.
    """

    def __init__(self, obj0, sigma, max_outer, solver, batch, stack=False, res=None):
        s, k = obj0.shape
        big = np.finfo(np.float64).max
        with np.errstate(over="ignore"):
            # the largest float where obj0 <= 0: a comparison with it also fails for inf and NaN
            self.limit = np.where(obj0 > 0, np.minimum(10.0 * obj0, big), big)
        self.obj0, self.sigma, self.solver, self.batch, self.stack, self.res = obj0, sigma, solver, batch, stack, res
        self.order, self.active, self.iters = np.arange(s), np.ones((s, k), dtype=bool), np.full((s, k), max_outer)
        self.traces, self.obj_trace, self.rel_trace = [[] for _ in range(s)], [], []
        self.t0 = time.perf_counter()

    def check(self, it, rel, obj, x):
        """Trace, guard and stop the running slices' (na, k) ``rel`` and
        ``obj`` of iteration ``it``, copying each problem that stops out of
        ``x``, the (s, entries, k) iterates; returns which running slices
        have no running problem left."""
        na = obj.shape[0]
        run, order = self.active[:na], self.order
        self.obj_trace.append(float(obj.sum()))
        self.rel_trace.append(float(rel[run].max()))
        if self.stack:
            for j, v in zip(order.tolist(), obj.sum(axis=1).tolist()):
                self.traces[j].append(v)
        bounded = obj[run] <= self.limit[:na][run]
        if not bounded.all():
            i, c = (int(t[np.argmin(bounded)]) for t in np.nonzero(run))
            o = obj[i, c]
            why = f"exceeded 10x its initial value {self.obj0[i, c]:.3e}" if math.isfinite(o) else "is not finite"
            where, trace, column = ((f", slice {order[i]}", self.traces[order[i]], None) if self.stack else
                                    (f", column {c}", self.obj_trace, c) if self.batch else ("", self.obj_trace, None))
            raise DivergenceError(f"{self.solver} at iteration {it}{where}: objective {o:.3e} {why}", trace, column)
        stopped = (rel < self.sigma) & run
        if stopped.any():
            i, c = np.nonzero(stopped)
            self.iters[order[i], c] = it + 1
            run &= ~stopped
            if self.res is None and run.any():
                self.res = np.empty_like(x)
            if self.res is not None:
                self.res[order[i], :, c] = x[i, :, c]
        return ~run.any(axis=1)

    def drop(self, done, *arrays):
        """Move the running slices other than ``done`` to the front, in the
        bookkeeping and in each of ``arrays``."""
        na = self.order.size
        self.order = self.order[~done]
        for t in arrays + (self.active, self.obj0, self.limit):
            t[:self.order.size] = t[:na][~done]

    def finish(self, x):
        """(the results, the report) once the loop ends, ``x`` as in :meth:`check`."""
        run = self.active[:self.order.size]
        if self.res is not None:
            # slice by slice, so that no copy of all the running slices is made
            for i, j in enumerate(self.order.tolist()):
                self.res[j][:, run[i]] = x[i][:, run[i]]
        report = SolverReport(
            iterations=len(self.obj_trace),
            objective_trace=self.obj_trace,
            rel_change_trace=self.rel_trace,
            wall_time_s=time.perf_counter() - self.t0,
            converged=not run.any(),
            column_iterations=self.iters.reshape(-1).tolist(),
        )
        return (x if self.res is None else self.res), report


def _residual(x, y2d, a):
    """y2d - a @ x, written into the product."""
    r = a @ x
    return np.subtract(y2d, r, out=r)


def _gradient_step(x, y2d, a, ah, alpha):
    """x + alpha * ah @ (y2d - a @ x), a new array: one gradient step on the data term."""
    resid = _residual(x, y2d, a)
    g = ah @ resid
    np.multiply(alpha, g, out=g)
    return np.add(x, g, out=g)


def _objective(x, resid, lambda1, lambda2):
    """1/2 ||Y - A X||_F^2 + lambda1 ||X||_1 + lambda2 TV(X) of each problem
    of a batch, from the residual ``resid`` = Y - A X; an array of k values.

    There are k = np.size(lambda1) problems (lambda1 and lambda2 hold one
    value per problem or one for all): problem j is column j of
    ``x.reshape(-1, k)`` and of ``resid.reshape(-1, k)``.  A batch of one is
    a volume (or a slice, or one fiber), whose TV is that of
    :func:`tomosar.tensor.tv_norm` on x viewed as an order-3 tensor; the
    problems of a larger batch are fibers side by side along axis 1, whose
    TV runs along axis 0 alone.
    """
    k = np.asarray(lambda1).size
    value = 0.5 * (np.abs(resid) ** 2).reshape(-1, k).sum(axis=0)
    value += lambda1 * np.abs(x).reshape(-1, k).sum(axis=0)
    x3 = x if x.ndim == 3 else x[:, :, None]
    buf = np.empty(x3.shape, dtype=x3.dtype)
    tv = sum(np.abs(tensor.diff(x3, ax, out=buf)).reshape(-1, k).sum(axis=0)
             for ax in (range(3) if k == 1 else [0]))
    value += lambda2 * tv
    return value


# A volume of fewer voxels sweeps as one slab, and the running slices of an
# ista/fista solve (one volume, or light-tv's stack) of fewer entries iterate
# as one block: below it, handing work to threads costs more than a second
# worker saves.  On a 2-core host one sweep of 64x16x32 (2^15) voxels took
# 9-11 ms on one worker and 8-11 ms on two, of 64x24x32 (3 * 2^14) 15-16 ms
# against 11-14 ms.
SLAB_MIN_VOXELS = 3 << 14
# The ufunc buffer size, in entries, of the work that runs on worker threads.
_WORKER_BUFSIZE = 1024


def _in_small_buffers(fn, item):
    """fn(item) with ufunc buffers of ``_WORKER_BUFSIZE`` entries."""
    # the shrink's complex-by-real product casts through a ufunc buffer, and
    # a ufunc on column blocks of a 2-D array buffers every operand; at the
    # default 8192 entries (128 KiB each) each worker thread's malloc arena
    # keeps them resident, so work in smaller pieces
    bufsize = np.setbufsize(_WORKER_BUFSIZE)
    try:
        return fn(item)
    finally:
        np.setbufsize(bufsize)


def _fan(fn, blocks):
    """fn on every block: one block on the caller's thread, more one per worker."""
    if len(blocks) == 1:
        fn(blocks[0])
    else:
        run_indexed(functools.partial(_in_small_buffers, fn), blocks, workers=len(blocks))


def _cuts(size, n, unit):
    """n contiguous slices that cover range(size), cut on multiples of ``unit``
    (n <= size // unit, or n = 1)."""
    bounds = [j * size // (n * unit) * unit for j in range(n)] + [size]
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def _descend(ah, resid, start, x_new, x_old, dx2, mag, mag2, work, alpha, theta, z=None, momentum=0.0):
    """x_new = shrink(start + alpha ah @ resid, theta) on views; then x_old
    takes x_new - x_old, dx2, mag and mag2 |x_new - x_old|^2, |x_new| and
    |x_new|^2, and z, if given, x_new + momentum (x_new - x_old)."""
    np.matmul(ah, resid, out=x_new)
    np.multiply(alpha, x_new, out=x_new)
    np.add(start, x_new, out=x_new)
    soft_threshold(x_new, theta, out=x_new, work=work)
    np.subtract(x_new, x_old, out=x_old)
    np.abs(x_old, out=dx2)
    np.square(dx2, out=dx2)
    np.abs(x_new, out=mag)
    np.square(mag, out=mag2)
    if z is not None:
        np.multiply(momentum, x_old, out=x_old)
        np.add(x_new, x_old, out=z)


def _data_fit(a, x, y, r, r2=None):
    """r = y - a @ x on views, and r2 = |r|^2 if given."""
    np.matmul(a, x, out=r)
    np.subtract(y, r, out=r)
    if r2 is not None:
        np.abs(r, out=r2)
        np.square(r2, out=r2)


def _ista_matrix(y2d, a, rcfg, variant="ista", batch=False):
    """Proximal-gradient solve (ista, fista's momentum, or lista's unrolled
    blocks) of one (n_e, m) slice into an (n_z, m) iterate, or of an
    (s, n_e, m) stack of slices into an (n_z, m, s) result.

    ista and fista take the step alpha and the threshold alpha * lambda1 of
    ``rcfg``, a :class:`ResolvedConfig`, at every iteration.  lista takes
    block k's of ``rcfg``, a :class:`LearnedIstaParams`, at iteration k, for
    all its blocks: its objective is the data term alone (lambda1 = 0 for
    each problem), it never stops early (sigma = 0), and its report says
    converged, since a network that has run all its blocks is complete.

    A slice holds k = size(lambda1) problems: its columns under a
    fiber-batch config (:func:`resolve_config`) or a lista ``batch``, else
    the whole slice.  Each problem has its own threshold, stop and
    divergence guard (:class:`_Stops`), so it matches its solo solve bit
    for bit; the objective has no TV term.  A slice whose problems have all
    stopped leaves the running slices at the front of the stack.

    A single problem of at least ``SLAB_MIN_VOXELS`` entries runs each
    phase on one block per worker: rows cut on multiples of 8 for the step,
    shrink and per-entry terms, columns on multiples of 64 for A X, where a
    block's product has the bits of the whole product.  Several running
    slices of at least ``SLAB_MIN_VOXELS`` entries run one contiguous slice
    group per worker, each taking its whole step.  Anything else is one
    block on the caller's thread, which sums the per-entry terms, so no
    byte depends on the worker count.
    """
    learned = isinstance(rcfg, LearnedIstaParams)
    if variant not in (("lista",) if learned else ("ista", "fista")):
        raise ConfigurationError(f"unknown variant {variant!r}")
    fista = variant == "fista"
    stack = y2d.ndim == 3
    # the rows of a stack move as its slices stop, so it is copied
    y = np.array(y2d, order="C") if stack else y2d[None]
    ah = a.conj().T
    (s, n_e, m), n_z = y.shape, a.shape[1]
    if learned:
        lam, sigma, max_outer = (np.zeros(m) if batch else 0.0), 0.0, rcfg.blocks
        steps = zip(rcfg.alpha, rcfg.theta)
    else:
        lam, sigma, max_outer = rcfg.lambda1, rcfg.sigma, rcfg.max_outer
        steps = itertools.repeat((rcfg.alpha, rcfg.alpha * lam), max_outer)
    k = np.size(lam)
    # a stack's (n_z, m, s) result, which receives each slice as it stops;
    # allocated before the work arrays, so that these leave one free span
    out = np.empty((n_z, m, s), dtype=np.complex128) if stack else None
    # the work arrays of the solve, allocated once on the caller's thread
    x = np.zeros((s, n_z, m), dtype=np.complex128)
    nxt = np.empty_like(x)
    z = np.empty_like(x) if fista else None
    r = np.empty((s, n_e, m), dtype=np.complex128)
    rz = np.empty_like(r) if fista else None
    r2 = np.empty(r.shape)
    dx2, mag, mag2 = np.zeros((3, s, n_z, m))
    work = np.empty((s, n_z, 2 * m))

    def sums(t, na):
        return t[:na].reshape(na, -1, k).sum(axis=1)

    def objective(na):
        return 0.5 * sums(r2, na) + lam * sums(mag, na)

    def blocks(na):
        """The blocks (slices, rows, columns, work) of the running slices
        y[:na], and whether they cut one problem into rows and columns."""
        one = na * k == 1 and n_z * m >= SLAB_MIN_VOXELS
        if one:
            n = max(1, min(worker_count(), n_z // 8, m // 64))
            cuts = [(slice(0, 1), rows, cols) for rows, cols in zip(_cuts(n_z, n, 8), _cuts(m, n, 64))]
        else:
            n = min(worker_count(), na) if na * n_z * m >= SLAB_MIN_VOXELS else 1
            cuts = [(g, slice(None), slice(None)) for g in _cuts(na, n, 1)]
        return [(g, rows, cols, work[g, rows].reshape(-1)) for g, rows, cols in cuts], one

    # the phases of a step: each reads start and rstart, the point the step
    # starts from and its residual, and writes the next iterate into nxt,
    # taking nxt - x into x
    def momentum_residual(block):
        g, _, cols, _ = block
        _data_fit(a, z[g, :, cols], y[g, :, cols], rz[g, :, cols])

    def descend(block):
        g, rows, _, wk = block
        _descend(ah[rows], rstart[g], start[g, rows], nxt[g, rows], x[g, rows], dx2[g, rows], mag[g, rows],
                 mag2[g, rows], wk, alpha, theta, z[g, rows] if fista else None, momentum)

    def data_fit(block):
        g, _, cols, _ = block
        _data_fit(a, nxt[g, :, cols], y[g, :, cols], r[g, :, cols], r2[g, :, cols])

    def whole_step(block):
        for phase in phases:
            phase(block)

    _data_fit(a, x, y, r, r2)
    stops = _Stops(objective(s), sigma, max_outer, variant, np.ndim(lam) > 0, stack,
                   out.transpose(2, 0, 1).reshape(s, -1, k) if stack else None)
    t_k, momentum = 1.0, 0.0
    na = s
    bl, one = blocks(na)
    for it, (alpha, theta) in enumerate(steps):
        # ista steps from the iterate; fista steps from the momentum point,
        # the iterate only at the first step, the one with t_k = 1
        phases, start, rstart = [descend, data_fit], x, r
        if fista:
            if t_k > 1.0:
                phases, start, rstart = [momentum_residual] + phases, z, rz
            t_next = (1.0 + math.sqrt(1.0 + 4.0 * t_k * t_k)) / 2.0
            momentum = (t_k - 1.0) / t_next
            t_k = t_next
        for fn in (phases if one else [whole_step]):
            _fan(fn, bl)
        # the old iterate's array, spent, receives the next step
        x, nxt = nxt, x
        done = stops.check(it, _rel_change(sums(dx2, na), sums(mag2, na)), objective(na), x.reshape(s, -1, k))
        if done.all():
            break
        if done.any():
            stops.drop(done, x, r, y, *([z] if fista else []))
            na = stops.order.size
            bl, one = blocks(na)
    res, report = stops.finish(x.reshape(s, -1, k))
    if learned:
        report.converged = True
    return (out if stack else res.reshape(x.shape)[0]), report


def ista_fiber(y, a, cfg: SolverConfig | None = None, variant="ista"):
    """Solve the l1 problem on a single echo fiber.

    variant "fista" adds the standard two-point momentum with t_1 = 1,
    t_{k+1} = (1 + sqrt(1 + 4 t_k^2)) / 2.  Returns (fiber, report); a run
    that hits max_outer returns its iterate with converged = False.
    """
    y = np.asarray(y, dtype=np.complex128).reshape(-1)
    if y.shape[0] != a.shape[0]:
        raise ValueError(f"fiber length {y.shape[0]} does not match matrix rows {a.shape[0]}")
    rcfg = resolve_config(cfg, a, y)
    x2d, report = _ista_matrix(y[:, None], a, rcfg, variant=variant)
    return x2d[:, 0], report


def objective_eval(x, y, a, lambda1, lambda2):
    """Exact hybrid objective 1/2||Y-A(X)||_F^2 + lambda1 l1 + lambda2 TV of one volume."""
    resid = forward(a, x)
    return float(_objective(x, np.subtract(y, resid, out=resid), lambda1, lambda2)[0])


# The axis along which the update of each tensor axis is cut into slabs.
_SLAB_CUT = (1, 0, 0)


def _sweep_buffers(dims, batch_axis=None):
    """The work arrays of :func:`_split_sweep`, allocated once per solve.

    Returns (anchor, scratch, slabs).  The sweep cuts the update of each
    axis into ``worker_count()`` slabs along ``_SLAB_CUT``, one for a fiber
    batch or a volume below ``SLAB_MIN_VOXELS``.  ``slabs[k]`` holds one
    (index, p, d, h, du, work, ax) per updated axis ax: the index of slab k
    of that axis's update, four contiguous work arrays of its shape,
    ``work``, the float view of ``h`` that the shrinks use, and ax.  A fiber
    batch updates no ``batch_axis``: D is zero across it as along axis 2, of
    extent 1, so axis 2's update serves both (:func:`_per_axis`).  Slab
    k's arrays lie in one segment of four flat buffers, so ``scratch``, a
    volume-shaped view of the d buffer, is free between sweeps.
    """
    anchor = np.empty(dims, dtype=np.complex128)
    n = 1 if batch_axis is not None or anchor.size < SLAB_MIN_VOXELS else min(worker_count(), *dims[:2])
    axes = [ax for ax in range(3) if ax != batch_axis]
    cuts = [_SLAB_CUT[ax] for ax in axes]
    indices = [[(slice(None),) * c + (slice(k * dims[c] // n, (k + 1) * dims[c] // n),) for c in cuts]
               for k in range(n)]
    sizes = [max(anchor[i].size for i in slab) for slab in indices]
    flat = [np.empty(sum(sizes), dtype=np.complex128) for _ in range(4)]
    slabs = []
    for slab, off in zip(indices, np.cumsum([0] + sizes)):
        work = []
        for ax, i in zip(axes, slab):
            p, d, h, du = (f[off:off + anchor[i].size].reshape(anchor[i].shape) for f in flat)
            work.append((i, p, d, h, du, h.view(np.float64).reshape(-1), ax))
        slabs.append(work)
    return anchor, flat[1][:anchor.size].reshape(dims), slabs


def _per_axis(make, batch):
    """One array ``make()`` per tensor axis, for :func:`_split_sweep`; a
    fiber batch's axis 1 shares axis 2's array, whose update serves both."""
    arrays = [make() for _ in range(2 if batch else 3)]
    return arrays + arrays[1:] if batch else arrays


def _as_volume(t, rows=None):
    """(t as complex128, its order-3 view, whether t is a batch of fibers).

    A 2-D t is a batch of fibers, one per column, viewed with a trailing
    axis of extent 1; a 3-D t is a volume.  Raises ValueError for any other
    order, an empty t or, if ``rows`` is given, a t without that many rows.
    """
    t = np.asarray(t, dtype=np.complex128)
    if t.ndim not in (2, 3) or t.size == 0:
        raise ValueError(f"expected a nonempty (n, fibers) batch or order-3 tensor, got shape={t.shape}")
    batch = t.ndim == 2
    t3 = t[:, :, None] if batch else t
    if rows is not None and t.shape[0] != rows:
        raise ValueError(f"echo channel extent {t.shape[0]} does not match matrix rows {rows}")
    return t, t3, batch


def _split_sweep(p0, u_i, v_i, b_i, bufs, alpha, lambda1, lambda2, mu, tau1, tau2, inner_iters):
    """One per-axis split-Bregman sweep; returns the consensus iterate.

    For each tensor axis: ``inner_iters`` proximal-descent steps on
    1/(2 alpha) ||u - p0||^2 + mu/2 ||D u - v + b||^2 + lambda1 ||u||_1
    (lambda1 = 0 skips the shrink), each u <- c0 u - c1 D^T D u + tau1 p
    with c0 = 1 - tau1 / alpha, c1 = tau1 mu and p = p0 / alpha + mu D^T
    (v - b); then one exact shrink of the TV split variable, v = shrink(D u
    + b, lambda2 / mu), the minimiser of its subproblem, when tau2 mu = 1
    or tau2 = 1 / mu, and ``inner_iters`` shrinkage steps of step tau2
    otherwise; then the Bregman update of b.  The arrays of the per-axis
    lists ``u_i``, ``v_i``, ``b_i`` are updated in place, and ``bufs`` (from
    :func:`_sweep_buffers`) holds every intermediate; the result, a new
    array, is the average of the three per-axis iterates.

    The three updates are independent, and each is local along its own
    axis, so each runs slab by slab; one ``run_indexed`` call gives worker
    k slab k of every axis.  Every entry sees the same operations in the
    same order for any slab count, so the result does not depend on it.

    Fibers side by side along axis 1 (a fiber batch, whose axis 2 has
    extent 1) are independent problems: D is zero across axis 1 as along
    axis 2, so the two axes share their arrays and one update
    (:func:`_per_axis`), and lambda1 and lambda2 may be arrays that
    broadcast one value per fiber.
    """
    anchor, _, slabs = bufs
    # tau1 * p0 / alpha; with c1 = tau1 * mu below, p holds tau1 * p
    np.multiply(p0, tau1 / alpha, out=anchor)
    c0, c1 = 1.0 - tau1 / alpha, tau1 * mu
    s = tau2 * mu
    # the default tau2 = 1 / mu leaves s one rounding below 1 at some mu (49)
    exact = s == 1.0 or tau2 == 1.0 / mu
    th1, th2 = lambda1 * tau1, lambda2 * tau2
    shrink_u = np.any(lambda1)

    def update(index, p, d, h, du, work, ax):
        u, w, b = u_i[ax][index], v_i[ax][index], b_i[ax][index]
        # p = tau1 * (p0 / alpha + mu * D^T (v - b))
        tensor.diff_adjoint(np.subtract(w, b, out=d), ax, out=p)
        np.multiply(c1, p, out=p)
        np.add(anchor[index], p, out=p)
        for _ in range(inner_iters):
            # u = u - tau1 * (u / alpha + mu * D^T D u - p) = c0 * u - c1 * D^T D u + tau1 * p
            tensor.diff_adjoint(tensor.diff(u, ax, out=d), ax, out=h)
            np.multiply(c1, h, out=h)
            np.multiply(c0, u, out=u)
            np.subtract(u, h, out=u)
            np.add(u, p, out=u)
            if shrink_u:
                soft_threshold(u, th1, out=u, work=work)
        tensor.diff(u, ax, out=du)
        if exact:
            # the exact minimiser of the v-subproblem, whatever w is
            soft_threshold(np.add(du, b, out=w), th2, out=w, work=work)
        else:
            for _ in range(inner_iters):
                # w = shrink(w - tau2 * mu * (w - du - b))
                np.subtract(w, du, out=d)
                np.subtract(d, b, out=d)
                np.multiply(s, d, out=d)
                np.subtract(w, d, out=w)
                soft_threshold(w, th2, out=w, work=work)
        # b = b + du - w
        np.add(b, du, out=b)
        np.subtract(b, w, out=b)

    def sweep(slab):
        for work in slab:
            update(*work)

    run_indexed(functools.partial(_in_small_buffers, sweep), slabs, workers=len(slabs))
    x = np.add(u_i[0], u_i[1])
    np.add(x, u_i[2], out=x)
    return np.divide(x, 3.0, out=x)


def split_bregman_l1tv(y, a, cfg: SolverConfig | None = None):
    """Hybrid l1 / 3D-TV tensor solver via per-axis split-Bregman.

    Each outer iteration takes a gradient step on the data term, then runs
    one :func:`_split_sweep` from it: per tensor axis, ``inner_iters``
    proximal-descent steps on the l1-regularized quadratic, one exact
    shrink of the TV split variable when tau2 * mu = 1 or tau2 = 1 / mu
    (``inner_iters`` shrinkage steps otherwise) and a dual update, then the
    average of the three per-axis iterates is the consensus tensor.  Stops
    when the consensus relative change drops below sigma.  The difference
    operators are applied operator-wise; no dense matrix is ever
    materialized.

    Raises DivergenceError (carrying the trace) if the objective is
    non-finite or exceeds ten times its initial value.

    A 2-D echo is instead an (n_e, m) batch of independent fibers, one per
    column, solved in one run and returned as an (n_z, m) array.  Each
    column gets the config (:func:`resolve_config`), the operations and the
    stop (:class:`_Stops`) of its solo solve as ``y[:, j].reshape(-1, 1,
    1)``, and so its result up to rounding; a batch report has no
    feasibility-gap trace.
    """
    y, y3, batch = _as_volume(y, a.shape[0])
    dims = (a.shape[1], y3.shape[1], y3.shape[2])
    rcfg = resolve_config(cfg, a, y, alpha_factor=1.8)
    # a batch's fibers lie side by side along axis 1, one threshold each
    lam1, lam2 = (np.reshape(lam, (1, -1, 1)) if batch else lam for lam in (rcfg.lambda1, rcfg.lambda2))
    x_i, v_i, b_i = (_per_axis(lambda: np.zeros(dims, dtype=np.complex128), batch) for _ in range(3))
    bufs = _sweep_buffers(dims, 1 if batch else None)
    gap_trace = None if batch else []
    y2d, k = _columns(y), np.size(rcfg.lambda1)
    x = np.zeros(dims, dtype=np.complex128)
    resid = _residual(_columns(x), y2d, a)
    obj0 = _objective(x, resid, rcfg.lambda1, rcfg.lambda2)
    stops = _Stops(obj0.reshape(1, k), rcfg.sigma, rcfg.max_outer, "sb-tv", batch)
    for it in range(rcfg.max_outer):
        # z = x + alpha * A^H (y - A x)
        z = adjoint(a, resid.reshape(y3.shape))
        np.multiply(rcfg.alpha, z, out=z)
        np.add(x, z, out=z)
        x_new = _split_sweep(
            z, x_i, v_i, b_i, bufs, rcfg.alpha, lam1, lam2,
            rcfg.mu, rcfg.tau1, rcfg.tau2, rcfg.inner_iters,
        )
        if not batch:
            d = bufs[1]
            gap_trace.append(sum(
                tensor.frobenius(np.subtract(tensor.diff(x_i[ax], ax, out=d), v_i[ax], out=d)) for ax in range(3)
            ))
        # released before the next residual is formed: one alive at a time
        z = resid = None
        rel = _column_rel_change(x_new.reshape(-1, k), x.reshape(-1, k))
        resid = _residual(_columns(x_new), y2d, a)
        obj = _objective(x_new, resid, rcfg.lambda1, rcfg.lambda2)
        x = x_new
        if stops.check(it, rel.reshape(1, k), obj.reshape(1, k), x.reshape(1, -1, k)).all():
            break
    x, report = stops.finish(x.reshape(1, -1, k))
    report.feasibility_gap_trace = gap_trace
    x = x.reshape(dims)
    return (x[:, :, 0] if batch else x), report


def tv_denoise_enhance(x, lambda2, inner_iters=3, mu=1.0):
    """Shallow TV enhancement: approximately solve
    min_U 1/2 ||U - X||_F^2 + lambda2 TV(U) with 10 fixed
    :func:`_split_sweep` passes, the data term replaced by the quadratic
    anchor (alpha = 1) and no l1 term.

    lambda2 = 0 (or an already TV-free input) returns the input unchanged.
    ``inner_iters`` counts the u-descent steps per pass; the TV split
    variable, with tau2 = 1 / mu, takes one exact shrink per pass.  Unless
    lambda2 is finite and >= 0, mu finite and > 0 and inner_iters a whole
    number >= 1, a ConfigurationError names the knob, whatever the input.

    A 2-D ``x`` is an (n_z, m) batch of fibers, one per column, each
    denoised along its length as its solo call on ``x[:, j].reshape(-1, 1,
    1)`` would be; ``lambda2`` may then hold one value per fiber, and a
    fiber with lambda2 = 0 or no variation is returned unchanged.
    """
    x, x3, batch = _as_volume(x)
    lambda2, mu = _knob("lambda2", lambda2, positive=False), _knob("mu", mu)
    inner_iters = whole_number("inner_iters", inner_iters)
    if batch:
        lam = np.broadcast_to(np.asarray(lambda2, dtype=np.float64), x.shape[1:])
        keep = (lam != 0.0) & np.any(tensor.diff(x3, 0), axis=(0, 2))
    else:
        keep = lambda2 != 0.0 and tensor.tv_norm(x) != 0.0
    if not np.any(keep):
        return x.copy()
    tau1 = 1.0 / (1.0 + 8.0 * mu)
    tau2 = 1.0 / mu
    # a batch denoises only its kept fibers, side by side along axis 1
    p0, lam = (x3[:, keep], lam[keep].reshape(1, -1, 1)) if batch else (x, lambda2)
    u_i = _per_axis(p0.copy, batch)
    v_i, b_i = (_per_axis(lambda: np.zeros_like(p0), batch) for _ in range(2))
    bufs = _sweep_buffers(p0.shape, 1 if batch else None)
    sweep = functools.partial(_split_sweep, p0, u_i, v_i, b_i, bufs, 1.0, 0.0, lam, mu, tau1, tau2, inner_iters)
    # only the last pass's consensus is kept, so one is alive at a time
    for _ in range(9):
        sweep()
    out = sweep()
    if not batch:
        return out
    res = x.copy()
    res[:, keep] = out[:, :, 0]
    return res


def light_reconstruct_enhance(y, a, cfg: SolverConfig | None = None):
    """Light pipeline: slice-wise ISTA over all frontal slices, then one
    TV-denoise enhancement pass with the config's mu on the assembled tensor.

    The config is resolved once against the whole echo tensor so all slices
    share the same thresholds.  Each slice is its own problem with its own
    stop, and the slices are solved as one stack of :func:`_ista_matrix`.
    Returns (tensor, report); the report's two-entry traces cover the
    assembly stage and the enhancement stage.

    A 2-D echo is instead an (n_e, m) batch of independent fibers, one per
    column, solved as one slice of :func:`_ista_matrix` and returned as an
    (n_z, m) array: each fiber gets the config (:func:`resolve_config`) and
    the ISTA stop of its solo solve as ``y[:, j].reshape(-1, 1, 1)``; the
    report's traces then keep, per stage, the objective summed over the
    fibers and the largest relative change among them.
    """
    y, y3, batch = _as_volume(y, a.shape[0])
    rcfg = resolve_config(cfg, a, y)
    t0 = time.perf_counter()
    x, ista_report = _ista_matrix(y if batch else y3.transpose(2, 0, 1), a, rcfg)
    x_enh = tv_denoise_enhance(x, rcfg.lambda2, inner_iters=rcfg.inner_iters, mu=rcfg.mu)
    k = np.size(rcfg.lambda1)
    stages = ((np.zeros_like(x), x), (x, x_enh))
    report = SolverReport(
        iterations=2,
        objective_trace=[
            float(_objective(t, _residual(_columns(t), _columns(y), a), rcfg.lambda1, rcfg.lambda2).sum())
            for _, t in stages
        ],
        rel_change_trace=[float(_column_rel_change(t.reshape(-1, k), t0.reshape(-1, k)).max()) for t0, t in stages],
        wall_time_s=time.perf_counter() - t0,
        converged=ista_report.converged,
    )
    return x_enh, report


@dataclass
class LearnedIstaParams:
    """Per-block scalars of the unrolled learned solver."""

    alpha: np.ndarray
    theta: np.ndarray

    def __post_init__(self):
        self.alpha = np.asarray(self.alpha, dtype=np.float64).reshape(-1)
        self.theta = np.asarray(self.theta, dtype=np.float64).reshape(-1)
        if self.alpha.size < 1 or self.alpha.shape != self.theta.shape:
            raise ConfigurationError("alpha and theta must be equal-length, nonempty vectors")
        for name, v in (("alpha", self.alpha), ("theta", self.theta)):
            if not np.all(np.isfinite(v)):
                raise ConfigurationError(f"learned parameters must be finite, got {name} {v.tolist()}")
        if np.any(self.alpha < 0) or np.any(self.theta < 0):
            raise ConfigurationError("learned parameters must be nonnegative")

    @property
    def blocks(self):
        return int(self.alpha.size)

    @classmethod
    def equivalence(cls, k_blocks, alpha, lambda1):
        """Parameters that make lista_infer reproduce k_blocks ISTA steps."""
        return cls(alpha=np.full(k_blocks, alpha), theta=np.full(k_blocks, alpha * lambda1))


def _unrolled_infer(y2d, a, params: LearnedIstaParams, tape=None):
    """The K blocks from x = 0, the forward pass that :func:`lista_train`
    differentiates; a list ``tape`` receives each block's iterate before its shrink."""
    ah = a.conj().T
    x = np.zeros((a.shape[1], y2d.shape[1]), dtype=np.complex128)
    for alpha, theta in zip(params.alpha, params.theta):
        z = _gradient_step(x, y2d, a, ah, alpha)
        if tape is not None:
            tape.append(z)
        x = soft_threshold(z, theta)
    return x


def lista_infer(y, a, params: LearnedIstaParams):
    """Run the K unrolled blocks on a fiber (1D) or fiber batch (2D): the
    "lista" path of :func:`reconstruct_tensor`, without its report."""
    y = np.asarray(y, dtype=np.complex128)
    if y.ndim not in (1, 2):
        raise ValueError(f"expected a fiber or an (n_e, fibers) batch, got shape={y.shape}")
    single = y.ndim == 1
    x, _ = reconstruct_tensor(y[:, None] if single else y, a, "lista", lista_params=params)
    return x[:, 0] if single else x


def _magnitude_mse(x_hat, x_true):
    return float(np.mean((np.abs(x_hat) - np.abs(x_true)) ** 2))


def _real_inner(u, v):
    """Re <u, v> elementwise, as a real array."""
    return u.real * v.real + u.imag * v.imag


def _lista_gradient(y2d, x2d, a, params: LearnedIstaParams, tape):
    """Gradient of :func:`_magnitude_mse` of the K blocks in (alpha, theta),
    by a reverse pass through the blocks.

    ``tape`` is what :func:`_unrolled_infer` recorded for ``params``: the
    iterate z_k = x_k + alpha_k d_k, d_k = A^H (y - A x_k), of each block,
    whose shrink is x_{k+1} = S(z_k, theta_k).  x_k and d_k are rebuilt from
    it with the forward's operations.  The gradient of the real loss in a
    complex array g is dL/dRe + i dL/dIm.  Per block, from the gradient g of
    x_{k+1}: where |z| > theta, dL/dtheta_k = -Re <g, z/|z|> and the gradient
    of z_k keeps the radial part of g and scales its tangential part by
    1 - theta/|z|, elsewhere it is 0; then dL/dalpha_k = Re <g_z, d_k> and
    g_x = g_z - alpha_k A^H A g_z.  At the kinks (x = 0, |z| = theta) the
    subgradient 0 is taken.  Returns the 2K gradient, alpha's first.
    """
    ah = a.conj().T
    k_blocks = params.blocks
    grad = np.zeros(2 * k_blocks)
    x = soft_threshold(tape[-1], params.theta[-1])
    # dL/dx = 2/N (|x| - |x*|) x/|x|, with divisor 1 where x = 0 as in soft_threshold
    mag = np.abs(x)
    w = np.subtract(mag, np.abs(x2d))
    np.multiply(w, 2.0 / x.size, out=w)
    np.add(mag, mag == 0, out=mag)
    g = np.multiply(x, np.divide(w, mag, out=w), out=x)
    for k in range(k_blocks - 1, -1, -1):
        z, alpha, theta = tape[k], params.alpha[k], params.theta[k]
        mag = np.abs(z)
        on = mag > theta
        # 1/|z| where |z| > theta, else 0
        inv = np.divide(on, np.add(mag, mag == 0, out=mag), out=mag)
        u = np.multiply(z, inv)
        radial = _real_inner(u, g)
        grad[k_blocks + k] = -np.sum(radial)
        # g_z = (1 - s) g + s Re<u, g> u with s = theta/|z| where |z| > theta, else 0
        s = np.multiply(theta, inv, out=inv)
        np.multiply(s, radial, out=radial)
        np.multiply(u, radial, out=u)
        np.subtract(on, s, out=s)
        g_z = np.multiply(g, s, out=g)
        np.add(g_z, u, out=g_z)
        # dropped before the products below, so that fewer arrays are alive at once
        del mag, on, inv, u, radial, s
        # d_k from x_k = S(z_{k-1}, theta_{k-1}), and x_0 = 0
        d = ah @ (_residual(soft_threshold(tape[k - 1], params.theta[k - 1]), y2d, a) if k else y2d)
        grad[k] = np.sum(_real_inner(g_z, d))
        del d
        if k:
            h = ah @ (a @ g_z)
            g = np.subtract(g_z, np.multiply(alpha, h, out=h), out=g_z)
    return grad


def lista_train(a, dataset, k_blocks=9, epochs=200, lr=0.1, seed=0):
    """Train the 2K scalars by projected gradient descent.

    ``dataset`` is a (Y, X) pair of matrices with fibers as columns.  The
    loss is the mean squared magnitude error over all entries, a
    piecewise-smooth function of the scalars; its gradient is exact, from
    one reverse pass through the K blocks (:func:`_lista_gradient`), with
    the subgradient 0 at the kinks where an entry shrinks to zero.  Each epoch backtracks the step from
    ``lr`` until the loss does not increase, so the returned trace is
    monotone non-increasing.  Training is full-batch and deterministic, so
    ``seed`` is ignored.

    Returns (params, loss_trace) with loss_trace of length epochs + 1
    (initial loss first).
    """
    mats = [np.asarray(m, dtype=np.complex128) for m in dataset] if isinstance(dataset, tuple) else []
    if len(mats) != 2 or mats[0].ndim != 2 or mats[1].ndim != 2:
        raise ConfigurationError("training dataset must be a (Y, X) pair of 2-D arrays")
    y2d, x2d = mats
    if y2d.size == 0 or x2d.size == 0:
        raise ConfigurationError("training dataset is empty")
    if y2d.shape[1] != x2d.shape[1]:
        raise ConfigurationError("echo and truth fiber counts differ")
    if y2d.shape[0] != a.shape[0] or x2d.shape[0] != a.shape[1]:
        raise ConfigurationError(
            f"echo fibers of length {y2d.shape[0]} and truth fibers of length {x2d.shape[0]}"
            f" do not match the {a.shape[0]}x{a.shape[1]} matrix"
        )
    k_blocks, epochs = whole_number("k_blocks", k_blocks), whole_number("epochs", epochs, least=0)
    if not (math.isfinite(lr) and lr > 0):
        raise ConfigurationError(f"lr must be finite and positive, got {lr!r}")

    alpha0 = 0.9 / spectral_norm_sq(a)
    # 0.05 times the mean of the per-fiber maxima, not resolve_config's
    # maximum per problem: the rule that the bytes of trained parameter
    # files depend on
    lam0 = 0.05 * float(np.mean(np.max(np.abs(a.conj().T @ y2d), axis=0)))
    vec = np.concatenate([np.full(k_blocks, alpha0), np.full(k_blocks, alpha0 * lam0)])

    def params_of(v):
        return LearnedIstaParams(alpha=v[:k_blocks], theta=v[k_blocks:])

    def forward(v):
        """(loss, tape) of the blocks with the scalars v."""
        tape = []
        return _magnitude_mse(_unrolled_infer(y2d, a, params_of(v), tape), x2d), tape

    cur, tape = forward(vec)
    trace = [cur]
    for epoch in range(epochs):
        grad = _lista_gradient(y2d, x2d, a, params_of(vec), tape)
        # dropped before the candidates run: one tape in memory at a time
        tape = None
        step = lr
        while tape is None and step > 1e-12:
            cand = np.maximum(vec - step * grad, 0.0)
            # an oversized step may overflow; its inf or NaN loss is rejected below
            with np.errstate(over="ignore", invalid="ignore"):
                loss, tape = forward(cand)
            if loss <= cur:
                vec, cur = cand, loss
            else:
                tape = None
            step *= 0.5
        if tape is None:
            # no step lowers the loss; every later epoch would repeat this one
            trace += [cur] * (epochs - epoch)
            break
        trace.append(cur)
    return params_of(vec), trace


def reconstruct_tensor(y, a, method, cfg: SolverConfig | None = None, lista_params=None):
    """Dispatch an echo to one reconstruction method.

    Methods: "ista" / "fista" (the fibers of a volume share one threshold),
    "sb-tv", "light-tv", "lista" (requires ``lista_params``).  ista, fista
    and lista run in the proximal-gradient engine :func:`_ista_matrix`,
    lista's trained blocks as its iterations; sb-tv runs its own
    split-Bregman loop.
    The echo must be nonempty and finite, with one channel per matrix row
    (ValueError otherwise): an order-3 tensor, one problem, or a 2-D
    (n_e, m) batch of m independent fibers, each solved as its solo solve
    would be and returned as an (n_z, m) array.  Returns (scene, SolverReport).
    """
    y, _, batch = _as_volume(y, a.shape[0])
    if not np.all(np.isfinite(y)):
        raise ValueError("echo contains non-finite entries")
    if method == "sb-tv":
        return split_bregman_l1tv(y, a, cfg)
    if method == "light-tv":
        return light_reconstruct_enhance(y, a, cfg)
    y2d = _columns(y)
    if method in ("ista", "fista"):
        x2d, report = _ista_matrix(y2d, a, resolve_config(cfg, a, y), variant=method)
    elif method == "lista":
        if lista_params is None:
            raise ConfigurationError("method 'lista' requires trained parameters")
        x2d, report = _ista_matrix(y2d, a, lista_params, "lista", batch)
    else:
        raise ConfigurationError(
            f"unknown method {method!r}; choose from ista, fista, sb-tv, light-tv, lista"
        )
    return x2d.reshape(a.shape[1], *y.shape[1:]), report
