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
import math
import time
from dataclasses import dataclass

import numpy as np

from . import tensor
from ._pool import run_indexed, worker_count
from .errors import ConfigurationError, DivergenceError
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
    for name in ("max_outer", "inner_iters"):
        if not float(getattr(cfg, name)).is_integer():
            raise ConfigurationError(f"{name} must be a whole number, got {getattr(cfg, name)!r}")
    y2d = np.asarray(y, dtype=np.complex128).reshape(a.shape[0], -1)
    batch = np.ndim(y) == 2

    def per_problem(v):
        return np.full(y2d.shape[1], float(v)) if batch else v

    def check(name, v, positive=True):
        """v as a float (an array: as floats); ConfigurationError naming the
        knob and the first bad value unless every value is finite and > 0 (>= 0)."""
        vals = np.asarray(v, dtype=np.float64)
        ok = np.isfinite(vals) & ((vals > 0) if positive else (vals >= 0))
        if not ok.all():
            bad = v if vals.ndim == 0 else float(vals[~ok][0])
            raise ConfigurationError(f"{name} must be finite and {'positive' if positive else '>= 0'}, got {bad!r}")
        return vals if vals.ndim else float(v)

    # each knob is checked before the defaults derived from it
    alpha = check("alpha", alpha_factor / spectral_norm_sq(a) if cfg.alpha is None else cfg.alpha)
    if cfg.lambda1 is None:
        lam1 = 0.05 * np.max(np.abs(a.conj().T @ y2d), axis=0)
        # rounding is monotone, so the largest scaled column maximum equals
        # 0.05 times the global maximum bit for bit
        lam1 = lam1 if batch else float(np.max(lam1))
    else:
        lam1 = per_problem(cfg.lambda1)
    lam1 = check("lambda1", lam1, positive=False)
    lam2 = check("lambda2", 0.01 * lam1 if cfg.lambda2 is None else per_problem(cfg.lambda2), positive=False)
    mu = check("mu", cfg.mu)
    r = ResolvedConfig(
        alpha=alpha,
        lambda1=lam1,
        lambda2=lam2,
        mu=mu,
        tau1=check("tau1", 1.0 / (1.0 / alpha + 8.0 * mu) if cfg.tau1 is None else cfg.tau1),
        tau2=check("tau2", 1.0 / mu if cfg.tau2 is None else cfg.tau2),
        sigma=float(cfg.sigma),
        max_outer=int(cfg.max_outer),
        inner_iters=int(cfg.inner_iters),
    )
    if not (0.0 < r.sigma < 1.0):
        raise ConfigurationError(f"sigma must be in (0, 1), got {r.sigma}")
    if r.max_outer < 1 or r.inner_iters < 1:
        raise ConfigurationError("max_outer and inner_iters must be >= 1")
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


def _column_sums(t, k):
    """The sum of each column of ``t.reshape(-1, k)``."""
    return t.reshape(-1, k).sum(axis=0)


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


def _iterate(step, x, y2d, a, lambda1, lambda2, sigma, max_outer, solver, measure=None):
    """The outer loop shared by every iterative solver.

    Applies ``x = step(x, resid)`` from the given start.  ``resid``, the
    residual y2d - a @ x over the columns of ``x``, is formed once per
    iterate: it scores the iterate through :func:`_objective` with
    ``lambda1`` and ``lambda2``, and the step reads it but does not write
    it.  The objective has one value per problem: k values pose
    k independent problems, the columns of ``x.reshape(-1, k)``, iterated
    side by side (a volume is a batch of one).  Each problem stops once its
    relative change drops below ``sigma`` and keeps its value from that
    iteration; the loop ends when all have stopped or after ``max_outer``
    steps.  A DivergenceError, naming ``solver``, the iteration, the column
    of a larger batch and its objective, is raised as soon as the objective
    of a running problem is non-finite or exceeds ten times its start
    value.  The report counts the steps run and each problem's own
    (``column_iterations``), is converged only if every problem is, and
    traces per iteration the objective summed over the problems (also
    carried by a DivergenceError) and the largest relative change among
    those still running.

    ``measure(x_new, x)`` returns what the loop reads of the step just
    taken from ``x`` to ``x_new``: the relative change of each problem (as
    :func:`_column_rel_change`), the residual of ``x_new`` and its
    objective.  By default it computes them from the two iterates.  Past
    ``measure`` the loop never reads the old iterate, so a step may reuse
    its array.
    """
    resid = _residual(_columns(x), y2d, a)
    obj0 = _objective(x, resid, lambda1, lambda2)
    k = obj0.size
    if measure is None:
        def measure(x_new, x):
            rel = _column_rel_change(x_new.reshape(-1, k), x.reshape(-1, k))
            resid = _residual(_columns(x_new), y2d, a)
            return rel, resid, _objective(x_new, resid, lambda1, lambda2)
    limit = _divergence_limit(obj0)
    active = np.ones(k, dtype=bool)
    iters = np.zeros(k, dtype=int)
    # the results of stopped problems, allocated once some but not all have stopped
    frozen = None
    obj_trace = []
    rel_trace = []
    converged = False
    t0 = time.perf_counter()
    for it in range(max_outer):
        x_new = step(x, resid)
        # released before the next residual is formed: one alive at a time
        resid = None
        rel, resid, obj = measure(x_new, x)
        x = x_new
        obj_trace.append(float(obj.sum()))
        # stopped problems are still stepped but no longer traced, guarded or stopped
        run = slice(None) if frozen is None else active
        rel_trace.append(float(rel[run].max()))
        stopped = _stopped(rel, obj, obj0, limit, sigma, it, solver,
                           lambda j: ((f", column {j}" if k > 1 else ""), obj_trace, j), run)
        if frozen is not None:
            stopped &= active
        if stopped.any():
            iters[stopped] = it + 1
            active &= ~stopped
            if frozen is None and active.any():
                frozen = np.empty_like(x)
            if frozen is not None:
                frozen.reshape(-1, k)[:, stopped] = x.reshape(-1, k)[:, stopped]
            if not active.any():
                converged = True
                break
    iters[active] = len(obj_trace)
    if frozen is not None:
        frozen.reshape(-1, k)[:, active] = x.reshape(-1, k)[:, active]
        x = frozen
    report = SolverReport(
        iterations=len(obj_trace),
        objective_trace=obj_trace,
        rel_change_trace=rel_trace,
        wall_time_s=time.perf_counter() - t0,
        converged=converged,
        column_iterations=iters.tolist(),
    )
    return x, report


def _divergence_limit(obj0):
    """Ten times each positive start objective, else the largest float, so
    that a comparison with the limit also fails for inf and NaN."""
    big = np.finfo(np.float64).max
    with np.errstate(over="ignore"):
        return np.where(obj0 > 0, np.minimum(10.0 * obj0, big), big)


def _stopped(rel, obj, obj0, limit, sigma, it, solver, blame, run=slice(None)):
    """rel < sigma, the problems that stop at iteration ``it``; but first a
    DivergenceError if an objective among ``run`` is above its ``limit`` or
    non-finite, with what ``blame(j)`` of the first such problem j gives."""
    bounded = obj[run] <= limit[run]
    if not bounded.all():
        j = int(np.arange(obj.size)[run][np.argmin(bounded)])
        why = f"exceeded 10x its initial value {obj0[j]:.3e}" if math.isfinite(obj[j]) else "is not finite"
        where, trace, column = blame(j)
        raise DivergenceError(f"{solver} at iteration {it}{where}: objective {obj[j]:.3e} {why}", trace, column)
    return rel < sigma


def _residual(x, y2d, a):
    """y2d - a @ x, written into the product."""
    r = a @ x
    return np.subtract(y2d, r, out=r)


def _gradient_step(x, y2d, a, ah, alpha, resid=None):
    """x + alpha * ah @ (y2d - a @ x), a new array: one gradient step on the data term.

    ``resid``, if given, is ``y2d - a @ x`` already computed for this ``x``;
    it is read, not written.
    """
    if resid is None:
        resid = _residual(x, y2d, a)
    g = ah @ resid
    np.multiply(alpha, g, out=g)
    return np.add(x, g, out=g)


def _objective(x, resid, lambda1, lambda2=None):
    """1/2 ||Y - A X||_F^2 + lambda1 ||X||_1 + lambda2 TV(X) of each problem
    of a batch, from the residual ``resid`` = Y - A X; an array of k values.

    There are k = np.size(lambda1) problems (lambda1 and lambda2 hold one
    value per problem or one for all): problem j is column j of
    ``x.reshape(-1, k)`` and of ``resid.reshape(-1, k)``.  A batch of one is
    a volume (or a slice, or one fiber), whose TV is that of
    :func:`tomosar.tensor.tv_norm` on x viewed as an order-3 tensor; the
    problems of a larger batch are fibers side by side along axis 1, whose
    TV runs along axis 0 alone.  ``lambda2`` None drops the TV term.
    """
    k = np.asarray(lambda1).size
    value = 0.5 * _column_sums(np.abs(resid) ** 2, k)
    value += lambda1 * _column_sums(np.abs(x), k)
    if lambda2 is not None:
        x3 = x if x.ndim == 3 else x[:, :, None]
        buf = np.empty(x3.shape, dtype=x3.dtype)
        tv = sum(np.abs(tensor.diff(x3, ax, out=buf)).reshape(-1, k).sum(axis=0)
                 for ax in (range(3) if k == 1 else [0]))
        value += lambda2 * tv
    return value


# A volume of fewer voxels sweeps as one slab, and an ista/fista iterate or
# light-tv's running slices of fewer entries iterate as one block: below it,
# handing work to threads costs more than a second worker saves.  On a
# 2-core host one sweep of 64x16x32 (2^15) voxels took 9-11 ms on one worker
# and 8-11 ms on two, of 64x24x32 (3 * 2^14) 15-16 ms against 11-14 ms.
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


def _ista_matrix(y2d, a, rcfg: ResolvedConfig, variant="ista"):
    """Proximal-gradient solve on an (n_z, m) iterate.

    With a fiber-batch config (per-column lambda1, see :func:`resolve_config`)
    the columns are independent problems, each with threshold alpha *
    lambda1 of its own and its own stop (:func:`_iterate`), so each column
    matches its solo solve.  With a scalar lambda1 the columns form one
    problem, with one stop on its whole relative change.  The objective
    has no TV term.

    Each iteration runs on blocks of the iterate.  The gradient step, the
    shrink, fista's momentum and the per-entry terms of the relative change
    and the objective go by row blocks; the products A X and the per-entry
    residual terms go by column blocks.  The caller's thread then sums the
    per-entry terms of the whole iterate as :func:`_column_rel_change` and
    :func:`_objective` do.  A single problem of at least ``SLAB_MIN_VOXELS``
    entries has one block per worker (``worker_count()``), its rows cut on
    multiples of 8 and its columns on multiples of 64, where each entry of
    a block's product has the bits of the whole product; a fiber batch, a
    smaller problem or a single worker is one block on the caller's thread.
    So no byte depends on the worker count.
    """
    if variant not in ("ista", "fista"):
        raise ConfigurationError(f"unknown variant {variant!r}")
    fista = variant == "fista"
    ah = a.conj().T
    alpha, lam = rcfg.alpha, rcfg.lambda1
    theta = alpha * lam
    k = np.size(lam)
    (n_e, n_z), m = a.shape, y2d.shape[1]
    n = 1 if k > 1 or n_z * m < SLAB_MIN_VOXELS else max(1, min(worker_count(), n_z // 8, m // 64))
    # the work arrays of the solve, allocated once on the caller's thread
    x0 = np.zeros((n_z, m), dtype=np.complex128)
    nxt = np.empty_like(x0)
    z = np.empty_like(x0) if fista else None
    r = np.empty((n_e, m), dtype=np.complex128)
    rz = np.empty_like(r) if fista else None
    r2 = np.empty((n_e, m))
    dx2, mag, mag2 = np.empty((3, n_z, m))
    work = np.empty(2 * n_z * m)
    blocks = [(rows, cols, work[2 * m * rows.start:2 * m * rows.stop])
              for rows, cols in zip(_cuts(n_z, n, 8), _cuts(m, n, 64))]
    # what the block kernels of the current iteration read: the point the
    # step starts from with its residual, the iterate and the array that
    # receives the next one; and fista's t_k and momentum coefficient
    start = resid_start = x_old = x_new = None
    t_k, momentum = 1.0, 0.0

    def momentum_residual(block):
        cols = block[1]
        _data_fit(a, z[:, cols], y2d[:, cols], rz[:, cols])

    def descend(block):
        rows, _, wk = block
        _descend(ah[rows], resid_start, start[rows], x_new[rows], x_old[rows], dx2[rows], mag[rows], mag2[rows],
                 wk, alpha, theta, z[rows] if fista else None, momentum)

    def data_fit(block):
        cols = block[1]
        _data_fit(a, x_new[:, cols], y2d[:, cols], r[:, cols], r2[:, cols])

    def step(x, resid):
        nonlocal start, resid_start, x_old, x_new, nxt, t_k, momentum
        # ista steps from the iterate, whose residual _iterate has formed;
        # fista steps from the momentum point, the iterate only at the first
        # step, the one with t_k = 1
        if fista and t_k > 1.0:
            _fan(momentum_residual, blocks)
            start, resid_start = z, rz
        else:
            start, resid_start = x, resid
        if fista:
            t_next = (1.0 + math.sqrt(1.0 + 4.0 * t_k * t_k)) / 2.0
            momentum = (t_k - 1.0) / t_next
            t_k = t_next
        x_old, x_new = x, nxt
        _fan(descend, blocks)
        # the old iterate's array, spent, receives the next step
        nxt = x
        return x_new

    def measure(*_):
        # the step has left the per-entry terms of the relative change and
        # of the l1 norm; these are the sums of _column_rel_change and
        # _objective, in their order
        _fan(data_fit, blocks)
        obj = 0.5 * _column_sums(r2, k)
        obj += lam * _column_sums(mag, k)
        return _rel_change(_column_sums(dx2, k), _column_sums(mag2, k)), r, obj

    return _iterate(step, x0, y2d, a, lam, None, rcfg.sigma, rcfg.max_outer, variant, measure)


def _ista_slices(y3, a, rcfg: ResolvedConfig):
    """ISTA on each frontal slice ``y3[:, :, k]``: the (n_z, m, n) results
    and whether each converged, bit for bit as :func:`_ista_matrix` alone.
    The running slices, each stopped and guarded alone, iterate as one stack
    at its front, one group per worker from ``SLAB_MIN_VOXELS`` entries."""
    n_z, (m, n) = a.shape[1], y3.shape[1:]
    ah, alpha, theta = a.conj().T, rcfg.alpha, rcfg.alpha * rcfg.lambda1
    y = np.ascontiguousarray(y3.transpose(2, 0, 1))
    r, r2 = np.empty_like(y), np.empty(y.shape)
    x, nxt = np.zeros((2, n, n_z, m), dtype=np.complex128)
    dx2, mag, mag2 = np.zeros((3, n, n_z, m))
    work = np.empty((n, 2 * n_z * m))
    out, converged = np.empty((n_z, m, n), dtype=np.complex128), np.zeros(n, dtype=bool)
    # the slice at each position of the running front; each slice's objectives
    order, traces = np.arange(n), [[] for _ in range(n)]

    def sums(t):
        return t[:order.size].reshape(order.size, -1).sum(axis=1)

    def objective():
        return 0.5 * sums(r2) + rcfg.lambda1 * sums(mag)

    def advance(group):
        _descend(ah, r[group], x[group], nxt[group], x[group], dx2[group], mag[group], mag2[group],
                 work[group].reshape(-1), alpha, theta)
        _data_fit(a, nxt[group], y[group], r[group], r2[group])

    _data_fit(a, x, y, r, r2)
    obj0 = objective()
    limit = _divergence_limit(obj0)
    for it in range(rcfg.max_outer):
        na = order.size
        _fan(advance, _cuts(na, min(worker_count(), na) if na * n_z * m >= SLAB_MIN_VOXELS else 1, 1))
        x, nxt = nxt, x
        obj = objective()
        for j, v in zip(order.tolist(), obj.tolist()):
            traces[j].append(v)
        stopped = _stopped(_rel_change(sums(dx2), sums(mag2)), obj, obj0, limit, rcfg.sigma, it, "ista",
                           lambda i: (f", slice {order[i]}", traces[order[i]], None))
        if stopped.any():
            out[:, :, order[stopped]] = x[:na][stopped].transpose(1, 2, 0)
            converged[order[stopped]] = True
            order, obj0, limit = order[~stopped], obj0[~stopped], limit[~stopped]
            for t in (x, r, y):
                t[:order.size] = t[:na][~stopped]
            if not order.size:
                break
    out[:, :, order] = x[:order.size].transpose(1, 2, 0)
    return out, converged


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
    batch or a volume below ``SLAB_MIN_VOXELS``.  ``slabs[k][ax]`` is
    (index, p, d, h, du, work): the index of slab k of axis ``ax``'s update,
    four contiguous work arrays of its shape, and ``work``, the float view
    of ``h`` that the shrinks use.  Slab k's arrays lie in one segment of
    four flat buffers, so ``scratch``, a volume-shaped view of the d buffer,
    is free between sweeps.
    """
    anchor = np.empty(dims, dtype=np.complex128)
    n = 1 if batch_axis is not None or anchor.size < SLAB_MIN_VOXELS else min(worker_count(), *dims[:2])
    indices = [[(slice(None),) * c + (slice(k * dims[c] // n, (k + 1) * dims[c] // n),) for c in _SLAB_CUT]
               for k in range(n)]
    sizes = [max(anchor[i].size for i in slab) for slab in indices]
    flat = [np.empty(sum(sizes), dtype=np.complex128) for _ in range(4)]
    slabs = []
    for slab, off in zip(indices, np.cumsum([0] + sizes)):
        work = []
        for i in slab:
            p, d, h, du = (f[off:off + anchor[i].size].reshape(anchor[i].shape) for f in flat)
            work.append((i, p, d, h, du, h.view(np.float64).reshape(-1)))
        slabs.append(work)
    return anchor, flat[1][:anchor.size].reshape(dims), slabs


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


def _no_diff(t, axis, out):
    """The zero difference across the batch axis of a fiber batch."""
    out.fill(0)
    return out


def _split_sweep(p0, u_i, v_i, b_i, bufs, alpha, lambda1, lambda2, mu, tau1, tau2, inner_iters, batch_axis=None):
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

    Fibers side by side along ``batch_axis`` are independent problems: D is
    zero across that axis, as along an axis of extent 1, and lambda1 and
    lambda2 may be arrays that broadcast one value per fiber.
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

    def update(ax, index, p, d, h, du, work):
        u, w, b = u_i[ax][index], v_i[ax][index], b_i[ax][index]
        diff, diff_adjoint = (_no_diff, _no_diff) if ax == batch_axis else (tensor.diff, tensor.diff_adjoint)
        # p = tau1 * (p0 / alpha + mu * D^T (v - b))
        diff_adjoint(np.subtract(w, b, out=d), ax, out=p)
        np.multiply(c1, p, out=p)
        np.add(anchor[index], p, out=p)
        for _ in range(inner_iters):
            # u = u - tau1 * (u / alpha + mu * D^T D u - p) = c0 * u - c1 * D^T D u + tau1 * p
            diff_adjoint(diff(u, ax, out=d), ax, out=h)
            np.multiply(c1, h, out=h)
            np.multiply(c0, u, out=u)
            np.subtract(u, h, out=u)
            np.add(u, p, out=u)
            if shrink_u:
                soft_threshold(u, th1, out=u, work=work)
        diff(u, ax, out=du)
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
        for ax, work in enumerate(slab):
            update(ax, *work)

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
    stop (:func:`_iterate`) of its solo solve as ``y[:, j].reshape(-1, 1,
    1)``, and so its result up to rounding; a batch report has no
    feasibility-gap trace.
    """
    y, y3, batch = _as_volume(y, a.shape[0])
    dims = (a.shape[1], y3.shape[1], y3.shape[2])
    rcfg = resolve_config(cfg, a, y, alpha_factor=1.8)
    # a batch's fibers lie side by side along axis 1, one threshold each
    batch_axis = 1 if batch else None
    lam1, lam2 = (np.reshape(lam, (1, -1, 1)) if batch else lam for lam in (rcfg.lambda1, rcfg.lambda2))
    x_i, v_i, b_i = ([np.zeros(dims, dtype=np.complex128) for _ in range(3)] for _ in range(3))
    bufs = _sweep_buffers(dims, batch_axis)
    gap_trace = None if batch else []

    def step(x, resid):
        # z = x + alpha * A^H (y - A x)
        z = adjoint(a, resid.reshape(y3.shape))
        np.multiply(rcfg.alpha, z, out=z)
        np.add(x, z, out=z)
        x_new = _split_sweep(
            z, x_i, v_i, b_i, bufs, rcfg.alpha, lam1, lam2,
            rcfg.mu, rcfg.tau1, rcfg.tau2, rcfg.inner_iters, batch_axis=batch_axis,
        )
        if not batch:
            d = bufs[1]
            gap_trace.append(sum(
                tensor.frobenius(np.subtract(tensor.diff(x_i[ax], ax, out=d), v_i[ax], out=d)) for ax in range(3)
            ))
        return x_new

    x, report = _iterate(
        step, np.zeros(dims, dtype=np.complex128), _columns(y), a,
        rcfg.lambda1, rcfg.lambda2, rcfg.sigma, rcfg.max_outer, "sb-tv",
    )
    report.feasibility_gap_trace = gap_trace
    return (x[:, :, 0] if batch else x), report


def tv_denoise_enhance(x, lambda2, inner_iters=3, mu=1.0):
    """Shallow TV enhancement: approximately solve
    min_U 1/2 ||U - X||_F^2 + lambda2 TV(U) with 10 fixed
    :func:`_split_sweep` passes, the data term replaced by the quadratic
    anchor (alpha = 1) and no l1 term.

    lambda2 = 0 (or an already TV-free input) returns the input unchanged.
    ``inner_iters`` counts the u-descent steps per pass; the TV split
    variable, with tau2 = 1 / mu, takes one exact shrink per pass.

    A 2-D ``x`` is an (n_z, m) batch of fibers, one per column, each
    denoised along its length as its solo call on ``x[:, j].reshape(-1, 1,
    1)`` would be; ``lambda2`` may then hold one value per fiber, and a
    fiber with lambda2 = 0 or no variation is returned unchanged.
    """
    x, x3, batch = _as_volume(x)
    if np.any(np.asarray(lambda2) < 0):
        raise ConfigurationError(f"lambda2 must be >= 0, got {lambda2}")
    if batch:
        lam = np.broadcast_to(np.asarray(lambda2, dtype=np.float64), x.shape[1:])
        keep = (lam != 0.0) & np.any(tensor.diff(x3, 0), axis=(0, 2))
    else:
        keep = lambda2 != 0.0 and tensor.tv_norm(x) != 0.0
    if not np.any(keep):
        return x.copy()
    if inner_iters < 1 or mu <= 0:
        raise ConfigurationError("inner_iters must be >= 1 and mu > 0")
    tau1 = 1.0 / (1.0 + 8.0 * mu)
    tau2 = 1.0 / mu
    # a batch denoises only its kept fibers, side by side along axis 1
    p0, lam = (x3[:, keep], lam[keep].reshape(1, -1, 1)) if batch else (x, lambda2)
    u_i = [p0.copy() for _ in range(3)]
    v_i = [np.zeros_like(p0) for _ in range(3)]
    b_i = [np.zeros_like(p0) for _ in range(3)]
    batch_axis = 1 if batch else None
    bufs = _sweep_buffers(p0.shape, batch_axis)
    sweep = functools.partial(_split_sweep, p0, u_i, v_i, b_i, bufs, 1.0, 0.0, lam, mu, tau1, tau2, inner_iters,
                              batch_axis=batch_axis)
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
    stop, and the slices are solved as one stack on the worker threads
    (:func:`_ista_slices`).  Returns (tensor, report); the report's
    two-entry traces cover the assembly stage and the enhancement stage.

    A 2-D echo is instead an (n_e, m) batch of independent fibers, one per
    column, solved as one slice and returned as an (n_z, m) array: each
    fiber gets the config (:func:`resolve_config`) and the ISTA stop of its
    solo solve as ``y[:, j].reshape(-1, 1, 1)``; the report's traces then
    keep, per stage, the objective summed over the fibers and the largest
    relative change among them, as :func:`_iterate` does.
    """
    y, y3, batch = _as_volume(y, a.shape[0])
    rcfg = resolve_config(cfg, a, y)
    t0 = time.perf_counter()
    if batch:
        x, ista_report = _ista_matrix(y, a, rcfg)
        converged = ista_report.converged
    else:
        x, converged = _ista_slices(y3, a, rcfg)
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
        converged=bool(np.all(converged)),
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
        # d_k from x_k = S(z_{k-1}, theta_{k-1}), and x_0 = 0
        d = ah @ (_residual(soft_threshold(tape[k - 1], params.theta[k - 1]), y2d, a) if k else y2d)
        grad[k] = np.sum(_real_inner(g_z, d))
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
    if k_blocks < 1:
        raise ConfigurationError("k_blocks must be >= 1")
    if epochs < 0:
        raise ConfigurationError("epochs must be >= 0")
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
    "sb-tv", "light-tv", "lista" (requires ``lista_params``).
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
        ah = a.conj().T
        blocks = zip(lista_params.alpha, lista_params.theta)

        def step(x, resid):
            alpha_k, theta_k = next(blocks)
            # a new array for the shrink, not out=: shrinking in place measured
            # 10-20 % slower per step at 500 and 4096 columns, the temporaries
            # of the next step then landing on fresh pages
            return soft_threshold(_gradient_step(x, y2d, a, ah, alpha_k, resid), theta_k)

        # data-fit objective only (lambda1 = 0 for each problem): the unrolled
        # blocks carry no single lambda pair; sigma = 0 never stops early,
        # and a network that has run all its K blocks is complete, so the
        # report says converged
        lam = np.zeros(y2d.shape[1]) if batch else 0.0
        x0 = np.zeros((a.shape[1], y2d.shape[1]), dtype=np.complex128)
        x2d, report = _iterate(step, x0, y2d, a, lam, None, 0.0, lista_params.blocks, "lista")
        report.converged = True
    else:
        raise ConfigurationError(
            f"unknown method {method!r}; choose from ista, fista, sb-tv, light-tv, lista"
        )
    return x2d.reshape(a.shape[1], *y.shape[1:]), report
