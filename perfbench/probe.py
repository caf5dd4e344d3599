"""Host-speed probes: frozen copies of the workloads' inner loops.

This host's speed drifts for minutes at a time: within six minutes the
same l1-volume pass (fixed work) took 12.7 s and then 18.5 s, and set-up
0.40 s and then 0.80 s.  A probe runs a fixed amount of the work a workload
spends its time on, before the first operation of a pass and after each
one, and every operation's time is scaled by how much slower than its
reference time the probe ran around it.

The kernels are copies of ``tomosar``'s sb-tv and batched-ISTA loops as
they stood when the benchmark was defined, on fixed random inputs, and
import nothing from ``tomosar``: a change to the program moves the
workload's time but not the probe's, so it shows in the scaled time.
A probe only follows the host if it does the same kind of work as the
workload, so each workload has its own (``WORKLOAD_PROBE``).
"""

import statistics
import time

import numpy as np

REPS = 3


def _diff(t, axis):
    if t.shape[axis] == 1:
        return np.zeros_like(t)
    pad_shape = list(t.shape)
    pad_shape[axis] = 1
    return np.concatenate([np.diff(t, axis=axis), np.zeros(pad_shape, dtype=t.dtype)], axis=axis)


def _diff_adjoint(t, axis):
    if t.shape[axis] == 1:
        return np.zeros_like(t)
    y = np.moveaxis(t, axis, 0)
    out = np.empty_like(y)
    out[0] = -y[0]
    out[1:-1] = y[:-2] - y[1:-1]
    out[-1] = y[-2]
    return np.moveaxis(out, 0, axis)


def _soft(z, theta):
    mag = np.abs(z)
    shrunk = np.maximum(mag - theta, 0.0)
    safe = np.where(mag > 0, mag, 1.0)
    return z * (shrunk / safe)


def _rel(x_new, x_old):
    num = float(np.sum(np.abs(x_new - x_old) ** 2))
    den = float(np.sum(np.abs(x_new) ** 2))
    return num / den if den else 0.0


def _inputs(n_x, n_y):
    rng = np.random.default_rng(0)
    a = rng.standard_normal((12, 64)) + 1j * rng.standard_normal((12, 64))
    y = rng.standard_normal((12, n_x, n_y)) + 1j * rng.standard_normal((12, n_x, n_y))
    return a / 8.0, y


def sbtv(n_x, n_y, iterations, alpha=0.02, mu=1.0, lam1=0.3, lam2=0.003, inner=3):
    """``iterations`` outer sb-tv iterations on a 64 x n_x x n_y volume."""
    a, y = _inputs(n_x, n_y)
    ah = a.conj().T
    dims = (64, n_x, n_y)
    tau1, tau2 = 1.0 / (1.0 / alpha + 8.0 * mu), 1.0 / mu
    x = np.zeros(dims, dtype=np.complex128)
    x_i = [np.zeros(dims, dtype=np.complex128) for _ in range(3)]
    v_i = [np.zeros(dims, dtype=np.complex128) for _ in range(3)]
    b_i = [np.zeros(dims, dtype=np.complex128) for _ in range(3)]
    for _ in range(iterations):
        resid = (a @ x.reshape(64, -1)).reshape(y.shape) - y
        z = x - alpha * (ah @ resid.reshape(12, -1)).reshape(dims)
        for ax in range(3):
            p = z / alpha + mu * _diff_adjoint(v_i[ax] - b_i[ax], ax)
            u = x_i[ax]
            for _ in range(inner):
                grad = u / alpha + mu * _diff_adjoint(_diff(u, ax), ax) - p
                u = _soft(u - tau1 * grad, lam1 * tau1)
            x_i[ax] = u
            du = _diff(u, ax)
            w = v_i[ax]
            for _ in range(inner):
                w = _soft(w - tau2 * mu * (w - du - b_i[ax]), lam2 * tau2)
            v_i[ax] = w
            b_i[ax] = b_i[ax] + du - w
        x_new = (x_i[0] + x_i[1] + x_i[2]) / 3.0
        # the solver's stopping test, objective and gap traces, kept for their cost
        _rel(x_new, x)
        x = x_new
        resid = y - (a @ x.reshape(64, -1)).reshape(y.shape)
        0.5 * float(np.sum(np.abs(resid) ** 2)) + lam1 * float(np.sum(np.abs(x)))
        sum(float(np.sum(np.abs(_diff(x, ax)))) for ax in range(3))
        sum(float(np.sqrt(np.sum(np.abs(_diff(x_i[ax], ax) - v_i[ax]) ** 2))) for ax in range(3))


def ista(n_cols, iterations, fista=True, alpha=0.02, theta=0.006):
    """``iterations`` batched (F)ISTA steps on a 64 x n_cols iterate."""
    a, y = _inputs(1, n_cols)
    y2d = y.reshape(12, n_cols)
    ah = a.conj().T
    x = z = np.zeros((64, n_cols), dtype=np.complex128)
    t_k = 1.0
    for _ in range(iterations):
        x_new = _soft((z if fista else x) + alpha * (ah @ (y2d - a @ (z if fista else x))), theta)
        if fista:
            t_next = (1.0 + (1.0 + 4.0 * t_k * t_k) ** 0.5) / 2.0
            z = x_new + ((t_k - 1.0) / t_next) * (x_new - x)
            t_k = t_next
        # the solver's stopping test and objective trace, kept for their cost
        _rel(x_new, x)
        x = x_new
        0.5 * float(np.sum(np.abs(y2d - a @ x) ** 2)) + float(np.sum(theta * np.sum(np.abs(x), axis=0)))


def _sbtv_volume():
    sbtv(32, 32, 1)


def _ista_batches():
    ista(4096, 3)
    for _ in range(2):
        ista(64, 12, fista=False)


def _small_ista_batches():
    ista(512, 24)
    for _ in range(2):
        ista(64, 12, fista=False)


def _tiny_solves():
    for _ in range(60):
        ista(1, 12)
    sbtv(1, 1, 30)


# fiber-lab's own kind of work, thousands of tiny solves, makes a poor
# probe: its time jumps by up to 2x between back-to-back calls, and scaled
# by it fiber-lab's quartile spread over ten seeds was 0.18 against 0.09
# unscaled.  train-lista, a third of fiber-lab, follows the batched-ISTA
# probe more closely than its own time repeats (CV 0.03 against 0.05).
# fiber-lab's probe uses narrower batches, whose temporaries stay below
# fiber-lab's own peak memory (4096 columns raised peak_rss_mb by 28 MiB).
# "setup" scales set-up time: starting the interpreter and importing
# numpy, scipy and tomosar is Python-bound work.
WORKLOAD_PROBE = {
    "tv-volume": _sbtv_volume,
    "tv-volume-64": _sbtv_volume,
    "l1-volume": _ista_batches,
    "fiber-lab": _small_ista_batches,
    "setup": _tiny_solves,
}

# Median probe time per workload on the 2-core reference machine (Intel
# Xeon, 2 MiB L2 a core, 105 MiB L3) at its usual speed; scaled times read
# as seconds on that machine.
REFERENCE_S = {
    "tv-volume": 0.090,
    "tv-volume-64": 0.090,
    "l1-volume": 0.083,
    "fiber-lab": 0.046,
    "setup": 0.082,
}


def measure(workload):
    """Median seconds of ``REPS`` runs of the workload's probe."""
    kernel = WORKLOAD_PROBE[workload]
    times = []
    for _ in range(REPS):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def slowdown(workload, seconds):
    """How much slower than the reference machine a probe time reads."""
    return seconds / REFERENCE_S[workload]
