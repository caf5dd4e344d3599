"""Independent dense-matrix reference implementations used as oracles.

Everything here works on explicitly materialized matrices (Kronecker
products, dense difference operators, brute-force loops) so the library
code under test never shares a code path with its oracle.
"""

import numpy as np


def dense_diff_matrix(n):
    """Forward-difference matrix with a zero last row, shape (n, n)."""
    d = np.zeros((n, n))
    for i in range(n - 1):
        d[i, i] = -1.0
        d[i, i + 1] = 1.0
    return d


def dense_diff_operator(dims, axis):
    """Kronecker-built matrix acting on vec(t) with index order (i*d1 + j)*d2 + k."""
    d0, d1, d2 = dims
    i0, i1, i2 = np.eye(d0), np.eye(d1), np.eye(d2)
    if axis == 0:
        return np.kron(dense_diff_matrix(d0), np.kron(i1, i2))
    if axis == 1:
        return np.kron(i0, np.kron(dense_diff_matrix(d1), i2))
    return np.kron(i0, np.kron(i1, dense_diff_matrix(d2)))


def dense_forward_operator(a, dims):
    """Matrix mapping vec(x) (dims) to vec(y) ((n_e, d1, d2)): kron(A, I)."""
    d0, d1, d2 = dims
    assert a.shape[1] == d0
    return np.kron(a, np.eye(d1 * d2))


def vec(t):
    return np.asarray(t).reshape(-1)


def unvec(v, dims):
    return np.asarray(v).reshape(dims)


def soft_ref(z, theta):
    """Complex soft threshold, elementwise loop-free reference."""
    z = np.asarray(z, dtype=complex)
    mag = np.abs(z)
    shrunk = np.maximum(mag - theta, 0.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        phase = np.where(mag > 0, z / np.where(mag > 0, mag, 1.0), 0.0)
    return shrunk * phase


def nn_dists_brute(q, p):
    """For each row of q, distance to the nearest row of p over all pairs."""
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    if len(q) == 0:
        return np.zeros(0)
    if len(p) == 0:
        return np.full(len(q), np.inf)
    d = np.sqrt(np.sum((q[:, None, :] - p[None, :, :]) ** 2, axis=2))
    return d.min(axis=1)


def precision_recall_brute(recon_xyz, truth_xyz, tau):
    """Counts of matched points in each direction, brute force."""
    n_match_recon = int(np.sum(nn_dists_brute(recon_xyz, truth_xyz) <= tau))
    n_match_truth = int(np.sum(nn_dists_brute(truth_xyz, recon_xyz) <= tau))
    return n_match_recon, n_match_truth


def split_bregman_dense(y, a, dims, alpha, lam1, lam2, mu, tau1, tau2,
                        n_outer, inner_iters=3):
    """Dense reference for the three-axis l1+TV solver.

    Works entirely on vectorized tensors with explicit Kronecker
    matrices.  Mirrors the algorithm step for step: gradient surrogate,
    per-axis inner shrink loops, Bregman multiplier update, consensus
    average.  No convergence test; runs exactly n_outer iterations.
    """
    d0, d1, d2 = dims
    n_vox = d0 * d1 * d2
    fwd = dense_forward_operator(a, dims)
    diffs = [dense_diff_operator(dims, ax) for ax in range(3)]

    yv = vec(y)
    xs = [np.zeros(n_vox, dtype=complex) for _ in range(3)]
    vs = [np.zeros(n_vox, dtype=complex) for _ in range(3)]
    bs = [np.zeros(n_vox, dtype=complex) for _ in range(3)]
    x = np.zeros(n_vox, dtype=complex)

    for _ in range(n_outer):
        z = x - alpha * (fwd.conj().T @ (fwd @ x - yv))
        for ax in range(3):
            dmat = diffs[ax]
            p = z / alpha + mu * (dmat.conj().T @ (vs[ax] - bs[ax]))
            u = xs[ax]
            for _ in range(inner_iters):
                grad = u / alpha + mu * (dmat.conj().T @ (dmat @ u)) - p
                u = soft_ref(u - tau1 * grad, lam1 * tau1)
            w = vs[ax]
            du = dmat @ u
            for _ in range(inner_iters):
                grad = mu * (w - du - bs[ax])
                w = soft_ref(w - tau2 * grad, lam2 * tau2)
            bs[ax] = bs[ax] + du - w
            xs[ax] = u
            vs[ax] = w
        x = (xs[0] + xs[1] + xs[2]) / 3.0

    return unvec(x, dims)


def objective_dense(x, y, a, dims, lam1, lam2):
    fwd = dense_forward_operator(a, dims)
    xv, yv = vec(x), vec(y)
    resid = fwd @ xv - yv
    tv = sum(np.sum(np.abs(dense_diff_operator(dims, ax) @ xv)) for ax in range(3))
    return 0.5 * float(np.real(resid.conj() @ resid)) + lam1 * float(np.sum(np.abs(xv))) + lam2 * tv


def ista_dense(y_col, a, alpha, lam1, n_iters):
    """Plain ISTA on a single fiber, fixed iteration count, no stopping."""
    x = np.zeros(a.shape[1], dtype=complex)
    for _ in range(n_iters):
        x = soft_ref(x + alpha * (a.conj().T @ (y_col - a @ x)), alpha * lam1)
    return x


def tv1d_prox_exact(y, lam):
    """Exact solution of min_x 0.5*||x-y||^2 + lam*sum|x[i+1]-x[i]|.

    Solved through the dual: min_{|u| <= lam} 0.5*||D^T u - y||^2 with D
    the (n-1)xn forward-difference matrix, a box-constrained least-squares
    problem, then x = y - D^T u.  Real signals only.
    """
    from scipy.optimize import lsq_linear

    y = np.asarray(y, dtype=float)
    n = len(y)
    if n < 2 or lam <= 0:
        return y.copy()
    d = np.zeros((n - 1, n))
    for i in range(n - 1):
        d[i, i] = -1.0
        d[i, i + 1] = 1.0
    res = lsq_linear(d.T, y, bounds=(-lam, lam), method="bvls", tol=1e-14)
    return y - d.T @ res.x


def lista_loss_dense(y2d, x2d, a, alpha, theta):
    """Mean squared magnitude error of the unrolled blocks (alpha_k, theta_k) from x = 0."""
    x = np.zeros((a.shape[1], y2d.shape[1]), dtype=complex)
    for al, th in zip(alpha, theta):
        x = soft_ref(x + al * (a.conj().T @ (y2d - a @ x)), th)
    return float(np.mean((np.abs(x) - np.abs(x2d)) ** 2))


def lista_grad_fd(y2d, x2d, a, alpha, theta):
    """Finite-difference gradient of :func:`lista_loss_dense` in (alpha, theta).

    Central differences with step h = 1e-6 * max(|v|, 1e-2) per scalar v,
    and the second-order one-sided forward difference where v - h would
    leave the nonnegative orthant.  The loss has kinks where an entry
    crosses its threshold, within h of the point for some of thousands of
    entries, which makes the error first order in h: on 500 fibers at K = 9
    a step of 1e-4 * max(|v|, 1e-2) was off the exact gradient by up to
    3.7e-4 of its max-norm, this one by under 3e-6.  Returns the 2K
    gradient, alpha's first.
    """
    k = len(alpha)
    vec = np.concatenate([np.asarray(alpha, dtype=float), np.asarray(theta, dtype=float)])

    def loss(v):
        return lista_loss_dense(y2d, x2d, a, v[:k], v[k:])

    cur = loss(vec)
    grad = np.zeros_like(vec)
    for i in range(vec.size):
        step = np.zeros_like(vec)
        step[i] = h = 1e-6 * max(abs(vec[i]), 1e-2)
        if vec[i] - h < 0.0:
            grad[i] = (4.0 * loss(vec + step) - loss(vec + 2.0 * step) - 3.0 * cur) / (2.0 * h)
        else:
            grad[i] = (loss(vec + step) - loss(vec - step)) / (2.0 * h)
    return grad
