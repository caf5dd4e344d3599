"""Solver correctness: proximal operator, fiber/slice/tensor solvers,
TV enhancement, unrolled learned solver, and configuration resolution."""

import math
from dataclasses import replace

import numpy as np
import pytest

from tomosar import solvers
from tomosar.errors import ConfigurationError, DivergenceError
from tomosar.sensing import (
    SystemGeometry,
    adjoint,
    build_steering_matrix,
    default_geometry,
    forward,
    spectral_norm_sq,
)
from tomosar.solvers import (
    SLAB_MIN_VOXELS,
    LearnedIstaParams,
    SolverConfig,
    _column_rel_change,
    _ista_matrix,
    _iterate,
    _lista_gradient,
    _objective,
    _residual,
    _sweep_buffers,
    _unrolled_infer,
    ista_fiber,
    light_reconstruct_enhance,
    lista_infer,
    lista_train,
    objective_eval,
    reconstruct_tensor,
    resolve_config,
    soft_threshold,
    split_bregman_l1tv,
    tv_denoise_enhance,
)
from tomosar.tensor import tv_norm

import reference


def small_geometry(n_e=6, n_z=8):
    """Compact well-conditioned geometry for fast solver tests."""
    g = default_geometry()
    db = g.aperture_m / (n_e - 1)
    baselines = np.linspace(-g.aperture_m / 2, g.aperture_m / 2, n_e)
    ds = g.wavelength_m * g.reference_slant_range_m / (2.0 * n_z * db)
    elev = (np.arange(n_z) - n_z // 2) * ds
    return SystemGeometry(
        wavelength_m=g.wavelength_m,
        baselines_m=baselines,
        reference_slant_range_m=g.reference_slant_range_m,
        reference_incidence_deg=g.reference_incidence_deg,
        elevation_grid_m=elev,
    )


def spike_echo(a, k, amp=1.0):
    x = np.zeros(a.shape[1], dtype=np.complex128)
    x[k] = amp
    return a @ x, x


class TestSoftThreshold:
    def test_real_examples(self):
        assert soft_threshold(0.5, 0.2) == pytest.approx(0.3)
        assert soft_threshold(-0.5, 0.2) == pytest.approx(-0.3)
        assert soft_threshold(-0.1, 0.2) == 0.0
        assert soft_threshold(0.0, 0.2) == 0.0

    def test_complex_example(self):
        out = soft_threshold(3.0 + 4.0j, 2.5)
        assert out == pytest.approx(1.5 + 2.0j)

    def test_zero_threshold_identity(self):
        z = np.array([1.0 + 2.0j, -0.5, 0.0])
        assert np.array_equal(soft_threshold(z, 0.0), z)

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            soft_threshold(1.0, -0.1)

    @pytest.mark.parametrize("theta", [math.nan, np.array([0.1, math.nan])])
    def test_nan_threshold_rejected(self, theta):
        with pytest.raises(ValueError, match="threshold must be nonnegative"):
            soft_threshold(np.ones((3, 2), dtype=complex), theta)

    def test_matches_grid_minimizer(self):
        # prox of theta*|.| at z: argmin_t over t >= 0 of
        # 0.5*(t - |z|)^2 + theta*t, direction preserved
        r = np.random.default_rng(0)
        grid = np.arange(0.0, 8.0, 1e-4)
        for _ in range(50):
            z = r.standard_normal() + 1j * r.standard_normal()
            theta = r.uniform(0.0, 2.0)
            best_t = grid[np.argmin(0.5 * (grid - abs(z)) ** 2 + theta * grid)]
            out = soft_threshold(z, theta)
            assert abs(out) == pytest.approx(best_t, abs=1e-3)
            if abs(out) > 0:
                assert np.angle(out) == pytest.approx(np.angle(z), abs=1e-12)

    def test_broadcast_threshold(self):
        z = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
        th = np.array([0.5, 3.0])
        out = soft_threshold(z, th)
        assert out == pytest.approx(np.array([[0.5, 0.0], [2.5, 1.0]]))


def _soft_threshold_allocating(z, theta):
    """soft_threshold as it was written before it took ``out=``."""
    arr = np.asarray(z)
    mag = np.abs(arr)
    shrunk = np.maximum(mag - np.asarray(theta), 0.0)
    safe = np.where(mag > 0, mag, 1.0)
    out = arr * (shrunk / safe)
    return out[()] if np.ndim(z) == 0 else out


def signed_zero_matrix(shape, seed):
    """A random complex matrix in which about half the parts are +0 or -0."""
    r = np.random.default_rng(seed)
    re = r.standard_normal(shape) * (r.random(shape) < 0.5)
    im = r.standard_normal(shape) * (r.random(shape) < 0.5)
    re = np.where(re == 0, np.copysign(0.0, r.random(shape) - 0.5), re)
    im = np.where(im == 0, np.copysign(0.0, r.random(shape) - 0.5), im)
    return re + 1j * im


class TestSoftThresholdBitwise:
    """The buffered shrink reproduces the allocating one byte for byte."""

    @pytest.mark.parametrize(
        "theta", [0.0, 0.7, np.array([0.0, 0.3, 1.2, 0.0, 5.0])], ids=["zero", "scalar", "per-column"]
    )
    def test_matches_allocating_kernel(self, theta):
        z = signed_zero_matrix((6, 5), seed=3)
        expect = _soft_threshold_allocating(z, theta).tobytes()
        assert soft_threshold(z, theta).tobytes() == expect
        out = np.full_like(z, np.nan)
        assert soft_threshold(z, theta, out=out) is out
        assert out.tobytes() == expect
        inplace = z.copy()
        assert soft_threshold(inplace, theta, out=inplace) is inplace
        assert inplace.tobytes() == expect

    PARTS = [0.0, -0.0, 1.5, -2.0, 5e-324, -5e-324, 2.2e-308, 1e-310, np.inf, -np.inf, np.nan, -np.nan]

    @pytest.mark.parametrize(
        "theta",
        [0.0, 0.7, 5e-324, np.inf, np.array([0.0, 0.3, 0.0, 5e-324, 0.0, 2.0, 0.0, 1e-310, 0.0, 1.0, 0.0, np.inf])],
        ids=["zero", "scalar", "subnormal", "inf", "per-column"],
    )
    def test_matches_allocating_kernel_on_special_values(self, theta):
        # every pair of parts: entry (i, j) is PARTS[j] + 1j * PARTS[i].  An
        # input without a NaN part gives the same bytes, infinities included;
        # one with a NaN part gives NaN parts, whose sign bits may differ
        parts = np.array(self.PARTS)
        z = np.empty((parts.size, parts.size), dtype=complex)
        z.real, z.imag = parts[None, :], parts[:, None]
        has_nan = np.isnan(z.real) | np.isnan(z.imag)
        with np.errstate(all="ignore"):
            expect = _soft_threshold_allocating(z, theta)
            for got in (soft_threshold(z, theta), soft_threshold(z, theta, work=np.full(2 * z.size, np.nan))):
                assert got[~has_nan].tobytes() == expect[~has_nan].tobytes()
                assert np.isnan(got[has_nan].view(float)).all()
                assert np.isnan(expect[has_nan].view(float)).all()

    def test_work_buffer_matches_allocating_kernel(self):
        z = signed_zero_matrix((6, 5), seed=4)
        theta = np.array([0.0, 0.3, 1.2, 0.0, 5.0])
        expect = _soft_threshold_allocating(z, theta).tobytes()
        work = np.full(2 * z.size + 3, np.nan)
        assert soft_threshold(z[:, ::-1], theta[::-1], work=work)[:, ::-1].tobytes() == expect
        assert soft_threshold(z, theta, out=z, work=work) is z
        assert z.tobytes() == expect

    @pytest.mark.parametrize("z", [0.0, -0.0, complex(-0.0, 0.0), -1.5, 2.0 - 3.0j])
    def test_scalar_matches_allocating_kernel(self, z):
        got = soft_threshold(z, 0.5)
        assert np.ndim(got) == 0 and not isinstance(got, np.ndarray)
        assert np.asarray(got).tobytes() == np.asarray(_soft_threshold_allocating(z, 0.5)).tobytes()


class _CountingMatrix(np.ndarray):
    """A matrix that counts the matrix products it takes part in.

    ``counter`` is a one-element list shared by the views and the
    conjugate derived from the matrix, so products with A^H count too.
    """

    def __array_finalize__(self, obj):
        self.counter = getattr(obj, "counter", None)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        plain = [i.view(np.ndarray) if isinstance(i, _CountingMatrix) else i for i in inputs]
        result = getattr(ufunc, method)(*plain, **kwargs)
        if ufunc is np.matmul:
            self.counter[0] += 1
            return result
        result = result.view(_CountingMatrix)
        result.counter = self.counter
        return result


class TestIstaMatrixKernels:
    ITERS = 30

    def problem(self):
        a = build_steering_matrix(small_geometry())
        r = np.random.default_rng(31)
        x_true = np.zeros((a.shape[1], 4), dtype=np.complex128)
        x_true[[1, 5], [0, 2]] = [1.0, 0.7j]
        y2d = a @ x_true + 0.2 * (r.standard_normal((a.shape[0], 4)) + 1j * r.standard_normal((a.shape[0], 4)))
        # sigma far below any relative change: every run makes ITERS steps;
        # resolved as an (n_e, 4, 1) slice, one problem with one lambda1
        rcfg = resolve_config(SolverConfig(sigma=1e-300, max_outer=self.ITERS), a, y2d[:, :, None])
        return a, y2d, rcfg

    @pytest.mark.parametrize("variant, per_iter, saved", [("ista", 2, 0), ("fista", 3, 1)])
    def test_matmul_count(self, variant, per_iter, saved):
        # ista steps from the iterate whose residual the objective has just
        # computed; fista steps from the momentum point, which the objective
        # sees only at the start.  The leading 1 is the start objective.
        a, y2d, rcfg = self.problem()
        counting = a.view(_CountingMatrix)
        counting.counter = [0]
        _, report = _ista_matrix(y2d, counting, rcfg, variant)
        assert report.iterations == self.ITERS
        assert counting.counter[0] == 1 + per_iter * self.ITERS - saved

    @pytest.mark.parametrize("variant", ["ista", "fista"])
    @pytest.mark.parametrize("per_column", [False, True], ids=["scalar", "per-column"])
    def test_matches_allocating_iteration(self, variant, per_column):
        a, y2d, rcfg = self.problem()
        alpha = rcfg.alpha
        if per_column:
            # a fiber-batch config: one lambda1 per column, each column its own problem
            lam = np.array([0.5, 0.1, 0.3, 0.0])
            rcfg = replace(rcfg, lambda1=lam, lambda2=0.01 * lam)
            theta = alpha * lam.reshape(1, -1)
        else:
            theta = alpha * rcfg.lambda1
        x, report = _ista_matrix(y2d, a, rcfg, variant)
        assert report.iterations == self.ITERS
        assert x.tobytes() == _allocating_iteration(y2d, a, alpha, theta, variant, self.ITERS).tobytes()


def _allocating_iteration(y2d, a, alpha, theta, variant, iters, seen=None):
    """``iters`` ista or fista steps from zero, each array a new one; a list
    ``seen`` receives every iterate."""
    ah = a.conj().T
    x = np.zeros((a.shape[1], y2d.shape[1]), dtype=np.complex128)
    z, t_k = x, 1.0
    for _ in range(iters):
        start = x if variant == "ista" else z
        x_new = _soft_threshold_allocating(start + alpha * (ah @ (y2d - a @ start)), theta)
        t_next = (1.0 + math.sqrt(1.0 + 4.0 * t_k * t_k)) / 2.0
        z = x_new + ((t_k - 1.0) / t_next) * (x_new - x)
        x, t_k = x_new, t_next
        if seen is not None:
            seen.append(x)
    return x


class TestIstaBlocks:
    """A single ista or fista problem of at least SLAB_MIN_VOXELS entries
    iterates on one block per worker, and no output byte depends on the
    worker count."""

    ITERS = 5

    @pytest.mark.parametrize("variant", ["ista", "fista"])
    @pytest.mark.parametrize("dims", [(64, 32, 32), (64, 33, 31)], ids=["64x32x32", "64x33x31"])
    def test_bytes_independent_of_thread_count(self, dims, variant, monkeypatch):
        assert math.prod(dims) >= SLAB_MIN_VOXELS
        a = build_steering_matrix(default_geometry())
        r = np.random.default_rng(23)
        x = np.zeros(dims, dtype=complex)
        at = tuple(r.integers(0, n, size=150) for n in dims)
        x[at] = r.standard_normal(150) + 1j * r.standard_normal(150)
        y = forward(a, x)
        y += 0.1 * (r.standard_normal(y.shape) + 1j * r.standard_normal(y.shape))
        rcfg = resolve_config(SolverConfig(sigma=1e-300, max_outer=self.ITERS), a, y)
        y2d = y.reshape(a.shape[0], -1)
        fanned = []
        real_run_indexed = solvers.run_indexed

        def spy(fn, items, workers=None):
            items = list(items)
            fanned.append(len(items))
            return real_run_indexed(fn, items, workers)

        monkeypatch.setattr(solvers, "run_indexed", spy)
        runs = []
        for threads in (1, 2, 3):
            monkeypatch.setenv("TOMOSAR_THREADS", str(threads))
            fanned.clear()
            xs, report = _ista_matrix(y2d, a, rcfg, variant)
            assert report.iterations == self.ITERS
            # two fan-outs per iteration, three for fista after its first step
            phases = 2 * self.ITERS + (self.ITERS - 1 if variant == "fista" else 0)
            assert fanned == ([] if threads == 1 else [threads] * phases)
            runs.append((xs.tobytes(), report.to_dict()))
        assert runs[1] == runs[0]
        assert runs[2] == runs[0]
        seen = []
        ref = _allocating_iteration(y2d, a, rcfg.alpha, rcfg.alpha * rcfg.lambda1, variant, self.ITERS, seen)
        assert runs[0][0] == ref.tobytes()
        # the traces of the unblocked relative change and objective
        before = [np.zeros_like(ref)] + seen[:-1]
        assert runs[0][1]["rel_change_trace"] == [
            float(_column_rel_change(t.reshape(-1, 1), t0.reshape(-1, 1))[0]) for t, t0 in zip(seen, before)
        ]
        assert runs[0][1]["objective_trace"] == [
            float(_objective(t, _residual(t, y2d, a), rcfg.lambda1)[0]) for t in seen
        ]


class TestResidualReuse:
    """Each iterate's residual Y - A X is formed once, by _iterate, for its
    objective, and the step reuses it: one more product per iteration, A^H
    on that residual.  The leading 1 is the start objective."""

    def counting_problem(self, seed):
        a = build_steering_matrix(small_geometry())
        r = np.random.default_rng(seed)
        y = r.standard_normal((a.shape[0], 2, 3)) + 1j * r.standard_normal((a.shape[0], 2, 3))
        counting = a.view(_CountingMatrix)
        counting.counter = [0]
        return a, y, counting

    def test_sb_tv_makes_two_products_per_iteration(self):
        a, y, counting = self.counting_problem(41)
        # every knob that resolve_config would derive from a product is given
        cfg = SolverConfig(alpha=1.0 / spectral_norm_sq(a), lambda1=0.05, lambda2=0.01, sigma=1e-300, max_outer=6)
        _, report = split_bregman_l1tv(y, counting, cfg)
        assert report.iterations == 6
        assert counting.counter[0] == 1 + 2 * 6

    def test_lista_makes_two_products_per_block(self):
        a, y, counting = self.counting_problem(42)
        params = LearnedIstaParams.equivalence(5, 0.9 / spectral_norm_sq(a), 0.1)
        x, report = reconstruct_tensor(y, counting, "lista", lista_params=params)
        assert report.iterations == 5
        assert counting.counter[0] == 1 + 2 * 5
        assert x.tobytes() == _unrolled_infer(y.reshape(a.shape[0], -1), a, params).tobytes()


class TestIstaFiber:
    def test_zero_echo_gives_zero(self):
        a = build_steering_matrix(small_geometry())
        x, report = ista_fiber(np.zeros(a.shape[0]), a)
        assert np.all(x == 0)
        assert report.converged

    def test_large_lambda_gives_zero(self):
        a = build_steering_matrix(small_geometry())
        y, _ = spike_echo(a, 3)
        lam = float(np.max(np.abs(a.conj().T @ y))) * 1.01
        x, report = ista_fiber(y, a, cfg=SolverConfig(lambda1=lam))
        assert np.all(x == 0)
        assert report.converged

    def test_noiseless_spike_recovered(self):
        a = build_steering_matrix(small_geometry())
        for k in (0, 3, 7):
            y, _ = spike_echo(a, k)
            x, _ = ista_fiber(y, a)
            assert int(np.argmax(np.abs(x))) == k

    def test_lambda_zero_objective_monotone(self):
        a = build_steering_matrix(small_geometry())
        r = np.random.default_rng(1)
        y = r.standard_normal(a.shape[0]) + 1j * r.standard_normal(a.shape[0])
        _, report = ista_fiber(y, a, cfg=SolverConfig(lambda1=0.0, max_outer=50))
        obj = report.objective_trace
        assert all(obj[i + 1] <= obj[i] + 1e-12 for i in range(len(obj) - 1))

    def test_matches_dense_reference(self):
        a = build_steering_matrix(small_geometry())
        r = np.random.default_rng(2)
        y = r.standard_normal(a.shape[0]) + 1j * r.standard_normal(a.shape[0])
        alpha = 0.9 / spectral_norm_sq(a)
        lam = 0.3
        cfg = SolverConfig(alpha=alpha, lambda1=lam, sigma=1e-15, max_outer=25)
        x, report = ista_fiber(y, a, cfg=cfg)
        assert report.iterations == 25
        x_ref = reference.ista_dense(y, a, alpha, lam, 25)
        assert np.max(np.abs(x - x_ref)) < 1e-10

    def test_report_invariants(self):
        a = build_steering_matrix(small_geometry())
        y, _ = spike_echo(a, 2)
        _, report = ista_fiber(y, a)
        assert report.iterations == len(report.objective_trace)
        assert report.iterations == len(report.rel_change_trace)
        assert report.wall_time_s >= 0.0

    def test_shape_mismatch_rejected(self):
        a = build_steering_matrix(small_geometry())
        with pytest.raises(ValueError):
            ista_fiber(np.zeros(a.shape[0] + 1), a)

    def test_unknown_variant_rejected(self):
        a = build_steering_matrix(small_geometry())
        with pytest.raises(ConfigurationError):
            ista_fiber(np.zeros(a.shape[0]), a, variant="momentum")


class TestFista:
    def test_reaches_ista_objective(self):
        # both solve the same convex problem; at tight tolerance the final
        # objectives agree
        a = build_steering_matrix(small_geometry())
        r = np.random.default_rng(3)
        y = r.standard_normal(a.shape[0]) + 1j * r.standard_normal(a.shape[0])
        cfg = SolverConfig(lambda1=0.2, sigma=1e-14, max_outer=5000)
        xi, ri = ista_fiber(y, a, cfg=cfg, variant="ista")
        xf, rf = ista_fiber(y, a, cfg=cfg, variant="fista")
        assert ri.converged and rf.converged
        oi = ri.objective_trace[-1]
        of = rf.objective_trace[-1]
        assert abs(oi - of) <= 1e-6 * max(1.0, abs(oi))

    def test_faster_than_ista(self):
        a = build_steering_matrix(default_geometry())
        y, _ = spike_echo(a, 30)
        cfg = SolverConfig(sigma=1e-10, max_outer=5000)
        _, ri = ista_fiber(y, a, cfg=cfg, variant="ista")
        _, rf = ista_fiber(y, a, cfg=cfg, variant="fista")
        assert rf.iterations < ri.iterations


class TestIstaSlice:
    """Slice-wise ISTA: a batch of fibers with one threshold derived from the
    whole echo, run through reconstruct_tensor on an (n_e, m, 1) tensor."""

    def test_single_column_equals_fiber(self):
        a = build_steering_matrix(small_geometry())
        r = np.random.default_rng(4)
        y = r.standard_normal(a.shape[0]) + 1j * r.standard_normal(a.shape[0])
        x_f, _ = ista_fiber(y, a)
        x_s, _ = reconstruct_tensor(y.reshape(-1, 1, 1), a, "ista")
        assert np.array_equal(x_s[:, 0, 0], x_f)

    def test_zero_slice(self):
        a = build_steering_matrix(small_geometry())
        x, report = reconstruct_tensor(np.zeros((a.shape[0], 5, 1)), a, "ista")
        assert np.all(x == 0)
        assert report.converged

    def test_noiseless_support_recovery(self):
        g = default_geometry()
        a = build_steering_matrix(g)
        truth = np.zeros((64, 8, 1), dtype=np.complex128)
        for j, k in enumerate((5, 14, 30, 47)):
            truth[k, 2 * j, 0] = 1.0
        y = forward(a, truth)
        x, _ = reconstruct_tensor(y, a, "ista", cfg=SolverConfig(sigma=1e-8, max_outer=400))
        for j, k in enumerate((5, 14, 30, 47)):
            assert int(np.argmax(np.abs(x[:, 2 * j, 0]))) == k
        # empty columns stay empty
        assert np.all(np.abs(x[:, 1, 0]) == 0)

    def test_dim_validation(self):
        a = build_steering_matrix(small_geometry())
        # a 2-D echo is a batch of fibers; an empty one and other orders are rejected
        for y in (np.zeros((a.shape[0], 0)), np.zeros(a.shape[0]), np.zeros((a.shape[0], 3, 1, 1))):
            with pytest.raises(ValueError, match="expected a nonempty"):
                reconstruct_tensor(y, a, "ista")
        with pytest.raises(ValueError, match="does not match matrix rows"):
            reconstruct_tensor(np.zeros((a.shape[0] + 2, 3, 1)), a, "ista")


class TestObjectiveEval:
    def test_zero_tensor(self):
        a = build_steering_matrix(small_geometry())
        r = np.random.default_rng(5)
        y = r.standard_normal((a.shape[0], 3, 2)) + 1j * r.standard_normal((a.shape[0], 3, 2))
        expect = 0.5 * float(np.sum(np.abs(y) ** 2))
        got = objective_eval(np.zeros((a.shape[1], 3, 2), dtype=complex), y, a, 0.7, 0.3)
        assert got == pytest.approx(expect, rel=1e-12)

    def test_exact_solution_zero_objective(self):
        a = build_steering_matrix(small_geometry())
        r = np.random.default_rng(6)
        x = r.standard_normal((a.shape[1], 2, 2)) + 1j * r.standard_normal((a.shape[1], 2, 2))
        y = forward(a, x)
        assert objective_eval(x, y, a, 0.0, 0.0) == pytest.approx(0.0, abs=1e-18)

    def test_matches_dense(self):
        a = build_steering_matrix(small_geometry())
        dims = (a.shape[1], 3, 2)
        r = np.random.default_rng(7)
        x = r.standard_normal(dims) + 1j * r.standard_normal(dims)
        y = r.standard_normal((a.shape[0], 3, 2)) + 1j * r.standard_normal((a.shape[0], 3, 2))
        got = objective_eval(x, y, a, 0.4, 0.9)
        expect = reference.objective_dense(x, y, a, dims, 0.4, 0.9)
        assert got == pytest.approx(expect, rel=1e-12)


class TestObjective:
    """The one per-problem objective behind every solver."""

    def test_batch_of_one_is_objective_eval(self):
        a = build_steering_matrix(small_geometry())
        r = np.random.default_rng(8)
        x = r.standard_normal((a.shape[1], 3, 2)) + 1j * r.standard_normal((a.shape[1], 3, 2))
        y = r.standard_normal((a.shape[0], 3, 2)) + 1j * r.standard_normal((a.shape[0], 3, 2))
        got = _objective(x, _residual(x.reshape(a.shape[1], -1), y.reshape(a.shape[0], -1), a), 0.4, 0.9)
        assert got.shape == (1,)
        assert got[0] == objective_eval(x, y, a, 0.4, 0.9)

    def test_fiber_batch_gives_each_fiber_its_solo_objective(self):
        a = build_steering_matrix(small_geometry())
        r = np.random.default_rng(9)
        x = r.standard_normal((a.shape[1], 5)) + 1j * r.standard_normal((a.shape[1], 5))
        y = r.standard_normal((a.shape[0], 5)) + 1j * r.standard_normal((a.shape[0], 5))
        lam1, lam2 = np.linspace(0.0, 0.4, 5), np.linspace(0.3, 0.0, 5)
        got = _objective(x, _residual(x, y, a), lam1, lam2)
        for j in range(5):
            solo = objective_eval(x[:, j, None, None], y[:, j, None, None], a, lam1[j], lam2[j])
            assert got[j] == pytest.approx(solo, rel=1e-14)

    def test_volume_is_a_batch_of_one(self):
        # a scalar lambda1 poses one problem: one stop, one count, and the
        # iterate the last step returned; with a = I and y = 0 the objective
        # 1/2 ||X||^2 falls as the iterate halves
        x0 = np.ones((4, 3, 2), dtype=complex)
        halve = lambda x, resid: 0.5 * x
        x, report = _iterate(halve, x0, np.zeros((4, 6)), np.eye(4), 0.0, 0.0, 0.3, 10, "test")
        assert report.column_iterations == [report.iterations] == [10]
        assert not report.converged
        assert np.array_equal(x, x0 * 0.5 ** 10)

    def test_stopped_columns_keep_their_value(self):
        # column j moves toward 1 at rate rates[j]; each stops on its own.
        # One lambda1 per column poses three problems; with a = I and y = 1
        # each objective 1/2 ||1 - x_j||^2 falls as its column moves
        rates = np.array([0.0, 0.5, 0.8])
        step = lambda x, resid: 1.0 + rates * (x - 1.0)
        x, report = _iterate(step, np.zeros((4, 3), dtype=complex), np.ones((4, 3)), np.eye(4),
                             np.zeros(3), np.zeros(3), 1e-6, 200, "test")
        its = report.column_iterations
        assert its[0] == 2 and its[0] < its[1] < its[2] == report.iterations
        assert report.converged
        for j, n in enumerate(its):
            ref = np.zeros(4, dtype=complex)
            for _ in range(n):
                ref = 1.0 + rates[j] * (ref - 1.0)
            assert np.array_equal(x[:, j], ref)


class TestSplitBregman:
    def test_zero_echo(self):
        a = build_steering_matrix(small_geometry())
        y = np.zeros((a.shape[0], 3, 3), dtype=complex)
        x, report = split_bregman_l1tv(y, a)
        assert np.all(x == 0)
        assert report.converged
        assert report.iterations == 1

    def test_noiseless_spike_support(self):
        g = default_geometry()
        a = build_steering_matrix(g)
        truth = np.zeros((64, 4, 4), dtype=np.complex128)
        spikes = {(0, 0): 10, (1, 2): 25, (3, 3): 50}
        for (jx, jy), k in spikes.items():
            truth[k, jx, jy] = 1.0
        y = forward(a, truth)
        x, _ = split_bregman_l1tv(y, a)
        for (jx, jy), k in spikes.items():
            assert int(np.argmax(np.abs(x[:, jx, jy]))) == k

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_dense_reference(self, seed):
        g = small_geometry(n_e=6, n_z=8)
        a = build_steering_matrix(g)
        dims = (8, 4, 4)
        r = np.random.default_rng(seed + 10)
        y = r.standard_normal((6, 4, 4)) + 1j * r.standard_normal((6, 4, 4))
        alpha = 1.8 / spectral_norm_sq(a)
        params = dict(alpha=alpha, lam1=0.2, lam2=0.05, mu=1.0,
                      tau1=1.0 / (1.0 / alpha + 8.0), tau2=1.0)
        for n_outer in (1, 3, 10):
            cfg = SolverConfig(
                alpha=params["alpha"], lambda1=params["lam1"], lambda2=params["lam2"],
                mu=params["mu"], tau1=params["tau1"], tau2=params["tau2"],
                sigma=1e-15, max_outer=n_outer,
            )
            x, report = split_bregman_l1tv(y, a, cfg)
            assert report.iterations == n_outer
            x_ref = reference.split_bregman_dense(
                y, a, dims, params["alpha"], params["lam1"], params["lam2"],
                params["mu"], params["tau1"], params["tau2"], n_outer,
            )
            assert np.max(np.abs(x - x_ref)) < 1e-8

    def test_matches_dense_reference_off_the_exact_shrink(self):
        # tau2 * mu != 1 keeps inner_iters shrinkage steps on the TV split
        # variable; the default tau2 = 1 / mu takes its exact minimiser
        g = small_geometry(n_e=6, n_z=8)
        a = build_steering_matrix(g)
        dims = (8, 4, 4)
        r = np.random.default_rng(13)
        y = r.standard_normal((6, 4, 4)) + 1j * r.standard_normal((6, 4, 4))
        alpha = 1.8 / spectral_norm_sq(a)
        mu = 1.0
        params = dict(alpha=alpha, lam1=0.2, lam2=0.05, mu=mu, tau1=1.0 / (1.0 / alpha + 8.0 * mu), tau2=0.5 / mu)
        for n_outer in (1, 3, 10):
            cfg = SolverConfig(
                alpha=params["alpha"], lambda1=params["lam1"], lambda2=params["lam2"],
                mu=params["mu"], tau1=params["tau1"], tau2=params["tau2"],
                sigma=1e-15, max_outer=n_outer,
            )
            x, report = split_bregman_l1tv(y, a, cfg)
            assert report.iterations == n_outer
            x_ref = reference.split_bregman_dense(y, a, dims, *params.values(), n_outer)
            assert np.max(np.abs(x - x_ref)) < 1e-8

    def test_default_tau2_takes_the_exact_shrink_off_tau2_mu_one(self, monkeypatch):
        # (1 / 49) * 49 rounds to 1 - 2^-53, but the default tau2 = 1 / mu
        # still means the exact minimiser of the TV split variable
        a = build_steering_matrix(small_geometry(n_e=6, n_z=8))
        r = np.random.default_rng(17)
        y = r.standard_normal((6, 4, 4)) + 1j * r.standard_normal((6, 4, 4))
        cfg = SolverConfig(mu=49.0, sigma=1e-300, max_outer=2)
        rcfg = resolve_config(cfg, a, y, alpha_factor=1.8)
        assert rcfg.tau2 == 1.0 / 49.0 and rcfg.tau2 * rcfg.mu != 1.0
        shrinks = []
        real_soft_threshold = solvers.soft_threshold

        def counted(*args, **kwargs):
            shrinks.append(1)
            return real_soft_threshold(*args, **kwargs)

        monkeypatch.setattr(solvers, "soft_threshold", counted)
        _, report = split_bregman_l1tv(y, a, cfg)
        assert report.iterations == 2
        # per iteration and axis: inner_iters = 3 shrinks of u, one of the
        # split variable (the loop would take 3)
        assert len(shrinks) == 2 * 3 * (3 + 1)

    def test_divergence_raises_with_trace(self):
        g = small_geometry()
        a = build_steering_matrix(g)
        r = np.random.default_rng(11)
        y = r.standard_normal((a.shape[0], 2, 2)) + 1j * r.standard_normal((a.shape[0], 2, 2))
        # a step far beyond the stability bound blows the iteration up
        cfg = SolverConfig(alpha=50.0 / spectral_norm_sq(a), lambda1=0.0, lambda2=0.0)
        with pytest.raises(DivergenceError) as err:
            split_bregman_l1tv(y, a, cfg)
        assert len(err.value.objective_trace) >= 1

    def test_feasibility_gap_shrinks(self):
        g = default_geometry()
        a = build_steering_matrix(g)
        truth = np.zeros((64, 4, 4), dtype=np.complex128)
        truth[20, 1, 1] = 1.0
        truth[21, 1, 1] = 1.0
        y = forward(a, truth)
        _, report = split_bregman_l1tv(y, a)
        gap = report.feasibility_gap_trace
        assert gap is not None and len(gap) == report.iterations
        assert gap[-1] < gap[0]

    def test_echo_must_be_3d(self):
        # or 2-D, a batch of fibers; an empty batch and other orders are rejected
        a = build_steering_matrix(small_geometry())
        for y in (np.zeros((a.shape[0], 0)), np.zeros(a.shape[0]), np.zeros((a.shape[0], 2, 2, 1))):
            with pytest.raises(ValueError, match="expected a nonempty"):
                split_bregman_l1tv(y, a)
        with pytest.raises(ValueError):
            split_bregman_l1tv(np.zeros((a.shape[0] + 1, 2, 2)), a)


class TestSlabSweep:
    """Above SLAB_MIN_VOXELS a split-Bregman sweep runs one slab per worker,
    and no output byte depends on the worker count."""

    @pytest.mark.parametrize("dims", [(64, 32, 32), (64, 33, 31)], ids=["64x32x32", "64x33x31"])
    def test_bytes_independent_of_thread_count(self, dims, monkeypatch):
        assert math.prod(dims) >= SLAB_MIN_VOXELS
        a = build_steering_matrix(default_geometry())
        r = np.random.default_rng(21)
        x = np.zeros(dims, dtype=complex)
        at = tuple(r.integers(0, n, size=150) for n in dims)
        x[at] = r.standard_normal(150) + 1j * r.standard_normal(150)
        y = forward(a, x)
        y += 0.1 * (r.standard_normal(y.shape) + 1j * r.standard_normal(y.shape))
        runs = []
        for threads in (1, 2, 3):
            monkeypatch.setenv("TOMOSAR_THREADS", str(threads))
            assert len(_sweep_buffers(dims)[2]) == threads
            xs, report = split_bregman_l1tv(y, a, SolverConfig(max_outer=4))
            assert report.iterations == 4
            xd = tv_denoise_enhance(xs, 0.05)
            runs.append((xs.tobytes(), report.to_dict(), xd.tobytes()))
        assert runs[1] == runs[0]
        assert runs[2] == runs[0]

    def test_slab_counts_and_buffer_sizes(self, monkeypatch):
        monkeypatch.setenv("TOMOSAR_THREADS", "2")
        dims = (64, 32, 32)
        anchor, scratch, slabs = _sweep_buffers(dims)
        assert anchor.shape == scratch.shape == dims
        # two slabs: axis 0's update cut along axis 1, axes 1 and 2 along axis 0
        assert [[w[1].shape for w in slab] for slab in slabs] == [[(64, 16, 32), (32, 32, 32), (32, 32, 32)]] * 2
        # the four work buffers of all slabs hold one volume each
        assert sum(max(w[1].size for w in slab) for slab in slabs) == math.prod(dims)
        assert len(_sweep_buffers((64, 32, 16))[2]) == 1  # below SLAB_MIN_VOXELS
        assert len(_sweep_buffers((64, 4096, 1), batch_axis=1)[2]) == 1  # a fiber batch
        monkeypatch.setenv("TOMOSAR_THREADS", "1")
        assert len(_sweep_buffers(dims)[2]) == 1


class TestTvDenoise:
    def phantom(self):
        # piecewise-constant along elevation, flat along the other axes
        steps = np.zeros(24)
        steps[6:14] = 2.0
        steps[14:] = 0.5
        return np.tile(steps[:, None, None], (1, 5, 4)).astype(complex), steps

    def test_lambda_zero_identity(self):
        x = np.random.default_rng(12).standard_normal((4, 3, 3)) + 0j
        out = tv_denoise_enhance(x, 0.0)
        assert np.array_equal(out, x)
        assert out is not x  # a copy, not the same buffer

    def test_constant_input_unchanged(self):
        x = np.full((4, 4, 4), 2.5 + 1.0j)
        out = tv_denoise_enhance(x, 0.7)
        assert np.array_equal(out, x)

    def test_reduces_tv_and_objective(self):
        x, _ = self.phantom()
        noisy = x + 0.25 * np.random.default_rng(13).standard_normal(x.shape)
        lam = 0.3
        out = tv_denoise_enhance(noisy, lam)
        f_in = 0.0 + lam * tv_norm(noisy)
        f_out = 0.5 * float(np.sum(np.abs(out - noisy) ** 2)) + lam * tv_norm(out)
        assert tv_norm(out) < tv_norm(noisy)
        assert f_out < f_in

    def test_close_to_exact_prox_on_separable_input(self):
        x, steps = self.phantom()
        rng = np.random.default_rng(14)
        noise1d = 0.25 * rng.standard_normal(len(steps))
        noisy1d = steps + noise1d
        noisy = np.tile(noisy1d[:, None, None], (1, 5, 4)).astype(complex)
        lam = 0.3
        out = tv_denoise_enhance(noisy, lam)
        # on a fiber-replicated input the exact minimizer is the replicated
        # 1D prox; the shallow per-axis consensus stage lands near it but
        # dilutes the single active axis by the three-way average
        exact1d = reference.tv1d_prox_exact(noisy1d, lam)
        exact = np.tile(exact1d[:, None, None], (1, 5, 4))
        rel = np.linalg.norm(out - exact) / np.linalg.norm(exact)
        assert rel <= 0.2
        def f(u):
            return 0.5 * float(np.sum(np.abs(u - noisy) ** 2)) + lam * tv_norm(u)
        ideal_drop = f(noisy) - f(exact)
        assert ideal_drop > 0
        assert f(noisy) - f(out) >= 0.4 * ideal_drop

    def test_negative_lambda_rejected(self):
        with pytest.raises(ConfigurationError):
            tv_denoise_enhance(np.ones((2, 2, 2), dtype=complex), -0.1)

    @pytest.mark.parametrize("knob, value, message", [
        ("lambda2", math.nan, "lambda2 must be finite and >= 0, got nan"),
        ("lambda2", math.inf, "lambda2 must be finite and >= 0, got inf"),
        ("mu", math.nan, "mu must be finite and positive, got nan"),
        ("mu", 0.0, "mu must be finite and positive, got 0.0"),
        ("inner_iters", 0, "inner_iters must be >= 1, got 0"),
        ("inner_iters", 1.5, "inner_iters must be a whole number, got 1.5"),
    ])
    @pytest.mark.parametrize("shape", [(4, 3, 3), (4, 3)], ids=["volume", "batch"])
    def test_knob_rejected_by_name_before_the_early_return(self, knob, value, message, shape):
        # a constant input, or lambda2 = 0, would be returned unchanged
        with pytest.raises(ConfigurationError, match=f"^{message}$"):
            tv_denoise_enhance(np.ones(shape, dtype=complex), **{"lambda2": 0.0, knob: value})


class TestLightReconstruct:
    def test_lambda2_zero_equals_slice_assembly(self):
        g = small_geometry()
        a = build_steering_matrix(g)
        r = np.random.default_rng(15)
        y = r.standard_normal((a.shape[0], 4, 3)) + 1j * r.standard_normal((a.shape[0], 4, 3))
        cfg = SolverConfig(lambda2=0.0)
        x_light, _ = light_reconstruct_enhance(y, a, cfg)
        from tomosar.solvers import resolve_config, _ista_matrix
        rcfg = resolve_config(cfg, a, y)
        cols = [_ista_matrix(y[:, :, k], a, rcfg)[0] for k in range(3)]
        assert np.array_equal(x_light, np.stack(cols, axis=2))

    def test_zero_echo(self):
        a = build_steering_matrix(small_geometry())
        x, report = light_reconstruct_enhance(np.zeros((a.shape[0], 3, 3), dtype=complex), a)
        assert np.all(x == 0)
        assert report.converged

    def test_enhancement_reduces_tv(self):
        from tomosar.simulate import GridSpec, make_test_object, generate_echo
        g = default_geometry()
        a = build_steering_matrix(g)
        grid = GridSpec.from_geometry(g, n_x=16, n_y=16)
        scene, _ = make_test_object("one_step", g, grid, seed=3)
        y = generate_echo(scene, a, snr_db=5.0, seed=3)
        cfg = SolverConfig(lambda2=0.0)
        x_plain, _ = light_reconstruct_enhance(y, a, cfg)
        x_enh, _ = light_reconstruct_enhance(y, a)
        assert tv_norm(x_enh) < tv_norm(x_plain)

    def test_mu_reaches_the_enhancement_stage(self):
        g = small_geometry()
        a = build_steering_matrix(g)
        r = np.random.default_rng(19)
        y = r.standard_normal((a.shape[0], 4, 3)) + 1j * r.standard_normal((a.shape[0], 4, 3))
        cfg = SolverConfig(mu=4.0)
        x, _ = light_reconstruct_enhance(y, a, cfg)
        rcfg = resolve_config(cfg, a, y)
        stage = np.stack([_ista_matrix(y[:, :, k], a, rcfg)[0] for k in range(3)], axis=2)
        assert np.array_equal(x, tv_denoise_enhance(stage, rcfg.lambda2, rcfg.inner_iters, mu=4.0))
        assert not np.array_equal(x, light_reconstruct_enhance(y, a)[0])

    @pytest.mark.parametrize("variant, max_outer", [("ista", 34), ("fista", 60)], ids=["ista", "fista"])
    def test_stacked_slices_match_their_solo_solves(self, variant, max_outer, monkeypatch):
        # 13 slices of 64x64, above the slab constant and cut unevenly by 2
        # and 3 workers; slice 4 is all zero and stops at iteration 1, and
        # the others stop at different iterations or run to max_outer, so
        # the stack, with fista's momentum point, is compacted several times
        a = build_steering_matrix(default_geometry())
        r = np.random.default_rng(41)
        n_z, m, n = a.shape[1], 64, 13
        assert n_z * m * n >= SLAB_MIN_VOXELS
        x = np.zeros((n_z, m, n), dtype=complex)
        for k in range(n):
            at = (r.integers(0, n_z, 3 + 4 * k), r.integers(0, m, 3 + 4 * k), k)
            x[at] = r.standard_normal(3 + 4 * k) + 1j * r.standard_normal(3 + 4 * k)
        y = forward(a, x)
        y += 0.05 * (r.standard_normal(y.shape) + 1j * r.standard_normal(y.shape))
        y[:, :, 4] = 0
        rcfg = resolve_config(SolverConfig(sigma=1e-4, max_outer=max_outer), a, y)
        solo = [_ista_matrix(y[:, :, k], a, rcfg, variant) for k in range(n)]
        iterations = [report.iterations for _, report in solo]
        assert iterations[4] == 1
        assert len(set(iterations)) > 3
        assert not all(report.converged for _, report in solo)
        assert max_outer in iterations
        expect = np.stack([xk for xk, _ in solo], axis=2)
        fanned = []
        real_run_indexed = solvers.run_indexed

        def spy(fn, items, workers=None):
            items = list(items)
            fanned.append(len(items))
            return real_run_indexed(fn, items, workers)

        monkeypatch.setattr(solvers, "run_indexed", spy)
        for threads in (1, 2, 3):
            monkeypatch.setenv("TOMOSAR_THREADS", str(threads))
            fanned.clear()
            xs, report = _ista_matrix(y.transpose(2, 0, 1), a, rcfg, variant)
            assert xs.tobytes() == expect.tobytes()
            assert report.column_iterations == iterations
            assert not report.converged
            assert fanned[:1] == ([] if threads == 1 else [threads])

    def test_diverging_slice_is_named_while_the_others_run(self):
        # an oversized step on lambda1 = 0: an echo along A's leading left
        # singular vector grows, one along its last decays.  Slice 3 diverges
        # at iteration 2 and slice 1 later, while slices 0, 2 and 4 run on.
        a = build_steering_matrix(default_geometry())
        u = np.linalg.svd(a)[0]
        r = np.random.default_rng(5)
        y = np.stack([np.outer(u[:, -1], r.standard_normal(3)) for _ in range(5)], axis=2)
        y[:, :, 3] = np.outer(u[:, 0], [1.0, 2.0, -1.0])
        y[:, :, 1] += 0.05 * np.outer(u[:, 0], np.ones(3))
        cfg = SolverConfig(alpha=2.5 / spectral_norm_sq(a), lambda1=0.0, sigma=1e-12, max_outer=30)
        rcfg = resolve_config(cfg, a, y)
        solo = {}
        for k in range(5):
            try:
                _ista_matrix(y[:, :, k], a, rcfg)
            except DivergenceError as exc:
                solo[k] = exc
        assert sorted(solo) == [1, 3]
        assert len(solo[1].objective_trace) > len(solo[3].objective_trace) == 3
        with pytest.raises(DivergenceError) as err:
            light_reconstruct_enhance(y, a, cfg)
        assert str(err.value) == str(solo[3]).replace("iteration 2:", "iteration 2, slice 3:")
        assert err.value.objective_trace == solo[3].objective_trace

    def test_report_has_two_stages(self):
        a = build_steering_matrix(small_geometry())
        r = np.random.default_rng(17)
        y = r.standard_normal((a.shape[0], 2, 2)) + 1j * r.standard_normal((a.shape[0], 2, 2))
        _, report = light_reconstruct_enhance(y, a)
        assert report.iterations == 2
        assert len(report.objective_trace) == 2


class TestLearnedIsta:
    def test_equivalence_configuration_matches_ista(self):
        a = build_steering_matrix(small_geometry())
        r = np.random.default_rng(18)
        y = r.standard_normal(a.shape[0]) + 1j * r.standard_normal(a.shape[0])
        alpha = 0.9 / spectral_norm_sq(a)
        lam = 0.25
        k = 9
        params = LearnedIstaParams.equivalence(k, alpha, lam)
        x_lista = lista_infer(y, a, params)
        # byte-exact against the shipped solver run for exactly k iterations
        cfg = SolverConfig(alpha=alpha, lambda1=lam, sigma=1e-15, max_outer=k)
        x_ista, report = ista_fiber(y, a, cfg=cfg)
        assert report.iterations == k
        assert np.array_equal(x_lista, x_ista)
        # and numerically against the independent dense loop
        x_ref = reference.ista_dense(y, a, alpha, lam, k)
        assert np.max(np.abs(x_lista - x_ref)) < 1e-12

    def test_zero_echo(self):
        a = build_steering_matrix(small_geometry())
        params = LearnedIstaParams.equivalence(5, 0.01, 0.3)
        assert np.all(lista_infer(np.zeros(a.shape[0]), a, params) == 0)

    @pytest.mark.parametrize("shape", [(), (6, 2, 2)], ids=["scalar", "volume"])
    def test_rejects_other_orders(self, shape):
        a = build_steering_matrix(small_geometry())
        with pytest.raises(ValueError, match="expected a fiber or an"):
            lista_infer(np.ones(shape, dtype=complex), a, LearnedIstaParams.equivalence(2, 0.01, 0.3))

    def test_batch_matches_single(self):
        a = build_steering_matrix(small_geometry())
        r = np.random.default_rng(19)
        y2d = r.standard_normal((a.shape[0], 4)) + 1j * r.standard_normal((a.shape[0], 4))
        params = LearnedIstaParams.equivalence(6, 0.01, 0.2)
        x2d = lista_infer(y2d, a, params)
        for j in range(4):
            # batched matmul may differ from the single-column path in the
            # last float bits, so compare numerically
            assert np.max(np.abs(x2d[:, j] - lista_infer(y2d[:, j], a, params))) < 1e-12

    def test_invalid_params_rejected(self):
        with pytest.raises(ConfigurationError):
            LearnedIstaParams(alpha=[-0.1, 0.2], theta=[0.1, 0.1])
        with pytest.raises(ConfigurationError):
            LearnedIstaParams(alpha=[0.1], theta=[0.1, 0.2])
        with pytest.raises(ConfigurationError):
            LearnedIstaParams(alpha=[], theta=[])

    def test_training_trace_monotone(self):
        g = small_geometry()
        a = build_steering_matrix(g)
        from tomosar.simulate import make_fiber_dataset
        y2d, x2d = make_fiber_dataset(a, 40, seed=5, snr_db=10.0)
        params, trace = lista_train(a, (y2d, x2d), k_blocks=4, epochs=25)
        assert len(trace) == 26
        assert all(trace[i + 1] <= trace[i] + 1e-15 for i in range(25))
        assert params.blocks == 4

    def test_zero_epochs_keeps_init(self):
        g = small_geometry()
        a = build_steering_matrix(g)
        from tomosar.simulate import make_fiber_dataset
        y2d, x2d = make_fiber_dataset(a, 10, seed=6, snr_db=10.0)
        params, trace = lista_train(a, (y2d, x2d), k_blocks=3, epochs=0)
        assert len(trace) == 1
        alpha0 = 0.9 / spectral_norm_sq(a)
        assert params.alpha == pytest.approx(np.full(3, alpha0))

    def test_step_below_backtracking_floor_keeps_init(self):
        a = build_steering_matrix(small_geometry())
        from tomosar.simulate import make_fiber_dataset
        y2d, x2d = make_fiber_dataset(a, 10, seed=6, snr_db=10.0)
        p0, t0 = lista_train(a, (y2d, x2d), k_blocks=3, epochs=0)
        params, trace = lista_train(a, (y2d, x2d), k_blocks=3, epochs=4, lr=1e-13)
        assert trace == t0 * 5
        assert np.array_equal(params.alpha, p0.alpha) and np.array_equal(params.theta, p0.theta)

    def test_training_deterministic(self):
        g = small_geometry()
        a = build_steering_matrix(g)
        from tomosar.simulate import make_fiber_dataset
        y2d, x2d = make_fiber_dataset(a, 20, seed=7, snr_db=10.0)
        p1, t1 = lista_train(a, (y2d, x2d), k_blocks=3, epochs=10)
        p2, t2 = lista_train(a, (y2d, x2d), k_blocks=3, epochs=10)
        assert np.array_equal(p1.alpha, p2.alpha)
        assert np.array_equal(p1.theta, p2.theta)
        assert t1 == t2

    def test_empty_dataset_rejected(self):
        a = build_steering_matrix(small_geometry())
        with pytest.raises(ConfigurationError, match="training dataset is empty"):
            lista_train(a, (np.zeros((6, 0), complex), np.zeros((8, 0), complex)), k_blocks=2, epochs=1)

    @pytest.mark.parametrize("dataset", [
        [],
        [(np.ones(6), np.ones(8))],
        [np.ones((6, 4)), np.ones((8, 4))],
        (np.ones((6, 4)),),
        (np.ones(6), np.ones(8)),
        (np.ones((6, 4)), np.ones((8, 4)), np.ones((8, 4))),
    ], ids=["empty-list", "pair-list", "list-of-matrices", "one-matrix", "vectors", "triple"])
    def test_dataset_must_be_a_matrix_pair(self, dataset):
        a = build_steering_matrix(small_geometry())
        with pytest.raises(ConfigurationError, match=r"must be a \(Y, X\) pair of 2-D arrays"):
            lista_train(a, dataset, k_blocks=2, epochs=1)

    @pytest.mark.parametrize("lr", [math.inf, math.nan, 0.0, -0.1])
    def test_step_must_be_finite_and_positive(self, lr):
        # an infinite lr once halved its step forever
        a = build_steering_matrix(small_geometry())
        with pytest.raises(ConfigurationError, match="^lr must be finite and positive"):
            lista_train(a, (np.ones((6, 4), complex), np.ones((8, 4), complex)), k_blocks=2, epochs=1, lr=lr)

    @pytest.mark.parametrize("rows", [(6, 1), (5, 8)])
    def test_mis_shaped_dataset_rejected(self, rows):
        a = build_steering_matrix(small_geometry())
        r = np.random.default_rng(3)
        y2d, x2d = (r.standard_normal((n, 4)) + 0j for n in rows)
        with pytest.raises(ConfigurationError, match="do not match the 6x8 matrix"):
            lista_train(a, (y2d, x2d), k_blocks=2, epochs=1)

    @pytest.mark.parametrize("geometry", [default_geometry, small_geometry])
    @pytest.mark.parametrize("on_zero", [None, "alpha", "theta"])
    def test_gradient_matches_finite_differences(self, geometry, on_zero):
        a = build_steering_matrix(geometry())
        from tomosar.simulate import make_fiber_dataset
        y2d, x2d = make_fiber_dataset(a, 500, seed=1, snr_db=5.0)
        # training's starting point, each scalar scaled by its own factor
        r = np.random.default_rng(1)
        lam0 = 0.05 * np.mean(np.max(np.abs(a.conj().T @ y2d), axis=0))
        alpha = 0.9 / spectral_norm_sq(a) * r.uniform(0.5, 1.5, 9)
        theta = alpha * lam0 * r.uniform(0.5, 2.0, 9)
        # a scalar on the nonnegativity boundary, where the oracle is one-sided
        if on_zero == "alpha":
            alpha[1] = 0.0
        if on_zero == "theta":
            theta[2] = 0.0
        params = LearnedIstaParams(alpha=alpha, theta=theta)
        tape = []
        _unrolled_infer(y2d, a, params, tape)
        grad = _lista_gradient(y2d, x2d, a, params, tape)
        fd = reference.lista_grad_fd(y2d, x2d, a, alpha, theta)
        assert np.max(np.abs(grad - fd)) <= 1e-5 * np.max(np.abs(fd))

    def test_tape_holds_each_block_before_its_shrink(self):
        a = build_steering_matrix(default_geometry())
        from tomosar.simulate import make_fiber_dataset
        y2d, _ = make_fiber_dataset(a, 30, seed=2, snr_db=5.0)
        alpha = 0.9 / spectral_norm_sq(a)
        params = LearnedIstaParams.equivalence(4, alpha, 0.4)
        tape = []
        x = _unrolled_infer(y2d, a, params, tape)
        assert len(tape) == 4 and all(z.shape == x.shape for z in tape)
        assert np.max(np.abs(tape[0] - alpha * (a.conj().T @ y2d))) < 1e-12
        assert x.tobytes() == soft_threshold(tape[-1], params.theta[-1]).tobytes()
        assert x.tobytes() == _unrolled_infer(y2d, a, params).tobytes()


class TestReconstructDispatch:
    def test_unknown_method_rejected(self):
        a = build_steering_matrix(small_geometry())
        with pytest.raises(ConfigurationError):
            reconstruct_tensor(np.zeros((a.shape[0], 2, 2), dtype=complex), a, "omp")

    def test_lista_requires_params(self):
        a = build_steering_matrix(small_geometry())
        with pytest.raises(ConfigurationError):
            reconstruct_tensor(np.zeros((a.shape[0], 2, 2), dtype=complex), a, "lista")

    def test_ista_method_matches_slice_math(self):
        g = small_geometry()
        a = build_steering_matrix(g)
        r = np.random.default_rng(20)
        y = r.standard_normal((a.shape[0], 3, 2)) + 1j * r.standard_normal((a.shape[0], 3, 2))
        x, _ = reconstruct_tensor(y, a, "ista")
        assert x.shape == (a.shape[1], 3, 2)

    def test_nonfinite_echo_rejected(self):
        a = build_steering_matrix(small_geometry())
        y = np.ones((a.shape[0], 2, 2), dtype=complex)
        y[0, 1, 1] = np.nan
        for method in ("ista", "sb-tv", "light-tv"):
            with pytest.raises(ValueError, match="non-finite"):
                reconstruct_tensor(y, a, method)

    def test_lista_method_matches_infer(self):
        g = small_geometry()
        a = build_steering_matrix(g)
        r = np.random.default_rng(21)
        y = r.standard_normal((a.shape[0], 2, 3)) + 1j * r.standard_normal((a.shape[0], 2, 3))
        params = LearnedIstaParams.equivalence(4, 0.01, 0.2)
        x, report = reconstruct_tensor(y, a, "lista", lista_params=params)
        expect = lista_infer(y.reshape(a.shape[0], -1), a, params).reshape(a.shape[1], 2, 3)
        assert np.array_equal(x, expect)
        assert report.iterations == 4


class TestDivergenceGuard:
    def echo(self, a, seed=23):
        r = np.random.default_rng(seed)
        return r.standard_normal((a.shape[0], 3, 2)) + 1j * r.standard_normal((a.shape[0], 3, 2))

    @pytest.mark.parametrize("method", ["ista", "fista", "sb-tv", "light-tv"])
    def test_oversized_step_raises(self, method):
        a = build_steering_matrix(small_geometry())
        cfg = SolverConfig(alpha=50.0 / spectral_norm_sq(a))
        with pytest.raises(DivergenceError) as err:
            reconstruct_tensor(self.echo(a), a, method, cfg=cfg)
        msg = str(err.value)
        solver = "ista" if method == "light-tv" else method
        assert msg.startswith(f"{solver} at iteration ")
        assert "objective" in msg and ", column" not in msg
        # one volume is no fiber batch: no column to name
        assert err.value.column is None
        assert len(err.value.objective_trace) >= 1

    def test_oversized_lista_step_raises(self):
        a = build_steering_matrix(small_geometry())
        params = LearnedIstaParams.equivalence(20, 50.0 / spectral_norm_sq(a), 0.1)
        with pytest.raises(DivergenceError, match=r"^lista at iteration \d+: objective"):
            reconstruct_tensor(self.echo(a), a, "lista", lista_params=params)

    def test_nonfinite_objective_raises(self):
        a = build_steering_matrix(small_geometry())
        with pytest.raises(DivergenceError, match="is not finite"), np.errstate(over="ignore"):
            reconstruct_tensor(self.echo(a), a, "ista", cfg=SolverConfig(alpha=1e300, lambda1=0.0))

    def test_normal_fista_run_never_trips(self):
        g = default_geometry()
        a = build_steering_matrix(g)
        truth = np.zeros((64, 4, 4), dtype=np.complex128)
        truth[20, 1, 1] = 1.0
        truth[40, 2, 3] = 2.0 - 1.0j
        r = np.random.default_rng(24)
        y = forward(a, truth) + 0.1 * (r.standard_normal((12, 4, 4)) + 1j * r.standard_normal((12, 4, 4)))
        x, report = reconstruct_tensor(y, a, "fista", cfg=SolverConfig(sigma=1e-12, max_outer=2000))
        obj0 = 0.5 * float(np.sum(np.abs(y) ** 2))
        assert report.converged
        assert max(report.objective_trace) < 10.0 * obj0
        assert np.all(np.isfinite(x))


class TestConfig:
    def test_resolved_default_formulas(self):
        g = small_geometry()
        a = build_steering_matrix(g)
        r = np.random.default_rng(22)
        y = r.standard_normal(a.shape[0]) + 1j * r.standard_normal(a.shape[0])
        s2 = spectral_norm_sq(a)
        rc = resolve_config(None, a, y)
        assert rc.alpha == pytest.approx(0.9 / s2, rel=1e-9)
        lam1 = 0.05 * float(np.max(np.abs(a.conj().T @ y[:, None])))
        assert rc.lambda1 == pytest.approx(lam1, rel=1e-12)
        assert rc.lambda2 == pytest.approx(0.01 * lam1, rel=1e-12)
        assert rc.mu == 1.0
        assert rc.tau1 == pytest.approx(1.0 / (1.0 / rc.alpha + 8.0), rel=1e-12)
        assert rc.tau2 == 1.0
        assert rc.sigma == 1e-6
        assert rc.max_outer == 300
        assert rc.inner_iters == 3

    def test_alpha_factor_scales_default_step(self):
        a = build_steering_matrix(small_geometry())
        y = np.ones(a.shape[0], dtype=complex)
        rc = resolve_config(None, a, y, alpha_factor=1.8)
        assert rc.alpha == pytest.approx(1.8 / spectral_norm_sq(a), rel=1e-9)
        # explicit alpha wins over the factor
        rc2 = resolve_config(SolverConfig(alpha=0.123), a, y, alpha_factor=1.8)
        assert rc2.alpha == 0.123

    def test_explicit_values_pass_through(self):
        a = build_steering_matrix(small_geometry())
        y = np.ones(a.shape[0], dtype=complex)
        cfg = SolverConfig(alpha=0.5, lambda1=2.0, lambda2=0.7, mu=3.0,
                           tau1=0.01, tau2=0.2, sigma=1e-4, max_outer=7, inner_iters=2)
        rc = resolve_config(cfg, a, y)
        assert (rc.alpha, rc.lambda1, rc.lambda2, rc.mu) == (0.5, 2.0, 0.7, 3.0)
        assert (rc.tau1, rc.tau2, rc.sigma, rc.max_outer, rc.inner_iters) == (0.01, 0.2, 1e-4, 7, 2)

    def test_merged_overrides(self):
        base = SolverConfig(lambda1=1.0, mu=2.0)
        m = base.merged(lambda1=3.0, sigma=None)
        assert m.lambda1 == 3.0
        assert m.mu == 2.0
        assert m.sigma == base.sigma  # None override keeps the base value

    def test_validation_errors(self):
        a = build_steering_matrix(small_geometry())
        y = np.ones(a.shape[0], dtype=complex)
        with pytest.raises(ConfigurationError):
            resolve_config(SolverConfig(alpha=-1.0), a, y)
        with pytest.raises(ConfigurationError):
            resolve_config(SolverConfig(lambda1=-0.5), a, y)
        with pytest.raises(ConfigurationError):
            resolve_config(SolverConfig(sigma=2.0), a, y)
        with pytest.raises(ConfigurationError):
            resolve_config(SolverConfig(max_outer=0), a, y)
        with pytest.raises(ConfigurationError):
            resolve_config(SolverConfig(inner_iters=0), a, y)

    @pytest.mark.parametrize("field", ["alpha", "lambda1", "lambda2", "mu", "tau1", "tau2"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_nonfinite_knob_rejected_by_name(self, field, value):
        a = build_steering_matrix(small_geometry())
        y = np.ones(a.shape[0], dtype=complex)
        with pytest.raises(ConfigurationError, match=f"^{field} must be finite"):
            resolve_config(SolverConfig(**{field: value}), a, y)

    @pytest.mark.parametrize("field", ["alpha", "mu"])
    def test_zero_step_knob_rejected_before_deriving_the_others(self, field):
        # 1 / alpha and 1 / mu feed the derived tau1 and tau2
        a = build_steering_matrix(small_geometry())
        y = np.ones(a.shape[0], dtype=complex)
        with pytest.raises(ConfigurationError, match=f"^{field} must be finite and positive, got 0.0"):
            resolve_config(SolverConfig(**{field: 0.0}), a, y)

    @pytest.mark.parametrize("field", ["max_outer", "inner_iters"])
    @pytest.mark.parametrize("value", [2.7, 0.5, math.inf, math.nan])
    def test_fractional_iteration_count_rejected(self, field, value):
        a = build_steering_matrix(small_geometry())
        y = np.ones(a.shape[0], dtype=complex)
        with pytest.raises(ConfigurationError, match=f"{field} must be a whole number"):
            resolve_config(SolverConfig(**{field: value}), a, y)
        assert getattr(resolve_config(SolverConfig(**{field: 2.0}), a, y), field) == 2
