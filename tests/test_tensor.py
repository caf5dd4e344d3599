"""Tensor algebra: validation, folding, differences, norms."""

import numpy as np
import pytest

from tomosar import tensor

import reference


def rng(seed=0):
    return np.random.default_rng(seed)


def random_tensor(dims, seed=0):
    r = rng(seed)
    return r.standard_normal(dims) + 1j * r.standard_normal(dims)


class TestFoldUnfold:
    @pytest.mark.parametrize("axis", [0, 1, 2])
    @pytest.mark.parametrize("dims", [(2, 3, 4), (5, 1, 3), (1, 1, 1), (4, 4, 4)])
    def test_roundtrip_identity(self, axis, dims):
        t = random_tensor(dims, seed=axis + sum(dims))
        assert np.array_equal(tensor.unfold(tensor.fold(t, axis), dims, axis), t)

    def test_fold_shapes(self):
        t = random_tensor((2, 3, 4))
        assert tensor.fold(t, 0).shape == (3 * 4, 2)
        assert tensor.fold(t, 1).shape == (2 * 4, 3)
        assert tensor.fold(t, 2).shape == (2 * 3, 4)

    def test_fold_is_pure_permutation(self):
        # every entry appears exactly once, unchanged
        t = np.arange(24, dtype=complex).reshape(2, 3, 4)
        for axis in range(3):
            m = tensor.fold(t, axis)
            assert sorted(m.reshape(-1).real.tolist()) == list(range(24))

    def test_fold_column_is_mode_fiber(self):
        # column n of the axis-0 folding enumerates t[n, :, :] in k-fastest order
        t = random_tensor((3, 4, 5), seed=3)
        m = tensor.fold(t, 0)
        for n in range(3):
            assert np.array_equal(m[:, n], t[n].reshape(-1))

    def test_unfold_rejects_wrong_shape(self):
        m = np.zeros((12, 2), dtype=complex)
        with pytest.raises(ValueError):
            tensor.unfold(m, (2, 3, 4), 1)


class TestDiff:
    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_matches_dense_operator(self, axis):
        dims = (3, 4, 5)
        t = random_tensor(dims, seed=10 + axis)
        dense = reference.dense_diff_operator(dims, axis)
        expect = reference.unvec(dense @ reference.vec(t), dims)
        assert np.allclose(tensor.diff(t, axis), expect, atol=1e-14)

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_adjoint_matches_dense_transpose(self, axis):
        dims = (3, 4, 5)
        t = random_tensor(dims, seed=20 + axis)
        dense = reference.dense_diff_operator(dims, axis)
        expect = reference.unvec(dense.T @ reference.vec(t), dims)
        assert np.allclose(tensor.diff_adjoint(t, axis), expect, atol=1e-14)

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_adjoint_identity(self, axis):
        # <Dx, y> == <x, D^T y> for random complex tensors
        dims = (4, 3, 6)
        x = random_tensor(dims, seed=30 + axis)
        y = random_tensor(dims, seed=40 + axis)
        lhs = np.vdot(y, tensor.diff(x, axis))
        rhs = np.vdot(tensor.diff_adjoint(y, axis), x)
        assert abs(lhs - rhs) < 1e-12

    def test_constant_tensor_diff_is_zero(self):
        t = np.full((3, 3, 3), 2.5 + 1j)
        for axis in range(3):
            assert np.count_nonzero(tensor.diff(t, axis)) == 0

    def test_last_plane_is_zero(self):
        t = random_tensor((4, 4, 4), seed=5)
        assert np.count_nonzero(tensor.diff(t, 0)[-1, :, :]) == 0
        assert np.count_nonzero(tensor.diff(t, 1)[:, -1, :]) == 0
        assert np.count_nonzero(tensor.diff(t, 2)[:, :, -1]) == 0

    def test_singleton_axis_gives_zeros(self):
        t = random_tensor((1, 3, 3), seed=6)
        assert np.count_nonzero(tensor.diff(t, 0)) == 0
        assert np.count_nonzero(tensor.diff_adjoint(t, 0)) == 0


def _diff_allocating(t, axis):
    """diff as it was written before it took ``out=``: np.diff plus a zero plane."""
    if t.shape[axis] == 1:
        return np.zeros_like(t)
    pad_shape = list(t.shape)
    pad_shape[axis] = 1
    return np.concatenate([np.diff(t, axis=axis), np.zeros(pad_shape, dtype=t.dtype)], axis=axis)


def _diff_adjoint_allocating(t, axis):
    """diff_adjoint as it was written before it took ``out=``, via moveaxis."""
    y = np.moveaxis(t, axis, 0)
    out = np.empty_like(y)
    n = y.shape[0]
    if n == 1:
        return np.zeros_like(t)
    out[0] = -y[0]
    if n > 2:
        out[1:-1] = y[:-2] - y[1:-1]
    out[-1] = y[-2]
    return np.moveaxis(out, 0, axis)


def signed_zero_tensor(dims, seed):
    """A random complex tensor in which about half the parts are +0 or -0."""
    r = rng(seed)
    re = r.standard_normal(dims) * (r.random(dims) < 0.5)
    im = r.standard_normal(dims) * (r.random(dims) < 0.5)
    re = np.where(re == 0, np.copysign(0.0, r.random(dims) - 0.5), re)
    im = np.where(im == 0, np.copysign(0.0, r.random(dims) - 0.5), im)
    return re + 1j * im


class TestDiffBitwise:
    """The out= kernels reproduce the allocating ones byte for byte, signed zeros included."""

    @pytest.mark.parametrize("axis", [0, 1, 2])
    @pytest.mark.parametrize("extent", [1, 2, 5])
    @pytest.mark.parametrize(
        "op, frozen",
        [(tensor.diff, _diff_allocating), (tensor.diff_adjoint, _diff_adjoint_allocating)],
        ids=["diff", "diff_adjoint"],
    )
    def test_matches_allocating_kernel(self, op, frozen, extent, axis):
        dims = [3, 4, 2]
        dims[axis] = extent
        t = signed_zero_tensor(tuple(dims), seed=10 * extent + axis)
        expect = frozen(t, axis).tobytes()
        assert op(t, axis).tobytes() == expect
        out = np.full_like(t, np.nan)
        assert op(t, axis, out=out) is out
        assert out.tobytes() == expect

    @pytest.mark.parametrize("axis", [0, 1, 2])
    @pytest.mark.parametrize("dims", [(2, 2, 2), (2, 5, 2), (6, 7, 5)], ids=["2x2x2", "2x5x2", "6x7x5"])
    @pytest.mark.parametrize(
        "op, frozen",
        [(tensor.diff, _diff_allocating), (tensor.diff_adjoint, _diff_adjoint_allocating)],
        ids=["diff", "diff_adjoint"],
    )
    def test_matches_allocating_kernel_on_views(self, op, frozen, dims, axis):
        # the slabs of a split-Bregman sweep (cut along axis 1 or 0), strided
        # and transposed inputs, and outputs with and without a flat view
        t = signed_zero_tensor(dims, seed=sum(dims) + axis)
        half0, half1 = dims[0] // 2, dims[1] // 2
        views = [t[:, :half1], t[:, half1:], t[:half0], t[half0:], t[::2], t[:, ::-1], t.transpose(2, 1, 0)]
        for view in views:
            expect = frozen(view, axis).tobytes()
            assert op(view, axis).tobytes() == expect
            big = np.full(tuple(2 * n for n in view.shape), np.nan, dtype=complex)
            for out in (np.full_like(view, np.nan), np.asfortranarray(np.full_like(view, np.nan)),
                        big[: view.shape[0], : view.shape[1], : view.shape[2]], big[::2, ::2, ::2]):
                assert op(view, axis, out=out) is out
                assert np.ascontiguousarray(out).tobytes() == expect

    @pytest.mark.parametrize("op", [tensor.diff, tensor.diff_adjoint], ids=["diff", "diff_adjoint"])
    def test_aliased_out_rejected(self, op):
        t = random_tensor((3, 4, 5), seed=8)
        with pytest.raises(ValueError, match="share memory"):
            op(t, 1, out=t)
        with pytest.raises(ValueError, match="share memory"):
            op(t, 0, out=t[::-1])

    def test_mis_shaped_out_rejected(self):
        t = random_tensor((3, 4, 5), seed=8)
        with pytest.raises(ValueError, match="shape"):
            tensor.diff(t, 0, out=np.empty((3, 4, 4), dtype=complex))


class TestNorms:
    def test_frobenius_known_value(self):
        t = np.zeros((2, 2, 2), dtype=complex)
        t[0, 0, 0] = 3.0
        t[1, 1, 1] = 4.0j
        assert tensor.frobenius(t) == pytest.approx(5.0)

    def test_l1_known_value(self):
        t = np.zeros((2, 2, 2), dtype=complex)
        t[0, 0, 0] = 3.0 + 4.0j
        t[1, 0, 1] = -2.0
        assert tensor.l1(t) == pytest.approx(7.0)

    def test_inner_induces_frobenius(self):
        a = random_tensor((3, 3, 3), seed=9)
        assert np.sqrt(np.vdot(a, a).real) == pytest.approx(tensor.frobenius(a))

    def test_tv_constant_is_zero(self):
        t = np.full((4, 5, 6), 1.3 - 0.7j)
        assert tensor.tv_norm(t) == 0.0

    def test_tv_interior_unit_spike(self):
        # unit spike away from all boundaries: two nonzero differences per
        # axis, each of magnitude 1, so the total is 6
        t = np.zeros((5, 5, 5), dtype=complex)
        t[2, 2, 2] = 1.0
        assert tensor.tv_norm(t) == pytest.approx(6.0)

    def test_tv_matches_dense(self):
        dims = (3, 4, 2)
        t = random_tensor(dims, seed=13)
        expect = sum(
            np.sum(np.abs(reference.dense_diff_operator(dims, ax) @ reference.vec(t)))
            for ax in range(3)
        )
        assert tensor.tv_norm(t) == pytest.approx(expect, rel=1e-12)
