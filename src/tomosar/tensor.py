"""Order-3 complex tensor algebra for scene volumes.

A scene volume is a complex ndarray of shape (n_z, n_x, n_y): elevation,
slant range, azimuth.  An echo volume has shape (n_e, n_x, n_y) with the
array channel replacing elevation.  All routines here treat tensors as plain
``numpy`` arrays; there is no wrapper class.

Slice naming convention (fixed once, used everywhere):

* horizontal slice ``t[i, :, :]``  shape (n_x, n_y), axis 0 fixed
* lateral    slice ``t[:, j, :]``  shape (n_z, n_y), axis 1 fixed
* frontal    slice ``t[:, :, k]``  shape (n_z, n_x), axis 2 fixed

A fiber is ``t[:, j, k]``, the vector along axis 0 at one (range, azimuth)
position.
"""

import math

import numpy as np

_AXES = (0, 1, 2)


def _check3d(t):
    if t.ndim != 3 or t.size == 0:
        raise ValueError(f"expected a nonempty order-3 tensor, got shape={getattr(t, 'shape', None)}")


def _check_axis(axis):
    if axis not in _AXES:
        raise ValueError(f"axis must be 0, 1 or 2, got {axis!r}")


def fold(t, axis):
    """Matricize along one axis: columns are vectorized slices.

    ``fold(t, 0)`` has shape (n_x * n_y, n_z) and column i equal to
    ``t[i, :, :].ravel()``; analogously for axes 1 and 2.  The operation is a
    pure index permutation, so ``unfold(fold(t, a), t.shape, a)`` restores
    ``t`` bit-exactly.
    """
    _check3d(t)
    _check_axis(axis)
    d0, d1, d2 = t.shape
    if axis == 0:
        return t.reshape(d0, d1 * d2).T.copy()
    if axis == 1:
        return t.transpose(1, 0, 2).reshape(d1, d0 * d2).T.copy()
    return t.transpose(2, 0, 1).reshape(d2, d0 * d1).T.copy()


def unfold(m, dims, axis):
    """Rebuild an order-3 tensor from one of its :func:`fold` matrices."""
    _check_axis(axis)
    d0, d1, d2 = dims
    if min(dims) <= 0:
        raise ValueError(f"empty tensor extent: dims={dims}")
    expected = {0: (d1 * d2, d0), 1: (d0 * d2, d1), 2: (d0 * d1, d2)}[axis]
    if m.shape != expected:
        raise ValueError(f"matrix shape {m.shape} does not match dims {dims} for axis {axis}")
    if axis == 0:
        return m.T.reshape(d0, d1, d2)
    if axis == 1:
        return m.T.reshape(d1, d0, d2).transpose(1, 0, 2)
    return m.T.reshape(d2, d0, d1).transpose(1, 2, 0)


def frobenius(t):
    """Frobenius norm."""
    return float(np.sqrt(np.sum(np.abs(t) ** 2)))


def l1(t):
    """Entrywise l1 norm (sum of moduli)."""
    return float(np.sum(np.abs(t)))


def _slices(axis, index):
    return (slice(None),) * axis + (index,)


# per-axis index tuples of the boundary planes: the first, the last and the
# second to last
_FIRST = [_slices(ax, 0) for ax in _AXES]
_LAST = [_slices(ax, -1) for ax in _AXES]
_LAST2 = [_slices(ax, -2) for ax in _AXES]


def _check_out(t, out):
    if out.shape != t.shape:
        raise ValueError(f"out has shape {out.shape}, expected {t.shape}")
    if np.may_share_memory(out, t):
        raise ValueError("out must not share memory with the input")


def _rows(t, axis):
    """t as (rows, prod(shape[axis + 1:])), one row down being one step along
    ``axis``: a view where the strides of t allow one, else a copy."""
    return t.reshape(-1, math.prod(t.shape[axis + 1:]))


def _prepare(t, axis, out):
    """The checked output array of a difference kernel and its flat rows, or
    None for the rows when ``out`` has no flat view."""
    _check3d(t)
    _check_axis(axis)
    if out is None:
        out = np.empty(t.shape, dtype=t.dtype)
    else:
        _check_out(t, out)
    dst = _rows(out, axis)
    return out, dst if np.may_share_memory(dst, out) else None


def diff(t, axis, out=None):
    """First-order forward difference along ``axis`` with replicate boundary.

    out[n] = t[n + 1] - t[n] for n < N - 1, and the final plane is zero, so a
    constant tensor maps to zero and the operator has the same shape as its
    input.  ``out``, if given, receives the result and must not share memory
    with ``t`` (ValueError).

    The differences are taken in one pass over the flat rows of t, which
    also subtracts across the end of the axis; the final plane overwrites
    those entries.
    """
    out, dst = _prepare(t, axis, out)
    if t.shape[axis] == 1:
        out.fill(0)
    elif dst is None:  # no flat view of out: take the difference into a new array
        out[...] = diff(t, axis)
    else:
        src = _rows(t, axis)
        np.subtract(src[1:], src[:-1], out=dst[:-1])
        out[_LAST[axis]] = 0
    return out


def diff_adjoint(t, axis, out=None):
    """Adjoint of :func:`diff` along ``axis``.

    Satisfies vdot(diff(x, a), y) == vdot(x, diff_adjoint(y, a)) for all x,
    y of matching shape.  ``out``, if given, receives the result and must not
    share memory with ``t`` (ValueError).

    out[n] = t[n - 1] - t[n] is taken in one pass over the flat rows of t;
    the first plane, -t[0], and the last, t[N - 2], overwrite it at the ends.
    """
    out, dst = _prepare(t, axis, out)
    if t.shape[axis] == 1:
        out.fill(0)
    elif dst is None:
        out[...] = diff_adjoint(t, axis)
    else:
        src = _rows(t, axis)
        np.subtract(src[:-1], src[1:], out=dst[1:])
        np.negative(t[_FIRST[axis]], out=out[_FIRST[axis]])
        out[_LAST[axis]] = t[_LAST2[axis]]
    return out


def tv_norm(t):
    """Anisotropic total variation: sum of l1 norms of the three axis diffs."""
    _check3d(t)
    buf = np.empty(t.shape, dtype=t.dtype)
    return sum(l1(diff(t, axis, out=buf)) for axis in _AXES)
