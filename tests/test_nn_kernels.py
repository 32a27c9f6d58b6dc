"""Byte-for-byte oracle tests for the im2col / col2im, max-pool and
batch-norm eval kernels.

``reference_im2col`` / ``reference_col2im`` keep the NCHW formulation the
channels-last kernels replaced: pad with ``np.pad``, gather into a 6-D
``(n, c, kh, kw, oh, ow)`` buffer, then transpose into patch rows; fold
back by accumulating each kernel offset into an NCHW buffer.
``reference_maxpool2d`` keeps the argmax / ``take_along_axis`` /
``put_along_axis`` pooling the where-chain replaced, and
``reference_bn_eval`` the allocating float64 eval branch of
``BatchNorm2d``.  The fused and reference training loops share the
production kernels, so their agreement cannot catch a change in both;
these tests can, in float32 and float64, for C-contiguous inputs and for
the channels-last-backed NCHW views that conv layers emit.
"""

import itertools

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn.layers import BatchNorm2d
from repro.nn.tensor import Tensor, default_dtype, fused_mode, no_grad, step_arena


def reference_im2col(x, kh, kw, stride, pad):
    n, c, h, w = x.shape
    oh = F.conv_output_size(h, kh, stride, pad)
    ow = F.conv_output_size(w, kw, stride, pad)
    if pad > 0:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    cols = np.empty((n, c, kh, kw, oh, ow), dtype=x.dtype)
    for i in range(kh):
        i_end = i + stride * oh
        for j in range(kw):
            j_end = j + stride * ow
            cols[:, :, i, j, :, :] = x[:, :, i:i_end:stride, j:j_end:stride]
    out = np.empty((n * oh * ow, c * kh * kw), dtype=x.dtype)
    np.copyto(
        out.reshape(n, oh, ow, c, kh, kw), cols.transpose(0, 4, 5, 1, 2, 3)
    )
    return out, oh, ow


def reference_col2im(cols, x_shape, kh, kw, stride, pad):
    n, c, h, w = x_shape
    oh = F.conv_output_size(h, kh, stride, pad)
    ow = F.conv_output_size(w, kw, stride, pad)
    cols = cols.reshape(n, oh, ow, c, kh, kw).transpose(0, 3, 4, 5, 1, 2)
    x_padded = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=cols.dtype)
    for i in range(kh):
        i_end = i + stride * oh
        for j in range(kw):
            j_end = j + stride * ow
            x_padded[:, :, i:i_end:stride, j:j_end:stride] += cols[:, :, i, j, :, :]
    if pad > 0:
        return x_padded[:, :, pad:-pad, pad:-pad]
    return x_padded


def _input(shape, dtype, layout, seed):
    """Random NCHW input with signed zeros, in the requested memory layout."""
    n, c, h, w = shape
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((n, h, w, c)) * 10.0 ** rng.integers(-3, 4, (n, h, w, c))
    base[rng.random(base.shape) < 0.05] = -0.0
    base = base.astype(dtype)
    if layout == "channels_last":
        return base.transpose(0, 3, 1, 2)
    return np.ascontiguousarray(base.transpose(0, 3, 1, 2))


MODES = ("fused", "reference", "no_grad")


def _mode(name):
    if name == "fused":
        return fused_mode(True)
    if name == "no_grad":
        return no_grad()
    return fused_mode(False)


GRID = list(itertools.product(
    (1, 2),                          # stride
    (0, 1, 2),                       # pad
    (1, 3),                          # kernel
    ("c_order", "channels_last"),    # input layout
    (np.float32, np.float64),
    MODES,
))


@pytest.mark.parametrize("stride,pad,k,layout,dtype,mode", GRID)
def test_im2col_matches_reference_bytes(stride, pad, k, layout, dtype, mode):
    x = _input((2, 3, 7, 6), dtype, layout, seed=stride * 100 + pad * 10 + k)
    assert x.flags.c_contiguous == (layout == "c_order")
    expected, eoh, eow = reference_im2col(x, k, k, stride, pad)
    with _mode(mode):
        step_arena().reset()
        got, oh, ow = F.im2col(x, k, k, stride, pad)
        got = got.copy()
    assert (oh, ow) == (eoh, eow)
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("stride,pad,k,layout,dtype,mode", GRID)
def test_col2im_matches_reference_bytes(stride, pad, k, layout, dtype, mode):
    x_shape = (2, 3, 7, 6)
    oh = F.conv_output_size(7, k, stride, pad)
    ow = F.conv_output_size(6, k, stride, pad)
    # Patch-row gradients in the layout the conv backward hands over
    # (C-contiguous); the layout axis varies the values only.
    cols = _input((2, 3 * k * k, oh, ow), dtype, layout, seed=pad + 7 * k)
    cols = np.ascontiguousarray(cols.transpose(0, 2, 3, 1)).reshape(
        2 * oh * ow, 3 * k * k
    )
    expected = reference_col2im(cols, x_shape, k, k, stride, pad)
    with _mode(mode):
        step_arena().reset()
        got = F.col2im(cols, x_shape, k, k, stride, pad)
        got_bytes = got.tobytes()
    assert got.shape == expected.shape and got.dtype == expected.dtype
    assert got_bytes == expected.tobytes()


@pytest.mark.parametrize("mode", MODES)
def test_reused_padded_buffers_carry_no_stale_edges(mode):
    """Two layers whose padded shapes coincide (6+2*1 == 4+2*2) share one
    pooled buffer; the second must see zero padding, not the first's
    interior."""
    first = np.full((2, 3, 6, 6), 7.0)
    second = _input((2, 3, 4, 4), np.float64, "channels_last", seed=3)
    expected, _, _ = reference_im2col(second, 3, 3, 1, 2)
    grad = np.full((2 * 6 * 6, 27), 5.0)
    expected_fold = reference_col2im(grad, (2, 3, 4, 4), 3, 3, 1, 2)
    with _mode(mode):
        step_arena().reset()
        F.im2col(first, 3, 3, 1, 1)
        F.col2im(np.full((2 * 6 * 6, 27), 9.0), (2, 3, 6, 6), 3, 3, 1, 1)
        step_arena().reset()
        got, _, _ = F.im2col(second, 3, 3, 1, 2)
        fold = F.col2im(grad, (2, 3, 4, 4), 3, 3, 1, 2)
        assert got.tobytes() == expected.tobytes()
        assert fold.tobytes() == expected_fold.tobytes()
    step_arena().reset()


# --------------------------------------------------------------------- #
# max-pool
# --------------------------------------------------------------------- #
def reference_maxpool2d(x, kernel):
    n, c, h, w = x.shape
    oh, ow = h // kernel, w // kernel
    windows = x.data.reshape(n, c, oh, kernel, ow, kernel)
    flat = windows.transpose(0, 1, 2, 4, 3, 5).reshape(n, c, oh, ow, kernel * kernel)
    arg = flat.argmax(axis=-1)
    out_data = np.take_along_axis(flat, arg[..., None], axis=-1)[..., 0]

    def bwd(grad):
        if not x.requires_grad:
            return
        gflat = np.zeros(flat.shape, flat.dtype)
        np.put_along_axis(gflat, arg[..., None], grad[..., None], axis=-1)
        gx = (
            gflat.reshape(n, c, oh, ow, kernel, kernel)
            .transpose(0, 1, 2, 4, 3, 5)
            .reshape(n, c, h, w)
        )
        x.accumulate_grad(gx)

    return Tensor(out_data, parents=(x,), backward=bwd)


def _tie_heavy(shape, dtype, layout, kernel, seed):
    """ReLU zeros, signed zeros, repeated positives and all-zero windows."""
    n, c, h, w = shape
    rng = np.random.default_rng(seed)
    base = rng.choice(np.array([-0.0, 0.0, 0.0, 0.5, 1.0, 1.0, 2.5, -3.0]), (n, h, w, c))
    base[:, :kernel, :kernel, :] = 0.0  # an all-zero window per (n, c)
    base[:, :kernel, kernel:2 * kernel, :] = -0.0
    base = base.astype(dtype)
    if layout == "channels_last":
        return base.transpose(0, 3, 1, 2)
    return np.ascontiguousarray(base.transpose(0, 3, 1, 2))


def _arena_state():
    arena = step_arena()
    return {key: (len(pool), arena._cursors[key]) for key, pool in arena._pools.items()}


def _run_pool(pool, data, grad, kernel, mode):
    """Forward (+ backward unless no_grad) in ``mode`` from a clean arena."""
    step_arena().clear()
    x = Tensor(data, requires_grad=True)
    with _mode(mode):
        y = pool(x, kernel)
        if mode != "no_grad":
            y.backward(grad)
    gx = None if x.grad is None else (x.grad.tobytes(), x.grad.strides)
    state = _arena_state()
    step_arena().clear()
    return y.data.tobytes(), y.data.strides, y.data.dtype, gx, state


POOL_GRID = list(itertools.product(
    (1, 2, 3),                       # kernel
    ("tie_heavy", "random"),
    ("c_order", "channels_last"),
    (np.float32, np.float64),
    MODES,
))


@pytest.mark.parametrize("kernel,values,layout,dtype,mode", POOL_GRID)
def test_maxpool2d_matches_reference_bytes(kernel, values, layout, dtype, mode):
    shape = (2, 3, 6 * kernel, 4 * kernel)
    seed = kernel * 10 + (values == "random")
    with default_dtype(dtype):
        if values == "tie_heavy":
            data = _tie_heavy(shape, dtype, layout, kernel, seed)
        else:
            data = _input(shape, dtype, layout, seed)
        grad = _input((2, 3, 6, 4), dtype, "c_order", seed + 1)
        expected = _run_pool(reference_maxpool2d, data, grad, kernel, mode)
        got = _run_pool(F.maxpool2d, data, grad, kernel, mode)
    assert got[2] == expected[2]
    assert got[1] == expected[1]            # C-contiguous NCHW output
    assert got[0] == expected[0]
    assert got[3] == expected[3]            # input gradient, bytes + strides
    assert got[4] == expected[4]            # the same arena grants


@pytest.mark.parametrize("mode", ("fused", "reference"))
def test_maxpool2d_adds_onto_an_existing_gradient(mode):
    data = _tie_heavy((2, 3, 4, 4), np.float64, "channels_last", 2, seed=5)
    grad = _input((2, 3, 2, 2), np.float64, "c_order", seed=6)
    prior = _input((2, 3, 4, 4), np.float64, "c_order", seed=7)
    results = []
    for pool in (reference_maxpool2d, F.maxpool2d):
        with default_dtype(np.float64), _mode(mode):
            x = Tensor(data, requires_grad=True)
            x.grad = prior.copy()
            pool(x, 2).backward(grad)
        results.append(x.grad.tobytes())
        step_arena().reset()
    assert results[0] == results[1]


def test_maxpool2d_nan_counts_only_in_a_windows_first_cell():
    """The documented NaN rule (the one place the where-chain and argmax
    differ): a NaN first cell wins, a later NaN never does."""
    nan = np.nan
    data = np.array([[[[nan, 1.0, 5.0, nan],
                       [2.0, 3.0, 4.0, 1.0]]]])
    with default_dtype(np.float64), no_grad():
        out = F.maxpool2d(Tensor(data), 2).data
    assert np.isnan(out[0, 0, 0, 0]) and out[0, 0, 0, 1] == 5.0


# --------------------------------------------------------------------- #
# batch-norm eval
# --------------------------------------------------------------------- #
def reference_bn_eval(bn, x):
    axes = (0, 2, 3)
    mean, var = bn.running_mean, bn.running_var
    std = np.sqrt(var + bn.eps)
    xhat = (x.data - mean[None, :, None, None]) / std[None, :, None, None]
    out_data = (
        bn.gamma.data[None, :, None, None] * xhat + bn.beta.data[None, :, None, None]
    )
    gamma, beta = bn.gamma, bn.beta

    def bwd(grad):
        gamma.grad += (grad * xhat).sum(axis=axes)
        beta.grad += grad.sum(axis=axes)
        if not x.requires_grad:
            return
        g = gamma.data[None, :, None, None]
        x.accumulate_grad((g / std[None, :, None, None]) * grad)

    return Tensor(out_data, parents=(x,), backward=bwd)


def _eval_bn(channels, seed):
    rng = np.random.default_rng(seed)
    bn = BatchNorm2d(channels)
    bn.gamma.data[:] = rng.standard_normal(channels)
    bn.beta.data[:] = rng.standard_normal(channels)
    bn.running_mean = rng.standard_normal(channels)
    bn.running_var = rng.random(channels) + 0.25
    return bn.eval()


BN_GRID = list(itertools.product(
    ((2, 5, 4, 3), (3, 8, 1, 1), (1, 4, 2, 6), (4, 3, 12, 10)),
    ("c_order", "channels_last"),
    (np.float32, np.float64),
    MODES,
))


@pytest.mark.parametrize("shape,layout,dtype,mode", BN_GRID)
def test_bn_eval_matches_reference_bytes(shape, layout, dtype, mode):
    seed = sum(shape)
    with default_dtype(dtype):
        data = _input(shape, dtype, layout, seed)
        grad = _input(shape, dtype, "c_order", seed + 1)
        runs = []
        for forward in (reference_bn_eval, BatchNorm2d.forward):
            bn = _eval_bn(shape[1], seed)
            x = Tensor(data, requires_grad=True)
            step_arena().clear()
            with _mode(mode):
                y = forward(bn, x)
                if mode != "no_grad":
                    y.backward(grad)
            grads = [] if mode == "no_grad" else [
                (a.tobytes(), a.strides) for a in (x.grad, bn.gamma.grad, bn.beta.grad)
            ]
            runs.append((y.data.dtype, y.data.strides, y.data.tobytes(), grads,
                         _arena_state()))
            step_arena().clear()
    assert runs[1] == runs[0]
