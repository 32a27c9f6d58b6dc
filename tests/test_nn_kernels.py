"""Byte-for-byte oracle tests for the im2col / col2im kernels.

``reference_im2col`` / ``reference_col2im`` keep the NCHW formulation the
channels-last kernels replaced: pad with ``np.pad``, gather into a 6-D
``(n, c, kh, kw, oh, ow)`` buffer, then transpose into patch rows; fold
back by accumulating each kernel offset into an NCHW buffer.  The fused
and reference training loops share the production kernels, so their
agreement cannot catch a change in both; these tests can, in float32 and
float64, for C-contiguous inputs and for the channels-last-backed NCHW
views that conv layers emit.
"""

import itertools

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn.tensor import fused_mode, no_grad, step_arena


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
