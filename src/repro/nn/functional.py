"""Array-level primitives and tensor ops for the CNN layers.

The convolution path uses im2col/col2im so that every convolution *is* a
matrix product — exactly how the crossbar hardware executes it, and the
hook through which the fault-aware layers substitute stuck-at-clamped
weight matrices (different ones for the forward and the backward MVM).
"""

from __future__ import annotations

import threading

import numpy as np

from repro.nn.tensor import Tensor, is_fused, is_grad_enabled, step_arena

__all__ = [
    "im2col",
    "col2im",
    "clear_scratch",
    "conv_output_size",
    "relu",
    "maxpool2d",
    "avgpool2d",
    "global_avgpool2d",
    "concat_channels",
    "softmax_cross_entropy",
    "softmax",
    "accuracy",
]


# --------------------------------------------------------------------- #
# im2col / col2im
# --------------------------------------------------------------------- #
#: reusable scratch arrays for the unfold/fold and batch-norm eval
#: temporaries, keyed by (tag, shape, dtype).  Layers hit the same handful
#: of shapes every batch, so the pool stays small while eliminating the
#: largest per-batch allocations.  The pool is *per thread*: the serving plane runs one
#: forward per replica thread concurrently, and identical shapes on two
#: threads must never share a buffer (the parallel benchmark runner forks
#: whole processes, each with its own pools).
_SCRATCH_TLS = threading.local()


def _scratch(tag: str, shape: tuple[int, ...], dtype) -> np.ndarray:
    pool = getattr(_SCRATCH_TLS, "pool", None)
    if pool is None:
        pool = _SCRATCH_TLS.pool = {}
    key = (tag, shape, np.dtype(dtype).str)
    buf = pool.get(key)
    if buf is None:
        buf = np.empty(shape, dtype=dtype)
        pool[key] = buf
    return buf


def clear_scratch() -> None:
    """Drop this thread's cached scratch buffers (frees memory between
    experiments; other threads' pools are theirs to clear)."""
    pool = getattr(_SCRATCH_TLS, "pool", None)
    if pool is not None:
        pool.clear()


def conv_output_size(size: int, kernel: int, stride: int, pad: int) -> int:
    out = (size + 2 * pad - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"convolution output collapsed: size={size} kernel={kernel} "
            f"stride={stride} pad={pad}"
        )
    return out


def im2col(
    x: np.ndarray, kh: int, kw: int, stride: int, pad: int
) -> tuple[np.ndarray, int, int]:
    """Unfold ``(N, C, H, W)`` into ``(N*OH*OW, C*KH*KW)`` patch rows.

    Returns ``(cols, OH, OW)``.  Row ordering is (n, oh, ow), column
    ordering is (c, kh, kw) — matching ``weight.reshape(out, -1)``.

    The unfold runs channels-last: the input is read as ``(N, H, W, C)``
    (a conv layer's output already is an NCHW view of such a buffer, so
    this costs nothing there) and each of the ``KH*KW`` kernel offsets is
    one strided slab copy straight into the ``(n, oh, ow, c, kh, kw)``
    row layout.
    """
    n, c, h, w = x.shape
    oh = conv_output_size(h, kh, stride, pad)
    ow = conv_output_size(w, kw, stride, pad)
    fused = is_fused()
    src = x.transpose(0, 2, 3, 1)
    if pad > 0:
        # The padded copy never escapes this function: it comes from the
        # step arena when fused and from the scratch pool otherwise.  The
        # edge strips are zero-filled on every call (a pooled buffer may
        # hold another layer's interior) and the interior overwritten —
        # exactly what np.pad would produce.
        hp, wp = h + 2 * pad, w + 2 * pad
        if fused:
            padded = step_arena().take((n, hp, wp, c), x.dtype)
        else:
            padded = _scratch("im2col_pad", (n, hp, wp, c), x.dtype)
        padded[:, :pad].fill(0.0)
        padded[:, hp - pad:].fill(0.0)
        padded[:, pad:hp - pad, :pad].fill(0.0)
        padded[:, pad:hp - pad, wp - pad:].fill(0.0)
        padded[:, pad:hp - pad, pad:wp - pad] = src
        src = padded
    # The returned patch matrix is captured by autograd closures and must
    # be a fresh allocation while a graph is being built; in inference
    # mode (no_grad) nothing outlives the layer's matmul, so it comes from
    # the scratch pool.  The fused path instead draws it from the step
    # arena: distinct within a step, recycled across steps (backward
    # always completes before the next forward).
    out_shape = (n * oh * ow, c * kh * kw)
    if fused:
        out = step_arena().take(out_shape, x.dtype)
    elif is_grad_enabled():
        out = np.empty(out_shape, dtype=x.dtype)
    else:
        out = _scratch("im2col_out", out_shape, x.dtype)
    rows = out.reshape(n, oh, ow, c, kh, kw)
    for i in range(kh):
        i_end = i + stride * oh
        for j in range(kw):
            j_end = j + stride * ow
            rows[..., i, j] = src[:, i:i_end:stride, j:j_end:stride]
    return out, oh, ow


def col2im(
    cols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: int,
    pad: int,
) -> np.ndarray:
    """Fold patch-row gradients back onto the input (adjoint of im2col).

    Accumulates channels-last, kernel offset by kernel offset, and returns
    an NCHW view of the ``(N, H, W, C)`` buffer.  The result lives in a
    reusable buffer: it is valid until the next ``col2im`` call with the
    same shape, so callers must consume it immediately
    (``Tensor.accumulate_grad`` copies or adds on the spot).
    """
    n, c, h, w = x_shape
    oh = conv_output_size(h, kh, stride, pad)
    ow = conv_output_size(w, kw, stride, pad)
    rows = cols.reshape(n, oh, ow, c, kh, kw)
    hp, wp = h + 2 * pad, w + 2 * pad
    if is_fused():
        acc = step_arena().take((n, hp, wp, c), cols.dtype)
    else:
        acc = _scratch("col2im", (n, hp, wp, c), cols.dtype)
    acc.fill(0.0)
    for i in range(kh):
        i_end = i + stride * oh
        for j in range(kw):
            j_end = j + stride * ow
            acc[:, i:i_end:stride, j:j_end:stride] += rows[..., i, j]
    return acc[:, pad:hp - pad, pad:wp - pad].transpose(0, 3, 1, 2)


# --------------------------------------------------------------------- #
# activations and pooling (tensor ops)
# --------------------------------------------------------------------- #
def relu(x: Tensor) -> Tensor:
    # np.maximum needs no materialised boolean mask; the backward mask is
    # only built if/when the tape actually runs.
    if is_fused() and is_grad_enabled():
        # take_like keeps the input's memory layout (conv activations are
        # transposed views); downstream reductions must see the same
        # iteration order as the reference path.
        arena = step_arena()
        out_data = arena.take_like(x.data)
        np.maximum(x.data, 0.0, out=out_data)

        def bwd(grad: np.ndarray) -> None:
            if x.requires_grad:
                mask = arena.take(x.data.shape, np.bool_)
                np.greater(x.data, 0, out=mask)
                g = arena.take(x.data.shape, x.data.dtype)
                np.multiply(grad, mask, out=g)
                x.accumulate_grad(g, donate=True)

        return Tensor(out_data, parents=(x,), backward=bwd)
    out_data = np.maximum(x.data, 0.0)

    def bwd(grad: np.ndarray) -> None:
        if x.requires_grad:
            x.accumulate_grad(grad * (x.data > 0))

    return Tensor(out_data, parents=(x,), backward=bwd)


def maxpool2d(x: Tensor, kernel: int = 2) -> Tensor:
    """Non-overlapping max pooling (kernel == stride).

    The input spatial size must be divisible by ``kernel`` — the models in
    this repository are built so that it always is.

    A first-max where-chain: the ``kernel x kernel`` window offsets are
    strided views of the input (free in any memory layout; a conv stack's
    channels-last activations keep their unit-stride channel axis), walked
    in row-major order with a strict ``>``.  Ties therefore keep the
    earliest cell, exactly as ``argmax`` does (ReLU zeros, ``+-0.0``,
    equal values); a NaN counts only in a window's first cell.  The output
    is C-contiguous NCHW; with autograd on, an int8 offset code per output
    element (same layout) routes the backward gradient.
    """
    n, c, h, w = x.shape
    if h % kernel or w % kernel:
        raise ValueError(f"maxpool2d: spatial dims ({h},{w}) not divisible by {kernel}")
    track = is_grad_enabled() and x.requires_grad
    fused = is_fused()
    best = x.data[:, :, 0::kernel, 0::kernel]
    code = np.int8(0)
    for k in range(1, kernel * kernel):
        cand = x.data[:, :, k // kernel::kernel, k % kernel::kernel]
        wins = cand > best
        best = np.where(wins, cand, best)
        if track:
            code = np.where(wins, np.int8(k), code)
    out_data = np.array(best, order="C")
    if not track:
        return Tensor(out_data)
    code = np.ascontiguousarray(code)  # kernel 1: a broadcast zero

    def bwd(grad: np.ndarray) -> None:
        if not x.requires_grad:
            return
        # Every input cell lies in exactly one window offset, so the
        # offset writes cover the buffer.  Fused, it is the arena buffer
        # accumulate_grad would have copied into, donated instead.
        if fused and x.grad is None:
            gx = step_arena().take((n, c, h, w), x.data.dtype)
        else:
            gx = np.empty((n, c, h, w), x.data.dtype)
        for k in range(kernel * kernel):
            gx[:, :, k // kernel::kernel, k % kernel::kernel] = np.where(code == k, grad, 0)
        x.accumulate_grad(gx, donate=True)

    return Tensor(out_data, parents=(x,), backward=bwd)


def avgpool2d(x: Tensor, kernel: int = 2) -> Tensor:
    """Non-overlapping average pooling (kernel == stride)."""
    n, c, h, w = x.shape
    if h % kernel or w % kernel:
        raise ValueError(f"avgpool2d: spatial dims ({h},{w}) not divisible by {kernel}")
    oh, ow = h // kernel, w // kernel
    windows = x.data.reshape(n, c, oh, kernel, ow, kernel)
    out_data = windows.mean(axis=(3, 5))
    scale = 1.0 / (kernel * kernel)

    def bwd(grad: np.ndarray) -> None:
        if not x.requires_grad:
            return
        gx = np.repeat(np.repeat(grad, kernel, axis=2), kernel, axis=3) * scale
        x.accumulate_grad(gx)

    return Tensor(out_data, parents=(x,), backward=bwd)


def global_avgpool2d(x: Tensor) -> Tensor:
    """Average over all spatial positions -> (N, C)."""
    n, c, h, w = x.shape
    out_data = x.data.mean(axis=(2, 3))
    scale = 1.0 / (h * w)

    def bwd(grad: np.ndarray) -> None:
        if x.requires_grad:
            # Scale the small (N, C) gradient first, then broadcast the
            # view — accumulate_grad copies/adds immediately, so no full
            # (N, C, H, W) temporary is ever materialised here.
            gx = np.broadcast_to(grad[:, :, None, None] * scale, x.data.shape)
            x.accumulate_grad(gx)

    return Tensor(out_data, parents=(x,), backward=bwd)


def concat_channels(tensors: list[Tensor]) -> Tensor:
    """Concatenate 4-D tensors along the channel axis (SqueezeNet fire)."""
    if not tensors:
        raise ValueError("concat_channels needs at least one tensor")
    out_data = np.concatenate([t.data for t in tensors], axis=1)
    sizes = [t.shape[1] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def bwd(grad: np.ndarray) -> None:
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                t.accumulate_grad(grad[:, lo:hi])

    return Tensor(out_data, parents=tuple(tensors), backward=bwd)


# --------------------------------------------------------------------- #
# classification head
# --------------------------------------------------------------------- #
def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def softmax_cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean softmax cross-entropy over a batch of integer labels."""
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.shape[0] != logits.shape[0]:
        raise ValueError("labels must be a 1-D batch of class indices")
    probs = softmax(logits.data)
    n = labels.shape[0]
    eps = 1e-12
    loss = -np.log(probs[np.arange(n), labels] + eps).mean()

    def bwd(grad: np.ndarray) -> None:
        if logits.requires_grad:
            g = probs.copy()
            g[np.arange(n), labels] -= 1.0
            logits.accumulate_grad(g * (float(grad) / n))

    return Tensor(np.asarray(loss), parents=(logits,), backward=bwd)


def accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Top-1 classification accuracy."""
    return float((logits.argmax(axis=1) == np.asarray(labels)).mean())
