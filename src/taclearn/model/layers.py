"""Neural network layer primitives with explicit backward passes.

The conv layers compute in their input's dtype, with the weights cast on
each call: float32 for training and embedding, float64 for the
finite-difference gradient checks. Convolution is im2col with the batch
folded into the GEMM columns: `cols` is channel-major, (Cin*kh*kw,
N*OH*OW), gathered with one copy from a `sliding_window_view` of the input
transposed to (Cin, N, H, W) and written into a padded buffer (border
zeroed, interior assigned), so each direction is one GEMM. An input whose channels are one
broadcast plane (stride 0 on the channel axis, as the encoder feeds a tactile
image to its three input channels) is padded and gathered once, and its
kh*kw rows are copied to the other channels: the columns, and so the GEMM,
are those of the explicit copy. Forward returns (N, Cout, OH, OW) as a
transposed view of (Cout, N, OH, OW) memory, which makes the next block's
transpose free. Backward forms dW and db from the same columns; for dX it
scatters the column gradients back through the same gather, so the pair is
exactly adjoint and survives finite-difference checks. Block 0 calls it with
`input_grad=False`, which skips the dX GEMM and the scatter, since nothing
upstream takes a gradient.

Every call allocates its padded input and its columns afresh. A forward-only
caller passes `keep_cache=False`: no cache is returned, so both buffers are
freed when the call returns and nothing outlives it but the output.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def _col_slices(kh, kw, stride, out_h, out_w):
    for ki in range(kh):
        for kj in range(kw):
            yield ki, kj, slice(ki, ki + stride * (out_h - 1) + 1, stride), slice(
                kj, kj + stride * (out_w - 1) + 1, stride
            )


def conv_forward(x, w, b, stride=2, pad=1, keep_cache=True):
    """x: (N, Cin, H, W), w: (Cout, Cin, kh, kw), b: (Cout,); computes in x's dtype.

    Returns (out, cache); the cache is None unless `keep_cache`.
    """
    n, c, h, width = x.shape
    c_out, _, kh, kw = w.shape
    w, b = w.astype(x.dtype, copy=False), b.astype(x.dtype, copy=False)
    out_h = (h + 2 * pad - kh) // stride + 1
    out_w = (width + 2 * pad - kw) // stride + 1
    src = x[:, :1] if x.strides[1] == 0 else x  # one plane behind every channel
    c_src = src.shape[1]
    xp = np.empty((c_src, n, h + 2 * pad, width + 2 * pad), x.dtype)
    xp[:, :, :pad] = 0.0
    xp[:, :, pad + h :] = 0.0
    xp[:, :, pad : pad + h, :pad] = 0.0
    xp[:, :, pad : pad + h, pad + width :] = 0.0
    xp[:, :, pad : pad + h, pad : pad + width] = src.transpose(1, 0, 2, 3)
    windows = sliding_window_view(xp, (kh, kw), axis=(2, 3))[:, :, ::stride, ::stride]
    cols = np.empty((c, kh, kw, n, out_h, out_w), x.dtype)
    cols[:c_src] = windows.transpose(0, 4, 5, 1, 2, 3)
    cols[c_src:] = cols[:1]
    cols = cols.reshape(c * kh * kw, n * out_h * out_w)
    out = w.reshape(c_out, -1) @ cols
    out += b[:, None]
    cache = (x.shape, cols, w, stride, pad, out_h, out_w) if keep_cache else None
    return out.reshape(c_out, n, out_h, out_w).transpose(1, 0, 2, 3), cache


def conv_backward(dout, cache, input_grad=True):
    """Returns (dx, dw, db) in the forward pass's dtype; dx is None when
    `input_grad` is false."""
    x_shape, cols, w, stride, pad, out_h, out_w = cache
    n, c, h, width = x_shape
    c_out, _, kh, kw = w.shape
    dm = dout.transpose(1, 0, 2, 3).reshape(c_out, -1)
    dw = (dm @ cols.T).reshape(w.shape)
    db = dm.sum(axis=1)
    if not input_grad:
        return None, dw, db
    dcols = (w.reshape(c_out, -1).T @ dm).reshape(c, kh, kw, n, out_h, out_w)
    dxp = np.zeros((c, n, h + 2 * pad, width + 2 * pad), dcols.dtype)
    for ki, kj, si, sj in _col_slices(kh, kw, stride, out_h, out_w):
        dxp[:, :, si, sj] += dcols[:, ki, kj]
    dx = dxp[:, :, pad : pad + h, pad : pad + width].transpose(1, 0, 2, 3)
    return dx, dw, db


def relu_backward(dout, x):
    """`x` is the ReLU's input or its output: both are positive at the same entries."""
    return dout * (x > 0)


def gap_forward(x):
    """Global average pool (N, C, H, W) -> (N, C)."""
    return x.mean(axis=(2, 3)), x.shape


def gap_backward(dout, x_shape):
    n, c, h, w = x_shape
    return np.broadcast_to(dout[:, :, None, None], x_shape) / (h * w)


def linear_forward(emb, w, b):
    """emb: (N, d), w: (d, C), b: (C,) -> logits (N, C)."""
    return emb @ w + b


def linear_backward(dout, emb, w):
    dw = emb.T @ dout
    db = dout.sum(axis=0)
    demb = dout @ w.T
    return demb, dw, db


def softmax(logits):
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def softmax_cross_entropy(logits, labels):
    """Mean cross-entropy over the batch; returns (loss, dlogits)."""
    n = logits.shape[0]
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1))
    loss = float(np.mean(log_z - shifted[np.arange(n), labels]))
    dlogits = softmax(logits)
    dlogits[np.arange(n), labels] -= 1.0
    return loss, dlogits / n


def sigmoid(z):
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def binary_cross_entropy_logits(logits, targets):
    """Mean BCE over all entries; returns (loss, dlogits). Targets in {0,1}."""
    z, y = logits, targets
    per = np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))
    loss = float(per.mean())
    dlogits = (sigmoid(z) - y) / z.size
    return loss, dlogits
