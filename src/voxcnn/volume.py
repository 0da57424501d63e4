"""The raw 3D sliding-window kernels over batches of volumes.

A volume is a rank-4 ``numpy`` array with axes ``(x, y, z, c)``, stored
row-major with the channel axis fastest.  The kernels take a batch, a rank-5
array ``(n, x, y, z, c)``, and raise ``ShapeError`` for any other rank; the
layer graph is their only caller.

All kernels are pure functions.  Accumulation precision follows the input
dtype: float64 inputs give the single-order deterministic results the test
oracles rely on, float32 is the training path.

Convolution runs as matrix products over copies of the strided window view.
The copy goes in the order whose innermost axis has unit stride in the
input: z for a one-channel input at stride 1 (a tap-major window matrix),
the channel axis otherwise (``tensordot``'s channel-major one).  The input
gradient is one small GEMM per kernel tap into a single reused buffer, each
followed by a strided slice-add, so its products and summation order are
those of a per-tap ``tensordot`` loop.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import ShapeError

__all__ = [
    "Kernel",
    "conv_output_extent",
    "correlate3d_batch",
    "correlate3d_vjp_batch",
    "maxpool3d_batch",
    "maxpool3d_vjp_batch",
]


@dataclass
class Kernel:
    """Cubic correlation kernel: weights ``(k, k, k, c_in, c_out)``, bias ``(c_out,)``."""

    weights: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights)
        if w.ndim != 5 or not (w.shape[0] == w.shape[1] == w.shape[2]):
            raise ShapeError(f"kernel weights must be (k, k, k, c_in, c_out), got {w.shape}")
        if w.shape[0] < 1 or w.shape[3] < 1 or w.shape[4] < 1:
            raise ShapeError("kernel dims must all be >= 1")
        b = np.asarray(self.bias)
        if b.shape != (w.shape[4],):
            raise ShapeError(f"bias must have shape ({w.shape[4]},), got {b.shape}")
        self.weights = w
        self.bias = b

    @property
    def k(self) -> int:
        return self.weights.shape[0]

    @property
    def c_in(self) -> int:
        return self.weights.shape[3]

    @property
    def c_out(self) -> int:
        return self.weights.shape[4]


def conv_output_extent(extent: int, k: int, padding: int, stride: int) -> int:
    """Shape law: floor((in + 2*padding - k) / stride) + 1."""
    if stride < 1:
        raise ShapeError(f"stride must be >= 1, got {stride}")
    out = (extent + 2 * padding - k) // stride + 1
    if out < 1:
        raise ShapeError(
            f"window {k} does not fit extent {extent} with padding {padding}"
        )
    return out


def _windows(batch: np.ndarray, k: int, stride: int, padding: int) -> np.ndarray:
    """Strided read-only view of all kernel windows: (n, ox, oy, oz, c, k, k, k)."""
    if padding:
        pad = [(0, 0)] + [(padding, padding)] * 3 + [(0, 0)]
        batch = np.pad(batch, pad)
    for axis in range(1, 4):
        if batch.shape[axis] < k:
            raise ShapeError(
                f"kernel size {k} exceeds padded extent {batch.shape[axis]} on axis {axis - 1}"
            )
    n, _, _, _, c = batch.shape
    out = [conv_output_extent(e, k, 0, stride) for e in batch.shape[1:4]]
    sn, sx, sy, sz, sc = batch.strides
    return as_strided(batch, shape=(n, *out, c, k, k, k),
                      strides=(sn, sx * stride, sy * stride, sz * stride, sc, sx, sy, sz),
                      writeable=False)


def _check_batch(batch: np.ndarray) -> None:
    if batch.ndim != 5:
        raise ShapeError(f"input must be rank-5 (n, x, y, z, c), got shape {batch.shape}")


def correlate3d_batch(batch: np.ndarray, kernel: Kernel, stride: int = 1, padding: int = 0) -> np.ndarray:
    """Cross-correlate a batch ``(n, x, y, z, c_in)`` with a cubic kernel."""
    _check_batch(batch)
    if batch.shape[4] != kernel.c_in:
        raise ShapeError(f"input channels {batch.shape[4]} != kernel c_in {kernel.c_in}")
    k = kernel.k
    win = _windows(batch, k, stride, padding)
    if kernel.c_in == 1 and stride == 1:
        # Tap-major gather: each copied run is a contiguous stretch along z.
        n, ox, oy, oz = win.shape[:4]
        cols = win.transpose(5, 6, 7, 4, 0, 1, 2, 3).reshape(k**3, n * ox * oy * oz)
        out = (cols.T @ kernel.weights.reshape(k**3, kernel.c_out)).reshape(n, ox, oy, oz, kernel.c_out)
    else:
        out = np.tensordot(win, kernel.weights, axes=([5, 6, 7, 4], [0, 1, 2, 3]))
    out += kernel.bias
    return out


def correlate3d_vjp_batch(batch, kernel: Kernel, grad_out, stride: int = 1, padding: int = 0):
    """Vector-Jacobian products of :func:`correlate3d_batch`.

    Returns ``(grad_input, grad_weights, grad_bias)``.
    """
    _check_batch(batch)
    k, c_in = kernel.k, kernel.c_in
    expect = (batch.shape[0],) + tuple(
        conv_output_extent(batch.shape[i + 1], k, padding, stride) for i in range(3)
    ) + (kernel.c_out,)
    if grad_out.shape != expect:
        raise ShapeError(f"grad_out shape {grad_out.shape} != forward output shape {expect}")
    n, ox, oy, oz, c_out = expect

    win = _windows(batch, k, stride, padding)
    # (n, ox, oy, oz, c_in, k, k, k) x (n, ox, oy, oz, c_out) over the batch axes
    gw = np.tensordot(win, grad_out, axes=([0, 1, 2, 3], [0, 1, 2, 3]))
    grad_weights = gw.transpose(1, 2, 3, 0, 4)
    grad_bias = grad_out.sum(axis=(0, 1, 2, 3))

    padded_shape = (n,) + tuple(batch.shape[i + 1] + 2 * padding for i in range(3)) + (c_in,)
    grad_padded = np.zeros(padded_shape, dtype=grad_out.dtype)
    # Scatter one kernel offset at a time: k^3 GEMMs into one reused buffer,
    # each followed by a strided slice-add.
    rows = grad_out.reshape(-1, c_out)
    w_t = np.ascontiguousarray(kernel.weights.transpose(0, 1, 2, 4, 3))  # (k, k, k, c_out, c_in)
    buf = np.empty((rows.shape[0], c_in), dtype=np.result_type(rows, w_t))
    gi = buf.reshape(n, ox, oy, oz, c_in)
    for a in range(k):
        for b in range(k):
            for c in range(k):
                np.matmul(rows, w_t[a, b, c], out=buf)
                grad_padded[
                    :,
                    a : a + stride * ox : stride,
                    b : b + stride * oy : stride,
                    c : c + stride * oz : stride,
                    :,
                ] += gi
    if padding:
        grad_input = grad_padded[:, padding:-padding, padding:-padding, padding:-padding, :]
    else:
        grad_input = grad_padded
    return grad_input, grad_weights, grad_bias


def _taps(batch: np.ndarray, window: int, stride: int, extents) -> list[np.ndarray]:
    """Strided views ``(n, ox, oy, oz, c)`` of each tap of every pooling window, in scan order."""
    axes = [[slice(o, o + stride * (e - 1) + 1, stride) for o in range(window)] for e in extents]
    return [batch[:, sx, sy, sz] for sx in axes[0] for sy in axes[1] for sz in axes[2]]


def maxpool3d_batch(batch: np.ndarray, window: int, stride: int) -> np.ndarray:
    """Valid max pooling over a batch ``(n, x, y, z, c)``; returns the pooled batch.

    A running maximum over the ``window**3`` strided taps of every window, so
    a NaN anywhere in a window gives NaN.  Which tap won is backward work:
    :func:`maxpool3d_vjp_batch` finds it from the same input.
    """
    n, x, y, z, c = batch.shape
    for extent in (x, y, z):
        if window > extent:
            raise ShapeError(f"pool window {window} exceeds spatial extent {extent}")
    taps = _taps(batch, window, stride, [(e - window) // stride + 1 for e in (x, y, z)])
    out = taps[0].copy()
    for tap in taps[1:]:
        np.maximum(out, tap, out=out)
    return out


def _first_max_indices(batch: np.ndarray, out: np.ndarray, window: int, stride: int) -> np.ndarray:
    """Flat index into ``batch`` of each pooling window's first maximum in scan order.

    A window's maximum is its entry of ``out``; a window whose maximum is NaN
    routes to its first NaN, as ``argmax`` would.
    """
    n, x, y, z, c = batch.shape
    _, ox, oy, oz, _ = out.shape
    taps = _taps(batch, window, stride, (ox, oy, oz))
    shifts = [((a * y + b) * z + d) * c for a, b, d in itertools.product(range(window), repeat=3)]
    nan = bool(np.isnan(out).any())
    shift = np.zeros(out.shape, dtype=np.intp)
    # Last tap to first, so that the earliest tap holding the maximum is written last.
    for tap, tap_shift in zip(reversed(taps), reversed(shifts)):
        hit = tap == out
        if nan:
            hit |= np.isnan(tap)
        np.copyto(shift, tap_shift, where=hit)
    ix = stride * np.arange(ox).reshape(1, ox, 1, 1, 1)
    iy = stride * np.arange(oy).reshape(1, 1, oy, 1, 1)
    iz = stride * np.arange(oz).reshape(1, 1, 1, oz, 1)
    ib = np.arange(n).reshape(n, 1, 1, 1, 1)
    ic = np.arange(c).reshape(1, 1, 1, 1, c)
    return (((ib * x + ix) * y + iy) * z + iz) * c + ic + shift


def maxpool3d_vjp_batch(batch: np.ndarray, out: np.ndarray, grad_out: np.ndarray,
                        window: int, stride: int) -> np.ndarray:
    """VJP of :func:`maxpool3d_batch` at input ``batch`` with output ``out``.

    Each window's gradient goes to its first maximum in scan order (a tie
    routes to the earliest tap); overlapping windows accumulate.
    """
    n, x, y, z, c = batch.shape
    expect = (n,) + tuple((e - window) // stride + 1 for e in (x, y, z)) + (c,)
    if out.shape != expect or grad_out.shape != expect:
        raise ShapeError(f"pooled shape {out.shape} and grad_out shape {grad_out.shape} "
                         f"must both be {expect} for input {batch.shape}")
    indices = _first_max_indices(batch, out, window, stride)
    grad = np.zeros(batch.size, dtype=grad_out.dtype)
    np.add.at(grad, indices.ravel(), grad_out.ravel())
    return grad.reshape(batch.shape)
