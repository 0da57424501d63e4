"""The raw 3D sliding-window kernels over batches of volumes.

A volume is a rank-4 ``numpy`` array with axes ``(x, y, z, c)``, stored
row-major with the channel axis fastest.  The kernels take a batch, a rank-5
array ``(n, x, y, z, c)``; the layer graph is their only caller.

Convolution and pooling share one shape law, :func:`conv_output_extent`
(pooling at padding 0), which the layer graph's summary also uses.  A
:class:`Kernel` is a bare ``(weights, bias)`` pair, checked at each call.
Any input a kernel cannot take raises ``ShapeError``: another rank, a stride
or window below 1, a window that does not fit, or a kernel that is not
cubic, has an empty dimension, a bias of another length or another
channel count than the input.

Each kernel's results are a pure function of its inputs, and no result
shares memory with anything but its inputs.  Accumulation precision follows
the input dtype: float64 inputs give the single-order deterministic results
the test oracles rely on, float32 is the training path.

Convolution runs as matrix products over window matrices gathered one
tile at a time.  A tile is a run of whole output x-planes of one sample: as
many as fit ``_TILE_BYTES`` of window matrix, and at least one.  The tile
plan follows from the shapes alone, never from the batch, so every tile's
product has the same shape at any batch size, and a sample's forward result
has the same bits whatever it is batched with.  Each tile is copied from
the strided window view, built once per call, into one reused scratch tile,
in the order whose innermost axis has unit stride in the input: z for a
one-channel input at stride 1 (a tap-major window matrix), the channel axis
otherwise (``tensordot``'s channel-last one); a 1x1x1 kernel at stride 1
multiplies an uncopied view.  The forward writes each tile's product into
its rows of the output.  The weight gradient adds the tiles' products in
(sample, tile) order, so it is ``tensordot``'s per tile, summed in that
order.  The input gradient gathers no windows: it is one GEMM per kernel
tap over the whole batch into a single reused buffer, each followed by a
strided slice-add, so its products and summation order are those of a
per-tap ``tensordot`` loop, and the tile budget does not change its bits.

The temporaries (the zero-padded input, the window tile and the per-tap
product) are views of one scratch buffer per thread.  A conv call therefore
holds one tile of windows, whatever the batch; the padded input and the
per-tap product still grow with it.  Inside a :func:`reusing_scratch`
block, which wraps a training run or a batched prediction, the buffer is
kept from call to call, so step after step maps no fresh pages; it then
holds the largest set of temporaries its thread has needed, until the
outermost block exits.  Outside any block each call's temporaries are fresh
and freed at its return.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import threading
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import ShapeError

# Each thread's conv temporaries: one growable byte buffer (``scratch``), kept
# while ``depth`` reusing_scratch blocks are open on the thread.
_thread = threading.local()
_ALIGN = 64  # bytes between the starts of arrays laid out in one buffer

# The byte budget of one tile's window matrix.  Every conv of pet_8_mini,
# two_branch_mini and mri_9_mini at 16^3 in float32 is one tile per sample
# (the largest, their second conv's, is 0.75 MB), and a tile is small
# enough to stay in a core's L2 cache while its product reads it.
_TILE_BYTES = 1 << 20

# Axis orders of a tile's window view ``(planes, oy, oz, c, k, k, k)``.
_CHANNEL_LAST = (0, 1, 2, 4, 5, 6, 3)  # (positions, taps x channels): tensordot's forward one
_TAP_MAJOR = (4, 5, 6, 3, 0, 1, 2)  # (taps x channels, positions): unit-stride z runs for c == 1
_CHANNEL_FIRST = (3, 4, 5, 6, 0, 1, 2)  # (channels x taps, positions): the weight gradient's

__all__ = [
    "Kernel",
    "conv_output_extent",
    "correlate3d_batch",
    "correlate3d_vjp_batch",
    "maxpool3d_batch",
    "maxpool3d_vjp_batch",
    "reusing_scratch",
]


class Kernel(NamedTuple):
    """Cubic correlation kernel: weights ``(k, k, k, c_in, c_out)``, bias ``(c_out,)``.

    A bare pair: each conv kernel checks it against its input at the call.
    """

    weights: np.ndarray
    bias: np.ndarray


def conv_output_extent(extent: int, k: int, padding: int, stride: int) -> int:
    """Shape law: floor((in + 2*padding - k) / stride) + 1."""
    if stride < 1:
        raise ShapeError(f"stride must be >= 1, got {stride}")
    if k < 1:
        raise ShapeError(f"window must be >= 1, got {k}")
    out = (extent + 2 * padding - k) // stride + 1
    if out < 1:
        raise ShapeError(
            f"window {k} does not fit extent {extent} with padding {padding}"
        )
    return out


def _window_extents(batch: np.ndarray, k: int, stride: int, padding: int) -> tuple:
    """``(n, ox, oy, oz)`` of ``k``-wide windows over a rank-5 batch, by the shape law."""
    if batch.ndim != 5:
        raise ShapeError(f"input must be rank-5 (n, x, y, z, c), got shape {batch.shape}")
    return batch.shape[:1] + tuple(conv_output_extent(e, k, padding, stride) for e in batch.shape[1:4])


def _conv_shape(batch: np.ndarray, kernel: Kernel, stride: int, padding: int) -> tuple:
    """The output shape of correlating ``batch`` with ``kernel``, once both are checked."""
    w, b = kernel
    if w.ndim != 5 or not (w.shape[0] == w.shape[1] == w.shape[2]) or 0 in w.shape:
        raise ShapeError(f"kernel weights must be (k, k, k, c_in, c_out), each >= 1, got {w.shape}")
    k, _, _, c_in, c_out = w.shape
    if b.shape != (c_out,):
        raise ShapeError(f"bias must have shape ({c_out},), got {b.shape}")
    extents = _window_extents(batch, k, stride, padding)
    if batch.shape[4] != c_in:
        raise ShapeError(f"input channels {batch.shape[4]} != kernel c_in {c_in}")
    return extents + (c_out,)


@contextlib.contextmanager
def reusing_scratch():
    """Keep this thread's scratch buffer from one kernel call to the next while the block runs.

    A training run or a batched prediction makes the same conv calls batch
    after batch; inside this block they gather into one buffer instead of
    allocating their temporaries afresh.  Blocks nest, and the outermost one
    drops the buffer on exit, so nothing is held between runs.  Also usable
    as a function decorator.
    """
    depth = getattr(_thread, "depth", 0)
    _thread.depth = depth + 1
    try:
        yield
    finally:
        _thread.depth = depth
        if not depth:
            _thread.scratch = None


def _scratch(*layouts):
    """Arrays of the given ``(shape, dtype)`` layouts, end to end in one scratch buffer.

    Inside a :func:`reusing_scratch` block the buffer is the thread's kept
    one, grown when a request needs more, and every call hands out the same
    memory again: an array is valid until its thread's next call, and no
    kernel returns one.  Outside, the buffer is fresh.
    """
    offsets, end = [], 0
    for shape, dtype in layouts:
        offsets.append(end)
        end += -(-math.prod(shape) * dtype.itemsize // _ALIGN) * _ALIGN
    buf = getattr(_thread, "scratch", None)
    if buf is None or buf.size < end:
        buf = np.empty(end, dtype=np.uint8)
        if getattr(_thread, "depth", 0):
            _thread.scratch = buf
    return [np.ndarray(shape, dtype, buffer=buf, offset=offset)
            for (shape, dtype), offset in zip(layouts, offsets)]


def _collapses(shape, strides) -> bool:
    """Whether axes of ``shape`` and ``strides`` merge into one axis without a copy.

    ``reshape``'s rule: apart from length-1 axes, each axis steps exactly
    over the whole of the next one.
    """
    dims = [(e, s) for e, s in zip(shape, strides) if e != 1]
    return all(outer == e * inner for (_, outer), (e, inner) in zip(dims, dims[1:]))


def _padded_shape(batch: np.ndarray, padding: int) -> tuple:
    return batch.shape[:1] + tuple(e + 2 * padding for e in batch.shape[1:4]) + batch.shape[4:]


def _window_tiles(batch: np.ndarray, k: int, stride: int, padding: int, extents, axes):
    """Yield ``(rows, matrix)`` for each tile of ``batch``'s kernel windows, in (sample, tile) order.

    A tile is a run of whole output x-planes of one sample: as many as fit
    ``_TILE_BYTES`` of window matrix, and at least one.  ``rows`` slices the
    tile's positions out of the output's ``(n, ox, oy, oz)`` positions taken
    flat; ``extents`` are the output's ``(ox, oy, oz)``.  The strided window
    view ``(n, ox, oy, oz, c, k, k, k)`` is built once per call.  A tile's part
    of it, ``(planes, oy, oz, c, k, k, k)``, is transposed to ``axes`` and
    reshaped as ``tensordot`` would, its positions into the rows when they
    come first, else into the columns: a view where the layout allows one (a
    1x1x1 kernel at stride 1, or a kernel as large as the input), else a copy
    into one scratch tile, which the next tile overwrites.  The zero-padded
    input is a scratch array too.
    """
    n, c = batch.shape[0], batch.shape[4]
    ox, oy, oz = extents
    plane = oy * oz * k**3 * c
    planes = max(1, min(ox, _TILE_BYTES // (plane * batch.dtype.itemsize)))
    if padding:
        padded, tile = _scratch((_padded_shape(batch, padding), batch.dtype),
                                ((planes * plane,), batch.dtype))
        padded.fill(0)
        padded[:, padding:-padding, padding:-padding, padding:-padding, :] = batch
        batch = padded
    else:
        (tile,) = _scratch(((planes * plane,), batch.dtype))
    sn, sx, sy, sz, sc = batch.strides
    win = as_strided(batch, shape=(n, ox, oy, oz, c, k, k, k),
                     strides=(sn, sx * stride, sy * stride, sz * stride, sc, sx, sy, sz),
                     writeable=False)
    split = 3 if axes[0] == 0 else 4  # the first group of axes: positions, or the window's
    layouts = {}  # planes in a tile -> (the copy's destination, or None for a view; matrix shape)
    for s in range(n):
        for x0 in range(0, ox, planes):
            x1 = min(x0 + planes, ox)
            rows = slice((s * ox + x0) * oy * oz, (s * ox + x1) * oy * oz)
            part = win[s, x0:x1].transpose(axes)
            if x1 - x0 not in layouts:  # a tile's strides depend only on its plane count
                head, tail = part.shape[:split], part.shape[split:]
                view = _collapses(head, part.strides[:split]) and _collapses(tail, part.strides[split:])
                dest = None if view else tile[: part.size].reshape(part.shape)
                layouts[x1 - x0] = dest, (math.prod(head), math.prod(tail))
            dest, shape = layouts[x1 - x0]
            if dest is None:
                yield rows, part.reshape(shape)
            else:
                np.copyto(dest, part)
                yield rows, dest.reshape(shape)


def correlate3d_batch(batch: np.ndarray, kernel: Kernel, stride: int = 1, padding: int = 0) -> np.ndarray:
    """Cross-correlate a batch ``(n, x, y, z, c_in)`` with a cubic kernel."""
    out_shape = _conv_shape(batch, kernel, stride, padding)
    k, _, _, c_in, c_out = kernel.weights.shape
    weights = kernel.weights.reshape(k**3 * c_in, c_out)
    out = np.empty(out_shape, np.result_type(batch, weights))
    flat = out.reshape(-1, c_out)
    # Tap-major for a one-channel input at stride 1: each copied run is a contiguous stretch along z.
    tap_major = c_in == 1 and stride == 1
    for rows, win in _window_tiles(batch, k, stride, padding, out_shape[1:4],
                                   _TAP_MAJOR if tap_major else _CHANNEL_LAST):
        np.dot(win.T if tap_major else win, weights, out=flat[rows])
    out += kernel.bias
    return out


def correlate3d_vjp_batch(batch, kernel: Kernel, grad_out, stride: int = 1, padding: int = 0):
    """Vector-Jacobian products of :func:`correlate3d_batch`.

    Returns ``(grad_input, grad_weights, grad_bias)``.
    """
    expect = _conv_shape(batch, kernel, stride, padding)
    if grad_out.shape != expect:
        raise ShapeError(f"grad_out shape {grad_out.shape} != forward output shape {expect}")
    k, _, _, c_in, _ = kernel.weights.shape
    n, ox, oy, oz, c_out = expect
    rows = grad_out.reshape(-1, c_out)

    # Channel-first windows of each tile against its upstream gradient rows,
    # the products summed in (sample, tile) order.
    grad_weights = np.empty((c_in * k**3, c_out), np.result_type(batch, rows))
    product = np.empty_like(grad_weights)
    tiles = _window_tiles(batch, k, stride, padding, (ox, oy, oz), _CHANNEL_FIRST)
    for i, (tile_rows, win) in enumerate(tiles):
        np.dot(win, rows[tile_rows], out=product if i else grad_weights)
        if i:
            grad_weights += product
    grad_weights = grad_weights.reshape(c_in, k, k, k, c_out).transpose(1, 2, 3, 0, 4)
    grad_bias = grad_out.sum(axis=(0, 1, 2, 3))

    grad_padded = np.zeros(_padded_shape(batch, padding), dtype=grad_out.dtype)
    # Scatter one kernel offset at a time: k^3 GEMMs into one reused buffer,
    # each followed by a strided slice-add.
    w_t = np.ascontiguousarray(kernel.weights.transpose(0, 1, 2, 4, 3))  # (k, k, k, c_out, c_in)
    (buf,) = _scratch(((len(rows), c_in), np.result_type(rows, w_t)))
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
    taps = _taps(batch, window, stride, _window_extents(batch, window, stride, 0)[1:])
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
    expect = _window_extents(batch, window, stride, 0) + batch.shape[4:]
    if out.shape != expect or grad_out.shape != expect:
        raise ShapeError(f"pooled shape {out.shape} and grad_out shape {grad_out.shape} "
                         f"must both be {expect} for input {batch.shape}")
    indices = _first_max_indices(batch, out, window, stride)
    grad = np.zeros(batch.size, dtype=grad_out.dtype)
    np.add.at(grad, indices.ravel(), grad_out.ravel())
    return grad.reshape(batch.shape)
