"""Computed convolution work, derived from ``graph.summarize`` shapes.

Per sample, a convolution with output extent ``ox*oy*oz``, cubic kernel
``k`` and channels ``c_in -> c_out`` performs ``ox*oy*oz * k^3 * c_in *
c_out`` multiply-accumulates in its forward pass.  Its VJP performs the same
count twice: once for the weight gradient and once for the input gradient,
which the program computes for every convolution, frozen or not.

The forward pass and the weight-gradient pass each materialize the window
matrix (the strided window view copied by ``tensordot``) of ``n * ox*oy*oz *
k^3 * c_in`` elements for a batch of ``n``.  These are computed figures, not
measured traffic: cache behaviour is not in them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from voxcnn import graph


@dataclass(frozen=True)
class ConvShape:
    out: tuple  # (ox, oy, oz)
    k: int
    c_in: int
    c_out: int

    @property
    def macs(self) -> int:
        ox, oy, oz = self.out
        return ox * oy * oz * self.k**3 * self.c_in * self.c_out

    @property
    def window_elems(self) -> int:
        ox, oy, oz = self.out
        return ox * oy * oz * self.k**3 * self.c_in


def conv_shapes(spec: graph.ModelSpec) -> list[ConvShape]:
    """Every convolution a single-branch spec runs, read off its summary rows.

    Row ``i + 1`` of ``graph.summarize`` is the output of layer ``i``; a
    residual block's row gives the output shared by its two 3x3x3
    convolutions and, when the channel count or stride changes, its 1x1x1
    projection.
    """
    if spec.is_two_branch:
        raise ValueError("count each branch model separately")
    rows = graph.summarize(spec).rows
    shapes = []
    for i, lspec in enumerate(spec.layers):
        in_dims, out_dims = rows[i].output_dims, rows[i + 1].output_dims
        if lspec.kind == "conv3d":
            shapes.append(ConvShape(tuple(out_dims[:3]), lspec.k, in_dims[3], out_dims[3]))
        elif lspec.kind == "residual_block":
            out, c_in, f = tuple(out_dims[:3]), in_dims[3], out_dims[3]
            shapes.append(ConvShape(out, 3, c_in, f))
            shapes.append(ConvShape(out, 3, f, f))
            if tuple(in_dims[:3]) != out or c_in != f:
                shapes.append(ConvShape(out, 1, c_in, f))
    return shapes


def forward_macs(spec) -> int:
    return sum(s.macs for s in conv_shapes(spec))


def vjp_macs(spec) -> int:
    return 2 * forward_macs(spec)


def max_window_elems(spec) -> int:
    return max((s.window_elems for s in conv_shapes(spec)), default=0)


# ---------------------------------------------------------------------------
# Brute-force check on a tiny shape

TINY_SPEC = {
    "name": "opcount_tiny",
    "input_dims": [6, 5, 6, 2],
    "layers": [
        {"kind": "conv3d", "filters": 3, "k": 3, "stride": 2, "padding": 1, "activation": "relu"},
        {"kind": "residual_block", "filters": 4, "stride": 1},
        {"kind": "conv3d", "filters": 2, "k": 2, "stride": 1, "padding": 0, "activation": "relu"},
        {"kind": "global_avg_pool3d"},
        {"kind": "dense", "units": 3, "activation": "softmax"},
    ],
}


def _padded_windows(batch, k, stride, padding):
    pad = [(0, 0)] + [(padding, padding)] * 3 + [(0, 0)]
    xp = np.pad(batch, pad)
    ext = [(xp.shape[a + 1] - k) // stride + 1 for a in range(3)]
    for b in range(batch.shape[0]):
        for pos in np.ndindex(*ext):
            lo = [p * stride for p in pos]
            yield (b, *pos), tuple(lo), xp[b, lo[0] : lo[0] + k, lo[1] : lo[1] + k, lo[2] : lo[2] + k, :]


def naive_correlate(batch, weights, stride, padding):
    """Loop-by-loop correlation; returns (output, MACs, window elements gathered)."""
    k, c_out = weights.shape[0], weights.shape[4]
    ext = [(batch.shape[a + 1] + 2 * padding - k) // stride + 1 for a in range(3)]
    out = np.zeros((batch.shape[0], *ext, c_out))
    macs = gathered = 0
    for opos, _, win in _padded_windows(batch, k, stride, padding):
        gathered += win.size
        for tap in np.ndindex(win.shape):
            out[opos] += win[tap] * weights[tap]
            macs += c_out
    return out, macs, gathered


def naive_vjp(batch, weights, grad_out, stride, padding):
    """Loop-by-loop weight and input gradients; returns (grad_input, grad_weights, MACs)."""
    k = weights.shape[0]
    c_out = weights.shape[4]
    gw = np.zeros(weights.shape)
    gp = np.zeros((batch.shape[0], *(batch.shape[a + 1] + 2 * padding for a in range(3)), batch.shape[4]))
    macs = 0
    for opos, lo, win in _padded_windows(batch, k, stride, padding):
        g = grad_out[opos]
        for tap in np.ndindex(win.shape):
            gw[tap] += win[tap] * g
            a, b, c, ci = tap
            gp[opos[0], lo[0] + a, lo[1] + b, lo[2] + c, ci] += weights[tap] @ g
            macs += 2 * c_out
    if padding:
        gp = gp[:, padding:-padding, padding:-padding, padding:-padding, :]
    return gp, gw, macs


def brute_force_check(batch_size: int = 2):
    """Run the tiny model through the program and count its convolutions by brute force.

    Returns ``{"formula": {...}, "brute": {...}}`` with forward MACs, VJP
    MACs and the largest window matrix (elements) of one call.  The naive
    loops also check the program's forward outputs, so the counted work is
    the work the program does.
    """
    from voxcnn import train, volume

    spec = graph.spec_from_dict(TINY_SPEC)
    model = graph.build(spec, seed=3, dtype=np.float64)
    x = np.random.default_rng(0).standard_normal((batch_size, *spec.input_dims))
    y = train.one_hot(np.arange(batch_size) % 3, 3)

    brute = {"forward_macs": 0, "vjp_macs": 0, "max_window_elems": 0}
    mismatches = []
    fwd, vjp = volume.correlate3d_batch, volume.correlate3d_vjp_batch

    def counting_fwd(b, kernel, stride=1, padding=0):
        out = fwd(b, kernel, stride, padding)
        ref, macs, gathered = naive_correlate(b, kernel.weights, stride, padding)
        if not np.allclose(out, ref + kernel.bias, rtol=1e-9, atol=1e-12):
            mismatches.append(kernel.weights.shape)
        brute["forward_macs"] += macs
        brute["max_window_elems"] = max(brute["max_window_elems"], gathered)
        return out

    def counting_vjp(b, kernel, grad_out, stride=1, padding=0):
        gi, gw, gb = vjp(b, kernel, grad_out, stride, padding)
        ref_gi, ref_gw, macs = naive_vjp(b, kernel.weights, grad_out, stride, padding)
        if not (np.allclose(gi, ref_gi, rtol=1e-9, atol=1e-12) and np.allclose(gw, ref_gw, rtol=1e-9, atol=1e-12)):
            mismatches.append(kernel.weights.shape)
        brute["vjp_macs"] += macs
        return gi, gw, gb

    volume.correlate3d_batch, volume.correlate3d_vjp_batch = counting_fwd, counting_vjp
    try:
        train.loss_and_grads(model, x, y, "train")
    finally:
        volume.correlate3d_batch, volume.correlate3d_vjp_batch = fwd, vjp
    if mismatches:
        raise AssertionError(f"naive correlation disagrees with the program for kernels {mismatches}")
    formula = {
        "forward_macs": batch_size * forward_macs(spec),
        "vjp_macs": batch_size * vjp_macs(spec),
        "max_window_elems": batch_size * max_window_elems(spec),
    }
    return {"formula": formula, "brute": brute}
