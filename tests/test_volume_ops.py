"""Low-level 3D correlation and pooling against brute-force oracles."""

import math
import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from voxcnn import graph, train, volume as V
from voxcnn.errors import ShapeError
from voxcnn.fixtures import load_fixture
from voxcnn.layers import Flatten, GlobalAvgPool3D


def brute_correlate(vol, weights, bias, stride, padding):
    """Triple-loop reference: float64, no vectorized shortcuts."""
    k = weights.shape[0]
    c_out = weights.shape[4]
    if padding:
        vol = np.pad(vol, ((padding,) * 2,) * 3 + ((0, 0),))
    dims = [V.conv_output_extent(e, k, 0, stride) for e in vol.shape[:3]]
    out = np.zeros(tuple(dims) + (c_out,), dtype=np.float64)
    for i in range(dims[0]):
        for j in range(dims[1]):
            for l in range(dims[2]):
                win = vol[i * stride:i * stride + k,
                          j * stride:j * stride + k,
                          l * stride:l * stride + k, :]
                for co in range(c_out):
                    out[i, j, l, co] = (win * weights[..., co]).sum() + bias[co]
    return out


def brute_maxpool(vol, window, stride):
    dims = [(e - window) // stride + 1 for e in vol.shape[:3]]
    c = vol.shape[3]
    out = np.empty(tuple(dims) + (c,), dtype=vol.dtype)
    for i in range(dims[0]):
        for j in range(dims[1]):
            for l in range(dims[2]):
                win = vol[i * stride:i * stride + window,
                          j * stride:j * stride + window,
                          l * stride:l * stride + window, :]
                out[i, j, l, :] = win.reshape(-1, c).max(axis=0)
    return out


def reference_maxpool_vjp(batch, grad_out, window, stride):
    """Argmax routing plus an ``np.add.at`` scatter, as the pooling forward once did.

    Each window's gradient goes to the flat index of ``argmax`` over the
    window's taps in scan order: the first maximum, or the first NaN.
    """
    n, x, y, z, c = batch.shape
    win = sliding_window_view(batch, (window,) * 3, axis=(1, 2, 3))[:, ::stride, ::stride, ::stride]
    ox, oy, oz = win.shape[1:4]
    local = win.reshape(n, ox, oy, oz, c, window**3).argmax(axis=5)
    wa, rem = np.divmod(local, window * window)
    wb, wc = np.divmod(rem, window)
    ix = stride * np.arange(ox).reshape(1, ox, 1, 1, 1) + wa
    iy = stride * np.arange(oy).reshape(1, 1, oy, 1, 1) + wb
    iz = stride * np.arange(oz).reshape(1, 1, 1, oz, 1) + wc
    ib = np.arange(n).reshape(n, 1, 1, 1, 1)
    ic = np.arange(c).reshape(1, 1, 1, 1, c)
    indices = (((ib * x + ix) * y + iy) * z + iz) * c + ic
    grad = np.zeros(batch.size, dtype=grad_out.dtype)
    np.add.at(grad, indices.ravel(), grad_out.ravel())
    return grad.reshape(batch.shape)

def reference_correlate(batch, kernel, stride, padding):
    """The window-matrix forward: ``tensordot`` over the strided window view, channel-major."""
    if padding:
        batch = np.pad(batch, [(0, 0)] + [(padding, padding)] * 3 + [(0, 0)])
    k = kernel.weights.shape[0]
    win = sliding_window_view(batch, (k, k, k), axis=(1, 2, 3))[:, ::stride, ::stride, ::stride]
    return np.tensordot(win, kernel.weights, axes=([5, 6, 7, 4], [0, 1, 2, 3])) + kernel.bias


def reference_correlate_vjp_input(batch, kernel, grad_out, stride, padding):
    """The input gradient as a k^3 loop of ``tensordot`` products and strided slice-adds."""
    k, _, _, c_in, _ = kernel.weights.shape
    n, ox, oy, oz, _ = grad_out.shape
    padded = np.zeros((n,) + tuple(e + 2 * padding for e in batch.shape[1:4]) + (c_in,),
                      dtype=grad_out.dtype)
    for a in range(k):
        for b in range(k):
            for c in range(k):
                gi = np.tensordot(grad_out, kernel.weights[a, b, c], axes=([4], [1]))
                padded[:, a:a + stride * ox:stride, b:b + stride * oy:stride,
                       c:c + stride * oz:stride, :] += gi
    if padding:
        padded = padded[:, padding:-padding, padding:-padding, padding:-padding, :]
    return padded


def test_output_extent_examples():
    assert V.conv_output_extent(79, 3, 0, 1) == 77
    assert V.conv_output_extent(37, 2, 0, 2) == 18
    assert V.conv_output_extent(64, 7, 3, 2) == 32
    assert V.conv_output_extent(5, 5, 0, 1) == 1


@given(
    extent=st.integers(3, 8),
    k=st.integers(1, 3),
    stride=st.integers(1, 2),
    padding=st.integers(0, 2),
)
@settings(max_examples=60, deadline=None)
def test_output_extent_matches_enumeration(extent, k, stride, padding):
    # Count the valid window start positions directly.
    padded = extent + 2 * padding
    starts = [s for s in range(0, padded - k + 1, stride)]
    if padded < k:
        starts = []
    assert V.conv_output_extent(extent, k, padding, stride) == len(starts)


def test_correlate_matches_brute_force_many_cases():
    """Exact 64-bit equality against the triple loop on >= 100 random shapes."""
    rng = np.random.default_rng(42)
    cases = 0
    while cases < 100:
        e = tuple(rng.integers(2, 9, size=3))
        k = int(rng.integers(1, min(e) + 1))
        stride = int(rng.integers(1, 3))
        padding = int(rng.integers(0, 2))
        c_in = int(rng.integers(1, 3))
        c_out = int(rng.integers(1, 4))
        if V.conv_output_extent(min(e), k, padding, stride) < 1:
            continue
        # Small integers make every product exactly representable, so the
        # vectorized path and the loop must agree bitwise.
        vol = rng.integers(-4, 5, size=e + (c_in,)).astype(np.float64)
        w = rng.integers(-3, 4, size=(k, k, k, c_in, c_out)).astype(np.float64)
        b = rng.integers(-3, 4, size=c_out).astype(np.float64)
        got = V.correlate3d_batch(vol[None], V.Kernel(w, b), stride=stride, padding=padding)[0]
        want = brute_correlate(vol, w, b, stride, padding)
        assert got.shape == want.shape
        assert np.array_equal(got, want), (e, k, stride, padding)
        cases += 1


def test_correlate_is_correlation_not_convolution():
    """An asymmetric kernel picks out the forward neighbor, not the mirrored one."""
    vol = np.zeros((3, 3, 3, 1))
    vol[2, 1, 1, 0] = 1.0
    w = np.zeros((3, 3, 3, 1, 1))
    w[2, 1, 1, 0, 0] = 1.0  # weight at offset (+1, 0, 0) from window center
    out = V.correlate3d_batch(vol[None], V.Kernel(w, np.zeros(1)), stride=1, padding=1)[0]
    assert out[1, 1, 1, 0] == 1.0
    assert out[2, 1, 1, 0] == 0.0


def _random_conv_case(rng, c_in, stride, dtype, integers):
    """A batch, kernel and upstream gradient whose shapes fit ``stride`` and a random padding."""
    while True:
        n = int(rng.integers(1, 4))
        e = tuple(int(v) for v in rng.integers(2, 8, size=3))
        k = int(rng.integers(1, 4))
        padding = int(rng.integers(0, 3))
        if min(e) + 2 * padding >= k:
            break
    c_out = int(rng.integers(1, 5))
    draw = ((lambda shape: rng.integers(-4, 5, size=shape)) if integers
            else rng.standard_normal)
    batch = draw((n,) + e + (c_in,)).astype(dtype)
    kernel = V.Kernel(draw((k, k, k, c_in, c_out)).astype(dtype), draw(c_out).astype(dtype))
    ext = tuple(V.conv_output_extent(v, k, padding, stride) for v in e)
    grad_out = draw((n,) + ext + (c_out,)).astype(dtype)
    return batch, kernel, grad_out, padding


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("c_in", [1, 2, 3])
def test_correlate_kernels_equal_references_on_small_integers(c_in, stride, dtype):
    """Every product and partial sum is an exact small integer, so any summation order agrees.

    ``c_in == 1`` with stride 1 takes the tap-major gather; the other cases
    the channel-major ``tensordot``.
    """
    rng = np.random.default_rng(1000 * c_in + 10 * stride + (dtype == np.float64))
    for _ in range(12):
        batch, kernel, grad_out, padding = _random_conv_case(rng, c_in, stride, dtype, integers=True)
        got = V.correlate3d_batch(batch, kernel, stride, padding)
        want = reference_correlate(batch, kernel, stride, padding)
        assert got.dtype == want.dtype == dtype
        assert np.array_equal(got, want)
        gi, gw, gb = V.correlate3d_vjp_batch(batch, kernel, grad_out, stride, padding)
        want_gi = reference_correlate_vjp_input(batch, kernel, grad_out, stride, padding)
        assert gi.dtype == gw.dtype == gb.dtype == dtype
        assert np.array_equal(gi, want_gi)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("c_in", [1, 2, 3])
def test_correlate_kernels_match_references_on_random_floats(c_in, stride, dtype):
    """The input gradient is bitwise the k^3 ``tensordot`` loop's: the same products in the same order.

    The tap-major forward hands BLAS one long reduction where ``tensordot``
    handed it another layout of the same one, so it may round differently:
    it must agree within 16 machine epsilons of the largest output.  The channel-major
    forward is the reference's own code.
    """
    rng = np.random.default_rng(2000 * c_in + 10 * stride + (dtype == np.float64))
    for _ in range(12):
        batch, kernel, grad_out, padding = _random_conv_case(rng, c_in, stride, dtype, integers=False)
        gi, _, _ = V.correlate3d_vjp_batch(batch, kernel, grad_out, stride, padding)
        want_gi = reference_correlate_vjp_input(batch, kernel, grad_out, stride, padding)
        assert gi.dtype == want_gi.dtype and gi.tobytes() == want_gi.tobytes()
        got = V.correlate3d_batch(batch, kernel, stride, padding)
        want = reference_correlate(batch, kernel, stride, padding)
        assert got.dtype == want.dtype and got.shape == want.shape
        if c_in == 1 and stride == 1:
            tol = 16 * np.finfo(dtype).eps * np.abs(want).max()
            assert np.abs(got - want).max() <= tol
        else:
            assert got.tobytes() == want.tobytes()


def _conv_step(case):
    """Forward and all three VJP results of one ``(batch, kernel, grad_out, stride, padding)`` case."""
    batch, kernel, grad_out, stride, padding = case
    return (V.correlate3d_batch(batch, kernel, stride, padding),
            *V.correlate3d_vjp_batch(batch, kernel, grad_out, stride, padding))


def _conv_cases(seed, count):
    """Random float cases over both dtypes, one and several channels, strides 1 and 2."""
    rng = np.random.default_rng(seed)
    cases = []
    for i in range(count):
        dtype, c_in, stride = (np.float32, np.float64)[i % 2], 1 + i % 3, 1 + (i // 3) % 2
        batch, kernel, grad_out, padding = _random_conv_case(rng, c_in, stride, dtype, integers=False)
        cases.append((batch, kernel, grad_out, stride, padding))
    return cases


def test_threads_running_convs_at_once_equal_serial_calls_bitwise():
    """Each thread gathers into its own scratch buffer; none sees another's windows."""
    cases = _conv_cases(3000, 12)
    want = [_conv_step(case) for case in cases]
    workers = (os.cpu_count() or 1) + 1
    got = [[None] * len(cases) for _ in range(workers)]
    start = threading.Barrier(workers)

    def work(t):
        start.wait()
        with V.reusing_scratch():
            for j in range(3 * len(cases)):
                i = (j + 5 * t) % len(cases)  # every thread visits the shapes in its own order
                got[t][i] = _conv_step(cases[i])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(workers)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    for per_thread in got:
        for results, expected in zip(per_thread, want):
            assert [r.tobytes() for r in results] == [e.tobytes() for e in expected]


def test_conv_results_never_share_the_kept_scratch_buffer():
    rng = np.random.default_rng(11)

    def case(n, extent, c_in, c_out, k, stride, padding, dtype):
        batch = rng.standard_normal((n, extent, extent, extent, c_in)).astype(dtype)
        kernel = V.Kernel(rng.standard_normal((k, k, k, c_in, c_out)).astype(dtype),
                          rng.standard_normal(c_out).astype(dtype))
        out = V.conv_output_extent(extent, k, padding, stride)
        grad_out = rng.standard_normal((n, out, out, out, c_out)).astype(dtype)
        return batch, kernel, grad_out, stride, padding

    with V.reusing_scratch():
        first = _conv_step(case(2, 6, 3, 2, 3, 1, 1, np.float32))
        kept = [a.copy() for a in first]
        buffer = V._thread.scratch
        assert not any(np.shares_memory(a, buffer) for a in first)
        later = [(case(4, 9, 2, 3, 3, 1, 1, np.float64), True),   # a larger window matrix
                 (case(1, 5, 1, 2, 2, 1, 0, np.float32), False),  # a smaller, tap-major one
                 (case(2, 7, 2, 2, 3, 2, 2, np.float32), False)]  # strided and padded
        for conv, grows in later:
            results = _conv_step(conv)
            assert (V._thread.scratch is not buffer) == grows
            buffer = V._thread.scratch
            assert not any(np.shares_memory(a, buffer) for a in (*first, *results))
            assert [a.tobytes() for a in first] == [a.tobytes() for a in kept]


def test_scratch_is_kept_until_the_outermost_block_exits():
    rng = np.random.default_rng(12)
    batch = rng.standard_normal((2, 6, 6, 6, 3))
    kernel = V.Kernel(rng.standard_normal((3, 3, 3, 3, 2)), np.zeros(2))
    V.correlate3d_batch(batch, kernel)
    assert getattr(V._thread, "scratch", None) is None  # outside a block nothing is kept
    with V.reusing_scratch():
        V.correlate3d_batch(batch, kernel)
        buffer = V._thread.scratch
        with V.reusing_scratch():
            V.correlate3d_batch(batch, kernel)
        assert V._thread.scratch is buffer
    assert V._thread.scratch is None


def test_training_and_prediction_keep_the_scratch_buffer_until_done(monkeypatch):
    depths = []
    forward = V.correlate3d_batch

    def recording(*args):
        depths.append(getattr(V._thread, "depth", 0))
        return forward(*args)

    monkeypatch.setattr(V, "correlate3d_batch", recording)
    model = graph.build(load_fixture("pet_8_mini"), seed=0)
    x = np.random.default_rng(2).standard_normal((4, 16, 16, 16, 1)).astype(np.float32)
    train.train(model, (x, np.array([0, 1, 2, 0])), hyper=train.HyperParams(epochs=1, batch_size=2))
    assert depths and all(depths)
    assert getattr(V._thread, "scratch", None) is None
    depths.clear()
    train.predict(model, x, 2)
    assert depths and all(depths)
    assert getattr(V._thread, "scratch", None) is None


@pytest.mark.parametrize("k, stride, padding", [(1, 1, 0), (1, 1, 1), (1, 2, 0), (2, 1, 0),
                                                (3, 1, 1), (4, 1, 0), (3, 3, 0)])
def test_window_matrix_is_a_view_exactly_when_reshape_gives_one(k, stride, padding):
    """The view-or-copy choice is ``reshape``'s, so each GEMM sees ``tensordot``'s operands."""
    rng = np.random.default_rng(22)
    for n, extent, c in [(1, 4, 1), (2, 4, 3), (3, 5, 2), (1, 4, 4)]:
        batch = rng.standard_normal((n, extent, extent, extent, c))
        extents = (V.conv_output_extent(extent, k, padding, stride),) * 3
        positions = n * math.prod(extents)
        padded = np.pad(batch, [(0, 0)] + [(padding, padding)] * 3 + [(0, 0)])
        view = sliding_window_view(padded, (k, k, k), axis=(1, 2, 3))[:, ::stride, ::stride, ::stride]
        for axes, shape in [((0, 1, 2, 3, 5, 6, 7, 4), (positions, k**3 * c)),
                            ((4, 5, 6, 7, 0, 1, 2, 3), (c * k**3, positions)),
                            ((5, 6, 7, 4, 0, 1, 2, 3), (k**3 * c, positions))]:
            win = view.transpose(axes)
            want = win.reshape(shape)
            collapses = V._collapses(win.shape[:4], win.strides[:4]) and \
                V._collapses(win.shape[4:], win.strides[4:])
            assert collapses == np.shares_memory(want, padded)
            got = V._window_matrix(batch, k, stride, padding, extents, axes, shape)
            assert got.tobytes() == want.tobytes()
            if not padding:
                assert np.shares_memory(got, batch) == collapses


def test_warm_conv_step_allocates_less_than_one_window_matrix():
    """A repeated training step of ``pet_8_mini``'s second conv gathers into the kept buffer."""
    model = graph.build(load_fixture("pet_8_mini"), seed=0)
    conv = model.layers[1]
    x, _ = model.layers[0].forward(np.random.default_rng(1).standard_normal((8, 16, 16, 16, 1))
                                   .astype(np.float32))
    kernel = V.Kernel(conv.w.values, conv.b.values)
    window_bytes = 8 * 12**3 * 3**3 * 4 * x.itemsize  # (positions, taps x channels)
    assert window_bytes == 5_971_968

    def step():
        out = V.correlate3d_batch(x, kernel, conv.stride, conv.padding)
        return V.correlate3d_vjp_batch(x, kernel, out, conv.stride, conv.padding)

    with V.reusing_scratch():
        step()
        tracemalloc.start()
        try:
            step()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak < window_bytes


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_pointwise_weight_gradient_equals_tensordot_bitwise(dtype):
    """A 1x1x1 kernel at stride 1 multiplies the uncopied window view, as ``tensordot`` did."""
    rng = np.random.default_rng(21)
    batch = rng.standard_normal((3, 9, 8, 7, 5)).astype(dtype)
    kernel = V.Kernel(rng.standard_normal((1, 1, 1, 5, 6)).astype(dtype), np.zeros(6, dtype))
    grad_out = rng.standard_normal((3, 9, 8, 7, 6)).astype(dtype)
    _, gw, _ = V.correlate3d_vjp_batch(batch, kernel, grad_out)
    win = sliding_window_view(batch, (1, 1, 1), axis=(1, 2, 3))
    want = np.tensordot(win, grad_out, axes=([0, 1, 2, 3], [0, 1, 2, 3])).transpose(1, 2, 3, 0, 4)
    assert gw.tobytes() == want.tobytes()


def test_maxpool_matches_brute_force_many_cases():
    rng = np.random.default_rng(43)
    cases = 0
    while cases < 100:
        e = tuple(rng.integers(2, 9, size=3))
        window = int(rng.integers(1, 4))
        stride = int(rng.integers(1, 3))
        if min(e) < window:
            continue
        c = int(rng.integers(1, 4))
        vol = rng.standard_normal(e + (c,))
        got = V.maxpool3d_batch(vol[None], window, stride)[0]
        assert np.array_equal(got, brute_maxpool(vol, window, stride))
        cases += 1


def test_maxpool_is_valid_only():
    """Trailing voxels that do not fill a window are dropped, never padded."""
    vol = np.arange(5 ** 3, dtype=np.float64).reshape(5, 5, 5, 1)
    out = V.maxpool3d_batch(vol[None], 2, 2)[0]
    assert out.shape == (2, 2, 2, 1)
    # The global max (index 124 at the far corner) lies in the dropped rim.
    assert out.max() < vol.max()


def test_maxpool_ties_route_to_first_max():
    vol = np.zeros((2, 2, 2, 1))
    out = V.maxpool3d_batch(vol[None], 2, 2)
    grad = np.ones_like(out)
    gin = V.maxpool3d_vjp_batch(vol[None], out, grad, 2, 2)[0]
    expected = np.zeros_like(vol)
    expected[0, 0, 0, 0] = 1.0
    assert np.array_equal(gin, expected)


def test_maxpool_vjp_overlapping_windows_accumulate():
    vol = np.zeros((3, 3, 3, 1))
    vol[1, 1, 1, 0] = 5.0  # the shared center wins every 2x2x2 window
    out = V.maxpool3d_batch(vol[None], 2, 1)
    gin = V.maxpool3d_vjp_batch(vol[None], out, np.ones_like(out), 2, 1)[0]
    assert gin[1, 1, 1, 0] == 8.0
    assert gin.sum() == 8.0


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("window,stride", [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2)])
def test_maxpool_vjp_equals_argmax_oracle_bitwise(window, stride, dtype):
    """Routing found in backward scatters exactly as argmax routing did.

    Rounded inputs tie often; stride < window overlaps windows, so inputs
    receive several contributions and the summation order matters.
    """
    rng = np.random.default_rng(100 * window + stride)
    for case in range(12):
        n, c = int(rng.integers(1, 3)), int(rng.integers(1, 4))
        e = tuple(int(v) for v in rng.integers(window, window + 5, size=3))
        batch = rng.standard_normal((n,) + e + (c,))
        if case % 2:
            batch = np.round(batch)  # many tied maxima
        batch = batch.astype(dtype)
        out = V.maxpool3d_batch(batch, window, stride)
        grad_out = rng.standard_normal(out.shape).astype(dtype)
        got = V.maxpool3d_vjp_batch(batch, out, grad_out, window, stride)
        want = reference_maxpool_vjp(batch, grad_out, window, stride)
        assert got.dtype == want.dtype == dtype
        assert got.tobytes() == want.tobytes(), (case, n, e, c)


def test_maxpool_propagates_nan_and_routes_to_the_first_nan():
    vol = np.random.default_rng(3).standard_normal((1, 4, 4, 4, 2))
    vol[0, 1, 0, 1, 0] = np.nan  # tap (1, 0, 1) of window (0, 0, 0), channel 0 only
    vol[0, 0, 1, 1, 0] = np.nan  # tap (0, 1, 1): earlier in scan order
    out = V.maxpool3d_batch(vol, 2, 2)
    assert np.isnan(out[0, 0, 0, 0, 0])
    assert np.isnan(out).sum() == 1
    clean = np.where(np.isnan(vol), -np.inf, vol)
    mask = ~np.isnan(out)
    assert np.array_equal(out[mask], V.maxpool3d_batch(clean, 2, 2)[mask])
    grad = np.ones_like(out)
    gin = V.maxpool3d_vjp_batch(vol, out, grad, 2, 2)
    assert gin[0, 0, 1, 1, 0] == 1.0 and gin[0, 1, 0, 1, 0] == 0.0  # first in scan order
    assert np.array_equal(gin, reference_maxpool_vjp(vol, grad, 2, 2))


def test_maxpool_vjp_rejects_mismatched_shapes():
    vol = np.zeros((1, 4, 4, 4, 1))
    out = V.maxpool3d_batch(vol, 2, 2)
    with pytest.raises(ShapeError):
        V.maxpool3d_vjp_batch(vol, out, np.ones((1, 3, 2, 2, 1)), 2, 2)
    with pytest.raises(ShapeError):
        V.maxpool3d_vjp_batch(vol, out[:, :1], np.ones_like(out[:, :1]), 2, 2)


@pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 0), (2, 1), (3, 2)])
def test_correlate_vjp_matches_finite_differences(stride, padding):
    rng = np.random.default_rng(7)
    vol = rng.standard_normal((6, 5, 6, 2))
    w = 0.3 * rng.standard_normal((3, 3, 3, 2, 3))
    b = 0.1 * rng.standard_normal(3)
    kern = V.Kernel(w, b)
    out = V.correlate3d_batch(vol[None], kern, stride=stride, padding=padding)[0]
    g_out = rng.standard_normal(out.shape)

    def scalar(vv, ww, bb):
        return (V.correlate3d_batch(vv[None], V.Kernel(ww, bb), stride=stride, padding=padding)[0]
                * g_out).sum()

    g_in, g_w, g_b = V.correlate3d_vjp_batch(vol[None], kern, g_out[None], stride=stride, padding=padding)
    g_in = g_in[0]
    h = 1e-6
    probe = np.random.default_rng(8)
    for arr, grad in ((vol, g_in), (w, g_w), (b, g_b)):
        flat, gflat = arr.reshape(-1), grad.reshape(-1)
        for i in probe.choice(flat.size, size=min(24, flat.size), replace=False):
            orig = flat[i]
            flat[i] = orig + h
            lp = scalar(vol, w, b)
            flat[i] = orig - h
            lm = scalar(vol, w, b)
            flat[i] = orig
            fd = (lp - lm) / (2 * h)
            assert abs(fd - gflat[i]) <= 1e-4 * max(1.0, abs(fd))


def test_correlate_vjp_is_linear_in_upstream_gradient():
    rng = np.random.default_rng(9)
    vol = rng.standard_normal((5, 5, 5, 1))
    kern = V.Kernel(rng.standard_normal((3, 3, 3, 1, 2)), rng.standard_normal(2))
    out = V.correlate3d_batch(vol[None], kern)[0]
    g1, g2 = rng.standard_normal(out.shape), rng.standard_normal(out.shape)

    def vjp(g):
        gi, gw, gb = V.correlate3d_vjp_batch(vol[None], kern, g[None])
        return gi[0], gw, gb

    a1 = vjp(g1)
    a2 = vjp(g2)
    both = vjp(g1 + 2 * g2)
    for lhs, r1, r2 in zip(both, a1, a2):
        assert np.allclose(lhs, r1 + 2 * r2, atol=1e-10)


def test_global_avg_pool_and_flatten():
    rng = np.random.default_rng(10)
    vol = rng.standard_normal((4, 3, 5, 6))
    gap, shape = GlobalAvgPool3D().forward(vol[None])
    assert gap.shape == (1, 6) and shape == (1,) + vol.shape
    assert np.allclose(gap[0], vol.mean(axis=(0, 1, 2)))

    flat, shape = Flatten().forward(vol[None])
    assert flat.shape == (1, 4 * 3 * 5 * 6) and shape == (1,) + vol.shape
    # Round trip: flatten is a plain row-major (channel-fastest) reshape.
    assert np.array_equal(flat[0].reshape(vol.shape), vol)
    assert np.array_equal(Flatten().backward(shape, flat), vol[None])


def test_kernel_shape_validation():
    batch = np.zeros((1, 4, 4, 4, 1))
    for kern in (V.Kernel(np.zeros((3, 3, 2, 1, 4)), np.zeros(4)),  # non-cubic
                 V.Kernel(np.zeros((3, 3, 3, 1, 4)), np.zeros(2)),  # bias mismatch
                 V.Kernel(np.zeros((0, 0, 0, 1, 4)), np.zeros(4))):  # empty
        with pytest.raises(ShapeError, match="kernel|bias"):
            V.correlate3d_batch(batch, kern)
        with pytest.raises(ShapeError, match="kernel|bias"):
            V.correlate3d_vjp_batch(batch, kern, np.zeros((1, 2, 2, 2, 4)))


_KERNEL_CALLS = {
    # name: call(batch, window, stride) of each volume kernel with a window of that width
    "correlate": lambda b, w, s: V.correlate3d_batch(
        b, V.Kernel(np.zeros((w, w, w, 1, 1)), np.zeros(1)), s),
    "correlate_vjp": lambda b, w, s: V.correlate3d_vjp_batch(
        b, V.Kernel(np.zeros((w, w, w, 1, 1)), np.zeros(1)), np.zeros((1, 3, 3, 3, 1)), s),
    "maxpool": lambda b, w, s: V.maxpool3d_batch(b, w, s),
    "maxpool_vjp": lambda b, w, s: V.maxpool3d_vjp_batch(
        b, np.zeros((1, 3, 3, 3, 1)), np.zeros((1, 3, 3, 3, 1)), w, s),
}


@pytest.mark.parametrize("call", sorted(_KERNEL_CALLS))
@pytest.mark.parametrize("shape,window,stride", [
    ((4, 4, 4, 1), 2, 1),
    ((1, 1, 4, 4, 4, 1), 2, 1),
    ((1, 4, 4, 4, 1), 2, 0),
    ((1, 4, 4, 4, 1), 2, -1),
    ((1, 4, 4, 4, 1), 0, 1),
    ((1, 4, 4, 4, 1), 5, 1),
], ids=["rank-4", "rank-6", "stride-0", "stride-minus-1", "window-0", "window-too-large"])
def test_every_volume_kernel_raises_shape_error_on_a_shape_it_cannot_take(call, shape, window, stride):
    with pytest.raises(ShapeError):
        _KERNEL_CALLS[call](np.zeros(shape), window, stride)


def test_rank_validation():
    with pytest.raises(ShapeError):
        V.correlate3d_batch(np.zeros((4, 4, 4)), V.Kernel(np.zeros((3, 3, 3, 1, 1)), np.zeros(1)))


@pytest.mark.parametrize("shape", [(4, 4, 4), (4, 4, 4, 1), (1, 1, 4, 4, 4, 1)])
def test_batched_kernels_reject_inputs_that_are_not_rank_5(shape):
    kern = V.Kernel(np.zeros((3, 3, 3, 1, 1)), np.zeros(1))
    with pytest.raises(ShapeError, match="rank-5"):
        V.correlate3d_batch(np.zeros(shape), kern)
    with pytest.raises(ShapeError, match="rank-5"):
        V.correlate3d_vjp_batch(np.zeros(shape), kern, np.zeros((1, 2, 2, 2, 1)))


def test_both_conv_kernels_reject_a_channel_count_the_kernel_does_not_take():
    kern = V.Kernel(np.zeros((2, 2, 2, 1, 1)), np.zeros(1))
    batch = np.zeros((1, 4, 4, 4, 3))
    with pytest.raises(ShapeError, match="channels"):
        V.correlate3d_batch(batch, kern)
    with pytest.raises(ShapeError, match="channels"):
        V.correlate3d_vjp_batch(batch, kern, np.zeros((1, 3, 3, 3, 1)))


@pytest.mark.parametrize("stride", [0, -1])
def test_correlate_rejects_a_stride_below_one(stride):
    kern = V.Kernel(np.zeros((2, 2, 2, 1, 1)), np.zeros(1))
    with pytest.raises(ShapeError, match="stride"):
        V.correlate3d_batch(np.zeros((1, 4, 4, 4, 1)), kern, stride=stride)


@pytest.mark.parametrize("stride", [0, -1])
def test_correlate_vjp_rejects_a_stride_below_one(stride):
    kern = V.Kernel(np.zeros((2, 2, 2, 1, 1)), np.zeros(1))
    with pytest.raises(ShapeError, match="stride"):
        V.correlate3d_vjp_batch(np.zeros((1, 4, 4, 4, 1)), kern, np.zeros((1, 3, 3, 3, 1)),
                                stride=stride)
