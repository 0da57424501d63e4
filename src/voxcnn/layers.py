"""Layer objects with explicit forward/backward passes.

A layer is its spec and its arrays: ``Layer(spec, *arrays)`` holds the
frozen ``graph.LayerSpec`` it was built from, and reads its stride, padding,
activation, window, momentum and rate from that spec at each call; it stores
no setting of its own.  A layer keeps no per-call state: ``forward(x, mode,
rng)`` returns ``(out, saved)``, and ``backward(saved, grad)`` reads only
``saved``.  Besides its spec a layer holds its parameters and a batch norm's
moving statistics, nothing else, so inference forwards may run concurrently
on one model; training is still one worker per model, since it rebinds
moving statistics and leaves gradients on the parameters.  :func:`run` takes
a layer list forward, saving from a given layer on, and :func:`back` takes
those layers back.  Forward saves arrays it computes anyway, its input and
its output, and no more: work that only backward reads, such as routing a
max pool's gradient, runs in backward.  Relu writes in place into the
pre-activation its layer has just allocated, and backward masks with the
output (``out > 0`` equals ``z > 0``).  Parameters live in
:class:`ParamTensor` records so the optimizer, the freeze logic, and the L2
penalty can address them uniformly; a conv's weights are stored there only.
What training may change is stated by the records' ``trainable`` flags
alone: a batch norm whose gamma and beta are frozen is pinned.  ``graph``
hands a layer its arrays ready-made: fresh, from a checkpoint, or from the
arrays of another model.  Layer objects are never shared between models; a
spec may be, and a frozen array is, as a read-only view.  Backward runs in
the dtype of its incoming gradient, which the loss gives in the model's
dtype: a float32 model trains in float32.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import volume as V
from .errors import NumericError, ShapeError, SpecError

BN_EPS = 1e-3


@dataclass
class ParamTensor:
    name: str
    role: str  # conv_weights | conv_bias | dense_weights | dense_bias | bn_gamma | bn_beta
    values: np.ndarray
    trainable: bool = True
    l2: float = 0.0
    grad: np.ndarray | None = field(default=None, repr=False)


def relu(x, out=None):
    return np.maximum(x, 0, out=out)


def relu_grad(out, g):
    return g * (out > 0)


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max-logit subtraction."""
    logits = np.asarray(logits)
    if not np.all(np.isfinite(logits)):
        raise NumericError("non-finite logits")
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _apply_activation(name, z, in_place=False):
    """``name`` (validated by the spec) applied to ``z``; relu overwrites ``z`` when ``in_place``."""
    if name is None or name == "linear":
        return z
    if name == "relu":
        return relu(z, out=z if in_place else None)
    if name == "sigmoid":
        return sigmoid(z)
    return softmax(z)


def _activation_vjp(name, out, g):
    if name is None or name == "linear":
        return g
    if name == "relu":
        return relu_grad(out, g)
    if name == "sigmoid":
        return g * out * (1.0 - out)
    return out * (g - (g * out).sum(axis=-1, keepdims=True))  # softmax


class Layer:
    """A layer of ``spec``, whose parameters are ``params`` in slot order."""

    def __init__(self, spec, *params: ParamTensor):
        self.spec = spec
        self.params = list(params)

    def forward(self, x, mode="inference", rng=None):
        """Returns ``(out, saved)``."""
        raise NotImplementedError

    def backward(self, saved, grad):
        """Returns the input gradient; leaves parameter gradients on ``params``."""
        raise NotImplementedError


def run(layers, x, mode, rng, keep_from=0):
    """``x`` through ``layers`` in turn: the output, and the saved values of ``layers[keep_from:]``."""
    saved = []
    for i, lyr in enumerate(layers):
        x, s = lyr.forward(x, mode, rng)
        if i >= keep_from:
            saved.append(s)
    return x, saved


def back(layers, saved, grad):
    """Back-propagate ``grad`` through the last ``len(saved)`` of ``layers``: their input gradient."""
    for lyr, s in zip(reversed(layers), reversed(saved)):
        grad = lyr.backward(s, grad)
    return grad


class Conv3D(Layer):
    def __init__(self, spec, w: ParamTensor, b: ParamTensor):
        super().__init__(spec, w, b)
        self.w, self.b = w, b

    def forward(self, x, mode="inference", rng=None):
        s = self.spec
        z = V.correlate3d_batch(x, V.Kernel(self.w.values, self.b.values), s.stride, s.padding)
        out = _apply_activation(s.activation, z, in_place=True)
        return out, (x, out)

    def backward(self, saved, grad):
        x, out = saved
        s = self.spec
        gz = _activation_vjp(s.activation, out, grad)
        kernel = V.Kernel(self.w.values, self.b.values)
        gx, self.w.grad, self.b.grad = V.correlate3d_vjp_batch(x, kernel, gz, s.stride, s.padding)
        return gx


class MaxPool3D(Layer):
    def forward(self, x, mode="inference", rng=None):
        out = V.maxpool3d_batch(x, self.spec.window, self.spec.stride)
        return out, (x, out)

    def backward(self, saved, grad):
        return V.maxpool3d_vjp_batch(*saved, grad, self.spec.window, self.spec.stride)


class GlobalAvgPool3D(Layer):
    def forward(self, x, mode="inference", rng=None):
        return x.mean(axis=(1, 2, 3)), x.shape

    def backward(self, shape, grad):
        n, x, y, z, c = shape
        scale = 1.0 / (x * y * z)
        return np.broadcast_to(grad[:, None, None, None, :] * scale, shape).copy()


class Flatten(Layer):
    def forward(self, x, mode="inference", rng=None):
        return x.reshape(x.shape[0], -1), x.shape

    def backward(self, shape, grad):
        return grad.reshape(shape)


class Dense(Layer):
    def __init__(self, spec, w: ParamTensor, b: ParamTensor):
        super().__init__(spec, w, b)
        self.w, self.b = w, b

    def forward(self, x, mode="inference", rng=None):
        if x.ndim != 2:
            raise ShapeError(f"dense layer expects a (n, features) matrix, got {x.shape}")
        # One (1, in) @ (in, out) product per row gives each row the same bits at any batch size.
        z = (x[:, None, :] @ self.w.values)[:, 0] + self.b.values
        out = _apply_activation(self.spec.activation, z, in_place=True)
        return out, (x, out)

    def backward(self, saved, grad):
        x, out = saved
        gz = _activation_vjp(self.spec.activation, out, grad)
        self.w.grad = x.T @ gz
        self.b.grad = gz.sum(axis=0)
        return gz @ self.w.values.T


class BatchNorm(Layer):
    """Per-channel batch normalization with moving statistics.

    ``moving <- momentum * moving + (1 - momentum) * batch`` on every train
    forward, which rebinds the moving statistics.  A layer is ``pinned`` when
    it is frozen, neither gamma nor beta trainable (Keras's rule for a frozen
    batch norm): it then behaves as inference regardless of mode and never
    updates its moving statistics.
    """

    def __init__(self, spec, gamma: ParamTensor, beta: ParamTensor, moving_mean, moving_var):
        super().__init__(spec, gamma, beta)
        self.gamma, self.beta = gamma, beta
        self.moving_mean, self.moving_var = moving_mean, moving_var

    @property
    def pinned(self) -> bool:
        return not (self.gamma.trainable or self.beta.trainable)

    def forward(self, x, mode="inference", rng=None):
        axes = tuple(range(x.ndim - 1))
        batch_stats = mode == "train" and not self.pinned
        if batch_stats:
            mean = x.mean(axis=axes)
            var = x.var(axis=axes)
            mom = self.spec.momentum
            self.moving_mean = (mom * self.moving_mean + (1 - mom) * mean).astype(self.moving_mean.dtype)
            self.moving_var = (mom * self.moving_var + (1 - mom) * var).astype(self.moving_var.dtype)
        else:
            mean = self.moving_mean
            var = self.moving_var
        inv_std = 1.0 / np.sqrt(var + BN_EPS)
        xhat = (x - mean) * inv_std
        return self.gamma.values * xhat + self.beta.values, (xhat, inv_std, batch_stats)

    def backward(self, saved, grad):
        xhat, inv_std, batch_stats = saved
        axes = tuple(range(grad.ndim - 1))
        self.gamma.grad = (grad * xhat).sum(axis=axes)
        self.beta.grad = grad.sum(axis=axes)
        g_xhat = grad * self.gamma.values
        if not batch_stats:
            return g_xhat * inv_std
        m = xhat.size // xhat.shape[-1]  # a Python int keeps grad's dtype
        return inv_std / m * (m * g_xhat - g_xhat.sum(axis=axes) - xhat * (g_xhat * xhat).sum(axis=axes))


class Dropout(Layer):
    """Inverted dropout: kept units scaled by 1/(1 - rate)."""

    def forward(self, x, mode="inference", rng=None):
        """The saved value is the scaled mask, or None where dropout is the identity."""
        rate = self.spec.rate
        if mode != "train" or rate == 0.0:
            return x, None
        if rng is None:
            raise SpecError("dropout in train mode requires an rng")
        mask = (rng.random(x.shape) >= rate).astype(x.dtype) / (1.0 - rate)
        return x * mask, mask

    def backward(self, mask, grad):
        return grad if mask is None else grad * mask


class Activation(Layer):
    def forward(self, x, mode="inference", rng=None):
        out = _apply_activation(self.spec.activation, x)  # x belongs to the layer before
        return out, out

    def backward(self, out, grad):
        return _activation_vjp(self.spec.activation, out, grad)


class ResidualBlock(Layer):
    """y = F(x) + shortcut(x).

    F is conv-bn-relu-conv-bn; the shortcut is the identity, or a 1x1x1
    projection conv + bn when the channel count or stride changes.  No
    activation is applied after the addition; network builders append an
    explicit relu where the architecture calls for one.
    """

    def __init__(self, spec, main_layers, shortcut_layers):
        super().__init__(spec, *(p for lyr in main_layers + shortcut_layers for p in lyr.params))
        self.main = main_layers
        self.shortcut = shortcut_layers

    def forward(self, x, mode="inference", rng=None):
        h, main = run(self.main, x, mode, rng)
        s, shortcut = run(self.shortcut, x, mode, rng)
        if h.shape != s.shape:
            raise ShapeError(f"residual path {h.shape} does not match shortcut {s.shape}")
        return h + s, (main, shortcut)

    def backward(self, saved, grad):
        main, shortcut = saved
        return back(self.main, main, grad) + back(self.shortcut, shortcut, grad)
