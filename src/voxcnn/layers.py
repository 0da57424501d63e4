"""Layer objects with explicit forward/backward passes.

Every layer keeps what its backward pass needs during ``forward``, in every
mode (an inference-mode forward may still be back-propagated); a model
therefore belongs to one worker at a time.  Forward keeps references to
arrays it computes anyway, its input and its output, and no more: work that
only backward reads, such as routing a max pool's gradient, runs in
backward.  Relu writes in place into the pre-activation its layer has just
allocated, and backward masks with the output (``out > 0`` equals
``z > 0``).  Parameters live in :class:`ParamTensor` records so the
optimizer, the freeze logic, and the L2 penalty can address them uniformly;
a conv's weights are stored there only.  What training may change is stated
by the records' ``trainable`` flags alone: a batch norm whose gamma and beta
are frozen is pinned.  A layer is handed its records and
moving statistics ready-made: ``graph`` makes them, fresh, from a checkpoint,
or from the arrays of another model.  Layer objects are never shared between
models; only a frozen array is, as a read-only view.

Backward runs in the dtype of its incoming gradient, which the loss gives in
the model's dtype: a float32 model trains in float32.  A model's backward
stops at its first layer with a trainable parameter (see ``graph.Model``), so
the layers of a frozen prefix never run ``backward``.
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
    """``name`` applied to ``z``; relu overwrites ``z`` when ``in_place``."""
    if name is None or name == "linear":
        return z
    if name == "relu":
        return relu(z, out=z if in_place else None)
    if name == "sigmoid":
        return sigmoid(z)
    if name == "softmax":
        return softmax(z)
    raise SpecError(f"unknown activation {name!r}")


def _activation_vjp(name, out, g):
    if name is None or name == "linear":
        return g
    if name == "relu":
        return relu_grad(out, g)
    if name == "sigmoid":
        return g * out * (1.0 - out)
    if name == "softmax":
        return out * (g - (g * out).sum(axis=-1, keepdims=True))
    raise SpecError(f"unknown activation {name!r}")


class Layer:
    params: list[ParamTensor]

    def __init__(self):
        self.params = []

    def forward(self, x, mode="inference", rng=None):
        raise NotImplementedError

    def backward(self, grad):
        raise NotImplementedError


class Conv3D(Layer):
    def __init__(self, w: ParamTensor, b: ParamTensor, stride=1, padding=0, activation="relu"):
        super().__init__()
        self.stride = stride
        self.padding = padding
        self.activation = activation
        self.w, self.b = w, b
        self.params = [w, b]

    def forward(self, x, mode="inference", rng=None):
        self._x = x
        z = V.correlate3d_batch(x, V.Kernel(self.w.values, self.b.values), self.stride, self.padding)
        self._out = _apply_activation(self.activation, z, in_place=True)
        return self._out

    def backward(self, grad):
        gz = _activation_vjp(self.activation, self._out, grad)
        kernel = V.Kernel(self.w.values, self.b.values)
        gx, gw, gb = V.correlate3d_vjp_batch(self._x, kernel, gz, self.stride, self.padding)
        self.w.grad = gw
        self.b.grad = gb
        return gx


class MaxPool3D(Layer):
    def __init__(self, window=2, stride=2):
        super().__init__()
        self.window = window
        self.stride = stride

    def forward(self, x, mode="inference", rng=None):
        self._x = x
        self._out = V.maxpool3d_batch(x, self.window, self.stride)
        return self._out

    def backward(self, grad):
        return V.maxpool3d_vjp_batch(self._x, self._out, grad, self.window, self.stride)


class GlobalAvgPool3D(Layer):
    def forward(self, x, mode="inference", rng=None):
        self._shape = x.shape
        return x.mean(axis=(1, 2, 3))

    def backward(self, grad):
        n, x, y, z, c = self._shape
        scale = 1.0 / (x * y * z)
        return np.broadcast_to(grad[:, None, None, None, :] * scale, self._shape).copy()


class Flatten(Layer):
    def forward(self, x, mode="inference", rng=None):
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad):
        return grad.reshape(self._shape)


class Dense(Layer):
    def __init__(self, w: ParamTensor, b: ParamTensor, activation=None):
        super().__init__()
        self.activation = activation
        self.w, self.b = w, b
        self.params = [w, b]

    def forward(self, x, mode="inference", rng=None):
        if x.ndim != 2:
            raise ShapeError(f"dense layer expects a (n, features) matrix, got {x.shape}")
        self._x = x
        self._out = _apply_activation(self.activation, x @ self.w.values + self.b.values, in_place=True)
        return self._out

    def backward(self, grad):
        gz = _activation_vjp(self.activation, self._out, grad)
        self.w.grad = self._x.T @ gz
        self.b.grad = gz.sum(axis=0)
        return gz @ self.w.values.T


class BatchNorm(Layer):
    """Per-channel batch normalization with moving statistics.

    ``moving <- momentum * moving + (1 - momentum) * batch`` on every train
    forward.  A layer is ``pinned`` when it is frozen, neither gamma nor beta
    trainable (Keras's rule for a frozen batch norm): it then behaves as
    inference regardless of mode and never updates its moving statistics.
    """

    def __init__(self, gamma: ParamTensor, beta: ParamTensor, moving_mean, moving_var, momentum=0.99):
        super().__init__()
        self.momentum = momentum
        self.gamma, self.beta = gamma, beta
        self.moving_mean, self.moving_var = moving_mean, moving_var
        self.params = [gamma, beta]

    @property
    def pinned(self) -> bool:
        return not (self.gamma.trainable or self.beta.trainable)

    def forward(self, x, mode="inference", rng=None):
        axes = tuple(range(x.ndim - 1))
        if mode == "train" and not self.pinned:
            mean = x.mean(axis=axes)
            var = x.var(axis=axes)
            self.moving_mean = (self.momentum * self.moving_mean + (1 - self.momentum) * mean).astype(
                self.moving_mean.dtype
            )
            self.moving_var = (self.momentum * self.moving_var + (1 - self.momentum) * var).astype(
                self.moving_var.dtype
            )
            self._batch_stats = True
        else:
            mean = self.moving_mean
            var = self.moving_var
            self._batch_stats = False
        self._inv_std = 1.0 / np.sqrt(var + BN_EPS)
        self._xhat = (x - mean) * self._inv_std
        return self.gamma.values * self._xhat + self.beta.values

    def backward(self, grad):
        axes = tuple(range(grad.ndim - 1))
        self.gamma.grad = (grad * self._xhat).sum(axis=axes)
        self.beta.grad = grad.sum(axis=axes)
        g_xhat = grad * self.gamma.values
        if not self._batch_stats:
            return g_xhat * self._inv_std
        m = self._xhat.size // self._xhat.shape[-1]  # a Python int keeps grad's dtype
        return (
            self._inv_std
            / m
            * (m * g_xhat - g_xhat.sum(axis=axes) - self._xhat * (g_xhat * self._xhat).sum(axis=axes))
        )


class Dropout(Layer):
    """Inverted dropout: kept units scaled by 1/(1 - rate)."""

    def __init__(self, rate):
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise SpecError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate

    def forward(self, x, mode="inference", rng=None):
        if mode != "train" or self.rate == 0.0:
            self._mask = None
            return x
        if rng is None:
            raise SpecError("dropout in train mode requires an rng")
        keep = 1.0 - self.rate
        self._mask = (rng.random(x.shape) >= self.rate).astype(x.dtype) / keep
        return x * self._mask

    def backward(self, grad):
        if self._mask is None:
            return grad
        return grad * self._mask


class Activation(Layer):
    def __init__(self, name):
        super().__init__()
        self.name = name

    def forward(self, x, mode="inference", rng=None):
        self._out = _apply_activation(self.name, x)  # x belongs to the layer before
        return self._out

    def backward(self, grad):
        return _activation_vjp(self.name, self._out, grad)


class ResidualBlock(Layer):
    """y = F(x) + shortcut(x).

    F is conv-bn-relu-conv-bn; the shortcut is the identity, or a 1x1x1
    projection conv + bn when the channel count or stride changes.  No
    activation is applied after the addition; network builders append an
    explicit relu where the architecture calls for one.
    """

    def __init__(self, main_layers, shortcut_layers):
        super().__init__()
        self.main = main_layers
        self.shortcut = shortcut_layers
        self.params = [p for lyr in self.main + self.shortcut for p in lyr.params]

    def forward(self, x, mode="inference", rng=None):
        h = x
        for lyr in self.main:
            h = lyr.forward(h, mode, rng)
        s = x
        for lyr in self.shortcut:
            s = lyr.forward(s, mode, rng)
        if h.shape != s.shape:
            raise ShapeError(f"residual path {h.shape} does not match shortcut {s.shape}")
        return h + s

    def backward(self, grad):
        gm = grad
        for lyr in reversed(self.main):
            gm = lyr.backward(gm)
        gs = grad
        for lyr in reversed(self.shortcut):
            gs = lyr.backward(gs)
        return gm + gs
