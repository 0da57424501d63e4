"""Declarative model specs, symbolic summaries, and model construction.

A :class:`ModelSpec` is an ordered layer list (or a two-branch composite
fused by concatenation).  ``summarize`` walks a spec purely symbolically;
``build`` materializes parameter tensors with Glorot-uniform initialization.
Transfer surgery and two-branch fusion operate on built models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import fileio, layers as L
from .errors import SpecError
from .rng import substream

LAYER_KINDS = {
    "conv3d",
    "maxpool3d",
    "global_avg_pool3d",
    "flatten",
    "dense",
    "batch_norm",
    "dropout",
    "activation",
    "residual_block",
}

ACTIVATIONS = {"relu", "sigmoid", "softmax", "linear"}


@dataclass
class LayerSpec:
    kind: str
    filters: int | None = None
    k: int | None = None
    stride: int = 1
    padding: int = 0
    window: int | None = None
    units: int | None = None
    rate: float | None = None
    momentum: float | None = None
    activation: str | None = None
    l2: float = 0.0

    def __post_init__(self):
        if self.kind not in LAYER_KINDS:
            raise SpecError(f"unknown layer kind {self.kind!r}")
        if self.activation is not None and self.activation not in ACTIVATIONS:
            raise SpecError(f"unknown activation {self.activation!r}")
        if self.kind == "conv3d":
            if not self.filters or self.filters < 1 or not self.k or self.k < 1:
                raise SpecError("conv3d needs filters >= 1 and k >= 1")
            if self.stride < 1 or self.padding < 0:
                raise SpecError("conv3d stride must be >= 1 and padding >= 0")
        elif self.kind == "maxpool3d":
            if not self.window or self.window < 1 or self.stride < 1:
                raise SpecError("maxpool3d needs window >= 1 and stride >= 1")
        elif self.kind == "dense":
            if not self.units or self.units < 1:
                raise SpecError("dense needs units >= 1")
        elif self.kind == "dropout":
            if self.rate is None or not 0.0 <= self.rate < 1.0:
                raise SpecError("dropout rate must be in [0, 1)")
        elif self.kind == "batch_norm":
            if self.momentum is None:
                self.momentum = 0.99
            if not 0.0 < self.momentum < 1.0:
                raise SpecError("batch_norm momentum must be in (0, 1)")
        elif self.kind == "activation":
            if self.activation is None:
                raise SpecError("activation layer needs an activation name")
        elif self.kind == "residual_block":
            if not self.filters or self.filters < 1:
                raise SpecError("residual_block needs filters >= 1")
            if self.momentum is None:
                self.momentum = 0.99

    def to_dict(self) -> dict:
        d = {"kind": self.kind}
        for f in fields(self):
            if f.name == "kind":
                continue
            v = getattr(self, f.name)
            if v is None:
                continue
            if f.name == "l2" and v == 0.0:
                continue
            if f.name in ("stride", "padding") and v == f.default and self.kind not in (
                "conv3d",
                "maxpool3d",
                "residual_block",
            ):
                continue
            d[f.name] = v
        return d


@dataclass
class ModelSpec:
    name: str
    input_dims: tuple | None = None
    layers: list[LayerSpec] = field(default_factory=list)
    # two-branch composite: both branches set, fusion is concatenation
    branch_a: "ModelSpec | None" = None
    branch_b: "ModelSpec | None" = None
    head: list[LayerSpec] = field(default_factory=list)

    @property
    def is_two_branch(self) -> bool:
        return self.branch_a is not None

    def to_dict(self) -> dict:
        if self.is_two_branch:
            return {
                "name": self.name,
                "two_branch": {
                    "branch_a": self.branch_a.to_dict(),
                    "branch_b": self.branch_b.to_dict(),
                    "head": [l.to_dict() for l in self.head],
                },
            }
        return {
            "name": self.name,
            "input_dims": list(self.input_dims),
            "layers": [l.to_dict() for l in self.layers],
        }


def spec_from_dict(d: dict) -> ModelSpec:
    if not isinstance(d, dict):
        raise SpecError(f"model spec must be a JSON object, got {type(d).__name__}")
    try:
        if "two_branch" in d:
            tb = d["two_branch"]
            return ModelSpec(
                name=d.get("name", "two_branch"),
                branch_a=spec_from_dict(tb["branch_a"]),
                branch_b=spec_from_dict(tb["branch_b"]),
                head=[LayerSpec(**l) for l in tb["head"]],
            )
        return ModelSpec(
            name=d.get("name", "model"),
            input_dims=tuple(d["input_dims"]),
            layers=[LayerSpec(**l) for l in d["layers"]],
        )
    except (KeyError, TypeError) as exc:
        raise SpecError(f"malformed model spec: {exc}") from exc


def load_spec(path) -> ModelSpec:
    return spec_from_dict(fileio.read_json(path, SpecError, "model spec"))


def save_spec(spec: ModelSpec, path):
    fileio.write_json(path, spec.to_dict(), indent=1)


# ---------------------------------------------------------------------------
# Symbolic shape/parameter walk


def _conv_out(shape, k, stride, padding, filters):
    from .volume import conv_output_extent

    x, y, z, _ = shape
    return (
        conv_output_extent(x, k, padding, stride),
        conv_output_extent(y, k, padding, stride),
        conv_output_extent(z, k, padding, stride),
        filters,
    )


def _require_volume(shape, kind):
    if not isinstance(shape, tuple):
        raise SpecError(f"{kind} needs a volume input, got vector of width {shape}")


def _residual_param_count(c_in, filters, stride):
    conv1 = 27 * c_in * filters + filters
    conv2 = 27 * filters * filters + filters
    bn = 4 * filters
    total = conv1 + conv2 + 2 * bn
    non_trainable = 4 * filters
    if stride != 1 or c_in != filters:
        total += c_in * filters + filters + 4 * filters  # projection conv + bn
        non_trainable += 2 * filters
    return total, non_trainable


def layer_out_shape(spec: LayerSpec, shape):
    """Propagate a shape (4-tuple volume or int vector width) through one layer."""
    kind = spec.kind
    if kind == "conv3d":
        _require_volume(shape, kind)
        return _conv_out(shape, spec.k, spec.stride, spec.padding, spec.filters)
    if kind == "maxpool3d":
        _require_volume(shape, kind)
        return _conv_out(shape, spec.window, spec.stride, 0, shape[3])
    if kind == "global_avg_pool3d":
        _require_volume(shape, kind)
        return shape[3]
    if kind == "flatten":
        _require_volume(shape, kind)
        return int(np.prod(shape))
    if kind == "dense":
        if isinstance(shape, tuple):
            raise SpecError("dense layer needs a vector input (flatten or pool first)")
        return spec.units
    if kind == "residual_block":
        _require_volume(shape, kind)
        s = spec.stride
        x, y, z, _ = shape
        # 3x3x3 convs with padding 1; first conv carries the stride
        return ((x + s - 1) // s, (y + s - 1) // s, (z + s - 1) // s, spec.filters)
    # batch_norm, dropout, activation preserve shape
    return shape


def layer_param_counts(spec: LayerSpec, in_shape):
    """(total, non_trainable) parameter counts of one layer."""
    kind = spec.kind
    if kind == "conv3d":
        c_in = in_shape[3]
        return spec.k**3 * c_in * spec.filters + spec.filters, 0
    if kind == "dense":
        return in_shape * spec.units + spec.units, 0
    if kind == "batch_norm":
        c = in_shape[3] if isinstance(in_shape, tuple) else in_shape
        return 4 * c, 2 * c
    if kind == "residual_block":
        return _residual_param_count(in_shape[3], spec.filters, spec.stride)
    return 0, 0


def _layer_label(spec: LayerSpec, out_shape) -> str:
    kind = spec.kind
    if kind == "conv3d":
        return f"{spec.k} x {spec.k} x {spec.k} Conv3D ({spec.filters}), pad {spec.padding}"
    if kind == "maxpool3d":
        return f"{spec.window} x {spec.window} x {spec.window} MaxPooling3D, stride {spec.stride}"
    if kind == "global_avg_pool3d":
        return "GlobalAveragePooling3D"
    if kind == "flatten":
        return "Flatten"
    if kind == "dense":
        suffix = ", softmax" if spec.activation == "softmax" else ""
        return f"FC ({spec.units}){suffix}"
    if kind == "batch_norm":
        return f"BatchNorm, momentum {spec.momentum:g}"
    if kind == "dropout":
        return f"Dropout ({spec.rate:g})"
    if kind == "activation":
        return f"Activation ({spec.activation})"
    if kind == "residual_block":
        return f"ResidualBlock ({spec.filters}), stride {spec.stride}"
    return kind


@dataclass
class SummaryRow:
    layer: str
    output_dims: tuple | int
    params: int
    trainable: int


@dataclass
class Summary:
    name: str
    rows: list[SummaryRow]
    total: int
    trainable: int

    @property
    def non_trainable(self) -> int:
        return self.total - self.trainable


def _summarize_layers(shape, specs, rows, prefix=""):
    for lspec in specs:
        out = layer_out_shape(lspec, shape)
        total, non_trainable = layer_param_counts(lspec, shape)
        rows.append(SummaryRow(prefix + _layer_label(lspec, out), out, total, total - non_trainable))
        shape = out
    return shape


def _summarize_sequence(input_dims, specs, rows, prefix=""):
    rows.append(SummaryRow(prefix + "Input", tuple(input_dims), 0, 0))
    return _summarize_layers(tuple(input_dims), specs, rows, prefix)


def summarize(spec: ModelSpec) -> Summary:
    """Symbolic per-layer table; allocates no parameter storage."""
    rows: list[SummaryRow] = []
    if spec.is_two_branch:
        wa = _summarize_sequence(spec.branch_a.input_dims, spec.branch_a.layers, rows, prefix="A: ")
        wb = _summarize_sequence(spec.branch_b.input_dims, spec.branch_b.layers, rows, prefix="B: ")
        for w, label in ((wa, "A"), (wb, "B")):
            if isinstance(w, tuple):
                raise SpecError(f"branch {label} must end in a vector, got {w}")
        rows.append(SummaryRow("Concatenate", wa + wb, 0, 0))
        _summarize_layers(wa + wb, spec.head, rows)
    else:
        _summarize_sequence(spec.input_dims, spec.layers, rows)
    total = sum(r.params for r in rows)
    trainable = sum(r.trainable for r in rows)
    return Summary(spec.name, rows, total, trainable)


def format_summary(summary: Summary) -> str:
    width = max(len(r.layer) for r in summary.rows) + 2
    lines = [f"Model: {summary.name}", "-" * (width + 40)]
    for r in summary.rows:
        dims = str(r.output_dims)
        lines.append(f"{r.layer:<{width}} {dims:<24} {r.params:>12,}")
    lines.append("-" * (width + 40))
    lines.append(f"Total params: {summary.total:,}")
    lines.append(f"Trainable params: {summary.trainable:,}")
    lines.append(f"Non-trainable params: {summary.non_trainable:,}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Materialization


def glorot_uniform(rng, shape, fan_in, fan_out, dtype):
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


def _make_layer(lspec: LayerSpec, in_shape, rng, name, dtype):
    kind = lspec.kind
    if kind == "conv3d":
        c_in = in_shape[3]
        k = lspec.k
        fan_in, fan_out = k**3 * c_in, k**3 * lspec.filters
        w = glorot_uniform(rng, (k, k, k, c_in, lspec.filters), fan_in, fan_out, dtype)
        b = np.zeros(lspec.filters, dtype=dtype)
        return L.Conv3D(w, b, lspec.stride, lspec.padding, lspec.activation, lspec.l2, name)
    if kind == "maxpool3d":
        return L.MaxPool3D(lspec.window, lspec.stride)
    if kind == "global_avg_pool3d":
        return L.GlobalAvgPool3D()
    if kind == "flatten":
        return L.Flatten()
    if kind == "dense":
        w = glorot_uniform(rng, (in_shape, lspec.units), in_shape, lspec.units, dtype)
        b = np.zeros(lspec.units, dtype=dtype)
        return L.Dense(w, b, lspec.activation, lspec.l2, name)
    if kind == "batch_norm":
        c = in_shape[3] if isinstance(in_shape, tuple) else in_shape
        return L.BatchNorm(c, lspec.momentum, name=name, dtype=dtype)
    if kind == "dropout":
        return L.Dropout(lspec.rate)
    if kind == "activation":
        return L.Activation(lspec.activation)
    if kind == "residual_block":
        c_in, f, s = in_shape[3], lspec.filters, lspec.stride
        mk_conv = lambda cin, cout, kk, ss, pad, idx: L.Conv3D(
            glorot_uniform(rng, (kk, kk, kk, cin, cout), kk**3 * cin, kk**3 * cout, dtype),
            np.zeros(cout, dtype=dtype),
            ss,
            pad,
            activation=None,
            l2=lspec.l2,
            name=f"{name}.conv{idx}",
        )
        main = [
            mk_conv(c_in, f, 3, s, 1, 1),
            L.BatchNorm(f, lspec.momentum, name=f"{name}.bn1", dtype=dtype),
            L.Activation("relu"),
            mk_conv(f, f, 3, 1, 1, 2),
            L.BatchNorm(f, lspec.momentum, name=f"{name}.bn2", dtype=dtype),
        ]
        shortcut = []
        if s != 1 or c_in != f:
            shortcut = [
                mk_conv(c_in, f, 1, s, 0, "_proj"),
                L.BatchNorm(f, lspec.momentum, name=f"{name}.bn_proj", dtype=dtype),
            ]
        return L.ResidualBlock(main, shortcut)
    raise SpecError(f"unknown layer kind {kind!r}")


def _first_trainable(layers) -> int:
    """Index of the first layer with a trainable parameter; ``len(layers)`` if none."""
    return next((i for i, lyr in enumerate(layers) if any(p.trainable for p in lyr.params)),
                len(layers))


def _backprop(layers, grad, stop):
    """Run ``backward`` from the last layer down to ``layers[stop]``; returns its input gradient."""
    for lyr in reversed(layers[stop:]):
        grad = lyr.backward(grad)
    return grad


class Model:
    """A materialized sequential model."""

    def __init__(self, spec: ModelSpec, layers: list[L.Layer]):
        self.spec = spec
        self.layers = layers

    @property
    def input_dims(self):
        return self.spec.input_dims

    def params(self) -> list[L.ParamTensor]:
        return [p for lyr in self.layers for p in lyr.params]

    def forward(self, batch, mode="inference", rng=None):
        h = np.asarray(batch)
        expected = tuple(self.spec.input_dims)
        if h.ndim != 5 or h.shape[1:] != expected:
            raise SpecError(f"batch shape {h.shape} does not match input dims {expected}")
        params = self.params()
        if params:  # a float32 model computes in float32 whatever its input's dtype
            h = h.astype(params[0].values.dtype, copy=False)
        for lyr in self.layers:
            h = lyr.forward(h, mode, rng)
        return h

    def backward(self, grad):
        """Leave parameter gradients on the layers from the first trainable one on.

        The layers in front of it are frozen, and their input gradients would
        feed nothing, so they are not run.
        """
        _backprop(self.layers, grad, _first_trainable(self.layers))

    def freeze_all(self):
        for p in self.params():
            p.trainable = False
        for bn in bn_layers(self):
            bn.pinned = True

    def _walk_layers(self):
        for lyr in self.layers:
            if isinstance(lyr, L.ResidualBlock):
                yield from lyr.main
                yield from lyr.shortcut
            yield lyr


class TwoBranchModel:
    """Two single-branch models fused by feature concatenation plus a head."""

    def __init__(self, spec: ModelSpec, branch_a: Model, branch_b: Model, head_layers: list[L.Layer]):
        self.spec = spec
        self.branch_a = branch_a
        self.branch_b = branch_b
        self.head = head_layers
        self._split = _sequence_out_shape(spec.branch_a)  # columns of branch A's features

    def params(self) -> list[L.ParamTensor]:
        return self.branch_a.params() + self.branch_b.params() + [
            p for lyr in self.head for p in lyr.params
        ]

    def forward(self, batch_pair, mode="inference", rng=None):
        xa, xb = batch_pair
        fa = self.branch_a.forward(xa, mode, rng)
        fb = self.branch_b.forward(xb, mode, rng)
        h = np.concatenate([fa, fb], axis=1)
        for lyr in self.head:
            h = lyr.forward(h, mode, rng)
        return h

    def backward(self, grad):
        """Back-propagate through the head, then through each branch that trains.

        A branch with no trainable parameter is skipped; when neither branch
        trains, the head stops at its own first trainable layer.
        """
        branches = ((self.branch_a, slice(None, self._split)), (self.branch_b, slice(self._split, None)))
        trained = [(m, cols) for m, cols in branches if any(p.trainable for p in m.params())]
        g = _backprop(self.head, grad, 0 if trained else _first_trainable(self.head))
        for m, cols in trained:
            m.backward(g[:, cols])

    def _walk_layers(self):
        yield from self.branch_a._walk_layers()
        yield from self.branch_b._walk_layers()
        yield from self.head


def bn_layers(model) -> list[L.BatchNorm]:
    """The batch-norm layers of a model, residual blocks and branches included, in a fixed order."""
    return [lyr for lyr in model._walk_layers() if isinstance(lyr, L.BatchNorm)]


def build(spec: ModelSpec, seed: int = 0, dtype=np.float32):
    """Materialize a spec: Glorot-uniform weights, zero biases, unit BN.

    Deterministic under ``seed``: identical (spec, seed) pairs produce
    bitwise-identical parameters.
    """
    summarize(spec)  # validates shape composition before any allocation
    rng = substream(seed, "init")
    if spec.is_two_branch:
        ma = _build_sequence(spec.branch_a, rng, dtype)
        mb = _build_sequence(spec.branch_b, rng, dtype)
        wa = _sequence_out_shape(spec.branch_a)
        wb = _sequence_out_shape(spec.branch_b)
        head, _ = _materialize(spec.head, wa + wb, rng, "head", dtype)
        return TwoBranchModel(spec, ma, mb, head)
    return _build_sequence(spec, rng, dtype)


def _sequence_out_shape(spec: ModelSpec):
    shape = tuple(spec.input_dims)
    for lspec in spec.layers:
        shape = layer_out_shape(lspec, shape)
    return shape


def _materialize(lspecs, shape, rng, prefix, dtype):
    layers = []
    for i, lspec in enumerate(lspecs):
        layers.append(_make_layer(lspec, shape, rng, f"{prefix}.{i}_{lspec.kind}", dtype))
        shape = layer_out_shape(lspec, shape)
    return layers, shape


def _build_sequence(spec: ModelSpec, rng, dtype) -> Model:
    layers, _ = _materialize(spec.layers, tuple(spec.input_dims), rng, spec.name, dtype)
    return Model(spec, layers)


# ---------------------------------------------------------------------------
# ResNet-18-3D, transfer surgery, two-branch fusion


def build_resnet18_3d(input_dims, classes: int = 3, bn_momentum: float = 0.99) -> ModelSpec:
    """Canonical 18-layer residual spec with 3D ops.

    Stem: 7x7x7 conv stride 2 (pad 3) + BN + relu + 3x3x3 max pool stride 2;
    four stages of two residual blocks with channels 64/128/256/512, the
    first block of stages 2-4 downsampling with a projection shortcut;
    global average pool; dense softmax head.
    """
    if len(input_dims) != 4:
        raise SpecError("input_dims must be (x, y, z, c)")
    layers = [
        LayerSpec("conv3d", filters=64, k=7, stride=2, padding=3, activation=None),
        LayerSpec("batch_norm", momentum=bn_momentum),
        LayerSpec("activation", activation="relu"),
        LayerSpec("maxpool3d", window=3, stride=2),
    ]
    for stage, channels in enumerate((64, 128, 256, 512)):
        for block in range(2):
            stride = 2 if (stage > 0 and block == 0) else 1
            layers.append(
                LayerSpec("residual_block", filters=channels, stride=stride, momentum=bn_momentum)
            )
            layers.append(LayerSpec("activation", activation="relu"))
    layers.append(LayerSpec("global_avg_pool3d"))
    layers.append(LayerSpec("dense", units=classes, activation="softmax"))
    spec = ModelSpec("resnet18_3d", tuple(input_dims), layers)
    summarize(spec)  # raises SpecError if the input is too small for the stem
    return spec


def _is_resnet_like(spec: ModelSpec) -> bool:
    if spec.is_two_branch or len(spec.layers) < 4:
        return False
    kinds = [l.kind for l in spec.layers]
    return (
        "residual_block" in kinds
        and kinds[-2] == "global_avg_pool3d"
        and kinds[-1] == "dense"
    )


def surgery(model: Model, recipe: str, classes: int = 3, seed: int = 0) -> Model:
    """Transfer-learning surgery on a built 3D ResNet-18.

    ``mri``: drop only the final pool + classifier.  ``pet``: additionally
    drop the last residual stage (its two blocks).  Retained parameters are
    frozen and retained batch-norm layers are pinned to inference mode; a
    fresh global-average-pool + dense softmax head is appended.
    """
    if recipe not in ("pet", "mri"):
        raise SpecError(f"unknown surgery recipe {recipe!r}")
    if not isinstance(model, Model) or not _is_resnet_like(model.spec):
        raise SpecError("surgery requires a built resnet18_3d model")

    keep = len(model.spec.layers) - 2  # drop global_avg_pool3d + dense
    if recipe == "pet":
        blocks_dropped = 0
        while keep > 0 and blocks_dropped < 2:
            keep -= 1
            if model.spec.layers[keep].kind == "residual_block":
                blocks_dropped += 1
        if blocks_dropped < 2:
            raise SpecError("model does not contain two trailing residual blocks")

    kept_specs = list(model.spec.layers[:keep])
    kept_layers = list(model.layers[:keep])

    backbone = Model(ModelSpec("backbone", model.spec.input_dims, kept_specs), kept_layers)
    backbone.freeze_all()

    shape = _sequence_out_shape(backbone.spec)
    rng = substream(seed, "init")
    dtype = model.params()[0].values.dtype
    head_specs = [
        LayerSpec("global_avg_pool3d"),
        LayerSpec("dense", units=classes, activation="softmax"),
    ]
    head_layers, _ = _materialize(head_specs, shape, rng, f"{recipe}_head", dtype)

    new_spec = ModelSpec(f"{model.spec.name}_{recipe}_surgery", model.spec.input_dims,
                         kept_specs + head_specs)
    return Model(new_spec, kept_layers + head_layers)


def fuse_two_branch(branch_a: Model, branch_b: Model, head: list[LayerSpec], seed: int = 0):
    """Fuse two vector-terminated branch models by concatenation plus a head."""
    wa, wb = _sequence_out_shape(branch_a.spec), _sequence_out_shape(branch_b.spec)
    for out, label in ((wa, "branch_a"), (wb, "branch_b")):
        if isinstance(out, tuple):
            raise SpecError(f"{label} must end in a vector (remove its classifier), got {out}")
    rng = substream(seed, "init")
    dtype = (branch_a.params() or branch_b.params())[0].values.dtype
    head_layers, _ = _materialize(head, wa + wb, rng, "head", dtype)
    spec = ModelSpec("two_branch", branch_a=branch_a.spec, branch_b=branch_b.spec, head=head)
    return TwoBranchModel(spec, branch_a, branch_b, head_layers)
