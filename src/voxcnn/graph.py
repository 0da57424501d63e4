"""Declarative model specs, symbolic summaries, and model construction.

A :class:`ModelSpec` is an ordered layer list with its input dims, or a
two-branch composite of two such lists fused by concatenation under a head;
any other shape raises :class:`SpecError`.  ``summarize`` walks a spec purely
symbolically; ``build`` materializes parameter tensors with Glorot-uniform
initialization.

Field rule: ``_FIELDS`` states once, per layer kind, the :class:`LayerSpec`
fields the kind needs, those it may set, and the ``layers`` class built from
it.  Any other field must keep its default, or the spec raises
:class:`SpecError`, and ``to_dict`` writes the read fields only.  A
``LayerSpec`` is frozen once validated: a built layer holds the spec it was
built from and reads its settings there, and one spec may serve many models.
Layout rule: ``_slots`` states once, per layer kind, the arrays a layer holds
(name suffix, role, shape, initial fill and L2 weight) in ``Model.params()``
order, a batch norm's moving statistics last.  A residual block holds no
array of its own: ``_block_parts`` expands it into named conv3d, batch_norm
and activation sub-specs.  Summary counts, output shapes, and a model's
arrays all derive from these statements.  Every model is made by
``assemble``, whether ``build`` draws its arrays, ``checkpoint`` loads them,
or transfer surgery takes them from a built model, which it leaves
unchanged; every array is named by its slot in the spec it is assembled for.
``arrays`` walks a model's arrays in the same slot order, each with whether
training leaves it alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np

from . import fileio, layers as L
from .errors import SpecError, require_float_dtype, require_int, require_known_keys, require_real
from .records import CLASS_NAMES
from .rng import substream

ACTIVATIONS = {"relu", "sigmoid", "softmax", "linear"}
# kind -> (the fields it needs, the fields it may set, its layer class); every other field keeps its default
_FIELDS = {
    "conv3d": (("filters", "k"), ("stride", "padding", "activation", "l2"), L.Conv3D),
    "maxpool3d": (("window",), ("stride",), L.MaxPool3D),
    "global_avg_pool3d": ((), (), L.GlobalAvgPool3D),
    "flatten": ((), (), L.Flatten),
    "dense": (("units",), ("activation", "l2"), L.Dense),
    "batch_norm": ((), ("momentum",), L.BatchNorm),
    "dropout": (("rate",), (), L.Dropout),
    "activation": (("activation",), (), L.Activation),
    "residual_block": (("filters",), ("stride", "momentum", "l2"), L.ResidualBlock),
}
_INT_FIELDS = ("filters", "k", "stride", "padding", "window", "units")
_REAL_FIELDS = ("rate", "momentum", "l2")


@dataclass(frozen=True)
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
        if self.kind not in _FIELDS:
            raise SpecError(f"unknown layer kind {self.kind!r}")
        needs, may, _ = _FIELDS[self.kind]
        for f in fields(self)[1:]:
            if f.name not in needs + may and getattr(self, f.name) != f.default:
                raise SpecError(f"{self.kind} takes no {f.name}")
        for name in needs:
            if getattr(self, name) is None:
                raise SpecError(f"{self.kind} needs {name}")
        if self.activation is not None and self.activation not in ACTIVATIONS:
            raise SpecError(f"unknown activation {self.activation!r}")
        for names, require in ((_INT_FIELDS, require_int), (_REAL_FIELDS, require_real)):
            for name in names:
                if getattr(self, name) is not None:
                    require(f"{self.kind} {name}", getattr(self, name), SpecError)
        for name in ("filters", "k", "stride", "window", "units"):
            if getattr(self, name) is not None and getattr(self, name) < 1:
                raise SpecError(f"{self.kind} needs {name} >= 1")
        if self.padding < 0 or self.l2 < 0:
            raise SpecError(f"{self.kind} padding and l2 must be >= 0")
        if self.kind == "dropout" and not 0.0 <= self.rate < 1.0:
            raise SpecError("dropout rate must be in [0, 1)")
        if "momentum" in may:
            if self.momentum is None:
                object.__setattr__(self, "momentum", 0.99)
            if not 0.0 < self.momentum < 1.0:
                raise SpecError(f"{self.kind} momentum must be in (0, 1)")

    def to_dict(self) -> dict:
        """The kind and the fields it reads that are set, less a zero ``l2``."""
        needs, may, _ = _FIELDS[self.kind]
        read = ("kind",) + needs + may
        return {f.name: v for f in fields(self) if f.name in read
                and (v := getattr(self, f.name)) is not None and not (f.name == "l2" and v == 0.0)}


@dataclass
class ModelSpec:
    name: str
    input_dims: tuple | None = None
    layers: list[LayerSpec] = field(default_factory=list)
    # two-branch composite: both branches set, fusion is concatenation
    branch_a: "ModelSpec | None" = None
    branch_b: "ModelSpec | None" = None
    head: list[LayerSpec] = field(default_factory=list)

    def __post_init__(self):
        if (self.branch_a is None) != (self.branch_b is None):
            raise SpecError("a two-branch spec needs both branch_a and branch_b")
        for branch in (self.branch_a, self.branch_b):
            if branch is not None and branch.is_two_branch:
                raise SpecError(f"branch {branch.name!r} must be a single-branch spec")
        if self.is_two_branch and (self.input_dims is not None or self.layers):
            raise SpecError(f"two-branch spec {self.name!r} takes no input_dims or layers of its own")
        if not self.is_two_branch and self.head:
            raise SpecError(f"single-branch spec {self.name!r} takes no head")
        if not self.is_two_branch and self.input_dims is None:
            raise SpecError(f"single-branch spec {self.name!r} needs input_dims")
        if self.input_dims is not None:
            self.input_dims = tuple(self.input_dims)
            if len(self.input_dims) != 4:
                raise SpecError(f"input_dims must be (x, y, z, c), got {list(self.input_dims)}")
            for d in self.input_dims:
                require_int("each input dim", d, SpecError)
                if d < 1:
                    raise SpecError(f"input dims must be >= 1, got {list(self.input_dims)}")

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
            require_known_keys("two-branch model spec key", d, ("name", "two_branch"), SpecError)
            tb = d["two_branch"]
            require_known_keys("two_branch key", tb, ("branch_a", "branch_b", "head"), SpecError)
            return ModelSpec(
                name=d.get("name", "two_branch"),
                branch_a=spec_from_dict(tb["branch_a"]),
                branch_b=spec_from_dict(tb["branch_b"]),
                head=[LayerSpec(**l) for l in tb["head"]],
            )
        require_known_keys("model spec key", d, ("name", "input_dims", "layers"), SpecError)
        return ModelSpec(
            name=d.get("name", "model"),
            input_dims=d["input_dims"],
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


class Slot(NamedTuple):
    """One array a layer holds."""

    suffix: str  # of the array's name, after the layer's name
    role: str  # the ParamTensor role, or "bn_state" for a batch norm's moving statistic
    shape: tuple
    fill: float | None  # every element's initial value; None draws Glorot-uniform
    l2: float = 0.0


def _slots(spec: LayerSpec, in_shape) -> list[Slot]:
    """The arrays of one layer on inputs of ``in_shape``; none for a residual block."""
    kind = spec.kind
    if kind == "conv3d":
        k, f = spec.k, spec.filters
        return [Slot("weights", "conv_weights", (k, k, k, in_shape[3], f), None, spec.l2),
                Slot("bias", "conv_bias", (f,), 0.0)]
    if kind == "dense":
        return [Slot("weights", "dense_weights", (in_shape, spec.units), None, spec.l2),
                Slot("bias", "dense_bias", (spec.units,), 0.0)]
    if kind == "batch_norm":
        c = (in_shape[3] if isinstance(in_shape, tuple) else in_shape,)
        return [Slot("gamma", "bn_gamma", c, 1.0), Slot("beta", "bn_beta", c, 0.0),
                Slot("moving_mean", "bn_state", c, 0.0), Slot("moving_var", "bn_state", c, 1.0)]
    return []


def _block_parts(spec: LayerSpec, c_in):
    """A residual block's sub-layers as (name, spec) pairs: its main path, then its shortcut.

    The main path is conv-bn-relu-conv-bn with 3x3x3 convs at padding 1, the
    first carrying the stride; the shortcut is the identity, or a 1x1x1
    projection conv + bn when the stride or the channel count changes.
    """
    f, s = spec.filters, spec.stride

    def conv(k, stride, padding):
        return LayerSpec("conv3d", filters=f, k=k, stride=stride, padding=padding,
                         activation=None, l2=spec.l2)

    bn = LayerSpec("batch_norm", momentum=spec.momentum)
    main = [("conv1", conv(3, s, 1)), ("bn1", bn), ("relu", LayerSpec("activation", activation="relu")),
            ("conv2", conv(3, 1, 1)), ("bn2", bn)]
    shortcut = [("conv_proj", conv(1, s, 0)), ("bn_proj", bn)] if s != 1 or c_in != f else []
    return main, shortcut


def _inputs(parts, shape):
    """(name, spec, input shape) of each (name, spec) pair of a path that starts at ``shape``."""
    for name, lspec in parts:
        yield name, lspec, shape
        shape = layer_out_shape(lspec, shape)


def _numbered(lspecs):
    """The (name, spec) pairs of a layer list, named by position and kind."""
    return [(f"{i}_{lspec.kind}", lspec) for i, lspec in enumerate(lspecs)]


def _out_shape(lspecs, shape):
    """The output shape of a layer list on inputs of ``shape``."""
    for lspec in lspecs:
        shape = layer_out_shape(lspec, shape)
    return shape


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
        main, _ = _block_parts(spec, shape[3])
        return _out_shape([lspec for _, lspec in main], shape)
    # batch_norm, dropout, activation preserve shape
    return shape


def layer_param_counts(spec: LayerSpec, in_shape):
    """(total, non_trainable) parameter counts of one layer."""
    if spec.kind == "residual_block":
        counts = [layer_param_counts(lspec, shape) for path in _block_parts(spec, in_shape[3])
                  for _, lspec, shape in _inputs(path, in_shape)]
        return sum(c[0] for c in counts), sum(c[1] for c in counts)
    slots = _slots(spec, in_shape)
    return (sum(math.prod(s.shape) for s in slots),
            sum(math.prod(s.shape) for s in slots if s.role == "bn_state"))


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
    return f"ResidualBlock ({spec.filters}), stride {spec.stride}"  # the one kind left


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

    @property
    def total(self) -> int:
        return sum(r.params for r in self.rows)

    @property
    def trainable(self) -> int:
        return sum(r.trainable for r in self.rows)

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


def _summarize_sequence(spec: ModelSpec, rows, prefix=""):
    rows.append(SummaryRow(prefix + "Input", spec.input_dims, 0, 0))
    return _summarize_layers(spec.input_dims, spec.layers, rows, prefix)


def summarize(spec: ModelSpec) -> Summary:
    """Symbolic per-layer table; allocates no parameter storage."""
    rows: list[SummaryRow] = []
    if spec.is_two_branch:
        wa = _summarize_sequence(spec.branch_a, rows, prefix="A: ")
        wb = _summarize_sequence(spec.branch_b, rows, prefix="B: ")
        for w, label in ((wa, "A"), (wb, "B")):
            if isinstance(w, tuple):
                raise SpecError(f"branch {label} must end in a vector, got {w}")
        rows.append(SummaryRow("Concatenate", wa + wb, 0, 0))
        _summarize_layers(wa + wb, spec.head, rows)
    else:
        _summarize_sequence(spec, rows)
    return Summary(spec.name, rows)


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


GLOROT_BLOCK = 1 << 16


def glorot_uniform(rng, shape, fan_in, fan_out, dtype):
    """Glorot-uniform values of ``shape`` in ``dtype``, drawn in float64.

    The draws are cast into the output ``GLOROT_BLOCK`` values at a time, so
    the float64 temporary is one block whatever the weight's size.  The
    generator hands out its doubles in sequence: the values, and its state
    after the draw, are those of one draw of the whole shape.
    """
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    out = np.empty(shape, dtype=dtype)
    flat = out.reshape(-1)
    for lo in range(0, flat.size, GLOROT_BLOCK):
        flat[lo:lo + GLOROT_BLOCK] = rng.uniform(-limit, limit, size=min(GLOROT_BLOCK, flat.size - lo))
    return out


def _fresh_arrays(rng, dtype):
    """A ``take`` for :func:`assemble`: Glorot-uniform weights from ``rng``, constant fills elsewhere."""

    def take(name, slot: Slot):
        if slot.fill is None:
            rf = math.prod(slot.shape[:-2])  # receptive field: k**3 for a conv, 1 for a dense layer
            values = glorot_uniform(rng, slot.shape, rf * slot.shape[-2], rf * slot.shape[-1], dtype)
        else:
            values = np.full(slot.shape, slot.fill, dtype=dtype)
        if slot.role == "bn_state":
            return values
        return L.ParamTensor(name, slot.role, values, l2=slot.l2)

    return take


def _make_layer(lspec: LayerSpec, in_shape, name, take):
    """One layer of ``lspec`` on inputs of ``in_shape``, each of its arrays from ``take(name, slot)``.

    A residual block is handed its main path and its shortcut as layer lists.
    """
    if lspec.kind == "residual_block":
        parts = [_make_layers(path, in_shape, name, take) for path in _block_parts(lspec, in_shape[3])]
    else:
        parts = [take(f"{name}.{slot.suffix}", slot) for slot in _slots(lspec, in_shape)]
    return _FIELDS[lspec.kind][2](lspec, *parts)


def _make_layers(parts, shape, prefix, take):
    """The layers of a path of (name, spec) pairs that starts at ``shape``, named ``prefix.name``."""
    return [_make_layer(lspec, in_shape, f"{prefix}.{name}", take)
            for name, lspec, in_shape in _inputs(parts, shape)]


def _first_trainable(layers) -> int:
    """Index of the first layer with a trainable parameter; ``len(layers)`` if none."""
    return next((i for i, lyr in enumerate(layers) if any(p.trainable for p in lyr.params)),
                len(layers))


class Model:
    """A materialized sequential model.

    ``forward`` keeps the saved values of the layers from the first trainable
    one on, in every mode (an inference forward may be back-propagated), and
    ``backward`` drops them.  The frozen layers in front keep nothing and
    never run ``backward``: their input gradients would feed nothing.
    Inference forwards read nothing kept and may run concurrently.
    """

    def __init__(self, spec: ModelSpec, layers: list[L.Layer]):
        self.spec = spec
        self.layers = layers
        self._saved = []

    def params(self) -> list[L.ParamTensor]:
        return [p for lyr in self.layers for p in lyr.params]

    def forward(self, batch, mode="inference", rng=None):
        h = np.asarray(batch)
        expected = self.spec.input_dims
        if h.ndim != 5 or h.shape[1:] != expected:
            raise SpecError(f"batch shape {h.shape} does not match input dims {expected}")
        params = self.params()
        if params:  # a float32 model computes in float32 whatever its input's dtype
            h = h.astype(params[0].values.dtype, copy=False)
        h, self._saved = L.run(self.layers, h, mode, rng, _first_trainable(self.layers))
        return h

    def backward(self, grad):
        """Leave parameter gradients on the layers from the first trainable one on."""
        saved, self._saved = self._saved, []
        L.back(self.layers, saved, grad)

    def _walk_layers(self):
        return _walk(self.layers)


class TwoBranchModel:
    """Two single-branch models fused by feature concatenation plus a head."""

    def __init__(self, spec: ModelSpec, branch_a: Model, branch_b: Model, head_layers: list[L.Layer]):
        self.spec = spec
        self.branch_a = branch_a
        self.branch_b = branch_b
        self.head = head_layers
        # columns of branch A's features
        self._split = _out_shape(spec.branch_a.layers, spec.branch_a.input_dims)
        self._saved = []  # the head's, as a Model keeps its own

    def params(self) -> list[L.ParamTensor]:
        return self.branch_a.params() + self.branch_b.params() + [
            p for lyr in self.head for p in lyr.params
        ]

    def forward(self, batch_pair, mode="inference", rng=None):
        if not (isinstance(batch_pair, tuple) and len(batch_pair) == 2):
            raise SpecError("a two-branch model takes a (PET, MRI) pair of batches")
        xa, xb = batch_pair
        fa = self.branch_a.forward(xa, mode, rng)
        h = np.concatenate([fa, self.branch_b.forward(xb, mode, rng)], axis=1)
        keep = 0 if self._trained() else _first_trainable(self.head)
        h, self._saved = L.run(self.head, h, mode, rng, keep)
        return h

    def backward(self, grad):
        """Back-propagate through the head, then through each branch that trains.

        A branch with no trainable parameter is skipped; when neither branch
        trains, the head stops at its own first trainable layer.
        """
        saved, self._saved = self._saved, []
        g = L.back(self.head, saved, grad)
        for m, cols in self._trained():
            m.backward(g[:, cols])

    def _trained(self):
        """(branch, its feature columns) of each branch with a trainable parameter."""
        branches = ((self.branch_a, slice(None, self._split)), (self.branch_b, slice(self._split, None)))
        return [(m, cols) for m, cols in branches if any(p.trainable for p in m.params())]

    def _walk_layers(self):
        yield from self.branch_a._walk_layers()
        yield from self.branch_b._walk_layers()
        yield from self.head


def _walk(layers):
    """Each layer of a layer list, a residual block after its main path and its shortcut."""
    for lyr in layers:
        if isinstance(lyr, L.ResidualBlock):
            yield from lyr.main
            yield from lyr.shortcut
        yield lyr


def arrays(model):
    """Each array of ``model`` in slot order, as ``(holder, attribute, frozen)``.

    The holder is a ``ParamTensor`` (attribute ``values``) or a ``BatchNorm``
    (``moving_mean``, ``moving_var``).  An array is frozen when training
    leaves it alone: a parameter that does not train, or a statistic of a
    pinned batch norm.  Read an array when it is needed: a batch norm rebinds
    its statistics at every train step.
    """
    return _held_arrays(model._walk_layers())


def _held_arrays(walked):
    for lyr in walked:
        if isinstance(lyr, L.ResidualBlock):
            continue  # its arrays are those of its parts
        for p in lyr.params:
            yield p, "values", not p.trainable
        if isinstance(lyr, L.BatchNorm):
            yield lyr, "moving_mean", lyr.pinned
            yield lyr, "moving_var", lyr.pinned


def build(spec: ModelSpec, seed: int = 0, dtype=np.float32):
    """Materialize a spec: Glorot-uniform weights, zero biases, unit BN.

    Deterministic under ``seed``: identical (spec, seed) pairs produce
    bitwise-identical parameters.  ``dtype`` must be a float type.
    """
    return assemble(spec, _fresh_arrays(substream(seed, "init"), require_float_dtype("dtype", dtype)))


def assemble(spec: ModelSpec, take):
    """A model of ``spec`` whose arrays come from ``take(name, slot)``.

    ``take`` is called per :class:`Slot` in layer order and returns a
    ``ParamTensor``, or a bare array for a moving statistic.
    """
    summarize(spec)  # validates shape composition before any allocation
    if spec.is_two_branch:
        ma = _assemble_sequence(spec.branch_a, take)
        mb = _assemble_sequence(spec.branch_b, take)
        width = sum(_out_shape(b.spec.layers, b.spec.input_dims) for b in (ma, mb))
        return TwoBranchModel(spec, ma, mb, _make_layers(_numbered(spec.head), width, "head", take))
    return _assemble_sequence(spec, take)


def _assemble_sequence(spec: ModelSpec, take) -> Model:
    return Model(spec, _make_layers(_numbered(spec.layers), spec.input_dims, spec.name, take))


# ---------------------------------------------------------------------------
# ResNet-18-3D and transfer surgery


def build_resnet18_3d(input_dims) -> ModelSpec:
    """Canonical 18-layer residual spec with 3D ops, one softmax output per class.

    Stem: 7x7x7 conv stride 2 (pad 3) + BN + relu + 3x3x3 max pool stride 2;
    four stages of two residual blocks with channels 64/128/256/512, the
    first block of stages 2-4 downsampling with a projection shortcut;
    global average pool; dense softmax head.
    """
    layers = [
        LayerSpec("conv3d", filters=64, k=7, stride=2, padding=3),
        LayerSpec("batch_norm"),
        LayerSpec("activation", activation="relu"),
        LayerSpec("maxpool3d", window=3, stride=2),
    ]
    for stage, channels in enumerate((64, 128, 256, 512)):
        for block in range(2):
            stride = 2 if (stage > 0 and block == 0) else 1
            layers.append(LayerSpec("residual_block", filters=channels, stride=stride))
            layers.append(LayerSpec("activation", activation="relu"))
    layers.append(LayerSpec("global_avg_pool3d"))
    layers.append(LayerSpec("dense", units=len(CLASS_NAMES), activation="softmax"))
    spec = ModelSpec("resnet18_3d", input_dims, layers)
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


def surgery(model: Model, recipe: str, seed: int = 0) -> Model:
    """Transfer-learning surgery on a built 3D ResNet-18; ``model`` is left unchanged.

    ``mri``: drop only the final pool + classifier.  ``pet``: additionally
    drop the last residual stage (its two blocks).  The retained layers are
    rebuilt frozen, on read-only views of ``model``'s arrays, which pins their
    batch norms to inference mode; a fresh global-average-pool + dense
    softmax head as wide as ``model``'s own is appended, its arrays drawn
    from ``seed``.  Every array is named by its slot in the cut's spec.
    """
    if recipe not in ("pet", "mri"):
        raise SpecError(f"unknown surgery recipe {recipe!r}")
    if not isinstance(model, Model) or not _is_resnet_like(model.spec):
        raise SpecError("surgery requires a built resnet18_3d model")

    keep = len(model.spec.layers) - 2  # drop global_avg_pool3d + dense
    if recipe == "pet":  # and the last two residual blocks, with the layers after them
        blocks = [i for i, l in enumerate(model.spec.layers[:keep]) if l.kind == "residual_block"]
        if len(blocks) < 2:
            raise SpecError("model does not contain two trailing residual blocks")
        keep = blocks[-2]

    head = [LayerSpec("global_avg_pool3d"),
            LayerSpec("dense", units=model.spec.layers[-1].units, activation="softmax")]
    spec = ModelSpec(f"{model.spec.name}_{recipe}_surgery", model.spec.input_dims,
                     model.spec.layers[:keep] + head)
    reused = _held_arrays(_walk(model.layers[:keep]))
    fresh = _fresh_arrays(substream(seed, "init"), model.params()[0].values.dtype)

    def take(name, slot: Slot):
        holder, attr, _ = next(reused, (None, None, None))
        if holder is None:
            return fresh(name, slot)
        values = getattr(holder, attr).view()
        values.flags.writeable = False
        if slot.role == "bn_state":
            return values
        return L.ParamTensor(name, slot.role, values, False, slot.l2)

    return assemble(spec, take)
