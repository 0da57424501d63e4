"""Spans around the program's public functions, and the per-layer metrics.

Tracing replaces module attributes and methods of ``voxcnn`` with wrappers
that open a span, such as ``voxcnn.volume.correlate3d_batch`` and
``graph.Model.forward``.  This reaches every call because callers look these
names up at call time; a function another module imported by name (``rng``'s
``substream`` inside ``train``) is replaced in that module too.  Nothing
under ``src/`` changes, and :meth:`Instrument.restore` puts every original
back.
"""

from __future__ import annotations

import inspect
import os
import sys
import threading
from collections import defaultdict

from voxcnn import augment, checkpoint, evaluate, graph, layers, preprocess, records, rng, train, volume

import opcount
import stats
from tracing import END, NAME, START, THREAD, Tracer

MB = 1e6

# (module, attribute, span name)
FUNCTIONS = (
    (volume, "correlate3d_batch", "volume.correlate3d"),
    (volume, "correlate3d_vjp_batch", "volume.correlate3d_vjp"),
    (volume, "maxpool3d_batch", "volume.maxpool3d"),
    (volume, "maxpool3d_vjp_batch", "volume.maxpool3d_vjp"),
    (graph, "build", "graph.build"),
    (graph, "surgery", "graph.surgery"),
    (train, "train", "train.train"),
    (train, "loss_and_grads", "train.loss_and_grads"),
    (train, "adam_step", "train.adam_step"),
    (train, "l2_penalty", "train.l2"),
    (train, "add_l2_grads", "train.l2"),
    (augment, "augment", "augment"),
    (augment, "affine_resample", "augment.resample"),
    (rng, "substream", "rng.substream"),
    (preprocess, "apply_chain", "preprocess.apply_chain"),
    (records, "read_record", "records.read"),
    (records, "write_record", "records.write"),
    (checkpoint, "save_checkpoint", "checkpoint.save"),
    (checkpoint, "load_checkpoint", "checkpoint.load"),
    (evaluate, "run_rkfold", "evaluate.run_rkfold"),
)

# file written by each I/O call: (span name, positional index of the path)
FILE_ARG = {
    "records.read": 0,
    "records.write": 1,
    "checkpoint.save": 1,
    "checkpoint.load": 0,
}


def frozen_prefix(model) -> frozenset:
    """Ids of the top-level layers in front of the model's first trainable one.

    Backward through them updates no parameter: its only product is an input
    gradient that nothing uses.
    """
    ids = set()
    for lyr in model.layers:
        if any(p.trainable for p in lyr.params):
            break
        ids.add(id(lyr))
    return frozenset(ids)


def _voxcnn_modules():
    return [m for n, m in list(sys.modules.items()) if n == "voxcnn" or n.startswith("voxcnn.")]


class Instrument:
    """Installs the wrappers on construction; counts what spans cannot show."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved = []
        self._lock = threading.Lock()
        self._local = threading.local()
        # per single-branch spec: samples through forward and backward, largest batch
        self.specs: dict[int, graph.ModelSpec] = {}
        self.samples = defaultdict(lambda: {"fwd": 0, "bwd": 0, "max_batch": 0, "itemsize": 4})
        for module, attr, name in FUNCTIONS:
            self._replace_everywhere(getattr(module, attr), self._function_wrapper(name, getattr(module, attr)))
        for cls in (graph.Model, graph.TwoBranchModel):
            self._set(cls, "forward", self._forward_wrapper(cls.forward))
            self._set(cls, "backward", self._backward_wrapper(cls.backward))
        for cls in vars(layers).values():
            if inspect.isclass(cls) and issubclass(cls, layers.Layer) and cls is not layers.Layer:
                for method in ("forward", "backward"):
                    if method in vars(cls):
                        self._set(cls, method, self._layer_wrapper(cls, method))

    # -- installing ------------------------------------------------------

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _replace_everywhere(self, original, replacement):
        for module in _voxcnn_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, replacement)

    def restore(self):
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()

    # -- wrappers --------------------------------------------------------

    def _function_wrapper(self, name, fn):
        after = None
        if name in FILE_ARG:
            pos = FILE_ARG[name]

            def after(args, kwargs, result, seconds):
                self.tracer.add(f"{name}.bytes", os.path.getsize(args[pos]))
        elif name == "evaluate.run_rkfold":

            def after(args, kwargs, report, seconds):
                self.tracer.add("evaluate.runs", len(report.runs))
                self.tracer.add("evaluate.failed_runs", sum(r.failed for r in report.runs))
        return self.tracer.wrap(name, fn, after)

    def _forward_wrapper(self, fn):
        tracer, inst = self.tracer, self

        def forward(model, batch, mode="inference", rng=None):
            idx = tracer.open("graph.forward_train" if mode == "train" else "graph.forward_infer")
            try:
                return fn(model, batch, mode, rng)
            finally:
                tracer.close(idx)
                if isinstance(model, graph.Model):
                    inst._count(model, "fwd", len(batch))

        return forward

    def _backward_wrapper(self, fn):
        tracer, inst = self.tracer, self

        def backward(model, grad):
            local = inst._local
            depth, frozen = getattr(local, "depth", 0), getattr(local, "frozen", frozenset())
            local.depth = depth + 1
            if isinstance(model, graph.Model):
                local.frozen = frozen_prefix(model)
            params = model.params() if depth == 0 else ()
            before = [id(p.grad) if p.grad is not None else None for p in params]
            idx = tracer.open("graph.backward")
            try:
                return fn(model, grad)
            finally:
                tracer.close(idx)
                local.depth, local.frozen = depth, frozen
                if isinstance(model, graph.Model):
                    inst._count(model, "bwd", len(grad))
                given = useful = 0
                for p, old in zip(params, before):
                    if p.grad is not None and id(p.grad) != old:
                        given += p.values.size
                        useful += p.values.size if p.trainable else 0
                if params:
                    tracer.add("layers.grad_elems", given)
                    tracer.add("layers.useful_grad_elems", useful)

        return backward

    def _layer_wrapper(self, cls, method):
        fn = getattr(cls, method)
        name = f"layers.{cls.__name__.lower()}.{method}"
        tracer, local = self.tracer, self._local

        def wrapped(layer, *args, **kwargs):
            idx = tracer.open(name)
            try:
                return fn(layer, *args, **kwargs)
            finally:
                seconds = tracer.close(idx)
                if method == "backward" and id(layer) in getattr(local, "frozen", ()):
                    tracer.add("layers.frozen_backward_s", seconds)

        return wrapped

    def _count(self, model, direction, n):
        key = id(model.spec)
        with self._lock:
            self.specs[key] = model.spec
            entry = self.samples[key]
            entry[direction] += n
            entry["max_batch"] = max(entry["max_batch"], n)
            if entry["fwd"] + entry["bwd"] == n:
                params = model.params()
                if params:
                    entry["itemsize"] = params[0].values.dtype.itemsize


# ---------------------------------------------------------------------------
# Per-layer metrics

def fold_times(tracer: Tracer) -> tuple[list[float], float]:
    """Fold wall times inside ``run_rkfold``, and the summed plan wall time.

    A fold runs on one thread from its ``graph.build`` to the end of the last
    traced call before that thread's next build.
    """
    spans = tracer.spans
    kids = tracer.children()
    folds, plan_s = [], 0.0
    for i, s in enumerate(spans):
        if s[NAME] != "evaluate.run_rkfold" or s[END] is None:
            continue
        plan_s += s[END] - s[START]
        by_thread = defaultdict(list)
        for c in kids.get(i, ()):
            by_thread[spans[c][THREAD]].append(spans[c])
        for seq in by_thread.values():
            seq.sort(key=lambda r: r[START])
            start = last_end = None
            for r in seq:
                if r[NAME] == "graph.build":
                    if start is not None:
                        folds.append(last_end - start)
                    start = r[START]
                if start is not None:
                    last_end = r[END]
            if start is not None:
                folds.append(last_end - start)
    return folds, plan_s


def conv_work(inst: Instrument) -> dict:
    gmac, window = 0, 0
    for key, spec in inst.specs.items():
        entry = inst.samples[key]
        gmac += entry["fwd"] * opcount.forward_macs(spec) + entry["bwd"] * opcount.vjp_macs(spec)
        window = max(window, entry["max_batch"] * opcount.max_window_elems(spec) * entry["itemsize"])
    return {"gmac": gmac / 1e9, "window_mb": window / MB}


def layer_metrics(tracer: Tracer, inst: Instrument, jobs: int) -> dict:
    """Every per-layer metric by name, as ``{"value": ..., "unit": ...}``."""
    c = tracer.counters
    busy, calls = tracer.busy, tracer.calls
    self_times = tracer.self_times()
    layer_self = sum(t for s, t in zip(tracer.spans, self_times) if s[NAME].startswith("layers."))
    conv = conv_work(inst)
    conv_busy = busy("volume.correlate3d") + busy("volume.correlate3d_vjp")
    train_busy = busy("train.train")
    folds, plan_s = fold_times(tracer)
    grads = c.get("layers.grad_elems", 0.0)

    values = {
        "volume.correlate3d.calls": (calls("volume.correlate3d"), "count"),
        "volume.correlate3d.busy_s": (busy("volume.correlate3d"), "s"),
        "volume.correlate3d_vjp.busy_s": (busy("volume.correlate3d_vjp"), "s"),
        "volume.maxpool3d.busy_s": (busy("volume.maxpool3d"), "s"),
        "volume.maxpool3d_vjp.busy_s": (busy("volume.maxpool3d_vjp"), "s"),
        "volume.conv.gmac": (conv["gmac"], "GMAC"),
        "volume.conv.window_mb": (conv["window_mb"], "MB"),
        "volume.conv.gmac_per_s": (conv["gmac"] / conv_busy if conv_busy else 0.0, "GMAC/s"),
        "layers.self_s": (layer_self, "s"),
        "layers.batchnorm.busy_s": (busy("layers.batchnorm.forward", "layers.batchnorm.backward"), "s"),
        "layers.frozen_backward_s": (c.get("layers.frozen_backward_s", 0.0), "s"),
        "layers.useful_grad_share": (c.get("layers.useful_grad_elems", 0.0) / grads if grads else 0.0, "share"),
        "graph.build.busy_s": (busy("graph.build"), "s"),
        "graph.forward_train.busy_s": (busy("graph.forward_train"), "s"),
        "graph.forward_infer.busy_s": (busy("graph.forward_infer"), "s"),
        "graph.backward.busy_s": (busy("graph.backward"), "s"),
        "graph.surgery.busy_s": (busy("graph.surgery"), "s"),
        "train.batches": (calls("train.loss_and_grads"), "count"),
        "train.loss_and_grads.busy_s": (busy("train.loss_and_grads"), "s"),
        "train.adam_step.busy_s": (busy("train.adam_step"), "s"),
        "train.l2.busy_s": (busy("train.l2"), "s"),
        "augment.calls": (calls("augment"), "count"),
        "augment.busy_s": (busy("augment"), "s"),
        "augment.resample.calls": (calls("augment.resample"), "count"),
        "augment.resample.busy_s": (busy("augment.resample"), "s"),
        "augment.resample_share": (busy("augment.resample") / train_busy if train_busy else 0.0, "share"),
        "rng.substream.calls": (calls("rng.substream"), "count"),
        "rng.substream.busy_s": (busy("rng.substream"), "s"),
        "preprocess.apply_chain.calls": (calls("preprocess.apply_chain"), "count"),
        "preprocess.apply_chain.busy_s": (busy("preprocess.apply_chain"), "s"),
        "records.read.calls": (calls("records.read"), "count"),
        "records.read.busy_s": (busy("records.read"), "s"),
        "records.read.mb": (c.get("records.read.bytes", 0.0) / MB, "MB"),
        "records.write.busy_s": (busy("records.write"), "s"),
        "records.write.mb": (c.get("records.write.bytes", 0.0) / MB, "MB"),
        "checkpoint.save.busy_s": (busy("checkpoint.save"), "s"),
        "checkpoint.save.mb": (c.get("checkpoint.save.bytes", 0.0) / MB, "MB"),
        "checkpoint.load.busy_s": (busy("checkpoint.load"), "s"),
        "checkpoint.load.mb": (c.get("checkpoint.load.bytes", 0.0) / MB, "MB"),
        "evaluate.runs": (c.get("evaluate.runs", 0.0), "count"),
        "evaluate.failed_runs": (c.get("evaluate.failed_runs", 0.0), "count"),
        "evaluate.fold_p50_s": (stats.median(folds) if folds else 0.0, "s"),
        "evaluate.fold_max_s": (max(folds) if folds else 0.0, "s"),
        "evaluate.parallel_efficiency": (sum(folds) / (jobs * plan_s) if plan_s else 0.0, "share"),
    }
    return {name: {"value": float(v), "unit": u} for name, (v, u) in values.items()}
