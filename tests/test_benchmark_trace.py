"""The benchmark's tracing still reaches the program.

``perfbench/run.py --trace 1`` wraps voxcnn's functions and methods and reads
the per-layer metrics that ``BENCHMARK.json`` names from the spans.  This test
puts ``perfbench/`` on ``sys.path`` as it stands, traces one epoch of
training and a checkpoint round trip, and one two-branch training step, and
checks the metrics and the operation-count gate, so a change under ``src/``
that breaks either fails here.
"""

import json
from pathlib import Path

import numpy as np

from voxcnn import checkpoint, graph, records, train as T
from voxcnn.fixtures import load_fixture
from voxcnn.rng import substream

from conftest import random_batch

ROOT = Path(__file__).resolve().parents[1]


def test_traced_training_yields_every_per_layer_metric(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import instrument
    import opcount
    from tracing import Tracer

    check = opcount.brute_force_check()
    assert check["formula"] == check["brute"]

    recs, _ = records.gen_synthetic(3, dims=(16, 16, 16), seed=3)
    x, y = np.stack([r.volume("PET") for r in recs]), np.array([r.label for r in recs])
    tracer = Tracer()
    inst = instrument.Instrument(tracer)
    try:
        model = graph.build(load_fixture("pet_8_mini"), seed=1)
        T.train(model, (x, y), np.arange(3), T.HyperParams(epochs=1, batch_size=3, seed=1))
        path = str(tmp_path / "model.avc")
        checkpoint.save_checkpoint(model, path)
        checkpoint.load_checkpoint(path)
    finally:
        inst.restore()

    metrics = instrument.layer_metrics(tracer, inst, 1)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    assert {m["name"] for m in declared} <= metrics.keys()
    assert metrics["train.batches"]["value"] == 2  # 6 training samples, 3 a batch
    for name in ("volume.correlate3d.calls", "volume.conv.gmac", "graph.backward.busy_s",
                 "checkpoint.save.mb", "checkpoint.load.mb"):
        assert metrics[name]["value"] > 0, name


def test_traced_two_branch_step_counts_each_branch_forward_and_backward(monkeypatch):
    """Both branches' convolutions are traced: one forward and one VJP (twice the MACs) per sample."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import instrument
    import opcount
    from tracing import Tracer

    spec = load_fixture("two_branch_mini")
    model = graph.build(spec, seed=1)
    n = 3
    x = random_batch(spec, n=n, seed=2)
    tracer = Tracer()
    inst = instrument.Instrument(tracer)
    try:
        T.loss_and_grads(model, x, T.one_hot(np.arange(n) % 3, 3), "train", substream(1, "dropout"))
    finally:
        inst.restore()

    gmac = instrument.layer_metrics(tracer, inst, 1)["volume.conv.gmac"]["value"]
    macs = opcount.forward_macs(spec.branch_a) + opcount.forward_macs(spec.branch_b)
    assert gmac == 3 * n * macs / 1e9
