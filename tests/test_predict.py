"""Batched inference: ``train.predict`` and the evaluation passes built on it.

Every inference forward of validation, study scoring and test-eval is
bounded by the training batch size, so evaluation never needs more memory
than a training step of the same model.
"""

import json

import numpy as np
import pytest

from voxcnn import checkpoint, evaluate as E, graph, records, train as T
from voxcnn.cli import main
from voxcnn.errors import InputError
from voxcnn.fixtures import fixture_path, load_fixture

from conftest import random_batch


@pytest.fixture
def inference_batches(monkeypatch):
    """Record the sample count of every inference-mode model forward."""
    seen = []

    def spy(cls):
        forward = cls.forward

        def wrapped(self, batch, mode="inference", rng=None):
            if mode != "train":
                seen.append(len(batch[0]) if isinstance(batch, tuple) else len(batch))
            return forward(self, batch, mode, rng)

        monkeypatch.setattr(cls, "forward", wrapped)

    spy(graph.Model)
    spy(graph.TwoBranchModel)
    return seen


def _dataset(per_class):
    recs, _ = records.gen_synthetic(per_class, dims=(16, 16, 16), seed=4)
    return np.stack([r.volume("PET") for r in recs]), np.array([r.label for r in recs])


@pytest.mark.parametrize("fixture", ["pet_8_mini", "two_branch_mini"])
def test_predict_matches_one_whole_set_forward(fixture):
    model = graph.build(load_fixture(fixture), seed=2)
    x = random_batch(model.spec, n=11, seed=5)
    x = tuple(part.astype(np.float32) for part in x) if isinstance(x, tuple) else x.astype(np.float32)
    whole = model.forward(x, "inference")
    got = T.predict(model, x, 4)  # batches of 4, 4 and 3
    assert got.shape == whole.shape == (11, 3) and got.dtype == np.float32
    assert np.array_equal(got.argmax(axis=1), whole.argmax(axis=1))
    np.testing.assert_allclose(got, whole, rtol=1e-5, atol=1e-6)
    # Rows stay in sample order: predicting the samples reversed reverses the rows.
    rev = tuple(part[::-1] for part in x) if isinstance(x, tuple) else x[::-1]
    np.testing.assert_allclose(T.predict(model, rev, 4), got[::-1], rtol=1e-5, atol=1e-6)
    one_by_one = [T.predict(model, tuple(p[i : i + 1] for p in x) if isinstance(x, tuple)
                            else x[i : i + 1], 1) for i in (0, 10)]
    np.testing.assert_allclose(np.concatenate(one_by_one), got[[0, 10]], rtol=1e-5, atol=1e-6)


def test_predict_bounds_every_forward(inference_batches):
    model = graph.build(load_fixture("pet_8_mini"), seed=2)
    T.predict(model, random_batch(model.spec, n=11, seed=5), 4)
    assert inference_batches == [4, 4, 3]


def test_predict_rejects_empty_input_and_bad_batch():
    model = graph.build(load_fixture("pet_8_mini"), seed=2)
    with pytest.raises(InputError, match="no samples"):
        T.predict(model, np.zeros((0, 16, 16, 16, 1), np.float32), 4)
    for batch_size in (0, 2.5, True):
        with pytest.raises(InputError, match="batch_size"):
            T.predict(model, random_batch(model.spec, n=2), batch_size)


@pytest.mark.parametrize("rows,match", [
    ([-1], r"rows must be in \[0, 3\)"),
    ([3], r"rows must be in \[0, 3\)"),
    ([99], r"rows must be in \[0, 3\)"),
    ([0.5], "rows must be a vector of integers"),
    ([[0, 1]], "rows must be a vector of integers"),
], ids=["negative", "past-the-end", "far-past-the-end", "float", "matrix"])
def test_predict_rows_that_are_not_rows_raise_input_error(rows, match):
    model = graph.build(load_fixture("pet_8_mini"), seed=2)
    with pytest.raises(InputError, match=match):
        T.predict(model, random_batch(model.spec, n=3), 4, rows)


def test_training_validates_at_the_training_batch(inference_batches):
    vols, labels = _dataset(10)
    val = np.arange(30) % 3 != 0  # 20 validation samples, 10 training samples
    model = graph.build(load_fixture("pet_8_mini"), seed=1)
    T.train(model, (vols, labels), np.flatnonzero(val), T.HyperParams(epochs=2, batch_size=4, seed=1))
    assert max(inference_batches) <= 4
    assert sum(inference_batches) == 2 * 20


def test_study_scores_at_the_training_batch(inference_batches):
    vols, labels = _dataset(15)
    plan = E.repeated_stratified_kfold(labels, k=3, reps=1, seed=3)
    assert all(len(v) == 15 for _, _, v in plan.runs())
    for epochs in (0, 1, 2):
        inference_batches.clear()
        report = E.run_rkfold(load_fixture("pet_8_mini"), vols, labels,
                              T.HyperParams(epochs=epochs, batch_size=4, seed=3), plan)
        assert not report.any_failed
        assert max(inference_batches) <= 4
        # Each run validates once per epoch and is scored from its last validation
        # pass; a run that trained no epoch is scored by a pass of its own.
        assert sum(inference_batches) == 3 * max(epochs, 1) * 15


def test_curve_keeps_the_last_validation_pass():
    vols, labels = _dataset(10)
    val = np.arange(30) % 3 != 0
    model = graph.build(load_fixture("pet_8_mini"), seed=1)
    model, curve = T.train(model, (vols, labels), np.flatnonzero(val),
                           T.HyperParams(epochs=2, batch_size=4, seed=1))
    assert curve.val_probs.tobytes() == T.predict(model, vols[val], 4).tobytes()
    _, unvalidated = T.train(model, (vols[~val], labels[~val]), hyper=T.HyperParams(epochs=1))
    assert unvalidated.val_probs is None


def test_test_eval_forwards_at_the_default_batch(inference_batches, tmp_path):
    data = tmp_path / "data"
    recs, _ = records.gen_synthetic(7, dims=(16, 16, 16), seed=4, out_dir=data)
    index = tmp_path / "index.json"
    index.write_text(json.dumps({"test": [r.subject_id for r in recs[:20]]}))
    ckpt = tmp_path / "model.avc"
    checkpoint.save_checkpoint(graph.build(graph.load_spec(fixture_path("pet_8_mini")), seed=0), ckpt)
    out = tmp_path / "metrics.json"
    assert main(["test-eval", "--checkpoint", str(ckpt), "--data", str(data),
                 "--index", str(index), "--out", str(out)]) == 0
    assert np.array(json.loads(out.read_text())["confusion"]).sum() == 20
    assert inference_batches == [8, 8, 4]
    assert T.DEFAULT_BATCH_SIZE == T.HyperParams().batch_size == 8
