"""Loss, regularization, schedule, Adam, and the training loop contracts."""

import dataclasses

import numpy as np
import pytest

from voxcnn import graph, layers as L, records, train as T
from voxcnn.errors import InputError, NumericError
from voxcnn.fixtures import load_fixture
from voxcnn.rng import substream

from conftest import build_f64, fd_gradient_check, freeze, random_batch


# ---------------------------------------------------------------------------
# Softmax / cross-entropy


def test_softmax_uniform_on_equal_logits():
    assert np.allclose(L.softmax(np.zeros(3)), 1 / 3)


def test_softmax_golden_triplet():
    got = L.softmax(np.array([1.0, 2.0, 3.0]))
    assert np.allclose(got, [0.09003, 0.24473, 0.66524], atol=1e-5)
    assert abs(got.sum() - 1.0) < 1e-6


def test_softmax_shift_invariance():
    rng = np.random.default_rng(0)
    v = rng.standard_normal(7)
    assert np.allclose(L.softmax(v), L.softmax(v + 123.456), atol=1e-6)


def test_softmax_rejects_non_finite():
    with pytest.raises(NumericError):
        L.softmax(np.array([1.0, np.inf, 0.0]))


def test_softmax_survives_extreme_logits():
    out = L.softmax(np.array([1e4, 0.0, -1e4]))
    assert np.all(np.isfinite(out)) and abs(out.sum() - 1.0) < 1e-6


def test_cross_entropy_perfect_prediction_hits_clamp_floor():
    y = np.array([[0.0, 1.0, 0.0]])
    assert T.cross_entropy(y, y) <= 1e-6


def test_cross_entropy_uniform_is_log3():
    y = np.array([[1.0, 0.0, 0.0]])
    p = np.full((1, 3), 1 / 3)
    assert abs(T.cross_entropy(y, p) - np.log(3)) < 1e-4


def test_cross_entropy_batch_is_mean():
    y = T.one_hot(np.array([0, 1, 2]), 3)
    rng = np.random.default_rng(1)
    p = L.softmax(rng.standard_normal((3, 3)))
    singles = [T.cross_entropy(y[i:i + 1], p[i:i + 1]) for i in range(3)]
    assert abs(T.cross_entropy(y, p) - np.mean(singles)) < 1e-12


def test_cross_entropy_clamp_keeps_confident_misses_finite():
    y = np.array([[1.0, 0.0, 0.0]])
    p = np.array([[0.0, 1.0, 0.0]])  # certain and wrong
    loss = T.cross_entropy(y, p)
    assert np.isfinite(loss)
    assert abs(loss - -np.log(1e-7)) < 1e-6


def test_cross_entropy_grad_keeps_the_probability_dtype():
    y = T.one_hot(np.array([0, 2, 1]), 3)
    p64 = L.softmax(np.random.default_rng(3).standard_normal((3, 3)))
    p64[2] = [0.0, 1.0, 0.0]  # clamp active on every entry of this row
    g64 = T.cross_entropy_grad(y, p64)
    g32 = T.cross_entropy_grad(y, p64.astype(np.float32))
    assert g64.dtype == np.float64 and g32.dtype == np.float32
    assert np.allclose(g32, g64, rtol=1e-6, atol=0)
    assert not g32[2].any() and not g64[2].any()


def test_cross_entropy_rejects_non_one_hot():
    with pytest.raises(InputError):
        T.cross_entropy(np.array([[0.5, 0.5, 0.0]]), np.full((1, 3), 1 / 3))


# ---------------------------------------------------------------------------
# L2


def test_l2_hand_value():
    model = graph.build(load_fixture("pet_8_mini"), seed=0, dtype=np.float64)
    w = next(p for p in model.params() if p.role == "dense_weights")
    for p in model.params():
        p.values[...] = 0.0
        p.l2 = 0.0
    w.values.reshape(-1)[:2] = [1.0, 2.0]
    w.l2 = 0.5
    assert abs(T.l2_penalty(model) - 2.5) < 1e-12


def test_l2_zero_lambda_is_free():
    model = graph.build(load_fixture("mri_9_mini"), seed=0, dtype=np.float64)
    for p in model.params():
        p.l2 = 0.0
    assert T.l2_penalty(model) == 0.0


def test_l2_never_touches_biases_or_batchnorm():
    spec = load_fixture("mri_9_mini")  # sets no l2 of its own
    penalized = dataclasses.replace(spec, layers=[
        dataclasses.replace(l, l2=0.1) if l.kind in ("conv3d", "dense") else l for l in spec.layers])
    x = random_batch(spec, n=2, seed=0)
    y = T.one_hot(np.array([0, 1]), 3)
    plain, model = (graph.build(s, seed=1, dtype=np.float64) for s in (spec, penalized))
    for m in (plain, model):
        T.loss_and_grads(m, x, y, "train", substream(3, "d"))
    for p, q in zip(model.params(), plain.params()):
        if p.role in ("conv_weights", "dense_weights"):
            assert p.l2 == 0.1 and np.allclose(p.grad, q.grad + 2 * 0.1 * p.values, atol=1e-12)
        else:
            assert p.l2 == 0.0 and np.array_equal(p.grad, q.grad), p.name


def test_l2_penalty_weights_each_tensor_by_its_layers_spec_l2():
    spec = load_fixture("pet_8")
    model = graph.build(spec, seed=0)
    layer_l2 = [l.l2 for l in spec.layers if l.kind in ("conv3d", "dense")]
    assert layer_l2 == [1e-5] * 8 + [0.0] * 3  # the paper's L2 on pet_8's conv weights only
    weights = [p for p in model.params() if p.role in ("conv_weights", "dense_weights")]
    assert [p.l2 for p in weights] == layer_l2
    assert all(p.l2 == 0.0 for p in model.params() if p not in weights)
    expected = sum(l2 * float((p.values.astype(np.float64) ** 2).sum())
                   for l2, p in zip(layer_l2, weights))
    assert T.l2_penalty(model) == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------------------
# Learning-rate schedule


def test_exp_decay_endpoints_and_golden():
    assert T.exp_decay_lr(1e-3, 0.5, 0, 40) == 1e-3
    assert abs(T.exp_decay_lr(1e-3, 0.5, 40, 40) - 0.5e-3) < 1e-18
    assert abs(T.exp_decay_lr(1e-5, 0.1, 25, 50) - 3.1623e-6) < 1e-10


def test_exp_decay_rejects_bad_rate():
    with pytest.raises(InputError):
        T.exp_decay_lr(1e-3, 0.0, 1, 10)


# ---------------------------------------------------------------------------
# Adam


def test_adam_zero_gradients_leave_params_unchanged():
    p = L.ParamTensor("w", "dense_weights", np.array([1.0, -2.0]))
    p.grad = np.zeros(2)
    st = T.AdamState([p])
    T.adam_step(st, [p], 0.1)
    assert np.array_equal(p.values, [1.0, -2.0])


def test_adam_one_step_hand_value():
    """w=0, g=1, lr=0.1, t=1: bias-corrected m=v=1, so w -> -0.1/(1 + 1e-7)."""
    p = L.ParamTensor("w", "dense_weights", np.zeros(1))
    p.grad = np.ones(1)
    st = T.AdamState([p])
    T.adam_step(st, [p], 0.1)
    assert abs(p.values[0] - (-0.1 / (1.0 + 1e-7))) < 1e-12
    assert abs(p.values[0] + 0.09999999) < 1e-7


def test_adam_skips_frozen_params():
    p = L.ParamTensor("w", "dense_weights", np.ones(3), trainable=False)
    p.grad = np.ones(3)
    st = T.AdamState([p])
    T.adam_step(st, [p], 0.1)
    assert np.array_equal(p.values, np.ones(3))


def test_adam_rejects_non_finite_gradients():
    p = L.ParamTensor("w", "dense_weights", np.zeros(2))
    p.grad = np.array([1.0, np.nan])
    with pytest.raises(NumericError):
        T.adam_step(T.AdamState([p]), [p], 0.1)


@pytest.mark.parametrize("grad", [
    np.ones(2, dtype=np.float64),
    np.ones(3, dtype=np.float32),
    np.ones((2, 1), dtype=np.float32),
])
def test_adam_rejects_a_gradient_unlike_its_parameter(grad):
    p = L.ParamTensor("w", "dense_weights", np.zeros(2, dtype=np.float32))
    p.grad = grad
    with pytest.raises(NumericError, match="gradient for w"):
        T.adam_step(T.AdamState([p]), [p], 0.1)
    assert not p.values.any()


# ---------------------------------------------------------------------------
# Whole-model gradients


@pytest.mark.parametrize("fixture", ["pet_8_mini", "mri_9_mini", "two_branch_mini"])
def test_whole_model_gradient_matches_finite_differences(fixture):
    spec, model = build_f64(fixture)
    x = random_batch(spec, n=1, seed=0)
    y = T.one_hot(np.array([1]), 3)
    checked, worst = fd_gradient_check(model, x, y)
    assert checked == sum(p.values.size for p in model.params())


def test_gradient_with_a_frozen_first_conv_matches_finite_differences():
    spec, model = build_f64("pet_8_mini")
    frozen = model.layers[0].params
    for p in frozen:
        p.trainable = False
    x = random_batch(spec, n=1, seed=0)
    y = T.one_hot(np.array([1]), 3)
    checked, _ = fd_gradient_check(model, x, y)
    assert checked == sum(p.values.size for p in model.params() if p.trainable)
    assert all(p.grad is None for p in frozen)  # backward stopped before layer 0


# ---------------------------------------------------------------------------
# Training loop


def tiny_dataset(n_per_class=4, seed=7):
    recs, _ = records.gen_synthetic(n_per_class, dims=(16, 16, 16), seed=seed)
    vols = np.stack([r.volume("PET") for r in recs])
    labels = np.array([r.label for r in recs])
    return vols, labels


def test_training_descends_on_fixed_batch():
    spec, model = build_f64("pet_8_mini")
    vols, labels = tiny_dataset(2)
    x = vols[:6].astype(np.float64)
    y = T.one_hot(labels[:6], 3)
    params = model.params()
    adam = T.AdamState(params)
    loss0, _ = T.loss_and_grads(model, x, y, "inference")
    losses = [loss0]
    for _ in range(20):
        T.loss_and_grads(model, x, y, "inference")  # no dropout: smooth descent
        T.adam_step(adam, params, 1e-3)
        losses.append(T.loss_and_grads(model, x, y, "inference")[0])
    assert losses[-1] < losses[0]
    assert all(b < a + 1e-9 for a, b in zip(losses, losses[1:]))


def test_train_curve_is_bitwise_reproducible():
    vols, labels = tiny_dataset(3)
    hyper = T.HyperParams(lr0=1e-3, epochs=3, batch_size=4, seed=11)
    curves = []
    for _ in range(2):
        model = graph.build(load_fixture("pet_8_mini"), seed=11)
        _, curve = T.train(model, (vols, labels), np.arange(3), hyper)
        curves.append([(r.train_loss, r.train_acc, r.val_loss, r.val_acc) for r in curve.rows])
    assert curves[0] == curves[1]


def _noisy_augmentor(vol, sample_seed):
    return vol + np.float32(substream(sample_seed, "noise").standard_normal())


@pytest.mark.parametrize("augmentor", [None, _noisy_augmentor], ids=["plain", "augmented"])
@pytest.mark.parametrize("name", ["pet_8_mini", "two_branch_mini"])
def test_naming_validation_rows_trains_as_the_copied_complement(name, augmentor):
    """Training on every row that val_idx does not name is training on a copy of those rows."""
    recs, _ = records.gen_synthetic(2, dims=(16, 16, 16), seed=7)
    pet, mri = (np.stack([r.volume(m) for r in recs]) for m in ("PET", "MRI"))
    labels = np.array([r.label for r in recs])
    x = (pet, mri) if name == "two_branch_mini" else pet
    val_idx, rest = np.array([4, 1]), np.array([0, 2, 3, 5])
    hyper = T.HyperParams(lr0=3e-3, epochs=2, batch_size=3, seed=4)
    named, _ = T.train(graph.build(load_fixture(name), seed=2), (x, labels), val_idx, hyper,
                       augmentor=augmentor)
    copied, _ = T.train(graph.build(load_fixture(name), seed=2), (T._take(x, rest), labels[rest]),
                        hyper=hyper, augmentor=augmentor)
    for a, b in zip(named.params(), copied.params()):
        assert a.values.tobytes() == b.values.tobytes(), a.name


def test_zero_epochs_still_give_validation_probabilities():
    vols, labels = tiny_dataset(2)
    model = graph.build(load_fixture("pet_8_mini"), seed=5)
    _, curve = T.train(model, (vols, labels), np.array([3, 0]), hyper=T.HyperParams(epochs=0, batch_size=4))
    assert curve.rows == []
    assert curve.val_probs.tobytes() == T.predict(model, vols[[3, 0]], 4).tobytes()


@pytest.mark.parametrize("val_idx,match", [
    ("pair", "vector of integers"),
    (np.array([0.0, 1.0]), "vector of integers"),
    (np.array([[0, 1]]), "vector of integers"),
    (np.array([1, 1]), "more than once"),
    (np.array([6]), r"in \[0, 6\)"),
    (np.array([-1]), r"in \[0, 6\)"),
    (np.arange(6), "training set is empty"),
], ids=["volumes-and-labels", "floats", "matrix", "duplicates", "past-the-end", "negative", "every-row"])
def test_val_idx_that_is_not_distinct_rows_raises_input_error(val_idx, match):
    vols, labels = tiny_dataset(2)
    if isinstance(val_idx, str):  # the validation set as it was once passed
        val_idx = (vols[:2], labels[:2])
    model = graph.build(load_fixture("pet_8_mini"), seed=5)
    with pytest.raises(InputError, match=match):
        T.train(model, (vols, labels), val_idx, T.HyperParams(epochs=1))


@pytest.mark.parametrize("patience,match", [
    ("3", "must be an integer"),
    (1.5, "must be an integer"),
    (True, "must be an integer"),
    (-2, "must be >= 0"),
], ids=["string", "float", "bool", "negative"])
def test_early_stopping_patience_that_is_not_a_count_raises_input_error(patience, match):
    vols, labels = tiny_dataset(2)
    model = graph.build(load_fixture("pet_8_mini"), seed=5)
    with pytest.raises(InputError, match=f"early_stopping_patience {match}"):
        T.train(model, (vols, labels), np.array([0]), T.HyperParams(epochs=1),
                early_stopping_patience=patience)


def test_zero_epochs_returns_initialization():
    vols, labels = tiny_dataset(2)
    model = graph.build(load_fixture("pet_8_mini"), seed=5)
    before = [p.values.copy() for p in model.params()]
    _, curve = T.train(model, (vols, labels), hyper=T.HyperParams(epochs=0))
    assert curve.rows == []
    for p, v in zip(model.params(), before):
        assert np.array_equal(p.values, v)


def test_empty_train_set_rejected():
    model = graph.build(load_fixture("pet_8_mini"), seed=5)
    with pytest.raises(InputError):
        T.train(model, (np.zeros((0, 16, 16, 16, 1)), np.zeros(0, dtype=int)))


def test_early_stopping_patience_zero_restores_first_epoch(monkeypatch):
    """Validation loss worsens monotonically here: training a model on one
    class while validating on another drives val loss up almost surely."""
    restores = []
    real_restore = T._restore
    monkeypatch.setattr(T, "_restore", lambda *a: restores.append(1) or real_restore(*a))
    vols, labels = tiny_dataset(4)
    keep = labels != 2
    vols, labels = vols[keep], labels[keep]
    val_mask = labels == 1
    model = graph.build(load_fixture("pet_8_mini"), seed=3)
    hyper = T.HyperParams(lr0=5e-3, epochs=8, batch_size=4, seed=3)
    model, curve = T.train(
        model,
        (vols, labels),
        np.flatnonzero(val_mask),
        hyper,
        early_stopping_patience=0,
    )
    val_losses = [r.val_loss for r in curve.rows]
    stop = int(np.argmin(val_losses))
    assert len(curve.rows) < 8  # stopped early
    assert val_losses[stop + 1] > val_losses[stop]
    # The probabilities are the restored model's, not the last pass's.
    assert curve.val_probs.tobytes() == T.predict(model, vols[val_mask], 4).tobytes()
    assert len(restores) == 1  # a stop after a worse epoch restores once

    # The restored parameters reproduce the best epoch's validation loss.
    vols_val = vols[val_mask]
    y_val = T.one_hot(labels[val_mask], 3)
    probs = model.forward(vols_val, "inference")
    assert abs(T.cross_entropy(y_val, probs) - val_losses[stop]) < 1e-6


def test_early_stopping_restores_the_best_epoch_of_a_pet_cut():
    """Only the head trains and only it is saved and restored; the frozen,
    read-only backbone and its pinned statistics stay as they were."""
    vols, labels = tiny_dataset(4)
    keep = labels != 2
    vols, labels = vols[keep], labels[keep]
    val_mask = labels == 1
    model = _pet_surgery_model()
    frozen = [(p, p.values.copy()) for p in model.params() if not p.trainable]
    hyper = T.HyperParams(lr0=0.05, epochs=8, batch_size=4, seed=3)
    model, curve = T.train(model, (vols, labels), np.flatnonzero(val_mask), hyper,
                           early_stopping_patience=0)
    val_losses = [r.val_loss for r in curve.rows]
    stop = int(np.argmin(val_losses))
    assert len(curve.rows) < 8 and val_losses[stop + 1] > val_losses[stop]
    assert curve.val_probs.tobytes() == T.predict(model, vols[val_mask], 4).tobytes()

    probs = model.forward(vols[val_mask], "inference")
    assert abs(T.cross_entropy(T.one_hot(labels[val_mask], 3), probs) - val_losses[stop]) < 1e-6
    for p, v in frozen:
        assert not p.values.flags.writeable and np.array_equal(p.values, v), p.name


def test_augmentor_applied_to_train_not_validation():
    calls = []

    def spy(vol, sample_seed):
        calls.append(sample_seed)
        return vol

    vols, labels = tiny_dataset(2)
    model = graph.build(load_fixture("pet_8_mini"), seed=1)
    T.train(model, (vols, labels), np.arange(2),
            T.HyperParams(epochs=2, batch_size=3, seed=1), augmentor=spy)
    assert len(calls) == 2 * (len(labels) - 2)  # every train sample, every epoch
    assert len(set(calls)) == len(calls)  # per-sample per-epoch seeds differ


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflows on purpose
def test_nan_loss_aborts_with_numeric_error():
    vols, labels = tiny_dataset(2)
    model = graph.build(load_fixture("pet_8_mini"), seed=1)
    for p in model.params():
        if p.role == "dense_weights":
            p.values[...] = 1e30  # guaranteed overflow in float32
    with pytest.raises(NumericError):
        T.train(model, (vols, labels), hyper=T.HyperParams(epochs=1))


def test_hyperparams_validation():
    with pytest.raises(InputError):
        T.HyperParams(lr0=0.0)
    with pytest.raises(InputError):
        T.HyperParams(decay_rate=0.0)
    with pytest.raises(InputError):
        T.HyperParams(batch_size=0)


# ---------------------------------------------------------------------------
# Sample counts


def test_sample_count_is_shared_by_every_part():
    vols, labels = tiny_dataset(2)
    assert T.sample_count(vols) == T.sample_count((vols, vols), labels) == 6
    for x, y in [(vols, labels[:5]), ((vols, vols[:5]), None), ((vols, vols), labels[:5])]:
        with pytest.raises(InputError, match="different numbers of samples"):
            T.sample_count(x, y)


@pytest.mark.parametrize("extra", [2, -2], ids=["more_volumes", "fewer_volumes"])
def test_train_rejects_volumes_and_labels_of_different_counts(extra):
    vols, labels = tiny_dataset(2)
    vols = np.concatenate([vols, vols[:extra]]) if extra > 0 else vols[:extra]
    model = graph.build(load_fixture("pet_8_mini"), seed=1)
    with pytest.raises(InputError, match="different numbers of samples"):
        T.train(model, (vols, labels), hyper=T.HyperParams(epochs=1))
    vols, labels = tiny_dataset(2)
    with pytest.raises(InputError, match="different numbers of samples"):
        T.train(model, (vols, labels[:4]), np.arange(3), hyper=T.HyperParams(epochs=1))


def test_a_pet_mri_pair_of_unequal_lengths_raises_input_error():
    spec = load_fixture("two_branch_mini")
    model = graph.build(spec, seed=1)
    xa, xb = random_batch(spec, n=4, seed=5)
    with pytest.raises(InputError, match="different numbers of samples"):
        T.predict(model, (xa, xb[:3]), 2)
    with pytest.raises(InputError, match="different numbers of samples"):
        T.train(model, ((xa, xb[:3]), np.array([0, 1, 2, 0])), hyper=T.HyperParams(epochs=1))


def test_one_hot_rejects_labels_that_are_not_integers():
    assert T.one_hot(np.array([2, 0]), 3).tolist() == [[0, 0, 1], [1, 0, 0]]
    for labels in (np.array([0.0, 1.0]), np.array([True, False]), np.array([[0, 1]])):
        with pytest.raises(InputError, match="vector of integers"):
            T.one_hot(labels, 3)


# ---------------------------------------------------------------------------
# float32 training and the frozen-prefix early stop


def _pet_surgery_model():
    base = graph.build(graph.build_resnet18_3d((16, 16, 16, 1)), seed=0)
    return graph.surgery(base, "pet", seed=1)


@pytest.mark.parametrize("make", [
    lambda: graph.build(load_fixture("pet_8_mini"), seed=2),
    lambda: graph.build(load_fixture("two_branch_mini"), seed=2),
    _pet_surgery_model,
], ids=["pet_8_mini", "two_branch_mini", "resnet18_pet_surgery"])
def test_float32_model_trains_in_float32(monkeypatch, make):
    model = make()
    adam_step, states = T.adam_step, []

    def spy(state, params, lr):
        states.append(state)
        return adam_step(state, params, lr)

    monkeypatch.setattr(T, "adam_step", spy)
    x = random_batch(model.spec, n=3, seed=4)  # float64: the model casts it
    T.train(model, (x, np.array([0, 1, 2])), hyper=T.HyperParams(epochs=1, batch_size=3))

    assert len(states) == 1
    for p in model.params():
        assert p.values.dtype == np.float32, p.name
        if p.trainable:
            assert states[0].m[id(p)].dtype == states[0].v[id(p)].dtype == np.float32, p.name
            assert p.grad.dtype == np.float32, p.name
        else:
            assert id(p) not in states[0].m and id(p) not in states[0].v, p.name  # never updated
            assert p.grad is None, p.name  # a frozen prefix is never back-propagated


def test_two_branch_with_a_frozen_branch_trains_the_other():
    spec = load_fixture("two_branch_mini")
    x = tuple(part.astype(np.float32) for part in random_batch(spec, n=4, seed=5))
    hyper = T.HyperParams(epochs=2, batch_size=2, seed=3)
    finals = []
    for _ in range(2):
        model = graph.build(spec, seed=3)
        freeze(model.branch_a)
        frozen = {id(p) for p in model.branch_a.params()}
        before = [p.values.copy() for p in model.params()]
        T.train(model, (x, np.array([0, 1, 2, 0])), hyper=hyper)
        for p, v in zip(model.params(), before):
            if id(p) in frozen:
                assert p.grad is None and np.array_equal(p.values, v), p.name
            else:
                assert p.grad is not None, p.name
                if p.role.endswith("weights"):
                    assert not np.array_equal(p.values, v), p.name
        finals.append([p.values.copy() for p in model.params()])
    assert all(np.array_equal(a, b) for a, b in zip(*finals))  # seeded runs stay bitwise equal


def test_inference_forward_never_routes_pooling_gradients(monkeypatch):
    """Finding each pool window's winner is backward work: serving never pays for it."""
    from voxcnn import volume as V

    calls = []
    for name in ("_first_max_indices", "maxpool3d_vjp_batch"):
        original = getattr(V, name)

        def spy(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(V, name, spy)
    resnet = graph.build(graph.build_resnet18_3d((16, 16, 16, 1)), seed=0)
    models = [graph.build(load_fixture(f), seed=1) for f in ("pet_8_mini", "two_branch_mini")]
    for model in models + [resnet]:
        model.forward(random_batch(model.spec, n=2, seed=3), "inference")
    assert calls == []

    model = models[0]
    T.loss_and_grads(model, random_batch(model.spec, n=2, seed=3), T.one_hot(np.array([0, 1]), 3),
                     "train", substream(0, "dropout"))
    assert "_first_max_indices" in calls  # the spy sees backward's routing


def test_relu_layers_keep_the_output_only():
    """Conv and dense relu overwrite their own pre-activation; an Activation leaves its input."""
    model = graph.build(load_fixture("pet_8_mini"), seed=1)
    model.forward(random_batch(model.spec, n=2, seed=3), "inference")
    for lyr in model._walk_layers():
        assert not hasattr(lyr, "_z") and not hasattr(lyr, "kernel"), type(lyr).__name__
    x = np.array([[-1.0, 0.0, 2.0, np.nan]])
    act = L.Activation(graph.LayerSpec("activation", activation="relu"))
    out, saved = act.forward(x)
    assert saved is out
    assert np.array_equal(x, [[-1.0, 0.0, 2.0, np.nan]], equal_nan=True)
    assert np.array_equal(out, [[0.0, 0.0, 2.0, np.nan]], equal_nan=True)
    assert np.array_equal(act.backward(saved, np.ones_like(x)), [[0.0, 0.0, 1.0, 0.0]])
