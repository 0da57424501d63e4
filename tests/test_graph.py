"""Model construction: summaries, init, layer mechanics, residual nets, surgery."""

import numpy as np
import pytest

from voxcnn import graph, layers as L, train as T
from voxcnn.errors import SpecError
from voxcnn.fixtures import load_fixture
from voxcnn.rng import substream


# ---------------------------------------------------------------------------
# Symbolic summaries


def test_summary_counts_pet_8():
    s = graph.summarize(load_fixture("pet_8"))
    assert s.total == 3_755_795
    assert s.trainable == 3_755_667
    assert s.total - s.trainable == 128


def test_summary_never_allocates_giant_models():
    """mri_1 has 337M parameters; summarizing it must stay symbolic."""
    import time

    t0 = time.time()
    s = graph.summarize(load_fixture("mri_1"))
    assert s.total == 337_124_835
    assert time.time() - t0 < 1.0


def test_spec_round_trip(tmp_path):
    spec = load_fixture("pet_8_mini")
    graph.save_spec(spec, tmp_path / "arch.json")
    again = graph.load_spec(tmp_path / "arch.json")
    assert graph.summarize(again).rows == graph.summarize(spec).rows


def test_unknown_layer_kind_rejected():
    with pytest.raises(SpecError):
        graph.spec_from_dict(
            {"name": "bad", "input_dims": [8, 8, 8, 1], "layers": [{"kind": "conv4d"}]}
        )


# ---------------------------------------------------------------------------
# Initialization


def test_build_is_deterministic():
    spec = load_fixture("pet_8_mini")
    a = graph.build(spec, seed=3)
    b = graph.build(spec, seed=3)
    for pa, pb in zip(a.params(), b.params()):
        assert np.array_equal(pa.values, pb.values)
    c = graph.build(spec, seed=4)
    assert any(
        not np.array_equal(pa.values, pc.values) for pa, pc in zip(a.params(), c.params())
    )


def test_glorot_bounds_for_conv_fans():
    """5x5x5 conv, 1 -> 32 channels: fan_in 125, fan_out 4000, bound sqrt(6/4125)."""
    spec = graph.spec_from_dict(
        {
            "name": "g",
            "input_dims": [8, 8, 8, 1],
            "layers": [
                {"kind": "conv3d", "filters": 32, "k": 5},
                {"kind": "flatten"},
                {"kind": "dense", "units": 3, "activation": "softmax"},
            ],
        }
    )
    model = graph.build(spec, seed=0)
    w = next(p for p in model.params() if p.role == "conv_weights").values
    bound = np.sqrt(6.0 / (125 + 4000))
    assert np.all(np.abs(w) <= bound)
    assert np.abs(w).max() > 0.9 * bound  # uniform law actually fills the range
    biases = [p for p in model.params() if p.role.endswith("bias")]
    assert all(np.all(p.values == 0) for p in biases)


# ---------------------------------------------------------------------------
# Layer mechanics


def test_batchnorm_moving_stats_closed_form():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((4, 3, 3, 3, 2))
    mu = x.mean(axis=(0, 1, 2, 3))
    var = x.var(axis=(0, 1, 2, 3))
    m = 0.9
    bn = L.BatchNorm(2, momentum=m, dtype=np.float64)
    bn.forward(x, "train")
    assert np.allclose(bn.moving_mean, (1 - m) * mu, atol=1e-12)
    assert np.allclose(bn.moving_var, m * 1.0 + (1 - m) * var, atol=1e-12)
    bn.forward(x, "train")  # second pass folds the same batch stats in again
    assert np.allclose(bn.moving_mean, (1 - m) * mu * (1 + m), atol=1e-12)


def test_batchnorm_train_output_is_standardized():
    rng = np.random.default_rng(1)
    x = 3.0 + 2.0 * rng.standard_normal((8, 2, 2, 2, 3))
    bn = L.BatchNorm(3, dtype=np.float64)
    y = bn.forward(x, "train")
    assert np.allclose(y.mean(axis=(0, 1, 2, 3)), 0, atol=1e-10)
    # eps=1e-3 shrinks the unit variance slightly; just check the ballpark
    assert np.allclose(y.var(axis=(0, 1, 2, 3)), 1.0, atol=1e-2)


def test_batchnorm_inference_uses_moving_stats():
    bn = L.BatchNorm(1, dtype=np.float64)
    bn.moving_mean[:] = 2.0
    bn.moving_var[:] = 4.0
    y = bn.forward(np.full((1, 1, 1, 1, 1), 4.0), "inference")
    assert np.allclose(y, (4.0 - 2.0) / np.sqrt(4.0 + 1e-3))


def test_batchnorm_backward_keeps_float32():
    bn = L.BatchNorm(4)
    x = np.random.default_rng(3).standard_normal((2, 3, 3, 3, 4)).astype(np.float32)
    bn.forward(x, "train")
    g = bn.backward(np.ones_like(x))
    assert g.dtype == bn.gamma.grad.dtype == bn.beta.grad.dtype == np.float32


def test_pinned_batchnorm_ignores_train_mode():
    bn = L.BatchNorm(1, dtype=np.float64)
    bn.pinned = True
    x = np.random.default_rng(2).standard_normal((4, 2, 2, 2, 1))
    y = bn.forward(x, "train")
    assert np.array_equal(bn.moving_mean, np.zeros(1))
    assert np.array_equal(bn.moving_var, np.ones(1))
    assert np.allclose(y, x / np.sqrt(1 + 1e-3))


def test_dropout_monte_carlo_keep_rate():
    """>= 1e4 masks: empirical keep rate within 3 sigma, kept values rescaled."""
    rate = 0.3
    drop = L.Dropout(rate)
    rng = substream(5, "dropout-mc")
    x = np.ones((10_000, 10))
    y = drop.forward(x, "train", rng)
    kept = y != 0
    n = x.size
    p = 1 - rate
    sigma = np.sqrt(p * (1 - p) / n)
    assert abs(kept.mean() - p) < 3 * sigma
    assert np.allclose(y[kept], 1.0 / p)
    # Inference is the identity.
    assert np.array_equal(drop.forward(x, "inference"), x)


def test_dropout_backward_uses_same_mask():
    drop = L.Dropout(0.5)
    x = np.ones((4, 8))
    y = drop.forward(x, "train", substream(1, "d"))
    g = drop.backward(np.ones_like(x))
    assert np.array_equal(g, y)


def test_softmax_layer_vjp_matches_jacobian():
    rng = np.random.default_rng(3)
    z = rng.standard_normal((1, 4))
    act = L.Activation("softmax")
    out = act.forward(z)
    g = rng.standard_normal((1, 4))
    got = act.backward(g)
    s = out[0]
    jac = np.diag(s) - np.outer(s, s)
    assert np.allclose(got[0], jac @ g[0], atol=1e-12)


def test_residual_block_zeroed_main_path_is_identity():
    """With the main path forced to zero and an identity shortcut, y = x."""
    spec = graph.spec_from_dict(
        {
            "name": "res",
            "input_dims": [6, 6, 6, 4],
            "layers": [{"kind": "residual_block", "filters": 4, "stride": 1}],
        }
    )
    model = graph.build(spec, seed=0, dtype=np.float64)
    block = model.layers[0]
    assert block.shortcut == []  # same channels, stride 1: identity shortcut
    for p in block.params:
        if p.role.startswith(("conv", "dense")) or p.role == "bn_gamma":
            if p.role != "bn_gamma":
                p.values[...] = 0.0
    x = np.random.default_rng(4).standard_normal((2, 6, 6, 6, 4))
    y = model.forward(x, "inference")
    assert np.allclose(y, x, atol=1e-12)


def test_residual_block_is_sum_of_paths():
    spec = graph.spec_from_dict(
        {
            "name": "res",
            "input_dims": [6, 6, 6, 2],
            "layers": [{"kind": "residual_block", "filters": 4, "stride": 2}],
        }
    )
    model = graph.build(spec, seed=1, dtype=np.float64)
    block = model.layers[0]
    assert block.shortcut != []  # channel/stride change: projection shortcut
    x = np.random.default_rng(5).standard_normal((2, 6, 6, 6, 2))
    y = model.forward(x, "inference")
    h = x
    for lyr in block.main:
        h = lyr.forward(h, "inference")
    s = x
    for lyr in block.shortcut:
        s = lyr.forward(s, "inference")
    assert np.allclose(y, h + s, atol=1e-12)


# ---------------------------------------------------------------------------
# ResNet-18 builder and transfer surgery


def test_resnet18_structure():
    spec = graph.build_resnet18_3d((64, 128, 128, 1))
    s = graph.summarize(spec)
    # 18 weighted layers: stem conv + 16 block convs + the dense classifier.
    n_blocks = sum(1 for l in spec.layers if l.kind == "residual_block")
    assert n_blocks == 8
    weighted = 1 + 2 * n_blocks + 1
    assert weighted == 18
    assert spec.layers[-1].kind == "dense" and spec.layers[-1].units == 3
    # The classifier head sees 512 features: 512*3 + 3 parameters.
    assert s.rows[-1].params == 1539
    assert all(
        l.momentum == 0.99
        for l in spec.layers
        if l.kind in ("batch_norm", "residual_block")
    )


@pytest.fixture(scope="module")
def small_resnet():
    spec = graph.build_resnet18_3d((32, 32, 32, 1))
    return graph.build(spec, seed=9)


@pytest.mark.parametrize("recipe,expected_trainable", [("mri", 1539), ("pet", 771)])
def test_surgery_trainable_counts(small_resnet, recipe, expected_trainable):
    cut = graph.surgery(small_resnet, recipe, seed=1)
    trainable = sum(p.values.size for p in cut.params() if p.trainable)
    assert trainable == expected_trainable


def test_surgery_backbone_is_bitwise_frozen(small_resnet):
    cut = graph.surgery(small_resnet, "pet", seed=1)
    frozen = [p for p in cut.params() if not p.trainable]
    before = [p.values.copy() for p in frozen]
    bns = [lyr for lyr in cut._walk_layers() if isinstance(lyr, L.BatchNorm)]
    assert bns and all(bn.pinned for bn in bns)
    stats_before = [(bn.moving_mean.copy(), bn.moving_var.copy()) for bn in bns]

    rng = np.random.default_rng(6)
    x = rng.standard_normal((2, 32, 32, 32, 1)).astype(np.float32)
    y = T.one_hot(np.array([0, 1]), 3)
    adam = T.AdamState(cut.params())
    for step in range(10):
        T.loss_and_grads(cut, x, y, "train", substream(7, "d", step))
        T.adam_step(adam, cut.params(), 1e-3)

    for p, v in zip(frozen, before):
        assert np.array_equal(p.values, v), p.name
    for bn, (mm, mv) in zip(bns, stats_before):
        assert np.array_equal(bn.moving_mean, mm)
        assert np.array_equal(bn.moving_var, mv)
    # ... while the fresh head actually moved.
    head = [p for p in cut.params() if p.trainable]
    assert any(p.grad is not None and np.any(p.values != 0) for p in head)


def test_backward_never_runs_the_frozen_prefix(small_resnet, monkeypatch):
    cut = graph.surgery(small_resnet, "pet", seed=1)
    called = []

    def spy(layer):
        backward = layer.backward

        def wrapped(grad):
            called.append(layer)
            return backward(grad)

        return wrapped

    for lyr in cut._walk_layers():
        monkeypatch.setattr(lyr, "backward", spy(lyr))
    x = np.random.default_rng(4).standard_normal((1, 32, 32, 32, 1)).astype(np.float32)
    T.loss_and_grads(cut, x, T.one_hot(np.array([2]), 3), "train")
    # The global pool holds no parameter, so the dense head is the first trainable layer.
    assert called == [cut.layers[-1]]
    assert all(p.grad is not None for p in cut.layers[-1].params)


def test_surgery_pet_drops_last_stage(small_resnet):
    mri = graph.surgery(small_resnet, "mri", seed=1)
    pet = graph.surgery(small_resnet, "pet", seed=1)
    n_mri = sum(1 for l in mri.spec.layers if l.kind == "residual_block")
    n_pet = sum(1 for l in pet.spec.layers if l.kind == "residual_block")
    assert n_mri == 8 and n_pet == 6


def test_surgery_rejects_non_resnet():
    model = graph.build(load_fixture("pet_8_mini"), seed=0)
    with pytest.raises(SpecError):
        graph.surgery(model, "mri")


# ---------------------------------------------------------------------------
# Two-branch fusion


def test_two_branch_forward_is_concat_plus_head():
    spec = load_fixture("two_branch_mini")
    model = graph.build(spec, seed=2, dtype=np.float64)
    rng = np.random.default_rng(8)
    xa = rng.standard_normal((3,) + tuple(spec.branch_a.input_dims))
    xb = rng.standard_normal((3,) + tuple(spec.branch_b.input_dims))
    out = model.forward((xa, xb), "inference")
    assert out.shape == (3, 3)
    assert np.allclose(out.sum(axis=1), 1.0, atol=1e-9)

    fa = model.branch_a.forward(xa, "inference")
    fb = model.branch_b.forward(xb, "inference")
    h = np.concatenate([fa, fb], axis=1)
    for lyr in model.head:
        h = lyr.forward(h, "inference")
    assert np.allclose(out, h, atol=1e-12)


def test_fuse_rejects_volume_terminated_branches():
    vol_spec = graph.spec_from_dict(
        {
            "name": "no_pool",
            "input_dims": [8, 8, 8, 1],
            "layers": [{"kind": "conv3d", "filters": 4, "k": 3}],
        }
    )
    a = graph.build(vol_spec, seed=0)
    b = graph.build(load_fixture("mri_9_mini"), seed=0)
    with pytest.raises(SpecError):
        graph.fuse_two_branch(a, b, [graph.LayerSpec("dense", units=3, activation="softmax")])
