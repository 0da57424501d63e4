"""Model construction: summaries, init, layer mechanics, residual nets, surgery."""

import dataclasses
import hashlib
import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from voxcnn import checkpoint, graph, layers as L, train as T
from voxcnn.errors import InputError, SpecError
from voxcnn.fixtures import load_fixture
from voxcnn.rng import substream

from conftest import bn_layers, random_batch


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


_SMALL_NET = {
    "name": "typed",
    "input_dims": [8, 8, 8, 1],
    "layers": [
        {"kind": "conv3d", "filters": 2, "k": 3, "padding": 1, "l2": 1e-4},
        {"kind": "maxpool3d", "window": 2, "stride": 2},
        {"kind": "flatten"},
        {"kind": "dense", "units": 3, "activation": "softmax"},
    ],
}


def _with(layer, **fields):
    d = {**_SMALL_NET, "layers": [dict(l) for l in _SMALL_NET["layers"]]}
    d["layers"][layer].update(fields)
    return d


@pytest.mark.parametrize("doc", [
    _with(0, k=2.5),
    _with(3, units=2.5),
    _with(0, padding=1.5),
    _with(0, stride=True),
    _with(1, window="2"),
    _with(0, l2="x"),
    _with(0, l2=-1),
    _with(0, l2=float("nan")),
    {**_SMALL_NET, "input_dims": [8.5, 8, 8, 1]},
    {**_SMALL_NET, "input_dims": [8, 8, 8]},
    {**_SMALL_NET, "input_dims": [8, 8, 8, "1"]},
    {**_SMALL_NET, "input_dims": [8, 8, 0, 1]},
    {**_SMALL_NET, "input_dims": 8},
    {"name": "r", "input_dims": [8, 8, 8, 1],
     "layers": [{"kind": "residual_block", "filters": 2, "stride": 0}]},
], ids=["k-float", "units-float", "padding-float", "stride-bool", "window-str", "l2-str", "l2-negative",
        "l2-nan", "dims-float", "dims-three", "dims-str", "dims-zero", "dims-int", "block-stride-0"])
def test_mistyped_spec_field_raises_spec_error(doc):
    with pytest.raises(SpecError):
        graph.summarize(graph.spec_from_dict(doc))


# A value each kind reads, and a value other than the default for every field.
_READ = {
    "conv3d": {"filters": 2, "k": 3, "stride": 2, "padding": 1, "activation": "relu", "l2": 1e-4},
    "maxpool3d": {"window": 2, "stride": 2},
    "global_avg_pool3d": {},
    "flatten": {},
    "dense": {"units": 3, "activation": "softmax", "l2": 1e-4},
    "batch_norm": {"momentum": 0.9},
    "dropout": {"rate": 0.2},
    "activation": {"activation": "sigmoid"},
    "residual_block": {"filters": 2, "stride": 2, "momentum": 0.9, "l2": 1e-4},
}
_OTHER = {"filters": 2, "k": 3, "stride": 2, "padding": 1, "window": 2, "units": 3, "rate": 0.2,
          "momentum": 0.9, "activation": "relu", "l2": 1e-4}
_UNREAD = [(kind, name) for kind, read in _READ.items() for name in _OTHER if name not in read]


def test_each_kind_reads_eighteen_fields_in_all():
    assert sum(map(len, _READ.values())) == 18 and len(_UNREAD) == 72
    for kind, read in _READ.items():
        lspec = graph.LayerSpec(kind, **read)
        assert lspec.to_dict() == {"kind": kind, **read}
        assert graph.LayerSpec(**lspec.to_dict()) == lspec
    # an unread field at its default is accepted, and not written
    pool = graph.LayerSpec("maxpool3d", window=2, stride=2, padding=0, l2=0.0)
    assert pool.to_dict() == {"kind": "maxpool3d", "window": 2, "stride": 2}


@pytest.mark.parametrize("kind,name", _UNREAD, ids=[f"{k}-{n}" for k, n in _UNREAD])
def test_a_field_its_kind_does_not_read_raises_spec_error(kind, name):
    with pytest.raises(SpecError, match=f"^{kind} takes no {name}$"):
        graph.LayerSpec(kind, **_READ[kind], **{name: _OTHER[name]})


def test_fixture_generator_reproduces_the_shipped_fixtures(tmp_path):
    """``scripts/gen_fixtures.py`` writes every shipped fixture file byte for byte."""
    import pathlib
    import runpy

    root = pathlib.Path(__file__).resolve().parents[1]
    specs = runpy.run_path(str(root / "scripts" / "gen_fixtures.py"))["SPECS"]
    shipped = sorted((root / "src" / "voxcnn" / "fixtures").glob("*.json"))
    assert sorted(f"{name}.json" for name in specs) == [p.name for p in shipped]
    assert len(shipped) == 15
    for path in shipped:
        graph.save_spec(specs[path.stem], tmp_path / path.name)
        assert (tmp_path / path.name).read_bytes() == path.read_bytes(), path.name


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


@pytest.mark.parametrize("dtype", [np.int32, bool, np.float16, np.float32, np.float64])
def test_build_takes_only_a_float_dtype(dtype):
    spec = load_fixture("pet_8_mini")
    if np.dtype(dtype).kind != "f":
        with pytest.raises(InputError, match="is not a float type"):
            graph.build(spec, dtype=dtype)
        return
    model = graph.build(spec, dtype=dtype)
    assert {getattr(holder, attr).dtype for holder, attr, _ in graph.arrays(model)} == {np.dtype(dtype)}


@pytest.mark.parametrize("shape,dtype", [((3, 3, 3, 1, 8), np.float32),
                                         ((3, 3, 3, 64, 64), np.float32),
                                         ((70_003,), np.float64)])
def test_glorot_block_draw_is_the_one_shot_draw(shape, dtype):
    a, b = substream(1, "init"), substream(1, "init")
    got = graph.glorot_uniform(a, shape, 10, 20, dtype)
    limit = np.sqrt(6.0 / 30)
    want = b.uniform(-limit, limit, size=shape).astype(dtype)
    assert got.dtype == dtype and got.shape == shape and got.tobytes() == want.tobytes()
    assert a.bit_generator.state == b.bit_generator.state


def test_glorot_draw_holds_no_float64_copy_of_the_weight():
    rng = substream(0, "init")
    tracemalloc.start()
    try:
        w = graph.glorot_uniform(rng, (3, 3, 3, 128, 256), 10, 20, np.float32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * w.nbytes


@pytest.mark.parametrize("seed", [-1, 1.5, True, "3"])
def test_substream_rejects_a_seed_that_is_not_a_non_negative_integer(seed):
    with pytest.raises(InputError, match="seed"):
        substream(seed, "init")


def test_build_with_a_negative_seed_raises_input_error():
    with pytest.raises(InputError, match="seed must be >= 0"):
        graph.build(load_fixture("pet_8_mini"), seed=-1)


# ---------------------------------------------------------------------------
# Layer mechanics


def _bn(channels, momentum=0.99, dtype=np.float32):
    """A fresh batch-norm layer over ``channels`` channels, made as ``build`` makes one."""
    spec = graph.ModelSpec("bn", (1, 1, 1, channels), [graph.LayerSpec("batch_norm", momentum=momentum)])
    return graph.build(spec, dtype=dtype).layers[0]


def test_batchnorm_moving_stats_closed_form():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((4, 3, 3, 3, 2))
    mu = x.mean(axis=(0, 1, 2, 3))
    var = x.var(axis=(0, 1, 2, 3))
    m = 0.9
    bn = _bn(2, momentum=m, dtype=np.float64)
    bn.forward(x, "train")
    assert np.allclose(bn.moving_mean, (1 - m) * mu, atol=1e-12)
    assert np.allclose(bn.moving_var, m * 1.0 + (1 - m) * var, atol=1e-12)
    bn.forward(x, "train")  # second pass folds the same batch stats in again
    assert np.allclose(bn.moving_mean, (1 - m) * mu * (1 + m), atol=1e-12)


def test_batchnorm_train_output_is_standardized():
    rng = np.random.default_rng(1)
    x = 3.0 + 2.0 * rng.standard_normal((8, 2, 2, 2, 3))
    bn = _bn(3, dtype=np.float64)
    y, _ = bn.forward(x, "train")
    assert np.allclose(y.mean(axis=(0, 1, 2, 3)), 0, atol=1e-10)
    # eps=1e-3 shrinks the unit variance slightly; just check the ballpark
    assert np.allclose(y.var(axis=(0, 1, 2, 3)), 1.0, atol=1e-2)


def test_batchnorm_inference_uses_moving_stats():
    bn = _bn(1, dtype=np.float64)
    bn.moving_mean[:] = 2.0
    bn.moving_var[:] = 4.0
    y, _ = bn.forward(np.full((1, 1, 1, 1, 1), 4.0), "inference")
    assert np.allclose(y, (4.0 - 2.0) / np.sqrt(4.0 + 1e-3))


def test_batchnorm_backward_keeps_float32():
    bn = _bn(4)
    x = np.random.default_rng(3).standard_normal((2, 3, 3, 3, 4)).astype(np.float32)
    _, saved = bn.forward(x, "train")
    g = bn.backward(saved, np.ones_like(x))
    assert g.dtype == bn.gamma.grad.dtype == bn.beta.grad.dtype == np.float32


def test_pinned_batchnorm_ignores_train_mode():
    """Freezing gamma and beta pins a batch norm: train mode then normalizes as inference does."""
    bn = _bn(1, dtype=np.float64)
    bn.gamma.trainable = bn.beta.trainable = False
    assert bn.pinned
    x = np.random.default_rng(2).standard_normal((4, 2, 2, 2, 1))
    y, _ = bn.forward(x, "train")
    assert np.array_equal(bn.moving_mean, np.zeros(1))
    assert np.array_equal(bn.moving_var, np.ones(1))
    assert np.allclose(y, x / np.sqrt(1 + 1e-3))


@pytest.mark.parametrize("frozen", [(), ("gamma",), ("beta",)], ids=["none", "gamma", "beta"])
def test_batchnorm_with_a_trainable_parameter_follows_train_mode(frozen):
    bn = _bn(1, momentum=0.9, dtype=np.float64)
    for name in frozen:
        getattr(bn, name).trainable = False
    assert not bn.pinned
    x = np.random.default_rng(2).standard_normal((4, 2, 2, 2, 1))
    y, _ = bn.forward(x, "train")
    assert np.allclose(bn.moving_mean, 0.1 * x.mean())
    assert np.allclose(bn.moving_var, 0.9 + 0.1 * x.var())
    assert np.allclose(y, (x - x.mean()) / np.sqrt(x.var() + 1e-3))


def test_dropout_monte_carlo_keep_rate():
    """>= 1e4 masks: empirical keep rate within 3 sigma, kept values rescaled."""
    rate = 0.3
    drop = L.Dropout(graph.LayerSpec("dropout", rate=rate))
    rng = substream(5, "dropout-mc")
    x = np.ones((10_000, 10))
    y, _ = drop.forward(x, "train", rng)
    kept = y != 0
    n = x.size
    p = 1 - rate
    sigma = np.sqrt(p * (1 - p) / n)
    assert abs(kept.mean() - p) < 3 * sigma
    assert np.allclose(y[kept], 1.0 / p)
    # Inference is the identity.
    y, mask = drop.forward(x, "inference")
    assert y is x and mask is None


def test_dropout_backward_uses_same_mask():
    drop = L.Dropout(graph.LayerSpec("dropout", rate=0.5))
    x = np.ones((4, 8))
    y, mask = drop.forward(x, "train", substream(1, "d"))
    g = drop.backward(mask, np.ones_like(x))
    assert np.array_equal(g, y)
    assert drop.backward(None, g) is g  # an identity forward saves no mask


def test_softmax_layer_vjp_matches_jacobian():
    rng = np.random.default_rng(3)
    z = rng.standard_normal((1, 4))
    act = L.Activation(graph.LayerSpec("activation", activation="softmax"))
    out, saved = act.forward(z)
    g = rng.standard_normal((1, 4))
    got = act.backward(saved, g)
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
    h, s = x, x
    for lyr in block.main:
        h, _ = lyr.forward(h, "inference")
    for lyr in block.shortcut:
        s, _ = lyr.forward(s, "inference")
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


def test_a_cuts_head_is_as_wide_as_its_bases():
    base = graph.build(graph.spec_from_dict({"name": "two_class", "input_dims": [6, 6, 6, 1], "layers": [
        {"kind": "conv3d", "filters": 2, "k": 3}, {"kind": "residual_block", "filters": 2},
        {"kind": "residual_block", "filters": 2}, {"kind": "global_avg_pool3d"},
        {"kind": "dense", "units": 2, "activation": "softmax"}]}), seed=0)
    for recipe in ("mri", "pet"):
        cut = graph.surgery(base, recipe, seed=1)
        assert cut.spec.layers[-1].units == 2
        assert cut.forward(random_batch(cut.spec, n=3, seed=2)).shape == (3, 2)


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

        def wrapped(saved, grad):
            called.append(layer)
            return backward(saved, grad)

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


def _digest(values):
    return values.dtype.str, values.shape, hashlib.sha256(np.ascontiguousarray(values)).hexdigest()


def _state(model):
    """Names, flags, pins and value hashes of every array of ``model``."""
    return ([(p.name, p.role, p.trainable, p.l2, p.values.flags.writeable, _digest(p.values))
             for p in model.params()],
            [(bn.pinned, _digest(bn.moving_mean), _digest(bn.moving_var))
             for bn in bn_layers(model)])


def test_surgery_leaves_its_base_unchanged(small_resnet):
    before = _state(small_resnet)
    assert all(p.trainable for p in small_resnet.params())
    assert not any(bn.pinned for bn in bn_layers(small_resnet))
    cuts = [graph.surgery(small_resnet, recipe, seed=1) for recipe in ("mri", "pet")]
    assert _state(small_resnet) == before

    base_layers = {id(lyr) for lyr in small_resnet._walk_layers()}
    for cut in cuts:
        assert base_layers.isdisjoint(id(lyr) for lyr in cut._walk_layers())
        frozen = [p for p in cut.params() if not p.trainable]
        for p, q in zip(frozen, small_resnet.params()):  # the base's own arrays, read-only
            # named by the cut's own spec, so a saved and reloaded cut keeps its names
            assert p.name == cut.spec.name + q.name[len(small_resnet.spec.name):], p.name
            assert np.shares_memory(p.values, q.values), p.name
            assert not p.values.flags.writeable, p.name
        assert all(bn.pinned for bn in bn_layers(cut))
        dense = f"{cut.spec.name}.{len(cut.spec.layers) - 1}_dense"
        assert [p.name for p in cut.params() if p.trainable] == [f"{dense}.weights", f"{dense}.bias"]


def test_cut_frozen_arrays_reject_in_place_writes(small_resnet):
    cut = graph.surgery(small_resnet, "pet", seed=1)
    frozen = next(p for p in cut.params() if not p.trainable)
    with pytest.raises(ValueError, match="read-only"):
        frozen.values += 1.0
    with pytest.raises(ValueError, match="read-only"):
        bn_layers(cut)[0].moving_mean[...] = 0.0
    head = cut.params()[-1]
    head.values += 1.0  # the fresh head is the cut's own
    assert head.values.flags.owndata


def test_two_cuts_of_one_base_train_in_threads_as_in_series():
    base = graph.build(graph.build_resnet18_3d((16, 16, 16, 1)), seed=0)
    before = _state(base)
    x = np.random.default_rng(3).standard_normal((6, 16, 16, 16, 1)).astype(np.float32)
    y = np.array([0, 1, 2, 0, 1, 2])
    jobs = [("mri", 1), ("pet", 2)]

    def fit(recipe, seed):
        cut = graph.surgery(base, recipe, seed=seed)
        T.train(cut, (x, y), hyper=T.HyperParams(lr0=0.01, epochs=2, batch_size=3, seed=seed))
        return _state(cut)

    serial = [fit(*job) for job in jobs]
    threaded = [None] * len(jobs)

    def run(i):
        threaded[i] = fit(*jobs[i])

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(jobs))]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=300)
    assert not any(t.is_alive() for t in threads)
    assert threaded == serial
    assert _state(base) == before


def test_surgery_rejects_non_resnet():
    model = graph.build(load_fixture("pet_8_mini"), seed=0)
    with pytest.raises(SpecError):
        graph.surgery(model, "mri")


# ---------------------------------------------------------------------------
# Two-branch models


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
        h, _ = lyr.forward(h, "inference")
    assert np.allclose(out, h, atol=1e-12)


def test_two_branch_spec_rejects_a_branch_that_ends_in_a_volume():
    doc = load_fixture("two_branch_mini").to_dict()
    doc["two_branch"]["branch_a"]["layers"] = [{"kind": "conv3d", "filters": 4, "k": 3}]
    spec = graph.spec_from_dict(doc)
    with pytest.raises(SpecError, match="branch A must end in a vector"):
        graph.summarize(spec)
    with pytest.raises(SpecError, match="branch A must end in a vector"):
        graph.build(spec)


# ---------------------------------------------------------------------------
# Per-call state: forward returns what backward reads


@pytest.fixture(scope="module")
def resnet16():
    return graph.build(graph.build_resnet18_3d((16, 16, 16, 1)), seed=9)


def _model(name, base):
    """A float32 model: a fixture built from seed 1, or ``pet_cut``, a ``pet`` cut of ``base``."""
    if name == "pet_cut":
        return graph.surgery(base, "pet", seed=1)
    return graph.build(load_fixture(name), seed=1)


def _float32_batch(spec, n, seed):
    x = random_batch(spec, n=n, seed=seed)
    return tuple(part.astype(np.float32) for part in x) if isinstance(x, tuple) else x.astype(np.float32)


MODELS = ["pet_8_mini", "pet_cut", "two_branch_mini"]


@pytest.mark.parametrize("name", MODELS)
def test_no_layer_holds_per_call_state(name, resnet16):
    """After a training step and an inference forward, every layer holds what it was built with.

    A batch norm that trains rebinds its moving statistics; nothing else is set or rebound.
    """
    model = _model(name, resnet16)
    built = [(lyr, dict(vars(lyr))) for lyr in model._walk_layers()]
    x = _float32_batch(model.spec, 3, seed=4)

    def assert_unchanged():
        for lyr, attrs in built:
            assert vars(lyr).keys() == attrs.keys(), type(lyr).__name__
            for key, value in vars(lyr).items():
                if not (isinstance(lyr, L.BatchNorm) and key in ("moving_mean", "moving_var")):
                    assert value is attrs[key], (type(lyr).__name__, key)

    T.loss_and_grads(model, x, T.one_hot(np.array([0, 1, 2]), 3), "train", substream(0, "dropout"))
    assert_unchanged()
    model.forward(x, "inference")
    assert_unchanged()
    assert not hasattr(graph, "_backprop")


def test_a_cut_keeps_saved_values_for_its_dense_head_only(resnet16):
    cut = _model("pet_cut", resnet16)
    probs = cut.forward(_float32_batch(cut.spec, 2, seed=4), "train")
    (saved,) = cut._saved  # the frozen prefix and the global pool keep nothing
    x, out = saved
    assert out is probs and x.shape == (2, cut.layers[-1].w.values.shape[0])
    cut.backward(T.cross_entropy_grad(T.one_hot(np.array([0, 2]), 3), probs))
    assert cut._saved == []
    assert all(p.grad is not None for p in cut.layers[-1].params)


@pytest.mark.parametrize("name", MODELS)
def test_concurrent_inference_forwards_give_the_serial_answers(name, resnet16):
    model = _model(name, resnet16)
    workers = (os.cpu_count() or 1) + 1  # more threads than cores
    inputs = [_float32_batch(model.spec, 2, seed=s) for s in range(workers)]
    serial = [model.forward(x, "inference").tobytes() for x in inputs]
    answers = [[] for _ in range(workers)]
    start = threading.Barrier(workers)

    def serve(i):
        start.wait()
        for r in range(6):
            answers[i].append(model.forward(inputs[(i + r) % workers], "inference").tobytes())

    threads = [threading.Thread(target=serve, args=(i,)) for i in range(workers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, so that a value shared between calls would show
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert answers == [[serial[(i + r) % workers] for r in range(6)] for i in range(workers)]


def test_fine_tuning_an_unfrozen_cut_trains_copies_and_leaves_its_base_unchanged(resnet16):
    before = _state(resnet16)
    cut = _model("pet_cut", resnet16)
    for p in cut.params():
        p.trainable = True  # the reused arrays are still read-only views of the base
    start = [p.values.copy() for p in cut.params()]
    x = _float32_batch(cut.spec, 3, seed=4)
    T.train(cut, (x, np.array([0, 1, 2])), hyper=T.HyperParams(epochs=1, batch_size=3, seed=1))
    for p, values in zip(cut.params(), start):
        assert p.values.flags.writeable and not np.array_equal(p.values, values), p.name
    assert _state(resnet16) == before


# ---------------------------------------------------------------------------
# A layer is its spec and its arrays


_SETTINGS = ("stride", "padding", "activation", "window", "momentum", "rate", "name")


def _top_level(model):
    """(layer, the spec entry it was built from) of each top-level layer, branches included."""
    if isinstance(model, graph.TwoBranchModel):
        head = list(zip(model.head, model.spec.head, strict=True))
        return _top_level(model.branch_a) + _top_level(model.branch_b) + head
    return list(zip(model.layers, model.spec.layers, strict=True))


@pytest.mark.parametrize("name", MODELS + ["resnet16", "reloaded"])
def test_each_layer_reads_its_settings_from_the_spec_it_was_built_from(name, resnet16, tmp_path):
    if name == "resnet16":
        model = resnet16
    elif name == "reloaded":
        checkpoint.save_checkpoint(_model("pet_8_mini", resnet16), tmp_path / "m.avc")
        model = checkpoint.load_checkpoint(tmp_path / "m.avc")
    else:
        model = _model(name, resnet16)
    for lyr in model._walk_layers():
        assert isinstance(lyr.spec, graph.LayerSpec), type(lyr).__name__
        assert type(lyr) is graph._FIELDS[lyr.spec.kind][2], (type(lyr).__name__, lyr.spec.kind)
        assert not set(vars(lyr)) & set(_SETTINGS), (type(lyr).__name__, sorted(vars(lyr)))
    for lyr, lspec in _top_level(model):
        assert lyr.spec is lspec


def test_a_layer_spec_is_frozen_once_validated():
    lspec = graph.LayerSpec("conv3d", filters=2, k=3)
    with pytest.raises(dataclasses.FrozenInstanceError):
        lspec.stride = 2
    assert dataclasses.replace(lspec, stride=2).stride == 2
    with pytest.raises(SpecError, match="stride >= 1"):
        dataclasses.replace(lspec, stride=0)
    bn = graph.LayerSpec("batch_norm")
    assert bn.momentum == 0.99 and dataclasses.replace(bn).momentum == 0.99
    with pytest.raises(SpecError, match="momentum"):
        dataclasses.replace(bn, momentum=1.5)


@pytest.mark.parametrize("kwargs,match", [
    ({"branch_a": "pet"}, "both branch_a and branch_b"),
    ({"branch_b": "pet"}, "both branch_a and branch_b"),
    ({"branch_a": "two_branch", "branch_b": "pet"}, "must be a single-branch spec"),
    ({"branch_a": "pet", "branch_b": "two_branch"}, "must be a single-branch spec"),
    ({}, "needs input_dims"),
], ids=["a-only", "b-only", "a-two-branch", "b-two-branch", "no-input-dims"])
def test_a_spec_whose_shape_is_not_a_model_raises_spec_error(kwargs, match):
    specs = {"pet": load_fixture("pet_8_mini"), "two_branch": load_fixture("two_branch_mini")}
    with pytest.raises(SpecError, match=match):
        graph.ModelSpec("bad", **{key: specs[v] for key, v in kwargs.items()})


def test_a_spec_part_that_no_model_reads_raises_spec_error():
    """A single-branch spec has no head, and a two-branch spec no input dims or layers of its own:
    a summary or a build would drop them without a word."""
    pet, wide = load_fixture("pet_8_mini"), graph.LayerSpec("dense", units=7)
    with pytest.raises(SpecError, match="takes no head"):
        graph.ModelSpec("x", (4, 4, 4, 1), [graph.LayerSpec("flatten"), graph.LayerSpec("dense", units=3)],
                        head=[wide])
    for extra in ({"input_dims": (16, 16, 16, 1)}, {"layers": [wide]}):
        with pytest.raises(SpecError, match="no input_dims or layers"):
            graph.ModelSpec("x", branch_a=pet, branch_b=pet, head=[wide], **extra)
