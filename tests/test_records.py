"""Binary patient records, manifests, checkpoints, and the synthetic generator."""

import json
import struct
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from voxcnn import checkpoint, fileio, graph, records, train as T
from voxcnn.errors import (
    ChecksumError,
    DataError,
    FormatError,
    InputError,
    StorageError,
    TruncationError,
    VersionError,
    VoxcnnError,
)
from voxcnn.fixtures import load_fixture
from voxcnn.rng import substream


def make_record(seed=0, dims_pet=(79, 95, 68, 1), dims_mri=(121, 145, 121, 1)):
    rng = np.random.default_rng(seed)
    return records.PatientRecord(
        subject_id="subj-0001",
        label=1,
        volumes=[
            ("PET", rng.standard_normal(dims_pet).astype(np.float32)),
            ("MRI", rng.standard_normal(dims_mri).astype(np.float32)),
        ],
    )


# ---------------------------------------------------------------------------
# Round trips


def test_round_trip_is_bitwise(tmp_path):
    rec = make_record(dims_pet=(19, 23, 17, 1), dims_mri=(31, 29, 31, 1))
    path = tmp_path / "r.rec"
    records.write_record(rec, path)
    back = records.read_record(path)
    assert back.subject_id == rec.subject_id
    assert back.label == rec.label
    for (ma, va), (mb, vb) in zip(rec.volumes, back.volumes):
        assert ma == mb
        assert va.dtype == vb.dtype == np.float32
        assert np.array_equal(va, vb)


def test_study_dims_round_trip(tmp_path):
    """The full-size PET (79x95x68) and MRI (121x145x121) pair fits the format."""
    rec = make_record()
    path = tmp_path / "full.rec"
    records.write_record(rec, path)
    back = records.read_record(path)
    assert back.volume("PET").shape == (79, 95, 68, 1)
    assert back.volume("MRI").shape == (121, 145, 121, 1)


def test_header_layout_is_little_endian(tmp_path):
    rec = make_record(dims_pet=(8, 8, 8, 1), dims_mri=(8, 8, 8, 1))
    path = tmp_path / "r.rec"
    records.write_record(rec, path)
    raw = path.read_bytes()
    assert raw[:4] == b"AVR1"
    version, label = struct.unpack_from("<HB", raw, 4)
    assert version == 1 and label == 1
    (id_len,) = struct.unpack_from("<H", raw, 7)
    assert raw[9:9 + id_len].decode("utf-8") == "subj-0001"


# ---------------------------------------------------------------------------
# Corruption and malformed input


def test_single_bit_corruption_always_detected(tmp_path):
    rec = make_record(dims_pet=(6, 6, 6, 1), dims_mri=(6, 6, 6, 1))
    path = tmp_path / "r.rec"
    records.write_record(rec, path)
    raw = bytearray(path.read_bytes())
    # Find the first PET payload byte: after header and per-volume preamble.
    payload_start = raw.index(b"AVR1") + 4 + 3 + 2 + len("subj-0001") + 1 + 1 + 16 + 1
    rng = np.random.default_rng(0)
    n_payload = 6 * 6 * 6 * 4
    for _ in range(32):
        offset = payload_start + int(rng.integers(0, n_payload))
        bit = 1 << int(rng.integers(0, 8))
        corrupted = bytearray(raw)
        corrupted[offset] ^= bit
        bad = tmp_path / "bad.rec"
        bad.write_bytes(bytes(corrupted))
        with pytest.raises(ChecksumError):
            records.read_record(bad)


def test_empty_file_is_truncation(tmp_path):
    p = tmp_path / "empty.rec"
    p.write_bytes(b"")
    with pytest.raises(TruncationError):
        records.read_record(p)


def test_truncated_payload(tmp_path):
    rec = make_record(dims_pet=(6, 6, 6, 1), dims_mri=(6, 6, 6, 1))
    path = tmp_path / "r.rec"
    records.write_record(rec, path)
    raw = path.read_bytes()
    cut = tmp_path / "cut.rec"
    cut.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(TruncationError):
        records.read_record(cut)


def test_bad_magic(tmp_path):
    p = tmp_path / "bad.rec"
    p.write_bytes(b"XXXX" + b"\x00" * 64)
    with pytest.raises(FormatError):
        records.read_record(p)


def test_unknown_version(tmp_path):
    rec = make_record(dims_pet=(6, 6, 6, 1), dims_mri=(6, 6, 6, 1))
    path = tmp_path / "r.rec"
    records.write_record(rec, path)
    raw = bytearray(path.read_bytes())
    struct.pack_into("<H", raw, 4, 99)
    path.write_bytes(bytes(raw))
    with pytest.raises(VersionError):
        records.read_record(path)


def test_write_is_atomic_no_partial_file_on_error(tmp_path):
    rec = make_record(dims_pet=(6, 6, 6, 1), dims_mri=(6, 6, 6, 1))
    target = tmp_path / "missing" / "out.rec"
    with pytest.raises(StorageError):
        records.write_record(rec, target)
    assert not target.exists()
    assert list(tmp_path.iterdir()) == []  # no stray temp file either


def test_writer_always_stores_float32(tmp_path):
    rec = make_record(dims_pet=(6, 6, 6, 1), dims_mri=(6, 6, 6, 1))
    rec.volumes[0] = ("PET", rec.volumes[0][1].astype(np.float64))
    path = tmp_path / "r.rec"
    records.write_record(rec, path)
    assert records.read_record(path).volume("PET").dtype == np.float32


def test_record_validation():
    with pytest.raises(InputError):
        records.PatientRecord("s", 5, [("PET", np.zeros((4, 4, 4, 1), np.float32))])
    with pytest.raises(InputError):
        records.PatientRecord("s", 0, [("XRAY", np.zeros((4, 4, 4, 1), np.float32))])


def _tiny_record_bytes(tmp_path, subject_id="subj-01"):
    rec = records.PatientRecord(subject_id, 1, [
        ("PET", np.arange(8, dtype=np.float32).reshape(2, 2, 2, 1)),
        ("MRI", np.ones((2, 1, 2, 1), np.float32)),
    ])
    path = tmp_path / "tiny.rec"
    records.write_record(rec, path)
    return path, path.read_bytes()


def test_subject_id_that_is_not_utf8_raises_format_error(tmp_path):
    path, raw = _tiny_record_bytes(tmp_path)
    start = 4 + 3 + 2  # magic, version and label, id length
    path.write_bytes(raw[:start] + b"\xff" + raw[start + 1:])
    with pytest.raises(FormatError, match="UTF-8"):
        records.read_record(path)


@pytest.mark.parametrize("label", [3, 255])
def test_out_of_range_label_byte_raises_format_error(tmp_path, label):
    path, raw = _tiny_record_bytes(tmp_path)
    path.write_bytes(raw[:6] + bytes([label]) + raw[7:])
    with pytest.raises(FormatError, match="label"):
        records.read_record(path)


def test_duplicate_modality_code_raises_format_error(tmp_path):
    path, raw = _tiny_record_bytes(tmp_path)
    mri_code_at = raw.index(struct.pack("<B4IB", 1, 2, 1, 2, 1, 0))
    path.write_bytes(raw[:mri_code_at] + b"\x00" + raw[mri_code_at + 1:])  # a second PET
    with pytest.raises(FormatError, match="unique"):
        records.read_record(path)


def test_missing_modality_raises_data_error():
    rec = records.PatientRecord("s", 0, [("PET", np.zeros((4, 4, 4, 1), np.float32))])
    with pytest.raises(DataError, match="OTHER"):
        rec.volume("OTHER")


@pytest.fixture(scope="module")
def tiny_record(tmp_path_factory):
    path, raw = _tiny_record_bytes(tmp_path_factory.mktemp("rec"))
    return raw, records.read_record(path)


def _same_record(a, b):
    return (a.subject_id == b.subject_id and a.label == b.label
            and [(m, v.shape, v.tobytes()) for m, v in a.volumes]
            == [(m, v.shape, v.tobytes()) for m, v in b.volumes])


@given(data=st.data())
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_damaged_record_raises_a_typed_error(tiny_record, tmp_path, data):
    """Truncated or extended files raise a StorageError; a flipped byte a VoxcnnError or reads back."""
    raw, original = tiny_record
    damage = data.draw(st.sampled_from(["truncate", "append", "flip"]), label="damage")
    if damage == "truncate":
        damaged = raw[: data.draw(st.integers(0, len(raw) - 1), label="length")]
    elif damage == "append":
        damaged = raw + data.draw(st.binary(min_size=1, max_size=16), label="tail")
    else:
        pos = data.draw(st.integers(0, len(raw) - 1), label="position")
        mask = data.draw(st.integers(1, 255), label="mask")
        damaged = raw[:pos] + bytes([raw[pos] ^ mask]) + raw[pos + 1 :]
    path = tmp_path / "damaged.rec"
    path.write_bytes(damaged)
    try:
        rec = records.read_record(path)
    except StorageError:
        return
    except VoxcnnError:
        assert damage == "flip"
        return
    assert damage == "flip"
    assert not _same_record(rec, original)  # every byte of the format means something


# ---------------------------------------------------------------------------
# Manifests


def test_manifest_counts_match_disk(tmp_path, synth_dataset):
    manifest = records.build_manifest(synth_dataset)
    assert manifest.class_counts == {"CN": 8, "AD": 8, "MCI": 8}
    assert len(manifest.files) == 24
    on_disk = records.read_manifest(synth_dataset / "manifest.json")
    assert on_disk.class_counts == manifest.class_counts
    assert on_disk.files == manifest.files


def test_manifest_rejects_inconsistent_dims(tmp_path):
    records.write_record(make_record(0, (6, 6, 6, 1), (6, 6, 6, 1)), tmp_path / "a.rec")
    records.write_record(make_record(1, (8, 8, 8, 1), (6, 6, 6, 1)), tmp_path / "b.rec")
    with pytest.raises(StorageError):
        records.build_manifest(tmp_path)


# ---------------------------------------------------------------------------
# Synthetic generator


def test_gen_synthetic_counts_and_determinism():
    a, _ = records.gen_synthetic(3, dims=(16, 16, 16), seed=4)
    b, _ = records.gen_synthetic(3, dims=(16, 16, 16), seed=4)
    c, _ = records.gen_synthetic(3, dims=(16, 16, 16), seed=5)
    assert len(a) == 9
    assert [r.label for r in a] == [0, 0, 0, 1, 1, 1, 2, 2, 2]
    for ra, rb in zip(a, b):
        assert np.array_equal(ra.volume("PET"), rb.volume("PET"))
    assert not np.array_equal(a[0].volume("PET"), c[0].volume("PET"))


def template_accuracy(signal, noise, seed=11, per_class=6):
    """Nearest-template classification accuracy on fresh synthetic volumes."""
    recs, _ = records.gen_synthetic(per_class, dims=(16, 16, 16),
                                    signal_strength=signal, noise_sigma=noise,
                                    seed=seed)
    templates = [
        records._class_pattern((16, 16, 16), cls, signal)[..., None] for cls in range(3)
    ]
    correct = 0
    for rec in recs:
        vol = rec.volume("MRI")
        errs = [((vol - t) ** 2).sum() for t in templates]
        correct += int(np.argmin(errs) == rec.label)
    return correct / len(recs)


def test_synthetic_classes_are_template_separable():
    assert template_accuracy(signal=1.0, noise=0.05) == 1.0


def test_separability_is_monotone_in_signal_to_noise():
    grid = [
        template_accuracy(signal=0.02, noise=0.8),
        template_accuracy(signal=0.3, noise=0.3),
        template_accuracy(signal=1.0, noise=0.05),
    ]
    assert grid[0] <= grid[1] <= grid[2]
    assert grid[2] == 1.0


# ---------------------------------------------------------------------------
# Checkpoints


def test_checkpoint_round_trip_bitwise(tmp_path):
    model = graph.build(load_fixture("pet_8_mini"), seed=6)
    # Make the state non-trivial: one train step updates BN moving stats.
    x = np.random.default_rng(7).standard_normal((2, 16, 16, 16, 1)).astype(np.float32)
    y = T.one_hot(np.array([0, 2]), 3)
    T.loss_and_grads(model, x, y, "train", substream(1, "d"))
    path = tmp_path / "m.avc"
    checkpoint.save_checkpoint(model, path)
    back = checkpoint.load_checkpoint(path)
    for pa, pb in zip(model.params(), back.params()):
        assert pa.name == pb.name
        assert pa.trainable == pb.trainable
        assert np.array_equal(pa.values, pb.values)
    probs_a = model.forward(x, "inference")
    probs_b = back.forward(x, "inference")
    assert np.array_equal(probs_a, probs_b)


def test_checkpoint_detects_payload_corruption(tmp_path):
    model = graph.build(load_fixture("mri_9_mini"), seed=6)
    path = tmp_path / "m.avc"
    checkpoint.save_checkpoint(model, path)
    raw = bytearray(path.read_bytes())
    raw[-10] ^= 0x04
    path.write_bytes(bytes(raw))
    with pytest.raises(ChecksumError):
        checkpoint.load_checkpoint(path)


def test_checkpoint_bad_magic(tmp_path):
    p = tmp_path / "m.avc"
    p.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(FormatError):
        checkpoint.load_checkpoint(p)


def _checkpoint_parts(raw):
    """(header dict, payload bytes) of a checkpoint file's contents."""
    header_len = struct.unpack_from("<I", raw, 6)[0]
    return json.loads(raw[10 : 10 + header_len]), raw[10 + header_len + 4 :]


def _checkpoint_bytes(header_bytes, payloads, version=checkpoint.VERSION):
    """A checkpoint with a correct header CRC around any header bytes."""
    return (checkpoint.MAGIC + struct.pack("<HI", version, len(header_bytes)) + header_bytes
            + struct.pack("<I", zlib.crc32(header_bytes)) + payloads)


@pytest.fixture
def saved_mini(tmp_path):
    model = graph.build(load_fixture("pet_8_mini"), seed=6)
    path = tmp_path / "m.avc"
    checkpoint.save_checkpoint(model, path)
    return path, path.read_bytes()


def test_checkpoint_short_file_raises_truncation_error(saved_mini):
    path, raw = saved_mini
    header_end = 10 + struct.unpack_from("<I", raw, 6)[0]
    for n in (0, 2, 6, 9, header_end - 1, header_end + 2, len(raw) - 1):
        path.write_bytes(raw[:n])
        with pytest.raises(TruncationError):
            checkpoint.load_checkpoint(path)


def test_checkpoint_flipped_header_byte_fails_its_crc(saved_mini):
    path, raw = saved_mini
    bad = bytearray(raw)
    bad[12] ^= 0x80  # inside the JSON header
    path.write_bytes(bytes(bad))
    with pytest.raises(ChecksumError):
        checkpoint.load_checkpoint(path)


@pytest.mark.parametrize("header_bytes", [
    b"\xff\xfe{not utf-8",
    b"{not json",
    b"[1, 2, 3]",
    b'{"spec": {}, "params": []}',
])
def test_checkpoint_malformed_header_raises_format_error(saved_mini, header_bytes):
    path, raw = saved_mini
    _, payloads = _checkpoint_parts(raw)
    path.write_bytes(_checkpoint_bytes(header_bytes, payloads))
    with pytest.raises(FormatError):
        checkpoint.load_checkpoint(path)


@pytest.mark.parametrize("edit", [
    lambda h: h["params"][0].pop("dtype"),
    lambda h: h["params"][0].update(shape=[-1]),
    lambda h: h["params"][0].update(trainable="yes"),
    lambda h: h["bn"].pop(),
    lambda h: h["bn"].append({"pinned": False}),
    lambda h: h["spec"]["layers"][0].update(kind="nope"),
    lambda h: h["params"][0].update(name=3),
    lambda h: h["params"][0].update(role="dense_weights"),
])
def test_checkpoint_inconsistent_header_raises_format_error(saved_mini, edit):
    path, raw = saved_mini
    header, payloads = _checkpoint_parts(raw)
    edit(header)
    path.write_bytes(_checkpoint_bytes(json.dumps(header).encode("utf-8"), payloads))
    with pytest.raises(FormatError):
        checkpoint.load_checkpoint(path)


def _fused_model():
    spec = load_fixture("two_branch_mini")
    branch_a = graph.build(spec.branch_a, seed=1)
    branch_a.freeze_all()
    head = [graph.LayerSpec("dense", units=3, activation="softmax")]
    return graph.fuse_two_branch(branch_a, graph.build(spec.branch_b, seed=2), head, seed=3)


def _pet_surgery_resnet():
    base = graph.build(graph.build_resnet18_3d((32, 32, 32, 1)), seed=0)
    return graph.surgery(base, "pet", seed=1)


@pytest.mark.parametrize("make", [
    lambda: graph.build(load_fixture("pet_8_mini"), seed=6),
    lambda: graph.build(load_fixture("pet_8_mini"), seed=6, dtype=np.float64),
    lambda: graph.build(load_fixture("two_branch_mini"), seed=6),
    _fused_model,
    _pet_surgery_resnet,
], ids=["pet_8_mini-float32", "pet_8_mini-float64", "two_branch_mini", "fused", "pet-surgery-resnet18"])
def test_checkpoint_save_load_save_is_byte_identical(tmp_path, make):
    first, second = tmp_path / "first.avc", tmp_path / "second.avc"
    checkpoint.save_checkpoint(make(), first)
    checkpoint.save_checkpoint(checkpoint.load_checkpoint(first), second)
    assert second.read_bytes() == first.read_bytes()


def test_load_checkpoint_draws_nothing(saved_mini, monkeypatch):
    path, _ = saved_mini
    calls = []
    real_glorot, real_substream = graph.glorot_uniform, graph.substream
    monkeypatch.setattr(graph, "glorot_uniform",
                        lambda *a: calls.append("glorot_uniform") or real_glorot(*a))
    monkeypatch.setattr(graph, "substream", lambda *a: calls.append(a) or real_substream(*a))
    back = checkpoint.load_checkpoint(path)
    assert calls == []
    for p in back.params():  # loaded arrays are owned, C-contiguous, writable float32
        assert p.values.flags.owndata and p.values.flags.c_contiguous and p.values.flags.writeable
        assert p.values.dtype == np.float32
    graph.build(back.spec, seed=0)  # the spies do see a build's draws
    assert calls[0][-1] == "init" and "glorot_uniform" in calls


def test_checkpoint_payloads_are_copied_once_into_owned_arrays(saved_mini, monkeypatch):
    path, raw = saved_mini
    file_bytes = np.frombuffer(raw, dtype=np.uint8)
    # Reads are views of the file's bytes, so the array copy is the only copy.
    r = fileio.Reader(raw, path)
    assert r.take(4) == checkpoint.MAGIC
    assert np.shares_memory(np.frombuffer(r.take(16), dtype=np.uint8), file_bytes)

    monkeypatch.setattr(fileio, "read_bytes", lambda *args: raw)
    back = checkpoint.load_checkpoint(path)
    arrays = [p.values for p in back.params()]
    arrays += [a for bn in graph.bn_layers(back) for a in (bn.moving_mean, bn.moving_var)]
    for a in arrays:
        assert a.flags.writeable and not np.shares_memory(a, file_bytes)
        a += 1.0  # writing to a loaded array leaves the file's bytes alone
    assert bytes(file_bytes) == raw

    # One flipped byte in the first payload still fails that payload's CRC.
    header, _ = _checkpoint_parts(raw)
    first_payload = 10 + struct.unpack_from("<I", raw, 6)[0] + 4
    bad = bytearray(raw)
    bad[first_payload] ^= 0x01
    monkeypatch.setattr(fileio, "read_bytes", lambda *args: bytes(bad))
    with pytest.raises(ChecksumError, match=repr(header["params"][0]["name"])):
        checkpoint.load_checkpoint(path)


def test_checkpoint_trailing_bytes_raise_format_error(saved_mini):
    path, raw = saved_mini
    path.write_bytes(raw + b"\x00")
    with pytest.raises(FormatError, match="trailing"):
        checkpoint.load_checkpoint(path)


def test_checkpoint_other_version_raises_version_error(saved_mini):
    path, raw = saved_mini
    header, payloads = _checkpoint_parts(raw)
    path.write_bytes(_checkpoint_bytes(json.dumps(header).encode("utf-8"), payloads, version=1))
    with pytest.raises(VersionError):
        checkpoint.load_checkpoint(path)


TINY_CKPT_SPEC = {
    "name": "ckpt_tiny",
    "input_dims": [4, 4, 4, 1],
    "layers": [
        {"kind": "conv3d", "filters": 2, "k": 2, "activation": "relu"},
        {"kind": "batch_norm", "momentum": 0.9},
        {"kind": "global_avg_pool3d"},
        {"kind": "dense", "units": 3, "activation": "softmax"},
    ],
}


def _model_state(model):
    bns = graph.bn_layers(model)
    return (
        model.spec.to_dict(),
        [(p.name, p.trainable, p.l2, p.values.dtype.str, p.values.tobytes()) for p in model.params()],
        [(bn.pinned, bn.moving_mean.tobytes(), bn.moving_var.tobytes()) for bn in bns],
    )


@pytest.fixture(scope="module")
def tiny_checkpoint(tmp_path_factory):
    model = graph.build(graph.spec_from_dict(TINY_CKPT_SPEC), seed=4)
    model.layers[0].w.trainable = False
    x = np.random.default_rng(2).standard_normal((2, 4, 4, 4, 1)).astype(np.float32)
    T.loss_and_grads(model, x, T.one_hot(np.array([0, 1]), 3), "train")  # moves BN stats
    path = tmp_path_factory.mktemp("ckpt") / "tiny.avc"
    checkpoint.save_checkpoint(model, path)
    return path.read_bytes(), _model_state(model)


@given(data=st.data())
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_damaged_checkpoint_raises_storage_error_or_loads_equal(tiny_checkpoint, tmp_path, data):
    raw, state = tiny_checkpoint
    if data.draw(st.booleans(), label="truncate"):
        damaged = raw[: data.draw(st.integers(0, len(raw) - 1), label="length")]
    else:
        pos = data.draw(st.integers(0, len(raw) - 1), label="position")
        mask = data.draw(st.integers(1, 255), label="mask")
        damaged = raw[:pos] + bytes([raw[pos] ^ mask]) + raw[pos + 1 :]
    path = tmp_path / "damaged.avc"
    path.write_bytes(damaged)
    try:
        model = checkpoint.load_checkpoint(path)
    except StorageError:
        return
    assert _model_state(model) == state
