"""Acceptance gate: one checked criterion per test, one printed verdict each.

Every test prints ``PASS``/``FAIL criterion N`` on the real stdout (bypassing
capture) so a ``pytest -v`` run shows a one-line verdict per criterion, then
asserts, so failures still fail the suite.
"""

import re
import sys
import time

import numpy as np
import pytest

from voxcnn import augment as A, evaluate as E, graph, preprocess as P, records, train as T
from voxcnn.errors import ChecksumError
from voxcnn.fixtures import load_fixture
from voxcnn.rng import substream

from conftest import build_f64, fd_gradient_check, random_batch
from golden_tables import GOLDEN_TABLES


def verdict(n: int, description: str, ok: bool):
    print(f"{'PASS' if ok else 'FAIL'}  criterion {n:>2}: {description}",
          file=sys.__stdout__, flush=True)
    assert ok, f"criterion {n} failed: {description}"


def _norm(label: str) -> str:
    return re.sub(r"\s+", " ", label).strip().lower()


# ---------------------------------------------------------------------------


def test_criterion_01_golden_architecture_tables():
    t0 = time.time()
    ok = True
    for name, table in sorted(GOLDEN_TABLES.items()):
        s = graph.summarize(load_fixture(name))
        ok &= len(s.rows) == len(table)
        for row, (label, dims, params) in zip(s.rows, table):
            ok &= _norm(row.layer) == _norm(label)
            ok &= row.output_dims == dims
            ok &= row.params == params
    totals = {
        "pet_1": (436_474_819, 0), "pet_2": (36_833_251, 0),
        "pet_3": (9_019_555, 0), "pet_6": (8_675_155, 128),
        "pet_8": (3_755_795, 128), "mri_1": (337_124_835, 0),
        "mri_3": (3_190_339, 0), "mri_4": (3_100_291, 0),
        "mri_6": (3_115_795, 64), "mri_9": (5_333_411, 384),
    }
    for name, (total, non_trainable) in totals.items():
        s = graph.summarize(load_fixture(name))
        ok &= s.total == total and s.non_trainable == non_trainable
    ok &= (time.time() - t0) < 1.0
    verdict(1, "per-layer golden tables, exact, under 1 s", ok)


def test_criterion_02_metric_golden_values():
    cases = [
        (np.array([[9, 0, 5], [0, 8, 6], [4, 4, 14]]), 0.62, 0.5714, 0.8889),
        (np.array([[8, 1, 5], [0, 7, 7], [4, 4, 14]]), 0.58, 0.5000, 0.8611),
        (np.array([[9, 0, 5], [0, 10, 4], [1, 5, 16]]), 0.70, 0.7142, 0.8611),
    ]
    tol = 0.0001  # 0.01 percentage points
    ok = True
    for cm, acc, sens, spec in cases:
        got_sens, got_spec = E.sensitivity_specificity(cm)
        ok &= abs(E.accuracy(cm) - acc) <= tol
        ok &= abs(got_sens - sens) <= tol
        ok &= abs(got_spec - spec) <= tol
    verdict(2, "confusion-matrix metrics match printed study values", ok)


def test_criterion_03_gradient_suite():
    t0 = time.time()
    ok = True
    for name in ("pet_8_mini", "mri_9_mini", "two_branch_mini"):
        spec, model = build_f64(name)
        x = random_batch(spec, n=1, seed=0)
        y = T.one_hot(np.array([1]), 3)
        checked, _ = fd_gradient_check(model, x, y, h=1e-6, rtol=1e-4)
        ok &= checked == sum(p.values.size for p in model.params())
    ok &= (time.time() - t0) < 120.0
    verdict(3, "whole-model finite-difference gradients, rel err <= 1e-4, < 2 min", ok)


def test_criterion_04_conv_pool_oracles():
    from test_volume_ops import (
        test_correlate_matches_brute_force_many_cases,
        test_maxpool_matches_brute_force_many_cases,
    )

    test_correlate_matches_brute_force_many_cases()
    test_maxpool_matches_brute_force_many_cases()
    verdict(4, "conv/pool exact vs triple-loop brute force, >= 100 cases each", True)


def test_criterion_05_fold_plan_properties():
    labels = np.random.default_rng(0).permutation(np.array([0] * 56 + [1] * 89 + [2] * 54))
    plan = E.repeated_stratified_kfold(labels, k=10, reps=5, seed=3)
    runs = list(plan.runs())
    ok = len(runs) == 50
    for rep in range(5):
        folds = [val for r, _, val in runs if r == rep]
        ok &= sorted(np.concatenate(folds)) == list(range(len(labels)))
        for val in folds:
            for cls, total in ((0, 56), (1, 89), (2, 54)):
                ok &= abs((labels[val] == cls).sum() - total / 10) <= 1.0
    again = E.repeated_stratified_kfold(labels, k=10, reps=5, seed=3)
    ok &= all(np.array_equal(v1, v2) for (_, _, v1), (_, _, v2) in zip(runs, again.runs()))
    verdict(5, "56/89/54 k=10 reps=5: 50 runs, exact partitions, stratified, seeded", ok)


def test_criterion_06_stratified_split():
    labels = np.random.default_rng(1).permutation(np.array([0] * 68 + [1] * 70 + [2] * 111))
    _, test_idx = E.stratified_split(labels, 0.2, seed=2)
    counts = np.bincount(labels[test_idx], minlength=3)
    ok = len(test_idx) == 50 and counts.tolist() == [14, 14, 22]
    verdict(6, "70/111/68 at 20% -> exactly 14/22/14 test samples", ok)


def test_criterion_07_augmentation_properties():
    vol = np.random.default_rng(2).standard_normal((6, 6, 6, 2))
    ok = np.array_equal(A.augment(vol, A.AugmentConfig(), 5), vol)
    fx = vol[::-1]
    ok &= np.array_equal(fx[::-1], vol)
    for axis in range(3):
        others = [a for a in range(3) if a != axis]
        got = A.affine_resample(vol, A.rotation_affine(axis, 90.0))
        ok &= np.array_equal(got, np.rot90(vol, k=1, axes=others))
    shifted = A.affine_resample(vol, A.shift_affine(0, 2, 0), fill=0.0)
    want = np.roll(vol, 2, axis=1)
    want[:, :2] = 0.0
    ok &= np.array_equal(shifted, want)
    verdict(7, "identity bitwise; flips involutive; 90-degree/integer-shift oracles exact", ok)


def test_criterion_08_preprocessing_postconditions():
    vol = np.abs(np.random.default_rng(3).standard_normal((20, 20, 20, 1))) + 0.1
    out = P.imax_normalize(vol)
    top = np.sort(out.reshape(-1))[-int(np.ceil(0.01 * out.size)):]
    ok = abs(top.mean() - 1.0) < 1e-6

    std = P.standardize(vol)
    ok &= abs(std.mean()) < 1e-5 and abs(std.std() - 1.0) < 1e-4

    mm = P.minmax(vol)
    ok &= mm.min() == 0.0 and mm.max() == 1.0

    cl = P.clamp(vol, 0.2, 0.8)
    ok &= np.array_equal(P.clamp(cl, 0.2, 0.8), cl)
    verdict(8, "imax/standardize/minmax/clamp post-conditions", ok)


def test_criterion_09_lr_schedule():
    ok = T.exp_decay_lr(1e-3, 0.5, 0, 40) == 1e-3
    ok &= abs(T.exp_decay_lr(1e-3, 0.5, 40, 40) - 0.5e-3) < 1e-18
    ok &= abs(T.exp_decay_lr(1e-5, 0.1, 25, 50) - 3.1623e-6) < 1e-10
    verdict(9, "exponential decay endpoints and 25/50 value to 1e-10", ok)


def test_criterion_10_end_to_end_desk_scale():
    recs, _ = records.gen_synthetic(40, dims=(16, 16, 16), seed=7)
    vols = np.stack([r.volume("PET") for r in recs])
    labels = np.array([r.label for r in recs])
    spec = load_fixture("pet_8_mini")

    t0 = time.time()
    model = graph.build(spec, seed=1)
    hyper = T.HyperParams(lr0=3e-3, decay_rate=0.9, epochs=30, batch_size=8, seed=1)
    model, curve = T.train(model, (vols, labels), hyper=hyper)
    ok = max(r.train_acc for r in curve.rows) >= 0.90
    ok &= (time.time() - t0) <= 300.0

    plan = E.repeated_stratified_kfold(labels, k=3, reps=2, seed=4)
    fold_hyper = T.HyperParams(lr0=3e-3, decay_rate=0.9, epochs=10, batch_size=8, seed=4)
    report = E.run_rkfold(spec, vols, labels, fold_hyper, plan)
    ok &= not report.any_failed
    ok &= report.mean_accuracy >= 0.70

    study_labels = np.array([0] * 68 + [1] * 70 + [2] * 111)
    majority = np.bincount(study_labels).max() / len(study_labels)
    ok &= majority == 111 / 249
    ok &= round(majority * 100, 2) == 44.58
    verdict(10, "synthetic 3x40: train acc >= 0.90 in 30 epochs; "
                "rkfold mean val acc >= 0.70; majority baseline 44.58%", ok)


def test_criterion_11_transfer_surgery():
    spec = graph.build_resnet18_3d((32, 32, 32, 1))
    base = graph.build(spec, seed=9)

    mri = graph.surgery(base, "mri", seed=1)
    ok = sum(p.values.size for p in mri.params() if p.trainable) == 1539
    ok &= 1539 < 2000
    pet = graph.surgery(base, "pet", seed=1)  # a cut leaves its base as it was
    ok &= sum(p.values.size for p in pet.params() if p.trainable) == 771

    frozen = [p for p in pet.params() if not p.trainable]
    before = [p.values.copy() for p in frozen]
    from voxcnn import layers as L

    bns = [lyr for lyr in pet._walk_layers() if isinstance(lyr, L.BatchNorm)]
    stats = [(bn.moving_mean.copy(), bn.moving_var.copy()) for bn in bns]

    x = np.random.default_rng(5).standard_normal((2, 32, 32, 32, 1)).astype(np.float32)
    y = T.one_hot(np.array([0, 2]), 3)
    adam = T.AdamState(pet.params())
    for step in range(5):
        T.loss_and_grads(pet, x, y, "train", substream(6, "d", step))
        T.adam_step(adam, pet.params(), 1e-3)

    ok &= all(np.array_equal(p.values, v) for p, v in zip(frozen, before))
    ok &= all(
        np.array_equal(bn.moving_mean, mm) and np.array_equal(bn.moving_var, mv)
        for bn, (mm, mv) in zip(bns, stats)
    )
    verdict(11, "surgery trainable counts 1539/771; backbone and BN stats bitwise frozen", ok)


def test_criterion_12_storage(tmp_path):
    rng = np.random.default_rng(6)
    rec = records.PatientRecord(
        "acc-12", 2,
        [("PET", rng.standard_normal((7, 7, 7, 1)).astype(np.float32)),
         ("MRI", rng.standard_normal((9, 9, 9, 1)).astype(np.float32))],
    )
    path = tmp_path / "r.rec"
    records.write_record(rec, path)
    back = records.read_record(path)
    ok = all(
        np.array_equal(va, vb) for (_, va), (_, vb) in zip(rec.volumes, back.volumes)
    )

    raw = bytearray(path.read_bytes())
    header = 4 + 3 + 2 + len("acc-12") + 1 + 1 + 16 + 1
    n_payload = 7 * 7 * 7 * 4
    detected = 0
    trials = 64
    for t in range(trials):
        corrupted = bytearray(raw)
        offset = header + int(rng.integers(0, n_payload))
        corrupted[offset] ^= 1 << int(rng.integers(0, 8))
        bad = tmp_path / "bad.rec"
        bad.write_bytes(bytes(corrupted))
        try:
            records.read_record(bad)
        except ChecksumError:
            detected += 1
    ok &= detected == trials
    verdict(12, "record round-trip bitwise; every single-bit payload flip detected", ok)
