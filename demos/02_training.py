"""Train a small 3D CNN end to end on synthetic separable volumes.

Run:  python3 demos/02_training.py        (1.5 s on a 2-vCPU guest)

The synthetic generator places a class-specific Gaussian blob on a shared
smooth background, so a desk-scale model can actually learn the task; the
`pet_8_mini` architecture is the eight-conv design shrunk to 16 cubed inputs.
Early stopping picks its epoch on a stratified validation set taken out of
the training split; the test split is read once, for the final figures, so
they are not chosen to look good.
"""

import numpy as np

from voxcnn import evaluate, graph, records, train
from voxcnn.fixtures import load_fixture

# 20 subjects per class, 16x16x16 voxels, fully determined by the seed.
recs, manifest = records.gen_synthetic(per_class=20, dims=(16, 16, 16), seed=7)
vols = np.stack([r.volume("PET") for r in recs])
labels = np.array([r.label for r in recs])
print("dataset:", manifest.class_counts, "dims", manifest.dims["PET"])

train_idx, test_idx = evaluate.stratified_split(labels, test_frac=0.2, seed=1)
# The validation rows come out of the training split, stratified on its labels;
# training reads the training split's other rows.  Subsets are index arrays.
_, val = evaluate.stratified_split(labels[train_idx], test_frac=0.25, seed=2)
print(f"split: {len(train_idx) - len(val)} train / {len(val)} validation / {len(test_idx)} test "
      f"(test classes {np.bincount(labels[test_idx]).tolist()})")

model = graph.build(load_fixture("pet_8_mini"), seed=1)
hyper = train.HyperParams(lr0=3e-3, decay_rate=0.9, epochs=12, seed=1)  # batch 8, the default
model, curve = train.train(
    model,
    (vols[train_idx], labels[train_idx]),
    val,
    hyper,
    early_stopping_patience=4,
)

print()
print("epoch  train_loss  train_acc  val_loss  val_acc")
for r in curve.rows:
    print(f"{r.epoch:>5}  {r.train_loss:>10.4f}  {r.train_acc:>9.3f}"
          f"  {r.val_loss:>8.4f}  {r.val_acc:>7.3f}")

probs = train.predict(model, vols, hyper.batch_size, test_idx)
cm = evaluate.confusion_matrix(labels[test_idx], probs.argmax(axis=1))
sens, spec = evaluate.sensitivity_specificity(cm)
print()
print("test confusion matrix (rows = true CN, AD, MCI):")
print(cm)
print(f"accuracy {evaluate.accuracy(cm):.3f}  "
      f"sensitivity {sens:.3f}  specificity {spec:.3f}")
