"""Repeated stratified k-fold evaluation and transfer-learning surgery.

Run:  python3 demos/04_crossvalidation_transfer.py   (3 s on a 2-vCPU guest)

Every (repetition, fold) trains a fresh model from a seed derived from that
run's own substream, so results are reproducible and independent of execution
order (including under --jobs parallelism).
"""

import numpy as np

from voxcnn import evaluate, graph, records, train
from voxcnn.fixtures import load_fixture

recs, _ = records.gen_synthetic(per_class=12, dims=(16, 16, 16), seed=9)
vols = np.stack([r.volume("PET") for r in recs])
labels = np.array([r.label for r in recs])

plan = evaluate.repeated_stratified_kfold(labels, k=3, reps=2, seed=5)
hyper = train.HyperParams(lr0=3e-3, decay_rate=0.9, epochs=8, batch_size=8, seed=5)
report = evaluate.run_rkfold(load_fixture("pet_8_mini"), vols, labels, hyper, plan)

print(f"{plan.reps} repetitions x {plan.k} folds = {len(report.runs)} runs")
for r in report.runs:
    print(f"  rep {r.rep} fold {r.fold}: val accuracy "
          f"{evaluate.accuracy(r.confusion):.3f}")
print(f"mean {report.mean_accuracy:.3f} +- {report.std_accuracy:.3f}")

# ----------------------------------------------------------------------------
# Transfer surgery on a 3D ResNet-18.
#
# "mri" keeps the whole backbone and replaces only the pooled classifier
# (512*3+3 = 1539 trainable weights); "pet" also removes the 512-channel
# stage, classifying from 256 features (771 trainable weights).  Everything
# retained is frozen, which pins its batch-norm layers to inference
# statistics.  A cut leaves its base unchanged, so one base serves both.

base = graph.build(graph.build_resnet18_3d((32, 32, 32, 1)), seed=0)
for recipe in ("mri", "pet"):
    cut = graph.surgery(base, recipe, seed=1)
    total = sum(p.values.size for p in cut.params())
    trainable = sum(p.values.size for p in cut.params() if p.trainable)
    print(f"surgery {recipe!r}: {total:>10,} parameters, {trainable:,} trainable")
