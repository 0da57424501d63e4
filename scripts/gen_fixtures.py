"""Regenerate the shipped architecture fixture files.

Run from the repository root:  python3 scripts/gen_fixtures.py
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from voxcnn.graph import LayerSpec, ModelSpec, build_resnet18_3d, save_spec, summarize

OUT = os.path.join(os.path.dirname(__file__), "..", "src", "voxcnn", "fixtures")


def conv(f, k, act="relu", l2=0.0):
    return LayerSpec("conv3d", filters=f, k=k, stride=1, padding=0, activation=act, l2=l2)


def pool():
    return LayerSpec("maxpool3d", window=2, stride=2)


def bn(momentum):
    return LayerSpec("batch_norm", momentum=momentum)


def dense(units, act="relu"):
    return LayerSpec("dense", units=units, activation=act)


def drop(rate):
    return LayerSpec("dropout", rate=rate)


PET_INPUT = (79, 95, 68, 1)
MRI_INPUT = (75, 90, 75, 1)

SPECS = {}

SPECS["pet_1"] = ModelSpec("pet_1", PET_INPUT, [
    conv(32, 5), pool(), LayerSpec("flatten"), dense(256), dense(3, "softmax"),
])

SPECS["pet_2"] = ModelSpec("pet_2", PET_INPUT, [
    conv(32, 5), pool(), conv(32, 5), pool(),
    LayerSpec("flatten"), dense(256), dense(3, "softmax"),
])

SPECS["pet_3"] = ModelSpec("pet_3", PET_INPUT, [
    conv(16, 5), pool(), conv(64, 5), pool(), conv(128, 5), pool(),
    LayerSpec("flatten"), dense(256), dense(3, "softmax"),
])

SPECS["pet_6"] = ModelSpec("pet_6", PET_INPUT, [
    conv(16, 3), conv(16, 3), pool(),
    conv(64, 3), conv(64, 3), pool(), bn(0.99),
    conv(128, 3), conv(128, 3), pool(),
    LayerSpec("flatten"), drop(0.1), dense(256), dense(3, "softmax"),
])

SPECS["pet_8"] = ModelSpec("pet_8", PET_INPUT, [
    conv(16, 3, l2=1e-5), conv(16, 3, l2=1e-5), pool(),
    conv(64, 3, l2=1e-5), conv(64, 3, l2=1e-5), conv(64, 3, l2=1e-5), pool(), bn(0.9),
    conv(128, 3, l2=1e-5), conv(128, 3, l2=1e-5), conv(128, 3, l2=1e-5), pool(),
    LayerSpec("flatten"), drop(0.2), dense(256), dense(128), dense(3, "softmax"),
])

SPECS["mri_1"] = ModelSpec("mri_1", MRI_INPUT, [
    conv(32, 5), pool(), LayerSpec("flatten"), dense(200), drop(0.1), dense(3, "softmax"),
])

SPECS["mri_3"] = ModelSpec("mri_3", MRI_INPUT, [
    conv(16, 5), pool(), conv(32, 5), pool(), conv(64, 5), pool(),
    LayerSpec("flatten"), drop(0.2), dense(256), dense(3, "softmax"),
])

SPECS["mri_4"] = ModelSpec("mri_4", MRI_INPUT, [
    conv(16, 5), pool(), conv(32, 5), pool(), conv(64, 3), conv(64, 3), pool(),
    LayerSpec("flatten"), drop(0.25), dense(256), dense(3, "softmax"),
])

SPECS["mri_6"] = ModelSpec("mri_6", MRI_INPUT, [
    conv(16, 3), conv(16, 3), pool(),
    conv(32, 3), conv(32, 3), pool(), bn(0.9),
    conv(64, 3), conv(64, 3), pool(),
    LayerSpec("flatten"), drop(0.2), dense(256), drop(0.1), dense(128), dense(3, "softmax"),
])

SPECS["mri_9"] = ModelSpec("mri_9", (121, 145, 121, 1), [
    conv(32, 3), conv(32, 3), pool(),
    conv(64, 3), conv(64, 3), pool(), bn(0.9),
    conv(128, 3), conv(128, 3), pool(), bn(0.9),
    conv(256, 3), conv(256, 3), conv(256, 3),
    LayerSpec("global_avg_pool3d"), drop(0.2),
    dense(128), drop(0.2), dense(128), dense(3, "softmax"),
])

MINI_INPUT = (16, 16, 16, 1)

SPECS["pet_8_mini"] = ModelSpec("pet_8_mini", MINI_INPUT, [
    conv(4, 3, l2=1e-5), conv(4, 3, l2=1e-5), pool(), bn(0.9),
    conv(8, 3), pool(),
    LayerSpec("flatten"), drop(0.1), dense(16), dense(3, "softmax"),
])

SPECS["mri_9_mini"] = ModelSpec("mri_9_mini", MINI_INPUT, [
    conv(4, 3), conv(4, 3), pool(), bn(0.9),
    conv(8, 3),
    LayerSpec("global_avg_pool3d"), drop(0.2), dense(8), dense(3, "softmax"),
])

SPECS["resnet18_3d"] = build_resnet18_3d((64, 128, 128, 1))

# Two-branch fusion: the deep PET conv branch and the residual MRI branch,
# classifiers removed, concatenated into a softmax head.
_pet_branch = ModelSpec("pet_branch", PET_INPUT, SPECS["pet_8"].layers[:-1])
_mri_branch = ModelSpec(
    "mri_branch", (64, 128, 128, 1), SPECS["resnet18_3d"].layers[:-1]
)
SPECS["two_branch"] = ModelSpec(
    "two_branch", branch_a=_pet_branch, branch_b=_mri_branch,
    head=[dense(3, "softmax")],
)

SPECS["two_branch_mini"] = ModelSpec(
    "two_branch_mini",
    branch_a=ModelSpec("pet_mini_branch", MINI_INPUT, SPECS["pet_8_mini"].layers[:-1]),
    branch_b=ModelSpec("mri_mini_branch", MINI_INPUT, SPECS["mri_9_mini"].layers[:-1]),
    head=[dense(3, "softmax")],
)


def main():
    os.makedirs(OUT, exist_ok=True)
    for name, spec in SPECS.items():
        s = summarize(spec)
        save_spec(spec, os.path.join(OUT, f"{name}.json"))
        print(f"{name:16s} total={s.total:>13,}  trainable={s.trainable:>13,}  "
              f"non-trainable={s.non_trainable}")


if __name__ == "__main__":
    main()
