"""Affine augmentation and intensity preprocessing, with their exactness tricks.

Run:  python3 demos/03_augmentation_preprocessing.py

All transforms compose into a single 4x4 homogeneous matrix and one trilinear
resampling pass (scipy.ndimage order 1, grid-constant fill).  Entries of the
inverse matrix and offset within 1e-6 of an integer are snapped to it, which
makes quarter turns and integer shifts bitwise-exact index permutations.
"""

import numpy as np

from voxcnn import augment, preprocess

rng = np.random.default_rng(0)
vol = rng.standard_normal((8, 8, 8, 1))

# A quarter turn is not "approximately" a rotation: it is np.rot90, exactly.
turned = augment.affine_resample(vol, augment.rotation_affine(2, 90.0))
print("90-degree turn == np.rot90:", np.array_equal(turned, np.rot90(vol, axes=(0, 1))))

# Integer shifts are exact rolls with constant fill.
shifted = augment.affine_resample(vol, augment.shift_affine(2, 0, 0), fill=0.0)
rolled = np.roll(vol, 2, axis=0)
rolled[:2] = 0.0
print("integer shift   == roll+fill:", np.array_equal(shifted, rolled))

# The study's own augmentation recipes: tiny rotations and shifts (PET adds
# nothing else; MRI also zooms in [0.95, 1.05]).
pet_cfg = augment.AugmentConfig(max_rotation_deg=0.5, max_shift_frac=0.02)
mri_cfg = augment.AugmentConfig(max_rotation_deg=0.5, zoom_min=0.95,
                                zoom_max=1.05, max_shift_frac=0.02)

x, y, z = np.meshgrid(*(np.linspace(-1, 1, 24),) * 3, indexing="ij")
smooth = np.exp(-(x**2 + y**2 + z**2) * 3)[..., None]
for name, cfg in (("PET", pet_cfg), ("MRI", mri_cfg)):
    out = augment.augment(smooth, cfg, sample_seed=42)
    print(f"{name} recipe: max |out - in| = {np.abs(out - smooth).max():.4f} "
          f"(same seed twice identical: "
          f"{np.array_equal(out, augment.augment(smooth, cfg, 42))})")

# Intensity pipeline: normalize by the mean of the brightest 1% of voxels,
# then clamp.  Chains are plain JSON-able op lists.
bright = np.abs(rng.standard_normal((20, 20, 20, 1))) + 0.1
normed = preprocess.imax_normalize(bright)
top = np.sort(normed.reshape(-1))[-int(np.ceil(0.01 * normed.size)):]
chain = [{"op": "imax_normalize"}, {"op": "clamp", "lo": 0.0, "hi": 1.0}]
out = preprocess.apply_chain(bright, chain)
print(f"after imax: top-1% mean = {top.mean():.6f}; "
      f"after clamp: range [{out.min():.3f}, {out.max():.3f}]")

# Resolution reduction with anti-aliasing pre-blur (the halved study grids).
full = rng.standard_normal((121, 145, 121, 1)).astype(np.float32)
small = preprocess.resize(full, (75, 90, 75))
print("resize (121,145,121) ->", small.shape)
