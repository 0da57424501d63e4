"""Random 3D augmentations over a homogeneous-affine resampling primitive.

All transforms act about the geometric volume center and keep the input
shape.  Resampling is ``scipy.ndimage.affine_transform`` at order 1
(trilinear) in ``grid-constant`` mode: samples near the border blend with
the fill value as if the grid continued with constant voxels.  Entries of
the inverse matrix and offset that lie within 1e-6 of an integer are snapped
to it, so 90-degree rotations and integer shifts are exact index operations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .errors import InputError, require_bool, require_known_keys, require_real
from .rng import substream

_SNAP = 1e-6
_NUMERIC_FIELDS = ("max_rotation_deg", "zoom_min", "zoom_max", "max_shift_frac", "fill_value")
_FLAG_FIELDS = ("flip_x", "flip_y", "flip_z")


@dataclass
class AugmentConfig:
    max_rotation_deg: float = 0.0
    zoom_min: float = 1.0
    zoom_max: float = 1.0
    flip_x: bool = False
    flip_y: bool = False
    flip_z: bool = False
    max_shift_frac: float = 0.0
    fill_value: float = 0.0

    def __post_init__(self):
        for name in _NUMERIC_FIELDS:
            require_real(name, getattr(self, name))
        for name in _FLAG_FIELDS:
            require_bool(name, getattr(self, name))
        if self.max_rotation_deg < 0:
            raise InputError("max_rotation_deg must be >= 0")
        if not 0.0 < self.zoom_min <= self.zoom_max:
            raise InputError("zoom bounds must satisfy 0 < min <= max")
        if not 0.0 <= self.max_shift_frac < 1.0:
            raise InputError("max_shift_frac must be in [0, 1)")

    @property
    def is_identity(self) -> bool:
        return (
            self.max_rotation_deg == 0.0
            and self.zoom_min == self.zoom_max == 1.0
            and not (self.flip_x or self.flip_y or self.flip_z)
            and self.max_shift_frac == 0.0
        )

    @classmethod
    def from_dict(cls, d: dict) -> "AugmentConfig":
        if not isinstance(d, dict):
            raise InputError(f"augmentation config must be a JSON object, got {type(d).__name__}")
        require_known_keys("augmentation setting", d, cls.__dataclass_fields__)
        return cls(**d)


def identity_affine() -> np.ndarray:
    return np.eye(4)


def rotation_affine(axis: int, angle_deg: float) -> np.ndarray:
    """Rotation in the coordinate plane perpendicular to ``axis`` (0=x,1=y,2=z)."""
    a, b = [i for i in range(3) if i != axis]
    th = math.radians(angle_deg)
    m = np.eye(4)
    m[a, a] = math.cos(th)
    m[a, b] = -math.sin(th)
    m[b, a] = math.sin(th)
    m[b, b] = math.cos(th)
    return m


def zoom_affine(zx: float, zy: float, zz: float) -> np.ndarray:
    return np.diag([zx, zy, zz, 1.0])


def shift_affine(sx: float, sy: float, sz: float) -> np.ndarray:
    m = np.eye(4)
    m[:3, 3] = (sx, sy, sz)
    return m


def _snap(a: np.ndarray) -> np.ndarray:
    nearest = np.round(a)
    return np.where(np.abs(a - nearest) < _SNAP, nearest, a)


def affine_resample(vol: np.ndarray, matrix: np.ndarray, fill: float = 0.0) -> np.ndarray:
    """Resample a volume under a homogeneous affine map.

    ``matrix`` maps centered source coordinates to centered output
    coordinates; each output voxel is sampled at the inverse-mapped source
    position with trilinear interpolation.  A sample less than one voxel
    outside the grid blends the edge voxels with ``fill``; farther out it is
    ``fill``.  Channels are transformed identically; the output has the
    input's shape and dtype.
    """
    vol = np.asarray(vol)
    matrix = np.asarray(matrix, dtype=np.float64)
    if vol.ndim != 4:
        raise InputError(f"volume must be 4-D (x, y, z, channels), got shape {vol.shape}")
    if matrix.shape != (4, 4):
        raise InputError(f"affine matrix must be 4x4, got {matrix.shape}")
    if not np.all(np.isfinite(matrix)):
        raise InputError("affine matrix has non-finite entries")
    if not math.isfinite(fill):
        raise InputError(f"fill must be finite, got {fill}")
    if abs(np.linalg.det(matrix)) < 1e-12:
        raise InputError("affine matrix is singular")
    inv = np.linalg.inv(matrix)

    center = (np.array(vol.shape[:3], dtype=np.float64) - 1.0) / 2.0
    a = _snap(inv[:3, :3])
    offset = _snap(center - a @ center + inv[:3, 3])

    # ndimage has no float16 kernels; such volumes resample through float32.
    work = vol.astype(np.float32) if vol.dtype == np.float16 else vol
    out = np.empty_like(work)
    for ch in range(vol.shape[3]):
        ndimage.affine_transform(work[..., ch], a, offset=offset, output=out[..., ch], order=1,
                                 mode="grid-constant", cval=fill, prefilter=False)
    return out.astype(vol.dtype, copy=False)


def _draw_rotation(rng, max_deg: float):
    axis = int(rng.integers(0, 3))
    angle = float(rng.uniform(-max_deg, max_deg))
    return axis, angle


def _draw_shift(rng, max_frac: float, shape) -> list[float]:
    """A uniform shift along one random axis, bounded by ``max_frac`` of its extent."""
    axis = int(rng.integers(0, 3))
    limit = max_frac * shape[axis]
    shift = [0.0, 0.0, 0.0]
    shift[axis] = float(rng.uniform(-limit, limit))
    return shift


def random_flip(vol, axes, rng) -> np.ndarray:
    """Reverse each enabled axis with probability 1/2 (pure index operation)."""
    out = vol
    for axis, enabled in enumerate(axes):
        if enabled and rng.random() < 0.5:
            out = np.flip(out, axis=axis)
    return np.ascontiguousarray(out) if out is not vol else vol


def augment(vol: np.ndarray, config: AugmentConfig, sample_seed: int) -> np.ndarray:
    """Apply flip, rotation, zoom, shift (fixed order) with per-sample draws.

    Rotation, zoom, and shift compose into a single affine so the volume is
    resampled at most once.  An identity config returns the input bitwise.
    """
    if config.is_identity:
        return vol
    rng = substream(sample_seed, "augment-draws")
    out = random_flip(vol, (config.flip_x, config.flip_y, config.flip_z), rng)

    m = identity_affine()
    resample = False
    if config.max_rotation_deg > 0:
        axis, angle = _draw_rotation(rng, config.max_rotation_deg)
        m = rotation_affine(axis, angle) @ m
        resample = True
    if not (config.zoom_min == config.zoom_max == 1.0):
        z = float(rng.uniform(config.zoom_min, config.zoom_max))
        m = zoom_affine(z, z, z) @ m
        resample = True
    if config.max_shift_frac > 0:
        m = shift_affine(*_draw_shift(rng, config.max_shift_frac, vol.shape)) @ m
        resample = True
    if resample:
        out = affine_resample(out, m, config.fill_value)
    return out
