"""Intensity and geometry preprocessing applied before training.

Spatial registration and tissue segmentation are out of scope; volumes are
assumed already registered (the synthetic generator produces registered
data).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.ndimage import gaussian_filter1d

from . import fileio
from .errors import DataError, InputError, SpecError, require_int, require_real

TOP_FRACTION = 0.01


def imax_normalize(vol: np.ndarray, top_fraction: float = TOP_FRACTION) -> np.ndarray:
    """Divide by the mean of the top-fraction highest-intensity voxels.

    The reference count is ceil(top_fraction * N) over all channels, taken
    after a full sort of voxel values (deterministic under ties).
    """
    if not 0.0 < top_fraction <= 1.0:
        raise InputError("top_fraction must be in (0, 1]")
    vol = np.asarray(vol)
    n_top = math.ceil(top_fraction * vol.size)
    top = np.sort(vol, axis=None)[-n_top:]
    i_max = float(top.mean(dtype=np.float64))
    if i_max <= 0:
        raise DataError(f"reference intensity must be positive, got {i_max}")
    return (vol / i_max).astype(vol.dtype)


def standardize(vol: np.ndarray) -> np.ndarray:
    """Zero mean, unit population standard deviation."""
    vol = np.asarray(vol)
    mean = vol.mean(dtype=np.float64)
    std = vol.std(dtype=np.float64)
    if std == 0:
        raise DataError("cannot standardize a constant volume")
    return ((vol - mean) / std).astype(vol.dtype)


def minmax(vol: np.ndarray) -> np.ndarray:
    """(X - min) / (max - min); output attains 0 and 1."""
    vol = np.asarray(vol)
    lo = vol.min()
    hi = vol.max()
    if hi == lo:
        raise DataError("cannot min-max normalize a constant volume")
    return ((vol - lo) / (hi - lo)).astype(vol.dtype)


def clamp(vol: np.ndarray, lo: float, hi: float) -> np.ndarray:
    if not lo < hi:
        raise InputError(f"clamp bounds must satisfy lo < hi, got [{lo}, {hi}]")
    return np.clip(vol, lo, hi)


def _linear_resample_axis(arr: np.ndarray, axis: int, target: int) -> np.ndarray:
    n = arr.shape[axis]
    if target == n:
        return arr
    # Pixel-center alignment; edge samples clamp to the boundary values.
    coords = (np.arange(target) + 0.5) * (n / target) - 0.5
    coords = np.clip(coords, 0, n - 1)
    lo = np.floor(coords).astype(np.int64)
    hi = np.minimum(lo + 1, n - 1)
    frac = coords - lo
    a = np.take(arr, lo, axis=axis)
    b = np.take(arr, hi, axis=axis)
    shape = [1] * arr.ndim
    shape[axis] = target
    f = frac.reshape(shape)
    return a * (1.0 - f) + b * f


def resize(vol: np.ndarray, target_dims) -> np.ndarray:
    """Anti-aliased resize to ``target_dims`` (spatial); channels preserved.

    Each axis is Gaussian pre-blurred with sigma = max(0, (in/out - 1) / 2)
    before trilinear sampling onto the target grid.
    """
    vol = np.asarray(vol)
    target = tuple(int(t) for t in target_dims)
    if len(target) != 3 or min(target) < 1:
        raise InputError(f"target dims must be three counts >= 1, got {target_dims}")
    out = vol.astype(np.float64)
    for axis in range(3):
        sigma = max(0.0, (vol.shape[axis] / target[axis] - 1.0) / 2.0)
        if sigma > 0:
            out = gaussian_filter1d(out, sigma, axis=axis, mode="nearest")
    for axis in range(3):
        out = _linear_resample_axis(out, axis, target[axis])
    return out.astype(vol.dtype)


# ---------------------------------------------------------------------------
# Op chains

_OPS = {"imax_normalize", "standardize", "minmax", "clamp", "resize"}
_REQUIRED = {"clamp": ("lo", "hi"), "resize": ("target_dims",)}
_REAL_FIELDS = {"clamp": ("lo", "hi"), "imax_normalize": ("top_fraction",)}


def _check_op(op) -> str:
    """Validate one op object's kind, fields and field types; returns its kind."""
    if not isinstance(op, dict):
        raise SpecError(f"preprocess op must be a JSON object, got {op!r}")
    kind = op.get("op")
    if kind not in _OPS:
        raise SpecError(f"unknown preprocess op {kind!r}")
    for name in _REQUIRED.get(kind, ()):
        if name not in op:
            raise SpecError(f"preprocess op {kind!r} is missing field {name!r}")
    for name in _REAL_FIELDS.get(kind, ()):
        if name in op:
            require_real(f"{kind} {name}", op[name], SpecError)
    if kind == "resize":
        dims = op["target_dims"]
        if not isinstance(dims, (list, tuple)) or len(dims) != 3:
            raise SpecError(f"resize target_dims must be a list of three counts, got {dims!r}")
        for d in dims:
            require_int("resize target_dims", d, SpecError)
    return kind


def apply_op(vol: np.ndarray, op: dict) -> np.ndarray:
    kind = _check_op(op)
    if kind == "imax_normalize":
        return imax_normalize(vol, op.get("top_fraction", TOP_FRACTION))
    if kind == "standardize":
        return standardize(vol)
    if kind == "minmax":
        return minmax(vol)
    if kind == "clamp":
        return clamp(vol, op["lo"], op["hi"])
    return resize(vol, op["target_dims"])


def apply_chain(vol: np.ndarray, ops: list[dict]) -> np.ndarray:
    for op in ops:
        vol = apply_op(vol, op)
    return vol


def load_chain(path) -> list[dict]:
    chain = fileio.read_json(path, SpecError, "preprocess spec")
    if not isinstance(chain, list):
        raise SpecError("preprocess spec must be a list of op objects")
    for op in chain:
        _check_op(op)
    return chain
