"""Affine augmentation: exact oracles, invariants, and draw distributions."""

import numpy as np
import pytest
from scipy import stats

from voxcnn import augment as A
from voxcnn.errors import InputError
from voxcnn.rng import substream


def random_volume(dims=(7, 7, 7, 2), seed=0):
    return np.random.default_rng(seed).standard_normal(dims)


def reference_resample(vol, matrix, fill=0.0):
    """Explicit 8-corner trilinear gather with float64 accumulation.

    Test-only oracle for ``affine_resample``: out-of-bounds corners take
    ``fill`` with their interpolation weight, and coordinates within 1e-6 of
    a grid point are snapped to it.
    """
    inv = np.linalg.inv(np.asarray(matrix, dtype=np.float64))
    nx, ny, nz, _ = vol.shape
    center = (np.array([nx, ny, nz], dtype=np.float64) - 1.0) / 2.0
    gx, gy, gz = np.meshgrid(
        np.arange(nx, dtype=np.float64) - center[0],
        np.arange(ny, dtype=np.float64) - center[1],
        np.arange(nz, dtype=np.float64) - center[2],
        indexing="ij",
    )
    coords = np.stack([gx, gy, gz], axis=-1) @ inv[:3, :3].T + inv[:3, 3] + center
    snapped = np.round(coords)
    coords = np.where(np.abs(coords - snapped) < 1e-6, snapped, coords)
    lo = np.floor(coords).astype(np.int64)
    frac = coords - lo
    acc = np.zeros(vol.shape, dtype=np.float64)
    weight_inb = np.zeros(vol.shape[:3], dtype=np.float64)
    dims = np.array([nx, ny, nz])
    for corner in range(8):
        off = np.array([(corner >> 2) & 1, (corner >> 1) & 1, corner & 1])
        idx = lo + off
        w = np.prod(np.where(off == 1, frac, 1.0 - frac), axis=-1)
        inb = np.all((idx >= 0) & (idx < dims), axis=-1)
        idx_c = np.clip(idx, 0, dims - 1)
        w_eff = np.where(inb, w, 0.0)
        acc += w_eff[..., None] * vol[idx_c[..., 0], idx_c[..., 1], idx_c[..., 2], :]
        weight_inb += w_eff
    acc += (1.0 - weight_inb)[..., None] * fill
    return acc.astype(vol.dtype)


# ---------------------------------------------------------------------------
# Identity and determinism


def test_identity_config_is_bitwise_noop():
    vol = random_volume()
    cfg = A.AugmentConfig()
    out = A.augment(vol, cfg, sample_seed=123)
    assert out is not vol or np.array_equal(out, vol)
    assert np.array_equal(out, vol)


def test_identity_matrix_resample_is_bitwise_noop():
    vol = random_volume()
    assert np.array_equal(A.affine_resample(vol, A.identity_affine()), vol)


def test_augment_is_deterministic_in_seed():
    vol = random_volume()
    cfg = A.AugmentConfig(max_rotation_deg=10, zoom_min=0.9, zoom_max=1.1,
                          flip_x=True, max_shift_frac=0.1)
    a = A.augment(vol, cfg, sample_seed=99)
    b = A.augment(vol, cfg, sample_seed=99)
    c = A.augment(vol, cfg, sample_seed=100)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, vol)


# ---------------------------------------------------------------------------
# Flips


def test_flip_matches_index_reversal_oracle():
    vol = random_volume()
    rng = substream(0, "flip")
    # Force a flip by drawing until the x-axis flip fires.
    out = None
    for _ in range(64):
        cand = A.random_flip(vol, (True, False, False), rng)
        if not np.array_equal(cand, vol):
            out = cand
            break
    assert out is not None
    assert np.array_equal(out, vol[::-1, :, :, :])


def test_flips_are_involutions_and_commute():
    vol = random_volume()
    fx = vol[::-1, :, :, :]
    assert np.array_equal(fx[::-1, :, :, :], vol)
    fxy = vol[::-1, ::-1, :, :]
    assert np.array_equal(fxy, vol[:, ::-1, :, :][::-1, :, :, :])


def test_disabled_axes_never_flip():
    vol = random_volume()
    rng = substream(1, "flip")
    for _ in range(16):
        assert np.array_equal(A.random_flip(vol, (False, False, False), rng), vol)


# ---------------------------------------------------------------------------
# Rotations


@pytest.mark.parametrize("axis", [0, 1, 2])
def test_quarter_turn_matches_rot90_exactly(axis):
    vol = random_volume((6, 6, 6, 3), seed=axis)
    others = [a for a in range(3) if a != axis]
    out = A.affine_resample(vol, A.rotation_affine(axis, 90.0))
    assert np.array_equal(out, np.rot90(vol, k=1, axes=others))
    out180 = A.affine_resample(vol, A.rotation_affine(axis, 180.0))
    assert np.array_equal(out180, np.rot90(vol, k=2, axes=others))
    out270 = A.affine_resample(vol, A.rotation_affine(axis, 270.0))
    assert np.array_equal(out270, np.rot90(vol, k=3, axes=others))


def test_four_quarter_turns_restore_input():
    vol = random_volume((5, 5, 5, 1), seed=9)
    m = A.rotation_affine(2, 90.0)
    out = vol
    for _ in range(4):
        out = A.affine_resample(out, m)
    assert np.array_equal(out, vol)


def test_small_rotation_perturbs_smooth_volume_slightly():
    x, y, z = np.meshgrid(*(np.linspace(-1, 1, 16),) * 3, indexing="ij")
    vol = np.exp(-(x**2 + y**2 + z**2))[..., None]
    out = A.affine_resample(vol, A.rotation_affine(1, 0.5))
    assert not np.array_equal(out, vol)
    assert np.abs(out - vol).max() < 0.05


def test_rotation_angle_distribution_is_uniform():
    """>= 1e5 draws; Kolmogorov-Smirnov against U(-max, max) at the 1% level."""
    max_deg = 7.5
    rng = substream(3, "angles")
    angles = np.array([A._draw_rotation(rng, max_deg)[1] for _ in range(100_000)])
    assert np.all(np.abs(angles) <= max_deg)
    _, pvalue = stats.kstest(angles, stats.uniform(loc=-max_deg, scale=2 * max_deg).cdf)
    assert pvalue > 0.01


# ---------------------------------------------------------------------------
# Shifts and zoom


@pytest.mark.parametrize("shift", [(2, 0, 0), (0, -1, 0), (0, 0, 3), (1, -2, 1)])
def test_integer_shift_matches_roll_with_fill(shift):
    vol = random_volume((6, 7, 8, 2), seed=4)
    fill = -0.5
    out = A.affine_resample(vol, A.shift_affine(*shift), fill=fill)
    want = np.roll(vol, shift, axis=(0, 1, 2))
    for ax, s in enumerate(shift):
        sl = [slice(None)] * 4
        if s > 0:
            sl[ax] = slice(0, s)
        elif s < 0:
            sl[ax] = slice(s, None)
        else:
            continue
        want[tuple(sl)] = fill
    assert np.array_equal(out, want)


def test_zero_shift_is_identity():
    vol = random_volume()
    assert np.array_equal(A.augment(vol, A.AugmentConfig(max_shift_frac=0.0), 5), vol)


def test_shift_stays_within_configured_bound():
    vol = np.zeros((16, 16, 16, 1))
    vol[8, 8, 8, 0] = 1.0
    shift_only = A.AugmentConfig(max_shift_frac=0.125)  # at most 2 voxels on one axis
    moved = 0
    for seed in range(32):
        out = A.augment(vol, shift_only, seed)
        moved += not np.array_equal(out, vol)
        peak = np.unravel_index(np.argmax(out), out.shape)
        assert max(abs(p - 8) for p in peak[:3]) <= 2
    assert moved  # the draws do shift


def test_zoom_halves_ball_diameter():
    """Shrinking by 0.5 halves the measured support diameter of a ball."""
    n = 32
    x, y, z = np.meshgrid(*(np.arange(n) - (n - 1) / 2,) * 3, indexing="ij")
    ball = ((x**2 + y**2 + z**2) <= 10**2).astype(np.float64)[..., None]
    out = A.affine_resample(ball, A.zoom_affine(0.5, 0.5, 0.5))
    profile = out[:, n // 2, n // 2, 0]
    diameter = (profile > 0.5).sum()
    assert abs(diameter - 10) <= 1  # 20-voxel ball diameter halves to ~10


def test_zoom_draw_within_bounds():
    """Zoom-only configs keep a ball's support diameter inside the factor range."""
    n = 32
    x, y, z = np.meshgrid(*(np.arange(n) - (n - 1) / 2,) * 3, indexing="ij")
    ball = ((x**2 + y**2 + z**2) <= 10**2).astype(np.float64)[..., None]
    cfg = A.AugmentConfig(zoom_min=0.95, zoom_max=1.05)
    for seed in range(16):
        out = A.augment(ball, cfg, sample_seed=seed)
        diameter = (out[:, n // 2, n // 2, 0] > 0.5).sum()
        assert 0.95 * 20 - 1.5 <= diameter <= 1.05 * 20 + 1.5


# ---------------------------------------------------------------------------
# Global invariants


def test_intensity_range_is_non_expanding():
    vol = random_volume((9, 9, 9, 1), seed=8)
    fill = 0.0
    cfg = A.AugmentConfig(max_rotation_deg=30, zoom_min=0.8, zoom_max=1.2,
                          max_shift_frac=0.2, fill_value=fill)
    lo = min(vol.min(), fill)
    hi = max(vol.max(), fill)
    for seed in range(20):
        out = A.augment(vol, cfg, sample_seed=seed)
        assert out.min() >= lo - 1e-12
        assert out.max() <= hi + 1e-12


def test_augment_order_is_one_resample():
    """Rotation + shift compose into one matrix: no double interpolation.

    A quarter turn followed by an integer shift must therefore stay exact."""
    vol = random_volume((6, 6, 6, 1), seed=10)
    m = A.shift_affine(1, 0, 0) @ A.rotation_affine(2, 90.0)
    out = A.affine_resample(vol, m, fill=0.0)
    want = np.roll(np.rot90(vol, k=1, axes=(0, 1)), (1, 0, 0), axis=(0, 1, 2))
    want[:1] = 0.0
    assert np.array_equal(out, want)


ORACLE_MATRICES = {
    "rot_x": A.rotation_affine(0, 17.0),
    "rot_y": A.rotation_affine(1, -23.5),
    "rot_z": A.rotation_affine(2, 41.0),
    "zoom": A.zoom_affine(0.83, 0.83, 0.83),
    "zoom_aniso": A.zoom_affine(1.2, 0.9, 1.05),
    "frac_shift": A.shift_affine(0.3, -1.7, 2.25),
    "rot_zoom_shift": A.shift_affine(-0.6, 0.4, 1.3) @ A.zoom_affine(1.1, 1.1, 1.1)
    @ A.rotation_affine(1, 12.0),
    "two_rotations": A.rotation_affine(0, 8.0) @ A.rotation_affine(2, -31.0),
}


@pytest.mark.parametrize("name", sorted(ORACLE_MATRICES))
@pytest.mark.parametrize("fill", [0.0, -0.5])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("channels", [1, 3])
def test_resample_matches_corner_gather_oracle(name, fill, dtype, channels):
    vol = random_volume((7, 9, 6, channels), seed=channels).astype(dtype)
    before = vol.copy()
    out = A.affine_resample(vol, ORACLE_MATRICES[name], fill=fill)
    assert out.dtype == vol.dtype and out.shape == vol.shape
    assert np.array_equal(vol, before)
    np.testing.assert_allclose(out, reference_resample(vol, ORACLE_MATRICES[name], fill),
                               rtol=0, atol=1e-5)


def test_float16_volume_keeps_its_dtype():
    vol = random_volume((7, 9, 6, 2), seed=13).astype(np.float16)
    m = ORACLE_MATRICES["rot_zoom_shift"]
    out = A.affine_resample(vol, m, fill=-0.5)
    assert out.dtype == np.float16 and out.shape == vol.shape
    np.testing.assert_allclose(out.astype(np.float64),
                               reference_resample(vol, m, -0.5).astype(np.float64),
                               rtol=0, atol=4e-3)


def test_half_voxel_shift_blends_fill_into_edge_slab():
    """Samples half a voxel outside the grid blend the edge voxel with the fill."""
    vol = random_volume((6, 5, 4, 2), seed=12)
    fill = -0.5
    out = A.affine_resample(vol, A.shift_affine(0.5, 0, 0), fill=fill)
    np.testing.assert_allclose(out[0], 0.5 * vol[0] + 0.5 * fill, rtol=0, atol=1e-12)
    np.testing.assert_allclose(out[1:], 0.5 * vol[:-1] + 0.5 * vol[1:], rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# Typed errors


def test_resample_rejects_volume_that_is_not_4d():
    with pytest.raises(InputError, match="4-D"):
        A.affine_resample(np.zeros((6, 6, 6)), A.identity_affine())


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_resample_rejects_non_finite_matrix(bad):
    m = A.rotation_affine(2, 10.0)
    m[0, 1] = bad
    with pytest.raises(InputError, match="non-finite"):
        A.affine_resample(random_volume(), m)


def test_resample_rejects_non_finite_fill():
    with pytest.raises(InputError, match="fill"):
        A.affine_resample(random_volume(), A.rotation_affine(2, 10.0), fill=np.nan)


@pytest.mark.parametrize("field", ["max_rotation_deg", "zoom_min", "zoom_max",
                                   "max_shift_frac", "fill_value"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, "10", None, True])
def test_config_rejects_non_numeric_and_non_finite(field, value):
    with pytest.raises(InputError, match=field):
        A.AugmentConfig(**{field: value})
    with pytest.raises(InputError, match=field):
        A.AugmentConfig.from_dict({field: value})


@pytest.mark.parametrize("field", ["flip_x", "flip_y", "flip_z"])
@pytest.mark.parametrize("value", ["no", "false", 1, 0, None, 1.0])
def test_config_rejects_non_boolean_flip_flags(field, value):
    with pytest.raises(InputError, match=field):
        A.AugmentConfig(**{field: value})
    with pytest.raises(InputError, match=field):
        A.AugmentConfig.from_dict({field: value})


def test_config_from_dict_requires_an_object():
    with pytest.raises(InputError):
        A.AugmentConfig.from_dict([10.0])


def test_config_validation():
    with pytest.raises(InputError):
        A.AugmentConfig(max_rotation_deg=-1)
    with pytest.raises(InputError):
        A.AugmentConfig(zoom_min=1.2, zoom_max=0.9)
    with pytest.raises(InputError):
        A.AugmentConfig(max_shift_frac=1.0)
