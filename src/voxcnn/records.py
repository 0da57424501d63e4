"""One-file-per-patient binary records and a synthetic dataset generator.

File layout (little-endian):

    magic "AVR1" | version u16 | label u8 | id_len u16 | id utf-8 |
    n_volumes u8 | per volume: modality u8, dims 4 x u32, dtype u8,
    payload (row-major, channel fastest), crc32 u32 of payload

Keeping both modalities and the label in a single file means dataset
shuffles can never unpair a patient's images.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np
from scipy.ndimage import gaussian_filter

from . import fileio
from .errors import (DataError, FormatError, InputError, StorageError, VersionError, require_int,
                     require_real)
from .rng import substream

MAGIC = b"AVR1"
FORMAT_VERSION = 1
MODALITIES = ("PET", "MRI", "OTHER")
_MOD_CODE = {name: i for i, name in enumerate(MODALITIES)}
_DTYPE_F32 = 0
CLASS_NAMES = ("CN", "AD", "MCI")  # a record's label indexes this


@dataclass(frozen=True)
class PatientRecord:
    """One patient's label and volumes; frozen, so a record stays as its checks found it."""

    subject_id: str
    label: int  # an index into CLASS_NAMES
    volumes: list[tuple[str, np.ndarray]]

    def __post_init__(self):
        if not isinstance(self.subject_id, str) or not self.subject_id:
            raise InputError(f"subject_id must be a non-empty string, got {self.subject_id!r}")
        if len(self.subject_id.encode("utf-8")) > 0xFFFF:
            raise InputError("subject_id must be at most 65,535 UTF-8 bytes")
        require_int("label", self.label)
        if not 0 <= self.label < len(CLASS_NAMES):
            raise InputError(f"label must be an index into {CLASS_NAMES}")
        if not self.volumes:
            raise InputError("record needs at least one volume")
        mods = [m for m, _ in self.volumes]
        if len(set(mods)) != len(mods):
            raise InputError("modalities within a record must be unique")
        for m, v in self.volumes:
            if m not in _MOD_CODE:
                raise InputError(f"unknown modality {m!r}")
            if np.asarray(v).ndim != 4:
                raise InputError("volumes must be rank-4 (x, y, z, c)")

    def volume(self, modality: str) -> np.ndarray:
        for m, v in self.volumes:
            if m == modality:
                return v
        raise DataError(f"record {self.subject_id!r} has no {modality} volume")


def write_record(record: PatientRecord, path):
    """Serialize a record; the write is atomic (temp file + rename)."""
    parts = [MAGIC, struct.pack("<HB", FORMAT_VERSION, record.label)]
    sid = record.subject_id.encode("utf-8")
    parts.append(struct.pack("<H", len(sid)))
    parts.append(sid)
    parts.append(struct.pack("<B", len(record.volumes)))
    for modality, vol in record.volumes:
        vol = np.ascontiguousarray(vol, dtype="<f4")
        parts.append(struct.pack("<B4IB", _MOD_CODE[modality], *vol.shape, _DTYPE_F32))
        parts += fileio.with_crc(vol)  # the array's own buffer: the join is its one copy
    fileio.write_bytes(path, b"".join(parts))


def read_record(path) -> PatientRecord:
    """Read and fully validate a record (magic, version, dims, CRC)."""
    r = fileio.Reader(fileio.read_bytes(path, StorageError, "record"), path)
    if r.take(4) != MAGIC:
        raise FormatError(f"{path}: bad magic bytes")
    (version, label) = r.unpack("<HB")
    if version != FORMAT_VERSION:
        raise VersionError(f"{path}: unsupported format version {version}")
    (id_len,) = r.unpack("<H")
    subject_id = fileio.decode_text(r.take(id_len), FormatError, f"{path}: subject id")
    (n_volumes,) = r.unpack("<B")
    volumes = []
    for _ in range(n_volumes):
        mod_code, x, y, z, c, dtype = r.unpack("<B4IB")
        if mod_code >= len(MODALITIES):
            raise FormatError(f"{path}: unknown modality code {mod_code}")
        if dtype != _DTYPE_F32:
            raise FormatError(f"{path}: unknown dtype code {dtype}")
        payload = r.take_checked(x * y * z * c * 4, f"{MODALITIES[mod_code]} volume")
        vol = np.frombuffer(payload, dtype="<f4").reshape(x, y, z, c)
        volumes.append((MODALITIES[mod_code], vol.copy()))
    r.expect_end()
    try:
        return PatientRecord(subject_id, label, volumes)
    except InputError as exc:  # a label, id or modality list no writer produces
        raise FormatError(f"{path}: {exc}") from exc


def write_manifest(manifest: dict, path):
    fileio.write_json(path, manifest, indent=1)


def record_files(directory) -> list[str]:
    """The ``.rec`` file names of a directory, in sorted order."""
    try:
        return sorted(f for f in os.listdir(directory) if f.endswith(".rec"))
    except OSError as exc:
        raise StorageError(f"cannot scan record directory {directory}: {exc}") from exc


def manifest_for(entries) -> dict:
    """The manifest document of ``(file name, record)`` pairs, taken one at a time.

    Only each record's label and dims are kept, so ``entries`` may read its
    records as it goes; raises StorageError on mixed dims.
    """
    files, counts, dims = [], dict.fromkeys(CLASS_NAMES, 0), {}
    for fname, rec in entries:
        files.append(fname)
        counts[CLASS_NAMES[rec.label]] += 1
        for modality, d in [(m, list(v.shape)) for m, v in rec.volumes]:
            if dims.setdefault(modality, d) != d:
                raise StorageError(f"inconsistent {modality} dims: {dims[modality]} vs {d} in {fname}")
        del rec  # let go of it before ``entries`` reads the next
    return {"format_version": FORMAT_VERSION, "files": files, "class_counts": counts, "dims": dims}


def load_dataset(directory, modality="PET", ids=None):
    """The records of a directory as ``(volumes, labels, subject_ids)``, in file name order.

    ``volumes`` is a stack of ``modality``, or a tuple of stacks for a tuple of
    names.  ``ids``, when given, keeps only the records of those subject ids,
    and raises ``InputError`` if any is absent.  Each record is copied into its
    rows and let go before the next is read, so loading holds the stacks and
    one record.  Two records of one subject id raise ``DataError``.
    """
    names = (modality,) if isinstance(modality, str) else tuple(modality)
    files = record_files(directory)
    if not files:
        raise DataError(f"{directory} holds no .rec files")
    wanted = None if ids is None else dict.fromkeys(ids)
    if wanted == {}:
        raise InputError("ids names no subject id")
    n = len(files) if wanted is None else len(wanted)
    stacks, labels, kept, file_of = {}, np.empty(n, dtype=int), [], {}
    for f in files:
        rec = read_record(os.path.join(directory, f))
        if rec.subject_id in file_of:
            raise DataError(f"subject id {rec.subject_id!r} is in both {file_of[rec.subject_id]} and {f}")
        file_of[rec.subject_id] = f
        if wanted is None or rec.subject_id in wanted:
            labels[len(kept)] = rec.label
            _store_row(rec, len(kept), names, stacks, n)
            kept.append(rec.subject_id)
        del rec  # let go of it before the next is read
    absent = [] if wanted is None else [sid for sid in wanted if sid not in file_of]
    if absent:
        raise InputError(f"{len(absent)} of the {len(wanted)} ids asked for are not in {directory}: "
                         f"{', '.join(absent[:3])}{', ...' if len(absent) > 3 else ''}")
    volumes = tuple(stacks[name] for name in names)
    return volumes[0] if isinstance(modality, str) else volumes, labels, kept


def _store_row(rec, i, names, stacks, n):
    """Copy ``rec``'s volumes into row ``i`` of ``stacks``, ``n`` rows deep."""
    for name in names:
        vol = rec.volume(name)
        if name not in stacks:
            stacks[name] = np.empty((n,) + vol.shape, np.float32)
        stack = stacks[name]
        if stack.shape[1:] != vol.shape:
            raise StorageError(f"inconsistent {name} dims: {list(stack.shape[1:])} vs {list(vol.shape)}")
        stack[i] = vol


# ---------------------------------------------------------------------------
# Synthetic data

_BLOB_CENTERS = ((0.30, 0.32, 0.30), (0.68, 0.45, 0.40), (0.50, 0.70, 0.68))
_BLOB_AMPLITUDES = (1.0, 1.15, 0.85)


def _class_pattern(dims, cls, signal_strength, center_jitter=(0.0, 0.0, 0.0), amp_scale=1.0):
    grid = np.stack(
        np.meshgrid(*(np.linspace(0, 1, d) for d in dims), indexing="ij"), axis=-1
    )
    center = np.array(_BLOB_CENTERS[cls]) + np.asarray(center_jitter)
    dist2 = ((grid - center) ** 2).sum(axis=-1)
    blob = np.exp(-dist2 / (2 * 0.12**2))
    background = 0.5 * np.exp(-((grid - 0.5) ** 2).sum(axis=-1) / (2 * 0.35**2))
    return background + signal_strength * _BLOB_AMPLITUDES[cls] * amp_scale * blob


def gen_synthetic(per_class: int, dims=(16, 16, 16), signal_strength: float = 1.0,
                  noise_sigma: float = 0.05, seed: int = 0, out_dir=None):
    """Generate paired pseudo-PET/pseudo-MRI records for desk-scale runs.

    Each class has a Gaussian blob pattern at a distinct location and
    amplitude on a smooth shared background; subjects get a small structural
    perturbation (blob jitter, amplitude scale) plus voxel noise.  The
    pseudo-PET is a blurred rendition of the pattern, the pseudo-MRI the
    sharp one.  Deterministic under ``seed``.

    Returns ``(records, manifest)``; when ``out_dir`` is given the records
    and a ``manifest.json`` are written there.
    """
    require_int("per_class", per_class)
    if per_class < 1:
        raise InputError("per_class must be >= 1")
    dims = tuple(int(d) for d in dims)
    if min(dims) < 8:
        raise InputError("dims must be at least 8 per axis")
    require_real("signal_strength", signal_strength)
    require_real("noise_sigma", noise_sigma)
    if noise_sigma < 0:
        raise InputError("noise_sigma must be >= 0")
    records = []
    for cls in range(3):
        for i in range(per_class):
            rng = substream(seed, "synth", cls, i)
            jitter = rng.uniform(-0.04, 0.04, size=3)
            amp = float(rng.uniform(0.9, 1.1))
            pattern = _class_pattern(dims, cls, signal_strength, jitter, amp)
            mri = pattern + noise_sigma * rng.standard_normal(dims)
            pet = gaussian_filter(pattern, sigma=1.5, mode="nearest")
            pet = pet + noise_sigma * rng.standard_normal(dims)
            records.append(
                PatientRecord(
                    subject_id=f"synth-{cls}-{i:03d}",
                    label=cls,
                    volumes=[
                        ("PET", pet.astype(np.float32)[..., None]),
                        ("MRI", mri.astype(np.float32)[..., None]),
                    ],
                )
            )
    manifest = manifest_for((f"{r.subject_id}.rec", r) for r in records)
    manifest["extras"] = {"seed": seed, "signal_strength": signal_strength, "noise_sigma": noise_sigma}
    if out_dir is not None:
        fileio.make_dirs(out_dir)
        for rec in records:
            write_record(rec, os.path.join(out_dir, f"{rec.subject_id}.rec"))
        write_manifest(manifest, os.path.join(out_dir, "manifest.json"))
    return records, manifest
