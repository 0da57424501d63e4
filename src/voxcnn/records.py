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
from dataclasses import dataclass, field

import numpy as np
from scipy.ndimage import gaussian_filter

from . import fileio
from .errors import DataError, FormatError, InputError, StorageError, VersionError
from .rng import substream

MAGIC = b"AVR1"
FORMAT_VERSION = 1
MODALITIES = ("PET", "MRI", "OTHER")
_MOD_CODE = {name: i for i, name in enumerate(MODALITIES)}
_DTYPE_F32 = 0


@dataclass
class PatientRecord:
    subject_id: str
    label: int  # 0=CN, 1=AD, 2=MCI
    volumes: list[tuple[str, np.ndarray]]

    def __post_init__(self):
        if not self.subject_id:
            raise InputError("subject_id must be non-empty")
        if not 0 <= self.label <= 2:
            raise InputError("label must be 0 (CN), 1 (AD), or 2 (MCI)")
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
        vol = np.ascontiguousarray(np.asarray(vol, dtype="<f4"))
        payload = vol.tobytes()
        parts.append(struct.pack("<B4IB", _MOD_CODE[modality], *vol.shape, _DTYPE_F32))
        parts += fileio.with_crc(payload)
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


@dataclass
class DatasetManifest:
    files: list[str]
    class_counts: dict[str, int]
    dims: dict[str, list[int]]
    format_version: int = FORMAT_VERSION
    extras: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "format_version": self.format_version,
            "files": self.files,
            "class_counts": self.class_counts,
            "dims": self.dims,
            **({"extras": self.extras} if self.extras else {}),
        }


def write_manifest(manifest: DatasetManifest, path):
    fileio.write_json(path, manifest.to_dict(), indent=1)


def read_manifest(path) -> DatasetManifest:
    d = fileio.read_json(path, FormatError, "manifest")
    if not (isinstance(d, dict) and isinstance(d.get("files"), list)
            and all(k in d for k in ("class_counts", "dims"))):
        raise FormatError(f"{path}: manifest lacks its files, class_counts or dims entries")
    return DatasetManifest(d["files"], d["class_counts"], d["dims"],
                           d.get("format_version", FORMAT_VERSION), d.get("extras", {}))


def read_directory(directory) -> tuple[list[str], list[PatientRecord]]:
    """The ``.rec`` file names of a directory in sorted order, and their records, each read once."""
    try:
        files = sorted(f for f in os.listdir(directory) if f.endswith(".rec"))
    except OSError as exc:
        raise StorageError(f"cannot scan record directory {directory}: {exc}") from exc
    return files, [read_record(os.path.join(directory, f)) for f in files]


def manifest_for(files: list[str], recs: list[PatientRecord]) -> DatasetManifest:
    """The manifest of records ``recs`` stored as ``files``; raises StorageError on mixed dims."""
    counts = {"CN": 0, "AD": 0, "MCI": 0}
    dims: dict[str, list[int]] = {}
    for rec in recs:
        counts[("CN", "AD", "MCI")[rec.label]] += 1
        for modality, vol in rec.volumes:
            d = list(vol.shape)
            if modality in dims and dims[modality] != d:
                raise StorageError(f"inconsistent {modality} dims: {dims[modality]} vs {d}")
            dims[modality] = d
    return DatasetManifest(files, counts, dims)


def build_manifest(directory) -> DatasetManifest:
    """Scan a record directory and rebuild its manifest from disk."""
    return manifest_for(*read_directory(directory))


def load_dataset(directory, modality="PET"):
    """Load all records in a directory as (volumes, labels, subject_ids)."""
    files, recs = read_directory(directory)
    if not recs:
        raise DataError(f"{directory} holds no .rec files")
    manifest_for(files, recs)  # the same dims checks as the manifest's
    return (np.stack([rec.volume(modality) for rec in recs]),
            np.array([rec.label for rec in recs]), [rec.subject_id for rec in recs])


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
    if per_class < 1:
        raise InputError("per_class must be >= 1")
    dims = tuple(int(d) for d in dims)
    if min(dims) < 8:
        raise InputError("dims must be at least 8 per axis")
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
    manifest = DatasetManifest(
        files=[f"{r.subject_id}.rec" for r in records],
        class_counts={"CN": per_class, "AD": per_class, "MCI": per_class},
        dims={"PET": list(dims) + [1], "MRI": list(dims) + [1]},
        extras={"seed": seed, "signal_strength": signal_strength, "noise_sigma": noise_sigma},
    )
    if out_dir is not None:
        fileio.make_dirs(out_dir)
        for rec in records:
            write_record(rec, os.path.join(out_dir, f"{rec.subject_id}.rec"))
        write_manifest(manifest, os.path.join(out_dir, "manifest.json"))
    return records, manifest
