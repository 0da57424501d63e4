"""Model checkpoints: spec + parameter manifest + CRC-checked payloads.

Layout (little-endian): magic "AVC1" | version u16 | header_len u32 |
header JSON | crc32 u32 of the header | per parameter: payload bytes,
crc32 u32.  The header carries the model spec, and for each parameter its
name, shape, dtype, trainable flag, and batch-norm pinning/moving
statistics.  Loading raises a :class:`StorageError` subclass for every
malformed file.
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np

from . import fileio, graph
from .errors import FormatError, ShapeError, SpecError, StorageError, VersionError

MAGIC = b"AVC1"
VERSION = 2
_HEADER_KEYS = ("spec", "params", "bn")


def save_checkpoint(model, path):
    params = model.params()
    entries = []
    payloads = []
    for p in params:
        arr = np.ascontiguousarray(p.values)
        entries.append(
            {
                "name": p.name,
                "role": p.role,
                "shape": list(arr.shape),
                "dtype": str(arr.dtype),
                "trainable": bool(p.trainable),
                "l2": p.l2,
            }
        )
        payloads.append(arr.tobytes())
    bn_state = []
    for i, bn in enumerate(graph.bn_layers(model)):
        for tag, arr in (("mean", bn.moving_mean), ("var", bn.moving_var)):
            arr = np.ascontiguousarray(arr)
            entries.append(
                {
                    "name": f"bn{i}.moving_{tag}",
                    "role": "bn_state",
                    "shape": list(arr.shape),
                    "dtype": str(arr.dtype),
                    "trainable": False,
                }
            )
            payloads.append(arr.tobytes())
        bn_state.append({"pinned": bn.pinned})

    header = json.dumps(
        {"spec": model.spec.to_dict(), "params": entries, "bn": bn_state}
    ).encode("utf-8")
    parts = [MAGIC, struct.pack("<HI", VERSION, len(header))]
    for payload in [header] + payloads:
        parts += fileio.with_crc(payload)
    fileio.write_bytes(path, b"".join(parts))


def _parse_header(raw: bytes, path) -> dict:
    header = fileio.decode_json(raw, FormatError, f"{path}: header")
    if not (isinstance(header, dict) and all(k in header for k in _HEADER_KEYS)
            and isinstance(header["params"], list) and isinstance(header["bn"], list)):
        raise FormatError(f"{path}: header lacks its spec, params or bn entries")
    return header


def _entry_layout(entry, path):
    """(shape, dtype, payload bytes) of one header entry."""
    try:
        shape = tuple(entry["shape"])
        dtype = np.dtype(entry["dtype"])
        flags_ok = isinstance(entry["trainable"], bool) and isinstance(entry.get("l2", 0.0), (int, float))
    except (KeyError, TypeError) as exc:
        raise FormatError(f"{path}: malformed parameter entry: {exc}") from exc
    if not (flags_ok and dtype.kind == "f" and all(isinstance(d, int) and d >= 0 for d in shape)):
        raise FormatError(f"{path}: malformed parameter entry {entry.get('name')!r}")
    return shape, dtype, math.prod(shape) * dtype.itemsize


def load_checkpoint(path):
    """Rebuild a model from a checkpoint, restoring flags and BN state.

    A short file raises :class:`TruncationError`; a foreign, malformed or
    over-long one :class:`FormatError`; a damaged header or payload
    :class:`ChecksumError`.
    """
    r = fileio.Reader(fileio.read_bytes(path, StorageError, "checkpoint"), path)
    if r.take(4) != MAGIC:
        raise FormatError(f"{path}: bad magic bytes")
    version, header_len = r.unpack("<HI")
    if version != VERSION:
        raise VersionError(f"{path}: unsupported checkpoint version {version}")
    header = _parse_header(r.take_checked(header_len, "the header"), path)

    try:
        model = graph.build(graph.spec_from_dict(header["spec"]), seed=0)
    except (SpecError, ShapeError) as exc:
        raise FormatError(f"{path}: bad model spec: {exc}") from exc

    arrays = []
    for entry in header["params"]:
        shape, dtype, nbytes = _entry_layout(entry, path)
        payload = r.take_checked(nbytes, repr(entry.get("name")))
        arrays.append(np.frombuffer(payload, dtype=dtype).reshape(shape).copy())
    r.expect_end()

    params = model.params()
    n_params = len(params)
    if len([e for e in header["params"] if e.get("role") != "bn_state"]) != n_params:
        raise FormatError(f"{path}: parameter count does not match spec")
    for p, entry, arr in zip(params, header["params"][:n_params], arrays[:n_params]):
        if p.values.shape != arr.shape:
            raise FormatError(f"{path}: shape mismatch for {entry.get('name')!r}")
        p.values = arr
        p.trainable = entry["trainable"]
        p.l2 = entry.get("l2", 0.0)

    bn_layers = graph.bn_layers(model)
    state_arrays = arrays[n_params:]
    stat_shapes = [bn.moving_mean.shape for bn in bn_layers for _ in ("mean", "var")]
    if not ([a.shape for a in state_arrays] == stat_shapes and len(header["bn"]) == len(bn_layers)
            and all(isinstance(b, dict) and isinstance(b.get("pinned"), bool) for b in header["bn"])):
        raise FormatError(f"{path}: batch-norm entries do not match the model's "
                          f"{len(bn_layers)} batch-norm layers")
    for i, bn in enumerate(bn_layers):
        bn.moving_mean = state_arrays[2 * i]
        bn.moving_var = state_arrays[2 * i + 1]
        bn.pinned = header["bn"][i]["pinned"]
    return model
