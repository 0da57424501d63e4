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
from .layers import ParamTensor
from .errors import FormatError, ShapeError, SpecError, StorageError, VersionError

MAGIC = b"AVC1"
VERSION = 2
_HEADER_KEYS = ("spec", "params", "bn")


def save_checkpoint(model, path):
    bns = graph.bn_layers(model)
    arrays = [(p.name, p.role, p.values, {"trainable": bool(p.trainable), "l2": p.l2})
              for p in model.params()]
    arrays += [(f"bn{i}.moving_{tag}", "bn_state", values, {"trainable": False})
               for i, bn in enumerate(bns)
               for tag, values in (("mean", bn.moving_mean), ("var", bn.moving_var))]
    entries = [{"name": name, "role": role, "shape": list(values.shape), "dtype": str(values.dtype),
                **flags} for name, role, values, flags in arrays]
    header = json.dumps({"spec": model.spec.to_dict(), "params": entries,
                         "bn": [{"pinned": bn.pinned} for bn in bns]}).encode("utf-8")
    parts = [MAGIC, struct.pack("<HI", VERSION, len(header))]
    for payload in [header] + [np.ascontiguousarray(values) for _, _, values, _ in arrays]:
        parts += fileio.with_crc(payload)  # an array's own buffer: the join is its one copy
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
        flags_ok = (isinstance(entry["name"], str) and isinstance(entry["role"], str)
                    and isinstance(entry["trainable"], bool)
                    and isinstance(entry.get("l2", 0.0), (int, float)))
    except (KeyError, TypeError) as exc:
        raise FormatError(f"{path}: malformed parameter entry: {exc}") from exc
    if not (flags_ok and dtype.kind == "f" and all(isinstance(d, int) and d >= 0 for d in shape)):
        raise FormatError(f"{path}: malformed parameter entry {entry.get('name')!r}")
    return shape, dtype, math.prod(shape) * dtype.itemsize


def load_checkpoint(path):
    """Rebuild a model from a checkpoint's own entries; nothing is drawn at random.

    Names, values, trainable flags, L2 weights and BN state come from the
    file, in the spec's layout order.  A short file raises
    :class:`TruncationError`; a foreign, malformed or over-long one, or one
    whose entries do not fit its spec, :class:`FormatError`; a damaged
    header or payload :class:`ChecksumError`.
    """
    r = fileio.Reader(fileio.read_bytes(path, StorageError, "checkpoint"), path)
    if r.take(4) != MAGIC:
        raise FormatError(f"{path}: bad magic bytes")
    version, header_len = r.unpack("<HI")
    if version != VERSION:
        raise VersionError(f"{path}: unsupported checkpoint version {version}")
    header = _parse_header(r.take_checked(header_len, "the header"), path)

    loaded = []
    for entry in header["params"]:
        shape, dtype, nbytes = _entry_layout(entry, path)
        payload = r.take_checked(nbytes, repr(entry["name"]))
        loaded.append((entry, np.frombuffer(payload, dtype=dtype).reshape(shape).copy()))
    r.expect_end()

    # the parameters come first, in Model.params() order, then the moving statistics
    n_params = sum(entry["role"] != "bn_state" for entry, _ in loaded)
    params, stats = iter(loaded[:n_params]), iter(loaded[n_params:])

    def take(name, slot):
        entry, values = next(stats if slot.role == "bn_state" else params, (None, None))
        if entry is None or entry["role"] != slot.role or values.shape != slot.shape:
            raise FormatError(f"{path}: no entry fits {name} ({slot.role}, shape {list(slot.shape)})")
        if slot.role == "bn_state":
            return values
        return ParamTensor(entry["name"], slot.role, values, entry["trainable"], entry.get("l2", 0.0))

    try:
        model = graph.assemble(graph.spec_from_dict(header["spec"]), take)
    except (SpecError, ShapeError) as exc:
        raise FormatError(f"{path}: bad model spec: {exc}") from exc
    if next(params, None) is not None or next(stats, None) is not None:
        raise FormatError(f"{path}: parameter count does not match spec")

    bn_layers = graph.bn_layers(model)
    if not (len(header["bn"]) == len(bn_layers)
            and all(isinstance(b, dict) and isinstance(b.get("pinned"), bool) for b in header["bn"])):
        raise FormatError(f"{path}: batch-norm entries do not match the model's "
                          f"{len(bn_layers)} batch-norm layers")
    for bn, b in zip(bn_layers, header["bn"]):
        bn.pinned = b["pinned"]
    return model
