"""Model checkpoints: spec + dtype + trainable flags + CRC-checked payloads.

Layout (little-endian): magic "AVC1" | version u16 | header_len u32 |
header JSON | crc32 u32 of the header | per array: payload bytes, crc32 u32.
The header is exactly ``{"spec", "dtype", "trainable"}``: the model spec, the
one float dtype of every array, and one flag per parameter.  The payloads
follow in the spec's slot order (``graph.arrays``), so each array's name,
role, shape and L2 weight come from the spec, and a batch norm is pinned
when its gamma and beta are frozen.  The spec holds the fields its layer
kinds read (``graph._FIELDS``); a header that sets another field at its
default, such as a max pool's ``"padding": 0``, still loads, and a re-save
leaves it out.  Format 2, whose header repeated those
facts, raises :class:`VersionError`.  Loading raises a :class:`StorageError`
subclass for every malformed file.
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np

from . import fileio, graph
from .layers import ParamTensor
from .errors import FormatError, SpecError, StorageError, VersionError, require_float_dtype

MAGIC = b"AVC1"
VERSION = 3
_HEADER_KEYS = {"spec", "dtype", "trainable"}


def save_checkpoint(model, path):
    arrays = [getattr(holder, attr) for holder, attr, _ in graph.arrays(model)]
    dtypes = {a.dtype.name for a in arrays} or {"float32"}
    if len(dtypes) > 1:
        raise SpecError(f"a checkpoint holds arrays of one dtype, the model has {sorted(dtypes)}")
    header = json.dumps({"spec": model.spec.to_dict(), "dtype": dtypes.pop(),
                         "trainable": [bool(p.trainable) for p in model.params()]}).encode("utf-8")
    parts = [MAGIC, struct.pack("<HI", VERSION, len(header))]
    for payload in [header] + [np.ascontiguousarray(a) for a in arrays]:
        parts += fileio.with_crc(payload)  # an array's own buffer: the join is its one copy
    fileio.write_bytes(path, b"".join(parts))


def _parse_header(raw: bytes, path):
    """The spec, dtype and trainable flags of a header."""
    header = fileio.decode_json(raw, FormatError, f"{path}: header")
    if not (isinstance(header, dict) and header.keys() == _HEADER_KEYS
            and isinstance(header["dtype"], str) and isinstance(header["trainable"], list)
            and all(isinstance(flag, bool) for flag in header["trainable"])):
        raise FormatError(f"{path}: header is not a spec, a dtype name and a list of trainable flags")
    dtype = require_float_dtype(f"{path}: dtype", header["dtype"], FormatError)
    return header["spec"], dtype, header["trainable"]


def load_checkpoint(path):
    """Rebuild a model from a checkpoint; nothing is drawn at random.

    Each payload is read at its slot's shape, in slot order.  A short file
    raises :class:`TruncationError`; a foreign, malformed or over-long one,
    or one whose flags do not fit its spec, :class:`FormatError`; a damaged
    header or payload, or one whose payloads do not fit its spec,
    :class:`ChecksumError`.
    """
    r = fileio.Reader(fileio.read_bytes(path, StorageError, "checkpoint"), path)
    if r.take(4) != MAGIC:
        raise FormatError(f"{path}: bad magic bytes")
    version, header_len = r.unpack("<HI")
    if version != VERSION:
        raise VersionError(f"{path}: unsupported checkpoint version {version}")
    spec, dtype, flags = _parse_header(r.take_checked(header_len, "the header"), path)
    flags = iter(flags)

    def take(name, slot):
        payload = r.take_checked(math.prod(slot.shape) * dtype.itemsize, repr(name))
        values = np.frombuffer(payload, dtype=dtype).reshape(slot.shape).copy()
        if slot.role == "bn_state":
            return values
        trainable = next(flags, None)
        if trainable is None:
            raise FormatError(f"{path}: fewer trainable flags than the spec has parameters")
        return ParamTensor(name, slot.role, values, trainable, slot.l2)

    try:
        model = graph.assemble(graph.spec_from_dict(spec), take)
    except SpecError as exc:
        raise FormatError(f"{path}: bad model spec: {exc}") from exc
    if next(flags, None) is not None:
        raise FormatError(f"{path}: more trainable flags than the spec has parameters")
    r.expect_end()
    return model
