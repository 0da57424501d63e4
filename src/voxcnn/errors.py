"""Exception hierarchy shared by all voxcnn modules, and the type checks for config values."""

import math
import numbers

import numpy as np


class VoxcnnError(Exception):
    """Base class for all package errors."""


class SpecError(VoxcnnError):
    """A model/layer specification is malformed or does not compose."""


class ShapeError(SpecError):
    """Array dimensions incompatible with the requested operation; a kind of spec error."""


class InputError(VoxcnnError):
    """An argument is outside its documented domain."""


class DataError(VoxcnnError):
    """Input data violates a numeric precondition (e.g. constant volume)."""


class NumericError(VoxcnnError):
    """Non-finite values appeared where finite values are required."""


class StorageError(VoxcnnError):
    """A data file or output cannot be read, parsed or written; base of the record errors."""


class FormatError(StorageError):
    """Bad magic bytes or otherwise unparseable record."""


class VersionError(StorageError):
    """Record written by an unsupported format version."""


class ChecksumError(StorageError):
    """Payload failed its CRC check."""


class TruncationError(StorageError):
    """Record file ended before all declared bytes were read."""


# Config values read from JSON: an integer that is not a bool, a finite real
# that is not a bool, or a bool; and objects that hold only known keys.


def require_int(name: str, value, error=InputError):
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise error(f"{name} must be an integer, got {value!r}")


def require_real(name: str, value, error=InputError):
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise error(f"{name} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise error(f"{name} must be finite, got {value}")


def require_bool(name: str, value, error=InputError):
    if not isinstance(value, bool):
        raise error(f"{name} must be true or false, got {value!r}")


def require_float_dtype(name: str, value, error=InputError) -> np.dtype:
    """``value`` as a NumPy dtype; raises ``error`` unless it is a float type."""
    try:
        dtype = np.dtype(value)
    except (TypeError, ValueError) as exc:
        raise error(f"{name} {value!r} is not a NumPy dtype") from exc
    if dtype.kind != "f":
        raise error(f"{name} {value!r} is not a float type")
    return dtype


def require_known_keys(what: str, d: dict, known, error=InputError):
    unknown = [k for k in d if k not in known]
    if unknown:
        raise error(f"unknown {what} {', '.join(map(repr, unknown))}")
