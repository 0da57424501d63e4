"""Every file voxcnn reads or writes goes through this module.

An input that cannot be read (missing, a directory, no permission) or
decoded (not UTF-8, not JSON) raises the error class its caller names.  An
output goes to a new file beside its target, which then replaces the target;
a failed write removes that file and raises :class:`StorageError`.  Written
files get the mode a plain ``open`` gives; nothing is fsynced.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import struct
import zlib

from .errors import ChecksumError, FormatError, StorageError, TruncationError

_TEMP_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_CLOEXEC", 0)
_temp_serial = itertools.count()  # with the pid, names temp files uniquely and without a syscall


def read_bytes(path, error, what: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc


def decode_text(data, error, what: str) -> str:
    """``data`` (bytes or any other buffer) decoded as UTF-8."""
    try:
        return str(data, "utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{what} is not UTF-8: {exc}") from exc


def decode_json(data: bytes, error, what: str):
    try:
        return json.loads(decode_text(data, error, what))
    except json.JSONDecodeError as exc:
        raise error(f"{what} is not valid JSON: {exc}") from exc


def read_json(path, error, what: str):
    return decode_json(read_bytes(path, error, what), error, f"{what} {path}")


class Reader:
    """Sequential reads from a file's bytes; reading past the end raises TruncationError.

    Reads are ``memoryview`` slices of the file's bytes, not copies: a caller
    that keeps what it read copies it once, into an array it owns.
    """

    def __init__(self, data: bytes, path):
        self.data = memoryview(data)
        self.pos = 0
        self.path = path

    def take(self, n: int) -> memoryview:
        if self.pos + n > len(self.data):
            raise TruncationError(f"{self.path}: truncated at byte {self.pos} (need {n} more)")
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def take_checked(self, n: int, what: str) -> memoryview:
        """``n`` bytes and the CRC-32 that follows them (see :func:`with_crc`)."""
        payload = self.take(n)
        if zlib.crc32(payload) != self.unpack("<I")[0]:
            raise ChecksumError(f"{self.path}: CRC mismatch for {what}")
        return payload

    def expect_end(self):
        if self.pos != len(self.data):
            raise FormatError(f"{self.path}: {len(self.data) - self.pos} trailing bytes")


def with_crc(payload: bytes) -> list[bytes]:
    return [payload, struct.pack("<I", zlib.crc32(payload))]


def write_bytes(path, data: bytes):
    """Replace ``path`` with ``data`` in one rename; a failed write leaves nothing behind."""
    directory, name = os.path.split(os.fspath(path))
    tmp = None
    try:
        while tmp is None:  # skips a name that a dead process with this pid left behind
            candidate = os.path.join(directory, f".{name}.{os.getpid()}-{next(_temp_serial)}.tmp")
            with contextlib.suppress(FileExistsError):
                fd = os.open(candidate, _TEMP_FLAGS, 0o666)
                tmp = candidate
        with open(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
        if isinstance(exc, OSError):
            raise StorageError(f"cannot write {path}: {exc}") from exc
        raise


def write_json(path, obj, **dumps_args):
    write_bytes(path, (json.dumps(obj, **dumps_args) + "\n").encode("utf-8"))


def make_dirs(path):
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise StorageError(f"cannot create directory {path}: {exc}") from exc
