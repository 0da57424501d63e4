"""Deterministic, named random substreams.

All randomness in the package flows from a single master seed.  Named
substreams (e.g. ``("init",)``, ``("shuffle", epoch)``, ``("augment", epoch,
sample)``) are derived through ``numpy.random.SeedSequence`` spawn keys, so
two runs with the same seed produce bitwise-identical draws regardless of
the order in which substreams are created.
"""

from __future__ import annotations

import zlib

import numpy as np

from .errors import InputError, require_int


def _key_part(part) -> int:
    if isinstance(part, (int, np.integer)):
        if part < 0:
            raise ValueError("substream key integers must be non-negative")
        return int(part)
    if isinstance(part, str):
        return zlib.crc32(part.encode("utf-8"))
    raise TypeError(f"unsupported substream key part: {part!r}")


def substream(seed: int, *names) -> np.random.Generator:
    """Return a generator for the substream identified by ``names``.

    ``seed`` must be an integer >= 0; anything else raises :class:`InputError`.
    """
    require_int("seed", seed)
    if seed < 0:
        raise InputError(f"seed must be >= 0, got {seed}")
    key = tuple(_key_part(p) for p in names)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))


def sample_seed(seed: int, *names) -> int:
    """Derive a child seed (for APIs that take seeds, not generators)."""
    return int(substream(seed, *names).integers(0, 2**63 - 1))
