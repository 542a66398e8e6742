"""Deterministic 64-bit seed derivation for independent RNG streams.

Every random stream in the library (solver mutations, benchmark transforms,
noise, per-cell experiment seeds) is derived from a single master seed and a
tuple of labels, so that reruns are bit-identical and distinct label tuples
get statistically independent streams.
"""

from __future__ import annotations

from typing import Iterable

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3

#: derive_seed(0, []) equals this value: the first output of the splitmix64
#: sequence seeded with 0.  Pinned here and in the README as a test vector.
SEED_TEST_VECTOR = 0xE220A8397B1DCDAF


def _mix64(state: int) -> int:
    # splitmix64 step: add the golden-ratio increment, then avalanche.
    z = (state + _GOLDEN) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def _hash_label(label) -> int:
    """FNV-1a over a type-tagged byte encoding of one label."""
    if isinstance(label, bool):  # bool is an int subclass; tag it apart
        data = b"b" + bytes([int(label)])
    elif isinstance(label, int):
        data = b"i" + (label & _MASK).to_bytes(8, "little")
    elif isinstance(label, str):
        data = b"s" + label.encode("utf-8")
    else:
        raise TypeError(f"seed labels must be str or int, got {type(label).__name__}")
    h = _FNV_OFFSET
    for byte in data:
        h = ((h ^ byte) * _FNV_PRIME) & _MASK
    return h


def derive_seed(master_seed: int, labels: Iterable = ()) -> int:
    """Mix a master seed and a label tuple into a 64-bit seed.

    Equal inputs give equal outputs, and distinct label tuples give
    independent streams.  With no labels this is a single splitmix64 step of
    the master seed, so ``derive_seed(0) == SEED_TEST_VECTOR``.
    """
    state = _mix64(master_seed & _MASK)
    for label in labels:
        state = _mix64(state ^ _hash_label(label))
    return state

