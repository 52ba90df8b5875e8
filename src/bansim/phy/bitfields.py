"""Bit-array helpers shared by the frame codecs.

Frames are manipulated as numpy uint8 arrays of 0/1 values, MSB first
within every field and every byte. Integers pass through their big-endian
bytes and numpy's `unpackbits`/`packbits`, with no per-bit Python loop.
"""

from __future__ import annotations

import operator

import numpy as np

__all__ = ["checked_uint", "int_to_bits", "bits_to_int", "bytes_to_bits", "bits_to_bytes", "padded_bytes"]


def checked_uint(value: int, width: int) -> int:
    """`value` as an int; ValueError unless it fits in `width` unsigned bits."""
    if value < 0 or value >= (1 << width):
        raise ValueError(f"value {value} does not fit in {width} bits")
    return operator.index(value)


def int_to_bits(value: int, width: int) -> np.ndarray:
    """Unsigned value as `width` bits, MSB first."""
    n_bytes = (width + 7) // 8
    data = checked_uint(value, width).to_bytes(n_bytes, "big")
    return np.unpackbits(np.frombuffer(data, dtype=np.uint8))[8 * n_bytes - width :]


def bits_to_int(bits: np.ndarray) -> int:
    """Unsigned value of a bit sequence, MSB first."""
    bits = np.asarray(bits, dtype=np.uint8)
    return int.from_bytes(np.packbits(bits).tobytes(), "big") >> (-len(bits) % 8)


def bytes_to_bits(data: bytes) -> np.ndarray:
    return np.unpackbits(np.frombuffer(data, dtype=np.uint8))


def bits_to_bytes(bits: np.ndarray) -> bytes:
    if len(bits) % 8:
        raise ValueError(f"bit count {len(bits)} is not a whole number of bytes")
    return padded_bytes(bits)


def padded_bytes(bits: np.ndarray) -> bytes:
    """Bits packed MSB first; a last partial byte is filled out with zeros."""
    return np.packbits(np.asarray(bits, dtype=np.uint8)).tobytes()
