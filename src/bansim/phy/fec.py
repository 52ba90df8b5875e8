"""Block coding modeled as rate expansion with checksum parity.

Only the (n, k) geometry matters to the rest of the stack: k information
bits expand to an n-bit codeword, the last block zero-padded to a whole
codeword. The (n - k) parity bits are a 12-bit checksum of the codeword's
information bits, which makes every single-bit corruption of a codeword
detectable. Decoding is detect-only: a parity mismatch raises, nothing is
corrected.
"""

from __future__ import annotations

import math

import numpy as np

from bansim.errors import CodewordError, TruncatedFrame
from bansim.phy.bitfields import int_to_bits
from bansim.phy.checksums import crc12_bits

__all__ = ["BlockCode", "crc_parity", "encode_blocks", "decode_blocks", "coded_length"]

# (n, k) code geometry; both stack codes have n - k = 12, which is why a
# 12-bit checksum serves as the parity for either.
BlockCode = tuple[int, int]


def crc_parity(info_bits: np.ndarray, width: int) -> np.ndarray:
    """Codeword parity: a 12-bit checksum of the information bits."""
    if width != 12:
        raise ValueError(f"parity is 12 bits wide, codeword needs {width}")
    return int_to_bits(crc12_bits(int(b) for b in info_bits), 12)


def coded_length(info_bit_count: int, code: BlockCode) -> int:
    """Serialized bit count after expansion to whole codewords."""
    n, k = code
    return math.ceil(info_bit_count / k) * n if info_bit_count else 0


def encode_blocks(bits: np.ndarray, code: BlockCode) -> np.ndarray:
    """Expand information bits into n-bit codewords.

    The final partial block is padded with zero bits up to k before its
    parity is computed; the pad is checked on decode.
    """
    n, k = code
    if n < k or k < 1:
        raise ValueError(f"bad code geometry ({n},{k})")
    bits = np.asarray(bits, dtype=np.uint8)
    if len(bits) == 0:
        return np.zeros(0, dtype=np.uint8)
    blocks = []
    for off in range(0, len(bits), k):
        info = bits[off : off + k]
        if len(info) < k:
            info = np.concatenate([info, np.zeros(k - len(info), dtype=np.uint8)])
        if n == k:
            blocks.append(info)
        else:
            blocks.append(np.concatenate([info, crc_parity(info, n - k)]))
    return np.concatenate(blocks)


def decode_blocks(image: np.ndarray, code: BlockCode, info_bit_count: int) -> np.ndarray:
    """Recover information bits, validating parity and pad bits.

    `info_bit_count` is the true payload size; capacity bits beyond it in
    the final codeword must be zero.
    """
    n, k = code
    image = np.asarray(image, dtype=np.uint8)
    expected = coded_length(info_bit_count, code)
    if len(image) < expected:
        raise TruncatedFrame(
            f"coded region holds {len(image)} bits, needs {expected}"
        )
    if len(image) > expected:
        raise CodewordError(f"coded region holds {len(image)} bits, expected {expected}")
    out = []
    for idx, off in enumerate(range(0, len(image), n)):
        word = image[off : off + n]
        info = word[:k]
        if n > k and not np.array_equal(word[k:], crc_parity(info, n - k)):
            raise CodewordError(f"parity mismatch in codeword {idx}")
        out.append(info)
    info_bits = np.concatenate(out) if out else np.zeros(0, dtype=np.uint8)
    if info_bits[info_bit_count:].any():
        raise CodewordError("nonzero pad bits in final codeword")
    return info_bits[:info_bit_count]
