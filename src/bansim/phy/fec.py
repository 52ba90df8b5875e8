"""Block coding modeled as rate expansion with checksum parity.

Only the (n, k) geometry matters to the rest of the stack: k information
bits expand to an n-bit codeword, the last block zero-padded to a whole
codeword. The n - k = 12 parity bits (none when n == k) are the 12-bit
checksum `crc12_bits` of the codeword's information bits, which makes
every single-bit corruption of a codeword detectable. Decoding is
detect-only: a parity mismatch raises, nothing is corrected.

That checksum has init 0 and no final XOR, so it is linear over GF(2): the
parity of information row u is u @ G mod 2, where row i of the k x 12
generator matrix G is the checksum of unit vector i. Encoding takes all
parity rows in one product, decoding checks all 0/1 codewords in one
syndrome product with [G; I12], and mod 2 is the low bit of int32 sums.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from bansim.errors import CodewordError, ConfigError, TruncatedFrame
from bansim.phy.bitfields import int_to_bits
from bansim.phy.checksums import crc12_bits

__all__ = ["BlockCode", "encode_blocks", "decode_blocks", "coded_length"]

BlockCode = tuple[int, int]  # (n, k)
PARITY_BITS = 12


def _check_code(code: BlockCode) -> BlockCode:
    n, k = code
    if k < 1 or n - k not in (0, PARITY_BITS):
        raise ConfigError(f"block code ({n},{k}) needs k >= 1 and n - k of 0 or {PARITY_BITS}")
    return n, k


@functools.cache
def _generator(k: int) -> np.ndarray:
    """[G; I12] over GF(2), row i < k the parity of unit vector i. float32 runs
    the products in BLAS, exact for k < 2**24; a cast to uint8 is undefined past 255."""
    rows = [int_to_bits(crc12_bits(unit.tolist()), PARITY_BITS) for unit in np.eye(k, dtype=int)]
    matrix = np.vstack([np.array(rows, dtype=np.float32), np.eye(PARITY_BITS, dtype=np.float32)])
    matrix.flags.writeable = False
    return matrix


def _parity(info: np.ndarray) -> np.ndarray:
    """Parity rows of a (blocks, k) information matrix."""
    return ((info @ _generator(info.shape[1])[:-PARITY_BITS]).astype(np.int32) & 1).astype(np.uint8)


def coded_length(info_bit_count: int, code: BlockCode) -> int:
    """Serialized bit count after expansion to whole codewords."""
    n, k = code
    return math.ceil(info_bit_count / k) * n if info_bit_count else 0


def encode_blocks(bits: np.ndarray, code: BlockCode) -> np.ndarray:
    """Expand information bits into n-bit codewords.

    The final partial block is padded with zero bits up to k before its
    parity is computed; the pad is checked on decode.
    """
    n, k = _check_code(code)
    bits = np.asarray(bits, dtype=np.uint8)
    info = np.concatenate([bits, np.zeros(-len(bits) % k, dtype=np.uint8)]).reshape(-1, k)
    return (np.concatenate([info, _parity(info)], axis=1) if n > k else info).ravel()


def decode_blocks(image: np.ndarray, code: BlockCode, info_bit_count: int) -> np.ndarray:
    """Recover information bits, validating parity and pad bits.

    `info_bit_count` is the true payload size; capacity bits beyond it in
    the final codeword must be zero. Parity errors name the first bad codeword.
    """
    n, k = _check_code(code)
    image = np.asarray(image, dtype=np.uint8)
    expected = coded_length(info_bit_count, code)
    if len(image) < expected:
        raise TruncatedFrame(f"coded region holds {len(image)} bits, needs {expected}")
    if len(image) > expected:
        raise CodewordError(f"coded region holds {len(image)} bits, expected {expected}")
    words = image.reshape(-1, n)
    if n > k:
        syndrome = (words @ _generator(k)).astype(np.int32) & 1
        if syndrome.any():
            raise CodewordError(f"parity mismatch in codeword {syndrome.any(axis=1).argmax()}")
    info_bits = words[:, :k].flatten()
    if info_bits[info_bit_count:].any():
        raise CodewordError("nonzero pad bits in final codeword")
    return info_bits[:info_bit_count]
